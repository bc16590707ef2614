"""Outside-in tracer: times calls into the package's layers without editing it.

The package's modules look up the functions they call in their own module
namespace at call time (``from .fbsystem import fb_residual`` binds the name
``fb_residual`` in ``esoclcp.solvers``).  The tracer rebinds those names to
timing wrappers for the duration of a ``with tracer.installed():`` block and
restores the originals afterwards, so only calls made through that namespace
are counted.  For example ``fb_residual`` binds its own ``psi_fb`` in
``esoclcp.fbsystem``, so ``solvers.psi_fb`` counts only the reduced
branches' calls.

Each wrapped call is a span.  Its self time is its duration minus the time
of the wrapped calls made inside it.  A hook whose module or name no longer
exists is listed in ``missing`` instead of raising, so a refactor of the
package shows as a missing layer in the traced run.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Layer name -> the (module, attribute) bindings to wrap.  Every binding of
# one layer feeds the same counters.
HOOKS = {
    "solvers.solve_esoclcp": [("esoclcp.solvers", "solve_esoclcp"), ("esoclcp.cli", "solve_esoclcp")],
    "fbsystem.fb_residual": [("esoclcp.solvers", "fb_residual")],
    "fbsystem.fb_jacobian": [("esoclcp.solvers", "fb_jacobian")],
    "linalg.lu_factor": [("esoclcp.solvers", "lu_factor")],
    "linalg.lu_solve": [("esoclcp.solvers", "lu_solve")],
    "solvers.psi_fb": [("esoclcp.solvers", "psi_fb")],
    "fbsystem.certify_solution": [("esoclcp.solvers", "certify_solution")],
    "fbsystem.s0_check": [("esoclcp.fbsystem", "s0_check")],
    "cones.comp_pair_check": [("esoclcp.solvers", "comp_pair_check")],
    "reformulation.recover_solution": [("esoclcp.solvers", "recover_solution")],
    "reformulation.case_i_check": [("esoclcp.solvers", "case_i_check")],
    "reformulation.case_ii_check": [("esoclcp.solvers", "case_ii_check")],
}


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Per-layer call counts and self times, collected while installed."""

    def __init__(self, hooks: dict = HOOKS):
        self.hooks = hooks
        self.stats = {name: LayerStat() for name in hooks}
        self.missing: list[str] = []
        self._stack: list[float] = []

    def reset(self) -> None:
        self.stats = {name: LayerStat() for name in self.hooks}

    def _wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stat = self.stats[name]
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - inner
                if stack:
                    stack[-1] += dt

        return traced

    @contextmanager
    def installed(self):
        """Rebind every hook that exists; restore all of them on exit."""
        saved = []
        self.missing = []
        try:
            for name, bindings in self.hooks.items():
                for module_name, attr in bindings:
                    try:
                        module = importlib.import_module(module_name)
                        original = getattr(module, attr)
                    except (ImportError, AttributeError):
                        self.missing.append(f"{name} ({module_name}.{attr})")
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
