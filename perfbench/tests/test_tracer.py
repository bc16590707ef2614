"""The outside-in tracer counts layer calls, restores the package and
reports hooks that no longer exist."""

import io
import sys
import types
from contextlib import redirect_stdout

import esoclcp.cli as cli
import esoclcp.solvers as solvers
from tracer import Tracer


def _main_json() -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["solve", "example-paper", "--json"]) == 0
    return buf.getvalue()


def test_traced_report_is_byte_identical_and_counts_iterations():
    plain = _main_json()
    tracer = Tracer()
    with tracer.installed():
        traced = _main_json()
    assert traced == plain
    assert tracer.missing == []
    stats = tracer.stats
    assert stats["solvers.solve_esoclcp"].calls == 1
    # 11 LM iterations on the example: one Jacobian and one LU per step.
    assert stats["fbsystem.fb_jacobian"].calls == 11
    assert stats["linalg.lu_factor"].calls == 11
    assert stats["fbsystem.fb_residual"].calls == 13
    assert stats["solvers.psi_fb"].calls == 0


def test_originals_are_restored():
    before = (solvers.fb_residual, solvers.lu_factor, cli.solve_esoclcp)
    tracer = Tracer()
    with tracer.installed():
        assert solvers.fb_residual is not before[0]
    assert (solvers.fb_residual, solvers.lu_factor, cli.solve_esoclcp) == before


def test_missing_hooks_are_reported_not_raised():
    tracer = Tracer({
        "gone.name": [("esoclcp.solvers", "no_such_function")],
        "gone.module": [("no_such_module_for_tracing", "f")],
    })
    with tracer.installed():
        pass
    assert tracer.missing == [
        "gone.name (esoclcp.solvers.no_such_function)",
        "gone.module (no_such_module_for_tracing.f)",
    ]


def test_self_time_excludes_wrapped_children():
    mod = types.ModuleType("tracer_toy")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.02)\n"
        "def outer():\n    inner()\n    inner()\n",
        mod.__dict__,
    )
    sys.modules["tracer_toy"] = mod
    try:
        tracer = Tracer({"toy.outer": [("tracer_toy", "outer")], "toy.inner": [("tracer_toy", "inner")]})
        with tracer.installed():
            mod.outer()
    finally:
        del sys.modules["tracer_toy"]
    outer, inner = tracer.stats["toy.outer"], tracer.stats["toy.inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert inner.total_s >= 0.04
    assert 0.0 <= outer.self_s < 0.02
    assert abs(outer.total_s - outer.self_s - inner.total_s) < 1e-9
