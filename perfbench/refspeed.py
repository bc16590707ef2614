"""In-process speed reference, sampled while the timed work runs.

The host this benchmark runs on is shared: its speed moves by tens of
percent within a second.  A time divided by the duration of a fixed kernel
measured beside it tracks the work, not the host.  A reference run only
before or after a long solve misses the speed changes inside it, so
``SpeedSampler`` runs a short fixed kernel from an interval-timer signal
every ``SAMPLE_INTERVAL_S`` seconds, in the same process and thread as the
timed work.  Python runs the handler between bytecodes, so it never
interrupts native code and leaves the program's results untouched.

``SpeedSampler.time(fn)`` returns fn's result, its wall time minus the
time spent in the handler (the work time), and the work time at nominal
speed: work time times the mean of ``nominal / kernel duration`` over the
samples taken during the call.  When a call is too short to hold
``MIN_SAMPLES`` samples, the latest samples taken before it make up the
count (the host's speed changes little over tens of milliseconds); only
when the sampler has not yet taken that many does the kernel run right
after the call.

The kernels never change and import nothing from the package under test:

* ``py_kernel`` is pure Python (dicts, sorting, integer arithmetic).  It
  serves the set-up phase and the cold CLI runs, whose cost is mostly
  interpreter work, and it runs before numpy is imported.
* ``np_kernel`` is a few small numpy calls on 8x8 operands (products,
  hypot, concatenation, a dense solve), the mix of per-call overhead and
  tiny kernels that dominates one solver iteration.
"""

import signal
from time import perf_counter

# Nominal kernel durations in seconds.  They fix the unit of every reported
# time and must never change, or old and new figures stop being comparable.
PY_NOMINAL_S = 2e-4
NP_NOMINAL_S = 2e-4

SAMPLE_INTERVAL_S = 0.005
MIN_SAMPLES = 8


def py_kernel() -> float:
    """Run the pure-Python kernel once; return its duration in seconds."""
    t0 = perf_counter()
    acc = 0
    for i in range(32):
        table = {}
        for j in range(24):
            table[(i * 31 + j) % 97] = j * j
        acc = (acc + sum(v for _, v in sorted(table.items()))) % 1000003
    if acc < 0:  # keeps the loop's result alive
        raise AssertionError
    return perf_counter() - t0


def np_kernel() -> float:
    """Run the small-array numpy kernel once; return its duration in seconds."""
    import numpy as np

    m = np.arange(64.0).reshape(8, 8) / 64.0 + 3.0 * np.eye(8)
    x0 = np.linspace(-1.0, 1.0, 8)
    t0 = perf_counter()
    x = x0
    for _ in range(12):
        y = m @ x + 0.5
        h = np.hypot(x, y) - (x + y)
        g = np.concatenate([h[:4], y[4:]])
        x = np.linalg.solve(m + np.diag(0.01 * g), g) * 0.1 + x0
    dt = perf_counter() - t0
    if not np.isfinite(x).all():
        raise AssertionError("reference kernel produced a non-finite value")
    return dt


class SpeedSampler:
    """Samples a kernel's speed from SIGALRM while installed (``with``)."""

    def __init__(self, kernel, nominal_s: float):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.speeds: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.speeds.append(self.nominal_s / self.kernel())
        self.spent_s += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[int, float]:
        return len(self.speeds), self.spent_s

    def since(self, mark: tuple[int, float], wall_s: float) -> tuple[float, float]:
        """(work seconds, nominal seconds) of wall_s seconds that began at mark."""
        n0, spent0 = mark
        speeds = self.speeds[min(n0, max(0, len(self.speeds) - MIN_SAMPLES)):]
        work = wall_s - (self.spent_s - spent0)
        while len(speeds) < MIN_SAMPLES:
            speeds.append(self.nominal_s / self.kernel())
        return work, work * sum(speeds) / len(speeds)

    def time(self, fn, *args):
        """(fn(*args), work seconds, nominal seconds)."""
        mark = self.mark()
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        return (out, *self.since(mark, wall))
