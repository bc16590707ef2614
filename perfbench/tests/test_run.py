"""Pieces of run.py that need no timed run."""

import run


def test_declared_sets_cover_every_dimension_pair():
    seeds = [seed for case, seed in run.SETS["vi-batch"]]
    pairs = {run.dims_of(seed) for seed in seeds[:25]}
    assert pairs == {(k, l) for k in range(1, 6) for l in range(1, 6)}


def test_parse_importtime_reads_cumulative_times():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1000 |      90000 |   numpy\n"
        "import time:       500 |     400000 |     scipy.linalg\n"
        "import time:       100 |     800000 | esoclcp\n"
    )
    got = run.parse_importtime(stderr, factor=1.0)
    assert got == {"import.numpy_ms": 90.0, "import.scipy_linalg_ms": 400.0, "import.esoclcp_ms": 800.0}


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "vi-batch", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_sampler_subtracts_its_own_time_and_restores_the_handler():
    import signal

    from refspeed import PY_NOMINAL_S, SpeedSampler, py_kernel

    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(py_kernel, PY_NOMINAL_S) as sampler:
        out, work, nominal = sampler.time(lambda: sum(i * i for i in range(300000)))
    assert signal.getsignal(signal.SIGALRM) is before
    assert out == sum(i * i for i in range(300000))
    assert len(sampler.speeds) >= 1 and 0.0 < work and nominal > 0.0
    assert sampler.spent_s > 0.0
