"""One cold CLI solve in a fresh interpreter, timed from the inside.

Usage: python3 coldchild.py <src dir> <problem path or example-paper>

Starts the pure-Python speed sampler, imports ``esoclcp.cli``, calls
``main(["solve", <problem>, "--json"])`` with stdout captured, and prints
one JSON line: work and nominal-speed times of the import and of main,
the exit code, the report text and the peak RSS.  Nothing but ``sys``,
``signal`` and the sampler is loaded before the timed import, so the import
is as cold as a user's.
"""

import sys


def main() -> None:
    src, problem = sys.argv[1], sys.argv[2]
    from time import perf_counter

    from refspeed import PY_NOMINAL_S, SpeedSampler, py_kernel

    with SpeedSampler(py_kernel, PY_NOMINAL_S) as sampler:
        mark = sampler.mark()
        t0 = perf_counter()
        sys.path.insert(0, src)
        import esoclcp.cli

        t1 = perf_counter()
        import_s = sampler.since(mark, t1 - t0)
        import io

        mark = sampler.mark()
        t1 = perf_counter()
        stdout, sys.stdout = sys.stdout, io.StringIO()
        try:
            code = esoclcp.cli.main(["solve", problem, "--json"])
            report = sys.stdout.getvalue()
        finally:
            sys.stdout = stdout
        main_s = sampler.since(mark, perf_counter() - t1)

    import json
    import resource

    print(
        json.dumps(
            {
                "import_s": import_s[0],
                "import_nominal_s": import_s[1],
                "main_s": main_s[0],
                "main_nominal_s": main_s[1],
                "code": code,
                "report": report,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "sampler_s": sampler.spent_s,
                "module": esoclcp.cli.__file__,
            }
        )
    )


if __name__ == "__main__":
    main()
