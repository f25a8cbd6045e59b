"""One benchmark pass in a fresh interpreter.

Usage: child.py WORKLOAD SEED PASS_INDEX WORKDIR MODE, with MODE one of
``plain`` (timed pass), ``traced`` (timed pass under the span recorder) or
``probe`` (import only, reporting the environment).  The last line of
standard output is one JSON object for the parent, ``run.py``.
"""

import json
import resource
import sys
import time
import traceback

t0 = time.perf_counter()
import diskpoly  # noqa: E402

setup_s = time.perf_counter() - t0


def _probe() -> dict:
    import numpy
    import scipy
    return {"diskpoly_file": diskpoly.__file__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0]}


def _calibrate() -> float:
    """Mean seconds of five runs of a fixed pure-Python loop: how fast the
    interpreter runs on this core right now."""
    total = 0.0
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        total += time.perf_counter() - t
    return total / 5


def _pass(workload: str, seed: int, pass_index: int, workdir: str, traced: bool) -> dict:
    from spans import Recorder
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    inp = w.prepare(seed, workdir)
    calib = _calibrate()
    rec = Recorder()
    if traced:
        rec.install()
    out, error = None, None
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        out = w.run(inp)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    snap = rec.snapshot() if traced else None
    rec.uninstall()
    calib = (calib + _calibrate()) / 2
    if error is None:
        try:
            attempted, failed, digest = w.check(inp, out, pass_index)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(error, file=sys.stderr)
        attempted, failed, digest = 1, 1, None
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, "calib_s": calib,
            "attempted": attempted, "failed": failed, "digest": digest, "trace": snap}


def main(argv) -> int:
    workload, seed, pass_index, workdir, mode = argv
    if mode == "probe":
        result = _probe()
    else:
        result = _pass(workload, int(seed), int(pass_index), workdir, mode == "traced")
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
