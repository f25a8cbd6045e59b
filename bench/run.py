"""diskpoly benchmark: time one workload in fresh processes and check its output.

Usage (from the repository root):

    python3 bench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``verify_all``,
``table_grid`` and ``exact_gram``.  Every pass runs in a fresh child
interpreter, one child at a time, with ``src`` on the path, so each pass pays
cold caches the way a CLI user does; ``import diskpoly`` is timed separately
as set-up.  Passes repeat until ``--seconds`` have elapsed (at least
``MIN_PASSES``).  ``--trace 1`` alternates plain and traced passes and
reports the per-layer metrics; ``--trace 0`` reports the end-to-end ones.
End-to-end times are reference seconds (see ``REF_CALIB_S``).

The last line of standard output is the result object; the lines before it
are for people.  The full record, including every pass and the traced span
aggregates, is also written to ``.bench_out/results/``, which ``compare.py``
reads.  The exit code is 0 when every output check passed, 1 when one
failed, 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150
# Seconds the calibration loop in child.py takes at reference speed.  On a
# host whose cores are shared, a core's speed can drift by 25-40% within
# minutes and a pass's seconds drift with it; scaled by REF_CALIB_S / (the
# loop's time around that pass) they drift much less.  The end-to-end times
# are these reference seconds; raw seconds are printed and kept in the record.
REF_CALIB_S = 0.02
ENV_NOTE = ("CPUs are not pinned and the file cache is not dropped between passes, "
            "so numbers compare only between runs on one machine.")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DISKPOLY_THREADS", None)  # a stray value must not change a pass
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(workload: str, seed: int, index: int, workdir: Path, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(index),
           str(workdir), mode]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def _environment() -> dict:
    probe = _child("-", 0, 0, ROOT, "probe")
    src = ROOT / "src"
    if not Path(probe["diskpoly_file"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"diskpoly was imported from {probe['diskpoly_file']}, not {src}")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": probe["python"], "numpy": probe["numpy"], "scipy": probe["scipy"],
            "note": ENV_NOTE}


def _ref(p: dict, key: str) -> float:
    """A pass's ``key`` seconds in reference seconds."""
    return p[key] * REF_CALIB_S / p["calib_s"]


def _tail(values: list) -> str:
    """The highest percentile with at least ten passes beyond it."""
    n = len(values)
    if n < 11:
        return f"tail needs 11+ passes, have {n}"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f}"


# ----------------------------------------------------------- per layer

def _layer_value(name: str, snap: dict, funcs: dict) -> float:
    base, stat = name.rsplit(".", 1)
    if stat == "integrand_calls":
        return spans.child_calls(snap, "zernike.eval_explicit", base)
    if stat == "hit_ratio" and base in snap["hit_ratio"]:
        return snap["hit_ratio"][base]
    if stat == "hit_ratio":
        calls = funcs.get(base, {}).get("calls", 0)
        return 1.0 - snap["builds"].get(base, 0) / calls if calls else 0.0
    if stat == "builds":
        return snap["builds"].get(base, 0)
    if base in snap["counts"] and stat == "calls":
        return snap["counts"][base]
    if stat not in ("calls", "self_s", "total_s"):
        raise BenchError(f"unknown per-layer stat in {name!r}")
    return funcs.get(base, {}).get(stat, 0)


def _per_layer(names: list, traced: list, plain_wall: float) -> dict:
    known = {f"{m}.{f}" for table in (spans.SPANNED, spans.COUNTED, spans.CACHED)
             for m, fs in table.items() for f in fs}
    out = {}
    folded = [spans.per_function(p["trace"]) for p in traced]
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = statistics.median(_ref(p, "wall_s") for p in traced) / plain_wall
            continue
        if name.rsplit(".", 1)[0] not in known:
            raise BenchError(f"per-layer metric {name!r} names no recorded function")
        out[name] = statistics.median(_layer_value(name, p["trace"], f)
                                      for p, f in zip(traced, folded))
    return out


def _print_rankings(traced: list):
    """Where the traced time went: the functions with the largest total_s
    outside the suite and CLI layers, and the direct children of the
    cauchy suite."""
    folded = [spans.per_function(p["trace"]) for p in traced]
    names = {n for f in folded for n in f}
    total = {n: statistics.median(f.get(n, {}).get("total_s", 0.0) for f in folded)
             for n in names}
    top = sorted((n for n in total if not n.startswith(("suites.", "cli."))),
                 key=lambda n: -total[n])[:6]
    print("largest total_s outside suites/cli: "
          + ", ".join(f"{n} {total[n]:.3f} s" for n in top))
    kids = [spans.child_totals(p["trace"], "suites.suite_cauchy") for p in traced]
    names = {n for k in kids for n in k}
    if names:
        med = {n: statistics.median(k.get(n, 0.0) for k in kids) for n in names}
        print("suite_cauchy children by total_s: "
              + ", ".join(f"{n} {med[n]:.3f} s" for n in sorted(med, key=lambda n: -med[n])))


# ------------------------------------------------------------------ main

def _measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while (time.perf_counter() - start < seconds or len(plain) < MIN_PASSES
           or (trace and len(traced) < MIN_TRACED_PASSES)):
        mode = "traced" if trace and index % 2 else "plain"
        (traced if mode == "traced" else plain).append(
            _child(workload, seed, index, workdir, mode))
        index += 1
    return plain, traced


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "diskpoly" / "__init__.py").is_file():
        print(f"error: no diskpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = _environment()
        plain, traced = _measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace), workdir)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = [p["digest"] for p in passes if p["digest"] is not None]
    attempted += max(len(digests) - 1, 0)  # reruns with one seed write identical bytes
    failed += sum(d != digests[0] for d in digests[1:])

    wall = [_ref(p, "wall_s") for p in plain]
    e2e = {"wall_s": statistics.median(wall),
           "cpu_s": statistics.median(_ref(p, "cpu_s") for p in plain),
           "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
           "setup_s": statistics.median(_ref(p, "setup_s") for p in passes)}
    raw = {k: statistics.median(p[k] for p in (passes if k == "setup_s" else plain))
           for k in ("wall_s", "cpu_s", "setup_s")}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  "
          f"{len(plain)} plain + {len(traced)} traced passes")
    print("env " + json.dumps(env))
    print("times in reference seconds (raw seconds in brackets), medians over passes")
    print(f"wall_s       {e2e['wall_s']:.4f} s  ({raw['wall_s']:.4f})  "
          f"{len(plain)} passes; {_tail(wall)}")
    print(f"cpu_s        {e2e['cpu_s']:.4f} s  ({raw['cpu_s']:.4f})  user + sys per pass")
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB  child peak resident set after the pass")
    print(f"setup_s      {e2e['setup_s']:.4f} s  ({raw['setup_s']:.4f})  "
          f"import diskpoly, {len(passes)} children")
    print(f"fail_ratio   {failed / attempted:.6g} ratio  {failed} of {attempted} checks failed")

    if ns.trace:
        metrics = _per_layer([m["name"] for m in spec["per_layer"]], traced, e2e["wall_s"])
        _print_rankings(traced)
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    record = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
              "seconds": ns.seconds, "env": env, "end_to_end": e2e, "raw_seconds": raw,
              "result": result,
              "passes": passes}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{ns.workload}-trace{ns.trace}-seed{ns.seed}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"record -> {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
