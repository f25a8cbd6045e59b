"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage (from the repository root):

    python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are directories of records written by ``run.py`` (its
``.bench_out/results`` directory, copied aside for each commit).  Runs are
paired by workload and seed.  For every end-to-end metric the tool prints
each side's median and quartiles, the fraction of pairs AFTER wins (ties
count for neither), and a verdict:

  gain          AFTER wins at least 9/10 of the pairs and the medians differ
                by more than BEFORE's quartile spread;
  regressed     AFTER's median is worse than BEFORE's by more than the bound
                in BENCHMARK.json;
  unresolved    BEFORE's own spread is wider than the bound, and not every
                AFTER run beats every BEFORE run;
  within-bound  otherwise.

Per-layer metrics from traced runs are listed where their medians differ,
as after/before ratios; they carry no verdict.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: Path) -> dict:
    """(workload, trace) -> {seed: {metric: value}}."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        rec = json.loads(f.read_text())
        values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = values
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(before: list, after: list, pairs: list, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0  # positive = AFTER is better
    wins = sum(sign * (a - b) > 0 for a, b in pairs)
    q1, med_a, q3 = quartiles(before)
    med_b = statistics.median(after)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_a - med_b) > q3 - q1:
        label = "gain"
    elif sign * (med_a - med_b) < -bound * abs(med_a):
        label = "regressed"
    elif (q3 - q1) > bound * abs(med_a) and not (
            min(after) > max(before) if sign < 0 else max(after) < min(before)):
        label = "unresolved"
    else:
        label = "within-bound"
    return wins, label


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(Path(argv[0])), load(Path(argv[1]))
    regressed = False
    for wl in [w["name"] for w in SPEC["workloads"]]:
        a_runs, b_runs = before.get((wl, 0), {}), after.get((wl, 0), {})
        if not a_runs or not b_runs:
            continue
        seeds = sorted(a_runs.keys() & b_runs.keys())
        print(f"{wl}: {len(a_runs)} before, {len(b_runs)} after, {len(seeds)} paired by seed")
        for m in SPEC["end_to_end"]:
            name = m["name"]
            a = [r[name] for r in a_runs.values()]
            b = [r[name] for r in b_runs.values()]
            pairs = [(a_runs[s][name], b_runs[s][name]) for s in seeds]
            wins, label = verdict(a, b, pairs, m["better"], m["bound"])
            regressed |= label == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:12s} before {qa[1]:.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
                  f"  after {qb[1]:.4f} [{qb[0]:.4f}, {qb[2]:.4f}] {m['unit']}"
                  f"  after/before {qb[1] / qa[1]:.3f}  wins {wins}/{len(pairs)}  {label}")
    for wl in [w["name"] for w in SPEC["workloads"]]:
        a_runs, b_runs = before.get((wl, 1), {}), after.get((wl, 1), {})
        if not a_runs or not b_runs:
            continue
        print(f"{wl} per layer (medians over traced runs, changed only):")
        for m in SPEC["per_layer"]:
            name = m["name"]
            med_a = statistics.median(r[name] for r in a_runs.values())
            med_b = statistics.median(r[name] for r in b_runs.values())
            if med_a != med_b:
                ratio = f"{med_b / med_a:.3f}" if med_a else "n/a"
                print(f"  {name:48s} {med_a:.6g} -> {med_b:.6g} {m['unit']}  ratio {ratio}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
