#!/usr/bin/env python3
"""Compares two sets of benchmark results (run.py --result files).

    python3 benchmark/compare.py A/*.json B/*.json
    python3 benchmark/compare.py --baseline-out OUT.json RUNS/*.json

Files are grouped by directory: the first directory is A (the reference),
the second is B.  For every (end-to-end metric, workload) it prints each
side's median and quartiles and a verdict against the metric's bound in
BENCHMARK.json:

  same        the medians differ by no more than the bound
  better      B's median is better than A's by more than the bound
  worse       B's median is worse than A's by more than the bound
  unresolved  a side's quartile spread exceeds the bound, and neither
              every B run beats every A run nor the reverse

When both sides ran the same seeds, the last column counts the seeds on
which B read worse than A.  On a host whose speed drifts between runs,
interleave the A and B runs seed by seed: a change smaller than the bound
then still shows as B worse (or better) on nearly every seed.

Per-layer metrics are listed with their medians and change, without a
verdict (they have no bound).  Exits 1 if any verdict is "worse".  Results
whose measured phases had different lengths are refused.

--baseline-out writes the medians and quartiles of one set of runs as a
baseline file for run.py (benchmark/baselines/<profile>.json).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(paths):
    """{(workload, metric): [values]} and {(workload, metric): {seed:
    [values]}}, plus the runs' profiles and commits."""
    values, by_seed, profiles, commits = {}, {}, set(), set()
    for path in paths:
        result = json.loads(Path(path).read_text())
        profiles.add(result.get("profile", {}).get("key", "unknown"))
        commits.add(result.get("commit", "unknown"))
        for workload, run in result["workloads"].items():
            for name, m in run["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
                by_seed.setdefault((workload, name), {}).setdefault(
                    result["seed"], []).append(m["value"])
    return values, by_seed, profiles, commits


def paired(seeds_a, seeds_b, better):
    """(seeds on which B reads worse than A, seeds compared), over the seeds
    each side ran exactly once."""
    common = [s for s in seeds_a if s in seeds_b
              and len(seeds_a[s]) == 1 and len(seeds_b[s]) == 1]
    sign = 1.0 if better == "lower" else -1.0
    worse = sum(sign * (seeds_b[s][0] - seeds_a[s][0]) > 0 for s in common)
    return worse, len(common)


def same_run_length(paths):
    """Refuses to mix results whose measured phases had different lengths:
    their medians describe different amounts of work."""
    lengths = {json.loads(Path(p).read_text())["seconds"] for p in paths}
    if len(lengths) != 1:
        sys.exit("compare.py: results measured for different lengths "
                 f"(seconds {sorted(lengths)}); compare like with like")


def verdict(a, b, bound, better):
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    b_better = all(sign * (y - x) < 0 for x in a for y in b)
    b_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound:
        return "better" if b_better else "worse" if b_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def fmt(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def write_baseline(paths, out):
    values, _, profiles, commits = collect(paths)
    if len(profiles) != 1:
        sys.exit(f"compare.py: runs come from several profiles: {profiles}")
    metrics = {}
    for (workload, name), vals in sorted(values.items()):
        q1, med, q3 = quartiles(vals)
        metrics.setdefault(workload, {})[name] = {
            "median": med, "q1": q1, "q3": q3, "runs": len(vals),
            "values": vals}
    first = json.loads(Path(paths[0]).read_text())
    Path(out).write_text(json.dumps({
        "profile": first["profile"], "commits": sorted(commits),
        "run_seconds": first["seconds"], "metrics": metrics},
        indent=1) + "\n")
    print(f"wrote {out} from {len(paths)} result files")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--baseline-out")
    args = ap.parse_args()
    same_run_length(args.files)
    if args.baseline_out:
        write_baseline(args.files, args.baseline_out)
        return 0

    groups = {}
    for f in args.files:
        groups.setdefault(str(Path(f).resolve().parent), []).append(f)
    if len(groups) != 2:
        sys.exit("compare.py: expected result files from exactly two "
                 f"directories, got {len(groups)}")
    (dir_a, files_a), (dir_b, files_b) = groups.items()
    a, seeds_a, prof_a, _ = collect(files_a)
    b, seeds_b, prof_b, _ = collect(files_b)
    if prof_a != prof_b:
        print(f"note: profiles differ: A {sorted(prof_a)} B {sorted(prof_b)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A = {dir_a} ({len(files_a)} files)   B = {dir_b} "
          f"({len(files_b)} files)")
    print(f"{'metric':<20} {'workload':<11} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8}  {'verdict':<22} "
          "B worse on seeds")
    counts = {}
    for m in spec["end_to_end"]:
        workloads = sorted({w for (w, n) in a if n == m["name"]} |
                           {w for (w, n) in b if n == m["name"]})
        for w in workloads:
            key = (w, m["name"])
            va, vb = a.get(key), b.get(key)
            pairs = ""
            if not va or not vb:
                v = "missing"
                line = f"{'-':<34} {'-':<34} {'':>8}"
            else:
                v = verdict(va, vb, m["bound"], m["better"])
                qa, qb = quartiles(va), quartiles(vb)
                line = (f"{fmt(qa):<34} {fmt(qb):<34} "
                        f"{qb[1] / qa[1] - 1:>+8.1%}")
                worse, n = paired(seeds_a[key], seeds_b[key], m["better"])
                pairs = f"{worse} of {n}" if n else "-"
            counts[v] = counts.get(v, 0) + 1
            print(f"{m['name']:<20} {w:<11} {line}  "
                  f"{v + ' (bound ' + format(m['bound'], '.0%') + ')':<22} "
                  f"{pairs}")
    print()
    for m in spec["per_layer"]:
        for w in sorted({w for (w, n) in a if n == m["name"]}):
            va, vb = a.get((w, m["name"])), b.get((w, m["name"]))
            if va and vb:
                qa, qb = quartiles(va), quartiles(vb)
                change = (f"{qb[1] / qa[1] - 1:>+8.1%}" if qa[1] != 0
                          else f"{'':>8}")
                print(f"{m['name']:<36} {w:<11} {fmt(qa):<34} "
                      f"{fmt(qb):<34} {change}")
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(
        counts.items())))
    return 1 if counts.get("worse") or counts.get("missing") else 0


if __name__ == "__main__":
    sys.exit(main())
