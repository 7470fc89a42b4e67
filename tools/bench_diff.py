#!/usr/bin/env python3
"""Diff two BENCH_*.json perf reports produced by `lbb_bench perf_report`,
`lbb_bench par_speedup`, `lbb_bench serve_load`, or `lbb_bench tail_study`.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--band 0.15]

Cells are matched by (experiment name, algo, log2_n, threads).  For each
matched cell the script compares:

  * wall_seconds / bisections_per_sec -- timing, judged against a relative
    noise band (default +/-15%): wall-clock numbers from a shared machine
    jitter, so only excursions beyond the band count as regressions.
  * alloc_count / alloc_bytes -- allocation accounting from the interposing
    probe.  These are near-deterministic (workspace warm-up residue only),
    so ANY increase in alloc_count is flagged: the whole point of the
    zero-alloc hot path is that this number does not creep back up.
  * speedup -- par_speedup cells marked is_max_threads carry the measured
    work-stealing speedup at the largest thread count; a drop of more than
    the band (default 15%) is a scaling regression.  Only judged when both
    reports come from machines with the same hardware_concurrency --
    speedups from different core counts are not comparable.
  * p50_ms / p95_ms / p99_ms / partitions_per_sec -- serve_load latency
    cells.  A p99 increase beyond the band, or a serving-throughput drop
    beyond it, is a tail-latency regression; like speedups these are only
    judged between matching hardware_concurrency reports.  p50/p95 shifts
    are printed informationally (the tail is the contract; the median
    mostly tracks cache-hit cost).
  * batch_speedup -- perf_report cells carry the batched-vs-scalar
    throughput multiple of the SoA trial engine; a drop beyond the band
    means the batched kernels lost their edge over the scalar path (or the
    scalar path regressed less than the batched one).  Wall-clock derived,
    so judged only between matching hardware_concurrency reports.
  * p99 / p999 / max_ratio / upper_bound -- tail_study cells (max-ratio
    TAIL, unitless).  These are machine-independent statistics, so they are
    gated regardless of hardware: a p99 or p99.9 increase beyond the band
    is a tail regression, and an observed max_ratio above the cell's proven
    upper_bound is flagged unconditionally -- that is a theorem violation,
    not noise.

Exit status: 0 if no regression, 1 if any cell regressed, 2 on usage or
input errors.  Cells present in only one report are listed but do not fail
the diff (grid changes are legitimate).
"""

from __future__ import annotations

import argparse
import json
import sys


def load_cells(path):
    """Returns ({(experiment, algo, log2_n): cell}, report-level metadata)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    cells = {}
    for exp in report.get("experiments", []):
        for cell in exp.get("cells", []):
            key = (exp.get("name", "?"), cell.get("algo", "?"),
                   cell.get("log2_n", -1), cell.get("threads", -1))
            cells[key] = cell
    # tail_study reports carry a single top-level cell array instead of an
    # experiments wrapper; key them by the benchmark name.
    for cell in report.get("cells", []):
        key = (report.get("benchmark", "?"), cell.get("algo", "?"),
               cell.get("log2_n", -1), cell.get("threads", -1))
        cells[key] = cell
    meta = {k: report.get(k) for k in ("benchmark", "threads", "trials",
                                       "alloc_probe",
                                       "hardware_concurrency")}
    return cells, meta


def rel_change(base, cand):
    if base == 0:
        return float("inf") if cand != 0 else 0.0
    return (cand - base) / base


def fmt_pct(x):
    if x == float("inf"):
        return "+inf"
    return f"{x:+.1%}"


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff two lbb_bench perf_report JSON files.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--band", type=float, default=0.15,
                        help="relative noise band for timing metrics "
                             "(default 0.15 = +/-15%%)")
    args = parser.parse_args(argv)

    base_cells, base_meta = load_cells(args.baseline)
    cand_cells, cand_meta = load_cells(args.candidate)

    if base_meta.get("threads") != cand_meta.get("threads"):
        print(f"note: thread counts differ "
              f"({base_meta.get('threads')} vs {cand_meta.get('threads')}); "
              f"alloc counts include per-thread warm-up and may shift")
    if not cand_meta.get("alloc_probe", False):
        print("note: candidate was built WITHOUT the alloc probe; "
              "alloc columns are all zero and not comparable")
    same_hw = (base_meta.get("hardware_concurrency")
               == cand_meta.get("hardware_concurrency"))
    if not same_hw:
        print(f"note: hardware_concurrency differs "
              f"({base_meta.get('hardware_concurrency')} vs "
              f"{cand_meta.get('hardware_concurrency')}); "
              f"measured speedups are not comparable and are skipped")

    regressions = []
    rows = []
    for key in sorted(base_cells.keys() | cand_cells.keys()):
        exp, algo, log2_n, threads = key
        label = f"{exp} {algo} n=2^{log2_n}"
        if threads != -1:
            label += f" T={threads}"
        if key not in base_cells:
            rows.append((label, "only in candidate", ""))
            continue
        if key not in cand_cells:
            rows.append((label, "only in baseline", ""))
            continue
        b, c = base_cells[key], cand_cells[key]

        wall = rel_change(b.get("wall_seconds", 0), c.get("wall_seconds", 0))
        rate = rel_change(b.get("bisections_per_sec", 0),
                          c.get("bisections_per_sec", 0))
        dcount = c.get("alloc_count", 0) - b.get("alloc_count", 0)
        dbytes = c.get("alloc_bytes", 0) - b.get("alloc_bytes", 0)

        verdicts = []
        # Slower wall time / lower throughput beyond the band = regression.
        if wall > args.band:
            verdicts.append(f"wall {fmt_pct(wall)} > band")
        if rate < -args.band:
            verdicts.append(f"rate {fmt_pct(rate)} < band")
        if (base_meta.get("alloc_probe") and cand_meta.get("alloc_probe")
                and dcount > 0):
            verdicts.append(f"alloc_count +{dcount}")
        # Scaling regression: measured speedup at the top thread count
        # dropped by more than the band relative to the baseline.
        if (same_hw and b.get("is_max_threads") and c.get("is_max_threads")
                and b.get("speedup", 0) > 0):
            dspeed = rel_change(b["speedup"], c.get("speedup", 0))
            if dspeed < -args.band:
                verdicts.append(f"speedup {fmt_pct(dspeed)} < band")
        # Batched-engine regression (perf_report cells): the batched/scalar
        # throughput multiple dropped beyond the band.  Both rates come
        # from the same run on the same machine, but the multiple still
        # shifts with core count, so it gets the same-hw guard.
        if same_hw and b.get("batch_speedup", 0) > 0:
            dbatch = rel_change(b["batch_speedup"], c.get("batch_speedup", 0))
            if dbatch < -args.band:
                verdicts.append(f"batch_speedup {fmt_pct(dbatch)} < band")
        # Tail trajectory (tail_study cells, unitless max-ratio quantiles):
        # machine-independent statistics, so gated without the hw guard.
        has_tail = b.get("p99", 0) > 0 and c.get("p99", 0) > 0
        if has_tail:
            for q in ("p99", "p999"):
                dq = rel_change(b.get(q, 0), c.get(q, 0))
                if dq > args.band:
                    verdicts.append(f"{q} {fmt_pct(dq)} > band")
        # The observed max must sit below the proven bound, full stop.
        if (c.get("upper_bound", 0) > 0
                and c.get("max_ratio", 0) > c["upper_bound"]):
            verdicts.append(
                f"max_ratio {c['max_ratio']:.6g} exceeds proven bound "
                f"{c['upper_bound']:.6g}")
        # Tail-latency regression (serve_load cells): only the p99 and the
        # serving throughput gate; p50/p95 are informational below.
        has_latency = b.get("p99_ms", 0) > 0 and c.get("p99_ms", 0) > 0
        if same_hw and has_latency:
            dp99 = rel_change(b["p99_ms"], c["p99_ms"])
            if dp99 > args.band:
                verdicts.append(f"p99 {fmt_pct(dp99)} > band")
            if b.get("partitions_per_sec", 0) > 0:
                dpps = rel_change(b["partitions_per_sec"],
                                  c.get("partitions_per_sec", 0))
                if dpps < -args.band:
                    verdicts.append(f"partitions/s {fmt_pct(dpps)} < band")
        status = "REGRESSED: " + "; ".join(verdicts) if verdicts else "ok"
        if verdicts:
            regressions.append(label)
        detail = (f"wall {fmt_pct(wall)}  rate {fmt_pct(rate)}  "
                  f"allocs {dcount:+d} ({dbytes:+d} B)")
        if b.get("batch_speedup", 0) > 0 and c.get("batch_speedup", 0) > 0:
            detail += (f"  batchx "
                       f"{fmt_pct(rel_change(b['batch_speedup'], c['batch_speedup']))}")
        if has_tail:
            detail += (
                f"  p99 {fmt_pct(rel_change(b['p99'], c['p99']))}"
                f"  p99.9 {fmt_pct(rel_change(b.get('p999', 0), c.get('p999', 0)))}")
        if has_latency:
            detail += (
                f"  p50 {fmt_pct(rel_change(b.get('p50_ms', 0), c.get('p50_ms', 0)))}"
                f"  p95 {fmt_pct(rel_change(b.get('p95_ms', 0), c.get('p95_ms', 0)))}"
                f"  p99 {fmt_pct(rel_change(b['p99_ms'], c['p99_ms']))}")
        rows.append((label, detail, status))

    width = max((len(r[0]) for r in rows), default=0)
    for label, detail, status in rows:
        print(f"{label:<{width}}  {detail}  {status}".rstrip())

    if regressions:
        print(f"\n{len(regressions)} cell(s) regressed "
              f"(band {args.band:.0%}):")
        for label in regressions:
            print(f"  {label}")
        return 1
    print(f"\nno regressions ({len(rows)} cells, band {args.band:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
