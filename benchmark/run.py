#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see benchmark/README.md).

    python3 benchmark/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                             [--smoke] [--result PATH]

Configures build-bench/ with the project's default flags plus the benchmark
targets (benchmark/inject.cmake), runs each workload in its own process in a
fixed order, prints every metric as `<workload> <metric> <value> <unit>`,
writes build-bench/result.json and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced binary and
reports the per-layer metrics, writes build-bench/trace.json (Chrome trace
events) and prints self time per span.  Exits nonzero on any correctness
failure, and without a result when the sources or the build are missing.

Each workload measures for BENCHMARK.json's run_seconds (1/20 of it under
--smoke).  The benchmark command interface also passes `--seconds
<run_seconds>`; any other value is refused, so every result of one
BENCHMARK.json measures the same work.
"""

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
WORKLOADS = ["mc_paper", "large_n", "serve_hot", "serve_cold"]
TARGETS = ["lbb_benchmark", "lbb_benchmark_traced"]
BUILD_TIMEOUT_S = 880


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(message, code=2):
    log(f"run.py: {message}")
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die("BENCHMARK.json not found at the repository root")
    return json.loads(path.read_text())


def parse_args(spec):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all four, in order)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help=argparse.SUPPRESS)
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"],
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 of the run length, every correctness check kept")
    ap.add_argument("--result", default=str(BUILD / "result.json"),
                    help="where to write the result JSON")
    args = ap.parse_args()
    if args.seconds != spec["run_seconds"]:
        die(f"--seconds must equal run_seconds of BENCHMARK.json "
            f"({spec['run_seconds']})")
    if args.smoke:
        args.seconds /= 20
    if args.seed < 0:
        die("--seed must be >= 0")
    return args


def cmake_cache():
    cache = {}
    path = BUILD / "CMakeCache.txt"
    if path.is_file():
        for line in path.read_text(errors="replace").splitlines():
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def build():
    """Configures (once) and builds both benchmark binaries."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("no CMakeLists.txt and src/ at the repository root; "
            "the benchmark builds the program from source")
    if shutil.which("cmake") is None:
        die("cmake not found")
    home = cmake_cache().get("CMAKE_HOME_DIRECTORY")
    if home is not None and Path(home).resolve() != ROOT:
        shutil.rmtree(BUILD)  # a build tree of another checkout
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
               f"-DCMAKE_PROJECT_lbb_INCLUDE={BENCH_DIR / 'inject.cmake'}",
               "-DBUILD_TESTING=OFF"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, "configure")
    run_logged(["cmake", "--build", str(BUILD), "--parallel", "4",
                "--target"] + TARGETS, "build")


def run_logged(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stdout[-6000:])
        die(f"{what} failed (exit {proc.returncode})", 3)


def run_binary(binary, workload, args, extra):
    cmd = [str(BUILD / binary), f"--workload={workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}"] + extra
    if args.smoke:
        cmd.append("--smoke")
    # The measured phase can overrun by its last repeat; set-up, checks and
    # the traced run's layer probes add well under 60 s.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 60)
    except subprocess.TimeoutExpired as e:
        die(f"{binary} --workload={workload} timed out after {e.timeout} s",
            1)
    if proc.stderr:
        log(proc.stderr.rstrip())
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError:
        die(f"{binary} --workload={workload} printed no result "
            f"(exit {proc.returncode})", 1)
    out["exit_code"] = proc.returncode
    return out


def self_times(trace_path):
    """Self time (ms) per span name, and the share of benchmark.measure that
    its direct child spans cover."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    tracks = {}
    for e in events:
        if e["ph"] == "X":
            tracks.setdefault(("t", e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"], e["name"]))
        elif e["ph"] in "be":
            tracks.setdefault(("a", e["id"], e["name"]), []).append(e)
    # Async begin/end pairs become intervals keyed by their request id.
    intervals = {}
    for key, items in tracks.items():
        if key[0] == "t":
            intervals.setdefault(key, []).extend(items)
            continue
        items.sort(key=lambda e: e["ts"])
        begin = None
        for e in items:
            if e["ph"] == "b":
                begin = e["ts"]
            elif begin is not None:
                intervals.setdefault(("r", key[1]), []).append(
                    (begin, e["ts"], key[2]))
                begin = None
    self_ms, measured, covered = {}, 0.0, 0.0
    for spans in intervals.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [end, name, child_total]

        def close(frame):
            nonlocal measured, covered
            end, name, begin, children = frame
            dur = end - begin
            self_ms[name] = self_ms.get(name, 0.0) + (dur - children) / 1e3
            if name == "benchmark.measure":
                measured += dur
                covered += children
            if stack:
                stack[-1][3] += dur

        for begin, end, name in spans:
            while stack and stack[-1][0] <= begin:
                close(stack.pop())
            stack.append([end, name, begin, 0.0])
        while stack:
            close(stack.pop())
    coverage = covered / measured if measured > 0 else float("nan")
    return self_ms, coverage


def merge_traces(paths, out_path):
    merged = []
    for pid, path in enumerate(paths, start=1):
        for e in json.loads(Path(path).read_text())["traceEvents"]:
            e["pid"] = pid
            if "id" in e:  # async ids must stay unique across workloads
                e["id"] += pid << 40
            merged.append(e)
    Path(out_path).write_text(json.dumps(
        {"traceEvents": merged, "displayTimeUnit": "ms"}))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def profile_of(simd_isa):
    cache = cmake_cache()
    profile = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "simd_isa": simd_isa,
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "lbb_simd": cache.get("LBB_SIMD", "OFF"),
    }
    slug = "-".join([f"{profile['nproc']}cpu", profile["cpu_model"],
                     profile["simd_isa"], profile["build_type"],
                     f"simd{profile['lbb_simd']}"])
    profile["key"] = re.sub(r"[^a-z0-9]+", "-", slug.lower()).strip("-")
    return profile


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
             "--abbrev=40"], capture_output=True, text=True,
            timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def compare_to_baseline(profile, result, spec):
    path = BENCH_DIR / "baselines" / f"{profile['key']}.json"
    if not path.is_file():
        log(f"baseline: no baseline for profile '{profile['key']}'; "
            "not comparing")
        return
    baseline = json.loads(path.read_text())
    if baseline["run_seconds"] != result["seconds"]:
        log(f"baseline: '{profile['key']}' measured {baseline['run_seconds']} "
            f"s runs, this run {result['seconds']} s; not comparing")
        return
    base = baseline["metrics"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, res in result["workloads"].items():
        for name, m in res["metrics"].items():
            ref = base.get(workload, {}).get(name)
            if name not in bounds or ref is None:
                continue
            delta = m["value"] / ref["median"] - 1.0
            worse = delta if bounds[name]["better"] == "lower" else -delta
            flag = "  OUTSIDE BOUND" if worse > bounds[name]["bound"] else ""
            log(f"baseline: {workload} {name} {m['value']:.6g} vs median "
                f"{ref['median']:.6g} [{ref['q1']:.6g}, {ref['q3']:.6g}] "
                f"({delta:+.1%}){flag}")


def main():
    spec = load_spec()
    args = parse_args(spec)
    traced = args.trace == "1"
    wanted = [m["name"] for m in
              (spec["per_layer"] if traced else spec["end_to_end"])]
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    nproc = os.cpu_count() or 1
    if os.getloadavg()[0] > nproc / 2:
        log(f"run.py: WARNING load average {os.getloadavg()[0]:.2f} exceeds "
            f"nproc/2 = {nproc / 2}; timings will be noisy")
    build()
    checksums = json.loads((BENCH_DIR / "checksums.json").read_text())

    workloads = [args.workload] if args.workload else WORKLOADS
    result = {"commit": git_commit(), "seed": args.seed,
              "seconds": args.seconds, "trace": traced, "smoke": args.smoke,
              "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
              "workloads": {}}
    traces = []
    simd_isa = "unknown"
    for workload in workloads:
        out = run_binary("lbb_benchmark", workload, args, [])
        checks = list(out["checks"])
        if traced:
            plain = out
            trace_path = BUILD / f"trace_{workload}.json"
            out = run_binary("lbb_benchmark_traced", workload, args,
                             ["--layers", f"--trace-out={trace_path}"])
            checks += out["checks"]
            ratios = [out["metrics"][n]["value"] / plain["metrics"][n]["value"]
                      for n in ("ba_ms_p50", "ba_hf_ms_p50", "hf_ms_p50")]
            out["metrics"]["trace_overhead_frac"] = {
                "value": math.prod(ratios) ** (1 / len(ratios)) - 1.0,
                "unit": "frac", "samples": len(ratios)}
            traces.append(trace_path)
        simd_isa = out["info"].get("simd_isa", simd_isa)
        if out["exit_code"] != 0:
            checks.append({"name": "exit_code", "ok": False,
                           "detail": str(out["exit_code"])})
        expected = checksums.get(workload, {}).get("checksum")
        if expected and args.seed == checksums[workload]["seed"]:
            got = out["info"].get(f"{workload}.checksum")
            checks.append({"name": f"{workload}.checksum", "ok": got == expected,
                           "detail": f"{got} (committed {expected})"})
        missing = [n for n in wanted if n not in out["metrics"]]
        if missing:
            checks.append({"name": "metrics_present", "ok": False,
                           "detail": ", ".join(missing)})
        metrics = {n: out["metrics"][n] for n in wanted if n in out["metrics"]}
        result["workloads"][workload] = {
            "correct": all(c["ok"] for c in checks),
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics, "checks": checks, "info": out["info"]}
        for name, m in metrics.items():
            print(f"{workload} {name} {m['value']:.10g} {units[name]}",
                  flush=True)
        for c in checks:
            if not c["ok"]:
                log(f"run.py: CHECK FAILED {workload} {c['name']}: "
                    f"{c['detail']}")
        if traced:
            own, coverage = self_times(trace_path)
            for name, ms in sorted(own.items(), key=lambda kv: -kv[1]):
                print(f"# {workload} self {name} {ms:.3f} ms", flush=True)
            print(f"# {workload} span_coverage_of_measure {coverage:.4f}",
                  flush=True)

    result["profile"] = profile_of(simd_isa)
    if traced:
        merge_traces(traces, BUILD / "trace.json")
    Path(args.result).parent.mkdir(parents=True, exist_ok=True)
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    if not traced and not args.smoke:
        compare_to_baseline(result["profile"], result, spec)

    runs = result["workloads"]
    if len(runs) == 1:
        metrics = next(iter(runs.values()))["metrics"]
    else:
        metrics = {f"{w}/{n}": m for w, r in runs.items()
                   for n, m in r["metrics"].items()}
    correct = all(r["correct"] for r in runs.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {n: {"value": m["value"], "unit": units[n.split("/")[-1]]}
                    for n, m in metrics.items()}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminating signal unwinds through subprocess.run, which kills and
    # reaps the running child before the process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
