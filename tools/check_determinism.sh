#!/bin/sh
# Thread-count determinism gate for the parallel experiment engine.
#
# Runs lbb-lint, then `lbb_bench table1` on a small grid at --threads=1, 2
# and 8 and requires the CSVs to be byte-identical, then runs `lbb_bench
# tail_study --smoke` so the max-sink trials of the builtin families --
# including both paths of HF, the tree walk and the queue fallback, and
# BA-HF's floored walks on small HF phases -- are byte-compared against
# full partitions at one and two threads.  Pure
# output comparison -- no wall-clock assertions, so it is safe on loaded
# or single-core CI runners.
#
# The other identity and allocation checks live in ctest: `par:*` against
# the sequential kernels in `runtime_par_partition_test`, max-sink against
# full-partition ratio cells in `experiments_batch_identity_test`, and the
# service's hit/miss/bypass identity and warm zero-allocation serving in
# `service_test` and `perf_alloc_gate_test`.
#
# Usage: check_determinism.sh <lbb_bench-binary> [build-dir]
#
# When a build directory is given, the `service`-labeled ctest suite runs
# too (batching, coalescing, cancellation-under-load and shutdown-drain
# semantics of the serving layer).
#
# Sanitizer workflow (catches the UB this gate cannot): the CMake presets
# asan / ubsan / tsan configure sanitized builds via -DLBB_SANITIZE=..., and
# the matching test presets run the label-filtered sim/runtime/stats suites
# under them:
#
#   cmake --preset ubsan && cmake --build --preset ubsan -j
#   ctest --preset ubsan-sim
#
# (likewise asan / asan-sim and tsan / tsan-sim; the tsan-sim preset's
# label filter also covers the `runtime` suites, so the thread pool's
# queue, the parallel_for_chunks join and the par:* result slots, which
# workers fill and the caller reads after the join, run under
# ThreadSanitizer; ctest --preset tsan-runtime runs those alone).
# The fault-injection tests (sim_fault_model_test) assert the same
# thread-count determinism for degraded simulations that this script
# asserts for the experiment engine.
# The asan-core test preset (labels core|runtime|perf|property) puts the
# small-buffer AnyProblem / TrialWorkspace code and the zero-allocation
# gate under AddressSanitizer:
#
#   cmake --preset asan && cmake --build --preset asan -j
#   ctest --preset asan-core
#
# The ubsan preset adds float-cast-overflow, which GCC's "undefined" group
# leaves out (a NaN or infinite double converted to an integer), and the
# ubsan-core test preset (labels core|property|experiments|service) runs
# the kernels, the max-sink trials and the service under it:
#
#   cmake --preset ubsan && cmake --build --preset ubsan -j
#   ctest --preset ubsan-core
set -eu

LBB=${1:?usage: check_determinism.sh <lbb_bench-binary> [build-dir]}
BUILD_DIR=${2:-}

TMPDIR_DET=$(mktemp -d "${TMPDIR:-/tmp}/lbb_determinism.XXXXXX")
trap 'rm -rf "$TMPDIR_DET"' EXIT

# Static side of the same contracts first: lbb-lint proves no stray RNG /
# weak memory order / hot-path allocation crept in at the source level
# before the dynamic byte-identity checks below exercise them at runtime.
SCRIPT_DIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
if command -v python3 >/dev/null 2>&1; then
  echo "== lbb-lint: determinism/alloc/memory-order source contracts =="
  python3 "$SCRIPT_DIR/lint/lbb_lint.py"
  echo "ok: source tree passes lbb-lint"
else
  echo "skip: python3 not available for lbb-lint" >&2
fi

ARGS="--trials=48 --budget=1048576 --seed=9"

echo "== CSV determinism: lbb_bench table1 $ARGS at threads=1,2,8 =="
for t in 1 2 8; do
  "$LBB" table1 $ARGS --threads=$t --csv="$TMPDIR_DET/t$t.csv" > /dev/null
done
for t in 2 8; do
  if ! cmp -s "$TMPDIR_DET/t1.csv" "$TMPDIR_DET/t$t.csv"; then
    echo "FAIL: CSV at --threads=$t differs from --threads=1" >&2
    diff "$TMPDIR_DET/t1.csv" "$TMPDIR_DET/t$t.csv" >&2 || true
    exit 1
  fi
  echo "ok: threads=$t CSV byte-identical to threads=1"
done

echo "== max-sink byte-identity: lbb_bench tail_study --smoke =="
# The kernels under the max sink must reproduce full partitions exactly --
# RunningStats, bisection counts and every histogram bin -- at one and two
# threads, on U[0.01,0.5] (HF takes the tree walk), U[0.1,0.5] (BA-HF's HF
# phases of at most 10 pieces walk below the heap's cut-over once the
# heaviest piece so far floors them) and U[0.02,0.04] (HF falls back to the
# selection queue).  The reference study runs par:ba, par:ba_star,
# par:ba_hf and phf:oracle, which build every piece.
"$LBB" tail_study --smoke
echo "ok: max-sink trials byte-identical to full partitions"

if [ -n "$BUILD_DIR" ]; then
  echo "== service suite: ctest -L service =="
  (cd "$BUILD_DIR" && ctest -L service --output-on-failure)
  echo "ok: service-labeled tests pass"
fi

echo "PASS: determinism checks"
