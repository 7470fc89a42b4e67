#!/bin/sh
# Golden-output gate for the lbb_bench driver: asserts that a subcommand's
# output is byte-identical to the output captured in tests/golden/ (same
# experiment code paths, same RNG seeding, same CSV serialization).
# table1/fig5/fault_sweep were captured from the pre-driver binaries,
# runtime_scaling/topology_ablation before the simulated BA family moved
# onto core's descent.  Any diff here means a refactor changed observable
# results, not just structure.
#
# Usage: golden_check.sh <lbb_bench-binary> <golden-dir> <case>
# Cases: table1 | fig5 | fault_sweep | runtime_scaling | topology_ablation
set -eu

LBB=${1:?usage: golden_check.sh <lbb_bench-binary> <golden-dir> <case>}
GOLDEN=${2:?usage: golden_check.sh <lbb_bench-binary> <golden-dir> <case>}
CASE=${3:?usage: golden_check.sh <lbb_bench-binary> <golden-dir> <case>}

TMP=$(mktemp -d "${TMPDIR:-/tmp}/lbb_golden.XXXXXX")
trap 'rm -rf "$TMP"' EXIT

require_same() {
  if ! cmp -s "$1" "$2"; then
    echo "FAIL: $CASE output differs from golden $1" >&2
    diff "$1" "$2" >&2 || true
    exit 1
  fi
}

case "$CASE" in
  table1|fig5)
    ARGS="--trials=48 --budget=1048576 --seed=9"
    "$LBB" "$CASE" $ARGS > "$TMP/stdout.txt"
    require_same "$GOLDEN/$CASE.stdout.txt" "$TMP/stdout.txt"
    "$LBB" "$CASE" $ARGS --csv="$TMP/out.csv" > /dev/null
    require_same "$GOLDEN/$CASE.csv" "$TMP/out.csv"
    ;;
  fault_sweep)
    "$LBB" fault_sweep --logn=8 --trials=3 > "$TMP/stdout.txt"
    require_same "$GOLDEN/fault_sweep.txt" "$TMP/stdout.txt"
    ;;
  runtime_scaling)
    "$LBB" runtime_scaling --trials=2 > "$TMP/stdout.txt"
    require_same "$GOLDEN/runtime_scaling.txt" "$TMP/stdout.txt"
    ;;
  topology_ablation)
    "$LBB" topology_ablation --trials=2 --logn=8 --loss=0.1 --slow=0.25 \
      > "$TMP/stdout.txt"
    require_same "$GOLDEN/topology_ablation.txt" "$TMP/stdout.txt"
    ;;
  *)
    echo "golden_check.sh: unknown case '$CASE'" >&2
    exit 2
    ;;
esac

echo "PASS: $CASE matches golden output"
