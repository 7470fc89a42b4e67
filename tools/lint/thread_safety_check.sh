#!/usr/bin/env bash
# Clang thread-safety analysis gate.
#
# The mutex-protected structures in the runtime are annotated with the
# capability attributes from src/core/thread_annotations.hpp (GUARDED_BY,
# REQUIRES, ...).  GCC expands the macros to nothing, so the annotations
# only bite under clang: this script syntax-checks every annotated TU with
# -Werror=thread-safety, which proves statically that no guarded field is
# touched without its mutex.  The `tidy` CMake preset applies the same
# flags to the full build.
#
# Exit codes: 0 clean, 1 thread-safety findings, 77 no clang on PATH --
# ctest treats 77 as SKIP.
set -u

cd "$(dirname "$0")/../.."

CLANG="${CLANG:-}"
if [ -z "$CLANG" ]; then
  for cand in clang++ clang++-25 clang++-24 clang++-23 clang++-22 \
              clang++-21 clang++-20 clang++-19 clang++-18 clang++-17 \
              clang++-16 clang++-15 clang++-14; do
    if command -v "$cand" >/dev/null 2>&1; then CLANG="$cand"; break; fi
  done
fi
if [ -z "$CLANG" ]; then
  echo "thread_safety_check: no clang++ on PATH; skipping" >&2
  exit 77
fi

# Every TU that includes core/sync.hpp (the annotated mutex wrappers),
# plus the headers' own include-what-you-use sanity via a TU that pulls
# them all in.
TUS=(
  src/runtime/thread_pool.cpp
  src/runtime/par_partitioners.cpp
  src/core/partitioner.cpp
  src/problems/alpha_dist.cpp
)

fail=0
for tu in "${TUS[@]}"; do
  if ! "$CLANG" -std=c++20 -fsyntax-only -I src -I . \
       -Wthread-safety -Werror=thread-safety "$tu"; then
    echo "thread_safety_check: FAILED: $tu"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "thread_safety_check: ${#TUS[@]} TU(s) clean under" \
       "-Werror=thread-safety ($CLANG)"
fi
exit "$fail"
