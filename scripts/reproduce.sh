#!/usr/bin/env bash
# Reproduce everything: build, full test suite, every experiment bench.
# Results land in test_output.txt and bench_output.txt at the repo root,
# and each report bench writes its BENCH_<name>.json there. A failing
# test or bench fails the script (pipefail: not only tee's status counts).
set -euo pipefail
cd "$(dirname "$0")/.."

# No -G: reuse whatever generator build/ was configured with.
cmake -B build -S .
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/*; do
  # Only the bench binaries: build/bench also holds CMake's directories.
  if [ -f "$b" ] && [ -x "$b" ]; then "$b"; fi
done 2>&1 | tee bench_output.txt
