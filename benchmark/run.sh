#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run under the BENCHMARK.json contract: prints every metric as
#       `workload name value unit` and the result object as the last line
#   benchmark/run.sh [--seed N] [--workload NAME] [--smoke] [--repeat K]
#       the whole suite: each workload untraced then traced in its own child
#       process; writes benchmark/out/results.json, exits non-zero on any
#       failed check
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# What is measured is what users get: no bench-only PREM_* knob survives.
for knob in $(compgen -e | grep '^PREM_' || true); do
  unset "$knob"
done

# The driver points CARGO_TARGET_DIR into its checkout; on its own the
# harness builds into benchmark/target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
build_start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
build_s=$(echo "$(date +%s.%N) $build_start" | awk '{printf "%.3f", $1 - $2}')

exec "$CARGO_TARGET_DIR/release/prem-benchmark" --build-s "$build_s" "$@"
