#!/usr/bin/env bash
# The repo benchmark, one command. Builds the benchmark package (a
# workspace of its own; the root Cargo.toml and Cargo.lock are not
# touched), then runs it. With no arguments: all four workloads, every
# metric printed by name and unit, results in benchmark/out/.
#
#   benchmark/run.sh [--seed N] [--quick] [--trace [0|1]] [--seconds S] [--workload NAME]
#   benchmark/run.sh compare BASE.json... -- NEW.json...
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"

bin="$target/release/rsj-benchmark"
if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi
exec "$bin" --root "$root" "$@"
