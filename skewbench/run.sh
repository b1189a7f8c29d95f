#!/usr/bin/env bash
# Builds the replica server and the benchmark from source, then runs one
# workload:
#
#   bash skewbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build). The last line printed is the JSON result.
set -euo pipefail

bench_dir="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p skewbound-net --bin skewbound-serve
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/skewbench" \
    --serve "$CARGO_TARGET_DIR/release/skewbound-serve" "$@"
