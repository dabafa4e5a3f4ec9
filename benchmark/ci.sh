#!/usr/bin/env bash
# Build, test and self-test the benchmark, offline.  Run from anywhere;
# leaves nothing behind but `benchmark/target` (or `$CARGO_TARGET_DIR`)
# and `benchmark/out`, both git-ignored.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
# BENCHMARK.json is generated; the committed copy must be the generator's.
cargo run --release --offline --quiet --manifest-path "$manifest" --bin smartbench -- catalogue \
    | cmp - BENCHMARK.json
# 2-second runs of every workload, traced and not, checked against the schema.
cargo run --release --offline --quiet --manifest-path "$manifest" --bin smartbench -- selftest
echo "benchmark/ci.sh: ok"
