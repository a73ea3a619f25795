#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh steady --workload W --runs N [--seed N]
#   bash perfbench/run.sh pin [--workload W]
#
# Builds go to $CARGO_TARGET_DIR (default .bench_build at the repository
# root); build output goes to stderr, so stdout ends with the result line.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin onesched-svc 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins 1>&2
bin="perfbench"
prev=""
for arg in "$@"; do
    # per-layer runs use the binary with the counting allocator
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then bin="perfbench-traced"; fi
    prev="$arg"
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
