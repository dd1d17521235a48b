#!/usr/bin/env bash
# The repository's benchmark, in one command. Builds `skild` and the
# load generator (build time is not set-up time), then measures.
#
#   benchmark/run.sh                      every workload, end to end and traced
#   benchmark/run.sh --workload kernel --seed 7 --trace 0
#   benchmark/run.sh --smoke              a twentieth of the work, for CI
#   benchmark/run.sh --help               everything else
#
# Exit code: 0 measured and every response correct, 1 a response was
# wrong, 2 the benchmark could not run.
set -euo pipefail
cd "$(dirname "$0")/.."

# Both builds share one target directory: the repository's own, unless
# the caller names another.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p skil-serve --bin skild --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" >&2

exec "$target/release/skil-benchmark" \
    --skild "$target/release/skild" --scratch "$target/benchmark" "$@"
