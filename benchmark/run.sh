#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. Every argument is
# passed through; see README.md. Run from anywhere: paths are taken from
# this script's own location.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
root="$here/.."

# The library must be measured under the codegen flags it ships with: the
# benchmark's [profile.release] has to equal the root workspace's.
profile() {
    awk '/^\[/{on = ($0 == "[profile.release]")} on && NF && !/^#/' "$1"
}
if [ ! -f "$root/Cargo.toml" ]; then
    echo "run.sh: $root/Cargo.toml not found: the benchmark builds the repo's crates from source" >&2
    exit 3
fi
if [ "$(profile "$root/Cargo.toml")" != "$(profile "$here/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 3
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it was
# started in, which is this shell's.
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"
BENCH_DIR="$here" exec "$bin" "$@"
