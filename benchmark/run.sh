#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--seed N] [--repeats R] [--smoke]     every workload; writes benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                           one workload; last stdout line is the result JSON
#   benchmark/run.sh compare A.json B.json                  apply BENCHMARK.json's bounds to two result files
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Build into the repository's target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# Block files and spill directories go under a scratch directory inside the
# checkout, removed on exit however the run ends.
scratch="$root/benchmark/out/tmp.$$"
mkdir -p "$scratch"
trap 'rm -rf "$scratch"' EXIT
export TMPDIR="$scratch"

# Pin glibc's allocator so freed memory stays in the heap. The engine frees and
# reallocates megabyte-sized tables on every op; with the default thresholds
# each one is an mmap/munmap pair plus its page faults, which on this kind of
# box is a quarter of chat_turns' time and most of its run-to-run noise.
export GLIBC_TUNABLES="glibc.malloc.mmap_threshold=4294967296:glibc.malloc.trim_threshold=4294967296:glibc.malloc.top_pad=268435456"

"$CARGO_TARGET_DIR/release/dc-benchmark" "$@"
