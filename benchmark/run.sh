#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark (a no-op once
# built) and runs one workload. Run from the repository root; arguments go
# to `e2e` unchanged (--workload W --seed N --seconds S --trace 0|1).
set -euo pipefail

manifest=benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"

# Cargo's progress goes to stderr; stdout carries only the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$manifest" --bin e2e >&2
# The probes bind to seams a later PR may remove. If they stop building,
# the end-to-end numbers must still come out: e2e then reports 0 for them.
cargo build --release --offline --quiet --manifest-path "$manifest" --bin e2e-probes >&2 || {
  echo "run.sh: e2e-probes does not build; its per-layer metrics will read 0" >&2
  rm -f "$target/release/e2e-probes" # a stale one would report the old code's numbers
}

exec "$target/release/e2e" "$@"
