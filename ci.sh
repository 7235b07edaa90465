#!/usr/bin/env bash
# Offline-friendly CI gate: everything here runs without network access
# (external dependencies are vendored as shims under shims/, see DESIGN.md).
# Usage: ./ci.sh [--quick]
#   --quick   skip the release build (debug build + tests + lints only)
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo build (debug, all targets)"
cargo build --workspace --all-targets --offline

step "cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The workspace denies broken intra-doc links, which only rustdoc checks;
# its other warnings (links to private items, redundant targets) fail too.
step "cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "cargo test (workspace)"
cargo test --workspace --offline -q

# The benchmark's own tests: every fig11bench workload at 2 K objects,
# failing on a wrong answer, so an engine change that breaks the benchmark
# shows up here.
step "fig11bench tests"
cargo test --offline -q --manifest-path fig11bench/Cargo.toml

if [[ "$QUICK" -eq 0 ]]; then
  step "cargo build --release"
  cargo build --release --offline

  # The Criterion ablations (20 K objects, ~1 min with the build): each
  # pair of arms that computes the same answer asserts equal results once
  # before timing, so an ablation never times a wrong answer.
  step "ablations bench"
  cargo bench --offline --bench ablations

  # Smoke the cache figure end to end: the harness itself dies unless every
  # fault-free persisted configuration has warm <= cold, cache hits, and
  # results identical to the unpersisted run (also checked under 20% chaos).
  step "harness cache smoke"
  ./target/release/harness cache --tries 2

  # Smoke distributed mode end to end: the dist figure spawns 1/2/4 executor
  # processes, runs the Fig. 11 queries through them, and dies unless every
  # distributed run is byte-identical to the threaded baseline. The chaos
  # variant SIGKILLs a worker mid-shuffle and requires lineage recovery to
  # reproduce the baseline output exactly.
  step "harness dist smoke (process executors)"
  ./target/release/harness dist --tries 1

  step "harness chaos --kill-executor smoke"
  ./target/release/harness chaos --kill-executor --tries 1

  # Smoke the cluster-observability A/B end to end: two executor processes
  # stream their events back to the driver; the harness dies unless the
  # merged timeline reconciles exactly with the metrics snapshot, both
  # streams drain with zero lost events, the Chrome trace shows both
  # worker process lanes, and the measured overhead stays within the 3%
  # budget once it clears the run's own A/A noise floor.
  step "harness obs smoke (executor event streams)"
  ./target/release/harness obs --tries 2

  # Smoke the physical-paths A/B end to end: the harness dies unless the
  # fused batch pipeline is no slower than the row-major walk of the same
  # plan, no DataFrame group-by or sort row loses more than 10%, and both
  # paths — plus the 20% chaos re-run and the two-process executor run —
  # return byte-identical rows (BENCH_columnar.json records the measured
  # A/B).
  step "harness columnar smoke"
  ./target/release/harness columnar --tries 2
fi

step "OK"
