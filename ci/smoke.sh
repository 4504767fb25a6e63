#!/usr/bin/env bash
# ci/smoke.sh — named smoke suites, runnable locally or as CI matrix
# cells.
#
#   ci/smoke.sh <suite> [bench-out-dir]
#
# Suites:
#   mesh        the 2-daemon federation failure-mode integration tests
#   tools       `pbio-ctl {stats,trace,top,dump} --smoke`, the
#               observability overhead guard, and the figure harness
#               (`figures --era`: Figs 1-7, wire sizes, ablations)
#   capture     `pbio-ctl replay --smoke` (capture→replay round-trip),
#               flight-recorder kill test, trailer-negotiation interop
#   ledger      the benchmark itself, built against the crates it
#               measures: `ledger run --smoke` (every workload, untraced
#               and traced, tiny counts), the ledger's own unit tests,
#               and `ledger diff` over every committed results/pr-*/
#               parent/change pair (fails on any `worse`)
#   all         everything above, serially
#
# Every command's stdout is scanned for the one-line schema-bearing JSON
# envelope `pbio-ctl` emits under --json; envelopes land in the
# bench-out directory (default: bench-out/) for CI to upload as
# artifacts. The suites assume `cargo build --release` artifacts are
# already cached — each command builds what it needs otherwise.
set -euo pipefail

SUITE="${1:?usage: ci/smoke.sh <suite> [bench-out-dir]}"
OUT="${2:-bench-out}"
mkdir -p "$OUT"

# run <name> <cmd...>: run one smoke, teeing output and harvesting any
# JSON envelope lines into $OUT/<name>.json (absent when the tool emits
# none — not every mode has a machine-readable shape).
run() {
  local name="$1"
  shift
  echo "::group::smoke: $name"
  local log
  log="$(mktemp)"
  "$@" | tee "$log"
  echo "::endgroup::"
  grep -h '^{"schema"' "$log" > "$OUT/$name.json" || rm -f "$OUT/$name.json"
  rm -f "$log"
}

suite_mesh() {
  run mesh-tests cargo test -q -p pbio-integration --test mesh -- --nocapture
}

suite_tools() {
  local sub
  for sub in stats trace top dump; do
    run "$sub" cargo run --release -p pbio-bench --bin pbio-ctl -- "$sub" --smoke --json
  done
  run obs-guard cargo bench -p pbio-bench --bench obs_overhead -- --guard
  run figures cargo run --release -p pbio-bench --bin figures -- --era
}

suite_capture() {
  # Record a 1k-event session under the tap, replay it at max speed
  # against a fresh daemon, and require byte-identical delivery.
  run replay cargo run --release -p pbio-bench --bin pbio-ctl -- replay --smoke --events 1000
  run flight cargo test -q -p pbio-integration --test flight -- --nocapture
  run trailer-interop cargo test -q -p pbio-integration --test trace
}

suite_ledger() {
  # ledger/ is a package of its own (own workspace and lock file), so the
  # workspace build never compiles it: without this suite an API change
  # in a measured crate breaks the benchmark unnoticed.
  run ledger-smoke cargo run --release --quiet --offline --manifest-path ledger/Cargo.toml -- run --smoke
  run ledger-tests cargo test --offline --manifest-path ledger/Cargo.toml
  # Every committed parent/change pair must still read no `worse`
  # (`ledger diff` exits 1 on one).
  local pair
  for pair in results/pr-*; do
    [ -f "$pair/parent.json" ] && [ -f "$pair/change.json" ] || continue
    run "ledger-diff-$(basename "$pair")" cargo run --release --quiet --offline \
      --manifest-path ledger/Cargo.toml -- diff "$pair/parent.json" "$pair/change.json"
  done
}

case "$SUITE" in
  mesh) suite_mesh ;;
  tools) suite_tools ;;
  capture) suite_capture ;;
  ledger) suite_ledger ;;
  all)
    suite_mesh
    suite_tools
    suite_capture
    suite_ledger
    ;;
  *)
    echo "unknown suite: $SUITE" >&2
    exit 2
    ;;
esac

echo "smoke suite '$SUITE' passed; envelopes in $OUT/:"
ls -l "$OUT" || true
