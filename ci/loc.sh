#!/usr/bin/env bash
# ci/loc.sh — count non-test Rust lines.
#
#   ci/loc.sh PATH...
#
# Prints `<lines> <file>` for every `.rs` file under the given paths
# (files or directories, sorted), then `<total> total`. A file's count
# is its lines up to, not including, the first top-level `#[cfg(test)]`
# line, so an inline unit-test module at the end of a file is not
# counted; a file without one counts whole.
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: ci/loc.sh PATH..." >&2
  exit 1
fi

find "$@" -type f -name '*.rs' | LC_ALL=C sort | while read -r f; do
  awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%d %s\n", n, FILENAME }' "$f"
done | awk '{ print; total += $1 } END { printf "%d total\n", total }'
