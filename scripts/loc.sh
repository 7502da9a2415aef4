#!/usr/bin/env bash
# Product line count: every line of Rust under crates/*/src, except
# the bench and vendor crates, with each file cut at its first
# top-level `#[cfg(test)]` (in-file unit tests do not count). This is
# the one count ROADMAP.md and CHANGES.md quote. Print-only; not a gate.
#
#   ./scripts/loc.sh        # prints one number
set -euo pipefail
cd "$(dirname "$0")/.."

for crate in crates/*/; do
  case "$(basename "$crate")" in
    bench | vendor) continue ;;
  esac
  find "$crate/src" -name '*.rs'
done | LC_ALL=C sort | xargs awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }'
