#!/usr/bin/env bash
# Full local gate: format, lints, tests, benches, and the benchmark
# artifacts. Mirrors what `just check` runs; `just ci` / the GitHub
# workflow run the same steps plus the smoke bench gate.
#
# Every step runs even when an earlier one fails, each failure is
# recorded, and a per-step summary prints at the end — so local runs
# and CI agree on exactly what "green" means.
set -euo pipefail
cd "$(dirname "$0")/.."

STEP_NAMES=()
STEP_RESULTS=()

# run_step <name> <command...> — runs the command with failure captured
# (set -e stays on inside the command itself).
run_step() {
  local name="$1"
  shift
  echo "==> ${name}"
  local status=0
  "$@" || status=$?
  STEP_NAMES+=("$name")
  STEP_RESULTS+=("$status")
  if [ "$status" -ne 0 ]; then
    echo "FAIL: ${name} (exit ${status})"
  fi
}

# The malformed fixture corpus must fail caselint, with every syntax
# code class represented — the CLI face of the recovery tests in
# crates/analysis/tests/malformed_fixtures.rs.
caselint_malformed_gated() {
  local out
  if out="$(cargo run --release -q -p casekit-analysis --bin caselint -- examples/cases/malformed)"; then
    echo "caselint unexpectedly passed on examples/cases/malformed"
    return 1
  fi
  local code
  for code in CK201 CK202 CK203 CK204 CK205 CK206; do
    printf '%s' "$out" | grep -q "\[$code\]" \
      || { echo "malformed fixtures produced no $code diagnostic"; return 1; }
  done
}

run_step "cargo fmt --check" cargo fmt --all --check
run_step "cargo clippy -D warnings" cargo clippy --workspace --all-targets -- -D warnings
run_step "cargo test" cargo test -q
run_step "caselint examples/cases (deny level)" \
  cargo run --release -q -p casekit-analysis --bin caselint -- --deny examples/cases/*.case
run_step "caselint examples/cases/malformed (expected codes, nonzero exit)" \
  caselint_malformed_gated
run_step "cargo bench (short measurement budget)" \
  env CASEKIT_BENCH_MS="${CASEKIT_BENCH_MS:-25}" cargo bench -q -p casekit-bench
run_step "repro bench (writes BENCH_*.json, agreement gates)" \
  cargo run --release -q -p casekit-bench --bin repro bench

echo
echo "== step summary =="
overall=0
for i in "${!STEP_NAMES[@]}"; do
  if [ "${STEP_RESULTS[$i]}" -eq 0 ]; then
    printf '  ok    %s\n' "${STEP_NAMES[$i]}"
  else
    printf '  FAIL  %s (exit %s)\n' "${STEP_NAMES[$i]}" "${STEP_RESULTS[$i]}"
    overall=1
  fi
done
if [ "$overall" -eq 0 ]; then
  echo "All checks passed."
else
  echo "Some checks FAILED."
fi
exit "$overall"
