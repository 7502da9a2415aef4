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

# Artifact steps regenerate the file and gate its agreement flags in
# one step, so a gate can never pass against a stale committed artifact
# left behind by a failed regeneration.
repro_logic_gated() {
  cargo run --release -q -p casekit-bench --bin repro logic || return 1
  [ "$(grep -c '"verdicts_agree": true' BENCH_logic.json)" -eq 2 ] \
    || { echo "BENCH_logic.json does not report sweep + hard-instance verdict agreement"; return 1; }
}

repro_af_gated() {
  cargo run --release -q -p casekit-bench --bin repro af || return 1
  grep -q '"extensions_agree": true' BENCH_af.json \
    || { echo "BENCH_af.json does not report SAT/enumerator extension agreement"; return 1; }
  grep -q '"grounded_agree": true' BENCH_af.json \
    || { echo "BENCH_af.json does not report grounded-engine agreement"; return 1; }
  grep -q '"scc_agree": true' BENCH_af.json \
    || { echo "BENCH_af.json does not report decomposed-engine agreement"; return 1; }
  grep -q '"scc_largest_n": 100000' BENCH_af.json \
    || { echo "BENCH_af.json does not record a 100k-argument decomposed run"; return 1; }
}

repro_fol_gated() {
  cargo run --release -q -p casekit-bench --bin repro fol || return 1
  grep -q '"answers_agree": true' BENCH_fol.json \
    || { echo "BENCH_fol.json does not report seed/interned answer agreement"; return 1; }
  grep -q '"chain_proved": true' BENCH_fol.json \
    || { echo "BENCH_fol.json does not record a proved deep chain"; return 1; }
}

repro_ltl_gated() {
  cargo run --release -q -p casekit-bench --bin repro ltl || return 1
  grep -q '"answers_agree": true' BENCH_ltl.json \
    || { echo "BENCH_ltl.json does not report naive/CSR result agreement"; return 1; }
}

repro_experiments_gated() {
  cargo run --release -q -p casekit-bench --bin repro experiments || return 1
  grep -q '"reports_agree": true' BENCH_experiments.json \
    || { echo "BENCH_experiments.json does not report serial/parallel agreement"; return 1; }
}

repro_lint_gated() {
  cargo run --release -q -p casekit-bench --bin repro lint || return 1
  grep -q '"diagnostics_agree": true' BENCH_lint.json \
    || { echo "BENCH_lint.json does not report cross-engine/cross-worker diagnostic agreement"; return 1; }
}

repro_service_gated() {
  cargo run --release -q -p casekit-bench --bin repro service || return 1
  grep -q '"answers_agree": true' BENCH_service.json \
    || { echo "BENCH_service.json does not report incremental/batch answer agreement"; return 1; }
}

repro_dsl_gated() {
  cargo run --release -q -p casekit-bench --bin repro dsl || return 1
  grep -q '"diagnostics_roundtrip": true' BENCH_dsl.json \
    || { echo "BENCH_dsl.json does not report seed containment + worker-invariant diagnostics"; return 1; }
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
run_step "repro graph (writes BENCH_graph.json)" \
  cargo run --release -q -p casekit-bench --bin repro graph
run_step "repro logic + verdict gates (writes BENCH_logic.json)" repro_logic_gated
run_step "repro af + agreement gates (writes BENCH_af.json)" repro_af_gated
run_step "repro fol + agreement gates (writes BENCH_fol.json)" repro_fol_gated
run_step "repro ltl + agreement gate (writes BENCH_ltl.json)" repro_ltl_gated
run_step "repro experiments + agreement gate (writes BENCH_experiments.json)" \
  repro_experiments_gated
run_step "repro lint + agreement gate (writes BENCH_lint.json)" repro_lint_gated
run_step "repro service + agreement gate (writes BENCH_service.json)" repro_service_gated
run_step "repro dsl + roundtrip gate (writes BENCH_dsl.json)" repro_dsl_gated

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
