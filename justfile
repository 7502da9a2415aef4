# Developer entry points. `just check` is the full local gate;
# `just ci` mirrors the GitHub workflow jobs exactly.

# Format, lint, test, bench, and regenerate BENCH_graph.json.
check:
    ./scripts/check.sh

# Mirror the CI pipeline locally, in job order: fmt, clippy, rustdoc
# with warnings denied, release build + tests, 1 s end-to-end
# benchmark runs (ingest and edit) that must report `"correct": true`,
# the deny-level example lint, then the smoke bench-regression gate.
ci:
    cargo fmt --all --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cargo build --release
    cargo test -q
    cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- --workload ingest --seed 1 --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct": true'
    cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- --workload edit --seed 1 --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct": true'
    cargo run --release -q -p casekit-analysis --bin caselint -- --deny examples/cases/*.case
    ./scripts/bench_gate.sh

# The smoke bench-regression gate alone (BENCH_*.smoke.json + floors).
bench-gate:
    ./scripts/bench_gate.sh

# Product line count (crates/*/src without bench and vendor, in-file
# unit tests excluded) — the figure ROADMAP.md tracks. Print-only.
loc:
    ./scripts/loc.sh

# Format the workspace in place.
fmt:
    cargo fmt --all

# Clippy with warnings denied, all targets.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# CaseLint over the bundled example corpus, every lint at deny level.
# The malformed fixtures under examples/cases/malformed/ are exercised
# by their own gate in scripts/check.sh (they must *fail* caselint).
lint:
    cargo run --release -q -p casekit-analysis --bin caselint -- --deny examples/cases/*.case

# The test suite (workspace defaults: every product crate).
test:
    cargo test -q

# Criterion benches with a short measurement budget.
bench:
    CASEKIT_BENCH_MS=25 cargo bench -q -p casekit-bench

# Graph-core speedup artifact (BENCH_graph.json).
graph-bench:
    cargo run --release -q -p casekit-bench --bin repro graph

# Logic-core speedup artifact (BENCH_logic.json).
bench-logic:
    cargo run --release -q -p casekit-bench --bin repro logic

# Argumentation-framework engine artifact (BENCH_af.json).
bench-af:
    cargo run --release -q -p casekit-bench --bin repro af

# FOL resolution-engine artifact (BENCH_fol.json).
bench-fol:
    cargo run --release -q -p casekit-bench --bin repro fol

# LTL bounded-checking artifact (BENCH_ltl.json).
bench-ltl:
    cargo run --release -q -p casekit-bench --bin repro ltl

# Experiment-runtime speedup artifact (BENCH_experiments.json).
bench-experiments:
    cargo run --release -q -p casekit-bench --bin repro experiments

# CaseLint engine-vs-standalone-tools artifact (BENCH_lint.json).
bench-lint:
    cargo run --release -q -p casekit-bench --bin repro lint

# CaseService incremental-vs-batch artifact (BENCH_service.json).
bench-service:
    cargo run --release -q -p casekit-bench --bin repro service

# DSL-frontend corpus-ingestion artifact (BENCH_dsl.json).
bench-dsl:
    cargo run --release -q -p casekit-bench --bin repro dsl

# Rustdoc for the workspace with warnings denied (the CI docs job).
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Regenerate every paper artifact.
repro:
    cargo run --release -q -p casekit-bench --bin repro
