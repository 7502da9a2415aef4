# Developer entry points. `just check` is the full local gate;
# `just ci` mirrors the GitHub workflow jobs exactly.

# Format, lint, test, bench, and regenerate BENCH_*.json with its gates.
check:
    ./scripts/check.sh

# Mirror the CI pipeline locally, in job order: fmt, clippy, rustdoc
# with warnings denied, release build + tests, 1 s end-to-end
# benchmark runs (ingest, solve and edit) that must report
# `"correct": true`, the deny-level example lint, then the smoke
# bench-regression gate.
ci:
    cargo fmt --all --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cargo build --release
    cargo test -q
    cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- --workload ingest --seed 1 --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct": true'
    cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- --workload solve --seed 1 --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct": true'
    cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- --workload edit --seed 1 --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct": true'
    cargo run --release -q -p casekit-analysis --bin caselint -- --deny examples/cases/*.case
    cargo run --release -q -p casekit-bench --bin repro bench --smoke

# The smoke bench-regression gate alone (BENCH_*.smoke.json + gates).
bench-gate:
    cargo run --release -q -p casekit-bench --bin repro bench --smoke

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

# Rustdoc for the workspace with warnings denied (the CI docs job).
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Regenerate paper artifacts: `just repro` for everything, or one
# name (`just repro af`, `just repro bench --smoke`; see repro.rs).
repro *ARGS:
    cargo run --release -q -p casekit-bench --bin repro {{ARGS}}
