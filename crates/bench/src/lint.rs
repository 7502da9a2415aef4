//! CaseLint benchmark harness: the full lint-pass set over a synthetic
//! corpus of `.case` sources, measured parse-and-compile-once against
//! one-tool-per-lint.
//!
//! The naive arm is [`naive_lint_corpus`]: a serial loop over
//! [`casekit_analysis::baseline::lint_source_recompiling`], which runs
//! every check as its own standalone tool — each of the fifteen tools
//! re-parses the case text, and each solver-backed tool pays a fresh
//! Tseitin compilation (thirteen per fully-formal argument). That is
//! the access pattern of pointing fifteen separate command-line
//! checkers at one file. The engine arm is a `Runtime::map` of
//! [`parse_argument`] then [`casekit_analysis::lint_argument`]: one
//! parse and one compilation per argument, every pass an
//! assume/check/retract round on that session (with a witness pool
//! reusing models across questions), sharded across `casekit-runtime`
//! workers.
//!
//! `bench_lint_json` emits the comparison as `BENCH_lint.json` (via
//! `repro lint`), with the diagnostic streams of every engine and every
//! worker count checked identical (`diagnostics_agree`) — determinism
//! measured, not assumed. `speedup` is naive/parallel;
//! `thread_speedup` isolates the worker contribution (≈1.0 on a
//! single-core host, where compile-once supplies the whole win).

use casekit_analysis::{baseline, lint_argument, Diagnostic, LintConfig};
use casekit_core::dsl::parse_argument;
use casekit_runtime::Runtime;
use serde::Serialize;
use std::fmt::Write as _;

/// Corpus shape: `arguments` synthetic cases, each with `premises`
/// formalised premise goals whose payloads are implication chains of
/// `width` links.
#[derive(Debug, Clone)]
pub struct LintBenchConfig {
    /// Number of arguments in the corpus.
    pub arguments: usize,
    /// Formalised premise goals per argument (≥ 3).
    pub premises: usize,
    /// Implication-chain links per premise formula.
    pub width: usize,
}

/// The full-scale corpus behind the committed `BENCH_lint.json`.
pub fn scaled_config() -> LintBenchConfig {
    LintBenchConfig {
        arguments: 120,
        premises: 5,
        width: 16,
    }
}

/// The CI smoke corpus (`repro lint --smoke`): small enough to finish
/// in seconds, large enough that the compile-once ratio is stable.
pub fn smoke_config() -> LintBenchConfig {
    LintBenchConfig {
        arguments: 30,
        premises: 3,
        width: 18,
    }
}

/// Atom `j` of premise `i`'s chain. Descriptive names, as real
/// formalised cases carry ("`hazard_h7_mitigation_verified`", not
/// "`p3`"): the frontend pays to lex and intern them, which is exactly
/// the cost a parse-once engine amortises.
pub(crate) fn atom(i: usize, j: usize) -> String {
    format!(
        "independent_verification_activity_for_subsystem_component_{i}_confirms_the_stage_{j}_safety_requirement_allocation"
    )
}

/// Formula text for premise `i`: an asserted atom pushed through a
/// `width`-link implication chain, `a{i}_0 & (a{i}_0 -> a{i}_1) & …`.
/// Chains of distinct premises share no atoms, so every premise except
/// the deliberately redundant last one is critical to the conclusion.
pub(crate) fn premise_src(i: usize, width: usize) -> String {
    let mut src = atom(i, 0);
    for j in 0..width {
        let _ = write!(src, " & ({} -> {})", atom(i, j), atom(i, j + 1));
    }
    src
}

/// Builds the synthetic corpus as `.case` source text. Every argument
/// is a goal ⟦conjunction of chain heads⟧ over a strategy over
/// `premises` formalised premise goals (each resting on its own
/// solution), with the last premise redundant by construction. On top
/// of that base, argument `k` carries the defect class `k % 6`: nothing
/// extra, duplicate evidence, a detached support cycle, an undeveloped
/// gap plus a shadowed context, a contradictory premise pair, or a
/// quantifier mismatch — so the sweep exercises every pass, structural
/// and logical, at corpus scale.
pub fn lint_corpus(config: &LintBenchConfig) -> Vec<String> {
    assert!(config.premises >= 3, "at least three premises");
    (0..config.arguments)
        .map(|k| {
            let n = config.premises;
            let w = config.width;
            // Conclusion: the chain ends of all premises but the last.
            let conclusion = (0..n - 1)
                .map(|i| atom(i, w))
                .collect::<Vec<_>>()
                .join(" & ");
            let mut src = format!("argument \"case-{k}\" {{\n");
            let _ = writeln!(src, "  goal g0 \"top-level claim\" formal \"{conclusion}\" {{");
            if k % 6 == 3 {
                src.push_str("    context c1 \"Operating envelope\"\n");
            }
            src.push_str("    strategy s0 \"argue over premise chains\" {\n");
            for i in 0..n {
                let _ = writeln!(
                    src,
                    "      goal p{i} \"premise {i}\" formal \"{}\" {{",
                    premise_src(i, w)
                );
                if i == 0 && k % 6 == 3 {
                    src.push_str("        context c2 \"operating  envelope\"\n");
                }
                let _ = writeln!(src, "        solution e{i} \"analysis report {i}\"");
                if i == 0 && k % 6 == 1 {
                    // Two more solutions under p0 with the same text.
                    src.push_str("        solution d1 \"Stress test log\"\n");
                    src.push_str("        solution d2 \"stress  test log\"\n");
                }
                src.push_str("      }\n");
            }
            match k % 6 {
                3 => {
                    // An implicit gap alongside the shadowed context.
                    src.push_str("      goal u1 \"unargued side claim\"\n");
                }
                4 => {
                    // A contradictory premise pair (inconsistency + the
                    // incompatible-premises fallacy; redundancy gates off).
                    src.push_str(
                        "      goal q1 \"asserts q\" formal \"q\" { solution eq1 \"report for q\" }\n",
                    );
                    src.push_str(
                        "      goal q2 \"denies q\" formal \"~q\" { solution eq2 \"report against q\" }\n",
                    );
                }
                _ => {}
            }
            src.push_str("    }\n");
            if k % 6 == 5 {
                // A universal claim resting on sampled evidence.
                src.push_str("    goal a1 \"All inputs are validated\" {\n");
                src.push_str("      solution ea1 \"spot checks on some inputs\"\n");
                src.push_str("    }\n");
            }
            src.push_str("  }\n");
            if k % 6 == 2 {
                // A two-node support cycle: the back-reference gives the
                // top-level node a parent, detaching the pair from every
                // root (unreachable *and* cyclic).
                src.push_str("  goal x1 \"orbiting claim a\" {\n");
                src.push_str("    goal x2 \"orbiting claim b\" { ref x1 }\n");
                src.push_str("  }\n");
            }
            src.push_str("}\n");
            src
        })
        .collect()
}

/// The naive arm: a serial loop, each case linted the
/// one-tool-per-lint way (fifteen parses, thirteen compilations).
pub fn naive_lint_corpus(sources: &[String], config: &LintConfig) -> Vec<Vec<Diagnostic>> {
    sources
        .iter()
        .map(|src| baseline::lint_source_recompiling(src, config).expect("generated corpus parses"))
        .collect()
}

/// The engine arm: parse once, compile once, sweep across workers.
fn engine_lint_corpus(
    sources: &[String],
    config: &LintConfig,
    runtime: &Runtime,
) -> Vec<Vec<Diagnostic>> {
    runtime.map(sources, |_, src| {
        lint_argument(
            &parse_argument(src).expect("generated corpus parses"),
            config,
        )
    })
}

/// The measured comparison, serialized into `BENCH_lint.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LintBenchReport {
    /// Arguments in the corpus.
    pub arguments: usize,
    /// Formalised premises per argument.
    pub premises_per_argument: usize,
    /// Implication-chain links per premise formula.
    pub chain_width: usize,
    /// Total `.case` source bytes linted.
    pub source_bytes: usize,
    /// Total diagnostics the engine emitted over the corpus.
    pub diagnostics: usize,
    /// Worker threads used for the parallel run.
    pub workers: usize,
    /// Cores the host exposed during the measurement (bounds
    /// `thread_speedup`).
    pub host_parallelism: usize,
    /// Naive loop (serial, one parse per tool and one compilation per
    /// solver-backed tool), milliseconds, best of several runs.
    pub naive_ms: f64,
    /// Parse-and-compile-once sweep with one worker, milliseconds, best
    /// of several runs.
    pub serial_ms: f64,
    /// Parse-and-compile-once sweep with the full worker count,
    /// milliseconds, best of several runs.
    pub parallel_ms: f64,
    /// naive / parallel — the end-to-end win of the engine.
    pub speedup: f64,
    /// serial / parallel — the worker contribution alone.
    pub thread_speedup: f64,
    /// Sanity: naive, serial, and every measured worker count produced
    /// byte-identical diagnostic streams.
    pub diagnostics_agree: bool,
}

/// Runs the comparison on the full-scale corpus.
pub fn run_lint_bench(workers: usize) -> LintBenchReport {
    run_lint_bench_with(&scaled_config(), workers)
}

/// Runs the comparison on an explicit corpus shape (the smoke gate
/// passes [`smoke_config`]).
pub fn run_lint_bench_with(config: &LintBenchConfig, workers: usize) -> LintBenchReport {
    let sources = lint_corpus(config);
    let lint_config = LintConfig::new();

    let (naive_ms, naive_diags) =
        crate::best_of_ms(3, || naive_lint_corpus(&sources, &lint_config));
    let serial_runtime = Runtime::serial();
    let (serial_ms, serial_diags) = crate::best_of_ms(3, || {
        engine_lint_corpus(&sources, &lint_config, &serial_runtime)
    });
    let runtime = Runtime::with_workers(workers);
    let (parallel_ms, parallel_diags) =
        crate::best_of_ms(3, || engine_lint_corpus(&sources, &lint_config, &runtime));

    // Stream-equality across engines and an unmeasured worker count.
    let halfway = engine_lint_corpus(&sources, &lint_config, &Runtime::with_workers(2));
    let diagnostics_agree =
        naive_diags == serial_diags && serial_diags == parallel_diags && serial_diags == halfway;

    LintBenchReport {
        arguments: sources.len(),
        premises_per_argument: config.premises,
        chain_width: config.width,
        source_bytes: sources.iter().map(String::len).sum(),
        diagnostics: serial_diags.iter().map(Vec::len).sum(),
        workers: runtime.workers,
        host_parallelism: Runtime::host_parallelism(),
        naive_ms,
        serial_ms,
        parallel_ms,
        speedup: naive_ms / parallel_ms.max(1e-9),
        thread_speedup: serial_ms / parallel_ms.max(1e-9),
        diagnostics_agree,
    }
}

/// Renders the report as JSON (the `BENCH_lint.json` artifact).
pub fn bench_lint_json(report: &LintBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Human-readable summary for the repro binary.
pub fn render_report(report: &LintBenchReport) -> String {
    format!(
        "caselint over {} cases ({} premises x {}-link chains, {} KiB, {} diagnostics)\n\
           naive (one tool per lint, serial):        {:>10.3} ms\n\
           engine, 1 worker (parse+compile once):    {:>10.3} ms\n\
           engine, {} workers ({} cores):            {:>10.3} ms\n\
           speedup: {:.1}x (threads alone: {:.2}x)   diagnostics agree: {}\n",
        report.arguments,
        report.premises_per_argument,
        report.chain_width,
        report.source_bytes / 1024,
        report.diagnostics,
        report.naive_ms,
        report.serial_ms,
        report.workers,
        report.host_parallelism,
        report.parallel_ms,
        report.speedup,
        report.thread_speedup,
        report.diagnostics_agree
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_analysis::LintCode;

    #[test]
    fn corpus_defect_classes_hit_every_pass() {
        let corpus = lint_corpus(&LintBenchConfig {
            arguments: 6,
            premises: 4,
            width: 3,
        });
        let config = LintConfig::new();
        let diags = naive_lint_corpus(&corpus, &config);
        let has = |k: usize, code: LintCode| diags[k].iter().any(|d| d.code == code);
        // Base: the deliberately redundant last premise, on every case.
        assert!(has(0, LintCode::RedundantPremise));
        assert!(has(1, LintCode::DuplicateEvidence));
        assert!(has(2, LintCode::UnreachableNode) && has(2, LintCode::SupportCycle));
        assert!(has(3, LintCode::UndevelopedGoal) && has(3, LintCode::ContextShadowing));
        assert!(has(4, LintCode::InconsistentPremises) && !has(4, LintCode::RedundantPremise));
        assert!(has(5, LintCode::QuantifierMismatch));
    }

    #[test]
    fn naive_loop_matches_engine_stream_for_stream() {
        let corpus = lint_corpus(&LintBenchConfig {
            arguments: 8,
            premises: 3,
            width: 2,
        });
        let config = LintConfig::new();
        let naive = naive_lint_corpus(&corpus, &config);
        for workers in [1, 3] {
            let swept = engine_lint_corpus(&corpus, &config, &Runtime::with_workers(workers));
            assert_eq!(naive, swept);
        }
    }

    #[test]
    fn report_json_has_the_gate_fields() {
        let report = LintBenchReport {
            arguments: 8,
            premises_per_argument: 3,
            chain_width: 2,
            source_bytes: 4096,
            diagnostics: 12,
            workers: 4,
            host_parallelism: 4,
            naive_ms: 10.0,
            serial_ms: 1.0,
            parallel_ms: 0.9,
            speedup: 11.1,
            thread_speedup: 1.1,
            diagnostics_agree: true,
        };
        let json = bench_lint_json(&report);
        assert!(json.contains("\"diagnostics_agree\": true"));
        assert!(json.contains("\"speedup\""));
        assert!(render_report(&report).contains("diagnostics agree: true"));
    }
}
