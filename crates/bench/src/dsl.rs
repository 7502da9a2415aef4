//! DSL-frontend benchmark harness: corpus ingestion through the
//! error-recovering parser, measured against the abort-on-first-error
//! seed parser.
//!
//! The corpus is a deterministic sweep of synthetic `.case` files in
//! which six of every eight files carry a seeded defect — a truncated
//! block, a typo'd keyword, a malformed formula payload, an
//! unterminated string, a stray character, or a duplicate-id plus
//! dangling-`ref` pair — the mix a real ingestion pipeline sees. The
//! baseline arm is a serial loop over
//! [`casekit_core::dsl::parse_argument_seed`]: one abort-at-first-error
//! parse per file, which is all the seed frontend can offer. The engine
//! arm is a `Runtime::map` of [`casekit_analysis::check_syntax`]: the
//! recovering parser over every file, every syntax error mapped to a
//! span-carrying `CK2xx` diagnostic, sharded across `casekit-runtime`
//! workers.
//!
//! `bench_dsl_json` emits the comparison as `BENCH_dsl.json` (via
//! `repro dsl`), with two correctness flags folded into one
//! `diagnostics_roundtrip` bit: the seed containment property (on every
//! file the seed accepts, the engine is clean and argument-identical;
//! on every file the seed rejects, the seed's error message appears in
//! the engine's diagnostic stream) and worker invariance (the
//! diagnostic streams at one, two, and the full worker count are
//! byte-identical).

use casekit_analysis::{check_syntax, LintConfig, SourceAnalysis};
use casekit_core::dsl::parse_argument_seed;
use casekit_runtime::Runtime;
use serde::Serialize;
use std::fmt::Write as _;

/// Corpus shape: `files` synthetic cases of roughly `nodes_per_file`
/// declarations each, six defect classes striped across them.
#[derive(Debug, Clone)]
pub struct DslBenchConfig {
    /// Number of `.case` files in the corpus.
    pub files: usize,
    /// Approximate node declarations per file (≥ 4).
    pub nodes_per_file: usize,
}

/// The full-scale corpus behind the committed `BENCH_dsl.json`: ten
/// thousand files.
pub fn scaled_config() -> DslBenchConfig {
    DslBenchConfig {
        files: 10_000,
        nodes_per_file: 12,
    }
}

/// The CI smoke corpus (`repro dsl --smoke`): small enough to finish in
/// seconds, large enough that every defect class appears over a hundred
/// times.
pub fn smoke_config() -> DslBenchConfig {
    DslBenchConfig {
        files: 960,
        nodes_per_file: 8,
    }
}

/// A well-formed file: a formalised root goal over a context and a
/// strategy over a striped mix of propositional, temporal, and
/// undeveloped premise declarations.
fn valid_file(k: usize, nodes: usize) -> String {
    let mut src = format!("argument \"case-{k}\" {{\n");
    src.push_str("  goal n0 \"top-level claim\" formal \"root_claim\" {\n");
    src.push_str("    context n1 \"operating envelope\"\n");
    src.push_str("    strategy n2 \"argue over premises\" {\n");
    for i in 3..nodes.max(4) {
        let _ = match i % 3 {
            0 => writeln!(
                src,
                "      goal n{i} \"premise {i}\" formal \"p{i} & (p{i} -> q{i})\" {{ solution s{i} \"evidence report {i}\" }}"
            ),
            1 => writeln!(
                src,
                "      goal n{i} \"liveness premise {i}\" temporal \"G (req{i} -> F ack{i})\" {{ solution s{i} \"trace log {i}\" }}"
            ),
            _ => writeln!(src, "      claim n{i} \"informal claim {i}\" undeveloped"),
        };
    }
    src.push_str("    }\n  }\n}\n");
    src
}

/// Builds the synthetic ingestion corpus. File `k` carries defect class
/// `k % 8`: classes 0 and 4 are valid; 1 is truncated at two thirds of
/// its length; 2 typos the root keyword (`gaol`); 3 breaks the root's
/// formal payload; 5 drops the final closing quote (an unterminated
/// string that swallows the rest of the file); 6 inserts a stray `$`;
/// 7 appends a duplicate node id and a dangling `ref`.
pub fn dsl_corpus(config: &DslBenchConfig) -> Vec<String> {
    assert!(config.nodes_per_file >= 4, "at least four nodes per file");
    (0..config.files)
        .map(|k| {
            let mut src = valid_file(k, config.nodes_per_file);
            match k % 8 {
                1 => {
                    let mut cut = src.len() * 2 / 3;
                    while !src.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    src.truncate(cut);
                }
                2 => src = src.replacen("goal n0", "gaol n0", 1),
                3 => src = src.replacen("formal \"root_claim\"", "formal \"root_claim &\"", 1),
                5 => {
                    let last_quote = src.rfind('"').expect("every file has strings");
                    src.remove(last_quote);
                }
                6 => src = src.replacen("  goal n0", "  $ goal n0", 1),
                7 => {
                    let body =
                        "  goal n0 \"duplicate of the root\"\n  goal nx \"dangler\" { ref zz }\n";
                    let close = src.rfind('}').expect("every file has braces");
                    src.insert_str(close, body);
                }
                _ => {}
            }
            src
        })
        .collect()
}

/// The baseline arm: a serial loop of abort-on-first-error seed parses.
/// Returns how many files parsed (the rest died at their first defect).
pub fn seed_parse_corpus(sources: &[String]) -> usize {
    sources
        .iter()
        .filter(|src| parse_argument_seed(src).is_ok())
        .count()
}

/// The engine arm: the recovering frontend over every file, sharded
/// across the runtime's workers, syntax diagnostics at their default
/// levels. Output is index-aligned with `sources`.
fn load_corpus(sources: &[String], runtime: &Runtime) -> Vec<SourceAnalysis> {
    let config = LintConfig::new();
    runtime.map(sources, |_, src| check_syntax(src, &config))
}

/// The differential half of the roundtrip flag: every seed-accepted
/// file must load clean and argument-identical, and every seed-rejected
/// file's abort message must appear in the recovered diagnostic stream.
fn seed_containment(sources: &[String], loaded: &[SourceAnalysis]) -> bool {
    sources
        .iter()
        .zip(loaded)
        .all(|(src, case)| match parse_argument_seed(src) {
            Ok(seed) => case.is_clean() && case.argument.as_ref() == Some(&seed),
            Err(abort) => case
                .diagnostics
                .iter()
                .any(|d| d.message.contains(&abort.message)),
        })
}

/// The measured comparison, serialized into `BENCH_dsl.json`.
#[derive(Debug, Clone, Serialize)]
pub struct DslBenchReport {
    /// Files in the corpus.
    pub files: usize,
    /// Approximate node declarations per file.
    pub nodes_per_file: usize,
    /// Total `.case` source bytes ingested.
    pub source_bytes: usize,
    /// Files carrying a seeded defect (six of every eight).
    pub defective_files: usize,
    /// Files the recovering engine still built an argument for.
    pub recovered_arguments: usize,
    /// Total span-carrying diagnostics the engine emitted.
    pub diagnostics: usize,
    /// Worker threads used for the parallel run.
    pub workers: usize,
    /// Cores the host exposed during the measurement (bounds
    /// `thread_speedup`).
    pub host_parallelism: usize,
    /// Serial seed-parser loop (abort at first error), milliseconds,
    /// best of several runs.
    pub baseline_ms: f64,
    /// Recovering loader with one worker, milliseconds, best of several
    /// runs.
    pub serial_ms: f64,
    /// Recovering loader with the full worker count, milliseconds, best
    /// of several runs.
    pub parallel_ms: f64,
    /// Corpus megabytes per second through the seed baseline.
    pub baseline_mb_per_s: f64,
    /// Corpus megabytes per second through the parallel engine.
    pub engine_mb_per_s: f64,
    /// baseline / parallel — end-to-end, noting the engine does strictly
    /// more work per defective file (full recovery, not first-error
    /// abort).
    pub speedup: f64,
    /// serial / parallel — the worker contribution alone.
    pub thread_speedup: f64,
    /// Seed containment (clean files identical, abort messages present
    /// in the recovered streams) and worker-count invariance of every
    /// diagnostic byte.
    pub diagnostics_roundtrip: bool,
}

/// Runs the comparison on the full-scale corpus.
pub fn run_dsl_bench(workers: usize) -> DslBenchReport {
    run_dsl_bench_with(&scaled_config(), workers)
}

/// Runs the comparison on an explicit corpus shape (the smoke gate
/// passes [`smoke_config`]).
pub fn run_dsl_bench_with(config: &DslBenchConfig, workers: usize) -> DslBenchReport {
    let sources = dsl_corpus(config);
    let source_bytes: usize = sources.iter().map(String::len).sum();

    let (baseline_ms, _parsed) = crate::best_of_ms(3, || seed_parse_corpus(&sources));
    let serial_runtime = Runtime::serial();
    let (serial_ms, serial_loaded) =
        crate::best_of_ms(3, || load_corpus(&sources, &serial_runtime));
    let runtime = Runtime::with_workers(workers);
    let (parallel_ms, parallel_loaded) = crate::best_of_ms(3, || load_corpus(&sources, &runtime));

    // Correctness: worker invariance across one, two, and `workers`
    // threads, plus the seed containment property on every file.
    let halfway = load_corpus(&sources, &Runtime::with_workers(2));
    let streams_agree = {
        let diags = |cases: &[SourceAnalysis]| -> Vec<_> {
            cases
                .iter()
                .map(|c| c.diagnostics.clone())
                .collect::<Vec<_>>()
        };
        diags(&serial_loaded) == diags(&parallel_loaded) && diags(&serial_loaded) == diags(&halfway)
    };
    let diagnostics_roundtrip = streams_agree && seed_containment(&sources, &serial_loaded);

    let mb = source_bytes as f64 / 1e6;
    DslBenchReport {
        files: sources.len(),
        nodes_per_file: config.nodes_per_file,
        source_bytes,
        defective_files: sources.len() - sources.len().div_ceil(4),
        recovered_arguments: serial_loaded
            .iter()
            .filter(|c| c.argument.is_some())
            .count(),
        diagnostics: serial_loaded.iter().map(|c| c.diagnostics.len()).sum(),
        workers: runtime.workers,
        host_parallelism: Runtime::host_parallelism(),
        baseline_ms,
        serial_ms,
        parallel_ms,
        baseline_mb_per_s: mb / (baseline_ms / 1e3).max(1e-9),
        engine_mb_per_s: mb / (parallel_ms / 1e3).max(1e-9),
        speedup: baseline_ms / parallel_ms.max(1e-9),
        thread_speedup: serial_ms / parallel_ms.max(1e-9),
        diagnostics_roundtrip,
    }
}

/// Renders the report as JSON (the `BENCH_dsl.json` artifact).
pub fn bench_dsl_json(report: &DslBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Human-readable summary for the repro binary.
pub fn render_report(report: &DslBenchReport) -> String {
    format!(
        "dsl ingestion over {} files ({} defective, {} KiB, {} diagnostics, {} recovered)\n\
           seed parser (serial, abort at first error):  {:>10.3} ms ({:>7.1} MB/s)\n\
           recovering loader, 1 worker:                 {:>10.3} ms\n\
           recovering loader, {} workers ({} cores):    {:>10.3} ms ({:>7.1} MB/s)\n\
           speedup: {:.2}x (threads alone: {:.2}x)   diagnostics roundtrip: {}\n",
        report.files,
        report.defective_files,
        report.source_bytes / 1024,
        report.diagnostics,
        report.recovered_arguments,
        report.baseline_ms,
        report.baseline_mb_per_s,
        report.serial_ms,
        report.workers,
        report.host_parallelism,
        report.parallel_ms,
        report.engine_mb_per_s,
        report.speedup,
        report.thread_speedup,
        report.diagnostics_roundtrip
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_analysis::LintCode;

    #[test]
    fn corpus_defect_classes_produce_their_codes() {
        let sources = dsl_corpus(&DslBenchConfig {
            files: 8,
            nodes_per_file: 6,
        });
        let loaded = load_corpus(&sources, &Runtime::serial());
        let has = |k: usize, code: LintCode| loaded[k].diagnostics.iter().any(|d| d.code == code);
        assert!(loaded[0].is_clean() && loaded[4].is_clean());
        assert!(!loaded[1].is_clean(), "truncation errs");
        assert!(has(2, LintCode::UnknownKeyword));
        assert!(has(3, LintCode::MalformedPayload));
        assert!(has(5, LintCode::UnterminatedString));
        assert!(has(6, LintCode::SyntaxGeneral), "stray `$`");
        assert!(has(7, LintCode::InvalidStructure));
        // Every diagnostic in the corpus carries a span.
        for case in &loaded {
            assert!(case.diagnostics.iter().all(|d| d.span.is_some()));
        }
    }

    #[test]
    fn roundtrip_holds_on_a_small_corpus() {
        let sources = dsl_corpus(&DslBenchConfig {
            files: 64,
            nodes_per_file: 7,
        });
        let loaded = load_corpus(&sources, &Runtime::serial());
        assert!(seed_containment(&sources, &loaded));
        // Valid files are exactly the 0/4 stripes.
        let parsed = seed_parse_corpus(&sources);
        assert_eq!(parsed, 64 / 4);
    }

    #[test]
    fn report_json_has_the_gate_fields() {
        let report = run_dsl_bench_with(
            &DslBenchConfig {
                files: 48,
                nodes_per_file: 5,
            },
            2,
        );
        assert!(report.diagnostics_roundtrip);
        assert_eq!(report.files, 48);
        assert!(report.recovered_arguments > report.files / 4);
        let json = bench_dsl_json(&report);
        assert!(json.contains("\"diagnostics_roundtrip\": true"));
        assert!(json.contains("\"engine_mb_per_s\""));
        assert!(render_report(&report).contains("diagnostics roundtrip: true"));
    }
}
