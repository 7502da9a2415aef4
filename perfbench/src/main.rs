//! End-to-end benchmark of casekit's two user paths, with a traced
//! per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|solve|edit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from the seed. The run prints a readable report
//! and, as its last line, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). See `perfbench/README.md`.

mod corpus;
mod edit;
mod lint;
mod measure;
mod trace;

use measure::{delivered_parallelism, Calibration, Metrics, Tally, NOMINAL_KERNEL_MS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_mb_s",
    "verdict_ms_p50",
    "verdict_ms_p99",
    "ops_per_s",
    "peak_rss_mb",
    "success_ratio",
];

const PER_LAYER: &[&str] = &[
    "host.delivered_parallelism",
    "host.kernel_ms",
    "dsl.parse_ms",
    "dsl.mb_per_s",
    "dsl.mb_per_s_clean",
    "dsl.mb_per_s_defective",
    "dsl.nodes",
    "dsl.syntax_errors",
    "semantics.compile_ms",
    "semantics.vars",
    "semantics.clauses",
    "analysis.lint_ms",
    "analysis.diagnostics",
    "analysis.solver_calls",
    "analysis.witness_hits",
    "analysis.witness_hit_ratio",
    "solver.decisions",
    "solver.propagations",
    "solver.conflicts",
    "solver.learned",
    "solver.restarts",
    "render.ms",
    "render.bytes",
    "runtime.workers",
    "runtime.busy_ms",
    "runtime.wall_ms",
    "runtime.parallel_efficiency",
    "service.open_ms",
    "service.apply_us",
    "service.answers_ms",
    "service.steps_checked",
    "service.steps_reused",
    "service.step_reuse_ratio",
    "service.cached_answers",
    "service.recompiles",
    "service.full_rebuilds",
    "trace.overhead_ms",
];

const USAGE: &str =
    "usage: perfbench --workload <ingest|solve|edit> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Solve,
    Edit,
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Worker threads for the sharded `ingest` path: the host's core
    /// count, never more.
    pub nproc: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ingest" => Workload::Ingest,
                    "solve" => Workload::Solve,
                    "edit" => Workload::Edit,
                    _ => return Err(format!("unknown workload: {value}")),
                });
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        nproc: casekit_runtime::Runtime::host_parallelism(),
    })
}

/// Runs `f`, turning a panic into `None` (counted as a failed
/// operation by the caller).
pub fn guard<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The service layer is not called by the `caselint` workloads.
pub fn put_unused_service_layers(metrics: &mut Metrics) {
    for name in PER_LAYER.iter().filter(|n| n.starts_with("service.")) {
        metrics.put(name, 0.0, unit_of(name));
    }
}

/// The live-editing caller is single-threaded: no `Runtime::map`.
pub fn put_unused_runtime_layers(metrics: &mut Metrics) {
    for name in PER_LAYER.iter().filter(|n| n.starts_with("runtime.")) {
        metrics.put(name, 0.0, unit_of(name));
    }
}

fn unit_of(name: &str) -> &'static str {
    match name.rsplit(['.', '_']).next() {
        Some("ms") => "ms",
        Some("us") => "us",
        Some("ratio" | "efficiency") => "ratio",
        _ => "count",
    }
}

/// Prints the host-speed factor applied to the timed phase's figures.
pub fn print_host_factor(speed: &Calibration, applied: f64) {
    println!(
        "host speed: reference kernel {:.4} ms against {NOMINAL_KERNEL_MS} ms nominal; times scaled by {applied:.4}",
        speed.kernel_ms(),
    );
}

/// Writes the run's spans to `perfbench/traces/<workload>.tsv` under
/// the working directory.
pub fn write_spans(opts: &Options, trace: &trace::Trace) {
    let dir = std::path::Path::new("perfbench").join("traces");
    let path = dir.join(format!("{:?}.tsv", opts.workload).to_lowercase());
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_tsv()));
    match written {
        Ok(()) => println!(
            "spans: {} written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let delivered = delivered_parallelism(opts.nproc);
    println!(
        "host: {} cores reported, {delivered:.3} delivered (spin kernel at 1 and {} threads)",
        opts.nproc, opts.nproc
    );
    println!(
        "workload: {:?}, seed {}, {} s, trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace
    );

    let mut all = Metrics::default();
    let mut tally = Tally::default();
    match opts.workload {
        Workload::Ingest | Workload::Solve => lint::run(&opts, &mut all, &mut tally),
        Workload::Edit => edit::run(&opts, &mut all, &mut tally),
    }
    all.put("success_ratio", tally.success_ratio(), "ratio");
    all.put("host.delivered_parallelism", delivered, "cores");

    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = all.select(names);
    let correct = tally.failed == 0;
    print!("{}", metrics.table());
    println!(
        "operations: {} attempted, {} failed (failure ratio {:.6})",
        tally.attempted,
        tally.failed,
        1.0 - tally.success_ratio()
    );
    println!(
        "{}",
        metrics.result_json(correct, tally.attempted, tally.failed)
    );
    ExitCode::SUCCESS
}
