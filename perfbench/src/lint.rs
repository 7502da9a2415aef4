//! The `caselint` path: `.case` text → `check_source` (recovering
//! parse, arena build, Tseitin compile, lint passes) → every diagnostic
//! rendered with `Diagnostic::located`. Drives the `ingest` and `solve`
//! workloads, and the traced decomposition of the same path.

use crate::corpus::{self, Defect};
use crate::measure::{
    median, ms, peak_rss_mb, quantile, ratio, Calibration, Metrics, Repeats, Tally,
};
use crate::trace::Trace;
use crate::{guard, Options, Workload};
use casekit_analysis::{
    baseline, check_source, lint_compiled_with_pool, Diagnostic, Level, LintCode, LintConfig,
    Severity, SourceAnalysis, WitnessPool,
};
use casekit_core::dsl::{parse_argument_recovering, parse_argument_seed, SourceMap};
use casekit_core::semantics::ArgumentTheory;
use casekit_core::Argument;
use casekit_logic::{LineIndex, Span, SyntaxErrorKind};
use casekit_runtime::Runtime;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

const INGEST_FILES: usize = 10_000;
const SOLVE_FILES: usize = 1_500;
/// Files per `Runtime::map` call, and per throughput sample.
const CHUNK: usize = 256;
pub const SETUP_REPS: usize = 3;

/// What a file's diagnostics must show, known from how it was made.
enum Expect {
    /// Ingest: the defect's syntax code (or none), and containment of
    /// the seed parser's verdict.
    Defect(Defect),
    /// Solve: CK101 iff the premises are unsatisfiable, and agreement
    /// with the one-tool-per-lint baseline.
    Inconsistent(bool),
}

struct Files {
    srcs: Vec<String>,
    expect: Vec<Expect>,
}

impl Files {
    fn ingest(seed: u64) -> Self {
        let (srcs, expect) = corpus::ingest_corpus(seed, INGEST_FILES)
            .into_iter()
            .map(|f| (f.src, Expect::Defect(f.defect)))
            .unzip();
        Files { srcs, expect }
    }

    fn solve(seed: u64) -> Self {
        let (srcs, expect) = corpus::solve_corpus(seed, SOLVE_FILES)
            .into_iter()
            .map(|f| (f.src, Expect::Inconsistent(f.inconsistent)))
            .unzip();
        Files { srcs, expect }
    }

    /// Chunk `c` of the corpus, wrapping around, with the index of its
    /// first file.
    fn chunk(&self, c: usize) -> (usize, &[String]) {
        let base = c % self.srcs.len().div_ceil(CHUNK) * CHUNK;
        (base, &self.srcs[base..(base + CHUNK).min(self.srcs.len())])
    }

    fn chunks(&self) -> impl Iterator<Item = (usize, &[String])> {
        (0..self.srcs.len().div_ceil(CHUNK)).map(|c| self.chunk(c))
    }

    fn bytes(&self) -> usize {
        self.srcs.iter().map(String::len).sum()
    }
}

pub fn render(diagnostics: &[Diagnostic], src: &str) -> Vec<String> {
    let index = LineIndex::new(src);
    diagnostics.iter().map(|d| d.located(&index)).collect()
}

/// The timed path for one file.
pub fn check_and_render(src: &str, config: &LintConfig) -> (SourceAnalysis, Vec<String>) {
    let analysis = check_source(src, config);
    let rendered = render(&analysis.diagnostics, src);
    (analysis, rendered)
}

pub fn fingerprint(lines: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    lines.hash(&mut h);
    h.finish()
}

fn without_spans(diagnostics: &[Diagnostic]) -> Vec<Diagnostic> {
    diagnostics
        .iter()
        .map(|d| Diagnostic {
            span: None,
            ..d.clone()
        })
        .collect()
}

/// The reference check for one file, independent of the timed path:
/// construction ground truth plus the retained seed parser (ingest) or
/// the one-tool-per-lint baseline (solve).
fn reference_holds(
    src: &str,
    expect: &Expect,
    analysis: &SourceAnalysis,
    config: &LintConfig,
) -> bool {
    let has = |code: LintCode| analysis.diagnostics.iter().any(|d| d.code == code);
    let syntax_clean = !analysis.diagnostics.iter().any(|d| d.code.number() >= 201);
    match expect {
        Expect::Defect(defect) => {
            let syntax_ok = defect.expected_code().map_or(syntax_clean, has);
            let seed_contained = match parse_argument_seed(src) {
                Ok(seed) => analysis.argument.as_ref() == Some(&seed) && syntax_clean,
                Err(abort) => analysis
                    .diagnostics
                    .iter()
                    .any(|d| d.message.contains(&abort.message)),
            };
            syntax_ok && seed_contained
        }
        Expect::Inconsistent(unsat) => {
            has(LintCode::InconsistentPremises) == *unsat
                && baseline::lint_source_recompiling(src, config)
                    .is_ok_and(|b| b == without_spans(&analysis.diagnostics))
        }
    }
}

/// Outputs of one chunk: each file's rendered diagnostics (`None` if it
/// panicked) and its time in ms.
type ChunkOut = Vec<(Option<Vec<String>>, f64)>;

/// One chunk through the timed path; its wall time and outputs.
fn check_chunk(chunk: &[String], runtime: &Runtime, config: &LintConfig) -> (Duration, ChunkOut) {
    let t = Instant::now();
    let outs = runtime.map(chunk, |_, src| {
        let t = Instant::now();
        let rendered = guard(|| check_and_render(src, config).1);
        (rendered, ms(t.elapsed()))
    });
    (t.elapsed(), outs)
}

/// One pass over the corpus through the timed path, chunk by chunk.
/// `visit` sees each chunk's outputs after its timer stopped.
fn pass(
    files: &Files,
    runtime: &Runtime,
    config: &LintConfig,
    mut visit: impl FnMut(usize, ChunkOut),
) -> Duration {
    let mut total = Duration::ZERO;
    for (base, chunk) in files.chunks() {
        let (elapsed, outs) = check_chunk(chunk, runtime, config);
        total += elapsed;
        visit(base, outs);
    }
    total
}

/// Per-file counts from the traced decomposition.
#[derive(Default)]
pub struct LayerCounts {
    nodes: u64,
    syntax_errors: u64,
    vars: u64,
    clauses: u64,
    diagnostics: u64,
    solver_calls: u64,
    witness_hits: u64,
    decisions: u64,
    propagations: u64,
    conflicts: u64,
    learned: u64,
    restarts: u64,
    render_bytes: u64,
}

impl LayerCounts {
    pub fn add(&mut self, o: &LayerCounts) {
        self.nodes += o.nodes;
        self.syntax_errors += o.syntax_errors;
        self.vars += o.vars;
        self.clauses += o.clauses;
        self.diagnostics += o.diagnostics;
        self.solver_calls += o.solver_calls;
        self.witness_hits += o.witness_hits;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.conflicts += o.conflicts;
        self.learned += o.learned;
        self.restarts += o.restarts;
        self.render_bytes += o.render_bytes;
    }
}

fn syntax_code(kind: SyntaxErrorKind) -> LintCode {
    match kind {
        SyntaxErrorKind::UnterminatedString => LintCode::UnterminatedString,
        SyntaxErrorKind::UnknownKeyword => LintCode::UnknownKeyword,
        SyntaxErrorKind::BadPayload => LintCode::MalformedPayload,
        SyntaxErrorKind::Structure => LintCode::InvalidStructure,
        _ => LintCode::SyntaxGeneral,
    }
}

fn severity(config: &LintConfig, code: LintCode) -> Option<Severity> {
    match config.level(code) {
        Level::Allow => None,
        Level::Warn => Some(Severity::Warning),
        Level::Deny => Some(Severity::Error),
    }
}

fn sort_key(d: &Diagnostic) -> (u16, &str, &str) {
    (
        d.code.number(),
        d.primary.as_ref().map_or("", |id| id.as_str()),
        &d.message,
    )
}

/// The canonical order `check_source` emits: code, primary node,
/// message (stable, so equal keys keep their emission order).
fn sort_canonically(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
}

fn anchor(diagnostic: &Diagnostic, map: &SourceMap) -> Span {
    diagnostic
        .primary
        .as_ref()
        .and_then(|id| map.node(id))
        .map(|spans| spans.id)
        .or(map.name)
        .unwrap_or(Span::point(0))
}

/// `check_source` plus rendering, decomposed into public calls of each
/// layer with a span around each: `dsl` (recovering parse and arena
/// build), `semantics` (Tseitin compile), `analysis` (every lint pass
/// over a witness pool) and `render`. Returns the built argument and the
/// rendered diagnostics, which must equal the undecomposed path's.
pub fn traced_check(
    src: &str,
    config: &LintConfig,
    trace: &mut Trace,
    item: usize,
) -> (Option<Argument>, Vec<String>, LayerCounts) {
    let mut counts = LayerCounts::default();
    let file = trace.begin("file", item);
    let outcome = trace.span("dsl", item, || parse_argument_recovering(src));
    counts.syntax_errors = outcome.errors.len() as u64;
    counts.nodes = outcome.argument.as_ref().map_or(0, |a| a.len() as u64);
    let mut diagnostics: Vec<Diagnostic> = outcome
        .errors
        .iter()
        .filter_map(|e| {
            let code = syntax_code(e.error.kind);
            Some(Diagnostic {
                code,
                severity: severity(config, code)?,
                primary: e.node.clone(),
                related: Vec::new(),
                message: e.error.message.clone(),
                hint: e.error.hint.clone(),
                span: Some(e.error.span),
            })
        })
        .collect();
    sort_canonically(&mut diagnostics);
    if let Some(argument) = &outcome.argument {
        let mut theory = trace.span("semantics", item, || ArgumentTheory::compile(argument));
        counts.vars = theory.theory_mut().num_vars() as u64;
        counts.clauses = theory.theory_mut().num_clauses() as u64;
        let mut pool = WitnessPool::new();
        let mut graph = trace.span("analysis", item, || {
            lint_compiled_with_pool(argument, &mut theory, &mut pool, config)
        });
        counts.diagnostics = graph.len() as u64;
        counts.solver_calls = pool.solver_calls() as u64;
        counts.witness_hits = pool.witness_hits() as u64;
        let stats = theory.theory_mut().stats();
        counts.decisions = stats.decisions;
        counts.propagations = stats.propagations;
        counts.conflicts = stats.conflicts;
        counts.learned = stats.learned;
        counts.restarts = stats.restarts;
        for d in &mut graph {
            d.span = Some(anchor(d, &outcome.source_map));
        }
        diagnostics.extend(graph);
        sort_canonically(&mut diagnostics);
    }
    let rendered = trace.span("render", item, || render(&diagnostics, src));
    counts.render_bytes = rendered.iter().map(|l| l.len() as u64).sum();
    trace.end(file);
    (outcome.argument, rendered, counts)
}

pub struct Frontend {
    pub trace: Trace,
    pub counts: LayerCounts,
}

impl Frontend {
    pub fn new(epoch: Instant) -> Self {
        Frontend {
            trace: Trace::new(epoch),
            counts: LayerCounts::default(),
        }
    }

    /// Front-end per-layer metrics: self time per layer and counts,
    /// both divided by `passes`, plus parse throughput split into clean
    /// and defective files. `file(item)` gives a traced file's size in
    /// bytes and whether it is syntactically clean.
    pub fn put_metrics(
        &self,
        metrics: &mut Metrics,
        passes: f64,
        file: impl Fn(usize) -> (usize, bool),
    ) {
        let (trace, counts) = (&self.trace, &self.counts);
        let self_ms = trace.self_ms();
        let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / passes;
        let (mut parse, mut bytes) = ([0.0f64; 2], [0usize; 2]);
        for s in trace.spans().iter().filter(|s| s.name == "dsl") {
            let (size, clean) = file(s.item);
            let side = usize::from(!clean);
            parse[side] += (s.end - s.start) as f64 / 1e6;
            bytes[side] += size;
        }
        let mb_per_s = |b: usize, t: f64| ratio(b as f64 / 1e6, t / 1e3);
        let per = |n: u64| n as f64 / passes;
        metrics.put("dsl.parse_ms", layer("dsl"), "ms");
        metrics.put(
            "dsl.mb_per_s",
            mb_per_s(bytes[0] + bytes[1], parse[0] + parse[1]),
            "MB/s",
        );
        metrics.put("dsl.mb_per_s_clean", mb_per_s(bytes[0], parse[0]), "MB/s");
        metrics.put(
            "dsl.mb_per_s_defective",
            mb_per_s(bytes[1], parse[1]),
            "MB/s",
        );
        metrics.put("dsl.nodes", per(counts.nodes), "count");
        metrics.put("dsl.syntax_errors", per(counts.syntax_errors), "count");
        metrics.put("semantics.compile_ms", layer("semantics"), "ms");
        metrics.put("semantics.vars", per(counts.vars), "count");
        metrics.put("semantics.clauses", per(counts.clauses), "count");
        metrics.put("analysis.lint_ms", layer("analysis"), "ms");
        metrics.put("analysis.diagnostics", per(counts.diagnostics), "count");
        metrics.put("analysis.solver_calls", per(counts.solver_calls), "count");
        metrics.put("analysis.witness_hits", per(counts.witness_hits), "count");
        metrics.put(
            "analysis.witness_hit_ratio",
            ratio(
                counts.witness_hits as f64,
                (counts.witness_hits + counts.solver_calls) as f64,
            ),
            "ratio",
        );
        metrics.put("solver.decisions", per(counts.decisions), "count");
        metrics.put("solver.propagations", per(counts.propagations), "count");
        metrics.put("solver.conflicts", per(counts.conflicts), "count");
        metrics.put("solver.learned", per(counts.learned), "count");
        metrics.put("solver.restarts", per(counts.restarts), "count");
        metrics.put("render.ms", layer("render"), "ms");
        metrics.put("render.bytes", per(counts.render_bytes), "bytes");
    }
}

/// Runs the `ingest` or `solve` workload.
pub fn run(opts: &Options, metrics: &mut Metrics, tally: &mut Tally) {
    let files = match opts.workload {
        Workload::Ingest => Files::ingest(opts.seed),
        _ => Files::solve(opts.seed),
    };
    // Timed phases run on one worker: this host class delivers one or
    // two cores from run to run, so wall time on two workers is
    // bimodal. The runtime layer is measured on its own pass below.
    let serial = Runtime::serial();
    let config = LintConfig::new();
    println!(
        "corpus: {} files, {:.2} MB",
        files.srcs.len(),
        files.bytes() as f64 / 1e6
    );

    // The reference pass, untimed and on every reported core: each
    // file's output is checked once, and every later output must
    // reproduce its fingerprint.
    let sharded = Runtime::with_workers(opts.nproc);
    let expected: Vec<Option<u64>> = sharded.map(&files.srcs, |i, src| {
        let (analysis, rendered) = guard(|| check_and_render(src, &config))?;
        let holds = guard(|| reference_holds(src, &files.expect[i], &analysis, &config))?;
        holds.then(|| fingerprint(&rendered))
    });
    for ok in &expected {
        tally.record(ok.is_some());
    }
    let verify = |base: usize, outs: &[(Option<Vec<String>>, f64)], tally: &mut Tally| {
        for (i, (rendered, _)) in outs.iter().enumerate() {
            let got = rendered.as_deref().map(fingerprint);
            tally.record(got.is_some() && got == expected[base + i]);
        }
    };
    // The host-speed kernel runs between chunks, outside their timers.
    let mut setup_speed = Calibration::default();
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            pass(&files, &serial, &config, |base, outs| {
                verify(base, &outs, tally);
                setup_speed.sample();
            })
            .as_secs_f64()
        })
        .collect();
    metrics.put("setup_s", median(&setup) * setup_speed.factor(), "s");
    // Every file's transient peak has been reached by now; reading it
    // here keeps the growth of the sample buffers below out of it.
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");

    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    if !opts.trace {
        let mut verdict = Repeats::new(files.srcs.len());
        let mut speed = Calibration::default();
        let mut next = 0;
        while Instant::now() < deadline {
            let (base, chunk) = files.chunk(next);
            next += 1;
            let (_, outs) = check_chunk(chunk, &serial, &config);
            for (i, (_, ms)) in outs.iter().enumerate() {
                verdict.push(base + i, *ms);
            }
            verify(base, &outs, tally);
            speed.sample();
        }
        let factor = speed.factor();
        let per_file: Vec<f64> = verdict.figures().into_iter().map(|(_, m)| m).collect();
        println!(
            "samples: {} file checks over {} distinct files",
            verdict.samples(),
            per_file.len()
        );
        crate::print_host_factor(&speed, factor);
        let bytes = |i: usize| files.srcs[i].len() as f64 / 1e6;
        metrics.put("throughput_mb_s", verdict.rate(bytes) / factor, "MB/s");
        metrics.put("verdict_ms_p50", median(&per_file) * factor, "ms");
        metrics.put("verdict_ms_p99", quantile(&per_file, 0.99) * factor, "ms");
        metrics.put("ops_per_s", verdict.rate(|_| 1.0) / factor, "1/s");
        return;
    }

    // Traced run: untraced and traced passes alternate; the difference
    // of their medians is the tracing overhead.
    let epoch = Instant::now();
    let mut frontend = Frontend::new(epoch);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut speed = Calibration::default();
    while traced.is_empty() || Instant::now() < deadline {
        untraced.push(ms(pass(&files, &serial, &config, |base, outs| {
            verify(base, &outs, tally);
            speed.sample();
        })));
        let t = Instant::now();
        for (base, chunk) in files.chunks() {
            for (i, src) in chunk.iter().enumerate() {
                let out = guard(|| traced_check(src, &config, &mut frontend.trace, base + i));
                let ok = out.is_some_and(|(_, rendered, counts)| {
                    frontend.counts.add(&counts);
                    Some(fingerprint(&rendered)) == expected[base + i]
                });
                tally.record(ok);
            }
        }
        traced.push(ms(t.elapsed()));
    }
    let passes = traced.len() as f64;
    println!(
        "traced passes: {} (+{} untraced)",
        traced.len(),
        untraced.len()
    );
    frontend.put_metrics(metrics, passes, |i| {
        let clean = matches!(
            files.expect[i],
            Expect::Defect(Defect::Clean) | Expect::Inconsistent(_)
        );
        (files.srcs[i].len(), clean)
    });
    metrics.put(
        "trace.overhead_ms",
        median(&traced) - median(&untraced),
        "ms",
    );
    metrics.put("host.kernel_ms", speed.kernel_ms(), "ms");

    // The runtime layer: one pass through `Runtime::map` on one worker
    // per reported core, each file timed inside the closure. Its bytes
    // must equal the single-worker set-up's.
    let (mut busy_ms, mut workers) = (0.0, 0);
    let wall = pass(&files, &sharded, &config, |base, outs| {
        busy_ms += outs.iter().map(|(_, ms)| ms).sum::<f64>();
        workers = workers.max(sharded.effective_workers(outs.len()));
        verify(base, &outs, tally);
    });
    metrics.put("runtime.workers", workers as f64, "count");
    metrics.put("runtime.busy_ms", busy_ms, "ms");
    metrics.put("runtime.wall_ms", ms(wall), "ms");
    metrics.put(
        "runtime.parallel_efficiency",
        ratio(busy_ms, workers as f64 * ms(wall)),
        "ratio",
    );
    crate::put_unused_service_layers(metrics);
    crate::write_spans(opts, &frontend.trace);
}
