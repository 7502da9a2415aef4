//! The live-editing path through `CaseService`: every case opened from
//! source, then one closed-loop caller replaying edit bursts, each
//! followed by two reads. The caller waits for every reply, as an
//! in-process library caller does.

use crate::corpus::{edit_corpus, EditCase, Rng, CYCLE_ROUNDS};
use crate::lint::{render, traced_check, Frontend};
use crate::measure::{
    median, ms, peak_rss_mb, quantile, ratio, Calibration, Metrics, Repeats, Tally,
};
use crate::trace::Trace;
use crate::{guard, Options};
use casekit_analysis::LintConfig;
use casekit_core::dsl::{parse_argument, render_dsl};
use casekit_runtime::Runtime;
use casekit_service::{batch_answers, CaseAnswers, CaseService, CaseSession, SessionStats};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

const CASES: usize = 2_000;
/// Cases opened or rounds run between two host-speed samples.
const PER_SAMPLE: usize = 64;
/// Host-speed samples taken at once between traced sweeps.
const SAMPLE_BURST: usize = 32;
/// The traffic phase's time follows the reference kernel's time to this
/// power, so its figures are scaled by the host-speed factor to this
/// power. Traffic waits on memory more than the frontend does, and the
/// slow host state slows it less: over sixteen 20-second runs in two
/// sets, scaling with powers 0, 0.5 and 1 left a spread (interquartile
/// range over median) of 0.08–0.11, 0.02–0.03 and 0.04–0.13 in
/// `verdict_ms_p50`, `verdict_ms_p99` and `ops_per_s`. Set-up is
/// frontend work and is scaled by the factor itself, as on `ingest`.
const TRAFFIC_HOST_SENSITIVITY: f64 = 0.5;

/// Memoised `batch_answers` per case revision: a stateless
/// from-scratch recompilation that shares nothing with the session.
/// A revision is identified by its rendered DSL text; answers are kept
/// as a hash of their full `Debug` rendering.
struct Reference {
    config: LintConfig,
    memo: HashMap<(usize, u64), u64>,
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{value:?}").hash(&mut h);
    h.finish()
}

impl Reference {
    /// The reference answers of every revision the traffic visits,
    /// computed before the timed phase (untimed, on every reported core)
    /// on a shadow session per case that only applies the edits.
    fn precompute(cases: &[EditCase], nproc: usize) -> Self {
        let config = LintConfig::new();
        let revisions = Runtime::with_workers(nproc).map(cases, |k, case| {
            let Ok(argument) = parse_argument(&case.src) else {
                return Vec::new();
            };
            let mut shadow = CaseSession::open(argument, config.clone());
            let mut out = Vec::new();
            for ops in &case.cycle {
                if ops.iter().any(|op| shadow.apply(op).is_err()) {
                    break;
                }
                let answers = batch_answers(shadow.argument(), &config);
                out.push((
                    (k, digest(&render_dsl(shadow.argument()))),
                    digest(&answers),
                ));
            }
            out
        });
        Reference {
            config,
            memo: revisions.into_iter().flatten().collect(),
        }
    }

    fn holds(&mut self, service: &CaseService, case: usize, answers: &CaseAnswers) -> bool {
        let Some(session) = service.session(case) else {
            return false;
        };
        let argument = session.argument();
        let revision = (case, digest(&render_dsl(argument)));
        let want = match self.memo.get(&revision) {
            Some(&want) => want,
            None => match guard(|| digest(&batch_answers(argument, &self.config))) {
                Some(want) => *self.memo.entry(revision).or_insert(want),
                None => return false,
            },
        };
        want == digest(answers)
    }
}

/// Samples from one stretch of traffic.
struct Traffic {
    /// Keyed by case and cycle position: the same burst on the same
    /// revision repeats once per cycle.
    edit_to_answer_ms: Repeats,
    /// Summed round times, for `ops_per_s`.
    busy: Duration,
    applies: u64,
    answers: u64,
}

impl Traffic {
    fn new(cases: usize) -> Self {
        Traffic {
            edit_to_answer_ms: Repeats::new(cases * CYCLE_ROUNDS),
            busy: Duration::ZERO,
            applies: 0,
            answers: 0,
        }
    }
}

/// Times `f`, as a span when tracing.
fn timed<R>(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    item: usize,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        Some(t) => t.span(name, item, f),
        None => f(),
    }
}

struct Fleet<'a> {
    cases: &'a [EditCase],
    order: Vec<usize>,
    position: Vec<usize>,
    service: CaseService,
    reference: Reference,
}

impl Fleet<'_> {
    /// One round on `case`: its edit burst, then two reads. Returns the
    /// wall time of the round; the outputs are checked after the timer
    /// stopped.
    fn round(
        &mut self,
        case: usize,
        traffic: &mut Traffic,
        tally: &mut Tally,
        mut trace: Option<&mut Trace>,
    ) -> Duration {
        let ops = &self.cases[case].cycle[self.position[case]];
        let service = &mut self.service;
        let start = Instant::now();
        let applied: Vec<bool> = ops
            .iter()
            .map(|op| {
                timed(&mut trace, "service.apply", case, || {
                    guard(|| service.apply(case, op)).is_some_and(|r| r.is_ok())
                })
            })
            .collect();
        let first = timed(&mut trace, "service.answers", case, || {
            guard(|| service.answers(case)).flatten()
        });
        let answered = start.elapsed();
        let second = timed(&mut trace, "service.answers", case, || {
            guard(|| service.answers(case)).flatten()
        });
        let elapsed = start.elapsed();

        if !ops.is_empty() {
            let key = case * CYCLE_ROUNDS + self.position[case];
            traffic.edit_to_answer_ms.push(key, ms(answered));
        }
        traffic.applies += ops.len() as u64;
        traffic.answers += 2;
        for ok in applied {
            tally.record(ok);
        }
        for answers in [first, second] {
            tally.record(answers.is_some_and(|a| self.reference.holds(&self.service, case, &a)));
        }
        traffic.busy += elapsed;
        self.position[case] = (self.position[case] + 1) % self.cases[case].cycle.len();
        elapsed
    }

    /// One round on every case, in the fleet's order; the summed round
    /// times.
    fn sweep(
        &mut self,
        traffic: &mut Traffic,
        tally: &mut Tally,
        mut trace: Option<&mut Trace>,
    ) -> Duration {
        let order = std::mem::take(&mut self.order);
        let total = order
            .iter()
            .map(|&case| self.round(case, traffic, tally, trace.as_deref_mut()))
            .sum();
        self.order = order;
        total
    }

    fn stats(&self) -> SessionStats {
        let mut sum = SessionStats::default();
        for case in 0..self.service.len() {
            let s = self.service.session(case).expect("open").stats();
            sum.edits += s.edits;
            sum.queries += s.queries;
            sum.recompiles += s.recompiles;
            sum.full_rebuilds += s.full_rebuilds;
            sum.steps_checked += s.steps_checked;
            sum.steps_reused += s.steps_reused;
            sum.cached_answers += s.cached_answers;
        }
        sum
    }
}

/// Opens every case from source and renders its diagnostics, timing
/// each open into `open`, then brings each case to its starting
/// revision. Samples host speed every `PER_SAMPLE` cases. The set-up
/// time is the caller's wall clock around this and the first answers,
/// less the time spent sampling.
fn open_all(
    cases: &[EditCase],
    tally: &mut Tally,
    open: &mut Repeats,
    speed: &mut Calibration,
) -> CaseService {
    let mut service = CaseService::new();
    let mut opened = Vec::with_capacity(cases.len());
    for (k, case) in cases.iter().enumerate() {
        if k % PER_SAMPLE == 0 {
            speed.sample();
        }
        let t = Instant::now();
        let out = guard(|| {
            let (id, diagnostics) = service.open_source(&case.src);
            (id, render(&diagnostics, &case.src))
        });
        open.push(k, ms(t.elapsed()));
        // Syntactically clean by construction: no CK2xx line.
        opened.push(
            out.is_some_and(|(id, lines)| {
                id == Some(k) && !lines.iter().any(|l| l.contains("[CK2"))
            }),
        );
        opened.extend(fast_forward(&mut service, k, case));
    }
    for ok in opened {
        tally.record(ok);
    }
    service
}

/// Brings case `k` to the revision its traffic starts from by applying
/// the cycle's earlier edit bursts, so that every sweep over the fleet
/// mixes every round kind. Returns whether each edit applied.
fn fast_forward(service: &mut CaseService, k: usize, case: &EditCase) -> Vec<bool> {
    case.cycle[..case.start]
        .iter()
        .flatten()
        .map(|op| guard(|| service.apply(k, op)).is_some_and(|r| r.is_ok()))
        .collect()
}

fn first_answers(service: &mut CaseService, speed: &mut Calibration) -> Vec<Option<CaseAnswers>> {
    (0..service.len())
        .map(|k| {
            if k % PER_SAMPLE == 0 {
                speed.sample();
            }
            guard(|| service.answers(k)).flatten()
        })
        .collect()
}

pub fn run(opts: &Options, metrics: &mut Metrics, tally: &mut Tally) {
    let cases = edit_corpus(opts.seed, CASES);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    Rng::new(opts.seed ^ 0xED17).shuffle(&mut order);
    let source_mb = cases.iter().map(|c| c.src.len()).sum::<usize>() as f64 / 1e6;
    println!(
        "corpus: {} live cases, {source_mb:.2} MB of source, one closed-loop caller",
        cases.len()
    );
    let mut reference = Reference::precompute(&cases, opts.nproc);
    let mut check_first =
        |service: &CaseService, first: Vec<Option<CaseAnswers>>, tally: &mut Tally| {
            for (k, answers) in first.into_iter().enumerate() {
                tally.record(answers.is_some_and(|a| reference.holds(service, k, &a)));
            }
        };

    let epoch = Instant::now();
    let mut frontend = Frontend::new(epoch);
    // Host speed over the timed phase; on a traced run, also over the
    // traced open.
    let mut speed = Calibration::default();
    let service = if opts.trace {
        // One traced open: the decomposed check, then the session.
        let mut service = CaseService::new();
        let mut ok = Vec::with_capacity(cases.len());
        for (k, case) in cases.iter().enumerate() {
            let span = frontend.trace.begin("service.open", k);
            let out = guard(|| traced_check(&case.src, &LintConfig::new(), &mut frontend.trace, k));
            let id = out.map(|(argument, lines, counts)| {
                frontend.counts.add(&counts);
                let same = lines == crate::lint::check_and_render(&case.src, &LintConfig::new()).1;
                (argument.map(|a| service.open(a)), same)
            });
            frontend.trace.end(span);
            ok.push(id == Some((Some(k), true)));
            ok.extend(fast_forward(&mut service, k, case));
        }
        let span = frontend.trace.begin("service.first_answers", 0);
        let first = first_answers(&mut service, &mut speed);
        frontend.trace.end(span);
        for ok in ok {
            tally.record(ok);
        }
        check_first(&service, first, tally);
        service
    } else {
        let mut setup = Vec::new();
        let mut open = Repeats::new(cases.len());
        let mut live = None;
        // The host-speed samples taken inside a set-up are not part of
        // its time.
        let mut setup_speed = Calibration::default();
        for _ in 0..crate::lint::SETUP_REPS {
            drop(live.take());
            let (t, sampling) = (Instant::now(), setup_speed.spent());
            let mut service = open_all(&cases, tally, &mut open, &mut setup_speed);
            let first = first_answers(&mut service, &mut setup_speed);
            setup.push((t.elapsed() - (setup_speed.spent() - sampling)).as_secs_f64());
            check_first(&service, first, tally);
            live = Some(service);
        }
        let factor = setup_speed.factor();
        metrics.put("setup_s", median(&setup) * factor, "s");
        let bytes = |k: usize| cases[k].src.len() as f64 / 1e6;
        metrics.put("throughput_mb_s", open.rate(bytes) / factor, "MB/s");
        live.expect("at least one set-up")
    };

    let mut fleet = Fleet {
        position: cases.iter().map(|c| c.start).collect(),
        cases: &cases,
        order,
        service,
        reference,
    };
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let mut traffic = Traffic::new(cases.len());
    if !opts.trace {
        // Sessions grow with traffic (learned clauses, witnesses, garbage
        // payloads until compaction), so memory is read after a fixed
        // amount of it: one full cycle on every case.
        let mut peak_rss = None;
        'run: for sweep in 1.. {
            for i in 0..fleet.order.len() {
                if Instant::now() >= deadline {
                    break 'run;
                }
                if i % PER_SAMPLE == 0 {
                    speed.sample();
                }
                let case = fleet.order[i];
                fleet.round(case, &mut traffic, tally, None);
            }
            if sweep == CYCLE_ROUNDS {
                peak_rss = Some(peak_rss_mb());
            }
        }
        metrics.put("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb), "MB");
        let per_burst: Vec<f64> = traffic
            .edit_to_answer_ms
            .figures()
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        println!(
            "samples: {} edit bursts ({} distinct), {} edits and {} queries, {} revisions checked",
            traffic.edit_to_answer_ms.samples(),
            per_burst.len(),
            traffic.applies,
            traffic.answers,
            fleet.reference.memo.len()
        );
        let factor = speed.factor().powf(TRAFFIC_HOST_SENSITIVITY);
        crate::print_host_factor(&speed, factor);
        metrics.put("verdict_ms_p50", median(&per_burst) * factor, "ms");
        metrics.put("verdict_ms_p99", quantile(&per_burst, 0.99) * factor, "ms");
        let ops = (traffic.applies + traffic.answers) as f64;
        let rate = ratio(ops, traffic.busy.as_secs_f64());
        metrics.put("ops_per_s", rate / factor, "1/s");
        return;
    }

    // Traced run: untraced and traced sweeps alternate.
    let mut sweeps = Trace::new(epoch);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut traced_traffic = Traffic::new(cases.len());
    let mut counted = SessionStats::default();
    while traced.is_empty() || Instant::now() < deadline {
        speed.burst(SAMPLE_BURST);
        untraced.push(ms(fleet.sweep(&mut traffic, tally, None)));
        let before = fleet.stats();
        traced.push(ms(fleet.sweep(
            &mut traced_traffic,
            tally,
            Some(&mut sweeps),
        )));
        let after = fleet.stats();
        counted.steps_checked += after.steps_checked - before.steps_checked;
        counted.steps_reused += after.steps_reused - before.steps_reused;
        counted.cached_answers += after.cached_answers - before.cached_answers;
        counted.recompiles += after.recompiles - before.recompiles;
        counted.full_rebuilds += after.full_rebuilds - before.full_rebuilds;
    }
    let passes = traced.len() as f64;
    println!(
        "traced sweeps: {} (+{} untraced)",
        traced.len(),
        untraced.len()
    );
    frontend.put_metrics(metrics, 1.0, |k| (cases[k].src.len(), true));
    crate::put_unused_runtime_layers(metrics);
    let per = |n: u64| n as f64 / passes;
    metrics.put(
        "service.open_ms",
        frontend.trace.total_ms("service.open"),
        "ms",
    );
    metrics.put(
        "service.apply_us",
        1e3 * ratio(
            sweeps.total_ms("service.apply"),
            traced_traffic.applies as f64,
        ),
        "us",
    );
    metrics.put(
        "service.answers_ms",
        ratio(
            sweeps.total_ms("service.answers"),
            traced_traffic.answers as f64,
        ),
        "ms",
    );
    metrics.put("service.steps_checked", per(counted.steps_checked), "count");
    metrics.put("service.steps_reused", per(counted.steps_reused), "count");
    metrics.put(
        "service.step_reuse_ratio",
        ratio(
            counted.steps_reused as f64,
            (counted.steps_checked + counted.steps_reused) as f64,
        ),
        "ratio",
    );
    metrics.put(
        "service.cached_answers",
        per(counted.cached_answers),
        "count",
    );
    metrics.put("service.recompiles", per(counted.recompiles), "count");
    metrics.put("service.full_rebuilds", per(counted.full_rebuilds), "count");
    metrics.put(
        "trace.overhead_ms",
        median(&traced) - median(&untraced),
        "ms",
    );
    metrics.put("host.kernel_ms", speed.kernel_ms(), "ms");
    frontend.trace.absorb(sweeps);
    crate::write_spans(opts, &frontend.trace);
}
