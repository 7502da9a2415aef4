//! # casekit-bench
//!
//! The reproduction harness: renderers for every table and figure of
//! Graydon (DSN 2015) and the nine benchmark artifacts, shared by the
//! `repro` binary and the Criterion benches. Each benchmark module owns
//! its artifact: a `repro(smoke)` entry that picks the sizes, runs the
//! benchmark, writes the JSON and checks the module's `gates` table
//! against the typed report (see [`BenchRun`]). The README's
//! "Reproduction artifacts" section lists every artifact and the
//! command that regenerates it.

#![forbid(unsafe_code)]

use casekit_experiments::runtime::Runtime;
use casekit_experiments::{exp_a, exp_b, exp_c, exp_d, exp_e};
use casekit_fallacies::checker::check_argument;
use casekit_fallacies::taxonomy::InformalFallacy;
use casekit_logic::fol::{desert_bank_kb, parse_query};
use casekit_logic::nd::Proof;
use casekit_logic::sorts::SortRegistry;
use std::fmt::Write as _;

pub mod af;
pub mod dsl;
pub mod experiments;
pub mod fol;
pub mod graph;
pub mod lint;
pub mod logic;
pub mod ltl;
pub mod service;

/// Runs `f` `runs` times and returns the fastest wall-clock time in
/// milliseconds together with the last result (benchmark arms are
/// deterministic, so every run's result is identical). One measurement
/// policy for every arm keeps the published ratios comparable.
pub(crate) fn best_of_ms<R>(runs: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    assert!(runs > 0, "at least one run");
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..runs {
        let start = std::time::Instant::now();
        result = Some(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, result.expect("runs > 0"))
}

/// Reproduces Table I (survey phase-1 selection counts).
pub fn table_i() -> String {
    let pool = casekit_survey::corpus::raw_pool();
    let phase1 = casekit_survey::selection::phase1(&pool);
    casekit_survey::tables::table_i(&phase1).render()
}

/// Reproduces the §IV/§V/§VI in-text aggregate claims.
pub fn claims_summary() -> String {
    casekit_survey::tables::render_claims_summary()
}

/// Reproduces Figure 1: the desert-bank argument passes formal validation
/// yet equivocates; the sort lints show what can and cannot be caught.
pub fn figure_1() -> String {
    let kb = desert_bank_kb();
    let goal = parse_query("adjacent(desert_bank, river)").expect("static query");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: a flawed argument that passes formal validation"
    );
    let _ = writeln!(out, "From these premises:");
    for clause in kb.clauses() {
        let _ = writeln!(out, "  {clause}");
    }
    let proved = kb.proves(&goal);
    let _ = writeln!(
        out,
        "We can 'prove' that:\n  {goal}.   [derivable: {proved}]"
    );
    let strict = SortRegistry::infer_conflicts(&kb);
    let linked = SortRegistry::infer_conflicts_linked(&kb);
    let _ = writeln!(
        out,
        "Strict per-position sort lint flags: {:?} (true positive, but unsound in general)",
        strict.keys().collect::<Vec<_>>()
    );
    let _ = writeln!(
        out,
        "Variable-linked sort inference flags: {:?} (the licensing rule dissolves the distinction)",
        linked.keys().collect::<Vec<_>>()
    );
    out
}

/// Reproduces the Haley et al. eleven-line natural-deduction proof
/// (§III-K) and its mechanical check.
pub fn haley_proof() -> String {
    let proof = Proof::haley_example();
    let checked = proof.check().is_ok();
    let mut out = String::new();
    let _ = writeln!(out, "Haley et al. outer argument (Graydon §III-K):");
    out.push_str(&proof.render());
    let _ = writeln!(
        out,
        "mechanical check: {}",
        if checked { "PASS" } else { "FAIL" }
    );
    out
}

/// Reproduces the Greenwell fallacy counts (§V-B): seeded ground truth vs
/// what the machine checker finds.
pub fn greenwell_table() -> String {
    let cases = casekit_experiments::generator::greenwell_case_studies();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Greenwell et al. fallacy counts across three safety arguments (§V-B):"
    );
    let _ = writeln!(
        out,
        "  {:<34} {:>6} {:>6} {:>6} {:>6} {:>15}",
        "fallacy kind", "arg1", "arg2", "arg3", "total", "machine-found"
    );
    let mut grand = 0usize;
    for kind in InformalFallacy::GREENWELL_KINDS {
        let per: Vec<usize> = cases
            .iter()
            .map(|c| c.counts().get(&kind).copied().unwrap_or(0))
            .collect();
        let total: usize = per.iter().sum();
        grand += total;
        // The machine checker cannot, by construction, report informal
        // fallacies; the column is computed, not asserted.
        let machine_found = cases
            .iter()
            .map(|c| check_argument(&c.argument).findings.len())
            .sum::<usize>();
        let _ = writeln!(
            out,
            "  {:<34} {:>6} {:>6} {:>6} {:>6} {:>15}",
            kind.to_string(),
            per[0],
            per[1],
            per[2],
            total,
            machine_found
        );
    }
    let _ = writeln!(out, "  {:<34} {:>27} {:>15}", "all kinds", grand, 0);
    let _ = writeln!(
        out,
        "  (none of the seven kinds is strictly formal; the checker returns 0 findings)"
    );
    out
}

/// Runs and renders experiment A.
pub fn experiment_a() -> String {
    exp_a::run_with(&exp_a::Config::default(), &Runtime::from_env())
        .expect("default config is valid")
        .render()
}

/// Runs and renders experiment B.
pub fn experiment_b() -> String {
    exp_b::run_with(&exp_b::Config::default(), &Runtime::from_env())
        .expect("default config is valid")
        .render()
}

/// Runs and renders experiment C.
pub fn experiment_c() -> String {
    exp_c::run_with(&exp_c::Config::default(), &Runtime::from_env())
        .expect("default config is valid")
        .render()
}

/// Runs and renders experiment D.
pub fn experiment_d() -> String {
    exp_d::run_with(&exp_d::Config::default(), &Runtime::from_env())
        .expect("default config is valid")
        .render()
}

/// Runs and renders experiment E.
pub fn experiment_e() -> String {
    exp_e::run_with(&exp_e::Config::default(), &Runtime::from_env())
        .expect("default config is valid")
        .render()
}

/// A `repro` name and the function that renders that section.
pub type Section = (&'static str, fn() -> String);

/// A `repro` name and the entry function of that benchmark artifact.
pub type Bench = (&'static str, fn(bool) -> BenchRun);

/// The paper's tables, figures and experiments, in `repro all` order.
pub const SECTIONS: [Section; 10] = [
    ("table1", table_i),
    ("claims", claims_summary),
    ("figure1", figure_1),
    ("haley", haley_proof),
    ("greenwell", greenwell_table),
    ("exp-a", experiment_a),
    ("exp-b", experiment_b),
    ("exp-c", experiment_c),
    ("exp-d", experiment_d),
    ("exp-e", experiment_e),
];

/// The nine benchmark artifacts, in `repro all` order.
pub const BENCHES: [Bench; 9] = [
    ("graph", graph::repro),
    ("logic", logic::repro),
    ("af", af::repro),
    ("fol", fol::repro),
    ("ltl", ltl::repro),
    ("experiments", experiments::repro),
    ("lint", lint::repro),
    ("service", service::repro),
    ("dsl", dsl::repro),
];

/// One gate on one field of a benchmark report, already evaluated.
/// Each artifact module lists its gates in a `gates` table next to its
/// report struct.
#[derive(Debug)]
pub(crate) struct Gate {
    /// The report key the gate reads, as named in the JSON artifact.
    pub(crate) key: &'static str,
    /// The value read and the bound it must meet, as printed.
    pub(crate) reading: String,
    /// Whether the value meets its bound.
    pub(crate) passed: bool,
    /// Floors gate smoke runs only; agreement flags gate every run.
    pub(crate) smoke_only: bool,
}

impl Gate {
    /// Agreement flags: every one must be true.
    pub(crate) fn flags(key: &'static str, flags: &[bool]) -> Self {
        let trues = flags.iter().filter(|&&f| f).count();
        let reading = format!("{trues} of {} true", flags.len());
        Gate::new(key, reading, trues == flags.len(), false)
    }

    /// A floor: `value >= floor`.
    pub(crate) fn floor(key: &'static str, value: f64, floor: f64) -> Self {
        let reading = format!("{value} (floor {floor})");
        Gate::new(key, reading, value >= floor, true)
    }

    /// Whether the gate applies to a smoke (or a full) run.
    pub(crate) fn applies(&self, smoke: bool) -> bool {
        smoke || !self.smoke_only
    }

    fn new(key: &'static str, reading: String, passed: bool, smoke_only: bool) -> Self {
        Gate {
            key,
            reading,
            passed,
            smoke_only,
        }
    }
}

/// What one benchmark artifact produced: the file it wrote, its
/// summary, and the gates that apply to the run.
#[derive(Debug)]
pub struct BenchRun {
    /// The artifact written: `BENCH_<name>.json`, or
    /// `BENCH_<name>.smoke.json` for a smoke run.
    pub(crate) path: String,
    /// The human-readable summary.
    pub summary: String,
    /// Agreement flags always; floors on smoke runs only.
    pub(crate) gates: Vec<Gate>,
}

impl BenchRun {
    /// Writes `report` as artifact `name`, renders its summary and
    /// keeps the gates that apply to this run.
    pub(crate) fn finish<R: serde::Serialize>(
        name: &str,
        smoke: bool,
        report: &R,
        render: impl FnOnce(&R) -> String,
        mut gates: Vec<Gate>,
    ) -> Self {
        let path = format!("BENCH_{name}{}.json", if smoke { ".smoke" } else { "" });
        // A failed write only warns: the summary still prints.
        match std::fs::write(&path, report_json(report)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
        gates.retain(|g| g.applies(smoke));
        BenchRun {
            path,
            summary: render(report),
            gates,
        }
    }

    /// How many gates failed.
    pub fn failures(&self) -> usize {
        self.gates.iter().filter(|g| !g.passed).count()
    }

    /// One `ok`/`FAIL` line per gate.
    pub fn gate_lines(&self) -> String {
        let mut out = String::new();
        for g in &self.gates {
            let verdict = if g.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  {verdict}  {} {} = {}", self.path, g.key, g.reading);
        }
        out
    }
}

/// A report as its pretty-printed JSON artifact.
pub(crate) fn report_json<R: serde::Serialize>(report: &R) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A gate key and a function that breaks that gate's field.
    pub(crate) type Breaker<R> = (&'static str, fn(&mut R));

    /// Asserts that every gate on `ok` passes, that the breakers cover
    /// every gate in the table, and that each breaker, applied to a
    /// copy of `ok`, fails exactly the gate it names.
    pub(crate) fn assert_each_gate_trips<R: Clone>(
        ok: &R,
        gates: impl Fn(&R) -> Vec<Gate>,
        breakers: &[Breaker<R>],
    ) {
        let table = gates(ok);
        let failing: Vec<&Gate> = table.iter().filter(|g| !g.passed).collect();
        assert!(failing.is_empty(), "baseline fails {failing:?}");
        let keys: BTreeSet<&str> = table.iter().map(|g| g.key).collect();
        let covered: BTreeSet<&str> = breakers.iter().map(|b| b.0).collect();
        assert_eq!(keys, covered, "one breaker per gate");
        for (key, brk) in breakers {
            let mut bad = ok.clone();
            brk(&mut bad);
            let failed: Vec<&str> = gates(&bad)
                .iter()
                .filter(|g| !g.passed)
                .map(|g| g.key)
                .collect();
            assert_eq!(failed, [*key], "breaking {key}");
        }
    }

    #[test]
    fn floors_gate_smoke_runs_only_and_flags_gate_every_run() {
        let floor = Gate::floor("speedup", 9.63, 10.0);
        let flag = Gate::flags("answers_agree", &[true, false]);
        assert!(floor.applies(true));
        assert!(!floor.applies(false));
        assert!(flag.applies(true));
        assert!(flag.applies(false));
    }

    #[test]
    fn gate_lines_name_value_and_bound() {
        let run = BenchRun {
            path: "BENCH_x.smoke.json".into(),
            summary: String::new(),
            gates: vec![
                Gate::floor("speedup", 9.63, 10.0),
                Gate::flags("answers_agree", &[true, true]),
            ],
        };
        assert_eq!(run.failures(), 1);
        assert_eq!(
            run.gate_lines(),
            concat!(
                "  FAIL  BENCH_x.smoke.json speedup = 9.63 (floor 10)\n",
                "  ok    BENCH_x.smoke.json answers_agree = 2 of 2 true\n",
            )
        );
    }

    #[test]
    fn table_i_renders_published_numbers() {
        let t = table_i();
        assert!(t.contains("Unique results (72 total)"));
        assert!(t.contains("12"));
        assert!(t.contains("24"));
    }

    #[test]
    fn figure_1_proves_and_flags() {
        let f = figure_1();
        assert!(f.contains("derivable: true"));
        assert!(f.contains("\"bank\""));
    }

    #[test]
    fn haley_renders_pass() {
        let h = haley_proof();
        assert!(h.contains("mechanical check: PASS"));
        assert!(h.contains("Conclusion, 5"));
    }

    #[test]
    fn greenwell_table_totals() {
        let g = greenwell_table();
        assert!(g.contains("16"), "{g}");
        assert!(g.contains("45"), "{g}");
    }

    #[test]
    fn experiment_sections_render() {
        assert!(experiment_b().contains("Experiment B"));
        assert!(experiment_d().contains("Experiment D"));
    }
}
