//! Experiment A (§VI-A): can automatic detection of formal fallacies make
//! reviews faster or more reliable?
//!
//! Two arms review the same seeded arguments:
//!
//! * **control** — reviewers look for *both* informal and formal
//!   fallacies;
//! * **treatment** — reviewers look for informal fallacies only, and the
//!   mechanical checker handles the formal ones.
//!
//! Measured: review minutes per arm (Welch t-test), formal-fallacy catch
//! rate per arm (humans vs machine), and informal catch rate (should not
//! differ — the checker cannot help there).
//!
//! The machine arm runs once per generated argument, a
//! [`Runtime::map`] of [`check_argument`] — the findings are
//! deterministic, so every treatment review shares them instead of
//! recompiling the argument's theory. Subjects are sharded across the [`Runtime`]'s
//! workers with per-subject RNG streams; the report is byte-identical
//! for every worker count.

use crate::generator::{generate, Generated, GeneratorConfig, SeededFormal};
use crate::population::{generate as generate_pool, PoolConfig};
use crate::reviewer::{review_counts, ReviewScope};
use crate::runtime::{Runtime, StreamLane};
use crate::stats::{describe, welch_t_test, Descriptives, TestResult};
use crate::Error;
use casekit_fallacies::check_argument;
use casekit_fallacies::taxonomy::InformalFallacy;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Configuration for experiment A.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Reviewers per arm.
    pub per_arm: usize,
    /// Arguments each reviewer examines.
    pub arguments: usize,
    /// Hazards per argument.
    pub hazards: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            per_arm: 30,
            arguments: 4,
            hazards: 8,
            seed: 0xA,
        }
    }
}

/// Results of experiment A.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Review minutes, control arm (informal + formal by hand).
    pub minutes_control: Descriptives,
    /// Review minutes, treatment arm (informal only; machine does formal).
    pub minutes_treatment: Descriptives,
    /// Welch t-test on minutes.
    pub minutes_test: TestResult,
    /// Fraction of seeded formal defects caught by human review (control).
    pub formal_catch_human: f64,
    /// Fraction caught by the machine checker (treatment).
    pub formal_catch_machine: f64,
    /// Informal catch rates (control, treatment).
    pub informal_catch: (f64, f64),
}

/// One subject's measurements, produced inside a worker.
struct SubjectTally {
    control: bool,
    minutes: f64,
    informal_found: usize,
    informal_total: usize,
    formal_found: usize,
    formal_total: usize,
}

/// The study materials: the subject pool (both arms interleaved) and
/// the argument set every subject reviews. Exposed so the benchmark
/// harness can time alternative measurement loops over *exactly* the
/// materials [`run_with`] uses.
pub fn materials(
    config: &Config,
) -> Result<(Vec<crate::population::Subject>, Vec<Generated>), Error> {
    Ok((generate_subjects(config), generate_cases(config)?))
}

/// The argument set for a run: each argument carries ONE formal defect
/// kind (combining them lets inconsistent premises mask the
/// missing-support defect — see the generator's masking test) plus a
/// spread of informal ones.
fn generate_cases(config: &Config) -> Result<Vec<Generated>, Error> {
    const DEFECT_CYCLE: [SeededFormal; 3] = [
        SeededFormal::Begging,
        SeededFormal::Incompatible,
        SeededFormal::MissingSupport,
    ];
    (0..config.arguments)
        .map(|i| {
            generate(&GeneratorConfig {
                hazards: config.hazards,
                formal: vec![DEFECT_CYCLE[i % DEFECT_CYCLE.len()]],
                informal: vec![
                    InformalFallacy::RedHerring,
                    InformalFallacy::UsingWrongReasons,
                    InformalFallacy::Equivocation,
                    InformalFallacy::OmissionOfKeyEvidence,
                ],
                seed: config.seed.wrapping_add(i as u64),
            })
            .map_err(Error::from)
        })
        .collect()
}

/// The subject pool for a run.
fn generate_subjects(config: &Config) -> Vec<crate::population::Subject> {
    let mut pool = generate_pool(&PoolConfig {
        per_background: (config.per_arm * 2).div_ceil(6).max(1),
        seed: config.seed ^ 0x900D,
        ..PoolConfig::default()
    });
    pool.truncate(config.per_arm * 2);
    pool
}

/// One subject's reviews over the whole argument set (pure given the
/// subject's index — the unit of parallel work). Runs on the
/// allocation-free [`review_counts`] path: the tally only needs counts,
/// and the draw sequence is pinned to [`crate::reviewer::review`] by a
/// reviewer unit test, so reports match the per-outcome loop bit for
/// bit. The caller derives the RNG stream through a shared
/// [`StreamLane`], so the per-subject cost is one finalizer mix.
fn review_subject(
    lane: &StreamLane,
    cases: &[Generated],
    index: usize,
    subject: &crate::population::Subject,
) -> SubjectTally {
    let control = index.is_multiple_of(2);
    let mut rng = lane.rng(index as u64);
    let mut tally = SubjectTally {
        control,
        minutes: 0.0,
        informal_found: 0,
        informal_total: 0,
        formal_found: 0,
        formal_total: 0,
    };
    let scope = if control {
        ReviewScope::InformalAndFormal
    } else {
        ReviewScope::InformalOnly
    };
    for case in cases {
        let counts = review_counts(subject, &case.case, &case.formal, scope, &mut rng);
        tally.minutes += counts.minutes;
        tally.informal_found += counts.informal_found;
        tally.informal_total += case.case.seeded.len();
        if control {
            tally.formal_found += counts.formal_found;
            tally.formal_total += case.formal.len();
        }
    }
    tally
}

/// Runs experiment A serially (equivalent to
/// [`run_with`]`(config, &Runtime::serial())`).
pub fn run(config: &Config) -> Result<Report, Error> {
    run_with(config, &Runtime::serial())
}

/// Runs experiment A on the given runtime. The report is identical for
/// every worker count.
pub fn run_with(config: &Config, rt: &Runtime) -> Result<Report, Error> {
    let pool = generate_subjects(config);
    let cases = generate_cases(config)?;

    // The machine pass: once per argument, shared by every treatment
    // review (its runtime is negligible next to human minutes and is
    // not charged to the reviewer).
    let machine_reports = rt.map(&cases, |_, c| check_argument(&c.case.argument));
    let machine_caught_per_sweep: usize = cases
        .iter()
        .zip(&machine_reports)
        .map(|(case, report)| {
            case.formal
                .iter()
                .filter(|seeded| report.findings.iter().any(|f| seeded.matches(f)))
                .count()
        })
        .sum();
    let machine_total_per_sweep: usize = cases.iter().map(|c| c.formal.len()).sum();

    let lane = StreamLane::new(config.seed, 0);
    let tallies = rt.map(&pool, |i, subject| {
        review_subject(&lane, &cases, i, subject)
    });

    let mut minutes_control = Vec::new();
    let mut minutes_treatment = Vec::new();
    let mut human_formal_hits = 0usize;
    let mut human_formal_total = 0usize;
    let mut machine_formal_hits = 0usize;
    let mut machine_formal_total = 0usize;
    let mut informal_hits = (0usize, 0usize);
    let mut informal_total = (0usize, 0usize);

    for tally in &tallies {
        if tally.control {
            minutes_control.push(tally.minutes);
            human_formal_hits += tally.formal_found;
            human_formal_total += tally.formal_total;
            informal_hits.0 += tally.informal_found;
            informal_total.0 += tally.informal_total;
        } else {
            minutes_treatment.push(tally.minutes);
            informal_hits.1 += tally.informal_found;
            informal_total.1 += tally.informal_total;
            machine_formal_hits += machine_caught_per_sweep;
            machine_formal_total += machine_total_per_sweep;
        }
    }

    Ok(Report {
        minutes_control: describe(&minutes_control)?,
        minutes_treatment: describe(&minutes_treatment)?,
        minutes_test: welch_t_test(&minutes_control, &minutes_treatment)?,
        formal_catch_human: human_formal_hits as f64 / human_formal_total.max(1) as f64,
        formal_catch_machine: machine_formal_hits as f64 / machine_formal_total.max(1) as f64,
        informal_catch: (
            informal_hits.0 as f64 / informal_total.0.max(1) as f64,
            informal_hits.1 as f64 / informal_total.1.max(1) as f64,
        ),
    })
}

impl Report {
    /// Renders the experiment's results table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Experiment A: automatic formal-fallacy detection (§VI-A)"
        );
        let _ = writeln!(
            out,
            "  review minutes   control (human does formal): {:7.1} ± {:.1}",
            self.minutes_control.mean, self.minutes_control.ci95
        );
        let _ = writeln!(
            out,
            "  review minutes   treatment (machine formal) : {:7.1} ± {:.1}",
            self.minutes_treatment.mean, self.minutes_treatment.ci95
        );
        let _ = writeln!(
            out,
            "  Welch t = {:.2}, p = {:.4}",
            self.minutes_test.statistic, self.minutes_test.p_value
        );
        let _ = writeln!(
            out,
            "  formal catch rate: human {:5.1}%   machine {:5.1}%",
            self.formal_catch_human * 100.0,
            self.formal_catch_machine * 100.0
        );
        let _ = writeln!(
            out,
            "  informal catch rate: control {:5.1}%   treatment {:5.1}% (machine cannot help)",
            self.informal_catch.0 * 100.0,
            self.informal_catch.1 * 100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_catches_all_formal_seeds() {
        let r = run(&Config::default()).unwrap();
        assert_eq!(r.formal_catch_machine, 1.0);
    }

    #[test]
    fn humans_catch_fewer_formal_fallacies_than_machine() {
        let r = run(&Config::default()).unwrap();
        assert!(r.formal_catch_human < r.formal_catch_machine);
        assert!(r.formal_catch_human > 0.0, "humans find some");
    }

    #[test]
    fn treatment_arm_reviews_faster() {
        let r = run(&Config::default()).unwrap();
        assert!(r.minutes_treatment.mean < r.minutes_control.mean);
        assert!(
            r.minutes_test.p_value < 0.05,
            "p = {}",
            r.minutes_test.p_value
        );
    }

    #[test]
    fn informal_catch_rates_similar_across_arms() {
        let r = run(&Config::default()).unwrap();
        let (c, t) = r.informal_catch;
        assert!((c - t).abs() < 0.15, "control {c} vs treatment {t}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&Config::default()).unwrap();
        let b = run(&Config::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_report_identical_to_serial() {
        let config = Config::default();
        let serial = run(&config).unwrap();
        for workers in [2, 4, 8] {
            let parallel = run_with(&config, &Runtime::with_workers(workers)).unwrap();
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn invalid_hazard_count_is_an_error_not_a_panic() {
        let err = run(&Config {
            hazards: 1,
            ..Config::default()
        })
        .unwrap_err();
        assert!(matches!(err, Error::Generator(_)), "{err}");
    }

    #[test]
    fn empty_arm_surfaces_a_stats_error() {
        let err = run(&Config {
            per_arm: 0,
            ..Config::default()
        })
        .unwrap_err();
        assert!(matches!(
            err,
            Error::Stats(crate::stats::StatsError::EmptySample)
        ));
    }

    #[test]
    fn render_mentions_key_rows() {
        let r = run(&Config {
            per_arm: 6,
            arguments: 2,
            hazards: 4,
            seed: 77,
        })
        .unwrap();
        let text = r.render();
        assert!(text.contains("Experiment A"));
        assert!(text.contains("machine"));
        assert!(text.contains("Welch"));
    }
}
