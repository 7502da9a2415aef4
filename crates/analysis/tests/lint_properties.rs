//! Property tests for the lint engine.
//!
//! Three invariants ride on randomly generated assurance cases:
//!
//! 1. **Determinism.** The diagnostic stream for a corpus is identical
//!    across repeated runs and across every runtime worker count — the
//!    `diagnostics_agree` gate of `BENCH_lint.json`, exercised over
//!    arbitrary formal content rather than the bench's fixed corpus.
//! 2. **Redundant-premise differential.** CK104 agrees with a naive
//!    oracle that enumerates premise subsets with the formula-level
//!    truth-table/DPLL check, gated exactly as the pass documents:
//!    only consistent, entailed steps are examined for idle premises.
//! 3. **Support-cycle differential.** CK002 names exactly the classes
//!    of mutually reachable nodes over the support edges of a random
//!    graph, checked against a transitive-closure oracle.

use casekit_analysis::{check_source, lint_argument, Diagnostic, LintCode, LintConfig, PassKind};
use casekit_core::{Argument, EdgeKind, NodeKind};
use casekit_logic::prop::Formula;
use casekit_runtime::Runtime;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Arbitrary propositional formulas over a small atom alphabet, kept
/// shallow so each lint run stays microseconds-scale.
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        prop_oneof![Just("p"), Just("q"), Just("r"), Just("s")].prop_map(Formula::atom),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.implies(b)),
        ]
    })
}

/// A random single-step case: `conclusion` at the root, one strategy,
/// one formal premise goal per formula, each closed with a solution.
fn case_strategy() -> impl Strategy<Value = (Vec<Formula>, Formula)> {
    (
        collection::vec(formula_strategy(), 1..4),
        formula_strategy(),
    )
}

/// Renders the generated step as DSL source — the same shape the bench
/// corpus uses, so the engine's premise/conclusion literals line up
/// with `premises`/`conclusion` by construction.
fn render_case(premises: &[Formula], conclusion: &Formula) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    let _ = writeln!(src, "argument \"prop\" {{");
    let _ = writeln!(src, "  goal g0 \"top claim\" formal \"{conclusion}\" {{");
    let _ = writeln!(src, "    strategy s0 \"decompose\" {{");
    for (i, premise) in premises.iter().enumerate() {
        let _ = writeln!(
            src,
            "      goal pr{i} \"premise {i}\" formal \"{premise}\" {{ solution ev{i} \"evidence record {i}\" }}"
        );
    }
    let _ = writeln!(src, "    }}");
    let _ = writeln!(src, "  }}");
    let _ = writeln!(src, "}}");
    src
}

fn conjunction<'f>(formulas: impl Iterator<Item = &'f Formula>) -> Formula {
    formulas.fold(Formula::True, |acc, f| acc.and(f.clone()))
}

/// `premises ⊨ conclusion`, decided at the [`Formula`] level — an
/// implementation wholly independent of the lint engine's shared CDCL
/// session and witness pool.
fn entails(premises: &[&Formula], conclusion: &Formula) -> bool {
    !conjunction(premises.iter().copied())
        .and(conclusion.clone().not())
        .is_satisfiable()
}

/// The naive CK104 oracle: enumerate the drop-one premise subsets and
/// report every index whose removal leaves the conclusion entailed,
/// under the pass's gates (consistent premises, entailed conclusion).
fn naive_redundant(premises: &[Formula], conclusion: &Formula) -> Vec<usize> {
    let all: Vec<&Formula> = premises.iter().collect();
    if !conjunction(all.iter().copied()).is_satisfiable() {
        return Vec::new(); // CK101 territory, no redundancy verdicts.
    }
    if !entails(&all, conclusion) {
        return Vec::new(); // CK107 territory.
    }
    (0..premises.len())
        .filter(|&i| {
            let rest: Vec<&Formula> = premises
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, f)| f)
                .collect();
            entails(&rest, conclusion)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine's CK104 verdicts equal the subset-enumeration oracle's.
    #[test]
    fn redundant_premise_lint_matches_naive_oracle(case in case_strategy()) {
        let (premises, conclusion) = case;
        let src = render_case(&premises, &conclusion);
        let analysis = check_source(&src, &LintConfig::new());
        prop_assert!(analysis.argument.is_some(), "rendered case parses");
        let mut flagged: Vec<usize> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::RedundantPremise)
            .map(|d| {
                let id = d.primary.as_ref().expect("CK104 anchors to the premise");
                id.as_str()
                    .strip_prefix("pr")
                    .and_then(|n| n.parse().ok())
                    .expect("CK104 primary is a premise goal")
            })
            .collect();
        flagged.sort_unstable();
        prop_assert_eq!(flagged, naive_redundant(&premises, &conclusion));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One corpus, many runtimes: the diagnostic stream is byte-identical
    /// across repeated runs and across every worker count.
    #[test]
    fn diagnostics_deterministic_across_worker_counts(
        cases in collection::vec(case_strategy(), 1..4)
    ) {
        let sources: Vec<String> = cases
            .iter()
            .map(|(premises, conclusion)| render_case(premises, conclusion))
            .collect();
        let config = LintConfig::new();
        let lint = |runtime: Runtime| -> Vec<Vec<Diagnostic>> {
            runtime.map(&sources, |_, src| check_source(src, &config).diagnostics)
        };
        let reference = lint(Runtime::serial());
        prop_assert!(
            reference
                .iter()
                .flatten()
                .all(|d| d.code.descriptor().pass != PassKind::Syntax),
            "rendered corpus parses"
        );
        // Repeated serial run: pure determinism.
        prop_assert_eq!(&reference, &lint(Runtime::serial()));
        // Any worker count: scheduling must not reorder or change anything.
        for workers in [1, 2, 3, 5] {
            let parallel = lint(Runtime::with_workers(workers));
            prop_assert_eq!(&reference, &parallel, "workers = {}", workers);
        }
    }
}

/// A random graph on `g0..g{n-1}`: `(parent, child, is_support)` edges,
/// self-loops dropped (the builder rejects them) and duplicates folded.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, bool)>)> {
    (1usize..10).prop_flat_map(|n| {
        let edge = (0..n, 0..n, any::<bool>());
        (Just(n), collection::vec(edge, 0..3 * n))
    })
}

/// The naive CK002 oracle: classes of mutually reachable nodes over the
/// support edges alone, kept when they hold at least two nodes.
fn naive_support_cycles(n: usize, edges: &[(usize, usize, bool)]) -> BTreeSet<BTreeSet<usize>> {
    let mut reach = vec![vec![false; n]; n];
    for &(a, b, support) in edges {
        reach[a][b] |= support;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] |= reach[i][k] && reach[k][j];
            }
        }
    }
    (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j == i || (reach[i][j] && reach[j][i]))
                .collect()
        })
        .filter(|class: &BTreeSet<usize>| class.len() > 1)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CK002 reports exactly the mutual-reachability classes of the
    /// support relation, each once, with every member named.
    #[test]
    fn support_cycle_members_match_mutual_reachability(graph in graph_strategy()) {
        let (n, edges) = graph;
        let mut builder = Argument::builder("cycles");
        for i in 0..n {
            builder = builder.add(&format!("g{i}"), NodeKind::Goal, &format!("claim {i}"));
        }
        let mut seen = BTreeSet::new();
        for &(a, b, support) in &edges {
            if a != b && seen.insert((a, b, support)) {
                let kind = if support { EdgeKind::SupportedBy } else { EdgeKind::InContextOf };
                builder = builder.edge(&format!("g{a}"), &format!("g{b}"), kind);
            }
        }
        let argument = builder.build().expect("generated graph builds");
        let reported: BTreeSet<BTreeSet<usize>> = lint_argument(&argument, &LintConfig::new())
            .iter()
            .filter(|d| d.code == LintCode::SupportCycle)
            .map(|d| {
                d.primary
                    .iter()
                    .chain(&d.related)
                    .map(|id| id.as_str()[1..].parse().expect("node ids are g<i>"))
                    .collect()
            })
            .collect();
        let kept: Vec<_> = edges.iter().copied().filter(|&(a, b, _)| a != b).collect();
        prop_assert_eq!(reported, naive_support_cycles(n, &kept));
    }
}
