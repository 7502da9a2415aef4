//! Logical lint passes: solver-backed checks on one compiled
//! [`ArgumentTheory`] session, plus the re-routed formal/informal
//! fallacy detectors.
//!
//! Every pass is written against `&mut ArgumentTheory` and is
//! self-contained (it re-derives its own gating facts, e.g. premise
//! consistency, with cheap assumption rounds) so the compile-once
//! engine ([`crate::lint_compiled_with_pool`]) and the recompile-per-lint
//! baseline ([`crate::baseline::lint_argument_recompiling`]) can run
//! the *same* pass bodies and differ only in how many Tseitin
//! compilations they pay. Assumption rounds always retract fully
//! ([`casekit_logic::prop::Theory::check_under`]), so passes compose in
//! any order on one session.

use crate::diagnostic::{LintCode, Sink};
use crate::witness::WitnessPool;
use casekit_core::semantics::ArgumentTheory;
use casekit_core::{Argument, NodeId, NodeIdx};
use casekit_fallacies::formal::Finding;
use casekit_fallacies::taxonomy::FormalFallacy;
use casekit_fallacies::{formal, informal};
use casekit_logic::prop::Lit;

/// Runs every logical and fallacy pass against one shared session —
/// and one caller-owned [`WitnessPool`], so a model found answering one
/// pass's satisfiability question gets reused by every later pass, and
/// a long-lived session's pool (the incremental service) keeps serving
/// later lint runs. Answer-invariant with respect to the pool's
/// contents, so warm and cold pools produce byte-identical diagnostics
/// (the recompiling baseline starts a fresh pool per pass, because its
/// per-tool sessions share nothing).
pub(crate) fn run_all_with(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    sink: &mut Sink<'_>,
) {
    pass_non_deductive(argument, theory, pool, sink);
    pass_inconsistent_premises(argument, theory, pool, sink);
    pass_tautological_conclusion(argument, theory, pool, sink);
    pass_unsatisfiable_conclusion(argument, theory, pool, sink);
    pass_entailment(argument, theory, pool, sink);
    pass_redundant_premises(argument, theory, pool, sink);
    pass_circular_steps(argument, theory, pool, sink);
    pass_fallacies(argument, theory, pool, sink);
    pass_quantifier(argument, sink);
}

fn premise_ids(argument: &Argument, theory: &ArgumentTheory) -> Vec<NodeId> {
    theory
        .premise_indices()
        .into_iter()
        .map(|idx| argument.id_at(idx).clone())
        .collect()
}

/// CK106: formalised steps whose support does not entail the claim.
/// Each step's question (children asserted, parent denied) goes
/// through the pool, so a session whose machine check already asked
/// it answers from the stored witness or UNSAT set.
pub(crate) fn pass_non_deductive(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    sink: &mut Sink<'_>,
) {
    for idx in theory.step_indices() {
        let assumptions = theory.step_assumptions(idx).expect("a checkable step");
        if !pool.check(theory.theory_mut(), &assumptions) {
            continue; // deductive
        }
        let related: Vec<NodeId> = theory
            .step_children(idx)
            .unwrap_or(&[])
            .iter()
            .map(|c| argument.id_at(*c).clone())
            .collect();
        sink.emit(
            LintCode::NonDeductiveStep,
            Some(argument.id_at(idx).clone()),
            related,
            format!(
                "the support for `{}` does not deductively entail it",
                argument.id_at(idx)
            ),
            Some("strengthen the support, weaken the claim, or argue the gap explicitly".into()),
        );
    }
}

/// CK101: the formal premises are jointly unsatisfiable.
pub(crate) fn pass_inconsistent_premises(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    sink: &mut Sink<'_>,
) {
    let premise_lits = theory.premise_lits();
    if premise_lits.is_empty() {
        return;
    }
    let ids = premise_ids(argument, theory);
    if pool.check(theory.theory_mut(), &premise_lits) {
        return;
    }
    sink.emit(
        LintCode::InconsistentPremises,
        Some(ids[0].clone()),
        ids[1..].to_vec(),
        format!(
            "the {} formal premises cannot all be true together",
            ids.len()
        ),
        Some("at least one premise must be false; recheck the flagged leaves".into()),
    );
}

/// CK102: the conclusion is a tautology — the evidence cannot matter.
pub(crate) fn pass_tautological_conclusion(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    sink: &mut Sink<'_>,
) {
    let (Some(conclusion_lit), Some(conclusion_idx)) =
        (theory.conclusion_lit(), theory.conclusion_index())
    else {
        return;
    };
    if pool.check(theory.theory_mut(), &[!conclusion_lit]) {
        return;
    }
    sink.emit(
        LintCode::TautologicalConclusion,
        Some(argument.id_at(conclusion_idx).clone()),
        Vec::new(),
        format!(
            "the conclusion at `{}` is a tautology: it holds regardless of any evidence",
            argument.id_at(conclusion_idx)
        ),
        Some("state a falsifiable claim; a vacuous conclusion assures nothing".into()),
    );
}

/// CK103: the conclusion is unsatisfiable — no evidence could help.
pub(crate) fn pass_unsatisfiable_conclusion(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    sink: &mut Sink<'_>,
) {
    let (Some(conclusion_lit), Some(conclusion_idx)) =
        (theory.conclusion_lit(), theory.conclusion_index())
    else {
        return;
    };
    if pool.check(theory.theory_mut(), &[conclusion_lit]) {
        return;
    }
    sink.emit(
        LintCode::UnsatisfiableConclusion,
        Some(argument.id_at(conclusion_idx).clone()),
        Vec::new(),
        format!(
            "the conclusion at `{}` is unsatisfiable: no state of the world makes it true",
            argument.id_at(conclusion_idx)
        ),
        Some("the claim contradicts itself; restate it".into()),
    );
}

/// CK107: the premises do not entail the conclusion. The same
/// question as [`ArgumentTheory::root_entailed`] — premises assumed,
/// conclusion denied, SAT means a counterexample — asked through the
/// witness pool.
pub(crate) fn pass_entailment(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    sink: &mut Sink<'_>,
) {
    let (Some(conclusion_idx), Some(assumptions)) = (
        theory.conclusion_index(),
        theory.entailment_assumptions(None),
    ) else {
        return;
    };
    if theory.premise_lits().is_empty() {
        return;
    }
    if !pool.check(theory.theory_mut(), &assumptions) {
        return; // entailed
    }
    let ids = premise_ids(argument, theory);
    sink.emit(
        LintCode::ConclusionNotEntailed,
        Some(argument.id_at(conclusion_idx).clone()),
        ids,
        format!(
            "the formal premises do not entail the conclusion at `{}`",
            argument.id_at(conclusion_idx)
        ),
        Some("add the missing premise or weaken the conclusion".into()),
    );
}

/// CK104: Rushby-style drop-probes — assume every premise but one plus
/// the negated conclusion; unsatisfiability means the dropped premise
/// was never needed. Gated on a consistent, entailed premise set
/// (inconsistent premises entail everything, which would mark every
/// premise "redundant" while CK101/CK107 already name the real defect).
pub(crate) fn pass_redundant_premises(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    sink: &mut Sink<'_>,
) {
    let premise_lits = theory.premise_lits();
    let (Some(conclusion_idx), Some(entailment)) = (
        theory.conclusion_index(),
        theory.entailment_assumptions(None),
    ) else {
        return;
    };
    if premise_lits.is_empty() {
        return;
    }
    if !pool.check(theory.theory_mut(), &premise_lits) {
        return; // inconsistent: CK101's finding, not a redundancy.
    }
    if pool.check(theory.theory_mut(), &entailment) {
        return; // not entailed: CK107's finding.
    }
    for (i, dropped) in theory.premise_indices().into_iter().enumerate() {
        let rest = theory
            .entailment_assumptions(Some(i))
            .expect("has conclusion");
        if !pool.check(theory.theory_mut(), &rest) {
            sink.emit(
                LintCode::RedundantPremise,
                Some(argument.id_at(dropped).clone()),
                vec![argument.id_at(conclusion_idx).clone()],
                format!(
                    "premise `{}` is idle: the remaining premises already entail the conclusion",
                    argument.id_at(dropped)
                ),
                Some("drop it, or strengthen the conclusion it was meant to carry".into()),
            );
        }
    }
}

/// CK105: a support child logically equivalent to its parent claim —
/// the step restates rather than justifies. Two assumption rounds per
/// (step, child) edge against the compiled step literals.
pub(crate) fn pass_circular_steps(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    sink: &mut Sink<'_>,
) {
    // A step's parent claim literal plus its (child, literal) pairs.
    type Step = (NodeIdx, Lit, Vec<(NodeIdx, Lit)>);
    let steps: Vec<Step> = theory
        .step_indices()
        .into_iter()
        .filter_map(|parent| {
            let (parent_lit, child_lits) = theory.step_lits(parent)?;
            let children = theory.step_children(parent)?;
            Some((
                parent,
                parent_lit,
                children
                    .iter()
                    .copied()
                    .zip(child_lits.iter().copied())
                    .collect(),
            ))
        })
        .collect();
    let session = theory.theory_mut();
    for (parent, parent_lit, children) in steps {
        for (child, child_lit) in children {
            // Child-true/parent-false first: the redundancy pass's
            // drop-probe witnesses (premises true, conclusion false)
            // usually cover it, and a hit short-circuits the second
            // direction away without a solve.
            let equivalent = !pool.check(session, &[child_lit, !parent_lit])
                && !pool.check(session, &[parent_lit, !child_lit]);
            if equivalent {
                sink.emit(
                    LintCode::CircularStep,
                    Some(argument.id_at(child).clone()),
                    vec![argument.id_at(parent).clone()],
                    format!(
                        "`{}` is logically equivalent to the claim `{}` it supports",
                        argument.id_at(child),
                        argument.id_at(parent)
                    ),
                    Some("support the claim with independent content, not a restatement".into()),
                );
            }
        }
    }
}

/// The stable code for each formal fallacy.
fn fallacy_code(fallacy: FormalFallacy) -> LintCode {
    match fallacy {
        FormalFallacy::BeggingTheQuestion => LintCode::BeggingTheQuestion,
        FormalFallacy::IncompatiblePremises => LintCode::IncompatiblePremises,
        FormalFallacy::PremiseConclusionContradiction => LintCode::PremiseConclusionContradiction,
        FormalFallacy::DenyingTheAntecedent => LintCode::DenyingTheAntecedent,
        FormalFallacy::AffirmingTheConsequent => LintCode::AffirmingTheConsequent,
        FormalFallacy::FalseConversion => LintCode::FalseConversion,
        FormalFallacy::UndistributedMiddle => LintCode::UndistributedMiddle,
        FormalFallacy::IllicitDistribution => LintCode::IllicitDistribution,
    }
}

fn fallacy_hint(code: LintCode) -> Option<String> {
    let hint = match code {
        LintCode::BeggingTheQuestion => {
            "support the conclusion with something other than the conclusion"
        }
        LintCode::IncompatiblePremises => "at least one of the flagged premises must go",
        LintCode::PremiseConclusionContradiction => {
            "the premise and the conclusion cannot both hold"
        }
        LintCode::DenyingTheAntecedent => {
            "an implication says nothing when its antecedent is false"
        }
        LintCode::AffirmingTheConsequent => {
            "an implication does not run backwards from its consequent"
        }
        LintCode::FalseConversion => {
            "an implication does not entail its converse; use a biconditional if both directions hold"
        }
        _ => return None,
    };
    Some(hint.into())
}

/// Routes formal-fallacy [`Finding`]s into the diagnostic stream,
/// mapping premise indices to the argument's premise nodes. Shared by
/// the compile-once engine and the recompiling baseline.
pub(crate) fn emit_fallacy_findings(
    argument: &Argument,
    premise_indices: &[NodeIdx],
    conclusion_idx: Option<NodeIdx>,
    findings: Vec<Finding>,
    sink: &mut Sink<'_>,
) {
    for finding in findings {
        let code = fallacy_code(finding.fallacy);
        let involved: Vec<NodeId> = finding
            .premises
            .iter()
            .filter_map(|i| premise_indices.get(*i))
            .map(|idx| argument.id_at(*idx).clone())
            .collect();
        let (primary, mut related) = match involved.split_first() {
            Some((first, rest)) => (Some(first.clone()), rest.to_vec()),
            None => (
                conclusion_idx.map(|idx| argument.id_at(idx).clone()),
                vec![],
            ),
        };
        if let (Some(conclusion), Some(primary_id)) = (conclusion_idx, &primary) {
            let conclusion_id = argument.id_at(conclusion);
            if conclusion_id != primary_id && !related.contains(conclusion_id) {
                related.push(conclusion_id.clone());
            }
        }
        sink.emit(code, primary, related, finding.detail, fallacy_hint(code));
    }
}

/// CK110–CK115: the formal fallacy detectors, run against the compiled
/// premise/conclusion literals of this session — no second Tseitin pass.
pub(crate) fn pass_fallacies(
    argument: &Argument,
    theory: &mut ArgumentTheory,
    pool: &mut WitnessPool,
    sink: &mut Sink<'_>,
) {
    let premises = casekit_core::semantics::formal_premises(argument);
    let Some(conclusion) = casekit_core::semantics::formal_conclusion(argument) else {
        return;
    };
    if premises.is_empty() {
        return;
    }
    let premise_lits = theory.premise_lits();
    let Some(conclusion_lit) = theory.conclusion_lit() else {
        return;
    };
    let premise_indices = theory.premise_indices();
    let conclusion_idx = theory.conclusion_index();
    let findings = formal::detect_all_compiled(
        theory.theory_mut(),
        pool,
        premise_lits,
        conclusion_lit,
        &premises,
        conclusion,
    );
    emit_fallacy_findings(argument, &premise_indices, conclusion_idx, findings, sink);
}

/// CK120: the lexical quantifier-mismatch cue (a universal claim
/// supported only by partial evidence). No solver involved.
pub(crate) fn pass_quantifier(argument: &Argument, sink: &mut Sink<'_>) {
    for cue in informal::quantifier_mismatch_lint(argument) {
        sink.emit(
            LintCode::QuantifierMismatch,
            cue.node,
            Vec::new(),
            cue.detail,
            Some("check whether the cited evidence covers the whole population".into()),
        );
    }
}
