//! One live case: the argument, its persistent compiled state, and the
//! dirty-tracking that makes edits cheap.

use crate::ops::{CaseAnswers, EditError, EditOp, ProbeAnswer};
use casekit_analysis::{lint_argument, lint_compiled_with_pool, LintConfig, WitnessPool};
use casekit_core::semantics::{
    affected_step_parents, formal_conclusion, formal_premises, probe_argument, ArgumentTheory,
    PayloadCache,
};
use casekit_core::{Argument, Edge, EdgeKind, FormalPayload, Node, NodeId};
use casekit_fallacies::checker::{check_argument, MachineFinding, MachineReport};
use casekit_fallacies::formal;
use casekit_logic::prop::{Formula, Theory};
use std::collections::HashMap;

/// Below this many live payload variables, garbage never triggers a
/// whole-theory rebuild — tiny cases churn freely without compaction.
const COMPACTION_FLOOR: usize = 256;

/// Counters describing what a session's lifetime actually cost — the
/// observability the bench and tests use to prove the incremental path
/// is taken (not just that answers agree).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Edits applied (including text-only edits).
    pub edits: u64,
    /// Queries answered (cached or computed).
    pub queries: u64,
    /// Incremental recompiles performed (one per edited-then-queried
    /// burst, not one per edit).
    pub recompiles: u64,
    /// Whole-theory invalidations (garbage compaction fallback).
    pub full_rebuilds: u64,
    /// Support-step verdicts answered by the solver.
    pub steps_checked: u64,
    /// Support-step verdicts reused from the dirty-tracked cache.
    pub steps_reused: u64,
    /// Queries answered entirely from the cached answer bundle.
    pub cached_answers: u64,
    /// Solver calls the session's witness pool actually paid.
    pub solver_calls: u64,
    /// Pooled questions answered from a stored witness or UNSAT set.
    pub pool_hits: u64,
}

/// A long-lived session over one case.
///
/// Owns the current [`Argument`] revision plus the compiled state that
/// persists across edits: the CDCL session (learned clauses included),
/// the payload-literal cache, the analysis witness pool, and the
/// per-step verdict cache. See the crate docs for the soundness
/// argument behind each retention.
#[derive(Debug)]
pub struct CaseSession {
    argument: Argument,
    config: LintConfig,
    /// The live compiled session; `None` until the first query after
    /// open or whole-theory invalidation.
    theory: Option<ArgumentTheory>,
    cache: PayloadCache,
    pool: WitnessPool,
    /// Cached per-step verdicts keyed by the step's parent node id
    /// (ids survive the arena reindexing of structural edits).
    step_verdicts: HashMap<NodeId, bool>,
    /// Answer bundle for the current revision, valid until the next
    /// edit.
    answers: Option<CaseAnswers>,
    /// A formula or structural edit happened since the last flush.
    logic_dirty: bool,
    stats: SessionStats,
}

impl CaseSession {
    /// Opens a session over `argument`, deferring compilation to the
    /// first query.
    pub fn open(argument: Argument, config: LintConfig) -> Self {
        CaseSession {
            argument,
            config,
            theory: None,
            cache: PayloadCache::default(),
            pool: WitnessPool::new(),
            step_verdicts: HashMap::new(),
            answers: None,
            logic_dirty: true,
            stats: SessionStats::default(),
        }
    }

    /// The current revision of the case.
    pub fn argument(&self) -> &Argument {
        &self.argument
    }

    /// Lifetime counters for this session.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            solver_calls: self.pool.solver_calls() as u64,
            pool_hits: self.pool.witness_hits() as u64,
            ..self.stats
        }
    }

    /// Applies one edit.
    pub fn apply(&mut self, op: &EditOp) -> Result<(), EditError> {
        match op {
            EditOp::ReplaceFormula { node, formula } => self.replace_formula(node, formula.clone()),
            EditOp::SetText { node, text } => self.set_text(node, text.clone()),
            EditOp::AddSupport { parent, node } => self.add_support(parent, node.clone()),
            EditOp::RemoveNode { node } => self.remove_node(node),
        }
    }

    /// Replaces (or installs) the propositional payload of `node`.
    /// Dirties only the support steps the payload participates in.
    pub fn replace_formula(&mut self, node: &NodeId, formula: Formula) -> Result<(), EditError> {
        let idx = self
            .argument
            .node_idx(node)
            .ok_or_else(|| EditError::UnknownNode(node.clone()))?;
        self.dirty_steps_from(idx);
        self.argument
            .node_mut(node)
            .expect("node_idx proved the node exists")
            .formal = Some(FormalPayload::Prop(formula));
        self.invalidate_logic();
        Ok(())
    }

    /// [`replace_formula`](Self::replace_formula) on a formal premise
    /// leaf — same machinery, named for the analyst's common case.
    pub fn set_premise(&mut self, node: &NodeId, formula: Formula) -> Result<(), EditError> {
        self.replace_formula(node, formula)
    }

    /// Replaces the natural-language statement of `node`. Text is
    /// invisible to the solver, so only the lint stream (quantifier
    /// cues, duplicate evidence, …) is invalidated.
    pub fn set_text(&mut self, node: &NodeId, text: String) -> Result<(), EditError> {
        let target = self
            .argument
            .node_mut(node)
            .ok_or_else(|| EditError::UnknownNode(node.clone()))?;
        target.text = text;
        // The solver state is untouched (`logic_dirty` stays false);
        // the next query re-runs only the lint passes, against warm
        // step-verdict and witness caches.
        self.answers = None;
        self.stats.edits += 1;
        Ok(())
    }

    /// Adds `node` supporting `parent`. Structural: the argument is
    /// rebuilt (revalidated) and the new step chain is dirtied.
    pub fn add_support(&mut self, parent: &NodeId, node: Node) -> Result<(), EditError> {
        if self.argument.node_idx(parent).is_none() {
            return Err(EditError::UnknownNode(parent.clone()));
        }
        let node_id = node.id.clone();
        let mut nodes = self.argument.arena().to_vec();
        nodes.push(node);
        let mut edges = self.argument.edges().to_vec();
        edges.push(Edge {
            from: parent.clone(),
            to: node_id.clone(),
            kind: EdgeKind::SupportedBy,
        });
        self.argument = Argument::from_parts(self.argument.name(), nodes, edges)?;
        let idx = self
            .argument
            .node_idx(&node_id)
            .expect("the node was just added");
        self.dirty_steps_from(idx);
        self.invalidate_logic();
        Ok(())
    }

    /// Removes `node` and every edge incident to it.
    pub fn remove_node(&mut self, node: &NodeId) -> Result<(), EditError> {
        let idx = self
            .argument
            .node_idx(node)
            .ok_or_else(|| EditError::UnknownNode(node.clone()))?;
        // Dirty the steps that lose a child — computed on the old
        // structure, recorded as ids, which survive the rebuild.
        self.dirty_steps_from(idx);
        let nodes: Vec<Node> = self
            .argument
            .arena()
            .iter()
            .filter(|n| n.id != *node)
            .cloned()
            .collect();
        let edges: Vec<Edge> = self
            .argument
            .edges()
            .iter()
            .filter(|e| e.from != *node && e.to != *node)
            .cloned()
            .collect();
        self.argument = Argument::from_parts(self.argument.name(), nodes, edges)?;
        self.step_verdicts.remove(node);
        self.invalidate_logic();
        Ok(())
    }

    /// The batched answers for the current revision: machine check,
    /// lint stream, probe classification, in that order, all asking
    /// through one witness pool. Cached until the next edit.
    pub fn answers(&mut self) -> CaseAnswers {
        self.stats.queries += 1;
        if let Some(answers) = &self.answers {
            self.stats.cached_answers += 1;
            return answers.clone();
        }
        self.flush();
        let machine = self.compute_machine();
        let theory = self
            .theory
            .as_mut()
            .expect("flush leaves a live compilation");
        let lint = lint_compiled_with_pool(&self.argument, theory, &mut self.pool, &self.config);
        let probe = pooled_probe(theory, &mut self.pool);
        let answers = CaseAnswers {
            machine,
            lint,
            probe,
        };
        self.answers = Some(answers.clone());
        answers
    }

    /// Forces whole-theory invalidation: the next query compiles fresh,
    /// with an empty payload cache and witness pool. Step verdicts are
    /// kept — they are facts about formulas, not encodings.
    pub fn compact(&mut self) {
        self.theory = None;
        self.cache = PayloadCache::default();
        self.pool.clear();
        self.logic_dirty = true;
        self.stats.full_rebuilds += 1;
    }

    /// Drops the verdicts of every step an edit at `idx` can affect.
    fn dirty_steps_from(&mut self, idx: casekit_core::NodeIdx) {
        for parent in affected_step_parents(&self.argument, [idx]) {
            self.step_verdicts.remove(self.argument.id_at(parent));
        }
    }

    fn invalidate_logic(&mut self) {
        self.answers = None;
        self.logic_dirty = true;
        self.stats.edits += 1;
    }

    /// Brings the compiled session up to date with the current
    /// revision: an incremental recompile against the live clause
    /// database, falling back to whole-theory invalidation when the
    /// stranded definitional clauses outweigh the live ones.
    fn flush(&mut self) {
        if !self.logic_dirty && self.theory.is_some() {
            return;
        }
        let theory = self
            .theory
            .take()
            .map_or_else(Theory::new, ArgumentTheory::into_theory);
        let (compiled, stats) = ArgumentTheory::recompile(&self.argument, theory, &mut self.cache);
        self.stats.recompiles += 1;
        if stats.garbage_cost > stats.live_cost.max(COMPACTION_FLOOR) {
            // More dead weight than live payload: compact. Always
            // sound (everything derives from scratch); the retained
            // step verdicts are formula-level facts and stay.
            self.cache = PayloadCache::default();
            self.pool.clear();
            let (fresh, _) =
                ArgumentTheory::recompile(&self.argument, Theory::new(), &mut self.cache);
            self.theory = Some(fresh);
            self.stats.full_rebuilds += 1;
        } else {
            self.theory = Some(compiled);
        }
        self.logic_dirty = false;
    }

    /// The machine report over the live session, finding-for-finding
    /// identical to [`check_argument`] on the current revision: step
    /// verdicts come from the dirty-tracked cache, and every question
    /// left (dirtied steps, root entailment, the fallacy detectors) is
    /// asked through the witness pool, where the lint and the probe
    /// find it again.
    fn compute_machine(&mut self) -> MachineReport {
        let theory = self
            .theory
            .as_mut()
            .expect("flush leaves a live compilation");
        let premises = formal_premises(&self.argument);
        let conclusion = formal_conclusion(&self.argument);
        let formal_nodes = self.argument.formalised_count();
        let mut findings = Vec::new();
        for idx in theory.step_indices() {
            let id = self.argument.id_at(idx);
            let deductive = if let Some(&verdict) = self.step_verdicts.get(id) {
                self.stats.steps_reused += 1;
                verdict
            } else {
                let assumptions = theory
                    .step_assumptions(idx)
                    .expect("step_indices yields only checkable steps");
                let verdict = !self.pool.check(theory.theory_mut(), &assumptions);
                self.stats.steps_checked += 1;
                self.step_verdicts.insert(id.clone(), verdict);
                verdict
            };
            if !deductive {
                findings.push(MachineFinding::NonDeductiveStep { node: id.clone() });
            }
        }
        let checkable = match (&conclusion, premises.is_empty()) {
            (Some(_), false) => true,
            _ => formal_nodes > 0,
        };
        if let Some(conclusion) = conclusion {
            if !premises.is_empty() {
                let entailment = theory.entailment_assumptions(None).expect("has conclusion");
                if self.pool.check(theory.theory_mut(), &entailment) {
                    findings.push(MachineFinding::ConclusionNotEntailed);
                }
                let premise_lits = theory.premise_lits();
                if let Some(conclusion_lit) = theory.conclusion_lit() {
                    for finding in formal::detect_all_compiled(
                        theory.theory_mut(),
                        &mut self.pool,
                        premise_lits,
                        conclusion_lit,
                        &premises,
                        conclusion,
                    ) {
                        findings.push(MachineFinding::Fallacy {
                            fallacy: finding.fallacy,
                            detail: finding.detail,
                        });
                    }
                }
            }
        }
        MachineReport {
            findings,
            formal_nodes,
            checkable,
        }
    }
}

/// The probe classification asked through `pool`: the entailment
/// question, then one drop-probe per premise. On a consistent case the
/// machine check already asked the first and CK104 the rest, so all of
/// them are pool hits; no model is extracted.
fn pooled_probe(theory: &mut ArgumentTheory, pool: &mut WitnessPool) -> Option<ProbeAnswer> {
    let premises = theory.premise_lits().len();
    let mut sat = |skip| {
        let question = theory.entailment_assumptions(skip)?;
        Some(pool.check(theory.theory_mut(), &question))
    };
    let entailed = !sat(None)?;
    let (critical, idle) = if entailed {
        (0..premises).partition(|&i| sat(Some(i)) == Some(true))
    } else {
        Default::default()
    };
    Some(ProbeAnswer {
        entailed,
        critical,
        idle,
    })
}

/// The honest from-scratch answer bundle: parse nothing, reuse nothing
/// — compile the argument fresh for the machine check, fresh for the
/// lint run, fresh for the probe, exactly as a batch caller would. The
/// agreement oracle for every incremental answer (and the baseline arm
/// of `BENCH_service.json`).
pub fn batch_answers(argument: &Argument, config: &LintConfig) -> CaseAnswers {
    CaseAnswers {
        machine: check_argument(argument),
        lint: lint_argument(argument, config),
        probe: probe_argument(argument).as_ref().map(ProbeAnswer::from),
    }
}

/// Replays a traffic stream statelessly: edits apply through a session
/// (the service's deterministic edit semantics) but every query is
/// answered by [`batch_answers`] — a from-scratch recompilation sharing
/// nothing with the incremental path. The agreement oracle for
/// [`crate::CaseService::drive`] transcripts, and the honest baseline
/// arm of `BENCH_service.json`.
pub fn batch_transcript(
    argument: &Argument,
    ops: &[crate::CaseOp],
    config: &LintConfig,
) -> Vec<CaseAnswers> {
    let mut shadow = CaseSession::open(argument.clone(), config.clone());
    ops.iter()
        .filter_map(|op| match op {
            crate::CaseOp::Edit(edit) => {
                let _ = shadow.apply(edit);
                None
            }
            crate::CaseOp::Query => Some(batch_answers(shadow.argument(), config)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_core::dsl::parse_argument;

    /// Modus ponens: consistent premises that entail the conclusion.
    fn entailed_case() -> Argument {
        parse_argument(
            r#"argument "mp" {
                goal g1 "q holds" formal "q" {
                  goal g2 "the rule" formal "p -> q" { solution e1 "review" }
                  goal g3 "the fact" formal "p" { solution e2 "measurement" }
                  goal g4 "an idle fact" formal "r" { solution e3 "log" }
                }
            }"#,
        )
        .unwrap()
    }

    /// Solver work paid so far: the calls the pool paid, and the
    /// solver's branching decisions (a question that bypasses the pool
    /// still branches on its assumptions).
    fn work(session: &mut CaseSession) -> (usize, u64) {
        let decisions = session
            .theory
            .as_mut()
            .map_or(0, |t| t.theory_mut().stats().decisions);
        (session.pool.solver_calls(), decisions)
    }

    fn lint(session: &mut CaseSession) -> Vec<casekit_analysis::Diagnostic> {
        let theory = session.theory.as_mut().expect("flushed");
        lint_compiled_with_pool(
            &session.argument,
            theory,
            &mut session.pool,
            &session.config,
        )
    }

    #[test]
    fn the_machine_check_stores_every_step_question_for_ck106() {
        let mut session = CaseSession::open(entailed_case(), LintConfig::new());
        session.flush();
        session.compute_machine();
        let after_machine = work(&mut session);
        let theory = session.theory.as_mut().unwrap();
        for idx in theory.step_indices() {
            let question = theory.step_assumptions(idx).unwrap();
            assert!(!session.pool.check(theory.theory_mut(), &question));
        }
        assert_eq!(work(&mut session), after_machine);
        // The lint's own CK106 run goes through the pool too: once the
        // revision is answered, a second lint run does no solver work.
        let first = lint(&mut session);
        let after_lint = work(&mut session);
        assert_eq!(lint(&mut session), first);
        assert_eq!(work(&mut session), after_lint);
    }

    #[test]
    fn the_probe_adds_no_solver_calls_after_the_lint() {
        let argument = entailed_case();
        let mut session = CaseSession::open(argument.clone(), LintConfig::new());
        session.flush();
        session.compute_machine();
        lint(&mut session);
        let after_lint = work(&mut session);
        let probe = pooled_probe(session.theory.as_mut().unwrap(), &mut session.pool);
        assert_eq!(work(&mut session), after_lint);
        let expected = probe_argument(&argument).as_ref().map(ProbeAnswer::from);
        assert_eq!(probe, expected);
        assert_eq!(probe.unwrap().idle, vec![2]);
    }

    #[test]
    fn a_text_edit_is_answered_without_solver_calls() {
        let mut session = CaseSession::open(entailed_case(), LintConfig::new());
        let before = session.answers();
        let calls = session.stats().solver_calls;
        let decisions = work(&mut session).1;
        session
            .set_text(&"g1".into(), "All outputs are checked".into())
            .unwrap();
        let after = session.answers();
        assert_eq!(after.machine, before.machine);
        assert_eq!(after.probe, before.probe);
        assert_eq!(after, batch_answers(session.argument(), &LintConfig::new()));
        let stats = session.stats();
        assert_eq!(stats.solver_calls, calls);
        assert!(stats.pool_hits > 0, "stats: {stats:?}");
        assert_eq!(work(&mut session).1, decisions);
    }
}
