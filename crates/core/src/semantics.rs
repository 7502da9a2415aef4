//! Bridging arguments to formal logic: compiling formal payloads into a
//! theory and checking deductive support, in the style of Rushby's
//! "formalise what lends itself to the process" (Graydon §III-M).
//!
//! Only nodes with [`FormalPayload::Prop`] payloads participate; everything
//! else remains informal — which is the paper's partial-formalisation
//! setting. The checks here answer precisely the question mechanical
//! verification can answer (does the symbol structure entail the
//! conclusion?) and none of the questions it cannot (do the premises
//! describe the world?).
//!
//! # Batch checking
//!
//! [`ArgumentTheory::compile`] Tseitin-compiles every propositional
//! payload **once** into one interned clause database; each support
//! step, the root entailment, and every what-if probe is then an
//! `assume`/`check`/`retract` round against it. The free functions
//! ([`step_is_deductive`], [`non_deductive_steps`], [`probe_argument`])
//! stay source-compatible and route through a single compilation;
//! callers with several questions about the same argument should
//! compile once and reuse the theory.

use crate::argument::{Argument, NodeIdx};
use crate::node::{EdgeKind, FormalPayload, NodeId, NodeKind};
use casekit_logic::probe::{PremiseImpact, ProbeReport};
use casekit_logic::prop::{Atom, Formula, Lit, Theory};
use std::collections::{BTreeSet, HashMap};

/// The formal premises of an argument: the propositional payloads of its
/// formalised support *leaves* (solutions/evidence are cited through their
/// parent goals' payloads, so leaves here means "formalised nodes with no
/// formalised descendants providing support"). Borrowed from the
/// argument's nodes — theory assembly allocates no formula clones.
pub fn formal_premises(argument: &Argument) -> Vec<&Formula> {
    argument
        .sorted_indices()
        .map(|idx| (idx, argument.node_at(idx)))
        .filter(|(idx, n)| {
            n.is_formalised() && formalised_support_children(argument, *idx).is_empty()
        })
        .filter_map(|(_, n)| match &n.formal {
            Some(FormalPayload::Prop(f)) => Some(f),
            _ => None,
        })
        .collect()
}

/// The node plane of [`formal_premises`]: indices of the formal premise
/// leaves, in the same sorted-id order. A pure graph pass — no solver
/// involved — so analyses that only need the *locations* of the
/// premises (e.g. to anchor diagnostics) can ask without compiling.
pub fn formal_premise_indices(argument: &Argument) -> Vec<NodeIdx> {
    argument
        .sorted_indices()
        .filter(|idx| {
            let n = argument.node_at(*idx);
            matches!(n.formal, Some(FormalPayload::Prop(_)))
                && formalised_support_children(argument, *idx).is_empty()
        })
        .collect()
}

/// The node plane of [`formal_conclusion`]: index of the first root with
/// a propositional payload, if any.
pub fn formal_conclusion_index(argument: &Argument) -> Option<NodeIdx> {
    argument
        .sorted_roots_idx()
        .find(|idx| matches!(argument.node_at(*idx).formal, Some(FormalPayload::Prop(_))))
}

/// The formal conclusion: the propositional payload of the (first) root
/// goal, if it has one. Borrowed, like [`formal_premises`].
pub fn formal_conclusion(argument: &Argument) -> Option<&Formula> {
    argument
        .sorted_roots_idx()
        .find_map(|idx| match &argument.node_at(idx).formal {
            Some(FormalPayload::Prop(f)) => Some(f),
            _ => None,
        })
}

/// Formalised children supporting `idx` (transitively skipping
/// unformalised strategies, which GSN interposes between goals).
fn formalised_support_children(argument: &Argument, idx: NodeIdx) -> Vec<NodeIdx> {
    let mut out = Vec::new();
    for child_idx in argument.children_idx(idx, EdgeKind::SupportedBy) {
        let child = argument.node_at(child_idx);
        if child.is_formalised() {
            out.push(child_idx);
        } else if child.kind == NodeKind::Strategy {
            out.extend(formalised_support_children(argument, child_idx));
        }
    }
    out
}

/// Parents of the support steps an edit to `touched` can affect: the
/// touched node itself plus every formalised ancestor that reaches it
/// through `SupportedBy` edges crossing only unformalised strategies
/// (the exact paths `formalised_support_children` recurses through).
/// An editor that changed one premise re-verifies only these steps; all
/// other step verdicts are untouched by construction, because a step's
/// truth depends only on its parent payload and the payloads of its
/// formalised support children.
pub fn affected_step_parents(
    argument: &Argument,
    touched: impl IntoIterator<Item = NodeIdx>,
) -> BTreeSet<NodeIdx> {
    let mut affected = BTreeSet::new();
    let mut stack: Vec<NodeIdx> = touched.into_iter().collect();
    // Every touched node is itself a candidate step parent.
    affected.extend(stack.iter().copied());
    while let Some(idx) = stack.pop() {
        for parent in argument.parents_by_kind_idx(idx, EdgeKind::SupportedBy) {
            let node = argument.node_at(parent);
            if node.is_formalised() {
                // A formalised parent anchors a step; the chain stops
                // here because grandparent steps see only this parent's
                // payload, which the edit did not change.
                affected.insert(parent);
            } else if node.kind == NodeKind::Strategy && affected.insert(parent) {
                // Unformalised strategies are transparent to
                // `formalised_support_children`; keep climbing.
                stack.push(parent);
            }
        }
    }
    affected
}

/// Per-node memo of compiled payload literals for
/// [`ArgumentTheory::recompile`]: which formula each node last compiled
/// to, the packed literal it received, and what that compilation cost
/// in fresh solver variables (the garbage left behind if the payload is
/// later replaced or the node removed).
#[derive(Debug, Clone, Default)]
pub struct PayloadCache {
    entries: HashMap<NodeId, CachedPayload>,
    /// Solver variables spent on payloads since retired — definitional
    /// clauses nothing references, carried by the session as dead
    /// weight until whole-theory invalidation compacts them.
    garbage: usize,
    /// Solver variables backing currently-live payloads.
    live: usize,
}

#[derive(Debug, Clone)]
struct CachedPayload {
    formula: Formula,
    lit: Lit,
    cost: usize,
}

impl PayloadCache {
    /// Number of cached payload literals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Solver variables backing retired payloads (dead definitional
    /// clauses accumulated across edits).
    pub fn garbage_cost(&self) -> usize {
        self.garbage
    }

    /// Solver variables backing live payloads.
    pub fn live_cost(&self) -> usize {
        self.live
    }

    /// The literal for `id`'s payload, reusing the cached compilation
    /// when the formula is unchanged and compiling a fresh definition
    /// otherwise.
    fn lit_for(
        &mut self,
        theory: &mut Theory,
        id: &NodeId,
        formula: &Formula,
        stats: &mut RecompileStats,
    ) -> Lit {
        if let Some(entry) = self.entries.get(id) {
            if entry.formula == *formula {
                stats.reused_payloads += 1;
                return entry.lit;
            }
        }
        let before = theory.num_vars();
        let lit = theory.formula_lit(formula);
        let cost = theory.num_vars() - before;
        stats.fresh_payloads += 1;
        self.live += cost;
        if let Some(old) = self.entries.insert(
            id.clone(),
            CachedPayload {
                formula: formula.clone(),
                lit,
                cost,
            },
        ) {
            self.garbage += old.cost;
            self.live -= old.cost;
        }
        lit
    }

    /// Retires cache entries whose node no longer exists (or no longer
    /// carries a propositional payload), moving their cost to garbage.
    fn retire_missing(&mut self, argument: &Argument, stats: &mut RecompileStats) {
        let mut garbage = 0usize;
        let mut retired = 0u32;
        self.entries.retain(|id, entry| {
            let alive = argument.node_idx(id).is_some_and(|idx| {
                matches!(argument.node_at(idx).formal, Some(FormalPayload::Prop(_)))
            });
            if !alive {
                garbage += entry.cost;
                retired += 1;
            }
            alive
        });
        self.garbage += garbage;
        self.live -= garbage;
        stats.retired_payloads += retired;
    }
}

/// What one [`ArgumentTheory::recompile`] round did: how much of the
/// previous compilation survived, and how much dead weight the session
/// is carrying. `garbage_cost / max(1, live_cost)` is the natural
/// compaction trigger.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecompileStats {
    /// Payloads whose cached literal was reused unchanged.
    pub reused_payloads: u32,
    /// Payloads compiled fresh (new nodes or changed formulas).
    pub fresh_payloads: u32,
    /// Cache entries dropped because their node vanished or lost its
    /// propositional payload.
    pub retired_payloads: u32,
    /// Total solver variables after this round.
    pub num_vars: usize,
    /// Cumulative variables backing retired payloads.
    pub garbage_cost: usize,
    /// Variables backing live payloads.
    pub live_cost: usize,
}

/// One checkable support step: a parent with a propositional payload and
/// formalised support including at least one propositional payload.
#[derive(Debug, Clone)]
struct Step {
    parent: NodeIdx,
    parent_lit: Lit,
    /// Propositional support children, aligned index-for-index with
    /// `child_lits` (formalised children with temporal payloads carry no
    /// propositional literal and are excluded from both).
    children: Vec<NodeIdx>,
    child_lits: Vec<Lit>,
}

/// An argument's propositional skeleton, compiled once into an interned
/// solver session.
///
/// Every payload formula becomes an equivalent packed literal over a
/// shared clause database; support steps, the root entailment, and
/// premise probes are assumption rounds against it. Compile once per
/// argument, ask as many questions as you like:
///
/// ```
/// use casekit_core::{Argument, FormalPayload, Node, NodeKind};
/// use casekit_core::semantics::ArgumentTheory;
/// use casekit_logic::prop::parse;
/// let argument = Argument::builder("mp")
///     .node(Node::new("g1", NodeKind::Goal, "q")
///         .with_formal(FormalPayload::Prop(parse("q").unwrap())))
///     .node(Node::new("g2", NodeKind::Goal, "rule")
///         .with_formal(FormalPayload::Prop(parse("(p -> q) & p").unwrap())))
///     .add("e1", NodeKind::Solution, "evidence")
///     .supported_by("g1", "g2")
///     .supported_by("g2", "e1")
///     .build()
///     .unwrap();
/// let mut theory = ArgumentTheory::compile(&argument);
/// let g1 = argument.node_idx(&"g1".into()).unwrap();
/// assert_eq!(theory.step_is_deductive(g1), Some(true));
/// assert_eq!(theory.root_entailed(), Some(true));
/// ```
#[derive(Debug, Clone)]
pub struct ArgumentTheory {
    theory: Theory,
    steps: Vec<Step>,
    /// Formal leaves in sorted-id order, with their payload literals.
    premises: Vec<(NodeIdx, Lit)>,
    conclusion: Option<(NodeIdx, Lit)>,
}

impl ArgumentTheory {
    /// Compiles every propositional payload of `argument` into one
    /// solver session. This is the only place formulas are traversed;
    /// every subsequent question is solver work.
    pub fn compile(argument: &Argument) -> Self {
        let mut theory = Theory::new();
        // Payload literal per arena slot, compiled in arena order.
        let mut lits: Vec<Option<Lit>> = vec![None; argument.len()];
        for idx in argument.node_indices() {
            if let Some(FormalPayload::Prop(f)) = &argument.node_at(idx).formal {
                lits[idx.index()] = Some(theory.formula_lit(f));
            }
        }
        Self::assemble(argument, theory, &lits)
    }

    /// Recompiles an *edited* argument against a live solver session,
    /// reusing the payload literals of unchanged nodes.
    ///
    /// This is the incremental counterpart of [`compile`](Self::compile)
    /// for long-lived case sessions: `theory` is the clause database of
    /// the previous revision (extract it with
    /// [`into_theory`](Self::into_theory)) and `cache` maps node ids to
    /// the literal their payload compiled to last time. Unchanged
    /// payloads keep their literals without touching the Tseitin
    /// compiler; changed or new payloads pay exactly their own
    /// compilation delta. Because payloads are compiled as
    /// *definitional* biconditionals (never asserted), the clause
    /// database only ever grows, so everything the solver learned
    /// answering earlier revisions' questions remains a consequence and
    /// keeps accelerating future checks. Retired payloads leave their
    /// (unreferenced, non-constraining) definition clauses behind as
    /// garbage; the returned [`RecompileStats`] report the accumulated
    /// garbage so callers can fall back to whole-theory invalidation —
    /// a fresh [`compile`](Self::compile) with an empty cache — when
    /// compaction is worth more than the retained learning.
    ///
    /// Passing a fresh `Theory` and an empty cache is exactly
    /// [`compile`](Self::compile) (same literal numbering, same
    /// tables), which is what makes the two paths differentially
    /// testable.
    pub fn recompile(
        argument: &Argument,
        theory: Theory,
        cache: &mut PayloadCache,
    ) -> (Self, RecompileStats) {
        let mut theory = theory;
        let mut stats = RecompileStats::default();
        let mut lits: Vec<Option<Lit>> = vec![None; argument.len()];
        for idx in argument.node_indices() {
            if let Some(FormalPayload::Prop(f)) = &argument.node_at(idx).formal {
                let id = argument.id_at(idx);
                lits[idx.index()] = Some(cache.lit_for(&mut theory, id, f, &mut stats));
            }
        }
        cache.retire_missing(argument, &mut stats);
        stats.num_vars = theory.num_vars();
        stats.garbage_cost = cache.garbage;
        stats.live_cost = cache.live;
        (Self::assemble(argument, theory, &lits), stats)
    }

    /// Consumes the session, releasing the underlying solver (clause
    /// database, learned clauses, interner) for
    /// [`recompile`](Self::recompile) against an edited argument.
    pub fn into_theory(self) -> Theory {
        self.theory
    }

    /// Builds the step/premise/conclusion tables over compiled payload
    /// literals (one per arena slot, arena order).
    fn assemble(argument: &Argument, theory: Theory, lits: &[Option<Lit>]) -> Self {
        // Checkable support steps, in arena order (the legacy report
        // order of `non_deductive_steps`).
        let mut steps = Vec::new();
        for idx in argument.node_indices() {
            let Some(parent_lit) = lits[idx.index()] else {
                continue;
            };
            let children = formalised_support_children(argument, idx);
            if children.is_empty() {
                continue;
            }
            let (children, child_lits): (Vec<NodeIdx>, Vec<Lit>) = children
                .iter()
                .filter_map(|c| lits[c.index()].map(|lit| (*c, lit)))
                .unzip();
            if child_lits.is_empty() {
                continue;
            }
            steps.push(Step {
                parent: idx,
                parent_lit,
                children,
                child_lits,
            });
        }
        // Premises (formal leaves, sorted order) and conclusion.
        let premises = formal_premise_indices(argument)
            .into_iter()
            .filter_map(|idx| lits[idx.index()].map(|lit| (idx, lit)))
            .collect();
        let conclusion = formal_conclusion_index(argument)
            .and_then(|idx| lits[idx.index()].map(|lit| (idx, lit)));
        ArgumentTheory {
            theory,
            steps,
            premises,
            conclusion,
        }
    }

    /// Indices of the formal premise leaves, in sorted-id order.
    pub fn premise_indices(&self) -> Vec<NodeIdx> {
        self.premises.iter().map(|(idx, _)| *idx).collect()
    }

    /// Parents of every checkable support step, in arena order.
    pub fn step_indices(&self) -> Vec<NodeIdx> {
        self.steps.iter().map(|s| s.parent).collect()
    }

    /// Index of the formal conclusion node, if any.
    pub fn conclusion_index(&self) -> Option<NodeIdx> {
        self.conclusion.map(|(idx, _)| idx)
    }

    /// The compiled literals of the support step into `idx`: the
    /// parent's payload literal and the literals of its propositional
    /// support children. `None` when the step is not checkable. Lets
    /// downstream analyses (e.g. the circular-justification lint) ask
    /// per-edge questions against this compilation instead of paying a
    /// second Tseitin pass.
    pub fn step_lits(&self, idx: NodeIdx) -> Option<(Lit, &[Lit])> {
        // Steps are built in arena order, so parents are sorted.
        let i = self.steps.binary_search_by_key(&idx, |s| s.parent).ok()?;
        Some((self.steps[i].parent_lit, &self.steps[i].child_lits))
    }

    /// The propositional support children of the step into `idx`,
    /// aligned index-for-index with the child literals of
    /// [`step_lits`](Self::step_lits). `None` when the step is not
    /// checkable.
    pub fn step_children(&self, idx: NodeIdx) -> Option<&[NodeIdx]> {
        let i = self.steps.binary_search_by_key(&idx, |s| s.parent).ok()?;
        Some(&self.steps[i].children)
    }

    /// The compiled premise literals, aligned with [`formal_premises`]
    /// (same nodes, same sorted order).
    pub fn premise_lits(&self) -> Vec<Lit> {
        self.premises.iter().map(|(_, lit)| *lit).collect()
    }

    /// The compiled conclusion literal, aligned with
    /// [`formal_conclusion`].
    pub fn conclusion_lit(&self) -> Option<Lit> {
        self.conclusion.map(|(_, lit)| lit)
    }

    /// The underlying solver session, for callers (e.g. the fallacy
    /// detectors) that want to ask further questions against the same
    /// compiled clause database instead of recompiling the payloads.
    pub fn theory_mut(&mut self) -> &mut Theory {
        &mut self.theory
    }

    /// Whether the support step into `idx` is deductively valid (`None`
    /// when the step is not checkable).
    pub fn step_is_deductive(&mut self, idx: NodeIdx) -> Option<bool> {
        let assumptions = self.step_assumptions(idx)?;
        Some(!self.theory.check_under(assumptions))
    }

    /// Parents of every non-deductive formalised step, in arena order.
    pub fn non_deductive_step_indices(&mut self) -> Vec<NodeIdx> {
        self.step_indices()
            .into_iter()
            .filter(|&idx| self.step_is_deductive(idx) == Some(false))
            .collect()
    }

    /// The question behind [`step_is_deductive`](Self::step_is_deductive)
    /// as an assumption set: every child payload asserted, the parent
    /// denied. UNSAT means deductive. `None` when the step is not
    /// checkable.
    pub fn step_assumptions(&self, idx: NodeIdx) -> Option<Vec<Lit>> {
        let (parent_lit, child_lits) = self.step_lits(idx)?;
        Some(child_lits.iter().copied().chain([!parent_lit]).collect())
    }

    /// The entailment question as an assumption set: every premise but
    /// the one at position `skip` asserted, the conclusion denied.
    /// UNSAT means entailed. `None` when there is no conclusion.
    pub fn entailment_assumptions(&self, skip: Option<usize>) -> Option<Vec<Lit>> {
        let (_, conclusion_lit) = self.conclusion?;
        let mut assumptions = self.premise_lits();
        if let Some(i) = skip {
            assumptions.remove(i);
        }
        assumptions.push(!conclusion_lit);
        Some(assumptions)
    }

    /// Whether the formal premises entail the formal conclusion (`None`
    /// when the argument lacks premises or a conclusion). One
    /// satisfiability check; builds no valuation.
    pub fn root_entailed(&mut self) -> Option<bool> {
        if self.premises.is_empty() {
            return None;
        }
        let assumptions = self.entailment_assumptions(None)?;
        Some(!self.theory.check_under(assumptions))
    }

    /// Rushby's what-if probe over the formal skeleton of `argument`
    /// (the argument this session was compiled from): the root
    /// entailment check plus one removal check per premise, all in this
    /// session. Each critical premise carries a counterexample
    /// [`Valuation`](casekit_logic::prop::Valuation) over the premise
    /// and conclusion atoms, so this is the one question here that
    /// builds valuations. `None` when there is no formal conclusion.
    pub fn probe(&mut self, argument: &Argument) -> Option<ProbeReport> {
        if self.theory.check_under(self.entailment_assumptions(None)?) {
            return Some(ProbeReport {
                entailed: false,
                impacts: Vec::new(),
            });
        }
        let atoms: BTreeSet<Atom> = formal_premises(argument)
            .into_iter()
            .chain(formal_conclusion(argument))
            .flat_map(Formula::atoms)
            .collect();
        let impacts = (0..self.premises.len())
            .map(|i| {
                let assumptions = self
                    .entailment_assumptions(Some(i))
                    .expect("has conclusion");
                match self.theory.model_under(assumptions, &atoms) {
                    None => PremiseImpact::Idle,
                    Some(v) => PremiseImpact::Critical(v),
                }
            })
            .collect();
        Some(ProbeReport {
            entailed: true,
            impacts,
        })
    }
}

/// Whether the support step into `id` is deductively valid: the
/// conjunction of the formalised supporting children's payloads entails
/// `id`'s payload.
///
/// Returns `None` when the step is not checkable (the node or all of its
/// support lacks propositional payloads). One-off convenience; compile an
/// [`ArgumentTheory`] to check many steps.
pub fn step_is_deductive(argument: &Argument, id: &NodeId) -> Option<bool> {
    let idx = argument.node_idx(id)?;
    ArgumentTheory::compile(argument).step_is_deductive(idx)
}

/// Every non-deductive formalised step in the argument (node ids whose
/// support fails entailment). An empty result means the formalised skeleton
/// is free of *formal* fallacies of consequence — and nothing more.
///
/// One theory compilation, one solver check per step.
pub fn non_deductive_steps(argument: &Argument) -> Vec<NodeId> {
    ArgumentTheory::compile(argument)
        .non_deductive_step_indices()
        .into_iter()
        .map(|idx| argument.node_at(idx).id.clone())
        .collect()
}

/// Runs Rushby's what-if probe over the argument's formal skeleton:
/// premises = formal leaf payloads, conclusion = root payload.
///
/// Returns `None` when the argument has no formal conclusion. One theory
/// compilation, `premises + 1` solver checks.
pub fn probe_argument(argument: &Argument) -> Option<ProbeReport> {
    ArgumentTheory::compile(argument).probe(argument)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use casekit_logic::prop::parse;

    fn payload(src: &str) -> FormalPayload {
        FormalPayload::Prop(parse(src).unwrap())
    }

    /// g1 ⟦q⟧ ← s1 ← { g2 ⟦p -> q⟧, g3 ⟦p⟧ }, each on a solution.
    fn deductive_case() -> Argument {
        Argument::builder("mp")
            .node(Node::new("g1", NodeKind::Goal, "q").with_formal(payload("q")))
            .add("s1", NodeKind::Strategy, "deduce")
            .node(Node::new("g2", NodeKind::Goal, "rule").with_formal(payload("p -> q")))
            .node(Node::new("g3", NodeKind::Goal, "fact").with_formal(payload("p")))
            .add("e1", NodeKind::Solution, "review")
            .add("e2", NodeKind::Solution, "measurement")
            .supported_by("g1", "s1")
            .supported_by("s1", "g2")
            .supported_by("s1", "g3")
            .supported_by("g2", "e1")
            .supported_by("g3", "e2")
            .build()
            .unwrap()
    }

    #[test]
    fn deductive_step_through_strategy() {
        let a = deductive_case();
        assert_eq!(step_is_deductive(&a, &"g1".into()), Some(true));
        assert!(non_deductive_steps(&a).is_empty());
    }

    #[test]
    fn premises_and_conclusion_extraction() {
        let a = deductive_case();
        let premises = formal_premises(&a);
        assert_eq!(premises.len(), 2);
        assert_eq!(formal_conclusion(&a), Some(&parse("q").unwrap()));
    }

    #[test]
    fn compiled_theory_answers_every_question_in_one_session() {
        let a = deductive_case();
        let mut theory = ArgumentTheory::compile(&a);
        let g1 = a.node_idx(&"g1".into()).unwrap();
        let g2 = a.node_idx(&"g2".into()).unwrap();
        assert_eq!(theory.step_is_deductive(g1), Some(true));
        assert_eq!(theory.step_is_deductive(g2), None); // leaf: no support
        assert!(theory.non_deductive_step_indices().is_empty());
        assert_eq!(theory.root_entailed(), Some(true));
        assert_eq!(theory.premise_indices().len(), 2);
        assert_eq!(theory.conclusion_index(), Some(g1));
        let report = theory.probe(&a).unwrap();
        assert!(report.entailed);
        assert_eq!(report.critical_indices(), vec![0, 1]);
        // Answers are stable across repeated questions (assumptions are
        // fully retracted between checks).
        assert_eq!(theory.step_is_deductive(g1), Some(true));
        assert_eq!(theory.root_entailed(), Some(true));
    }

    #[test]
    fn step_literals_align_with_step_children() {
        let a = deductive_case();
        let mut theory = ArgumentTheory::compile(&a);
        // Steps reach through the unformalised strategy: the compiled
        // step parents g1 directly onto g2/g3.
        let g1 = a.node_idx(&"g1".into()).unwrap();
        let (parent_lit, child_lits) = theory.step_lits(g1).expect("g1 is a compiled step");
        let children = theory.step_children(g1).expect("g1 is a compiled step");
        assert_eq!(child_lits.len(), 2);
        assert_eq!(children.len(), child_lits.len());
        let ids: Vec<&str> = children.iter().map(|c| a.id_at(*c).as_str()).collect();
        assert_eq!(ids, vec!["g2", "g3"]);
        // The step literals answer the same entailment question as the
        // step API: premises assumed, parent denied, must be UNSAT.
        let assumptions: Vec<_> = child_lits.iter().copied().chain([!parent_lit]).collect();
        assert!(!theory.theory_mut().check_under(assumptions));
        // Leaves compile no step.
        let g2 = a.node_idx(&"g2".into()).unwrap();
        assert!(theory.step_lits(g2).is_none());
        assert!(theory.step_children(g2).is_none());
    }

    #[test]
    fn free_premise_indices_match_compiled_theory() {
        let a = deductive_case();
        let theory = ArgumentTheory::compile(&a);
        assert_eq!(formal_premise_indices(&a), theory.premise_indices());
        assert_eq!(formal_conclusion_index(&a), theory.conclusion_index());
        // And on an argument with no formal payloads at all.
        let informal = Argument::builder("informal")
            .add("g1", NodeKind::Goal, "Safe")
            .add("e1", NodeKind::Solution, "Tests")
            .supported_by("g1", "e1")
            .build()
            .unwrap();
        assert!(formal_premise_indices(&informal).is_empty());
        assert_eq!(formal_conclusion_index(&informal), None);
    }

    #[test]
    fn non_deductive_step_detected() {
        // The paper's §V-B example: code_reviewed & unit_tests_passed does
        // NOT entail meets_deadlines, however confidently asserted.
        let a = Argument::builder("wrong-reasons")
            .node(
                Node::new("g1", NodeKind::Goal, "deadlines met")
                    .with_formal(payload("meets_deadlines")),
            )
            .node(
                Node::new("g2", NodeKind::Goal, "quality signals")
                    .with_formal(payload("code_reviewed & unit_tests_passed")),
            )
            .add("e1", NodeKind::Solution, "review minutes")
            .supported_by("g1", "g2")
            .supported_by("g2", "e1")
            .build()
            .unwrap();
        assert_eq!(step_is_deductive(&a, &"g1".into()), Some(false));
        assert_eq!(non_deductive_steps(&a), vec![NodeId::new("g1")]);
    }

    #[test]
    fn unformalised_steps_not_checkable() {
        let a = Argument::builder("informal")
            .add("g1", NodeKind::Goal, "Safe")
            .add("e1", NodeKind::Solution, "Tests")
            .supported_by("g1", "e1")
            .build()
            .unwrap();
        assert_eq!(step_is_deductive(&a, &"g1".into()), None);
        assert!(non_deductive_steps(&a).is_empty());
        assert!(probe_argument(&a).is_none());
    }

    #[test]
    fn probe_argument_finds_idle_premise() {
        // Root q; leaves: p, p -> q, and an irrelevant premise r.
        let a = Argument::builder("probe")
            .node(Node::new("g1", NodeKind::Goal, "q").with_formal(payload("q")))
            .node(Node::new("g2", NodeKind::Goal, "p").with_formal(payload("p")))
            .node(Node::new("g3", NodeKind::Goal, "rule").with_formal(payload("p -> q")))
            .node(Node::new("g4", NodeKind::Goal, "red herring").with_formal(payload("r")))
            .add("e1", NodeKind::Solution, "a")
            .add("e2", NodeKind::Solution, "b")
            .add("e3", NodeKind::Solution, "c")
            .supported_by("g1", "g2")
            .supported_by("g1", "g3")
            .supported_by("g1", "g4")
            .supported_by("g2", "e1")
            .supported_by("g3", "e2")
            .supported_by("g4", "e3")
            .build()
            .unwrap();
        let report = probe_argument(&a).unwrap();
        assert!(report.entailed);
        // Premises are ordered by node id: g2 (p), g3 (p->q), g4 (r).
        assert_eq!(report.idle_indices(), vec![2]);
        assert_eq!(report.critical_indices(), vec![0, 1]);
    }

    #[test]
    fn formal_premise_with_formalised_ancestor_not_a_leaf() {
        let a = deductive_case();
        // g1 has formalised support (g2, g3 via s1), so its payload is a
        // conclusion, not a premise.
        let premises = formal_premises(&a);
        let q = parse("q").unwrap();
        assert!(!premises.iter().any(|p| **p == q));
    }

    #[test]
    fn cloned_theory_sessions_are_independent_and_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArgumentTheory>();
        let a = deductive_case();
        let compiled = ArgumentTheory::compile(&a);
        // Two sessions cloned from the same compilation answer
        // independently (each carries its own assumption trail).
        let mut s1 = compiled.clone();
        let mut s2 = compiled;
        assert_eq!(s1.root_entailed(), Some(true));
        assert_eq!(s2.root_entailed(), Some(true));
        assert_eq!(s1.probe(&a).unwrap().critical_indices(), vec![0, 1]);
    }

    #[test]
    fn temporal_payloads_are_skipped_by_propositional_checks() {
        use casekit_logic::ltl::parse_ltl;
        let a = Argument::builder("ltl")
            .node(
                Node::new("g1", NodeKind::Goal, "always ok")
                    .with_formal(FormalPayload::Temporal(parse_ltl("G ok").unwrap())),
            )
            .add("e1", NodeKind::Solution, "model check log")
            .supported_by("g1", "e1")
            .build()
            .unwrap();
        assert_eq!(step_is_deductive(&a, &"g1".into()), None);
        assert!(formal_premises(&a).is_empty());
        assert!(formal_conclusion(&a).is_none());
    }

    #[test]
    fn recompile_with_empty_cache_matches_compile() {
        let a = deductive_case();
        let mut batch = ArgumentTheory::compile(&a);
        let mut cache = PayloadCache::default();
        let (mut inc, stats) = ArgumentTheory::recompile(&a, Theory::new(), &mut cache);
        // Same tables, same literal numbering, same verdicts.
        assert_eq!(inc.premise_indices(), batch.premise_indices());
        assert_eq!(inc.step_indices(), batch.step_indices());
        assert_eq!(inc.conclusion_index(), batch.conclusion_index());
        assert_eq!(inc.premise_lits(), batch.premise_lits());
        assert_eq!(inc.conclusion_lit(), batch.conclusion_lit());
        assert_eq!(inc.root_entailed(), batch.root_entailed());
        assert_eq!(
            inc.non_deductive_step_indices(),
            batch.non_deductive_step_indices()
        );
        assert_eq!(stats.fresh_payloads, 3);
        assert_eq!(stats.reused_payloads, 0);
        assert_eq!(stats.garbage_cost, 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn recompile_reuses_unchanged_payloads_and_tracks_garbage() {
        let mut a = deductive_case();
        let mut cache = PayloadCache::default();
        let (mut inc, _) = ArgumentTheory::recompile(&a, Theory::new(), &mut cache);
        assert_eq!(inc.root_entailed(), Some(true));
        // Break the rule premise: g2 now says p -> r, so q is no longer
        // entailed.
        a.node_mut(&"g2".into()).unwrap().formal = Some(payload("p -> r"));
        let (mut inc, stats) = ArgumentTheory::recompile(&a, inc.into_theory(), &mut cache);
        assert_eq!(stats.reused_payloads, 2);
        assert_eq!(stats.fresh_payloads, 1);
        assert!(stats.garbage_cost > 0, "replaced payload leaves garbage");
        assert_eq!(inc.root_entailed(), Some(false));
        // Restore it; the verdict round-trips on the same session.
        a.node_mut(&"g2".into()).unwrap().formal = Some(payload("p -> q"));
        let (mut inc, stats) = ArgumentTheory::recompile(&a, inc.into_theory(), &mut cache);
        assert_eq!(stats.fresh_payloads, 1);
        assert_eq!(inc.root_entailed(), Some(true));
        assert_eq!(
            inc.probe(&a).unwrap().critical_indices(),
            ArgumentTheory::compile(&a)
                .probe(&a)
                .unwrap()
                .critical_indices()
        );
    }

    #[test]
    fn recompile_retires_payloads_of_removed_nodes() {
        let a = deductive_case();
        let mut cache = PayloadCache::default();
        let (inc, _) = ArgumentTheory::recompile(&a, Theory::new(), &mut cache);
        let live_before = cache.live_cost();
        // Rebuild the argument without g2/e1 (the `p -> q` rule — a
        // compound payload, so retiring it strands Tseitin variables).
        let nodes: Vec<Node> = a
            .arena()
            .iter()
            .filter(|n| n.id != "g2".into() && n.id != "e1".into())
            .cloned()
            .collect();
        let edges: Vec<_> = a
            .edges()
            .iter()
            .filter(|e| e.from != "g2".into() && e.to != "g2".into() && e.to != "e1".into())
            .cloned()
            .collect();
        let shrunk = Argument::from_parts("mp", nodes, edges).unwrap();
        let (mut inc, stats) = ArgumentTheory::recompile(&shrunk, inc.into_theory(), &mut cache);
        assert_eq!(stats.retired_payloads, 1);
        assert!(cache.garbage_cost() > 0);
        assert!(cache.live_cost() < live_before);
        assert_eq!(cache.len(), 2);
        // Without the rule, modus ponens no longer closes.
        assert_eq!(inc.root_entailed(), Some(false));
    }

    #[test]
    fn affected_step_parents_climbs_through_unformalised_strategies_only() {
        let a = deductive_case();
        let g3 = a.node_idx(&"g3".into()).unwrap();
        let s1 = a.node_idx(&"s1".into()).unwrap();
        let g1 = a.node_idx(&"g1".into()).unwrap();
        // Touching the `p` premise reaches g1's step through the
        // transparent strategy s1.
        let affected = affected_step_parents(&a, [g3]);
        assert_eq!(affected, BTreeSet::from([g3, s1, g1]));
        // A formalised parent stops the climb: stack another goal above
        // g1 and confirm a g3 edit never reaches it.
        let mut nodes: Vec<Node> = a.arena().to_vec();
        nodes.push(Node::new("g0", NodeKind::Goal, "top").with_formal(payload("q | z")));
        let mut edges: Vec<_> = a.edges().to_vec();
        edges.push(crate::argument::Edge {
            from: "g0".into(),
            to: "g1".into(),
            kind: EdgeKind::SupportedBy,
        });
        let tall = Argument::from_parts("tall", nodes, edges).unwrap();
        let g3t = tall.node_idx(&"g3".into()).unwrap();
        let g0t = tall.node_idx(&"g0".into()).unwrap();
        let affected = affected_step_parents(&tall, [g3t]);
        assert!(affected.contains(&tall.node_idx(&"g1".into()).unwrap()));
        assert!(!affected.contains(&g0t), "formalised parents stop the walk");
    }
}
