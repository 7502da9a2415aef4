//! The service's wire types: edit operations, traffic ops, errors, and
//! the batched answer bundle.

use casekit_analysis::Diagnostic;
use casekit_core::{ArgumentError, Node, NodeId};
use casekit_fallacies::checker::MachineReport;
use casekit_logic::probe::ProbeReport;
use casekit_logic::prop::Formula;
use std::fmt;

/// One edit to a live case.
///
/// Formula and structural edits dirty the affected support steps and
/// invalidate the logical answer caches; [`SetText`](EditOp::SetText)
/// touches no formal content and invalidates only the lint stream.
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// Replace (or install) the propositional payload of a node. This
    /// is `set_premise` when aimed at a formal leaf and
    /// `replace_formula` anywhere else — the dirty-set machinery makes
    /// no distinction.
    ReplaceFormula {
        /// The node whose payload changes.
        node: NodeId,
        /// The new propositional reading.
        formula: Formula,
    },
    /// Replace a node's natural-language statement (text plane only).
    SetText {
        /// The node whose text changes.
        node: NodeId,
        /// The new statement.
        text: String,
    },
    /// Add a new node supporting `parent` (a `SupportedBy` edge).
    AddSupport {
        /// The existing parent to support.
        parent: NodeId,
        /// The new supporting node.
        node: Node,
    },
    /// Remove a node and every edge incident to it. Children formerly
    /// reached only through it become unreachable — which the lint
    /// stream reports, exactly as a batch run would.
    RemoveNode {
        /// The node to remove.
        node: NodeId,
    },
}

/// One element of a per-case traffic stream: apply an edit, or ask for
/// the batched answers.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseOp {
    /// Apply an edit.
    Edit(EditOp),
    /// Answer machine check + lint + probe against the current revision.
    Query,
}

/// Why an edit was rejected. The session is left on its previous
/// (valid) revision in every case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// No open case at this index.
    UnknownCase(usize),
    /// The referenced node does not exist in the current revision.
    UnknownNode(NodeId),
    /// The structural edit produced an invalid argument (duplicate id,
    /// unknown endpoint, self-loop, …).
    Rebuild(ArgumentError),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownCase(case) => write!(f, "no open case at index {case}"),
            EditError::UnknownNode(id) => write!(f, "no node `{id}` in the current revision"),
            EditError::Rebuild(err) => write!(f, "edit produces an invalid argument: {err}"),
        }
    }
}

impl std::error::Error for EditError {}

impl From<ArgumentError> for EditError {
    fn from(err: ArgumentError) -> Self {
        EditError::Rebuild(err)
    }
}

/// The premise probe at verdict level: which premises are load-bearing.
///
/// Incremental and batch sessions can surface *different* (equally
/// valid) counterexample valuations for a critical premise, so the
/// service answers with the classification — entailment plus the
/// critical/idle partition in premise order — which is the part the
/// solver's model choices cannot perturb. The classification needs no
/// model: a session answers it from satisfiability checks asked once
/// through its witness pool (the same questions as CK107 and CK104),
/// while [`batch_answers`](crate::batch_answers) converts a full
/// [`ProbeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeAnswer {
    /// Whether the full premise set entails the conclusion.
    pub entailed: bool,
    /// Premise positions (sorted-id order) whose removal breaks
    /// entailment.
    pub critical: Vec<usize>,
    /// Premise positions the conclusion survives without.
    pub idle: Vec<usize>,
}

impl From<&ProbeReport> for ProbeAnswer {
    fn from(report: &ProbeReport) -> Self {
        ProbeAnswer {
            entailed: report.entailed,
            critical: report.critical_indices(),
            idle: report.idle_indices(),
        }
    }
}

/// The batched multi-question answer for one case revision: everything
/// the toolkit can say about the argument, from one shared compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseAnswers {
    /// The mechanical check: per-step deduction, root entailment,
    /// formal fallacies.
    pub machine: MachineReport,
    /// The full CaseLint diagnostic stream, in canonical order.
    pub lint: Vec<Diagnostic>,
    /// The premise probe classification (`None` when the argument has
    /// no formal conclusion to probe).
    pub probe: Option<ProbeAnswer>,
}
