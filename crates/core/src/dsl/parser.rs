//! The recover-and-continue DSL parser.
//!
//! Where the retained seed parser ([`super::seed`]) returns at the first
//! problem, this parser records a diagnostic and *synchronizes*: it skips
//! to the next place the grammar could plausibly resume (a closing `}` at
//! the current nesting depth, the next node-kind keyword, a `ref`, or end
//! of input) and keeps going. One bad node costs that node, not the file.
//!
//! Recovery decisions, in grammar order:
//!
//! - **Header** (`argument "name" {`): each missing piece is reported
//!   and skipped independently; a missing *name* means no [`Argument`]
//!   can be produced, but the body is still parsed for diagnostics.
//! - **Unknown kind / missing identifier**: the node's remaining header
//!   and body are parsed (so nested problems still surface) but nothing
//!   is recorded — the subtree is *suppressed*.
//! - **Missing text / missing payload string**: reported; the node is
//!   kept with placeholder text so its children survive.
//! - **Bad `formal`/`temporal` payload**: reported as a node-anchored
//!   diagnostic located *inside* the quoted string; the node is kept
//!   without the payload.
//! - **Duplicate id**: reported at the re-declaration; the duplicate
//!   node is dropped but its children attach to the original.
//! - **Bad edges** (`ref` to an undeclared node, self-loops, repeated
//!   edges): reported at the `ref`; the edge is dropped. Matching the
//!   seed parser (and the builder), `ref` targets must already be
//!   declared — there are no forward references.
//!
//! - **Too deep**: a block opened more than [`MAX_NESTING`] levels deep
//!   (the argument's own `{` is the first) is reported at its `{` and
//!   skipped to its matching `}`; nothing inside it is recorded. The
//!   seed parser has no such limit, so on a file nested that deep the
//!   two parsers disagree by design.
//!
//! Each node and edge is validated once, as it is read, against exactly
//! the checks [`ArgumentBuilder`](crate::argument::ArgumentBuilder)
//! applies, and everything that survives is handed to the arena as is:
//! each id is allocated once and shared by its node, its edges and the
//! source map. A file with errors still yields a best-effort
//! [`Argument`] plus a sorted diagnostic stream.
//!
//! The parser reads the lexer's borrowed tokens by reference: the only
//! text it copies is what the argument keeps (the name, ids and node
//! texts).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use casekit_logic::{
    ltl::parse_ltl, prop, ParseError, Span, SyntaxError, SyntaxErrorKind, MAX_NESTING,
};

use super::lexer::{lex, Lexed, Tok};
use super::source_map::{NodeSpans, SourceMap};
use super::{edge_kind_for, kind_of, DslError, ParseOutcome};
use crate::argument::{Argument, Edge, NodeIdx};
use crate::node::{EdgeKind, FormalPayload, Node, NodeId};

/// Parses `input`, recovering at every error. See the module docs for
/// the recovery strategy.
pub(crate) fn parse(input: &str) -> ParseOutcome {
    let (toks, lex_errors) = lex(input);
    let open_string = lex_errors
        .iter()
        .find(|e| e.kind == SyntaxErrorKind::UnterminatedString)
        .map(|e| e.span.start);
    let mut p = Parser {
        toks: &toks,
        pos: 0,
        end: input.len(),
        open_string,
        depth: 0,
        errors: lex_errors
            .into_iter()
            .map(|error| DslError { error, node: None })
            .collect(),
        index: HashMap::new(),
        nodes: Vec::new(),
        edges: Vec::new(),
        endpoints: Vec::new(),
        edge_set: HashSet::new(),
        source_map: SourceMap::new(),
    };
    let name = p.header();
    // A file whose header already failed *and* ended needs no synthetic
    // "expected `}`" cascade; otherwise parse the body (even without a
    // name — the diagnostics are still real).
    if !(name.is_none() && p.pos >= p.toks.len()) {
        p.body(Parent::Top, p.here());
    }
    p.trailing();

    let argument = name.and_then(|name| {
        let built = Argument::from_validated(
            name,
            std::mem::take(&mut p.nodes),
            std::mem::take(&mut p.index),
            std::mem::take(&mut p.edges),
            std::mem::take(&mut p.endpoints),
        );
        match built {
            Ok(argument) => Some(argument),
            Err(e) => {
                // Only an index space overflow gets here; never let it
                // turn into a panic.
                p.push_err(
                    SyntaxError::with_kind(
                        SyntaxErrorKind::Structure,
                        e.to_string(),
                        Span::point(p.end),
                    ),
                    None,
                );
                None
            }
        }
    });

    let mut errors = p.errors;
    errors.sort_by(|a, b| {
        (a.error.span.start, a.error.span.end, &a.error.message).cmp(&(
            b.error.span.start,
            b.error.span.end,
            &b.error.message,
        ))
    });
    ParseOutcome {
        argument,
        source_map: p.source_map,
        errors,
    }
}

/// A string literal read from the token stream.
struct Literal<'t> {
    content: &'t str,
    span: Span,
    /// Whether `content` maps byte-for-byte onto the source after the
    /// opening quote: the literal is borrowed (has no escapes) and
    /// closed.
    verbatim: bool,
}

impl Literal<'_> {
    /// Maps a span inside the content to file coordinates: exact when
    /// the literal is verbatim, otherwise the whole literal is blamed.
    fn anchor(&self, inner: Span) -> Span {
        if self.verbatim && inner.start <= self.content.len() {
            let body = self.span.start + 1;
            Span::new(body + inner.start, (body + inner.end).min(self.span.end))
        } else {
            self.span
        }
    }
}

/// Where the nodes of a block attach.
#[derive(Debug, Clone, Copy)]
enum Parent {
    /// The argument's own block: nodes are roots and `ref` is an error.
    Top,
    /// The body of a recorded node.
    Node(NodeIdx),
    /// The body of a node that could not be recorded: parsed for
    /// diagnostics only.
    Suppressed,
}

/// The parser state. Tokens live for `'t` and borrow source text for
/// `'a`; every token read is a shared borrow of `toks`, never a copy.
struct Parser<'t, 'a> {
    toks: &'t [Lexed<'a>],
    pos: usize,
    end: usize,
    /// Where the unterminated string literal starts, if there is one.
    open_string: Option<usize>,
    /// Blocks open at the cursor, the argument's own included.
    depth: usize,
    errors: Vec<DslError>,
    index: HashMap<NodeId, NodeIdx>,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    endpoints: Vec<(NodeIdx, NodeIdx)>,
    edge_set: HashSet<(NodeIdx, NodeIdx, EdgeKind)>,
    source_map: SourceMap,
}

impl<'t, 'a> Parser<'t, 'a> {
    fn peek(&self) -> Option<&'t Tok<'a>> {
        self.toks.get(self.pos).map(|l| &l.tok)
    }

    fn here(&self) -> Span {
        self.toks
            .get(self.pos)
            .map(|l| l.span)
            .unwrap_or(Span::point(self.end))
    }

    fn next(&mut self) {
        self.pos = (self.pos + 1).min(self.toks.len());
    }

    /// Consumes the word at the cursor when it can name a node (not a
    /// kind keyword, not `ref`).
    fn identifier(&mut self) -> Option<(&'a str, Span)> {
        match self.peek() {
            Some(&Tok::Word(w)) if kind_of(w).is_none() && w != "ref" => {
                let span = self.here();
                self.next();
                Some((w, span))
            }
            _ => None,
        }
    }

    /// Consumes the string literal at the cursor, if there is one.
    fn string(&mut self) -> Option<Literal<'t>> {
        match self.peek() {
            Some(Tok::Str(content)) => {
                let span = self.here();
                self.next();
                Some(Literal {
                    content,
                    span,
                    verbatim: matches!(content, Cow::Borrowed(_))
                        && self.open_string != Some(span.start),
                })
            }
            _ => None,
        }
    }

    fn push_err(&mut self, error: ParseError, node: Option<NodeId>) {
        // EOF unwinding reports "expected `}`" once per open block at the
        // same point; collapse consecutive identical reports.
        if self.errors.last().is_some_and(|last| last.error == error) {
            return;
        }
        self.errors.push(DslError { error, node });
    }

    /// Reports "expected X, found Y" at the cursor without consuming, so
    /// the offending token can still be claimed by a later production.
    fn err_expected(&mut self, expected: &str) {
        let span = self.here();
        let found = self.peek().map(|t| t.describe());
        self.push_err(SyntaxError::expected_found(expected, found, span), None);
    }

    /// Skips tokens until the grammar can plausibly resume: a `}` at the
    /// current depth (left for the caller), the next kind keyword or
    /// `ref` at the current depth, or end of input.
    fn sync(&mut self) {
        let mut depth = 0usize;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::RBrace => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                Tok::LBrace => depth += 1,
                &Tok::Word(w) if depth == 0 && (kind_of(w).is_some() || w == "ref") => return,
                _ => {}
            }
            self.next();
        }
    }

    /// Parses `argument "name" {`, recovering each piece independently.
    /// Returns the name when one was present.
    fn header(&mut self) -> Option<String> {
        match self.peek() {
            Some(Tok::Word("argument")) => self.next(),
            Some(Tok::Word(_)) => {
                self.err_expected("`argument`");
                self.next();
            }
            _ => self.err_expected("`argument`"),
        }
        let name = match self.string() {
            Some(name) => {
                self.source_map.name = Some(name.span);
                Some(name.content.to_string())
            }
            None => {
                self.err_expected("argument name string");
                None
            }
        };
        match self.peek() {
            Some(Tok::LBrace) => self.next(),
            _ => self.err_expected("`{`"),
        }
        name
    }

    /// Parses a block body whose `{` (at `open`) was just consumed, one
    /// level deeper; past [`MAX_NESTING`] levels the body is reported and
    /// skipped, balanced, without recursing.
    fn body(&mut self, parent: Parent, open: Span) {
        if self.depth == MAX_NESTING {
            self.push_err(SyntaxError::nesting_too_deep(open), None);
            let mut inner = 0usize;
            while let Some(tok) = self.peek() {
                self.next();
                match tok {
                    Tok::LBrace => inner += 1,
                    Tok::RBrace if inner == 0 => return,
                    Tok::RBrace => inner -= 1,
                    _ => {}
                }
            }
            return;
        }
        self.depth += 1;
        self.node_list(parent);
        self.depth -= 1;
    }

    /// Parses nodes/refs until the matching `}` (consumed) or end of
    /// input (reported).
    fn node_list(&mut self, parent: Parent) {
        loop {
            match self.peek() {
                None => {
                    self.err_expected("`}`");
                    return;
                }
                Some(Tok::RBrace) => {
                    self.next();
                    return;
                }
                Some(Tok::Word("ref")) => self.reference(parent),
                Some(Tok::Word(_)) => self.node(parent),
                Some(_) => {
                    self.err_expected("a node kind");
                    self.sync();
                }
            }
        }
    }

    /// Parses `ref IDENT`, validating the edge at the reference site
    /// (matching the seed parser's no-forward-reference semantics).
    fn reference(&mut self, parent: Parent) {
        let kw_span = self.here();
        self.next(); // `ref`
        let Some((target, target_span)) = self.identifier() else {
            self.err_expected("a node identifier");
            return;
        };
        match parent {
            Parent::Top => self.push_err(
                SyntaxError::with_kind(
                    SyntaxErrorKind::Structure,
                    "`ref` is only allowed inside a node body",
                    kw_span,
                )
                .with_hint("nest `ref` under the node it supports"),
                None,
            ),
            // Edge kind depends on the *referenced* node's kind, which
            // may not be known yet; we default to SupportedBy — a ref
            // to a context node should use nesting instead.
            Parent::Node(from) => match self.index.get(target) {
                Some(&to) => self.add_edge(from, to, EdgeKind::SupportedBy, target_span),
                None => self.push_err(
                    SyntaxError::with_kind(
                        SyntaxErrorKind::Structure,
                        format!("unknown node `{target}`"),
                        target_span,
                    )
                    .with_hint("`ref` targets must be declared earlier in the file"),
                    None,
                ),
            },
            Parent::Suppressed => {}
        }
    }

    fn id(&self, idx: NodeIdx) -> &NodeId {
        &self.nodes[idx.index()].id
    }

    /// Validates and records one edge between declared nodes, reporting
    /// (and dropping) exactly the edges the
    /// [`ArgumentBuilder`](crate::argument::ArgumentBuilder) would refuse
    /// — so the arena never receives an invalid one.
    fn add_edge(&mut self, from: NodeIdx, to: NodeIdx, kind: EdgeKind, span: Span) {
        if from == to {
            let from = self.id(from).clone();
            self.push_err(
                SyntaxError::with_kind(
                    SyntaxErrorKind::Structure,
                    format!("self-loop on `{from}`"),
                    span,
                ),
                Some(from),
            );
            return;
        }
        let (from_id, to_id) = (self.id(from).clone(), self.id(to).clone());
        if !self.edge_set.insert((from, to, kind)) {
            self.push_err(
                SyntaxError::with_kind(
                    SyntaxErrorKind::Structure,
                    format!("duplicate edge `{from_id}` -> `{to_id}`"),
                    span,
                ),
                Some(to_id),
            );
            return;
        }
        self.edges.push(Edge {
            from: from_id,
            to: to_id,
            kind,
        });
        self.endpoints.push((from, to));
    }

    /// Parses one node declaration (and its body).
    fn node(&mut self, parent: Parent) {
        let kw_span = self.here();
        let Some(&Tok::Word(kind_word)) = self.peek() else {
            unreachable!("caller peeked a word")
        };
        self.next();
        let kind = kind_of(kind_word);
        if kind.is_none() {
            let mut e = SyntaxError::with_kind(
                SyntaxErrorKind::UnknownKeyword,
                format!("unknown node kind `{kind_word}`"),
                kw_span,
            );
            if let Some(suggestion) = nearest_kind(kind_word) {
                e = e.with_hint(format!("did you mean `{suggestion}`?"));
            }
            self.push_err(e, None);
        }

        let (id, id_span) = match self.identifier() {
            Some((w, span)) => (Some(w), span),
            None => {
                self.err_expected("a node identifier");
                (None, self.here())
            }
        };

        // A node we can't name or kind can't be recorded; keep parsing
        // its remainder (and body) for diagnostics only.
        let suppress = matches!(parent, Parent::Suppressed) || kind.is_none() || id.is_none();
        let id = id.unwrap_or("");
        // The node this declaration names: the original for a duplicate
        // (its children attach there), `None` for a new or suppressed one.
        let existing = if suppress {
            None
        } else {
            self.index.get(id).copied()
        };
        // The id is allocated once, here, and shared by the node, its
        // edges, the source map and the diagnostics about it.
        let node_id = match existing {
            Some(original) => self.id(original).clone(),
            None => NodeId::new(id),
        };
        if existing.is_some() {
            self.push_err(
                SyntaxError::with_kind(
                    SyntaxErrorKind::Structure,
                    format!("duplicate node id `{node_id}`"),
                    id_span,
                )
                .with_hint("rename one of the declarations, or use `ref` to share a node"),
                Some(node_id.clone()),
            );
        }

        let (text, text_span) = match self.string() {
            Some(text) => (Some(text.content), text.span),
            None => {
                self.err_expected("node text string");
                (None, Span::point(self.here().start))
            }
        };

        let mut formal: Option<FormalPayload> = None;
        let mut undeveloped = false;
        let mut payload_span: Option<Span> = None;
        let mut header_end = text_span.end.max(id_span.end).max(kw_span.end);
        loop {
            let which = match self.peek() {
                Some(Tok::Word(w @ ("formal" | "temporal"))) => *w,
                Some(Tok::Word("undeveloped")) => {
                    header_end = header_end.max(self.here().end);
                    self.next();
                    undeveloped = true;
                    continue;
                }
                _ => break,
            };
            self.next();
            let what = if which == "formal" {
                "formula string"
            } else {
                "LTL formula string"
            };
            let Some(literal) = self.string() else {
                self.err_expected(what);
                continue;
            };
            payload_span = Some(literal.span);
            header_end = header_end.max(literal.span.end);
            let parsed = if which == "formal" {
                prop::parse(literal.content).map(FormalPayload::Prop)
            } else {
                parse_ltl(literal.content).map(FormalPayload::Temporal)
            };
            match parsed {
                Ok(payload) => formal = Some(payload),
                Err(e) => self.payload_error(which, &node_id, &literal, &e),
            }
        }

        let children = if let Some(original) = existing {
            Parent::Node(original)
        } else if let (false, Some(kind)) = (suppress, kind) {
            let idx = NodeIdx::new(self.nodes.len());
            let text = text.map_or_else(String::new, |t| t.to_string());
            let mut node = Node::new(node_id.clone(), kind, text);
            node.formal = formal;
            node.undeveloped = undeveloped;
            self.index.insert(node_id.clone(), idx);
            self.source_map.record(
                node_id,
                NodeSpans {
                    keyword: kw_span,
                    id: id_span,
                    text: text_span,
                    payload: payload_span,
                    header: Span::new(kw_span.start, header_end),
                },
            );
            self.nodes.push(node);
            if let Parent::Node(from) = parent {
                self.add_edge(from, idx, edge_kind_for(kind), id_span);
            }
            Parent::Node(idx)
        } else {
            Parent::Suppressed
        };

        if matches!(self.peek(), Some(Tok::LBrace)) {
            let open = self.here();
            self.next();
            // Children of a duplicate declaration attach to the original
            // node (same id); children of a suppressed subtree are parsed
            // for diagnostics only.
            self.body(children, open);
        }
    }

    /// Reports an embedded formula error, re-anchored from the payload's
    /// own coordinates into the enclosing file. Too-deep nesting keeps
    /// its own kind; every other payload error is a bad payload.
    fn payload_error(&mut self, which: &str, node: &NodeId, literal: &Literal<'_>, e: &ParseError) {
        let span = literal.anchor(e.span);
        let kind = match e.kind {
            SyntaxErrorKind::NestingTooDeep => SyntaxErrorKind::NestingTooDeep,
            _ => SyntaxErrorKind::BadPayload,
        };
        self.push_err(
            SyntaxError::with_kind(
                kind,
                format!("in {which} payload of `{node}`: {}", e.message),
                span,
            ),
            Some(node.clone()),
        );
    }

    /// Reports anything left after the argument's closing `}`.
    fn trailing(&mut self) {
        if let Some(extra) = self.toks.get(self.pos) {
            self.push_err(
                SyntaxError::with_kind(
                    SyntaxErrorKind::TrailingInput,
                    "unexpected trailing input",
                    extra.span,
                ),
                None,
            );
        }
    }
}

/// The closest node-kind keyword within edit distance 2, for "did you
/// mean" hints on unknown kinds.
fn nearest_kind(word: &str) -> Option<&'static str> {
    const KINDS: [&str; 9] = [
        "goal",
        "strategy",
        "solution",
        "context",
        "assumption",
        "justification",
        "claim",
        "argnode",
        "evidence",
    ];
    KINDS
        .iter()
        .map(|k| (edit_distance(word, k), *k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, k)| (d, k))
        .map(|(_, k)| k)
}

/// Levenshtein distance, two-row DP.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("goal", "goal"), 0);
        assert_eq!(edit_distance("gaol", "goal"), 2);
        assert_eq!(edit_distance("", "goal"), 4);
        assert_eq!(edit_distance("claim", "clam"), 1);
    }

    #[test]
    fn nearest_kind_suggests_and_gives_up() {
        assert_eq!(nearest_kind("gaol"), Some("goal"));
        assert_eq!(nearest_kind("strateg"), Some("strategy"));
        assert_eq!(nearest_kind("widget"), None);
    }
}
