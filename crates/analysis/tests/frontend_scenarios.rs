//! Frontend requirements written as WHEN/THEN scenarios.
//!
//! Each test states its scenario in its doc comment and checks it
//! through `check_source`, the path `caselint` and the service take.
//!
//! The nesting scenarios run on a thread with a 2 MiB stack, the
//! default for spawned threads and so for runtime workers. They go on
//! past parsing: the lint passes (Tseitin compilation and solving),
//! diagnostic rendering with excerpts, DSL rendering of what survived,
//! and drop all walk what the parsers accepted. Input nested at
//! [`MAX_NESTING`] must make it through all of them; one level deeper
//! must be a `CK206` diagnostic, never a stack overflow.

use casekit_analysis::{check_source, excerpt, LintCode, LintConfig};
use casekit_core::dsl::render_dsl;
use casekit_logic::{LineIndex, Span, MAX_NESTING};

/// `(code, span)` of every diagnostic `check_source` raises on `src`.
fn codes(src: &str) -> Vec<(LintCode, Span)> {
    check_source(src, &LintConfig::new())
        .diagnostics
        .iter()
        .map(|d| (d.code, d.span.expect("source diagnostics carry spans")))
        .collect()
}

fn syntax_codes(found: &[(LintCode, Span)]) -> Vec<(LintCode, Span)> {
    found
        .iter()
        .copied()
        .filter(|(code, _)| (201..300).contains(&code.number()))
        .collect()
}

/// `check_source` plus everything downstream of it, on a 2 MiB stack:
/// every diagnostic rendered with its excerpt, the surviving argument
/// rendered back to DSL text, then all of it dropped.
fn end_to_end_on_small_stack(src: String) -> Vec<(LintCode, Span)> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let analysis = check_source(&src, &LintConfig::new());
            let index = LineIndex::new(&src);
            for d in &analysis.diagnostics {
                assert!(!d.located(&index).is_empty());
                assert!(excerpt(&src, &index, d.span.unwrap()).is_some());
            }
            if let Some(argument) = &analysis.argument {
                assert!(render_dsl(argument).starts_with("argument"));
            }
            analysis
                .diagnostics
                .iter()
                .map(|d| (d.code, d.span.unwrap()))
                .collect()
        })
        .expect("spawn")
        .join()
        .expect("the pipeline completes on a 2 MiB stack")
}

// ---------------------------------------------------------------------
// Payload span anchoring

/// WHEN a closed `formal` payload contains an escape (`"\" p"`)
/// THEN its CK204 blames the whole literal, since content offsets no
/// longer line up with the source.
#[test]
fn closed_escaped_payload_blames_the_whole_literal() {
    let src = r#"argument "x" { goal g1 "t" formal "\" p" }"#;
    let literal = src.find(r#""\" p""#).unwrap();
    assert_eq!(
        syntax_codes(&codes(src)),
        vec![(
            LintCode::MalformedPayload,
            Span::new(literal, literal + r#""\" p""#.len())
        )]
    );
}

/// WHEN the same payload is unterminated at end of input (`"\" p`)
/// THEN its CK204 still blames the whole literal, from the opening
/// quote to end of input, and not the `\` after the quote.
#[test]
fn unterminated_escaped_payload_blames_the_whole_literal() {
    let src = r#"argument "x" { goal g1 "t" formal "\" p"#;
    let literal = src.find(r#""\" p"#).unwrap();
    assert_eq!(literal, 34);
    let found = codes(src);
    let payload: Vec<Span> = found
        .iter()
        .filter(|(code, _)| *code == LintCode::MalformedPayload)
        .map(|&(_, span)| span)
        .collect();
    assert_eq!(payload, vec![Span::new(literal, src.len())]);
    assert!(found
        .iter()
        .any(|&(code, _)| code == LintCode::UnterminatedString));
}

/// WHEN a closed payload has no escape
/// THEN its CK204 lands inside the literal, on the offending character.
#[test]
fn plain_payload_error_is_exact() {
    let src = r#"argument "x" { goal g1 "t" formal "p @ q" }"#;
    let at = src.find('@').unwrap();
    assert_eq!(
        syntax_codes(&codes(src)),
        vec![(LintCode::MalformedPayload, Span::new(at, at + 1))]
    );
}

// ---------------------------------------------------------------------
// Non-ASCII source text

/// WHEN a multi-byte symbol no token starts with sits between two nodes
/// THEN a CK201 spans exactly its bytes and both nodes survive.
#[test]
fn stray_multibyte_char_is_a_ck201_on_its_char_boundary() {
    let src = "argument \"x\" {\n  goal g1 \"top\" { solution e1 \"s\" }\n  ☃\n  goal g2 \"u\" { solution e2 \"s\" }\n}\n";
    let at = src.find('☃').unwrap();
    let analysis = check_source(src, &LintConfig::new());
    let syntax: Vec<(LintCode, Span, &str)> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.code.number() > 200)
        .map(|d| (d.code, d.span.unwrap(), d.message.as_str()))
        .collect();
    assert_eq!(
        syntax,
        vec![(
            LintCode::SyntaxGeneral,
            Span::new(at, at + '☃'.len_utf8()),
            "unexpected character `☃`"
        )]
    );
    assert_eq!(analysis.argument.unwrap().len(), 4);
}

/// WHEN ids are non-ASCII letters and tokens are separated by
/// non-ASCII whitespace (U+00A0, U+2028)
/// THEN the file parses clean.
#[test]
fn unicode_ids_and_whitespace_parse_clean() {
    let src = "argument \"ü\" {\u{A0}goal é \"top\"\u{2028}{ solution α_1 \"s\" } }";
    let analysis = check_source(src, &LintConfig::new());
    assert!(syntax_codes(&codes(src)).is_empty(), "{analysis:?}");
    let argument = analysis.argument.unwrap();
    assert!(argument.node(&"é".into()).is_some());
    assert!(argument.node(&"α_1".into()).is_some());
}

// ---------------------------------------------------------------------
// Bounded nesting

/// A file whose blocks nest `levels` deep, the argument's own counted:
/// a chain of goals ending in a solution.
fn nested_blocks(levels: usize, innermost: &str) -> String {
    let mut src = String::from("argument \"deep\" {\n");
    for i in 1..levels {
        src.push_str(&format!("goal g{i} \"level {i}\" {{\n"));
    }
    src.push_str(innermost);
    src.push('\n');
    src.push_str(&"}\n".repeat(levels));
    src
}

/// One goal carrying `payload` as a `formal` or `temporal` formula.
fn with_payload(which: &str, payload: &str) -> String {
    format!(
        "argument \"payload\" {{\n  goal g1 \"formalised\" {which} \"{payload}\" {{\n    solution e1 \"s\"\n  }}\n}}\n"
    )
}

fn parens(levels: usize, atom: &str) -> String {
    format!("{}{atom}{}", "(".repeat(levels), ")".repeat(levels))
}

/// Asserts `src` clears the pipeline on a small stack with no syntax
/// diagnostic.
fn accepted(src: String) {
    let found = end_to_end_on_small_stack(src);
    assert!(syntax_codes(&found).is_empty(), "{found:?}");
}

/// Asserts `src` clears the pipeline on a small stack with exactly one
/// syntax diagnostic, a CK206 starting at byte `at`.
fn refused_at(src: String, at: usize) {
    let found = end_to_end_on_small_stack(src);
    let syntax = syntax_codes(&found);
    assert_eq!(syntax.len(), 1, "{syntax:?}");
    assert_eq!(syntax[0].0, LintCode::NestingTooDeep);
    assert_eq!(syntax[0].1.start, at);
}

/// WHEN blocks nest exactly `MAX_NESTING` deep
/// THEN the file parses clean and the whole pipeline completes.
/// WHEN they nest one level deeper
/// THEN CK206 is raised at the `{` that opens the extra level, and the
/// rest of the file is still parsed and linted.
#[test]
fn block_nesting_at_and_past_the_limit() {
    accepted(nested_blocks(MAX_NESTING, "solution e \"s\""));
    let src = nested_blocks(MAX_NESTING + 1, "solution e \"s\"");
    let last_goal = src.find(&format!("goal g{MAX_NESTING} ")).unwrap();
    let brace = last_goal + src[last_goal..].find('{').unwrap();
    refused_at(src, brace);
}

/// WHEN a `formal` payload nests parentheses, `~`, or right-nested
/// `->` exactly `MAX_NESTING` deep
/// THEN it parses, compiles and renders on a 2 MiB stack.
/// WHEN any of them nests one level deeper
/// THEN CK206 points inside the payload at the operator that opens the
/// extra level.
#[test]
fn prop_payload_nesting_at_and_past_the_limit() {
    let n = MAX_NESTING;
    let nots = |n: usize| format!("{}p", "~".repeat(n));
    let arrows = |n: usize| format!("{}p", "p -> ".repeat(n));
    // Each case: the formula at the limit, one level deeper, and where
    // in the deeper payload the operator opening the extra level sits.
    for (at_limit, past_limit, opener) in [
        (parens(n, "p"), parens(n + 1, "p"), n),
        (nots(n), nots(n + 1), n),
        (arrows(n), arrows(n + 1), 5 * n + 2),
    ] {
        accepted(with_payload("formal", &at_limit));
        let src = with_payload("formal", &past_limit);
        let payload = src.find("formal \"").unwrap() + "formal \"".len();
        refused_at(src, payload + opener);
    }
}

/// WHEN a `temporal` payload nests parentheses or prefix operators
/// (`G`, `~X`) exactly `MAX_NESTING` deep
/// THEN it parses and renders on a 2 MiB stack.
/// WHEN one level deeper
/// THEN CK206 points inside the payload.
#[test]
fn ltl_payload_nesting_at_and_past_the_limit() {
    let cases: [fn(usize) -> String; 3] = [
        |n| parens(n, "p"),
        |n| format!("{}p", "G ".repeat(n)),
        |n| format!("{}p", "~X ".repeat(n / 2) + &"G ".repeat(n % 2)),
    ];
    for formula in cases {
        accepted(with_payload("temporal", &formula(MAX_NESTING)));
        let src = with_payload("temporal", &formula(MAX_NESTING + 1));
        let found = end_to_end_on_small_stack(src.clone());
        let syntax = syntax_codes(&found);
        assert_eq!(syntax.len(), 1, "{syntax:?}");
        assert_eq!(syntax[0].0, LintCode::NestingTooDeep);
        let payload = src.find("temporal \"").unwrap() + "temporal \"".len();
        assert!(syntax[0].1.start > payload, "{syntax:?}");
    }
}

/// WHEN blocks nest `MAX_NESTING` deep and the innermost node's payload
/// nests `MAX_NESTING` deep as well, by parentheses, prefix operators
/// or an `->` chain (the deepest recursion the frontend accepts)
/// THEN the whole pipeline still completes on a 2 MiB stack.
#[test]
fn deepest_accepted_input_clears_the_pipeline() {
    let n = MAX_NESTING;
    for (which, formula) in [
        ("formal", parens(n, "p")),
        ("formal", format!("{}p", "~".repeat(n))),
        ("formal", format!("{}p", "p -> ".repeat(n))),
        ("temporal", parens(n, "p")),
        ("temporal", format!("{}p", "G ".repeat(n))),
        ("temporal", format!("{}p", "p -> ".repeat(n))),
    ] {
        let innermost =
            format!("goal inner \"deepest\" {which} \"{formula}\" {{ solution e \"s\" }}");
        accepted(nested_blocks(MAX_NESTING - 1, &innermost));
    }
}
