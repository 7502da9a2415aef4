//! Error-tolerant lexer for the `.case` DSL.
//!
//! Unlike the retained seed lexer (see [`super::seed`]), this lexer never
//! aborts: characters no token can start with and unterminated string
//! literals are reported as [`ParseError`]s and skipped (an unterminated
//! string still yields its partial content as a token), so the parser
//! always receives the full token stream.
//!
//! It scans bytes, with a fast path for ASCII and a `char` fallback for
//! the non-ASCII whitespace, letters and stray symbols a byte cannot
//! classify. Tokens borrow their text from the source (see [`Tok`]), so
//! corpus ingestion lexes each file with no per-file scratch allocations
//! beyond the token vector itself; only a string literal with escapes
//! owns its unescaped content.

use std::borrow::Cow;

use casekit_logic::{ParseError, Span, SyntaxError, SyntaxErrorKind};

/// A DSL token, borrowing its text from the lexed source.
///
/// `Word` is always a slice of the source. `Str` holds the literal's
/// content without its quotes: [`Cow::Borrowed`] (a slice of the source
/// between the quotes) unless the literal contains a `\"` or `\\`
/// escape, in which case it is [`Cow::Owned`] and unescaped. A borrowed
/// `Str` therefore maps byte-for-byte onto the source after its opening
/// quote.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok<'a> {
    /// A bare word: a kind keyword, modifier, `ref`, or identifier.
    Word(&'a str),
    /// A quoted string literal (content, unescaped).
    Str(Cow<'a, str>),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
}

impl Tok<'_> {
    /// How the token reads in an "expected X, found Y" message.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Word(w) => format!("`{w}`"),
            Tok::Str(_) => "a string".to_string(),
            Tok::LBrace => "`{`".to_string(),
            Tok::RBrace => "`}`".to_string(),
        }
    }
}

/// A token plus the byte range of source text it came from.
#[derive(Debug, Clone)]
pub(crate) struct Lexed<'a> {
    pub(crate) tok: Tok<'a>,
    pub(crate) span: Span,
}

/// Whether `b` can continue (or start) a word. Non-ASCII bytes defer to
/// [`char::is_alphanumeric`] on the decoded char.
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `input` to the end, collecting errors instead of stopping.
///
/// Every byte is either consumed by a token, skipped as
/// whitespace/comment, or skipped with an error — so the parser behind
/// this lexer sees everything the author wrote.
pub(crate) fn lex(input: &str) -> (Vec<Lexed<'_>>, Vec<ParseError>) {
    let bytes = input.as_bytes();
    // `.case` text runs about 10–20 bytes per token: reserve one slot
    // per 16 bytes, so most files lex without regrowing the vector.
    let mut toks = Vec::with_capacity(input.len() / 16);
    let mut errors = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t'..=b'\r' => i += 1,
            b'#' => i = line_end(bytes, i),
            b'/' if bytes.get(i + 1) == Some(&b'/') => i = line_end(bytes, i),
            b'{' | b'}' => {
                let tok = if b == b'{' { Tok::LBrace } else { Tok::RBrace };
                toks.push(Lexed {
                    tok,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            b'"' => {
                let (lexed, closed) = string(input, i);
                if !closed {
                    errors.push(
                        SyntaxError::with_kind(
                            SyntaxErrorKind::UnterminatedString,
                            "unterminated string literal",
                            Span::new(i, input.len()),
                        )
                        .with_hint("add a closing `\"`"),
                    );
                }
                i = lexed.span.end;
                toks.push(lexed);
            }
            _ if is_word_byte(b) => i = word(input, i, &mut toks),
            _ if b.is_ascii() => {
                errors.push(unexpected(char::from(b), i));
                i += 1;
            }
            _ => {
                let c = input[i..].chars().next().expect("i is a char boundary");
                if c.is_whitespace() {
                    i += c.len_utf8();
                } else if c.is_alphanumeric() {
                    i = word(input, i, &mut toks);
                } else {
                    errors.push(unexpected(c, i));
                    i += c.len_utf8();
                }
            }
        }
    }
    (toks, errors)
}

/// The offset of the `\n` ending the comment at `start` (or end of input).
fn line_end(bytes: &[u8], start: usize) -> usize {
    bytes[start..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |n| start + n)
}

/// The error for a character `c` at byte `at` that no token starts with.
fn unexpected(c: char, at: usize) -> ParseError {
    SyntaxError::with_kind(
        SyntaxErrorKind::UnexpectedChar,
        format!("unexpected character `{c}`"),
        Span::new(at, at + c.len_utf8()),
    )
}

/// Lexes the word starting at `start`, returning the offset after it.
fn word<'a>(input: &'a str, start: usize, toks: &mut Vec<Lexed<'a>>) -> usize {
    let bytes = input.as_bytes();
    let mut end = start;
    while end < bytes.len() {
        if is_word_byte(bytes[end]) {
            end += 1;
        } else if bytes[end].is_ascii() {
            break;
        } else {
            match input[end..].chars().next() {
                Some(c) if c.is_alphanumeric() => end += c.len_utf8(),
                _ => break,
            }
        }
    }
    toks.push(Lexed {
        tok: Tok::Word(&input[start..end]),
        span: Span::new(start, end),
    });
    end
}

/// Lexes the string literal whose opening quote is at `start`. Returns
/// the token (spanning to end of input when unterminated) and whether
/// the literal closed. A `\` before `"` or `\` escapes it; before
/// anything else it is kept literally (seed behavior).
fn string(input: &str, start: usize) -> (Lexed<'_>, bool) {
    let bytes = input.as_bytes();
    let body = start + 1;
    let mut owned: Option<String> = None;
    // Start of the content not yet copied into `owned`.
    let mut copied = body;
    let mut j = body;
    let (content_end, end, closed) = loop {
        match bytes[j..].iter().position(|&b| b == b'"' || b == b'\\') {
            None => break (bytes.len(), bytes.len(), false),
            Some(n) if bytes[j + n] == b'"' => break (j + n, j + n + 1, true),
            Some(n) => {
                let slash = j + n;
                if matches!(bytes.get(slash + 1), Some(b'"' | b'\\')) {
                    owned
                        .get_or_insert_with(String::new)
                        .push_str(&input[copied..slash]);
                    copied = slash + 1;
                    j = slash + 2;
                } else {
                    j = slash + 1;
                }
            }
        }
    };
    let content = match owned {
        Some(mut s) => {
            s.push_str(&input[copied..content_end]);
            Cow::Owned(s)
        }
        None => Cow::Borrowed(&input[body..content_end]),
    };
    let lexed = Lexed {
        tok: Tok::Str(content),
        span: Span::new(start, end),
    };
    (lexed, closed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<Tok<'_>> {
        let (toks, errors) = lex(src);
        assert!(errors.is_empty(), "unexpected lex errors: {errors:?}");
        toks.into_iter().map(|l| l.tok).collect()
    }

    #[test]
    fn lexes_the_four_token_kinds() {
        assert_eq!(
            words(r#"goal g1 "text" { }"#),
            vec![
                Tok::Word("goal"),
                Tok::Word("g1"),
                Tok::Str("text".into()),
                Tok::LBrace,
                Tok::RBrace,
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let (toks, _) = lex(r#"goal g1 "t""#);
        assert_eq!(toks[0].span, Span::new(0, 4));
        assert_eq!(toks[1].span, Span::new(5, 7));
        assert_eq!(toks[2].span, Span::new(8, 11));
    }

    #[test]
    fn comments_skipped_both_styles() {
        assert_eq!(
            words("a // to eol\nb # hash\nc"),
            vec![Tok::Word("a"), Tok::Word("b"), Tok::Word("c"),]
        );
    }

    #[test]
    fn lone_slash_is_an_error_not_a_comment() {
        let (toks, errors) = lex("a / b");
        assert_eq!(toks.len(), 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, SyntaxErrorKind::UnexpectedChar);
        assert!(errors[0].message.contains('/'));
        assert_eq!(errors[0].span, Span::new(2, 3));
    }

    #[test]
    fn escapes_in_strings() {
        assert_eq!(
            words(r#""a \"quoted\" \\ name""#),
            vec![Tok::Str(r#"a "quoted" \ name"#.into())]
        );
        // A backslash before anything else is kept literally (seed behavior).
        assert_eq!(words(r#""a \n b""#), vec![Tok::Str(r"a \n b".into())]);
    }

    #[test]
    fn unterminated_string_reported_and_tokenized() {
        let (toks, errors) = lex(r#"goal g1 "never ends"#);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, SyntaxErrorKind::UnterminatedString);
        assert_eq!(errors[0].span, Span::new(8, 19));
        // The partial content still reaches the parser.
        assert_eq!(toks.last().unwrap().tok, Tok::Str("never ends".into()));
    }

    #[test]
    fn stray_characters_skipped_with_errors() {
        let (toks, errors) = lex("goal $ g1 @");
        assert_eq!(toks.len(), 2);
        assert_eq!(errors.len(), 2);
        assert!(errors[0].message.contains('$'));
        assert!(errors[1].message.contains('@'));
    }

    #[test]
    fn multibyte_characters_keep_byte_spans() {
        let (toks, errors) = lex("é \"café\" ☃");
        // `é` is alphanumeric → a word; `☃` is not → an error.
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].tok, Tok::Str("café".into()));
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].span.len(), '☃'.len_utf8());
    }

    /// Tokens paired with the source text each span covers.
    fn spanned(src: &str) -> Vec<(Tok<'_>, &str)> {
        let (toks, errors) = lex(src);
        assert!(errors.is_empty(), "unexpected lex errors: {errors:?}");
        toks.into_iter()
            .map(|l| (l.tok, &src[l.span.start..l.span.end]))
            .collect()
    }

    #[test]
    fn non_ascii_identifiers_are_words() {
        assert_eq!(
            spanned("goal é α_1 x_é2"),
            vec![
                (Tok::Word("goal"), "goal"),
                (Tok::Word("é"), "é"),
                (Tok::Word("α_1"), "α_1"),
                (Tok::Word("x_é2"), "x_é2"),
            ]
        );
        let (toks, _) = lex("é α_1");
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 7));
    }

    #[test]
    fn non_ascii_whitespace_separates_tokens() {
        // U+00A0 (2 bytes) and U+2028 (3 bytes) are whitespace.
        let src = "a\u{A0}b\u{2028}c\u{A0}{\u{2028}}";
        let (toks, errors) = lex(src);
        assert!(errors.is_empty(), "unexpected lex errors: {errors:?}");
        let got: Vec<(Tok<'_>, Span)> = toks.into_iter().map(|l| (l.tok, l.span)).collect();
        assert_eq!(
            got,
            vec![
                (Tok::Word("a"), Span::new(0, 1)),
                (Tok::Word("b"), Span::new(3, 4)),
                (Tok::Word("c"), Span::new(7, 8)),
                (Tok::LBrace, Span::new(10, 11)),
                (Tok::RBrace, Span::new(14, 15)),
            ]
        );
    }

    #[test]
    fn escape_spans_cover_the_raw_literal() {
        let src = r#"x "a\"b\\c" y"#;
        assert_eq!(
            spanned(src),
            vec![
                (Tok::Word("x"), "x"),
                (Tok::Str(r#"a"b\c"#.into()), r#""a\"b\\c""#),
                (Tok::Word("y"), "y"),
            ]
        );
        // An escaped backslash before the closing quote still closes it.
        assert_eq!(
            spanned(r#""\\" z"#),
            vec![(Tok::Str(r"\".into()), r#""\\""#), (Tok::Word("z"), "z"),]
        );
    }

    #[test]
    fn non_ascii_inside_strings_is_kept_verbatim() {
        let src = "goal \"ü ☃ 日本 🚀\" x";
        assert_eq!(
            spanned(src),
            vec![
                (Tok::Word("goal"), "goal"),
                (Tok::Str("ü ☃ 日本 🚀".into()), "\"ü ☃ 日本 🚀\""),
                (Tok::Word("x"), "x"),
            ]
        );
    }

    #[test]
    fn unterminated_string_at_eof_keeps_escapes_and_non_ascii() {
        let src = "a \"b\\\"é";
        let (toks, errors) = lex(src);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, SyntaxErrorKind::UnterminatedString);
        assert_eq!(errors[0].span, Span::new(2, src.len()));
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].tok, Tok::Str("b\"é".into()));
        assert_eq!(toks[1].span, Span::new(2, src.len()));
        // A lone trailing backslash stays literal.
        let (toks, errors) = lex("\"x\\");
        assert_eq!(errors.len(), 1);
        assert_eq!(toks[0].tok, Tok::Str("x\\".into()));
    }

    #[test]
    fn stray_multibyte_char_errors_on_its_char_boundary() {
        for (src, stray) in [("a ☃ b", "☃"), ("a🚀b", "🚀"), ("x → y", "→")] {
            let (toks, errors) = lex(src);
            assert_eq!(toks.len(), 2, "{src}");
            assert_eq!(errors.len(), 1, "{src}");
            let e = &errors[0];
            assert_eq!(e.kind, SyntaxErrorKind::UnexpectedChar);
            assert_eq!(&src[e.span.start..e.span.end], stray);
            assert_eq!(e.message, format!("unexpected character `{stray}`"));
        }
    }

    #[test]
    fn empty_and_comment_only_inputs() {
        assert!(words("").is_empty());
        assert!(words("// only a comment").is_empty());
        assert!(words("# only a comment").is_empty());
    }
}
