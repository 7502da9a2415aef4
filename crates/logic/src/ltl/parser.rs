//! Parser for LTL formulas.
//!
//! Grammar (lowest precedence first):
//!
//! ```text
//! implies ::= or ( "->" implies )?
//! or      ::= and ( "|" and )*
//! and     ::= until ( "&" until )*
//! until   ::= unary ( ("U" | "R") unary )*      (left associative)
//! unary   ::= ("~" | "X" | "F" | "G") unary | "(" implies ")" | atom
//! ```
//!
//! Unicode aliases `¬ ∧ ∨ → ◇ □ ○` are accepted (`◇` = F, `□` = G, `○` = X).
//!
//! Parentheses, prefix operators and the right operand of `->` nest at
//! most [`MAX_NESTING`] levels deep; deeper input is a
//! [`SyntaxErrorKind::NestingTooDeep`](crate::SyntaxErrorKind::NestingTooDeep)
//! error.

use super::ast::Ltl;
use crate::error::{ParseError, Span, SyntaxError, MAX_NESTING};

/// Symbolic binary operators and their precedence (higher binds
/// tighter), a longer spelling before any it starts with. `U` and `R`
/// (precedence 4) are words; `->` is the only right-associative one.
const SYMBOLS: [(&str, u8); 8] = [
    ("->", 1),
    ("→", 1),
    ("||", 2),
    ("|", 2),
    ("∨", 2),
    ("&&", 3),
    ("&", 3),
    ("∧", 3),
];

struct P<'a> {
    input: &'a str,
    pos: usize,
    /// Levels of nesting open at the cursor.
    depth: usize,
}

impl<'a> P<'a> {
    fn skip_ws(&mut self) {
        let rest = &self.input[self.pos..];
        let trimmed = rest.trim_start();
        self.pos += rest.len() - trimmed.len();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.input[self.pos..].chars().next()
    }

    fn try_eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Reads a word `[A-Za-z_][A-Za-z0-9_]*` without consuming it.
    fn peek_word(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            if (i == 0 && (c.is_alphabetic() || c == '_'))
                || (i > 0 && (c.is_alphanumeric() || c == '_'))
            {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            None
        } else {
            Some(&rest[..end])
        }
    }

    fn eat_word(&mut self) -> Option<&'a str> {
        let w = self.peek_word()?;
        self.pos += w.len();
        Some(w)
    }

    /// What sits at the cursor, rendered for an "expected X, found Y"
    /// message (`None` at end of input).
    fn found_here(&mut self) -> Option<String> {
        self.peek().map(|c| format!("`{c}`"))
    }

    /// Opens one more nesting level for the operator that starts at
    /// `opener` and ends at the cursor, refusing past [`MAX_NESTING`].
    /// The caller closes it with `self.depth -= 1` once the nested part
    /// parsed; an error ends the whole parse, so no level needs closing
    /// on that path.
    fn enter(&mut self, opener: usize) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(SyntaxError::nesting_too_deep(Span::new(opener, self.pos)));
        }
        self.depth += 1;
        Ok(())
    }

    /// Consumes the prefix operator at the cursor, if any, and returns
    /// the constructor it applies.
    fn prefix(&mut self) -> Option<fn(Ltl) -> Ltl> {
        if self.try_eat("~") || self.try_eat("!") || self.try_eat("¬") {
            return Some(Ltl::not);
        }
        if self.try_eat("◇") {
            return Some(Ltl::finally);
        }
        if self.try_eat("□") {
            return Some(Ltl::globally);
        }
        if self.try_eat("○") {
            return Some(Ltl::next);
        }
        let op: fn(Ltl) -> Ltl = match self.peek_word() {
            Some("X") => Ltl::next,
            Some("F") => Ltl::finally,
            Some("G") => Ltl::globally,
            _ => return None,
        };
        self.eat_word();
        Some(op)
    }

    /// The binary operator at the cursor, not consumed: its spelling
    /// and precedence.
    fn binary_op(&mut self) -> Option<(&'a str, u8)> {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        if let Some(&(symbol, prec)) = SYMBOLS.iter().find(|(s, _)| rest.starts_with(s)) {
            return Some((symbol, prec));
        }
        match self.peek_word() {
            Some(word @ ("U" | "R")) => Some((word, 4)),
            _ => None,
        }
    }

    /// Parses a formula whose binary operators all bind at least as
    /// tightly as `min`: the grammar above by precedence climbing, so a
    /// parenthesized group costs two stack frames, not one per level of
    /// precedence.
    fn binary(&mut self, min: u8) -> Result<Ltl, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.binary_op() {
            if prec < min {
                break;
            }
            let start = self.pos;
            self.pos += op.len();
            let rhs = if prec == 1 {
                // `->` associates to the right: each one of a chain
                // nests one level deeper.
                self.enter(start)?;
                let rhs = self.binary(prec)?;
                self.depth -= 1;
                rhs
            } else {
                self.binary(prec + 1)?
            };
            lhs = match (prec, op) {
                (1, _) => lhs.implies(rhs),
                (2, _) => lhs.or(rhs),
                (3, _) => lhs.and(rhs),
                (_, "U") => lhs.until(rhs),
                _ => lhs.release(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Ltl, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if let Some(op) = self.prefix() {
            self.enter(start)?;
            let inner = self.unary()?;
            self.depth -= 1;
            return Ok(op(inner));
        }
        match self.peek_word() {
            Some("true") => {
                self.eat_word();
                return Ok(Ltl::True);
            }
            Some("false") => {
                self.eat_word();
                return Ok(Ltl::False);
            }
            _ => {}
        }
        if self.try_eat("(") {
            self.enter(start)?;
            let inner = self.binary(1)?;
            self.depth -= 1;
            if !self.try_eat(")") {
                let found = self.found_here();
                return Err(
                    SyntaxError::expected_found("`)`", found, Span::point(self.pos))
                        .with_hint("close the parenthesized group"),
                );
            }
            return Ok(inner);
        }
        match self.eat_word() {
            Some(w) if !matches!(w, "U" | "R") => Ok(Ltl::prop(w)),
            _ => {
                let found = self.found_here();
                Err(SyntaxError::expected_found(
                    "an LTL formula",
                    found,
                    Span::point(self.pos),
                ))
            }
        }
    }
}

/// Parses an LTL formula.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first offending token.
///
/// # Examples
///
/// ```
/// use casekit_logic::ltl::parse_ltl;
/// let f = parse_ltl("G (below_min -> (nonzero U above_min))").unwrap();
/// assert_eq!(f.to_string(), "G (below_min -> nonzero U above_min)");
/// ```
pub fn parse_ltl(input: &str) -> Result<Ltl, ParseError> {
    let mut p = P {
        input,
        pos: 0,
        depth: 0,
    };
    let f = p.binary(1)?;
    p.skip_ws();
    if p.pos < input.len() {
        return Err(SyntaxError::with_kind(
            crate::error::SyntaxErrorKind::TrailingInput,
            "unexpected trailing input",
            Span::point(p.pos),
        ));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_and_constants() {
        assert_eq!(parse_ltl("p").unwrap(), Ltl::prop("p"));
        assert_eq!(parse_ltl("true").unwrap(), Ltl::True);
        assert_eq!(parse_ltl("false").unwrap(), Ltl::False);
    }

    #[test]
    fn temporal_operators() {
        assert_eq!(parse_ltl("X p").unwrap(), Ltl::prop("p").next());
        assert_eq!(parse_ltl("F p").unwrap(), Ltl::prop("p").finally());
        assert_eq!(parse_ltl("G p").unwrap(), Ltl::prop("p").globally());
        assert_eq!(
            parse_ltl("p U q").unwrap(),
            Ltl::prop("p").until(Ltl::prop("q"))
        );
        assert_eq!(
            parse_ltl("p R q").unwrap(),
            Ltl::prop("p").release(Ltl::prop("q"))
        );
    }

    #[test]
    fn unicode_operators() {
        assert_eq!(parse_ltl("□ p").unwrap(), parse_ltl("G p").unwrap());
        assert_eq!(parse_ltl("◇ p").unwrap(), parse_ltl("F p").unwrap());
        assert_eq!(parse_ltl("○ p").unwrap(), parse_ltl("X p").unwrap());
        assert_eq!(parse_ltl("¬p ∧ q").unwrap(), parse_ltl("~p & q").unwrap());
    }

    #[test]
    fn brunel_cazin_shape() {
        // The paper's Detect-and-Avoid formalisation (propositionalised).
        let f = parse_ltl("G (below_min -> (nonzero U above_min))").unwrap();
        assert_eq!(f.props().len(), 3);
    }

    #[test]
    fn precedence_until_binds_tighter_than_and() {
        let f = parse_ltl("p U q & r").unwrap();
        assert_eq!(f, Ltl::prop("p").until(Ltl::prop("q")).and(Ltl::prop("r")));
    }

    #[test]
    fn nested_temporal() {
        let f = parse_ltl("G F p").unwrap();
        assert_eq!(f, Ltl::prop("p").finally().globally());
        let f = parse_ltl("~G p").unwrap();
        assert_eq!(f, Ltl::prop("p").globally().not());
    }

    #[test]
    fn operator_names_not_usable_as_props() {
        assert!(parse_ltl("U").is_err());
        assert!(parse_ltl("p U").is_err());
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse_ltl("p q").is_err());
        assert!(parse_ltl("(p").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        use crate::error::{SyntaxErrorKind, MAX_NESTING};
        let n = MAX_NESTING;
        let parens = |n: usize| format!("{}p{}", "(".repeat(n), ")".repeat(n));
        let globally = |n: usize| format!("{}p", "G ".repeat(n));
        let arrows = |n: usize| format!("{}p", "p -> ".repeat(n));
        for (make, opener) in [
            (parens as fn(usize) -> String, Span::new(n, n + 1)),
            (globally, Span::new(2 * n, 2 * n + 1)),
            (arrows, Span::new(5 * n + 2, 5 * n + 4)),
        ] {
            assert!(parse_ltl(&make(n)).is_ok());
            let e = parse_ltl(&make(n + 1)).unwrap_err();
            assert_eq!(e.kind, SyntaxErrorKind::NestingTooDeep);
            assert_eq!(e.span, opener);
        }
        let wide = vec![parens(n); 4].join(" U ");
        assert!(parse_ltl(&wide).is_ok());
    }

    #[test]
    fn round_trip() {
        for src in [
            "G (request -> F grant)",
            "p U (q R r)",
            "X X p",
            "~(p & q) | F r",
            "G F p -> F G q",
        ] {
            let f = parse_ltl(src).unwrap();
            assert_eq!(parse_ltl(&f.to_string()).unwrap(), f, "round trip {src}");
        }
    }
}
