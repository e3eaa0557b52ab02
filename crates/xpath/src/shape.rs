//! Query shapes: what a plan cache keys on instead of the query text.
//!
//! Two texts that differ only in whitespace, or only in the string
//! literals they compare against (`//item[@id = "item7"]` vs
//! `//item[@id = "item8"]`), compile to plans that differ only in a
//! constant — and since value-predicate lowering takes a *slot*
//! ([`crate::plan::Operand`]), not a constant, they can share one plan
//! outright. [`QueryShape::of`] lexes a text once and lifts every
//! string literal that is a **direct operand of a comparison operator**
//! to a synthetic parameter (`$1`, `$2`, … — a digit cannot start a
//! `$name` token, so no query text can spell or collide with them); the
//! rendered token stream is the cache key, the lifted values travel
//! beside it and are bound when the shared plan executes.
//!
//! Lifting is safe by construction rather than by case analysis: a
//! variable bound to a string evaluates exactly as the literal did, the
//! enclosing comparison is boolean-typed whatever its operands, and the
//! one rewrite that reads a string operand (rule 5 of
//! [`crate::rewrite`]) accepts a parameter wherever it accepts a
//! literal. **Numeric** literals stay in the key: `[1]`,
//! `position() = 1` and `count(e) > 0` are rewritten by value. String
//! literals elsewhere (function arguments such as `contains(., "x")`)
//! stay too — nothing indexes on them, and their texts rarely vary.

use crate::lexer::{self, Token, TokenKind};
use crate::{parser, physical, plan, rewrite, Bindings, Result, Value, XPath};
use std::fmt::Write as _;

/// A query text reduced to its cacheable shape: the normalized key, the
/// parameterized token stream it compiles from, and the literal values
/// lifted out of it.
#[derive(Debug)]
pub struct QueryShape {
    key: String,
    tokens: Vec<Token>,
    source_len: usize,
    lifted: Vec<String>,
}

impl QueryShape {
    /// Lexes `source` and lifts its comparison-operand string literals.
    /// Fails only where [`XPath::parse`] would fail lexing the text.
    pub fn of(source: &str) -> Result<QueryShape> {
        let mut tokens = lexer::lex(source)?;
        let mut lifted = Vec::new();
        for i in 0..tokens.len() {
            if !liftable(&tokens, i) {
                continue;
            }
            let name = synthetic_name(lifted.len());
            let TokenKind::Literal(value) =
                std::mem::replace(&mut tokens[i].kind, TokenKind::Var(name))
            else {
                unreachable!("liftable() checked the kind");
            };
            lifted.push(value);
        }
        Ok(QueryShape {
            key: render(&tokens, source.len()),
            tokens,
            source_len: source.len(),
            lifted,
        })
    }

    /// The cache key: equal for exactly the texts one plan can serve.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// How many literals were lifted to synthetic parameters.
    pub fn lifted(&self) -> usize {
        self.lifted.len()
    }

    /// Compiles the shape's plan (parse → compile → rewrite → lower).
    /// The plan's [`XPath::source`] is the shape key; evaluate it with
    /// [`QueryShape::bindings`].
    pub fn compile(&self) -> Result<XPath> {
        let expr = parser::parse(&self.tokens, self.source_len)?;
        let logical = rewrite::rewrite(plan::compile(&expr));
        let physical = physical::lower(&logical);
        Ok(XPath {
            expr,
            source: self.key.clone(),
            logical,
            physical,
        })
    }

    /// The bindings a plan of this shape executes under: the lifted
    /// values layered over a copy of the caller's own. `None` when
    /// nothing was lifted — the caller's bindings (if any) serve as they
    /// are, uncopied.
    pub fn bindings(self, caller: Option<&Bindings>) -> Option<Bindings> {
        if self.lifted.is_empty() {
            return None;
        }
        let mut b = caller.cloned().unwrap_or_default();
        for (i, value) in self.lifted.into_iter().enumerate() {
            b.set(synthetic_name(i), Value::Str(value));
        }
        Some(b)
    }
}

/// The name of the `i`-th (0-based) lifted literal's parameter: `1`,
/// `2`, … — a name `$` cannot introduce in a query text.
fn synthetic_name(i: usize) -> String {
    (i + 1).to_string()
}

fn is_comparison(kind: &TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Eq
            | TokenKind::Ne
            | TokenKind::Lt
            | TokenKind::Le
            | TokenKind::Gt
            | TokenKind::Ge
    )
}

/// Whether token `i` is a string literal standing directly beside a
/// comparison operator. A literal followed by `/`, `//` or `[` is left
/// alone: the grammar lets a *variable* start a path there but not a
/// literal, so lifting it would turn a parse error into a plan.
fn liftable(tokens: &[Token], i: usize) -> bool {
    if !matches!(tokens[i].kind, TokenKind::Literal(_)) {
        return false;
    }
    let prev = i.checked_sub(1).map(|p| &tokens[p].kind);
    let next = tokens.get(i + 1).map(|t| &t.kind);
    if matches!(
        next,
        Some(TokenKind::Slash | TokenKind::DoubleSlash | TokenKind::LBracket)
    ) {
        return false;
    }
    prev.is_some_and(is_comparison) || next.is_some_and(is_comparison)
}

/// Renders a token stream as normalized query text. Distinct streams
/// render distinctly (a blank separates every pair of tokens that could
/// otherwise fuse into one — `/ /` never becomes `//`), so the rendering
/// is a sound cache key; it reads like the query so `explain` can show
/// it. `size_hint` is the source length (the rendering is about as
/// long).
fn render(tokens: &[Token], size_hint: usize) -> String {
    use TokenKind as T;
    let slash = |k: &T| matches!(k, T::Slash | T::DoubleSlash);
    let mut out = String::with_capacity(size_hint + 8);
    for (i, t) in tokens.iter().enumerate() {
        if let Some(prev) = i.checked_sub(1).map(|p| &tokens[p].kind) {
            let hugs_right = matches!(prev, T::At | T::LParen | T::LBracket) || slash(prev);
            let hugs_left = matches!(
                t.kind,
                T::RParen | T::RBracket | T::Comma | T::LParen | T::LBracket
            ) || slash(&t.kind);
            if !(hugs_right || hugs_left) || (slash(prev) && slash(&t.kind)) {
                out.push(' ');
            }
        }
        match &t.kind {
            T::Name(n) => out.push_str(n),
            T::Number(n) => {
                let _ = write!(out, "{n:?}");
            }
            T::Literal(s) => {
                // No escapes in XPath 1.0 literals: a literal never
                // holds both quote characters.
                let q = if s.contains('"') { '\'' } else { '"' };
                out.push(q);
                out.push_str(s);
                out.push(q);
            }
            T::Var(name) => {
                out.push('$');
                out.push_str(name);
            }
            T::Slash => out.push('/'),
            T::DoubleSlash => out.push_str("//"),
            T::Dot => out.push('.'),
            T::DotDot => out.push_str(".."),
            T::At => out.push('@'),
            T::LBracket => out.push('['),
            T::RBracket => out.push(']'),
            T::LParen => out.push('('),
            T::RParen => out.push(')'),
            T::Comma => out.push(','),
            T::Pipe => out.push('|'),
            T::Plus => out.push('+'),
            T::Minus => out.push('-'),
            T::Star => out.push('*'),
            T::Eq => out.push('='),
            T::Ne => out.push_str("!="),
            T::Lt => out.push('<'),
            T::Le => out.push_str("<="),
            T::Gt => out.push('>'),
            T::Ge => out.push_str(">="),
            T::DoubleColon => out.push_str("::"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src: &str) -> String {
        QueryShape::of(src).unwrap().key().to_string()
    }

    #[test]
    fn comparison_literals_lift_and_texts_share_a_key() {
        let a = QueryShape::of("//item[@id = \"item7\"]").unwrap();
        let b = QueryShape::of("//item[ @id=\"item8\" ]  ").unwrap();
        assert_eq!(a.key(), "//item[@id = $1]");
        assert_eq!(a.key(), b.key());
        assert_eq!((a.lifted(), b.lifted()), (1, 1));
        // Either side, every comparison operator, several per query.
        assert_eq!(
            key("//a['x' != @k][. >= \"5\"]/b[c < 'y']"),
            "//a[$1 != @k][. >= $2]/b[c < $3]"
        );
        // A user parameter keeps its name; the lifted one counts from 1.
        assert_eq!(
            key("//item[@id = $id][name = \"n\"]"),
            "//item[@id = $id][name = $1]"
        );
    }

    #[test]
    fn everything_else_stays_in_the_key() {
        // Numbers are rewritten by value; function arguments, bare
        // predicates and path-starting literals are not comparison
        // operands.
        for (src, other) in [
            ("//item[1]", "//item[2]"),
            ("//item[position() = 2]", "//item[position() = 3]"),
            ("count(//item) > 0", "count(//item) > 1"),
            ("//p[contains(., \"x\")]", "//p[contains(., \"z\")]"),
            ("//p[\"x\"]", "//p[\"z\"]"),
            (
                "//p[@a = concat(\"x\", \"y\")]",
                "//p[@a = concat(\"z\", \"y\")]",
            ),
            (
                "processing-instruction(\"t\")",
                "processing-instruction(\"u\")",
            ),
        ] {
            let shape = QueryShape::of(src).unwrap();
            assert_eq!(shape.lifted(), 0, "{src}");
            assert_ne!(shape.key(), key(other), "{src}");
        }
        // A literal that a variable could turn into a path start stays
        // a literal (and the text stays the parse error it was).
        let shape = QueryShape::of("//a[@k = \"x\"/b]").unwrap();
        assert_eq!(shape.lifted(), 0);
        assert!(shape.compile().is_err());
        assert!(XPath::parse("//a[@k = \"x\"/b]").is_err());
    }

    /// The key is a sound identity: rendering is injective on token
    /// streams. Checked the strong way — an unlifted key re-lexes to
    /// the stream it was rendered from — over texts chosen to fuse if a
    /// separator were missing.
    #[test]
    fn keys_relex_to_their_own_tokens() {
        for src in [
            "/site//item",
            "a/ /b",
            "a/ //b",
            "a// /b",
            ". .",
            "..",
            "a < = b",
            "a <= b",
            "1 .5",
            "1.5",
            "a - b",
            "a-b",
            "a -b",
            "child::a",
            "child :: a",
            "@ *",
            "@*",
            "f ( 1 , 2 )",
            "(//item)[2]/@id",
            "//p[contains(., 'say \"hi\"')]",
            "//p[contains(., \"it's\")]",
            "$v/a[$w]",
            "a | b",
            "- 1",
            "2 * 3",
            "a div b mod c",
        ] {
            let tokens = lexer::lex(src).unwrap();
            let rendered = render(&tokens, src.len());
            let again: Vec<TokenKind> = lexer::lex(&rendered)
                .unwrap_or_else(|e| panic!("{src} → {rendered}: {e}"))
                .into_iter()
                .map(|t| t.kind)
                .collect();
            let kinds: Vec<TokenKind> = tokens.into_iter().map(|t| t.kind).collect();
            assert_eq!(kinds, again, "{src} → {rendered}");
        }
        assert_ne!(key("a/ /b"), key("a//b"));
        assert_ne!(key("a - b"), key("a-b"));
    }

    #[test]
    fn lifted_plans_evaluate_like_their_texts() {
        let d = mbxq_storage::ReadOnlyDoc::parse_str(
            r#"<r><i id="a"><n>x</n></i><i id="b"><n>y</n></i><i id="5"/></r>"#,
        )
        .unwrap();
        let mut user = Bindings::new();
        user.set("who", Value::Str("b".into()));
        for src in [
            "//i[@id = \"a\"]",
            "//i[@id = \"zz\"]",
            "//i[\"a\" = @id]/n",
            "//i[@id >= \"5\"]",
            "//i[@id > \"nope\"]",
            "//i[n = \"y\"][@id = $who]",
            "//i[@id = \"a\" or n = \"y\"]",
            "\"a\" = \"a\"",
        ] {
            let shape = QueryShape::of(src).unwrap();
            assert!(shape.lifted() > 0, "{src}");
            let plan = shape.compile().unwrap();
            let bound = shape.bindings(Some(&user)).unwrap();
            let direct = XPath::parse(src).unwrap();
            let want = direct.eval_interpreted_with(&d, &[0], &user);
            assert_eq!(plan.eval_with(&d, &[0], &bound), want, "{src}");
            assert_eq!(direct.eval_with(&d, &[0], &user), want, "{src}");
        }
        // Errors survive lifting too (a string in a union, planned arm).
        let src = "//i[@id = \"a\" | n]";
        let shape = QueryShape::of(src).unwrap();
        let plan = shape.compile().unwrap();
        let err = plan.eval_with(&d, &[0], &shape.bindings(None).unwrap());
        assert!(err.is_err());
        assert_eq!(err, XPath::parse(src).unwrap().eval(&d, &[0]));
        // The point lookup really is a probe in its lifted form.
        let shape = QueryShape::of("//i[@id = \"a\"]").unwrap();
        assert!(shape.compile().unwrap().explain().contains("value-probe"));
    }
}
