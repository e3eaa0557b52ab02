//! Recursive-descent parser for the XPath subset.
//!
//! Grammar (precedence climbing, loosest first):
//!
//! ```text
//! Expr        := OrExpr
//! OrExpr      := AndExpr ('or' AndExpr)*
//! AndExpr     := CmpExpr ('and' CmpExpr)*
//! CmpExpr     := AddExpr (('='|'!='|'<'|'<='|'>'|'>=') AddExpr)*
//! AddExpr     := MulExpr (('+'|'-') MulExpr)*
//! MulExpr     := UnaryExpr (('*'|'div'|'mod') UnaryExpr)*
//! UnaryExpr   := '-'* UnionExpr
//! UnionExpr   := PathExpr ('|' PathExpr)*
//! PathExpr    := Literal | Number | FunctionCall | LocationPath
//!              | '(' Expr ')' ('/'|'//' RelativePath)?
//! ```

use crate::ast::{ArithOp, CmpOp, Expr, PathExpr, Step, StepTest};
use crate::lexer::{Token, TokenKind};
use crate::{Result, XPathError};
use mbxq_axes::{Axis, NodeTest};
use mbxq_xml::QName;

/// Parses a token stream; `src_len` is the length of the text it was
/// lexed from (the offset reported for errors at end of input).
pub(crate) fn parse(tokens: &[Token], src_len: usize) -> Result<Expr> {
    let mut p = Parser {
        tokens,
        pos: 0,
        src_len,
    };
    let expr = p.expr()?;
    if p.pos != tokens.len() {
        return Err(XPathError::Parse {
            message: "trailing tokens after expression".into(),
            offset: p.offset(),
        });
    }
    Ok(expr)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    src_len: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.src_len, |t| t.offset)
    }

    fn bump(&mut self) -> Option<&TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| &t.kind);
        self.pos += 1;
        t
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            Err(XPathError::Parse {
                message: format!("expected {what}"),
                offset: self.offset(),
            })
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(XPathError::Parse {
            message: message.into(),
            offset: self.offset(),
        })
    }

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while matches!(self.peek(), Some(TokenKind::Name(n)) if n == "or") {
            self.pos += 1;
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.cmp_expr()?;
        while matches!(self.peek(), Some(TokenKind::Name(n)) if n == "and") {
            self.pos += 1;
            let right = self.cmp_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let mut left = self.add_expr()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Eq) => CmpOp::Eq,
                Some(TokenKind::Ne) => CmpOp::Ne,
                Some(TokenKind::Lt) => CmpOp::Lt,
                Some(TokenKind::Le) => CmpOp::Le,
                Some(TokenKind::Gt) => CmpOp::Gt,
                Some(TokenKind::Ge) => CmpOp::Ge,
                _ => break,
            };
            self.pos += 1;
            let right = self.add_expr()?;
            left = Expr::Compare(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => ArithOp::Add,
                Some(TokenKind::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => ArithOp::Mul,
                Some(TokenKind::Name(n)) if n == "div" => ArithOp::Div,
                Some(TokenKind::Name(n)) if n == "mod" => ArithOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.peek() == Some(&TokenKind::Minus) {
            self.pos += 1;
            let inner = self.unary_expr()?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.union_expr()
    }

    fn union_expr(&mut self) -> Result<Expr> {
        let mut left = self.path_expr()?;
        while self.peek() == Some(&TokenKind::Pipe) {
            self.pos += 1;
            let right = self.path_expr()?;
            left = Expr::Union(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn path_expr(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(TokenKind::Literal(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Expr::Literal(s))
            }
            Some(TokenKind::Number(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(Expr::Number(n))
            }
            Some(TokenKind::Var(name)) => {
                let var = Expr::Var(name.clone());
                self.pos += 1;
                // `$v/steps` and `$v[pred]` — a variable is a primary
                // expression and may start a path, like `(expr)`.
                if matches!(
                    self.peek(),
                    Some(TokenKind::Slash)
                        | Some(TokenKind::DoubleSlash)
                        | Some(TokenKind::LBracket)
                ) {
                    let mut steps = Vec::new();
                    let mut start_predicates = Vec::new();
                    while self.peek() == Some(&TokenKind::LBracket) {
                        self.pos += 1;
                        start_predicates.push(self.expr()?);
                        self.expect(&TokenKind::RBracket, "']'")?;
                    }
                    self.relative_path_into(&mut steps)?;
                    Ok(Expr::Path(PathExpr {
                        absolute: false,
                        start: Some(Box::new(var)),
                        start_predicates,
                        steps,
                    }))
                } else {
                    Ok(var)
                }
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen, "')'")?;
                // `(expr)/more/steps` or `(expr)[pred]`…
                if matches!(
                    self.peek(),
                    Some(TokenKind::Slash)
                        | Some(TokenKind::DoubleSlash)
                        | Some(TokenKind::LBracket)
                ) {
                    let mut steps = Vec::new();
                    // Filter predicates directly on the parenthesized
                    // set — they see the whole set as one context.
                    let mut start_predicates = Vec::new();
                    while self.peek() == Some(&TokenKind::LBracket) {
                        self.pos += 1;
                        start_predicates.push(self.expr()?);
                        self.expect(&TokenKind::RBracket, "']'")?;
                    }
                    self.relative_path_into(&mut steps)?;
                    Ok(Expr::Path(PathExpr {
                        absolute: false,
                        start: Some(Box::new(inner)),
                        start_predicates,
                        steps,
                    }))
                } else {
                    Ok(inner)
                }
            }
            Some(TokenKind::Name(name))
                if self.peek2() == Some(&TokenKind::LParen) && !is_node_type(name) =>
            {
                // Function call.
                let fname = name.clone();
                self.pos += 2;
                let mut args = Vec::new();
                if self.peek() != Some(&TokenKind::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if self.peek() == Some(&TokenKind::Comma) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen, "')' closing the argument list")?;
                Ok(Expr::Call(fname, args))
            }
            _ => self.location_path().map(Expr::Path),
        }
    }

    fn location_path(&mut self) -> Result<PathExpr> {
        let mut steps = Vec::new();
        let absolute = match self.peek() {
            Some(TokenKind::Slash) => {
                self.pos += 1;
                // A bare "/" selects the root.
                if self.at_path_end() {
                    return Ok(PathExpr {
                        absolute: true,
                        start: None,
                        start_predicates: Vec::new(),
                        steps,
                    });
                }
                true
            }
            Some(TokenKind::DoubleSlash) => {
                self.pos += 1;
                steps.push(descendant_or_self_step());
                true
            }
            _ => false,
        };
        self.step_into(&mut steps)?;
        self.relative_path_tail(&mut steps)?;
        Ok(PathExpr {
            absolute,
            start: None,
            start_predicates: Vec::new(),
            steps,
        })
    }

    /// Parses `('/' Step | '//' Step)*` continuations.
    fn relative_path_tail(&mut self, steps: &mut Vec<Step>) -> Result<()> {
        loop {
            match self.peek() {
                Some(TokenKind::Slash) => {
                    self.pos += 1;
                    self.step_into(steps)?;
                }
                Some(TokenKind::DoubleSlash) => {
                    self.pos += 1;
                    steps.push(descendant_or_self_step());
                    self.step_into(steps)?;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Parses a relative path that must begin right here (after
    /// `(expr)/`).
    fn relative_path_into(&mut self, steps: &mut Vec<Step>) -> Result<()> {
        match self.peek() {
            Some(TokenKind::Slash) => {
                self.pos += 1;
                self.step_into(steps)?;
            }
            Some(TokenKind::DoubleSlash) => {
                self.pos += 1;
                steps.push(descendant_or_self_step());
                self.step_into(steps)?;
            }
            _ => return Ok(()), // only predicates were present
        }
        self.relative_path_tail(steps)
    }

    fn at_path_end(&self) -> bool {
        !matches!(
            self.peek(),
            Some(TokenKind::Name(_))
                | Some(TokenKind::Star)
                | Some(TokenKind::At)
                | Some(TokenKind::Dot)
                | Some(TokenKind::DotDot)
        )
    }

    fn step_into(&mut self, steps: &mut Vec<Step>) -> Result<()> {
        let test = match self.peek() {
            Some(TokenKind::Dot) => {
                self.pos += 1;
                StepTest::Tree(Axis::SelfAxis, NodeTest::AnyNode)
            }
            Some(TokenKind::DotDot) => {
                self.pos += 1;
                StepTest::Tree(Axis::Parent, NodeTest::AnyNode)
            }
            Some(TokenKind::At) => {
                self.pos += 1;
                match self.bump() {
                    Some(TokenKind::Name(n)) => {
                        let name = n.clone();
                        StepTest::Attribute(Some(parse_qname(&name, self.offset())?))
                    }
                    Some(TokenKind::Star) => StepTest::Attribute(None),
                    _ => return self.err("expected attribute name after '@'"),
                }
            }
            Some(TokenKind::Star) => {
                self.pos += 1;
                StepTest::Tree(Axis::Child, NodeTest::AnyElement)
            }
            Some(TokenKind::Name(n)) => {
                let name = n.clone();
                if self.peek2() == Some(&TokenKind::DoubleColon) {
                    // Explicit axis.
                    self.pos += 2;
                    let axis = parse_axis(&name).ok_or_else(|| XPathError::Parse {
                        message: format!("unknown axis '{name}'"),
                        offset: self.offset(),
                    })?;
                    match axis {
                        AxisOrAttr::Attr => match self.bump() {
                            Some(TokenKind::Name(n2)) => {
                                let n2 = n2.clone();
                                StepTest::Attribute(Some(parse_qname(&n2, self.offset())?))
                            }
                            Some(TokenKind::Star) => StepTest::Attribute(None),
                            _ => return self.err("expected name after attribute::"),
                        },
                        AxisOrAttr::Tree(axis) => {
                            let test = self.node_test()?;
                            StepTest::Tree(axis, test)
                        }
                    }
                } else {
                    // Abbreviated child step (or a kind test).
                    let test = self.node_test()?;
                    StepTest::Tree(Axis::Child, test)
                }
            }
            _ => return self.err("expected a location step"),
        };
        let mut predicates = Vec::new();
        while self.peek() == Some(&TokenKind::LBracket) {
            self.pos += 1;
            predicates.push(self.expr()?);
            self.expect(&TokenKind::RBracket, "']' closing the predicate")?;
        }
        steps.push(Step { test, predicates });
        Ok(())
    }

    /// Parses a node test: `*`, `name`, `text()`, `comment()`, `node()`,
    /// `processing-instruction('t'?)`. The current token must be the
    /// test's first token.
    fn node_test(&mut self) -> Result<NodeTest> {
        match self.peek() {
            Some(TokenKind::Star) => {
                self.pos += 1;
                Ok(NodeTest::AnyElement)
            }
            Some(TokenKind::Name(n)) => {
                let name = n.clone();
                if self.peek2() == Some(&TokenKind::LParen) && is_node_type(&name) {
                    self.pos += 2;
                    let test = match name.as_str() {
                        "text" => NodeTest::Text,
                        "comment" => NodeTest::Comment,
                        "node" => NodeTest::AnyNode,
                        "processing-instruction" => {
                            if let Some(TokenKind::Literal(t)) = self.peek() {
                                let t = t.clone();
                                self.pos += 1;
                                NodeTest::PiTarget(t)
                            } else {
                                NodeTest::AnyPi
                            }
                        }
                        _ => unreachable!("is_node_type is exhaustive"),
                    };
                    self.expect(&TokenKind::RParen, "')' closing the node test")?;
                    Ok(test)
                } else {
                    self.pos += 1;
                    Ok(NodeTest::Name(parse_qname(&name, self.offset())?))
                }
            }
            _ => self.err("expected a node test"),
        }
    }
}

fn descendant_or_self_step() -> Step {
    Step {
        test: StepTest::Tree(Axis::DescendantOrSelf, NodeTest::AnyNode),
        predicates: Vec::new(),
    }
}

fn is_node_type(name: &str) -> bool {
    matches!(name, "text" | "comment" | "node" | "processing-instruction")
}

enum AxisOrAttr {
    Tree(Axis),
    Attr,
}

fn parse_axis(name: &str) -> Option<AxisOrAttr> {
    Some(match name {
        "child" => AxisOrAttr::Tree(Axis::Child),
        "descendant" => AxisOrAttr::Tree(Axis::Descendant),
        "descendant-or-self" => AxisOrAttr::Tree(Axis::DescendantOrSelf),
        "parent" => AxisOrAttr::Tree(Axis::Parent),
        "ancestor" => AxisOrAttr::Tree(Axis::Ancestor),
        "ancestor-or-self" => AxisOrAttr::Tree(Axis::AncestorOrSelf),
        "following-sibling" => AxisOrAttr::Tree(Axis::FollowingSibling),
        "preceding-sibling" => AxisOrAttr::Tree(Axis::PrecedingSibling),
        "following" => AxisOrAttr::Tree(Axis::Following),
        "preceding" => AxisOrAttr::Tree(Axis::Preceding),
        "self" => AxisOrAttr::Tree(Axis::SelfAxis),
        "attribute" => AxisOrAttr::Attr,
        _ => return None,
    })
}

fn parse_qname(text: &str, offset: usize) -> Result<QName> {
    QName::parse(text).ok_or(XPathError::Parse {
        message: format!("malformed name '{text}'"),
        offset,
    })
}
