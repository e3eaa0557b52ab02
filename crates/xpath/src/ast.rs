//! Abstract syntax of the XPath subset.

use mbxq_axes::{Axis, NodeTest};
use mbxq_xml::QName;

/// A full expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `e1 or e2`
    Or(Box<Expr>, Box<Expr>),
    /// `e1 and e2`
    And(Box<Expr>, Box<Expr>),
    /// Comparison (`=  !=  <  <=  >  >=`) with XPath 1.0 node-set
    /// semantics.
    Compare(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic (`+  -  *  div  mod`).
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `e1 | e2` — node-set union.
    Union(Box<Expr>, Box<Expr>),
    /// String literal.
    Literal(String),
    /// Numeric literal.
    Number(f64),
    /// Function call.
    Call(String, Vec<Expr>),
    /// Variable reference (`$name`), resolved against the
    /// [`crate::Bindings`] supplied at evaluation time.
    Var(String),
    /// A location path (optionally rooted in a parenthesized primary
    /// expression, e.g. `(…)/a/b`).
    Path(PathExpr),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The operator as written in a query.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
}

/// A location path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathExpr {
    /// Whether the path starts at the document root (`/…`).
    pub absolute: bool,
    /// Optional primary-expression start (`(expr)/step/…`).
    pub start: Option<Box<Expr>>,
    /// Filter predicates applied directly to the start expression
    /// (`(expr)[pred]`). Unlike step predicates, these see the *whole*
    /// start node-set as one context: `(//b)[2]` is the second `b` in
    /// the document, not the second `b` per parent.
    pub start_predicates: Vec<Expr>,
    /// The steps, applied left to right.
    pub steps: Vec<Step>,
}

/// One location step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// What the step selects.
    pub test: StepTest,
    /// Predicates, applied in order with XPath position semantics.
    pub predicates: Vec<Expr>,
}

/// The axis + node test of a step. The attribute axis is separated
/// because its results are attribute values, not tree tuples.
#[derive(Debug, Clone, PartialEq)]
pub enum StepTest {
    /// A tree axis with a node test.
    Tree(Axis, NodeTest),
    /// `attribute::name` / `@name` (None = `@*`).
    Attribute(Option<QName>),
}
