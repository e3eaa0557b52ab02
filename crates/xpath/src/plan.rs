//! Logical query plans: a small relational algebra over `(iter, pre)`
//! relations, compiled from the XPath AST.
//!
//! The algebra has two sorts. [`Rel`] nodes produce *relations* —
//! iteration-tagged node (or attribute) sequences, the currency of the
//! loop-lifted engine — via `Step`, `Filter`, `ValueProbe`, `Union` and
//! `Const` operators. [`Scalar`] nodes produce one *value*
//! per iteration: comparisons, arithmetic, function calls, and the
//! `Agg` operator (count/sum/exists over a relational subplan).
//! Predicates that need XPath's per-context-node `position()` scope
//! stay attached to their `Step` as [`Pred`] slots; the rewriter
//! ([`crate::rewrite`]) pulls provably non-positional ones out into
//! explicit `Filter` operators, fuses `//`-steps, converts
//! `count(e) > 0` into early-exit existence aggregates, replaces
//! `[1]`/`[last()]` with first/last picks, and wraps loop-invariant
//! subtrees in `Const` markers — replacing the interpreter's ad-hoc
//! hoisting with an inspectable plan property.
//!
//! Compilation ([`compile`]) is a direct syntax-directed translation;
//! all optimization lives in the rewriter, all strategy choice in the
//! physical layer ([`crate::physical`]).

use crate::ast::{ArithOp, CmpOp, Expr, PathExpr, StepTest};
use mbxq_axes::{Axis, NodeTest};
use mbxq_xml::QName;

/// What a [`Rel::ValueProbe`] compares — the candidate value source,
/// relative to each candidate element of the probed step.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSource {
    /// The candidate's own string value (`[. = "lit"]`).
    SelfValue,
    /// One of the candidate's attributes (`[@a = "lit"]`).
    Attr(QName),
    /// Any child element of that name (`[child = "lit"]`, existential).
    Child(QName),
}

/// The value side of a [`ValuePred`] comparison: a **slot** that is
/// either a constant written in the query or a parameter bound when the
/// plan executes. The executor resolves every slot once, at the top of
/// the probed step, into a string-equality key or a numeric interval;
/// the bound value's type picks the arm through the shared
/// [`mbxq_storage::xpath_number`], so probe and scan agree on which
/// strings are numbers whichever way the key arrived.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A string literal (`= "lit"`; an order operator takes its
    /// `number()`, and a literal that is no number matches nothing).
    Str(String),
    /// A numeric literal (`= 9`, `> 50`).
    Num(f64),
    /// A `$name` parameter, looked up in the bindings at execution
    /// time. A string or number binding resolves like the literal of
    /// that type; a boolean, node-set or attribute-set binding takes
    /// the scan arm with XPath's general comparison rules.
    Param(String),
}

/// A statically recognized value predicate — the argument of the
/// content-index probe operator: `source op operand`, with the value
/// source on the left (the rewriter flips mirrored comparisons).
#[derive(Debug, Clone, PartialEq)]
pub struct ValuePred {
    /// Where each candidate's value comes from.
    pub source: ValueSource,
    /// `=`, `<`, `<=`, `>` or `>=` (`!=` is never lowered: it is not
    /// the complement of `=` under XPath's existential set semantics).
    pub op: CmpOp,
    /// What the source is compared against.
    pub operand: Operand,
}

/// Aggregates over a relational subplan (the `Agg` operator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `count(e)` — group cardinality.
    Count,
    /// `sum(e)` — numeric sum over the group's string values.
    Sum,
    /// `exists(e)` — group non-emptiness, with early exit. Produced by
    /// the rewriter (XPath 1.0 has no `exists()` syntax).
    Exists,
}

/// One predicate slot of a [`Rel::Step`] / [`Rel::GroupFilter`].
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Keep each group's first row (`[1]`, `[position() = 1]`) without
    /// materializing position vectors.
    First,
    /// Keep each group's last row (`[last()]`, `[position() = last()]`).
    Last,
    /// A general predicate expression with full XPath position
    /// semantics (a numeric value selects by position).
    Expr(Scalar),
}

/// Relational operators over `(iter, pre)` relations.
#[derive(Debug, Clone, PartialEq)]
pub enum Rel {
    /// The evaluation context: the whole context set at the top level,
    /// one context node per iteration inside lifted scopes.
    Context,
    /// The document root element (loop-invariant).
    Root,
    /// One axis step. Predicates in `preds` need the per-context-node
    /// position scope (candidates are expanded into nested iterations
    /// around them); the rewriter moves every provably non-positional
    /// predicate out into a [`Rel::Filter`].
    Step {
        /// Context relation.
        input: Box<Rel>,
        /// The axis.
        axis: Axis,
        /// The node test.
        test: NodeTest,
        /// Position-scoped predicates, applied in order.
        preds: Vec<Pred>,
    },
    /// The attribute step (`@name` / `@*`), producing an attribute
    /// relation.
    AttrStep {
        /// Owner relation.
        input: Box<Rel>,
        /// Attribute name (`None` = `@*`).
        name: Option<QName>,
        /// Whether the source step carried predicates (unsupported on
        /// attribute steps; reported at execution time, matching the
        /// interpreter).
        has_preds: bool,
    },
    /// A row filter with **no** position scope — a predicate the
    /// rewriter pushed out of its step (each candidate row is its own
    /// iteration; no expansion, no position vectors, no regrouping).
    Filter {
        /// Input relation.
        input: Box<Rel>,
        /// The (non-positional) predicate.
        pred: Box<Scalar>,
    },
    /// Predicates over the *existing* iteration grouping — the
    /// `(expr)[pred]` filter-expression scope, where each iteration's
    /// whole node-set is one `position()` group.
    GroupFilter {
        /// Input relation.
        input: Box<Rel>,
        /// Whole-group predicates, applied in order.
        preds: Vec<Pred>,
    },
    /// Content-index probe: the elements matching `axis::test` from the
    /// context that additionally satisfy a statically recognized value
    /// predicate. Produced by the rewriter from `Filter`-over-`Step`
    /// shapes (`//item[@id = "x"]`, `//item[@id = $id]`,
    /// `//price[. > 50]`, `//person[name = "Alice"]`); executes as
    /// either a value-index probe + range semijoin or the scalar scan
    /// it replaced, chosen per execution from the resolved key's live
    /// posting count ([`crate::physical`]).
    ValueProbe {
        /// Context relation.
        input: Box<Rel>,
        /// `Child`, `Descendant` or `DescendantOrSelf`.
        axis: Axis,
        /// The step's node test (`Name`; `AnyElement` for attribute
        /// sources).
        test: NodeTest,
        /// The recognized predicate.
        pred: ValuePred,
    },
    /// Multi-predicate content-index probe: the elements matching
    /// `axis::test` from the context that satisfy **all** of `preds`
    /// (two or more statically recognized value predicates on one
    /// step, `//person[@id = "x"][profile/age > 30]`-shaped after
    /// pushdown). Produced by the rewriter when a second recognizable
    /// predicate lands on a [`Rel::ValueProbe`]; executes as a ranked
    /// posting-list intersection + range semijoin, a single best probe
    /// with residual verification, or the scalar scan — chosen per
    /// execution from the pessimistic degree-bound estimator.
    MultiProbe {
        /// Context relation.
        input: Box<Rel>,
        /// `Child`, `Descendant` or `DescendantOrSelf`.
        axis: Axis,
        /// The step's node test (`Name`; `AnyElement` for pure
        /// attribute-source predicate sets).
        test: NodeTest,
        /// The recognized predicates (all must hold; order as written,
        /// re-ranked by the estimator at execution time).
        preds: Vec<ValuePred>,
    },
    /// Node-set union (`|`), merged per iteration.
    Union {
        /// Left operand.
        left: Box<Rel>,
        /// Right operand.
        right: Box<Rel>,
    },
    /// A scalar value used as a node sequence (`$v/a`, `(expr)/a`).
    FromValue {
        /// The value-producing subplan.
        value: Box<Scalar>,
    },
    /// Loop-invariant subplan: evaluate once, broadcast to every
    /// iteration (the `Const` operator; inserted by the rewriter).
    Const {
        /// The hoisted subplan.
        rel: Box<Rel>,
    },
    /// A construct the plan layer cannot serve (e.g. a reverse axis
    /// from the virtual document node); fails at execution time with
    /// the interpreter's message.
    Unsupported {
        /// The error text.
        message: String,
    },
}

/// Scalar (one value per iteration) expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// String literal.
    Literal(String),
    /// Numeric literal.
    Number(f64),
    /// Variable reference (resolved against the bindings; always
    /// loop-invariant).
    Var(String),
    /// `or` with per-iteration short-circuit.
    Or(Box<Scalar>, Box<Scalar>),
    /// `and` with per-iteration short-circuit.
    And(Box<Scalar>, Box<Scalar>),
    /// Comparison with XPath 1.0 set semantics.
    Compare(CmpOp, Box<Scalar>, Box<Scalar>),
    /// Arithmetic.
    Arith(ArithOp, Box<Scalar>, Box<Scalar>),
    /// Unary minus.
    Neg(Box<Scalar>),
    /// Core-library function call (`position()`/`last()` included).
    Call(String, Vec<Scalar>),
    /// The `Agg` operator over a relational subplan.
    Agg(AggKind, Box<Rel>),
    /// A relational subplan used as a value (node-set or attribute-set).
    Nodes(Box<Rel>),
    /// Loop-invariant subtree: evaluate once, broadcast (the scalar
    /// `Const` marker; inserted by the rewriter).
    Const(Box<Scalar>),
}

/// Compiles an AST expression into the logical algebra (no rewrites).
pub fn compile(expr: &Expr) -> Scalar {
    match expr {
        Expr::Or(a, b) => Scalar::Or(Box::new(compile(a)), Box::new(compile(b))),
        Expr::And(a, b) => Scalar::And(Box::new(compile(a)), Box::new(compile(b))),
        Expr::Compare(op, a, b) => Scalar::Compare(*op, Box::new(compile(a)), Box::new(compile(b))),
        Expr::Arith(op, a, b) => Scalar::Arith(*op, Box::new(compile(a)), Box::new(compile(b))),
        Expr::Neg(e) => Scalar::Neg(Box::new(compile(e))),
        Expr::Literal(s) => Scalar::Literal(s.clone()),
        Expr::Number(n) => Scalar::Number(*n),
        Expr::Var(name) => Scalar::Var(name.clone()),
        Expr::Union(a, b) => Scalar::Nodes(Box::new(Rel::Union {
            left: Box::new(as_rel(compile(a))),
            right: Box::new(as_rel(compile(b))),
        })),
        Expr::Call(name, args) => {
            let compiled: Vec<Scalar> = args.iter().map(compile).collect();
            // `count`/`sum` over a relational argument become explicit
            // `Agg` operators (the rewriter then turns boolean-context
            // `count(e) > 0` into existence aggregates).
            if compiled.len() == 1 && matches!(name.as_str(), "count" | "sum") {
                if let Scalar::Nodes(_) = &compiled[0] {
                    let Some(Scalar::Nodes(rel)) = compiled.into_iter().next() else {
                        unreachable!("just matched");
                    };
                    let kind = if name == "count" {
                        AggKind::Count
                    } else {
                        AggKind::Sum
                    };
                    return Scalar::Agg(kind, rel);
                }
            }
            Scalar::Call(name.clone(), compiled)
        }
        Expr::Path(p) => Scalar::Nodes(Box::new(compile_path(p))),
    }
}

/// A scalar used where a relation is needed: relational subplans pass
/// through, anything else goes through a runtime-checked [`Rel::FromValue`].
fn as_rel(s: Scalar) -> Rel {
    match s {
        Scalar::Nodes(rel) => *rel,
        other => Rel::FromValue {
            value: Box::new(other),
        },
    }
}

fn compile_path(p: &PathExpr) -> Rel {
    let mut remaining = p.steps.as_slice();
    let mut rel = if let Some(start) = &p.start {
        Rel::FromValue {
            value: Box::new(compile(start)),
        }
    } else if p.absolute {
        // Absolute paths start at the (virtual) document node, whose
        // only tree child is the root element — the first step is
        // compiled against that approximation (see the interpreter's
        // `eval_step_from_document`).
        match remaining.split_first() {
            None => Rel::Root,
            Some((first, rest)) => {
                remaining = rest;
                match &first.test {
                    StepTest::Tree(Axis::Child | Axis::SelfAxis, test) => Rel::Step {
                        input: Box::new(Rel::Root),
                        axis: Axis::SelfAxis,
                        test: test.clone(),
                        preds: first
                            .predicates
                            .iter()
                            .map(|e| Pred::Expr(compile(e)))
                            .collect(),
                    },
                    StepTest::Tree(Axis::Descendant | Axis::DescendantOrSelf, test) => Rel::Step {
                        input: Box::new(Rel::Root),
                        axis: Axis::DescendantOrSelf,
                        test: test.clone(),
                        preds: first
                            .predicates
                            .iter()
                            .map(|e| Pred::Expr(compile(e)))
                            .collect(),
                    },
                    StepTest::Tree(axis, _) => Rel::Unsupported {
                        message: format!("axis {axis:?} cannot start from the document node"),
                    },
                    StepTest::Attribute(_) => Rel::Unsupported {
                        message: "the document node has no attributes".into(),
                    },
                }
            }
        }
    } else {
        Rel::Context
    };
    if !p.start_predicates.is_empty() {
        rel = Rel::GroupFilter {
            input: Box::new(rel),
            preds: p
                .start_predicates
                .iter()
                .map(|e| Pred::Expr(compile(e)))
                .collect(),
        };
    }
    for step in remaining {
        rel = match &step.test {
            StepTest::Tree(axis, test) => Rel::Step {
                input: Box::new(rel),
                axis: *axis,
                test: test.clone(),
                preds: step
                    .predicates
                    .iter()
                    .map(|e| Pred::Expr(compile(e)))
                    .collect(),
            },
            StepTest::Attribute(name) => Rel::AttrStep {
                input: Box::new(rel),
                name: name.clone(),
                has_preds: !step.predicates.is_empty(),
            },
        };
    }
    rel
}

// ---------------------------------------------------------------------
// Static analysis shared by the rewriter and the physical planner
// ---------------------------------------------------------------------

/// Conservative static type of a scalar, used to decide which
/// predicates are provably non-positional (a predicate whose value
/// could be a *number* selects by position and must keep the position
/// scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarType {
    /// Always boolean.
    Bool,
    /// Always a number.
    Num,
    /// Always a string.
    Str,
    /// Always a node/attribute set.
    Set,
    /// Statically unknown (variables, unknown functions).
    Unknown,
}

/// Infers the conservative [`ScalarType`] of `s`.
pub fn scalar_type(s: &Scalar) -> ScalarType {
    match s {
        Scalar::Literal(_) => ScalarType::Str,
        Scalar::Number(_) => ScalarType::Num,
        Scalar::Var(_) => ScalarType::Unknown,
        Scalar::Or(..) | Scalar::And(..) | Scalar::Compare(..) => ScalarType::Bool,
        Scalar::Arith(..) | Scalar::Neg(_) => ScalarType::Num,
        Scalar::Agg(AggKind::Exists, _) => ScalarType::Bool,
        Scalar::Agg(_, _) => ScalarType::Num,
        Scalar::Nodes(_) => ScalarType::Set,
        Scalar::Const(inner) => scalar_type(inner),
        Scalar::Call(name, _) => match name.as_str() {
            "boolean" | "not" | "true" | "false" | "contains" | "starts-with" => ScalarType::Bool,
            "count" | "sum" | "number" | "string-length" | "floor" | "ceiling" | "round"
            | "position" | "last" => ScalarType::Num,
            "string" | "normalize-space" | "concat" | "substring" | "substring-before"
            | "substring-after" | "translate" | "name" | "local-name" => ScalarType::Str,
            _ => ScalarType::Unknown,
        },
    }
}

/// Whether a predicate expression is provably non-positional: it never
/// yields a number (the position-selecting case) and never reads
/// `position()`/`last()`.
pub fn pred_is_non_positional(s: &Scalar) -> bool {
    matches!(
        scalar_type(s),
        ScalarType::Bool | ScalarType::Str | ScalarType::Set
    ) && !reads_position(s)
}

/// Whether `s` contains a `position()`/`last()` call *in the current
/// predicate scope* (nested step predicates re-bind the scope, so their
/// bodies do not count; relational subplans are scanned only through
/// scalar positions that stay in scope — which there are none of, so
/// recursion stops at `Rel` boundaries).
fn reads_position(s: &Scalar) -> bool {
    match s {
        Scalar::Literal(_) | Scalar::Number(_) | Scalar::Var(_) => false,
        Scalar::Or(a, b) | Scalar::And(a, b) => reads_position(a) || reads_position(b),
        Scalar::Compare(_, a, b) | Scalar::Arith(_, a, b) => reads_position(a) || reads_position(b),
        Scalar::Neg(e) | Scalar::Const(e) => reads_position(e),
        Scalar::Call(name, args) => {
            matches!(name.as_str(), "position" | "last") || args.iter().any(reads_position)
        }
        // A relation's internal predicates run in their own scopes.
        Scalar::Agg(_, _) | Scalar::Nodes(_) => false,
    }
}

/// Whether a relational plan is loop-invariant: it never reads the
/// surrounding iteration domain. Predicates are insulated — they
/// evaluate relative to the step's own candidates — so invariance is a
/// property of the context chain alone.
pub fn rel_invariant(r: &Rel) -> bool {
    match r {
        Rel::Context => false,
        Rel::Root | Rel::Unsupported { .. } | Rel::Const { .. } => true,
        Rel::Step { input, .. }
        | Rel::AttrStep { input, .. }
        | Rel::Filter { input, .. }
        | Rel::GroupFilter { input, .. }
        | Rel::ValueProbe { input, .. }
        | Rel::MultiProbe { input, .. } => rel_invariant(input),
        Rel::Union { left, right } => rel_invariant(left) && rel_invariant(right),
        Rel::FromValue { value } => scalar_invariant(value),
    }
}

/// Whether a scalar is loop-invariant (evaluating it once and
/// broadcasting is observably identical).
pub fn scalar_invariant(s: &Scalar) -> bool {
    match s {
        Scalar::Literal(_) | Scalar::Number(_) | Scalar::Var(_) | Scalar::Const(_) => true,
        Scalar::Or(a, b) | Scalar::And(a, b) => scalar_invariant(a) && scalar_invariant(b),
        Scalar::Compare(_, a, b) | Scalar::Arith(_, a, b) => {
            scalar_invariant(a) && scalar_invariant(b)
        }
        Scalar::Neg(e) => scalar_invariant(e),
        Scalar::Call(name, args) => {
            if matches!(name.as_str(), "position" | "last") {
                return false;
            }
            // Zero-argument context functions read the context node.
            if args.is_empty()
                && matches!(
                    name.as_str(),
                    "string"
                        | "number"
                        | "name"
                        | "local-name"
                        | "normalize-space"
                        | "string-length"
                )
            {
                return false;
            }
            args.iter().all(scalar_invariant)
        }
        Scalar::Agg(_, rel) | Scalar::Nodes(rel) => rel_invariant(rel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser;

    fn plan(src: &str) -> Scalar {
        let tokens = lexer::lex(src).unwrap();
        compile(&parser::parse(&tokens, src.len()).unwrap())
    }

    #[test]
    fn paths_compile_to_step_chains() {
        let Scalar::Nodes(rel) = plan("/site/people/person") else {
            panic!("path must compile to a relation");
        };
        // person <- people <- (self-from-root site) <- Root.
        let Rel::Step { input, axis, .. } = *rel else {
            panic!()
        };
        assert_eq!(axis, Axis::Child);
        let Rel::Step { input, axis, .. } = *input else {
            panic!()
        };
        assert_eq!(axis, Axis::Child);
        let Rel::Step { input, axis, .. } = *input else {
            panic!()
        };
        assert_eq!(axis, Axis::SelfAxis, "first absolute step binds the root");
        assert_eq!(*input, Rel::Root);
    }

    #[test]
    fn count_compiles_to_agg() {
        match plan("count(//item)") {
            Scalar::Agg(AggKind::Count, _) => {}
            other => panic!("expected Agg, got {other:?}"),
        }
    }

    #[test]
    fn predicates_stay_attached_at_compile_time() {
        let Scalar::Nodes(rel) = plan("//person[age]") else {
            panic!()
        };
        let Rel::Step { preds, .. } = *rel else {
            panic!()
        };
        assert_eq!(preds.len(), 1);
    }

    #[test]
    fn types_are_inferred_conservatively() {
        assert_eq!(scalar_type(&plan("1 + 2")), ScalarType::Num);
        assert_eq!(scalar_type(&plan("\"x\"")), ScalarType::Str);
        assert_eq!(scalar_type(&plan("a = b")), ScalarType::Bool);
        assert_eq!(scalar_type(&plan("a | b")), ScalarType::Set);
        assert_eq!(scalar_type(&plan("$v")), ScalarType::Unknown);
    }

    #[test]
    fn positional_predicates_are_detected() {
        assert!(pred_is_non_positional(&plan("@id = \"x\"")));
        assert!(pred_is_non_positional(&plan("contains(name, \"a\")")));
        assert!(!pred_is_non_positional(&plan("2")));
        assert!(
            !pred_is_non_positional(&plan("position() = 2")) || {
                // position()=2 is boolean-typed but reads the scope.
                false
            }
        );
        assert!(!pred_is_non_positional(&plan("count(x)")));
        assert!(!pred_is_non_positional(&plan("$v")));
    }

    #[test]
    fn invariance_follows_the_context_chain() {
        let abs = plan("//item");
        let Scalar::Nodes(rel) = &abs else { panic!() };
        assert!(rel_invariant(rel));
        let relpath = plan("item/name");
        let Scalar::Nodes(rel) = &relpath else {
            panic!()
        };
        assert!(!rel_invariant(rel));
        assert!(scalar_invariant(&plan("count(//item) > 2")));
        assert!(scalar_invariant(&plan("$v")));
        assert!(!scalar_invariant(&plan("string()")));
        assert!(!scalar_invariant(&plan("position()")));
    }
}
