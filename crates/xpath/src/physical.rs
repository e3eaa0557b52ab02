//! Physical plans: the rewritten logical algebra lowered onto concrete
//! operators, with a **strategy slot** on every axis step.
//!
//! Lowering is shape-preserving — the executor (internal `eval`) keeps
//! the loop-lifted discipline either way — but each `Step` is annotated
//! with how its axis may be evaluated:
//!
//! * [`StepStrategy::Staircase`] — the staircase join + name filter
//!   (the interpreter's only path). Chosen for every axis/test the
//!   index cannot serve.
//! * [`StepStrategy::Cost`] — decided **per execution** from live
//!   statistics between the staircase join and the index join: the
//!   element-name-index probe
//!   ([`mbxq_storage::TreeView::elements_named_in`], cut to the window
//!   the context's regions span) followed by a range semijoin back to
//!   the context ([`mbxq_axes::range_semijoin`]). The index arm is
//!   charged `k + 8·|context|` (the name's posting count plus a flat
//!   per-context-node fee for its binary searches), the staircase arm
//!   `2·Σ (size(c)+1)` plus the same per-node fee (the executor's
//!   `index_cheaper`). Statistics come from the view at run time, so
//!   one cached plan adapts as the document grows or shrinks; the
//!   [`crate::AxisChoice`] evaluation option pins either arm — it is
//!   the forced form of the index join — for the oracle tests.
//!
//! Name tests on `child`, `descendant` and `descendant-or-self` axes
//! are the indexable shapes (the semijoin needs the candidates inside
//! the context region); everything else lowers to `Staircase`.
//!
//! An existence test over such a step — `[name]`, `[not(name)]`,
//! `[.//name]` — reads the same slot: its early-exit arm is either the
//! per-row scan that stops at the first hit
//! ([`mbxq_axes::exists_step`]) or the (anti-)semijoin of the rows
//! against the index ([`mbxq_axes::exists_semijoin`]).

use crate::ast::{ArithOp, CmpOp};
use crate::plan::{AggKind, Pred, Rel, Scalar, ValuePred};
use mbxq_axes::{Axis, NodeTest};
use mbxq_xml::QName;

/// How an axis step may be evaluated (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum StepStrategy {
    /// Staircase join + name filter (always available).
    Staircase,
    /// Cost-chosen per execution between the staircase join and the
    /// element-name-index probe + range semijoin.
    Cost(QName),
}

/// A physical predicate slot (mirrors [`Pred`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPred {
    /// Keep each group's first row.
    First,
    /// Keep each group's last row.
    Last,
    /// General predicate with position semantics.
    Expr(PhysScalar),
}

/// Physical relational operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysRel {
    /// The evaluation context.
    Context,
    /// The document root element.
    Root,
    /// One axis step with its strategy slot.
    Step {
        /// Context relation.
        input: Box<PhysRel>,
        /// The axis.
        axis: Axis,
        /// The node test.
        test: NodeTest,
        /// Position-scoped predicates.
        preds: Vec<PhysPred>,
        /// How the axis is evaluated.
        strategy: StepStrategy,
    },
    /// The attribute step.
    AttrStep {
        /// Owner relation.
        input: Box<PhysRel>,
        /// Attribute name (`None` = `@*`).
        name: Option<QName>,
        /// Predicates present on the source step (unsupported).
        has_preds: bool,
    },
    /// Pushed-down non-positional row filter.
    Filter {
        /// Input relation.
        input: Box<PhysRel>,
        /// The predicate.
        pred: Box<PhysScalar>,
    },
    /// Whole-group predicates (`(expr)[pred]` scope).
    GroupFilter {
        /// Input relation.
        input: Box<PhysRel>,
        /// The predicates.
        preds: Vec<PhysPred>,
    },
    /// Value-predicate step: `axis::test` from the context restricted
    /// to candidates satisfying `pred`. The predicate's operand is a
    /// slot ([`crate::plan::Operand`]) resolved against the bindings at
    /// the top of each execution; the strategy is then decided **per
    /// execution and per key** from live statistics: the content
    /// index's posting-list estimate for the resolved key vs the
    /// context's region sizes —
    /// either a content-index probe + range semijoin, or the scalar
    /// scan (step + per-candidate predicate evaluation) it replaced.
    /// Forceable via [`crate::ValueChoice`]; counted in
    /// [`crate::EvalStats`].
    ValueProbe {
        /// Context relation.
        input: Box<PhysRel>,
        /// `Child`, `Descendant` or `DescendantOrSelf`.
        axis: Axis,
        /// The step's node test.
        test: NodeTest,
        /// The recognized value predicate.
        pred: ValuePred,
    },
    /// Multi-predicate value step: `axis::test` from the context with
    /// **all** of `preds` conjoined. Slots resolve as for
    /// [`PhysRel::ValueProbe`]; the strategy is decided per
    /// execution from the pessimistic degree-bound estimator
    /// (per-index max/avg-postings statistics): rank the indexable
    /// predicates by their cardinality bound, then choose between a
    /// ranked posting-list intersection + range semijoin, the single
    /// best probe with residual verification, or the scalar scan.
    /// Forceable via [`crate::ValueChoice`]; counted in
    /// [`crate::EvalStats`].
    MultiProbe {
        /// Context relation.
        input: Box<PhysRel>,
        /// `Child`, `Descendant` or `DescendantOrSelf`.
        axis: Axis,
        /// The step's node test.
        test: NodeTest,
        /// The recognized value predicates (≥ 2).
        preds: Vec<ValuePred>,
    },
    /// Per-iteration node-set union.
    Union {
        /// Left operand.
        left: Box<PhysRel>,
        /// Right operand.
        right: Box<PhysRel>,
    },
    /// A scalar value used as a node sequence.
    FromValue {
        /// The value-producing subplan.
        value: Box<PhysScalar>,
    },
    /// Loop-invariant subplan: evaluate once, broadcast.
    Const(Box<PhysRel>),
    /// Fails at execution time.
    Unsupported {
        /// The error text.
        message: String,
    },
}

/// Physical scalar operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysScalar {
    /// String literal.
    Literal(String),
    /// Numeric literal.
    Number(f64),
    /// Variable reference.
    Var(String),
    /// Short-circuit `or`.
    Or(Box<PhysScalar>, Box<PhysScalar>),
    /// Short-circuit `and`.
    And(Box<PhysScalar>, Box<PhysScalar>),
    /// Comparison.
    Compare(CmpOp, Box<PhysScalar>, Box<PhysScalar>),
    /// Arithmetic.
    Arith(ArithOp, Box<PhysScalar>, Box<PhysScalar>),
    /// Unary minus.
    Neg(Box<PhysScalar>),
    /// Function call.
    Call(String, Vec<PhysScalar>),
    /// Group cardinality.
    Count(Box<PhysRel>),
    /// Numeric sum over group string values.
    Sum(Box<PhysRel>),
    /// Group non-emptiness with early exit.
    Exists(Box<PhysRel>),
    /// A relation used as a value.
    Nodes(Box<PhysRel>),
    /// Loop-invariant subtree: evaluate once, broadcast.
    Const(Box<PhysScalar>),
}

/// Lowers a rewritten logical plan to its physical form.
pub fn lower(s: &Scalar) -> PhysScalar {
    match s {
        Scalar::Literal(v) => PhysScalar::Literal(v.clone()),
        Scalar::Number(n) => PhysScalar::Number(*n),
        Scalar::Var(name) => PhysScalar::Var(name.clone()),
        Scalar::Or(a, b) => PhysScalar::Or(Box::new(lower(a)), Box::new(lower(b))),
        Scalar::And(a, b) => PhysScalar::And(Box::new(lower(a)), Box::new(lower(b))),
        Scalar::Compare(op, a, b) => {
            PhysScalar::Compare(*op, Box::new(lower(a)), Box::new(lower(b)))
        }
        Scalar::Arith(op, a, b) => PhysScalar::Arith(*op, Box::new(lower(a)), Box::new(lower(b))),
        Scalar::Neg(e) => PhysScalar::Neg(Box::new(lower(e))),
        Scalar::Call(name, args) => {
            PhysScalar::Call(name.clone(), args.iter().map(lower).collect())
        }
        Scalar::Agg(AggKind::Count, rel) => PhysScalar::Count(Box::new(lower_rel(rel))),
        Scalar::Agg(AggKind::Sum, rel) => PhysScalar::Sum(Box::new(lower_rel(rel))),
        Scalar::Agg(AggKind::Exists, rel) => PhysScalar::Exists(Box::new(lower_rel(rel))),
        Scalar::Nodes(rel) => PhysScalar::Nodes(Box::new(lower_rel(rel))),
        Scalar::Const(inner) => PhysScalar::Const(Box::new(lower(inner))),
    }
}

fn lower_rel(r: &Rel) -> PhysRel {
    match r {
        Rel::Context => PhysRel::Context,
        Rel::Root => PhysRel::Root,
        Rel::Step {
            input,
            axis,
            test,
            preds,
        } => PhysRel::Step {
            input: Box::new(lower_rel(input)),
            axis: *axis,
            test: test.clone(),
            preds: preds.iter().map(lower_pred).collect(),
            strategy: choose_strategy(*axis, test),
        },
        Rel::AttrStep {
            input,
            name,
            has_preds,
        } => PhysRel::AttrStep {
            input: Box::new(lower_rel(input)),
            name: name.clone(),
            has_preds: *has_preds,
        },
        Rel::Filter { input, pred } => PhysRel::Filter {
            input: Box::new(lower_rel(input)),
            pred: Box::new(lower(pred)),
        },
        Rel::GroupFilter { input, preds } => PhysRel::GroupFilter {
            input: Box::new(lower_rel(input)),
            preds: preds.iter().map(lower_pred).collect(),
        },
        Rel::ValueProbe {
            input,
            axis,
            test,
            pred,
        } => PhysRel::ValueProbe {
            input: Box::new(lower_rel(input)),
            axis: *axis,
            test: test.clone(),
            pred: pred.clone(),
        },
        Rel::MultiProbe {
            input,
            axis,
            test,
            preds,
        } => PhysRel::MultiProbe {
            input: Box::new(lower_rel(input)),
            axis: *axis,
            test: test.clone(),
            preds: preds.clone(),
        },
        Rel::Union { left, right } => PhysRel::Union {
            left: Box::new(lower_rel(left)),
            right: Box::new(lower_rel(right)),
        },
        Rel::FromValue { value } => PhysRel::FromValue {
            value: Box::new(lower(value)),
        },
        Rel::Const { rel } => PhysRel::Const(Box::new(lower_rel(rel))),
        Rel::Unsupported { message } => PhysRel::Unsupported {
            message: message.clone(),
        },
    }
}

fn lower_pred(p: &Pred) -> PhysPred {
    match p {
        Pred::First => PhysPred::First,
        Pred::Last => PhysPred::Last,
        Pred::Expr(s) => PhysPred::Expr(lower(s)),
    }
}

/// The indexable shapes get a cost slot; everything else is staircase.
fn choose_strategy(axis: Axis, test: &NodeTest) -> StepStrategy {
    match (axis, test) {
        (Axis::Child | Axis::Descendant | Axis::DescendantOrSelf, NodeTest::Name(name)) => {
            StepStrategy::Cost(name.clone())
        }
        _ => StepStrategy::Staircase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile;
    use crate::rewrite::rewrite;
    use crate::{lexer, parser};

    fn phys(src: &str) -> PhysScalar {
        let tokens = lexer::lex(src).unwrap();
        lower(&rewrite(compile(
            &parser::parse(&tokens, src.len()).unwrap(),
        )))
    }

    fn strip(s: &PhysScalar) -> &PhysScalar {
        match s {
            PhysScalar::Const(inner) => strip(inner),
            other => other,
        }
    }

    #[test]
    fn name_steps_get_cost_slots() {
        let plan = phys("//item");
        let PhysScalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let PhysRel::Step { strategy, .. } = &**rel else {
            panic!("got {rel:?}")
        };
        assert!(matches!(strategy, StepStrategy::Cost(name) if name.local == "item"));
    }

    #[test]
    fn non_name_steps_stay_staircase() {
        let plan = phys("//text()");
        let PhysScalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let PhysRel::Step { strategy, .. } = &**rel else {
            panic!("got {rel:?}")
        };
        assert_eq!(*strategy, StepStrategy::Staircase);
    }
}
