//! Plan renderers: one line per operator, children indented — the
//! `explain()` surface for both plan levels.
//!
//! The logical rendering shows the algebra the rewriter produced
//! (fused steps, pushed-down filters, existence aggregates, `const`
//! hoist markers); the physical rendering additionally shows each axis
//! step's strategy slot (`staircase`, `name-index(n)`, or the
//! cost-chosen pair).

use crate::physical::{PhysPred, PhysRel, PhysScalar, StepStrategy};
use crate::plan::{AggKind, Operand, Pred, Rel, Scalar, ValuePred, ValueSource};
use crate::{MultiStrategy, StepFeedback};
use mbxq_axes::{Axis, NodeTest};
use std::fmt::Write as _;

fn axis_name(axis: Axis) -> &'static str {
    match axis {
        Axis::Child => "child",
        Axis::Descendant => "descendant",
        Axis::DescendantOrSelf => "descendant-or-self",
        Axis::Parent => "parent",
        Axis::Ancestor => "ancestor",
        Axis::AncestorOrSelf => "ancestor-or-self",
        Axis::FollowingSibling => "following-sibling",
        Axis::PrecedingSibling => "preceding-sibling",
        Axis::Following => "following",
        Axis::Preceding => "preceding",
        Axis::SelfAxis => "self",
    }
}

fn test_name(test: &NodeTest) -> String {
    match test {
        NodeTest::AnyNode => "node()".into(),
        NodeTest::AnyElement => "*".into(),
        NodeTest::Name(q) => q.to_string(),
        NodeTest::Text => "text()".into(),
        NodeTest::Comment => "comment()".into(),
        NodeTest::AnyPi => "processing-instruction()".into(),
        NodeTest::PiTarget(t) => format!("processing-instruction('{t}')"),
    }
}

/// `[@id = "x"]` / `[@id = $id]` / `[. > 50]` rendering of a
/// recognized value predicate — the comparison as written (source on
/// the left), with a parameter slot shown by name.
fn value_pred_label(pred: &ValuePred) -> String {
    let source = match &pred.source {
        ValueSource::SelfValue => ".".to_string(),
        ValueSource::Attr(a) => format!("@{a}"),
        ValueSource::Child(c) => c.to_string(),
    };
    let operand = match &pred.operand {
        Operand::Str(v) => format!("{v:?}"),
        Operand::Num(n) => n.to_string(),
        Operand::Param(name) => format!("${name}"),
    };
    format!("[{source} {} {operand}]", pred.op.symbol())
}

struct Printer<'a> {
    out: String,
    /// Recorded multi-predicate feedback, indexed by execution order
    /// (set only by [`physical_annotated`]).
    feedback: Option<&'a [StepFeedback]>,
}

impl Printer<'_> {
    fn line(&mut self, depth: usize, label: &str) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
        let _ = writeln!(self.out, "{label}");
    }
}

// ---------------------------------------------------------------------
// Logical
// ---------------------------------------------------------------------

/// Renders a logical plan.
pub fn logical(s: &Scalar) -> String {
    let mut p = Printer {
        out: String::new(),
        feedback: None,
    };
    scalar(&mut p, s, 0);
    p.out
}

fn scalar(p: &mut Printer, s: &Scalar, d: usize) {
    match s {
        Scalar::Literal(v) => p.line(d, &format!("literal {v:?}")),
        Scalar::Number(n) => p.line(d, &format!("number {n}")),
        Scalar::Var(name) => p.line(d, &format!("var ${name}")),
        Scalar::Or(a, b) => {
            p.line(d, "or (short-circuit)");
            scalar(p, a, d + 1);
            scalar(p, b, d + 1);
        }
        Scalar::And(a, b) => {
            p.line(d, "and (short-circuit)");
            scalar(p, a, d + 1);
            scalar(p, b, d + 1);
        }
        Scalar::Compare(op, a, b) => {
            p.line(d, &format!("compare {op:?}"));
            scalar(p, a, d + 1);
            scalar(p, b, d + 1);
        }
        Scalar::Arith(op, a, b) => {
            p.line(d, &format!("arith {op:?}"));
            scalar(p, a, d + 1);
            scalar(p, b, d + 1);
        }
        Scalar::Neg(e) => {
            p.line(d, "neg");
            scalar(p, e, d + 1);
        }
        Scalar::Call(name, args) => {
            p.line(d, &format!("call {name}()"));
            for a in args {
                scalar(p, a, d + 1);
            }
        }
        Scalar::Agg(kind, rel_plan) => {
            let k = match kind {
                AggKind::Count => "count",
                AggKind::Sum => "sum",
                AggKind::Exists => "exists (early-exit)",
            };
            p.line(d, &format!("agg {k}"));
            rel(p, rel_plan, d + 1);
        }
        Scalar::Nodes(rel_plan) => {
            p.line(d, "nodes");
            rel(p, rel_plan, d + 1);
        }
        Scalar::Const(inner) => {
            p.line(d, "const (hoisted: evaluates once)");
            scalar(p, inner, d + 1);
        }
    }
}

fn pred_line(kind: &Pred) -> Option<&'static str> {
    match kind {
        Pred::First => Some("pick first-per-group"),
        Pred::Last => Some("pick last-per-group"),
        Pred::Expr(_) => None,
    }
}

fn rel(p: &mut Printer, r: &Rel, d: usize) {
    match r {
        Rel::Context => p.line(d, "context"),
        Rel::Root => p.line(d, "root"),
        Rel::Step {
            input,
            axis,
            test,
            preds,
        } => {
            p.line(
                d,
                &format!("step {}::{}", axis_name(*axis), test_name(test)),
            );
            for pr in preds {
                match pred_line(pr) {
                    Some(label) => p.line(d + 1, label),
                    None => {
                        let Pred::Expr(s) = pr else { unreachable!() };
                        p.line(d + 1, "pred (position scope)");
                        scalar(p, s, d + 2);
                    }
                }
            }
            rel(p, input, d + 1);
        }
        Rel::AttrStep { input, name, .. } => {
            let label = match name {
                Some(n) => format!("attr-step @{n}"),
                None => "attr-step @*".into(),
            };
            p.line(d, &label);
            rel(p, input, d + 1);
        }
        Rel::Filter { input, pred } => {
            p.line(d, "filter (pushed down, no position scope)");
            scalar(p, pred, d + 1);
            rel(p, input, d + 1);
        }
        Rel::GroupFilter { input, preds } => {
            p.line(d, "group-filter (whole set per iteration)");
            for pr in preds {
                match pred_line(pr) {
                    Some(label) => p.line(d + 1, label),
                    None => {
                        let Pred::Expr(s) = pr else { unreachable!() };
                        p.line(d + 1, "pred");
                        scalar(p, s, d + 2);
                    }
                }
            }
            rel(p, input, d + 1);
        }
        Rel::ValueProbe {
            input,
            axis,
            test,
            pred,
        } => {
            p.line(
                d,
                &format!(
                    "value-probe {}::{}{}",
                    axis_name(*axis),
                    test_name(test),
                    value_pred_label(pred)
                ),
            );
            rel(p, input, d + 1);
        }
        Rel::MultiProbe {
            input,
            axis,
            test,
            preds,
        } => {
            let labels: String = preds.iter().map(value_pred_label).collect();
            p.line(
                d,
                &format!(
                    "multi-probe {}::{}{labels}",
                    axis_name(*axis),
                    test_name(test),
                ),
            );
            rel(p, input, d + 1);
        }
        Rel::Union { left, right } => {
            p.line(d, "union");
            rel(p, left, d + 1);
            rel(p, right, d + 1);
        }
        Rel::FromValue { value } => {
            p.line(d, "from-value");
            scalar(p, value, d + 1);
        }
        Rel::Const { rel: inner } => {
            p.line(d, "const (hoisted: evaluates once)");
            rel(p, inner, d + 1);
        }
        Rel::Unsupported { message } => p.line(d, &format!("unsupported: {message}")),
    }
}

// ---------------------------------------------------------------------
// Physical
// ---------------------------------------------------------------------

/// Renders a physical plan, strategy slots included.
pub fn physical(s: &PhysScalar) -> String {
    let mut p = Printer {
        out: String::new(),
        feedback: None,
    };
    phys_scalar(&mut p, s, 0);
    p.out
}

/// Renders a physical plan with each multi-predicate step annotated by
/// its recorded estimated-vs-observed cardinality and the strategy that
/// ran (from a [`crate::PlanFeedback`] snapshot, indexed by execution
/// order — inputs execute before the steps consuming them, so a step's
/// index is the number of multi-probe operators below it).
pub fn physical_annotated(s: &PhysScalar, feedback: &[StepFeedback]) -> String {
    let mut p = Printer {
        out: String::new(),
        feedback: Some(feedback),
    };
    phys_scalar(&mut p, s, 0);
    p.out
}

/// `scalar-scan` / `probe(#i)` / `intersect(#i ∩ #j …)` rendering of a
/// recorded [`MultiStrategy`].
fn multi_strategy_label(s: &MultiStrategy) -> String {
    match s {
        MultiStrategy::Scan => "scalar-scan".into(),
        MultiStrategy::Probe(order) if order.len() == 1 => format!("probe(#{})", order[0]),
        MultiStrategy::Probe(order) => {
            let joined: Vec<String> = order.iter().map(|i| format!("#{i}")).collect();
            format!("intersect({})", joined.join(" ∩ "))
        }
    }
}

/// Multi-probe operators in the subtree under `r` — the execution-order
/// index of the operator directly above it (every input runs first).
fn count_multi_rel(r: &PhysRel) -> usize {
    match r {
        PhysRel::Context | PhysRel::Root => 0,
        PhysRel::Step { input, preds, .. } => {
            let nested: usize = preds
                .iter()
                .map(|pr| match pr {
                    PhysPred::Expr(s) => count_multi_scalar(s),
                    _ => 0,
                })
                .sum();
            count_multi_rel(input) + nested
        }
        PhysRel::GroupFilter { input, preds } => {
            let nested: usize = preds
                .iter()
                .map(|pr| match pr {
                    PhysPred::Expr(s) => count_multi_scalar(s),
                    _ => 0,
                })
                .sum();
            count_multi_rel(input) + nested
        }
        PhysRel::AttrStep { input, .. } => count_multi_rel(input),
        PhysRel::Filter { input, pred } => count_multi_rel(input) + count_multi_scalar(pred),
        PhysRel::ValueProbe { input, .. } => count_multi_rel(input),
        PhysRel::MultiProbe { input, .. } => count_multi_rel(input) + 1,
        PhysRel::Union { left, right } => count_multi_rel(left) + count_multi_rel(right),
        PhysRel::FromValue { value } => count_multi_scalar(value),
        PhysRel::Const(inner) => count_multi_rel(inner),
        PhysRel::Unsupported { .. } => 0,
    }
}

fn count_multi_scalar(s: &PhysScalar) -> usize {
    match s {
        PhysScalar::Literal(_) | PhysScalar::Number(_) | PhysScalar::Var(_) => 0,
        PhysScalar::Or(a, b) | PhysScalar::And(a, b) => {
            count_multi_scalar(a) + count_multi_scalar(b)
        }
        PhysScalar::Compare(_, a, b) | PhysScalar::Arith(_, a, b) => {
            count_multi_scalar(a) + count_multi_scalar(b)
        }
        PhysScalar::Neg(e) | PhysScalar::Const(e) => count_multi_scalar(e),
        PhysScalar::Call(_, args) => args.iter().map(count_multi_scalar).sum(),
        PhysScalar::Count(r)
        | PhysScalar::Sum(r)
        | PhysScalar::Exists(r)
        | PhysScalar::Nodes(r) => count_multi_rel(r),
    }
}

fn phys_scalar(p: &mut Printer, s: &PhysScalar, d: usize) {
    match s {
        PhysScalar::Literal(v) => p.line(d, &format!("literal {v:?}")),
        PhysScalar::Number(n) => p.line(d, &format!("number {n}")),
        PhysScalar::Var(name) => p.line(d, &format!("var ${name}")),
        PhysScalar::Or(a, b) => {
            p.line(d, "or (short-circuit)");
            phys_scalar(p, a, d + 1);
            phys_scalar(p, b, d + 1);
        }
        PhysScalar::And(a, b) => {
            p.line(d, "and (short-circuit)");
            phys_scalar(p, a, d + 1);
            phys_scalar(p, b, d + 1);
        }
        PhysScalar::Compare(op, a, b) => {
            p.line(d, &format!("compare {op:?}"));
            phys_scalar(p, a, d + 1);
            phys_scalar(p, b, d + 1);
        }
        PhysScalar::Arith(op, a, b) => {
            p.line(d, &format!("arith {op:?}"));
            phys_scalar(p, a, d + 1);
            phys_scalar(p, b, d + 1);
        }
        PhysScalar::Neg(e) => {
            p.line(d, "neg");
            phys_scalar(p, e, d + 1);
        }
        PhysScalar::Call(name, args) => {
            p.line(d, &format!("call {name}()"));
            for a in args {
                phys_scalar(p, a, d + 1);
            }
        }
        PhysScalar::Count(r) => {
            p.line(d, "agg count");
            phys_rel(p, r, d + 1);
        }
        PhysScalar::Sum(r) => {
            p.line(d, "agg sum");
            phys_rel(p, r, d + 1);
        }
        PhysScalar::Exists(r) => {
            p.line(d, "agg exists (early-exit)");
            phys_rel(p, r, d + 1);
        }
        PhysScalar::Nodes(r) => {
            p.line(d, "nodes");
            phys_rel(p, r, d + 1);
        }
        PhysScalar::Const(inner) => {
            p.line(d, "const (hoisted: evaluates once)");
            phys_scalar(p, inner, d + 1);
        }
    }
}

fn strategy_label(s: &StepStrategy) -> String {
    match s {
        StepStrategy::Staircase => "[staircase]".into(),
        StepStrategy::Cost(n) => format!("[cost-chosen: staircase vs name-index({n})]"),
    }
}

fn phys_rel(p: &mut Printer, r: &PhysRel, d: usize) {
    match r {
        PhysRel::Context => p.line(d, "context"),
        PhysRel::Root => p.line(d, "root"),
        PhysRel::Step {
            input,
            axis,
            test,
            preds,
            strategy,
        } => {
            p.line(
                d,
                &format!(
                    "step {}::{} {}",
                    axis_name(*axis),
                    test_name(test),
                    strategy_label(strategy)
                ),
            );
            for pr in preds {
                match pr {
                    PhysPred::First => p.line(d + 1, "pick first-per-group"),
                    PhysPred::Last => p.line(d + 1, "pick last-per-group"),
                    PhysPred::Expr(s) => {
                        p.line(d + 1, "pred (position scope)");
                        phys_scalar(p, s, d + 2);
                    }
                }
            }
            phys_rel(p, input, d + 1);
        }
        PhysRel::AttrStep { input, name, .. } => {
            let label = match name {
                Some(n) => format!("attr-step @{n}"),
                None => "attr-step @*".into(),
            };
            p.line(d, &label);
            phys_rel(p, input, d + 1);
        }
        PhysRel::Filter { input, pred } => {
            p.line(d, "filter (pushed down, no position scope)");
            phys_scalar(p, pred, d + 1);
            phys_rel(p, input, d + 1);
        }
        PhysRel::GroupFilter { input, preds } => {
            p.line(d, "group-filter (whole set per iteration)");
            for pr in preds {
                match pr {
                    PhysPred::First => p.line(d + 1, "pick first-per-group"),
                    PhysPred::Last => p.line(d + 1, "pick last-per-group"),
                    PhysPred::Expr(s) => {
                        p.line(d + 1, "pred");
                        phys_scalar(p, s, d + 2);
                    }
                }
            }
            phys_rel(p, input, d + 1);
        }
        PhysRel::ValueProbe {
            input,
            axis,
            test,
            pred,
        } => {
            p.line(
                d,
                &format!(
                    "value-probe {}::{}{} [cost-chosen: scalar-scan vs content-index ⋉ context]",
                    axis_name(*axis),
                    test_name(test),
                    value_pred_label(pred)
                ),
            );
            phys_rel(p, input, d + 1);
        }
        PhysRel::MultiProbe {
            input,
            axis,
            test,
            preds,
        } => {
            p.line(
                d,
                &format!(
                    "multi-probe {}::{} [cost-chosen: scalar-scan vs best-probe vs intersect]",
                    axis_name(*axis),
                    test_name(test),
                ),
            );
            for (i, pred) in preds.iter().enumerate() {
                let mut label = format!("pred #{i} {}", value_pred_label(pred));
                if let Some(fb) = p.feedback {
                    let seq = count_multi_rel(input);
                    if let Some(Some(n)) = fb.get(seq).and_then(|s| s.pred_lists.get(i)) {
                        let _ = write!(label, " — postings={n}");
                    }
                }
                p.line(d + 1, &label);
            }
            if let Some(fb) = p.feedback {
                let seq = count_multi_rel(input);
                match fb.get(seq) {
                    Some(s) => p.line(
                        d + 1,
                        &format!(
                            "cardinality est≈{} obs={} via {}{}",
                            s.estimated,
                            s.observed,
                            multi_strategy_label(&s.strategy),
                            if s.diverged() { " (diverged)" } else { "" },
                        ),
                    ),
                    None => p.line(d + 1, "cardinality not yet observed"),
                }
            }
            phys_rel(p, input, d + 1);
        }
        PhysRel::Union { left, right } => {
            p.line(d, "union");
            phys_rel(p, left, d + 1);
            phys_rel(p, right, d + 1);
        }
        PhysRel::FromValue { value } => {
            p.line(d, "from-value");
            phys_scalar(p, value, d + 1);
        }
        PhysRel::Const(inner) => {
            p.line(d, "const (hoisted: evaluates once)");
            phys_rel(p, inner, d + 1);
        }
        PhysRel::Unsupported { message } => p.line(d, &format!("unsupported: {message}")),
    }
}
