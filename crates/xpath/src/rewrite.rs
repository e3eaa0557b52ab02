//! The rule-based plan rewriter.
//!
//! Four rewrite families run over the logical plan, bottom-up, followed
//! by an explicit hoisting pass:
//!
//! 1. **Existence conversion** — `count(e) > 0`, `count(e) != 0`,
//!    `count(e) >= 1` (and mirrored forms) become `Agg(exists)`, as do
//!    bare node-set operands in boolean contexts (`[e]`, `a and b`,
//!    `not(e)`, `boolean(e)`). The executor serves existence aggregates
//!    with an early-exit probe instead of materializing the node set.
//! 2. **Positional short-circuit** — `[1]`, `[position() = 1]`,
//!    `[last()]` and `[position() = last()]` become first/last *picks*
//!    executed without position vectors.
//! 3. **Predicate pushdown** — a step whose predicates are all provably
//!    non-positional ([`plan::pred_is_non_positional`]) sheds them into
//!    explicit [`Rel::Filter`] operators above the step: the executor
//!    then skips the per-context-node expansion/regroup dance that the
//!    `position()` scope would otherwise require.
//! 4. **Step fusion** — `descendant-or-self::node()/child::t` (the `//`
//!    expansion) fuses into one `descendant::t` step, and bare
//!    `self::node()` steps vanish. Fusion only fires on predicate-free
//!    steps, which pushdown has just maximized; positional predicates
//!    keep their step un-fused, preserving the per-parent `position()`
//!    scope of `//x[1]`.
//!
//! 5. **Value-predicate lowering** — a pushed-down filter whose
//!    predicate is a statically recognizable comparison of a
//!    candidate-relative value source against a **slot** — a string
//!    literal, a numeric literal or a `$param` (`[@a = "lit"]`,
//!    `[. = $v]`, `[child = 9]`, and `<`/`<=`/`>`/`>=` likewise) —
//!    sitting directly on an indexable step becomes a
//!    [`Rel::ValueProbe`]: the content index serves the value lookup
//!    and a range semijoin restores the structural relationship. The
//!    rule reads only the operand's *kind*, never its value: the
//!    executor resolves the slot when the step runs (string →
//!    equality key, or `number()` for an order operator; number →
//!    interval; any other bound type → the scan arm with the general
//!    comparison), so a parameter bound at execution time and a literal
//!    written in the text take the same path, and the probe-vs-scan
//!    choice is made from the resolved key's live posting count.
//!    Positional predicates never reach this rule — pushdown (which
//!    gates on `position()`/`last()`-freedom and non-numeric static
//!    type) runs first, so anything positional is still attached to its
//!    step.
//!
//! The final pass wraps maximal loop-invariant subtrees in explicit
//! `Const` markers — the plan-level replacement for the interpreter's
//! ad-hoc `Lifted::Const` hoisting — so `explain` output shows exactly
//! what evaluates once per query rather than once per iteration.

use crate::ast::CmpOp;
use crate::plan::{self, AggKind, Operand, Pred, Rel, Scalar, ValuePred, ValueSource};
use mbxq_axes::{Axis, NodeTest};

/// Rewrites a compiled logical plan (all rule families + hoisting).
pub fn rewrite(s: Scalar) -> Scalar {
    let s = rw_scalar(s, false);
    hoist_scalar(s)
}

// ---------------------------------------------------------------------
// Bottom-up rules
// ---------------------------------------------------------------------

/// Rewrites a scalar; `boolean_ctx` marks positions whose value is
/// immediately coerced to a boolean (existence conversion applies).
fn rw_scalar(s: Scalar, boolean_ctx: bool) -> Scalar {
    let out = match s {
        Scalar::Or(a, b) => {
            Scalar::Or(Box::new(rw_scalar(*a, true)), Box::new(rw_scalar(*b, true)))
        }
        Scalar::And(a, b) => {
            Scalar::And(Box::new(rw_scalar(*a, true)), Box::new(rw_scalar(*b, true)))
        }
        Scalar::Compare(op, a, b) => {
            let a = rw_scalar(*a, false);
            let b = rw_scalar(*b, false);
            match count_comparison(op, &a, &b) {
                Some(replacement) => replacement,
                None => Scalar::Compare(op, Box::new(a), Box::new(b)),
            }
        }
        Scalar::Arith(op, a, b) => Scalar::Arith(
            op,
            Box::new(rw_scalar(*a, false)),
            Box::new(rw_scalar(*b, false)),
        ),
        Scalar::Neg(e) => Scalar::Neg(Box::new(rw_scalar(*e, false))),
        Scalar::Call(name, args) => {
            let arg_is_boolean = args.len() == 1 && matches!(name.as_str(), "not" | "boolean");
            let args = args
                .into_iter()
                .map(|a| rw_scalar(a, arg_is_boolean))
                .collect();
            Scalar::Call(name, args)
        }
        Scalar::Agg(kind, rel) => Scalar::Agg(kind, Box::new(rw_rel(*rel))),
        Scalar::Nodes(rel) => Scalar::Nodes(Box::new(rw_rel(*rel))),
        leaf @ (Scalar::Literal(_) | Scalar::Number(_) | Scalar::Var(_) | Scalar::Const(_)) => leaf,
    };
    if boolean_ctx {
        if let Scalar::Nodes(rel) = out {
            // A node set in a boolean context only asks "non-empty?".
            return Scalar::Agg(AggKind::Exists, rel);
        }
    }
    out
}

/// `count(e) <op> n` forms that reduce to (negated) existence.
fn count_comparison(op: CmpOp, a: &Scalar, b: &Scalar) -> Option<Scalar> {
    // Normalize to `count(e) <op> n`.
    let (op, rel, n) = match (a, b) {
        (Scalar::Agg(AggKind::Count, rel), Scalar::Number(n)) => (op, rel, *n),
        (Scalar::Number(n), Scalar::Agg(AggKind::Count, rel)) => (op.flipped(), rel, *n),
        _ => return None,
    };
    let exists = || Scalar::Agg(AggKind::Exists, rel.clone());
    let not_exists = || {
        Scalar::Call(
            "not".into(),
            vec![Scalar::Agg(AggKind::Exists, rel.clone())],
        )
    };
    match op {
        CmpOp::Gt if n == 0.0 => Some(exists()),
        CmpOp::Ge if n == 1.0 => Some(exists()),
        CmpOp::Ne if n == 0.0 => Some(exists()),
        CmpOp::Eq if n == 0.0 => Some(not_exists()),
        CmpOp::Lt if n == 1.0 => Some(not_exists()),
        CmpOp::Le if n == 0.0 => Some(not_exists()),
        _ => None,
    }
}

fn rw_rel(r: Rel) -> Rel {
    let out = match r {
        Rel::Step {
            input,
            axis,
            test,
            preds,
        } => {
            let input = rw_rel(*input);
            let preds: Vec<Pred> = preds.into_iter().map(rw_pred).collect();
            // Predicate pushdown: a step whose predicates are all
            // provably non-positional sheds them into Filter operators.
            if !preds.is_empty() && preds.iter().all(pushable) {
                // Fuse the now predicate-free step before stacking the
                // filters on top of it.
                let mut rel = fuse(Rel::Step {
                    input: Box::new(input),
                    axis,
                    test,
                    preds: Vec::new(),
                });
                for p in preds {
                    let Pred::Expr(s) = p else {
                        unreachable!("pushable excludes picks")
                    };
                    rel = make_filter(rel, s);
                }
                rel
            } else {
                Rel::Step {
                    input: Box::new(input),
                    axis,
                    test,
                    preds,
                }
            }
        }
        Rel::AttrStep {
            input,
            name,
            has_preds,
        } => Rel::AttrStep {
            input: Box::new(rw_rel(*input)),
            name,
            has_preds,
        },
        Rel::Filter { input, pred } => {
            let input = rw_rel(*input);
            make_filter(input, rw_scalar(*pred, true))
        }
        Rel::ValueProbe {
            input,
            axis,
            test,
            pred,
        } => Rel::ValueProbe {
            input: Box::new(rw_rel(*input)),
            axis,
            test,
            pred,
        },
        Rel::MultiProbe {
            input,
            axis,
            test,
            preds,
        } => Rel::MultiProbe {
            input: Box::new(rw_rel(*input)),
            axis,
            test,
            preds,
        },
        Rel::GroupFilter { input, preds } => {
            let input = rw_rel(*input);
            let preds: Vec<Pred> = preds.into_iter().map(rw_pred).collect();
            if !preds.is_empty() && preds.iter().all(pushable) {
                let mut rel = input;
                for p in preds {
                    let Pred::Expr(s) = p else {
                        unreachable!("pushable excludes picks")
                    };
                    rel = make_filter(rel, s);
                }
                rel
            } else {
                Rel::GroupFilter {
                    input: Box::new(input),
                    preds,
                }
            }
        }
        Rel::Union { left, right } => Rel::Union {
            left: Box::new(rw_rel(*left)),
            right: Box::new(rw_rel(*right)),
        },
        Rel::FromValue { value } => Rel::FromValue {
            value: Box::new(rw_scalar(*value, false)),
        },
        Rel::Const { rel } => Rel::Const {
            rel: Box::new(rw_rel(*rel)),
        },
        leaf @ (Rel::Context | Rel::Root | Rel::Unsupported { .. }) => leaf,
    };
    fuse(out)
}

/// Builds a pushed-down row filter — lowering it into a
/// [`Rel::ValueProbe`] when the input is a predicate-free indexable
/// step and the predicate is a recognizable slot comparison
/// (rule 5 of the module docs). Because pushdown folds a step's
/// predicates through here one at a time, a *second* recognizable
/// predicate lands on the just-built `ValueProbe` and upgrades it to a
/// [`Rel::MultiProbe`]; third and later ones append. The fold is
/// order-safe: pushdown already proved every predicate non-positional,
/// so they are pure per-candidate filters over one candidate set and
/// conjunction commutes. Unrecognizable predicates wrap the probe in a
/// plain `Filter` as before (the residual verify pass).
fn make_filter(input: Rel, pred: Scalar) -> Rel {
    let input = match input {
        Rel::Step {
            input: step_in,
            axis,
            test,
            preds,
        } if preds.is_empty()
            && matches!(
                axis,
                Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
            ) =>
        {
            match value_pred_of(&pred, &test) {
                Some(vp) => {
                    return Rel::ValueProbe {
                        input: step_in,
                        axis,
                        test,
                        pred: vp,
                    }
                }
                None => Rel::Step {
                    input: step_in,
                    axis,
                    test,
                    preds,
                },
            }
        }
        Rel::ValueProbe {
            input: probe_in,
            axis,
            test,
            pred: first,
        } => match value_pred_of(&pred, &test) {
            Some(vp) => {
                return Rel::MultiProbe {
                    input: probe_in,
                    axis,
                    test,
                    preds: vec![first, vp],
                }
            }
            None => Rel::ValueProbe {
                input: probe_in,
                axis,
                test,
                pred: first,
            },
        },
        Rel::MultiProbe {
            input: probe_in,
            axis,
            test,
            mut preds,
        } => match value_pred_of(&pred, &test) {
            Some(vp) => {
                preds.push(vp);
                return Rel::MultiProbe {
                    input: probe_in,
                    axis,
                    test,
                    preds,
                };
            }
            None => Rel::MultiProbe {
                input: probe_in,
                axis,
                test,
                preds,
            },
        },
        other => other,
    };
    Rel::Filter {
        input: Box::new(input),
        pred: Box::new(pred),
    }
}

/// Recognizes a lowerable value predicate: a comparison between a
/// candidate-relative value source and a slot (literal or parameter),
/// on either side. `test` is the probed step's node test — text-content
/// sources need a concrete element name to key the index; attribute
/// sources are keyed by the attribute name alone, so `*[@a = "x"]`
/// lowers too.
fn value_pred_of(pred: &Scalar, test: &NodeTest) -> Option<ValuePred> {
    let Scalar::Compare(op, a, b) = pred else {
        return None;
    };
    recognize_sides(*op, a, b, test).or_else(|| recognize_sides(op.flipped(), b, a, test))
}

fn recognize_sides(op: CmpOp, lhs: &Scalar, rhs: &Scalar, test: &NodeTest) -> Option<ValuePred> {
    // `!=` keeps XPath's existential set semantics in the scalar path
    // (it is NOT the complement of `=`).
    if op == CmpOp::Ne {
        return None;
    }
    let source = source_of(lhs)?;
    match (&source, test) {
        (ValueSource::Attr(_), NodeTest::Name(_) | NodeTest::AnyElement) => {}
        (_, NodeTest::Name(_)) => {}
        _ => return None,
    }
    let operand = match rhs {
        Scalar::Literal(v) => Operand::Str(v.clone()),
        Scalar::Number(n) => Operand::Num(*n),
        Scalar::Var(name) => Operand::Param(name.clone()),
        _ => return None,
    };
    Some(ValuePred {
        source,
        op,
        operand,
    })
}

/// The candidate-relative value sources a probe can serve.
fn source_of(s: &Scalar) -> Option<ValueSource> {
    let Scalar::Nodes(rel) = s else { return None };
    match &**rel {
        // `.` — `self::node()` already fused to the bare context.
        Rel::Context => Some(ValueSource::SelfValue),
        Rel::AttrStep {
            input,
            name: Some(a),
            has_preds: false,
        } if matches!(**input, Rel::Context) => Some(ValueSource::Attr(a.clone())),
        Rel::Step {
            input,
            axis: Axis::Child,
            test: NodeTest::Name(c),
            preds,
        } if preds.is_empty() && matches!(**input, Rel::Context) => {
            Some(ValueSource::Child(c.clone()))
        }
        _ => None,
    }
}

/// Whether a predicate may leave its position scope (pushdown).
fn pushable(p: &Pred) -> bool {
    match p {
        Pred::First | Pred::Last => false,
        Pred::Expr(s) => plan::pred_is_non_positional(s),
    }
}

fn rw_pred(p: Pred) -> Pred {
    let Pred::Expr(s) = p else { return p };
    // Positional short-circuits first (before the scalar rules would
    // rewrite their subterms).
    if let Some(pick) = positional_pick(&s) {
        return pick;
    }
    // Predicates are boolean contexts — unless they are (possibly)
    // numeric, in which case they select by position and must keep
    // their value.
    let boolean_ctx = plan::pred_is_non_positional(&s);
    Pred::Expr(rw_scalar(s, boolean_ctx))
}

/// `[1]`, `[last()]`, `[position() = 1]`, `[position() = last()]`.
fn positional_pick(s: &Scalar) -> Option<Pred> {
    fn is_position(s: &Scalar) -> bool {
        matches!(s, Scalar::Call(name, args) if name == "position" && args.is_empty())
    }
    fn is_last(s: &Scalar) -> bool {
        matches!(s, Scalar::Call(name, args) if name == "last" && args.is_empty())
    }
    match s {
        Scalar::Number(n) if *n == 1.0 => Some(Pred::First),
        s if is_last(s) => Some(Pred::Last),
        Scalar::Compare(CmpOp::Eq, a, b) => {
            let (pos_side, other) = if is_position(a) {
                (true, b)
            } else if is_position(b) {
                (true, a)
            } else {
                (false, b)
            };
            if !pos_side {
                return None;
            }
            match &**other {
                Scalar::Number(n) if *n == 1.0 => Some(Pred::First),
                o if is_last(o) => Some(Pred::Last),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Step fusion + trivial-step elimination.
fn fuse(r: Rel) -> Rel {
    match r {
        // `descendant-or-self::node()/child::t` → `descendant::t`
        // (valid only with no predicates on either step: positional
        // predicates scope per parent on the child step).
        Rel::Step {
            input,
            axis: Axis::Child,
            test,
            preds,
        } if preds.is_empty() => match *input {
            Rel::Step {
                input: inner,
                axis: Axis::DescendantOrSelf,
                test: NodeTest::AnyNode,
                preds: inner_preds,
            } if inner_preds.is_empty() => Rel::Step {
                input: inner,
                axis: Axis::Descendant,
                test,
                preds: Vec::new(),
            },
            other => Rel::Step {
                input: Box::new(other),
                axis: Axis::Child,
                test,
                preds,
            },
        },
        // `self::node()` with no predicates is the identity.
        Rel::Step {
            input,
            axis: Axis::SelfAxis,
            test: NodeTest::AnyNode,
            preds,
        } if preds.is_empty() => *input,
        other => other,
    }
}

// ---------------------------------------------------------------------
// Loop-invariant hoisting
// ---------------------------------------------------------------------

/// Wraps maximal invariant scalar subtrees in [`Scalar::Const`].
fn hoist_scalar(s: Scalar) -> Scalar {
    if plan::scalar_invariant(&s) && scalar_worth_hoisting(&s) {
        return Scalar::Const(Box::new(s));
    }
    match s {
        Scalar::Or(a, b) => Scalar::Or(Box::new(hoist_scalar(*a)), Box::new(hoist_scalar(*b))),
        Scalar::And(a, b) => Scalar::And(Box::new(hoist_scalar(*a)), Box::new(hoist_scalar(*b))),
        Scalar::Compare(op, a, b) => {
            Scalar::Compare(op, Box::new(hoist_scalar(*a)), Box::new(hoist_scalar(*b)))
        }
        Scalar::Arith(op, a, b) => {
            Scalar::Arith(op, Box::new(hoist_scalar(*a)), Box::new(hoist_scalar(*b)))
        }
        Scalar::Neg(e) => Scalar::Neg(Box::new(hoist_scalar(*e))),
        Scalar::Call(name, args) => {
            Scalar::Call(name, args.into_iter().map(hoist_scalar).collect())
        }
        Scalar::Agg(kind, rel) => Scalar::Agg(kind, Box::new(hoist_rel(*rel))),
        Scalar::Nodes(rel) => Scalar::Nodes(Box::new(hoist_rel(*rel))),
        leaf => leaf,
    }
}

/// Wraps maximal invariant relational subtrees in [`Rel::Const`] and
/// recurses into non-invariant structure (including predicate scalars,
/// whose own subterms may hoist).
fn hoist_rel(r: Rel) -> Rel {
    if plan::rel_invariant(&r) && rel_worth_hoisting(&r) {
        return Rel::Const { rel: Box::new(r) };
    }
    match r {
        Rel::Step {
            input,
            axis,
            test,
            preds,
        } => Rel::Step {
            input: Box::new(hoist_rel(*input)),
            axis,
            test,
            preds: preds.into_iter().map(hoist_pred).collect(),
        },
        Rel::AttrStep {
            input,
            name,
            has_preds,
        } => Rel::AttrStep {
            input: Box::new(hoist_rel(*input)),
            name,
            has_preds,
        },
        Rel::Filter { input, pred } => Rel::Filter {
            input: Box::new(hoist_rel(*input)),
            pred: Box::new(hoist_scalar(*pred)),
        },
        Rel::ValueProbe {
            input,
            axis,
            test,
            pred,
        } => Rel::ValueProbe {
            input: Box::new(hoist_rel(*input)),
            axis,
            test,
            pred,
        },
        Rel::MultiProbe {
            input,
            axis,
            test,
            preds,
        } => Rel::MultiProbe {
            input: Box::new(hoist_rel(*input)),
            axis,
            test,
            preds,
        },
        Rel::GroupFilter { input, preds } => Rel::GroupFilter {
            input: Box::new(hoist_rel(*input)),
            preds: preds.into_iter().map(hoist_pred).collect(),
        },
        Rel::Union { left, right } => Rel::Union {
            left: Box::new(hoist_rel(*left)),
            right: Box::new(hoist_rel(*right)),
        },
        Rel::FromValue { value } => Rel::FromValue {
            value: Box::new(hoist_scalar(*value)),
        },
        leaf => leaf,
    }
}

fn hoist_pred(p: Pred) -> Pred {
    match p {
        Pred::Expr(s) => Pred::Expr(hoist_scalar(s)),
        pick => pick,
    }
}

/// Hoisting a leaf buys nothing; wrap only composite subtrees.
fn scalar_worth_hoisting(s: &Scalar) -> bool {
    !matches!(
        s,
        Scalar::Literal(_) | Scalar::Number(_) | Scalar::Var(_) | Scalar::Const(_)
    )
}

fn rel_worth_hoisting(r: &Rel) -> bool {
    !matches!(
        r,
        Rel::Root | Rel::Context | Rel::Const { .. } | Rel::Unsupported { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser;
    use crate::plan::compile;

    fn rewritten(src: &str) -> Scalar {
        let tokens = lexer::lex(src).unwrap();
        rewrite(compile(&parser::parse(&tokens, src.len()).unwrap()))
    }

    /// Strips Const markers for shape assertions.
    fn strip(s: &Scalar) -> &Scalar {
        match s {
            Scalar::Const(inner) => strip(inner),
            other => other,
        }
    }

    #[test]
    fn double_slash_fuses_to_descendant() {
        let plan = rewritten("//item");
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let Rel::Step { axis, test, .. } = &**rel else {
            panic!("got {rel:?}")
        };
        assert_eq!(*axis, Axis::Descendant);
        assert!(matches!(test, NodeTest::Name(q) if q.local == "item"));
    }

    #[test]
    fn positional_predicate_blocks_fusion() {
        let plan = rewritten("//item[1]");
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let Rel::Step { axis, preds, .. } = &**rel else {
            panic!("got {rel:?}")
        };
        assert_eq!(*axis, Axis::Child, "positional pred keeps per-parent scope");
        assert_eq!(preds, &[Pred::First]);
    }

    #[test]
    fn last_becomes_a_pick() {
        let plan = rewritten("a[last()] | a[position() = last()]");
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let Rel::Union { left, right } = &**rel else {
            panic!()
        };
        for side in [left.as_ref(), right.as_ref()] {
            let Rel::Step { preds, .. } = side else {
                panic!()
            };
            assert_eq!(preds, &[Pred::Last]);
        }
    }

    #[test]
    fn count_gt_zero_becomes_exists() {
        match strip(&rewritten("count(//item) > 0")) {
            Scalar::Agg(AggKind::Exists, _) => {}
            other => panic!("expected exists, got {other:?}"),
        }
        match strip(&rewritten("0 = count(//item)")) {
            Scalar::Call(name, args) => {
                assert_eq!(name, "not");
                assert!(matches!(strip(&args[0]), Scalar::Agg(AggKind::Exists, _)));
            }
            other => panic!("expected not(exists), got {other:?}"),
        }
    }

    #[test]
    fn bare_node_set_predicates_become_existence_filters() {
        let plan = rewritten("//person[age]");
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let Rel::Filter { pred, .. } = &**rel else {
            panic!("predicate should push down, got {rel:?}")
        };
        assert!(matches!(&**pred, Scalar::Agg(AggKind::Exists, _)));
    }

    #[test]
    fn absolute_paths_hoist() {
        // Inside a predicate, the absolute subpath is loop-invariant.
        let plan = rewritten("item[count(//name) > 2]");
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let Rel::Filter { pred, .. } = &**rel else {
            panic!("got {rel:?}")
        };
        assert!(
            matches!(&**pred, Scalar::Const(_)),
            "invariant predicate must hoist, got {pred:?}"
        );
    }

    /// The single `ValueProbe` a source compiles to, or a panic.
    fn probe_of(src: &str) -> ValuePred {
        let plan = rewritten(src);
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!("{src}")
        };
        let Rel::ValueProbe { pred, .. } = &**rel else {
            panic!("{src}: expected a value probe, got {rel:?}")
        };
        pred.clone()
    }

    #[test]
    fn value_predicates_lower_to_probes() {
        // Attribute equality.
        let plan = rewritten("//item[@id = \"item42\"]");
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let Rel::ValueProbe { axis, pred, .. } = &**rel else {
            panic!("expected a value probe, got {rel:?}")
        };
        assert_eq!(*axis, Axis::Descendant);
        assert!(matches!(&pred.source, ValueSource::Attr(a) if a.local == "id"));
        assert_eq!(pred.op, CmpOp::Eq);
        assert_eq!(pred.operand, Operand::Str("item42".into()));
        // Self comparison, numeric operand, literal on the left (flip).
        for (src, op) in [
            ("//price[. > 50]", CmpOp::Gt),
            ("//price[50 <= .]", CmpOp::Ge),
        ] {
            let pred = probe_of(src);
            assert!(matches!(&pred.source, ValueSource::SelfValue), "{src}");
            assert_eq!((pred.op, &pred.operand), (op, &Operand::Num(50.0)), "{src}");
        }
        // Child comparison.
        let pred = probe_of("//person[name = \"Alice\"]");
        assert!(matches!(&pred.source, ValueSource::Child(c) if c.local == "name"));
        // `*[@a = ...]` lowers too (attribute probes need no element
        // name).
        probe_of("//*[@id = \"x\"]");
        // A parameter lowers exactly where a literal does: every
        // source, either side, equality and order operators.
        let v = Operand::Param("v".into());
        for (src, op) in [
            ("//item[@id = $v]", CmpOp::Eq),
            ("//item[$v = @id]", CmpOp::Eq),
            ("//price[. = $v]", CmpOp::Eq),
            ("//price[. > $v]", CmpOp::Gt),
            ("//price[$v < .]", CmpOp::Gt),
            ("//person[name = $v]", CmpOp::Eq),
            ("//person[age <= $v]", CmpOp::Le),
            ("//*[@id = $v]", CmpOp::Eq),
        ] {
            let pred = probe_of(src);
            assert_eq!((pred.op, &pred.operand), (op, &v), "{src}");
        }
        // A literal and a parameter on one step fold into a multi-probe.
        let plan = rewritten("//person[@id = \"p1\"][name = $n]");
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let Rel::MultiProbe { preds, .. } = &**rel else {
            panic!("expected a multi-probe, got {rel:?}")
        };
        assert_eq!(preds[0].operand, Operand::Str("p1".into()));
        assert_eq!(preds[1].operand, Operand::Param("n".into()));
    }

    #[test]
    fn unsupported_value_shapes_stay_filters() {
        // `!=`, non-slot operands, positional predicates, `*[. = x]`.
        for src in [
            "//price[. != \"50\"]",
            "//item[@id = concat($v, \"x\")]",
            "//*[. = \"x\"]",
            "//*[. = $v]",
            "//price[. > name]",
        ] {
            let plan = rewritten(src);
            let Scalar::Nodes(rel) = strip(&plan) else {
                panic!("{src}")
            };
            assert!(
                !matches!(&**rel, Rel::ValueProbe { .. }),
                "{src} must not lower, got {rel:?}"
            );
        }
        // Positional predicates never reach the rule at all.
        let plan = rewritten("//item[2][@id = \"x\"]");
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        assert!(
            !matches!(&**rel, Rel::ValueProbe { .. }),
            "positional step must keep its scope, got {rel:?}"
        );
    }

    #[test]
    fn variables_hoist_inside_comparisons() {
        // `!=` never lowers, so the comparison stays a pushed-down
        // filter with the variable as a plain (invariant) leaf.
        let plan = rewritten("item[@id != $want]");
        let Scalar::Nodes(rel) = strip(&plan) else {
            panic!()
        };
        let Rel::Filter { pred, .. } = &**rel else {
            panic!("non-positional comparison should push down, got {rel:?}")
        };
        let Scalar::Compare(CmpOp::Ne, _, rhs) = &**pred else {
            panic!("got {pred:?}")
        };
        assert_eq!(**rhs, Scalar::Var("want".into()));
    }
}
