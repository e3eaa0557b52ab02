//! The reference interpreter — the oracle arm of the plan pipeline.
//!
//! This is the original recursive AST evaluator: every location step
//! still runs loop-lifted through [`step_lifted`], but the evaluation
//! is driven directly by the syntax tree, with one hard-wired physical
//! strategy (staircase join + name filter) and ad-hoc loop-invariant
//! hoisting ([`Lifted::Const`]). The production entry points compile
//! through the plan layer instead ([`crate::plan`] → [`crate::rewrite`]
//! → [`crate::physical`] → the executor in [`crate::eval`]); this
//! module is retained as the independent reference implementation that
//! `tests/plan_oracle.rs` compares the planned execution against.

use crate::ast::{Expr, PathExpr, Step, StepTest};
use crate::eval::{
    apply_arith, apply_fn, compare, lifted_attributes, to_booleans, union_values, AttrSeq, Lifted,
    PredInfo, Value,
};
use crate::{Bindings, Result, XPathError};
use mbxq_axes::{step_lifted, Axis, ContextSeq, NodeTest};
use mbxq_storage::TreeView;

/// Evaluates `expr` with `context` as the context node set.
pub(crate) fn eval_expr<V: TreeView + ?Sized>(
    view: &V,
    expr: &Expr,
    context: &[u64],
    bnd: Option<&Bindings>,
) -> Result<Value> {
    match expr {
        Expr::Or(a, b) => {
            let va = eval_expr(view, a, context, bnd)?;
            if va.to_boolean() {
                return Ok(Value::Boolean(true));
            }
            Ok(Value::Boolean(
                eval_expr(view, b, context, bnd)?.to_boolean(),
            ))
        }
        Expr::And(a, b) => {
            let va = eval_expr(view, a, context, bnd)?;
            if !va.to_boolean() {
                return Ok(Value::Boolean(false));
            }
            Ok(Value::Boolean(
                eval_expr(view, b, context, bnd)?.to_boolean(),
            ))
        }
        Expr::Compare(op, a, b) => {
            let va = eval_expr(view, a, context, bnd)?;
            let vb = eval_expr(view, b, context, bnd)?;
            Ok(Value::Boolean(compare(view, *op, &va, &vb)))
        }
        Expr::Arith(op, a, b) => {
            let x = eval_expr(view, a, context, bnd)?.to_number(view);
            let y = eval_expr(view, b, context, bnd)?.to_number(view);
            Ok(Value::Number(apply_arith(*op, x, y)))
        }
        Expr::Neg(e) => Ok(Value::Number(
            -eval_expr(view, e, context, bnd)?.to_number(view),
        )),
        Expr::Union(a, b) => {
            let va = eval_expr(view, a, context, bnd)?;
            let vb = eval_expr(view, b, context, bnd)?;
            union_values(va, vb)
        }
        Expr::Literal(s) => Ok(Value::Str(s.clone())),
        Expr::Number(n) => Ok(Value::Number(*n)),
        Expr::Var(name) => lookup_var(name, bnd).cloned(),
        Expr::Call(name, args) => {
            if name == "position" || name == "last" {
                return Err(XPathError::Eval {
                    message: format!("{name}() outside a predicate"),
                });
            }
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval_expr(view, a, context, bnd)?);
            }
            apply_fn(view, name, &argv, context.first().copied())
        }
        Expr::Path(p) => eval_path(view, p, context, bnd),
    }
}

/// Resolves `$name` against the bindings, with the `unbound variable`
/// error when absent.
pub(crate) fn lookup_var<'a>(name: &str, bnd: Option<&'a Bindings>) -> Result<&'a Value> {
    bnd.and_then(|b| b.get(name))
        .ok_or_else(|| XPathError::Eval {
            message: format!("unbound variable ${name}"),
        })
}

// ---------------------------------------------------------------------
// Path evaluation — every step runs loop-lifted
// ---------------------------------------------------------------------

fn eval_path<V: TreeView + ?Sized>(
    view: &V,
    path: &PathExpr,
    context: &[u64],
    bnd: Option<&Bindings>,
) -> Result<Value> {
    let mut steps = path.steps.iter();
    let mut current: Value = if let Some(start) = &path.start {
        let v = eval_expr(view, start, context, bnd)?;
        apply_filter_predicates(view, v, &path.start_predicates, bnd)?
    } else if path.absolute {
        // Absolute paths start at the (virtual) *document node*, whose
        // only tree child is the root element: `/site` matches the root
        // element named `site`, and a bare `/` denotes the document node
        // itself (approximated by the root element here, since the
        // storage schema has no document-node tuple).
        match steps.next() {
            None => Value::Nodes(view.root_pre().into_iter().collect()),
            Some(first) => eval_step_from_document(view, first, bnd)?,
        }
    } else {
        Value::Nodes(context.to_vec())
    };
    for step in steps {
        current = eval_step(view, &current, step, bnd)?;
    }
    Ok(current)
}

/// Applies `(expr)[pred]` filter predicates: the whole node-set is one
/// context sequence (one group, document order), unlike step predicates
/// which scope `position()` per context node.
fn apply_filter_predicates<V: TreeView + ?Sized>(
    view: &V,
    input: Value,
    predicates: &[Expr],
    bnd: Option<&Bindings>,
) -> Result<Value> {
    if predicates.is_empty() {
        return Ok(input);
    }
    let Value::Nodes(ns) = input else {
        return Err(XPathError::Eval {
            message: format!("cannot filter a {}", input.type_name()),
        });
    };
    let mut seq = ContextSeq::single_iter(ns);
    for pred in predicates {
        seq = filter_predicate_lifted(view, seq, pred, false, bnd)?;
    }
    Ok(Value::Nodes(seq.pres))
}

/// Evaluates the first step of an absolute path against the virtual
/// document node.
fn eval_step_from_document<V: TreeView + ?Sized>(
    view: &V,
    step: &Step,
    bnd: Option<&Bindings>,
) -> Result<Value> {
    let root: Vec<u64> = view.root_pre().into_iter().collect();
    match &step.test {
        StepTest::Tree(Axis::Child | Axis::SelfAxis, test) => {
            // The document node's only child is the root element; `/self`
            // degenerates to the same singleton.
            let cands: Vec<u64> = root
                .into_iter()
                .filter(|&r| test.matches(view, r))
                .collect();
            let mut seq = ContextSeq::single_iter(cands);
            for pred in &step.predicates {
                seq = filter_predicate_lifted(view, seq, pred, false, bnd)?;
            }
            Ok(Value::Nodes(seq.pres))
        }
        StepTest::Tree(Axis::Descendant | Axis::DescendantOrSelf, test) => {
            // Every tree node descends from the document node.
            let ctx = ContextSeq::single_iter(root);
            let mut cands = step_lifted(view, &ctx, Axis::DescendantOrSelf, test);
            for pred in &step.predicates {
                cands = filter_predicate_lifted(view, cands, pred, false, bnd)?;
            }
            Ok(Value::Nodes(cands.pres))
        }
        StepTest::Tree(axis, _) => Err(XPathError::Eval {
            message: format!("axis {axis:?} cannot start from the document node"),
        }),
        StepTest::Attribute(_) => Err(XPathError::Eval {
            message: "the document node has no attributes".into(),
        }),
    }
}

fn eval_step<V: TreeView + ?Sized>(
    view: &V,
    input: &Value,
    step: &Step,
    bnd: Option<&Bindings>,
) -> Result<Value> {
    let nodes = match input {
        Value::Nodes(ns) => ns,
        other => {
            return Err(XPathError::Eval {
                message: format!("cannot apply a location step to a {}", other.type_name()),
            })
        }
    };
    match &step.test {
        StepTest::Attribute(name) => {
            if !step.predicates.is_empty() {
                return Err(XPathError::Eval {
                    message: "predicates on attribute steps are not supported".into(),
                });
            }
            let seq = ContextSeq::single_iter(nodes.clone());
            Ok(Value::Attrs(
                lifted_attributes(view, &seq, name.as_ref()).attrs,
            ))
        }
        StepTest::Tree(axis, test) => {
            let ctx = ContextSeq::single_iter(nodes.clone());
            let out = lifted_tree_step(view, &ctx, *axis, test, &step.predicates, bnd)?;
            Ok(Value::Nodes(out.merged_pres()))
        }
    }
}

/// One loop-lifted tree-axis step over a whole context relation,
/// predicates included. With no predicates this is a single
/// [`step_lifted`] invocation; with predicates, every `(iter, node)` row
/// is first expanded into its own nested iteration so each context node
/// owns its candidate list (the XPath `position()` scope), the
/// predicates run set-at-a-time over that nested relation, and the
/// survivors are regrouped under the outer iterations.
fn lifted_tree_step<V: TreeView + ?Sized>(
    view: &V,
    input: &ContextSeq,
    axis: Axis,
    test: &NodeTest,
    predicates: &[Expr],
    bnd: Option<&Bindings>,
) -> Result<ContextSeq> {
    if predicates.is_empty() {
        return Ok(step_lifted(view, input, axis, test));
    }
    // Reverse axes produce candidates here in document order; positional
    // predicates on them count from the far end per the XPath spec.
    let reverse = matches!(
        axis,
        Axis::Ancestor | Axis::AncestorOrSelf | Axis::Preceding | Axis::PrecedingSibling
    );
    let expanded = ContextSeq::lift(&input.pres);
    let mut cands = step_lifted(view, &expanded, axis, test);
    for pred in predicates {
        cands = filter_predicate_lifted(view, cands, pred, reverse, bnd)?;
    }
    // Map the nested iterations (one per input row) back to the outer
    // iteration ids and merge groups that share one.
    let row_tags: Vec<u32> = cands
        .iters
        .iter()
        .map(|&row| input.iters[row as usize])
        .collect();
    Ok(cands.regroup(&row_tags))
}

/// Applies one predicate to a candidate relation in a single lifted
/// pass: positions are computed per group, the expression is evaluated
/// for all candidates at once (each candidate is the context node of its
/// own iteration), and a row mask keeps the survivors.
fn filter_predicate_lifted<V: TreeView + ?Sized>(
    view: &V,
    cands: ContextSeq,
    pred: &Expr,
    reverse: bool,
    bnd: Option<&Bindings>,
) -> Result<ContextSeq> {
    if cands.is_empty() {
        return Ok(cands);
    }
    let (pos, last) = cands.positions(reverse);
    let info = PredInfo {
        pos: &pos,
        last: &last,
    };
    let v = eval_lifted(view, pred, &cands.pres, Some(&info), bnd)?;
    // A bare number predicate means position() = n.
    let keep: Vec<bool> = match &v {
        Lifted::Const(Value::Number(n)) => pos.iter().map(|&p| p == *n).collect(),
        Lifted::Numbers(ns) => ns.iter().zip(&pos).map(|(&n, &p)| p == n).collect(),
        other => (0..cands.len())
            .map(|i| other.value_at(i).to_boolean())
            .collect(),
    };
    Ok(cands.retain_rows(&keep))
}

// ---------------------------------------------------------------------
// Lifted expression evaluation
// ---------------------------------------------------------------------

/// Evaluates `expr` once for a whole iteration domain: iteration `i` has
/// the single context node `ctx[i]` (and, inside a predicate,
/// `pred.pos[i]` / `pred.last[i]`). This is the loop-lifted image of
/// "evaluate the expression for every context node".
fn eval_lifted<V: TreeView + ?Sized>(
    view: &V,
    expr: &Expr,
    ctx: &[u64],
    pred: Option<&PredInfo<'_>>,
    bnd: Option<&Bindings>,
) -> Result<Lifted> {
    let n = ctx.len();
    match expr {
        Expr::Or(a, b) => {
            let va = eval_lifted(view, a, ctx, pred, bnd)?;
            if let Lifted::Const(v) = &va {
                if v.to_boolean() {
                    return Ok(Lifted::Const(Value::Boolean(true)));
                }
                let vb = eval_lifted(view, b, ctx, pred, bnd)?;
                return Ok(to_booleans(vb, n));
            }
            // XPath short-circuits per context node: evaluate the right
            // operand only for the iterations the left one left
            // undecided (restricting the loop relation, not looping).
            let mut out: Vec<bool> = (0..n).map(|i| va.value_at(i).to_boolean()).collect();
            let undecided: Vec<usize> = (0..n).filter(|&i| !out[i]).collect();
            if !undecided.is_empty() {
                let vb = eval_on_rows(view, b, ctx, pred, &undecided, bnd)?;
                for (k, &i) in undecided.iter().enumerate() {
                    out[i] = vb[k];
                }
            }
            Ok(Lifted::Booleans(out))
        }
        Expr::And(a, b) => {
            let va = eval_lifted(view, a, ctx, pred, bnd)?;
            if let Lifted::Const(v) = &va {
                if !v.to_boolean() {
                    return Ok(Lifted::Const(Value::Boolean(false)));
                }
                let vb = eval_lifted(view, b, ctx, pred, bnd)?;
                return Ok(to_booleans(vb, n));
            }
            let mut out: Vec<bool> = (0..n).map(|i| va.value_at(i).to_boolean()).collect();
            let undecided: Vec<usize> = (0..n).filter(|&i| out[i]).collect();
            if !undecided.is_empty() {
                let vb = eval_on_rows(view, b, ctx, pred, &undecided, bnd)?;
                for (k, &i) in undecided.iter().enumerate() {
                    out[i] = vb[k];
                }
            }
            Ok(Lifted::Booleans(out))
        }
        Expr::Compare(op, a, b) => {
            let va = eval_lifted(view, a, ctx, pred, bnd)?;
            let vb = eval_lifted(view, b, ctx, pred, bnd)?;
            if let (Lifted::Const(x), Lifted::Const(y)) = (&va, &vb) {
                return Ok(Lifted::Const(Value::Boolean(compare(view, *op, x, y))));
            }
            Ok(Lifted::Booleans(
                (0..n)
                    .map(|i| compare(view, *op, &va.value_at(i), &vb.value_at(i)))
                    .collect(),
            ))
        }
        Expr::Arith(op, a, b) => {
            let va = eval_lifted(view, a, ctx, pred, bnd)?;
            let vb = eval_lifted(view, b, ctx, pred, bnd)?;
            if let (Lifted::Const(x), Lifted::Const(y)) = (&va, &vb) {
                return Ok(Lifted::Const(Value::Number(apply_arith(
                    *op,
                    x.to_number(view),
                    y.to_number(view),
                ))));
            }
            Ok(Lifted::Numbers(
                (0..n)
                    .map(|i| {
                        apply_arith(
                            *op,
                            va.value_at(i).to_number(view),
                            vb.value_at(i).to_number(view),
                        )
                    })
                    .collect(),
            ))
        }
        Expr::Neg(e) => {
            let v = eval_lifted(view, e, ctx, pred, bnd)?;
            if let Lifted::Const(x) = &v {
                return Ok(Lifted::Const(Value::Number(-x.to_number(view))));
            }
            Ok(Lifted::Numbers(
                (0..n).map(|i| -v.value_at(i).to_number(view)).collect(),
            ))
        }
        Expr::Union(a, b) => {
            let va = eval_lifted(view, a, ctx, pred, bnd)?;
            let vb = eval_lifted(view, b, ctx, pred, bnd)?;
            if va.is_const() && vb.is_const() {
                return Ok(Lifted::Const(union_values(va.value_at(0), vb.value_at(0))?));
            }
            let mut nodes = ContextSeq::new();
            let mut attrs: Option<AttrSeq> = None;
            for i in 0..n {
                match union_values(va.value_at(i), vb.value_at(i))? {
                    Value::Nodes(ns) => {
                        for p in ns {
                            nodes.push(i as u32, p);
                        }
                    }
                    Value::Attrs(ats) => {
                        let acc = attrs.get_or_insert_with(|| AttrSeq {
                            iters: Vec::new(),
                            attrs: Vec::new(),
                        });
                        for at in ats {
                            acc.iters.push(i as u32);
                            acc.attrs.push(at);
                        }
                    }
                    _ => unreachable!("union yields node sets"),
                }
            }
            Ok(match attrs {
                Some(a) => Lifted::Attrs(a),
                None => Lifted::Nodes(nodes),
            })
        }
        Expr::Literal(s) => Ok(Lifted::Const(Value::Str(s.clone()))),
        Expr::Number(x) => Ok(Lifted::Const(Value::Number(*x))),
        Expr::Var(name) => Ok(Lifted::Const(lookup_var(name, bnd)?.clone())),
        Expr::Call(name, args) => eval_call_lifted(view, name, args, ctx, pred, bnd),
        Expr::Path(p) => eval_path_lifted(view, p, ctx, pred, bnd),
    }
}

/// Evaluates `expr` over the sub-domain selected by `rows` (indices into
/// the current domain) and returns one boolean per selected row — the
/// restricted loop relation behind per-iteration short-circuiting.
fn eval_on_rows<V: TreeView + ?Sized>(
    view: &V,
    expr: &Expr,
    ctx: &[u64],
    pred: Option<&PredInfo<'_>>,
    rows: &[usize],
    bnd: Option<&Bindings>,
) -> Result<Vec<bool>> {
    let sub_ctx: Vec<u64> = rows.iter().map(|&i| ctx[i]).collect();
    let sub_vectors = pred.map(|info| {
        (
            rows.iter().map(|&i| info.pos[i]).collect::<Vec<f64>>(),
            rows.iter().map(|&i| info.last[i]).collect::<Vec<f64>>(),
        )
    });
    let sub_info = sub_vectors
        .as_ref()
        .map(|(pos, last)| PredInfo { pos, last });
    let v = eval_lifted(view, expr, &sub_ctx, sub_info.as_ref(), bnd)?;
    Ok((0..rows.len())
        .map(|k| v.value_at(k).to_boolean())
        .collect())
}

/// Lifted path evaluation. Absolute paths are loop-invariant — they
/// evaluate once against the document and broadcast. Relative paths
/// start from each iteration's context node and run every step through
/// [`lifted_tree_step`].
fn eval_path_lifted<V: TreeView + ?Sized>(
    view: &V,
    path: &PathExpr,
    ctx: &[u64],
    pred: Option<&PredInfo<'_>>,
    bnd: Option<&Bindings>,
) -> Result<Lifted> {
    let n = ctx.len();
    if path.start.is_none() && path.absolute {
        return Ok(Lifted::Const(eval_path(view, path, &[], bnd)?));
    }
    let mut current: ContextSeq = match &path.start {
        Some(start) => {
            let mut v = eval_lifted(view, start, ctx, pred, bnd)?;
            if !path.start_predicates.is_empty() {
                // Filter predicates see each iteration's whole node-set
                // as one context sequence; an invariant set stays
                // invariant (the predicate only reads the candidates).
                v = match v {
                    Lifted::Const(flat) => Lifted::Const(apply_filter_predicates(
                        view,
                        flat,
                        &path.start_predicates,
                        bnd,
                    )?),
                    Lifted::Nodes(mut cs) => {
                        for p in &path.start_predicates {
                            cs = filter_predicate_lifted(view, cs, p, false, bnd)?;
                        }
                        Lifted::Nodes(cs)
                    }
                    other => {
                        return Err(XPathError::Eval {
                            message: format!("cannot filter a {}", other.type_name()),
                        })
                    }
                };
            }
            if path.steps.is_empty() {
                return Ok(v);
            }
            match v {
                Lifted::Nodes(cs) => cs,
                Lifted::Const(Value::Nodes(ns)) => {
                    // Broadcast the invariant set into every iteration.
                    let mut cs = ContextSeq::new();
                    for i in 0..n {
                        for &p in &ns {
                            cs.push(i as u32, p);
                        }
                    }
                    cs
                }
                other => {
                    return Err(XPathError::Eval {
                        message: format!("cannot apply a location step to a {}", other.type_name()),
                    })
                }
            }
        }
        None => {
            // Relative path: iteration i starts at its context node.
            let mut cs = ContextSeq::new();
            for (i, &p) in ctx.iter().enumerate() {
                cs.push(i as u32, p);
            }
            cs
        }
    };
    let mut attrs: Option<AttrSeq> = None;
    for step in &path.steps {
        if attrs.is_some() {
            return Err(XPathError::Eval {
                message: "cannot apply a location step to a attribute-set".into(),
            });
        }
        match &step.test {
            StepTest::Attribute(name) => {
                if !step.predicates.is_empty() {
                    return Err(XPathError::Eval {
                        message: "predicates on attribute steps are not supported".into(),
                    });
                }
                attrs = Some(lifted_attributes(view, &current, name.as_ref()));
            }
            StepTest::Tree(axis, test) => {
                current = lifted_tree_step(view, &current, *axis, test, &step.predicates, bnd)?;
            }
        }
    }
    Ok(match attrs {
        Some(a) => Lifted::Attrs(a),
        None => Lifted::Nodes(current),
    })
}

/// Lifted function application. `position()`/`last()` read the predicate
/// vectors; every other function with loop-invariant arguments is hoisted
/// and computed once; the rest apply element-wise across the domain.
fn eval_call_lifted<V: TreeView + ?Sized>(
    view: &V,
    name: &str,
    args: &[Expr],
    ctx: &[u64],
    pred: Option<&PredInfo<'_>>,
    bnd: Option<&Bindings>,
) -> Result<Lifted> {
    match name {
        "position" => {
            let info = pred.ok_or(XPathError::Eval {
                message: "position() outside a predicate".into(),
            })?;
            if !args.is_empty() {
                return Err(XPathError::Eval {
                    message: format!("position() expects 0 argument(s), got {}", args.len()),
                });
            }
            Ok(Lifted::Numbers(info.pos.to_vec()))
        }
        "last" => {
            let info = pred.ok_or(XPathError::Eval {
                message: "last() outside a predicate".into(),
            })?;
            if !args.is_empty() {
                return Err(XPathError::Eval {
                    message: format!("last() expects 0 argument(s), got {}", args.len()),
                });
            }
            Ok(Lifted::Numbers(info.last.to_vec()))
        }
        _ => {
            let mut largs = Vec::with_capacity(args.len());
            for a in args {
                largs.push(eval_lifted(view, a, ctx, pred, bnd)?);
            }
            // `string()` / `number()` / `name()` / `local-name()` /
            // `normalize-space()` / `string-length()` with no arguments
            // read the context node, so they cannot be hoisted.
            let context_free = !(args.is_empty()
                && matches!(
                    name,
                    "string"
                        | "number"
                        | "name"
                        | "local-name"
                        | "normalize-space"
                        | "string-length"
                ));
            if context_free && largs.iter().all(Lifted::is_const) {
                let flat: Vec<Value> = largs.iter().map(|a| a.value_at(0)).collect();
                return Ok(Lifted::Const(apply_fn(view, name, &flat, None)?));
            }
            let mut vals = Vec::with_capacity(ctx.len());
            for (i, &node) in ctx.iter().enumerate() {
                let argv: Vec<Value> = largs.iter().map(|a| a.value_at(i)).collect();
                vals.push(apply_fn(view, name, &argv, Some(node))?);
            }
            Ok(crate::eval::pack_values(vals))
        }
    }
}
