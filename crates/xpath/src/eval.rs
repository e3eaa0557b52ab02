//! Shared evaluation runtime and the physical-plan **executor**.
//!
//! The first half of this module is the XPath 1.0 value model — [`Value`]
//! with its coercions, the comparison/arithmetic semantics, the core
//! function library — shared by the plan executor and by the reference
//! interpreter ([`crate::interp`]). The second half is the executor: a
//! small virtual machine over [`crate::physical`] plans that keeps the
//! loop-lifted discipline of the interpreter (whole `(iter, pre)`
//! relations per operator invocation, per-iteration short-circuiting,
//! explicit [`Lifted::Const`] broadcasting for hoisted subplans) while
//! adding what only a plan layer can offer: per-step **cost-driven
//! choice** between the staircase join and an element-name-index
//! probe-plus-semijoin, first/last positional picks without position
//! vectors, and early-exit existence aggregation.

use crate::ast::{ArithOp, CmpOp};
use crate::par::{self, ParChoice, WorkerPool};
use crate::physical::{PhysPred, PhysRel, PhysScalar, StepStrategy};
use crate::plan::{Operand, ValuePred, ValueSource};
use crate::{
    Ablation, AxisChoice, Bindings, EvalStats, MultiChoice, MultiStrategy, PlanFeedback, Result,
    StepFeedback, ValueChoice, XPathError,
};
use mbxq_axes::{
    descendant_scan_ranges, exists_semijoin, exists_step, in_range_mask, intersect_sorted,
    range_semijoin, region_window, scan_ranges_arm, simd_compiled, step_lifted_with, Axis,
    ContextSeq, KernelArm, NodeTest,
};
use mbxq_storage::{DegreeStats, NumRange, QnId, TreeView};
use std::cell::Cell;
use std::sync::Mutex;

/// An XPath 1.0 value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Tree nodes in document order (pre ranks).
    Nodes(Vec<u64>),
    /// Attribute nodes as `(owner pre, attribute name id)` pairs.
    Attrs(Vec<(u64, QnId)>),
    /// A number.
    Number(f64),
    /// A boolean.
    Boolean(bool),
    /// A string.
    Str(String),
}

impl Value {
    /// Type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nodes(_) => "node-set",
            Value::Attrs(_) => "attribute-set",
            Value::Number(_) => "number",
            Value::Boolean(_) => "boolean",
            Value::Str(_) => "string",
        }
    }

    /// XPath boolean coercion.
    pub fn to_boolean(&self) -> bool {
        match self {
            Value::Nodes(ns) => !ns.is_empty(),
            Value::Attrs(a) => !a.is_empty(),
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Boolean(b) => *b,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// XPath string coercion (first node's string value for node sets).
    pub fn to_str<V: TreeView + ?Sized>(&self, view: &V) -> String {
        match self {
            Value::Nodes(ns) => ns.first().map_or(String::new(), |&p| view.string_value(p)),
            Value::Attrs(a) => a
                .first()
                .and_then(|&(owner, qn)| view.attr_str(owner, qn))
                .unwrap_or_default()
                .to_string(),
            Value::Number(n) => format_number(*n),
            Value::Boolean(b) => b.to_string(),
            Value::Str(s) => s.clone(),
        }
    }

    /// XPath number coercion.
    pub fn to_number<V: TreeView + ?Sized>(&self, view: &V) -> f64 {
        match self {
            Value::Number(n) => *n,
            Value::Boolean(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            other => str_to_number(&other.to_str(view)),
        }
    }

    /// All string values (one per node/attribute; singleton otherwise).
    pub(crate) fn string_values<V: TreeView + ?Sized>(&self, view: &V) -> Vec<String> {
        match self {
            Value::Nodes(ns) => ns.iter().map(|&p| view.string_value(p)).collect(),
            Value::Attrs(a) => a
                .iter()
                .map(|&(owner, qn)| view.attr_str(owner, qn).unwrap_or_default().to_string())
                .collect(),
            other => vec![other.to_str(view)],
        }
    }

    fn is_set(&self) -> bool {
        matches!(self, Value::Nodes(_) | Value::Attrs(_))
    }

    /// The tree-node set this value is (pre ranks, document order), or
    /// the "expected a node set" error naming the query `source`.
    pub fn into_node_set(self, source: &str) -> Result<Vec<u64>> {
        match self {
            Value::Nodes(ns) => Ok(ns),
            other => Err(XPathError::Eval {
                message: format!(
                    "expression '{source}' yields {} — expected a node set",
                    other.type_name()
                ),
            }),
        }
    }
}

/// XPath 1.0 string→number coercion. Delegates to the storage crate's
/// [`mbxq_storage::xpath_number`] — the content index's sorted numeric
/// arm parses with the same function, so range probes and scalar scans
/// agree on which strings are numbers by construction.
pub(crate) fn str_to_number(s: &str) -> f64 {
    mbxq_storage::xpath_number(s)
}

/// XPath 1.0 `string()` rendering of a number (§4.4 of the spec): `NaN`,
/// signed `Infinity`, integers without a decimal point (negative zero
/// renders as `0`), everything else in decimal form.
pub(crate) fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else if n == 0.0 {
        // Covers -0.0: XPath renders both zeros as "0".
        "0".to_string()
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

pub(crate) fn apply_arith(op: ArithOp, x: f64, y: f64) -> f64 {
    match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => x / y,
        ArithOp::Mod => x % y,
    }
}

/// The `|` operator on already-evaluated operands.
pub(crate) fn union_values(a: Value, b: Value) -> Result<Value> {
    match (a, b) {
        (Value::Nodes(mut x), Value::Nodes(y)) => {
            x.extend(y);
            x.sort_unstable();
            x.dedup();
            Ok(Value::Nodes(x))
        }
        (Value::Attrs(mut x), Value::Attrs(y)) => {
            x.extend(y);
            x.sort_unstable_by_key(|&(p, q)| (p, q.0));
            x.dedup();
            Ok(Value::Attrs(x))
        }
        (a, b) => Err(XPathError::Eval {
            message: format!(
                "union requires node sets, got {} and {}",
                a.type_name(),
                b.type_name()
            ),
        }),
    }
}

/// XPath 1.0 comparison semantics: if either side is a set, the
/// comparison existentially quantifies over its string values.
pub(crate) fn compare<V: TreeView + ?Sized>(view: &V, op: CmpOp, a: &Value, b: &Value) -> bool {
    let num_cmp = |x: f64, y: f64| match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    };
    let str_cmp = |x: &str, y: &str| match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        // Order comparisons always go through numbers in XPath 1.0.
        _ => num_cmp(str_to_number(x), str_to_number(y)),
    };
    match (a.is_set(), b.is_set()) {
        (true, true) => {
            let xs = a.string_values(view);
            let ys = b.string_values(view);
            xs.iter().any(|x| ys.iter().any(|y| str_cmp(x, y)))
        }
        (true, false) => {
            let xs = a.string_values(view);
            match b {
                Value::Number(n) => xs.iter().any(|x| num_cmp(str_to_number(x), *n)),
                Value::Boolean(bb) => {
                    let ab = a.to_boolean();
                    num_cmp(ab as u8 as f64, *bb as u8 as f64)
                }
                _ => {
                    let y = b.to_str(view);
                    xs.iter().any(|x| str_cmp(x, &y))
                }
            }
        }
        (false, true) => compare(view, op.flipped(), b, a),
        (false, false) => match (a, b) {
            (Value::Boolean(_), _) | (_, Value::Boolean(_)) => {
                num_cmp(a.to_boolean() as u8 as f64, b.to_boolean() as u8 as f64)
            }
            (Value::Number(_), _) | (_, Value::Number(_)) => {
                num_cmp(a.to_number(view), b.to_number(view))
            }
            _ => str_cmp(&a.to_str(view), &b.to_str(view)),
        },
    }
}

// ---------------------------------------------------------------------
// Lifted values
// ---------------------------------------------------------------------

/// `position()` / `last()` vectors for the current predicate scope, one
/// entry per iteration.
pub(crate) struct PredInfo<'a> {
    pub(crate) pos: &'a [f64],
    pub(crate) last: &'a [f64],
}

/// Iteration-tagged attribute relation (`iter, owner pre, name id`).
pub(crate) struct AttrSeq {
    pub(crate) iters: Vec<u32>,
    pub(crate) attrs: Vec<(u64, QnId)>,
}

impl AttrSeq {
    pub(crate) fn new() -> AttrSeq {
        AttrSeq {
            iters: Vec::new(),
            attrs: Vec::new(),
        }
    }

    pub(crate) fn of_iter(&self, iter: u32) -> Vec<(u64, QnId)> {
        let lo = self.iters.partition_point(|&i| i < iter);
        let hi = self.iters.partition_point(|&i| i <= iter);
        self.attrs[lo..hi].to_vec()
    }
}

/// The result of evaluating an expression over a whole iteration domain
/// at once — one logical value per iteration.
pub(crate) enum Lifted {
    /// Loop-invariant: the same value in every iteration (computed once).
    Const(Value),
    /// Per-iteration node sets.
    Nodes(ContextSeq),
    /// Per-iteration attribute sets.
    Attrs(AttrSeq),
    /// One number per iteration.
    Numbers(Vec<f64>),
    /// One boolean per iteration.
    Booleans(Vec<bool>),
    /// One string per iteration.
    Strs(Vec<String>),
}

impl Lifted {
    /// Materializes iteration `i`'s value.
    pub(crate) fn value_at(&self, i: usize) -> Value {
        match self {
            Lifted::Const(v) => v.clone(),
            Lifted::Nodes(cs) => Value::Nodes(cs.pres_of_iter(i as u32).to_vec()),
            Lifted::Attrs(a) => Value::Attrs(a.of_iter(i as u32)),
            Lifted::Numbers(v) => Value::Number(v[i]),
            Lifted::Booleans(v) => Value::Boolean(v[i]),
            Lifted::Strs(v) => Value::Str(v[i].clone()),
        }
    }

    pub(crate) fn is_const(&self) -> bool {
        matches!(self, Lifted::Const(_))
    }

    /// Type name for error messages (per-iteration kind).
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Lifted::Const(x) => x.type_name(),
            Lifted::Nodes(_) => "node-set",
            Lifted::Attrs(_) => "attribute-set",
            Lifted::Numbers(_) => "number",
            Lifted::Booleans(_) => "boolean",
            Lifted::Strs(_) => "string",
        }
    }
}

pub(crate) fn to_booleans(v: Lifted, n: usize) -> Lifted {
    match v {
        Lifted::Const(x) => Lifted::Const(Value::Boolean(x.to_boolean())),
        Lifted::Booleans(b) => Lifted::Booleans(b),
        other => Lifted::Booleans((0..n).map(|i| other.value_at(i).to_boolean()).collect()),
    }
}

/// The lifted attribute step: one pass over the `(iter, owner)` relation
/// collecting (optionally name-filtered) attributes, tags preserved.
pub(crate) fn lifted_attributes<V: TreeView + ?Sized>(
    view: &V,
    input: &ContextSeq,
    name: Option<&mbxq_xml::QName>,
) -> AttrSeq {
    let mut out = AttrSeq::new();
    let Some(name) = name else {
        for (iter, owner) in input.iter() {
            for (qn, _) in view.attributes(owner) {
                out.iters.push(iter);
                out.attrs.push((owner, qn));
            }
        }
        return out;
    };
    // A named step resolves its name once and reads one attribute by id
    // per owner; a name no node carries selects nothing.
    let Some(qn) = view.pool().lookup_qname(name) else {
        return out;
    };
    for (iter, owner) in input.iter() {
        if view.attr_str(owner, qn).is_some() {
            out.iters.push(iter);
            out.attrs.push((owner, qn));
        }
    }
    out
}

/// Packs per-iteration scalar results into a columnar [`Lifted`]. All
/// entries share one kind (each function has a fixed return type).
pub(crate) fn pack_values(vals: Vec<Value>) -> Lifted {
    match vals.first() {
        None => Lifted::Booleans(Vec::new()),
        Some(Value::Number(_)) => Lifted::Numbers(
            vals.into_iter()
                .map(|v| match v {
                    Value::Number(x) => x,
                    _ => f64::NAN,
                })
                .collect(),
        ),
        Some(Value::Boolean(_)) => Lifted::Booleans(
            vals.into_iter()
                .map(|v| matches!(v, Value::Boolean(true)))
                .collect(),
        ),
        _ => Lifted::Strs(
            vals.into_iter()
                .map(|v| match v {
                    Value::Str(s) => s,
                    other => other.type_name().to_string(),
                })
                .collect(),
        ),
    }
}

/// The core function library on already-evaluated arguments.
/// `position()` and `last()` never reach here — both call sites resolve
/// them against the predicate scope first.
pub(crate) fn apply_fn<V: TreeView + ?Sized>(
    view: &V,
    name: &str,
    args: &[Value],
    ctx_node: Option<u64>,
) -> Result<Value> {
    let arity = |want: usize| -> Result<()> {
        if args.len() == want {
            Ok(())
        } else {
            Err(XPathError::Eval {
                message: format!("{name}() expects {want} argument(s), got {}", args.len()),
            })
        }
    };
    match name {
        "count" => {
            arity(1)?;
            match &args[0] {
                Value::Nodes(ns) => Ok(Value::Number(ns.len() as f64)),
                Value::Attrs(a) => Ok(Value::Number(a.len() as f64)),
                other => Err(XPathError::Eval {
                    message: format!("count() needs a node set, got {}", other.type_name()),
                }),
            }
        }
        "sum" => {
            arity(1)?;
            let total: f64 = args[0]
                .string_values(view)
                .iter()
                .map(|s| str_to_number(s))
                .sum();
            Ok(Value::Number(total))
        }
        "string" => {
            if args.is_empty() {
                return Ok(Value::Str(
                    ctx_node.map_or(String::new(), |p| view.string_value(p)),
                ));
            }
            arity(1)?;
            Ok(Value::Str(args[0].to_str(view)))
        }
        "number" => {
            if args.is_empty() {
                return Ok(Value::Number(
                    ctx_node.map_or(f64::NAN, |p| str_to_number(&view.string_value(p))),
                ));
            }
            arity(1)?;
            Ok(Value::Number(args[0].to_number(view)))
        }
        "boolean" => {
            arity(1)?;
            Ok(Value::Boolean(args[0].to_boolean()))
        }
        "not" => {
            arity(1)?;
            Ok(Value::Boolean(!args[0].to_boolean()))
        }
        "true" => {
            arity(0)?;
            Ok(Value::Boolean(true))
        }
        "false" => {
            arity(0)?;
            Ok(Value::Boolean(false))
        }
        "contains" => {
            arity(2)?;
            let a = args[0].to_str(view);
            let b = args[1].to_str(view);
            Ok(Value::Boolean(a.contains(&b)))
        }
        "starts-with" => {
            arity(2)?;
            let a = args[0].to_str(view);
            let b = args[1].to_str(view);
            Ok(Value::Boolean(a.starts_with(&b)))
        }
        "string-length" => {
            // Zero-arg form: the context node's string value (§4.2).
            let s = if args.is_empty() {
                ctx_node.map_or(String::new(), |p| view.string_value(p))
            } else {
                arity(1)?;
                args[0].to_str(view)
            };
            Ok(Value::Number(s.chars().count() as f64))
        }
        "normalize-space" => {
            // Zero-arg form: the context node's string value (§4.2).
            let s = if args.is_empty() {
                ctx_node.map_or(String::new(), |p| view.string_value(p))
            } else {
                arity(1)?;
                args[0].to_str(view)
            };
            Ok(Value::Str(
                s.split_whitespace().collect::<Vec<_>>().join(" "),
            ))
        }
        "concat" => {
            if args.len() < 2 {
                return Err(XPathError::Eval {
                    message: "concat() needs at least two arguments".into(),
                });
            }
            let mut out = String::new();
            for a in args {
                out.push_str(&a.to_str(view));
            }
            Ok(Value::Str(out))
        }
        "substring" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(XPathError::Eval {
                    message: "substring() takes 2 or 3 arguments".into(),
                });
            }
            let s = args[0].to_str(view);
            let start = args[1].to_number(view).round() as i64;
            let chars: Vec<char> = s.chars().collect();
            let from = (start - 1).max(0) as usize;
            let to = if args.len() == 3 {
                let len = args[2].to_number(view).round() as i64;
                ((start - 1 + len).max(0) as usize).min(chars.len())
            } else {
                chars.len()
            };
            Ok(Value::Str(
                chars[from.min(chars.len())..to].iter().collect(),
            ))
        }
        "substring-before" => {
            arity(2)?;
            let a = args[0].to_str(view);
            let b = args[1].to_str(view);
            Ok(Value::Str(
                a.find(&b).map(|i| a[..i].to_string()).unwrap_or_default(),
            ))
        }
        "substring-after" => {
            arity(2)?;
            let a = args[0].to_str(view);
            let b = args[1].to_str(view);
            Ok(Value::Str(
                a.find(&b)
                    .map(|i| a[i + b.len()..].to_string())
                    .unwrap_or_default(),
            ))
        }
        "translate" => {
            arity(3)?;
            let s = args[0].to_str(view);
            let from: Vec<char> = args[1].to_str(view).chars().collect();
            let to: Vec<char> = args[2].to_str(view).chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(Value::Str(out))
        }
        "floor" => {
            arity(1)?;
            Ok(Value::Number(args[0].to_number(view).floor()))
        }
        "ceiling" => {
            arity(1)?;
            Ok(Value::Number(args[0].to_number(view).ceil()))
        }
        "round" => {
            arity(1)?;
            Ok(Value::Number(args[0].to_number(view).round()))
        }
        "name" | "local-name" => {
            let target = if args.is_empty() {
                ctx_node
            } else {
                arity(1)?;
                match &args[0] {
                    Value::Nodes(ns) => ns.first().copied(),
                    other => {
                        return Err(XPathError::Eval {
                            message: format!(
                                "{name}() needs a node set, got {}",
                                other.type_name()
                            ),
                        })
                    }
                }
            };
            let s = target
                .and_then(|p| view.name_id(p))
                .and_then(|q| view.pool().qname(q))
                .map(|q| {
                    if name == "local-name" {
                        q.local.clone()
                    } else {
                        q.to_string()
                    }
                })
                .unwrap_or_default();
            Ok(Value::Str(s))
        }
        other => Err(XPathError::Eval {
            message: format!("unknown function '{other}'"),
        }),
    }
}

// ---------------------------------------------------------------------
// The physical-plan executor
// ---------------------------------------------------------------------

/// The iteration domain an executor invocation runs over.
pub(crate) enum Domain<'a> {
    /// One iteration holding the whole context set — the top level of a
    /// query, and the domain hoisted `Const` subplans evaluate in.
    Whole(&'a [u64]),
    /// One context node per iteration — predicate and filter scopes
    /// (Pathfinder's loop-lifting of the implicit `for` over the
    /// candidates), with the scope's `position()`/`last()` vectors.
    Rows {
        /// Iteration `i`'s context node.
        nodes: &'a [u64],
        /// Positional vectors when inside a predicate.
        pred: Option<&'a PredInfo<'a>>,
    },
}

impl Domain<'_> {
    /// Number of iterations.
    fn n(&self) -> usize {
        match self {
            Domain::Whole(_) => 1,
            Domain::Rows { nodes, .. } => nodes.len(),
        }
    }

    /// Iteration `i`'s context *node* (first of the group at the top
    /// level — the interpreter's convention for context-node functions).
    fn node(&self, i: usize) -> Option<u64> {
        match self {
            Domain::Whole(c) => c.first().copied(),
            Domain::Rows { nodes, .. } => nodes.get(i).copied(),
        }
    }

    fn pred(&self) -> Option<&PredInfo<'_>> {
        match self {
            Domain::Whole(_) => None,
            Domain::Rows { pred, .. } => *pred,
        }
    }

    /// The context as an `(iter, pre)` relation.
    fn relation(&self) -> ContextSeq {
        match self {
            Domain::Whole(c) => ContextSeq::single_iter(c.to_vec()),
            Domain::Rows { nodes, .. } => ContextSeq {
                iters: (0..nodes.len() as u32).collect(),
                pres: nodes.to_vec(),
            },
        }
    }
}

/// A relation produced by a relational plan node.
pub(crate) enum RelOut {
    /// Tree nodes, iteration-tagged.
    Nodes(ContextSeq),
    /// Attribute nodes, iteration-tagged.
    Attrs(AttrSeq),
}

/// One plan execution: the view, the bindings, the optional decision
/// counters, the worker pool, the analyze recorder and the
/// strategy overrides ([`Ablation`]).
pub(crate) struct Exec<'a, V: TreeView + ?Sized> {
    pub(crate) view: &'a V,
    pub(crate) bindings: Option<&'a Bindings>,
    pub(crate) stats: Option<&'a EvalStats>,
    pub(crate) pool: Option<&'a WorkerPool>,
    pub(crate) feedback: Option<&'a PlanFeedback>,
    pub(crate) ablation: Ablation,
    /// Execution-order index of the next multi-predicate step — the
    /// row of the [`PlanFeedback`] recorder it writes.
    pub(crate) multi_seq: Cell<usize>,
}

impl<V: TreeView + ?Sized> Exec<'_, V> {
    /// Entry point: evaluates the plan with `context` as the context
    /// node set (one whole-set iteration, like the interpreter's top
    /// level).
    pub(crate) fn run(&self, plan: &PhysScalar, context: &[u64]) -> Result<Value> {
        let d = Domain::Whole(context);
        let l = self.scalar(plan, &d)?;
        Ok(l.value_at(0))
    }

    // -- scalars -------------------------------------------------------

    fn scalar(&self, s: &PhysScalar, d: &Domain<'_>) -> Result<Lifted> {
        let n = d.n();
        match s {
            PhysScalar::Literal(v) => Ok(Lifted::Const(Value::Str(v.clone()))),
            PhysScalar::Number(x) => Ok(Lifted::Const(Value::Number(*x))),
            PhysScalar::Var(name) => Ok(Lifted::Const(
                crate::interp::lookup_var(name, self.bindings)?.clone(),
            )),
            PhysScalar::Const(inner) => {
                // Loop-invariant hoisting, now an explicit plan marker:
                // evaluate once in a context-free domain, broadcast.
                let d0 = Domain::Whole(&[]);
                let l = self.scalar(inner, &d0)?;
                Ok(Lifted::Const(l.value_at(0)))
            }
            PhysScalar::Or(a, b) => {
                let va = self.scalar(a, d)?;
                if let Lifted::Const(v) = &va {
                    if v.to_boolean() {
                        return Ok(Lifted::Const(Value::Boolean(true)));
                    }
                    let vb = self.scalar(b, d)?;
                    return Ok(to_booleans(vb, n));
                }
                // Per-iteration short-circuit: the right operand runs
                // only over the undecided sub-domain.
                let mut out: Vec<bool> = (0..n).map(|i| va.value_at(i).to_boolean()).collect();
                let undecided: Vec<usize> = (0..n).filter(|&i| !out[i]).collect();
                if !undecided.is_empty() {
                    let vb = self.scalar_on_rows(b, d, &undecided)?;
                    for (k, &i) in undecided.iter().enumerate() {
                        out[i] = vb[k];
                    }
                }
                Ok(Lifted::Booleans(out))
            }
            PhysScalar::And(a, b) => {
                let va = self.scalar(a, d)?;
                if let Lifted::Const(v) = &va {
                    if !v.to_boolean() {
                        return Ok(Lifted::Const(Value::Boolean(false)));
                    }
                    let vb = self.scalar(b, d)?;
                    return Ok(to_booleans(vb, n));
                }
                let mut out: Vec<bool> = (0..n).map(|i| va.value_at(i).to_boolean()).collect();
                let undecided: Vec<usize> = (0..n).filter(|&i| out[i]).collect();
                if !undecided.is_empty() {
                    let vb = self.scalar_on_rows(b, d, &undecided)?;
                    for (k, &i) in undecided.iter().enumerate() {
                        out[i] = vb[k];
                    }
                }
                Ok(Lifted::Booleans(out))
            }
            PhysScalar::Compare(op, a, b) => {
                let va = self.scalar(a, d)?;
                let vb = self.scalar(b, d)?;
                if let (Lifted::Const(x), Lifted::Const(y)) = (&va, &vb) {
                    return Ok(Lifted::Const(Value::Boolean(compare(self.view, *op, x, y))));
                }
                Ok(Lifted::Booleans(
                    (0..n)
                        .map(|i| compare(self.view, *op, &va.value_at(i), &vb.value_at(i)))
                        .collect(),
                ))
            }
            PhysScalar::Arith(op, a, b) => {
                let va = self.scalar(a, d)?;
                let vb = self.scalar(b, d)?;
                if let (Lifted::Const(x), Lifted::Const(y)) = (&va, &vb) {
                    return Ok(Lifted::Const(Value::Number(apply_arith(
                        *op,
                        x.to_number(self.view),
                        y.to_number(self.view),
                    ))));
                }
                Ok(Lifted::Numbers(
                    (0..n)
                        .map(|i| {
                            apply_arith(
                                *op,
                                va.value_at(i).to_number(self.view),
                                vb.value_at(i).to_number(self.view),
                            )
                        })
                        .collect(),
                ))
            }
            PhysScalar::Neg(e) => {
                let v = self.scalar(e, d)?;
                if let Lifted::Const(x) = &v {
                    return Ok(Lifted::Const(Value::Number(-x.to_number(self.view))));
                }
                Ok(Lifted::Numbers(
                    (0..n)
                        .map(|i| -v.value_at(i).to_number(self.view))
                        .collect(),
                ))
            }
            PhysScalar::Nodes(rel) => Ok(match self.rel(rel, d)? {
                RelOut::Nodes(cs) => Lifted::Nodes(cs),
                RelOut::Attrs(a) => Lifted::Attrs(a),
            }),
            PhysScalar::Count(rel) => {
                let out = self.rel(rel, d)?;
                Ok(Lifted::Numbers(
                    (0..n)
                        .map(|i| match &out {
                            RelOut::Nodes(cs) => cs.pres_of_iter(i as u32).len() as f64,
                            RelOut::Attrs(a) => a.of_iter(i as u32).len() as f64,
                        })
                        .collect(),
                ))
            }
            PhysScalar::Sum(rel) => {
                let out = self.rel(rel, d)?;
                Ok(Lifted::Numbers(
                    (0..n)
                        .map(|i| match &out {
                            RelOut::Nodes(cs) => cs
                                .pres_of_iter(i as u32)
                                .iter()
                                .map(|&p| str_to_number(&self.view.string_value(p)))
                                .sum(),
                            RelOut::Attrs(a) => a
                                .of_iter(i as u32)
                                .iter()
                                .map(|&(owner, qn)| {
                                    str_to_number(self.view.attr_str(owner, qn).unwrap_or_default())
                                })
                                .sum(),
                        })
                        .collect(),
                ))
            }
            PhysScalar::Exists(rel) => self.exists(rel, d),
            PhysScalar::Call(name, args) => self.call(name, args, d),
        }
    }

    /// Evaluates `s` over the sub-domain selected by `rows`, one boolean
    /// per selected row — the restricted loop relation behind
    /// per-iteration short-circuiting.
    fn scalar_on_rows(&self, s: &PhysScalar, d: &Domain<'_>, rows: &[usize]) -> Result<Vec<bool>> {
        match d {
            Domain::Whole(_) => {
                // n = 1: `rows` can only be [0] — same domain.
                let v = self.scalar(s, d)?;
                Ok(rows.iter().map(|&i| v.value_at(i).to_boolean()).collect())
            }
            Domain::Rows { nodes, pred } => {
                let sub_nodes: Vec<u64> = rows.iter().map(|&i| nodes[i]).collect();
                let sub_vectors = pred.map(|info| {
                    (
                        rows.iter().map(|&i| info.pos[i]).collect::<Vec<f64>>(),
                        rows.iter().map(|&i| info.last[i]).collect::<Vec<f64>>(),
                    )
                });
                let sub_info = sub_vectors
                    .as_ref()
                    .map(|(pos, last)| PredInfo { pos, last });
                let sub = Domain::Rows {
                    nodes: &sub_nodes,
                    pred: sub_info.as_ref(),
                };
                let v = self.scalar(s, &sub)?;
                Ok((0..rows.len())
                    .map(|k| v.value_at(k).to_boolean())
                    .collect())
            }
        }
    }

    /// `Agg(exists)` — with the early-exit probe when the subplan is a
    /// bare context step.
    fn exists(&self, rel: &PhysRel, d: &Domain<'_>) -> Result<Lifted> {
        // Early-exit arm: `exists(context/axis::test)` stops each
        // iteration at its first partner.
        if let PhysRel::Step {
            input,
            axis,
            test,
            preds,
            strategy,
        } = rel
        {
            if preds.is_empty() && matches!(**input, PhysRel::Context) {
                return Ok(match d {
                    Domain::Whole(c) => {
                        let any = self.exists_rows(c, *axis, test, strategy).contains(&true);
                        Lifted::Const(Value::Boolean(any))
                    }
                    Domain::Rows { nodes, .. } => {
                        Lifted::Booleans(self.exists_rows(nodes, *axis, test, strategy))
                    }
                });
            }
        }
        let n = d.n();
        let out = self.rel(rel, d)?;
        Ok(Lifted::Booleans(
            (0..n)
                .map(|i| match &out {
                    RelOut::Nodes(cs) => !cs.pres_of_iter(i as u32).is_empty(),
                    RelOut::Attrs(a) => !a.of_iter(i as u32).is_empty(),
                })
                .collect(),
        ))
    }

    /// Per row, whether `row/axis::test` is non-empty — on the arm the
    /// step's strategy slot resolves to, like any other step: the scan
    /// that stops at each row's first hit, or the (anti-)semijoin of the
    /// rows against the name index.
    fn exists_rows(
        &self,
        rows: &[u64],
        axis: Axis,
        test: &NodeTest,
        strategy: &StepStrategy,
    ) -> Vec<bool> {
        match self.step_arm(rows, axis, strategy) {
            StepArm::NoSuchName => vec![false; rows.len()],
            StepArm::Staircase => {
                self.count_step(false);
                exists_step(self.view, rows, axis, test)
            }
            StepArm::Index(qn) => {
                self.count_step(true);
                exists_semijoin(self.view, rows, &self.postings_around(qn, rows), axis)
            }
        }
    }

    fn call(&self, name: &str, args: &[PhysScalar], d: &Domain<'_>) -> Result<Lifted> {
        match name {
            "position" => {
                let info = d.pred().ok_or(XPathError::Eval {
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
                let info = d.pred().ok_or(XPathError::Eval {
                    message: "last() outside a predicate".into(),
                })?;
                if !args.is_empty() {
                    return Err(XPathError::Eval {
                        message: format!("last() expects 0 argument(s), got {}", args.len()),
                    });
                }
                Ok(Lifted::Numbers(info.last.to_vec()))
            }
            // `[not(child)]` is the anti-semijoin: negate the existence
            // vector as a vector, not through one argument list and one
            // function dispatch per row.
            "not" if args.len() == 1 => Ok(match to_booleans(self.scalar(&args[0], d)?, d.n()) {
                Lifted::Booleans(flags) => Lifted::Booleans(flags.iter().map(|&f| !f).collect()),
                other => Lifted::Const(Value::Boolean(!other.value_at(0).to_boolean())),
            }),
            _ => {
                let mut largs = Vec::with_capacity(args.len());
                for a in args {
                    largs.push(self.scalar(a, d)?);
                }
                // Context-node functions cannot be hoisted.
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
                    return Ok(Lifted::Const(apply_fn(self.view, name, &flat, None)?));
                }
                let mut vals = Vec::with_capacity(d.n());
                for i in 0..d.n() {
                    let argv: Vec<Value> = largs.iter().map(|a| a.value_at(i)).collect();
                    vals.push(apply_fn(self.view, name, &argv, d.node(i))?);
                }
                Ok(pack_values(vals))
            }
        }
    }

    // -- relations -----------------------------------------------------

    fn rel(&self, r: &PhysRel, d: &Domain<'_>) -> Result<RelOut> {
        match r {
            PhysRel::Context => Ok(RelOut::Nodes(d.relation())),
            PhysRel::Root => {
                // Invariant; broadcast defensively into every iteration.
                let root: Vec<u64> = self.view.root_pre().into_iter().collect();
                let mut cs = ContextSeq::new();
                for i in 0..d.n() {
                    for &p in &root {
                        cs.push(i as u32, p);
                    }
                }
                Ok(RelOut::Nodes(cs))
            }
            PhysRel::Const(rel) => {
                let d0 = Domain::Whole(&[]);
                let once = self.rel(rel, &d0)?;
                // Broadcast the single-iteration result into every
                // iteration of the current domain.
                Ok(match once {
                    RelOut::Nodes(cs) => {
                        let mut out = ContextSeq::new();
                        for i in 0..d.n() {
                            for &p in &cs.pres {
                                out.push(i as u32, p);
                            }
                        }
                        RelOut::Nodes(out)
                    }
                    RelOut::Attrs(a) => {
                        let mut out = AttrSeq::new();
                        for i in 0..d.n() {
                            for &at in &a.attrs {
                                out.iters.push(i as u32);
                                out.attrs.push(at);
                            }
                        }
                        RelOut::Attrs(out)
                    }
                })
            }
            PhysRel::Step {
                input,
                axis,
                test,
                preds,
                strategy,
            } => {
                let cs = self.rel_nodes(input, d)?;
                self.step(&cs, *axis, test, preds, strategy, d)
                    .map(RelOut::Nodes)
            }
            PhysRel::AttrStep {
                input,
                name,
                has_preds,
            } => {
                if *has_preds {
                    return Err(XPathError::Eval {
                        message: "predicates on attribute steps are not supported".into(),
                    });
                }
                let cs = self.rel_nodes(input, d)?;
                Ok(RelOut::Attrs(lifted_attributes(
                    self.view,
                    &cs,
                    name.as_ref(),
                )))
            }
            PhysRel::Filter { input, pred } => {
                let cs = self.rel_nodes(input, d)?;
                if cs.is_empty() {
                    return Ok(RelOut::Nodes(cs));
                }
                // Pushed-down predicate: provably non-positional, so no
                // position vectors and no per-context-node expansion —
                // each candidate row is its own iteration.
                let keep = self.pred_flags(pred, &cs.pres, &cs.iters, None)?;
                Ok(RelOut::Nodes(cs.retain_rows(&keep)))
            }
            PhysRel::GroupFilter { input, preds } => {
                let mut cs = self.rel_nodes(input, d)?;
                for pred in preds {
                    cs = self.apply_pred(cs, pred, false)?;
                }
                Ok(RelOut::Nodes(cs))
            }
            PhysRel::ValueProbe {
                input,
                axis,
                test,
                pred,
            } => {
                let ctx = self.rel_nodes(input, d)?;
                self.value_probe_step(&ctx, *axis, test, pred)
                    .map(RelOut::Nodes)
            }
            PhysRel::MultiProbe {
                input,
                axis,
                test,
                preds,
            } => {
                let ctx = self.rel_nodes(input, d)?;
                self.multi_probe_step(&ctx, *axis, test, preds)
                    .map(RelOut::Nodes)
            }
            PhysRel::Union { left, right } => {
                let l = self.rel(left, d)?;
                let r = self.rel(right, d)?;
                match (l, r) {
                    (RelOut::Nodes(a), RelOut::Nodes(b)) => {
                        Ok(RelOut::Nodes(union_relations(&a, &b)))
                    }
                    (RelOut::Attrs(a), RelOut::Attrs(b)) => {
                        Ok(RelOut::Attrs(union_attr_relations(d.n(), &a, &b)))
                    }
                    (a, b) => Err(XPathError::Eval {
                        message: format!(
                            "union requires node sets, got {} and {}",
                            rel_out_type(&a),
                            rel_out_type(&b)
                        ),
                    }),
                }
            }
            PhysRel::FromValue { value } => {
                let v = self.scalar(value, d)?;
                match v {
                    Lifted::Nodes(cs) => Ok(RelOut::Nodes(cs)),
                    Lifted::Attrs(a) => Ok(RelOut::Attrs(a)),
                    Lifted::Const(Value::Nodes(ns)) => {
                        let mut cs = ContextSeq::new();
                        for i in 0..d.n() {
                            for &p in &ns {
                                cs.push(i as u32, p);
                            }
                        }
                        Ok(RelOut::Nodes(cs))
                    }
                    Lifted::Const(Value::Attrs(ats)) => {
                        let mut out = AttrSeq::new();
                        for i in 0..d.n() {
                            for &at in &ats {
                                out.iters.push(i as u32);
                                out.attrs.push(at);
                            }
                        }
                        Ok(RelOut::Attrs(out))
                    }
                    other => Err(XPathError::Eval {
                        message: format!("cannot use a {} as a node sequence", other.type_name()),
                    }),
                }
            }
            PhysRel::Unsupported { message } => Err(XPathError::Eval {
                message: message.clone(),
            }),
        }
    }

    /// A relational input that must be a *tree-node* relation.
    fn rel_nodes(&self, r: &PhysRel, d: &Domain<'_>) -> Result<ContextSeq> {
        match self.rel(r, d)? {
            RelOut::Nodes(cs) => Ok(cs),
            RelOut::Attrs(_) => Err(XPathError::Eval {
                message: "cannot apply a location step to a attribute-set".into(),
            }),
        }
    }

    /// One axis step, strategy-chosen, predicates included (mirrors the
    /// interpreter's `lifted_tree_step`).
    fn step(
        &self,
        input: &ContextSeq,
        axis: Axis,
        test: &NodeTest,
        preds: &[PhysPred],
        strategy: &StepStrategy,
        _d: &Domain<'_>,
    ) -> Result<ContextSeq> {
        if preds.is_empty() {
            return Ok(self.step_relation(input, axis, test, strategy));
        }
        let reverse = matches!(
            axis,
            Axis::Ancestor | Axis::AncestorOrSelf | Axis::Preceding | Axis::PrecedingSibling
        );
        // Expand each input row into its own iteration: the XPath
        // `position()` scope is per context node.
        let expanded = ContextSeq::lift(&input.pres);
        let mut cands = self.step_relation(&expanded, axis, test, strategy);
        for pred in preds {
            cands = self.apply_pred(cands, pred, reverse)?;
        }
        let row_tags: Vec<u32> = cands
            .iters
            .iter()
            .map(|&row| input.iters[row as usize])
            .collect();
        Ok(cands.regroup(&row_tags))
    }

    /// The strategy-dispatched axis-step kernel.
    fn step_relation(
        &self,
        ctx: &ContextSeq,
        axis: Axis,
        test: &NodeTest,
        strategy: &StepStrategy,
    ) -> ContextSeq {
        match self.step_arm(&ctx.pres, axis, strategy) {
            StepArm::NoSuchName => ContextSeq::new(),
            StepArm::Staircase => {
                self.count_step(false);
                self.staircase_step(ctx, axis, test)
            }
            StepArm::Index(qn) => {
                self.count_step(true);
                self.semijoin_rel(ctx, &self.postings_around(qn, &ctx.pres), axis)
            }
        }
    }

    /// Resolves a step's strategy slot for this execution over the
    /// context nodes `rows`. The index arm needs an interned name and an
    /// index-bearing view; [`AxisChoice`] forces either arm where both
    /// exist, and otherwise the cost model decides from the live posting
    /// count.
    fn step_arm(&self, rows: &[u64], axis: Axis, strategy: &StepStrategy) -> StepArm {
        let StepStrategy::Cost(name) = strategy else {
            return StepArm::Staircase;
        };
        let Some(qn) = self.view.pool().lookup_qname(name) else {
            return StepArm::NoSuchName;
        };
        let Some(k) = self.view.elements_named_count(qn) else {
            return StepArm::Staircase;
        };
        let index = match self.ablation.axis {
            AxisChoice::ForceIndex => true,
            AxisChoice::ForceStaircase => false,
            AxisChoice::Auto => self.index_cheaper(rows, axis, k),
        };
        if index {
            StepArm::Index(qn)
        } else {
            StepArm::Staircase
        }
    }

    /// The postings of `qn` a structural join from `rows` can match:
    /// those inside the window the rows' regions span, so the probe
    /// translates what lies near the context, not the name's whole list.
    fn postings_around(&self, qn: QnId, rows: &[u64]) -> std::borrow::Cow<'_, [u64]> {
        region_window(self.view, rows)
            .and_then(|(lo, hi)| self.view.elements_named_in(qn, lo, hi))
            .unwrap_or_default()
    }

    // -- morsel-parallel execution -------------------------------------
    //
    // Auto-mode parallelism gates are **break-even thresholds**, not
    // fixed volumes: splitting a job of `work_ns` sequential nanoseconds
    // over `f` threads saves `work_ns · (1 − 1/f)` but pays a fixed
    // `morsels · overhead + merge` (overhead measured per pool at spawn,
    // see [`WorkerPool::new`]). Solving for the work that breaks even
    // gives, per work-unit class,
    //
    //   threshold_units = (morsels · overhead + merge) · 10 · f
    //                     / (unit_ns_x10 · (f − 1))
    //
    // so the gate adapts to live pool width, this host's measured morsel
    // overhead, and the kernel arm's throughput class — a wide pool with
    // cheap dispatch splits smaller jobs; a simd scan needs more slots
    // than a scalar one before splitting pays (each slot is cheaper, so
    // the same fixed cost amortizes over less saved time).

    /// Estimated sequential cost of one scanned slot under the scalar
    /// chunk kernel, in tenths of a nanosecond.
    const SCALAR_SLOT_NS_X10: u64 = 10;
    /// One scanned slot under the compiled vector kernel (16 byte lanes
    /// per compare), in tenths of a nanosecond.
    const SIMD_SLOT_NS_X10: u64 = 3;
    /// One semijoin context row (two binary searches), x10 ns.
    const SEMIJOIN_ROW_NS_X10: u64 = 600;
    /// One predicate evaluation row (scalar-plan dispatch per row —
    /// far heavier than a scan slot), x10 ns.
    const PRED_ROW_NS_X10: u64 = 1500;
    /// Fixed cost of merging per-morsel results, in nanoseconds.
    const MERGE_NS: u64 = 2_000;

    /// The scan-slot cost class of the active kernel arm. Off x86_64
    /// [`KernelArm::Simd`] runs the scalar loops, and costs like them.
    fn scan_slot_ns_x10(&self) -> u64 {
        if self.ablation.kernel == KernelArm::Simd && simd_compiled() {
            Self::SIMD_SLOT_NS_X10
        } else {
            Self::SCALAR_SLOT_NS_X10
        }
    }

    /// Minimum work units (of `unit_ns_x10` each) before a parallel
    /// split breaks even on this pool at this fan-out — the formula in
    /// the module comment above. `u64::MAX` when there is no pool to
    /// split on.
    fn par_threshold_units(&self, unit_ns_x10: u64, fanout: usize) -> u64 {
        let Some(pool) = self.pool else {
            return u64::MAX;
        };
        let f = fanout as u64;
        if f < 2 {
            return u64::MAX;
        }
        let morsels = (fanout * 4) as u64;
        let fixed_ns = morsels
            .saturating_mul(pool.morsel_overhead_ns())
            .saturating_add(Self::MERGE_NS);
        fixed_ns
            .saturating_mul(10)
            .saturating_mul(f)
            .div_ceil(unit_ns_x10 * (f - 1))
            .max(1)
    }

    /// Threads a parallel region may occupy: 1 (= stay sequential)
    /// without a pool or under [`ParChoice::ForceSequential`], else the
    /// pool width.
    fn fanout(&self) -> usize {
        let Some(pool) = self.pool else { return 1 };
        if self.ablation.par == ParChoice::ForceSequential {
            return 1;
        }
        pool.threads()
    }

    /// Whether every splittable input splits, into one-row (or
    /// one-slot) morsels — [`ParChoice::ForceParallel`], which tests
    /// force to cross every morsel boundary.
    fn force_parallel(&self) -> bool {
        self.ablation.par == ParChoice::ForceParallel
    }

    /// Morsel-count target for `units` rows or slots: a few morsels
    /// per thread so work stealing has slack, or one per unit when
    /// parallelism is forced.
    fn morsel_parts(&self, units: usize, fanout: usize) -> usize {
        if self.force_parallel() {
            units
        } else {
            fanout * 4
        }
    }

    /// Whether Σ (context subtree size + 1) reaches `threshold`, with
    /// an early out — the Auto-mode work gate for splitting a scan.
    fn scan_work_clears(&self, ctx: &ContextSeq, threshold: u64) -> bool {
        let mut work = 0u64;
        for &c in &ctx.pres {
            work = work.saturating_add(self.view.size(c) + 1);
            if work >= threshold {
                return true;
            }
        }
        false
    }

    fn note_par(&self, morsels: usize, steals: u64) {
        if let Some(stats) = self.stats {
            stats.par_steps.set(stats.par_steps.get() + 1);
            stats.morsels.set(stats.morsels.get() + morsels as u64);
            stats.steals.set(stats.steals.get() + steals);
        }
    }

    /// Counts one scan-shaped operator dispatched to the vector kernel
    /// arm (the counter tracks dispatch; off x86_64 the arm runs the
    /// scalar loops, see [`crate::simd_compiled`]).
    fn note_simd(&self) {
        if self.ablation.kernel == KernelArm::Simd {
            if let Some(stats) = self.stats {
                stats.simd_steps.set(stats.simd_steps.get() + 1);
            }
        }
    }

    /// Runs `f` over group-aligned morsels of `ctx` on the pool and
    /// concatenates the per-morsel relations in morsel order — which is
    /// group order, so the merged result is bit-identical to `f(ctx)`
    /// for any per-group operator. Returns `None` when the relation
    /// does not actually split (one group, no pool); the caller falls
    /// back to the sequential kernel.
    fn par_relation(
        &self,
        ctx: &ContextSeq,
        fanout: usize,
        f: &(dyn Fn(&ContextSeq) -> ContextSeq + Sync),
    ) -> Option<ContextSeq> {
        let pool = self.pool?;
        let ranges = par::morsel_ranges(&ctx.iters, self.morsel_parts(ctx.len(), fanout));
        if ranges.len() < 2 {
            return None;
        }
        let results: Mutex<Vec<(usize, ContextSeq)>> = Mutex::new(Vec::with_capacity(ranges.len()));
        let steals = pool.run(ranges.len(), &|m| {
            let (start, end) = ranges[m];
            let sub = ContextSeq {
                iters: ctx.iters[start..end].to_vec(),
                pres: ctx.pres[start..end].to_vec(),
            };
            let out = f(&sub);
            results.lock().unwrap().push((m, out));
        });
        let mut results = results.into_inner().unwrap();
        results.sort_unstable_by_key(|&(m, _)| m);
        let mut merged = ContextSeq::new();
        for (_, part) in results {
            merged.iters.extend_from_slice(&part.iters);
            merged.pres.extend_from_slice(&part.pres);
        }
        self.note_par(ranges.len(), steals);
        Some(merged)
    }

    /// The staircase arm of an axis step, with the two morsel-parallel
    /// fast paths: multi-group contexts split by rows at group
    /// boundaries; single-group descendant steps split by subtree
    /// region (`//desc` from the root is one group and would otherwise
    /// never parallelize).
    fn staircase_step(&self, ctx: &ContextSeq, axis: Axis, test: &NodeTest) -> ContextSeq {
        if matches!(
            axis,
            Axis::Descendant | Axis::DescendantOrSelf | Axis::Following
        ) {
            // Scan-shaped axes route through the chunk kernels.
            self.note_simd();
        }
        let kernel = self.ablation.kernel;
        let fanout = self.fanout();
        if fanout >= 2 && !ctx.is_empty() {
            let threshold = self.par_threshold_units(self.scan_slot_ns_x10(), fanout);
            let eligible = self.force_parallel() || self.scan_work_clears(ctx, threshold);
            if eligible {
                let or_self = match axis {
                    Axis::Descendant => Some(false),
                    Axis::DescendantOrSelf => Some(true),
                    _ => None,
                };
                let single_group = ctx.iters.first() == ctx.iters.last();
                if let (Some(or_self), true) = (or_self, single_group) {
                    if let Some(out) = self.par_descendant_scan(ctx, test, or_self, fanout) {
                        return out;
                    }
                }
                let view = self.view;
                if let Some(out) = self.par_relation(ctx, fanout, &|sub| {
                    step_lifted_with(view, sub, axis, test, kernel)
                }) {
                    return out;
                }
            }
        }
        step_lifted_with(self.view, ctx, axis, test, kernel)
    }

    /// Region-split parallel descendant scan for a single-group
    /// context: partition the horizon-pruned subtree ranges by slot
    /// volume, scan each chunk on the pool, concatenate in chunk order
    /// (= document order — identical to the sequential staircase).
    fn par_descendant_scan(
        &self,
        ctx: &ContextSeq,
        test: &NodeTest,
        or_self: bool,
        fanout: usize,
    ) -> Option<ContextSeq> {
        let pool = self.pool?;
        let ranges = descendant_scan_ranges(self.view, &ctx.pres, or_self);
        let slots: u64 = ranges.iter().map(|&(lo, hi)| hi - lo).sum();
        let parts = self.morsel_parts(slots as usize, fanout);
        let chunks = par::range_chunks(&ranges, parts.max(1));
        if chunks.len() < 2 {
            return None;
        }
        let view = self.view;
        let kernel = self.ablation.kernel;
        let results: Mutex<Vec<(usize, Vec<u64>)>> = Mutex::new(Vec::with_capacity(chunks.len()));
        let steals = pool.run(chunks.len(), &|m| {
            let mut out = Vec::new();
            scan_ranges_arm(view, &chunks[m], test, kernel, &mut out);
            results.lock().unwrap().push((m, out));
        });
        let mut results = results.into_inner().unwrap();
        results.sort_unstable_by_key(|&(m, _)| m);
        let iter = ctx.iters[0];
        let mut merged = ContextSeq::new();
        for (_, part) in results {
            for p in part {
                merged.push(iter, p);
            }
        }
        self.note_par(chunks.len(), steals);
        Some(merged)
    }

    /// Range semijoin with the morsel-parallel path: large contexts
    /// split by group into morsels probing the shared candidate list.
    fn semijoin_rel(&self, ctx: &ContextSeq, cands: &[u64], axis: Axis) -> ContextSeq {
        let fanout = self.fanout();
        if fanout >= 2
            && !cands.is_empty()
            && (self.force_parallel()
                || ctx.len() as u64 >= self.par_threshold_units(Self::SEMIJOIN_ROW_NS_X10, fanout))
        {
            let view = self.view;
            if let Some(out) =
                self.par_relation(ctx, fanout, &|sub| range_semijoin(view, sub, cands, axis))
            {
                return out;
            }
        }
        range_semijoin(self.view, ctx, cands, axis)
    }

    /// The cost model: the staircase arm scans the context regions
    /// (≈ Σ subtree sizes, where every visited slot pays one pass of a
    /// tight chunk-kernel loop); the index arm touches the precomputed
    /// probe list once plus two binary searches per context node.
    /// Statistics come from the live view at execution time, so cached
    /// plans re-cost on every run as the document changes.
    ///
    /// The scan weight is no longer a single constant: the vector
    /// kernel arm discounts the per-slot cost (16 byte lanes per
    /// compare vs one), and when the query pool would split the scan,
    /// its estimate is divided by the live fan-out and charged the
    /// pool's measured per-morsel overhead — so staircase-vs-index
    /// decisions stop assuming a sequential scalar executor. One cost
    /// unit is calibrated at ≈ 0.125 ns (a scalar slot = 8 units ≈
    /// 1 ns; costs run in x4 fixed-point so the vector discount can be
    /// fractional).
    fn index_cheaper(&self, ctx: &[u64], axis: Axis, k: u64) -> bool {
        let _ = axis;
        let fanout = self.fanout() as u64;
        // Both arms pay per-context-node fixed work — the probe its two
        // binary searches, the staircase its horizon/cursor bookkeeping
        // — so both sides carry the same 8-per-node charge and the
        // comparison reduces to posting-list length vs scan volume.
        // (The seed model charged only the index arm, which made tiny
        // staircase steps look free and cost q15_deep_path ~2x.)
        let per_node = (ctx.len() as u64) * 8 * 4;
        let index_cost = k * 4 + per_node;
        // Early-out cap: once the *parallel-adjusted* scan estimate
        // already dwarfs the probe we can stop summing subtree sizes.
        let cap = index_cost.saturating_mul(2).saturating_mul(fanout);
        index_cost < self.scan_units(ctx, cap)
    }

    /// The scan side of the cost model: Σ (context subtree size + 1)
    /// slots at the kernel arm's per-slot weight, plus the per-node
    /// charge, adjusted to the parallel shape when the pool would split
    /// the scan. Summation stops early once the running estimate
    /// clears `cap` — callers only compare against costs at or below
    /// it, so "bigger than cap" is as good as the exact figure.
    fn scan_units(&self, ctx: &[u64], cap: u64) -> u64 {
        // Per-slot scan weight by kernel throughput class, in x4
        // fixed-point. The scalar value keeps the pre-vectorization
        // calibration (8 = the old weight 2: a tight columnar loop
        // over a contiguous page slice); the vector arm discounts
        // 12.5 % — byte compares collapse 16 slots into one compare,
        // but a staircase step's emit, probe-resolution, horizon and
        // tail halves stay scalar, so measured end-to-end step cost
        // drops far less than lane width suggests (plan_cost's
        // auto-vs-best assertion is the empirical guard on this
        // constant). Off x86_64 the vector arm runs the scalar loops
        // and keeps the scalar weight.
        let scan_weight: u64 = if self.ablation.kernel == KernelArm::Simd && simd_compiled() {
            7
        } else {
            8
        };
        let fanout = self.fanout() as u64;
        let mut scan_cost: u64 = (ctx.len() as u64) * 8 * 4;
        for &c in ctx {
            scan_cost =
                scan_cost.saturating_add((self.view.size(c) + 1).saturating_mul(scan_weight));
            if scan_cost > cap {
                return scan_cost;
            }
        }
        if fanout >= 2 {
            // Would this scan actually split? Mirror the staircase
            // gate; if it clears, cost the scan at its parallel shape.
            let slots = scan_cost / scan_weight;
            if slots >= self.par_threshold_units(self.scan_slot_ns_x10(), fanout as usize) {
                let overhead_ns = self.pool.map_or(0, |p| p.morsel_overhead_ns());
                let fixed_ns = (fanout * 4)
                    .saturating_mul(overhead_ns)
                    .saturating_add(Self::MERGE_NS);
                // 1 cost unit ≈ 0.125 ns, so fixed ns count 8x.
                scan_cost = scan_cost / fanout + fixed_ns.saturating_mul(8);
            }
        }
        scan_cost
    }

    fn count_step(&self, index: bool) {
        if let Some(stats) = self.stats {
            if index {
                stats.index_steps.set(stats.index_steps.get() + 1);
            } else {
                stats.staircase_steps.set(stats.staircase_steps.get() + 1);
            }
        }
    }

    // -- value-probe steps ---------------------------------------------

    /// Resolves a predicate's slot against this execution's bindings —
    /// once, at the top of the step, so everything below (estimates,
    /// the cost model, the probe, the scan mask) runs on a plain key
    /// and cannot tell a bound parameter from a literal. A string is an
    /// equality key under `=` and its `number()` under an order
    /// operator; a number is an interval; `NaN` on either route matches
    /// nothing (every XPath comparison with `NaN` is false). A boolean,
    /// node-set or attribute-set binding has no key form and keeps
    /// XPath's general comparison. An unbound parameter is the usual
    /// `unbound variable` error.
    fn resolve<'s>(&'s self, pred: &'s ValuePred) -> Result<Resolved<'s>> {
        enum Key<'k> {
            Str(&'k str),
            Num(f64),
        }
        let key = match &pred.operand {
            Operand::Str(s) => Key::Str(s),
            Operand::Num(n) => Key::Num(*n),
            Operand::Param(name) => match crate::interp::lookup_var(name, self.bindings)? {
                Value::Str(s) => Key::Str(s),
                Value::Number(n) => Key::Num(*n),
                other => return Ok(Resolved::General(other)),
            },
        };
        let cmp = match (pred.op, key) {
            (CmpOp::Eq, Key::Str(s)) => ValueCmp::Eq(s),
            (op, key) => {
                let n = match key {
                    Key::Str(s) => str_to_number(s),
                    Key::Num(n) => n,
                };
                if n.is_nan() {
                    return Ok(Resolved::Never);
                }
                ValueCmp::InRange(match op {
                    CmpOp::Eq => NumRange::exactly(n),
                    CmpOp::Gt => NumRange::at_least(n, false),
                    CmpOp::Ge => NumRange::at_least(n, true),
                    CmpOp::Lt => NumRange::at_most(n, false),
                    CmpOp::Le => NumRange::at_most(n, true),
                    CmpOp::Ne => unreachable!("the rewriter never lowers `!=`"),
                })
            }
        };
        Ok(Resolved::Key(KeyPred {
            source: &pred.source,
            cmp,
        }))
    }

    /// One value-predicate step (`PhysRel::ValueProbe`): resolve the
    /// slot, then choose between the content-index probe + range
    /// semijoin and the scalar scan from the resolved key's posting
    /// count vs the context's region sizes (same model as the
    /// element-name index, since the probe's semijoin half is
    /// identical). The choice is per execution *and* per key: a hot
    /// key bound to the same cached plan steers to the scan.
    fn value_probe_step(
        &self,
        ctx: &ContextSeq,
        axis: Axis,
        test: &NodeTest,
        pred: &ValuePred,
    ) -> Result<ContextSeq> {
        if ctx.is_empty() {
            return Ok(ContextSeq::new());
        }
        let pred = match self.resolve(pred)? {
            Resolved::Key(k) => k,
            Resolved::Never => return Ok(ContextSeq::new()),
            Resolved::General(bound) => {
                self.count_value_step(false);
                let cands = self.scan_candidates(ctx, axis, test);
                let keep = self.general_pred_mask(&cands.pres, pred, bound);
                return Ok(cands.retain_rows(&keep));
            }
        };
        let use_probe = if !self.view.has_content_index() {
            false
        } else {
            match self.ablation.value {
                ValueChoice::ForceProbe => true,
                ValueChoice::ForceScan => false,
                ValueChoice::Auto => {
                    self.index_cheaper(&ctx.pres, axis, self.value_probe_estimate(test, &pred))
                }
            }
        };
        self.count_value_step(use_probe);
        if !use_probe {
            let cands = self.scan_candidates(ctx, axis, test);
            let keep = self.value_pred_mask(&cands.pres, &pred);
            return Ok(cands.retain_rows(&keep));
        }
        let cands = self.value_probe_candidates(test, &pred);
        Ok(self.semijoin_rel(ctx, &cands, axis))
    }

    /// Match count from the content index's counts (complex-content
    /// candidates included — each costs a verify).
    /// A name that was never interned matches nothing: estimate 0.
    fn value_probe_estimate(&self, test: &NodeTest, pred: &KeyPred<'_>) -> u64 {
        match &pred.source {
            ValueSource::Attr(a) => match self.view.pool().lookup_qname(a) {
                None => 0,
                Some(aqn) => match &pred.cmp {
                    ValueCmp::Eq(v) => self.view.nodes_with_attr_value_count(aqn, v),
                    ValueCmp::InRange(r) => self.view.nodes_with_attr_value_range_count(aqn, r),
                }
                .unwrap_or(0),
            },
            ValueSource::SelfValue => match test {
                NodeTest::Name(t) => self.text_count(t, &pred.cmp),
                _ => 0,
            },
            ValueSource::Child(c) => self.text_count(c, &pred.cmp),
        }
    }

    /// Estimated `text_probe_hits` cardinality for elements named
    /// `name` (exact arm + complex remainder).
    fn text_count(&self, name: &mbxq_xml::QName, cmp: &ValueCmp<'_>) -> u64 {
        let Some(qn) = self.view.pool().lookup_qname(name) else {
            return 0;
        };
        match cmp {
            ValueCmp::Eq(v) => self.view.elements_with_text_count(qn, v),
            ValueCmp::InRange(r) => self.view.elements_with_text_range_count(qn, r),
        }
        .unwrap_or(0)
    }

    /// The probe arm's candidate list: document-ordered, deduplicated
    /// pre ranks of elements satisfying `test` + `pred`. Only called
    /// when the view has a content index.
    fn value_probe_candidates(&self, test: &NodeTest, pred: &KeyPred<'_>) -> Vec<u64> {
        let pool = self.view.pool();
        match &pred.source {
            ValueSource::Attr(a) => {
                let Some(aqn) = pool.lookup_qname(a) else {
                    return Vec::new();
                };
                let mut hits = match &pred.cmp {
                    ValueCmp::Eq(v) => self.view.nodes_with_attr_value(aqn, v),
                    ValueCmp::InRange(r) => self.view.nodes_with_attr_value_range(aqn, r),
                }
                .unwrap_or_default();
                if let NodeTest::Name(t) = test {
                    match pool.lookup_qname(t) {
                        Some(tqn) => hits.retain(|&p| self.view.name_id(p) == Some(tqn)),
                        None => hits.clear(),
                    }
                }
                hits
            }
            ValueSource::SelfValue => {
                let NodeTest::Name(t) = test else {
                    return Vec::new(); // lowering guarantees a name test
                };
                self.text_probe_hits(t, &pred.cmp)
            }
            ValueSource::Child(c) => {
                let children_with_value = self.text_probe_hits(c, &pred.cmp);
                let mut parents: Vec<u64> = children_with_value
                    .into_iter()
                    .filter_map(|p| self.view.parent_of(p))
                    .collect();
                if let NodeTest::Name(t) = test {
                    match pool.lookup_qname(t) {
                        Some(tqn) => parents.retain(|&p| self.view.name_id(p) == Some(tqn)),
                        None => parents.clear(),
                    }
                }
                parents.sort_unstable();
                parents.dedup();
                parents
            }
        }
    }

    /// Elements named `name` whose string value satisfies `cmp`: the
    /// exact index arm merged with the verified complex-content
    /// remainder (both document-ordered).
    fn text_probe_hits(&self, name: &mbxq_xml::QName, cmp: &ValueCmp<'_>) -> Vec<u64> {
        let Some(qn) = self.view.pool().lookup_qname(name) else {
            return Vec::new();
        };
        let probe = match cmp {
            ValueCmp::Eq(v) => self.view.elements_with_text(qn, v),
            ValueCmp::InRange(r) => self.view.elements_with_text_range(qn, r),
        }
        .unwrap_or_default();
        let verified: Vec<u64> = probe
            .unindexed
            .into_iter()
            .filter(|&p| self.string_value_matches(p, cmp))
            .collect();
        merge_sorted(probe.exact, verified)
    }

    /// Whether the string value of the node at `pre` satisfies `cmp`.
    fn string_value_matches(&self, pre: u64, cmp: &ValueCmp<'_>) -> bool {
        cmp_value(&self.view.string_value(pre), cmp)
    }

    /// The candidate half of the scan arm: the plain axis step (itself
    /// cost-annotated when the test is a name). Followed by a
    /// per-candidate mask it is observably the `Step` + `Filter` pair
    /// the lowering replaced.
    fn scan_candidates(&self, ctx: &ContextSeq, axis: Axis, test: &NodeTest) -> ContextSeq {
        let strategy = match test {
            NodeTest::Name(n) => StepStrategy::Cost(n.clone()),
            _ => StepStrategy::Staircase,
        };
        self.step_relation(ctx, axis, test, &strategy)
    }

    /// Per-candidate verification of a predicate whose parameter is
    /// bound to a boolean, node set or attribute set: the candidate's
    /// source as the node/attribute set the filter form would build,
    /// compared against the bound value under XPath's general rules.
    fn general_pred_mask(&self, pres: &[u64], pred: &ValuePred, bound: &Value) -> Vec<bool> {
        let pool = self.view.pool();
        let source_of = |p: u64| -> Value {
            match &pred.source {
                ValueSource::SelfValue => Value::Nodes(vec![p]),
                ValueSource::Attr(a) => Value::Attrs(
                    pool.lookup_qname(a)
                        .filter(|&aqn| self.view.attr_str(p, aqn).is_some())
                        .map(|aqn| (p, aqn))
                        .into_iter()
                        .collect(),
                ),
                ValueSource::Child(c) => Value::Nodes(match pool.lookup_qname(c) {
                    None => Vec::new(),
                    Some(cqn) => mbxq_axes::children(self.view, p)
                        .filter(|&ch| self.view.name_id(ch) == Some(cqn))
                        .collect(),
                }),
            }
        };
        pres.iter()
            .map(|&p| compare(self.view, pred.op, &source_of(p), bound))
            .collect()
    }

    /// Per-candidate verification of one recognized value predicate:
    /// `keep[i]` iff the node at `pres[i]` satisfies `pred`. The
    /// columnar half of the scan arm and the residual-verify pass of
    /// multi-predicate steps.
    fn value_pred_mask(&self, pres: &[u64], pred: &KeyPred<'_>) -> Vec<bool> {
        let pool = self.view.pool();
        match (&pred.source, &pred.cmp) {
            // Numeric range tests gather the parsed values into one
            // f64 column and run the chunk kernel's range mask over it
            // (two lanes per compare under the vector arm).
            (ValueSource::SelfValue, ValueCmp::InRange(r)) => {
                let vals: Vec<f64> = pres
                    .iter()
                    .map(|&p| str_to_number(&self.view.string_value(p)))
                    .collect();
                self.note_simd();
                let mut keep = Vec::new();
                in_range_mask(&vals, r, self.ablation.kernel, &mut keep);
                keep
            }
            (ValueSource::Attr(a), ValueCmp::InRange(r)) => match pool.lookup_qname(a) {
                None => vec![false; pres.len()],
                Some(aqn) => {
                    // A missing or unparsable attribute becomes NaN,
                    // which fails every range compare — the columnar
                    // twin of "no attribute → no match".
                    let vals: Vec<f64> = pres
                        .iter()
                        .map(|&p| self.view.attr_str(p, aqn).map_or(f64::NAN, str_to_number))
                        .collect();
                    self.note_simd();
                    let mut keep = Vec::new();
                    in_range_mask(&vals, r, self.ablation.kernel, &mut keep);
                    keep
                }
            },
            (ValueSource::SelfValue, _) => pres
                .iter()
                .map(|&p| self.string_value_matches(p, &pred.cmp))
                .collect(),
            (ValueSource::Attr(a), _) => match pool.lookup_qname(a) {
                None => vec![false; pres.len()],
                Some(aqn) => pres
                    .iter()
                    .map(|&p| {
                        self.view
                            .attr_str(p, aqn)
                            .is_some_and(|v| cmp_value(v, &pred.cmp))
                    })
                    .collect(),
            },
            (ValueSource::Child(c), _) => match pool.lookup_qname(c) {
                None => vec![false; pres.len()],
                Some(cqn) => pres
                    .iter()
                    .map(|&p| {
                        mbxq_axes::children(self.view, p)
                            .filter(|&ch| self.view.name_id(ch) == Some(cqn))
                            .any(|ch| self.string_value_matches(ch, &pred.cmp))
                    })
                    .collect(),
            },
        }
    }

    fn count_value_step(&self, probe: bool) {
        if let Some(stats) = self.stats {
            if probe {
                stats
                    .value_probe_steps
                    .set(stats.value_probe_steps.get() + 1);
            } else {
                stats.value_scan_steps.set(stats.value_scan_steps.get() + 1);
            }
        }
    }

    // -- multi-predicate steps -----------------------------------------

    /// Cost units (0.125 ns each) to verify one residual predicate
    /// against one candidate node: an attribute/child lookup plus a
    /// string or parsed-number compare, ≈ 50 ns. Far below the general
    /// predicate-row charge (`PRED_ROW_NS_X10`) because a recognized
    /// value predicate skips the whole lifted-expression machinery.
    const VERIFY_ROW_UNITS: u64 = 400;

    /// Cost units to materialize one posting row of a candidate list:
    /// the index walk (range gathers touch a key run, point lookups
    /// walk a posting run, both translate node ids) plus the sort
    /// guarantee, ≈ 35 ns measured on the `multi_pred` corpus. Close
    /// enough to [`Exec::VERIFY_ROW_UNITS`] that a list longer than
    /// ~1.4x the running candidate bound stays out of the
    /// intersection prefix — materializing it would cost more than
    /// verifying its predicate per candidate.
    const MATERIALIZE_ROW_UNITS: u64 = 280;

    /// Pessimistic cardinality bound for one recognized predicate: the
    /// content index's posting estimate capped by the per-index degree
    /// statistics — `max_postings` for a point predicate can never be
    /// exceeded by any single key, `total_postings` bounds any range.
    /// The estimate is exact and both figures bound it from above, so
    /// the bound errs large, never small (the Sidorenko-style
    /// pessimistic guarantee: a plan ranked safe is safe).
    fn multi_pred_bound(&self, test: &NodeTest, pred: &KeyPred<'_>) -> u64 {
        self.value_probe_estimate(test, pred)
            .min(self.degree_cap(test, pred))
    }

    /// The degree-statistics half of [`Exec::multi_pred_bound`];
    /// `u64::MAX` when the view keeps no statistics for the source.
    fn degree_cap(&self, test: &NodeTest, pred: &KeyPred<'_>) -> u64 {
        fn cap_of(stats: DegreeStats, cmp: &ValueCmp<'_>) -> u64 {
            match cmp {
                ValueCmp::Eq(_) => stats.max_postings,
                ValueCmp::InRange(_) => stats.total_postings,
            }
        }
        let pool = self.view.pool();
        let name = match &pred.source {
            ValueSource::Attr(a) => {
                return pool
                    .lookup_qname(a)
                    .and_then(|q| self.view.attr_degree_stats(q))
                    .map_or(u64::MAX, |s| cap_of(s, &pred.cmp))
            }
            ValueSource::SelfValue => match test {
                NodeTest::Name(t) => t,
                _ => return u64::MAX,
            },
            ValueSource::Child(c) => c,
        };
        pool.lookup_qname(name)
            .and_then(|q| self.view.text_degree_stats(q))
            .map_or(u64::MAX, |s| cap_of(s, &pred.cmp))
    }

    /// The join-order search for one multi-predicate step. Predicates
    /// are ranked ascending by their pessimistic bound; the
    /// intersection prefix then grows greedily — the next-ranked list
    /// joins while materializing it (its postings plus the galloping
    /// probes into it) costs less than verifying the running candidate
    /// bound against its predicate per node. A hot-key list (skew: one
    /// key holding most postings) ranks last and fails that test, so
    /// the search steers around the bad intersection order by
    /// construction. The winning probe shape then competes with the
    /// scalar scan on the same unit scale as [`Exec::index_cheaper`].
    /// Returns the strategy and the pessimistic bound on candidate
    /// rows (the minimum over every predicate's bound — intersection
    /// and residual verification only shrink the set).
    fn choose_multi(
        &self,
        choice: MultiChoice,
        ctx: &ContextSeq,
        test: &NodeTest,
        preds: &[KeyPred<'_>],
    ) -> (MultiStrategy, u64) {
        let bounds: Vec<u64> = preds
            .iter()
            .map(|p| self.multi_pred_bound(test, p))
            .collect();
        let mut order: Vec<usize> = (0..preds.len()).collect();
        order.sort_by_key(|&i| bounds[i]);
        let est = bounds[order[0]];
        match choice {
            MultiChoice::ForceScan => return (MultiStrategy::Scan, est),
            MultiChoice::ForceBestProbe => return (MultiStrategy::Probe(vec![order[0]]), est),
            MultiChoice::ForceIntersect => return (MultiStrategy::Probe(order), est),
            MultiChoice::Auto => {}
        }
        let mut prefix = vec![order[0]];
        let mut bound = est;
        let mut probe_cost = est.saturating_mul(Self::MATERIALIZE_ROW_UNITS);
        for &j in &order[1..] {
            let k = bounds[j];
            // Galloping probes: the running candidate set binary-walks
            // the next list, ~log2(k) touches per candidate.
            let gallop = 64 - k.max(2).leading_zeros() as u64;
            let materialize = k
                .saturating_mul(Self::MATERIALIZE_ROW_UNITS)
                .saturating_add(bound.saturating_mul(gallop * 4));
            let verify = bound.saturating_mul(Self::VERIFY_ROW_UNITS);
            if materialize < verify {
                prefix.push(j);
                probe_cost = probe_cost.saturating_add(materialize);
                bound = bound.min(k);
            } else {
                probe_cost = probe_cost.saturating_add(verify);
            }
        }
        let per_node = (ctx.len() as u64) * 8 * 4;
        let index_cost = probe_cost.saturating_add(per_node);
        let cap = index_cost
            .saturating_mul(2)
            .saturating_mul(self.fanout() as u64);
        if index_cost < self.scan_units(&ctx.pres, cap) {
            (MultiStrategy::Probe(prefix), bound)
        } else {
            (MultiStrategy::Scan, bound)
        }
    }

    /// One multi-predicate step (`PhysRel::MultiProbe`): resolve every
    /// slot, derive the strategy from this execution's bounds (one
    /// count probe per predicate, so a `$param` step is costed for the
    /// key it is bound to now), execute it, and write the
    /// estimated-vs-observed candidate cardinality into the analyze
    /// recorder, if one is attached. Nothing recorded by an earlier
    /// execution is read: a strategy derived under other bounds says
    /// nothing about these.
    fn multi_probe_step(
        &self,
        ctx: &ContextSeq,
        axis: Axis,
        test: &NodeTest,
        preds: &[ValuePred],
    ) -> Result<ContextSeq> {
        let seq = self.multi_seq.get();
        self.multi_seq.set(seq + 1);
        if ctx.is_empty() {
            return Ok(ContextSeq::new());
        }
        if let Some(stats) = self.stats {
            stats
                .multi_probe_steps
                .set(stats.multi_probe_steps.get() + 1);
        }
        let mut keyed: Vec<KeyPred<'_>> = Vec::with_capacity(preds.len());
        let mut general: Vec<(&ValuePred, &Value)> = Vec::new();
        for pred in preds {
            match self.resolve(pred)? {
                Resolved::Key(k) => keyed.push(k),
                // One predicate nothing satisfies empties the conjunction.
                Resolved::Never => return Ok(ContextSeq::new()),
                Resolved::General(bound) => general.push((pred, bound)),
            }
        }
        let (strategy, estimated) = if !general.is_empty() || !self.view.has_content_index() {
            // No index, or a predicate with no key form: every arm
            // degenerates to the scan.
            (MultiStrategy::Scan, 0)
        } else {
            self.choose_multi(self.ablation.multi, ctx, test, &keyed)
        };
        let mut pred_lists: Vec<Option<u64>> = vec![None; preds.len()];
        let observed;
        let out = match &strategy {
            MultiStrategy::Scan => {
                let mut cands = self.scan_candidates(ctx, axis, test);
                for pred in &keyed {
                    if cands.is_empty() {
                        break;
                    }
                    let keep = self.value_pred_mask(&cands.pres, pred);
                    cands = cands.retain_rows(&keep);
                }
                for (pred, bound) in &general {
                    if cands.is_empty() {
                        break;
                    }
                    let keep = self.general_pred_mask(&cands.pres, pred, bound);
                    cands = cands.retain_rows(&keep);
                }
                // The scan produces context-joined rows directly, so
                // "observed" counts result rows here — still a valid
                // lower-bound signal for the document-wide estimate.
                observed = cands.len() as u64;
                cands
            }
            MultiStrategy::Probe(prefix) => {
                let mut cands = self.intersect_prefix(test, &keyed, prefix, &mut pred_lists);
                // Residual verification: predicates outside the
                // intersection prefix, applied per candidate.
                for (i, pred) in keyed.iter().enumerate() {
                    if prefix.contains(&i) || cands.is_empty() {
                        continue;
                    }
                    let keep = self.value_pred_mask(&cands, pred);
                    let mut kept = Vec::with_capacity(cands.len());
                    for (idx, &p) in cands.iter().enumerate() {
                        if keep[idx] {
                            kept.push(p);
                        }
                    }
                    cands = kept;
                }
                observed = cands.len() as u64;
                self.semijoin_rel(ctx, &cands, axis)
            }
        };
        if let Some(f) = self.feedback {
            f.record(
                seq,
                StepFeedback {
                    estimated,
                    observed,
                    strategy,
                    pred_lists,
                },
            );
        }
        Ok(out)
    }

    /// The probe arm's candidate set: the posting lists of `prefix`
    /// (predicate indices, cheapest first) materialized **in that
    /// order** and intersected — stopping at the first empty list,
    /// which empties the intersection whatever the later ones hold.
    /// With exact per-key counts the cheapest list of a point predicate
    /// is usually zero or one rows long, so a miss touches one index
    /// and a hit reads the longer lists only when it must. Each
    /// materialized list's length lands in `pred_lists`; lists never
    /// read stay `None`.
    fn intersect_prefix(
        &self,
        test: &NodeTest,
        preds: &[KeyPred<'_>],
        prefix: &[usize],
        pred_lists: &mut [Option<u64>],
    ) -> Vec<u64> {
        let mut lists: Vec<Vec<u64>> = Vec::with_capacity(prefix.len());
        for &i in prefix {
            let l = self.value_probe_candidates(test, &preds[i]);
            pred_lists[i] = Some(l.len() as u64);
            if l.is_empty() {
                return Vec::new();
            }
            lists.push(l);
        }
        if lists.len() == 1 {
            return lists.pop().expect("one list");
        }
        let refs: Vec<&[u64]> = lists.iter().map(Vec::as_slice).collect();
        self.note_simd();
        let inter = intersect_sorted(&refs, self.ablation.kernel);
        if let Some(stats) = self.stats {
            stats
                .intersect_rows
                .set(stats.intersect_rows.get() + inter.len() as u64);
        }
        inter
    }

    /// One predicate over a candidate relation: positional picks keep
    /// the group's first/last row with **no** position vectors; general
    /// predicates mirror the interpreter's `filter_predicate_lifted`.
    fn apply_pred(&self, cands: ContextSeq, pred: &PhysPred, reverse: bool) -> Result<ContextSeq> {
        if cands.is_empty() {
            return Ok(cands);
        }
        match pred {
            PhysPred::First => Ok(pick_per_group(&cands, !reverse)),
            PhysPred::Last => Ok(pick_per_group(&cands, reverse)),
            PhysPred::Expr(s) => {
                let (pos, last) = cands.positions(reverse);
                let keep = self.pred_flags(s, &cands.pres, &cands.iters, Some((&pos, &last)))?;
                Ok(cands.retain_rows(&keep))
            }
        }
    }

    // -- intra-morsel predicate parallelism ----------------------------

    /// Evaluates a predicate plan over a candidate relation and returns
    /// per-row keep flags, splitting the rows across the pool when the
    /// relation clears the predicate break-even threshold. `groups` are
    /// the rows' iteration tags (morsel cuts stay group-aligned);
    /// `positions` carries the scope's precomputed `(position(),
    /// last())` vectors when the predicate sits in step brackets.
    ///
    /// Safe to parallelize because `Domain::Rows` evaluation is
    /// row-independent — every verdict depends only on the row's own
    /// node and its (already global) position vectors — so slicing the
    /// relation and concatenating flag vectors in morsel order is
    /// bit-identical to one sequential pass.
    fn pred_flags(
        &self,
        pred: &PhysScalar,
        nodes: &[u64],
        groups: &[u32],
        positions: Option<(&[f64], &[f64])>,
    ) -> Result<Vec<bool>> {
        let n = nodes.len();
        let fanout = self.fanout();
        if fanout >= 2 && n > 0 {
            let eligible = self.force_parallel()
                || n as u64 >= self.par_threshold_units(Self::PRED_ROW_NS_X10, fanout);
            if eligible {
                if let Some(res) = self.par_pred_flags(pred, nodes, groups, positions, fanout) {
                    return res;
                }
            }
        }
        self.pred_flags_range(pred, nodes, positions, 0, n)
    }

    /// The sequential predicate kernel over one row range `[lo, hi)`:
    /// one scalar-plan evaluation with the sliced rows and positions.
    fn pred_flags_range(
        &self,
        pred: &PhysScalar,
        nodes: &[u64],
        positions: Option<(&[f64], &[f64])>,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<bool>> {
        let nodes = &nodes[lo..hi];
        let sliced = positions.map(|(pos, last)| (&pos[lo..hi], &last[lo..hi]));
        let info = sliced.map(|(pos, last)| PredInfo { pos, last });
        let d = Domain::Rows {
            nodes,
            pred: info.as_ref(),
        };
        let v = self.scalar(pred, &d)?;
        Ok(keep_flags(&v, sliced.map(|(pos, _)| pos), nodes.len()))
    }

    /// The morsel-parallel predicate path: group-aligned morsels, each
    /// evaluated by a worker-private sequential executor (the shared
    /// `EvalStats` cells are not `Sync`, so every morsel counts into a
    /// private sink absorbed afterwards in morsel order). Flag vectors
    /// concatenate in morsel order; on failure the first error in
    /// morsel order wins, matching the sequential pass. Returns `None`
    /// when the relation does not actually split.
    fn par_pred_flags(
        &self,
        pred: &PhysScalar,
        nodes: &[u64],
        groups: &[u32],
        positions: Option<(&[f64], &[f64])>,
        fanout: usize,
    ) -> Option<Result<Vec<bool>>> {
        let pool = self.pool?;
        let ranges = par::morsel_ranges(groups, self.morsel_parts(nodes.len(), fanout));
        if ranges.len() < 2 {
            return None;
        }
        let view = self.view;
        let bindings = self.bindings;
        // Morsels evaluate predicate scalars only, sequentially; a
        // MultiProbe step never nests inside one.
        let ablation = Ablation {
            par: ParChoice::ForceSequential,
            multi: MultiChoice::Auto,
            ..self.ablation
        };
        type MorselOut = (usize, Result<Vec<bool>>, EvalStats);
        let results: Mutex<Vec<MorselOut>> = Mutex::new(Vec::with_capacity(ranges.len()));
        let steals = pool.run(ranges.len(), &|m| {
            let (start, end) = ranges[m];
            let private = EvalStats::default();
            let sub = Exec {
                view,
                bindings,
                stats: Some(&private),
                pool: None,
                feedback: None,
                ablation,
                multi_seq: Cell::new(0),
            };
            let out = sub.pred_flags_range(pred, nodes, positions, start, end);
            results.lock().unwrap().push((m, out, private));
        });
        let mut results = results.into_inner().unwrap();
        results.sort_unstable_by_key(|&(m, _, _)| m);
        let mut flags = Vec::with_capacity(nodes.len());
        let mut first_err = None;
        for (_, out, private) in results {
            if let Some(stats) = self.stats {
                stats.absorb(&private);
            }
            match out {
                Ok(part) => flags.extend_from_slice(&part),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        self.note_par(ranges.len(), steals);
        if let Some(stats) = self.stats {
            stats.pred_par_steps.set(stats.pred_par_steps.get() + 1);
        }
        Some(match first_err {
            Some(e) => Err(e),
            None => Ok(flags),
        })
    }
}

/// Per-row boolean verdicts of a lifted predicate value. With position
/// vectors in scope a bare numeric predicate abbreviates
/// `position() = n` (the XPath rule); everything else takes the
/// effective boolean value.
fn keep_flags(v: &Lifted, pos: Option<&[f64]>, n: usize) -> Vec<bool> {
    match (v, pos) {
        (Lifted::Const(Value::Number(want)), Some(pos)) => {
            pos.iter().map(|&p| p == *want).collect()
        }
        (Lifted::Numbers(ns), Some(pos)) => ns.iter().zip(pos).map(|(&x, &p)| p == x).collect(),
        (other, _) => (0..n).map(|i| other.value_at(i).to_boolean()).collect(),
    }
}

/// What a step's strategy slot resolved to for one execution.
enum StepArm {
    /// The staircase join (or, for an existence step, its early-exit
    /// scan).
    Staircase,
    /// The element-name index, probed for this name.
    Index(QnId),
    /// The tested name is not interned: no element carries it, and the
    /// step is empty without running either arm.
    NoSuchName,
}

/// The **resolved** form of a [`ValuePred`]'s slot — what the index
/// and the scan mask actually compare against. Exists only inside one
/// step execution ([`Exec::resolve`] builds it from the plan's operand
/// and this execution's bindings).
enum ValueCmp<'a> {
    /// String equality against this key.
    Eq(&'a str),
    /// Numeric interval membership.
    InRange(NumRange),
}

/// A value predicate with a resolved key: the argument of the
/// estimators, the index probe and the columnar scan mask.
struct KeyPred<'a> {
    source: &'a ValueSource,
    cmp: ValueCmp<'a>,
}

/// What a predicate's slot resolved to for this execution.
enum Resolved<'a> {
    /// A string key or numeric interval — both arms available.
    Key(KeyPred<'a>),
    /// A `NaN` operand: no value satisfies the comparison.
    Never,
    /// A boolean, node-set or attribute-set binding: scan arm only,
    /// under XPath's general comparison rules.
    General(&'a Value),
}

/// Whether a string value satisfies a resolved value comparison —
/// the scalar twin of the content-index probe (`Eq` is XPath string
/// equality; ranges go through [`str_to_number`]).
fn cmp_value(v: &str, cmp: &ValueCmp<'_>) -> bool {
    match cmp {
        ValueCmp::Eq(lit) => v == *lit,
        ValueCmp::InRange(r) => r.contains(str_to_number(v)),
    }
}

/// Merges two ascending, disjoint pre-rank lists.
fn merge_sorted(a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    if b.is_empty() {
        return a;
    }
    if a.is_empty() {
        return b;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Keeps one row per iteration group: the first (`front = true`) or the
/// last. For reverse axes the callers flip `front`, because candidates
/// are stored in document order while positions count from the far end.
fn pick_per_group(cands: &ContextSeq, front: bool) -> ContextSeq {
    let mut out = ContextSeq::new();
    let mut start = 0usize;
    while start < cands.len() {
        let iter = cands.iters[start];
        let mut end = start;
        while end < cands.len() && cands.iters[end] == iter {
            end += 1;
        }
        let row = if front { start } else { end - 1 };
        out.push(iter, cands.pres[row]);
        start = end;
    }
    out
}

/// Merges two `(iter, pre)` relations per iteration (sorted, deduped).
fn union_relations(a: &ContextSeq, b: &ContextSeq) -> ContextSeq {
    let mut rows: Vec<(u32, u64)> = a.iter().chain(b.iter()).collect();
    rows.sort_unstable();
    rows.dedup();
    let mut out = ContextSeq::new();
    for (iter, pre) in rows {
        out.push(iter, pre);
    }
    out
}

/// Merges two attribute relations per iteration, ordered like the
/// interpreter's attribute union (`owner pre`, then name id).
fn union_attr_relations(n: usize, a: &AttrSeq, b: &AttrSeq) -> AttrSeq {
    let mut out = AttrSeq::new();
    for i in 0..n {
        let mut rows: Vec<(u64, QnId)> = a.of_iter(i as u32);
        rows.extend(b.of_iter(i as u32));
        rows.sort_unstable_by_key(|&(p, q)| (p, q.0));
        rows.dedup();
        for at in rows {
            out.iters.push(i as u32);
            out.attrs.push(at);
        }
    }
    out
}

fn rel_out_type(r: &RelOut) -> &'static str {
    match r {
        RelOut::Nodes(_) => "node-set",
        RelOut::Attrs(_) => "attribute-set",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A forced-intersect step whose cheapest list is empty answers
    /// from that one index: the second posting list is never read.
    #[test]
    fn intersect_stops_at_the_first_empty_list() {
        let doc = mbxq_storage::ReadOnlyDoc::parse_str(
            r#"<r><p id="a"><n>x</n></p><p id="b"><n>x</n></p><p id="c"><n>y</n></p></r>"#,
        )
        .unwrap();
        let exec = Exec {
            view: &doc,
            bindings: None,
            stats: None,
            pool: None,
            feedback: None,
            ablation: Ablation {
                par: ParChoice::ForceSequential,
                kernel: KernelArm::Scalar,
                multi: MultiChoice::ForceIntersect,
                ..Ablation::default()
            },
            multi_seq: Cell::new(0),
        };
        let test = NodeTest::Name(mbxq_xml::QName::local("p"));
        let id = ValueSource::Attr(mbxq_xml::QName::local("id"));
        let n = ValueSource::Child(mbxq_xml::QName::local("n"));
        let pred = |source, key| KeyPred {
            source,
            cmp: ValueCmp::Eq(key),
        };
        let ctx = ContextSeq::single_iter(vec![0]);
        // `@id = "zz"` matches nothing and ranks first (bound 0).
        let preds = [pred(&n, "x"), pred(&id, "zz")];
        let (strategy, _) = exec.choose_multi(MultiChoice::ForceIntersect, &ctx, &test, &preds);
        let MultiStrategy::Probe(prefix) = strategy else {
            panic!("forced intersect must probe")
        };
        assert_eq!(prefix, [1, 0], "cheapest list first");
        let mut lists = vec![None; 2];
        assert!(exec
            .intersect_prefix(&test, &preds, &prefix, &mut lists)
            .is_empty());
        assert_eq!(lists, [None, Some(0)], "the `n` index was never touched");
        // With a hit on the first list the second one is read.
        let preds = [pred(&n, "x"), pred(&id, "b")];
        let mut lists = vec![None; 2];
        let hits = exec.intersect_prefix(&test, &preds, &[1, 0], &mut lists);
        assert_eq!(hits.len(), 1);
        assert_eq!(lists, [Some(2), Some(1)]);
    }

    #[test]
    fn format_number_integers_without_point() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(-17.0), "-17");
        assert_eq!(format_number(1e14), "100000000000000");
    }

    #[test]
    fn format_number_special_values() {
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
        assert_eq!(format_number(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(format_number(-0.0), "0", "negative zero renders as 0");
    }

    #[test]
    fn format_number_decimals() {
        assert_eq!(format_number(1.5), "1.5");
        assert_eq!(format_number(-0.25), "-0.25");
    }

    #[test]
    fn str_to_number_rejects_rusty_spellings() {
        assert!(str_to_number("inf").is_nan());
        assert!(str_to_number("NaN").is_nan());
        assert!(str_to_number("1e3").is_nan());
        assert!(str_to_number("").is_nan());
        assert_eq!(str_to_number(" 42 "), 42.0);
        assert_eq!(str_to_number("-1.5"), -1.5);
        assert!(str_to_number("1-2").is_nan());
    }
}
