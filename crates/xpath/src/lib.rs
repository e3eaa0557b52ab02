//! `mbxq-xpath` — an XPath 1.0-subset engine over the pre plane.
//!
//! XUpdate addresses its targets with XPath expressions (`select="expr"`,
//! §2.1), and the paper's whole query story is "XPath axes … expressed as
//! simple comparisons on the pre and post columns" (§2.2). This crate
//! provides the language layer as an **algebraic compiler pipeline**:
//!
//! ```text
//!   source ──lex/parse──▶ AST ──compile──▶ logical plan
//!          ──rewrite──▶ rewritten plan ──lower──▶ physical plan
//!          ──execute──▶ value
//! ```
//!
//! * [`plan`] — the logical algebra over `(iter, pre)` relations
//!   (`Step`, `Filter`, `ValueProbe`, `Union`, `Agg`, `Const`),
//!   compiled from the AST.
//! * [`rewrite`] — the rule-based rewriter: `//`-step fusion, predicate
//!   pushdown, `count(e) > 0` → early-exit existence, `[1]`/`[last()]`
//!   picks, lowering of comparison predicates against a slot (a literal
//!   or a `$param`, resolved when the step executes) to content-index
//!   `ValueProbe` operators, and explicit loop-invariant hoisting.
//! * [`physical`] — the lowered plan whose axis steps carry a strategy
//!   slot: staircase join + name filter, or a cost-based choice made
//!   per execution from live statistics between it and the
//!   element-name-index probe + range semijoin ([`AxisChoice`] forces
//!   either arm) — a slot existence predicates (`[name]`,
//!   `[not(name)]`) read too, as an index (anti-)semijoin; value-probe
//!   steps choose the same way between the scalar scan and the content
//!   index ([`ValueChoice`]).
//! * `eval` (internal) — the loop-lifted executor: each operator runs
//!   once per invocation over a whole `(iter, pre)` relation, never per
//!   context node, so every plan enjoys the set-at-a-time evaluation
//!   the paper credits for its interactive XMark times (§1).
//!
//! * `shape` (internal, [`QueryShape`]) — what a plan cache keys on:
//!   the token-normalized text with comparison-operand string literals
//!   lifted to synthetic parameters, so every literal text of one shape
//!   shares one compiled plan.
//!
//! [`XPath::parse`] runs the full pipeline; [`XPath::eval`] and friends
//! execute the physical plan. The original recursive interpreter is
//! retained as [`XPath::eval_interpreted`] — the independent reference
//! arm the plan-oracle property tests compare against.
//!
//! Supported: absolute/relative location paths, all axes of
//! [`mbxq_axes::Axis`] (by name) plus the abbreviations `//`, `.`, `..`
//! and `@`, name and kind tests, predicates (including positional ones),
//! variable references (`$name`, resolved against [`Bindings`]), the
//! union operator, arithmetic/comparison/boolean operators with XPath
//! 1.0 node-set comparison semantics, and a core function library
//! (`position`, `last`, `count`, `string`, `number`, `boolean`, `not`,
//! `true`, `false`, `contains`, `starts-with`, `string-length`,
//! `normalize-space`, `name`, `local-name`, `concat`, `substring`,
//! `substring-before`, `substring-after`, `translate`, `floor`,
//! `ceiling`, `round`, `sum`).
//!
//! Out of scope (not needed by the paper's workloads): namespace axes,
//! `id()`/`key()`, and the number-formatting corners of the spec.

mod ast;
mod eval;
pub mod explain;
mod interp;
mod lexer;
pub mod par;
mod parser;
pub mod physical;
pub mod plan;
pub mod rewrite;
mod shape;

pub use ast::{CmpOp, Expr, PathExpr, Step, StepTest};
pub use eval::Value;
pub use mbxq_axes::{simd_compiled, simd_width, KernelArm};
pub use par::{ParChoice, WorkerPool};
pub use shape::QueryShape;

use mbxq_storage::TreeView;
use std::cell::Cell;
use std::collections::HashMap;

/// A parsed, planned, reusable XPath expression.
#[derive(Debug, Clone, PartialEq)]
pub struct XPath {
    expr: ast::Expr,
    source: String,
    logical: plan::Scalar,
    physical: physical::PhysScalar,
}

/// Errors from parsing or evaluating an XPath expression.
#[derive(Debug, Clone, PartialEq)]
pub enum XPathError {
    /// Lexical or syntactic problem, with byte offset.
    Parse {
        /// Description of the problem.
        message: String,
        /// Byte offset in the source.
        offset: usize,
    },
    /// Type or cardinality problem during evaluation.
    Eval {
        /// Description of the problem.
        message: String,
    },
}

impl core::fmt::Display for XPathError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            XPathError::Parse { message, offset } => {
                write!(f, "XPath parse error at offset {offset}: {message}")
            }
            XPathError::Eval { message } => write!(f, "XPath evaluation error: {message}"),
        }
    }
}

impl std::error::Error for XPathError {}

/// Result alias for XPath operations.
pub type Result<T> = std::result::Result<T, XPathError>;

/// Variable bindings for `$name` references.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings {
    map: HashMap<String, Value>,
}

impl Bindings {
    /// An empty binding set.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Binds `$name` to `value` (replacing an earlier binding).
    pub fn set(&mut self, name: impl Into<String>, value: Value) -> &mut Self {
        self.map.insert(name.into(), value);
        self
    }

    /// The value bound to `$name`, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.map.get(name)
    }

    /// Iterates over all `(name, value)` bindings in arbitrary order —
    /// how the network layer serializes a binding set onto the wire.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Which arm cost-annotated axis steps execute — [`AxisChoice::Auto`]
/// follows the cost model; the forced arms exist for the oracle tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AxisChoice {
    /// Per-step cost decision from live statistics (the default).
    #[default]
    Auto,
    /// Always the staircase join (the interpreter's only strategy).
    ForceStaircase,
    /// Always the element-name-index probe + semijoin (falls back to
    /// the staircase on views without an index).
    ForceIndex,
}

/// Which arm value-probe steps execute — the value-predicate analogue
/// of [`AxisChoice`]. [`ValueChoice::Auto`] follows the cost model; the
/// forced arms exist for the oracle tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ValueChoice {
    /// Per-step cost decision from live statistics (the default).
    #[default]
    Auto,
    /// Always the scalar scan (step + per-candidate evaluation).
    ForceScan,
    /// Always the content-index probe + range semijoin (falls back to
    /// the scan on views without a content index).
    ForceProbe,
}

/// Which arm multi-predicate steps ([`physical::PhysRel::MultiProbe`])
/// execute. [`MultiChoice::Auto`] runs the join-order search: rank the
/// predicates by their pessimistic degree-bound cardinality estimate,
/// grow the intersection prefix greedily while materializing the next
/// posting list is cheaper than verifying it per candidate, and compare
/// the result against the scalar scan. The forced arms exist for the
/// oracle tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MultiChoice {
    /// Per-step cost decision from live statistics (the default).
    #[default]
    Auto,
    /// Always the scalar scan (step + per-candidate evaluation).
    ForceScan,
    /// Always probe the single cheapest predicate and verify the rest
    /// per candidate (no intersection).
    ForceBestProbe,
    /// Always intersect every predicate's posting list (ranked order).
    ForceIntersect,
}

/// The strategy a multi-predicate step ran. Every execution derives it
/// afresh from that execution's pessimistic bounds; a [`PlanFeedback`]
/// attached to the evaluation records it for `explain`, and nothing
/// reads it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiStrategy {
    /// Scalar scan: one axis step, every predicate verified per
    /// candidate.
    Scan,
    /// Probe the listed predicates (indices into the step's predicate
    /// vector, cheapest first), intersect their posting lists, verify
    /// the remaining predicates per candidate. A one-element list is
    /// the single-best-probe arm.
    Probe(Vec<usize>),
}

/// Estimated-vs-observed record of one multi-predicate step execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StepFeedback {
    /// The pessimistic cardinality bound the estimator chose the
    /// strategy under (candidate rows, before the context semijoin).
    pub estimated: u64,
    /// Candidate rows actually produced.
    pub observed: u64,
    /// The strategy that ran.
    pub strategy: MultiStrategy,
    /// Observed posting-list length per predicate — `Some` only for
    /// lists the execution materialized.
    pub pred_lists: Vec<Option<u64>>,
}

/// An analyze recorder: one [`StepFeedback`] per multi-predicate step,
/// in execution order, written by every evaluation it is attached to
/// ([`EvalOptions::feedback`]) and read by `explain`. The executor
/// never reads it, so a recorder changes no plan. Mutex-held because a
/// parallel fan-out may share one evaluation's options across workers.
#[derive(Debug, Default)]
pub struct PlanFeedback {
    steps: std::sync::Mutex<Vec<StepFeedback>>,
}

impl PlanFeedback {
    /// An empty recorder.
    pub fn new() -> PlanFeedback {
        PlanFeedback::default()
    }

    /// Records (or overwrites) the `idx`-th step's feedback.
    pub fn record(&self, idx: usize, fb: StepFeedback) {
        let mut steps = self.steps.lock().unwrap();
        if steps.len() <= idx {
            steps.resize(
                idx + 1,
                StepFeedback {
                    estimated: 0,
                    observed: 0,
                    strategy: MultiStrategy::Scan,
                    pred_lists: Vec::new(),
                },
            );
        }
        steps[idx] = fb;
    }

    /// Snapshot of every recorded step, in execution order.
    pub fn snapshot(&self) -> Vec<StepFeedback> {
        self.steps.lock().unwrap().clone()
    }
}

/// Per-evaluation counters of the strategy decisions actually taken
/// (shared-cell based so one immutable `EvalOptions` can thread them
/// through the executor).
#[derive(Debug, Default)]
pub struct EvalStats {
    /// Axis steps served by the element-name index.
    pub index_steps: Cell<u64>,
    /// Axis steps served by the staircase join.
    pub staircase_steps: Cell<u64>,
    /// Value-predicate steps served by the content index.
    pub value_probe_steps: Cell<u64>,
    /// Value-predicate steps served by the scalar scan.
    pub value_scan_steps: Cell<u64>,
    /// Morsels executed on the worker pool.
    pub morsels: Cell<u64>,
    /// Morsels a worker stole from a sibling's queue.
    pub steals: Cell<u64>,
    /// Physical operators that actually ran morsel-parallel.
    pub par_steps: Cell<u64>,
    /// Filter/GroupFilter predicates whose row evaluation fanned out
    /// across the worker pool.
    pub pred_par_steps: Cell<u64>,
    /// Scan operators that ran on the vectorized kernel arm.
    pub simd_steps: Cell<u64>,
    /// Multi-predicate steps executed (any strategy).
    pub multi_probe_steps: Cell<u64>,
    /// Candidate rows surviving posting-list intersections.
    pub intersect_rows: Cell<u64>,
}

impl EvalStats {
    /// Folds another counter set into this one. Cross-document fan-out
    /// (a catalog querying many stores) evaluates each document with a
    /// private `EvalStats` — `Cell` counters are not `Sync`, so one set
    /// cannot be shared across worker threads — and merges them into
    /// the caller's set afterwards.
    pub fn absorb(&self, other: &EvalStats) {
        self.index_steps
            .set(self.index_steps.get() + other.index_steps.get());
        self.staircase_steps
            .set(self.staircase_steps.get() + other.staircase_steps.get());
        self.value_probe_steps
            .set(self.value_probe_steps.get() + other.value_probe_steps.get());
        self.value_scan_steps
            .set(self.value_scan_steps.get() + other.value_scan_steps.get());
        self.morsels.set(self.morsels.get() + other.morsels.get());
        self.steals.set(self.steals.get() + other.steals.get());
        self.par_steps
            .set(self.par_steps.get() + other.par_steps.get());
        self.pred_par_steps
            .set(self.pred_par_steps.get() + other.pred_par_steps.get());
        self.simd_steps
            .set(self.simd_steps.get() + other.simd_steps.get());
        self.multi_probe_steps
            .set(self.multi_probe_steps.get() + other.multi_probe_steps.get());
        self.intersect_rows
            .set(self.intersect_rows.get() + other.intersect_rows.get());
    }
}

/// The strategy overrides the oracle tests force — one value, so the
/// production options carry no per-knob copy of them. Every field
/// defaults to the production setting (`Auto` strategies,
/// [`KernelArm::auto`]); a test names only the fields it forces:
///
/// ```ignore
/// let a = Ablation { axis: AxisChoice::ForceIndex, ..Default::default() };
/// let opts = EvalOptions::new().ablation(a).stats(&stats);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ablation {
    /// Axis-step arm: cost model, staircase join or name-index probe.
    pub axis: AxisChoice,
    /// Value-predicate arm: cost model, scalar scan or content index.
    pub value: ValueChoice,
    /// Morsel parallelism: break-even gates, never, or always — the
    /// last with one-row morsels, so every morsel boundary is crossed.
    pub par: ParChoice,
    /// Chunk-kernel arm of scans, range masks and intersections.
    pub kernel: KernelArm,
    /// Multi-predicate arm: join-order search, scan, best probe or
    /// full intersection.
    pub multi: MultiChoice,
}

/// Evaluation-time options, assembled builder-style:
///
/// ```ignore
/// let opts = EvalOptions::new().bindings(&b).stats(&stats);
/// ```
///
/// Every knob defaults to the production setting (no bindings, no
/// counters, no pool, no analyze recorder, [`Ablation::default`]), so
/// call sites only name the knobs they change.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions<'a> {
    pub(crate) bindings: Option<&'a Bindings>,
    pub(crate) stats: Option<&'a EvalStats>,
    pub(crate) pool: Option<&'a par::WorkerPool>,
    pub(crate) feedback: Option<&'a PlanFeedback>,
    pub(crate) ablation: Ablation,
}

impl<'a> EvalOptions<'a> {
    /// All defaults — identical to [`EvalOptions::default`].
    pub fn new() -> EvalOptions<'a> {
        EvalOptions::default()
    }

    /// Variable bindings for `$name` references.
    pub fn bindings(mut self, bindings: &'a Bindings) -> Self {
        self.bindings = Some(bindings);
        self
    }

    /// Decision counters to fill during evaluation.
    pub fn stats(mut self, stats: &'a EvalStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The worker pool parallel operators run on, all of whose threads
    /// an evaluation may occupy. Queries through `Shard::query_opts` get
    /// the shard's (or its catalog's) shared pool injected
    /// automatically; standalone evaluations pass one explicitly.
    pub fn pool(mut self, pool: &'a par::WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Sets the pool only if none is set yet — how a `Shard` injects
    /// its shared pool without overriding an explicit caller choice.
    pub fn or_pool(mut self, pool: &'a par::WorkerPool) -> Self {
        if self.pool.is_none() {
            self.pool = Some(pool);
        }
        self
    }

    /// The strategy overrides the oracle tests force ([`Ablation`]).
    pub fn ablation(mut self, ablation: Ablation) -> Self {
        self.ablation = ablation;
        self
    }

    /// Attaches an analyze recorder: every multi-predicate step this
    /// execution runs writes its estimated/observed cardinality and
    /// strategy into it, forced arms included. Nothing is read back.
    pub fn feedback(mut self, feedback: &'a PlanFeedback) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// The decision-counter sink set on these options, if any. Fan-out
    /// layers (the catalog's cross-document queries) read it to know
    /// where per-document counters should be folded: each document
    /// evaluates with a private [`EvalStats`] (the cells are not
    /// `Sync`), absorbed into this sink afterwards.
    pub fn stats_ref(&self) -> Option<&'a EvalStats> {
        self.stats
    }

    /// The variable bindings set on these options, if any.
    pub fn bindings_ref(&self) -> Option<&'a Bindings> {
        self.bindings
    }

    /// The thread-shareable subset of these options. `EvalOptions`
    /// itself is never `Sync` — it may carry an [`EvalOptions::stats`]
    /// sink whose `Cell` counters are not — so a parallel fan-out copies
    /// the caller's options into one [`SharedOptions`], shares *that*
    /// across its workers, and has each worker reattach a private sink
    /// with [`SharedOptions::with_stats`].
    pub fn shared(&self) -> SharedOptions<'a> {
        SharedOptions {
            bindings: self.bindings,
            pool: self.pool,
            feedback: self.feedback,
            ablation: self.ablation,
        }
    }
}

/// Everything in an [`EvalOptions`] except the `EvalStats` sink — the
/// subset that is `Sync` and can therefore be captured by a fan-out
/// closure running on many worker threads at once. Obtained via
/// [`EvalOptions::shared`]; turned back into full options (with a
/// worker-private sink) via [`SharedOptions::with_stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedOptions<'a> {
    bindings: Option<&'a Bindings>,
    pool: Option<&'a par::WorkerPool>,
    feedback: Option<&'a PlanFeedback>,
    ablation: Ablation,
}

impl<'a> SharedOptions<'a> {
    /// Full [`EvalOptions`] with `stats` as the decision-counter sink —
    /// typically a worker-private [`EvalStats`] folded into the caller's
    /// sink (see [`EvalStats::absorb`]) after the parallel section.
    pub fn with_stats<'b>(&self, stats: &'b EvalStats) -> EvalOptions<'b>
    where
        'a: 'b,
    {
        EvalOptions {
            bindings: self.bindings,
            stats: Some(stats),
            pool: self.pool,
            feedback: self.feedback,
            ablation: self.ablation,
        }
    }
}

impl XPath {
    /// Parses an expression and runs the whole plan pipeline
    /// (compile → rewrite → lower).
    pub fn parse(source: &str) -> Result<XPath> {
        let tokens = lexer::lex(source)?;
        let expr = parser::parse(&tokens, source.len())?;
        let logical = rewrite::rewrite(plan::compile(&expr));
        let physical = physical::lower(&logical);
        Ok(XPath {
            expr,
            source: source.to_string(),
            logical,
            physical,
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Renders the rewritten logical plan.
    pub fn explain(&self) -> String {
        explain::logical(&self.logical)
    }

    /// Renders the physical plan with its strategy slots.
    pub fn explain_physical(&self) -> String {
        explain::physical(&self.physical)
    }

    /// Renders the physical plan with every multi-predicate step
    /// annotated from a [`PlanFeedback`] snapshot: per-predicate
    /// posting-list sizes, the strategy that ran, and the recorded
    /// estimated-vs-observed candidate cardinality.
    pub fn explain_physical_annotated(&self, feedback: &[StepFeedback]) -> String {
        explain::physical_annotated(&self.physical, feedback)
    }

    /// Evaluates the compiled plan with `context` as the context node
    /// set (sorted pre ranks; for absolute paths the document root is
    /// used regardless).
    pub fn eval<V: TreeView + ?Sized>(&self, view: &V, context: &[u64]) -> Result<Value> {
        self.eval_opts(view, context, &EvalOptions::default())
    }

    /// [`XPath::eval`] with variable bindings.
    pub fn eval_with<V: TreeView + ?Sized>(
        &self,
        view: &V,
        context: &[u64],
        bindings: &Bindings,
    ) -> Result<Value> {
        self.eval_opts(view, context, &EvalOptions::new().bindings(bindings))
    }

    /// [`XPath::eval`] with full evaluation options (bindings, axis
    /// strategy override, decision counters).
    pub fn eval_opts<V: TreeView + ?Sized>(
        &self,
        view: &V,
        context: &[u64],
        opts: &EvalOptions<'_>,
    ) -> Result<Value> {
        let exec = eval::Exec {
            view,
            bindings: opts.bindings,
            stats: opts.stats,
            pool: opts.pool,
            feedback: opts.feedback,
            ablation: opts.ablation,
            multi_seq: Cell::new(0),
        };
        exec.run(&self.physical, context)
    }

    /// Evaluates through the retained reference interpreter — the
    /// oracle arm plan-correctness tests compare against. Production
    /// callers use [`XPath::eval`], which executes the physical plan.
    pub fn eval_interpreted<V: TreeView + ?Sized>(
        &self,
        view: &V,
        context: &[u64],
    ) -> Result<Value> {
        interp::eval_expr(view, &self.expr, context, None)
    }

    /// [`XPath::eval_interpreted`] with variable bindings.
    pub fn eval_interpreted_with<V: TreeView + ?Sized>(
        &self,
        view: &V,
        context: &[u64],
        bindings: &Bindings,
    ) -> Result<Value> {
        interp::eval_expr(view, &self.expr, context, Some(bindings))
    }

    /// Evaluates and coerces to a node set (tree nodes only, document
    /// order). Errors if the expression yields a non-node value.
    pub fn select<V: TreeView + ?Sized>(&self, view: &V, context: &[u64]) -> Result<Vec<u64>> {
        self.select_opts(view, context, &EvalOptions::default())
    }

    /// [`XPath::select`] with evaluation options.
    pub fn select_opts<V: TreeView + ?Sized>(
        &self,
        view: &V,
        context: &[u64],
        opts: &EvalOptions<'_>,
    ) -> Result<Vec<u64>> {
        self.eval_opts(view, context, opts)?
            .into_node_set(&self.source)
    }

    /// Convenience: evaluate from the document root.
    pub fn select_from_root<V: TreeView + ?Sized>(&self, view: &V) -> Result<Vec<u64>> {
        let root: Vec<u64> = view.root_pre().into_iter().collect();
        self.select(view, &root)
    }

    /// [`XPath::select_from_root`] with evaluation options.
    pub fn select_from_root_opts<V: TreeView + ?Sized>(
        &self,
        view: &V,
        opts: &EvalOptions<'_>,
    ) -> Result<Vec<u64>> {
        let root: Vec<u64> = view.root_pre().into_iter().collect();
        self.select_opts(view, &root, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_storage::{PageConfig, PagedDoc, ReadOnlyDoc};

    const DOC: &str = r#"<site><people><person id="p0"><name>Ann</name><age>37</age></person><person id="p1"><name>Bob</name><age>9</age></person><person id="p2"><name>Cer</name></person></people><regions><africa><item id="i0"><name>Mask</name></item></africa><asia><item id="i1"><name>Vase</name></item><item id="i2"><name>Bowl</name></item></asia></regions></site>"#;

    fn doc() -> ReadOnlyDoc {
        ReadOnlyDoc::parse_str(DOC).unwrap()
    }

    fn names<V: TreeView>(v: &V, pres: &[u64]) -> Vec<String> {
        pres.iter()
            .map(|&p| v.pool().qname(v.name_id(p).unwrap()).unwrap().local.clone())
            .collect()
    }

    #[test]
    fn absolute_child_path() {
        let d = doc();
        let p = XPath::parse("/site/people/person").unwrap();
        let got = p.select_from_root(&d).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(names(&d, &got), ["person", "person", "person"]);
    }

    #[test]
    fn descendant_abbreviation() {
        let d = doc();
        let p = XPath::parse("//item").unwrap();
        assert_eq!(p.select_from_root(&d).unwrap().len(), 3);
        let p2 = XPath::parse("/site//name").unwrap();
        assert_eq!(p2.select_from_root(&d).unwrap().len(), 6);
    }

    #[test]
    fn attribute_predicate() {
        let d = doc();
        let p = XPath::parse("/site/people/person[@id=\"p1\"]/name").unwrap();
        let got = p.select_from_root(&d).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(d.string_value(got[0]), "Bob");
    }

    #[test]
    fn positional_predicates() {
        let d = doc();
        let p = XPath::parse("/site/people/person[2]").unwrap();
        let got = p.select_from_root(&d).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(
            d.attribute_value(got[0], &mbxq_xml::QName::local("id")),
            Some("p1".into())
        );
        let last = XPath::parse("/site/people/person[last()]").unwrap();
        let got = last.select_from_root(&d).unwrap();
        assert_eq!(
            d.attribute_value(got[0], &mbxq_xml::QName::local("id")),
            Some("p2".into())
        );
    }

    #[test]
    fn existence_and_value_predicates() {
        let d = doc();
        let p = XPath::parse("/site/people/person[age]").unwrap();
        assert_eq!(p.select_from_root(&d).unwrap().len(), 2);
        let p2 = XPath::parse("/site/people/person[age > 10]/name").unwrap();
        let got = p2.select_from_root(&d).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(d.string_value(got[0]), "Ann");
    }

    #[test]
    fn union_and_parent() {
        let d = doc();
        let p = XPath::parse("//africa/item | //asia/item").unwrap();
        assert_eq!(p.select_from_root(&d).unwrap().len(), 3);
        let p2 = XPath::parse("//item[@id=\"i2\"]/..").unwrap();
        let got = p2.select_from_root(&d).unwrap();
        assert_eq!(names(&d, &got), ["asia"]);
    }

    /// `(expr)[pred]` is a *filter expression*: the whole node-set is
    /// one context sequence, unlike step predicates whose `position()`
    /// scopes per context node.
    #[test]
    fn filter_expressions_position_over_whole_set() {
        let d = doc();
        // `//item[1]` is first-item-per-parent (two nodes) …
        assert_eq!(
            XPath::parse("//item[1]")
                .unwrap()
                .select_from_root(&d)
                .unwrap()
                .len(),
            2
        );
        // … but `(//item)[1]` is the first item in the document.
        let first = XPath::parse("(//item)[1]")
            .unwrap()
            .select_from_root(&d)
            .unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(
            d.attribute_value(first[0], &mbxq_xml::QName::local("id")),
            Some("i0".into())
        );
        let second = XPath::parse("(//item)[2]/@id").unwrap();
        assert_eq!(second.eval(&d, &[0]).unwrap().to_str(&d), "i1");
        let last = XPath::parse("(//item)[last()]")
            .unwrap()
            .select_from_root(&d)
            .unwrap();
        assert_eq!(last.len(), 1);
        assert_eq!(
            d.attribute_value(last[0], &mbxq_xml::QName::local("id")),
            Some("i2".into())
        );
        // Filter + further steps.
        let p = XPath::parse("(//person)[2]/name").unwrap();
        let got = p.select_from_root(&d).unwrap();
        assert_eq!(d.string_value(got[0]), "Bob");
        // Filters inside a predicate (nested lifted scope).
        let p = XPath::parse("//person[count((//item)[2]) = 1]").unwrap();
        assert_eq!(p.select_from_root(&d).unwrap().len(), 3);
    }

    /// `or`/`and` short-circuit per context node: the right operand is
    /// not evaluated for nodes the left operand already decides.
    #[test]
    fn boolean_operators_short_circuit_per_node() {
        let d = doc();
        // Every person has a name, so the unknown function on the right
        // must never be evaluated.
        let p = XPath::parse("//person[name or nosuchfn()]").unwrap();
        assert_eq!(p.select_from_root(&d).unwrap().len(), 3);
        let p = XPath::parse("//person[count(name) = 0 and nosuchfn()]").unwrap();
        assert_eq!(p.select_from_root(&d).unwrap().len(), 0);
        // Where the left does NOT decide, the right still runs (and may
        // error): persons without age force evaluation of the right.
        let p = XPath::parse("//person[age or nosuchfn()]").unwrap();
        assert!(p.select_from_root(&d).is_err());
    }

    #[test]
    fn functions() {
        let d = doc();
        let count = XPath::parse("count(//person)").unwrap();
        assert_eq!(count.eval(&d, &[0]).unwrap(), Value::Number(3.0));
        let contains = XPath::parse("//person[contains(name, \"nn\")]").unwrap();
        assert_eq!(contains.select_from_root(&d).unwrap().len(), 1);
        let sw = XPath::parse("//item[starts-with(name, \"B\")]").unwrap();
        assert_eq!(sw.select_from_root(&d).unwrap().len(), 1);
        let b = XPath::parse("not(count(//person) = 2)").unwrap();
        assert_eq!(b.eval(&d, &[0]).unwrap(), Value::Boolean(true));
    }

    #[test]
    fn string_and_number_coercions() {
        let d = doc();
        let s = XPath::parse("string(//person[1]/age)").unwrap();
        assert_eq!(s.eval(&d, &[0]).unwrap(), Value::Str("37".into()));
        let n = XPath::parse("number(//person[1]/age) + 3").unwrap();
        assert_eq!(n.eval(&d, &[0]).unwrap(), Value::Number(40.0));
        let arith = XPath::parse("(2 + 3) * 4 - 6 div 2").unwrap();
        assert_eq!(arith.eval(&d, &[0]).unwrap(), Value::Number(17.0));
        let m = XPath::parse("7 mod 3").unwrap();
        assert_eq!(m.eval(&d, &[0]).unwrap(), Value::Number(1.0));
    }

    #[test]
    fn explicit_axes() {
        let d = doc();
        let p = XPath::parse("//item[@id=\"i1\"]/following-sibling::item").unwrap();
        assert_eq!(p.select_from_root(&d).unwrap().len(), 1);
        let p2 = XPath::parse("//name[ancestor::regions]").unwrap();
        assert_eq!(p2.select_from_root(&d).unwrap().len(), 3);
        let p3 = XPath::parse("//item[@id=\"i1\"]/ancestor-or-self::*").unwrap();
        assert_eq!(
            names(&d, &p3.select_from_root(&d).unwrap()),
            ["site", "regions", "asia", "item"]
        );
    }

    #[test]
    fn text_nodes_selectable() {
        let d = doc();
        let p = XPath::parse("/site/people/person[1]/name/text()").unwrap();
        let got = p.select_from_root(&d).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(d.string_value(got[0]), "Ann");
    }

    #[test]
    fn attribute_selection_as_value() {
        let d = doc();
        // `//item[1]` is first-item-per-parent: i0 (africa) and i1 (asia).
        let p = XPath::parse("//item[1]/@id").unwrap();
        match p.eval(&d, &[0]).unwrap() {
            Value::Attrs(attrs) => assert_eq!(attrs.len(), 2),
            other => panic!("expected attrs, got {other:?}"),
        }
        let s = XPath::parse("string(//item[1]/@id)").unwrap();
        assert_eq!(s.eval(&d, &[0]).unwrap(), Value::Str("i0".into()));
    }

    #[test]
    fn same_results_on_paged_view() {
        let ro = doc();
        let up = PagedDoc::parse_str(DOC, PageConfig::new(8, 75).unwrap()).unwrap();
        for src in [
            "/site/people/person[@id=\"p1\"]/name",
            "//item",
            "/site//name",
            "//person[age > 10]",
            "//item[@id=\"i2\"]/..",
            "//asia/item[2]",
        ] {
            let p = XPath::parse(src).unwrap();
            let a = p.select_from_root(&ro).unwrap();
            let b = p.select_from_root(&up).unwrap();
            assert_eq!(
                names(&ro, &a),
                names(&up, &b),
                "query {src} diverged between schemas"
            );
            let sa: Vec<String> = a.iter().map(|&x| ro.string_value(x)).collect();
            let sb: Vec<String> = b.iter().map(|&x| up.string_value(x)).collect();
            assert_eq!(sa, sb, "string values diverged for {src}");
        }
    }

    /// Every strategy arm must select the same nodes; the stats
    /// counters prove the arms actually diverge physically.
    #[test]
    fn strategy_arms_agree_and_are_taken() {
        let ro = doc();
        let p = XPath::parse("//item").unwrap();
        let auto = p.select_from_root(&ro).unwrap();
        let stats = EvalStats::default();
        let forced_index = p
            .select_from_root_opts(
                &ro,
                &EvalOptions::new()
                    .ablation(Ablation {
                        axis: AxisChoice::ForceIndex,
                        ..Default::default()
                    })
                    .stats(&stats),
            )
            .unwrap();
        assert_eq!(auto, forced_index);
        assert!(stats.index_steps.get() > 0, "index arm must actually run");
        let stats2 = EvalStats::default();
        let forced_stair = p
            .select_from_root_opts(
                &ro,
                &EvalOptions::new()
                    .ablation(Ablation {
                        axis: AxisChoice::ForceStaircase,
                        ..Default::default()
                    })
                    .stats(&stats2),
            )
            .unwrap();
        assert_eq!(auto, forced_stair);
        assert_eq!(stats2.index_steps.get(), 0);
        assert!(stats2.staircase_steps.get() > 0);
    }

    /// Value predicates: every strategy arm must select the same nodes
    /// on every schema, and the counters prove both arms actually run.
    #[test]
    fn value_probe_arms_agree_and_are_taken() {
        let ro = doc();
        let up = PagedDoc::parse_str(DOC, PageConfig::new(8, 75).unwrap()).unwrap();
        for src in [
            "//item[@id = \"i1\"]",
            "/site/people/person[@id = \"p1\"]/name",
            "//person[name = \"Ann\"]",
            "//person[age > 10]",
            "//person[age >= 9]",
            "//age[. = 37]",
            "//age[. = \"37\"]",
            "//age[. < 10]",
            "//*[@id = \"i2\"]",
            "//person[name = \"missing\"]",
        ] {
            let p = XPath::parse(src).unwrap();
            let stats = EvalStats::default();
            let probe_opts = EvalOptions::new()
                .ablation(Ablation {
                    value: ValueChoice::ForceProbe,
                    ..Default::default()
                })
                .stats(&stats);
            let scan_stats = EvalStats::default();
            let scan_opts = EvalOptions::new()
                .ablation(Ablation {
                    value: ValueChoice::ForceScan,
                    ..Default::default()
                })
                .stats(&scan_stats);
            for view in [&ro as &dyn mbxq_storage::TreeView, &up] {
                let auto = p.select_from_root(view).unwrap();
                let probed = p.select_from_root_opts(view, &probe_opts).unwrap();
                let scanned = p.select_from_root_opts(view, &scan_opts).unwrap();
                assert_eq!(auto, probed, "{src}: probe arm diverged");
                assert_eq!(auto, scanned, "{src}: scan arm diverged");
            }
            assert!(
                stats.value_probe_steps.get() > 0,
                "{src}: probe arm must actually run"
            );
            assert_eq!(stats.value_scan_steps.get(), 0, "{src}");
            assert!(
                scan_stats.value_scan_steps.get() > 0,
                "{src}: scan arm must actually run"
            );
            assert_eq!(scan_stats.value_probe_steps.get(), 0, "{src}");
        }
        // Sanity on actual hits.
        let hit = XPath::parse("//person[name = \"Bob\"]")
            .unwrap()
            .select_from_root_opts(
                &ro,
                &EvalOptions::new().ablation(Ablation {
                    value: ValueChoice::ForceProbe,
                    ..Default::default()
                }),
            )
            .unwrap();
        assert_eq!(hit.len(), 1);
        assert_eq!(
            ro.attribute_value(hit[0], &mbxq_xml::QName::local("id")),
            Some("p1".into())
        );
    }

    /// Complex-content elements (element children) are served through
    /// the verified unindexed arm — `person` has element children, so
    /// `[. = ...]` on it must still be exact under the probe.
    #[test]
    fn value_probe_handles_complex_content() {
        let xml = r#"<r><p><name>Al</name><x>X</x></p><p>AlX</p><p>other</p></r>"#;
        let ro = ReadOnlyDoc::parse_str(xml).unwrap();
        let p = XPath::parse("//p[. = \"AlX\"]").unwrap();
        let probed = p
            .select_from_root_opts(
                &ro,
                &EvalOptions::new().ablation(Ablation {
                    value: ValueChoice::ForceProbe,
                    ..Default::default()
                }),
            )
            .unwrap();
        let scanned = p
            .select_from_root_opts(
                &ro,
                &EvalOptions::new().ablation(Ablation {
                    value: ValueChoice::ForceScan,
                    ..Default::default()
                }),
            )
            .unwrap();
        assert_eq!(probed, scanned);
        // Both the complex <p><name>Al</name><x>X</x></p> (string value
        // "AlX", served via the verified unindexed arm) and the simple
        // <p>AlX</p> (exact arm) match.
        assert_eq!(probed.len(), 2);
    }

    #[test]
    fn variables_resolve_through_bindings() {
        let d = doc();
        let p = XPath::parse("/site/people/person[@id = $who]/name").unwrap();
        let mut b = Bindings::new();
        b.set("who", Value::Str("p1".into()));
        let got = p.select_opts(&d, &[0], &EvalOptions::new().bindings(&b));
        let got = got.unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(d.string_value(got[0]), "Bob");
        // The interpreter arm agrees.
        let interp = p.eval_interpreted_with(&d, &[0], &b).unwrap();
        assert_eq!(interp, Value::Nodes(got));
        // Numeric binding compares numerically.
        let p2 = XPath::parse("$n + 2").unwrap();
        let mut b2 = Bindings::new();
        b2.set("n", Value::Number(40.0));
        assert_eq!(p2.eval_with(&d, &[0], &b2).unwrap(), Value::Number(42.0));
        // Node-set binding starts a path.
        let people = XPath::parse("/site/people")
            .unwrap()
            .select_from_root(&d)
            .unwrap();
        let mut b3 = Bindings::new();
        b3.set("ctx", Value::Nodes(people));
        let p3 = XPath::parse("$ctx/person/name").unwrap();
        assert_eq!(p3.eval_with(&d, &[0], &b3).unwrap().to_str(&d), "Ann");
    }

    /// Late-bound probe operands: whatever type `$v` is bound to, and
    /// whichever arm is forced, a lowered `[source op $v]` step selects
    /// what the interpreter selects — on every schema (the naive one
    /// has no content index, so its probe arm is the scan).
    #[test]
    fn parameter_probes_follow_binding_type_semantics() {
        use mbxq_storage::NaiveDoc;
        const X: &str = r#"<r><x a="7" n="7"><c>7</c>7</x><x a="k" n="12"><c>k</c>k</x><x a="07" n="3"><c>zz</c><c>7</c></x><x n="x"><c/></x><x a="" n="-1"/><y a="7">7</y><y a="k"><c>k</c></y></r>"#;
        let ro = ReadOnlyDoc::parse_str(X).unwrap();
        let up = PagedDoc::parse_str(X, PageConfig::new(8, 75).unwrap()).unwrap();
        let nv = NaiveDoc::parse_str(X).unwrap();
        let views: [(&str, &dyn TreeView); 3] = [("ro", &ro), ("paged", &up), ("naive", &nv)];
        let queries = [
            "//x[@a = $v]",
            "//x[. = $v]",
            "//x[c = $v]",
            "//x[@n > $v]",
            "//x[$v = @a]",
            "//x[$v <= @n]",
            "//*[@a = $v]",
            "//x[@a = $v][@n > 5]",
            "//x[c = $v][@a = $v]",
            "/r/x[@n < $v]/c",
        ];
        for src in queries {
            let xp = XPath::parse(src).unwrap();
            assert!(
                xp.explain().contains("-probe") && xp.explain().contains("$v]"),
                "{src} must lower with its slot shown:\n{}",
                xp.explain()
            );
            for (vname, view) in views {
                let root: Vec<u64> = view.root_pre().into_iter().collect();
                // Node-set and attribute-set bindings are view-local.
                let ys = XPath::parse("//y").unwrap().eval(view, &root).unwrap();
                let ya = XPath::parse("//y/@a").unwrap().eval(view, &root).unwrap();
                assert!(matches!(&ya, Value::Attrs(a) if a.len() == 2));
                let bound = [
                    Value::Str("k".into()),
                    Value::Str("7".into()),
                    Value::Str(" 7 ".into()),
                    Value::Str("nope".into()),
                    Value::Str(String::new()),
                    Value::Number(7.0),
                    Value::Number(f64::NAN),
                    Value::Number(f64::INFINITY),
                    Value::Boolean(true),
                    Value::Boolean(false),
                    ys,
                    ya,
                    Value::Nodes(Vec::new()),
                ];
                for v in bound {
                    let mut b = Bindings::new();
                    b.set("v", v.clone());
                    let want = xp.eval_interpreted_with(view, &root, &b).unwrap();
                    for choice in [
                        ValueChoice::Auto,
                        ValueChoice::ForceScan,
                        ValueChoice::ForceProbe,
                    ] {
                        let stats = EvalStats::default();
                        let opts = EvalOptions::new()
                            .bindings(&b)
                            .ablation(Ablation {
                                value: choice,
                                ..Default::default()
                            })
                            .stats(&stats);
                        let got = xp.eval_opts(view, &root, &opts).unwrap();
                        assert_eq!(got, want, "{src} on {vname}, $v = {v:?}, {choice:?}");
                        // A binding with no key form never probes.
                        if !matches!(v, Value::Str(_) | Value::Number(_)) {
                            assert_eq!(stats.value_probe_steps.get(), 0, "{src} {v:?}");
                            assert_eq!(stats.intersect_rows.get(), 0, "{src} {v:?}");
                        }
                    }
                }
                // Unbound: the same error on both arms.
                let planned = xp.eval(view, &root).unwrap_err();
                let interp = xp.eval_interpreted(view, &root).unwrap_err();
                assert_eq!(planned, interp, "{src} on {vname}");
                assert!(planned.to_string().contains("unbound variable $v"));
            }
        }
        // A string key probes under Auto; the order-operator string that
        // is no number matches nothing without touching either arm.
        let xp = XPath::parse("//x[@a = $v]").unwrap();
        let mut b = Bindings::new();
        b.set("v", Value::Str("k".into()));
        let stats = EvalStats::default();
        let hit = xp
            .select_from_root_opts(&up, &EvalOptions::new().bindings(&b).stats(&stats))
            .unwrap();
        assert_eq!(hit.len(), 1);
        assert_eq!(
            (stats.value_probe_steps.get(), stats.value_scan_steps.get()),
            (1, 0)
        );
        // An empty context returns empty without consulting the binding,
        // as the filter form did.
        let rel = XPath::parse("x[@a = $v]").unwrap();
        assert_eq!(rel.eval(&ro, &[]).unwrap(), Value::Nodes(Vec::new()));
        assert_eq!(
            rel.eval_interpreted(&ro, &[]).unwrap(),
            Value::Nodes(Vec::new())
        );
        let multi = XPath::parse("x[@a = $v][c = $w]").unwrap();
        assert_eq!(multi.eval(&up, &[]).unwrap(), Value::Nodes(Vec::new()));
    }

    #[test]
    fn unbound_variables_error() {
        let d = doc();
        let p = XPath::parse("$missing").unwrap();
        let err = p.eval(&d, &[0]).unwrap_err();
        assert!(
            err.to_string().contains("unbound variable $missing"),
            "got {err}"
        );
        let err = p.eval_interpreted(&d, &[0]).unwrap_err();
        assert!(err.to_string().contains("unbound variable $missing"));
    }

    #[test]
    fn explain_renders_both_levels() {
        let p = XPath::parse("//person[age > 10]/name").unwrap();
        let logical = p.explain();
        assert!(
            logical.contains("value-probe descendant::person"),
            "{logical}"
        );
        let physical = p.explain_physical();
        assert!(physical.contains("cost-chosen"), "{physical}");
        assert!(
            physical.contains("scalar-scan vs content-index"),
            "{physical}"
        );
        // A predicate the value rules cannot serve stays a filter over
        // its step.
        let pf = XPath::parse("//person[contains(name, \"x\")]").unwrap();
        assert!(pf.explain().contains("filter"), "{}", pf.explain());
        assert!(
            pf.explain().contains("step descendant::person"),
            "{}",
            pf.explain()
        );
        // `//person[1]` keeps its per-parent position scope (no fusion).
        let p2 = XPath::parse("//person[1]").unwrap();
        assert!(p2.explain().contains("pick first-per-group"));
        assert!(p2.explain().contains("child::person"));
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "",
            "/site//",
            "//person[",
            "foo(",
            "1 +",
            "@",
            "//person]",
            "$",
        ] {
            assert!(XPath::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn boolean_operators() {
        let d = doc();
        let p = XPath::parse("//person[age and name]").unwrap();
        assert_eq!(p.select_from_root(&d).unwrap().len(), 2);
        let p2 = XPath::parse("//person[age or name]").unwrap();
        assert_eq!(p2.select_from_root(&d).unwrap().len(), 3);
        let p3 = XPath::parse("//person[age = 9 or age = 37]").unwrap();
        assert_eq!(p3.select_from_root(&d).unwrap().len(), 2);
    }

    #[test]
    fn relative_paths_from_context() {
        let d = doc();
        let people = XPath::parse("/site/people")
            .unwrap()
            .select_from_root(&d)
            .unwrap();
        let rel = XPath::parse("person/name").unwrap();
        let got = rel.select(&d, &people).unwrap();
        assert_eq!(got.len(), 3);
        let dot = XPath::parse(".").unwrap();
        assert_eq!(dot.select(&d, &people).unwrap(), people);
    }

    #[test]
    fn string_function_library() {
        let d = doc();
        let cases = [
            ("substring-before(\"a-b\", \"-\")", Value::Str("a".into())),
            ("substring-after(\"a-b\", \"-\")", Value::Str("b".into())),
            ("substring-after(\"ab\", \"x\")", Value::Str("".into())),
            (
                "translate(\"bar\", \"abc\", \"ABC\")",
                Value::Str("BAr".into()),
            ),
            ("translate(\"bar\", \"ar\", \"A\")", Value::Str("bA".into())),
            ("floor(2.7)", Value::Number(2.0)),
            ("ceiling(2.1)", Value::Number(3.0)),
            ("round(2.5)", Value::Number(3.0)),
            ("substring(\"hello\", 2, 3)", Value::Str("ell".into())),
            ("string-length(\"héllo\")", Value::Number(5.0)),
            ("normalize-space(\"  a   b \")", Value::Str("a b".into())),
            ("concat(\"x\", \"-\", \"y\")", Value::Str("x-y".into())),
        ];
        for (src, want) in cases {
            let got = XPath::parse(src).unwrap().eval(&d, &[0]).unwrap();
            assert_eq!(got, want, "{src}");
        }
    }

    /// `normalize-space()` / `string-length()` with no arguments read
    /// the context node — in both engine arms.
    #[test]
    fn zero_arg_string_functions_read_the_context_node() {
        let d = ReadOnlyDoc::parse_str(r#"<r><p>  a   b </p><p>xyz</p><p/></r>"#).unwrap();
        let p = XPath::parse("//p[normalize-space() = \"a b\"]").unwrap();
        assert_eq!(p.select_from_root(&d).unwrap().len(), 1);
        let q = XPath::parse("//p[string-length() = 3]").unwrap();
        assert_eq!(q.select_from_root(&d).unwrap().len(), 1);
        let e = XPath::parse("//p[string-length() = 0]").unwrap();
        assert_eq!(e.select_from_root(&d).unwrap().len(), 1);
        // The interpreter arm agrees (the plan oracle's contract).
        for xp in [&p, &q, &e] {
            let root: Vec<u64> = d.root_pre().into_iter().collect();
            assert_eq!(
                xp.eval(&d, &root).unwrap(),
                xp.eval_interpreted(&d, &root).unwrap(),
                "{}",
                xp.source()
            );
        }
    }

    /// Forced-parallel execution with pathologically small morsels must
    /// return bit-identical node sets to forced-sequential, and the
    /// counters must prove the pool actually ran.
    #[test]
    fn parallel_execution_is_bit_identical() {
        let ro = doc();
        let up = PagedDoc::parse_str(DOC, PageConfig::new(8, 75).unwrap()).unwrap();
        let pool = par::WorkerPool::new(4);
        let (mut par_steps_total, mut morsels_total) = (0, 0);
        for src in [
            "//item",
            "/site//name",
            "//person[age > 10]",
            "//item[1]",
            "//item[@id=\"i2\"]/..",
            "/site/people/person/name",
            "//person[name]",
        ] {
            let p = XPath::parse(src).unwrap();
            for view in [&ro as &dyn TreeView, &up] {
                let seq = p
                    .select_from_root_opts(
                        view,
                        &EvalOptions::new().ablation(Ablation {
                            par: ParChoice::ForceSequential,
                            ..Default::default()
                        }),
                    )
                    .unwrap();
                let stats = EvalStats::default();
                let par = p
                    .select_from_root_opts(
                        view,
                        &EvalOptions::new()
                            .pool(&pool)
                            .ablation(Ablation {
                                par: ParChoice::ForceParallel,
                                ..Default::default()
                            })
                            .stats(&stats),
                    )
                    .unwrap();
                assert_eq!(seq, par, "{src} diverged under parallel execution");
                par_steps_total += stats.par_steps.get();
                morsels_total += stats.morsels.get();
            }
        }
        assert!(par_steps_total > 0, "no operator ever ran parallel");
        assert!(morsels_total > 1, "forced parallelism never split");
    }

    #[test]
    fn sum_function() {
        let d = doc();
        let p = XPath::parse("sum(//person/age)").unwrap();
        assert_eq!(p.eval(&d, &[0]).unwrap(), Value::Number(46.0));
    }

    /// Stacked recognizable value predicates fold into one multi-probe
    /// step; an unrecognizable predicate in the stack stays a filter
    /// above it without un-fusing the recognized ones.
    #[test]
    fn multi_predicates_lower_to_multi_probe() {
        let two = XPath::parse("//person[@id = \"p1\"][name = \"Bob\"]").unwrap();
        let l = two.explain();
        assert!(l.contains("multi-probe descendant::person"), "{l}");
        assert!(
            l.contains("[@id = \"p1\"]") && l.contains("[name = \"Bob\"]"),
            "{l}"
        );
        let phys = two.explain_physical();
        assert!(
            phys.contains("scalar-scan vs best-probe vs intersect"),
            "{phys}"
        );
        let three = XPath::parse("//person[@id = \"p1\"][name = \"Bob\"][age = 9]").unwrap();
        let l3 = three.explain();
        assert!(l3.contains("multi-probe"), "{l3}");
        assert!(l3.contains("[age = 9]"), "{l3}");
        let mixed = XPath::parse("//person[@id = \"p1\"][contains(name, \"o\")]").unwrap();
        let lm = mixed.explain();
        assert!(lm.contains("filter"), "{lm}");
        assert!(lm.contains("value-probe descendant::person"), "{lm}");
        assert!(!lm.contains("multi-probe"), "{lm}");
    }

    /// Every multi-predicate strategy arm must select the same nodes on
    /// every schema; the counters prove the arms physically diverge
    /// (the intersect arm actually intersects posting lists).
    #[test]
    fn multi_probe_arms_agree_and_are_taken() {
        let ro = doc();
        let up = PagedDoc::parse_str(DOC, PageConfig::new(8, 75).unwrap()).unwrap();
        for src in [
            "//person[@id = \"p1\"][name = \"Bob\"]",
            "//person[@id = \"p1\"][name = \"Ann\"]",
            "//person[name = \"Ann\"][age = 37]",
            "//person[age > 5][age < 20]",
            "//item[@id = \"i1\"][name = \"Vase\"]",
            "//person[@id = \"p1\"][name = \"Bob\"][age = 9]",
            "//person[age >= 9][name = \"Ann\"]",
        ] {
            let p = XPath::parse(src).unwrap();
            let arms = [
                MultiChoice::ForceScan,
                MultiChoice::ForceBestProbe,
                MultiChoice::ForceIntersect,
            ];
            for view in [&ro as &dyn TreeView, &up] {
                let auto = p.select_from_root(view).unwrap();
                let interp = p.eval_interpreted(view, &[0]).unwrap();
                assert_eq!(interp, Value::Nodes(auto.clone()), "{src}: interpreter");
                for arm in arms {
                    let stats = EvalStats::default();
                    let got = p
                        .select_from_root_opts(
                            view,
                            &EvalOptions::new()
                                .ablation(Ablation {
                                    multi: arm,
                                    ..Default::default()
                                })
                                .stats(&stats),
                        )
                        .unwrap();
                    assert_eq!(auto, got, "{src}: {arm:?} diverged");
                    assert!(
                        stats.multi_probe_steps.get() > 0,
                        "{src}: {arm:?} skipped the multi step"
                    );
                }
            }
            // The intersect arm must actually run the kernel.
            let stats = EvalStats::default();
            let hits = p
                .select_from_root_opts(
                    &ro,
                    &EvalOptions::new()
                        .ablation(Ablation {
                            multi: MultiChoice::ForceIntersect,
                            ..Default::default()
                        })
                        .stats(&stats),
                )
                .unwrap();
            assert_eq!(stats.intersect_rows.get(), hits.len() as u64, "{src}");
        }
    }

    /// An attached recorder gets one row per multi step from every
    /// execution, forced arms included, and changes no result: each
    /// row holds that execution's bound, observation and strategy.
    #[test]
    fn feedback_records_every_execution() {
        let d = doc();
        let p = XPath::parse("//person[@id = \"p1\"][name = \"Bob\"]").unwrap();
        let fb = PlanFeedback::new();
        let first = p
            .select_from_root_opts(&d, &EvalOptions::new().feedback(&fb))
            .unwrap();
        assert_eq!(first.len(), 1);
        let snap = fb.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].observed, 1);
        assert!(
            snap[0].estimated >= snap[0].observed,
            "bound must be pessimistic"
        );
        let auto = snap[0].strategy.clone();
        // A forced arm records its own strategy over the last row.
        let forced = p
            .select_from_root_opts(
                &d,
                &EvalOptions::new().feedback(&fb).ablation(Ablation {
                    multi: MultiChoice::ForceIntersect,
                    ..Default::default()
                }),
            )
            .unwrap();
        assert_eq!(first, forced);
        let snap = fb.snapshot();
        assert_eq!(snap.len(), 1);
        let intersect = snap[0].strategy.clone();
        assert!(matches!(&intersect, MultiStrategy::Probe(o) if o.len() == 2));
        assert_ne!(
            intersect, auto,
            "the forced row must differ to show no replay"
        );
        assert_eq!(snap[0].observed, 1);
        // The forced row is overwritten, never replayed, though its
        // estimate matched: the next Auto run derives from its own
        // bounds again.
        let again = p
            .select_from_root_opts(&d, &EvalOptions::new().feedback(&fb))
            .unwrap();
        assert_eq!(first, again);
        let snap = fb.snapshot();
        assert_eq!(snap[0].strategy, auto);
        assert_eq!(snap[0].observed, 1);
    }
}
