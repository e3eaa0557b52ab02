//! Interned side tables (`qn`, `prop`, node values) and the **content
//! index** — the value-based access path of the query layer.
//!
//! Figure 5: "`prop`, holding all unique attribute values (as strings)"
//! and "`qn`, with one tuple for each qualified name (element or
//! attribute)". Both are append-only interning tables keyed by a void
//! column, so lookups from tree tuples are positional. The text, comment
//! and instruction tables hold node values, also void-keyed.
//!
//! # The content index
//!
//! The element-name index (module `names`) lets the planner jump to
//! `descendant::item` without scanning; the `ContentIndex` here does
//! the same for **value predicates** — `//item[@id='item42']`,
//! `//price[. > 50]`, `//person[name='Alice']` — so a selective
//! comparison becomes an index probe plus a structural semijoin instead
//! of a scalar evaluation over every context row. It maps
//! `(QnId, value)` to node ids in document order, on two key spaces:
//!
//! * **attribute values** — keyed by the *attribute* name: every
//!   element carrying `@qn = value`. Complete by construction
//!   (attributes are atomic strings).
//! * **element text content** — keyed by the *element* name: every
//!   **simple-content** element (no element children) under the
//!   concatenation of its direct text children, which for such elements
//!   *is* the XPath string value. Elements **with** element children are
//!   tracked per name in a separate `complex` list instead of being
//!   keyed (their string value would change on every deep text edit,
//!   turning an O(1) text update into an O(depth) index rewrite); a
//!   probe returns them as an unindexed remainder for the executor to
//!   verify by evaluation, so results stay exact while maintenance
//!   stays local to the touched element.
//!
//! Each key space has an **exact-match hash arm** and a **sorted
//! numeric arm** holding `(number, node)` pairs for every value that
//! parses as an XPath number ([`xpath_number`]) — the access path for
//! range predicates (`<`, `<=`, `>`, `>=`).
//!
//! Like the name index, entries are keyed by **immutable node ids**
//! (pre-shift-immune; translated to pre ranks at probe time) and the
//! structure is an [`Arc`]-shared immutable **base** plus small per-key
//! **deltas** (`added` values, `removed` tombstones), so a commit
//! touching one value never copies a posting list. Deltas fold into a
//! fresh base only at the maintenance points (shredding, vacuum, and
//! the checkpoint load/publish paths of the transaction layer).
//!
//! # Structural sharing
//!
//! The pool participates in the O(touched-pages) commit discipline: each
//! interner is split into an immutable, [`Arc`]-shared **base** (built by
//! the shredder, or by the last compaction) plus a small mutable
//! **delta** holding values interned since. Cloning the pool clones the
//! base pointers and the (small) deltas — O(delta), not O(all strings) —
//! so a transaction's private workspace and a commit's new version never
//! copy the document's text heap. Interned ids are *absolute* (base
//! first, delta continuing the sequence) and survive compaction, which
//! folds the delta into a fresh shared base. Compaction runs only at
//! explicit maintenance points (shredding, vacuum, checkpoint) — never
//! on the intern path, which would otherwise spike a commit to
//! O(document) while it holds the global commit lock.

use crate::types::{Kind, ValueRef};
use mbxq_xml::QName;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

/// Id of a qualified name in the `qn` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QnId(pub u32);

/// Id of a unique attribute value in the `prop` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PropId(pub u32);

/// An append-only interner backing one side table, split into a shared
/// base and a private delta (see the module docs).
#[derive(Debug, Clone)]
struct Interner<K> {
    base: Arc<InternSet<K>>,
    delta_values: Vec<K>,
    delta_index: HashMap<K, u32>,
}

/// The immutable, shareable half of an [`Interner`].
#[derive(Debug)]
struct InternSet<K> {
    values: Vec<K>,
    index: HashMap<K, u32>,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner {
            base: Arc::new(InternSet {
                values: Vec::new(),
                index: HashMap::new(),
            }),
            delta_values: Vec::new(),
            delta_index: HashMap::new(),
        }
    }
}

impl<K: Clone + Eq + Hash> Interner<K> {
    fn intern<Q>(&mut self, key: &Q) -> u32
    where
        K: Borrow<Q>,
        Q: ?Sized + Eq + Hash + ToOwned<Owned = K>,
    {
        if let Some(&id) = self.base.index.get(key) {
            return id;
        }
        if let Some(&id) = self.delta_index.get(key) {
            return id;
        }
        let id = u32::try_from(self.base.values.len() + self.delta_values.len())
            .expect("interner overflow");
        let owned = key.to_owned();
        self.delta_values.push(owned.clone());
        self.delta_index.insert(owned, id);
        id
    }

    fn get(&self, id: u32) -> Option<&K> {
        let idx = id as usize;
        if idx < self.base.values.len() {
            self.base.values.get(idx)
        } else {
            self.delta_values.get(idx - self.base.values.len())
        }
    }

    fn lookup<Q>(&self, key: &Q) -> Option<u32>
    where
        K: Borrow<Q>,
        Q: ?Sized + Eq + Hash,
    {
        self.base
            .index
            .get(key)
            .or_else(|| self.delta_index.get(key))
            .copied()
    }

    fn len(&self) -> usize {
        self.base.values.len() + self.delta_values.len()
    }

    /// Folds the delta into a fresh shared base; ids are preserved.
    fn compact(&mut self) {
        if self.delta_values.is_empty() {
            return;
        }
        let mut set = InternSet {
            values: self.base.values.clone(),
            index: self.base.index.clone(),
        };
        for v in self.delta_values.drain(..) {
            let id = u32::try_from(set.values.len()).expect("interner overflow");
            set.index.insert(v.clone(), id);
            set.values.push(v);
        }
        self.delta_index.clear();
        self.base = Arc::new(set);
    }

    /// Sums `per` over all interned values (heap accounting).
    fn approx_heap(&self, per: impl Fn(&K) -> usize) -> usize {
        self.base
            .values
            .iter()
            .chain(self.delta_values.iter())
            .map(per)
            .sum()
    }
}

/// All interned side tables shared by a document store.
///
/// Grouped in one struct because every schema variant (read-only, paged,
/// naive) needs the identical set, and the *same* pool instance lets the
/// ro-vs-up benchmarks rule out interning differences. Cloning is cheap
/// (shared bases + small deltas); see the module docs.
#[derive(Debug, Clone, Default)]
pub struct ValuePool {
    qnames: Interner<QName>,
    props: Interner<String>,
    texts: Interner<String>,
    comments: Interner<String>,
    instructions: Interner<String>,
}

impl ValuePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a qualified name, returning its `qn` id.
    pub fn intern_qname(&mut self, name: &QName) -> QnId {
        QnId(self.qnames.intern(name))
    }

    /// The qualified name behind a `qn` id.
    pub fn qname(&self, id: QnId) -> Option<&QName> {
        self.qnames.get(id.0)
    }

    /// Looks up a name without interning (query-side: an XPath name test
    /// for a name that was never interned matches nothing).
    pub fn lookup_qname(&self, name: &QName) -> Option<QnId> {
        self.qnames.lookup(name).map(QnId)
    }

    /// Interns an attribute value into `prop`.
    pub fn intern_prop(&mut self, value: &str) -> PropId {
        PropId(self.props.intern(value))
    }

    /// The attribute value behind a `prop` id.
    pub fn prop(&self, id: PropId) -> Option<&str> {
        self.props.get(id.0).map(String::as_str)
    }

    /// Looks up an attribute value without interning.
    pub fn lookup_prop(&self, value: &str) -> Option<PropId> {
        self.props.lookup(value).map(PropId)
    }

    /// Interns a text-node value, returning its row in the text table.
    pub fn intern_text(&mut self, value: &str) -> u32 {
        self.texts.intern(value)
    }

    /// Text value by id.
    pub fn text(&self, id: u32) -> Option<&str> {
        self.texts.get(id).map(String::as_str)
    }

    /// Interns a comment value.
    pub fn intern_comment(&mut self, value: &str) -> u32 {
        self.comments.intern(value)
    }

    /// Comment value by id.
    pub fn comment(&self, id: u32) -> Option<&str> {
        self.comments.get(id).map(String::as_str)
    }

    /// Interns a processing instruction as `target data` (single string;
    /// the target is the prefix up to the first space).
    pub fn intern_instruction(&mut self, target: &str, data: &str) -> u32 {
        let combined = if data.is_empty() {
            target.to_string()
        } else {
            format!("{target} {data}")
        };
        self.instructions.intern(combined.as_str())
    }

    /// Instruction `(target, data)` by id.
    pub fn instruction(&self, id: u32) -> Option<(&str, &str)> {
        self.instructions.get(id).map(|s| match s.find(' ') {
            Some(i) => (&s[..i], &s[i + 1..]),
            None => (s.as_str(), ""),
        })
    }

    /// Number of interned qualified names.
    pub fn qname_count(&self) -> usize {
        self.qnames.len()
    }

    /// Folds every interner's delta into a fresh shared base (ids are
    /// preserved). Runs after shredding, in vacuum, and when a
    /// checkpoint publishes/loads — never on the intern path, so commits
    /// stay O(touched) and deltas are bounded by the commits since the
    /// last maintenance point.
    pub fn compact(&mut self) {
        self.qnames.compact();
        self.props.compact();
        self.texts.compact();
        self.comments.compact();
        self.instructions.compact();
    }

    /// Values interned since the last compaction (diagnostic).
    pub fn delta_len(&self) -> usize {
        self.qnames.delta_values.len()
            + self.props.delta_values.len()
            + self.texts.delta_values.len()
            + self.comments.delta_values.len()
            + self.instructions.delta_values.len()
    }

    /// Approximate heap footprint (for the storage-overhead experiment).
    pub fn approx_bytes(&self) -> usize {
        let string_bytes = |s: &String| (s.len() + 24) * 2;
        self.qnames
            .approx_heap(|q| q.prefix.len() + q.local.len() + 48)
            + self.props.approx_heap(string_bytes)
            + self.texts.approx_heap(string_bytes)
            + self.comments.approx_heap(string_bytes)
            + self.instructions.approx_heap(string_bytes)
    }
}

// ---------------------------------------------------------------------
// The content index (module docs, "The content index")
// ---------------------------------------------------------------------

/// XPath 1.0 string→number coercion (`NaN` for anything the spec's
/// `number()` grammar rejects: empty strings, exponents, `inf`/`NaN`
/// spellings, interior minus signs). The single implementation shared
/// by the query engine and the content index's sorted numeric arm —
/// both **must** agree on which strings parse, or range probes would
/// diverge from scalar scans.
pub fn xpath_number(s: &str) -> f64 {
    let t = s.trim();
    if t.is_empty()
        || t.chars()
            .any(|c| !(c.is_ascii_digit() || c == '.' || c == '-'))
        || t.matches('-').count() > 1
        || (t.contains('-') && !t.starts_with('-'))
    {
        return f64::NAN;
    }
    t.parse::<f64>().unwrap_or(f64::NAN)
}

/// A (half-)open numeric interval — the probe argument of the sorted
/// arm, built from a comparison operator and its literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumRange {
    /// Lower bound (`-∞` for none).
    pub lo: f64,
    /// Upper bound (`+∞` for none).
    pub hi: f64,
    /// Whether `lo` itself is inside.
    pub lo_incl: bool,
    /// Whether `hi` itself is inside.
    pub hi_incl: bool,
}

impl NumRange {
    /// `value = n` as a degenerate range.
    pub fn exactly(n: f64) -> NumRange {
        NumRange {
            lo: n,
            hi: n,
            lo_incl: true,
            hi_incl: true,
        }
    }

    /// `value > lo` / `value >= lo`.
    pub fn at_least(lo: f64, incl: bool) -> NumRange {
        NumRange {
            lo,
            hi: f64::INFINITY,
            lo_incl: incl,
            hi_incl: true,
        }
    }

    /// `value < hi` / `value <= hi`.
    pub fn at_most(hi: f64, incl: bool) -> NumRange {
        NumRange {
            lo: f64::NEG_INFINITY,
            hi,
            lo_incl: true,
            hi_incl: incl,
        }
    }

    /// Whether `v` lies inside the range (`NaN` never does).
    pub fn contains(&self, v: f64) -> bool {
        let above = if self.lo_incl {
            v >= self.lo
        } else {
            v > self.lo
        };
        let below = if self.hi_incl {
            v <= self.hi
        } else {
            v < self.hi
        };
        above && below
    }
}

/// Per-key degree statistics of one content-index key space — the raw
/// material of the planner's pessimistic cardinality estimator. All
/// three figures are **upper bounds** under deltas (added entries are
/// counted in full, tombstones are not subtracted), matching the
/// count-estimator convention: over-estimating a probe keeps the
/// multi-predicate chooser conservative as documents skew.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegreeStats {
    /// Distinct values keyed under this name (≥ the true count).
    pub distinct_keys: u64,
    /// Total postings across all values (≥ the true count).
    pub total_postings: u64,
    /// Longest single posting list — the *degree bound*: no probe on
    /// this key space can return more rows than this for any one value.
    pub max_postings: u64,
}

impl DegreeStats {
    /// Average postings per distinct key, rounded up (1 when empty) —
    /// the expected-case figure the pessimistic bound is compared to.
    pub fn avg_postings(&self) -> u64 {
        if self.distinct_keys == 0 {
            1
        } else {
            self.total_postings.div_ceil(self.distinct_keys)
        }
    }
}

/// Result of an element-text content probe: the `exact` arm is
/// authoritative (string values match by construction); the `unindexed`
/// arm lists the name's complex-content elements, which the caller must
/// verify by evaluating the predicate (see the module docs). Both are
/// pre ranks in document order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextProbe {
    /// Elements whose string value provably satisfies the probe.
    pub exact: Vec<u64>,
    /// Complex-content candidates the caller must verify.
    pub unindexed: Vec<u64>,
}

/// One key space of the content index: `(QnId, value)` → node ids, with
/// the exact hash arm and the sorted numeric arm, base + per-key delta.
#[derive(Debug, Clone, Default)]
struct ValueIndex {
    base: Arc<ValueBase>,
    delta: HashMap<QnId, ValueDelta>,
}

#[derive(Debug, Default)]
struct ValueBase {
    /// qn → value → node ids (document order).
    exact: HashMap<QnId, HashMap<String, Vec<u64>>>,
    /// qn → `(number, node)` sorted by number (then node) — only values
    /// that parse under [`xpath_number`].
    numeric: HashMap<QnId, Vec<(f64, u64)>>,
    /// qn → degree statistics of the exact arm, computed once per base
    /// rebuild so estimator probes stay O(1) + O(delta).
    stats: HashMap<QnId, DegreeStats>,
}

/// Degree statistics of an exact-arm base (one pass per rebuild).
fn base_degree_stats(
    exact: &HashMap<QnId, HashMap<String, Vec<u64>>>,
) -> HashMap<QnId, DegreeStats> {
    exact
        .iter()
        .map(|(&qn, bucket)| {
            let mut s = DegreeStats::default();
            for list in bucket.values() {
                s.distinct_keys += 1;
                s.total_postings += list.len() as u64;
                s.max_postings = s.max_postings.max(list.len() as u64);
            }
            (qn, s)
        })
        .collect()
}

/// Per-qn overlay. The mutation protocol is remove-then-add: every
/// value change first records the node in `removed` (shadowing whatever
/// the base holds for it), then appends the new `(value, node)` pair —
/// so `added` never needs tombstone filtering.
#[derive(Debug, Clone, Default)]
struct ValueDelta {
    added: Vec<(String, u64)>,
    removed: HashSet<u64>,
}

impl ValueIndex {
    /// Records that `node` now carries `value` under key `qn`. Callers
    /// must have called [`ValueIndex::remove`] first if the node
    /// already carried a value under this key.
    fn add(&mut self, qn: QnId, value: &str, node: u64) {
        self.delta
            .entry(qn)
            .or_default()
            .added
            .push((value.to_string(), node));
    }

    /// Removes whatever value `node` carries under key `qn` (no-op — a
    /// harmless tombstone — if it carries none).
    fn remove(&mut self, qn: QnId, node: u64) {
        let d = self.delta.entry(qn).or_default();
        if let Some(i) = d.added.iter().position(|&(_, n)| n == node) {
            d.added.remove(i);
        } else {
            d.removed.insert(node);
        }
    }

    /// Nodes carrying exactly `value` under `qn`, as `pre` ranks in
    /// document order (`pre_of` skips dead ids defensively).
    fn probe_exact(
        &self,
        qn: QnId,
        value: &str,
        mut pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<u64> {
        let delta = self.delta.get(&qn);
        let mut out: Vec<u64> = Vec::new();
        if let Some(list) = self.base.exact.get(&qn).and_then(|m| m.get(value)) {
            for &n in list {
                if delta.is_some_and(|d| d.removed.contains(&n)) {
                    continue;
                }
                if let Some(p) = pre_of(n) {
                    out.push(p);
                }
            }
        }
        if let Some(d) = delta {
            let before = out.len();
            for (v, n) in &d.added {
                if v == value {
                    if let Some(p) = pre_of(*n) {
                        out.push(p);
                    }
                }
            }
            if out.len() > before {
                out.sort_unstable();
            }
        }
        out
    }

    /// Nodes whose value parses into `range` under `qn`, as `pre` ranks
    /// in document order.
    fn probe_range(
        &self,
        qn: QnId,
        range: &NumRange,
        mut pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<u64> {
        let delta = self.delta.get(&qn);
        let mut out: Vec<u64> = Vec::new();
        if let Some(sorted) = self.base.numeric.get(&qn) {
            // Binary-search to the first candidate, then walk until the
            // values leave the range (the sorted arm's whole point).
            let start = sorted.partition_point(|&(v, _)| {
                if range.lo_incl {
                    v < range.lo
                } else {
                    v <= range.lo
                }
            });
            for &(v, n) in &sorted[start..] {
                if !range.contains(v) {
                    break;
                }
                if delta.is_some_and(|d| d.removed.contains(&n)) {
                    continue;
                }
                if let Some(p) = pre_of(n) {
                    out.push(p);
                }
            }
        }
        if let Some(d) = delta {
            for (v, n) in &d.added {
                if range.contains(xpath_number(v)) {
                    if let Some(p) = pre_of(*n) {
                        out.push(p);
                    }
                }
            }
        }
        // The numeric arm is value-sorted, not pre-sorted.
        out.sort_unstable();
        out
    }

    /// Upper-bound cardinality of [`ValueIndex::probe_exact`] — the
    /// statistic the cost model keys on (tombstoned base entries are
    /// not subtracted; over-estimating the probe keeps the choice
    /// conservative).
    fn count_exact(&self, qn: QnId, value: &str) -> u64 {
        let base = self
            .base
            .exact
            .get(&qn)
            .and_then(|m| m.get(value))
            .map_or(0, Vec::len) as u64;
        let added = self
            .delta
            .get(&qn)
            .map_or(0, |d| d.added.iter().filter(|(v, _)| v == value).count())
            as u64;
        base + added
    }

    /// Upper-bound cardinality of [`ValueIndex::probe_range`].
    fn count_range(&self, qn: QnId, range: &NumRange) -> u64 {
        let base = self.base.numeric.get(&qn).map_or(0, |sorted| {
            let start = sorted.partition_point(|&(v, _)| {
                if range.lo_incl {
                    v < range.lo
                } else {
                    v <= range.lo
                }
            });
            let end = sorted.partition_point(|&(v, _)| {
                if range.hi_incl {
                    v <= range.hi
                } else {
                    v < range.hi
                }
            });
            end.saturating_sub(start)
        }) as u64;
        let added = self.delta.get(&qn).map_or(0, |d| {
            d.added
                .iter()
                .filter(|(v, _)| range.contains(xpath_number(v)))
                .count()
        }) as u64;
        base + added
    }

    /// Folds the deltas into a fresh shared base (per-key lists stay
    /// document-ordered via `pre_of`). Maintenance points only.
    fn compact(&mut self, mut pre_of: impl FnMut(u64) -> Option<u64>) {
        if self.delta.is_empty() {
            return;
        }
        let mut exact = self.base.exact.clone();
        let mut numeric = self.base.numeric.clone();
        for (qn, d) in self.delta.drain() {
            let bucket = exact.entry(qn).or_default();
            if !d.removed.is_empty() {
                bucket.retain(|_, list| {
                    list.retain(|n| !d.removed.contains(n));
                    !list.is_empty()
                });
            }
            for (v, n) in d.added {
                bucket.entry(v).or_default().push(n);
            }
            // Restore per-list document order (adds appended out of
            // order), then rebuild the qn's sorted numeric arm.
            let mut nums: Vec<(f64, u64)> = Vec::new();
            for (v, list) in bucket.iter_mut() {
                list.sort_unstable_by_key(|&n| pre_of(n).unwrap_or(u64::MAX));
                let num = xpath_number(v);
                if !num.is_nan() {
                    nums.extend(list.iter().map(|&n| (num, n)));
                }
            }
            if bucket.is_empty() {
                exact.remove(&qn);
            }
            nums.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaNs stored"));
            if nums.is_empty() {
                numeric.remove(&qn);
            } else {
                numeric.insert(qn, nums);
            }
        }
        let stats = base_degree_stats(&exact);
        self.base = Arc::new(ValueBase {
            exact,
            numeric,
            stats,
        });
    }

    /// Entries added/tombstoned since the last compaction (diagnostic).
    fn delta_len(&self) -> usize {
        self.delta
            .values()
            .map(|d| d.added.len() + d.removed.len())
            .sum()
    }

    /// Degree statistics for key space `qn`: the base's precomputed
    /// figures widened by the delta's `added` entries (each added entry
    /// may be a new distinct value and may extend the longest list, so
    /// all three bounds grow by the added count — upper bounds, like
    /// the probe-count estimators; tombstones are not subtracted).
    fn degree_stats(&self, qn: QnId) -> DegreeStats {
        let mut s = self.base.stats.get(&qn).copied().unwrap_or_default();
        if let Some(d) = self.delta.get(&qn) {
            let added = d.added.len() as u64;
            if added > 0 {
                s.distinct_keys += added;
                s.total_postings += added;
                s.max_postings += added;
            }
        }
        s
    }
}

/// The content index: attribute values + element text content, each
/// with an exact and a sorted numeric arm, plus the per-name list of
/// complex-content elements (module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ContentIndex {
    /// Attribute-name-keyed: elements carrying `@qn = value`.
    attrs: ValueIndex,
    /// Element-name-keyed: simple-content elements by string value.
    texts: ValueIndex,
    /// Element-name-keyed: elements with element children (not in
    /// `texts`; probes return them for caller-side verification).
    complex: crate::names::NameIndex,
}

impl ContentIndex {
    // -- maintenance (update paths; remove-then-add discipline) --------

    /// Records `@qn = value` on element `node` (any previous value for
    /// this attribute must have been removed first).
    pub(crate) fn add_attr(&mut self, qn: QnId, value: &str, node: u64) {
        self.attrs.add(qn, value, node);
    }

    /// Removes element `node`'s `@qn` entry.
    pub(crate) fn remove_attr(&mut self, qn: QnId, node: u64) {
        self.attrs.remove(qn, node);
    }

    /// Registers element `node` (named `qn`) with content state `key`:
    /// `Some(text)` for simple content, `None` for complex.
    pub(crate) fn add_element(&mut self, qn: QnId, key: Option<&str>, node: u64) {
        match key {
            Some(text) => self.texts.add(qn, text, node),
            None => self.complex.add(qn, node),
        }
    }

    /// Unregisters a **deleted** element `node` (named `qn`) whose
    /// content state is unknown: both arms are cleared. Only valid when
    /// the node will never be re-added (node ids are not reused) — the
    /// spurious tombstone in the wrong arm would otherwise cancel a
    /// later re-add. Live re-keying goes through
    /// [`ContentIndex::remove_element_keyed`] instead.
    pub(crate) fn remove_element(&mut self, qn: QnId, node: u64) {
        self.texts.remove(qn, node);
        self.complex.remove(qn, node);
    }

    /// Unregisters element `node` (named `qn`) from the arm its known
    /// content state `key` lives in — the removal half of a re-key.
    pub(crate) fn remove_element_keyed(&mut self, qn: QnId, key: Option<&str>, node: u64) {
        match key {
            Some(_) => self.texts.remove(qn, node),
            None => self.complex.remove(qn, node),
        }
    }

    /// Moves element `node` (content state `key`) between names —
    /// the rename hook.
    pub(crate) fn rename_element(
        &mut self,
        old_qn: QnId,
        new_qn: QnId,
        key: Option<&str>,
        node: u64,
    ) {
        match key {
            Some(text) => {
                self.texts.remove(old_qn, node);
                self.texts.add(new_qn, text, node);
            }
            None => {
                self.complex.remove(old_qn, node);
                self.complex.add(new_qn, node);
            }
        }
    }

    // -- probes --------------------------------------------------------

    /// Elements with `@qn = value`, as pre ranks in document order.
    pub(crate) fn attr_eq(
        &self,
        qn: QnId,
        value: &str,
        pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<u64> {
        self.attrs.probe_exact(qn, value, pre_of)
    }

    /// Elements whose `@qn` parses into `range`.
    pub(crate) fn attr_range(
        &self,
        qn: QnId,
        range: &NumRange,
        pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<u64> {
        self.attrs.probe_range(qn, range, pre_of)
    }

    /// Upper-bound cardinality of [`ContentIndex::attr_eq`].
    pub(crate) fn attr_eq_count(&self, qn: QnId, value: &str) -> u64 {
        self.attrs.count_exact(qn, value)
    }

    /// Upper-bound cardinality of [`ContentIndex::attr_range`].
    pub(crate) fn attr_range_count(&self, qn: QnId, range: &NumRange) -> u64 {
        self.attrs.count_range(qn, range)
    }

    /// Elements named `qn` whose string value equals `value` (exact
    /// arm) plus the name's unverified complex elements.
    pub(crate) fn text_eq(
        &self,
        qn: QnId,
        value: &str,
        mut pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> TextProbe {
        TextProbe {
            exact: self.texts.probe_exact(qn, value, &mut pre_of),
            unindexed: self.complex_pres(qn, pre_of),
        }
    }

    /// Elements named `qn` whose string value parses into `range`
    /// (exact arm) plus the name's unverified complex elements.
    pub(crate) fn text_range(
        &self,
        qn: QnId,
        range: &NumRange,
        mut pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> TextProbe {
        TextProbe {
            exact: self.texts.probe_range(qn, range, &mut pre_of),
            unindexed: self.complex_pres(qn, pre_of),
        }
    }

    /// Upper-bound cardinality of [`ContentIndex::text_eq`] (complex
    /// candidates included — they cost a verification each).
    pub(crate) fn text_eq_count(&self, qn: QnId, value: &str) -> u64 {
        self.texts.count_exact(qn, value) + self.complex.count_upper(qn)
    }

    /// Upper-bound cardinality of [`ContentIndex::text_range`].
    pub(crate) fn text_range_count(&self, qn: QnId, range: &NumRange) -> u64 {
        self.texts.count_range(qn, range) + self.complex.count_upper(qn)
    }

    /// Degree statistics of the attribute key space for `@qn`.
    pub(crate) fn attr_degree_stats(&self, qn: QnId) -> DegreeStats {
        self.attrs.degree_stats(qn)
    }

    /// Degree statistics of the element-text key space for name `qn`.
    /// The name's complex-content elements widen `total` and `max` —
    /// every text probe returns them as unverified candidates, so they
    /// bound the probe's cardinality exactly like indexed postings.
    pub(crate) fn text_degree_stats(&self, qn: QnId) -> DegreeStats {
        let mut s = self.texts.degree_stats(qn);
        let complex = self.complex.count_upper(qn);
        if complex > 0 {
            s.total_postings += complex;
            s.max_postings += complex;
            s.distinct_keys = s.distinct_keys.max(1);
        }
        s
    }

    fn complex_pres(&self, qn: QnId, pre_of: impl FnMut(u64) -> Option<u64>) -> Vec<u64> {
        self.complex
            .nodes_by_pre(qn, pre_of)
            .into_iter()
            .map(|(pre, _)| pre)
            .collect()
    }

    // -- maintenance points --------------------------------------------

    /// Folds all deltas into fresh shared bases. Maintenance points
    /// only (clones the whole base).
    pub(crate) fn compact(&mut self, mut pre_of: impl FnMut(u64) -> Option<u64>) {
        self.attrs.compact(&mut pre_of);
        self.texts.compact(&mut pre_of);
        self.complex.compact(pre_of);
    }

    /// Entries added/tombstoned since the last compaction (diagnostic).
    pub(crate) fn delta_len(&self) -> usize {
        self.attrs.delta_len() + self.texts.delta_len() + self.complex.delta_len()
    }

    /// Builds a compacted index by scanning a whole document view — the
    /// shredding / vacuum / checkpoint-load constructor. One pass over
    /// the used slots classifies every element (simple key vs complex)
    /// and collects attribute rows; node ids come from the view, so the
    /// index survives later pre shifts.
    pub(crate) fn build_from_view<V: crate::view::TreeView + ?Sized>(view: &V) -> ContentIndex {
        struct Frame {
            level: u16,
            pre: u64,
            node: u64,
            qn: QnId,
            has_elem_child: bool,
            text: String,
        }
        // (pre, node, qn, key) — collected, then inserted in pre order
        // so the base posting lists come out document-ordered.
        let mut elems: Vec<(u64, u64, QnId, Option<String>)> = Vec::new();
        let mut attr_base: HashMap<QnId, HashMap<String, Vec<u64>>> = HashMap::new();
        let mut stack: Vec<Frame> = Vec::new();
        let finalize = |f: Frame, out: &mut Vec<(u64, u64, QnId, Option<String>)>| {
            let key = if f.has_elem_child { None } else { Some(f.text) };
            out.push((f.pre, f.node, f.qn, key));
        };
        let mut p = 0u64;
        while let Some(q) = view.next_used_at_or_after(p) {
            let level = view.level(q).expect("used slot has a level");
            while stack.last().is_some_and(|f| f.level >= level) {
                finalize(stack.pop().expect("just checked"), &mut elems);
            }
            match view.kind(q) {
                Some(Kind::Element) => {
                    let node = view.node_id(q).expect("used slot has a node id").0;
                    let qn = view.name_id(q).expect("element has a name");
                    if let Some(parent) = stack.last_mut() {
                        parent.has_elem_child = true;
                    }
                    for (aqn, prop) in view.attributes(q) {
                        let value = view.pool().prop(prop).unwrap_or_default().to_string();
                        attr_base
                            .entry(aqn)
                            .or_default()
                            .entry(value)
                            .or_default()
                            .push(node);
                    }
                    stack.push(Frame {
                        level,
                        pre: q,
                        node,
                        qn,
                        has_elem_child: false,
                        text: String::new(),
                    });
                }
                Some(Kind::Text) => {
                    if let Some(parent) = stack.last_mut() {
                        if let Some(ValueRef(v)) = view.value_ref(q) {
                            parent.text.push_str(view.pool().text(v).unwrap_or(""));
                        }
                    }
                }
                _ => {} // comments/PIs contribute no string value
            }
            p = q + 1;
        }
        while let Some(f) = stack.pop() {
            finalize(f, &mut elems);
        }
        elems.sort_unstable_by_key(|&(pre, ..)| pre);

        let mut text_base: HashMap<QnId, HashMap<String, Vec<u64>>> = HashMap::new();
        let mut complex_base: HashMap<QnId, Vec<u64>> = HashMap::new();
        for (_, node, qn, key) in elems {
            match key {
                Some(text) => text_base
                    .entry(qn)
                    .or_default()
                    .entry(text)
                    .or_default()
                    .push(node),
                None => complex_base.entry(qn).or_default().push(node),
            }
        }
        ContentIndex {
            attrs: ValueIndex::from_exact(attr_base),
            texts: ValueIndex::from_exact(text_base),
            complex: crate::names::NameIndex::from_base(complex_base),
        }
    }
}

impl ValueIndex {
    /// Builds the base (numeric arm derived) from document-ordered
    /// exact lists; empty delta.
    fn from_exact(exact: HashMap<QnId, HashMap<String, Vec<u64>>>) -> ValueIndex {
        let mut numeric: HashMap<QnId, Vec<(f64, u64)>> = HashMap::new();
        for (&qn, bucket) in &exact {
            let mut nums: Vec<(f64, u64)> = Vec::new();
            for (v, list) in bucket {
                let num = xpath_number(v);
                if !num.is_nan() {
                    nums.extend(list.iter().map(|&n| (num, n)));
                }
            }
            if !nums.is_empty() {
                nums.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaNs stored"));
                numeric.insert(qn, nums);
            }
        }
        let stats = base_degree_stats(&exact);
        ValueIndex {
            base: Arc::new(ValueBase {
                exact,
                numeric,
                stats,
            }),
            delta: HashMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qnames_intern_once() {
        let mut p = ValuePool::new();
        let a = p.intern_qname(&QName::local("item"));
        let b = p.intern_qname(&QName::local("item"));
        let c = p.intern_qname(&QName::local("name"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(p.qname(a).unwrap().local, "item");
        assert_eq!(p.qname_count(), 2);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut p = ValuePool::new();
        assert_eq!(p.lookup_qname(&QName::local("x")), None);
        let id = p.intern_qname(&QName::local("x"));
        assert_eq!(p.lookup_qname(&QName::local("x")), Some(id));
    }

    #[test]
    fn props_are_unique_strings() {
        let mut p = ValuePool::new();
        let a = p.intern_prop("person0");
        let b = p.intern_prop("person0");
        assert_eq!(a, b);
        assert_eq!(p.prop(a), Some("person0"));
        assert_eq!(p.lookup_prop("nope"), None);
    }

    #[test]
    fn instruction_splits_target_and_data() {
        let mut p = ValuePool::new();
        let a = p.intern_instruction("php", "echo 1");
        assert_eq!(p.instruction(a), Some(("php", "echo 1")));
        let b = p.intern_instruction("bare", "");
        assert_eq!(p.instruction(b), Some(("bare", "")));
    }

    #[test]
    fn ids_survive_compaction() {
        let mut p = ValuePool::new();
        let ids: Vec<u32> = (0..600).map(|i| p.intern_text(&format!("t{i}"))).collect();
        p.compact();
        assert_eq!(p.delta_len(), 0);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.text(*id), Some(format!("t{i}").as_str()));
        }
        // Re-interning after compaction finds the base entry.
        assert_eq!(p.intern_text("t42"), ids[42]);
        // New values continue the absolute id sequence.
        let fresh = p.intern_text("brand new");
        assert_eq!(fresh as usize, ids.len());
    }

    #[test]
    fn interning_never_compacts_implicitly() {
        // Compaction clones the whole base, so it must never fire inside
        // a commit's op.apply — only at explicit maintenance points.
        let mut p = ValuePool::new();
        for i in 0..100 {
            p.intern_text(&format!("base{i}"));
        }
        p.compact();
        for i in 0..5000 {
            p.intern_text(&format!("hot{i}"));
        }
        assert_eq!(p.delta_len(), 5000, "intern path must not compact");
        p.compact();
        assert_eq!(p.delta_len(), 0);
        assert_eq!(p.text(50), Some("base50"));
        assert_eq!(p.text(100 + 4999), Some("hot4999"));
    }

    #[test]
    fn clones_do_not_see_later_interns() {
        let mut p = ValuePool::new();
        p.intern_text("shared");
        p.compact();
        let snapshot = p.clone();
        let id = p.intern_text("after-clone");
        assert_eq!(p.text(id), Some("after-clone"));
        assert_eq!(snapshot.text(id), None);
        assert_eq!(snapshot.lookup_prop("after-clone"), None);
    }

    // -- content index ------------------------------------------------

    fn ident(n: u64) -> Option<u64> {
        Some(n)
    }

    #[test]
    fn xpath_number_matches_spec_grammar() {
        assert_eq!(xpath_number(" 42 "), 42.0);
        assert_eq!(xpath_number("-1.5"), -1.5);
        for bad in ["", "inf", "NaN", "1e3", "1-2", "--1", "a"] {
            assert!(xpath_number(bad).is_nan(), "{bad:?} must be NaN");
        }
    }

    #[test]
    fn num_range_bounds() {
        assert!(NumRange::exactly(5.0).contains(5.0));
        assert!(!NumRange::exactly(5.0).contains(5.1));
        assert!(NumRange::at_least(3.0, false).contains(3.5));
        assert!(!NumRange::at_least(3.0, false).contains(3.0));
        assert!(NumRange::at_least(3.0, true).contains(3.0));
        assert!(NumRange::at_most(3.0, true).contains(3.0));
        assert!(!NumRange::at_most(3.0, false).contains(3.0));
        assert!(!NumRange::exactly(5.0).contains(f64::NAN));
    }

    #[test]
    fn value_index_base_delta_and_ranges() {
        let mut exact: HashMap<QnId, HashMap<String, Vec<u64>>> = HashMap::new();
        exact
            .entry(QnId(1))
            .or_default()
            .insert("10".into(), vec![2, 8]);
        exact
            .entry(QnId(1))
            .or_default()
            .insert("50".into(), vec![5]);
        let mut idx = ValueIndex::from_exact(exact);
        assert_eq!(idx.probe_exact(QnId(1), "10", ident), vec![2, 8]);
        assert_eq!(
            idx.probe_range(QnId(1), &NumRange::at_least(10.0, true), ident),
            vec![2, 5, 8]
        );
        assert_eq!(
            idx.probe_range(QnId(1), &NumRange::at_least(10.0, false), ident),
            vec![5]
        );
        // Value change on node 8: remove, add under a new value.
        idx.remove(QnId(1), 8);
        idx.add(QnId(1), "49", 8);
        assert_eq!(idx.probe_exact(QnId(1), "10", ident), vec![2]);
        assert_eq!(idx.probe_exact(QnId(1), "49", ident), vec![8]);
        assert_eq!(
            idx.probe_range(QnId(1), &NumRange::at_least(11.0, true), ident),
            vec![5, 8]
        );
        // Counts are upper bounds.
        assert!(idx.count_exact(QnId(1), "10") >= 1);
        assert!(idx.count_range(QnId(1), &NumRange::at_least(11.0, true)) >= 2);
        // Compaction preserves contents and clears the delta.
        assert!(idx.delta_len() > 0);
        idx.compact(ident);
        assert_eq!(idx.delta_len(), 0);
        assert_eq!(idx.probe_exact(QnId(1), "49", ident), vec![8]);
        assert_eq!(
            idx.probe_range(QnId(1), &NumRange::at_least(11.0, true), ident),
            vec![5, 8]
        );
        assert_eq!(idx.count_exact(QnId(1), "10"), 1);
    }

    #[test]
    fn content_index_rekey_and_rename() {
        let mut idx = ContentIndex::default();
        idx.add_element(QnId(0), Some("Alice"), 4);
        idx.add_element(QnId(0), None, 9);
        assert_eq!(idx.text_eq(QnId(0), "Alice", ident).exact, vec![4]);
        assert_eq!(idx.text_eq(QnId(0), "Alice", ident).unindexed, vec![9]);
        // Complex → simple (a delete removed the element child):
        // remove-then-add, the diff protocol of the update paths.
        idx.remove_element(QnId(0), 9);
        idx.add_element(QnId(0), Some("Bob"), 9);
        let probe = idx.text_eq(QnId(0), "Bob", ident);
        assert_eq!(probe.exact, vec![9]);
        assert!(probe.unindexed.is_empty());
        // Rename moves between name buckets, key preserved.
        idx.rename_element(QnId(0), QnId(7), Some("Bob"), 9);
        assert!(idx.text_eq(QnId(0), "Bob", ident).exact.is_empty());
        assert_eq!(idx.text_eq(QnId(7), "Bob", ident).exact, vec![9]);
        assert!(idx.text_eq_count(QnId(7), "Bob") >= 1);
    }

    #[test]
    fn content_index_clone_shares_base() {
        let mut exact: HashMap<QnId, HashMap<String, Vec<u64>>> = HashMap::new();
        exact
            .entry(QnId(0))
            .or_default()
            .insert("v".into(), (0..50).collect());
        let idx = ContentIndex {
            attrs: ValueIndex::from_exact(exact),
            texts: ValueIndex::default(),
            complex: crate::names::NameIndex::default(),
        };
        let snap = idx.clone();
        assert!(Arc::ptr_eq(&idx.attrs.base, &snap.attrs.base));
    }
}
