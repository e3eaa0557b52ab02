//! The interned side tables (`qn` and one string table) and the
//! **content index** — the value-based access path of the query layer.
//!
//! Figure 5: "`prop`, holding all unique attribute values (as strings)"
//! and "`qn`, with one tuple for each qualified name (element or
//! attribute)". Both are append-only interning tables keyed by a void
//! column, so lookups from tree tuples are positional. Here `prop` is
//! the one **string table** of a document: attribute values and the
//! content of text, comment and instruction nodes are all interned into
//! it, so a string is stored once, whatever holds it. The table's `Vec`
//! and its lookup map share that one `Arc<str>` allocation.
//!
//! # The content index
//!
//! The element-name index (module `names`) lets the planner jump to
//! `descendant::item` without scanning; the `ContentIndex` here does
//! the same for **value predicates** — `//item[@id='item42']`,
//! `//price[. > 50]`, `//person[name='Alice']` — so a selective
//! comparison becomes an index probe plus a structural semijoin instead
//! of a scalar evaluation over every context row. It maps
//! `(QnId, string id)` to node ids in document order, on two key spaces:
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
//! Values are keyed by their id in the string table, never by a copy of
//! the text: an attribute by its `prop` id, an element with one text
//! child by that text's id (`TextKey`); only a concatenation of
//! several text children (or the empty value of none) is interned as a
//! string of its own. A probe looks its literal up in the table, and a
//! literal the table does not hold matches nothing.
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

/// Id of an attribute value in the string table.
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
    /// The id of `key`, interning `own(key)` when it is new. The owned
    /// key is cloned into the lookup map, so for `Arc<str>` the table
    /// and the map share one allocation.
    fn intern<Q>(&mut self, key: &Q, own: impl FnOnce(&Q) -> K) -> u32
    where
        K: Borrow<Q>,
        Q: ?Sized + Eq + Hash,
    {
        if let Some(id) = self.lookup(key) {
            return id;
        }
        let id = u32::try_from(self.len()).expect("interner overflow");
        let owned = own(key);
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
        for v in std::mem::take(&mut self.delta_values) {
            let id = u32::try_from(set.values.len()).expect("interner overflow");
            set.index.insert(v.clone(), id);
            set.values.push(v);
        }
        // A fresh map: `clear` keeps the capacity (the shredder's whole
        // document), and every clone of the pool would allocate and copy
        // that empty table.
        self.delta_index = HashMap::new();
        self.base = Arc::new(set);
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
    /// Every string a document holds, once (module docs).
    strings: Interner<Arc<str>>,
}

impl ValuePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a qualified name, returning its `qn` id.
    pub fn intern_qname(&mut self, name: &QName) -> QnId {
        QnId(self.qnames.intern(name, QName::clone))
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

    /// Interns a string into the string table, returning its id.
    pub fn intern_str(&mut self, value: &str) -> u32 {
        self.strings.intern(value, |s: &str| Arc::from(s))
    }

    /// The string behind a string-table id.
    pub fn string(&self, id: u32) -> Option<&str> {
        self.strings.get(id).map(|s| &**s)
    }

    /// Looks up a string without interning.
    pub fn lookup_str(&self, value: &str) -> Option<u32> {
        self.strings.lookup(value)
    }

    /// Interns an attribute value.
    pub fn intern_prop(&mut self, value: &str) -> PropId {
        PropId(self.intern_str(value))
    }

    /// The attribute value behind a `prop` id.
    pub fn prop(&self, id: PropId) -> Option<&str> {
        self.string(id.0)
    }

    /// Looks up an attribute value without interning.
    pub fn lookup_prop(&self, value: &str) -> Option<PropId> {
        self.lookup_str(value).map(PropId)
    }

    /// Interns a text-node value.
    pub fn intern_text(&mut self, value: &str) -> u32 {
        self.intern_str(value)
    }

    /// Text value by id.
    pub fn text(&self, id: u32) -> Option<&str> {
        self.string(id)
    }

    /// Interns a comment value.
    pub fn intern_comment(&mut self, value: &str) -> u32 {
        self.intern_str(value)
    }

    /// Comment value by id.
    pub fn comment(&self, id: u32) -> Option<&str> {
        self.string(id)
    }

    /// Interns a processing instruction as `target data` (single string;
    /// the target is the prefix up to the first space).
    pub fn intern_instruction(&mut self, target: &str, data: &str) -> u32 {
        if data.is_empty() {
            return self.intern_str(target);
        }
        self.intern_str(&format!("{target} {data}"))
    }

    /// Instruction `(target, data)` by id.
    pub fn instruction(&self, id: u32) -> Option<(&str, &str)> {
        self.string(id).map(|s| match s.find(' ') {
            Some(i) => (&s[..i], &s[i + 1..]),
            None => (s, ""),
        })
    }

    /// Number of interned qualified names.
    pub fn qname_count(&self) -> usize {
        self.qnames.len()
    }

    /// Folds both interners' deltas into fresh shared bases (ids are
    /// preserved). Runs at the maintenance points of
    /// [`crate::PagedDoc::compact`] — never on the intern path, so
    /// commits stay O(touched) and deltas are bounded by the commits
    /// since the last maintenance point.
    pub fn compact(&mut self) {
        self.qnames.compact();
        self.strings.compact();
    }

    /// Values interned since the last compaction (diagnostic).
    pub fn delta_len(&self) -> usize {
        self.qnames.delta_values.len() + self.strings.delta_values.len()
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

/// One key space of the content index: `(QnId, string id)` → node ids,
/// with the exact hash arm and the sorted numeric arm, base + per-key
/// delta.
#[derive(Debug, Clone, Default)]
struct ValueIndex {
    base: Arc<ValueBase>,
    delta: HashMap<QnId, ValueDelta>,
}

/// qn → string id → node ids (document order).
type ExactArm = HashMap<QnId, HashMap<u32, Vec<u64>>>;

#[derive(Debug, Default)]
struct ValueBase {
    exact: ExactArm,
    /// qn → `(number, node)` sorted by number (then node) — only values
    /// that parse under [`xpath_number`].
    numeric: HashMap<QnId, Vec<(f64, u64)>>,
    /// qn → degree statistics of the exact arm, computed once per base
    /// rebuild so estimator probes stay O(1) + O(delta).
    stats: HashMap<QnId, DegreeStats>,
}

/// Per-qn overlay. The mutation protocol is remove-then-add: every
/// value change first records the node in `removed` (shadowing whatever
/// the base holds for it), then appends the new `(string id, node)` pair
/// — so `added` never needs tombstone filtering.
#[derive(Debug, Clone, Default)]
struct ValueDelta {
    added: Vec<(u32, u64)>,
    removed: HashSet<u64>,
}

/// The number a string-table entry parses to (`NaN` for none).
fn number_of(pool: &ValuePool, id: u32) -> f64 {
    xpath_number(pool.string(id).unwrap_or(""))
}

/// Where the values of `range` start in a number-sorted list.
fn range_start(sorted: &[(f64, u64)], range: &NumRange) -> usize {
    sorted.partition_point(|&(v, _)| {
        if range.lo_incl {
            v < range.lo
        } else {
            v <= range.lo
        }
    })
}

impl ValueIndex {
    /// Records that `node` now carries string `value` under key `qn`.
    /// Callers must have called [`ValueIndex::remove`] first if the node
    /// already carried a value under this key.
    fn add(&mut self, qn: QnId, value: u32, node: u64) {
        self.delta.entry(qn).or_default().added.push((value, node));
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

    /// Nodes carrying exactly string `value` under `qn`, as `pre` ranks
    /// in document order (`pre_of` skips dead ids defensively).
    fn probe_exact(
        &self,
        qn: QnId,
        value: u32,
        mut pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<u64> {
        let delta = self.delta.get(&qn);
        let mut out: Vec<u64> = Vec::new();
        if let Some(list) = self.base.exact.get(&qn).and_then(|m| m.get(&value)) {
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
            for &(v, n) in &d.added {
                if v == value {
                    if let Some(p) = pre_of(n) {
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
        pool: &ValuePool,
        qn: QnId,
        range: &NumRange,
        mut pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<u64> {
        let delta = self.delta.get(&qn);
        let mut out: Vec<u64> = Vec::new();
        if let Some(sorted) = self.base.numeric.get(&qn) {
            // Binary-search to the first candidate, then walk until the
            // values leave the range (the sorted arm's whole point).
            for &(v, n) in &sorted[range_start(sorted, range)..] {
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
            for &(v, n) in &d.added {
                if range.contains(number_of(pool, v)) {
                    if let Some(p) = pre_of(n) {
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
    fn count_exact(&self, qn: QnId, value: u32) -> u64 {
        let base = self
            .base
            .exact
            .get(&qn)
            .and_then(|m| m.get(&value))
            .map_or(0, Vec::len) as u64;
        let added = self
            .delta
            .get(&qn)
            .map_or(0, |d| d.added.iter().filter(|&&(v, _)| v == value).count())
            as u64;
        base + added
    }

    /// Upper-bound cardinality of [`ValueIndex::probe_range`].
    fn count_range(&self, pool: &ValuePool, qn: QnId, range: &NumRange) -> u64 {
        let base = self.base.numeric.get(&qn).map_or(0, |sorted| {
            let end = sorted.partition_point(|&(v, _)| {
                if range.hi_incl {
                    v <= range.hi
                } else {
                    v < range.hi
                }
            });
            end.saturating_sub(range_start(sorted, range))
        }) as u64;
        let added = self.delta.get(&qn).map_or(0, |d| {
            d.added
                .iter()
                .filter(|&&(v, _)| range.contains(number_of(pool, v)))
                .count()
        }) as u64;
        base + added
    }

    /// Folds the deltas into a fresh shared base (per-key lists stay
    /// document-ordered via `pre_of`). Maintenance points only.
    fn compact(&mut self, pool: &ValuePool, mut pre_of: impl FnMut(u64) -> Option<u64>) {
        if self.delta.is_empty() {
            return;
        }
        let mut exact = self.base.exact.clone();
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
            // order).
            for list in bucket.values_mut() {
                list.sort_unstable_by_key(|&n| pre_of(n).unwrap_or(u64::MAX));
            }
            if bucket.is_empty() {
                exact.remove(&qn);
            }
        }
        *self = ValueIndex::from_exact(pool, exact);
    }

    /// Entries added/tombstoned since the last compaction (diagnostic).
    fn delta_len(&self) -> usize {
        self.delta
            .values()
            .map(|d| d.added.len() + d.removed.len())
            .sum()
    }

    /// Every live `(qn, string id, node)` entry, base and delta (order
    /// unspecified).
    fn entries(&self) -> impl Iterator<Item = (QnId, u32, u64)> + '_ {
        let base = self.base.exact.iter().flat_map(move |(&qn, bucket)| {
            let removed = self.delta.get(&qn).map(|d| &d.removed);
            bucket.iter().flat_map(move |(&v, list)| {
                list.iter()
                    .filter(move |n| !removed.is_some_and(|r| r.contains(n)))
                    .map(move |&n| (qn, v, n))
            })
        });
        let added = self
            .delta
            .iter()
            .flat_map(|(&qn, d)| d.added.iter().map(move |&(v, n)| (qn, v, n)));
        base.chain(added)
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

    /// Builds the base (numeric arm and degree statistics derived) from
    /// document-ordered exact lists; empty delta.
    fn from_exact(pool: &ValuePool, exact: ExactArm) -> ValueIndex {
        let mut numeric: HashMap<QnId, Vec<(f64, u64)>> = HashMap::new();
        let mut stats: HashMap<QnId, DegreeStats> = HashMap::new();
        for (&qn, bucket) in &exact {
            let mut nums: Vec<(f64, u64)> = Vec::new();
            let s = stats.entry(qn).or_default();
            for (&v, list) in bucket {
                s.distinct_keys += 1;
                s.total_postings += list.len() as u64;
                s.max_postings = s.max_postings.max(list.len() as u64);
                let num = number_of(pool, v);
                if !num.is_nan() {
                    nums.extend(list.iter().map(|&n| (num, n)));
                }
            }
            if !nums.is_empty() {
                nums.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaNs stored"));
                numeric.insert(qn, nums);
            }
        }
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

/// The text key of a simple-content element, built from its direct text
/// children as they arrive (module docs): one child's key is that text's
/// own string id, and only a concatenation of several — or the empty
/// value of none — is interned as a string of its own.
#[derive(Debug, Default)]
pub(crate) struct TextKey {
    first: Option<u32>,
    concat: Option<String>,
}

impl TextKey {
    /// Appends the text child whose content is string `text`.
    pub(crate) fn push(&mut self, pool: &ValuePool, text: u32) {
        let s = pool.string(text).unwrap_or("");
        match (&mut self.concat, self.first) {
            (Some(c), _) => c.push_str(s),
            (None, Some(first)) => {
                self.concat = Some([pool.string(first).unwrap_or(""), s].concat());
            }
            (None, None) => self.first = Some(text),
        }
    }

    /// The key's string id.
    pub(crate) fn finish(self, pool: &mut ValuePool) -> u32 {
        match (self.concat, self.first) {
            (Some(c), _) => pool.intern_str(&c),
            (None, Some(first)) => first,
            (None, None) => pool.intern_str(""),
        }
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
    pub(crate) fn add_attr(&mut self, qn: QnId, value: PropId, node: u64) {
        self.attrs.add(qn, value.0, node);
    }

    /// Removes element `node`'s `@qn` entry.
    pub(crate) fn remove_attr(&mut self, qn: QnId, node: u64) {
        self.attrs.remove(qn, node);
    }

    /// Registers element `node` (named `qn`) with content state `key`:
    /// `Some(string id)` for simple content, `None` for complex.
    pub(crate) fn add_element(&mut self, qn: QnId, key: Option<u32>, node: u64) {
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
    pub(crate) fn remove_element_keyed(&mut self, qn: QnId, key: Option<u32>, node: u64) {
        match key {
            Some(_) => self.texts.remove(qn, node),
            None => self.complex.remove(qn, node),
        }
    }

    /// Moves element `node` (content state `key`) between names —
    /// the rename hook.
    pub(crate) fn rename_element(&mut self, old: QnId, new: QnId, key: Option<u32>, node: u64) {
        self.remove_element_keyed(old, key, node);
        self.add_element(new, key, node);
    }

    // -- probes (a literal the string table lacks matches nothing) ----

    /// Elements with `@qn = value`, as pre ranks in document order.
    pub(crate) fn attr_eq(
        &self,
        pool: &ValuePool,
        qn: QnId,
        value: &str,
        pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<u64> {
        pool.lookup_str(value)
            .map_or_else(Vec::new, |v| self.attrs.probe_exact(qn, v, pre_of))
    }

    /// Elements whose `@qn` parses into `range`.
    pub(crate) fn attr_range(
        &self,
        pool: &ValuePool,
        qn: QnId,
        range: &NumRange,
        pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> Vec<u64> {
        self.attrs.probe_range(pool, qn, range, pre_of)
    }

    /// Upper-bound cardinality of [`ContentIndex::attr_eq`].
    pub(crate) fn attr_eq_count(&self, pool: &ValuePool, qn: QnId, value: &str) -> u64 {
        pool.lookup_str(value)
            .map_or(0, |v| self.attrs.count_exact(qn, v))
    }

    /// Upper-bound cardinality of [`ContentIndex::attr_range`].
    pub(crate) fn attr_range_count(&self, pool: &ValuePool, qn: QnId, range: &NumRange) -> u64 {
        self.attrs.count_range(pool, qn, range)
    }

    /// Elements named `qn` whose string value equals `value` (exact
    /// arm) plus the name's unverified complex elements.
    pub(crate) fn text_eq(
        &self,
        pool: &ValuePool,
        qn: QnId,
        value: &str,
        mut pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> TextProbe {
        TextProbe {
            exact: pool
                .lookup_str(value)
                .map_or_else(Vec::new, |v| self.texts.probe_exact(qn, v, &mut pre_of)),
            unindexed: self.complex_pres(qn, pre_of),
        }
    }

    /// Elements named `qn` whose string value parses into `range`
    /// (exact arm) plus the name's unverified complex elements.
    pub(crate) fn text_range(
        &self,
        pool: &ValuePool,
        qn: QnId,
        range: &NumRange,
        mut pre_of: impl FnMut(u64) -> Option<u64>,
    ) -> TextProbe {
        TextProbe {
            exact: self.texts.probe_range(pool, qn, range, &mut pre_of),
            unindexed: self.complex_pres(qn, pre_of),
        }
    }

    /// Upper-bound cardinality of [`ContentIndex::text_eq`] (complex
    /// candidates included — they cost a verification each).
    pub(crate) fn text_eq_count(&self, pool: &ValuePool, qn: QnId, value: &str) -> u64 {
        pool.lookup_str(value)
            .map_or(0, |v| self.texts.count_exact(qn, v))
            + self.complex.count_upper(qn)
    }

    /// Upper-bound cardinality of [`ContentIndex::text_range`].
    pub(crate) fn text_range_count(&self, pool: &ValuePool, qn: QnId, range: &NumRange) -> u64 {
        self.texts.count_range(pool, qn, range) + self.complex.count_upper(qn)
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

    /// Every live attribute entry `(attribute name, value, element
    /// node)`, in no particular order.
    pub(crate) fn attr_entries(&self) -> impl Iterator<Item = (QnId, PropId, u64)> + '_ {
        self.attrs
            .entries()
            .map(|(qn, v, node)| (qn, PropId(v), node))
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
    pub(crate) fn compact(&mut self, pool: &ValuePool, mut pre_of: impl FnMut(u64) -> Option<u64>) {
        self.attrs.compact(pool, &mut pre_of);
        self.texts.compact(pool, &mut pre_of);
        self.complex.compact(pre_of);
    }

    /// Entries added/tombstoned since the last compaction (diagnostic).
    pub(crate) fn delta_len(&self) -> usize {
        self.attrs.delta_len() + self.texts.delta_len() + self.complex.delta_len()
    }

    /// Builds a compacted index by scanning a whole document view — the
    /// shredding / vacuum / checkpoint-load constructor. `pool` is the
    /// view's own pool, lent out so that concatenated keys can be
    /// interned while the view is read (the scan reads no string through
    /// the view). One pass over the used slots classifies every element
    /// (simple key vs complex) and collects attribute rows; node ids
    /// come from the view, so the index survives later pre shifts.
    pub(crate) fn build_from_view<V: crate::view::TreeView + ?Sized>(
        view: &V,
        pool: &mut ValuePool,
    ) -> ContentIndex {
        // Open elements: level, index into `elems`, and the text key
        // (`None` once an element child made the element complex).
        let mut stack: Vec<(u16, usize, Option<TextKey>)> = Vec::new();
        // (node, qn, key) in document order; the key is set on close.
        let mut elems: Vec<(u64, QnId, Option<u32>)> = Vec::new();
        let mut attr_base = ExactArm::new();
        let close = |(_, at, key): (u16, usize, Option<TextKey>),
                     elems: &mut Vec<(u64, QnId, Option<u32>)>,
                     pool: &mut ValuePool| {
            elems[at].2 = key.map(|k| k.finish(pool));
        };
        let mut p = 0u64;
        while let Some(q) = view.next_used_at_or_after(p) {
            let level = view.level(q).expect("used slot has a level");
            while stack.last().is_some_and(|f| f.0 >= level) {
                close(stack.pop().expect("just checked"), &mut elems, pool);
            }
            match view.kind(q) {
                Some(Kind::Element) => {
                    let node = view.node_id(q).expect("used slot has a node id").0;
                    let qn = view.name_id(q).expect("element has a name");
                    if let Some(parent) = stack.last_mut() {
                        parent.2 = None;
                    }
                    for (aqn, prop) in view.attributes(q) {
                        let bucket = attr_base.entry(aqn).or_default();
                        bucket.entry(prop.0).or_default().push(node);
                    }
                    stack.push((level, elems.len(), Some(TextKey::default())));
                    elems.push((node, qn, None));
                }
                Some(Kind::Text) => {
                    if let (Some((_, _, Some(key))), Some(ValueRef(v))) =
                        (stack.last_mut(), view.value_ref(q))
                    {
                        key.push(pool, v);
                    }
                }
                _ => {} // comments/PIs contribute no string value
            }
            p = q + 1;
        }
        while let Some(f) = stack.pop() {
            close(f, &mut elems, pool);
        }
        let mut text_base = ExactArm::new();
        let mut complex_base: HashMap<QnId, Vec<u64>> = HashMap::new();
        for (node, qn, key) in elems {
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
            attrs: ValueIndex::from_exact(pool, attr_base),
            texts: ValueIndex::from_exact(pool, text_base),
            complex: crate::names::NameIndex::from_base(complex_base),
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
        assert_eq!(p.intern_prop("person0"), a);
        assert_eq!(p.prop(a), Some("person0"));
        assert_eq!(p.lookup_prop("nope"), None);
        // Attribute values and node content share the one table …
        assert_eq!(p.intern_text("person0"), a.0);
        assert_eq!(p.intern_comment("person0"), a.0);
        // … and its lookup map holds the table's own allocation.
        let s = &p.strings.delta_values[a.0 as usize];
        assert_eq!(Arc::strong_count(s), 2);
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
    fn a_compacted_pools_clone_allocates_nothing_for_its_delta() {
        let mut p = ValuePool::new();
        for i in 0..5000 {
            p.intern_text(&format!("t{i}"));
            p.intern_qname(&QName::local(format!("q{i}")));
        }
        p.compact();
        let c = p.clone();
        for pool in [&p, &c] {
            for (values, index) in [
                (
                    pool.strings.delta_values.capacity(),
                    pool.strings.delta_index.capacity(),
                ),
                (
                    pool.qnames.delta_values.capacity(),
                    pool.qnames.delta_index.capacity(),
                ),
            ] {
                assert_eq!((values, index), (0, 0), "an empty delta holds no heap");
            }
        }
        assert_eq!(c.text(4999), Some("t4999"));
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
        let mut pool = ValuePool::new();
        let [v10, v50, v49] = ["10", "50", "49"].map(|v| pool.intern_str(v));
        let mut exact = ExactArm::new();
        exact.entry(QnId(1)).or_default().insert(v10, vec![2, 8]);
        exact.entry(QnId(1)).or_default().insert(v50, vec![5]);
        let mut idx = ValueIndex::from_exact(&pool, exact);
        let at_least = |n, incl| NumRange::at_least(n, incl);
        assert_eq!(idx.probe_exact(QnId(1), v10, ident), vec![2, 8]);
        assert_eq!(
            idx.probe_range(&pool, QnId(1), &at_least(10.0, true), ident),
            vec![2, 5, 8]
        );
        assert_eq!(
            idx.probe_range(&pool, QnId(1), &at_least(10.0, false), ident),
            vec![5]
        );
        // Value change on node 8: remove, add under a new value.
        idx.remove(QnId(1), 8);
        idx.add(QnId(1), v49, 8);
        assert_eq!(idx.probe_exact(QnId(1), v10, ident), vec![2]);
        assert_eq!(idx.probe_exact(QnId(1), v49, ident), vec![8]);
        assert_eq!(
            idx.probe_range(&pool, QnId(1), &at_least(11.0, true), ident),
            vec![5, 8]
        );
        // Counts are upper bounds.
        assert!(idx.count_exact(QnId(1), v10) >= 1);
        assert!(idx.count_range(&pool, QnId(1), &at_least(11.0, true)) >= 2);
        // Compaction preserves contents and clears the delta.
        assert!(idx.delta_len() > 0);
        idx.compact(&pool, ident);
        assert_eq!(idx.delta_len(), 0);
        assert_eq!(idx.probe_exact(QnId(1), v49, ident), vec![8]);
        assert_eq!(
            idx.probe_range(&pool, QnId(1), &at_least(11.0, true), ident),
            vec![5, 8]
        );
        assert_eq!(idx.count_exact(QnId(1), v10), 1);
    }

    #[test]
    fn content_index_rekey_and_rename() {
        let mut pool = ValuePool::new();
        let (alice, bob) = (pool.intern_str("Alice"), pool.intern_str("Bob"));
        let mut idx = ContentIndex::default();
        idx.add_element(QnId(0), Some(alice), 4);
        idx.add_element(QnId(0), None, 9);
        assert_eq!(idx.text_eq(&pool, QnId(0), "Alice", ident).exact, vec![4]);
        assert_eq!(
            idx.text_eq(&pool, QnId(0), "Alice", ident).unindexed,
            vec![9]
        );
        // A literal the string table lacks matches no simple element,
        // but the complex ones still come back for verification.
        let missing = idx.text_eq(&pool, QnId(0), "Carol", ident);
        assert_eq!((missing.exact, missing.unindexed), (vec![], vec![9]));
        // Complex → simple (a delete removed the element child):
        // remove-then-add, the diff protocol of the update paths.
        idx.remove_element(QnId(0), 9);
        idx.add_element(QnId(0), Some(bob), 9);
        let probe = idx.text_eq(&pool, QnId(0), "Bob", ident);
        assert_eq!(probe.exact, vec![9]);
        assert!(probe.unindexed.is_empty());
        // Rename moves between name buckets, key preserved.
        idx.rename_element(QnId(0), QnId(7), Some(bob), 9);
        assert!(idx.text_eq(&pool, QnId(0), "Bob", ident).exact.is_empty());
        assert_eq!(idx.text_eq(&pool, QnId(7), "Bob", ident).exact, vec![9]);
        assert!(idx.text_eq_count(&pool, QnId(7), "Bob") >= 1);
    }

    #[test]
    fn content_index_clone_shares_base() {
        let mut pool = ValuePool::new();
        let mut exact = ExactArm::new();
        let v = pool.intern_str("v");
        exact
            .entry(QnId(0))
            .or_default()
            .insert(v, (0..50).collect());
        let idx = ContentIndex {
            attrs: ValueIndex::from_exact(&pool, exact),
            texts: ValueIndex::default(),
            complex: crate::names::NameIndex::default(),
        };
        let snap = idx.clone();
        assert!(Arc::ptr_eq(&idx.attrs.base, &snap.attrs.base));
    }

    #[test]
    fn text_keys_reuse_one_texts_id_and_intern_only_concatenations() {
        let mut pool = ValuePool::new();
        let (a, b) = (pool.intern_text("ab"), pool.intern_text("c"));
        let key = |pool: &mut ValuePool, texts: &[u32]| {
            let mut k = TextKey::default();
            texts.iter().for_each(|&t| k.push(pool, t));
            k.finish(pool)
        };
        assert_eq!(key(&mut pool, &[a]), a);
        let abc = key(&mut pool, &[a, b, b]);
        assert_eq!(pool.string(abc), Some("abcc"));
        let empty = key(&mut pool, &[]);
        assert_eq!(pool.string(empty), Some(""));
    }
}
