//! The interned side tables (`qn` and one string table) and the
//! **content index** — the value-based access path of the query layer.
//!
//! Figure 5: "`prop`, holding all unique attribute values (as strings)"
//! and "`qn`, with one tuple for each qualified name (element or
//! attribute)". Both are append-only interning tables keyed by a void
//! column, so lookups from tree tuples are positional. Here `prop` is
//! the one **string table** of a document: attribute values and the
//! content of text, comment and instruction nodes are all interned into
//! it, so a string is stored once, whatever holds it.
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
//!   posted under a sentinel id no string has (`COMPLEX`) instead of
//!   being keyed (their string value would change on every deep text
//!   edit, turning an O(1) text update into an O(depth) index rewrite);
//!   a probe returns them as an unindexed remainder for the executor to
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
//! Each key space is one global **exact arm** of `(name, string id,
//! node)` postings ordered by `(name, id, pre)` — the name index's
//! document-ordered sequence (`names::DocOrdered`) — and one **numeric
//! arm** of `(name, number, node)` postings ordered by `(name, number,
//! node)` for every value that parses as an XPath number
//! ([`xpath_number`]): the access path for range predicates (`<`,
//! `<=`, `>`, `>=`). Like the name index, postings are keyed by
//! **immutable node ids**, translated to pre ranks when needed, and
//! counts are exact: a count is the distance between two searches.
//!
//! # Structural sharing
//!
//! Every table here is a column or a sorted sequence on the
//! copy-on-write directory of [`mbxq_bat::cow`], the one mechanism the
//! document's pages use too. Cloning the pool or an index — what a
//! transaction's private workspace and a commit's new version do —
//! shares its directory, whatever has been interned or indexed since
//! the document was loaded, and a commit copies only the directories,
//! chunks, pages and leaves it writes.
//!
//! Both side tables find an id through an open-addressing table of ids
//! in a [`CowVec`], probed by the hash of the key under the table's own
//! [`RandomState`] (keyed per table, so a document cannot force
//! collisions) and compared against the value the id names — the table
//! holds no second copy of any key. Keys are never removed. When an
//! insert takes the table past half full, it doubles and every id is
//! re-inserted: O(values) once per doubling, paid by the commit that
//! crosses the threshold.
//!
//! The `qn` table keeps its values in a [`CowVec`] of `Arc<QName>` (the
//! id is the position; names are few). The string table is a **byte
//! arena**: every string's bytes end to end in pages of 4 KiB
//! (`BYTE_PAGE`; a string never straddles two, and a longer one gets a
//! page of its own length), found through a [`CowVec`] of spans, one per id. A
//! string costs its bytes and a 12-byte span — no allocation and no
//! reference count of its own — and the first new string through a
//! version copies at most one byte page, one span page and one page of
//! the lookup table. A read is still a `&str` into the arena.

use crate::names::{per_name, DocOrdered, Posting, LEAF, NAME_PAGE};
use crate::page::{Tuple, NO_NAME};
use crate::types::Kind;
use mbxq_bat::{Blocks, CowDir, CowSorted, CowVec};
use mbxq_xml::QName;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Id of a qualified name in the `qn` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QnId(pub u32);

/// Id of an attribute value in the string table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PropId(pub u32);

/// Values per page of the `qn` table's value column and of the string
/// table's span column.
const VALUE_PAGE: usize = 256;
/// Ids per page of a lookup table.
const SLOT_PAGE: usize = 1024;
/// Bytes per page of the string arena (module docs).
const BYTE_PAGE: usize = 4096;
/// A free slot of a lookup table; never an id.
const FREE: u32 = u32::MAX;

/// The id the `len + 1`-th key of a side table gets.
fn next_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != FREE)
        .expect("side table overflow")
}

/// An open-addressing table of a side table's ids, probed by the hash of
/// the key each id names (module docs).
#[derive(Debug, Clone)]
struct Lookup {
    /// Linear probing; a power of two long and at most half full.
    slots: CowVec<u32>,
    hasher: RandomState,
}

impl Default for Lookup {
    fn default() -> Self {
        Lookup {
            slots: CowVec::new(SLOT_PAGE),
            hasher: RandomState::new(),
        }
    }
}

impl Lookup {
    fn hash<Q: ?Sized + Hash>(&self, key: &Q) -> u64 {
        self.hasher.hash_one(key)
    }

    /// `Ok(id)` of the key hashing to `hash` whose id `is` accepts, or
    /// `Err(slot)`: the free slot it would take.
    fn find(&self, hash: u64, is: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return Err(0);
        };
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                FREE => return Err(i),
                id if is(id) => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Records the new `id` — the table's last — in the `slot` [`Lookup::find`]
    /// returned; or, when that would take the table past half full,
    /// doubles it and re-inserts ids `0..=id`, hashing id `i`'s key as
    /// `hash_of(hasher, i)`.
    fn insert(&mut self, slot: usize, id: u32, hash_of: impl Fn(&RandomState, u32) -> u64) {
        if 2 * (id as usize + 1) <= self.slots.len() {
            self.slots[slot] = id;
            return;
        }
        let size = (2 * self.slots.len()).max(16);
        let mut slots = CowVec::new(SLOT_PAGE);
        slots.grow_to(size, FREE);
        for id in 0..=id {
            let mut i = hash_of(&self.hasher, id) as usize & (size - 1);
            while slots[i] != FREE {
                i = (i + 1) & (size - 1);
            }
            slots[i] = id;
        }
        self.slots = slots;
    }
}

/// An append-only interner of shared values: the `qn` table (module
/// docs).
#[derive(Debug, Clone)]
struct Interner<K> {
    values: CowVec<K>,
    lookup: Lookup,
}

impl<K: Clone> Default for Interner<K> {
    fn default() -> Self {
        Interner {
            values: CowVec::new(VALUE_PAGE),
            lookup: Lookup::default(),
        }
    }
}

impl<K: Clone + Eq + Hash> Interner<K> {
    /// The id of `key`, interning `own(key)` when it is new.
    fn intern<Q>(&mut self, key: &Q, own: impl FnOnce(&Q) -> K) -> u32
    where
        K: Borrow<Q>,
        Q: ?Sized + Eq + Hash,
    {
        let slot = match self.find(key) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = next_id(self.values.len());
        self.values.push(own(key));
        let values = &self.values;
        self.lookup
            .insert(slot, id, |hasher, i| hasher.hash_one(&values[i as usize]));
        id
    }

    fn get(&self, id: u32) -> Option<&K> {
        self.values.get(id as usize)
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// `Ok(id)` of `key`, or `Err(slot)`: the free slot it would take.
    fn find<Q>(&self, key: &Q) -> Result<u32, usize>
    where
        K: Borrow<Q>,
        Q: ?Sized + Eq + Hash,
    {
        let hash = self.lookup.hash(key);
        self.lookup
            .find(hash, |id| self.values[id as usize].borrow() == key)
    }
}

/// Where a string's bytes lie in the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    page: u32,
    start: u32,
    len: u32,
}

/// Every string's bytes end to end in pages, and a span per id (module
/// docs). [`Arena::push`] is the only writer: it copies whole `&str`s
/// into bytes no other string uses and never changes them afterwards,
/// so every span covers the bytes of one `&str`.
#[derive(Debug, Clone)]
struct Arena {
    /// Every page but the last is closed; a string never straddles two.
    bytes: CowDir<[u8]>,
    /// Bytes in use on the last page.
    tail: usize,
    /// String id → its bytes.
    spans: CowVec<Span>,
}

impl Arena {
    /// Copies `text` behind the last string — on a new page if the last
    /// page has no room for it — as the next id.
    fn push(&mut self, text: &str) {
        let last = self.bytes.len().checked_sub(1);
        if last.is_none_or(|last| self.bytes[last].len() - self.tail < text.len()) {
            let size = text.len().max(BYTE_PAGE);
            self.bytes.push(std::iter::repeat_n(0, size).collect());
            self.tail = 0;
        }
        let page = self.bytes.len() - 1;
        let start = self.tail;
        Arc::make_mut(self.bytes.leaf_mut(page))[start..start + text.len()]
            .copy_from_slice(text.as_bytes());
        self.tail += text.len();
        let narrow = |n: usize| u32::try_from(n).expect("string arena overflow");
        self.spans.push(Span {
            page: narrow(page),
            start: narrow(start),
            len: narrow(text.len()),
        });
    }

    /// The string with id `id`.
    fn get(&self, id: u32) -> Option<&str> {
        let span = *self.spans.get(id as usize)?;
        let start = span.start as usize;
        let text = &self.bytes[span.page as usize][start..start + span.len as usize];
        // SAFETY: the span came from `push`, so it covers exactly the
        // bytes of one `&str`, unchanged since (type docs).
        Some(unsafe { std::str::from_utf8_unchecked(text) })
    }
}

/// The string table: the arena and a lookup table of its ids (module
/// docs).
#[derive(Debug, Clone)]
struct StringTable {
    arena: Arena,
    lookup: Lookup,
}

impl Default for StringTable {
    fn default() -> Self {
        StringTable {
            arena: Arena {
                bytes: CowDir::new(),
                tail: 0,
                spans: CowVec::new(VALUE_PAGE),
            },
            lookup: Lookup::default(),
        }
    }
}

impl StringTable {
    /// The id of `key`, interning it when it is new.
    fn intern(&mut self, key: &str) -> u32 {
        let slot = match self.find(key) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = next_id(self.arena.spans.len());
        self.arena.push(key);
        let arena = &self.arena;
        self.lookup.insert(slot, id, |hasher, i| {
            hasher.hash_one(
                arena
                    .get(i)
                    .expect("every id up to the new one is interned"),
            )
        });
        id
    }

    fn get(&self, id: u32) -> Option<&str> {
        self.arena.get(id)
    }

    /// `Ok(id)` of `key`, or `Err(slot)`: the free slot it would take.
    fn find(&self, key: &str) -> Result<u32, usize> {
        let hash = self.lookup.hash(key);
        self.lookup.find(hash, |id| self.arena.get(id) == Some(key))
    }
}

/// All interned side tables shared by a document store.
///
/// Grouped in one struct because every schema variant (read-only, paged,
/// naive) needs the identical set, and the *same* pool instance lets the
/// ro-vs-up benchmarks rule out interning differences. Cloning copies a
/// pointer per chunk of pages; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct ValuePool {
    qnames: Interner<Arc<QName>>,
    /// Every string a document holds, once (module docs).
    strings: StringTable,
}

impl ValuePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The block walker's view: the `qn` table's values and lookup
    /// table, the string arena's bytes and spans and the string lookup
    /// table. (The `qn` values are `Arc<QName>` pointers; the few names
    /// behind them are not blocks.)
    pub(crate) fn columns(&self) -> [&dyn Blocks; 5] {
        let (qn, strings) = (&self.qnames, &self.strings);
        [
            &qn.values,
            &qn.lookup.slots,
            &strings.arena.bytes,
            &strings.arena.spans,
            &strings.lookup.slots,
        ]
    }

    /// Interns a qualified name, returning its `qn` id.
    pub fn intern_qname(&mut self, name: &QName) -> QnId {
        QnId(self.qnames.intern(name, |n| Arc::new(n.clone())))
    }

    /// The qualified name behind a `qn` id.
    pub fn qname(&self, id: QnId) -> Option<&QName> {
        self.qnames.get(id.0).map(|n| &**n)
    }

    /// Looks up a name without interning (query-side: an XPath name test
    /// for a name that was never interned matches nothing).
    pub fn lookup_qname(&self, name: &QName) -> Option<QnId> {
        self.qnames.find(name).ok().map(QnId)
    }

    /// Interns a string into the string table, returning its id.
    pub fn intern_str(&mut self, value: &str) -> u32 {
        self.strings.intern(value)
    }

    /// The string behind a string-table id.
    pub fn string(&self, id: u32) -> Option<&str> {
        self.strings.get(id)
    }

    /// Looks up a string without interning.
    pub fn lookup_str(&self, value: &str) -> Option<u32> {
        self.strings.find(value).ok()
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
/// material of the planner's pessimistic cardinality estimator. The
/// first two figures are exact; the third is an upper bound that only
/// grows until the index is rebuilt (a load or a checkpoint load), the
/// count-estimator convention: over-estimating a probe keeps the
/// multi-predicate chooser conservative as documents skew.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegreeStats {
    /// Distinct values keyed under this name.
    pub distinct_keys: u64,
    /// Total postings across all values.
    pub total_postings: u64,
    /// Longest single posting list (≥ the current longest) — the
    /// *degree bound*: no probe on this key space can return more rows
    /// than this for any one value.
    pub max_postings: u64,
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

/// The text arm's key for an element with element children: an id no
/// string has (the interners stop short of [`FREE`]).
const COMPLEX: u32 = FREE;

/// The text-arm posting of element `node` (named `qn`) with content
/// state `key`: `Some(string id)` for simple content, `None` for complex.
pub(crate) fn text_posting(qn: QnId, key: Option<u32>, node: u64) -> Posting {
    Posting::new(qn, key.unwrap_or(COMPLEX), node)
}

/// A numeric-arm posting: `node`'s value under name `qn` parses to
/// `num` (never `NaN`). Ordered by [`Numbered::order`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Numbered {
    num: f64,
    qn: QnId,
    node: u32,
}

impl Numbered {
    fn order(&self) -> (QnId, f64, u32) {
        (self.qn, self.num, self.node)
    }
}

/// The number a string-table entry parses to (`NaN` for none, and for
/// the `COMPLEX` sentinel).
fn number_of(pool: &ValuePool, id: u32) -> f64 {
    xpath_number(pool.string(id).unwrap_or(""))
}

/// Whether `v` lies below `range`'s lower end.
fn below(range: &NumRange, v: f64) -> bool {
    if range.lo_incl {
        v < range.lo
    } else {
        v <= range.lo
    }
}

/// Whether `v` lies at or below `range`'s upper end.
fn within_hi(range: &NumRange, v: f64) -> bool {
    if range.hi_incl {
        v <= range.hi
    } else {
        v < range.hi
    }
}

/// One key space of the content index: the exact arm, the numeric arm
/// and per-name degree statistics (module docs). Postings under
/// `COMPLEX` live in the exact arm only. The maintenance methods take
/// the pool (for the numbers values parse to) and the node → pre
/// translation of the document; every posting names a placed node
/// (module `names`).
#[derive(Debug, Clone)]
pub(crate) struct ValueIndex {
    exact: DocOrdered,
    numeric: CowSorted<Numbered>,
    stats: CowVec<DegreeStats>,
}

impl Default for ValueIndex {
    fn default() -> Self {
        ValueIndex {
            exact: DocOrdered::default(),
            numeric: CowSorted::new(LEAF),
            stats: CowVec::new(NAME_PAGE),
        }
    }
}

impl ValueIndex {
    /// The block walker's view: the two arms, then the exact arm's
    /// per-name counts and the degree statistics.
    pub(crate) fn columns(&self) -> ([&dyn Blocks; 2], [&dyn Blocks; 2]) {
        let (exact, named) = self.exact.columns();
        ([exact, &self.numeric], [named, &self.stats])
    }

    /// Adds the posting `p` of a placed node.
    pub(crate) fn add(
        &mut self,
        pool: &ValuePool,
        p: Posting,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) {
        let at = self.exact.add(p, pre_of);
        if p.value == COMPLEX {
            return;
        }
        let run = self.exact.run_at(at, p.key());
        let s = per_name(&mut self.stats, p.qn);
        s.total_postings += 1;
        s.distinct_keys += u64::from(run == 1);
        s.max_postings = s.max_postings.max(run);
        let num = number_of(pool, p.value);
        if !num.is_nan() {
            let e = Numbered {
                num,
                qn: p.qn,
                node: p.node,
            };
            self.numeric.insert(e, |x| x.order() < e.order());
        }
    }

    /// Removes the posting `p` of a still-placed node, if it is there.
    pub(crate) fn remove(
        &mut self,
        pool: &ValuePool,
        p: Posting,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) {
        let Some(at) = self.exact.remove(p, pre_of) else {
            return;
        };
        if p.value == COMPLEX {
            return;
        }
        let emptied = !self.exact.key_next_to(at, p.key());
        let s = per_name(&mut self.stats, p.qn);
        s.total_postings -= 1;
        s.distinct_keys -= u64::from(emptied);
        let num = number_of(pool, p.value);
        if !num.is_nan() {
            let e = Numbered {
                num,
                qn: p.qn,
                node: p.node,
            };
            self.numeric.remove(&e, |x| x.order() < e.order());
        }
    }

    /// Nodes whose value parses into `range` under `qn`, as `pre` ranks
    /// in document order.
    fn probe_range(
        &self,
        qn: QnId,
        range: &NumRange,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) -> Vec<u64> {
        let start = self
            .numeric
            .lower_bound(|e| e.qn < qn || (e.qn == qn && below(range, e.num)));
        let mut out: Vec<u64> = self
            .numeric
            .runs_from(start)
            .flatten()
            .take_while(|e| e.qn == qn && within_hi(range, e.num))
            .filter_map(|e| pre_of(u64::from(e.node)))
            .collect();
        // The numeric arm is value-sorted, not pre-sorted.
        out.sort_unstable();
        out
    }

    /// Cardinality of [`ValueIndex::probe_range`].
    fn count_range(&self, qn: QnId, range: &NumRange) -> u64 {
        let start = self
            .numeric
            .lower_bound(|e| e.qn < qn || (e.qn == qn && below(range, e.num)));
        let end = self
            .numeric
            .lower_bound(|e| e.qn < qn || (e.qn == qn && within_hi(range, e.num)));
        self.numeric.count_between(start, end) as u64
    }

    /// Degree statistics for key space `qn`.
    fn degree_stats(&self, qn: QnId) -> DegreeStats {
        self.stats.get(qn.0 as usize).copied().unwrap_or_default()
    }

    /// Postings under `COMPLEX` for name `qn`: O(1), since the statistics
    /// count every other posting.
    fn complex(&self, qn: QnId) -> u64 {
        let others = self.degree_stats(qn).total_postings;
        self.exact.count_named(qn).saturating_sub(others)
    }

    /// Builds the arms and statistics from postings in document order.
    fn from_doc_order(pool: &ValuePool, postings: Vec<Posting>) -> ValueIndex {
        let mut index = ValueIndex {
            exact: DocOrdered::from_doc_order(postings),
            ..ValueIndex::default()
        };
        let mut numeric = Vec::new();
        let (mut key, mut num, mut run) = (None, f64::NAN, 0);
        for p in index.exact.iter().filter(|p| p.value != COMPLEX) {
            let s = per_name(&mut index.stats, p.qn);
            if key != Some(p.key()) {
                (key, num, run) = (Some(p.key()), number_of(pool, p.value), 0);
                s.distinct_keys += 1;
            }
            run += 1;
            s.total_postings += 1;
            s.max_postings = s.max_postings.max(run);
            if !num.is_nan() {
                numeric.push(Numbered {
                    num,
                    qn: p.qn,
                    node: p.node,
                });
            }
        }
        numeric.sort_unstable_by(|a, b| a.order().partial_cmp(&b.order()).expect("no NaNs stored"));
        index.numeric = CowSorted::from_sorted(LEAF, &numeric);
        index
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
/// with an exact and a numeric arm (module docs). The update paths
/// write the arms directly.
#[derive(Debug, Clone, Default)]
pub(crate) struct ContentIndex {
    /// Attribute-name-keyed: elements carrying `@qn = value`.
    pub(crate) attrs: ValueIndex,
    /// Element-name-keyed: simple-content elements by string value,
    /// complex ones under `COMPLEX` ([`text_posting`]).
    pub(crate) texts: ValueIndex,
}

impl ContentIndex {
    // -- probes (a literal the string table lacks matches nothing) ----

    /// Elements with `@qn = value`, as pre ranks in document order.
    pub(crate) fn attr_eq(
        &self,
        pool: &ValuePool,
        qn: QnId,
        value: &str,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) -> Vec<u64> {
        pool.lookup_str(value)
            .map_or_else(Vec::new, |v| self.attrs.exact.pres((qn, v), pre_of))
    }

    /// Elements whose `@qn` parses into `range`.
    pub(crate) fn attr_range(
        &self,
        qn: QnId,
        range: &NumRange,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) -> Vec<u64> {
        self.attrs.probe_range(qn, range, pre_of)
    }

    /// Cardinality of [`ContentIndex::attr_eq`].
    pub(crate) fn attr_eq_count(&self, pool: &ValuePool, qn: QnId, value: &str) -> u64 {
        pool.lookup_str(value)
            .map_or(0, |v| self.attrs.exact.count((qn, v)))
    }

    /// Cardinality of [`ContentIndex::attr_range`].
    pub(crate) fn attr_range_count(&self, qn: QnId, range: &NumRange) -> u64 {
        self.attrs.count_range(qn, range)
    }

    /// Elements named `qn` whose string value equals `value` (exact
    /// arm) plus the name's unverified complex elements.
    pub(crate) fn text_eq(
        &self,
        pool: &ValuePool,
        qn: QnId,
        value: &str,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) -> TextProbe {
        TextProbe {
            exact: pool
                .lookup_str(value)
                .map_or_else(Vec::new, |v| self.texts.exact.pres((qn, v), &pre_of)),
            unindexed: self.texts.exact.pres((qn, COMPLEX), pre_of),
        }
    }

    /// Elements named `qn` whose string value parses into `range`
    /// (exact arm) plus the name's unverified complex elements.
    pub(crate) fn text_range(
        &self,
        qn: QnId,
        range: &NumRange,
        pre_of: impl Fn(u64) -> Option<u64>,
    ) -> TextProbe {
        TextProbe {
            exact: self.texts.probe_range(qn, range, &pre_of),
            unindexed: self.texts.exact.pres((qn, COMPLEX), pre_of),
        }
    }

    /// Cardinality of [`ContentIndex::text_eq`] (complex candidates
    /// included — they cost a verification each).
    pub(crate) fn text_eq_count(&self, pool: &ValuePool, qn: QnId, value: &str) -> u64 {
        pool.lookup_str(value)
            .map_or(0, |v| self.texts.exact.count((qn, v)))
            + self.texts.complex(qn)
    }

    /// Cardinality of [`ContentIndex::text_range`].
    pub(crate) fn text_range_count(&self, qn: QnId, range: &NumRange) -> u64 {
        self.texts.count_range(qn, range) + self.texts.complex(qn)
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
        let complex = self.texts.complex(qn);
        if complex > 0 {
            s.total_postings += complex;
            s.max_postings += complex;
            s.distinct_keys = s.distinct_keys.max(1);
        }
        s
    }

    /// Every attribute posting.
    pub(crate) fn attr_entries(&self) -> impl Iterator<Item = Posting> + '_ {
        self.attrs.exact.iter()
    }

    /// Builds the index by scanning a whole document view — the
    /// shredding and checkpoint-load constructor. `pool` is the view's
    /// own pool, lent out so that concatenated keys can be interned
    /// while the view is read (the scan reads no string through the
    /// view). Node ids come from the view, so the index survives later
    /// pre shifts.
    pub(crate) fn build_from_view<V: crate::view::TreeView + ?Sized>(
        view: &V,
        pool: &mut ValuePool,
    ) -> ContentIndex {
        let (mut attrs, mut p) = (Vec::new(), 0);
        let tuples = std::iter::from_fn(|| {
            let q = view.next_used_at_or_after(p)?;
            p = q + 1;
            let node = view.node_id(q).expect("used slot has a node id").0;
            let attributes = view.attributes(q).into_iter();
            attrs.extend(attributes.map(|(aqn, prop)| Posting::new(aqn, prop.0, node)));
            Some(Tuple {
                size: 0,
                level: view.level(q).expect("used slot has a level"),
                kind: view.kind(q).expect("used slot has a kind"),
                name: view.name_id(q).map_or(NO_NAME, |qn| qn.0),
                value: view.value_ref(q).map_or(NO_NAME, |v| v.0),
                node: u32::try_from(node).expect("node ids fit the node column"),
            })
        });
        let texts = classify(tuples, pool);
        ContentIndex {
            attrs: ValueIndex::from_doc_order(pool, attrs),
            texts: ValueIndex::from_doc_order(pool, texts),
        }
    }
}

/// The text posting of every element of `tuples` — whole subtrees in
/// document order — in document order: under its simple-content key
/// ([`TextKey`], interned) or `COMPLEX` ([`text_posting`]). The index
/// builds from a document this way and an insert and a delete from the
/// subtree they place or clear.
pub(crate) fn classify(
    tuples: impl IntoIterator<Item = Tuple>,
    pool: &mut ValuePool,
) -> Vec<Posting> {
    // Open elements: level, index into `out`, and the text key (`None`
    // once an element child made the element complex).
    let mut stack: Vec<(u16, usize, Option<TextKey>)> = Vec::new();
    let mut out: Vec<Posting> = Vec::new();
    let close = |(_, at, key): (u16, usize, Option<TextKey>),
                 out: &mut Vec<Posting>,
                 pool: &mut ValuePool| {
        if let Some(key) = key {
            out[at].value = key.finish(pool);
        }
    };
    for t in tuples {
        while stack.last().is_some_and(|f| f.0 >= t.level) {
            close(stack.pop().expect("just checked"), &mut out, pool);
        }
        match (t.kind, stack.last_mut()) {
            (Kind::Element, parent) => {
                if let Some(parent) = parent {
                    parent.2 = None;
                }
                stack.push((t.level, out.len(), Some(TextKey::default())));
                out.push(text_posting(QnId(t.name), None, u64::from(t.node)));
            }
            (Kind::Text, Some((_, _, Some(key)))) => key.push(pool, t.value),
            _ => {} // comments/PIs contribute no string value
        }
    }
    while let Some(f) = stack.pop() {
        close(f, &mut out, pool);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_bat::Level;

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
        p.intern_prop("first"); // its page's filler past the end copies it
        let a = p.intern_prop("person0");
        assert_eq!(p.intern_prop("person0"), a);
        assert_eq!(p.prop(a), Some("person0"));
        assert_eq!(p.lookup_prop("nope"), None);
        // Attribute values and node content share the one table …
        assert_eq!(p.intern_text("person0"), a.0);
        assert_eq!(p.intern_comment("person0"), a.0);
        // … and the arena holds each string's bytes once.
        assert_eq!(p.strings.arena.tail, "first".len() + "person0".len());
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
    fn ids_survive_table_growth() {
        let mut p = ValuePool::new();
        let ids: Vec<u32> = (0..600).map(|i| p.intern_text(&format!("t{i}"))).collect();
        // Six doublings later the table is still at most half full …
        assert!(p.strings.lookup.slots.len() >= 2 * p.strings.arena.spans.len());
        // … and every id still names its string and is found again.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.text(*id), Some(format!("t{i}").as_str()));
            assert_eq!(p.lookup_str(&format!("t{i}")), Some(*id));
        }
        assert_eq!(p.intern_text("t42"), ids[42]);
        // New values continue the id sequence.
        let fresh = p.intern_text("brand new");
        assert_eq!(fresh as usize, ids.len());
    }

    #[test]
    fn clones_do_not_see_later_interns() {
        let mut p = ValuePool::new();
        p.intern_text("shared");
        let snapshot = p.clone();
        let id = p.intern_text("after-clone");
        assert_eq!(p.text(id), Some("after-clone"));
        assert_eq!(snapshot.text(id), None);
        assert_eq!(snapshot.lookup_prop("after-clone"), None);
        assert_eq!(p.lookup_prop("shared"), snapshot.lookup_prop("shared"));
    }

    /// A clone shares every page of the string table; a new string then
    /// copies the last byte page, the last span page and one page of the
    /// lookup table.
    #[test]
    fn a_pools_clone_shares_its_pages_until_an_intern() {
        let mut p = ValuePool::new();
        for i in 0..5000 {
            p.intern_text(&format!("t{i}"));
        }
        let c = p.clone();
        // Leaves of the pool's columns (bytes, spans, lookup: 2..5) that
        // `c` does not share with `p`.
        let private = |p: &ValuePool, c: &ValuePool| -> Vec<usize> {
            let (old, new) = (p.columns(), c.columns());
            (2..5)
                .map(|i| {
                    let fresh = mbxq_bat::unshared(new[i], old[i]);
                    fresh.iter().filter(|b| b.level == Level::Leaf).count()
                })
                .collect()
        };
        assert_eq!(private(&p, &c), [0, 0, 0]);
        p.intern_text("one more");
        assert_eq!(private(&p, &c), [1, 1, 1]);
        assert_eq!(c.text(4999), Some("t4999"));
        assert_eq!(c.lookup_str("one more"), None);
    }

    /// Strings fill a byte page end to end and never straddle two; a
    /// string longer than a page gets a page of its own length.
    #[test]
    fn the_arena_packs_strings_and_gives_a_long_one_its_own_page() {
        let mut p = ValuePool::new();
        let half = "h".repeat(BYTE_PAGE / 2);
        let long = "λ".repeat(BYTE_PAGE); // two bytes a char
        let ids = [
            p.intern_str(&half),
            p.intern_str(""),
            p.intern_str(&half[1..]),
            p.intern_str("xy"), // no room left on page 0
            p.intern_str(&long),
            p.intern_str("z"),
        ];
        let pages: Vec<u32> = ids
            .iter()
            .map(|&id| p.strings.arena.spans[id as usize].page)
            .collect();
        assert_eq!(pages, [0, 0, 0, 1, 2, 3]);
        assert_eq!(p.strings.arena.bytes[2].len(), long.len());
        for (id, text) in ids
            .iter()
            .zip([&half[..], "", &half[1..], "xy", &long, "z"])
        {
            assert_eq!(p.string(*id), Some(text));
            assert_eq!(p.lookup_str(text), Some(*id));
        }
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

    /// A key space's arms and counts follow value changes exactly; the
    /// degree bound `max_postings` only grows.
    #[test]
    fn value_index_updates_and_ranges() {
        let mut pool = ValuePool::new();
        let [v10, v50, v49] = ["10", "50", "49"].map(|v| pool.intern_str(v));
        let at = |value, node| Posting::new(QnId(1), value, node);
        let mut idx = ValueIndex::from_doc_order(&pool, vec![at(v10, 2), at(v50, 5), at(v10, 8)]);
        let at_least = |n, incl| NumRange::at_least(n, incl);
        assert_eq!(idx.exact.pres((QnId(1), v10), ident), vec![2, 8]);
        assert_eq!(
            idx.probe_range(QnId(1), &at_least(10.0, true), ident),
            vec![2, 5, 8]
        );
        assert_eq!(
            idx.probe_range(QnId(1), &at_least(10.0, false), ident),
            vec![5]
        );
        let stats = |idx: &ValueIndex| {
            let s = idx.degree_stats(QnId(1));
            (s.distinct_keys, s.total_postings, s.max_postings)
        };
        assert_eq!(stats(&idx), (2, 3, 2));
        // Value change on node 8: remove, add under a new value.
        idx.remove(&pool, at(v10, 8), ident);
        idx.add(&pool, at(v49, 8), ident);
        assert_eq!(idx.exact.pres((QnId(1), v10), ident), vec![2]);
        assert_eq!(idx.exact.pres((QnId(1), v49), ident), vec![8]);
        assert_eq!(
            idx.probe_range(QnId(1), &at_least(11.0, true), ident),
            vec![5, 8]
        );
        // Counts are exact.
        assert_eq!(idx.exact.count((QnId(1), v10)), 1);
        assert_eq!(idx.count_range(QnId(1), &at_least(11.0, true)), 2);
        assert_eq!(idx.count_range(QnId(1), &NumRange::at_most(10.0, false)), 0);
        assert_eq!(stats(&idx), (3, 3, 2));
        idx.remove(&pool, at(v10, 2), ident);
        assert_eq!(stats(&idx), (2, 2, 2));
        assert_eq!(idx.count_range(QnId(1), &at_least(0.0, true)), 2);
    }

    #[test]
    fn content_index_rekey_and_rename() {
        let mut pool = ValuePool::new();
        let (alice, bob) = (pool.intern_str("Alice"), pool.intern_str("Bob"));
        let mut idx = ContentIndex::default();
        let text = |qn, key, node| text_posting(QnId(qn), key, node);
        idx.texts.add(&pool, text(0, Some(alice), 4), ident);
        idx.texts.add(&pool, text(0, None, 9), ident);
        assert_eq!(idx.text_eq(&pool, QnId(0), "Alice", ident).exact, vec![4]);
        assert_eq!(
            idx.text_eq(&pool, QnId(0), "Alice", ident).unindexed,
            vec![9]
        );
        // A literal the string table lacks matches no simple element,
        // but the complex ones still come back for verification.
        let missing = idx.text_eq(&pool, QnId(0), "Carol", ident);
        assert_eq!((missing.exact, missing.unindexed), (vec![], vec![9]));
        assert_eq!(idx.text_eq_count(&pool, QnId(0), "Alice"), 2);
        // Complex → simple (a delete removed the element child):
        // remove-then-add, the diff protocol of the update paths.
        idx.texts.remove(&pool, text(0, None, 9), ident);
        idx.texts.add(&pool, text(0, Some(bob), 9), ident);
        let probe = idx.text_eq(&pool, QnId(0), "Bob", ident);
        assert_eq!(probe.exact, vec![9]);
        assert!(probe.unindexed.is_empty());
        // Rename moves between names, key preserved.
        idx.texts.remove(&pool, text(0, Some(bob), 9), ident);
        idx.texts.add(&pool, text(7, Some(bob), 9), ident);
        assert!(idx.text_eq(&pool, QnId(0), "Bob", ident).exact.is_empty());
        assert_eq!(idx.text_eq(&pool, QnId(7), "Bob", ident).exact, vec![9]);
        assert_eq!(idx.text_eq_count(&pool, QnId(7), "Bob"), 1);
        assert_eq!(idx.text_degree_stats(QnId(0)).total_postings, 1);
    }

    #[test]
    fn content_index_clone_shares_base() {
        let mut pool = ValuePool::new();
        let v = pool.intern_str("v");
        let mut idx = ContentIndex::default();
        let attrs = (0..2000).map(|node| Posting::new(QnId(0), v, node));
        idx.attrs = ValueIndex::from_doc_order(&pool, attrs.collect());
        let mut snap = idx.clone();
        let private_leaves = |snap: &ContentIndex| {
            let (new, old) = (snap.attrs.columns().0, idx.attrs.columns().0);
            let fresh = mbxq_bat::unshared(new[0], old[0]);
            fresh.iter().filter(|b| b.level == Level::Leaf).count()
        };
        assert_eq!(private_leaves(&snap), 0);
        snap.attrs.add(&pool, Posting::new(QnId(0), v, 5000), ident);
        assert_eq!(private_leaves(&snap), 1);
        assert_eq!(idx.attr_eq_count(&pool, QnId(0), "v"), 2000);
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
