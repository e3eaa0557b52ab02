//! Shared helpers for the integration test suite.
//!
//! The container build has no access to crates.io, so instead of
//! proptest these tests use a small deterministic PRNG and hand-rolled
//! generators: every `#[test]` loops over a fixed number of seeded
//! cases, which keeps failures reproducible (the seed is part of the
//! panic message).
#![allow(dead_code)] // each test binary uses a subset

use mbxq::{Node, PageConfig, PagedDoc, ReadOnlyDoc, TreeView};

/// Page configurations exercised by cross-schema tests: tiny pages force
/// many page boundaries; big pages exercise the single-page paths.
pub fn page_configs() -> Vec<PageConfig> {
    vec![
        PageConfig::new(4, 50).unwrap(),
        PageConfig::new(8, 88).unwrap(),
        PageConfig::new(16, 75).unwrap(),
        PageConfig::new(64, 80).unwrap(),
        PageConfig::new(1024, 100).unwrap(),
    ]
}

/// Deterministic test randomness — a thin convenience wrapper around
/// the engine's own seeded generator ([`mbxq_xmark::rng::StdRng`]), so
/// the workspace carries exactly one PRNG implementation.
#[derive(Debug, Clone)]
pub struct TestRng(mbxq_xmark::rng::StdRng);

impl TestRng {
    /// Creates a generator for `seed`.
    pub fn new(seed: u64) -> TestRng {
        TestRng(mbxq_xmark::rng::StdRng::seed_from_u64(seed))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    /// Uniform pick from a slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// `true` with probability `num/den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}

/// Element/attribute names (small alphabet so random trees share names
/// and name tests actually select subsets).
pub fn rand_name(rng: &mut TestRng) -> String {
    (*rng.pick(&["a", "b", "c", "item", "name", "x"])).to_string()
}

/// Text content (includes XML-hostile characters).
pub fn rand_text(rng: &mut TestRng) -> String {
    (*rng.pick(&["t", "x < y", "a & b", "\"quoted\"", "uni—code", "  "])).to_string()
}

/// Random well-formed element tree of bounded depth and fan-out. Adjacent
/// text children are merged and attribute names deduplicated, matching
/// what the parser produces so round-trip comparisons see canonical
/// trees.
pub fn rand_tree(rng: &mut TestRng, max_depth: u32, max_children: usize) -> Node {
    fn element(rng: &mut TestRng, depth: u32, max_depth: u32, max_children: usize) -> Node {
        let name = rand_name(rng);
        let mut seen = std::collections::HashSet::new();
        let mut attributes = Vec::new();
        for _ in 0..rng.below(3) {
            let n = rand_name(rng);
            if seen.insert(n.clone()) {
                attributes.push((mbxq::QName::local(n), rand_text(rng)));
            }
        }
        let n_children = if depth >= max_depth {
            0
        } else {
            rng.below(max_children + 1)
        };
        let mut children: Vec<Node> = Vec::new();
        for _ in 0..n_children {
            let child = if depth + 1 >= max_depth || rng.chance(1, 3) {
                Node::text(rand_text(rng))
            } else {
                element(rng, depth + 1, max_depth, max_children)
            };
            match (children.last_mut(), &child) {
                (Some(Node::Text(prev)), Node::Text(t)) => prev.push_str(t),
                _ => children.push(child),
            }
        }
        Node::Element {
            name: mbxq::QName::local(name),
            attributes,
            children,
        }
    }
    element(rng, 0, max_depth, max_children)
}

/// Serializes a node to an XML string.
pub fn to_xml_string(node: &Node) -> String {
    let mut s = String::new();
    mbxq_xml::serialize_node(node, &mut s);
    s
}

/// The tree of the used node at `pre`, rebuilt from any view — the
/// straightforward recursive reconstruction the storage serializer once
/// went through, kept as the oracle its streaming replacement
/// (`mbxq_storage::serialize::write_subtree`) is checked against.
pub fn subtree_to_node<V: TreeView + ?Sized>(view: &V, pre: u64) -> Node {
    use mbxq_storage::{Kind, ValueRef};
    let pool = view.pool();
    let qname = |qn| pool.qname(qn).cloned().unwrap();
    let value = || view.value_ref(pre).map(|ValueRef(v)| v).unwrap();
    match view.kind(pre).expect("a used slot") {
        Kind::Element => {
            let level = view.level(pre).unwrap();
            let end = view.region_end(pre);
            let mut children = Vec::new();
            let mut p = pre + 1;
            while let Some(q) = view.next_used_at_or_after(p).filter(|&q| q < end) {
                assert_eq!(view.level(q), Some(level + 1), "child level at pre {q}");
                children.push(subtree_to_node(view, q));
                p = view.region_end(q);
            }
            Node::Element {
                name: qname(view.name_id(pre).unwrap()),
                attributes: view
                    .attributes(pre)
                    .into_iter()
                    .map(|(n, v)| (qname(n), pool.prop(v).unwrap().to_string()))
                    .collect(),
                children,
            }
        }
        Kind::Text => Node::Text(pool.text(value()).unwrap().to_string()),
        Kind::Comment => Node::Comment(pool.comment(value()).unwrap().to_string()),
        Kind::ProcessingInstruction => {
            let (target, data) = pool.instruction(value()).unwrap();
            Node::ProcessingInstruction {
                target: target.to_string(),
                data: data.to_string(),
            }
        }
    }
}

/// Sectioned fixture document shared by the concurrency suites:
/// `<root><s0><p id="s0p0"/>…</s0><s1>…</s1>…</root>` with `per`
/// paragraphs per section. A non-empty `body` (e.g. `"<t>x</t>"`) is
/// placed inside each paragraph instead of self-closing it.
pub fn sectioned_xml(sections: usize, per: usize, body: &str) -> String {
    let mut xml = String::from("<root>");
    for s in 0..sections {
        xml.push_str(&format!("<s{s}>"));
        for i in 0..per {
            if body.is_empty() {
                xml.push_str(&format!("<p id=\"s{s}p{i}\"/>"));
            } else {
                xml.push_str(&format!("<p id=\"s{s}p{i}\">{body}</p>"));
            }
        }
        xml.push_str(&format!("</s{s}>"));
    }
    xml.push_str("</root>");
    xml
}

/// A paged document seen through the [`TreeView`] **defaults**: only the
/// per-slot accessors are forwarded, so `region_end`, `parent_of` and
/// every other derived helper run the trait's slot-by-slot reference
/// walks instead of [`PagedDoc`]'s page-summary overrides.
pub struct DefaultWalk<'a>(pub &'a PagedDoc);

impl TreeView for DefaultWalk<'_> {
    fn pre_end(&self) -> u64 {
        self.0.pre_end()
    }
    fn level(&self, pre: u64) -> Option<u16> {
        self.0.level(pre)
    }
    fn size(&self, pre: u64) -> u64 {
        TreeView::size(self.0, pre)
    }
    fn kind(&self, pre: u64) -> Option<mbxq_storage::Kind> {
        self.0.kind(pre)
    }
    fn name_id(&self, pre: u64) -> Option<mbxq_storage::QnId> {
        self.0.name_id(pre)
    }
    fn value_ref(&self, pre: u64) -> Option<mbxq_storage::ValueRef> {
        self.0.value_ref(pre)
    }
    fn node_id(&self, pre: u64) -> Option<mbxq::NodeId> {
        self.0.node_id(pre)
    }
    fn back_run(&self, pre: u64) -> u64 {
        self.0.back_run(pre)
    }
    fn attributes(&self, pre: u64) -> Vec<(mbxq_storage::QnId, mbxq_storage::PropId)> {
        self.0.attributes(pre)
    }
    fn pool(&self) -> &mbxq_storage::ValuePool {
        self.0.pool()
    }
    fn used_count(&self) -> u64 {
        self.0.used_count()
    }
}

/// Any view with every call that crosses the [`TreeView`] boundary
/// counted — the per-slot accessors and the navigation and index
/// overrides alike, each forwarded to the wrapped schema. What an
/// operator *asks of* a view is its complexity in the paper's cost
/// model; counting it pins that complexity without a clock.
pub struct Counting<'a, V: TreeView> {
    view: &'a V,
    calls: std::sync::atomic::AtomicU64,
}

impl<'a, V: TreeView> Counting<'a, V> {
    pub fn new(view: &'a V) -> Self {
        Counting {
            view,
            calls: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Accessor calls made through this wrapper so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn hit(&self) -> &'a V {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.view
    }
}

impl<V: TreeView> TreeView for Counting<'_, V> {
    fn pre_end(&self) -> u64 {
        self.hit().pre_end()
    }
    fn level(&self, pre: u64) -> Option<u16> {
        self.hit().level(pre)
    }
    fn size(&self, pre: u64) -> u64 {
        self.hit().size(pre)
    }
    fn kind(&self, pre: u64) -> Option<mbxq_storage::Kind> {
        self.hit().kind(pre)
    }
    fn name_id(&self, pre: u64) -> Option<mbxq_storage::QnId> {
        self.hit().name_id(pre)
    }
    fn value_ref(&self, pre: u64) -> Option<mbxq_storage::ValueRef> {
        self.hit().value_ref(pre)
    }
    fn node_id(&self, pre: u64) -> Option<mbxq::NodeId> {
        self.hit().node_id(pre)
    }
    fn back_run(&self, pre: u64) -> u64 {
        self.hit().back_run(pre)
    }
    fn attributes(&self, pre: u64) -> Vec<(mbxq_storage::QnId, mbxq_storage::PropId)> {
        self.hit().attributes(pre)
    }
    fn pool(&self) -> &mbxq_storage::ValuePool {
        self.view.pool() // the interned side tables are not the pre plane
    }
    fn used_count(&self) -> u64 {
        self.hit().used_count()
    }
    fn elements_named_in(
        &self,
        qn: mbxq_storage::QnId,
        lo: u64,
        hi: u64,
    ) -> Option<std::borrow::Cow<'_, [u64]>> {
        self.hit().elements_named_in(qn, lo, hi)
    }
    fn elements_named_count(&self, qn: mbxq_storage::QnId) -> Option<u64> {
        self.hit().elements_named_count(qn)
    }
    fn pre_chunk(&self, pre: u64, end: u64) -> Option<mbxq_storage::PreChunk<'_>> {
        self.hit().pre_chunk(pre, end)
    }
    fn next_used_at_or_after(&self, pre: u64) -> Option<u64> {
        self.hit().next_used_at_or_after(pre)
    }
    fn prev_used_at_or_before(&self, pre: u64) -> Option<u64> {
        self.hit().prev_used_at_or_before(pre)
    }
    fn region_end(&self, pre: u64) -> u64 {
        self.hit().region_end(pre)
    }
    fn parent_of(&self, pre: u64) -> Option<u64> {
        self.hit().parent_of(pre)
    }
}

/// Structural-predicate paths over XMark: existence and non-existence
/// of a child or a descendant, alone, conjoined, on a wildcard step and
/// beside a value predicate — each one an index (anti-)semijoin or the
/// early-exit scan, depending on the forced arm.
const XMARK_EXISTS_PATHS: &[&str] = &[
    "/site/people/person[homepage]",
    "/site/people/person[not(homepage)]",
    "/site/people/person[profile and not(homepage)]/name",
    "//item[.//keyword]",
    "//*[not(*)]",
    "//person[not(homepage)][@id = \"person0\"]",
];

/// Value-predicate and multi-predicate paths over XMark: attribute and
/// child-text keys, exact and numeric-range comparisons, hits, misses
/// and near-total ranges, one to three predicates per step.
const XMARK_VALUE_PATHS: &[&str] = &[
    "//item[@id = \"item0\"]",
    "/site/people/person[@id = \"person0\"]/name",
    "//personref[@person = \"person3\"]",
    "//person[name = \"Qqq Zzz\"]",
    "//closed_auction[price > 195]",
    "//closed_auction[price > 100]",
    "//price[. > 195]",
    "//price[. < 1000]",
    "//item[quantity = 1]",
    "//*[@person = \"person0\"]",
    "//item[@id = \"item0\"][quantity = 1]",
    "//item[quantity = 1][location = \"United States\"]",
    "//closed_auction[price > 100][price < 120]",
    "//item[quantity = 1][quantity < 3]",
    "//item[quantity = 1][quantity < 3][location = \"United States\"]",
    "//closed_auction[price > 195][price < 199]",
];

/// The oracles' second corpus: one XMark document (scale 0.002, the
/// paper's 80 %-filled 1024-slot pages) in both schemas, with every
/// selection the Q1–Q20 plans issue ([`mbxq_xmark::QUERY_PATHS`]) plus
/// [`XMARK_VALUE_PATHS`] and [`XMARK_EXISTS_PATHS`] — real fan-outs,
/// skewed value distributions and long downward paths the random trees
/// do not produce.
pub fn xmark_corpus() -> (ReadOnlyDoc, PagedDoc, Vec<&'static str>) {
    let xml = mbxq_xmark::generate(&mbxq_xmark::XMarkConfig::scaled(0.002, 42));
    let ro = ReadOnlyDoc::parse_str(&xml).unwrap();
    let up = PagedDoc::parse_str(&xml, PageConfig::new(1024, 80).unwrap()).unwrap();
    let paths = mbxq_xmark::QUERY_PATHS.iter().map(|&(_, path)| path);
    (
        ro,
        up,
        paths
            .chain(XMARK_VALUE_PATHS.iter().copied())
            .chain(XMARK_EXISTS_PATHS.iter().copied())
            .collect(),
    )
}
