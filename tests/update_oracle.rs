//! Randomized update-sequence oracle: apply the same random sequence of
//! structural and value updates to the paged store and to the naive
//! shifting store; after every step both must serialize to the same
//! document, the paged store must pass the deep invariant checker, and
//! the claimed cost bounds must hold (paged inserts never touch more
//! pre-existing tuples than one page can hold). Each sequence ends with a
//! vacuum and a checkpoint reload of the paged store, which must still
//! equal the naive one.

mod common;

use common::{rand_name, rand_text, rand_tree, DefaultWalk, TestRng};
use mbxq::{InsertPosition, NaiveDoc, Node, PageConfig, PagedDoc, QName, TreeView};
use mbxq_storage::serialize::to_xml;

/// One random update operation, in terms of *dense node ranks* so the
/// same op addresses the same logical node in both stores.
#[derive(Debug, Clone)]
enum RandomOp {
    InsertBefore(usize, Node),
    InsertAfter(usize, Node),
    AppendChild(usize, Node),
    Delete(usize),
    SetAttr(usize, String, String),
    RemoveAttr(usize, String),
    Rename(usize, String),
}

fn random_op(rng: &mut TestRng) -> RandomOp {
    let rank = rng.below(1 << 16);
    match rng.below(7) {
        0 => RandomOp::InsertBefore(rank, rand_tree(rng, 2, 3)),
        1 => RandomOp::InsertAfter(rank, rand_tree(rng, 2, 3)),
        2 => RandomOp::AppendChild(rank, rand_tree(rng, 2, 3)),
        3 => RandomOp::Delete(rank),
        4 => RandomOp::SetAttr(rank, rand_name(rng), rand_text(rng)),
        5 => RandomOp::RemoveAttr(rank, rand_name(rng)),
        _ => RandomOp::Rename(rank, rand_name(rng)),
    }
}

/// The node id at dense rank `rank` (mod the current node count) in the
/// paged store — node ids agree across stores because both allocate in
/// document order and replay identical operations.
fn nth_node(up: &PagedDoc, rank: usize) -> Option<mbxq::NodeId> {
    let used = up.used_count() as usize;
    if used == 0 {
        return None;
    }
    let want = rank % used;
    let mut seen = 0;
    let mut p = 0;
    while let Some(q) = up.next_used_at_or_after(p) {
        if seen == want {
            return up.pre_to_node(q).ok();
        }
        seen += 1;
        p = q + 1;
    }
    None
}

#[test]
fn paged_equals_naive_under_random_updates() {
    for case in 0..32u64 {
        let mut rng = TestRng::new(0x0E5A + case);
        let tree = rand_tree(&mut rng, 3, 4);
        let n_ops = 1 + rng.below(11);
        let ops: Vec<RandomOp> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        let cfg = [
            PageConfig::new(4, 50).unwrap(),
            PageConfig::new(8, 75).unwrap(),
            PageConfig::new(64, 80).unwrap(),
        ][rng.below(3)];
        let mut up = PagedDoc::from_tree(&tree, cfg).expect("shred paged");
        let mut nv = NaiveDoc::from_tree(&tree).expect("shred naive");

        for op in &ops {
            // Resolve the target in the paged store, mirror by node id.
            match op {
                RandomOp::InsertBefore(rank, sub) => {
                    let Some(t) = nth_node(&up, *rank) else {
                        continue;
                    };
                    let a = up.insert(InsertPosition::Before(t), sub);
                    let b = nv.insert(InsertPosition::Before(t), sub);
                    assert_eq!(a.is_ok(), b.is_ok(), "insert-before disagree");
                    if let Ok(r) = a {
                        // Cost bound: moved tuples never exceed one page.
                        assert!(r.moved <= cfg.page_size as u64);
                    }
                }
                RandomOp::InsertAfter(rank, sub) => {
                    let Some(t) = nth_node(&up, *rank) else {
                        continue;
                    };
                    let a = up.insert(InsertPosition::After(t), sub);
                    let b = nv.insert(InsertPosition::After(t), sub);
                    assert_eq!(a.is_ok(), b.is_ok(), "insert-after disagree");
                    if let Ok(r) = a {
                        assert!(r.moved <= cfg.page_size as u64);
                    }
                }
                RandomOp::AppendChild(rank, sub) => {
                    let Some(t) = nth_node(&up, *rank) else {
                        continue;
                    };
                    let a = up.insert(InsertPosition::LastChildOf(t), sub);
                    let b = nv.insert(InsertPosition::LastChildOf(t), sub);
                    assert_eq!(a.is_ok(), b.is_ok(), "append disagree");
                    if let Ok(r) = a {
                        assert!(r.moved <= cfg.page_size as u64);
                    }
                }
                RandomOp::Delete(rank) => {
                    let Some(t) = nth_node(&up, *rank) else {
                        continue;
                    };
                    let a = up.delete(t);
                    let b = nv.delete(t);
                    assert_eq!(a.is_ok(), b.is_ok(), "delete disagree");
                    if let Ok(r) = a {
                        // Deletes never shift pre-existing tuples.
                        assert!(r.deleted > 0);
                    }
                }
                RandomOp::SetAttr(rank, name, value) => {
                    let Some(t) = nth_node(&up, *rank) else {
                        continue;
                    };
                    let q = QName::local(name.clone());
                    let a = up.set_attribute(t, &q, value);
                    let b = nv.set_attribute(t, &q, value);
                    assert_eq!(a.is_ok(), b.is_ok(), "set-attr disagree");
                }
                RandomOp::RemoveAttr(rank, name) => {
                    let Some(t) = nth_node(&up, *rank) else {
                        continue;
                    };
                    let q = QName::local(name.clone());
                    let a = up.remove_attribute(t, &q);
                    assert_eq!(a, nv.remove_attribute(t, &q), "remove-attr disagree");
                }
                RandomOp::Rename(rank, name) => {
                    let Some(t) = nth_node(&up, *rank) else {
                        continue;
                    };
                    let q = QName::local(name.clone());
                    let a = up.rename(t, &q);
                    let b = nv.rename(t, &q);
                    assert_eq!(a.is_ok(), b.is_ok(), "rename disagree");
                }
            }
            mbxq_storage::invariants::check_paged(&up).expect("invariants hold");
            assert_windowed_probes_match(&up, &mut rng, case);
            assert_eq!(
                to_xml(&up).unwrap(),
                to_xml(&nv).unwrap(),
                "case {case}: documents diverged after {op:?}"
            );
        }
        // Final occupancy accounting.
        assert_eq!(up.used_count(), nv.used_count());
        // Vacuum drops the dead and unreached attribute rows; a
        // checkpoint reload rebuilds the runs from the dump.
        up.vacuum().expect("vacuum");
        let reloaded = PagedDoc::from_checkpoint_dump(
            &up.checkpoint_dump(),
            cfg,
            up.node_alloc_end(),
            up.used_count(),
        )
        .expect("checkpoint reload");
        for doc in [&up, &reloaded] {
            mbxq_storage::invariants::check_paged(doc).expect("invariants hold");
            assert_eq!(to_xml(doc).unwrap(), to_xml(&nv).unwrap(), "case {case}");
        }
    }
}

/// The windowed name-index probe equals the whole probe cut to the
/// window, for random windows of every name — on an index the ops above
/// have added postings to and removed postings from.
fn assert_windowed_probes_match(up: &PagedDoc, rng: &mut TestRng, case: u64) {
    let end = up.pre_end() as usize + 2;
    for qn in (0..up.pool().qname_count() as u32).map(mbxq_storage::QnId) {
        let all = up.elements_named(qn).expect("paged docs keep a name index");
        for _ in 0..6 {
            let lo = rng.below(end) as u64;
            let hi = lo + rng.below(end) as u64;
            let want: Vec<u64> = all.iter().copied().filter(|&p| lo <= p && p < hi).collect();
            assert_eq!(
                up.elements_named_in(qn, lo, hi).as_deref(),
                Some(&want[..]),
                "case {case}: qn {} window [{lo}, {hi})",
                qn.0
            );
        }
    }
}

/// What a [`random_edit_sequences`] run saw, so a test can prove it
/// exercised the shapes the page summaries must get right.
#[derive(Debug, Default)]
struct ShapesSeen {
    empty_pages: usize,
    overflow_inserts: usize,
    regions_ending_on_a_page_boundary: usize,
    regions_ending_at_document_end: usize,
}

impl ShapesSeen {
    fn note(&mut self, up: &PagedDoc) {
        let page_size = up.config().page_size as u64;
        let mut p = 0;
        while let Some(q) = up.next_used_at_or_after(p) {
            let end = up.region_end(q);
            if end == up.pre_end() {
                self.regions_ending_at_document_end += 1;
            } else if end % page_size == 0 {
                self.regions_ending_on_a_page_boundary += 1;
            }
            p = q + 1;
        }
        self.empty_pages += (0..up.stats().pages)
            .filter(|&page| up.free_in_page(page) as u64 == page_size)
            .count();
    }

    fn assert_every_shape(&self) {
        assert!(
            self.empty_pages > 0
                && self.overflow_inserts > 0
                && self.regions_ending_on_a_page_boundary > 0
                && self.regions_ending_at_document_end > 0,
            "the seeds no longer reach every shape: {self:?}"
        );
    }
}

/// Seeded random insert / delete / set-attribute / vacuum /
/// checkpoint-reload sequences over small and completely filled pages:
/// `check` sees every case's fresh document and the document after
/// every step (holes, spliced pages, emptied pages and moved attribute
/// runs included), with a context naming the case and step.
fn random_edit_sequences(seed: u64, mut check: impl FnMut(&PagedDoc, &str)) -> ShapesSeen {
    let mut seen = ShapesSeen::default();
    for case in 0..48u64 {
        let mut rng = TestRng::new(seed + case);
        let cfg = [
            PageConfig::new(4, 50).unwrap(),
            PageConfig::new(4, 100).unwrap(),
            PageConfig::new(8, 75).unwrap(),
            PageConfig::new(16, 100).unwrap(),
            PageConfig::new(64, 80).unwrap(),
        ][rng.below(5)];
        let mut up = PagedDoc::from_tree(&rand_tree(&mut rng, 4, 4), cfg).expect("shred paged");
        check(&up, &format!("case {case}: fresh"));
        seen.note(&up);
        for step in 0..(4 + rng.below(12)) {
            let target = nth_node(&up, rng.below(1 << 16)).expect("document is never empty");
            match rng.below(11) {
                0..=4 => {
                    let sub = rand_tree(&mut rng, 3, 4);
                    let position = match rng.below(3) {
                        0 => InsertPosition::Before(target),
                        1 => InsertPosition::After(target),
                        _ => InsertPosition::LastChildOf(target),
                    };
                    // Sibling inserts at the root and children of
                    // non-elements are refused; nothing changes then.
                    if let Ok(r) = up.insert(position, &sub) {
                        seen.overflow_inserts += r.pages_added.min(1);
                    }
                }
                5..=7 => {
                    let _ = up.delete(target); // the root is refused
                }
                8 => {
                    up.vacuum().expect("vacuum");
                }
                9 => {
                    // Moves the element's run to the table's end unless
                    // it is the last run; non-elements refuse.
                    let name = QName::local(rand_name(&mut rng));
                    let _ = up.set_attribute(target, &name, &rand_text(&mut rng));
                }
                _ => {
                    up = PagedDoc::from_checkpoint_dump(
                        &up.checkpoint_dump(),
                        cfg,
                        up.node_alloc_end(),
                        up.used_count(),
                    )
                    .expect("checkpoint reload");
                }
            }
            check(&up, &format!("case {case} step {step}"));
            seen.note(&up);
        }
    }
    seen
}

/// Seeded property test for the per-page level summaries:
/// `PagedDoc::region_end`/`parent_of` must equal the trait-default slot
/// walks for every used `pre`, and the deep checker must accept every
/// page's summary.
#[test]
fn summaries_equal_default_walks() {
    let seen = random_edit_sequences(0x5A11, |up, context| {
        mbxq_storage::invariants::check_paged(up).unwrap_or_else(|e| panic!("{context}: {e}"));
        let reference = DefaultWalk(up);
        let mut p = 0;
        while let Some(q) = up.next_used_at_or_after(p) {
            assert_eq!(
                up.region_end(q),
                reference.region_end(q),
                "{context}: region_end({q})"
            );
            assert_eq!(
                up.parent_of(q),
                reference.parent_of(q),
                "{context}: parent_of({q})"
            );
            p = q + 1;
        }
    });
    seen.assert_every_shape();
}

/// `attr_str` against `attributes()` and the pool, for every name the
/// random trees use and every used slot of `view`.
fn assert_attr_reads<V: TreeView + ?Sized>(view: &V, context: &str) {
    let pool = view.pool();
    let names: Vec<_> = ["a", "b", "c", "item", "name", "x"]
        .iter()
        .filter_map(|&n| pool.lookup_qname(&QName::local(n)))
        .collect();
    let mut p = 0;
    while let Some(q) = view.next_used_at_or_after(p) {
        let attributes = view.attributes(q);
        for &qn in &names {
            let expected = attributes
                .iter()
                .find(|&&(n, _)| n == qn)
                .map(|&(_, prop)| pool.prop(prop).unwrap());
            assert_eq!(view.attr_str(q, qn), expected, "{context}: attr_str({q})");
        }
        p = q + 1;
    }
}

/// Seeded property test for the sibling hop and the attribute read:
/// after every random edit, `children` and `following_siblings` (one
/// loop on `next_at_level_or_above`) equal the same walks through the
/// trait defaults for every used node, and `attr_str` equals a search
/// of `attributes()` on the paged document, the default body, and the
/// read-only and naive shreddings of the same document.
#[test]
fn sibling_hops_and_attribute_reads_equal_default_walks() {
    let seen = random_edit_sequences(0x51B1, |up, context| {
        let reference = DefaultWalk(up);
        let mut p = 0;
        while let Some(q) = up.next_used_at_or_after(p) {
            for lvl in [0, 1, 2, 3] {
                assert_eq!(
                    up.next_at_level_or_above(q, lvl),
                    reference.next_at_level_or_above(q, lvl),
                    "{context}: next_at_level_or_above({q}, {lvl})"
                );
            }
            assert_eq!(
                mbxq_axes::children(up, q).collect::<Vec<_>>(),
                mbxq_axes::children(&reference, q).collect::<Vec<_>>(),
                "{context}: children({q})"
            );
            assert_eq!(
                mbxq_axes::following_siblings(up, q).collect::<Vec<_>>(),
                mbxq_axes::following_siblings(&reference, q).collect::<Vec<_>>(),
                "{context}: following_siblings({q})"
            );
            p = q + 1;
        }
        assert_attr_reads(up, context);
        assert_attr_reads(&reference, context);
        let xml = to_xml(up).unwrap();
        assert_attr_reads(&mbxq::ReadOnlyDoc::parse_str(&xml).unwrap(), context);
        assert_attr_reads(&NaiveDoc::parse_str(&xml).unwrap(), context);
    });
    seen.assert_every_shape();
}

/// A commit's footprint is the pages it touches, not the document: the
/// same insert and the same value update, committed through a
/// transaction against XMark documents a tenfold apart in size,
/// privatise the same number of pages — every other page of the new
/// version is the old version's page — and versions compare exactly one
/// `Page` per logical page.
#[test]
fn commit_footprint_is_independent_of_document_size() {
    use mbxq::{Shard, StoreConfig, Wal, XPath, XmlDocument};
    let people = XPath::parse("/site/people").unwrap();
    let name_text = XPath::parse("/site/people/person[1]/name/text()").unwrap();
    let frag = XmlDocument::parse_fragment(r#"<person id="new"><name>B</name></person>"#).unwrap();
    let footprints: Vec<(usize, usize)> = [0.002, 0.02]
        .into_iter()
        .map(|scale| {
            let xml = mbxq_xmark::generate(&mbxq_xmark::XMarkConfig::scaled(scale, 42));
            let doc = PagedDoc::parse_str(&xml, PageConfig::new(1024, 80).unwrap()).unwrap();
            let store = Shard::open(doc, Wal::in_memory(), StoreConfig::default());
            let mut touched = Vec::new();
            for insert in [true, false] {
                let before = store.snapshot();
                let mut t = store.begin();
                if insert {
                    let target = t.select(&people).unwrap()[0];
                    t.insert(InsertPosition::LastChildOf(target), &frag)
                        .unwrap();
                } else {
                    let target = t.select(&name_text).unwrap()[0];
                    t.update_value(target, "renamed").unwrap();
                }
                t.commit().unwrap();
                let after = store.snapshot();
                let (shared, total) = after.shared_pages_with(&before);
                assert_eq!(
                    total,
                    after.stats().pages,
                    "scale {scale}: one Page per logical page"
                );
                touched.push(total - shared);
            }
            assert!(touched[0] >= 1, "scale {scale}: the insert wrote somewhere");
            assert!(
                (1..=2).contains(&touched[1]),
                "scale {scale}: a value update privatised {} pages",
                touched[1]
            );
            (touched[0], touched[1])
        })
        .collect();
    assert_eq!(
        footprints[0], footprints[1],
        "(insert, value update) pages privatised must not depend on document size"
    );
}

/// Blocks of each table of `new` that `old` does not hold, as
/// `(table, [directories, chunks, leaves])` in `PagedDoc::tables` order.
fn privatised_blocks(new: &PagedDoc, old: &PagedDoc) -> Vec<(&'static str, [usize; 3])> {
    use mbxq_bat::{Blocks, Level};
    let mut old_tables: Vec<Vec<&dyn Blocks>> = Vec::new();
    old.tables(|_, columns| old_tables.push(columns.to_vec()));
    let mut out = Vec::new();
    new.tables(|name, columns| {
        let mut counts = [0; 3];
        for (column, base) in columns.iter().zip(&old_tables[out.len()]) {
            for b in mbxq_bat::unshared(*column, *base) {
                let level = match b.level {
                    Level::Directory => 0,
                    Level::Chunk => 1,
                    Level::Leaf => 2,
                };
                counts[level] += 1;
            }
        }
        out.push((name, counts));
    });
    out
}

/// What three updates privatise, table by table, on XMark 0.05 (page
/// size 256, fill 80 %): a marker append that fits its page, an append
/// that overflows it and splices a page in (case 2b), and a subtree
/// delete. Every other block stays shared with the base version. The
/// `pageOffset` map's columns are written only by the splice. The pool's
/// lookup tables place a new key by its hash under a per-table random
/// seed, so the pool is pinned by the columns it writes (its
/// directories) only.
#[test]
fn which_blocks_an_update_privatises_per_table() {
    use mbxq::{XPath, XmlDocument};
    use mbxq_storage::InsertCase;
    let xml = mbxq_xmark::generate(&mbxq_xmark::XMarkConfig::scaled(0.05, 1));
    let base = PagedDoc::parse_str(&xml, PageConfig::new(256, 80).unwrap()).unwrap();
    let select = |path: &str| {
        let pres = XPath::parse(path).unwrap().select_from_root(&base).unwrap();
        base.pre_to_node(pres[0]).unwrap()
    };
    let auction = select("/site/open_auctions/open_auction[4]");
    let append = |xml: &str| {
        let mut d = base.clone();
        let sub = XmlDocument::parse_fragment(xml).unwrap();
        let report = d
            .insert(InsertPosition::LastChildOf(auction), &sub)
            .unwrap();
        (d, report.case)
    };
    let (marked, case) = append(r#"<mark id="mk1"><date>01/02/2005</date></mark>"#);
    assert_eq!(case, InsertCase::WithinPage);
    let (spliced, case) = append(&format!("<mark>{}</mark>", "<b/>".repeat(120)));
    assert_eq!(case, InsertCase::PageOverflow);
    let mut deleted = base.clone();
    deleted
        .delete(select("/site/open_auctions/open_auction[4]/bidder[1]"))
        .unwrap();

    // [directories, chunks, leaves] per table.
    let expect: [(&str, [[usize; 3]; 3]); 9] = [
        // the target page and its ancestors' pages; a splice rebuilds
        // the chunks behind the splice point
        ("pages", [[1, 2, 3], [1, 9, 4], [1, 2, 3]]),
        ("level summaries", [[1, 1, 1]; 3]),
        ("page map", [[0, 0, 0], [2, 2, 2], [0, 0, 0]]),
        ("node→pos", [[1, 2, 2], [1, 2, 2], [1, 1, 1]]),
        ("attributes", [[3, 3, 3], [0, 0, 0], [0, 0, 0]]),
        ("pool", [[5, 0, 0], [2, 0, 0], [0, 0, 0]]),
        ("name index", [[1, 2, 2], [1, 1, 1], [1, 2, 5]]),
        ("content arms", [[2, 3, 3], [1, 1, 1], [3, 4, 7]]),
        ("counts", [[5, 5, 7], [3, 3, 3], [5, 5, 8]]),
    ];
    for (op, version) in [&marked, &spliced, &deleted].into_iter().enumerate() {
        let got = privatised_blocks(version, &base);
        let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expect.map(|(n, _)| n));
        for ((table, blocks), (_, want)) in got.into_iter().zip(expect) {
            let want = want[op];
            if table == "pool" {
                assert_eq!(blocks[0], want[0], "op {op}: {table} directories");
                assert!(blocks[2] >= blocks[0], "op {op}: {table} leaves");
            } else {
                assert_eq!(blocks, want, "op {op}: {table}");
            }
        }
        mbxq_storage::invariants::check_paged(version).unwrap();
    }
}
