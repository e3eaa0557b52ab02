//! Randomized update-sequence oracle: apply the same random sequence of
//! structural and value updates to the paged store and to the naive
//! shifting store; after every step both must serialize to the same
//! document, the paged store must pass the deep invariant checker, and
//! the claimed cost bounds must hold (paged inserts never touch more
//! pre-existing tuples than one page can hold).

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
    Rename(usize, String),
}

fn random_op(rng: &mut TestRng) -> RandomOp {
    let rank = rng.below(1 << 16);
    match rng.below(6) {
        0 => RandomOp::InsertBefore(rank, rand_tree(rng, 2, 3)),
        1 => RandomOp::InsertAfter(rank, rand_tree(rng, 2, 3)),
        2 => RandomOp::AppendChild(rank, rand_tree(rng, 2, 3)),
        3 => RandomOp::Delete(rank),
        4 => RandomOp::SetAttr(rank, rand_name(rng), rand_text(rng)),
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
    }
}

/// The windowed name-index probe equals the whole probe cut to the
/// window, for random windows of every name — on an index that still
/// carries its delta and tombstones (nothing compacts between the ops
/// above).
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

/// What a [`summaries_equal_default_walks`] check saw, so the test can
/// prove it exercised the shapes the page summaries must get right.
#[derive(Debug, Default)]
struct ShapesSeen {
    empty_pages: usize,
    overflow_inserts: usize,
    regions_ending_on_a_page_boundary: usize,
    regions_ending_at_document_end: usize,
}

/// `PagedDoc::region_end`/`parent_of` (page level summaries) must equal
/// the trait-default slot walks for every used `pre`, and the deep
/// checker must accept every page's summary.
fn assert_summaries_match(up: &PagedDoc, seen: &mut ShapesSeen, context: &str) {
    mbxq_storage::invariants::check_paged(up).unwrap_or_else(|e| panic!("{context}: {e}"));
    let reference = DefaultWalk(up);
    let page_size = up.config().page_size as u64;
    let mut p = 0;
    while let Some(q) = up.next_used_at_or_after(p) {
        let end = up.region_end(q);
        assert_eq!(end, reference.region_end(q), "{context}: region_end({q})");
        assert_eq!(
            up.parent_of(q),
            reference.parent_of(q),
            "{context}: parent_of({q})"
        );
        if end == up.pre_end() {
            seen.regions_ending_at_document_end += 1;
        } else if end % page_size == 0 {
            seen.regions_ending_on_a_page_boundary += 1;
        }
        p = q + 1;
    }
    seen.empty_pages += (0..up.stats().pages)
        .filter(|&page| up.free_in_page(page) as u64 == page_size)
        .count();
}

/// Seeded property test for the per-page level summaries: random
/// insert / delete / vacuum / checkpoint-reload batches over small and
/// completely filled pages, checked after every step against the
/// default walks.
#[test]
fn summaries_equal_default_walks() {
    let mut seen = ShapesSeen::default();
    for case in 0..48u64 {
        let mut rng = TestRng::new(0x5A11 + case);
        let cfg = [
            PageConfig::new(4, 50).unwrap(),
            PageConfig::new(4, 100).unwrap(),
            PageConfig::new(8, 75).unwrap(),
            PageConfig::new(16, 100).unwrap(),
            PageConfig::new(64, 80).unwrap(),
        ][rng.below(5)];
        let mut up = PagedDoc::from_tree(&rand_tree(&mut rng, 4, 4), cfg).expect("shred paged");
        assert_summaries_match(&up, &mut seen, &format!("case {case}: fresh"));
        for step in 0..(4 + rng.below(12)) {
            let context = format!("case {case} step {step}");
            let target = nth_node(&up, rng.below(1 << 16)).expect("document is never empty");
            match rng.below(10) {
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
                _ => {
                    up = PagedDoc::from_checkpoint_dump(
                        &up.checkpoint_dump(),
                        cfg,
                        up.node_alloc_end(),
                    )
                    .expect("checkpoint reload");
                }
            }
            assert_summaries_match(&up, &mut seen, &context);
        }
    }
    assert!(
        seen.empty_pages > 0
            && seen.overflow_inserts > 0
            && seen.regions_ending_on_a_page_boundary > 0
            && seen.regions_ending_at_document_end > 0,
        "the seeds no longer reach every shape: {seen:?}"
    );
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
