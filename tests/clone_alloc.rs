//! Cloning an updatable document allocates nothing, whatever its
//! history.
//!
//! A commit builds its new version by cloning the current one, so the
//! clone is on every commit's path. Every table of a version — the
//! pages, both columns of the `pageOffset` map, the columns beside
//! them, the value pool and the name and content indexes — is a
//! copy-on-write directory whose clone shares it with one reference
//! count, however many values were interned and postings added or
//! removed since the document was loaded. A flat vector in a version
//! would be copied, one allocation, into every clone; a side table that
//! kept a private log of its changes since some maintenance point would
//! copy that log. This test counts the allocations of one clone of a
//! freshly loaded document, which must be none, and after long runs of
//! each update kind, which must be the same.
//!
//! The binary holds this one test, under a counting global allocator:
//! another test running in parallel would show up in the counts.

use mbxq_storage::{InsertPosition, NodeId, PageConfig, PagedDoc, TreeView};
use mbxq_xmark::XMarkConfig;
use mbxq_xml::{Document, QName};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations of one `doc.clone()`.
fn allocs_per_clone(doc: &PagedDoc) -> usize {
    let before = ALLOCS.load(Relaxed);
    let clone = doc.clone();
    let allocs = ALLOCS.load(Relaxed) - before;
    drop(clone);
    allocs
}

/// Node ids of the used slots `keep` accepts, in document order.
fn nodes(doc: &PagedDoc, keep: impl Fn(u64) -> bool) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut p = 0;
    while let Some(q) = doc.next_used_at_or_after(p) {
        if keep(q) {
            out.push(doc.pre_to_node(q).unwrap());
        }
        p = q + 1;
    }
    out
}

#[test]
fn a_clone_allocates_the_same_whatever_the_history() {
    let xml = mbxq_xmark::generate(&XMarkConfig::scaled(0.05, 1));
    let fresh = PagedDoc::parse_str(&xml, PageConfig::new(256, 80).unwrap()).unwrap();
    let loaded = allocs_per_clone(&fresh);
    let elements = nodes(&fresh, |q| fresh.name_id(q).is_some());
    let texts = nodes(&fresh, |q| fresh.kind(q) == Some(mbxq_storage::Kind::Text));

    let mut d = fresh.clone();
    for i in 0..20_000 {
        let target = elements[i % elements.len()];
        d.set_attribute(target, &QName::local("mark"), &format!("m{i}"))
            .unwrap();
    }
    let after_attrs = allocs_per_clone(&d);

    let mut d = fresh.clone();
    for i in 0..20_000 {
        d.update_value(texts[i % texts.len()], &format!("t{i}"))
            .unwrap();
    }
    let after_texts = allocs_per_clone(&d);

    let mut d = fresh.clone();
    let sub = Document::parse_fragment("<bid at=\"7\"><price>42</price>note</bid>").unwrap();
    for i in 0..5_000 {
        let target = elements[(i * 7) % elements.len()];
        d.insert(InsertPosition::LastChildOf(target), &sub).unwrap();
    }
    let after_inserts = allocs_per_clone(&d);
    mbxq_storage::invariants::check_paged(&d).unwrap();

    eprintln!(
        "allocations per clone: {loaded} loaded, {after_attrs} after 20 000 set_attribute, \
         {after_texts} after 20 000 update_value, {after_inserts} after 5 000 inserts"
    );
    assert_eq!(loaded, 0, "a clone of a loaded document allocates nothing");
    assert_eq!(after_attrs, loaded, "after 20 000 distinct set_attribute");
    assert_eq!(after_texts, loaded, "after 20 000 text update_value");
    assert_eq!(after_inserts, loaded, "after 5 000 subtree inserts");
}
