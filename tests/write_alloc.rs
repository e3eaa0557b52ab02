//! What one structural update allocates on a fresh version.
//!
//! A commit clones the current version and applies its operations to the
//! clone, so every write there is a first write: it privatises the
//! directories, chunks, pages and leaves it touches. An update should pay
//! for those and for nothing that grows with the document — a walk that
//! copied a summary of every page before its target, or a table that
//! rebuilt a page of reference-counted values, would show up here. This
//! test counts the allocations of one marker-shaped append (the subtree
//! `update_durable` inserts, with a new attribute value) and of one
//! delete of it, each on a fresh clone of a loaded XMark 0.05 document,
//! against bounds set at the measured count plus 25 %.
//!
//! The binary holds this one test, under a counting global allocator:
//! another test running in parallel would show up in the counts.

use mbxq_storage::{InsertPosition, PageConfig, PagedDoc, TreeView};
use mbxq_xmark::XMarkConfig;
use mbxq_xml::{Document, QName};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocations of one append on a fresh clone: measured 113–114 (the
/// count moves by one with the hash seed, as new strings' lookup slots
/// share a page or not), plus 25 %.
const APPEND_BOUND: usize = 142;
/// Allocations of one delete of that subtree on a fresh clone of the
/// version holding it: measured 66, plus 25 %.
const DELETE_BOUND: usize = 82;

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

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (out, ALLOCS.load(Relaxed) - before)
}

#[test]
fn one_structural_update_allocates_for_what_it_writes() {
    let xml = mbxq_xmark::generate(&XMarkConfig::scaled(0.05, 1));
    let loaded = PagedDoc::parse_str(&xml, PageConfig::new(256, 80).unwrap()).unwrap();
    let auction = loaded
        .pool()
        .lookup_qname(&QName::local("open_auction"))
        .unwrap();
    let auctions = loaded.elements_named(auction).unwrap();
    let target = loaded.pre_to_node(auctions[auctions.len() / 2]).unwrap();
    let marker = Document::parse_fragment(
        "<mbxqbid mark=\"mk0\"><date>01/02/2005</date><time>12:00:00</time>\
         <personref person=\"person7\"/><increase>4.56</increase></mbxqbid>",
    )
    .unwrap();

    let mut appended = loaded.clone();
    let (report, append) =
        counted(|| appended.insert(InsertPosition::LastChildOf(target), &marker));
    let report = report.unwrap();
    assert_eq!(report.inserted, 8, "the marker's tuples");
    let root = appended.pre_to_node(report.new_root_pre).unwrap();

    let mut deleted = appended.clone();
    let (removed, delete) = counted(|| deleted.delete(root));
    assert_eq!(removed.unwrap().deleted, 8);

    for doc in [&appended, &deleted] {
        mbxq_storage::invariants::check_paged(doc).unwrap();
    }
    eprintln!("allocations: append {append}, delete {delete}");
    assert!(
        append <= APPEND_BOUND,
        "an append allocated {append} times (bound {APPEND_BOUND})"
    );
    assert!(
        delete <= DELETE_BOUND,
        "a delete allocated {delete} times (bound {DELETE_BOUND})"
    );
}
