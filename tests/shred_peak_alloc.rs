//! Peak heap of loading and serializing an updatable document, as a
//! multiple of its XML text.
//!
//! Shredding streams parser events into staged tuples and serializing
//! writes text straight from the pre/size/level view, so neither builds a
//! tree of the whole document. A tree of `Node`s alone peaks at about
//! fourteen times the text it came from; the bounds below sit under
//! that, so a whole-document tree reintroduced on either path fails this
//! test.
//!
//! The binary holds this one test, under a counting global allocator
//! that tracks live and peak-live bytes: another test running in parallel
//! would show up in the counts.

use mbxq_storage::serialize::to_xml;
use mbxq_storage::{PageConfig, PagedDoc};
use mbxq_xmark::XMarkConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Peak live heap while `PagedDoc::parse_str` runs, over the text length:
/// measured 8.64 on XMark 0.05, plus 25 % headroom. (Through a tree of
/// the document it is above 20: the tree alone peaks at 14.4.)
const SHRED_BOUND: f64 = 10.8;
/// Peak live heap `to_xml` adds on top of the document, over the text
/// length: measured 1.98 (the output `String` at its last doubling),
/// plus 25 % headroom.
const SERIALIZE_BOUND: f64 = 2.5;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak of live heap bytes it
/// added over what was live when it started.
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let r = f();
    (r, PEAK.load(Relaxed) - before)
}

#[test]
fn shredding_and_serializing_peak_at_a_small_multiple_of_the_text() {
    let xml = mbxq_xmark::generate(&XMarkConfig::scaled(0.05, 1));
    let len = xml.len() as f64;

    let (doc, shred) = peak_of(|| PagedDoc::parse_str(&xml, PageConfig::new(256, 80).unwrap()));
    let doc = doc.unwrap();
    let (text, serialize) = peak_of(|| to_xml(&doc).unwrap());
    let reloaded = PagedDoc::parse_str(&text, doc.config()).unwrap();
    assert_eq!(
        reloaded.stats(),
        doc.stats(),
        "the text reloads to the same layout"
    );
    drop(reloaded);

    let (shred, serialize) = (shred as f64 / len, serialize as f64 / len);
    eprintln!(
        "XMark 0.05, {len} bytes: shred peak {shred:.2}x, serialize peak {serialize:.2}x the text"
    );
    assert!(
        shred < SHRED_BOUND,
        "shredding peaked at {shred:.2}x the text (bound {SHRED_BOUND}x)"
    );
    assert!(
        serialize < SERIALIZE_BOUND,
        "serializing peaked at {serialize:.2}x the text (bound {SERIALIZE_BOUND}x)"
    );
}
