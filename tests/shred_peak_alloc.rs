//! Peak and retained heap of loading, serializing and checkpointing an
//! updatable document, as multiples of its XML text.
//!
//! Shredding streams parser events into staged tuples and serializing
//! writes text straight from the pre/size/level view, so neither builds a
//! tree of the whole document. A tree of `Node`s alone peaks at about
//! fourteen times the text it came from; the bounds below sit under
//! that, so a whole-document tree reintroduced on either path fails this
//! test. So does one on the partitioned load of a catalog. The heap a
//! loaded document keeps is bounded too: every string once, in the value
//! pool, and the attributes found from their elements' slots. A
//! checkpoint writes its dump and nothing else: the document's side
//! tables need no maintenance, and the dump streams straight into the
//! log, so the log it writes is its only document-sized transient — the
//! genesis checkpoint of a new document too. Recovery reads the dump in
//! place in the log bytes, so it peaks at little more than the log and
//! the document it builds. The heap a document's tables report through
//! their block walker (`PagedDoc::heap_bytes`) is what the allocator
//! sees it keep, after the load and after thousands of inserts.
//!
//! The binary holds this one test, under a counting global allocator
//! that tracks live and peak-live bytes: another test running in parallel
//! would show up in the counts.

use mbxq_storage::serialize::to_xml;
use mbxq_storage::{InsertPosition, PageConfig, PagedDoc, TreeView};
use mbxq_txn::recover::recover_shard;
use mbxq_txn::{Catalog, CatalogConfig};
use mbxq_xmark::XMarkConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Peak live heap while `PagedDoc::parse_str` runs, over the text length:
/// measured 3.65 on XMark 0.05, plus 25 % headroom. (Through a tree of
/// the document it is above 20: the tree alone peaks at 14.4. With the
/// content index's own copy of every value it was 8.64; with hash-map
/// interners and per-key posting lists, 5.73; with an `Arc<str>` per
/// string instead of the byte arena, 3.87.)
const SHRED_BOUND: f64 = 4.56;
/// Peak live heap `to_xml` adds on top of the document, over the text
/// length: measured 1.98 (the output `String` at its last doubling),
/// plus 25 % headroom.
const SERIALIZE_BOUND: f64 = 2.5;
/// Live heap a loaded `PagedDoc` keeps once `parse_str` returns, over the
/// text length: measured 2.97 on XMark 0.05, plus 25 % headroom. (With a
/// second and third copy of every string, in the pool's lookup maps and
/// the content index, and a node → rows map beside the attribute table,
/// it was 7.19; with hash-map interners and per-key posting lists, 4.34;
/// with an `Arc<str>` per string, 3.19.)
const RETAINED_BOUND: f64 = 3.71;
/// Peak live heap of `Catalog::create_partitioned` into three parts,
/// over the text length: measured 5.22, plus 25 % headroom. (A
/// whole-document tree and a cloned tree per part put it at 26.3; hash-map
/// interners and per-key posting lists, 6.66; each part's genesis dump
/// built as a string and copied into its log, 5.55; an `Arc<str>` per
/// string, 5.47.)
const PARTITION_BOUND: f64 = 6.53;
/// Peak live heap `Shard::checkpoint` adds on top of the document after a
/// few commits, over the text length: measured 1.83 (the dump), plus
/// 25 % headroom. (With the dump still live while compacted bases were
/// rebuilt it was 5.10; with the dump grown by doubling, 2.75; with the
/// bases rebuilt after the dump was freed, 1.96 to 2.35.)
const CHECKPOINT_BOUND: f64 = 2.3;
/// Peak live heap `Catalog::create_doc` reaches beyond the document it
/// keeps, over the length of the log its genesis checkpoint writes:
/// measured 1.28, the log buffer at the 32 bytes an entry it reserves,
/// plus 25 % headroom. (With the dump built as a string and then copied
/// into the log it was 1.99.)
const GENESIS_BOUND: f64 = 1.6;
/// Peak live heap of `recover_shard` with the raw log it reads, over
/// the raw log plus the document it recovers: measured 1.15, plus 25 %
/// headroom. (With the dump copied out of the log and a hash set of
/// every node id it was 1.52.)
const RECOVER_BOUND: f64 = 1.44;
/// Peak live heap of writing the checkpoint dump, over the dump's length:
/// measured 1.29, the 32 bytes an entry it reserves up front against the
/// 24.7 it averages here. A dump that outgrew that buffer would double
/// it: from the earlier 24-byte estimate that measured 1.94.
const DUMP_BOUND: f64 = 1.5;
/// Largest relative gap between `PagedDoc::heap_bytes` and the live heap
/// the allocator counts for the document. (Measured: the few `QName`s
/// behind the `qn` table's pointers, which are not blocks.)
const HEAP_BYTES_TOLERANCE: f64 = 0.02;

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

/// Relative gap between `doc.heap_bytes()` and the `live` bytes the
/// allocator counts for it, after checking that no block is reached
/// from two tables: the per-table parts sum to the bytes of the
/// distinct blocks.
fn heap_gap(doc: &PagedDoc, live: usize) -> f64 {
    let heap = doc.heap_bytes();
    let parts: usize = heap.iter().map(|&(_, bytes)| bytes).sum();
    let (mut seen, mut distinct) = (std::collections::HashSet::new(), 0);
    doc.tables(|_, columns| {
        for column in columns {
            column.blocks(&mut |b| {
                if seen.insert(b.addr) {
                    distinct += b.bytes;
                }
            });
        }
    });
    assert_eq!(parts, distinct, "per-table parts of {heap:?}");
    (parts as f64 - live as f64).abs() / live as f64
}

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

    let before = LIVE.load(Relaxed);
    let (doc, shred) = peak_of(|| PagedDoc::parse_str(&xml, PageConfig::new(256, 80).unwrap()));
    let mut doc = doc.unwrap();
    let doc_bytes = LIVE.load(Relaxed) - before;
    let retained = doc_bytes as f64 / len;
    let heap_gap_loaded = heap_gap(&doc, doc_bytes);
    let (text, serialize) = peak_of(|| to_xml(&doc).unwrap());
    let reloaded = PagedDoc::parse_str(&text, doc.config()).unwrap();
    assert_eq!(
        reloaded.stats(),
        doc.stats(),
        "the text reloads to the same layout"
    );
    drop((reloaded, text));
    let sub =
        mbxq_xml::Document::parse_fragment("<bid at=\"7\"><price>42</price>note</bid>").unwrap();
    let mut elements = Vec::new();
    let mut p = 0;
    while let Some(q) = doc.next_used_at_or_after(p) {
        if doc.name_id(q).is_some() {
            elements.push(doc.pre_to_node(q).unwrap());
        }
        p = q + 1;
    }
    let before_inserts = LIVE.load(Relaxed);
    for i in 0..5_000 {
        let target = elements[(i * 7) % elements.len()];
        doc.insert(InsertPosition::LastChildOf(target), &sub)
            .unwrap();
    }
    let grown = doc_bytes + LIVE.load(Relaxed) - before_inserts;
    let heap_gap_inserted = heap_gap(&doc, grown);
    drop((doc, elements, sub));

    let catalog = Catalog::in_memory(CatalogConfig::default());
    let (parts, partition) = peak_of(|| catalog.create_partitioned("x", &xml, 3));
    assert_eq!(parts.unwrap().len(), 3);
    let partition = partition as f64 / len;

    let (shard, genesis) = peak_of(|| catalog.create_doc("d", &xml).unwrap());
    let log_len = shard.wal_raw().unwrap().len() as f64;
    let genesis = (genesis as f64 - doc_bytes as f64) / log_len;
    for i in 0..8 {
        let mods = mbxq_xupdate::parse_modifications(&format!(
            "<xupdate:append select='/site/open_auctions/open_auction[@id=\"open_auction{i}\"]'>\
             <xupdate:element name=\"mark\">\
             <xupdate:attribute name=\"id\">mk{i}</xupdate:attribute>\
             <date>01/02/2005</date></xupdate:element></xupdate:append>"
        ))
        .unwrap();
        let mut txn = shard.begin();
        txn.execute_xupdate(&mods).unwrap();
        txn.commit().unwrap();
    }
    let (info, checkpoint) = peak_of(|| shard.checkpoint());
    info.unwrap();
    let checkpoint = checkpoint as f64 / len;
    let snapshot = shard.snapshot();
    let (dump, dump_peak) = peak_of(|| snapshot.checkpoint_dump());
    let dump_peak = dump_peak as f64 / dump.len() as f64;
    drop((dump, snapshot));

    let raw = shard.wal_raw().unwrap();
    let before = LIVE.load(Relaxed);
    let (recovered, recover) =
        peak_of(|| recover_shard(CatalogConfig::default().page, &raw, Some("d")).unwrap());
    let recovered_bytes = LIVE.load(Relaxed) - before;
    assert_eq!(
        to_xml(&recovered).unwrap(),
        to_xml(shard.snapshot().as_ref()).unwrap()
    );
    let recover = (raw.len() + recover) as f64 / (raw.len() + recovered_bytes) as f64;
    drop((recovered, raw));

    let (shred, serialize) = (shred as f64 / len, serialize as f64 / len);
    eprintln!(
        "XMark 0.05, {len} bytes: shred peak {shred:.2}x, serialize peak {serialize:.2}x, \
         retained {retained:.2}x, partitioned load peak {partition:.2}x, \
         checkpoint peak {checkpoint:.2}x the text, dump peak {dump_peak:.2}x the dump, \
         genesis checkpoint {genesis:.2}x its log beyond the document, \
         recovery peak {recover:.2}x the log and the document; heap_bytes off the live heap \
         by {heap_gap_loaded:.4} loaded and {heap_gap_inserted:.4} after 5 000 inserts"
    );
    for (when, gap) in [
        ("loaded", heap_gap_loaded),
        ("after inserts", heap_gap_inserted),
    ] {
        assert!(
            gap < HEAP_BYTES_TOLERANCE,
            "{when}: heap_bytes is {gap:.4} off the live heap (bound {HEAP_BYTES_TOLERANCE})"
        );
    }
    assert!(
        shred < SHRED_BOUND,
        "shredding peaked at {shred:.2}x the text (bound {SHRED_BOUND}x)"
    );
    assert!(
        serialize < SERIALIZE_BOUND,
        "serializing peaked at {serialize:.2}x the text (bound {SERIALIZE_BOUND}x)"
    );
    assert!(
        retained < RETAINED_BOUND,
        "a loaded document keeps {retained:.2}x the text (bound {RETAINED_BOUND}x)"
    );
    assert!(
        partition < PARTITION_BOUND,
        "the partitioned load peaked at {partition:.2}x the text (bound {PARTITION_BOUND}x)"
    );
    assert!(
        checkpoint < CHECKPOINT_BOUND,
        "a checkpoint peaked at {checkpoint:.2}x the text (bound {CHECKPOINT_BOUND}x)"
    );
    assert!(
        genesis < GENESIS_BOUND,
        "the genesis checkpoint peaked at {genesis:.2}x its log beyond the document \
         (bound {GENESIS_BOUND}x)"
    );
    assert!(
        recover < RECOVER_BOUND,
        "recovery peaked at {recover:.2}x the log and the document (bound {RECOVER_BOUND}x)"
    );
    assert!(
        dump_peak < DUMP_BOUND,
        "writing the checkpoint dump peaked at {dump_peak:.2}x its length (bound {DUMP_BOUND}x)"
    );
}
