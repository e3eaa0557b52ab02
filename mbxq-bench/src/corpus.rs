//! The one corpus and the seeded op streams every workload draws from.
//! The system under test receives only what is generated here.

use mbxq_server::UpdateSummary;
use mbxq_storage::PageConfig;
use mbxq_txn::{CatalogConfig, StoreConfig};
use mbxq_xmark::rng::StdRng;
use mbxq_xmark::{XMarkConfig, QUERY_PATHS};
use std::collections::VecDeque;
use std::time::Instant;

/// XMark scale of a full run: ≈8.5 MB of XML, ≈425 k nodes — the base
/// table (≈20 MB on the updatable schema) exceeds the 4 MB L2 of this host
/// class, and one set-up still takes under a second so several fit in
/// a run.
pub const SCALE: f64 = 0.2;

/// The document name inside catalogs.
pub const DOC: &str = "xmark";

/// The paper's post-update scenario (§4.1): logical pages of 256
/// tuples shredded 80 % full, so ≈20 % of every page is unused slots.
pub fn page_config() -> PageConfig {
    PageConfig::new(256, 80).expect("valid page config")
}

/// Catalog configuration of every workload: sequential execution
/// (`query_threads = 0`, no morsel pool in any end-to-end number — the
/// host has two cores and the server workloads already use both).
pub fn catalog_config() -> CatalogConfig {
    CatalogConfig {
        store: StoreConfig {
            query_threads: 0,
            ..StoreConfig::default()
        },
        page: page_config(),
    }
}

pub struct Corpus {
    pub xml: String,
    pub cfg: XMarkConfig,
    pub generate_s: f64,
}

/// Generates the document text from the seed (before any set-up clock
/// starts).
pub fn generate(scale: f64, seed: u64) -> Corpus {
    let cfg = XMarkConfig::scaled(scale, seed);
    let t = Instant::now();
    let xml = mbxq_xmark::generate(&cfg);
    Corpus {
        xml,
        cfg,
        generate_s: t.elapsed().as_secs_f64(),
    }
}

/// The path of a labelled entry of the engine's Q1–Q20 path corpus.
pub fn query_path(label: &str) -> &'static str {
    QUERY_PATHS
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, p)| *p)
        .unwrap_or_else(|| panic!("no QUERY_PATHS entry {label}"))
}

/// Small-result paths of `point_server` (1–6 rows at any scale).
pub const PATH_SMALL: [&str; 3] = ["q01_person0_name", "q06_regions", "q13_australia_items"];

/// Scan classes of `mixed_server` (hundreds to thousands of rows,
/// drained through 1024-row cursor pages). None of them selects
/// anything the update stream inserts, deletes or retargets, so their
/// cardinalities must stay what they were at set-up.
pub const SCANS: [&str; 5] = [
    "q02_open_auctions",
    "q07_descriptions",
    "q10_persons",
    "q15_deep_path",
    "q17_no_homepage",
];

pub const POINT_PARAM: &str = "//item[@id = $id]";

pub fn point_literal(item: usize) -> String {
    format!("//item[@id = \"item{item}\"]")
}

/// Hot literal texts: few enough to stay in the 1024-entry plan cache.
pub const HOT_TEXTS: usize = 64;
/// Distinct literal texts of the miss class, requested round-robin:
/// four times the plan cache, so under LRU every request compiles.
pub const MISS_TEXTS: usize = 4096;

/// `(item number, query text)` pairs of the two literal classes.
pub struct PointTexts {
    pub hot: Vec<(usize, String)>,
    pub miss: Vec<(usize, String)>,
}

pub fn point_texts(cfg: &XMarkConfig, rng: &mut StdRng) -> PointTexts {
    let items = cfg.items();
    let hot = (0..HOT_TEXTS)
        .map(|_| {
            let n = rng.gen_range(0..items);
            (n, point_literal(n))
        })
        .collect();
    // Documents with fewer than MISS_TEXTS items (the smoke scale) pad
    // the text with trailing blanks to stay distinct; at full scale no
    // padding occurs.
    let miss = (0..MISS_TEXTS)
        .map(|j| {
            let n = j % items;
            (n, format!("{}{}", point_literal(n), " ".repeat(j / items)))
        })
        .collect();
    PointTexts { hot, miss }
}

/// Write classes, in the order the update stream cycles them — the
/// paper's update kinds (§2.1): structural insert, structural delete,
/// value update, attribute update.
pub const WRITE_CLASSES: [&str; 4] = ["append", "delete", "update_text", "set_attr"];

/// Tuples of one inserted marker subtree (`mbxqbid` with `date`,
/// `time`, `personref`, `increase` and three text nodes).
pub const MARKER_TUPLES: u64 = 8;
/// Markers alive at any time: each `delete` removes the marker inserted
/// this many `append`s earlier, so the document is stationary.
pub const LIVE_MARKERS: usize = 16;

pub struct UpdateOp {
    /// Index into [`WRITE_CLASSES`].
    pub kind: usize,
    pub script: String,
}

/// The seeded, balanced update stream: `append` a bid-shaped subtree
/// under a random open auction, `delete` the oldest live marker,
/// `update_text` a random person's name, `set_attr` a random auction's
/// `itemref/@item` (an attribute that already exists, so no table
/// grows).
pub struct UpdateStream {
    rng: StdRng,
    persons: usize,
    auctions: usize,
    items: usize,
    next_mark: u64,
    live: VecDeque<u64>,
    n: u64,
}

impl UpdateStream {
    pub fn new(cfg: &XMarkConfig, seed: u64) -> UpdateStream {
        UpdateStream {
            rng: StdRng::seed_from_u64(seed ^ 0x0b5e_ed0f),
            persons: cfg.persons(),
            auctions: cfg.open_auctions(),
            items: cfg.items(),
            next_mark: 0,
            live: VecDeque::new(),
            n: 0,
        }
    }

    fn append(&mut self) -> UpdateOp {
        let mark = self.next_mark;
        self.next_mark += 1;
        self.live.push_back(mark);
        let a = self.rng.gen_range(0..self.auctions);
        let p = self.rng.gen_range(0..self.persons);
        let cents = self.rng.gen_range(150..1200usize);
        UpdateOp {
            kind: 0,
            script: format!(
                "<xupdate:append select='/site/open_auctions/open_auction[@id=\"open_auction{a}\"]'>\
                 <xupdate:element name=\"mbxqbid\">\
                 <xupdate:attribute name=\"mark\">mk{mark}</xupdate:attribute>\
                 <date>01/02/2005</date><time>12:00:00</time>\
                 <personref person=\"person{p}\"/><increase>{}.{:02}</increase>\
                 </xupdate:element></xupdate:append>",
                cents / 100,
                cents % 100
            ),
        }
    }

    /// One of the [`LIVE_MARKERS`] appends that run (untimed) before
    /// the first window, so deletes have a target from the start.
    pub fn prime(&mut self) -> UpdateOp {
        self.append()
    }

    pub fn next_op(&mut self) -> UpdateOp {
        let kind = (self.n % 4) as usize;
        self.n += 1;
        match kind {
            0 => self.append(),
            1 => {
                let mark = self
                    .live
                    .pop_front()
                    .expect("primed stream has live markers");
                UpdateOp {
                    kind,
                    script: format!("<xupdate:remove select='//mbxqbid[@mark=\"mk{mark}\"]'/>"),
                }
            }
            2 => {
                let p = self.rng.gen_range(0..self.persons);
                // A small rotating value set keeps the value pool bounded.
                let v = self.rng.gen_range(0..64usize);
                UpdateOp {
                    kind,
                    script: format!(
                        "<xupdate:update select='/site/people/person[@id=\"person{p}\"]/name/text()'>\
                         Renamed Person{v}</xupdate:update>"
                    ),
                }
            }
            _ => {
                let a = self.rng.gen_range(0..self.auctions);
                let i = self.rng.gen_range(0..self.items);
                UpdateOp {
                    kind,
                    script: format!(
                        "<xupdate:append select='/site/open_auctions/open_auction[@id=\"open_auction{a}\"]/itemref'>\
                         <xupdate:attribute name=\"item\">item{i}</xupdate:attribute></xupdate:append>"
                    ),
                }
            }
        }
    }

    /// Markers that must be in the document once every issued op was
    /// acknowledged.
    pub fn live_markers(&self) -> usize {
        self.live.len()
    }

    /// The newest marker (the read-your-write target).
    pub fn newest_mark(&self) -> u64 {
        self.next_mark - 1
    }
}

pub fn marker_literal(mark: u64) -> String {
    format!("//mbxqbid[@mark=\"mk{mark}\"]")
}

/// Whether an acknowledged update did what its kind must do.
pub fn check_update(kind: usize, s: &UpdateSummary) -> Result<(), String> {
    let ok = match kind {
        0 => s.nodes_inserted == MARKER_TUPLES,
        1 => s.nodes_removed == MARKER_TUPLES,
        2 => s.values_updated == 1,
        _ => s.attrs_set == 1,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{} did the wrong work: {s:?}", WRITE_CLASSES[kind]))
    }
}

/// FNV-1a over a byte string — the digest of serialized documents and
/// result sets.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_stream_is_balanced_and_seeded() {
        let cfg = XMarkConfig::scaled(0.002, 7);
        let run = |seed| {
            let mut s = UpdateStream::new(&cfg, seed);
            let mut scripts: Vec<String> = (0..LIVE_MARKERS).map(|_| s.prime().script).collect();
            for i in 0..400 {
                let op = s.next_op();
                assert_eq!(op.kind, i % 4);
                mbxq_xupdate::parse_modifications(&op.script).expect("script parses");
                scripts.push(op.script);
                // Stationary: after every delete exactly LIVE_MARKERS remain.
                if op.kind == 1 {
                    assert_eq!(s.live_markers(), LIVE_MARKERS);
                }
            }
            scripts
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn miss_texts_are_distinct_at_any_scale() {
        let cfg = XMarkConfig::scaled(0.002, 7);
        let t = point_texts(&cfg, &mut StdRng::seed_from_u64(1));
        let distinct: std::collections::HashSet<&str> =
            t.miss.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(distinct.len(), MISS_TEXTS);
        assert_eq!(t.hot.len(), HOT_TEXTS);
    }
}
