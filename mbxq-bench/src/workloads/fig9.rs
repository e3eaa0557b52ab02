//! `fig9_embedded` — the paper's Figure 9: XMark Q1–Q20 in-process on
//! the read-only schema and on the updatable schema holding ≈20 %
//! unused slots per page. One window is one pass: each query once on
//! each schema, interleaved so both see the same machine state.

use super::{leak, measure, Ctx, Outcome, Setups};
use crate::corpus::{fnv1a, page_config};
use crate::harness::{Class, Rec, Windowed};
use crate::report::peak_rss_mb;
use crate::stats;
use crate::trace::Tracer;
use mbxq_storage::{PagedDoc, ReadOnlyDoc, TreeView};
use mbxq_xmark::{run_query, QueryResult, QUERY_COUNT};

struct Fig9 {
    ro: ReadOnlyDoc,
    up: PagedDoc,
    expect: Vec<QueryResult>,
    names: Vec<&'static str>,
}

fn class_names() -> Vec<&'static str> {
    (1..=QUERY_COUNT)
        .flat_map(|q| [leak(format!("q{q:02}.ro")), leak(format!("q{q:02}.up"))])
        .collect()
}

impl Fig9 {
    fn query<V: TreeView>(&self, view: &V, q: usize, class: usize, rec: &mut Rec, tr: &mut Tracer) {
        rec.op(class, || {
            let got = tr.request(self.names[class], |tr| {
                tr.span("xpath", "xmark.run_query", |_| run_query(view, q))
            });
            match got {
                Ok(r) if r == self.expect[q - 1] => Ok(()),
                Ok(r) => Err(format!("Q{q}: {r:?}, expected {:?}", self.expect[q - 1])),
                Err(e) => Err(format!("Q{q}: {e}")),
            }
        });
    }
}

impl Windowed for Fig9 {
    fn window(&mut self, _w: usize, rec: &mut Rec, tr: &mut Tracer) {
        for q in 1..=QUERY_COUNT {
            self.query(&self.ro, q, 2 * (q - 1), rec, tr);
            self.query(&self.up, q, 2 * (q - 1) + 1, rec, tr);
        }
    }
}

/// Geometric mean over Q1–Q20 of updatable time / read-only time.
pub fn up_over_ro(class_p50: impl Fn(&str) -> f64) -> f64 {
    let ratios: Vec<f64> = (1..=QUERY_COUNT)
        .map(|q| {
            let ro = class_p50(&format!("q{q:02}.ro"));
            if ro > 0.0 {
                class_p50(&format!("q{q:02}.up")) / ro
            } else {
                0.0
            }
        })
        .collect();
    stats::geomean(&ratios)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let xml = &ctx.corpus.xml;
    let build = || {
        let ro = ReadOnlyDoc::parse_str(xml).map_err(|e| format!("shred ro: {e}"))?;
        let up = PagedDoc::parse_str(xml, page_config()).map_err(|e| format!("shred up: {e}"))?;
        Ok((ro, up))
    };
    let mut setups = Setups::default();
    let (ro, up) = setups.time(build)?;
    // The reference results come from the read-only schema; every timed
    // run on either schema must reproduce them.
    let expect: Vec<QueryResult> = (1..=QUERY_COUNT)
        .map(|q| run_query(&ro, q).map_err(|e| format!("Q{q}: {e}")))
        .collect::<Result<_, _>>()?;
    let digest = fnv1a(
        &expect
            .iter()
            .flat_map(|r| [(r.rows as u64).to_le_bytes(), r.checksum.to_le_bytes()])
            .flatten()
            .collect::<Vec<u8>>(),
    );
    let stats_up = up.stats();
    let names = class_names();
    let classes: Vec<Class> = names.iter().map(|n| Class::read(*n)).collect();
    let mut work = Fig9 {
        ro,
        up,
        expect,
        names,
    };
    let m = measure(&mut work, &classes, ctx, |_| Ok(()))?;
    let layer = vec![
        ("info.up_over_ro", up_over_ro(|c| m.untraced.class(c))),
        ("info.result_digest", (digest >> 11) as f64),
        ("txn.occupancy_end", work.up.occupancy()),
    ];
    let nodes_agree = work.ro.used_count() == stats_up.used;
    let peak_rss_mb = peak_rss_mb();
    drop(work);
    Ok(Outcome {
        setup_runs: setups.rest(|_| build(), drop)?,
        peak_rss_mb,
        stored_bytes_per_xml_byte: stats_up.table_bytes as f64 / xml.len() as f64,
        attempted: m.attempted,
        failed: m.failed,
        checks: vec![("ro and up node counts agree".to_string(), nodes_agree)],
        untraced: m.untraced,
        traced: m.traced,
        layer,
    })
}
