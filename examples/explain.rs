//! Walks the plan pipeline on a few XMark queries: parse → logical plan
//! (rewritten) → physical plan (strategy slots) → execution under all
//! three axis-strategy arms, with the cost model's decisions shown.
//!
//! Run with `cargo run --example explain`.

use mbxq::TreeView;
use mbxq_storage::ReadOnlyDoc;
use mbxq_xmark::{generate, XMarkConfig};
use mbxq_xpath::{AxisChoice, EvalOptions, EvalStats, XPath};
use std::time::Instant;

fn show(doc: &ReadOnlyDoc, source: &str) {
    println!("═══ {source}");
    let xp = XPath::parse(source).expect("parse");
    println!("─── logical plan (after rewriting)\n{}", xp.explain());
    println!("─── physical plan\n{}", xp.explain_physical());
    for axis in [
        AxisChoice::ForceStaircase,
        AxisChoice::ForceIndex,
        AxisChoice::Auto,
    ] {
        let stats = EvalStats::default();
        let opts = EvalOptions::new().axis(axis).stats(&stats);
        let t0 = Instant::now();
        let rows = xp.select_from_root_opts(doc, &opts).expect("eval").len();
        let dt = t0.elapsed();
        println!(
            "─── {axis:?}: {rows} rows in {dt:?} ({} index / {} staircase steps)",
            stats.index_steps.get(),
            stats.staircase_steps.get()
        );
    }
    println!();
}

fn main() {
    let xml = generate(&XMarkConfig::scaled(0.01, 7));
    let doc = ReadOnlyDoc::parse_str(&xml).expect("shred");
    println!(
        "XMark document: {} bytes, {} nodes\n",
        xml.len(),
        doc.used_count()
    );

    // Q1: a selective lookup — the fused `//`-free path stays staircase
    // on the short hops, the predicate pushes down.
    show(&doc, "/site/people/person[@id=\"person0\"]/name");

    // Q7-style selective descendant probe: the cost model sends the
    // whole-document descendant step to the element-name index.
    show(&doc, "//emailaddress");

    // Q17: a structural predicate. The existence test reads the
    // strategy slot of the `child::homepage` step it wraps: forced to
    // the staircase it walks every person's children to the first hit,
    // forced to the index it is one anti-semijoin of the persons against
    // the `homepage` postings — and the cost model takes the join.
    show(&doc, "/site/people/person[not(homepage)]/name");

    // Bonus: every rewrite family in one query — fusion blocked by the
    // positional pick, existence conversion, invariant hoisting.
    show(&doc, "//person[profile][1]/name[count(//privacy) >= 0]");
}
