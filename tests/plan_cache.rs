//! Regression tests for the per-store plan cache: one compile per
//! query shape (texts differing only in whitespace and compared-against
//! string literals share it), invalidation across `layout_epoch` bumps
//! (vacuum), and correct results through cached plans before and after
//! updates.

use mbxq::{PageConfig, PagedDoc, Shard, StoreConfig, Wal, XPath};
use mbxq_xpath::{Bindings, EvalOptions, EvalStats, Value};

const DOC: &str = r#"<site><people><person id="p0"><name>Ann</name></person><person id="p1"><name>Bob</name></person></people></site>"#;

fn store() -> Shard {
    let doc = PagedDoc::parse_str(DOC, PageConfig::new(8, 75).unwrap()).unwrap();
    Shard::open(doc, Wal::in_memory(), StoreConfig::default())
}

#[test]
fn same_query_twice_compiles_once() {
    let s = store();
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(2.0));
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(2.0));
    let stats = s.plan_cache_stats();
    assert_eq!(stats.misses, 1, "second use must hit the cache");
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);
    // A different text is its own entry.
    s.query("//person/name").unwrap();
    assert_eq!(s.plan_cache_stats().entries, 2);
}

#[test]
fn vacuum_bumps_the_epoch_and_invalidates() {
    let s = store();
    s.query("count(//person)").unwrap();
    let epoch_before = s.layout_epoch();
    s.vacuum().unwrap();
    assert!(
        s.layout_epoch() > epoch_before,
        "vacuum must bump the epoch"
    );
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(2.0));
    let stats = s.plan_cache_stats();
    assert_eq!(
        stats.misses, 2,
        "an epoch bump must force recompilation (got {stats:?})"
    );
    assert_eq!(stats.entries, 1, "the stale entry is replaced, not kept");
    // The recompiled entry is cached again.
    s.query("count(//person)").unwrap();
    assert_eq!(s.plan_cache_stats().hits, 1);
}

#[test]
fn cached_plans_see_fresh_snapshots() {
    // The cache stores *plans*, not results: a commit between two uses
    // of the same text must be visible to the second use.
    let s = store();
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(2.0));
    let mut t = s.begin();
    let people = t.select(&XPath::parse("/site/people").unwrap()).unwrap();
    let frag = mbxq::XmlDocument::parse_fragment("<person id=\"p2\"/>").unwrap();
    t.insert(mbxq::InsertPosition::LastChildOf(people[0]), &frag)
        .unwrap();
    t.commit().unwrap();
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(3.0));
    assert_eq!(s.plan_cache_stats().hits, 1, "still served from the cache");
}

/// N literal texts of one shape are one cache entry and one compile,
/// and each still returns its own answer; what the rewriter reads by
/// value (numbers) or nothing indexes on (function arguments) keeps its
/// own entry; a user parameter and a lifted literal resolve side by
/// side.
#[test]
fn literal_texts_of_one_shape_share_one_plan() {
    let s = store();
    let names = ["Ann", "Bob"];
    // Far more distinct texts than the cap, so sharing is what keeps
    // the evictions at zero — not capacity.
    for i in 0..3000usize {
        let (id, want) = match i % 3 {
            0 => ("p0".to_string(), Some(names[0])),
            1 => ("p1".to_string(), Some(names[1])),
            _ => (format!("nope{i}"), None),
        };
        // Whitespace varies too: the key is token-normalized.
        let text = format!("//person[@id = \"{id}\"]{}/name", " ".repeat(i % 4));
        let got = s.query_nodes(&text).unwrap();
        let snap = s.snapshot();
        let got: Vec<String> = got
            .iter()
            .map(|&n| mbxq::TreeView::string_value(&*snap, snap.node_to_pre(n).unwrap()))
            .collect();
        assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "{text}");
    }
    let stats = s.plan_cache_stats();
    assert_eq!(
        (stats.misses, stats.entries, stats.evictions),
        (1, 1, 0),
        "{stats:?}"
    );
    assert_eq!(stats.hits, 2999);
    // The shared plan probes the index for every one of those keys.
    let es = EvalStats::default();
    s.query_opts(
        "//person[@id = \"p1\"]/name",
        &EvalOptions::new().stats(&es),
    )
    .unwrap();
    assert_eq!(
        (es.value_probe_steps.get(), es.value_scan_steps.get()),
        (1, 0)
    );

    // Numeric literals and function arguments stay in the key.
    for text in [
        "//person[1]",
        "//person[2]",
        "//person[contains(name, \"A\")]",
        "//person[contains(name, \"B\")]",
    ] {
        s.query(text).unwrap();
    }
    assert_eq!(s.plan_cache_stats().entries, 5);
    assert_eq!(s.query_nodes("//person[1]").unwrap().len(), 1);
    assert_eq!(
        s.query_nodes("//person[contains(name, \"B\")]")
            .unwrap()
            .len(),
        1
    );

    // A user `$id` and a lifted literal in one query both resolve, for
    // every combination, through one more entry.
    let entries = s.plan_cache_stats().entries;
    for (id, name, hits) in [
        ("p0", "Ann", 1),
        ("p0", "Bob", 0),
        ("p1", "Bob", 1),
        ("p1", "Ann", 0),
    ] {
        let mut b = Bindings::new();
        b.set("id", Value::Str(id.into()));
        let text = format!("//person[@id = $id][name = \"{name}\"]");
        let got = s
            .query_nodes_opts(&text, &EvalOptions::new().bindings(&b))
            .unwrap();
        assert_eq!(got.len(), hits, "{text} with $id = {id}");
    }
    assert_eq!(s.plan_cache_stats().entries, entries + 1);
    // Errors name the text as the caller wrote it.
    let err = s.query_nodes("//person[@id = \"p0\"]/@id").unwrap_err();
    assert!(
        err.to_string().contains("'//person[@id = \"p0\"]/@id'"),
        "{err}"
    );
    // A text that does not parse reports the error of the text as
    // written (here the lifted form would fail one token earlier).
    for bad in [
        "//person[@id = \"p0\"",
        "//x[processing-instruction(\"t\" = 1)]",
    ] {
        let err = s.query(bad).unwrap_err();
        let want = XPath::parse(bad).unwrap_err();
        assert!(err.to_string().ends_with(&want.to_string()), "{bad}: {err}");
    }
    let explained = s.explain_query("//person[@id = \"p0\"]").unwrap();
    assert!(
        explained.starts_with("cached as //person[@id = $1]\n"),
        "{explained}"
    );
    assert!(explained.contains("[@id = $1]"), "{explained}");
}

/// At the capacity, the cache evicts single LRU entries — a hot query
/// used throughout an eviction storm of one-shot *shapes* must never be
/// recompiled, and the evictions are counted. (Distinct literals would
/// not storm anything any more: they share one entry.)
#[test]
fn hot_query_survives_an_eviction_storm() {
    const CAP: usize = 1024; // Shard::PLAN_CACHE_CAP
    let s = store();
    let hot = "count(//person)";
    assert_eq!(s.query(hot).unwrap(), Value::Number(2.0));
    // 1.5x the capacity of distinct one-shot shapes (distinct element
    // names), touching the hot query between every few of them so it
    // stays recently used.
    let storm = CAP + CAP / 2;
    for i in 0..storm {
        let cold = format!("count(//nope{i}[@id = \"x\"])");
        assert_eq!(s.query(&cold).unwrap(), Value::Number(0.0));
        if i % 3 == 0 {
            s.query(hot).unwrap();
        }
    }
    let stats = s.plan_cache_stats();
    assert_eq!(
        stats.misses,
        1 + storm as u64,
        "the hot query must compile exactly once: {stats:?}"
    );
    assert!(stats.hits >= (storm / 3) as u64, "{stats:?}");
    assert!(
        stats.evictions > 0 && stats.evictions as usize >= storm - CAP,
        "single-entry evictions must be counted: {stats:?}"
    );
    assert!(stats.entries <= CAP, "{stats:?}");
    // And it still answers from the cache afterwards.
    let hits_before = s.plan_cache_stats().hits;
    s.query(hot).unwrap();
    assert_eq!(s.plan_cache_stats().hits, hits_before + 1);
}

#[test]
fn query_nodes_pins_results_by_node_id() {
    let s = store();
    let nodes = s.query_nodes("//person").unwrap();
    assert_eq!(nodes.len(), 2);
    // Node ids stay valid across a vacuum (pre ranks may not).
    s.vacuum().unwrap();
    let snap = s.snapshot();
    for n in nodes {
        snap.node_to_pre(n).expect("node id survives vacuum");
    }
}
