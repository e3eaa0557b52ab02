//! Plan-pipeline oracle: the compiled/rewritten/cost-chosen execution
//! must be observably identical to the reference interpreter.
//!
//! Seeded property test over random trees and a generated query
//! corpus. Every query runs through both arms on three storage schemas
//! (naive, read-only, paged) and under all three axis-strategy choices
//! (cost-chosen, forced staircase, forced index); multi-predicate
//! queries additionally run under every multi-probe strategy (scan /
//! best-probe / intersect / cost) with an analyze recorder attached.
//! Every query with a literal beside a
//! comparison operator also runs as its **parameterised twin** (the
//! literal replaced by a bound `$pN`), and one cached plan is executed
//! with a rare and a hot key in alternation to show that nothing
//! recorded under one key steers the other. The planned result must
//! equal the interpreter's on the same view — same node sets, same
//! values, or both failing. Afterwards, random update batches hit the
//! paged view
//! and the comparison repeats, with the element-name index and the
//! per-index degree statistics cross-checked against a full scan (both
//! must stay consistent under inserts, deletes and renames).

mod common;

use common::{rand_name, rand_text, rand_tree, TestRng};
use mbxq::{
    InsertPosition, Kind, NaiveDoc, Node, PageConfig, PagedDoc, QName, ReadOnlyDoc, TreeView,
};
use mbxq_xpath::{
    Ablation, AxisChoice, Bindings, EvalOptions, EvalStats, MultiChoice, MultiStrategy,
    PlanFeedback, Value, ValueChoice, XPath,
};

/// NaN-tolerant value equality (`NaN != NaN` under `PartialEq`, but the
/// oracle wants "both NaN" to count as agreement).
fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

/// One comparison: planned (under every strategy-override combination)
/// vs interpreted, same view.
fn check_query<V: TreeView>(view: &V, xp: &XPath, bindings: &Bindings, seed_info: &str) {
    let root: Vec<u64> = view.root_pre().into_iter().collect();
    let want = xp.eval_interpreted_with(view, &root, bindings);
    for (axis, value) in [
        (AxisChoice::Auto, ValueChoice::Auto),
        (AxisChoice::Auto, ValueChoice::ForceScan),
        (AxisChoice::Auto, ValueChoice::ForceProbe),
        (AxisChoice::ForceStaircase, ValueChoice::ForceScan),
        (AxisChoice::ForceIndex, ValueChoice::ForceProbe),
    ] {
        let opts = EvalOptions::new().bindings(bindings).ablation(Ablation {
            axis,
            value,
            ..Default::default()
        });
        let got = xp.eval_opts(view, &root, &opts);
        match (&want, &got) {
            (Ok(w), Ok(g)) => assert!(
                values_equal(w, g),
                "{seed_info}: '{}' under {axis:?}/{value:?}\n  interpreter: {w:?}\n  \
                 planned:     {g:?}\nlogical plan:\n{}physical plan:\n{}",
                xp.source(),
                xp.explain(),
                xp.explain_physical()
            ),
            (Err(_), Err(_)) => {}
            (w, g) => panic!(
                "{seed_info}: '{}' under {axis:?}/{value:?} diverged in failure: \
                 interpreter {w:?} vs planned {g:?}",
                xp.source()
            ),
        }
    }
    // Multi-predicate steps: every strategy arm, each execution writing
    // its row into one analyze recorder.
    if !xp.explain_physical().contains("multi-probe") {
        return;
    }
    let feedback = PlanFeedback::new();
    for multi in [
        MultiChoice::ForceScan,
        MultiChoice::ForceBestProbe,
        MultiChoice::ForceIntersect,
        MultiChoice::Auto,
    ] {
        let opts = EvalOptions::new()
            .bindings(bindings)
            .ablation(Ablation {
                multi,
                ..Default::default()
            })
            .feedback(&feedback);
        let got = xp.eval_opts(view, &root, &opts);
        match (&want, &got) {
            (Ok(w), Ok(g)) => assert!(
                values_equal(w, g),
                "{seed_info}: '{}' under {multi:?}\n  interpreter: {w:?}\n  \
                 planned:     {g:?}\nphysical plan:\n{}",
                xp.source(),
                xp.explain_physical()
            ),
            (Err(_), Err(_)) => {}
            (w, g) => panic!(
                "{seed_info}: '{}' under {multi:?} diverged in failure: \
                 interpreter {w:?} vs planned {g:?}",
                xp.source()
            ),
        }
    }
}

/// The parameterised twin of a query: every string or number literal
/// standing directly beside a comparison operator becomes `$p0`, `$p1`,
/// … bound to the literal's value. `None` when the query has no such
/// literal. (A test-local scanner on purpose — the plan cache's own
/// lifting is what the twins are checked *against*, indirectly, through
/// the interpreter.)
fn parameterize(q: &str) -> Option<(String, Vec<(String, Value)>)> {
    #[derive(PartialEq)]
    enum Tok {
        Literal(Value),
        Cmp,
        Other,
    }
    // Non-blank pieces as (kind, char range).
    let chars: Vec<char> = q.chars().collect();
    let word = |c: char| c.is_alphanumeric() || matches!(c, '_' | '-' | '.');
    let mut toks: Vec<(Tok, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let mut j = i + 1;
        let tok = if c.is_whitespace() {
            i += 1;
            continue;
        } else if c == '"' {
            j = (i + 1..chars.len()).find(|&j| chars[j] == '"')? + 1;
            Tok::Literal(Value::Str(chars[i + 1..j - 1].iter().collect()))
        } else if c.is_ascii_digit() {
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '.') {
                j += 1;
            }
            let text: String = chars[i..j].iter().collect();
            Tok::Literal(Value::Number(text.parse().ok()?))
        } else if matches!(c, '=' | '<' | '>') || (c == '!' && chars.get(j) == Some(&'=')) {
            if chars.get(j) == Some(&'=') {
                j += 1;
            }
            Tok::Cmp
        } else {
            // A name swallows its digits (`item2` holds no literal).
            while word(c) && j < chars.len() && word(chars[j]) {
                j += 1;
            }
            Tok::Other
        };
        toks.push((tok, i, j));
        i = j;
    }
    let mut bound = Vec::new();
    let mut out = String::new();
    let mut copied = 0;
    for k in 0..toks.len() {
        let beside_cmp = (k > 0 && toks[k - 1].0 == Tok::Cmp)
            || toks.get(k + 1).is_some_and(|t| t.0 == Tok::Cmp);
        let (Tok::Literal(value), start, end) = &toks[k] else {
            continue;
        };
        if !beside_cmp {
            continue;
        }
        out.extend(&chars[copied..*start]);
        out.push_str(&format!("$p{}", bound.len()));
        bound.push((format!("p{}", bound.len()), value.clone()));
        copied = *end;
    }
    out.extend(&chars[copied..]);
    (!bound.is_empty()).then_some((out, bound))
}

/// Checks `q` and, where it has one, its parameterised twin.
fn check_with_twin<V: TreeView>(view: &V, q: &str, bindings: &Bindings, seed_info: &str) {
    let xp = XPath::parse(q).unwrap_or_else(|e| panic!("corpus query '{q}' failed to parse: {e}"));
    check_query(view, &xp, bindings, seed_info);
    let Some((twin, bound)) = parameterize(q) else {
        return;
    };
    let xp = XPath::parse(&twin)
        .unwrap_or_else(|e| panic!("twin '{twin}' of '{q}' failed to parse: {e}"));
    let mut b = bindings.clone();
    for (name, value) in bound {
        b.set(name, value);
    }
    check_query(view, &xp, &b, &format!("{seed_info} twin of '{q}'"));
}

/// The generated query corpus: paths over the small shared name
/// alphabet with axes, predicates, aggregates and variables.
fn query_corpus(rng: &mut TestRng) -> Vec<String> {
    let mut queries = vec![
        // Fixed shapes covering every rewrite rule.
        "//item".to_string(),
        "//item[1]".to_string(),
        "//item[last()]".to_string(),
        "(//item)[1]".to_string(),
        "(//item)[last()]".to_string(),
        "//a[b]".to_string(),
        "//a[not(b)]".to_string(),
        "//a[count(b) > 0]".to_string(),
        "//a[count(b) = 0]".to_string(),
        "//a[count(.//item) >= 1]/name".to_string(),
        "count(//a/b)".to_string(),
        "sum(//item)".to_string(),
        "//a[@x = \"t\"]".to_string(),
        "//a[b or c]".to_string(),
        "//a[b and c][2]".to_string(),
        "//a/b | //c".to_string(),
        "/a//b[position() = 1]".to_string(),
        "//b/ancestor::a".to_string(),
        "//b/following-sibling::*[1]".to_string(),
        "//a[.//b]".to_string(),
        // Structural predicates — each arm of the existence
        // (anti-)semijoin, alone, conjoined and beside a value predicate.
        "//a[c and not(b)]".to_string(),
        "//a[.//item]/name".to_string(),
        "//*[not(*)]".to_string(),
        "//a[not(b)][@x = $want]".to_string(),
        "//a[not(zzz)]".to_string(),
        "boolean(item)".to_string(),
        "//item/@x".to_string(),
        "string(//a[1])".to_string(),
        "//a[name(..) = \"a\"]".to_string(),
        "//a[$v]".to_string(),
        "//a[@x = $want]".to_string(),
        "$set/b".to_string(),
        // Value predicates — the content-index lowering corpus.
        "//a[@x = \"t\"]/b".to_string(),
        "//item[. = \"t\"]".to_string(),
        "//a[. = \"x < y\"]".to_string(),
        "//a[b = \"t\"]".to_string(),
        "//a[name = \"uni—code\"]".to_string(),
        "//item[. = 7]".to_string(),
        "//item[. > 3]".to_string(),
        "//a[b >= 5]".to_string(),
        "//a[b < 10]/c".to_string(),
        "//a[7 <= b]".to_string(),
        "//*[@x = \"t\"]".to_string(),
        "//a[@x > 2]".to_string(),
        "//a[@x = \"\"]".to_string(),
        "//item[. = \"\"]".to_string(),
        "count(//a[b = \"t\"])".to_string(),
        "//a[@x = \"t\"][b]".to_string(),
        "//a[normalize-space() = \"t\"]".to_string(),
        "//a[string-length() = 1]".to_string(),
        // Multi-predicate steps — the join-order-search corpus: mixed
        // exact + numeric-range, attr + child-text, 2–3 predicates.
        "//a[@x = \"t\"][b = \"t\"]".to_string(),
        "//a[b = \"t\"][c = \"t\"]".to_string(),
        "//a[b > 2][b < 8]".to_string(),
        "//item[. > 3][. < 9]".to_string(),
        "//a[@x = \"t\"][b > 2]".to_string(),
        "//a[@x > 2][@x < 9]".to_string(),
        "//a[@x = \"t\"][@y = \"t\"]".to_string(),
        "//a[b = \"t\"][c > 1][@x = \"t\"]".to_string(),
        "//a[b = 5][c = \"t\"]".to_string(),
        "//a[name = \"t\"][b < 10]".to_string(),
        "//item[. = 7][@x = \"t\"]".to_string(),
        "//a[@x = \"\"][b = \"t\"]".to_string(),
    ];
    // Random simple paths: 1-3 steps, optional predicate.
    for _ in 0..6 {
        let mut q = String::from("//");
        q.push_str(&rand_name(rng));
        if rng.chance(1, 2) {
            q.push('[');
            match rng.below(4) {
                0 => q.push_str(&rand_name(rng)),
                1 => q.push('1'),
                2 => {
                    q.push('@');
                    q.push_str(&rand_name(rng));
                }
                _ => q.push_str("last()"),
            }
            q.push(']');
        }
        if rng.chance(1, 2) {
            q.push('/');
            q.push_str(&rand_name(rng));
        }
        queries.push(q);
    }
    queries
}

fn paged_from_tree(tree: &Node, cfg: PageConfig) -> PagedDoc {
    PagedDoc::from_tree(tree, cfg).unwrap()
}

#[test]
fn planned_execution_matches_interpreter_across_schemas() {
    for seed in 0..25u64 {
        let mut rng = TestRng::new(0x91a6 ^ seed);
        let tree = rand_tree(&mut rng, 4, 4);
        let ro = ReadOnlyDoc::from_tree(&tree).unwrap();
        let nv = NaiveDoc::from_tree(&tree).unwrap();
        let cfg = *rng.pick(&common::page_configs());
        let up = paged_from_tree(&tree, cfg);

        let mut bindings = Bindings::new();
        bindings.set("v", Value::Str("t".into()));
        bindings.set("want", Value::Str("x < y".into()));
        bindings.set(
            "set",
            Value::Nodes(ro.root_pre().into_iter().collect::<Vec<u64>>()),
        );

        for q in query_corpus(&mut rng) {
            check_with_twin(&ro, &q, &bindings, &format!("seed {seed} (ro)"));
            check_with_twin(&nv, &q, &bindings, &format!("seed {seed} (naive)"));
            // Paged: `$set` holds *ro* pres, which differ from paged
            // pres — use a paged-local binding instead.
            let mut up_bindings = bindings.clone();
            up_bindings.set(
                "set",
                Value::Nodes(up.root_pre().into_iter().collect::<Vec<u64>>()),
            );
            check_with_twin(&up, &q, &up_bindings, &format!("seed {seed} (paged)"));
        }
    }
}

/// The same comparison over the XMark corpus: every strategy arm of
/// every Q1–Q20 selection and of the value / multi-predicate paths
/// equals the interpreter on both schemas.
#[test]
fn planned_execution_matches_interpreter_on_the_xmark_corpus() {
    let (ro, up, queries) = common::xmark_corpus();
    let bindings = Bindings::new();
    for q in queries {
        check_with_twin(&ro, q, &bindings, "xmark (ro)");
        check_with_twin(&up, q, &bindings, "xmark (paged)");
    }
}

/// What the index arm of an existence predicate asks of the view: over
/// n rows and k postings it makes at most c·(n + k) accessor calls — a
/// gallop and one `region_end` per row — however many children the rows
/// have, where the scan arm walks them.
#[test]
fn the_existence_join_is_linear_in_rows_plus_postings() {
    let (n, k, fanout) = (600usize, 200usize, 40usize);
    let mut xml = String::from("<r>");
    for i in 0..n {
        xml.push_str("<a>");
        xml.push_str(&"<c/>".repeat(fanout));
        if i % (n / k) == 0 {
            xml.push_str("<b/>");
        }
        xml.push_str("</a>");
    }
    xml.push_str("</r>");
    let ro = ReadOnlyDoc::parse_str(&xml).unwrap();
    let up = PagedDoc::parse_str(&xml, PageConfig::new(64, 80).unwrap()).unwrap();

    fn run<V: TreeView>(view: &V, name: &str, n: usize, k: usize, fanout: usize) {
        let xp = XPath::parse("/r/a[b]").unwrap();
        let root: Vec<u64> = view.root_pre().into_iter().collect();
        let calls = |axis| {
            let counting = common::Counting::new(view);
            let stats = EvalStats::default();
            let opts = EvalOptions::new()
                .ablation(Ablation {
                    axis,
                    ..Default::default()
                })
                .stats(&stats);
            let got = xp.eval_opts(&counting, &root, &opts).unwrap();
            assert!(matches!(&got, Value::Nodes(ns) if ns.len() == k), "{name}");
            (counting.calls(), stats.index_steps.get())
        };
        let (index_calls, index_steps) = calls(AxisChoice::ForceIndex);
        assert_eq!(
            index_steps, 2,
            "{name}: the `a` step and the existence step"
        );
        assert!(
            index_calls <= 6 * (n + k) as u64,
            "{name}: {index_calls} accessor calls for {n} rows and {k} postings"
        );
        // The scan arm is the contrast: it visits the children.
        let (scan_calls, _) = calls(AxisChoice::ForceStaircase);
        assert!(scan_calls >= (n * fanout) as u64, "{name}: {scan_calls}");
        // Left alone, the cost model takes the join here.
        let (auto_calls, auto_steps) = calls(AxisChoice::Auto);
        assert!(
            auto_steps >= 1 && auto_calls <= 6 * (n + k) as u64,
            "{name}"
        );
    }
    run(&ro, "ro", n, k, fanout);
    run(&up, "paged", n, k, fanout);
}

/// The twin generator itself: literals beside comparison operators are
/// replaced, everything else is left alone, and the twins of the
/// value-predicate corpus really are the lowered, late-bound form.
#[test]
fn twins_are_the_late_bound_form() {
    let (twin, bound) = parameterize("//a[@x = \"t\"][b > 2]/c[7 <= .]").unwrap();
    assert_eq!(twin, "//a[@x = $p0][b > $p1]/c[$p2 <= .]");
    assert_eq!(
        bound,
        [
            ("p0".to_string(), Value::Str("t".into())),
            ("p1".to_string(), Value::Number(2.0)),
            ("p2".to_string(), Value::Number(7.0)),
        ]
    );
    assert!(parameterize("//item2[1]/b[contains(., \"x\")]").is_none());
    let mut lowered = 0;
    for q in query_corpus(&mut TestRng::new(1)) {
        let Some((twin, _)) = parameterize(&q) else {
            continue;
        };
        let direct = XPath::parse(&q).unwrap().explain();
        let explained = XPath::parse(&twin).unwrap().explain();
        if direct.contains("-probe") {
            assert!(
                explained.contains("-probe") && explained.contains("$p0"),
                "twin '{twin}' of '{q}' must lower like it:\n{explained}"
            );
            lowered += 1;
        }
    }
    assert!(lowered >= 25, "only {lowered} value-predicate twins");
}

/// One plan, many keys: a cached plan executed with a rare and a hot key
/// in alternation — under every strategy arm, with one analyze recorder
/// attached — returns the interpreter's answer every time, and under
/// `Auto` each key picks its own arm: the hot key (most of the index's
/// postings, far more than the small context subtree holds) scans, the
/// rare key probes.
#[test]
fn one_cached_plan_picks_its_arm_per_key() {
    // A small `s` subtree (one rare row, one hot row, forty cold ones:
    // big enough that a one-row probe beats scanning it, far smaller
    // than the hot key's posting list) and 500 hot rows elsewhere.
    let mut xml = String::from("<r><s><a x=\"rare\"><b>rare</b></a><a x=\"hot\"><b>hot</b></a>");
    for _ in 0..40 {
        xml.push_str("<a x=\"cold\"><b>cold</b></a>");
    }
    xml.push_str("</s><t>");
    for _ in 0..500 {
        xml.push_str("<a x=\"hot\"><b>hot</b></a>");
    }
    xml.push_str("</t></r>");
    let ro = ReadOnlyDoc::parse_str(&xml).unwrap();
    let up = PagedDoc::parse_str(&xml, PageConfig::new(64, 75).unwrap()).unwrap();

    fn run<V: TreeView>(view: &V, name: &str) {
        let root: Vec<u64> = view.root_pre().into_iter().collect();
        let bind = |p: &str, q: &str| {
            let mut b = Bindings::new();
            b.set("p", Value::Str(p.into()));
            b.set("q", Value::Str(q.into()));
            b
        };
        let keys = [
            ("rare", 1usize),
            ("hot", 1),
            ("rare", 1),
            ("none", 0),
            ("hot", 1),
        ];

        // Single predicate: the arm follows the key.
        let single = XPath::parse("/r/s//a[@x = $p]").unwrap();
        for choice in [
            ValueChoice::Auto,
            ValueChoice::ForceScan,
            ValueChoice::ForceProbe,
        ] {
            for (key, hits) in keys {
                let b = bind(key, key);
                let stats = EvalStats::default();
                let opts = EvalOptions::new()
                    .bindings(&b)
                    .ablation(Ablation {
                        value: choice,
                        ..Default::default()
                    })
                    .stats(&stats);
                let got = single.eval_opts(view, &root, &opts).unwrap();
                let want = single.eval_interpreted_with(view, &root, &b).unwrap();
                assert_eq!(got, want, "{name}: $p = {key} under {choice:?}");
                assert!(matches!(&got, Value::Nodes(ns) if ns.len() == hits));
                if choice == ValueChoice::Auto {
                    let arms = (stats.value_probe_steps.get(), stats.value_scan_steps.get());
                    let want_arms = if key == "hot" { (0, 1) } else { (1, 0) };
                    assert_eq!(arms, want_arms, "{name}: $p = {key} took the wrong arm");
                }
            }
        }

        // Two predicates, one analyze recorder.
        let multi = XPath::parse("/r/s//a[@x = $p][b = $q]").unwrap();
        let feedback = PlanFeedback::new();
        for choice in [
            MultiChoice::Auto,
            MultiChoice::ForceScan,
            MultiChoice::ForceBestProbe,
            MultiChoice::ForceIntersect,
        ] {
            for (key, hits) in keys {
                let b = bind(key, key);
                let opts = EvalOptions::new()
                    .bindings(&b)
                    .ablation(Ablation {
                        multi: choice,
                        ..Default::default()
                    })
                    .feedback(&feedback);
                let got = multi.eval_opts(view, &root, &opts).unwrap();
                let want = multi.eval_interpreted_with(view, &root, &b).unwrap();
                assert_eq!(got, want, "{name}: {key} under {choice:?}");
                assert!(matches!(&got, Value::Nodes(ns) if ns.len() == hits));
                if choice == MultiChoice::Auto {
                    let fb = feedback.snapshot();
                    let hot = key == "hot";
                    assert_eq!(
                        fb[0].strategy == MultiStrategy::Scan,
                        hot,
                        "{name}: {key} ran {:?}",
                        fb[0].strategy
                    );
                    if !hot {
                        // Exact per-key counts: the rare list is 0 or 1
                        // long, never the hot key's 501.
                        assert!(fb[0].estimated <= 1, "{name}: {key}: {:?}", fb[0]);
                    }
                }
            }
        }
        // Mixed: a rare `$p` with a hot `$q` probes `$p` and verifies
        // `$q` per candidate — the hot list is never materialized.
        let b = bind("rare", "hot");
        let opts = EvalOptions::new().bindings(&b).feedback(&feedback);
        assert_eq!(
            multi.eval_opts(view, &root, &opts).unwrap(),
            Value::Nodes(Vec::new())
        );
        let fb = feedback.snapshot();
        assert_eq!(fb[0].strategy, MultiStrategy::Probe(vec![0]));
        assert_eq!(fb[0].pred_lists, [Some(1), None]);
    }
    run(&ro, "ro");
    run(&up, "paged");
}

/// The paged comparison repeated across random update batches, with the
/// name index verified against a scan after every batch.
#[test]
fn planned_execution_survives_update_batches() {
    for seed in 0..12u64 {
        let mut rng = TestRng::new(0xba7c4 ^ (seed << 8));
        let tree = rand_tree(&mut rng, 4, 4);
        let cfg = *rng.pick(&common::page_configs());
        let mut up = paged_from_tree(&tree, cfg);
        let bindings = Bindings::new();
        let queries: Vec<XPath> = [
            "//item",
            "//a",
            "//a/b",
            "//item[1]",
            "//a[b]",
            "count(//b)",
            "//name | //x",
            "//a[@x]",
            // The existence join probes an index that carries deltas
            // and tombstones here.
            "//a[not(b)]",
            "//a[c and not(b)]",
            "//a[.//item]",
            "//*[not(*)]",
            "//a[not(b)][@x = \"t\"]",
            // Value predicates must stay index ≡ scan across updates.
            "//a[@x = \"t\"]",
            "//a[@x = \"fresh\"]",
            "//item[. = \"t\"]",
            "//a[b = \"t\"]",
            "//item[. > 3]",
            "//a[@x = 7]",
            // Multi-predicate steps: the intersection and its degree
            // statistics must stay consistent under COW deltas
            // (`check_paged` cross-checks the stats after each batch).
            "//a[@x = \"t\"][b = \"t\"]",
            "//a[b > 2][b < 8]",
            "//a[@x = 7][b = \"t\"]",
            "//item[. > 3][. < 9]",
            "//a[@x = \"t\"][b > 2][c = \"t\"]",
        ]
        .iter()
        .map(|q| XPath::parse(q).unwrap())
        .collect();

        for batch in 0..6 {
            // Random batch of structural + name + value updates.
            for _ in 0..3 {
                let used: Vec<u64> = {
                    let mut v = Vec::new();
                    let mut p = 0;
                    while let Some(q) = up.next_used_at_or_after(p) {
                        v.push(q);
                        p = q + 1;
                    }
                    v
                };
                let target_pre = *rng.pick(&used);
                let node = up.pre_to_node(target_pre).unwrap();
                match rng.below(6) {
                    0 => {
                        let sub = rand_tree(&mut rng, 2, 3);
                        let _ = up.insert(InsertPosition::LastChildOf(node), &sub);
                    }
                    1 => {
                        // Deleting the root is rejected; that's fine.
                        let _ = up.delete(node);
                    }
                    2 => {
                        let _ = up.rename(node, &QName::local(rand_name(&mut rng)));
                    }
                    3 => {
                        let value = if rng.chance(1, 2) {
                            rand_text(&mut rng)
                        } else {
                            format!("{}", rng.below(10))
                        };
                        let _ = up.set_attribute(node, &QName::local(rand_name(&mut rng)), &value);
                    }
                    _ => {
                        // Text edit on a random text node (numeric half
                        // the time, to exercise the sorted arm).
                        let texts: Vec<u64> = used
                            .iter()
                            .copied()
                            .filter(|&p| up.kind(p) == Some(Kind::Text))
                            .collect();
                        if !texts.is_empty() {
                            let t = *rng.pick(&texts);
                            let tnode = up.pre_to_node(t).unwrap();
                            let value = if rng.chance(1, 2) {
                                rand_text(&mut rng)
                            } else {
                                format!("{}", rng.below(10))
                            };
                            let _ = up.update_value(tnode, &value);
                        }
                    }
                }
            }
            // The invariant checker includes the index ≡ scan check.
            mbxq_storage::invariants::check_paged(&up)
                .unwrap_or_else(|e| panic!("seed {seed} batch {batch}: {e}"));
            for xp in &queries {
                check_query(&up, xp, &bindings, &format!("seed {seed} batch {batch}"));
            }
        }
    }
}
