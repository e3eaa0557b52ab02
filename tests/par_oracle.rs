//! Morsel-parallel oracle: parallel execution must be observably
//! identical to sequential execution, which must match the reference
//! interpreter — same node sets, same values, same order.
//!
//! Seeded property test over random trees, the generated query corpus
//! and all three storage schemas (naive, read-only, paged). Every query
//! runs three ways on the same view:
//!
//! * the reference interpreter (no plans, no parallelism);
//! * the planned executor forced sequential;
//! * the planned executor forced parallel on a shared worker pool
//!   (`ParChoice::ForceParallel`) — every context row becomes its own
//!   morsel, so the merge-in-morsel-order path is exercised maximally
//!   and any ordering bug in the split/merge shows up even on tiny
//!   documents.
//!
//! Afterwards random update batches (inserts, deletes, renames,
//! attribute writes, text edits) hit the paged view and the three-way
//! comparison repeats — parallel scans must stay oracle-identical on
//! COW-patched pages, not just on freshly shredded documents.

mod common;

use common::{rand_name, rand_text, rand_tree, TestRng};
use mbxq::{InsertPosition, Kind, NaiveDoc, PagedDoc, QName, ReadOnlyDoc, TreeView};
use mbxq_axes::{in_range_mask, scan_range_arm, KernelArm, NodeTest};
use mbxq_storage::NumRange;
use mbxq_xpath::{Ablation, Bindings, EvalOptions, EvalStats, ParChoice, Value, WorkerPool, XPath};

/// NaN-tolerant value equality (`NaN != NaN` under `PartialEq`, but the
/// oracle wants "both NaN" to count as agreement).
fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

/// One comparison: interpreter vs forced-sequential vs forced-parallel
/// (single-row morsels on `pool`), same view. Returns the morsels the
/// parallel run executed.
fn check_query<V: TreeView>(
    view: &V,
    xp: &XPath,
    bindings: &Bindings,
    pool: &WorkerPool,
    seed_info: &str,
) -> u64 {
    let root: Vec<u64> = view.root_pre().into_iter().collect();
    let want = xp.eval_interpreted_with(view, &root, bindings);
    let seq = xp.eval_opts(
        view,
        &root,
        &EvalOptions::new().bindings(bindings).ablation(Ablation {
            par: ParChoice::ForceSequential,
            ..Default::default()
        }),
    );
    let stats = EvalStats::default();
    let par = xp.eval_opts(
        view,
        &root,
        &EvalOptions::new()
            .bindings(bindings)
            .pool(pool)
            .ablation(Ablation {
                par: ParChoice::ForceParallel,
                ..Default::default()
            })
            .stats(&stats),
    );
    for (arm, got) in [("sequential", &seq), ("parallel", &par)] {
        match (&want, got) {
            (Ok(w), Ok(g)) => assert!(
                values_equal(w, g),
                "{seed_info}: '{}' {arm} arm\n  interpreter: {w:?}\n  planned:     {g:?}",
                xp.source()
            ),
            (Err(_), Err(_)) => {}
            (w, g) => panic!(
                "{seed_info}: '{}' {arm} arm diverged in failure: \
                 interpreter {w:?} vs planned {g:?}",
                xp.source()
            ),
        }
    }
    // The two planned arms must agree bit-for-bit, including errors.
    match (&seq, &par) {
        (Ok(s), Ok(p)) => assert!(
            values_equal(s, p),
            "{seed_info}: '{}' sequential vs parallel\n  seq: {s:?}\n  par: {p:?}",
            xp.source()
        ),
        (Err(_), Err(_)) => {}
        (s, p) => panic!(
            "{seed_info}: '{}' seq/par diverged in failure: {s:?} vs {p:?}",
            xp.source()
        ),
    }
    // Kernel equivalence: both forced chunk-kernel arms must reproduce
    // the auto-dispatched sequential result bit-for-bit (off x86_64 the
    // Simd arm runs the scalar loops).
    for (arm, kernel) in [
        ("scalar-kernel", KernelArm::Scalar),
        ("simd-kernel", KernelArm::Simd),
    ] {
        let got = xp.eval_opts(
            view,
            &root,
            &EvalOptions::new().bindings(bindings).ablation(Ablation {
                par: ParChoice::ForceSequential,
                kernel,
                ..Default::default()
            }),
        );
        match (&seq, &got) {
            (Ok(s), Ok(g)) => assert!(
                values_equal(s, g),
                "{seed_info}: '{}' {arm} arm\n  auto:   {s:?}\n  forced: {g:?}",
                xp.source()
            ),
            (Err(_), Err(_)) => {}
            (s, g) => panic!(
                "{seed_info}: '{}' {arm} arm diverged in failure: {s:?} vs {g:?}",
                xp.source()
            ),
        }
    }
    stats.morsels.get()
}

/// The oracle's query corpus: axis steps that hit every parallel hook
/// site (staircase scans, descendant region splits, semijoins, value
/// probes) plus shapes that must *not* parallelize (positional
/// predicates, aggregates over tiny contexts).
fn query_corpus(rng: &mut TestRng) -> Vec<String> {
    let mut queries = vec![
        "//item".to_string(),
        "//a".to_string(),
        "//a/b".to_string(),
        "//a//b".to_string(),
        "/*//item".to_string(),
        "//a/b/c".to_string(),
        "//item[1]".to_string(),
        "//item[last()]".to_string(),
        "//a[b]".to_string(),
        "//a[not(b)]".to_string(),
        "//a[.//b]".to_string(),
        "//b/ancestor::a".to_string(),
        "//b/following-sibling::*[1]".to_string(),
        "count(//a/b)".to_string(),
        "sum(//item)".to_string(),
        "//a[@x = \"t\"]".to_string(),
        "//a[b = \"t\"]".to_string(),
        "//item[. > 3]".to_string(),
        "//a[@x > 2]".to_string(),
        "//a/b | //c".to_string(),
        "string(//a[1])".to_string(),
    ];
    for _ in 0..5 {
        let mut q = String::from("//");
        q.push_str(&rand_name(rng));
        if rng.chance(1, 2) {
            q.push('/');
            q.push_str(&rand_name(rng));
        } else if rng.chance(1, 2) {
            q.push_str("//");
            q.push_str(&rand_name(rng));
        }
        queries.push(q);
    }
    queries
}

#[test]
fn parallel_execution_matches_interpreter_across_schemas() {
    let pool = WorkerPool::new(3);
    for seed in 0..20u64 {
        let mut rng = TestRng::new(0x9a41 ^ seed);
        let tree = rand_tree(&mut rng, 4, 4);
        let ro = ReadOnlyDoc::from_tree(&tree).unwrap();
        let nv = NaiveDoc::from_tree(&tree).unwrap();
        let cfg = *rng.pick(&common::page_configs());
        let up = PagedDoc::from_tree(&tree, cfg).unwrap();
        let bindings = Bindings::new();

        for q in query_corpus(&mut rng) {
            let xp = match XPath::parse(&q) {
                Ok(xp) => xp,
                Err(e) => panic!("corpus query '{q}' failed to parse: {e}"),
            };
            check_query(&ro, &xp, &bindings, &pool, &format!("seed {seed} (ro)"));
            check_query(&nv, &xp, &bindings, &pool, &format!("seed {seed} (naive)"));
            check_query(&up, &xp, &bindings, &pool, &format!("seed {seed} (paged)"));
        }
    }
}

/// The same comparison over the XMark corpus: sequential, single-row-
/// morsel parallel and both forced kernel arms are bit-identical to the
/// interpreter on both schemas.
#[test]
fn parallel_execution_matches_interpreter_on_the_xmark_corpus() {
    let pool = WorkerPool::new(3);
    let (ro, up, queries) = common::xmark_corpus();
    let bindings = Bindings::new();
    let mut morsels = 0;
    for q in queries {
        let xp = XPath::parse(q).unwrap();
        morsels += check_query(&ro, &xp, &bindings, &pool, "xmark (ro)");
        morsels += check_query(&up, &xp, &bindings, &pool, "xmark (paged)");
    }
    assert!(morsels > 1, "forced parallelism never split a relation");
}

/// The paged three-way comparison repeated across random update
/// batches: parallel scans over COW-patched pages must stay identical
/// to the interpreter as the page set diverges from the shredded
/// original.
#[test]
fn parallel_execution_survives_update_batches() {
    let pool = WorkerPool::new(3);
    for seed in 0..10u64 {
        let mut rng = TestRng::new(0x75a0c ^ (seed << 8));
        let tree = rand_tree(&mut rng, 4, 4);
        let cfg = *rng.pick(&common::page_configs());
        let mut up = PagedDoc::from_tree(&tree, cfg).unwrap();
        let bindings = Bindings::new();
        let queries: Vec<XPath> = [
            "//item",
            "//a",
            "//a//b",
            "//a/b",
            "//item[1]",
            "//a[b]",
            "count(//b)",
            "//a[@x = \"t\"]",
            "//item[. > 3]",
            "//b/ancestor::a",
        ]
        .iter()
        .map(|q| XPath::parse(q).unwrap())
        .collect();

        for batch in 0..5 {
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
            mbxq_storage::invariants::check_paged(&up)
                .unwrap_or_else(|e| panic!("seed {seed} batch {batch}: {e}"));
            for xp in &queries {
                check_query(
                    &up,
                    xp,
                    &bindings,
                    &pool,
                    &format!("seed {seed} batch {batch}"),
                );
            }
        }
    }
}

/// Per-pre reference for the chunk scan kernels: walk used slots one at
/// a time and apply the node test — no chunks, no vectorization.
fn scan_reference(view: &dyn TreeView, lo: u64, hi: u64, test: &NodeTest) -> Vec<u64> {
    let mut out = Vec::new();
    let mut p = lo;
    while let Some(q) = view.next_used_at_or_after(p) {
        if q >= hi {
            break;
        }
        if test.matches(view, q) {
            out.push(q);
        }
        p = q + 1;
    }
    out
}

/// The chunk kernels (scalar and vector arm) must agree with the
/// per-node reference on arbitrary `[lo, hi)` slices of the pre plane —
/// misaligned starts, partial tails shorter than one vector lane, empty
/// slices, and slices crossing page boundaries and deletion holes all
/// occur across the seeds.
#[test]
fn chunk_kernels_agree_on_random_slice_offsets() {
    for seed in 0..25u64 {
        let mut rng = TestRng::new(0xc4a2 ^ (seed << 5));
        let tree = rand_tree(&mut rng, 4, 5);
        let ro = ReadOnlyDoc::from_tree(&tree).unwrap();
        let cfg = *rng.pick(&common::page_configs());
        let mut up = PagedDoc::from_tree(&tree, cfg).unwrap();
        // Punch holes in the paged pre plane so slices cross unused
        // slots, not just page boundaries.
        for _ in 0..3 {
            let used: Vec<u64> = {
                let mut v = Vec::new();
                let mut p = 1; // keep the root
                while let Some(q) = up.next_used_at_or_after(p) {
                    v.push(q);
                    p = q + 1;
                }
                v
            };
            if used.is_empty() {
                break;
            }
            let target = *rng.pick(&used);
            if let Ok(node) = up.pre_to_node(target) {
                let _ = up.delete(node);
            }
        }
        let tests = [
            NodeTest::AnyNode,
            NodeTest::AnyElement,
            NodeTest::Text,
            NodeTest::Name(QName::local("a")),
            NodeTest::Name(QName::local(rand_name(&mut rng))),
        ];
        let views: [&dyn TreeView; 2] = [&ro, &up];
        for view in views {
            let end = view.pre_end();
            for test in &tests {
                for _ in 0..8 {
                    let lo = rng.below(end as usize + 2) as u64;
                    let hi = lo.max((lo + rng.below(end as usize + 2) as u64).min(end));
                    let want = scan_reference(view, lo, hi, test);
                    for arm in [KernelArm::Scalar, KernelArm::Simd] {
                        let mut got = Vec::new();
                        scan_range_arm(view, lo, hi, test, arm, &mut got);
                        assert_eq!(
                            got, want,
                            "seed {seed}: [{lo}, {hi}) {test:?} on the {arm:?} arm"
                        );
                    }
                }
            }
        }
    }
}

/// On x86_64 every build runs the SSE2 kernels by default: the vector
/// arm is compiled, 16 byte lanes wide, and what [`KernelArm::auto`]
/// picks — so every oracle here and every benchmark number exercises
/// it. Elsewhere the arm is the scalar loops and auto picks Scalar.
#[test]
fn x86_64_builds_default_to_the_sse2_kernels() {
    if cfg!(target_arch = "x86_64") {
        assert!(mbxq_axes::simd_compiled());
        assert_eq!(mbxq_axes::simd_width(), 16);
        assert_eq!(KernelArm::auto(), KernelArm::Simd);
    } else {
        assert!(!mbxq_axes::simd_compiled());
        assert_eq!(mbxq_axes::simd_width(), 1);
        assert_eq!(KernelArm::auto(), KernelArm::Scalar);
    }
}

/// The numeric range-mask kernels must agree with [`NumRange::contains`]
/// element-wise on random value columns — NaN (unparsable strings),
/// infinities, exact bounds, inverted ranges, and odd lengths that leave
/// a partial vector tail.
#[test]
fn range_mask_kernels_agree_on_random_values() {
    let bounds = [f64::NEG_INFINITY, -5.0, 0.0, 1.25, 7.0, f64::INFINITY];
    for seed in 0..40u64 {
        let mut rng = TestRng::new(0x3f91 ^ (seed * 131));
        let n = rng.below(70);
        let vals: Vec<f64> = (0..n)
            .map(|_| match rng.below(8) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                _ => rng.below(40) as f64 - 20.0 + rng.below(4) as f64 * 0.25,
            })
            .collect();
        let range = NumRange {
            lo: *rng.pick(&bounds),
            hi: *rng.pick(&bounds),
            lo_incl: rng.chance(1, 2),
            hi_incl: rng.chance(1, 2),
        };
        let want: Vec<bool> = vals.iter().map(|&v| range.contains(v)).collect();
        for arm in [KernelArm::Scalar, KernelArm::Simd] {
            let mut keep = Vec::new();
            in_range_mask(&vals, &range, arm, &mut keep);
            assert_eq!(keep, want, "seed {seed}: {range:?} on the {arm:?} arm");
        }
    }
}
