//! Oracle tests for the staircase-join axis engine: every axis result on
//! both relational schemas must equal a straightforward DOM evaluation
//! on the owned tree, for random documents — including documents whose
//! paged representation is riddled with holes from deletes.

mod common;

use common::{rand_tree, to_xml_string, TestRng};
use mbxq::{step, Axis, NaiveDoc, Node, NodeTest, PageConfig, PagedDoc, ReadOnlyDoc, TreeView};

/// DOM-side node identity: the index of the node in document order
/// (elements and leaves alike), which equals the read-only pre rank.
fn flatten<'a>(node: &'a Node, out: &mut Vec<&'a Node>) {
    out.push(node);
    for c in node.children() {
        flatten(c, out);
    }
}

/// DOM evaluation of one axis from the node at document-order index
/// `ctx`, returning document-order indexes.
fn dom_axis(root: &Node, ctx: usize, axis: Axis) -> Vec<usize> {
    let mut order = Vec::new();
    flatten(root, &mut order);
    // parent / child relations by index.
    let mut parent: Vec<Option<usize>> = vec![None; order.len()];
    {
        fn walk(node: &Node, my_idx: usize, next: &mut usize, parent: &mut Vec<Option<usize>>) {
            for c in node.children() {
                let c_idx = *next;
                *next += 1;
                parent[c_idx] = Some(my_idx);
                walk(c, c_idx, next, parent);
            }
        }
        let mut next = 1;
        walk(root, 0, &mut next, &mut parent);
    }
    let ancestors = |mut i: usize| {
        let mut out = Vec::new();
        while let Some(p) = parent[i] {
            out.push(p);
            i = p;
        }
        out
    };
    let in_subtree = |a: usize, mut b: usize| {
        // is b inside a's subtree (strictly below)?
        while let Some(p) = parent[b] {
            if p == a {
                return true;
            }
            b = p;
        }
        false
    };
    let mut out: Vec<usize> = match axis {
        Axis::SelfAxis => vec![ctx],
        Axis::Child => (0..order.len())
            .filter(|&i| parent[i] == Some(ctx))
            .collect(),
        Axis::Descendant => (0..order.len()).filter(|&i| in_subtree(ctx, i)).collect(),
        Axis::DescendantOrSelf => {
            let mut v = vec![ctx];
            v.extend((0..order.len()).filter(|&i| in_subtree(ctx, i)));
            v
        }
        Axis::Parent => parent[ctx].into_iter().collect(),
        Axis::Ancestor => ancestors(ctx),
        Axis::AncestorOrSelf => {
            let mut v = vec![ctx];
            v.extend(ancestors(ctx));
            v
        }
        Axis::FollowingSibling => (0..order.len())
            .filter(|&i| parent[i] == parent[ctx] && i > ctx && parent[ctx].is_some())
            .collect(),
        Axis::PrecedingSibling => (0..order.len())
            .filter(|&i| parent[i] == parent[ctx] && i < ctx && parent[ctx].is_some())
            .collect(),
        Axis::Following => (0..order.len())
            .filter(|&i| i > ctx && !in_subtree(ctx, i))
            .collect(),
        Axis::Preceding => (0..order.len())
            .filter(|&i| i < ctx && !ancestors(ctx).contains(&i))
            .collect(),
    };
    out.sort_unstable();
    out
}

const ALL_AXES: [Axis; 11] = [
    Axis::SelfAxis,
    Axis::Child,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Parent,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
    Axis::Following,
    Axis::Preceding,
];

/// Maps a view's used pre ranks to dense document-order indexes.
fn dense_rank_map<V: TreeView>(view: &V) -> Vec<u64> {
    let mut map = Vec::new();
    let mut p = 0;
    while let Some(q) = view.next_used_at_or_after(p) {
        map.push(q);
        p = q + 1;
    }
    map
}

fn check_axes<V: TreeView>(view: &V, root: &Node, label: &str) {
    let pres = dense_rank_map(view);
    for (ctx_idx, &ctx_pre) in pres.iter().enumerate() {
        for axis in ALL_AXES {
            let got: Vec<u64> = step(view, &[ctx_pre], axis, &NodeTest::AnyNode);
            let got_idx: Vec<usize> = got
                .iter()
                .map(|g| pres.binary_search(g).expect("result is a used slot"))
                .collect();
            let want = dom_axis(root, ctx_idx, axis);
            assert_eq!(
                got_idx, want,
                "{label} axis {axis:?} from node {ctx_idx} diverged"
            );
        }
    }
}

#[test]
fn axes_match_dom_oracle() {
    for case in 0..24u64 {
        let mut rng = TestRng::new(0xA0E5 + case);
        let tree = rand_tree(&mut rng, 3, 4);
        let ro = ReadOnlyDoc::from_tree(&tree).expect("shred ro");
        check_axes(&ro, &tree, "readonly");
        let nv = NaiveDoc::from_tree(&tree).expect("shred naive");
        check_axes(&nv, &tree, "naive");
        for cfg in [
            PageConfig::new(4, 50).unwrap(),
            PageConfig::new(16, 75).unwrap(),
        ] {
            let up = PagedDoc::from_tree(&tree, cfg).expect("shred paged");
            check_axes(&up, &tree, "paged");
        }
    }
}

/// Same oracle after punching holes: delete a subtree from the paged
/// store, re-shred the expected tree, and compare every axis again.
#[test]
fn axes_match_dom_oracle_after_delete() {
    for case in 0..24u64 {
        let mut rng = TestRng::new(0xDE1E7E + case);
        let tree = rand_tree(&mut rng, 3, 4);
        let victim_seed = rng.below(32);
        let cfg = PageConfig::new(8, 75).unwrap();
        let mut up = PagedDoc::from_tree(&tree, cfg).expect("shred");
        // Pick a deletable node (any non-root).
        let pres = dense_rank_map(&up);
        if pres.len() <= 1 {
            continue;
        }
        let victim_pre = pres[1 + victim_seed % (pres.len() - 1)];
        let victim = up.pre_to_node(victim_pre).unwrap();
        up.delete(victim).expect("delete succeeds");
        mbxq_storage::invariants::check_paged(&up).expect("invariants after delete");
        // Build the expected tree by replaying on the DOM.
        let mut expected = tree.clone();
        {
            // victim's dense index:
            let mut order = Vec::new();
            flatten(&tree, &mut order);
            let victim_idx = pres.iter().position(|&p| p == victim_pre).unwrap();
            fn remove_at(node: &mut Node, target: usize, next: &mut usize) -> bool {
                let children = match node {
                    Node::Element { children, .. } => children,
                    _ => return false,
                };
                let mut i = 0;
                while i < children.len() {
                    *next += 1;
                    let this_idx = *next - 1;
                    if this_idx == target {
                        children.remove(i);
                        return true;
                    }
                    if remove_at(&mut children[i], target, next) {
                        return true;
                    }
                    i += 1;
                }
                false
            }
            let mut next = 1;
            assert!(remove_at(&mut expected, victim_idx, &mut next));
        }
        assert_eq!(
            mbxq_storage::serialize::to_xml(&up).unwrap(),
            to_xml_string(&expected)
        );
        check_axes(&up, &expected, "paged-after-delete");
    }
}

/// `ancestor` from the last leaf of a wide, flat document asks the view
/// for one parent per level — not for the 10 000 preceding siblings the
/// slot-by-slot default walk would visit — on both schemas.
#[test]
fn ancestor_step_is_linear_in_depth() {
    let mut xml = String::from("<r><s>");
    xml.push_str(&"<a/>".repeat(10_000));
    xml.push_str("<t><u><leaf/></u></t></s></r>");
    fn run<V: TreeView>(view: &V, name: &str) {
        let leaf = (0..view.pre_end())
            .rev()
            .find(|&p| view.is_used(p))
            .unwrap();
        let counting = common::Counting::new(view);
        let got = step(&counting, &[leaf], Axis::Ancestor, &NodeTest::AnyElement);
        assert_eq!(got.len(), 4, "{name}: r, s, t, u");
        assert!(
            counting.calls() <= 8 * 4,
            "{name}: {} accessor calls for 4 ancestors",
            counting.calls()
        );
    }
    run(&ReadOnlyDoc::parse_str(&xml).unwrap(), "ro");
    run(
        &PagedDoc::parse_str(&xml, PageConfig::new(256, 80).unwrap()).unwrap(),
        "paged",
    );
}
