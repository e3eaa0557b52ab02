//! A guided replay of the paper's Figure 4: the example document
//! `<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>` is shredded
//! into logical pages of 8 tuples, then `<k><l/><m/></k>` is appended to
//! `g`, and the physical table + the pre/size/level view are dumped at
//! each step so the page splice and the automatic pre shifts are visible.
//! It asserts the figure's result: `k` takes page 0's free slot, `l` and
//! `m` spill into a page appended physically as page 2 and spliced in at
//! logical position 1, and `size(a)` grows from 9 to 12.
//!
//! Run with: `cargo run --example figure4_walkthrough`

use mbxq::{InsertPosition, NodeId, PageConfig, PagedDoc, TreeView, XmlDocument};

const PAPER_DOC: &str = "<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>";

fn main() {
    // Page size 8 with fill target 7 reproduces Figure 4's initial
    // layout: page 0 = a..g + one unused slot, page 1 = h,i,j + five.
    let cfg = PageConfig::new(8, 88).unwrap();
    let mut doc = PagedDoc::parse_str(PAPER_DOC, cfg).unwrap();

    println!("=== after shredding (Figure 4, left) ===\n");
    println!("{}", doc.dump_physical());

    // The paper's update: <xupdate:append select='/a/f/g'> <k><l/><m/></k>.
    let g = doc.pre_to_node(6).expect("g sits at pre 6");
    let subtree = XmlDocument::parse_fragment("<k><l/><m/></k>").unwrap();
    let report = doc
        .insert(InsertPosition::LastChildOf(g), &subtree)
        .unwrap();
    println!(
        "=== insert <k><l/><m/></k> under g: case {:?}, {} page(s) spliced ===\n",
        report.case, report.pages_added
    );

    println!("--- physical layout (page 2 is new, spliced at logical 1) ---\n");
    let physical = doc.dump_physical();
    println!("{physical}");
    assert_eq!((report.pages_added, report.inserted), (1, 3));
    assert!(
        physical.contains("physical page 2 (logical 1)"),
        "the overflow page is appended physically and spliced in at logical 1"
    );

    println!("--- pre/size/level view (pre of h..j shifted automatically) ---\n");
    println!("{}", doc.dump_view());

    // The headline numbers of Figure 3/4: ancestor sizes grew by the
    // insert volume, nothing else was rewritten.
    let size = |node| TreeView::size(&doc, doc.node_to_pre(node).unwrap());
    let (a, f) = (doc.pre_to_node(0).unwrap(), NodeId(5));
    println!(
        "size(a) = {} (was 9, +3), size(f) = {}, size(g) = {}",
        size(a),
        size(f),
        size(g)
    );
    assert_eq!((size(a), size(f), size(g)), (12, 7, 3));
    // k, l are the subtree's first two nodes (ids follow a..j).
    let (k, l) = (
        doc.node_to_pre(NodeId(10)).unwrap(),
        doc.node_to_pre(NodeId(11)).unwrap(),
    );
    println!("k sits at pre {k} (page 0's free slot), l at pre {l} (the spliced page)");
    let page = |pre: u64| pre / cfg.page_size as u64;
    assert_eq!((k, page(k)), (7, 0), "k takes page 0's free slot");
    assert_eq!(page(l), 1, "l lands on the page spliced in at logical 1");
}
