//! The XMark answers, pinned.
//!
//! `end_to_end.rs` checks that the two schemas agree and that the
//! queries are deterministic; an accessor change that altered both
//! schemas' answers the same way would pass both. Here each query's
//! [`QueryResult`] on one fixed small XMark document is a constant,
//! asserted on the read-only schema and on the paged one (64-slot
//! pages filled to 80 %, so every page carries unused slots).

use mbxq::{PageConfig, PagedDoc, ReadOnlyDoc, TreeView};
use mbxq_xmark::{generate, run_query, QueryResult, XMarkConfig, QUERY_COUNT};

/// `(rows, checksum)` of Q1–Q20 on `XMarkConfig::scaled(0.004, 2)`.
/// (Q4, an order-sensitive rare pair of bids, has no answer at this
/// scale: its constant is the empty checksum.)
const ANSWERS: [(usize, u64); QUERY_COUNT] = [
    (1, 0xbda2aa282716ea4f),   // Q1
    (39, 0x364cd61789873cd3),  // Q2
    (5, 0xf5791ac329807887),   // Q3
    (0, 0xcbf29ce484222325),   // Q4
    (35, 0x5739701822576e3e),  // Q5
    (6, 0xddd7b9fd154e7664),   // Q6
    (367, 0x738a1f024b6a9a2a), // Q7
    (102, 0x0afc8e9c349c82aa), // Q8
    (102, 0xba72c887f293b5c3), // Q9
    (140, 0xe993c7f063a7b6db), // Q10
    (102, 0x4ee040de33d48a9a), // Q11
    (60, 0x946c75e37cca9fac),  // Q12
    (4, 0xd86124a07153f8ff),   // Q13
    (31, 0x5bcb2d6868db5f03),  // Q14
    (19, 0xbf172dbff2c099d2),  // Q15
    (19, 0x5d4881f88dc9cffc),  // Q16
    (51, 0xf618c3296fc0b8e2),  // Q17
    (48, 0xfd3588cb0ff0312f),  // Q18
    (87, 0x7a3593c59bb4bb94),  // Q19
    (4, 0x931c9bf9d2fab134),   // Q20
];

fn assert_pinned<V: TreeView>(view: &V, schema: &str) {
    for (q, &(rows, checksum)) in (1..=QUERY_COUNT).zip(&ANSWERS) {
        assert_eq!(
            run_query(view, q).unwrap(),
            QueryResult { rows, checksum },
            "{schema}: Q{q}"
        );
    }
}

#[test]
fn xmark_answers_are_pinned_on_both_schemas() {
    let xml = generate(&XMarkConfig::scaled(0.004, 2));
    assert_pinned(&ReadOnlyDoc::parse_str(&xml).unwrap(), "ro");
    assert_pinned(
        &PagedDoc::parse_str(&xml, PageConfig::new(64, 80).unwrap()).unwrap(),
        "up",
    );
}
