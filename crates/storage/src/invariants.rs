//! Deep consistency checking for the paged store.
//!
//! The commit pipeline of Figure 8 runs "XML document validation" before
//! taking the global write lock; this module is the structural half of
//! that validation (schema/type checks per \[GK04\] are out of the paper's
//! scope). It verifies every representation invariant the update
//! algorithms must preserve; property tests run it after every random
//! update sequence.

use crate::page::{NO_NAME, NO_NODE, NULL_LEVEL};
use crate::paged::PagedDoc;
use crate::types::{Kind, StorageError};
use crate::view::TreeView;
use crate::Result;

/// Checks all representation invariants of a [`PagedDoc`].
///
/// * the `pageOffset` permutation is consistent in both directions and
///   covers exactly the pages that exist, each of the configured size;
/// * a slot is unused in `level` (NULL) iff it is in `kind` (the unused
///   byte), and unused slots carry no node id;
/// * unused runs are encoded exactly (forward lengths and backward
///   indexes), never crossing page boundaries;
/// * the level-summary column holds one entry per page, and each equals
///   the minimum level of its page's used slots (NULL for a page without
///   any);
/// * `used_count` matches the used slots;
/// * `node→pos` and the `node` column are inverse on live nodes, and no
///   two slots share a node id;
/// * the used tuples in view order form a well-shaped tree: the first has
///   level 0, levels step by at most +1, and every `size` equals the
///   number of used tuples in the node's region;
/// * every live element's `value` slot is `NO_NAME` or the first row
///   of a run of its own attribute rows, no row lies in two runs, and
///   every attribute entry of the content index is a row some run
///   reaches.
pub fn check_paged(doc: &PagedDoc) -> Result<()> {
    fn corrupt(message: String) -> StorageError {
        StorageError::Corrupt { message }
    }

    if !doc.map.check_consistency() {
        return Err(corrupt("pageOffset permutation inconsistent".into()));
    }
    let page_size = doc.cfg.page_size;
    if doc.pages.len() != doc.map.num_pages() {
        return Err(corrupt(format!(
            "{} pages stored but pageOffset covers {}",
            doc.pages.len(),
            doc.map.num_pages()
        )));
    }
    if doc.min_levels.len() != doc.pages.len() {
        return Err(corrupt(format!(
            "{} pages stored but the summary column covers {}",
            doc.pages.len(),
            doc.min_levels.len()
        )));
    }

    // Per-page state: liveness agreement, run encodings and level
    // summaries (physical order is fine here); node→pos bijectivity on
    // live nodes along the way.
    let mut used_count = 0u64;
    let mut seen = std::collections::HashMap::new();
    for phys in 0..doc.pages.len() {
        let page = doc.page(phys);
        if page.slots() != page_size {
            return Err(corrupt(format!(
                "page {phys} holds {} slots, not {page_size}",
                page.slots()
            )));
        }
        let (levels, kinds) = (page.levels(), page.kinds());
        let min_level = levels.iter().copied().min().unwrap_or(NULL_LEVEL);
        let summary = doc.min_levels[doc.logical(phys)];
        if summary != min_level {
            return Err(corrupt(format!(
                "page {phys}: level summary {summary} (expected {min_level})"
            )));
        }
        let mut i = 0;
        while i < page_size {
            let pos = phys * page_size + i;
            if page.is_used(i) != Kind::from_byte(kinds[i]).is_some() {
                return Err(corrupt(format!(
                    "slot {pos}: level {} but kind byte {}",
                    levels[i], kinds[i]
                )));
            }
            if page.is_used(i) {
                used_count += 1;
                let node = u64::from(page.nodes()[i]);
                if let Some(prev) = seen.insert(node, pos) {
                    return Err(corrupt(format!(
                        "node id {node} appears at positions {prev} and {pos}"
                    )));
                }
                if doc.pos_of_node(node).map(|p| p as usize) != Some(pos) {
                    return Err(corrupt(format!(
                        "node→pos for node {node} is {:?}, tuple sits at {pos}",
                        doc.pos_of_node(node)
                    )));
                }
                i += 1;
                continue;
            }
            let run_start = i;
            while i < page_size && !page.is_used(i) {
                i += 1;
            }
            for (k, slot) in (run_start..i).enumerate() {
                let pos = phys * page_size + slot;
                if page.sizes()[slot] as usize != i - slot {
                    return Err(corrupt(format!(
                        "unused slot {pos}: forward run {} (expected {})",
                        page.sizes()[slot],
                        i - slot
                    )));
                }
                if page.names()[slot] as usize != k + 1 {
                    return Err(corrupt(format!(
                        "unused slot {pos}: backward index {} (expected {})",
                        page.names()[slot],
                        k + 1
                    )));
                }
                if page.nodes()[slot] != NO_NODE {
                    return Err(corrupt(format!(
                        "unused slot {pos} still carries a node id"
                    )));
                }
            }
        }
    }
    if used_count != doc.used_count {
        return Err(corrupt(format!(
            "used_count {} but the pages hold {used_count} used slots",
            doc.used_count
        )));
    }
    for node in 0..doc.node_alloc_end() {
        if let Some(pos) = doc.pos_of_node(node) {
            if seen.get(&node) != Some(&(pos as usize)) {
                return Err(corrupt(format!(
                    "node→pos entry for node {node} points at bad slot {pos}"
                )));
            }
        }
    }

    // Tree shape over the view, via an explicit ancestor stack. Stack
    // entries: (level, size, used tuples seen before it); a subtree is
    // checked when it closes — exactly `size` used tuples lie between
    // its root and the first tuple outside it.
    let mut stack: Vec<(u16, u64, u64)> = Vec::new();
    let mut seen = 0u64;
    let closed = |(top_lvl, size, start): (u16, u64, u64), seen: u64, at: &str| {
        let found = seen - start - 1;
        if found == size {
            return Ok(());
        }
        Err(corrupt(format!(
            "node at level {top_lvl} has size {size} but {found} descendants {at}"
        )))
    };
    let mut p = 0u64;
    while let Some(q) = doc.next_used_at_or_after(p) {
        let lvl = doc.level(q).expect("used tuple");
        let sz = TreeView::size(doc, q);
        if seen == 0 {
            if lvl != 0 {
                return Err(corrupt(format!("first used tuple has level {lvl}, not 0")));
            }
        } else {
            // Pop completed subtrees.
            while let Some(&top) = stack.last() {
                if lvl > top.0 {
                    break;
                }
                closed(top, seen, &format!("before pre {q}"))?;
                stack.pop();
            }
            match stack.last() {
                Some(&(top_lvl, _, _)) if lvl == top_lvl + 1 => {}
                Some(&(top_lvl, _, _)) => {
                    return Err(corrupt(format!(
                        "level jump from {top_lvl} to {lvl} at pre {q}"
                    )))
                }
                None => return Err(corrupt(format!("second root at pre {q} (level {lvl})"))),
            }
        }
        stack.push((lvl, sz, seen));
        seen += 1;
        p = q + 1;
    }
    while let Some(top) = stack.pop() {
        closed(top, seen, "at the document's end")?;
    }

    // Element-name index ≡ a scan: for every interned element name the
    // probe must return exactly the named used elements, in document
    // order.
    {
        let mut scan: std::collections::HashMap<crate::values::QnId, Vec<u64>> =
            std::collections::HashMap::new();
        let mut p = 0u64;
        while let Some(q) = doc.next_used_at_or_after(p) {
            if let Some(qn) = doc.name_id(q) {
                scan.entry(qn).or_default().push(q);
            }
            p = q + 1;
        }
        for qn in (0..doc.pool().qname_count() as u32).map(crate::values::QnId) {
            let want = scan.remove(&qn).unwrap_or_default();
            let got = doc
                .elements_named(qn)
                .expect("paged docs maintain an index");
            if got != want {
                return Err(corrupt(format!(
                    "name index for qn {} diverged: {} indexed vs {} scanned",
                    qn.0,
                    got.len(),
                    want.len()
                )));
            }
            if doc.elements_named_count(qn) != Some(want.len() as u64) {
                return Err(corrupt(format!(
                    "name index count for qn {} diverged",
                    qn.0
                )));
            }
            // Windowed probe ≡ the whole probe cut to the window, for
            // windows that start and end on, just past and between
            // postings.
            let at = |num: usize| want.get(want.len() * num / 4).copied().unwrap_or(0);
            for lo in [0, at(1), at(1) + 1, at(2)] {
                for hi in [lo, at(2), at(3) + 1, doc.pre_end()] {
                    let cut: Vec<u64> = want
                        .iter()
                        .copied()
                        .filter(|&p| lo <= p && p < hi)
                        .collect();
                    if doc.elements_named_in(qn, lo, hi).as_deref() != Some(&cut[..]) {
                        return Err(corrupt(format!(
                            "name index window [{lo}, {hi}) for qn {} diverged",
                            qn.0
                        )));
                    }
                }
            }
        }
    }

    // Content index ≡ a scan: recompute every element's content state
    // and attribute rows from the tree, then require that each probe
    // (attribute exact, text exact, full numeric range) returns exactly
    // the scanned nodes, in document order, and that each count equals
    // its probe's length.
    {
        use crate::values::{xpath_number, NumRange, QnId};
        use std::collections::HashMap;
        let mut attr_scan: HashMap<(QnId, String), Vec<u64>> = HashMap::new();
        let mut text_scan: HashMap<(QnId, String), Vec<u64>> = HashMap::new();
        let mut complex_scan: HashMap<QnId, Vec<u64>> = HashMap::new();
        let mut names: Vec<QnId> = Vec::new();
        let mut p = 0u64;
        while let Some(q) = doc.next_used_at_or_after(p) {
            if doc.kind(q) == Some(Kind::Element) {
                let qn = doc.name_id(q).expect("element has a name");
                names.push(qn);
                // Complex iff an element descendant exists; the search
                // stops at the first one.
                let end = doc.region_end(q);
                if (q + 1..end).any(|d| doc.kind(d) == Some(Kind::Element)) {
                    complex_scan.entry(qn).or_default().push(q);
                } else {
                    let key = doc.string_value(q);
                    text_scan.entry((qn, key)).or_default().push(q);
                }
                for (aqn, prop) in doc.attributes(q) {
                    let value = doc.pool().prop(prop).unwrap_or_default().to_string();
                    attr_scan.entry((aqn, value)).or_default().push(q);
                }
            }
            p = q + 1;
        }
        names.sort_unstable();
        names.dedup();
        for ((aqn, value), want) in &attr_scan {
            let got = doc
                .nodes_with_attr_value(*aqn, value)
                .expect("paged docs maintain a content index");
            if &got != want {
                return Err(corrupt(format!(
                    "content index @{}={value:?}: {} indexed vs {} scanned",
                    aqn.0,
                    got.len(),
                    want.len()
                )));
            }
            if doc.nodes_with_attr_value_count(*aqn, value) != Some(want.len() as u64) {
                return Err(corrupt(format!(
                    "content index count for @{}={value:?} diverged",
                    aqn.0
                )));
            }
        }
        let all = NumRange {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            lo_incl: true,
            hi_incl: true,
        };
        // Attribute numeric arm: the full range must return exactly the
        // elements whose attribute value parses as an XPath number.
        {
            let mut attr_names: Vec<QnId> = attr_scan.keys().map(|&(qn, _)| qn).collect();
            attr_names.sort_unstable();
            attr_names.dedup();
            for aqn in attr_names {
                let want_numeric: Vec<u64> = {
                    let mut v: Vec<u64> = attr_scan
                        .iter()
                        .filter(|((qn, value), _)| *qn == aqn && !xpath_number(value).is_nan())
                        .flat_map(|(_, pres)| pres.iter().copied())
                        .collect();
                    v.sort_unstable();
                    v
                };
                let got = doc
                    .nodes_with_attr_value_range(aqn, &all)
                    .expect("paged docs maintain a content index");
                if got != want_numeric {
                    return Err(corrupt(format!(
                        "content index attr numeric arm for qn {} diverged: {} vs {} scanned",
                        aqn.0,
                        got.len(),
                        want_numeric.len()
                    )));
                }
                if doc.nodes_with_attr_value_range_count(aqn, &all)
                    != Some(want_numeric.len() as u64)
                {
                    return Err(corrupt(format!(
                        "content index attr range count for qn {} diverged",
                        aqn.0
                    )));
                }
            }
        }
        for ((qn, key), want) in &text_scan {
            let probe = doc
                .elements_with_text(*qn, key)
                .expect("paged docs maintain a content index");
            if &probe.exact != want {
                return Err(corrupt(format!(
                    "content index text {}={key:?}: {} indexed vs {} scanned",
                    qn.0,
                    probe.exact.len(),
                    want.len()
                )));
            }
            // The count includes the name's complex candidates.
            let complex = complex_scan.get(qn).map_or(0, Vec::len);
            if doc.elements_with_text_count(*qn, key) != Some((want.len() + complex) as u64) {
                return Err(corrupt(format!(
                    "content index text count for {}={key:?} diverged",
                    qn.0
                )));
            }
        }
        for qn in names {
            let complex = complex_scan.get(&qn).map_or(&[][..], Vec::as_slice);
            let probe = doc
                .elements_with_text(qn, "\u{1}never-a-value")
                .expect("paged docs maintain a content index");
            if !probe.exact.is_empty() {
                return Err(corrupt(format!(
                    "content index text probe for qn {} matched a value no element has",
                    qn.0
                )));
            }
            if probe.unindexed != complex {
                return Err(corrupt(format!(
                    "content index complex list for qn {} diverged: {} vs {} scanned",
                    qn.0,
                    probe.unindexed.len(),
                    complex.len()
                )));
            }
            // The full numeric range must return exactly the simple
            // elements whose keys parse as XPath numbers.
            let want_numeric: Vec<u64> = {
                let mut v: Vec<u64> = text_scan
                    .iter()
                    .filter(|((k, key), _)| *k == qn && !xpath_number(key).is_nan())
                    .flat_map(|(_, pres)| pres.iter().copied())
                    .collect();
                v.sort_unstable();
                v
            };
            let got = doc
                .elements_with_text_range(qn, &all)
                .expect("paged docs maintain a content index");
            if got.exact != want_numeric {
                return Err(corrupt(format!(
                    "content index numeric arm for qn {} diverged: {} vs {} scanned",
                    qn.0,
                    got.exact.len(),
                    want_numeric.len()
                )));
            }
            if doc.elements_with_text_range_count(qn, &all)
                != Some((want_numeric.len() + complex.len()) as u64)
            {
                return Err(corrupt(format!(
                    "content index text range count for qn {} diverged",
                    qn.0
                )));
            }
        }
        // Degree statistics against a full scan: for every key space the
        // maintained distinct and total figures must equal the values
        // recomputed from the tree, and the max must bound the longest
        // list — the contract the pessimistic cardinality estimator
        // relies on.
        {
            let scan_degrees = |scan: &HashMap<(QnId, String), Vec<u64>>| {
                let mut per_qn: HashMap<QnId, (u64, u64, u64)> = HashMap::new();
                for ((qn, _), pres) in scan {
                    let e = per_qn.entry(*qn).or_default();
                    e.0 += 1;
                    e.1 += pres.len() as u64;
                    e.2 = e.2.max(pres.len() as u64);
                }
                per_qn
            };
            for (aqn, (distinct, total, max)) in scan_degrees(&attr_scan) {
                let got = doc
                    .attr_degree_stats(aqn)
                    .expect("paged docs maintain a content index");
                if got.distinct_keys != distinct
                    || got.total_postings != total
                    || got.max_postings < max
                {
                    return Err(corrupt(format!(
                        "attr degree stats for qn {} diverged: \
                         {got:?} vs scanned ({distinct}, {total}, {max})",
                        aqn.0
                    )));
                }
            }
            for (tqn, (distinct, total, max)) in scan_degrees(&text_scan) {
                let got = doc
                    .text_degree_stats(tqn)
                    .expect("paged docs maintain a content index");
                // Complex candidates widen the total and the max.
                let complex = complex_scan.get(&tqn).map_or(0, Vec::len) as u64;
                if got.distinct_keys != distinct
                    || got.total_postings != total + complex
                    || got.max_postings < max + complex
                {
                    return Err(corrupt(format!(
                        "text degree stats for qn {} diverged: \
                         {got:?} vs scanned ({distinct}, {total}, {max}) + {complex}",
                        tqn.0
                    )));
                }
            }
        }
    }

    // Attribute runs, and the content index's attribute entries
    // against the rows the runs reach.
    let mut in_run = vec![false; doc.attr_node.len()];
    let mut reached = std::collections::HashSet::new();
    let mut p = 0u64;
    while let Some(q) = doc.next_used_at_or_after(p) {
        let (page, i) = doc.slot(q).expect("used slot resolves");
        let (node, first) = (u64::from(page.nodes()[i]), page.values()[i]);
        if page.kind(i) == Some(Kind::Element) && first != NO_NAME {
            if doc.attr_run(node, first).is_empty() {
                return Err(corrupt(format!(
                    "element {node}'s slot points at row {first}, not at a row of its own"
                )));
            }
            for r in doc.attr_run(node, first) {
                if std::mem::replace(&mut in_run[r], true) {
                    return Err(corrupt(format!("attribute row {r} lies in two runs")));
                }
                reached.insert((doc.attr_qn[r], doc.attr_prop[r], node));
            }
        }
        p = q + 1;
    }
    for p in doc.content_index.attr_entries() {
        if !reached.contains(&(p.qn, crate::PropId(p.value), u64::from(p.node))) {
            return Err(corrupt(format!(
                "content index entry @{}={} on node {} matches no reached row",
                p.qn.0, p.value, p.node
            )));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PageConfig;
    use crate::update::InsertPosition;
    use crate::PagedDoc;
    use mbxq_xml::Document;

    const PAPER_DOC: &str =
        "<a><b><c><d></d><e></e></c></b><f><g></g><h><i></i><j></j></h></f></a>";

    #[test]
    fn fresh_doc_passes() {
        let d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        check_paged(&d).unwrap();
    }

    #[test]
    fn passes_after_update_sequence() {
        let mut d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        let g = d.pre_to_node(6).unwrap();
        let sub = Document::parse_fragment("<k><l/><m/></k>").unwrap();
        d.insert(InsertPosition::LastChildOf(g), &sub).unwrap();
        check_paged(&d).unwrap();
        let b = d.pre_to_node(1).unwrap();
        d.delete(b).unwrap();
        check_paged(&d).unwrap();
    }

    #[test]
    fn detects_corrupted_size() {
        let mut d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        d.page_mut(0).cols_mut().sizes[0] = 3; // root claims 3 descendants instead of 9
        assert!(check_paged(&d).is_err());
    }

    #[test]
    fn detects_corrupted_node_map() {
        let mut d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        d.node_pos[0] = 5;
        assert!(check_paged(&d).is_err());
    }

    #[test]
    fn detects_corrupted_level_summary() {
        let mut d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        // Page 1 holds h (level 2), i, j: clearing h without rebuilding
        // leaves the summary at 2 over levels {3, 3}.
        d.page_mut(1).clear_slot(0);
        d.node_pos[7] = crate::page::NO_POS;
        d.used_count -= 1;
        assert!(matches!(
            check_paged(&d),
            Err(StorageError::Corrupt { message }) if message.contains("level summary")
        ));
    }

    #[test]
    fn detects_a_stale_summary_column_entry() {
        let mut d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        check_paged(&d).unwrap();
        // Page 1 holds h (level 2), i and j (level 3): a summary of 3
        // would let a parent walk skip h.
        d.min_levels[1] = 3;
        assert!(matches!(
            check_paged(&d),
            Err(StorageError::Corrupt { message }) if message == "page 1: level summary 3 (expected 2)"
        ));
    }

    #[test]
    fn detects_liveness_disagreement() {
        let mut d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        d.page_mut(0).cols_mut().kinds[1] = Kind::UNUSED; // level still says used
        assert!(matches!(
            check_paged(&d),
            Err(StorageError::Corrupt { message }) if message.contains("kind byte")
        ));
    }

    #[test]
    fn detects_a_slot_pointing_at_another_elements_run() {
        let xml = r#"<a><b x="1" y="2"/><c z="3"/></a>"#;
        let mut d = PagedDoc::parse_str(xml, PageConfig::new(8, 88).unwrap()).unwrap();
        check_paged(&d).unwrap();
        let b_first = d.page(0).values()[1];
        d.page_mut(0).cols_mut().values[2] = b_first; // c's slot → b's run
        assert!(matches!(
            check_paged(&d),
            Err(StorageError::Corrupt { message }) if message.contains("not at a row of its own")
        ));
    }

    #[test]
    fn detects_corrupted_run() {
        let mut d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        d.page_mut(0).cols_mut().sizes[7] = 99; // slot 7 is the unused tail of page 0
        assert!(check_paged(&d).is_err());
    }
}
