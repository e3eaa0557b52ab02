//! Vacuum: rebuilding the logical-page layout at the configured fill
//! factor.
//!
//! The paper's free-space discipline degrades over time: deletes leave
//! arbitrarily fragmented pages (hurting scan locality), bulk inserts
//! fill their target page to 100 % (so the *next* nearby insert
//! overflows immediately), and spliced overflow pages make the physical
//! order diverge from the logical order (defeating sequential prefetch
//! in the real mmap-backed system). Production deployments of such a
//! scheme need an offline/maintenance **vacuum** that re-shreds the live
//! tuples into a fresh, sequential page sequence at the configured fill
//! factor — this module provides it, preserving node ids and attributes
//! (only positions change; `node→pos` is rebuilt, exactly the mutable
//! state the paper designed the indirection for).

use crate::names::NameIndex;
use crate::paged::{name_index_base, PagedDoc};
use crate::types::PageConfig;
use crate::view::TreeView;
use crate::Result;

/// Outcome statistics of a vacuum run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VacuumReport {
    /// Logical pages before.
    pub pages_before: usize,
    /// Logical pages after.
    pub pages_after: usize,
    /// Live tuples relocated (all of them — vacuum is a full rewrite).
    pub tuples_moved: u64,
    /// Unused slots reclaimed (capacity shrink).
    pub slots_reclaimed: u64,
    /// Dead attribute rows dropped from the attribute table.
    pub attr_rows_reclaimed: u64,
}

impl PagedDoc {
    /// Rewrites the document into a fresh page sequence at `cfg`'s fill
    /// factor: used tuples in document order, pages in physical ==
    /// logical order, every page with the configured headroom. Node ids,
    /// attributes and the value pool are preserved; only positions (and
    /// therefore pre ranks' *physical* backing) change.
    pub fn vacuum_into(&mut self, cfg: PageConfig) -> Result<VacuumReport> {
        // Validates `cfg` and gives the fresh, empty layout to move into.
        let fresh = PagedDoc::empty(cfg)?;
        let pages_before = self.pages.len();
        let capacity_before = self.pre_end();

        // Collect live tuples in view (document) order.
        let mut live = Vec::with_capacity(self.used_count as usize);
        let mut p = 0u64;
        while let Some(q) = self.next_used_at_or_after(p) {
            let (page, i) = self.slot(q).expect("used slot resolves");
            live.push(page.read(i));
            p = q + 1;
        }

        // Fresh layout; the node-id space is preserved (ids above the
        // rebuilt set stay NULL, e.g. ids of deleted nodes).
        let alloc_end = self.node_alloc_end();
        self.cfg = cfg;
        self.shift = fresh.shift;
        self.pages = fresh.pages;
        self.map = fresh.map;
        self.node_pos = fresh.node_pos;
        self.used_count = 0;
        self.reserve_node_ids(alloc_end)?;
        self.lay_out_appended(&live)?;
        let n_pages = self.pages.len();
        let slots = self.pre_end();

        // Drop attribute rows orphaned by deletes (they were left in the
        // columns as dead space), renumbering the survivors, and fold
        // the side-structure deltas into fresh shared bases.
        let rows_before = self.attr_node.len() as u64;
        self.rebuild_attr_table();
        // The live tuples are already in document order — rebuild the
        // element-name index from them with an empty delta, and re-scan
        // the fresh layout for the content index.
        self.name_index = NameIndex::from_base(name_index_base(&live));
        let content = crate::values::ContentIndex::build_from_view(&*self);
        self.content_index = content;
        self.pool.compact();
        let attr_rows_reclaimed = rows_before - self.attr_node.len() as u64;

        Ok(VacuumReport {
            pages_before,
            pages_after: n_pages,
            tuples_moved: live.len() as u64,
            slots_reclaimed: capacity_before.saturating_sub(slots),
            attr_rows_reclaimed,
        })
    }

    /// Vacuums with the document's current page configuration.
    pub fn vacuum(&mut self) -> Result<VacuumReport> {
        self.vacuum_into(self.cfg)
    }

    /// Fraction of allocated slots holding live tuples (0.0–1.0); a
    /// trigger metric for vacuum scheduling.
    pub fn occupancy(&self) -> f64 {
        if self.pages.is_empty() {
            return 1.0;
        }
        self.used_count as f64 / self.pre_end() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::to_xml;
    use crate::update::InsertPosition;
    use mbxq_xml::Document;

    const DOC: &str = "<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>";

    fn fragmented_doc() -> PagedDoc {
        let cfg = PageConfig::new(8, 88).unwrap();
        let mut d = PagedDoc::parse_str(DOC, cfg).unwrap();
        // Fragment it: bulk insert (splices overflow pages), then delete
        // (punches holes).
        let g = d.pre_to_node(6).unwrap();
        let mut xml = String::from("<k>");
        for i in 0..20 {
            xml.push_str(&format!("<x{i}/>"));
        }
        xml.push_str("</k>");
        let sub = Document::parse_fragment(&xml).unwrap();
        d.insert(InsertPosition::LastChildOf(g), &sub).unwrap();
        let b = d.pre_to_node(1).unwrap();
        d.delete(b).unwrap();
        d
    }

    #[test]
    fn vacuum_preserves_the_document() {
        let mut d = fragmented_doc();
        let before = to_xml(&d).unwrap();
        let used_before = d.used_count();
        let report = d.vacuum().unwrap();
        crate::invariants::check_paged(&d).unwrap();
        assert_eq!(to_xml(&d).unwrap(), before);
        assert_eq!(d.used_count(), used_before);
        assert_eq!(report.tuples_moved, used_before);
    }

    #[test]
    fn vacuum_restores_fill_factor() {
        let mut d = fragmented_doc();
        d.vacuum().unwrap();
        // Every page except possibly the last holds exactly fill_target
        // tuples.
        let fill = d.config().fill_target();
        let pages = d.stats().pages;
        for page in 0..pages.saturating_sub(1) {
            assert_eq!(
                d.config().page_size - d.free_in_page(page),
                fill,
                "page {page}"
            );
        }
    }

    #[test]
    fn vacuum_preserves_node_ids_and_attributes() {
        let cfg = PageConfig::new(8, 75).unwrap();
        let mut d =
            PagedDoc::parse_str(r#"<r><a id="one"/><b id="two"><c/></b></r>"#, cfg).unwrap();
        let a = d.pre_to_node(1).unwrap();
        let b = d.pre_to_node(2).unwrap();
        d.delete(a).unwrap();
        d.vacuum().unwrap();
        // b's node id still resolves and keeps its attribute.
        let b_pre = d.node_to_pre(b).unwrap();
        assert_eq!(
            d.attribute_value(b_pre, &mbxq_xml::QName::local("id")),
            Some("two".to_string())
        );
        // a's id stays dead.
        assert!(d.node_to_pre(a).is_err());
    }

    #[test]
    fn vacuum_reclaims_space_and_can_change_page_size() {
        let mut d = fragmented_doc();
        let cap_before = d.stats().capacity;
        // Same page size: fragmentation (the deleted subtree's holes)
        // is reclaimed.
        let report = d.vacuum().unwrap();
        assert!(d.stats().capacity < cap_before, "capacity should shrink");
        assert!(report.slots_reclaimed > 0);
        // Re-shape to a different page size.
        d.vacuum_into(PageConfig::new(64, 80).unwrap()).unwrap();
        assert_eq!(d.config().page_size, 64);
        crate::invariants::check_paged(&d).unwrap();
        // Still updatable afterwards.
        let root = d.pre_to_node(d.root_pre().unwrap()).unwrap();
        let sub = Document::parse_fragment("<post/>").unwrap();
        d.insert(InsertPosition::LastChildOf(root), &sub).unwrap();
        crate::invariants::check_paged(&d).unwrap();
    }

    #[test]
    fn occupancy_reflects_fragmentation() {
        let mut d = fragmented_doc();
        let occ_frag = d.occupancy();
        d.vacuum().unwrap();
        assert!(d.occupancy() >= occ_frag);
        assert!(d.occupancy() <= 1.0);
    }
}
