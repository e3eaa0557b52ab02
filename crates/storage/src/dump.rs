//! Human-readable dumps of the storage tables, in the style of the
//! paper's Figure 4 — one row per slot with `pos | size | level | node |
//! content`, unused tuples shown with `level = NULL` and their run
//! lengths, and the view (logical page order) printed alongside the
//! physical layout when they differ.

use crate::page::Tuple;
use crate::paged::PagedDoc;
use crate::types::Kind;
use crate::view::TreeView;
use std::fmt::Write;

impl PagedDoc {
    /// Renders the base table in *physical* order, page by page — the
    /// `pos/size/level` table of Figure 4.
    pub fn dump_physical(&self) -> String {
        let mut out = String::new();
        let ps = self.cfg.page_size;
        let _ = writeln!(
            out,
            "pos/size/level table ({} pages of {ps} slots)",
            self.pages.len()
        );
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>6} {:>6}  content",
            "pos", "size", "level", "node"
        );
        for phys in 0..self.pages.len() {
            let page = self.page(phys);
            let logical = self.map.physical_to_logical(phys).expect("page exists");
            let _ = writeln!(out, "-- physical page {phys} (logical {logical}) --");
            for slot in 0..ps {
                let pos = phys * ps + slot;
                if page.is_used(slot) {
                    let _ = writeln!(
                        out,
                        "{:>6} {:>6} {:>6} {:>6}  {}",
                        pos,
                        page.sizes()[slot],
                        page.levels()[slot],
                        page.nodes()[slot],
                        self.describe(&page.read(slot)),
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "{:>6} {:>6}   NULL      -  (unused, run {} fwd / {} back)",
                        pos,
                        page.sizes()[slot],
                        page.sizes()[slot],
                        page.names()[slot],
                    );
                }
            }
        }
        out
    }

    /// Renders the `pre/size/level` *view* (logical order) — what the
    /// query processor sees through the pageOffset mapping.
    pub fn dump_view(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "pre/size/level view ({} slots)", self.pre_end());
        let _ = writeln!(out, "{:>6} {:>6} {:>6}  content", "pre", "size", "level");
        for pre in 0..self.pre_end() {
            match self.level(pre) {
                Some(lvl) => {
                    let _ = writeln!(
                        out,
                        "{:>6} {:>6} {:>6}  {}{}",
                        pre,
                        TreeView::size(self, pre),
                        lvl,
                        "  ".repeat(lvl as usize),
                        self.describe(&self.slot(pre).map(|(p, i)| p.read(i)).expect("used")),
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{:>6} {:>6}   NULL  (unused)",
                        pre,
                        TreeView::size(self, pre),
                    );
                }
            }
        }
        out
    }

    /// One-line description of a used tuple.
    fn describe(&self, t: &Tuple) -> String {
        match t.kind {
            Kind::Element => {
                let name = self
                    .pool
                    .qname(crate::values::QnId(t.name))
                    .map(|q| q.to_string())
                    .unwrap_or_else(|| "?".into());
                format!("<{name}>")
            }
            Kind::Text => {
                let text = self.pool.text(t.value).unwrap_or("?");
                format!("text {:?}", truncate(text, 24))
            }
            Kind::Comment => {
                let text = self.pool.comment(t.value).unwrap_or("?");
                format!("<!--{}-->", truncate(text, 20))
            }
            Kind::ProcessingInstruction => {
                let (target, _) = self.pool.instruction(t.value).unwrap_or(("?", ""));
                format!("<?{target}?>")
            }
        }
    }
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PageConfig;
    use crate::update::InsertPosition;
    use mbxq_xml::Document;

    const PAPER_DOC: &str = "<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>";

    #[test]
    fn physical_dump_shows_pages_and_runs() {
        let d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        let dump = d.dump_physical();
        assert!(dump.contains("physical page 0 (logical 0)"));
        assert!(dump.contains("physical page 1 (logical 1)"));
        assert!(dump.contains("<a>"));
        assert!(dump.contains("NULL"));
        assert!(dump.contains("run 5 fwd"));
    }

    #[test]
    fn view_dump_reflects_logical_order_after_splice() {
        let mut d = PagedDoc::parse_str(PAPER_DOC, PageConfig::new(8, 88).unwrap()).unwrap();
        let g = d.pre_to_node(6).unwrap();
        let sub = Document::parse_fragment("<k><l/><m/></k>").unwrap();
        d.insert(InsertPosition::LastChildOf(g), &sub).unwrap();
        let phys = d.dump_physical();
        // The spliced page is physically last but logically in between.
        assert!(phys.contains("physical page 2 (logical 1)"));
        let view = d.dump_view();
        // In the view, <k> appears before <h> (Figure 4's final layout).
        let k_at = view.find("<k>").expect("k visible");
        let h_at = view.find("<h>").expect("h visible");
        assert!(k_at < h_at);
    }

    #[test]
    fn dump_handles_all_node_kinds() {
        let d = PagedDoc::parse_str(
            "<r>text<!--note--><?pi data?></r>",
            PageConfig::new(8, 100).unwrap(),
        )
        .unwrap();
        let dump = d.dump_view();
        assert!(dump.contains("text \"text\""));
        assert!(dump.contains("<!--note-->"));
        assert!(dump.contains("<?pi?>"));
    }
}
