//! `mbxq-storage` — relational XML document storage in the pre/post plane.
//!
//! This crate implements both storage schemas of the paper:
//!
//! * [`readonly`] — the original **read-only** schema (Figure 5): a dense
//!   `pre/size/level` table with void `pre`, plus `attr`, `prop`, `qn` and
//!   node-value tables, produced by the document shredder.
//! * [`paged`] — the **updateable** schema (Figures 4, 6, 7): a
//!   `pos/size/level/node` base table divided into logical pages with
//!   unused tuples, a `pageOffset` table giving the logical page order, and
//!   a `node→pos` map; `pre` numbers exist only in the *view* obtained by
//!   reading the pages in logical order, so structural updates never
//!   rewrite them. [`page`] is one such logical page: every column of its
//!   slots in one copy-on-write allocation.
//! * [`update`] — structural insert (cases 2a/2b of Figure 7) and delete
//!   on the paged schema.
//! * [`naive`] — the strawman the paper argues against: structural updates
//!   on the dense encoding by physically shifting all following tuples
//!   (O(N)); kept as an oracle and as the baseline for the update-cost
//!   ablation benchmarks.
//! * `shred` (crate-internal) — the shredder's front end: one stager fed
//!   either by the XML parser's event stream (whole documents, never
//!   built as a tree) or by an explicit-stack walk of a fragment tree
//!   (inserts). [`serialize`] is its mirror image: text written straight
//!   from the view in one pass.
//! * [`view`] — the [`TreeView`] trait: the uniform pre-plane interface
//!   the axis engine (`mbxq-axes`) evaluates against, so staircase join
//!   code is *identical* for both schemas, exactly as the paper keeps
//!   staircase join "unmodified" on top of the memory-mapped view (§4).
//!
//! # `size` semantics with unused tuples
//!
//! In the paged encoding, the `size` of a *used* tuple counts its **used**
//! descendant tuples only: Figure 4 leaves all sizes unchanged when pages
//! gain unused padding, and ancestor maintenance applies delta-increments
//! equal to the *insert volume* (three for `<k><l/><m/></k>`). A subtree's
//! pre-range may therefore contain holes, and region ends are detected by
//! `level` comparisons while holes are skipped via their run length (the
//! `size` column of an unused tuple holds the number of remaining
//! consecutive unused tuples, §3). For O(1) *backward* hole skipping —
//! which the forward-only run lengths of the paper do not support — we
//! stash the backward run distance in the (otherwise meaningless) `name`
//! slot of unused tuples; DESIGN.md records this as an implementation
//! refinement.

pub mod checkpoint;
pub mod codec;
pub mod dump;
pub mod invariants;
pub mod naive;
pub(crate) mod names;
pub mod page;
pub mod paged;
pub mod readonly;
pub mod serialize;
pub(crate) mod shred;
pub mod snapshot;
pub mod types;
pub mod update;
pub mod vacuum;
pub mod values;
pub mod view;

pub use checkpoint::Fragment;
pub use naive::{NaiveDoc, NaiveReport};
pub use paged::{PagedDoc, PagedStats};
pub use readonly::ReadOnlyDoc;
pub use snapshot::ArcCell;
pub use types::{Kind, NodeId, PageConfig, StorageError, ValueRef};
pub use update::{DeleteReport, InsertCase, InsertPosition, InsertReport};
pub use vacuum::VacuumReport;
pub use values::{xpath_number, DegreeStats, NumRange, PropId, QnId, TextProbe, ValuePool};
pub use view::{PreChunk, TreeView};

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, types::StorageError>;
