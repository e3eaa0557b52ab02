//! `mbxq-bat` — a miniature MonetDB-style binary-column kernel.
//!
//! MonetDB stores all data in *Binary Association Tables* (BATs): two-column
//! relations of `(head, tail)`. In practice almost every BAT in the
//! MonetDB/XQuery document schema has a **void head** — a *virtual* column
//! holding a densely ascending object-id sequence (0,1,2,…) that is never
//! materialized and therefore costs no storage and no update work. A BAT
//! with a void head is simply an array of tail values, and lookups by head
//! value become **positional** array accesses (a single CPU instruction,
//! per the paper §2.2).
//!
//! This crate reproduces the kernel facilities the paper's update mechanism
//! depends on:
//!
//! * [`VoidBat`] — a BAT with a virtual dense head (`seqbase ..`) and a
//!   typed tail: a lookup by head oid is one array index.
//! * [`PageMap`] — the *logical page order* indirection of §3: physical
//!   pages of a base table presented in a different logical order, which is
//!   how MonetDB's adaptive memory-mapping primitive makes appended
//!   overflow pages appear "halfway" in the `pre/size/level` view; both
//!   directions are copy-on-write columns.
//! * [`cow`] — the in-memory equivalent of MonetDB's copy-on-write
//!   memory maps: [`CowDir`], a two-level directory of shared leaves
//!   (the document's pages), [`CowVec`], a column of values on it (the
//!   side tables and the interners), and [`CowSorted`], a sorted
//!   sequence on it (the posting lists of the indexes). A clone copies
//!   one reference count and shares every leaf until one side writes
//!   it. [`Blocks`] walks a table's blocks (directory, chunks, leaves)
//!   by address and size: the one source of sharing diagnostics and
//!   heap accounting.

pub mod cow;
pub mod pagemap;

mod voidbat;

pub use cow::{unshared, Block, Blocks, CowDir, CowSorted, CowVec, Cursor, Level, FANOUT};
pub use pagemap::{PageId, PageMap};
pub use voidbat::VoidBat;

/// Object identifier — the value domain of void (virtual) head columns.
///
/// MonetDB uses `oid`; we use a 64-bit integer so node ids never wrap even
/// under adversarial update workloads.
pub type Oid = u64;

/// Errors produced by the column kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatError {
    /// A positional access was out of the BAT's head range.
    OutOfRange {
        /// The oid that was requested.
        oid: Oid,
        /// The first valid oid (seqbase).
        seqbase: Oid,
        /// Number of tuples in the BAT.
        count: usize,
    },
}

impl core::fmt::Display for BatError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BatError::OutOfRange {
                oid,
                seqbase,
                count,
            } => write!(
                f,
                "oid {oid} out of range [{seqbase}, {})",
                seqbase + *count as Oid
            ),
        }
    }
}

impl std::error::Error for BatError {}

/// Result alias for kernel operations.
pub type Result<T> = std::result::Result<T, BatError>;
