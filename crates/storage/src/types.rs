//! Shared identifier and configuration types for the storage layer.

/// Node kind — the paper's `kind` column, which "determines to which table
/// `ref` refers" (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    /// Element node; `name` refers into the `qn` table.
    Element = 0,
    /// Text node; `value` refers into the text table.
    Text = 1,
    /// Comment node; `value` refers into the comment table.
    Comment = 2,
    /// Processing instruction; `value` refers into the `ins` table.
    ProcessingInstruction = 3,
}

impl Kind {
    /// The byte an **unused slot** carries in a kind-byte column
    /// ([`crate::PreChunk::kinds`]): equal to no kind, so comparing a
    /// kind byte against a wanted kind tests liveness in the same step.
    pub const UNUSED: u8 = u8::MAX;

    /// The kind a column byte encodes; `None` for [`Kind::UNUSED`].
    #[inline]
    pub fn from_byte(byte: u8) -> Option<Kind> {
        match byte {
            0 => Some(Kind::Element),
            1 => Some(Kind::Text),
            2 => Some(Kind::Comment),
            3 => Some(Kind::ProcessingInstruction),
            _ => None,
        }
    }

    /// A kind column as its bytes (every one a live kind).
    #[inline]
    pub fn bytes(kinds: &[Kind]) -> &[u8] {
        const _: () = assert!(std::mem::size_of::<Kind>() == 1);
        // SAFETY: Kind is #[repr(u8)] with size and alignment 1, so a
        // &[Kind] reinterprets losslessly as &[u8] of the same length.
        unsafe { std::slice::from_raw_parts(kinds.as_ptr().cast(), kinds.len()) }
    }
}

/// Immutable per-node identifier.
///
/// "We decided to give each node a unique node number that never changes
/// through its lifetime" (§3.1) — this decouples the attribute table and
/// any long-lived external reference from `pos` values, which shift inside
/// pages under updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Reference from a tree tuple into one of the value tables; which table
/// is determined by the tuple's [`Kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueRef(pub u32);

/// Configuration of the logical-page layout used by the updateable schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageConfig {
    /// Tuples per logical page; must be a power of two. The paper uses
    /// 65536 (the virtual-memory mapping granularity); scaled experiments
    /// use smaller powers of two so documents still span many pages.
    pub page_size: usize,
    /// Percentage (0–100) of each page the shredder fills with real
    /// tuples; the rest is left unused. "The document shredder already
    /// leaves a certain (configurable) percentage of tuples unused in each
    /// logical page" (§3). The evaluation keeps about 20 % unused, i.e. a
    /// fill of 80.
    pub fill_percent: u8,
}

impl Default for PageConfig {
    fn default() -> Self {
        PageConfig {
            page_size: 1024,
            fill_percent: 80,
        }
    }
}

impl PageConfig {
    /// Creates a configuration, validating the parameters.
    pub fn new(page_size: usize, fill_percent: u8) -> Result<Self, StorageError> {
        if !page_size.is_power_of_two() || page_size < 4 {
            return Err(StorageError::BadConfig {
                message: format!("page_size must be a power of two >= 4, got {page_size}"),
            });
        }
        if fill_percent == 0 || fill_percent > 100 {
            return Err(StorageError::BadConfig {
                message: format!("fill_percent must be in 1..=100, got {fill_percent}"),
            });
        }
        Ok(PageConfig {
            page_size,
            fill_percent,
        })
    }

    /// Number of tuples the shredder places on a page before starting the
    /// next one (at least 1).
    pub fn fill_target(&self) -> usize {
        ((self.page_size * self.fill_percent as usize) / 100).max(1)
    }
}

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Invalid configuration parameters.
    BadConfig {
        /// Description of the problem.
        message: String,
    },
    /// A pre rank was outside the view, or referred to an unused tuple.
    BadPre {
        /// The offending pre rank.
        pre: u64,
        /// What the caller was doing.
        context: &'static str,
    },
    /// A node id is unknown or refers to a deleted node.
    BadNode {
        /// The offending node id.
        node: NodeId,
    },
    /// An update targeted a node that cannot accept it (e.g. inserting a
    /// sibling of the root, or children under a text node).
    InvalidTarget {
        /// Description of the violation.
        message: String,
    },
    /// Underlying column-kernel failure (internal inconsistency).
    Kernel(String),
    /// Invariant checker found corruption.
    Corrupt {
        /// Description of the violated invariant.
        message: String,
    },
    /// A shard would outgrow what its 32-bit positions and node ids can
    /// address (2³²−2 slots, 2³²−2 node ids).
    TooLarge {
        /// What would overflow ("slots", "node ids", …).
        what: &'static str,
        /// The count or value that does not fit.
        count: u64,
    },
    /// A document nests deeper than the `level` column can record
    /// (65 535 levels; the last `u16` is the NULL of unused slots).
    TooDeep {
        /// The nesting depth that was reached.
        depth: u64,
    },
}

impl core::fmt::Display for StorageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StorageError::BadConfig { message } => write!(f, "bad configuration: {message}"),
            StorageError::BadPre { pre, context } => {
                write!(f, "invalid pre rank {pre} while {context}")
            }
            StorageError::BadNode { node } => write!(f, "unknown or deleted node {node}"),
            StorageError::InvalidTarget { message } => write!(f, "invalid target: {message}"),
            StorageError::Kernel(m) => write!(f, "column kernel: {m}"),
            StorageError::Corrupt { message } => write!(f, "storage corrupt: {message}"),
            StorageError::TooLarge { what, count } => write!(
                f,
                "{count} {what} exceed what one shard can address (at most 4294967294)"
            ),
            StorageError::TooDeep { depth } => write!(
                f,
                "document nested {depth} deep; at most 65535 levels are supported"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<mbxq_bat::BatError> for StorageError {
    fn from(e: mbxq_bat::BatError) -> Self {
        StorageError::Kernel(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_config_validation() {
        assert!(PageConfig::new(1024, 80).is_ok());
        assert!(PageConfig::new(1000, 80).is_err());
        assert!(PageConfig::new(2, 80).is_err());
        assert!(PageConfig::new(64, 0).is_err());
        assert!(PageConfig::new(64, 101).is_err());
    }

    #[test]
    fn fill_target_rounds_down_but_stays_positive() {
        assert_eq!(PageConfig::new(1024, 80).unwrap().fill_target(), 819);
        assert_eq!(PageConfig::new(8, 100).unwrap().fill_target(), 8);
        assert_eq!(PageConfig::new(8, 1).unwrap().fill_target(), 1);
    }
}
