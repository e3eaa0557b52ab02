//! `mbxq-xml` — the XML substrate for the MonetDB/XQuery reproduction.
//!
//! The paper's system shreds *schema-free XML documents* into relational
//! tables. Since the sanctioned offline dependency set contains no XML
//! crate, this crate implements the substrate from scratch:
//!
//! * [`parser`] — a pull (event) parser for the XML subset the paper's
//!   storage schema represents: elements, attributes, text, comments,
//!   processing instructions, CDATA sections, character/entity references,
//!   and an (ignored) XML declaration / DOCTYPE.
//! * [`tree`] — an owned tree used as the *oracle* by tests and as the
//!   carrier of XUpdate fragments from the executor to the storage
//!   stager; whole documents are shredded from the parser's events.
//! * [`serialize`] — document-order serialization with correct escaping;
//!   `parse ∘ serialize` is the identity on the supported subset, which
//!   property tests exercise.
//! * [`name`] — qualified names (`prefix:local`), the value domain of the
//!   paper's `qn` table.
//!
//! DTD internal subsets, namespace *resolution* (URI binding) and entity
//! definitions beyond the five predefined ones are out of scope: the
//! pre/size/level storage schema of the paper does not represent them
//! (qualified names are stored verbatim in the `qn` table).

pub mod name;
pub mod parser;
pub mod serialize;
pub mod tree;

pub use name::QName;
pub use parser::{Event, Parser};
pub use serialize::{serialize_document, serialize_node};
pub use tree::{Document, Node, NodeKind};

/// Position of a parse error in the input (byte offset plus 1-based
/// line/column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextPos {
    /// Byte offset into the input string.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub column: u32,
}

impl core::fmt::Display for TextPos {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Errors produced while parsing XML text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was reading when input ran out.
        context: &'static str,
    },
    /// A syntactic error at a known position.
    Syntax {
        /// Human-readable description.
        message: String,
        /// Where it happened.
        pos: TextPos,
    },
    /// An end tag did not match the open element.
    MismatchedTag {
        /// Name the parser expected to be closed.
        expected: String,
        /// Name that was actually closed.
        found: String,
        /// Where the end tag was found.
        pos: TextPos,
    },
    /// A reference (`&name;` / `&#n;`) could not be resolved.
    BadReference {
        /// The raw reference text.
        reference: String,
        /// Where it appeared.
        pos: TextPos,
    },
    /// Document-level structure violation (e.g. two root elements).
    Structure {
        /// Human-readable description.
        message: String,
    },
    /// An attribute name occurred twice on the same element.
    DuplicateAttribute {
        /// The repeated attribute name.
        name: String,
        /// Where the repetition was found.
        pos: TextPos,
    },
}

impl core::fmt::Display for XmlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            XmlError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            XmlError::Syntax { message, pos } => write!(f, "syntax error at {pos}: {message}"),
            XmlError::MismatchedTag {
                expected,
                found,
                pos,
            } => write!(
                f,
                "mismatched end tag at {pos}: expected </{expected}>, found </{found}>"
            ),
            XmlError::BadReference { reference, pos } => {
                write!(f, "unresolvable reference '{reference}' at {pos}")
            }
            XmlError::Structure { message } => write!(f, "document structure: {message}"),
            XmlError::DuplicateAttribute { name, pos } => {
                write!(f, "duplicate attribute '{name}' at {pos}")
            }
        }
    }
}

impl std::error::Error for XmlError {}

/// Result alias for XML operations.
pub type Result<T> = std::result::Result<T, XmlError>;
