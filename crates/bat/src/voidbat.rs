//! BATs with a virtual (void) head column.

use crate::{BatError, Oid, Result};

/// A Binary Association Table whose head is a **void column**: a densely
/// ascending oid sequence `seqbase, seqbase+1, …` that is never stored.
///
/// The tail is a plain dense vector, so a lookup by head oid is a single
/// array index — MonetDB's *positional lookup*. This is the property the
/// paper identifies as "the prime reason for the performance advantage of
/// MonetDB/XQuery over other XQuery systems" (§2.2), and the property that
/// makes naive structural updates impossible (void columns may never be
/// modified — only appended to).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoidBat<T> {
    seqbase: Oid,
    tail: Vec<T>,
}

impl<T> Default for VoidBat<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T> VoidBat<T> {
    /// Creates an empty BAT whose head sequence starts at `seqbase`.
    pub fn new(seqbase: Oid) -> Self {
        VoidBat {
            seqbase,
            tail: Vec::new(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// Whether the BAT holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// One-past-the-last oid of the head sequence.
    pub fn hseqend(&self) -> Oid {
        self.seqbase + self.tail.len() as Oid
    }

    /// Appends a tuple; its head oid is implicit (`hseqend` before the
    /// append). Returns that oid. Void heads only ever grow at the end —
    /// this is the only mutation MonetDB permits on them.
    pub fn append(&mut self, value: T) -> Oid {
        let oid = self.hseqend();
        self.tail.push(value);
        oid
    }

    /// Positional lookup: the tail value associated with head oid `oid`.
    pub fn find(&self, oid: Oid) -> Result<&T> {
        self.index_of(oid).map(|i| &self.tail[i])
    }

    /// Positional lookup returning a mutable reference.
    ///
    /// Mutating tail values in place is allowed (only the *head* is
    /// immutable); the transaction layer restricts when this may happen.
    pub fn find_mut(&mut self, oid: Oid) -> Result<&mut T> {
        let i = self.index_of(oid)?;
        Ok(&mut self.tail[i])
    }

    /// Translates a head oid to a dense tail index.
    #[inline]
    pub fn index_of(&self, oid: Oid) -> Result<usize> {
        if oid < self.seqbase || oid >= self.hseqend() {
            return Err(BatError::OutOfRange {
                oid,
                seqbase: self.seqbase,
                count: self.tail.len(),
            });
        }
        Ok((oid - self.seqbase) as usize)
    }

    /// Direct slice access to the whole tail.
    pub fn tail(&self) -> &[T] {
        &self.tail
    }
}

impl<T: Copy> VoidBat<T> {
    /// Returns the tail value at head oid `oid` by value.
    #[inline]
    pub fn get(&self, oid: Oid) -> Result<T> {
        self.find(oid).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A BAT holding `tail` under the head `seqbase..`.
    fn bat<T>(seqbase: Oid, tail: impl IntoIterator<Item = T>) -> VoidBat<T> {
        let mut b = VoidBat::new(seqbase);
        tail.into_iter().for_each(|v| {
            b.append(v);
        });
        b
    }

    #[test]
    fn empty_bat_has_no_tuples() {
        let b: VoidBat<u32> = VoidBat::new(10);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.hseqend(), 10);
    }

    #[test]
    fn append_assigns_dense_oids() {
        let mut b = VoidBat::new(5);
        assert_eq!(b.append("a"), 5);
        assert_eq!(b.append("b"), 6);
        assert_eq!(b.append("c"), 7);
        assert_eq!(b.find(6), Ok(&"b"));
    }

    #[test]
    fn find_out_of_range_is_error() {
        let mut b = VoidBat::new(0);
        b.append(1u8);
        assert!(matches!(b.find(1), Err(BatError::OutOfRange { .. })));
        assert!(matches!(
            VoidBat::<u8>::new(3).find(0),
            Err(BatError::OutOfRange { .. })
        ));
    }

    #[test]
    fn find_mut_updates_in_place() {
        let mut b = bat(0, [1, 2, 3]);
        *b.find_mut(1).unwrap() = 99;
        assert_eq!(b.tail(), &[1, 99, 3]);
    }
}
