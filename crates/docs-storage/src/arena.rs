//! Shared-arena payload views for the recovery read path.
//!
//! Replaying a campaign tree used to copy every event payload out of its
//! segment (`payload.to_vec()` per record). Recovery now loads each segment
//! file into one reference-counted arena and hands out [`PayloadBytes`] —
//! cheap `(Arc, offset, len)` views — so the allocation count scales with
//! the number of *files*, not the number of *events*.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A borrowed-semantics byte payload backed by a shared arena buffer.
///
/// Dereferences to `&[u8]`; cloning bumps the arena refcount instead of
/// copying bytes. Equality and ordering compare the viewed bytes.
#[derive(Clone)]
pub struct PayloadBytes {
    arena: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl PayloadBytes {
    /// A view of `range` within a shared arena.
    ///
    /// # Panics
    /// If the range is out of bounds — callers slice ranges produced by the
    /// WAL scanner, which are bounds-checked already.
    pub fn slice_of(arena: &Arc<Vec<u8>>, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= arena.len());
        PayloadBytes {
            arena: Arc::clone(arena),
            start: range.start,
            len: range.end - range.start,
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.arena[self.start..self.start + self.len]
    }
}

impl Deref for PayloadBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PayloadBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for PayloadBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadBytes {}

impl PartialEq<[u8]> for PayloadBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PayloadBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for PayloadBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl fmt::Debug for PayloadBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PayloadBytes({:?})", self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_one_arena() {
        let arena = Arc::new(b"abcdef".to_vec());
        let head = PayloadBytes::slice_of(&arena, 0..3);
        let tail = PayloadBytes::slice_of(&arena, 3..6);
        assert_eq!(head, b"abc".to_vec());
        assert_eq!(tail.as_slice(), b"def");
        let clone = tail.clone();
        drop(tail);
        assert_eq!(clone.as_slice(), b"def");
        // Original arena + 2 live views (head, clone).
        assert_eq!(Arc::strong_count(&arena), 3);
    }

    #[test]
    fn equality_compares_bytes_not_arenas() {
        let a = PayloadBytes::slice_of(&Arc::new(b"same".to_vec()), 0..4);
        let b = PayloadBytes::slice_of(&Arc::new(b"xxsamexx".to_vec()), 2..6);
        assert_eq!(a, b);
        assert_eq!(a, b"same".to_vec());
        assert!(!a.is_empty());
        assert_eq!(a.len(), 4);
    }
}
