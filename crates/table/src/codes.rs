//! Short code sequences stored inline: the compact identity of a pattern
//! whose predicates have been numbered.
//!
//! Step 2's lattice names a node by the indices of its items, and the CATE
//! engine keys an estimate by the codes of its intervention's predicates.
//! Those patterns hold one to a few predicates, so [`Codes`] keeps up to
//! [`Codes::INLINE`] codes in place and only longer sequences on the heap:
//! building, hashing or comparing a short sequence neither allocates nor
//! follows a pointer.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// A sequence of `u32` codes, inline up to [`Codes::INLINE`] of them. It
/// dereferences to `&[u32]`; equality, order and hash are the slice's.
///
/// # Examples
///
/// ```
/// use faircap_table::Codes;
///
/// let mut codes = Codes::new();
/// codes.push(7);
/// codes.push(3);
/// assert_eq!(&*codes, &[7, 3]);
/// let long: Codes = (0..9).collect();
/// assert_eq!(long.len(), 9);
/// assert_eq!(long.without(0)[0], 1);
/// ```
#[derive(Clone)]
pub struct Codes(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        codes: [u32; Codes::INLINE],
    },
    Heap(Box<[u32]>),
}

impl Codes {
    /// Codes held without a heap allocation.
    pub const INLINE: usize = 4;

    /// The empty sequence.
    pub const fn new() -> Self {
        Codes(Repr::Inline {
            len: 0,
            codes: [0; Self::INLINE],
        })
    }

    /// The codes as a slice.
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, codes } => &codes[..usize::from(*len)],
            Repr::Heap(codes) => codes,
        }
    }

    /// Append one code.
    pub fn push(&mut self, code: u32) {
        match &mut self.0 {
            Repr::Inline { len, codes } if usize::from(*len) < Self::INLINE => {
                codes[usize::from(*len)] = code;
                *len += 1;
            }
            _ => {
                let mut codes = self.as_slice().to_vec();
                codes.push(code);
                self.0 = Repr::Heap(codes.into_boxed_slice());
            }
        }
    }

    /// The sequence with its `i`-th code removed.
    pub fn without(&self, i: usize) -> Codes {
        let codes = self.as_slice();
        codes[..i].iter().chain(&codes[i + 1..]).copied().collect()
    }
}

impl Default for Codes {
    fn default() -> Self {
        Codes::new()
    }
}

impl Deref for Codes {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl FromIterator<u32> for Codes {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut codes = Codes::new();
        for code in iter {
            codes.push(code);
        }
        codes
    }
}

impl PartialEq for Codes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Codes {}

impl PartialOrd for Codes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Codes {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Codes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Codes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_heap_sequences_behave_as_slices() {
        for n in 0..=2 * Codes::INLINE {
            let codes: Codes = (0..n as u32).rev().collect();
            let want: Vec<u32> = (0..n as u32).rev().collect();
            assert_eq!(&*codes, want.as_slice());
            assert_eq!(codes, Codes::from_iter(want.iter().copied()));
            for i in 0..n {
                let mut dropped = want.clone();
                dropped.remove(i);
                assert_eq!(&*codes.without(i), dropped.as_slice());
            }
        }
        assert!(std::mem::size_of::<Codes>() <= 24);
    }

    #[test]
    fn order_and_hash_follow_the_slice() {
        use std::collections::hash_map::DefaultHasher;
        let h = |c: &[u32]| {
            let mut s = DefaultHasher::new();
            c.hash(&mut s);
            s.finish()
        };
        let a: Codes = [1, 2].into_iter().collect();
        let b: Codes = [1, 2, 0, 0, 0].into_iter().collect();
        assert!(a < b);
        assert_eq!(h(&a), h(&[1, 2]));
        let mut c = Codes::new();
        c.push(1);
        c.push(2);
        assert_eq!(a, c);
        assert_eq!(h(&a), h(&c));
    }
}
