//! Fixed-length row bitmasks.
//!
//! A [`Mask`] selects a subset of the rows of a frame. Pattern evaluation,
//! coverage computation, and group-by all produce masks; set algebra on masks
//! (`&`, `|`, `!`, difference) is word-parallel over `u64` blocks.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Not};

const BITS: usize = 64;

/// A fixed-length bitset over row indices `0..len`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Mask {
    words: Vec<u64>,
    len: usize,
}

impl Mask {
    /// All-zeros mask of length `len`.
    pub fn zeros(len: usize) -> Self {
        Mask {
            words: vec![0; len.div_ceil(BITS)],
            len,
        }
    }

    /// All-ones mask of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut m = Mask {
            words: vec![u64::MAX; len.div_ceil(BITS)],
            len,
        };
        m.clear_tail();
        m
    }

    /// Build from a boolean slice.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut m = Mask::zeros(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                m.set(i, true);
            }
        }
        m
    }

    /// Build a mask of length `len` with the given indices set.
    ///
    /// Indices outside `0..len` are ignored.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut m = Mask::zeros(len);
        for &i in indices {
            if i < len {
                m.set(i, true);
            }
        }
        m
    }

    /// Number of rows this mask ranges over (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mask ranges over zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "mask index {i} out of range {}", self.len);
        (self.words[i / BITS] >> (i % BITS)) & 1 == 1
    }

    /// Set bit `i` to `v`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "mask index {i} out of range {}", self.len);
        let (w, b) = (i / BITS, i % BITS);
        if v {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if at least one bit is set.
    pub fn any(&self) -> bool {
        !self.none()
    }

    /// Fraction of rows selected; 0 for an empty mask.
    pub fn fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count() as f64 / self.len as f64
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_inplace(&mut self, other: &Mask) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn or_inplace(&mut self, other: &Mask) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place set difference `self \ other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn andnot_inplace(&mut self, other: &Mask) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Set difference `self \ other` as a new mask.
    pub fn andnot(&self, other: &Mask) -> Mask {
        let mut m = self.clone();
        m.andnot_inplace(other);
        m
    }

    /// Size of the intersection without materializing it.
    pub fn intersect_count(&self, other: &Mask) -> usize {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Size of the union without materializing it.
    pub fn union_count(&self, other: &Mask) -> usize {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// True iff every set bit of `self` is also set in `other`.
    pub fn is_subset(&self, other: &Mask) -> bool {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate over indices of set bits in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            mask: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collect set-bit indices into a vector.
    pub fn to_indices(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(self.count());
        v.extend(self.iter_ones());
        v
    }

    /// The backing `u64` words, least-significant bit = row 0; bits past
    /// [`len`](Self::len) in the last word are zero. Read by the
    /// word-at-a-time kernels and by mask fingerprinting.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// A borrowed word-level [`MaskView`] — the entry point of the fused
    /// mask-and-accumulate kernels, which iterate set *words* instead of
    /// set rows.
    pub fn view(&self) -> MaskView<'_> {
        MaskView {
            words: &self.words,
            len: self.len,
        }
    }

    fn clear_tail(&mut self) {
        let tail = self.len % BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    fn check_len(&self, other: &Mask) {
        assert_eq!(
            self.len, other.len,
            "mask length mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

/// A borrowed, word-granular view of a [`Mask`].
///
/// Hot loops that touch every selected row (design-matrix assembly, fused
/// gathers) pay per-*row* overhead if they walk [`Mask::iter_ones`]; the
/// view exposes the backing words directly so kernels can skip unselected
/// 64-row spans in one comparison and decode set bits with
/// `trailing_zeros` inside a register. Bits at or beyond `len` are
/// guaranteed zero (masks clear their tail word on every mutation).
#[derive(Debug, Clone, Copy)]
pub struct MaskView<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> MaskView<'a> {
    /// Number of rows covered (set *and* unset).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words, least-significant bit = lowest row.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Popcount of set rows — one `count_ones` per word, no per-bit work.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Invoke `f(word_index, word)` for every *non-zero* word, in
    /// ascending word order. Row `i` is set iff
    /// `word_index * 64 + bit == i` for some set `bit` of `word`; zero
    /// words (64 unselected rows) are skipped without calling `f`.
    pub fn for_each_set_word(&self, mut f: impl FnMut(usize, u64)) {
        for (wi, &word) in self.words.iter().enumerate() {
            if word != 0 {
                f(wi, word);
            }
        }
    }
}

/// Iterator over set-bit indices; see [`Mask::iter_ones`].
pub struct OnesIter<'a> {
    mask: &'a Mask,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.mask.words.len() {
                return None;
            }
            self.current = self.mask.words[self.word_idx];
        }
    }
}

impl BitAnd for &Mask {
    type Output = Mask;
    fn bitand(self, rhs: &Mask) -> Mask {
        let mut m = self.clone();
        m.and_inplace(rhs);
        m
    }
}

impl BitOr for &Mask {
    type Output = Mask;
    fn bitor(self, rhs: &Mask) -> Mask {
        let mut m = self.clone();
        m.or_inplace(rhs);
        m
    }
}

impl BitAndAssign<&Mask> for Mask {
    fn bitand_assign(&mut self, rhs: &Mask) {
        self.and_inplace(rhs);
    }
}

impl BitOrAssign<&Mask> for Mask {
    fn bitor_assign(&mut self, rhs: &Mask) {
        self.or_inplace(rhs);
    }
}

impl Not for &Mask {
    type Output = Mask;
    fn not(self) -> Mask {
        let mut m = Mask {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        m.clear_tail();
        m
    }
}

impl fmt::Debug for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mask({}/{} set)", self.count(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Mask::zeros(100);
        assert_eq!(z.count(), 0);
        assert!(z.none());
        let o = Mask::ones(100);
        assert_eq!(o.count(), 100);
        assert!(o.any());
        // tail bits beyond len must not be set
        let o65 = Mask::ones(65);
        assert_eq!(o65.count(), 65);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Mask::zeros(130);
        m.set(0, true);
        m.set(64, true);
        m.set(129, true);
        assert!(m.get(0) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(128));
        assert_eq!(m.count(), 3);
        m.set(64, false);
        assert!(!m.get(64));
        assert_eq!(m.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Mask::zeros(10).get(10);
    }

    #[test]
    fn boolean_algebra() {
        let a = Mask::from_indices(10, &[1, 3, 5, 7]);
        let b = Mask::from_indices(10, &[3, 4, 5]);
        assert_eq!((&a & &b).to_indices(), vec![3, 5]);
        assert_eq!((&a | &b).to_indices(), vec![1, 3, 4, 5, 7]);
        assert_eq!(a.andnot(&b).to_indices(), vec![1, 7]);
        assert_eq!((!&b).count(), 7);
        assert_eq!(a.intersect_count(&b), 2);
        assert_eq!(a.union_count(&b), 5);
    }

    #[test]
    fn subset_relation() {
        let a = Mask::from_indices(10, &[2, 4]);
        let b = Mask::from_indices(10, &[1, 2, 4, 8]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(Mask::zeros(10).is_subset(&a));
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let idx = vec![0, 63, 64, 65, 127, 128, 199];
        let m = Mask::from_indices(200, &idx);
        assert_eq!(m.to_indices(), idx);
    }

    #[test]
    fn from_bools_matches() {
        let bools = [true, false, true, true, false];
        let m = Mask::from_bools(&bools);
        assert_eq!(m.to_indices(), vec![0, 2, 3]);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn fraction() {
        let m = Mask::from_indices(8, &[0, 1]);
        assert!((m.fraction() - 0.25).abs() < 1e-12);
        assert_eq!(Mask::zeros(0).fraction(), 0.0);
    }

    #[test]
    fn from_indices_ignores_out_of_range() {
        let m = Mask::from_indices(4, &[0, 9, 3]);
        assert_eq!(m.to_indices(), vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let mut a = Mask::zeros(4);
        a.and_inplace(&Mask::zeros(5));
    }

    #[test]
    fn not_clears_tail() {
        let m = Mask::zeros(70);
        let inv = !&m;
        assert_eq!(inv.count(), 70);
        let inv2 = !&inv;
        assert_eq!(inv2.count(), 0);
    }

    #[test]
    fn view_visits_exactly_the_set_rows() {
        let m = Mask::from_indices(200, &[1, 63, 64, 65, 130, 199]);
        let view = m.view();
        assert_eq!(view.len(), 200);
        assert_eq!(view.count(), m.count());
        let mut rows = Vec::new();
        view.for_each_set_word(|wi, word| {
            assert_ne!(word, 0, "zero words must be skipped");
            let mut w = word;
            while w != 0 {
                rows.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        });
        assert_eq!(rows, m.to_indices());
    }

    #[test]
    fn view_of_empty_and_full_masks() {
        assert!(Mask::zeros(0).view().is_empty());
        let mut calls = 0;
        Mask::zeros(128).view().for_each_set_word(|_, _| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(Mask::ones(70).view().count(), 70);
    }
}
