//! Packed bit vectors backing OUE reports.
//!
//! An OUE report is a `d`-bit binary vector; at Fire scale (d = 490,
//! n ≈ 667k) storing reports as `Vec<bool>` would cost 327 MB and thrash the
//! cache during aggregation. [`BitVec`] packs bits into `u64` blocks (41 MB
//! for the same workload) and exposes the exact operations the workspace
//! needs: single-bit set/get/insert, ranged OR of computed bits
//! (perturbation), set-bit iteration (aggregation), and masked
//! intersection counting (the Detection baseline). [`BitSink`] lets a
//! unary kernel send the same bits to a row of support counts instead.

use std::ops::Range;

use serde::{Deserialize, Serialize};

/// A fixed-length packed bit vector.
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVec {
    blocks: Vec<u64>,
    len: usize,
}

impl Clone for BitVec {
    fn clone(&self) -> Self {
        Self {
            blocks: self.blocks.clone(),
            len: self.len,
        }
    }

    /// Copies `source` into `self`, reusing `self`'s words when the
    /// lengths match: resetting a scratch mask allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.blocks.clone_from(&source.blocks);
        self.len = source.len;
    }
}

/// Where a unary kernel's bits go: a packed report ([`BitVec`]) ORs each
/// bit into its word, and a row of support counts (`[u64]`, one per
/// index) adds each bit to its index's count — the report's fold, with no
/// report built. A kernel written over this trait (unary Ψ,
/// [`crate::rng::FastBernoulli::fill`]) makes the same draws into either.
pub trait BitSink {
    /// Takes `bit(i)` for every `i` in `range`, calling `bit` exactly once
    /// per index in increasing order.
    ///
    /// # Panics
    /// Panics if `range` does not lie within the sink.
    fn put_range(&mut self, range: Range<usize>, bit: impl FnMut(usize) -> bool);
}

impl BitSink for BitVec {
    // Always inlined, with `or_range`: a report's Ψ then compiles to the
    // loop it had when `FastBernoulli::fill` called `or_range` directly.
    #[inline(always)]
    fn put_range(&mut self, range: Range<usize>, bit: impl FnMut(usize) -> bool) {
        self.or_range(range, bit);
    }
}

impl BitSink for [u64] {
    #[inline]
    fn put_range(&mut self, range: Range<usize>, mut bit: impl FnMut(usize) -> bool) {
        let start = range.start;
        for (offset, count) in self[range].iter_mut().enumerate() {
            *count += u64::from(bit(start + offset));
        }
    }
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            blocks: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// ORs `bit(i)` into bit `i` for every `i` in `range`, calling `bit`
    /// exactly once per index in increasing order. Each result is OR-ed
    /// into its packed word, so a data-dependent bit costs no branch.
    ///
    /// # Panics
    /// Panics if `range` does not lie within `0..len`.
    #[inline(always)]
    pub fn or_range(&mut self, range: Range<usize>, mut bit: impl FnMut(usize) -> bool) {
        let Range { start, end } = range;
        assert!(
            start <= end && end <= self.len,
            "bit range {start}..{end} out of range {}",
            self.len
        );
        let mut i = start;
        while i < end {
            let base = i / 64 * 64;
            let stop = end.min(base + 64);
            let mut word = 0u64;
            for index in i..stop {
                word |= u64::from(bit(index)) << (index - base);
            }
            self.blocks[base / 64] |= word;
            i = stop;
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len` (debug and release: the shift is guarded).
    #[inline(always)]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.blocks[i / 64] |= mask;
        } else {
            self.blocks[i / 64] &= !mask;
        }
    }

    /// Sets bit `i` to 1 (hot-path shorthand without the branch).
    #[inline(always)]
    pub fn set_one(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Sets bit `i` to 1 and returns whether it was 0 — the 0/1 a
    /// rejection sampler counts, without branching on the old bit.
    #[inline(always)]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        let block = &mut self.blocks[i / 64];
        let was_clear = *block & mask == 0;
        *block |= mask;
        was_clear
    }

    /// Clears every bit; the length stays.
    pub fn clear_all(&mut self) {
        self.blocks.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in increasing order.
    ///
    /// Aggregation visits only the ~`q·d` set bits per report instead of all
    /// `d` positions, which is the difference between 1.2 × 10⁸ and
    /// 3.3 × 10⁸ operations per Fire-scale trial.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
            len: self.len,
        }
    }

    /// Counts set bits shared with `mask` (i.e. `popcount(self & mask)`).
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn intersection_count(&self, mask: &BitVec) -> usize {
        assert_eq!(self.len, mask.len, "BitVec length mismatch");
        self.blocks
            .iter()
            .zip(&mask.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `true` iff every set bit of `mask` is also set in `self`.
    pub fn contains_all(&self, mask: &BitVec) -> bool {
        assert_eq!(self.len, mask.len, "BitVec length mismatch");
        self.blocks
            .iter()
            .zip(&mask.blocks)
            .all(|(a, b)| a & b == *b)
    }

    /// Builds a mask with the given bit indices set.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn mask_of(len: usize, indices: &[usize]) -> Self {
        let mut v = Self::zeros(len);
        for &i in indices {
            v.set_one(i);
        }
        v
    }
}

/// Iterator over set-bit indices; see [`BitVec::iter_ones`].
pub struct IterOnes<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
    len: usize,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                let idx = self.block_idx * 64 + tz;
                // Bits past `len` in the last block are never set by the
                // public API, so no filtering is required; debug-assert it.
                debug_assert!(idx < self.len);
                return Some(idx);
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_get_set_roundtrip() {
        let mut v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(65) && !v.get(128));
        assert_eq!(v.count_ones(), 4);
        v.set(63, false);
        assert!(!v.get(63));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVec::zeros(10);
        let _ = v.get(10);
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut v = BitVec::zeros(200);
        let idxs = [0usize, 5, 63, 64, 100, 127, 128, 199];
        for &i in &idxs {
            v.set_one(i);
        }
        let collected: Vec<usize> = v.iter_ones().collect();
        assert_eq!(collected, idxs);
    }

    #[test]
    fn iter_ones_empty_and_full() {
        let v = BitVec::zeros(70);
        assert_eq!(v.iter_ones().count(), 0);
        let mut full = BitVec::zeros(70);
        for i in 0..70 {
            full.set_one(i);
        }
        assert_eq!(full.iter_ones().count(), 70);
        assert_eq!(full.iter_ones().last(), Some(69));
    }

    #[test]
    fn intersection_and_containment() {
        let a = BitVec::mask_of(100, &[1, 2, 3, 50, 99]);
        let b = BitVec::mask_of(100, &[2, 3, 99]);
        assert_eq!(a.intersection_count(&b), 3);
        assert!(a.contains_all(&b));
        assert!(!b.contains_all(&a));
        let c = BitVec::mask_of(100, &[2, 4]);
        assert_eq!(a.intersection_count(&c), 1);
        assert!(!a.contains_all(&c));
    }

    #[test]
    fn or_range_sets_exactly_the_requested_bits_in_index_order() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            for (start, end) in [(0, len), (0, len / 2), (len / 3, len), (len / 2, len / 2)] {
                let mut calls = Vec::new();
                // Bits already set outside (and inside) the range stay set.
                let kept: Vec<usize> = [0, 64, 129].into_iter().filter(|&i| i < len).collect();
                let mut v = BitVec::mask_of(len, &kept);
                v.or_range(start..end, |i| {
                    calls.push(i);
                    i % 3 == 1
                });
                assert_eq!(calls, (start..end).collect::<Vec<_>>(), "len={len}");
                let mut want: Vec<usize> = (start..end).filter(|i| i % 3 == 1).collect();
                want.extend(&kept);
                want.sort_unstable();
                want.dedup();
                let ones: Vec<usize> = v.iter_ones().collect();
                assert_eq!(ones, want, "len={len} range={start}..{end}");
                assert_eq!(v, BitVec::mask_of(len, &want), "len={len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn or_range_past_the_end_panics() {
        BitVec::zeros(10).or_range(5..11, |_| true);
    }

    #[test]
    fn insert_reports_whether_the_bit_was_clear() {
        let mut v = BitVec::zeros(130);
        for i in [0usize, 63, 64, 129] {
            assert!(v.insert(i), "bit {i} was clear");
            assert!(!v.insert(i), "bit {i} was already set");
            assert!(v.get(i));
        }
        assert_eq!(v, BitVec::mask_of(130, &[0, 63, 64, 129]));
    }

    #[test]
    fn count_rows_add_the_bits_a_bitvec_would_set() {
        // The same bits into both sinks: the row gains exactly the set
        // bits, on top of what it held, and `bit` runs once per index in
        // order for each.
        for (len, range) in [(130usize, 0..130), (130, 3..3), (130, 63..65), (70, 5..69)] {
            let bit = |i: usize| i % 3 == 1 || i == 64;
            let mut bits = BitVec::zeros(len);
            let mut bit_calls = Vec::new();
            bits.put_range(range.clone(), |i| {
                bit_calls.push(i);
                bit(i)
            });
            let mut row: Vec<u64> = (0..len as u64).collect();
            let mut row_calls = Vec::new();
            row.put_range(range.clone(), |i| {
                row_calls.push(i);
                bit(i)
            });
            assert_eq!(bit_calls, range.clone().collect::<Vec<_>>());
            assert_eq!(row_calls, bit_calls);
            for (i, &count) in row.iter().enumerate() {
                assert_eq!(count, i as u64 + u64::from(bits.get(i)), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn clone_from_and_clear_all_reset_a_scratch_mask() {
        let template = BitVec::mask_of(130, &[1, 64, 129]);
        let mut scratch = BitVec::mask_of(130, &[0, 2, 63, 100]);
        scratch.clone_from(&template);
        assert_eq!(scratch, template);
        scratch.clear_all();
        assert_eq!(scratch, BitVec::zeros(130));
        let mut shorter = BitVec::mask_of(10, &[3]);
        shorter.clone_from(&template);
        assert_eq!(shorter, template);
    }

    #[test]
    fn mask_of_builds_expected_mask() {
        let m = BitVec::mask_of(65, &[64]);
        assert!(m.get(64));
        assert_eq!(m.count_ones(), 1);
    }
}
