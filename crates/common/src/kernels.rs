//! Safe-code vectorized batch kernels for the Hadamard hot paths.
//!
//! The workspace is `#![forbid(unsafe_code)]`, so "SIMD" here means
//! *autovectorization-friendly shapes*, not intrinsics: fixed-stride
//! inner loops over paired slices obtained with `split_at_mut`/`zip`
//! (which lets LLVM prove bounds and emit packed integer adds), and
//! data-dependent control flow converted into arithmetic on 0/1 masks so
//! the loop body is straight-line code with no unpredictable branches.
//! The speed claims are measured, not assumed: `paperbench`, the
//! benchmark declared in `BENCHMARK.json`, times these kernels inside
//! paper-scale HR trials and streams.
//!
//! Everything in this module is exact integer arithmetic — no floats —
//! so callers can swap a per-element loop for a kernel call without any
//! golden-file drift: the results are bitwise identical, only faster.

/// In-place fast Walsh–Hadamard transform: replaces `data` with `H·data`
/// where `H[x][y] = (−1)^popcount(x & y)` is the Sylvester-Hadamard
/// matrix of order `data.len()`.
///
/// `O(k log k)` instead of the `O(k²)` naive matrix product. The
/// butterfly works on two disjoint half-slices per block
/// (`split_at_mut` + `zip`), which is the shape LLVM autovectorizes:
/// provably in-bounds, fixed stride, and a loop body of one add and one
/// subtract per lane.
///
/// Entries may grow by a factor of `k` in magnitude; with support counts
/// bounded by the population size (`≤ 2^40`-ish) and `k ≤ 2^31`, `i64`
/// never overflows in this workspace.
///
/// # Panics
/// Panics if `data.len()` is not a power of two (the Sylvester
/// construction is only defined there).
pub fn fwht_i64(data: &mut [i64]) {
    assert!(
        data.len().is_power_of_two(),
        "FWHT needs a power-of-two length, got {}",
        data.len()
    );
    let mut h = 1;
    while h < data.len() {
        for block in data.chunks_exact_mut(2 * h) {
            let (lo, hi) = block.split_at_mut(h);
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let (x, y) = (*a, *b);
                *a = x + y;
                *b = x - y;
            }
        }
        h *= 2;
    }
}

/// Parity of `popcount(x & y)` as a 0/1 word: `0` where the Sylvester
/// entry `had(x, y)` is `+1`, `1` where it is `−1`.
#[inline(always)]
pub fn parity(x: u32, y: u32) -> u32 {
    (x & y).count_ones() & 1
}

/// Writes into `out` the columns `y ∈ 0..k` where row `row` of the
/// order-`k` Sylvester-Hadamard matrix is `+1`, in ascending order.
///
/// Branchless compaction: every column is written unconditionally at the
/// current cursor and the cursor advances by `1 − parity`, so the loop
/// body has no data-dependent branch for the predictor to miss (the
/// parity of `row & y` alternates at the row's lowest set bit — the
/// worst case for a branchy `filter`). `out` is cleared first and ends
/// with exactly `k/2` entries for any nonzero `row` (`k` for row 0).
///
/// # Panics
/// Panics if `k` is not a power of two or exceeds `u32` range.
pub fn positive_columns_into(row: u32, k: usize, out: &mut Vec<u32>) {
    assert!(k.is_power_of_two(), "Hadamard order must be a power of two");
    assert!(k <= 1 << 31, "Hadamard order must fit u32");
    out.clear();
    out.resize(k, 0);
    let mut cursor = 0usize;
    for y in 0..k as u32 {
        out[cursor] = y;
        cursor += (1 - parity(row, y)) as usize;
    }
    out.truncate(cursor);
}

/// Adds `1` to `counts[i]` for every `i` where the Sylvester entry
/// `had(base + i, mask)` is `+1` — the branchless per-report support
/// scatter of Hadamard Response (`base = 1`: item `i` owns row `i + 1`).
///
/// The loop body is pure arithmetic (`popcount`, mask, add), so it both
/// autovectorizes and never mispredicts, unlike the `if parity == 0`
/// formulation it replaces.
pub fn add_even_parity(mask: u32, base: u32, counts: &mut [u64]) {
    for (i, c) in counts.iter_mut().enumerate() {
        *c += u64::from(1 - parity(base.wrapping_add(i as u32), mask));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive `O(k²)` Sylvester product, the reference for the FWHT.
    fn naive_hadamard(data: &[i64]) -> Vec<i64> {
        let k = data.len();
        (0..k)
            .map(|x| {
                (0..k)
                    .map(|y| {
                        let sign = if parity(x as u32, y as u32) == 0 {
                            1
                        } else {
                            -1
                        };
                        sign * data[y]
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn fwht_matches_naive_product_up_to_1024() {
        // Deterministic pseudo-data (no RNG: the identity is exact, any
        // data works; an LCG keeps the values varied).
        for k in [1usize, 2, 4, 8, 16, 64, 256, 1024] {
            let mut state = 0x9E37_79B9u64;
            let data: Vec<i64> = (0..k)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as i64) - (1 << 30)
                })
                .collect();
            let mut fast = data.clone();
            fwht_i64(&mut fast);
            assert_eq!(fast, naive_hadamard(&data), "k={k}");
        }
    }

    #[test]
    fn fwht_is_an_involution_up_to_scale() {
        // H·H = k·I for Sylvester matrices.
        let data: Vec<i64> = (0..64).map(|i| (i * i - 37) as i64).collect();
        let mut twice = data.clone();
        fwht_i64(&mut twice);
        fwht_i64(&mut twice);
        assert!(twice.iter().zip(&data).all(|(&t, &d)| t == 64 * d));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn fwht_rejects_non_power_of_two() {
        fwht_i64(&mut [1, 2, 3]);
    }

    #[test]
    fn positive_columns_match_filter() {
        let mut out = Vec::new();
        for k in [2usize, 8, 64, 1024] {
            for row in 0..k.min(40) as u32 {
                positive_columns_into(row, k, &mut out);
                let expect: Vec<u32> = (0..k as u32).filter(|&y| parity(row, y) == 0).collect();
                assert_eq!(out, expect, "row={row}, k={k}");
                let want = if row == 0 { k } else { k / 2 };
                assert_eq!(out.len(), want, "row balance at row={row}, k={k}");
            }
        }
    }

    #[test]
    fn add_even_parity_matches_branchy_loop() {
        for mask in [0u32, 1, 5, 0b101010, 1023] {
            let mut fast = vec![7u64; 100];
            let mut slow = fast.clone();
            add_even_parity(mask, 1, &mut fast);
            for (i, c) in slow.iter_mut().enumerate() {
                if (((i as u32 + 1) & mask).count_ones()).is_multiple_of(2) {
                    *c += 1;
                }
            }
            assert_eq!(fast, slow, "mask={mask}");
        }
    }
}
