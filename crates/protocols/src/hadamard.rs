//! Hadamard Response (Acharya, Sun & Zhang, 2019) — extension protocol.
//!
//! The user's item indexes a row of the implicit `K × K` Sylvester-Hadamard
//! matrix (`K` = smallest power of two > `d`; entry `had(x, y) = (−1)^{
//! popcount(x & y)}`). She reports a column index `y`: with probability
//! `p = e^ε/(1+e^ε)` a uniform column where her row is `+1`, otherwise a
//! uniform column where it is `−1`.
//!
//! This is a *pure* protocol with an unusual support geometry: a report
//! supports the `≈ d/2` items whose rows are `+1` at the reported column,
//! giving support probabilities `p = e^ε/(1+e^ε)` (true item) and exactly
//! `q = 1/2` (any other item, by row orthogonality). Communication is
//! `log₂ K` bits — far below OUE's `d` — at GRR-free variance, which is
//! why HR matters in the LDP literature and why it makes a good
//! stress-test for LDPRecover: the malicious-sum constant
//! `(1 − q·d)/(p − q)` is *large and negative* here (q = 1/2), like OUE.
//!
//! Rows are indexed by `item + 1` so that row 0 (all `+1`, which carries
//! no signal) is never used; this requires `K > d`.

use ldp_common::kernels::{add_even_parity, fwht_i64};
use ldp_common::rng::{uniform_index, FastBernoulli};
use ldp_common::{Domain, LdpError, Result};
use rand::Rng;

use crate::params::{check_epsilon, PureParams};
use crate::traits::LdpFrequencyProtocol;

/// Sylvester-Hadamard entry: `+1` iff `popcount(x & y)` is even.
#[inline(always)]
pub fn hadamard_positive(x: u32, y: u32) -> bool {
    (x & y).count_ones().is_multiple_of(2)
}

/// The Hadamard Response protocol instance for a fixed `(ε, D)`.
#[derive(Debug, Clone, Copy)]
pub struct HadamardResponse {
    domain: Domain,
    epsilon: f64,
    /// Matrix order `K` (power of two, `K > d`).
    k: u32,
    params: PureParams,
    keep_true: FastBernoulli,
}

impl HadamardResponse {
    /// Builds HR for privacy budget `epsilon` over `domain`.
    ///
    /// # Errors
    /// Propagates ε validation; fails for domains above `2³¹ − 1` items
    /// (the implicit matrix index must fit `u32`).
    pub fn new(epsilon: f64, domain: Domain) -> Result<Self> {
        check_epsilon(epsilon)?;
        let d = domain.size();
        if d >= (1usize << 31) {
            return Err(LdpError::invalid("HR supports domains below 2^31 items"));
        }
        // K = smallest power of two strictly greater than d (rows 1..=d).
        let k = (d as u32 + 1).next_power_of_two().max(2);
        let e_eps = epsilon.exp();
        let p = e_eps / (1.0 + e_eps);
        // Any non-true row is +1 at exactly half the columns of either
        // half-space (orthogonality) ⇒ support probability exactly 1/2.
        let params = PureParams::new(p, 0.5, domain)?;
        Ok(Self {
            domain,
            epsilon,
            k,
            params,
            keep_true: FastBernoulli::new(p),
        })
    }

    /// The implicit Hadamard order `K`.
    #[inline]
    pub fn order(&self) -> u32 {
        self.k
    }

    /// The matrix row assigned to `item` (row 0 is reserved).
    #[inline]
    pub fn row_of(&self, item: usize) -> u32 {
        debug_assert!(self.domain.contains(item));
        item as u32 + 1
    }

    /// Adds the support counts of a whole batch of reported columns in
    /// one transform: builds the `K`-column histogram `h`, applies the
    /// fast Walsh–Hadamard transform, and reads off
    /// `C(w) += (N + (H·h)[row_w]) / 2` — `O(N + K log K)` instead of the
    /// per-report scatter's `O(N·d)`.
    ///
    /// Exact integer arithmetic throughout: `N + (H·h)[x] = Σ_y h_y·(1 +
    /// had(x, y))` is a sum of even non-negative terms, so the halving is
    /// exact and the result is bitwise identical to looping
    /// [`LdpFrequencyProtocol::accumulate`].
    ///
    /// # Panics
    /// Panics if a column is outside `0..K` or `counts.len() != d`.
    pub fn accumulate_columns<I>(&self, columns: I, counts: &mut [u64])
    where
        I: IntoIterator<Item = u32>,
    {
        let mut hist = vec![0i64; self.k as usize];
        for y in columns {
            hist[y as usize] += 1;
        }
        self.accumulate_histogram(&mut hist, counts);
    }

    /// The transform half of [`Self::accumulate_columns`]: adds the
    /// support counts of the reports whose `K`-column histogram is `hist`.
    /// `hist` is transformed in place; afterwards `hist[0]` is the number
    /// of reports (row 0 is all `+1`).
    ///
    /// # Panics
    /// Panics if `hist.len() != K` or `counts.len() != d`.
    pub fn accumulate_histogram(&self, hist: &mut [i64], counts: &mut [u64]) {
        assert_eq!(hist.len(), self.k as usize);
        assert_eq!(counts.len(), self.domain.size());
        fwht_i64(hist);
        let total = hist[0];
        for (w, c) in counts.iter_mut().enumerate() {
            *c += ((total + hist[w + 1]) / 2) as u64;
        }
    }

    /// Samples a uniform column where `row` has the requested sign.
    ///
    /// Exactly half of the `K` columns qualify for any nonzero row, so
    /// rejection sampling terminates in 2 expected draws.
    fn sample_column<R: Rng + ?Sized>(&self, row: u32, positive: bool, rng: &mut R) -> u32 {
        loop {
            let y = uniform_index(rng, self.k as usize) as u32;
            if hadamard_positive(row, y) == positive {
                return y;
            }
        }
    }
}

impl LdpFrequencyProtocol for HadamardResponse {
    type Report = u32;

    fn name(&self) -> &'static str {
        "HR"
    }

    fn domain(&self) -> Domain {
        self.domain
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn params(&self) -> PureParams {
        self.params
    }

    fn perturb<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> u32 {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        let row = self.row_of(item);
        let positive = self.keep_true.sample(rng);
        self.sample_column(row, positive, rng)
    }

    fn encode_clean<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> u32 {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        // The clean encoding is a (uniform) column supporting the item.
        self.sample_column(self.row_of(item), true, rng)
    }

    #[inline]
    fn supports(&self, report: &u32, v: usize) -> bool {
        hadamard_positive(self.row_of(v), *report)
    }

    fn accumulate(&self, report: &u32, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.domain.size());
        // Branchless parity scatter (item v owns row v + 1).
        add_even_parity(*report, 1, counts);
    }

    fn accumulate_all(&self, reports: &[u32], counts: &mut [u64]) {
        self.accumulate_columns(reports.iter().copied(), counts);
    }

    fn batch_aggregate<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
    ) -> Option<Vec<u64>> {
        Some(self.batch_support_counts(item_counts, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;

    fn hr(eps: f64, d: usize) -> HadamardResponse {
        HadamardResponse::new(eps, Domain::new(d).unwrap()).unwrap()
    }

    #[test]
    fn order_is_smallest_power_of_two_above_d() {
        assert_eq!(hr(1.0, 3).order(), 4);
        assert_eq!(hr(1.0, 4).order(), 8); // rows 1..=4 need K > 4
        assert_eq!(hr(1.0, 102).order(), 128);
        assert_eq!(hr(1.0, 490).order(), 512);
    }

    #[test]
    fn hadamard_entries_match_small_matrix() {
        // The 4×4 Sylvester matrix: H[x][y] = (−1)^{popcount(x & y)}.
        let expect = [
            [true, true, true, true],
            [true, false, true, false],
            [true, true, false, false],
            [true, false, false, true],
        ];
        for x in 0..4u32 {
            for y in 0..4u32 {
                assert_eq!(
                    hadamard_positive(x, y),
                    expect[x as usize][y as usize],
                    "x={x}, y={y}"
                );
            }
        }
    }

    #[test]
    fn rows_are_balanced_and_orthogonal() {
        let k = 64u32;
        for row in 1..k {
            let positives = (0..k).filter(|&y| hadamard_positive(row, y)).count();
            assert_eq!(positives, 32, "row {row} not balanced");
        }
        // Orthogonality ⇒ any two distinct nonzero rows agree at exactly
        // half the columns.
        for (a, b) in [(1u32, 2u32), (3, 7), (5, 60)] {
            let agree = (0..k)
                .filter(|&y| hadamard_positive(a, y) == hadamard_positive(b, y))
                .count();
            assert_eq!(agree, 32, "rows {a},{b}");
        }
    }

    #[test]
    fn support_probabilities_match_params() {
        let h = hr(1.0, 20);
        let mut rng = rng_from_seed(1);
        let n = 120_000;
        let mut true_hits = 0usize;
        let mut other_hits = 0usize;
        for _ in 0..n {
            let r = h.perturb(5, &mut rng);
            if h.supports(&r, 5) {
                true_hits += 1;
            }
            if h.supports(&r, 11) {
                other_hits += 1;
            }
        }
        let p = h.params().p();
        let tol = 5.0 * (0.25_f64 / n as f64).sqrt();
        assert!(((true_hits as f64 / n as f64) - p).abs() < tol);
        assert!(((other_hits as f64 / n as f64) - 0.5).abs() < tol);
    }

    #[test]
    fn estimates_are_unbiased() {
        let h = hr(1.0, 8);
        let mut rng = rng_from_seed(2);
        let n = 60_000usize;
        let mut counts = vec![0u64; 8];
        for i in 0..n {
            let item = if i % 2 == 0 { 3 } else { 6 };
            let r = h.perturb(item, &mut rng);
            h.accumulate(&r, &mut counts);
        }
        let freqs = h.params().debias_frequencies(&counts, n).unwrap();
        for (v, &truth) in [0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0].iter().enumerate() {
            let sigma = h.params().variance_frequency(truth, n).sqrt();
            assert!(
                (freqs[v] - truth).abs() < 6.0 * sigma,
                "item {v}: {} vs {truth}",
                freqs[v]
            );
        }
    }

    #[test]
    fn fwht_batch_accumulation_is_bitwise_identical_to_the_loop() {
        // The transform-domain path must agree with the per-report
        // scatter exactly (integer arithmetic, no tolerance) — including
        // non-power-of-two domains where K > d + 1.
        for d in [3usize, 8, 102, 490] {
            let h = hr(0.9, d);
            let mut rng = rng_from_seed(17);
            let reports: Vec<u32> = (0..2_000).map(|i| h.perturb(i % d, &mut rng)).collect();
            let mut looped = vec![0u64; d];
            for r in &reports {
                h.accumulate(r, &mut looped);
            }
            let mut batched = vec![5u64; d]; // nonzero base: must *add*
            h.accumulate_columns(reports.iter().copied(), &mut batched);
            for (b, l) in batched.iter().zip(&looped) {
                assert_eq!(*b, l + 5, "d={d}");
            }
        }
    }

    #[test]
    fn clean_encoding_always_supports_its_item() {
        let h = hr(0.5, 100);
        let mut rng = rng_from_seed(3);
        for item in [0usize, 42, 99] {
            let r = h.encode_clean(item, &mut rng);
            assert!(h.supports(&r, item));
        }
    }

    #[test]
    fn communication_is_logarithmic() {
        // The report is one column index: ⌈log₂ K⌉ bits, versus d bits for
        // OUE — the protocol's raison d'être.
        let h = hr(0.5, 490);
        assert!(f64::from(h.order()).log2() <= 9.0 + f64::EPSILON);
    }

    #[test]
    fn privacy_ratio_is_e_epsilon() {
        // P[y | v supports y] / P[y | w ¬supports y] = p/(1−p) = e^ε.
        for eps in [0.5f64, 1.0, 2.0] {
            let h = hr(eps, 16);
            let p = h.params().p();
            assert!(((p / (1.0 - p)) - eps.exp()).abs() < 1e-9);
        }
    }
}
