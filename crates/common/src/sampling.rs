//! Discrete sampling substrate: alias tables, Zipf weights, random
//! probability vectors, subset sampling, and exact binomial / multinomial
//! count samplers.
//!
//! The adaptive attack (paper §V-C) models *every* poisoning attack as
//! sampling malicious reports from an attacker-designed distribution `P`
//! over the encoded domain. Datasets are likewise materialized by sampling
//! items from a ground-truth distribution. Both paths need O(1)-per-draw
//! sampling from arbitrary discrete distributions, which is exactly what the
//! Walker/Vose alias method provides.
//!
//! The count samplers ([`sample_binomial`], [`sample_multinomial`],
//! [`sample_multinomial_uniform`]) power the batched aggregation engine
//! end to end: population histograms are one multinomial draw
//! (`ldp-datasets`' `generate_counts`), and for GRR/OUE/SUE/HR the
//! aggregate support counts of a whole population are sums of independent
//! categorical/Bernoulli draws, so one binomial draw replaces up to
//! millions of per-user coin flips. They are exact
//! (inverse-CDF, no normal approximation) up to the ~2⁻⁵² probability
//! quantization inherent in `f64` arithmetic — the same tolerance class as
//! [`crate::rng::FastBernoulli`] — and fully deterministic under the
//! workspace RNG.

use rand::Rng;

use crate::bitvec::BitVec;
use crate::error::{LdpError, Result};
use crate::rng::uniform_index;

/// O(1)-per-sample discrete distribution via the Vose alias method.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability of each column's "home" outcome.
    prob: Vec<f64>,
    /// Fallback outcome of each column.
    alias: Vec<u32>,
    /// The normalized probabilities the table was built from.
    weights: Vec<f64>,
}

impl AliasTable {
    /// Builds an alias table from non-negative `weights` (need not sum to 1).
    ///
    /// # Errors
    /// * [`LdpError::EmptyInput`] when `weights` is empty.
    /// * [`LdpError::InvalidParameter`] when any weight is negative or
    ///   non-finite, or all weights are zero.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(LdpError::EmptyInput("alias table weights"));
        }
        if weights.len() > u32::MAX as usize {
            return Err(LdpError::invalid(
                "alias table supports at most 2^32 outcomes",
            ));
        }
        let mut total = 0.0f64;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(LdpError::invalid(format!(
                    "weight {i} is {w}; weights must be finite and non-negative"
                )));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(LdpError::invalid("all weights are zero"));
        }
        if !total.is_finite() {
            // Each weight is finite but the sum overflowed: normalizing
            // would zero every weight and silently skew the table.
            return Err(LdpError::invalid(
                "weights sum to +inf; rescale them before building the alias table",
            ));
        }

        let n = weights.len();
        let normalized: Vec<f64> = weights.iter().map(|&w| w / total).collect();

        // Vose's algorithm with small/large worklists.
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        let mut scaled: Vec<f64> = normalized.iter().map(|&p| p * n as f64).collect();
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are numerically ≈ 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }

        Ok(Self {
            prob,
            alias,
            weights: normalized,
        })
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` when the table has no outcomes (never constructible).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// The normalized probability vector the table realizes.
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.weights
    }

    /// Draws one outcome index.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let col = uniform_index(rng, self.prob.len());
        if rng.gen::<f64>() < self.prob[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }
}

/// Samples a uniformly-random probability vector of length `d`
/// (a Dirichlet(1, …, 1) draw): iid Exp(1) variates, normalized.
///
/// This is how the adaptive attack "randomly generates the attacker-designed
/// distribution" (paper §VI-A.3).
pub fn random_distribution<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Vec<f64> {
    assert!(d >= 1, "distribution needs at least one outcome");
    let mut v: Vec<f64> = (0..d)
        .map(|_| {
            // Inverse-CDF Exp(1); `1 - U` keeps the argument strictly > 0.
            let u: f64 = rng.gen();
            -(1.0 - u).ln()
        })
        .collect();
    let total: f64 = v.iter().sum();
    if total <= 0.0 {
        // Astronomically unlikely; fall back to uniform.
        return vec![1.0 / d as f64; d];
    }
    for x in &mut v {
        *x /= total;
    }
    v
}

/// Zipf weights `w_k ∝ 1 / (k+1)^s` for `k = 0, …, d−1` (unnormalized).
pub fn zipf_weights(d: usize, s: f64) -> Vec<f64> {
    assert!(d >= 1);
    (0..d).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect()
}

/// Samples `k` distinct indices uniformly from `0..n` (Floyd's algorithm),
/// returned in random order.
///
/// Membership is tracked in an `n`-bit bitmap, so the scratch is `n / 8`
/// bytes whatever `k` is.
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_distinct<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    floyd(n, k, rng, &mut BitVec::zeros(n), |pick| chosen.push(pick));
    // Floyd's produces a set biased in order; shuffle for random order.
    for i in (1..chosen.len()).rev() {
        chosen.swap(i, uniform_index(rng, i + 1));
    }
    chosen
}

/// The set [`sample_distinct`] draws, as an `n`-bit bitmap, with exactly
/// its draws: Floyd's picks, then one `uniform_index(rng, i + 1)` per
/// shuffle step with the swap skipped, since the order is all a swap
/// changes. A caller that only needs membership gets the same set and
/// leaves the RNG where `sample_distinct` would, without the `k`-word
/// index vector.
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_distinct_set<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> BitVec {
    let mut set = BitVec::zeros(n);
    floyd(n, k, rng, &mut set, |_| {});
    for i in (1..k).rev() {
        uniform_index(rng, i + 1);
    }
    set
}

/// Floyd's algorithm, the one loop behind both forms: `k` distinct
/// indices of `0..n`, each marked in `taken` (all clear on entry) and
/// passed to `pick` in draw order.
fn floyd<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
    taken: &mut BitVec,
    mut pick: impl FnMut(usize),
) {
    assert!(k <= n, "cannot sample {k} distinct items from {n}");
    for j in (n - k)..n {
        let t = uniform_index(rng, j + 1);
        // Every earlier pick is below j, so j itself is always free.
        let chosen = if taken.get(t) { j } else { t };
        taken.set_one(chosen);
        pick(chosen);
    }
}

/// `ln k!` for `k = 0, …, 9` (exact integer factorials, then `ln`).
const LN_FACTORIAL_SMALL: [f64; 10] = [
    0.0,
    0.0,
    std::f64::consts::LN_2, // ln 2
    1.791_759_469_228_055,  // ln 6
    3.178_053_830_347_946,  // ln 24
    4.787_491_742_782_046,  // ln 120
    6.579_251_212_010_101,  // ln 720
    8.525_161_361_065_415,  // ln 5040
    10.604_602_902_745_25,  // ln 40320
    12.801_827_480_081_469, // ln 362880
];

/// `ln n!` via the Stirling series for `n ≥ 10` (absolute error < 1e−12),
/// exact table below.
fn ln_factorial(n: u64) -> f64 {
    if n < 10 {
        return LN_FACTORIAL_SMALL[n as usize];
    }
    let x = n as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    (x + 0.5) * x.ln() - x
        + 0.918_938_533_204_672_7 // ln √(2π)
        + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
}

/// Draws `X ~ Binomial(n, p)` exactly (inverse CDF, no normal
/// approximation) with **one** uniform variate per call.
///
/// Two regimes, both exact up to `f64` probability quantization:
///
/// * small mean (`n·min(p,1−p) ≤ 16`): bottom-up CDF inversion from 0,
///   expected `O(n·p)` pmf steps;
/// * large mean: CDF inversion zig-zagging outward from the mode, expected
///   `O(√(n·p·(1−p)))` steps — ~400 steps at `n = 10⁶, p = ½`, versus the
///   10⁶ Bernoulli draws it replaces.
///
/// Out-of-range `p` is clamped to `[0, 1]`; NaN is treated as 0 (the
/// [`crate::rng::FastBernoulli`] convention).
pub fn sample_binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    if n == 0 || p.is_nan() || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - binomial_le_half(n, 1.0 - p, rng);
    }
    binomial_le_half(n, p, rng)
}

/// [`sample_binomial`] restricted to `p ∈ (0, ½]`.
fn binomial_le_half<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    debug_assert!(p > 0.0 && p <= 0.5);
    let u: f64 = rng.gen();
    let odds = p / (1.0 - p);
    let nf = n as f64;

    if nf * p <= 16.0 {
        // Bottom-up inversion: pmf(0) = (1−p)^n cannot underflow here
        // (n·p ≤ 16 and p ≤ ½ give (1−p)^n ≥ e^{−32}).
        //
        // Branchless chunked scan. The CDF is nondecreasing (pmf ≥ 0),
        // so the inverse-CDF answer is the *count* of prefix sums the
        // uniform still clears: k = min(n, #{j : u ≥ cdf_j}). Each chunk
        // advances the pmf/cdf recurrences straight-line and accumulates
        // that count as 0/1 arithmetic — no data-dependent branch inside
        // (the classic `while u >= cdf` exit mispredicts once per draw
        // at an unpredictable step). The float op order (pmf multiply
        // chain, sequential cdf adds) is exactly the old loop's, so
        // every draw is bit-identical — pinned by
        // `branchless_binomial_keeps_captured_draws` in
        // `tests/sampler_streams.rs`. Between chunks one predictable
        // branch early-exits, keeping the small-mean regime O(n·p), not
        // O(n).
        let mut pmf = (nf * (1.0 - p).ln()).exp();
        let mut cdf = pmf; // cdf_0
        let mut k = u64::from(u >= cdf); // counts level 0
        let mut j = 0u64; // levels 0..=j materialized
        const SCAN_CHUNK: u64 = 8;
        // Invariant: k = #{i ≤ j : u ≥ cdf_i}. Continue only while every
        // materialized level cleared (k == j+1) — a miss is final by
        // monotonicity — and levels remain (the old loop never checks
        // cdf_n, capping the draw at n).
        while k == j + 1 && j + 1 < n {
            let steps = SCAN_CHUNK.min(n - 1 - j);
            for _ in 0..steps {
                pmf *= (n - j) as f64 / (j + 1) as f64 * odds;
                j += 1;
                cdf += pmf;
                k += u64::from(u >= cdf);
            }
        }
        return k;
    }

    // Zig-zag inversion from the mode m = ⌊(n+1)p⌋: accumulate pmf mass
    // outward (right step, then left step, …) until the target quantile u
    // is covered. pmf(m) via `ln_factorial` is accurate to ~1e−12, far
    // below every statistical tolerance in the workspace.
    //
    // Unlike the bottom-up regime above, this loop keeps its per-step
    // exits: the mid-iteration `u < cdf` checks are semantically
    // load-bearing (the answer depends on *which* step covered u, and
    // the right-then-left cdf add order is pinned by the captured-vector
    // tests), and the expected trip count is only O(√(n·p·(1−p))) with
    // a single taken exit — there is no misprediction pile-up to shave.
    let m = (((n + 1) as f64) * p).floor() as u64;
    let m = m.min(n);
    let ln_pmf_m = ln_factorial(n) - ln_factorial(m) - ln_factorial(n - m)
        + m as f64 * p.ln()
        + (n - m) as f64 * (1.0 - p).ln();
    let pmf_m = ln_pmf_m.exp();
    let mut cdf = pmf_m;
    if u < cdf {
        return m;
    }
    let (mut lo, mut hi) = (m, m);
    let (mut pmf_lo, mut pmf_hi) = (pmf_m, pmf_m);
    loop {
        if hi < n {
            // pmf(hi+1)/pmf(hi) = (n−hi)/(hi+1) · p/(1−p).
            pmf_hi *= (n - hi) as f64 / (hi + 1) as f64 * odds;
            hi += 1;
            cdf += pmf_hi;
            if u < cdf {
                return hi;
            }
        }
        if lo > 0 {
            // pmf(lo−1)/pmf(lo) = lo/(n−lo+1) · (1−p)/p.
            pmf_lo *= lo as f64 / (n - lo + 1) as f64 / odds;
            lo -= 1;
            cdf += pmf_lo;
            if u < cdf {
                return lo;
            }
        }
        if lo == 0 && hi == n {
            // The full support is accumulated but rounding left
            // cdf < u < 1: attribute the residual mass to the mode.
            return m;
        }
    }
}

/// Draws counts `(X_0, …, X_{k−1}) ~ Multinomial(n, weights)` exactly via
/// conditional binomial splitting: `O(k)` binomial draws regardless of `n`.
///
/// `weights` need not be normalized. Any `f64` residue left after the last
/// positive-weight bin (the conditional fractions are computed in floating
/// point) is attributed to that bin — a ≤ 2⁻⁵²-probability event per draw.
///
/// # Errors
/// Same contract as [`AliasTable::new`]: empty, negative, non-finite, or
/// all-zero weights are rejected.
pub fn sample_multinomial<R: Rng + ?Sized>(
    n: u64,
    weights: &[f64],
    rng: &mut R,
) -> Result<Vec<u64>> {
    if weights.is_empty() {
        return Err(LdpError::EmptyInput("multinomial weights"));
    }
    let mut total = 0.0f64;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(LdpError::invalid(format!(
                "weight {i} is {w}; weights must be finite and non-negative"
            )));
        }
        if w > 0.0 {
            last_positive = Some(i);
        }
        total += w;
    }
    let Some(last_positive) = last_positive else {
        return Err(LdpError::invalid("all weights are zero"));
    };
    if !total.is_finite() {
        // Per-weight finiteness does not imply a finite sum; an overflowed
        // total would send every conditional fraction to 0 and dump all
        // `n` draws on the last positive bin.
        return Err(LdpError::invalid(
            "weights sum to +inf; rescale them before sampling",
        ));
    }

    let mut counts = vec![0u64; weights.len()];
    let mut remaining_n = n;
    let mut remaining_mass = total;
    for (i, &w) in weights.iter().enumerate() {
        if remaining_n == 0 {
            break;
        }
        if i == last_positive {
            break;
        }
        if w <= 0.0 {
            continue;
        }
        let frac = (w / remaining_mass).clamp(0.0, 1.0);
        let x = sample_binomial(remaining_n, frac, rng);
        counts[i] = x;
        remaining_n -= x;
        remaining_mass -= w;
    }
    counts[last_positive] += remaining_n;
    Ok(counts)
}

/// Draws counts from `Multinomial(n, uniform over bins)` exactly.
///
/// Picks the cheaper of two exact strategies: `n` individual uniform draws
/// when `n < bins` (the counts of iid uniform draws *are* the multinomial),
/// conditional binomial splitting (`O(bins)` draws) otherwise.
///
/// Allocates the output vector; hot loops that already own a count buffer
/// should use [`add_multinomial_uniform`] instead.
///
/// # Panics
/// Panics if `bins == 0` while `n > 0`.
pub fn sample_multinomial_uniform<R: Rng + ?Sized>(n: u64, bins: usize, rng: &mut R) -> Vec<u64> {
    let mut counts = vec![0u64; bins];
    add_multinomial_uniform(n, &mut counts, rng);
    counts
}

/// Zero-alloc [`sample_multinomial_uniform`]: draws
/// `Multinomial(n, uniform over counts.len())` and **adds** each bin's
/// count into `counts` in place. Consumes exactly the RNG draws of the
/// allocating variant, so the two are bitwise interchangeable per seed.
///
/// # Panics
/// Panics if `counts` is empty while `n > 0`.
pub fn add_multinomial_uniform<R: Rng + ?Sized>(n: u64, counts: &mut [u64], rng: &mut R) {
    if n == 0 {
        return;
    }
    let bins = counts.len();
    assert!(bins >= 1, "cannot scatter {n} draws over zero bins");
    if n < bins as u64 {
        for _ in 0..n {
            counts[uniform_index(rng, bins)] += 1;
        }
        return;
    }
    let mut remaining = n;
    for (i, c) in counts.iter_mut().enumerate() {
        if remaining == 0 {
            break;
        }
        let left = (bins - i) as u64;
        if left == 1 {
            *c += remaining;
            break;
        }
        let x = sample_binomial(remaining, 1.0 / left as f64, rng);
        *c += x;
        remaining -= x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn alias_rejects_bad_inputs() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[1.0, -0.5]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[f64::NAN]).is_err());
        assert!(AliasTable::new(&[f64::INFINITY, 1.0]).is_err());
    }

    #[test]
    fn alias_normalizes_weights() {
        let t = AliasTable::new(&[2.0, 6.0]).unwrap();
        let p = t.probabilities();
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert!((p[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn alias_single_outcome() {
        let t = AliasTable::new(&[3.0]).unwrap();
        let mut rng = rng_from_seed(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn alias_zero_weight_outcomes_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 2.0]).unwrap();
        let mut rng = rng_from_seed(2);
        for _ in 0..10_000 {
            let s = t.sample(&mut rng);
            assert!(s == 1 || s == 3);
        }
    }

    #[test]
    fn alias_matches_distribution_statistically() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = rng_from_seed(3);
        let n = 400_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = weights[i] / 10.0;
            let rate = c as f64 / n as f64;
            let tol = 5.0 * (p * (1.0 - p) / n as f64).sqrt();
            assert!((rate - p).abs() < tol, "outcome {i}: rate={rate}, p={p}");
        }
    }

    #[test]
    fn random_distribution_is_on_simplex() {
        let mut rng = rng_from_seed(4);
        for d in [1usize, 2, 10, 500] {
            let p = random_distribution(d, &mut rng);
            assert_eq!(p.len(), d);
            assert!(p.iter().all(|&x| x >= 0.0));
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "d={d}, sum={sum}");
        }
    }

    #[test]
    fn zipf_weights_decrease() {
        let w = zipf_weights(10, 1.0);
        assert_eq!(w.len(), 10);
        for i in 1..10 {
            assert!(w[i] < w[i - 1]);
        }
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
        // s = 0 gives uniform weights.
        let u = zipf_weights(5, 0.0);
        assert!(u.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = rng_from_seed(5);
        for (n, k) in [(10usize, 10usize), (100, 7), (5, 0), (1, 1)] {
            let s = sample_distinct(n, k, &mut rng);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "duplicates in {s:?}");
            assert!(s.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn ln_factorial_matches_direct_summation() {
        let mut acc = 0.0f64;
        for k in 1..=200u64 {
            acc += (k as f64).ln();
            assert!(
                (ln_factorial(k) - acc).abs() < 1e-10 * acc.max(1.0),
                "k={k}: {} vs {acc}",
                ln_factorial(k)
            );
        }
        assert_eq!(ln_factorial(0), 0.0);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = rng_from_seed(10);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(100, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(100, -0.5, &mut rng), 0);
        assert_eq!(sample_binomial(100, f64::NAN, &mut rng), 0);
        assert_eq!(sample_binomial(100, 1.0, &mut rng), 100);
        assert_eq!(sample_binomial(100, 1.5, &mut rng), 100);
        for _ in 0..1000 {
            assert!(sample_binomial(1, 0.5, &mut rng) <= 1);
        }
    }

    #[test]
    fn binomial_is_deterministic() {
        let mut a = rng_from_seed(11);
        let mut b = rng_from_seed(11);
        for &(n, p) in &[(10u64, 0.3), (1_000_000, 0.5), (50, 0.97)] {
            assert_eq!(sample_binomial(n, p, &mut a), sample_binomial(n, p, &mut b));
        }
    }

    #[test]
    fn binomial_mean_and_variance_match_in_both_regimes() {
        // Covers bottom-up inversion (small n·p), zig-zag from the mode
        // (large n·p), and the p > ½ reflection.
        let mut rng = rng_from_seed(12);
        for &(n, p) in &[
            (40u64, 0.1),        // small-mean regime
            (1_000u64, 0.004),   // small mean at large n
            (100_000u64, 0.37),  // mode regime
            (1_000_000u64, 0.5), // mode regime, paper-scale n
            (2_000u64, 0.93),    // reflection
        ] {
            let trials = 3_000usize;
            let mut sum = 0.0f64;
            let mut sum_sq = 0.0f64;
            for _ in 0..trials {
                let x = sample_binomial(n, p, &mut rng) as f64;
                assert!(x <= n as f64);
                sum += x;
                sum_sq += x * x;
            }
            let mean = sum / trials as f64;
            let var = sum_sq / trials as f64 - mean * mean;
            let expect_mean = n as f64 * p;
            let expect_var = n as f64 * p * (1.0 - p);
            let mean_tol = 6.0 * (expect_var / trials as f64).sqrt();
            assert!(
                (mean - expect_mean).abs() < mean_tol,
                "n={n}, p={p}: mean={mean}, expect={expect_mean}"
            );
            // Sample variance of a binomial: se ≈ Var·√(2/trials) plus a
            // kurtosis term; 8σ keeps the test non-flaky.
            let var_tol = 8.0 * expect_var * (2.0 / trials as f64).sqrt();
            assert!(
                (var - expect_var).abs() < var_tol,
                "n={n}, p={p}: var={var}, expect={expect_var}"
            );
        }
    }

    #[test]
    fn binomial_small_n_matches_exact_pmf() {
        // χ²-style check against the exact Binomial(8, 0.3) distribution.
        let (n, p) = (8u64, 0.3f64);
        let mut rng = rng_from_seed(13);
        let trials = 200_000usize;
        let mut hist = [0usize; 9];
        for _ in 0..trials {
            hist[sample_binomial(n, p, &mut rng) as usize] += 1;
        }
        let mut pmf = (1.0 - p).powi(8);
        for (k, &observed) in hist.iter().enumerate() {
            let expect = pmf * trials as f64;
            let sigma = (pmf * (1.0 - pmf) * trials as f64).sqrt();
            assert!(
                (observed as f64 - expect).abs() < 6.0 * sigma.max(1.0),
                "k={k}: {observed} vs {expect}"
            );
            pmf *= (n - k as u64) as f64 / (k + 1) as f64 * p / (1.0 - p);
        }
    }

    /// χ² goodness of fit of `sample_binomial(n, p)` against the exact
    /// pmf, built from `ln_factorial`. Bins merge from the left until each
    /// expects at least 5 draws, and a short right tail joins the last bin.
    /// Returns the statistic and its degrees of freedom.
    fn binomial_chi_square(n: u64, p: f64, draws: usize, rng: &mut impl Rng) -> (f64, usize) {
        let mut observed = vec![0usize; n as usize + 1];
        for _ in 0..draws {
            observed[sample_binomial(n, p, rng) as usize] += 1;
        }
        let mut bins: Vec<(f64, usize)> = Vec::new(); // (expected, observed)
        let (mut expected, mut seen) = (0.0, 0);
        for (k, &count) in observed.iter().enumerate() {
            let k = k as u64;
            let ln_pmf = ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
                + k as f64 * p.ln()
                + (n - k) as f64 * (1.0 - p).ln();
            expected += ln_pmf.exp() * draws as f64;
            seen += count;
            if expected >= 5.0 {
                bins.push((expected, seen));
                (expected, seen) = (0.0, 0);
            }
        }
        let last = bins.last_mut().expect("at least one bin");
        last.0 += expected;
        last.1 += seen;
        let chi2 = bins.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
        (chi2, bins.len() - 1)
    }

    #[test]
    fn binomial_mode_regime_and_reflection_match_exact_pmf() {
        // The zig-zag-from-mode regime (n·p > 16: 400·0.3 and 20000·½)
        // and the p > ½ reflection (60·0.8, drawn as 60 − Binomial(60,
        // 0.2)), each against the exact distribution rather than its
        // moments. The bound is χ²'s upper 10⁻⁶ quantile for the bins'
        // degrees of freedom, by the Wilson–Hilferty cube (z = 4.753).
        let mut rng = rng_from_seed(15);
        for (n, p) in [(400u64, 0.3), (60, 0.8), (20_000, 0.5)] {
            let (chi2, dof) = binomial_chi_square(n, p, 40_000, &mut rng);
            let h = 2.0 / (9.0 * dof as f64);
            let bound = dof as f64 * (1.0 - h + 4.753 * h.sqrt()).powi(3);
            assert!(
                chi2 < bound,
                "Binomial({n}, {p}): χ² = {chi2:.1} over {dof} dof exceeds {bound:.1}"
            );
        }
    }

    /// χ² goodness of fit of `sample_multinomial(n, weights)` against its
    /// exact joint pmf, over every outcome (the compositions of `n` into
    /// the positive bins), enumerated in lexicographic order. Outcomes merge
    /// in that order until each bin expects at least 5 draws, and a short
    /// tail joins the last bin. Returns the statistic and its degrees of
    /// freedom.
    fn multinomial_chi_square(
        n: u64,
        weights: &[f64],
        draws: usize,
        rng: &mut impl Rng,
    ) -> (f64, usize) {
        let total: f64 = weights.iter().sum();
        let positive: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0.0).collect();
        // Every outcome over the positive bins, with its exact probability.
        let mut outcomes: Vec<(Vec<u64>, f64)> = Vec::new();
        let mut counts = vec![0u64; positive.len()];
        fn compose(bin: usize, left: u64, counts: &mut Vec<u64>, visit: &mut impl FnMut(&[u64])) {
            if bin + 1 == counts.len() {
                counts[bin] = left;
                visit(counts);
                return;
            }
            for c in (0..=left).rev() {
                counts[bin] = c;
                compose(bin + 1, left - c, counts, visit);
            }
        }
        compose(0, n, &mut counts, &mut |c| {
            let ln_p = c
                .iter()
                .zip(&positive)
                .fold(ln_factorial(n), |acc, (&k, &i)| {
                    acc - ln_factorial(k) + k as f64 * (weights[i] / total).ln()
                });
            outcomes.push((c.to_vec(), ln_p.exp()));
        });
        let index: std::collections::BTreeMap<&[u64], usize> = outcomes
            .iter()
            .enumerate()
            .map(|(at, (c, _))| (c.as_slice(), at))
            .collect();
        let mut observed = vec![0usize; outcomes.len()];
        for _ in 0..draws {
            let sample = sample_multinomial(n, weights, rng).unwrap();
            for (i, &c) in sample.iter().enumerate() {
                assert!(weights[i] > 0.0 || c == 0, "zero-weight bin {i} drew {c}");
            }
            let drawn: Vec<u64> = positive.iter().map(|&i| sample[i]).collect();
            assert_eq!(drawn.iter().sum::<u64>(), n, "a draw must place all n");
            let at = index[drawn.as_slice()];
            observed[at] += 1;
        }
        let mut bins: Vec<(f64, usize)> = Vec::new(); // (expected, observed)
        let (mut expected, mut seen) = (0.0, 0);
        for ((_, p), &count) in outcomes.iter().zip(&observed) {
            expected += p * draws as f64;
            seen += count;
            if expected >= 5.0 {
                bins.push((expected, seen));
                (expected, seen) = (0.0, 0);
            }
        }
        let last = bins.last_mut().expect("at least one bin");
        last.0 += expected;
        last.1 += seen;
        let chi2 = bins.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
        (chi2, bins.len() - 1)
    }

    #[test]
    fn multinomial_matches_exact_joint_pmf() {
        // Conditional splitting against the exact joint distribution, not
        // its moments: a small case with a zero-weight bin in the middle
        // (all 455 compositions of 12 into 4 positive bins), and a 3-bin
        // case whose conditional binomials both take the zig-zag-from-mode
        // regime (100·0.4 and about 60·0.5 > 16). Same 10⁻⁶
        // Wilson–Hilferty bound as the binomial test.
        let mut rng = rng_from_seed(16);
        for (n, weights) in [
            (12u64, &[1.0, 0.0, 2.0, 3.0, 4.0][..]),
            (100, &[4.0, 3.0, 3.0][..]),
        ] {
            let (chi2, dof) = multinomial_chi_square(n, weights, 40_000, &mut rng);
            let h = 2.0 / (9.0 * dof as f64);
            let bound = dof as f64 * (1.0 - h + 4.753 * h.sqrt()).powi(3);
            assert!(
                chi2 < bound,
                "Multinomial({n}, {weights:?}): χ² = {chi2:.1} over {dof} dof exceeds {bound:.1}"
            );
        }
    }

    #[test]
    fn multinomial_rejects_bad_weights() {
        let mut rng = rng_from_seed(14);
        assert!(sample_multinomial(10, &[], &mut rng).is_err());
        assert!(sample_multinomial(10, &[1.0, -1.0], &mut rng).is_err());
        assert!(sample_multinomial(10, &[0.0, 0.0], &mut rng).is_err());
        assert!(sample_multinomial(10, &[f64::NAN], &mut rng).is_err());
        assert!(sample_multinomial(10, &[f64::INFINITY, 1.0], &mut rng).is_err());
    }

    #[test]
    fn multinomial_rejects_overflowing_weight_totals() {
        // Every weight finite, but the *sum* overflows to +inf: the old
        // code normalized by it, zeroing every conditional fraction and
        // silently dumping all n draws on the last positive bin.
        let mut rng = rng_from_seed(140);
        let overflow = [f64::MAX, f64::MAX, 1.0];
        let err = sample_multinomial(10, &overflow, &mut rng).unwrap_err();
        assert!(err.to_string().contains("inf"), "{err}");
        assert!(AliasTable::new(&overflow).is_err());
        // Large-but-finite totals stay valid.
        let big = [f64::MAX / 4.0, f64::MAX / 4.0];
        let counts = sample_multinomial(10, &big, &mut rng).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert!(AliasTable::new(&big).is_ok());
    }

    #[test]
    fn multinomial_edge_cases_conserve_totals() {
        let mut rng = rng_from_seed(141);
        // Single category: every draw lands in it.
        for n in [0u64, 1, 12_345] {
            assert_eq!(sample_multinomial(n, &[0.7], &mut rng).unwrap(), vec![n]);
        }
        // n = 0 with many categories: all zeros, no RNG consumed panic-free.
        assert_eq!(
            sample_multinomial(0, &[1.0, 2.0, 3.0], &mut rng).unwrap(),
            vec![0, 0, 0]
        );
        // Unnormalized weights (sum ≫ 1 and sum ≪ 1) conserve the total.
        for weights in [&[300.0, 500.0, 200.0][..], &[3e-9, 5e-9, 2e-9][..]] {
            let counts = sample_multinomial(100_000, weights, &mut rng).unwrap();
            assert_eq!(counts.iter().sum::<u64>(), 100_000);
        }
        // Subnormal-but-positive weights still behave.
        let tiny = [f64::MIN_POSITIVE, f64::MIN_POSITIVE];
        let counts = sample_multinomial(1_000, &tiny, &mut rng).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn add_multinomial_uniform_matches_allocating_variant_bitwise() {
        // The zero-alloc variant must consume the identical RNG stream —
        // it is what the batched samplers' hot loops now call.
        for (n, bins) in [(0u64, 4usize), (5, 100), (5_000, 16), (64, 64), (7, 1)] {
            let mut a = rng_from_seed(18);
            let mut b = rng_from_seed(18);
            let alloc = sample_multinomial_uniform(n, bins, &mut a);
            let mut added = vec![3u64; bins]; // pre-seeded: must add, not overwrite
            add_multinomial_uniform(n, &mut added, &mut b);
            for (x, y) in alloc.iter().zip(&added) {
                assert_eq!(x + 3, *y, "n={n} bins={bins}");
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG streams diverged");
        }
    }

    #[test]
    fn multinomial_conserves_total_and_respects_zeros() {
        let mut rng = rng_from_seed(15);
        let weights = [0.0, 3.0, 1.0, 0.0, 6.0, 0.0];
        for n in [0u64, 1, 17, 100_000] {
            let counts = sample_multinomial(n, &weights, &mut rng).unwrap();
            assert_eq!(counts.iter().sum::<u64>(), n);
            assert_eq!(counts[0], 0);
            assert_eq!(counts[3], 0);
            assert_eq!(counts[5], 0);
        }
    }

    #[test]
    fn multinomial_matches_weights_statistically() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let n = 40_000u64;
        let trials = 300usize;
        let mut rng = rng_from_seed(16);
        let mut sums = [0.0f64; 4];
        for _ in 0..trials {
            let counts = sample_multinomial(n, &weights, &mut rng).unwrap();
            for (s, &c) in sums.iter_mut().zip(&counts) {
                *s += c as f64;
            }
        }
        for (i, &s) in sums.iter().enumerate() {
            let p = weights[i] / 10.0;
            let expect = n as f64 * p;
            let mean = s / trials as f64;
            let tol = 6.0 * (n as f64 * p * (1.0 - p) / trials as f64).sqrt();
            assert!((mean - expect).abs() < tol, "bin {i}: {mean} vs {expect}");
        }
    }

    #[test]
    fn multinomial_uniform_both_strategies() {
        let mut rng = rng_from_seed(17);
        // n < bins: per-draw path. n ≥ bins: splitting path.
        for (n, bins) in [(5u64, 100usize), (0, 10), (5_000, 16), (64, 64)] {
            let counts = sample_multinomial_uniform(n, bins, &mut rng);
            assert_eq!(counts.len(), bins);
            assert_eq!(counts.iter().sum::<u64>(), n);
        }
        // Uniformity of the splitting path.
        let bins = 8usize;
        let trials = 400usize;
        let n = 8_000u64;
        let mut sums = vec![0.0f64; bins];
        for _ in 0..trials {
            for (s, &c) in sums
                .iter_mut()
                .zip(&sample_multinomial_uniform(n, bins, &mut rng))
            {
                *s += c as f64;
            }
        }
        let p = 1.0 / bins as f64;
        let expect = n as f64 * p;
        let tol = 6.0 * (n as f64 * p * (1.0 - p) / trials as f64).sqrt();
        for (i, &s) in sums.iter().enumerate() {
            let mean = s / trials as f64;
            assert!((mean - expect).abs() < tol, "bin {i}: {mean} vs {expect}");
        }
    }

    #[test]
    fn sample_distinct_draws_match_the_hash_set_floyd() {
        // The bitmap replaced a HashSet; the picks, their order and the
        // draws consumed must not change.
        fn hash_set_floyd(n: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
            let mut chosen = Vec::with_capacity(k);
            let mut set = std::collections::HashSet::new();
            for j in (n - k)..n {
                let t = uniform_index(rng, j + 1);
                if set.insert(t) {
                    chosen.push(t);
                } else {
                    set.insert(j);
                    chosen.push(j);
                }
            }
            for i in (1..chosen.len()).rev() {
                chosen.swap(i, uniform_index(rng, i + 1));
            }
            chosen
        }
        for (n, k) in [
            (1usize, 1usize),
            (10, 10),
            (100, 7),
            (130, 65),
            (5000, 2500),
        ] {
            for seed in 0..8 {
                let mut rng = rng_from_seed(seed);
                let mut reference = rng_from_seed(seed);
                assert_eq!(
                    sample_distinct(n, k, &mut rng),
                    hash_set_floyd(n, k, &mut reference),
                    "n={n} k={k} seed={seed}"
                );
                assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
            }
        }
    }

    /// The set form against the ordered form: the same set and the same
    /// next RNG word, for k = 0, 1, n/2 and n.
    #[test]
    fn kernel_oracle_distinct_set_matches_sample_distinct() {
        for n in [1usize, 2, 65, 130, 5000] {
            for k in [0, 1, n / 2, n] {
                for seed in 0..4 {
                    let mut rng = rng_from_seed(seed);
                    let mut reference = rng_from_seed(seed);
                    let set = sample_distinct_set(n, k, &mut rng);
                    let mut want = sample_distinct(n, k, &mut reference);
                    want.sort_unstable();
                    assert_eq!(
                        set.iter_ones().collect::<Vec<_>>(),
                        want,
                        "n={n} k={k} seed={seed}"
                    );
                    assert_eq!(set.len(), n);
                    assert_eq!(
                        rng.gen::<u64>(),
                        reference.gen::<u64>(),
                        "n={n} k={k} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_distinct_is_roughly_uniform() {
        let mut rng = rng_from_seed(6);
        let mut hits = [0usize; 6];
        let trials = 60_000;
        for _ in 0..trials {
            for i in sample_distinct(6, 2, &mut rng) {
                hits[i] += 1;
            }
        }
        // Each index appears with probability 2/6 per trial.
        let expect = trials as f64 * 2.0 / 6.0;
        for &h in &hits {
            assert!(
                (h as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "hits={hits:?}"
            );
        }
    }
}
