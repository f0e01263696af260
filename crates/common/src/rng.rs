//! Deterministic randomness plumbing.
//!
//! Every randomized component in the workspace takes an explicit
//! [`rand::Rng`]; nothing reads ambient entropy. Experiments derive
//! independent per-trial / per-component streams from a single master seed
//! via [`derive_seed`] (a SplitMix64 walk), which is what makes every figure
//! reproducible from `--seed` alone.
//!
//! The module also provides [`FastBernoulli`], an integer-threshold Bernoulli
//! sampler used on the hottest path of the simulator: OUE perturbs
//! `n × d` individual bits (≈ 3.3 × 10⁸ draws for the Fire-scale workload),
//! and a compare-against-`u64` is several times cheaper than going through
//! `f64` generation per bit.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::bitvec::BitSink;

/// Finalizer of SplitMix64: maps a state to a well-mixed output.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a seed for sub-stream `stream` of a master seed.
///
/// Distinct `(master, stream)` pairs give (practically) independent seeds.
/// The trial runner uses `stream = trial_index`, the pipeline uses
/// offsets like `stream = trial_index * K + component`.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    // Two finalizer applications with distinct pre-whitening so that
    // (m, s) and (m + 1, s - 1) do not collide.
    let a = splitmix64_mix(master ^ 0x243F_6A88_85A3_08D3);
    let b = splitmix64_mix(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ a);
    splitmix64_mix(a.wrapping_add(b.rotate_left(17)))
}

/// Derives a seed for a two-dimensional sub-stream of a master seed —
/// the shard/epoch grid of the streaming ingestion engine.
///
/// Distinct `(master, stream, substream)` triples give (practically)
/// independent seeds, and the derivation is hierarchical: every
/// `substream` of a fixed `stream` lives inside that stream's own seed
/// space, so a shard can be re-run (or resumed from a checkpoint) epoch
/// by epoch without knowing anything about the other shards.
#[inline]
pub fn derive_seed2(master: u64, stream: u64, substream: u64) -> u64 {
    derive_seed(derive_seed(master, stream), substream)
}

/// Constructs the workspace-standard RNG from a seed.
///
/// `SmallRng` (xoshiro-family) is not cryptographic, which is fine: the
/// simulator models sampling noise, not adversarial randomness, and the
/// attacker in the threat model crafts reports deterministically anyway.
#[inline]
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// A Bernoulli(p) sampler using a single `u64` compare per draw.
///
/// `sample()` returns `true` with probability `p` up to a quantization error
/// of 2⁻⁶⁴, which is far below every statistical tolerance in this workspace.
#[derive(Debug, Clone, Copy)]
pub struct FastBernoulli {
    /// Draw succeeds iff `next_u64() < threshold`; `None` encodes p = 1.
    threshold: Option<u64>,
}

impl FastBernoulli {
    /// Creates a sampler for success probability `p ∈ [0, 1]`.
    ///
    /// Probabilities outside the range are clamped; NaN is treated as 0.
    pub fn new(p: f64) -> Self {
        if p.is_nan() || p <= 0.0 {
            return Self { threshold: Some(0) };
        }
        if p >= 1.0 {
            return Self { threshold: None };
        }
        // p · 2⁶⁴, computed in f64 (53-bit mantissa ⇒ ~2⁻⁵³ relative error,
        // irrelevant at simulation scale).
        let t = (p * (u64::MAX as f64 + 1.0)).round();
        let threshold = if t >= u64::MAX as f64 + 1.0 {
            None
        } else {
            Some(t as u64)
        };
        Self { threshold }
    }

    /// Draws one Bernoulli sample.
    #[inline(always)]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        match self.threshold {
            Some(t) => rng.next_u64() < t,
            None => true,
        }
    }

    /// Draws one sample per index of `range`, in index order, and puts
    /// the outcomes into `sink` — what looping [`Self::sample`] and
    /// setting (or counting) each success does, with the threshold matched
    /// once instead of per bit. At p = 1 every index succeeds and nothing
    /// is drawn, as `sample` does.
    ///
    /// # Panics
    /// Panics if `range` does not lie within `sink`.
    #[inline]
    pub fn fill<S: BitSink + ?Sized, R: Rng + ?Sized>(
        &self,
        sink: &mut S,
        range: Range<usize>,
        rng: &mut R,
    ) {
        match self.threshold {
            Some(t) => sink.put_range(range, |_| rng.next_u64() < t),
            None => sink.put_range(range, |_| true),
        }
    }

    /// The success probability this sampler realizes (after quantization).
    pub fn probability(&self) -> f64 {
        match self.threshold {
            Some(t) => t as f64 / (u64::MAX as f64 + 1.0),
            None => 1.0,
        }
    }
}

/// Draws a uniform index in `0..n` (n ≥ 1) using Lemire's rejection method.
///
/// This is what `rand`'s `gen_range` does internally, exposed here so hot
/// loops can pre-bind `n` without constructing a `Uniform` each call.
#[inline(always)]
pub fn uniform_index<R: Rng + ?Sized>(rng: &mut R, n: usize) -> usize {
    debug_assert!(n >= 1);
    rng.gen_range(0..n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitVec;
    use rand::RngCore;

    #[test]
    fn derive_seed_is_deterministic_and_spreads() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 0);
        assert_eq!(a, b);
        assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 0));
        // The (m, s) vs (m+1, s-1) trap must not collide.
        assert_ne!(derive_seed(10, 5), derive_seed(11, 4));
    }

    #[test]
    fn derive_seed2_is_deterministic_and_spreads() {
        assert_eq!(derive_seed2(42, 3, 7), derive_seed2(42, 3, 7));
        // Every coordinate matters…
        assert_ne!(derive_seed2(42, 3, 7), derive_seed2(43, 3, 7));
        assert_ne!(derive_seed2(42, 3, 7), derive_seed2(42, 4, 7));
        assert_ne!(derive_seed2(42, 3, 7), derive_seed2(42, 3, 8));
        // …and the grid is not symmetric (shard 3 / epoch 7 must not
        // collide with shard 7 / epoch 3).
        assert_ne!(derive_seed2(42, 3, 7), derive_seed2(42, 7, 3));
        // Hierarchy: (m, s, e) is substream e of derive_seed(m, s).
        assert_eq!(derive_seed2(42, 3, 7), derive_seed(derive_seed(42, 3), 7));
    }

    #[test]
    fn fast_bernoulli_edge_probabilities() {
        let mut rng = rng_from_seed(1);
        let never = FastBernoulli::new(0.0);
        let always = FastBernoulli::new(1.0);
        for _ in 0..1000 {
            assert!(!never.sample(&mut rng));
            assert!(always.sample(&mut rng));
        }
        assert_eq!(never.probability(), 0.0);
        assert_eq!(always.probability(), 1.0);
        // Clamping.
        assert_eq!(FastBernoulli::new(-0.5).probability(), 0.0);
        assert_eq!(FastBernoulli::new(1.5).probability(), 1.0);
        assert_eq!(FastBernoulli::new(f64::NAN).probability(), 0.0);
    }

    #[test]
    fn fast_bernoulli_matches_probability_statistically() {
        let mut rng = rng_from_seed(7);
        for &p in &[0.1, 0.378, 0.5, 0.9] {
            let bern = FastBernoulli::new(p);
            let n = 200_000;
            let hits = (0..n).filter(|_| bern.sample(&mut rng)).count();
            let rate = hits as f64 / n as f64;
            // 5σ tolerance for a binomial proportion.
            let tol = 5.0 * (p * (1.0 - p) / n as f64).sqrt();
            assert!((rate - p).abs() < tol, "p={p}, rate={rate}, tol={tol}");
        }
    }

    #[test]
    fn kernel_oracle_bernoulli_fill_matches_sampling_each_bit() {
        // One draw per index, in order, as the per-bit `sample` loop, into
        // a packed report and into a count row alike; a certain bit
        // (p = 1) and an empty range draw nothing.
        for p in [0.0, 0.3, 0.5, 1.0] {
            let bern = FastBernoulli::new(p);
            for (len, range) in [(130, 0..130), (130, 3..3), (130, 63..65), (70, 5..69)] {
                let mut rng = rng_from_seed(11);
                let mut counted = rng_from_seed(11);
                let mut reference = rng_from_seed(11);
                let mut filled = BitVec::mask_of(len, &[0]);
                bern.fill(&mut filled, range.clone(), &mut rng);
                let mut row = vec![1u64; len];
                bern.fill(row.as_mut_slice(), range.clone(), &mut counted);
                let mut looped = BitVec::mask_of(len, &[0]);
                let mut looped_row = vec![1u64; len];
                for i in range.clone() {
                    if bern.sample(&mut reference) {
                        looped.set_one(i);
                        looped_row[i] += 1;
                    }
                }
                assert_eq!(filled, looped, "p={p} range={range:?}");
                assert_eq!(row, looped_row, "p={p} range={range:?}");
                let next = reference.next_u64();
                assert_eq!(rng.next_u64(), next, "p={p} range={range:?}");
                assert_eq!(counted.next_u64(), next, "p={p} range={range:?}");
            }
        }
    }

    #[test]
    fn uniform_index_covers_range() {
        let mut rng = rng_from_seed(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[uniform_index(&mut rng, 10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rng_from_seed_reproducible() {
        let mut a = rng_from_seed(99);
        let mut b = rng_from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
