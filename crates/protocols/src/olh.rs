//! Optimized Local Hashing (paper §III-B, Eq. (8)–(10)).
//!
//! Each user samples a hash function `H` from the seeded xxhash64 family
//! (identified by its 64-bit seed), hashes her item into the small range
//! `{0, …, g−1}` with `g = ⌈e^ε + 1⌉`, perturbs the hashed value with GRR
//! over that range, and reports the pair `(H, value)`. A report supports all
//! items hashing to `value` under `H`, so the support probabilities are
//! `p = e^ε/(e^ε + g − 1)` (true item) and `q = 1/g` (any other item —
//! uniform hashing).

use ldp_common::hash::OlhHash;
use ldp_common::rng::{uniform_index, FastBernoulli};
use ldp_common::{Domain, LdpError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::params::{check_epsilon, PureParams};
use crate::traits::LdpFrequencyProtocol;

/// One OLH report: the sampled hash function (by seed) and the perturbed
/// hashed value in `{0, …, g−1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OlhReport {
    /// Seed identifying the hash-family member the user sampled.
    pub seed: u64,
    /// The (perturbed) hashed value.
    pub value: u32,
}

/// The OLH protocol instance for a fixed `(ε, D)`.
#[derive(Debug, Clone, Copy)]
pub struct Olh {
    domain: Domain,
    epsilon: f64,
    g: u32,
    params: PureParams,
    keep_true: FastBernoulli,
}

impl Olh {
    /// Builds OLH with the paper's default range `g = ⌈e^ε + 1⌉`.
    ///
    /// # Errors
    /// Propagates ε validation failures.
    pub fn new(epsilon: f64, domain: Domain) -> Result<Self> {
        check_epsilon(epsilon)?;
        let g = (epsilon.exp() + 1.0).ceil() as u32;
        Self::with_range(epsilon, domain, g.max(2))
    }

    /// Builds OLH with an explicit hash range `g ≥ 2` (for ablations).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `g < 2`; otherwise propagates ε /
    /// probability validation failures.
    pub fn with_range(epsilon: f64, domain: Domain, g: u32) -> Result<Self> {
        check_epsilon(epsilon)?;
        if g < 2 {
            return Err(LdpError::invalid(format!(
                "OLH range g must be ≥ 2, got {g}"
            )));
        }
        let e_eps = epsilon.exp();
        // Support probabilities: the true item is supported iff the hashed
        // value survives GRR-over-[g] (prob p); any other item collides with
        // the reported value with probability 1/g by hash uniformity.
        let p = e_eps / (e_eps + f64::from(g) - 1.0);
        let q = 1.0 / f64::from(g);
        let params = PureParams::new(p, q, domain)?;
        Ok(Self {
            domain,
            epsilon,
            g,
            params,
            keep_true: FastBernoulli::new(p),
        })
    }

    /// The hash range `g`.
    #[inline]
    pub fn range(&self) -> u32 {
        self.g
    }

    /// The hash-family member identified by `seed`.
    #[inline]
    pub fn hasher(&self, seed: u64) -> OlhHash {
        OlhHash::new(seed, self.g)
    }
}

impl LdpFrequencyProtocol for Olh {
    type Report = OlhReport;

    fn name(&self) -> &'static str {
        "OLH"
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

    fn perturb<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> OlhReport {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        let seed: u64 = rng.gen();
        let hashed = self.hasher(seed).hash(item);
        // GRR over {0, …, g−1}: keep with probability p, else uniform other.
        let value = if self.keep_true.sample(rng) {
            hashed
        } else {
            let r = uniform_index(rng, self.g as usize - 1) as u32;
            if r >= hashed {
                r + 1
            } else {
                r
            }
        };
        OlhReport { seed, value }
    }

    fn encode_clean<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> OlhReport {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        let seed: u64 = rng.gen();
        OlhReport {
            seed,
            value: self.hasher(seed).hash(item),
        }
    }

    #[inline]
    fn supports(&self, report: &OlhReport, v: usize) -> bool {
        self.hasher(report.seed).hash(v) == report.value
    }

    fn accumulate(&self, report: &OlhReport, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.domain.size());
        let hasher = self.hasher(report.seed);
        for (v, c) in counts.iter_mut().enumerate() {
            // O(d) hash evaluations per report — n·d total on the per-user
            // path (the batched λ-split sampler avoids them entirely);
            // xxh64_u64 keeps it a handful of ns each.
            if hasher.hash(v) == report.value {
                *c += 1;
            }
        }
    }

    fn batch_aggregate<R: Rng + ?Sized>(
        &self,
        item_counts: &[u64],
        rng: &mut R,
    ) -> Option<Vec<u64>> {
        // Closed-form since the λ-split sampler (`crate::batch`): two
        // binomials per item, no per-user loop.
        Some(self.batch_support_counts(item_counts, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;

    fn olh(eps: f64, d: usize) -> Olh {
        Olh::new(eps, Domain::new(d).unwrap()).unwrap()
    }

    #[test]
    fn default_range_matches_paper() {
        // ε = 0.5 ⇒ g = ⌈e^0.5 + 1⌉ = ⌈2.6487⌉ = 3.
        assert_eq!(olh(0.5, 100).range(), 3);
        // ε = 1.6 ⇒ g = ⌈e^1.6 + 1⌉ = ⌈5.953⌉ = 6.
        assert_eq!(olh(1.6, 100).range(), 6);
        // Tiny ε still keeps g ≥ 2.
        assert!(olh(0.01, 100).range() >= 2);
    }

    #[test]
    fn explicit_range_validation() {
        let d = Domain::new(10).unwrap();
        assert!(Olh::with_range(0.5, d, 1).is_err());
        assert!(Olh::with_range(0.5, d, 8).is_ok());
    }

    #[test]
    fn support_probabilities() {
        let o = olh(0.5, 64);
        let e = 0.5f64.exp();
        let g = 3.0;
        assert!((o.params().p() - e / (e + g - 1.0)).abs() < 1e-15);
        assert!((o.params().q() - 1.0 / g).abs() < 1e-15);
    }

    #[test]
    fn perturbed_report_supports_true_item_with_probability_p() {
        let o = olh(0.5, 32);
        let mut rng = rng_from_seed(1);
        let n = 120_000;
        let hits = (0..n)
            .filter(|_| {
                let r = o.perturb(13, &mut rng);
                o.supports(&r, 13)
            })
            .count();
        let rate = hits as f64 / n as f64;
        let p = o.params().p();
        let tol = 5.0 * (p * (1.0 - p) / n as f64).sqrt();
        assert!((rate - p).abs() < tol, "rate={rate}, p={p}");
    }

    #[test]
    fn perturbed_report_supports_other_items_with_probability_q() {
        let o = olh(0.5, 32);
        let mut rng = rng_from_seed(2);
        let n = 120_000;
        let hits = (0..n)
            .filter(|_| {
                let r = o.perturb(13, &mut rng);
                o.supports(&r, 14)
            })
            .count();
        let rate = hits as f64 / n as f64;
        let q = o.params().q();
        let tol = 5.0 * (q * (1.0 - q) / n as f64).sqrt();
        assert!((rate - q).abs() < tol, "rate={rate}, q={q}");
    }

    #[test]
    fn clean_encoding_always_supports_its_item() {
        let o = olh(0.5, 100);
        let mut rng = rng_from_seed(3);
        for item in [0usize, 17, 99] {
            let r = o.encode_clean(item, &mut rng);
            assert!(o.supports(&r, item));
        }
    }

    #[test]
    fn accumulate_matches_supports() {
        let o = olh(0.5, 40);
        let mut rng = rng_from_seed(4);
        let r = o.perturb(7, &mut rng);
        let mut counts = vec![0u64; 40];
        o.accumulate(&r, &mut counts);
        for (v, &count) in counts.iter().enumerate() {
            assert_eq!(count == 1, o.supports(&r, v), "item {v}");
        }
        // Roughly d/g items should be supported.
        let total: u64 = counts.iter().sum();
        assert!(total > 0 && total < 40);
    }
}
