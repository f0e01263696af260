//! Generalized Randomized Response (paper §III-B, Eq. (2)–(4)).
//!
//! Each user reports her true item with probability `p = e^ε/(d−1+e^ε)` and
//! any *specific* other item with probability `q = 1/(d−1+e^ε)`. A report
//! supports exactly the single item it names, so the support probabilities
//! coincide with the perturbation probabilities.

use ldp_common::rng::{uniform_index, FastBernoulli};
use ldp_common::{Domain, Result};
use rand::Rng;

use crate::params::{check_epsilon, PureParams};
use crate::traits::LdpFrequencyProtocol;

/// The GRR protocol instance for a fixed `(ε, D)`.
#[derive(Debug, Clone, Copy)]
pub struct Grr {
    domain: Domain,
    epsilon: f64,
    params: PureParams,
    keep_true: FastBernoulli,
}

impl Grr {
    /// Builds GRR for privacy budget `epsilon` over `domain`.
    ///
    /// # Errors
    /// Propagates parameter validation failures (ε ≤ 0; degenerate domains
    /// where `p = q`, which happens only for `d = 1`... never, since
    /// `p/q = e^ε > 1` whenever ε > 0).
    pub fn new(epsilon: f64, domain: Domain) -> Result<Self> {
        check_epsilon(epsilon)?;
        let d = domain.size() as f64;
        let e_eps = epsilon.exp();
        let p = e_eps / (d - 1.0 + e_eps);
        let q = 1.0 / (d - 1.0 + e_eps);
        let params = PureParams::new(p, q, domain)?;
        Ok(Self {
            domain,
            epsilon,
            params,
            keep_true: FastBernoulli::new(p),
        })
    }
}

impl LdpFrequencyProtocol for Grr {
    type Report = u32;

    fn name(&self) -> &'static str {
        "GRR"
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
        let d = self.domain.size();
        if d == 1 || self.keep_true.sample(rng) {
            return item as u32;
        }
        // Uniform over the d−1 non-true items.
        let r = uniform_index(rng, d - 1);
        (if r >= item { r + 1 } else { r }) as u32
    }

    fn encode_clean<R: Rng + ?Sized>(&self, item: usize, _rng: &mut R) -> u32 {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        item as u32
    }

    #[inline]
    fn supports(&self, report: &u32, v: usize) -> bool {
        *report as usize == v
    }

    #[inline]
    fn accumulate(&self, report: &u32, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.domain.size());
        counts[*report as usize] += 1;
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

    fn grr(eps: f64, d: usize) -> Grr {
        Grr::new(eps, Domain::new(d).unwrap()).unwrap()
    }

    #[test]
    fn parameters_match_paper_equation_2() {
        let g = grr(0.5, 102);
        let e = 0.5f64.exp();
        assert!((g.params().p() - e / (101.0 + e)).abs() < 1e-15);
        assert!((g.params().q() - 1.0 / (101.0 + e)).abs() < 1e-15);
        // ε-LDP: p/q = e^ε.
        assert!((g.params().p() / g.params().q() - e).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_epsilon() {
        assert!(Grr::new(0.0, Domain::new(4).unwrap()).is_err());
        assert!(Grr::new(-1.0, Domain::new(4).unwrap()).is_err());
    }

    #[test]
    fn perturb_keeps_true_item_with_probability_p() {
        let g = grr(1.0, 8);
        let mut rng = rng_from_seed(1);
        let n = 200_000;
        let kept = (0..n).filter(|_| g.perturb(5, &mut rng) == 5).count();
        let rate = kept as f64 / n as f64;
        let p = g.params().p();
        let tol = 5.0 * (p * (1.0 - p) / n as f64).sqrt();
        assert!((rate - p).abs() < tol, "rate={rate}, p={p}");
    }

    #[test]
    fn perturb_spreads_uniformly_over_other_items() {
        let g = grr(1.0, 5);
        let mut rng = rng_from_seed(2);
        let n = 250_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[g.perturb(2, &mut rng) as usize] += 1;
        }
        let q = g.params().q();
        for (v, &c) in counts.iter().enumerate() {
            if v == 2 {
                continue;
            }
            let rate = c as f64 / n as f64;
            let tol = 5.0 * (q * (1.0 - q) / n as f64).sqrt();
            assert!((rate - q).abs() < tol, "item {v}: rate={rate}, q={q}");
        }
    }

    #[test]
    fn clean_encoding_is_identity_and_supports_only_itself() {
        let g = grr(0.5, 10);
        let mut rng = rng_from_seed(3);
        let r = g.encode_clean(7, &mut rng);
        assert_eq!(r, 7);
        assert!(g.supports(&r, 7));
        assert!(!g.supports(&r, 6));
        let mut counts = vec![0u64; 10];
        g.accumulate(&r, &mut counts);
        assert_eq!(counts[7], 1);
        assert_eq!(counts.iter().sum::<u64>(), 1);
    }

    #[test]
    fn degenerate_single_item_domain() {
        let g = grr(0.5, 1);
        let mut rng = rng_from_seed(4);
        assert_eq!(g.perturb(0, &mut rng), 0);
    }
}
