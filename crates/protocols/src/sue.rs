//! Symmetric Unary Encoding (SUE) — basic RAPPOR (Erlingsson et al., CCS
//! 2014), included as an extension beyond the paper's protocol trio.
//!
//! Like OUE, each user one-hot-encodes her item; unlike OUE, both bit
//! states share one keep-probability: the true bit stays 1 with
//! `p = e^{ε/2}/(1 + e^{ε/2})` and every other bit flips to 1 with
//! `q = 1 − p = 1/(1 + e^{ε/2})`. OUE dominates SUE in variance — that is
//! the "optimized" in its name — which makes SUE a useful ablation point:
//! every attack and the entire LDPRecover stack apply unchanged because
//! SUE is a pure protocol with the same report shape as OUE.

use ldp_common::rng::FastBernoulli;
use ldp_common::{BitVec, Domain, Result};
use rand::Rng;

use crate::params::{check_epsilon, PureParams};
use crate::traits::LdpFrequencyProtocol;

/// The SUE protocol instance for a fixed `(ε, D)`.
#[derive(Debug, Clone, Copy)]
pub struct Sue {
    domain: Domain,
    epsilon: f64,
    params: PureParams,
    one_bit: FastBernoulli,
    zero_bit: FastBernoulli,
}

impl Sue {
    /// Builds SUE for privacy budget `epsilon` over `domain`.
    ///
    /// # Errors
    /// Propagates ε / probability validation failures.
    pub fn new(epsilon: f64, domain: Domain) -> Result<Self> {
        check_epsilon(epsilon)?;
        let half = (epsilon / 2.0).exp();
        let p = half / (1.0 + half);
        let q = 1.0 - p;
        let params = PureParams::new(p, q, domain)?;
        Ok(Self {
            domain,
            epsilon,
            params,
            one_bit: FastBernoulli::new(p),
            zero_bit: FastBernoulli::new(q),
        })
    }

    /// Expected number of set bits in a genuine report: `p + (d−1)·q`.
    pub fn expected_ones(&self) -> f64 {
        self.params.p() + (self.domain.size() as f64 - 1.0) * self.params.q()
    }
}

impl LdpFrequencyProtocol for Sue {
    type Report = BitVec;

    fn name(&self) -> &'static str {
        "SUE"
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

    fn perturb<R: Rng + ?Sized>(&self, item: usize, rng: &mut R) -> BitVec {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        let d = self.domain.size();
        let mut bits = BitVec::zeros(d);
        for v in 0..d {
            let on = if v == item {
                self.one_bit.sample(rng)
            } else {
                self.zero_bit.sample(rng)
            };
            if on {
                bits.set_one(v);
            }
        }
        bits
    }

    fn encode_clean<R: Rng + ?Sized>(&self, item: usize, _rng: &mut R) -> BitVec {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        let mut bits = BitVec::zeros(self.domain.size());
        bits.set_one(item);
        bits
    }

    #[inline]
    fn supports(&self, report: &BitVec, v: usize) -> bool {
        report.get(v)
    }

    fn accumulate(&self, report: &BitVec, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.domain.size());
        for v in report.iter_ones() {
            counts[v] += 1;
        }
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
    use crate::oue::Oue;
    use ldp_common::rng::rng_from_seed;

    fn sue(eps: f64, d: usize) -> Sue {
        Sue::new(eps, Domain::new(d).unwrap()).unwrap()
    }

    #[test]
    fn probabilities_are_symmetric_rappor() {
        let s = sue(1.0, 32);
        let half = 0.5f64.exp();
        assert!((s.params().p() - half / (1.0 + half)).abs() < 1e-15);
        assert!((s.params().p() + s.params().q() - 1.0).abs() < 1e-15);
        // ε-LDP for unary encodings holds at ε/2 per bit pair:
        // (p/q)² = e^ε.
        let ratio = s.params().p() / s.params().q();
        assert!((ratio * ratio - 1.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn oue_dominates_sue_in_variance() {
        // The reason OUE exists (Wang et al. 2017): strictly lower variance
        // at equal ε for reasonable budgets.
        let domain = Domain::new(100).unwrap();
        for &eps in &[0.5f64, 1.0, 2.0] {
            let sue = Sue::new(eps, domain).unwrap();
            let oue = Oue::new(eps, domain).unwrap();
            let vs = sue.params().variance_frequency(0.01, 10_000);
            let vo = oue.params().variance_frequency(0.01, 10_000);
            assert!(vo < vs, "eps={eps}: OUE {vo} !< SUE {vs}");
        }
    }

    #[test]
    fn estimates_are_unbiased() {
        let s = sue(1.0, 8);
        let mut rng = rng_from_seed(1);
        let n = 40_000;
        let mut counts = vec![0u64; 8];
        for _ in 0..n {
            let r = s.perturb(3, &mut rng);
            s.accumulate(&r, &mut counts);
        }
        let freqs = s.params().debias_frequencies(&counts, n).unwrap();
        let sigma = s.params().variance_frequency(1.0, n).sqrt();
        assert!((freqs[3] - 1.0).abs() < 6.0 * sigma, "f={}", freqs[3]);
        for (v, &f) in freqs.iter().enumerate() {
            if v != 3 {
                let sigma0 = s.params().variance_frequency(0.0, n).sqrt();
                assert!(f.abs() < 6.0 * sigma0, "item {v}: f={f}");
            }
        }
    }

    #[test]
    fn clean_encoding_is_one_hot() {
        let s = sue(0.5, 16);
        let mut rng = rng_from_seed(2);
        let r = s.encode_clean(9, &mut rng);
        assert_eq!(r.count_ones(), 1);
        assert!(s.supports(&r, 9));
    }

    #[test]
    fn expected_ones_exceeds_oue() {
        // SUE's q is larger than OUE's at ε = 0.5, so genuine SUE reports
        // are denser.
        let domain = Domain::new(100).unwrap();
        let s = Sue::new(0.5, domain).unwrap();
        let o = Oue::new(0.5, domain).unwrap();
        assert!(s.expected_ones() > o.expected_ones());
    }
}
