//! Optimized Unary Encoding (paper §III-B, Eq. (5)–(7)).
//!
//! Each user one-hot-encodes her item into a `d`-bit vector and perturbs
//! every bit independently: the true-item bit is reported as 1 with
//! probability `p = 1/2`, every other bit with probability `q = 1/(e^ε+1)`.
//! A report supports exactly the items whose bits are set.
//!
//! Perturbation is the hottest loop of the whole simulator (`n × d`
//! Bernoulli draws, ≈ 3.3 × 10⁸ per Fire-scale trial), so the zero-bits are
//! flipped with [`FastBernoulli`] (one `u64` compare per bit) rather than
//! `f64` draws.

use ldp_common::rng::FastBernoulli;
use ldp_common::{BitVec, Domain, Result};
use rand::Rng;

use crate::params::{check_epsilon, PureParams};
use crate::traits::LdpFrequencyProtocol;

/// The OUE protocol instance for a fixed `(ε, D)`.
#[derive(Debug, Clone, Copy)]
pub struct Oue {
    domain: Domain,
    epsilon: f64,
    params: PureParams,
    one_bit: FastBernoulli,
    zero_bit: FastBernoulli,
}

impl Oue {
    /// Builds OUE for privacy budget `epsilon` over `domain`.
    ///
    /// # Errors
    /// Propagates ε / probability validation failures.
    pub fn new(epsilon: f64, domain: Domain) -> Result<Self> {
        check_epsilon(epsilon)?;
        let p = 0.5;
        let q = 1.0 / (epsilon.exp() + 1.0);
        let params = PureParams::new(p, q, domain)?;
        Ok(Self {
            domain,
            epsilon,
            params,
            one_bit: FastBernoulli::new(p),
            zero_bit: FastBernoulli::new(q),
        })
    }

    /// Expected number of set bits in a *genuine* report for an arbitrary
    /// input: `p + (d−1)·q`. The precise MGA attack pads its crafted
    /// reports to this count to evade count-based detection.
    pub fn expected_ones(&self) -> f64 {
        self.params.p() + (self.domain.size() as f64 - 1.0) * self.params.q()
    }
}

impl LdpFrequencyProtocol for Oue {
    type Report = BitVec;

    fn name(&self) -> &'static str {
        "OUE"
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
    use ldp_common::rng::rng_from_seed;

    fn oue(eps: f64, d: usize) -> Oue {
        Oue::new(eps, Domain::new(d).unwrap()).unwrap()
    }

    #[test]
    fn parameters_match_paper_equation_5() {
        let o = oue(0.5, 490);
        assert_eq!(o.params().p(), 0.5);
        let q = 1.0 / (0.5f64.exp() + 1.0);
        assert!((o.params().q() - q).abs() < 1e-15);
    }

    #[test]
    fn bit_flip_rates_match_p_and_q() {
        let o = oue(1.0, 32);
        let mut rng = rng_from_seed(1);
        let n = 30_000;
        let mut ones = vec![0usize; 32];
        for _ in 0..n {
            let r = o.perturb(9, &mut rng);
            for v in r.iter_ones() {
                ones[v] += 1;
            }
        }
        let p = o.params().p();
        let q = o.params().q();
        for (v, &c) in ones.iter().enumerate() {
            let target = if v == 9 { p } else { q };
            let rate = c as f64 / n as f64;
            let tol = 5.5 * (target * (1.0 - target) / n as f64).sqrt();
            assert!(
                (rate - target).abs() < tol,
                "bit {v}: rate={rate}, target={target}"
            );
        }
    }

    #[test]
    fn clean_encoding_sets_exactly_one_bit() {
        let o = oue(0.5, 100);
        let mut rng = rng_from_seed(2);
        let r = o.encode_clean(42, &mut rng);
        assert_eq!(r.count_ones(), 1);
        assert!(o.supports(&r, 42));
        assert!(!o.supports(&r, 41));
    }

    #[test]
    fn accumulate_counts_all_set_bits() {
        let o = oue(0.5, 8);
        let mut counts = vec![0u64; 8];
        let r = BitVec::mask_of(8, &[0, 3, 7]);
        o.accumulate(&r, &mut counts);
        assert_eq!(counts, vec![1, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn expected_ones_formula() {
        let o = oue(0.5, 490);
        let q = 1.0 / (0.5f64.exp() + 1.0);
        let expect = 0.5 + 489.0 * q;
        assert!((o.expected_ones() - expect).abs() < 1e-12);
    }
}
