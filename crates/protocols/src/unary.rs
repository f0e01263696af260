//! Unary encoding (paper §III-B, Eq. (5)–(7)): OUE and SUE.
//!
//! Each user one-hot-encodes her item into a `d`-bit vector and perturbs
//! every bit independently: the true-item bit is reported as 1 with
//! probability `p`, every other bit with probability `q`. A report supports
//! exactly the items whose bits are set. The two members of the family
//! differ only in `(p, q)`:
//!
//! * **OUE** (optimized unary encoding, [`UnaryEncoding::oue`]) —
//!   `p = 1/2`, `q = 1/(e^ε+1)`.
//! * **SUE** (symmetric unary encoding, [`UnaryEncoding::sue`]) — basic
//!   RAPPOR (Erlingsson et al., CCS 2014), an extension beyond the paper's
//!   protocol trio. Both bit states share one keep-probability: the true
//!   bit stays 1 with `p = e^{ε/2}/(1 + e^{ε/2})` and every other bit
//!   flips to 1 with `q = 1 − p`. OUE dominates SUE in variance — that is
//!   the "optimized" in its name — which makes SUE a useful ablation point:
//!   every attack and the entire LDPRecover stack apply unchanged because
//!   the report shape is the same.
//!
//! Perturbation is the hottest loop of the whole simulator (`n × d`
//! Bernoulli draws, ≈ 3.3 × 10⁸ per Fire-scale trial), so the zero-bits are
//! flipped with [`FastBernoulli`] (one `u64` compare per bit) rather than
//! `f64` draws.

use ldp_common::bitvec::BitSink;
use ldp_common::rng::FastBernoulli;
use ldp_common::{BitVec, Domain, Result};
use rand::Rng;

use crate::params::{check_epsilon, PureParams};
use crate::report::ProtocolKind;
use crate::traits::LdpFrequencyProtocol;

/// A unary-encoding protocol instance (OUE or SUE) for a fixed `(ε, D)`.
#[derive(Debug, Clone, Copy)]
pub struct UnaryEncoding {
    kind: ProtocolKind,
    domain: Domain,
    epsilon: f64,
    params: PureParams,
    one_bit: FastBernoulli,
    zero_bit: FastBernoulli,
}

impl UnaryEncoding {
    /// Builds OUE for privacy budget `epsilon` over `domain`.
    ///
    /// # Errors
    /// Propagates ε / probability validation failures.
    pub fn oue(epsilon: f64, domain: Domain) -> Result<Self> {
        check_epsilon(epsilon)?;
        let q = 1.0 / (epsilon.exp() + 1.0);
        Self::with_probabilities(ProtocolKind::Oue, epsilon, domain, 0.5, q)
    }

    /// Builds SUE for privacy budget `epsilon` over `domain`.
    ///
    /// # Errors
    /// Propagates ε / probability validation failures.
    pub fn sue(epsilon: f64, domain: Domain) -> Result<Self> {
        check_epsilon(epsilon)?;
        let half = (epsilon / 2.0).exp();
        let p = half / (1.0 + half);
        Self::with_probabilities(ProtocolKind::Sue, epsilon, domain, p, 1.0 - p)
    }

    fn with_probabilities(
        kind: ProtocolKind,
        epsilon: f64,
        domain: Domain,
        p: f64,
        q: f64,
    ) -> Result<Self> {
        Ok(Self {
            kind,
            domain,
            epsilon,
            params: PureParams::new(p, q, domain)?,
            one_bit: FastBernoulli::new(p),
            zero_bit: FastBernoulli::new(q),
        })
    }

    /// Which unary encoding this is: [`ProtocolKind::Oue`] or
    /// [`ProtocolKind::Sue`].
    pub(crate) fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Expected number of set bits in a *genuine* report for an arbitrary
    /// input: `p + (d−1)·q`. The precise MGA attack pads its crafted
    /// reports to this count to evade count-based detection.
    pub fn expected_ones(&self) -> f64 {
        self.params.p() + (self.domain.size() as f64 - 1.0) * self.params.q()
    }

    /// Ψ into `sink`, `d` long: into a zeroed [`BitVec`] it is
    /// [`perturb`](LdpFrequencyProtocol::perturb); into a row of support
    /// counts it adds that report's support with the same draws, building
    /// no report. One Bernoulli draw per bit, in index order: `q` for the
    /// bits before the item's, `p` for the item's own bit, `q` for the
    /// bits after it. Each stretch matches its threshold once, and a packed
    /// report ORs its draws into words, so the ~`q·d` set bits cost no
    /// mispredicted branch.
    pub fn perturb_into<S: BitSink + ?Sized, R: Rng + ?Sized>(
        &self,
        item: usize,
        sink: &mut S,
        rng: &mut R,
    ) {
        debug_assert!(self.domain.contains(item), "item {item} out of domain");
        self.zero_bit.fill(sink, 0..item, rng);
        self.one_bit.fill(sink, item..item + 1, rng);
        self.zero_bit.fill(sink, item + 1..self.domain.size(), rng);
    }
}

impl LdpFrequencyProtocol for UnaryEncoding {
    type Report = BitVec;

    fn name(&self) -> &'static str {
        self.kind.name()
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
        let mut bits = BitVec::zeros(self.domain.size());
        self.perturb_into(item, &mut bits, rng);
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
    use rand::RngCore;

    fn oue(eps: f64, d: usize) -> UnaryEncoding {
        UnaryEncoding::oue(eps, Domain::new(d).unwrap()).unwrap()
    }

    fn sue(eps: f64, d: usize) -> UnaryEncoding {
        UnaryEncoding::sue(eps, Domain::new(d).unwrap()).unwrap()
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

    /// Ψ as it was before the three-stretch split: one closure call per
    /// bit that branches on `v == item` and matches the sampler's
    /// threshold, packed word by word.
    fn perturb_unary_per_index(
        d: usize,
        item: usize,
        one_bit: FastBernoulli,
        zero_bit: FastBernoulli,
        rng: &mut impl Rng,
    ) -> BitVec {
        let mut bits = BitVec::zeros(d);
        bits.or_range(0..d, |v| {
            if v == item {
                one_bit.sample(rng)
            } else {
                zero_bit.sample(rng)
            }
        });
        bits
    }

    /// The per-bit `set_one` loop, the form Ψ started from.
    fn per_bit_loop(
        d: usize,
        item: usize,
        one_bit: FastBernoulli,
        zero_bit: FastBernoulli,
        rng: &mut impl Rng,
    ) -> BitVec {
        let mut bits = BitVec::zeros(d);
        for v in 0..d {
            let on = if v == item {
                one_bit.sample(rng)
            } else {
                zero_bit.sample(rng)
            };
            if on {
                bits.set_one(v);
            }
        }
        bits
    }

    #[test]
    fn unary_perturbation_matches_the_per_bit_loop() {
        // The packed-word Ψ must make the same draws in the same order as
        // the per-bit `set_one` loop it replaced, for OUE and SUE
        // probabilities, a certain bit (p = 1 draws nothing), and domains
        // on and off the 64-bit word boundary.
        for (p, q) in [(0.5, 0.38), (0.62, 0.38), (1.0, 0.1)] {
            let (one_bit, zero_bit) = (FastBernoulli::new(p), FastBernoulli::new(q));
            for d in [1usize, 2, 63, 64, 65, 102, 490] {
                let domain = Domain::new(d).unwrap();
                let unary = UnaryEncoding::with_probabilities(ProtocolKind::Oue, 1.0, domain, p, q)
                    .unwrap();
                let mut rng = rng_from_seed(d as u64);
                let mut reference = rng_from_seed(d as u64);
                for item in [0, d / 2, d - 1] {
                    let mut bits = BitVec::zeros(d);
                    unary.perturb_into(item, &mut bits, &mut rng);
                    assert_eq!(
                        bits,
                        per_bit_loop(d, item, one_bit, zero_bit, &mut reference),
                        "p={p} d={d} item={item}"
                    );
                }
                assert_eq!(rng.gen::<u64>(), reference.gen::<u64>(), "p={p} d={d}");
            }
        }
    }

    /// OUE and SUE `perturb` against the per-index Ψ it replaced, with
    /// samplers rebuilt from each protocol's (p, q): several ε (SUE's item
    /// bit is certain, p = 1, at ε = 100), the item at the first and last
    /// position and on both sides of each word boundary, and the draw
    /// that follows.
    #[test]
    fn kernel_oracle_unary_perturbation() {
        for d in [1usize, 63, 64, 65, 102, 490] {
            let domain = Domain::new(d).unwrap();
            let mut items: Vec<usize> = vec![0, d - 1, d / 2];
            items.extend([62, 63, 64, 65, 127, 128].into_iter().filter(|&i| i < d));
            for eps in [0.1, 0.5, 1.6, 4.0, 100.0] {
                for kind in [ProtocolKind::Oue, ProtocolKind::Sue] {
                    let protocol = kind.build(eps, domain).unwrap();
                    let params = protocol.params();
                    let one_bit = FastBernoulli::new(params.p());
                    let zero_bit = FastBernoulli::new(params.q());
                    let seed = d as u64 * 1000 + (eps * 10.0) as u64;
                    let mut rng = rng_from_seed(seed);
                    let mut reference = rng_from_seed(seed);
                    for _ in 0..3 {
                        for &item in &items {
                            let want =
                                perturb_unary_per_index(d, item, one_bit, zero_bit, &mut reference);
                            let got = match protocol.perturb(item, &mut rng) {
                                crate::Report::Unary(bits) => bits,
                                other => panic!("unexpected {other:?}"),
                            };
                            assert_eq!(got, want, "{kind} eps={eps} d={d} item={item}");
                        }
                    }
                    assert_eq!(
                        rng.next_u64(),
                        reference.next_u64(),
                        "{kind} eps={eps} d={d}: next draw"
                    );
                }
            }
        }
        // SUE's item bit at ε = 100 is certain: the sampler's p = 1 arm.
        let sue = ProtocolKind::Sue
            .build(100.0, Domain::new(8).unwrap())
            .unwrap();
        assert_eq!(FastBernoulli::new(sue.params().p()).probability(), 1.0);
    }

    /// Count Ψ against its report form: for OUE and SUE at several ε
    /// (SUE's item bit is certain at ε = 100 and draws nothing), `m`
    /// reports' support added straight into a count row equals folding
    /// the reports `perturb` builds, and the next draw agrees.
    #[test]
    fn kernel_oracle_unary_perturbation_counts() {
        use crate::report::AnyProtocol;
        for d in [1usize, 63, 64, 65, 490] {
            let domain = Domain::new(d).unwrap();
            let mut items: Vec<usize> = vec![0, d - 1, d / 2];
            items.extend([63, 64].into_iter().filter(|&i| i < d));
            for eps in [0.5, 4.0, 100.0] {
                for kind in [ProtocolKind::Oue, ProtocolKind::Sue] {
                    let protocol = kind.build(eps, domain).unwrap();
                    let AnyProtocol::Unary(unary) = protocol else {
                        unreachable!()
                    };
                    let seed = d as u64 * 1000 + eps as u64;
                    let mut rng = rng_from_seed(seed);
                    let mut reference = rng_from_seed(seed);
                    let mut counts = vec![0u64; d];
                    let mut folded = vec![0u64; d];
                    for _ in 0..20 {
                        for &item in &items {
                            unary.perturb_into(item, counts.as_mut_slice(), &mut rng);
                            let report = protocol.perturb(item, &mut reference);
                            protocol.accumulate(&report, &mut folded);
                        }
                    }
                    assert_eq!(counts, folded, "{kind} eps={eps} d={d}");
                    assert_eq!(
                        rng.next_u64(),
                        reference.next_u64(),
                        "{kind} eps={eps} d={d}: next draw"
                    );
                }
            }
        }
    }

    #[test]
    fn expected_ones_formula() {
        let o = oue(0.5, 490);
        let q = 1.0 / (0.5f64.exp() + 1.0);
        let expect = 0.5 + 489.0 * q;
        assert!((o.expected_ones() - expect).abs() < 1e-12);
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
            let sue = UnaryEncoding::sue(eps, domain).unwrap();
            let oue = UnaryEncoding::oue(eps, domain).unwrap();
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
        let s = UnaryEncoding::sue(0.5, domain).unwrap();
        let o = UnaryEncoding::oue(0.5, domain).unwrap();
        assert!(s.expected_ones() > o.expected_ones());
    }
}
