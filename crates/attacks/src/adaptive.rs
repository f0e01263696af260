//! The adaptive attack (paper §V-C): the unifying model LDPRecover learns
//! against.
//!
//! The attacker designs a distribution `P` over the items and draws each
//! malicious user's item from it. Every known attack is a special case
//! (Manip: uniform on `H`; sampled MGA: uniform on the target set), which
//! is exactly why LDPRecover can learn the *sum* of malicious aggregated
//! frequencies without attack knowledge (Eq. (20)/(21)): each crafted
//! report supports, in expectation, one item. A drawn item becomes a
//! report in one of three ways: its clean encoding ([`AdaptiveAttack::craft`]),
//! padded on OUE and SUE ([`AdaptiveAttack::craft_camouflaged`]), or run
//! through Ψ ([`AdaptiveAttack::craft_perturbed`]). On OUE and SUE each
//! way also has a count form for [`crate::Attack::craft_counts`], next to
//! it: the same draws, each bit added to a support count instead of set
//! in a report.

use ldp_common::sampling::{random_distribution, sample_distinct, AliasTable};
use ldp_common::{BitVec, Domain, Result};
use ldp_protocols::{AnyProtocol, LdpFrequencyProtocol, Report, UnaryEncoding};
use rand::Rng;

use crate::mga::pad_unary;

/// An adaptive attack: an attacker-designed distribution `P` over the
/// items, plus the target set `P` is uniform on, if any.
#[derive(Debug, Clone)]
pub struct AdaptiveAttack {
    sampler: AliasTable,
    targets: Option<Vec<usize>>,
}

impl AdaptiveAttack {
    /// Builds the attack from an attacker-designed distribution over `D`
    /// (weights need not be normalized).
    ///
    /// # Errors
    /// Propagates alias-table validation (empty / negative / all-zero).
    pub fn from_distribution(weights: &[f64]) -> Result<Self> {
        Ok(Self {
            sampler: AliasTable::new(weights)?,
            targets: None,
        })
    }

    /// The paper's experimental instantiation (§VI-A.3): a uniformly-random
    /// attacker-designed distribution (Dirichlet(1, …, 1) draw).
    pub fn random<R: Rng + ?Sized>(domain: Domain, rng: &mut R) -> Self {
        let weights = random_distribution(domain.size(), rng);
        Self {
            sampler: AliasTable::new(&weights).expect("random distribution is valid"),
            targets: None,
        }
    }

    /// `P` uniform on `targets`: sampled MGA and MGA-IPA.
    ///
    /// # Panics
    /// Panics if `targets` is empty or contains out-of-domain items.
    pub fn uniform_over(domain: Domain, targets: Vec<usize>) -> Self {
        assert!(!targets.is_empty(), "target set must be non-empty");
        assert!(
            targets.iter().all(|&t| domain.contains(t)),
            "targets must lie in the domain"
        );
        let mut weights = vec![0.0; domain.size()];
        for &t in &targets {
            weights[t] = 1.0;
        }
        Self {
            sampler: AliasTable::new(&weights).expect("uniform target weights valid"),
            targets: Some(targets),
        }
    }

    /// `P` uniform on `r` distinct targets sampled uniformly from the
    /// domain (the paper's setup; see [`AdaptiveAttack::uniform_over`]).
    ///
    /// # Panics
    /// Panics if `r == 0` or `r > d`.
    pub fn random_targets<R: Rng + ?Sized>(domain: Domain, r: usize, rng: &mut R) -> Self {
        assert!(r >= 1 && r <= domain.size(), "need 1 ≤ r ≤ d");
        Self::uniform_over(domain, sample_distinct(domain.size(), r, rng))
    }

    /// The attacker-designed distribution `P` this attack samples from.
    pub fn distribution(&self) -> &[f64] {
        self.sampler.probabilities()
    }

    /// The target set `P` is uniform on, if the attack is targeted.
    pub fn targets(&self) -> Option<&[usize]> {
        self.targets.as_deref()
    }

    /// Crafts `m` reports, each the clean encoding of an item drawn from
    /// `P`.
    pub fn craft<R: Rng + ?Sized>(
        &self,
        protocol: &AnyProtocol,
        m: usize,
        rng: &mut R,
    ) -> Vec<Report> {
        (0..m)
            .map(|_| {
                let item = self.sampler.sample(rng);
                protocol.encode_clean(item, rng)
            })
            .collect()
    }

    /// The count form of [`AdaptiveAttack::craft`] on OUE and SUE, whose
    /// clean encoding sets the item's bit alone and draws nothing.
    pub(crate) fn craft_unary_counts<R: Rng + ?Sized>(
        &self,
        m: usize,
        rng: &mut R,
        counts: &mut [u64],
    ) {
        for _ in 0..m {
            counts[self.sampler.sample(rng)] += 1;
        }
    }

    /// Crafts `m` *camouflaged* reports (AA-C, an extension beyond the
    /// paper).
    ///
    /// The clean encoding on OUE and SUE is a one-hot vector with a single
    /// set bit — far fewer than the `p + (d−1)q ≈ q·d` bits a genuine
    /// perturbed report carries, which (a) makes the reports trivially
    /// distinguishable and (b) *depresses* every item's debiased frequency
    /// rather than promoting the sampled one (on OUE this drives the
    /// degeneracy that Ablation 3 of `ldp repro --figure ablations`
    /// repairs with the D₁ fallback). So each OUE and SUE report is padded
    /// with random extra bits up to the expected genuine popcount: it
    /// looks statistically like a genuine report while still
    /// deterministically supporting the sampled item. GRR, OLH and HR
    /// clean encodings are already genuine-shaped, so they are sent as
    /// [`AdaptiveAttack::craft`] sends them.
    pub fn craft_camouflaged<R: Rng + ?Sized>(
        &self,
        protocol: &AnyProtocol,
        m: usize,
        rng: &mut R,
    ) -> Vec<Report> {
        let AnyProtocol::Unary(unary) = protocol else {
            return self.craft(protocol, m, rng);
        };
        let d = unary.domain().size();
        let extra = camouflage_padding(unary);
        (0..m)
            .map(|_| {
                let item = self.sampler.sample(rng);
                let mut bits = BitVec::mask_of(d, &[item]);
                pad_unary(&mut bits, extra, rng, |_, _| {});
                Report::Unary(bits)
            })
            .collect()
    }

    /// The count form of [`AdaptiveAttack::craft_camouflaged`] on OUE and
    /// SUE: each drawn item gains 1, then its report's padding runs on a
    /// scratch mask reset to the item's bit, and each newly set bit adds 1
    /// to its count.
    pub(crate) fn craft_camouflaged_unary_counts<R: Rng + ?Sized>(
        &self,
        unary: &UnaryEncoding,
        m: usize,
        rng: &mut R,
        counts: &mut [u64],
    ) {
        let extra = camouflage_padding(unary);
        let mut mask = BitVec::zeros(unary.domain().size());
        for _ in 0..m {
            let item = self.sampler.sample(rng);
            counts[item] += 1;
            mask.clear_all();
            mask.set_one(item);
            pad_unary(&mut mask, extra, rng, |v, new| counts[v] += new);
        }
    }

    /// Crafts `m` input-poisoning reports (§VII-B): each drawn item goes
    /// through the genuine perturbation Ψ, as an honest user's would.
    ///
    /// The paper shows (Fig. 8) that this is 2–4 orders of magnitude
    /// weaker than the general attack, and defends against it by pairing
    /// LDPRecover with the k-means subset defense (Fig. 9).
    pub fn craft_perturbed<R: Rng + ?Sized>(
        &self,
        protocol: &AnyProtocol,
        m: usize,
        rng: &mut R,
    ) -> Vec<Report> {
        (0..m)
            .map(|_| {
                let item = self.sampler.sample(rng);
                protocol.perturb(item, rng)
            })
            .collect()
    }

    /// The count form of [`AdaptiveAttack::craft_perturbed`] on OUE and
    /// SUE: Ψ's three stretches (before, at and after the item's bit) add
    /// each success to its count.
    pub(crate) fn craft_perturbed_unary_counts<R: Rng + ?Sized>(
        &self,
        unary: &UnaryEncoding,
        m: usize,
        rng: &mut R,
        counts: &mut [u64],
    ) {
        for _ in 0..m {
            let item = self.sampler.sample(rng);
            unary.perturb_into(item, counts, rng);
        }
    }
}

/// The bits an AA-C report gains beyond its item's: enough to reach the
/// expected genuine popcount, which is clamped to `1..=d`.
fn camouflage_padding(unary: &UnaryEncoding) -> usize {
    (unary.expected_ones().round() as usize).clamp(1, unary.domain().size()) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;
    use ldp_protocols::{CountAccumulator, ProtocolKind};
    use rand::RngCore;

    #[test]
    fn random_distribution_covers_domain() {
        let mut rng = rng_from_seed(1);
        let aa = AdaptiveAttack::random(Domain::new(50).unwrap(), &mut rng);
        assert_eq!(aa.distribution().len(), 50);
        let sum: f64 = aa.distribution().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(aa.targets().is_none());
    }

    #[test]
    fn from_distribution_validates() {
        assert!(AdaptiveAttack::from_distribution(&[]).is_err());
        assert!(AdaptiveAttack::from_distribution(&[0.0, 0.0]).is_err());
        assert!(AdaptiveAttack::from_distribution(&[0.2, 0.8]).is_ok());
    }

    #[test]
    fn uniform_over_targets_only_samples_targets() {
        let domain = Domain::new(20).unwrap();
        let aa = AdaptiveAttack::uniform_over(domain, vec![4, 9, 14]);
        let proto = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(2);
        let reports = aa.craft(&proto, 1000, &mut rng);
        for r in &reports {
            match r {
                Report::Grr(v) => assert!([4u32, 9, 14].contains(v)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(aa.targets().unwrap(), &[4, 9, 14]);
    }

    #[test]
    fn malicious_frequency_sum_matches_learning_constant_grr_oue() {
        // The identity behind Eq. (21): for GRR and OUE, each clean
        // encoding supports exactly one item, so Σ_v C_Y(v) = m *exactly*
        // and the debiased frequencies sum to (1 − q·d)/(p − q)
        // deterministically.
        let domain = Domain::new(24).unwrap();
        let mut rng = rng_from_seed(3);
        let aa = AdaptiveAttack::random(domain, &mut rng);
        for kind in [ProtocolKind::Grr, ProtocolKind::Oue] {
            let proto = kind.build(0.5, domain).unwrap();
            let m = 5_000;
            let reports = aa.craft(&proto, m, &mut rng);
            let mut acc = CountAccumulator::new(domain);
            acc.add_all(&proto, &reports);
            let freqs = acc.frequencies(proto.params()).unwrap();
            let total: f64 = freqs.iter().sum();
            let expect = proto.params().malicious_frequency_sum();
            assert!(
                (total - expect).abs() < 1e-6 * expect.abs().max(1.0),
                "{kind:?}: total={total}, expect={expect}"
            );
        }
    }

    #[test]
    fn camouflaged_oue_reports_look_genuine_but_support_sampled_item() {
        let domain = Domain::new(64).unwrap();
        let proto = ProtocolKind::Oue.build(0.5, domain).unwrap();
        let oue = match &proto {
            ldp_protocols::AnyProtocol::Unary(o) => *o,
            _ => unreachable!(),
        };
        let mut weights = vec![0.0; 64];
        weights[11] = 1.0; // deterministic sampled item
        let attack = AdaptiveAttack::from_distribution(&weights).unwrap();
        let mut rng = rng_from_seed(9);
        let expected = oue.expected_ones().round() as usize;
        for r in attack.craft_camouflaged(&proto, 40, &mut rng) {
            match r {
                Report::Unary(bits) => {
                    assert!(bits.get(11), "sampled item must be supported");
                    assert_eq!(bits.count_ones(), expected, "genuine-looking popcount");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn camouflaged_sue_reports_are_padded_and_support_the_sampled_item() {
        for (d, eps) in [(64usize, 0.5), (102, 1.6), (490, 0.5), (490, 4.0)] {
            let domain = Domain::new(d).unwrap();
            let proto = ProtocolKind::Sue.build(eps, domain).unwrap();
            let sue = match &proto {
                ldp_protocols::AnyProtocol::Unary(s) => *s,
                _ => unreachable!(),
            };
            let mut weights = vec![0.0; d];
            weights[d / 3] = 1.0; // deterministic sampled item
            let attack = AdaptiveAttack::from_distribution(&weights).unwrap();
            let mut rng = rng_from_seed(d as u64);
            let expected = sue.expected_ones().round() as usize;
            for r in attack.craft_camouflaged(&proto, 40, &mut rng) {
                match r {
                    Report::Unary(bits) => {
                        assert!(bits.get(d / 3), "sampled item must be supported");
                        assert_eq!(bits.count_ones(), expected, "d={d} eps={eps}");
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    /// AA-C's unary crafting against the branching padding loop it
    /// replaced (for SUE, that loop at SUE's popcount: the old code left
    /// SUE unpadded): the same reports and the same next draw.
    #[test]
    fn kernel_oracle_camouflaged_unary_padding() {
        for d in [16usize, 102, 490] {
            let domain = Domain::new(d).unwrap();
            let attack = AdaptiveAttack::random(domain, &mut rng_from_seed(d as u64));
            for eps in [0.1, 0.5, 1.6, 4.0] {
                for kind in [ProtocolKind::Oue, ProtocolKind::Sue] {
                    let proto = kind.build(eps, domain).unwrap();
                    let expected = match &proto {
                        ldp_protocols::AnyProtocol::Unary(u) => u.expected_ones(),
                        _ => unreachable!(),
                    };
                    let popcount = (expected.round() as usize).clamp(1, d);
                    let mut rng = rng_from_seed(d as u64 + 5);
                    let mut reference = rng_from_seed(d as u64 + 5);
                    for report in attack.craft_camouflaged(&proto, 40, &mut rng) {
                        let item = attack.sampler.sample(&mut reference);
                        let mut want = BitVec::zeros(d);
                        want.set_one(item);
                        let mut remaining = popcount - 1;
                        while remaining > 0 {
                            let v = reference.gen_range(0..d);
                            if !want.get(v) {
                                want.set_one(v);
                                remaining -= 1;
                            }
                        }
                        match report {
                            Report::Unary(bits) => {
                                assert_eq!(bits, want, "{kind} d={d} eps={eps}");
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    assert_eq!(rng.next_u64(), reference.next_u64(), "{kind} d={d}");
                }
            }
        }
    }

    #[test]
    fn camouflaged_neutralizes_the_frequency_sum_for_oue() {
        // Raw clean encodings give the (very negative) Eq. (21) sum because
        // they carry one set bit instead of the genuine ≈ q·d; the
        // camouflaged variant pads to the genuine popcount, so its malicious
        // frequency sum lands near zero (within popcount-rounding of it) —
        // the mechanics behind Ablation 3 of `ldp repro --figure
        // ablations`, which runs AA and AA-C on OUE.
        let domain = Domain::new(64).unwrap();
        let proto = ProtocolKind::Oue.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(10);
        let camo = AdaptiveAttack::random(domain, &mut rng);
        let reports = camo.craft_camouflaged(&proto, 20_000, &mut rng);
        let mut acc = CountAccumulator::new(domain);
        acc.add_all(&proto, &reports);
        let total: f64 = acc.frequencies(proto.params()).unwrap().iter().sum();
        let raw_constant = proto.params().malicious_frequency_sum();
        assert!(
            raw_constant < -100.0,
            "raw Eq. 21 constant is very negative"
        );
        assert!(
            total.abs() < 5.0,
            "camouflaged sum should be near zero, got {total}"
        );
    }

    #[test]
    fn olh_clean_encodings_support_colliding_items_too() {
        // For OLH a clean encoding (H, H(t)) also supports every item that
        // collides with t under H (probability q = 1/g each), so the true
        // malicious frequency sum is (1 − q)/(p − q) — *not* the paper's
        // Eq. (21) constant. LDPRecover nevertheless uses Eq. (21); the
        // discrepancy is absorbed by the norm-sub refinement (Ablation 1 of
        // `ldp repro --figure ablations` compares it with the exact
        // `MaliciousSumModel::CollisionAware`).
        let domain = Domain::new(24).unwrap();
        let mut rng = rng_from_seed(4);
        let aa = AdaptiveAttack::random(domain, &mut rng);
        let proto = ProtocolKind::Olh.build(0.5, domain).unwrap();
        let m = 60_000;
        let reports = aa.craft(&proto, m, &mut rng);
        let mut acc = CountAccumulator::new(domain);
        acc.add_all(&proto, &reports);
        let freqs = acc.frequencies(proto.params()).unwrap();
        let total: f64 = freqs.iter().sum();
        let params = proto.params();
        let collision_aware = (1.0 - params.q()) / (params.p() - params.q());
        assert!(
            (total - collision_aware).abs() < 0.05 * collision_aware.abs(),
            "total={total}, collision-aware={collision_aware}"
        );
        // And it is far from the paper's constant for this (d, g).
        let paper = params.malicious_frequency_sum();
        assert!(
            (total - paper).abs() > 10.0,
            "paper constant {paper} too close"
        );
    }

    #[test]
    fn ipa_reports_are_perturbed_not_clean() {
        // For GRR with a single target, clean MGA reports would *all* equal
        // the target; IPA reports only do so with probability p < 1.
        let domain = Domain::new(32).unwrap();
        let proto = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let ipa = AdaptiveAttack::uniform_over(domain, vec![7]);
        let mut rng = rng_from_seed(1);
        let reports = ipa.craft_perturbed(&proto, 2_000, &mut rng);
        let on_target = reports
            .iter()
            .filter(|r| matches!(r, Report::Grr(7)))
            .count();
        let p = proto.params().p();
        let rate = on_target as f64 / 2_000.0;
        assert!(rate < 0.5, "rate={rate} too high for ε=0.5 GRR");
        let tol = 5.0 * (p * (1.0 - p) / 2_000.0).sqrt();
        assert!((rate - p).abs() < tol, "rate={rate}, p={p}");
    }

    #[test]
    fn ipa_gain_is_much_weaker_than_general_mga() {
        // The Fig. 8 phenomenon, in miniature: the raw support count MGA
        // adds to a target is ~m (every crafted OUE report sets the bit),
        // while IPA adds only ~m·p.
        let domain = Domain::new(64).unwrap();
        let proto = ProtocolKind::Oue.build(0.5, domain).unwrap();
        let targets = vec![5usize];
        let m = 4_000;
        let mut rng = rng_from_seed(2);

        let mga_reports = crate::Mga::new(targets.clone()).craft(&proto, m, &mut rng);
        let ipa_reports = AdaptiveAttack::uniform_over(domain, targets.clone())
            .craft_perturbed(&proto, m, &mut rng);

        let count_on = |reports: &[Report]| -> u64 {
            let mut acc = CountAccumulator::new(domain);
            acc.add_all(&proto, reports);
            acc.counts()[5]
        };
        let mga_count = count_on(&mga_reports);
        let ipa_count = count_on(&ipa_reports);
        assert_eq!(mga_count, m as u64, "precise MGA always sets the bit");
        assert!(
            (ipa_count as f64) < 0.6 * m as f64,
            "IPA count {ipa_count} should be ≈ m/2"
        );
    }
}
