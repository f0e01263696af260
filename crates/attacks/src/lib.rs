#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Poisoning attacks against LDP frequency estimation.
//!
//! Every attack the LDPRecover paper evaluates (§II, §V-C, §VI-A.3,
//! §VII-B, §VII-C) is a variant of the closed [`Attack`] enum, one per
//! way a report is made:
//!
//! * [`Manip`] — the untargeted manipulation attack of Cheu et al.
//!   (S&P 2021): uniform malicious reports over a sampled sub-domain `H ⊆ D`.
//! * [`Mga`] — the *precise* maximal gain attack of Cao et al. (USENIX
//!   Security 2021): per-protocol crafted reports that support **all** `r`
//!   target items at once where the encoding allows it (OUE bit-setting with
//!   padding, OLH seed search), falling back to one target per report for
//!   GRR. This is what reproduces the paper's frequency-gain magnitudes.
//! * [`AdaptiveAttack`] — the paper's unifying model, behind every other
//!   variant: the attacker designs a distribution `P` over the items and
//!   draws each malicious user's item from it. AA and sampled MGA send
//!   the item's clean encoding, AA-C pads it on OUE and SUE, MGA-IPA runs
//!   the item through Ψ, and MUL-AA splits the users among attackers.
//!
//! [`AttackKind`] names each attack for the CLI and the checkpoints, and
//! instantiates its per-trial randomized state (targets, designed
//! distributions) as an [`Attack`]. Every crafting routine is generic
//! over the RNG (`R: Rng + ?Sized`), like [`AttackKind::instantiate`] and
//! the protocols' `perturb`: the simulation's `SmallRng` then runs inline
//! in the draw loops (Ψ's bits, the padding positions, the seed search)
//! instead of costing an indirect call per word. A caller holding a
//! `&mut dyn RngCore` still compiles, with `R = dyn RngCore`.
//!
//! The server sees malicious reports only through the support counts
//! aggregation Φ adds up (§IV-A, Eq. (14)). [`Attack::craft_counts`] adds
//! exactly those counts — what folding [`Attack::craft`]'s reports adds,
//! with the same draws in the same order — and on OUE and SUE builds no
//! report: each report form has a count form next to it that sends the
//! same bits to a count row (the clean encoding's one bit, MGA's targets
//! and padding, Ψ's three stretches). Callers that keep the reports (the
//! Detection and k-means defenses) use `craft`.

pub mod adaptive;
pub mod kind;
pub mod manip;
pub mod mga;

pub use adaptive::AdaptiveAttack;
pub use kind::AttackKind;
pub use manip::Manip;
pub use mga::Mga;

use ldp_protocols::{AnyProtocol, LdpFrequencyProtocol, Report};
use rand::Rng;

/// An attack's per-trial state ([`AttackKind::instantiate`]), ready to
/// craft the reports of `m` malicious users.
///
/// Per the paper's threat model (§IV-A), malicious users send crafted data
/// *directly* to the server, bypassing the perturbation Ψ but not the
/// aggregation Φ; only input poisoning ([`Attack::Ipa`]) runs Ψ.
#[derive(Debug, Clone)]
pub enum Attack {
    /// Manip: clean encodings of items drawn uniformly from `H`.
    Manip(Manip),
    /// The precise MGA.
    Mga(Mga),
    /// AA, and sampled MGA (`P` uniform on the targets): clean encodings
    /// ([`AdaptiveAttack::craft`]).
    Clean(AdaptiveAttack),
    /// AA-C ([`AdaptiveAttack::craft_camouflaged`]).
    Camouflaged(AdaptiveAttack),
    /// MGA-IPA: `P` uniform on the targets, each item run through Ψ
    /// ([`AdaptiveAttack::craft_perturbed`]).
    Ipa(AdaptiveAttack),
    /// MUL-AA (§VII-C): adaptive attackers controlling disjoint groups of
    /// the malicious users. The paper's observation: this is one adaptive
    /// attacker sampling from the user-weighted mixture of their
    /// distributions, so LDPRecover applies unchanged (Fig. 10).
    Multi(Vec<AdaptiveAttack>),
}

impl Attack {
    /// Crafts the reports the `m` malicious users send to the server.
    pub fn craft<R: Rng + ?Sized>(
        &self,
        protocol: &AnyProtocol,
        m: usize,
        rng: &mut R,
    ) -> Vec<Report> {
        match self {
            Attack::Manip(manip) => manip.craft(protocol, m, rng),
            Attack::Mga(mga) => mga.craft(protocol, m, rng),
            Attack::Clean(attack) => attack.craft(protocol, m, rng),
            Attack::Camouflaged(attack) => attack.craft_camouflaged(protocol, m, rng),
            Attack::Ipa(attack) => attack.craft_perturbed(protocol, m, rng),
            Attack::Multi(attackers) => {
                let mut reports = Vec::with_capacity(m);
                for (attacker, count) in attackers.iter().zip(assign(attackers.len(), m, rng)) {
                    reports.extend(attacker.craft(protocol, count, rng));
                }
                reports
            }
        }
    }

    /// Adds to `counts` the support counts of the reports the `m`
    /// malicious users send: exactly what
    /// `protocol.accumulate_all(&self.craft(protocol, m, rng), counts)`
    /// adds, with the same draws in the same order, so the RNG ends where
    /// it would. On OUE and SUE no report is built. GRR, OLH and HR
    /// reports are small values, and OLH and HR fold a batch at once, so
    /// there the reports are crafted and folded.
    ///
    /// # Panics
    /// Panics if `counts.len()` is not the protocol's domain size.
    pub fn craft_counts<R: Rng + ?Sized>(
        &self,
        protocol: &AnyProtocol,
        m: usize,
        rng: &mut R,
        counts: &mut [u64],
    ) {
        assert_eq!(counts.len(), protocol.domain().size(), "one count per item");
        let AnyProtocol::Unary(unary) = protocol else {
            return protocol.accumulate_all(&self.craft(protocol, m, rng), counts);
        };
        match self {
            Attack::Manip(manip) => manip.craft_unary_counts(m, rng, counts),
            Attack::Mga(mga) => mga.craft_unary_counts(unary, m, rng, counts),
            Attack::Clean(attack) => attack.craft_unary_counts(m, rng, counts),
            Attack::Camouflaged(attack) => {
                attack.craft_camouflaged_unary_counts(unary, m, rng, counts);
            }
            Attack::Ipa(attack) => attack.craft_perturbed_unary_counts(unary, m, rng, counts),
            Attack::Multi(attackers) => {
                for (attacker, count) in attackers.iter().zip(assign(attackers.len(), m, rng)) {
                    attacker.craft_unary_counts(count, rng, counts);
                }
            }
        }
    }

    /// The attacker-chosen target items, if this is a targeted attack.
    ///
    /// Used by the evaluation (frequency gain, Eq. (37)) and by the
    /// partial-knowledge recovery oracle — *never* by LDPRecover itself.
    pub fn targets(&self) -> Option<&[usize]> {
        match self {
            Attack::Mga(mga) => Some(mga.targets()),
            Attack::Clean(attack) | Attack::Camouflaged(attack) | Attack::Ipa(attack) => {
                attack.targets()
            }
            Attack::Manip(_) | Attack::Multi(_) => None,
        }
    }
}

/// MUL-AA's assignment, "randomly assign malicious users to these
/// attackers" (§VII-C): each of the `m` users picks one of the `k`
/// attackers uniformly at random. Returns each attacker's user count;
/// the attackers then craft in order.
fn assign<R: Rng + ?Sized>(k: usize, m: usize, rng: &mut R) -> Vec<usize> {
    let mut assignment = vec![0usize; k];
    for _ in 0..m {
        assignment[rng.gen_range(0..k)] += 1;
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;
    use ldp_common::Domain;
    use ldp_protocols::ProtocolKind;
    use rand::RngCore;

    #[test]
    fn crafts_exactly_m_reports() {
        let domain = Domain::new(40).unwrap();
        let multi =
            AttackKind::MultiAdaptive { attackers: 5 }.instantiate(domain, &mut rng_from_seed(1));
        assert!(matches!(&multi, Attack::Multi(attackers) if attackers.len() == 5));
        assert!(multi.targets().is_none(), "MUL-AA is untargeted");
        let proto = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(2);
        for m in [0usize, 1, 7, 1000] {
            assert_eq!(multi.craft(&proto, m, &mut rng).len(), m);
        }
    }

    /// `craft_counts` against its report form, folding `craft`'s
    /// reports: equal counts (added to a non-zero row) and an equal next
    /// RNG word, for every kind, MGA without padding and MUL-AA with more
    /// attackers than users, on all five protocols at ε = 0.5 and 4 and on
    /// OUE and SUE at ε = 100 (no padding past the targets; SUE's item bit
    /// is certain and draws nothing), for m ∈ {0, 1, 2, 61}.
    #[test]
    fn kernel_oracle_craft_counts_matches_craft() {
        let domain = Domain::new(102).unwrap();
        let d = domain.size();
        let mut setup = rng_from_seed(40);
        let mut attacks: Vec<(String, Attack)> = [
            AttackKind::Manip { h: 5 },
            AttackKind::Mga { r: 5 },
            AttackKind::SampledMga { r: 5 },
            AttackKind::Adaptive,
            AttackKind::AdaptiveCamouflaged,
            AttackKind::MgaIpa { r: 5 },
            AttackKind::MultiAdaptive { attackers: 5 },
            AttackKind::MultiAdaptive { attackers: 70 },
        ]
        .into_iter()
        .map(|kind| (format!("{kind:?}"), kind.instantiate(domain, &mut setup)))
        .collect();
        attacks.push((
            "MGA without padding".into(),
            Attack::Mga(Mga::random_targets(domain, 5, &mut setup).without_padding()),
        ));
        let mut cells: Vec<(ProtocolKind, f64)> = [0.5, 4.0]
            .into_iter()
            .flat_map(|eps| ProtocolKind::EXTENDED.map(|kind| (kind, eps)))
            .collect();
        cells.extend([(ProtocolKind::Oue, 100.0), (ProtocolKind::Sue, 100.0)]);
        for (name, attack) in &attacks {
            for &(kind, eps) in &cells {
                let proto = kind.build(eps, domain).unwrap();
                for m in [0usize, 1, 2, 61] {
                    let seed = m as u64 * 7 + eps as u64;
                    let mut rng = rng_from_seed(seed);
                    let mut reference = rng_from_seed(seed);
                    let mut counts: Vec<u64> = (0..d as u64).collect();
                    attack.craft_counts(&proto, m, &mut rng, &mut counts);
                    let mut folded: Vec<u64> = (0..d as u64).collect();
                    proto.accumulate_all(&attack.craft(&proto, m, &mut reference), &mut folded);
                    let cell = format!("{name} on {kind} at eps={eps}, m={m}");
                    assert_eq!(counts, folded, "{cell}: counts");
                    assert_eq!(rng.next_u64(), reference.next_u64(), "{cell}: next draw");
                }
            }
        }
    }

    #[test]
    fn mixture_matches_single_attacker_on_joint_distribution() {
        // Empirical item distribution of the multi-attack must match the
        // uniform mixture of the attackers' designed distributions.
        let domain = Domain::new(10).unwrap();
        let mut rng = rng_from_seed(3);
        let attackers: Vec<AdaptiveAttack> = (0..5)
            .map(|_| AdaptiveAttack::random(domain, &mut rng))
            .collect();
        let mixture: Vec<f64> = (0..10)
            .map(|v| attackers.iter().map(|a| a.distribution()[v]).sum::<f64>() / 5.0)
            .collect();

        let multi = Attack::Multi(attackers);
        let proto = ProtocolKind::Grr.build(0.5, domain).unwrap();
        let m = 200_000;
        let reports = multi.craft(&proto, m, &mut rng);
        let mut hist = [0usize; 10];
        for r in &reports {
            match r {
                Report::Grr(v) => hist[*v as usize] += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        for v in 0..10 {
            let rate = hist[v] as f64 / m as f64;
            let p = mixture[v];
            let tol = 6.0 * (p * (1.0 - p) / m as f64).sqrt() + 1e-4;
            assert!((rate - p).abs() < tol, "item {v}: rate={rate}, p={p}");
        }
    }
}
