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
//! distributions) as an [`Attack`]. Crafting takes the RNG as
//! `&mut dyn RngCore`, so each crafting routine is compiled once.

pub mod adaptive;
pub mod kind;
pub mod manip;
pub mod mga;

pub use adaptive::AdaptiveAttack;
pub use kind::AttackKind;
pub use manip::Manip;
pub use mga::Mga;

use ldp_protocols::{AnyProtocol, Report};
use rand::{Rng as _, RngCore};

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
    pub fn craft(&self, protocol: &AnyProtocol, m: usize, rng: &mut dyn RngCore) -> Vec<Report> {
        match self {
            Attack::Manip(manip) => manip.craft(protocol, m, rng),
            Attack::Mga(mga) => mga.craft(protocol, m, rng),
            Attack::Clean(attack) => attack.craft(protocol, m, rng),
            Attack::Camouflaged(attack) => attack.craft_camouflaged(protocol, m, rng),
            Attack::Ipa(attack) => attack.craft_perturbed(protocol, m, rng),
            Attack::Multi(attackers) => {
                // "Randomly assign malicious users to these attackers"
                // (§VII-C): each malicious user picks an attacker uniformly
                // at random, then that attacker crafts the user's report.
                let k = attackers.len();
                let mut assignment = vec![0usize; k];
                for _ in 0..m {
                    assignment[rng.gen_range(0..k)] += 1;
                }
                let mut reports = Vec::with_capacity(m);
                for (attacker, &count) in attackers.iter().zip(&assignment) {
                    reports.extend(attacker.craft(protocol, count, rng));
                }
                reports
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

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;
    use ldp_common::Domain;
    use ldp_protocols::ProtocolKind;

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
