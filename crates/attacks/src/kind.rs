//! Serializable attack factory.
//!
//! Experiment configurations (`ldp-sim`) name attacks declaratively; the
//! randomized per-trial state — which items are targeted, which sub-domain
//! Manip poisons, which distribution the adaptive attacker designs — is
//! instantiated fresh for every trial from the trial's RNG stream, exactly
//! as the paper's evaluation re-randomizes across its 10 trials.

use ldp_common::{Domain, LdpError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::adaptive::AdaptiveAttack;
use crate::ipa::InputPoisoning;
use crate::manip::Manip;
use crate::mga::{Mga, MgaSampled};
use crate::multi::MultiAttack;
use crate::traits::PoisoningAttack;

/// Declarative description of a poisoning attack (paper §VI-A.3, §VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackKind {
    /// Cheu et al.'s untargeted attack over a random sub-domain of size `h`.
    Manip {
        /// Size of the malicious sub-domain `|H|`.
        h: usize,
    },
    /// Precise maximal gain attack with `r` random targets.
    Mga {
        /// Number of target items.
        r: usize,
    },
    /// The paper's sampling-based MGA simplification with `r` random targets.
    MgaSampled {
        /// Number of target items.
        r: usize,
    },
    /// Adaptive attack with a per-trial random designed distribution.
    Adaptive,
    /// Camouflaged adaptive attack: OUE and SUE reports padded to a
    /// genuine-looking popcount (extension; see
    /// `adaptive::CamouflagedAdaptive`).
    AdaptiveCamouflaged,
    /// MGA under input poisoning (honest perturbation of target inputs).
    MgaIpa {
        /// Number of target items.
        r: usize,
    },
    /// `attackers` independent adaptive attackers sharing the malicious
    /// population (§VII-C).
    MultiAdaptive {
        /// Number of attackers.
        attackers: usize,
    },
}

impl AttackKind {
    /// Checks the structural parameters against the domain: exactly the
    /// kinds [`AttackKind::instantiate`] accepts pass.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `h`/`r` lies outside `1..=d`
    /// or there are no attackers.
    pub fn validate(&self, domain: Domain) -> Result<()> {
        let d = domain.size();
        match *self {
            AttackKind::Manip { h: n }
            | AttackKind::Mga { r: n }
            | AttackKind::MgaSampled { r: n }
            | AttackKind::MgaIpa { r: n }
                if !(1..=d).contains(&n) =>
            {
                Err(LdpError::invalid(format!(
                    "{} attack needs 1 to d = {d} items, got {n}",
                    self.label()
                )))
            }
            AttackKind::MultiAdaptive { attackers: 0 } => Err(LdpError::invalid(
                "MUL-AA attack needs at least one attacker",
            )),
            _ => Ok(()),
        }
    }

    /// Instantiates the attack's per-trial randomized state.
    ///
    /// # Panics
    /// Panics when [`AttackKind::validate`] rejects the kind for the
    /// domain — configuration bugs, not runtime conditions.
    pub fn instantiate<R: Rng + ?Sized>(
        &self,
        domain: Domain,
        rng: &mut R,
    ) -> Box<dyn PoisoningAttack + Send + Sync> {
        match *self {
            AttackKind::Manip { h } => Box::new(Manip::sample(domain, h, rng)),
            AttackKind::Mga { r } => Box::new(Mga::random_targets(domain, r, rng)),
            AttackKind::MgaSampled { r } => Box::new(MgaSampled::random_targets(domain, r, rng)),
            AttackKind::Adaptive => Box::new(AdaptiveAttack::random(domain, rng)),
            AttackKind::AdaptiveCamouflaged => {
                Box::new(crate::adaptive::CamouflagedAdaptive::random(domain, rng))
            }
            AttackKind::MgaIpa { r } => Box::new(InputPoisoning::random_targets(domain, r, rng)),
            AttackKind::MultiAdaptive { attackers } => {
                assert!(attackers >= 1, "need at least one attacker");
                let boxed: Vec<Box<dyn PoisoningAttack + Send + Sync>> = (0..attackers)
                    .map(|_| {
                        Box::new(AdaptiveAttack::random(domain, rng))
                            as Box<dyn PoisoningAttack + Send + Sync>
                    })
                    .collect();
                Box::new(MultiAttack::new(boxed))
            }
        }
    }

    /// The label the paper's figures use for this attack.
    pub fn label(&self) -> String {
        match *self {
            AttackKind::Manip { .. } => "Manip".to_string(),
            AttackKind::Mga { .. } => "MGA".to_string(),
            AttackKind::MgaSampled { .. } => "MGA-S".to_string(),
            AttackKind::Adaptive => "AA".to_string(),
            AttackKind::AdaptiveCamouflaged => "AA-C".to_string(),
            AttackKind::MgaIpa { .. } => "MGA-IPA".to_string(),
            AttackKind::MultiAdaptive { .. } => "MUL-AA".to_string(),
        }
    }

    /// Whether the attack has a target set (drives FG measurement and the
    /// partial-knowledge recovery arm).
    pub fn is_targeted(&self) -> bool {
        matches!(
            self,
            AttackKind::Mga { .. } | AttackKind::MgaSampled { .. } | AttackKind::MgaIpa { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;
    use ldp_protocols::ProtocolKind;

    #[test]
    fn every_kind_instantiates_and_crafts() {
        let domain = Domain::new(32).unwrap();
        let kinds = [
            AttackKind::Manip { h: 4 },
            AttackKind::Mga { r: 5 },
            AttackKind::MgaSampled { r: 5 },
            AttackKind::Adaptive,
            AttackKind::AdaptiveCamouflaged,
            AttackKind::MgaIpa { r: 5 },
            AttackKind::MultiAdaptive { attackers: 5 },
        ];
        let mut rng = rng_from_seed(1);
        for kind in kinds {
            let attack = kind.instantiate(domain, &mut rng);
            for proto_kind in ProtocolKind::ALL {
                let proto = proto_kind.build(0.5, domain).unwrap();
                let reports = attack.craft(&proto, 25, &mut rng);
                assert_eq!(reports.len(), 25, "{kind:?} under {proto_kind:?}");
            }
            assert_eq!(kind.is_targeted(), attack.targets().is_some());
        }
    }

    #[test]
    fn validate_accepts_exactly_what_instantiate_accepts() {
        let domain = Domain::new(32).unwrap();
        let d = domain.size();
        // Every parameterized kind at the boundaries 0, 1, d and d + 1.
        let mut cases = Vec::new();
        for n in [0, 1, d, d + 1] {
            let in_domain = (1..=d).contains(&n);
            cases.push((AttackKind::Manip { h: n }, in_domain));
            cases.push((AttackKind::Mga { r: n }, in_domain));
            cases.push((AttackKind::MgaSampled { r: n }, in_domain));
            cases.push((AttackKind::MgaIpa { r: n }, in_domain));
            cases.push((AttackKind::MultiAdaptive { attackers: n }, n >= 1));
        }
        for (kind, valid) in cases {
            assert_eq!(kind.validate(domain).is_ok(), valid, "{kind:?}");
            let instantiated = std::panic::catch_unwind(|| {
                kind.instantiate(domain, &mut rng_from_seed(4));
            });
            assert_eq!(instantiated.is_ok(), valid, "{kind:?} instantiate");
        }
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(AttackKind::Manip { h: 3 }.label(), "Manip");
        assert_eq!(AttackKind::Mga { r: 10 }.label(), "MGA");
        assert_eq!(AttackKind::Adaptive.label(), "AA");
        assert_eq!(AttackKind::MgaIpa { r: 10 }.label(), "MGA-IPA");
        assert_eq!(AttackKind::MultiAdaptive { attackers: 5 }.label(), "MUL-AA");
    }

    #[test]
    fn per_trial_randomization_differs() {
        let domain = Domain::new(64).unwrap();
        let mut rng = rng_from_seed(2);
        let a = AttackKind::Mga { r: 8 }.instantiate(domain, &mut rng);
        let b = AttackKind::Mga { r: 8 }.instantiate(domain, &mut rng);
        assert_ne!(a.targets().unwrap(), b.targets().unwrap());
    }
}
