//! Serializable attack factory, and the one table of attack names.
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
use crate::manip::Manip;
use crate::mga::Mga;
use crate::Attack;

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
    SampledMga {
        /// Number of target items.
        r: usize,
    },
    /// Adaptive attack with a per-trial random designed distribution.
    Adaptive,
    /// Camouflaged adaptive attack: OUE and SUE reports padded to a
    /// genuine-looking popcount (extension; see
    /// [`AdaptiveAttack::craft_camouflaged`]).
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
    /// Every kind, its parameter zeroed: the list [`AttackKind::from_name`]
    /// searches.
    const ALL: [AttackKind; 7] = [
        AttackKind::Manip { h: 0 },
        AttackKind::Mga { r: 0 },
        AttackKind::SampledMga { r: 0 },
        AttackKind::Adaptive,
        AttackKind::AdaptiveCamouflaged,
        AttackKind::MgaIpa { r: 0 },
        AttackKind::MultiAdaptive { attackers: 0 },
    ];

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
            | AttackKind::SampledMga { r: n }
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
    pub fn instantiate<R: Rng + ?Sized>(&self, domain: Domain, rng: &mut R) -> Attack {
        match *self {
            AttackKind::Manip { h } => Attack::Manip(Manip::sample(domain, h, rng)),
            AttackKind::Mga { r } => Attack::Mga(Mga::random_targets(domain, r, rng)),
            AttackKind::SampledMga { r } => {
                Attack::Clean(AdaptiveAttack::random_targets(domain, r, rng))
            }
            AttackKind::Adaptive => Attack::Clean(AdaptiveAttack::random(domain, rng)),
            AttackKind::AdaptiveCamouflaged => {
                Attack::Camouflaged(AdaptiveAttack::random(domain, rng))
            }
            AttackKind::MgaIpa { r } => Attack::Ipa(AdaptiveAttack::random_targets(domain, r, rng)),
            AttackKind::MultiAdaptive { attackers } => {
                assert!(attackers >= 1, "need at least one attacker");
                Attack::Multi(
                    (0..attackers)
                        .map(|_| AdaptiveAttack::random(domain, rng))
                        .collect(),
                )
            }
        }
    }

    /// The name the CLI's `--attack` flag and the stream checkpoints use.
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::Manip { .. } => "manip",
            AttackKind::Mga { .. } => "mga",
            AttackKind::SampledMga { .. } => "mga-sampled",
            AttackKind::Adaptive => "aa",
            AttackKind::AdaptiveCamouflaged => "aa-camo",
            AttackKind::MgaIpa { .. } => "mga-ipa",
            AttackKind::MultiAdaptive { .. } => "multi",
        }
    }

    /// The kind's one parameter as `(key, value)`, keyed as the stream
    /// checkpoints store it: `h`, `r` or `attackers`. `None` for the
    /// parameterless adaptive kinds.
    pub fn param(&self) -> Option<(&'static str, usize)> {
        let mut kind = *self;
        kind.param_slot().map(|(key, value)| (key, *value))
    }

    fn param_slot(&mut self) -> Option<(&'static str, &mut usize)> {
        match self {
            AttackKind::Manip { h } => Some(("h", h)),
            AttackKind::Mga { r } | AttackKind::SampledMga { r } | AttackKind::MgaIpa { r } => {
                Some(("r", r))
            }
            AttackKind::MultiAdaptive { attackers } => Some(("attackers", attackers)),
            AttackKind::Adaptive | AttackKind::AdaptiveCamouflaged => None,
        }
    }

    /// The kind called `name` ([`AttackKind::name`]), its parameter read
    /// from `param_by_key` under its [`AttackKind::param`] key. `Ok(None)`
    /// when no kind has that name; `param_by_key` is called only for a
    /// parameterized kind.
    ///
    /// # Errors
    /// Whatever `param_by_key` returns.
    pub fn from_name(
        name: &str,
        param_by_key: impl FnOnce(&str) -> Result<usize>,
    ) -> Result<Option<AttackKind>> {
        let Some(mut kind) = Self::ALL.into_iter().find(|kind| kind.name() == name) else {
            return Ok(None);
        };
        if let Some((key, value)) = kind.param_slot() {
            *value = param_by_key(key)?;
        }
        Ok(Some(kind))
    }

    /// The label the paper's figures use for this attack.
    pub fn label(&self) -> String {
        match *self {
            AttackKind::Manip { .. } => "Manip".to_string(),
            AttackKind::Mga { .. } => "MGA".to_string(),
            AttackKind::SampledMga { .. } => "MGA-S".to_string(),
            AttackKind::Adaptive => "AA".to_string(),
            AttackKind::AdaptiveCamouflaged => "AA-C".to_string(),
            AttackKind::MgaIpa { .. } => "MGA-IPA".to_string(),
            AttackKind::MultiAdaptive { .. } => "MUL-AA".to_string(),
        }
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
            AttackKind::SampledMga { r: 5 },
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
            let targeted = matches!(
                kind,
                AttackKind::Mga { .. } | AttackKind::SampledMga { .. } | AttackKind::MgaIpa { .. }
            );
            assert_eq!(attack.targets().map(<[usize]>::len), targeted.then_some(5));
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
            cases.push((AttackKind::SampledMga { r: n }, in_domain));
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
    fn names_are_the_cli_and_checkpoint_names() {
        // Round trips through `from_name` are pinned by the checkpoint
        // codec's `attack_kinds_roundtrip` in `ldp-sim`.
        let names = AttackKind::ALL.map(|kind| kind.name());
        let expect = [
            "manip",
            "mga",
            "mga-sampled",
            "aa",
            "aa-camo",
            "mga-ipa",
            "multi",
        ];
        assert_eq!(names, expect);
        assert_eq!(
            AttackKind::from_name("none", |_| unreachable!()).unwrap(),
            None
        );
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
