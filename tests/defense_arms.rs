//! Property and contract tests for the defense-arm registry
//! (`ldprecover::arm`): every registered arm, across random protocol ×
//! attack draws, either produces a valid probability vector or degrades
//! cleanly to a documented degeneracy — never a silent bad estimate —
//! and the string-keyed registry round-trips its names and rejects
//! unknowns helpfully.

use ldp_attacks::AttackKind;
use ldp_common::rng::rng_from_seed;
use ldp_common::vecmath::is_probability_vector;
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;
use ldp_sim::pipeline::run_trial;
use ldp_sim::{ExperimentConfig, PipelineOptions};
use ldprecover::{ArmKind, ArmSet};
use proptest::prelude::*;

/// A tiny-but-alive cell: ~1.5k genuine users keeps every protocol's
/// estimate statistically meaningful while the whole registry (including
/// the report-retaining clustering arms) stays fast enough for proptest.
fn tiny_cell(protocol: ProtocolKind, attack: AttackKind) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(DatasetKind::Ipums, protocol, Some(attack));
    config.scale = 0.004;
    config
}

/// The attack pool the property sweep draws from: targeted, untargeted,
/// and input-poisoning families.
const ATTACKS: [AttackKind; 4] = [
    AttackKind::Mga { r: 10 },
    AttackKind::SampledMga { r: 5 },
    AttackKind::Adaptive,
    AttackKind::MgaIpa { r: 10 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The registry-wide output contract: with every registered arm
    /// selected, each output has full domain width and finite entries;
    /// arms whose pipeline ends in a simplex refinement (`recover`,
    /// `star`, `recover_km`, `norm_sub`, `base_cut`) additionally land
    /// exactly on the probability simplex. Detection and plain k-means
    /// re-*estimate* from surviving reports, so their outputs are raw
    /// debiased frequencies — finite and full-width, but legitimately
    /// allowed off the simplex (exactly like the paper's baselines).
    /// Anything that produces no output must be a recorded degeneracy.
    #[test]
    fn every_registered_arm_is_simplex_valid_or_cleanly_degenerate(
        protocol_pick in 0usize..ProtocolKind::ALL.len(),
        attack_pick in 0usize..ATTACKS.len(),
        seed in 0u64..1_000_000,
    ) {
        let protocol = ProtocolKind::ALL[protocol_pick];
        let attack = ATTACKS[attack_pick];
        let config = tiny_cell(protocol, attack);
        let options = PipelineOptions::with_arms(ArmSet::new(ArmKind::ALL));
        let mut rng = rng_from_seed(seed);
        let trial = run_trial(&config, &options, &mut rng).unwrap();

        const REFINED: [&str; 5] = ["recover", "star", "recover_km", "norm_sub", "base_cut"];
        let d = config.dataset.domain().size();
        for (key, output) in &trial.arms {
            prop_assert_eq!(output.frequencies.len(), d, "{}: domain width", key);
            prop_assert!(
                output.frequencies.iter().all(|x| x.is_finite()),
                "{}/{:?}/{:?}: non-finite estimate", key, protocol, attack
            );
            if REFINED.contains(&key.as_str()) {
                prop_assert!(
                    is_probability_vector(&output.frequencies, 1e-9),
                    "{}/{:?}/{:?}: {:?} is not a probability vector",
                    key, protocol, attack, &output.frequencies[..4.min(d)]
                );
            }
            if let Some(malicious) = &output.malicious_estimate {
                prop_assert_eq!(malicious.len(), d, "{}: malicious width", key);
                prop_assert!(
                    malicious.iter().all(|x| x.is_finite()),
                    "{}: malicious estimate must be finite", key
                );
            }
        }
        // Accounting is total: every selected kind either produced its
        // output(s) or filed a degeneracy under its registry name.
        for kind in ArmKind::ALL {
            let produced = trial.arm(kind.metric_key()).is_some();
            let degenerated = trial
                .degenerate
                .iter()
                .any(|(name, _)| name == kind.name());
            prop_assert!(
                produced || degenerated,
                "{:?}/{:?}/{}: arm neither produced nor degenerated",
                protocol, attack, kind
            );
        }
    }
}

#[test]
fn arm_kind_parse_round_trips_every_registry_name() {
    for kind in ArmKind::ALL {
        assert_eq!(ArmKind::parse(kind.name()).unwrap(), kind);
        assert_eq!(
            ArmKind::parse(&kind.name().to_ascii_uppercase()).unwrap(),
            kind,
            "case-insensitive"
        );
        assert_eq!(
            ArmKind::parse(kind.metric_key()).unwrap(),
            kind,
            "metric-key alias"
        );
        // Display is the parseable name.
        assert_eq!(ArmKind::parse(&kind.to_string()).unwrap(), kind);
    }
    // Set-level round trip: render → parse is the identity.
    let set = ArmSet::new(ArmKind::ALL);
    assert_eq!(ArmSet::parse(&set.to_string()).unwrap(), set);
}

#[test]
fn unknown_arms_are_rejected_with_the_full_registry_listed() {
    for bad in ["ldprecover2", "trust-me", "recover;detection", ""] {
        let err = match bad {
            "" => ArmSet::parse("").unwrap_err().to_string(),
            other => ArmKind::parse(other).unwrap_err().to_string(),
        };
        for kind in ArmKind::ALL {
            assert!(
                err.contains(kind.name()),
                "error for '{bad}' must list '{}': {err}",
                kind.name()
            );
        }
    }
}

#[test]
fn arm_set_selection_is_order_and_duplicate_insensitive() {
    let a = ArmSet::parse("base-cut,recover,base_cut,RECOVER-STAR").unwrap();
    let b = ArmSet::parse("recover-star, recover, base-cut").unwrap();
    assert_eq!(a, b);
    assert_eq!(
        a.kinds(),
        &[ArmKind::Recover, ArmKind::RecoverStar, ArmKind::BaseCut]
    );
}

#[test]
fn adding_an_arm_does_not_disturb_the_existing_arms_draws() {
    // The scheduling contract: selecting an extra
    // rng-independent arm must leave every other arm's output bitwise
    // unchanged (arms run in canonical order; only rng-consuming arms may
    // advance the trial stream).
    let config = tiny_cell(ProtocolKind::Grr, AttackKind::Mga { r: 10 });
    let narrow = PipelineOptions::recovery_only();
    let wide = PipelineOptions::with_arms(ArmSet::new([
        ArmKind::Recover,
        ArmKind::RecoverStar,
        ArmKind::NormSub,
        ArmKind::BaseCut,
    ]));
    let mut rng_a = rng_from_seed(7);
    let mut rng_b = rng_from_seed(7);
    let a = run_trial(&config, &narrow, &mut rng_a).unwrap();
    let b = run_trial(&config, &wide, &mut rng_b).unwrap();
    assert_eq!(a.recovered(), b.recovered(), "recover must be unperturbed");
    assert_eq!(a.recovered_star(), b.recovered_star(), "star unperturbed");
    assert!(b.arm("norm_sub").is_some() && b.arm("base_cut").is_some());
}
