//! End-to-end pipeline integration: every protocol × every attack kind
//! produces a complete, internally-consistent trial.

use ldp_attacks::AttackKind;
use ldp_common::rng::rng_from_seed;
use ldp_common::vecmath::is_probability_vector;
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;
use ldp_sim::{pipeline::run_trial, ExperimentConfig, PipelineOptions};

fn config(protocol: ProtocolKind, attack: Option<AttackKind>, scale: f64) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_default(DatasetKind::Ipums, protocol, attack);
    c.scale = scale;
    if attack.is_none() {
        c.beta = 0.0;
    }
    c
}

#[test]
fn every_protocol_attack_combination_completes() {
    let attacks = [
        AttackKind::Manip { h: 10 },
        AttackKind::Mga { r: 10 },
        AttackKind::SampledMga { r: 10 },
        AttackKind::Adaptive,
        AttackKind::MgaIpa { r: 10 },
        AttackKind::MultiAdaptive { attackers: 5 },
    ];
    for protocol in ProtocolKind::ALL {
        for attack in attacks {
            let c = config(protocol, Some(attack), 0.01);
            let mut rng = rng_from_seed(1);
            let trial = run_trial(&c, &PipelineOptions::recovery_only(), &mut rng)
                .unwrap_or_else(|e| panic!("{protocol:?} × {attack:?}: {e}"));
            assert!(
                is_probability_vector(trial.recovered().unwrap(), 1e-9),
                "{protocol:?} × {attack:?} recovered vector invalid"
            );
            assert_eq!(trial.true_freqs.len(), 102);
            assert!(
                is_probability_vector(&trial.true_freqs, 1e-9),
                "ground truth must be a distribution"
            );
        }
    }
}

#[test]
fn full_comparison_arms_present_for_targeted_attacks() {
    for protocol in ProtocolKind::ALL {
        let c = config(protocol, Some(AttackKind::Mga { r: 10 }), 0.02);
        let mut rng = rng_from_seed(2);
        let trial = run_trial(&c, &PipelineOptions::full_comparison(), &mut rng).unwrap();
        assert!(
            trial.recovered_star().is_some(),
            "{protocol:?} star missing"
        );
        assert!(
            trial.detection().is_some(),
            "{protocol:?} detection missing"
        );
        assert!(trial.malicious_true.is_some());
        assert!(trial.malicious_estimate_star().is_some());
        // Oracle targets flow through to the star arm for targeted attacks.
        assert_eq!(trial.star_targets, trial.attack_targets);
    }
}

#[test]
fn pipeline_is_deterministic_given_seed() {
    let c = config(ProtocolKind::Oue, Some(AttackKind::Adaptive), 0.01);
    let t1 = run_trial(
        &c,
        &PipelineOptions::recovery_only(),
        &mut rng_from_seed(99),
    )
    .unwrap();
    let t2 = run_trial(
        &c,
        &PipelineOptions::recovery_only(),
        &mut rng_from_seed(99),
    )
    .unwrap();
    assert_eq!(t1.poisoned, t2.poisoned);
    assert_eq!(t1.recovered(), t2.recovered());
    let t3 = run_trial(
        &c,
        &PipelineOptions::recovery_only(),
        &mut rng_from_seed(100),
    )
    .unwrap();
    assert_ne!(t1.poisoned, t3.poisoned, "different seed, different noise");
}

#[test]
fn beta_zero_equals_unpoisoned() {
    let c = config(ProtocolKind::Grr, None, 0.01);
    let mut rng = rng_from_seed(3);
    let trial = run_trial(&c, &PipelineOptions::default(), &mut rng).unwrap();
    assert_eq!(trial.poisoned, trial.genuine);
    assert!(trial.malicious_true.is_none());
}

#[test]
fn kmeans_arms_run_under_ipa() {
    let mut c = config(ProtocolKind::Grr, Some(AttackKind::MgaIpa { r: 5 }), 0.01);
    c.trials = 1;
    let options = PipelineOptions {
        arms: ldprecover::ArmSet::new([
            ldprecover::ArmKind::Recover,
            ldprecover::ArmKind::Kmeans,
            ldprecover::ArmKind::RecoverKm,
        ]),
        kmeans: ldprecover::KMeansDefense::new(10, 0.3).unwrap(),
        ..Default::default()
    };
    let mut rng = rng_from_seed(4);
    let trial = run_trial(&c, &options, &mut rng).unwrap();
    let km = trial.kmeans().expect("kmeans estimate");
    let km_rec = trial.recover_km().expect("recover-km estimate");
    assert_eq!(km.len(), 102);
    assert!(is_probability_vector(km_rec, 1e-9));
}

#[test]
fn fire_dataset_runs_at_small_scale() {
    let mut c = ExperimentConfig::paper_default(
        DatasetKind::Fire,
        ProtocolKind::Olh,
        Some(AttackKind::Adaptive),
    );
    c.scale = 0.005;
    let mut rng = rng_from_seed(5);
    let trial = run_trial(&c, &PipelineOptions::recovery_only(), &mut rng).unwrap();
    assert_eq!(trial.true_freqs.len(), 490);
    assert!(is_probability_vector(trial.recovered().unwrap(), 1e-9));
}
