//! Validates the harness's `--scale` substitution argument (README,
//! "Reproducing the paper", scale presets): shrinking the population
//! inflates MSE uniformly (∝ 1/n) across methods, so *who wins* is
//! preserved at any scale.

use ldp_attacks::AttackKind;
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;
use ldp_sim::{run_experiment, ExperimentConfig, PipelineOptions};

fn config_at_scale(scale: f64) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_default(
        DatasetKind::Ipums,
        ProtocolKind::Grr,
        Some(AttackKind::Adaptive),
    );
    c.scale = scale;
    c.trials = 4;
    c
}

#[test]
fn method_ordering_is_preserved_across_scales() {
    let options = PipelineOptions::recovery_only();
    for scale in [0.01, 0.05] {
        let result = run_experiment(&config_at_scale(scale), &options).unwrap();
        assert!(
            result.mse_recover().unwrap().mean < result.mse_before.mean,
            "scale {scale}: recovery must beat poisoning"
        );
    }
}

#[test]
fn genuine_noise_floor_scales_inversely_with_n() {
    // Without an attack, the estimation MSE is the protocol variance,
    // which scales as 1/n: quadrupling the population should cut the MSE
    // by roughly 4 (within trial noise).
    let mut small = config_at_scale(0.02);
    small.attack = None;
    small.beta = 0.0;
    small.trials = 6;
    let mut large = small.clone();
    large.scale = 0.08;

    let options = PipelineOptions::default();
    let mse_small = run_experiment(&small, &options).unwrap().mse_before.mean;
    let mse_large = run_experiment(&large, &options).unwrap().mse_before.mean;
    let ratio = mse_small / mse_large;
    assert!(
        (2.0..8.0).contains(&ratio),
        "expected ≈4x MSE ratio for 4x population, got {ratio}"
    );
}

#[test]
fn poisoned_mse_is_scale_insensitive_for_fixed_beta() {
    // The attack-induced bias dominates the noise floor and depends on β,
    // not n — poisoned MSE should be of the same order at both scales.
    let options = PipelineOptions::default();
    let a = run_experiment(&config_at_scale(0.02), &options)
        .unwrap()
        .mse_before
        .mean;
    let b = run_experiment(&config_at_scale(0.08), &options)
        .unwrap()
        .mse_before
        .mean;
    let ratio = a / b;
    assert!(
        (0.3..6.0).contains(&ratio),
        "poisoned MSE should not explode across scales, ratio {ratio}"
    );
}
