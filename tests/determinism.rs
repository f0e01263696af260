//! Deterministic-RNG regression tests: the whole simulation stack must be a
//! pure function of the master seed.
//!
//! Two runs of `sim::runner` with the same master seed must produce
//! byte-identical `Stats` — not merely "close" ones. This pins down the
//! seed-derivation contract (`derive_seed(master, trial)` per trial) so
//! future parallelization or pipeline-reordering PRs cannot silently change
//! results: any reordering of RNG draws shows up here as a bit flip.

use ldp_attacks::AttackKind;
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;
use ldp_sim::{run_experiment, ExperimentConfig, ExperimentResult, PipelineOptions, Stats};

/// Byte-exact view of a `Stats`: `f64` payloads compared through their bit
/// patterns, so `-0.0 != 0.0` and NaNs would be caught too.
fn bits(s: &Stats) -> (u64, u64, usize) {
    (s.mean.to_bits(), s.std.to_bits(), s.count)
}

fn opt_bits(s: &Option<Stats>) -> Option<(u64, u64, usize)> {
    s.as_ref().map(bits)
}

/// Compares every metric of two experiment results bit-for-bit — the
/// baselines plus every arm's statistics (same arm keys in the same
/// order, every per-arm statistic bit-identical).
fn assert_byte_identical(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(
        bits(&a.mse_genuine),
        bits(&b.mse_genuine),
        "{what}: mse_genuine"
    );
    assert_eq!(
        bits(&a.mse_before),
        bits(&b.mse_before),
        "{what}: mse_before"
    );
    assert_eq!(
        opt_bits(&a.fg_before),
        opt_bits(&b.fg_before),
        "{what}: fg_before"
    );
    let keys = |r: &ExperimentResult| -> Vec<String> {
        r.arms.iter().map(|(key, _)| key.clone()).collect()
    };
    assert_eq!(keys(a), keys(b), "{what}: arm set");
    for ((key, arm_a), (_, arm_b)) in a.arms.iter().zip(&b.arms) {
        assert_eq!(
            opt_bits(&arm_a.mse),
            opt_bits(&arm_b.mse),
            "{what}: mse_{key}"
        );
        assert_eq!(opt_bits(&arm_a.fg), opt_bits(&arm_b.fg), "{what}: fg_{key}");
        assert_eq!(
            opt_bits(&arm_a.malicious_mse),
            opt_bits(&arm_b.malicious_mse),
            "{what}: malicious_mse_{key}"
        );
    }
}

fn config(protocol: ProtocolKind, attack: AttackKind) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_default(DatasetKind::Ipums, protocol, Some(attack));
    c.scale = 0.01;
    c.trials = 4;
    c
}

#[test]
fn same_master_seed_gives_byte_identical_stats() {
    // The headline regression guard: every registered defense arm active
    // (reports retained, clustering drawing from the trial RNG) on a
    // targeted attack, run twice.
    let c = config(ProtocolKind::Oue, AttackKind::Mga { r: 10 });
    let options = PipelineOptions::with_arms(ldprecover::ArmSet::new(ldprecover::ArmKind::ALL));
    let a = run_experiment(&c, &options).unwrap();
    let b = run_experiment(&c, &options).unwrap();
    assert_eq!(
        a.arms.len(),
        7,
        "all seven registered arms must report statistics"
    );
    assert_byte_identical(&a, &b, "OUE/MGA all registered arms");
}

#[test]
fn determinism_holds_across_protocols_and_attacks() {
    // Cheaper arms, broader sweep: every protocol against a targeted and an
    // untargeted attack.
    for protocol in ProtocolKind::ALL {
        for attack in [AttackKind::Adaptive, AttackKind::SampledMga { r: 5 }] {
            let c = config(protocol, attack);
            let options = PipelineOptions::recovery_only();
            let a = run_experiment(&c, &options).unwrap();
            let b = run_experiment(&c, &options).unwrap();
            assert_byte_identical(&a, &b, &format!("{protocol:?}/{attack:?}"));
        }
    }
}

#[test]
fn different_master_seeds_give_different_results() {
    // Sanity check that byte-identity above is not vacuous (e.g. a runner
    // that ignores its RNG entirely would pass the tests above).
    let mut a_cfg = config(ProtocolKind::Grr, AttackKind::Adaptive);
    let mut b_cfg = a_cfg.clone();
    a_cfg.seed = 1;
    b_cfg.seed = 2;
    let options = PipelineOptions::recovery_only();
    let a = run_experiment(&a_cfg, &options).unwrap();
    let b = run_experiment(&b_cfg, &options).unwrap();
    assert_ne!(
        a.mse_before.mean.to_bits(),
        b.mse_before.mean.to_bits(),
        "distinct seeds must perturb the aggregation"
    );
}

#[test]
fn malicious_count_agrees_across_every_engine() {
    // The formula-drift regression: `m = round(β/(1−β)·n)` used to be
    // written out three times (offline config, streaming spec, scenario
    // catalog's kv cell). All call sites now route through
    // `ldp_common::population::malicious_count`; this pins the agreement
    // for every β both scenario grids sweep, at several population sizes,
    // so a future rounding tweak in one engine cannot silently fork the
    // others.
    use ldp_sim::scenario::catalog::{BETA_GRID_FINE, BETA_GRID_WIDE};
    use ldp_sim::StreamSpec;

    let betas: Vec<f64> = BETA_GRID_WIDE
        .iter()
        .chain(&BETA_GRID_FINE)
        .copied()
        .collect();
    for &beta in &betas {
        for n in [1usize, 997, 7_798, 200_000, 1_000_000] {
            let canonical = ldp_common::population::malicious_count(beta, n);

            let mut config = ExperimentConfig::paper_default(
                DatasetKind::Ipums,
                ProtocolKind::Grr,
                Some(AttackKind::Adaptive),
            );
            config.beta = beta;
            assert_eq!(
                config.malicious_count(n),
                canonical,
                "offline config forked at beta={beta}, n={n}"
            );

            let spec = StreamSpec::from_experiment(&config, 2, 3, 1_000);
            assert_eq!(
                spec.malicious_count(n),
                canonical,
                "stream spec forked at beta={beta}, n={n}"
            );
        }
    }
    // Without an attack both engines report zero regardless of β.
    let mut clean = ExperimentConfig::paper_default(DatasetKind::Ipums, ProtocolKind::Grr, None);
    clean.beta = 0.0;
    assert_eq!(clean.malicious_count(10_000), 0);
    assert_eq!(
        StreamSpec::from_experiment(&clean, 1, 1, 100).malicious_count(10_000),
        0
    );
}
