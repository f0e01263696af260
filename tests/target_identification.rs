//! Target identification (paper §V-D): the partial-knowledge arm's inputs
//! must be obtainable in practice — from the attack (oracle), from a
//! pre-attack reference (top-k increase), or from historical rounds
//! (moving-average outlier detection).

use ldp_attacks::{AdaptiveAttack, AttackKind};
use ldp_common::rng::rng_from_seed;
use ldp_common::Domain;
use ldp_datasets::DatasetKind;
use ldp_protocols::{CountAccumulator, LdpFrequencyProtocol, ProtocolKind};
use ldp_sim::{pipeline::run_trial, ExperimentConfig, PipelineOptions};
use ldprecover::{top_k_increase, MovingAverageDetector};

#[test]
fn top_k_increase_finds_mga_targets() {
    // Simulate pre/post attack aggregations directly and check the paper's
    // identification rule recovers the target set.
    let d = 64usize;
    let domain = Domain::new(d).unwrap();
    let protocol = ProtocolKind::Grr.build(0.5, domain).unwrap();
    let n = 30_000usize;
    let mut rng = rng_from_seed(1);

    let mut genuine_acc = CountAccumulator::new(domain);
    for i in 0..n {
        let item = i % 8; // mass on the first 8 items
        let report = protocol.perturb(item, &mut rng);
        genuine_acc.add(&protocol, &report);
    }
    let reference = genuine_acc.frequencies(protocol.params()).unwrap();

    let attack = AdaptiveAttack::uniform_over(domain, vec![40, 45, 50, 55]);
    let malicious = attack.craft(&protocol, 3_000, &mut rng);
    let mut poisoned_acc = genuine_acc.clone();
    poisoned_acc.add_all(&protocol, &malicious);
    let poisoned = poisoned_acc.frequencies(protocol.params()).unwrap();

    let identified = top_k_increase(&poisoned, &reference, 4).unwrap();
    let mut sorted = identified.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![40, 45, 50, 55], "identified {identified:?}");
}

#[test]
fn moving_average_detector_flags_targets_from_history() {
    // Multi-round scenario: several clean collection rounds form the
    // history, then a poisoned round arrives.
    let mut config = ExperimentConfig::paper_default(
        DatasetKind::Ipums,
        ProtocolKind::Grr,
        Some(AttackKind::SampledMga { r: 5 }),
    );
    config.scale = 0.02;
    let clean_options = PipelineOptions::default();

    // History: 6 clean rounds (β = 0 via attack = None).
    let mut clean_config = config.clone();
    clean_config.attack = None;
    clean_config.beta = 0.0;
    let mut history = Vec::new();
    for round in 0..6u64 {
        let mut rng = rng_from_seed(100 + round);
        let trial = run_trial(&clean_config, &clean_options, &mut rng).unwrap();
        history.push(trial.genuine);
    }

    // The poisoned round.
    let mut rng = rng_from_seed(999);
    let trial = run_trial(&config, &PipelineOptions::default(), &mut rng).unwrap();
    let targets = trial.attack_targets.clone().expect("targeted attack");

    let detector = MovingAverageDetector::default();
    let flagged = detector.detect(&history, &trial.poisoned).unwrap();

    // Every true target whose frequency gain is non-trivial must be
    // flagged; allow the detector to also flag a few noisy extras.
    let flagged_set: std::collections::HashSet<usize> = flagged.iter().copied().collect();
    let hit = targets.iter().filter(|t| flagged_set.contains(t)).count();
    assert!(
        hit >= targets.len() - 1,
        "targets {targets:?}, flagged {flagged:?}"
    );
    assert!(
        flagged.len() <= targets.len() + 5,
        "detector too noisy: {flagged:?}"
    );
}

#[test]
fn identified_targets_feed_recovery_as_well_as_oracle_targets() {
    // End-to-end: LDPRecover* with *identified* targets performs close to
    // LDPRecover* with oracle targets under sampled MGA.
    let mut config = ExperimentConfig::paper_default(
        DatasetKind::Ipums,
        ProtocolKind::Grr,
        Some(AttackKind::SampledMga { r: 10 }),
    );
    config.scale = 0.05;

    let mut rng = rng_from_seed(7);
    let agg =
        ldp_sim::pipeline::run_aggregation(&config, &PipelineOptions::default(), &mut rng).unwrap();
    let params = agg.params();
    let oracle_targets = agg.attack_targets.clone().unwrap();
    let identified = top_k_increase(
        &agg.poisoned_freqs,
        &agg.genuine_freqs,
        oracle_targets.len(),
    )
    .unwrap();

    let recover = |targets: &[usize]| {
        ldprecover::LdpRecover::new(0.2)
            .unwrap()
            .recover_with_targets(&agg.poisoned_freqs, params, targets)
            .unwrap()
            .frequencies
    };
    let with_oracle = recover(&oracle_targets);
    let with_identified = recover(&identified);
    let mse_oracle = ldp_sim::metrics::mse(&with_oracle, &agg.true_freqs);
    let mse_identified = ldp_sim::metrics::mse(&with_identified, &agg.true_freqs);
    assert!(
        mse_identified < 3.0 * mse_oracle + 1e-5,
        "identified {mse_identified:.3e} vs oracle {mse_oracle:.3e}"
    );
}
