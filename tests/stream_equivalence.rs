//! Differential tests: the streaming ingestion engine against the offline
//! one-shot pipeline, bit for bit.
//!
//! The stream engine only earns trust if it is provably the *same
//! computation* as the validated offline path, re-scheduled. Three
//! contracts, each exercised for all five pure protocols through their
//! batched count samplers:
//!
//! 1. **1-shard single-epoch ≡ offline.** The stream's one cell consumes
//!    exactly the RNG call sequence of `run_aggregation` in `Batched` mode
//!    at the same derived seed — both call `pipeline::sample_count_cell`
//!    after the population sample — so support counts, debiased
//!    estimates, and recovered frequencies are bit-identical to the
//!    one-shot pipeline.
//! 2. **N-shard final state ≡ the exact merge of its cells.** Re-running
//!    every `(shard, epoch)` cell standalone and folding the deltas — in
//!    any order — reproduces the engine's merged state bitwise: sharding
//!    is pure parallelization of a fixed randomness layout.
//! 3. **N-shard ≡ 1-shard statistically.** Different shard layouts re-roll
//!    the sampling noise (disjoint derived streams) but draw from the same
//!    distribution, so final estimates agree within the LDP noise
//!    envelope, never bitwise.

use ldp_attacks::AttackKind;
use ldp_common::rng::{derive_seed2, rng_from_seed};
use ldp_common::vecmath::mse;
use ldp_datasets::DatasetKind;
use ldp_protocols::{CountAccumulator, LdpFrequencyProtocol, ProtocolKind};
use ldp_sim::config::AggregationMode;
use ldp_sim::pipeline::run_aggregation;
use ldp_sim::stream::{shard_epoch_delta, ShardDelta, StreamEngine, StreamSpec};
use ldp_sim::{ExperimentConfig, PipelineOptions};
use ldprecover::LdpRecover;

const SEED: u64 = 0x57AE_A41B;

/// The offline cell the stream runs are compared against.
fn offline_config(protocol: ProtocolKind, scale: f64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(
        DatasetKind::Ipums,
        protocol,
        Some(AttackKind::Mga { r: 5 }),
    );
    config.scale = scale;
    config.trials = 1;
    config.seed = SEED;
    config
}

/// The genuine user count `⌈n·scale⌉` the offline batched path realizes.
fn users_at(scale: f64) -> usize {
    ((DatasetKind::Ipums.total_users() as f64) * scale).ceil() as usize
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x:?} vs {y:?} differ bitwise"
        );
    }
}

#[test]
fn one_shard_single_epoch_is_bit_identical_to_the_offline_pipeline() {
    let scale = 0.004; // ≈ 1,560 users: fast, and every protocol stays alive
    for protocol in ProtocolKind::EXTENDED {
        let config = offline_config(protocol, scale);
        let spec = StreamSpec::from_experiment(&config, 1, 1, users_at(scale));

        // Online: one shard, one epoch.
        let mut engine = StreamEngine::new(spec).unwrap();
        engine.step().unwrap();
        let snapshot = engine.recovery_snapshot().unwrap();

        // Offline: the batched one-shot pipeline on the stream cell's
        // derived RNG stream.
        let options = PipelineOptions {
            aggregation: AggregationMode::Batched,
            ..PipelineOptions::default()
        };
        let mut rng = rng_from_seed(derive_seed2(SEED, 0, 0));
        let offline = run_aggregation(&config, &options, &mut rng).unwrap();
        let params = offline.protocol.params();
        let recovered = LdpRecover::new(config.eta)
            .unwrap()
            .recover(&offline.poisoned_freqs, params)
            .unwrap()
            .frequencies;

        assert_eq!(
            engine.totals().genuine_users,
            offline.genuine_count,
            "{protocol}: genuine users"
        );
        assert_eq!(
            engine.totals().malicious_users,
            offline.malicious_count,
            "{protocol}: malicious users"
        );
        assert_bits_eq(
            &snapshot.truth,
            &offline.true_freqs,
            &format!("{protocol}: realized truth"),
        );
        assert_bits_eq(
            &snapshot.genuine_estimate,
            &offline.genuine_freqs,
            &format!("{protocol}: genuine estimate"),
        );
        assert_bits_eq(
            &snapshot.poisoned_estimate,
            &offline.poisoned_freqs,
            &format!("{protocol}: poisoned estimate"),
        );
        assert_bits_eq(
            &snapshot.recovered,
            &recovered,
            &format!("{protocol}: recovered frequencies"),
        );
    }
}

#[test]
fn one_shard_single_epoch_counts_match_a_direct_recomputation() {
    // The count-level half of contract 1: the engine's merged totals equal
    // the shard cell's delta exactly (no hidden reweighting between
    // ingestion and state).
    for protocol in ProtocolKind::EXTENDED {
        let config = offline_config(protocol, 0.004);
        let spec = StreamSpec::from_experiment(&config, 1, 1, users_at(0.004));
        let mut engine = StreamEngine::new(spec).unwrap();
        engine.step().unwrap();
        let delta = shard_epoch_delta(&spec, 0, 0).unwrap();
        assert_eq!(engine.totals(), &delta, "{protocol}");
    }
}

#[test]
fn n_shard_multi_epoch_state_is_the_exact_merge_of_its_cells() {
    // Contract 2, for every protocol: fold the standalone deltas of every
    // (shard, epoch) cell — forward and in reverse — and compare the full
    // merged state bitwise against the engine's.
    for protocol in ProtocolKind::EXTENDED {
        let config = offline_config(protocol, 0.004);
        let spec = StreamSpec::from_experiment(&config, 3, 2, 600);
        let mut engine = StreamEngine::new(spec).unwrap();
        engine.run_to_completion().unwrap();

        let domain = spec.domain();
        let cells: Vec<(usize, usize)> = (0..spec.epochs)
            .flat_map(|e| (0..spec.shards).map(move |s| (s, e)))
            .collect();
        for reverse in [false, true] {
            let mut order = cells.clone();
            if reverse {
                order.reverse();
            }
            let mut merged = ShardDelta::empty(domain);
            for &(shard, epoch) in &order {
                merged.merge(&shard_epoch_delta(&spec, shard, epoch).unwrap());
            }
            assert_eq!(
                engine.totals(),
                &merged,
                "{protocol}: merged state (reverse={reverse})"
            );
        }

        // …and therefore every derived estimate is bit-identical too.
        let totals = engine.totals();
        let merged = {
            let mut poisoned =
                CountAccumulator::from_parts(totals.genuine_counts.clone(), totals.genuine_users);
            poisoned.merge(&CountAccumulator::from_parts(
                totals.malicious_counts.clone(),
                totals.malicious_users,
            ));
            poisoned
        };
        let params = protocol.build(spec.epsilon, domain).unwrap().params();
        let snapshot = engine.recovery_snapshot().unwrap();
        assert_bits_eq(
            &snapshot.poisoned_estimate,
            &merged.frequencies(params).unwrap(),
            &format!("{protocol}: merged poisoned estimate"),
        );
    }
}

#[test]
fn engine_state_is_invariant_to_suspension_points() {
    // Contract 2 from the scheduler's side: stepping epoch by epoch, in
    // two bursts, or via run_to_completion lands on identical state.
    let config = offline_config(ProtocolKind::Oue, 0.004);
    let spec = StreamSpec::from_experiment(&config, 4, 3, 800);
    let mut all_at_once = StreamEngine::new(spec).unwrap();
    all_at_once.run_to_completion().unwrap();
    let mut stepped = StreamEngine::new(spec).unwrap();
    while !stepped.is_complete() {
        stepped.step().unwrap();
    }
    assert_eq!(all_at_once, stepped);
    assert_eq!(
        all_at_once.report().unwrap().render(),
        stepped.report().unwrap().render()
    );
}

#[test]
fn n_shard_and_one_shard_runs_agree_statistically() {
    // Contract 3: same traffic volume, different shard layout — disjoint
    // derived streams re-roll the noise, so the final estimates differ
    // bitwise but sit in the same statistical envelope (same distribution,
    // same n). MSE-to-truth ratios stay within a modest factor.
    let config = offline_config(ProtocolKind::Grr, 0.01);
    let users = 3_000;
    let sharded_spec = StreamSpec::from_experiment(&config, 8, 2, users);
    let single_spec = StreamSpec::from_experiment(&config, 1, 2, users);
    let mut sharded = StreamEngine::new(sharded_spec).unwrap();
    let mut single = StreamEngine::new(single_spec).unwrap();
    sharded.run_to_completion().unwrap();
    single.run_to_completion().unwrap();

    let a = sharded.recovery_snapshot().unwrap();
    let b = single.recovery_snapshot().unwrap();
    assert_ne!(
        a.poisoned_estimate, b.poisoned_estimate,
        "different layouts must consume different streams"
    );
    let mse_a = mse(&a.poisoned_estimate, &a.truth);
    let mse_b = mse(&b.poisoned_estimate, &b.truth);
    assert!(
        mse_a < 5.0 * mse_b && mse_b < 5.0 * mse_a,
        "poisoned-estimate error envelopes diverged: {mse_a} vs {mse_b}"
    );
    let rec_a = mse(&a.recovered, &a.truth);
    let rec_b = mse(&b.recovered, &b.truth);
    assert!(
        rec_a < 5.0 * rec_b && rec_b < 5.0 * rec_a,
        "recovered-estimate error envelopes diverged: {rec_a} vs {rec_b}"
    );
}

#[test]
fn online_trajectory_improves_with_traffic_and_recovery_wins() {
    // The product claim the trajectory exists for: as reports accumulate,
    // the recovered curve falls roughly like 1/n while the poisoned curve
    // stays pinned by the attack, for every protocol of the paper's trio.
    for protocol in ProtocolKind::ALL {
        let config = offline_config(protocol, 0.01);
        let spec = StreamSpec::from_experiment(&config, 4, 4, 2_000);
        let mut engine = StreamEngine::new(spec).unwrap();
        engine.run_to_completion().unwrap();
        let trajectory = engine.trajectory();
        let first = trajectory.first().unwrap();
        let last = trajectory.last().unwrap();
        assert!(
            last.mse_recovered < last.mse_before,
            "{protocol}: final recovered {} vs poisoned {}",
            last.mse_recovered,
            last.mse_before
        );
        assert!(
            last.mse_genuine < first.mse_genuine,
            "{protocol}: the noise floor must shrink with traffic ({} vs {})",
            last.mse_genuine,
            first.mse_genuine
        );
        assert_eq!(trajectory.len(), 4);
        assert!(trajectory
            .windows(2)
            .all(|w| w[1].reports_seen > w[0].reports_seen));
    }
}
