//! End-to-end bit-exactness pins for the kernelized aggregation paths.
//!
//! The digests below were captured from the pre-kernel pipeline (per-user
//! loop with per-report scatters, branchy samplers, no trial arena) and
//! must stay bitwise identical: the FWHT per-user path, the FWHT batched
//! readoff, the chunked report loop, and the trial arena are all pure
//! reorganizations that neither consume extra randomness nor change a
//! single count. The `tail` words additionally pin the RNG stream
//! position after aggregation — a path that silently drew one extra
//! uniform would pass a frequency check but fail the tail.
//!
//! `attack_draws_match_recorded_digests` pins the malicious half the same
//! way, report by report: every attack kind's targets, crafted reports
//! and next RNG word, for all five protocols.
//! `count_path_matches_recorded_digests` pins the aggregation paths whose
//! malicious half folds through `Attack::craft_counts` on OUE and SUE.
//! `report_arms_match_recorded_digests` pins the arms that read retained
//! reports (Detection, k-means, LDPRecover-KM) on all five protocols.
//! `stream_snapshots_match_recorded_digests` pins what a stream reads
//! from its counts in every window mode: the trajectory, the final
//! recovery snapshot and the count-only arms.

use ldp_attacks::AttackKind;
use ldp_common::hash::xxh64;
use ldp_common::rng::rng_from_seed;
use ldp_common::Domain;
use ldp_datasets::DatasetKind;
use ldp_protocols::{ProtocolKind, Report};
use ldp_sim::config::{AggregationMode, ExperimentConfig, PipelineOptions};
use ldp_sim::pipeline::{run_aggregation, run_trial};
use ldp_sim::stream::{StreamEngine, StreamSpec, WindowMode};
use ldprecover::{ArmSet, KMeansDefense};
use rand::Rng;

/// xxh64 over the poisoned-then-genuine frequency estimates, bit-exact.
fn freq_digest(poisoned: &[f64], genuine: &[f64]) -> u64 {
    let bits: Vec<u8> = poisoned
        .iter()
        .chain(genuine)
        .flat_map(|f| f.to_bits().to_le_bytes())
        .collect();
    xxh64(&bits, 0)
}

fn scaled_config(kind: ProtocolKind) -> ExperimentConfig {
    let mut config =
        ExperimentConfig::paper_default(DatasetKind::Ipums, kind, Some(AttackKind::Adaptive));
    config.scale = 0.02; // n = 7798 genuine, m = 410 malicious
    config
}

#[test]
fn per_user_aggregation_matches_pre_kernel_digests() {
    for (kind, expect_digest, expect_tail) in [
        (
            ProtocolKind::Hr,
            0x2782_e302_a502_b794u64,
            0xeb05_2688_fac1_b7f0u64,
        ),
        (
            ProtocolKind::Grr,
            0x91c3_03c6_84d5_466a,
            0xa26f_7318_bb5c_039d,
        ),
    ] {
        let config = scaled_config(kind);
        let options = PipelineOptions {
            aggregation: AggregationMode::PerUser,
            ..PipelineOptions::recovery_only()
        };
        let mut rng = rng_from_seed(0xFEED);
        let agg = run_aggregation(&config, &options, &mut rng).unwrap();
        assert_eq!(agg.genuine_count, 7798, "{kind}");
        assert_eq!(agg.malicious_count, 410, "{kind}");
        assert_eq!(
            freq_digest(&agg.poisoned_freqs, &agg.genuine_freqs),
            expect_digest,
            "{kind}: estimates drifted from the pre-kernel pipeline"
        );
        assert_eq!(
            rng.gen::<u64>(),
            expect_tail,
            "{kind}: RNG stream perturbed by the kernelized path"
        );
    }
}

#[test]
fn batched_hr_aggregation_matches_pre_kernel_digest() {
    let config = scaled_config(ProtocolKind::Hr);
    let options = PipelineOptions {
        aggregation: AggregationMode::Batched,
        ..PipelineOptions::recovery_only()
    };
    let mut rng = rng_from_seed(0xFEED);
    let agg = run_aggregation(&config, &options, &mut rng).unwrap();
    assert_eq!(
        freq_digest(&agg.poisoned_freqs, &agg.genuine_freqs),
        0x7c9e_8a6c_3f83_9956,
        "batched HR estimates drifted from the pre-kernel sampler"
    );
    assert_eq!(
        rng.gen::<u64>(),
        0xf24f_17a6_12fc_1b52,
        "batched HR RNG stream perturbed"
    );
}

/// Appends a report's wire fields: the item or column index, OLH's seed
/// and hashed value, or a unary report's popcount and set positions.
fn push_report(bytes: &mut Vec<u8>, report: &Report) {
    match report {
        Report::Grr(v) | Report::Hr(v) => bytes.extend(v.to_le_bytes()),
        Report::Olh(olh) => {
            bytes.extend(olh.seed.to_le_bytes());
            bytes.extend(olh.value.to_le_bytes());
        }
        Report::Unary(bits) => {
            bytes.extend((bits.count_ones() as u32).to_le_bytes());
            for i in bits.iter_ones() {
                bytes.extend((i as u32).to_le_bytes());
            }
        }
    }
}

#[test]
fn attack_draws_match_recorded_digests() {
    // One RNG stream per kind runs through every (ε, protocol) cell:
    // instantiate, craft M reports, draw one more word. ε = 4 gives OLH
    // g = 56 > r² = 25 and ε = 0.5 gives g = 3 ≤ r², so MGA-OLH's seed
    // search takes both of its strategies. The digests were captured from
    // the trait-object attacks the closed `Attack` enum replaced.
    const M: usize = 60;
    let domain = Domain::new(102).unwrap();
    for (kind, expect) in [
        (AttackKind::Manip { h: 5 }, 0xb0f3_b18e_cff7_c0fdu64),
        (AttackKind::Mga { r: 5 }, 0xf851_6a53_503e_bbd4),
        (AttackKind::SampledMga { r: 5 }, 0x9b48_757c_73c0_be5d),
        (AttackKind::Adaptive, 0xf81e_a6bf_2deb_5e33),
        (AttackKind::AdaptiveCamouflaged, 0x7a92_70cd_8a6e_b670),
        (AttackKind::MgaIpa { r: 5 }, 0x0bc9_0115_88cd_c030),
        (
            AttackKind::MultiAdaptive { attackers: 5 },
            0x1c29_c172_2b31_5a50,
        ),
    ] {
        let mut rng = rng_from_seed(0xA77A);
        let mut bytes = Vec::new();
        for epsilon in [0.5, 4.0] {
            for protocol in ProtocolKind::EXTENDED {
                let protocol = protocol.build(epsilon, domain).unwrap();
                let attack = kind.instantiate(domain, &mut rng);
                for &t in attack.targets().unwrap_or_default() {
                    bytes.extend((t as u32).to_le_bytes());
                }
                for report in attack.craft(&protocol, M, &mut rng) {
                    push_report(&mut bytes, &report);
                }
                bytes.extend(rng.gen::<u64>().to_le_bytes());
            }
        }
        assert_eq!(
            xxh64(&bytes, 0),
            expect,
            "{kind:?}: targets, reports or draws drifted"
        );
    }
}

#[test]
fn count_path_matches_recorded_digests() {
    // Every kind on OUE and SUE, batched and per-user with count-only
    // arms: the two paths where nothing keeps the crafted reports, so
    // their support goes straight into the malicious counts. One digest
    // per kind hashes the poisoned, genuine and malicious estimates' bits
    // and the next RNG word of all four runs. The digests were recorded
    // when both paths still crafted every report and folded it.
    for (kind, expect) in [
        (AttackKind::Manip { h: 5 }, 0x09ca_493a_2ef1_f4f9u64),
        (AttackKind::Mga { r: 5 }, 0x3381_9a8f_d48d_631d),
        (AttackKind::SampledMga { r: 5 }, 0x9f1d_780a_ff85_6c6e),
        (AttackKind::Adaptive, 0xda44_ec03_8481_6278),
        (AttackKind::AdaptiveCamouflaged, 0xdf1f_a850_edc6_e658),
        (AttackKind::MgaIpa { r: 5 }, 0x94f3_e164_a324_eca1),
        (
            AttackKind::MultiAdaptive { attackers: 5 },
            0xdbcd_d9b0_7c6a_8e95,
        ),
    ] {
        let mut bytes = Vec::new();
        for protocol in [ProtocolKind::Oue, ProtocolKind::Sue] {
            for aggregation in [AggregationMode::Batched, AggregationMode::PerUser] {
                let mut config =
                    ExperimentConfig::paper_default(DatasetKind::Ipums, protocol, Some(kind));
                config.scale = 0.02;
                let options = PipelineOptions {
                    aggregation,
                    ..PipelineOptions::recovery_only()
                };
                let mut rng = rng_from_seed(0xC0C0);
                let agg = run_aggregation(&config, &options, &mut rng).unwrap();
                assert!(agg.reports.is_none(), "{kind:?} {protocol} {aggregation:?}");
                let malicious = agg.malicious_true_freqs.as_deref().unwrap();
                for f in agg
                    .poisoned_freqs
                    .iter()
                    .chain(&agg.genuine_freqs)
                    .chain(malicious)
                {
                    bytes.extend(f.to_bits().to_le_bytes());
                }
                bytes.extend(rng.gen::<u64>().to_le_bytes());
            }
        }
        assert_eq!(
            xxh64(&bytes, 0),
            expect,
            "{kind:?}: estimates or draws drifted from the crafted-report path"
        );
    }
}

#[test]
fn report_arms_match_recorded_digests() {
    // The arms that read retained reports, on all five protocols: MGA
    // with Detection next to LDPRecover and LDPRecover*, and MGA-IPA with
    // the fused k-means step (k-means and LDPRecover-KM) at G = 20,
    // ξ = 0.5 and at the default configuration. One digest per (shape,
    // protocol) hashes every arm's key, estimate and malicious estimate
    // bits, the degenerate list and the next RNG word. The digests were
    // recorded while k-means folded dense u64 rows per subset and
    // Detection refolded every kept report.
    let shapes = [
        (
            AttackKind::Mga { r: 10 },
            "recover,recover-star,detection",
            KMeansDefense::default(),
            [
                0x724a_fe48_2a48_e8e3u64,
                0xf36e_4850_5865_ea28,
                0x2de3_fc75_ae6d_d84e,
                0x5557_503b_b530_e4ee,
                0x0122_8bd1_e797_1d01,
            ],
        ),
        (
            AttackKind::MgaIpa { r: 10 },
            "recover,kmeans,recover-km",
            KMeansDefense::new(20, 0.5).unwrap(),
            [
                0x067a_6a12_3087_b796,
                0x480d_67f2_4f88_08e6,
                0xa7e3_1694_30c5_2888,
                0xb229_120d_7913_5aa5,
                0x2b82_8c25_5c47_3b56,
            ],
        ),
        (
            AttackKind::MgaIpa { r: 10 },
            "recover,kmeans,recover-km",
            KMeansDefense::default(),
            [
                0x109e_228c_328f_647f,
                0x11b8_6ab5_7bfd_817d,
                0x8389_7b38_89d6_484a,
                0xec72_bd98_729c_5130,
                0x1f3f_3e15_d386_868d,
            ],
        ),
    ];
    for (attack, arms, kmeans, expect) in shapes {
        for (protocol, expect) in ProtocolKind::EXTENDED.into_iter().zip(expect) {
            let mut config =
                ExperimentConfig::paper_default(DatasetKind::Ipums, protocol, Some(attack));
            config.scale = 0.02;
            let options = PipelineOptions {
                kmeans,
                ..PipelineOptions::with_arms(ArmSet::parse(arms).unwrap())
            };
            let mut rng = rng_from_seed(0xA2A5);
            let result = run_trial(&config, &options, &mut rng).unwrap();
            let mut bytes = Vec::new();
            for (key, output) in &result.arms {
                bytes.extend(key.as_bytes());
                let malicious = output.malicious_estimate.as_deref().unwrap_or(&[]);
                for f in output.frequencies.iter().chain(malicious) {
                    bytes.extend(f.to_bits().to_le_bytes());
                }
            }
            for (arm, reason) in &result.degenerate {
                bytes.extend(arm.as_bytes());
                bytes.extend(reason.as_bytes());
            }
            bytes.extend(rng.gen::<u64>().to_le_bytes());
            assert_eq!(
                xxh64(&bytes, 0),
                expect,
                "{attack:?} {protocol} arms {arms} {kmeans:?}: estimates or draws drifted"
            );
        }
    }
}

/// xxh64 over one stream's snapshots, bit-exact: every trajectory point's
/// three MSEs, the final recovery snapshot's four vectors, then each
/// count-only arm's key, estimate and malicious estimate.
fn stream_digest(protocol: ProtocolKind, attack: AttackKind, window: WindowMode) -> u64 {
    let spec = StreamSpec {
        dataset: DatasetKind::Ipums,
        protocol,
        epsilon: 0.5,
        attack: Some(attack),
        beta: 0.05,
        eta: 0.2,
        shards: 3,
        epochs: 4,
        users_per_epoch: 2000,
        seed: 0x5EED_57AE,
        window,
    };
    let mut engine = StreamEngine::new(spec).unwrap();
    engine.run_to_completion().unwrap();
    let mut bytes = Vec::new();
    let mut push = |floats: &[f64]| {
        for f in floats {
            bytes.extend(f.to_bits().to_le_bytes());
        }
    };
    for point in engine.trajectory() {
        push(&[point.mse_before, point.mse_recovered, point.mse_genuine]);
    }
    let snapshot = engine.recovery_snapshot().unwrap();
    push(&snapshot.truth);
    push(&snapshot.genuine_estimate);
    push(&snapshot.poisoned_estimate);
    push(&snapshot.recovered);
    let arms = ArmSet::parse("recover,recover-star,norm-sub,base-cut").unwrap();
    for (key, output) in engine.arm_snapshot(&arms).unwrap().arms {
        bytes.extend(key.as_bytes());
        let malicious = output.malicious_estimate.as_deref().unwrap_or(&[]);
        for f in output.frequencies.iter().chain(malicious) {
            bytes.extend(f.to_bits().to_le_bytes());
        }
    }
    xxh64(&bytes, 0)
}

#[test]
fn stream_snapshots_match_recorded_digests() {
    // 3 shards × 4 epochs × 2,000 IPUMS users per epoch, in each window
    // mode: all five protocols under AA, plus one MGA-OLH decay stream.
    // The digests were recorded while the stream debiased its window with
    // float code of its own beside the offline pipeline's.
    let windows = [
        (
            WindowMode::Cumulative,
            [
                0xdb2c_bfe5_4d0a_af1cu64,
                0x2264_14af_d6f1_80fc,
                0xd971_b628_e672_e2ae,
                0xaff7_ff7f_1556_8d71,
                0xded6_6667_fed2_ff1b,
            ],
        ),
        (
            WindowMode::Sliding(2),
            [
                0xf99c_a0fc_5d21_4dad,
                0x9b8f_7ef8_94a0_4978,
                0x1983_0f3e_562c_8540,
                0xcf99_b916_25e1_774b,
                0xdf9a_41f2_f434_cff2,
            ],
        ),
        (
            WindowMode::Decay(0.75),
            [
                0x1856_1b31_5041_a632,
                0x4739_7bdf_6577_f5ad,
                0x994a_5f83_47d2_8bbd,
                0xd993_91b2_7d43_eea4,
                0x145d_89e2_61e0_895e,
            ],
        ),
    ];
    for (window, expect) in windows {
        for (protocol, expect) in ProtocolKind::EXTENDED.into_iter().zip(expect) {
            assert_eq!(
                stream_digest(protocol, AttackKind::Adaptive, window),
                expect,
                "AA-{protocol} {window:?}: stream snapshots drifted"
            );
        }
    }
    assert_eq!(
        stream_digest(
            ProtocolKind::Olh,
            AttackKind::Mga { r: 10 },
            WindowMode::Decay(0.75)
        ),
        0x72a9_709d_72f6_912a,
        "MGA-OLH decay:0.75: stream snapshots drifted"
    );
}
