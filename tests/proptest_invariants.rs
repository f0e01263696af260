//! Property-based invariants on the core data structures and solvers.

use ldp_common::kernels::{fwht_i64, parity};
use ldp_common::sampling::AliasTable;
use ldp_common::vecmath::is_probability_vector;
use ldp_common::BitVec;
use ldprecover::solve::{clip_normalize, norm_sub, project_simplex};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The O(k log k) butterfly equals the O(k²) Sylvester matrix product
    /// `H·x` with `H[w][y] = (−1)^popcount(w & y)`, at random orders and
    /// random (including negative) entries — complementing the exhaustive
    /// small-order check in `ldp_common::kernels`.
    #[test]
    fn fwht_matches_naive_at_random_orders(
        log_k in 0u32..=10,
        seed_vals in prop::collection::vec(-1_000_000i64..1_000_000, 1024),
    ) {
        let k = 1usize << log_k;
        let data: Vec<i64> = seed_vals[..k].to_vec();
        let naive: Vec<i64> = (0..k as u32)
            .map(|w| {
                (0..k as u32)
                    .map(|y| if parity(w, y) == 0 { data[y as usize] } else { -data[y as usize] })
                    .sum()
            })
            .collect();
        let mut fast = data;
        fwht_i64(&mut fast);
        prop_assert_eq!(fast, naive);
    }

    /// H is k·I times its own inverse: applying the butterfly twice
    /// returns the input scaled by the order.
    #[test]
    fn fwht_is_a_scaled_involution(
        log_k in 0u32..=10,
        seed_vals in prop::collection::vec(-1_000_000i64..1_000_000, 1024),
    ) {
        let k = 1usize << log_k;
        let data: Vec<i64> = seed_vals[..k].to_vec();
        let mut twice = data.clone();
        fwht_i64(&mut twice);
        fwht_i64(&mut twice);
        let scaled: Vec<i64> = data.iter().map(|&x| x * k as i64).collect();
        prop_assert_eq!(twice, scaled);
    }

    /// Algorithm 1's output is always a probability vector, whatever the
    /// estimate looks like.
    #[test]
    fn norm_sub_lands_on_simplex(est in prop::collection::vec(-2.0f64..2.0, 1..200)) {
        let out = norm_sub(&est);
        prop_assert!(is_probability_vector(&out, 1e-6));
        prop_assert_eq!(out.len(), est.len());
    }

    /// The iterative KKT scheme agrees with the exact sort-based projection
    /// (they solve the same strictly-convex program).
    #[test]
    fn norm_sub_equals_exact_projection(est in prop::collection::vec(-2.0f64..2.0, 1..100)) {
        let a = norm_sub(&est);
        let b = project_simplex(&est);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-7, "{:?} vs {:?}", a, b);
        }
    }

    /// Projection never increases the L2 distance to any simplex point
    /// (firm non-expansiveness spot-check against the uniform vector).
    #[test]
    fn projection_is_closer_to_uniform_than_input(
        est in prop::collection::vec(-2.0f64..2.0, 2..50)
    ) {
        let d = est.len();
        let uniform = vec![1.0 / d as f64; d];
        let proj = project_simplex(&est);
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
        };
        prop_assert!(dist(&proj, &uniform) <= dist(&est, &uniform) + 1e-9);
    }

    /// Clip-normalize also lands on the simplex (the ablation baseline).
    #[test]
    fn clip_normalize_lands_on_simplex(est in prop::collection::vec(-2.0f64..2.0, 1..200)) {
        prop_assert!(is_probability_vector(&clip_normalize(&est), 1e-6));
    }

    /// The genuine frequency estimator is the exact inverse of the mixture
    /// identity (Eq. 14) for any eta and any vectors.
    #[test]
    fn estimator_inverts_mixture(
        x in prop::collection::vec(0.0f64..1.0, 1..50),
        eta in 0.0f64..2.0,
    ) {
        let y: Vec<f64> = x.iter().map(|v| 1.0 - v).collect();
        let z: Vec<f64> = x.iter().zip(&y)
            .map(|(&a, &b)| (a + eta * b) / (1.0 + eta))
            .collect();
        let est = ldprecover::estimator::genuine_estimate(&z, &y, eta).unwrap();
        for (e, &t) in est.iter().zip(&x) {
            prop_assert!((e - t).abs() < 1e-9);
        }
    }

    /// Full recovery output is always on the simplex for arbitrary
    /// poisoned inputs.
    #[test]
    fn recovery_output_always_on_simplex(
        poisoned in prop::collection::vec(-0.5f64..1.5, 2..120),
        eta in 0.0f64..0.5,
    ) {
        let d = poisoned.len();
        let domain = ldp_common::Domain::new(d).unwrap();
        let e = 0.5f64.exp();
        let denom = d as f64 - 1.0 + e;
        let params = ldp_protocols::PureParams::new(e / denom, 1.0 / denom, domain).unwrap();
        let out = ldprecover::LdpRecover::new(eta).unwrap()
            .recover(&poisoned, params)
            .unwrap();
        prop_assert!(is_probability_vector(&out.frequencies, 1e-6));
    }

    /// Alias tables reproduce their input distribution's support exactly:
    /// zero-weight outcomes are never sampled.
    #[test]
    fn alias_table_respects_support(
        weights in prop::collection::vec(0.0f64..5.0, 1..40),
        seed in 0u64..1000,
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = ldp_common::rng::rng_from_seed(seed);
        for _ in 0..200 {
            let s = table.sample(&mut rng);
            prop_assert!(weights[s] > 0.0, "sampled zero-weight outcome {}", s);
        }
    }

    /// BitVec set/get roundtrip and count consistency.
    #[test]
    fn bitvec_roundtrip(
        len in 1usize..300,
        indices in prop::collection::vec(0usize..300, 0..50),
    ) {
        let indices: Vec<usize> = indices.into_iter().filter(|&i| i < len).collect();
        let unique: std::collections::BTreeSet<usize> = indices.iter().copied().collect();
        let mut bv = BitVec::zeros(len);
        for &i in &indices {
            bv.set_one(i);
        }
        prop_assert_eq!(bv.count_ones(), unique.len());
        let ones: Vec<usize> = bv.iter_ones().collect();
        let expected: Vec<usize> = unique.into_iter().collect();
        prop_assert_eq!(ones, expected);
    }

    /// xxhash64 is deterministic and input-sensitive.
    #[test]
    fn xxhash_deterministic_and_sensitive(
        data in prop::collection::vec(any::<u8>(), 0..64),
        seed in any::<u64>(),
    ) {
        use ldp_common::hash::xxh64;
        prop_assert_eq!(xxh64(&data, seed), xxh64(&data, seed));
        // Appending a byte must change the hash (collisions at 2^-64 are
        // effectively impossible over 256 proptest cases).
        let mut extended = data.clone();
        extended.push(0xAB);
        prop_assert_ne!(xxh64(&data, seed), xxh64(&extended, seed));
    }

    /// OLH hash family members map every item into range.
    #[test]
    fn olh_hash_always_in_range(seed in any::<u64>(), g in 2u32..64, item in 0usize..10_000) {
        let h = ldp_common::hash::OlhHash::new(seed, g);
        prop_assert!(h.hash(item) < g);
    }

    /// Normalization lands on the simplex for any non-degenerate input.
    #[test]
    fn normalize_lands_on_simplex(v in prop::collection::vec(0.0f64..10.0, 1..100)) {
        let mut v = v;
        ldp_common::vecmath::normalize_to_simplex_sum(&mut v);
        prop_assert!(is_probability_vector(&v, 1e-6));
    }

    /// The non-knowledge malicious spread always totals the learned sum
    /// (Eq. 26 conserves mass), for any poisoned vector and any sum.
    #[test]
    fn non_knowledge_spread_conserves_mass(
        poisoned in prop::collection::vec(-1.0f64..1.0, 1..150),
        sum in -500.0f64..500.0,
    ) {
        let est = ldprecover::malicious::non_knowledge_estimate(&poisoned, sum).unwrap();
        let total: f64 = est.iter().sum();
        prop_assert!((total - sum).abs() < 1e-6 * sum.abs().max(1.0));
        // Zero on the non-positive sub-domain (when D1 is non-empty).
        if poisoned.iter().any(|&x| x > 0.0) {
            for (z, e) in poisoned.iter().zip(&est) {
                if *z <= 0.0 {
                    prop_assert_eq!(*e, 0.0);
                }
            }
        }
    }

    /// Detection thresholds are monotone in the false-positive budget.
    #[test]
    fn detection_threshold_monotone_in_fpr(r in 2usize..15, seed in 0u64..100) {
        let domain = ldp_common::Domain::new(100).unwrap();
        let proto = ldp_protocols::ProtocolKind::Oue.build(0.5, domain).unwrap();
        let mut rng = ldp_common::rng::rng_from_seed(seed);
        let targets = ldp_common::sampling::sample_distinct(100, r, &mut rng);
        let strict = ldprecover::Detection::new(targets.clone()).unwrap()
            .with_fpr(0.001).unwrap();
        let lax = ldprecover::Detection::new(targets).unwrap()
            .with_fpr(0.2).unwrap();
        prop_assert!(strict.threshold(&proto) >= lax.threshold(&proto));
    }

    /// Partial-knowledge malicious estimates always total the learned sum.
    #[test]
    fn partial_knowledge_totals_learned_sum(
        d in 3usize..80,
        n_targets in 1usize..3,
        seed in 0u64..500,
    ) {
        let domain = ldp_common::Domain::new(d).unwrap();
        let e = 0.5f64.exp();
        let denom = d as f64 - 1.0 + e;
        let params = ldp_protocols::PureParams::new(e / denom, 1.0 / denom, domain).unwrap();
        let mut rng = ldp_common::rng::rng_from_seed(seed);
        let targets = ldp_common::sampling::sample_distinct(d, n_targets.min(d), &mut rng);
        let sum = params.malicious_frequency_sum();
        let est = ldprecover::malicious::partial_knowledge_estimate(params, &targets, sum).unwrap();
        let total: f64 = est.iter().sum();
        prop_assert!((total - sum).abs() < 1e-6 * sum.abs().max(1.0));
    }

    /// End-to-end KKT invariants of Algorithm 1 across the whole protocol ×
    /// attack grid: for any (protocol, attack, η, seed), both LDPRecover and
    /// LDPRecover*'s recovered frequencies are non-negative and sum to at
    /// most 1 + tolerance. (Norm-sub's KKT conditions pin the output to the
    /// probability simplex exactly; the tolerance only absorbs float
    /// accumulation across the d-dimensional sum.)
    #[test]
    fn recovery_is_nonnegative_and_substochastic_for_all_protocol_attack_pairs(
        protocol_idx in 0usize..3,
        attack_idx in 0usize..6,
        eta in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        use ldp_attacks::AttackKind;
        use ldp_datasets::DatasetKind;
        use ldp_protocols::ProtocolKind;
        use ldp_sim::{ExperimentConfig, PipelineOptions};

        let protocol = ProtocolKind::ALL[protocol_idx % ProtocolKind::ALL.len()];
        let attack = [
            AttackKind::Adaptive,
            AttackKind::Mga { r: 5 },
            AttackKind::SampledMga { r: 5 },
            AttackKind::Manip { h: 8 },
            AttackKind::MgaIpa { r: 5 },
            AttackKind::MultiAdaptive { attackers: 3 },
        ][attack_idx % 6];

        let mut config = ExperimentConfig::paper_default(DatasetKind::Ipums, protocol, Some(attack));
        config.scale = 0.002; // ~780 genuine users: cheap but non-degenerate
        config.eta = eta;
        config.seed = seed;
        config.trials = 1;

        let mut rng = ldp_common::rng::rng_from_seed(seed);
        let result =
            ldp_sim::pipeline::run_trial(&config, &PipelineOptions::recovery_only(), &mut rng)
                .unwrap();

        let tol = 1e-6;
        for (label, freqs) in [
            ("LDPRecover", result.recovered()),
            ("LDPRecover*", result.recovered_star()),
        ] {
            let Some(freqs) = freqs else { continue };
            for (v, &f) in freqs.iter().enumerate() {
                prop_assert!(
                    f >= 0.0,
                    "{label} {protocol:?}×{attack:?} η={eta}: f[{v}] = {f} < 0"
                );
            }
            let total: f64 = freqs.iter().sum();
            prop_assert!(
                total <= 1.0 + tol,
                "{label} {protocol:?}×{attack:?} η={eta}: Σf = {total} > 1 + tol"
            );
        }
    }
}
