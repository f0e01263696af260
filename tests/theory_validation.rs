//! Empirical validation of the paper's theory (§V-B, §V-E).
//!
//! * Lemmas 1–2: the aggregated malicious / genuine frequencies are
//!   asymptotically normal with the stated moments.
//! * Theorems 4–5: the Kolmogorov–Smirnov distance between the empirical
//!   CDF and the normal approximation sits below the Berry–Esseen-style
//!   bounds.

use ldp_common::rng::rng_from_seed;
use ldp_common::stats::{ks_statistic, normal_cdf_mu_sigma};
use ldp_common::Domain;
use ldp_protocols::{CountAccumulator, LdpFrequencyProtocol, ProtocolKind};
use ldprecover::estimator::{genuine_moments, malicious_moments};
use ldprecover::theory::{genuine_cdf_bound, malicious_cdf_bound};

/// Samples `trials` independent malicious aggregated frequencies f̃_Y(v)
/// for a two-point attack distribution.
fn sample_malicious_freqs(
    kind: ProtocolKind,
    attack_prob: f64,
    m: usize,
    trials: usize,
    item: usize,
) -> Vec<f64> {
    let domain = Domain::new(16).unwrap();
    let protocol = kind.build(0.5, domain).unwrap();
    let mut weights = vec![0.0; 16];
    weights[item] = attack_prob;
    weights[(item + 1) % 16] = 1.0 - attack_prob;
    let attack = ldp_attacks::AdaptiveAttack::from_distribution(&weights).unwrap();
    let mut rng = rng_from_seed(21);
    (0..trials)
        .map(|_| {
            let reports = attack.craft(&protocol, m, &mut rng);
            let mut acc = CountAccumulator::new(domain);
            acc.add_all(&protocol, &reports);
            acc.frequencies(protocol.params()).unwrap()[item]
        })
        .collect()
}

#[test]
fn malicious_frequency_is_asymptotically_normal_with_lemma_1_moments() {
    // GRR/OUE clean encodings follow the single-support model exactly.
    for kind in [ProtocolKind::Grr, ProtocolKind::Oue] {
        let attack_prob = 0.3;
        let m = 2_000;
        let trials = 400;
        let sample = sample_malicious_freqs(kind, attack_prob, m, trials, 5);
        let domain = Domain::new(16).unwrap();
        let protocol = kind.build(0.5, domain).unwrap();
        let (mu, var) = malicious_moments(protocol.params(), attack_prob, m);

        // Empirical mean within 5 standard errors.
        let mut rm = ldp_common::stats::RunningMoments::new();
        for &x in &sample {
            rm.push(x);
        }
        let se = (var / trials as f64).sqrt();
        assert!(
            (rm.mean() - mu).abs() < 5.0 * se,
            "{kind:?}: mean {} vs mu {mu} (se {se})",
            rm.mean()
        );

        // KS distance against N(mu, var) below the Theorem 4 bound plus
        // the finite-trial resolution (~1.36/√trials at 5%).
        let sigma = var.sqrt();
        let ks = ks_statistic(&sample, |w| normal_cdf_mu_sigma(w, mu, sigma));
        let bound = malicious_cdf_bound(protocol.params(), attack_prob, m).unwrap();
        // 1% KS critical value: ~5% of seeds exceed the 5% value by definition.
        let resolution = 1.63 / (trials as f64).sqrt();
        assert!(
            ks < bound + resolution,
            "{kind:?}: KS {ks} vs bound {bound} + resolution {resolution}"
        );
    }
}

#[test]
fn genuine_frequency_is_asymptotically_normal_with_lemma_2_moments() {
    let domain = Domain::new(8).unwrap();
    let truth = 0.25;
    let n = 4_000usize;
    let trials = 400usize;
    for kind in ProtocolKind::ALL {
        let protocol = kind.build(0.5, domain).unwrap();
        let mut rng = rng_from_seed(77);
        let sample: Vec<f64> = (0..trials)
            .map(|_| {
                let mut acc = CountAccumulator::new(domain);
                for i in 0..n {
                    let item = if i % 4 == 0 { 0 } else { 1 + (i % 7) };
                    let report = protocol.perturb(item, &mut rng);
                    acc.add(&protocol, &report);
                }
                acc.frequencies(protocol.params()).unwrap()[0]
            })
            .collect();

        let (mu, var) = genuine_moments(protocol.params(), truth, n);
        let sigma = var.sqrt();
        let mut rm = ldp_common::stats::RunningMoments::new();
        for &x in &sample {
            rm.push(x);
        }
        let se = sigma / (trials as f64).sqrt();
        assert!(
            (rm.mean() - mu).abs() < 5.0 * se,
            "{kind:?}: mean {} vs mu {mu}",
            rm.mean()
        );

        let ks = ks_statistic(&sample, |w| normal_cdf_mu_sigma(w, mu, sigma));
        let bound = genuine_cdf_bound(protocol.params(), truth, n).unwrap();
        // 1% KS critical value: ~5% of seeds exceed the 5% value by definition.
        let resolution = 1.63 / (trials as f64).sqrt();
        assert!(
            ks < bound + resolution,
            "{kind:?}: KS {ks} vs bound {bound} + resolution {resolution}"
        );
    }
}

#[test]
fn bounds_shrink_with_population_like_theorems_4_and_5() {
    let domain = Domain::new(16).unwrap();
    let protocol = ProtocolKind::Grr.build(0.5, domain).unwrap();
    let params = protocol.params();
    // √10 shrink per 10× reports, for both bounds.
    let m_bound_small = malicious_cdf_bound(params, 0.3, 1_000).unwrap();
    let m_bound_large = malicious_cdf_bound(params, 0.3, 10_000).unwrap();
    assert!((m_bound_small / m_bound_large - 10.0f64.sqrt()).abs() < 1e-9);

    let g_bound_small = genuine_cdf_bound(params, 0.25, 1_000).unwrap();
    let g_bound_large = genuine_cdf_bound(params, 0.25, 10_000).unwrap();
    assert!((g_bound_small / g_bound_large - 10.0f64.sqrt()).abs() < 1e-9);
}
