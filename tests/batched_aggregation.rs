//! Workspace-level contract of the count-based batched aggregation engine:
//! batched trials are (a) deterministic per seed, (b) statistically
//! interchangeable with per-user trials all the way through recovery, and
//! (c) honest about their incompatibility with report-consuming arms.

use ldp_attacks::AttackKind;
use ldp_common::rng::rng_from_seed;
use ldp_common::Domain;
use ldp_datasets::DatasetKind;
use ldp_protocols::{CountAccumulator, LdpFrequencyProtocol, ProtocolKind};
use ldp_sim::{run_experiment, AggregationMode, ExperimentConfig, PipelineOptions};

fn config(protocol: ProtocolKind) -> ExperimentConfig {
    let mut c =
        ExperimentConfig::paper_default(DatasetKind::Ipums, protocol, Some(AttackKind::Adaptive));
    c.scale = 0.02;
    c.trials = 4;
    c
}

fn options(mode: AggregationMode) -> PipelineOptions {
    PipelineOptions {
        aggregation: mode,
        ..PipelineOptions::recovery_only()
    }
}

#[test]
fn batched_experiments_are_deterministic() {
    for protocol in ProtocolKind::EXTENDED {
        let c = config(protocol);
        let opts = options(AggregationMode::Batched);
        let a = run_experiment(&c, &opts).unwrap();
        let b = run_experiment(&c, &opts).unwrap();
        assert_eq!(
            a.mse_recover().unwrap().mean.to_bits(),
            b.mse_recover().unwrap().mean.to_bits(),
            "{protocol:?}"
        );
        assert_eq!(
            a.mse_before.mean.to_bits(),
            b.mse_before.mean.to_bits(),
            "{protocol:?}"
        );
    }
}

#[test]
fn batched_recovery_matches_per_user_recovery_statistically() {
    // The end-to-end equivalence check: for every protocol, both modes
    // must land in the same MSE envelope before *and* after recovery.
    // They share no RNG draws, so the comparison is distributional: means
    // within 8 pooled standard deviations.
    for protocol in ProtocolKind::ALL {
        let c = config(protocol);
        let batched = run_experiment(&c, &options(AggregationMode::Batched)).unwrap();
        let per_user = run_experiment(&c, &options(AggregationMode::PerUser)).unwrap();
        for (a, b, what) in [
            (&batched.mse_genuine, &per_user.mse_genuine, "genuine"),
            (&batched.mse_before, &per_user.mse_before, "before"),
            (
                &batched.mse_recover().unwrap(),
                &per_user.mse_recover().unwrap(),
                "recover",
            ),
        ] {
            let spread = a.std.max(b.std).max(1e-9);
            assert!(
                (a.mean - b.mean).abs() < 8.0 * spread,
                "{protocol:?} {what}: batched {} vs per-user {} (spread {spread})",
                a.mean,
                b.mean
            );
        }
    }
}

#[test]
fn batched_recovery_still_beats_poisoning() {
    // The paper's headline ordering must survive the engine swap.
    let mut c = config(ProtocolKind::Grr);
    c.trials = 6;
    let result = run_experiment(&c, &options(AggregationMode::Batched)).unwrap();
    let recover = result.mse_recover().unwrap().mean;
    assert!(
        recover < result.mse_before.mean,
        "recover {} !< before {}",
        recover,
        result.mse_before.mean
    );
}

#[test]
fn forced_batched_mode_rejects_report_arms() {
    let c = config(ProtocolKind::Oue);
    let opts = PipelineOptions {
        aggregation: AggregationMode::Batched,
        ..PipelineOptions::full_comparison()
    };
    assert!(run_experiment(&c, &opts).is_err());
}

#[test]
fn auto_mode_preserves_full_comparison_arms() {
    // Auto must silently fall back to per-user when Detection/k-means are
    // in play: every arm of the Fig. 3/4 comparison still materializes.
    let mut c = config(ProtocolKind::Oue);
    c.attack = Some(AttackKind::Mga { r: 10 });
    let result = run_experiment(&c, &PipelineOptions::full_comparison()).unwrap();
    assert!(result.mse_star().is_some());
    assert!(result.mse_detection().is_some());
    assert!(result.fg_before.is_some());
}

/// A skewed halving population over `d` items, `n` users total.
fn halving_population(d: usize, n: u64) -> Vec<u64> {
    let mut item_counts = vec![0u64; d];
    let mut remaining = n;
    for slot in &mut item_counts {
        let c = (remaining / 2).max(1).min(remaining);
        *slot = c;
        remaining -= c;
        if remaining == 0 {
            break;
        }
    }
    item_counts
}

#[test]
fn olh_closed_form_matches_per_user_across_epsilon_and_domain() {
    // The differential gate of the OLH λ-split sampler (which retired the
    // grouped per-user fallback): over repeated aggregations of a fixed
    // population, the closed-form and per-user support counts must agree
    // in per-item mean and variance, and both must sit on the analytic
    // values `E[C(v)] = c_v·p + (n−c_v)·q` and
    // `Var[C(v)] = c_v·p(1−p) + (n−c_v)·q(1−q)`, across the ε range of
    // the paper's sweeps and domains from GRR-scale to Hadamard-scale.
    // Population sizes / reps shrink as d grows to keep the per-user
    // reference path (O(n·d) hash evaluations per rep) affordable in
    // debug builds.
    for (d, n, reps) in [
        (16usize, 2_000u64, 60usize),
        (128, 1_000, 40),
        (1_024, 400, 24),
    ] {
        for eps in [0.5f64, 1.0, 2.0] {
            let item_counts = halving_population(d, n);
            let domain = Domain::new(d).unwrap();
            let protocol = ProtocolKind::Olh.build(eps, domain).unwrap();
            let params = protocol.params();
            let (p, q) = (params.p(), params.q());

            let mut rng = rng_from_seed(0x01_1155 ^ d as u64 ^ (eps * 64.0) as u64);
            let mut sums = [vec![0.0f64; d], vec![0.0f64; d]];
            let mut sqs = [vec![0.0f64; d], vec![0.0f64; d]];
            for _ in 0..reps {
                let batched = protocol
                    .batch_aggregate(&item_counts, &mut rng)
                    .expect("OLH is closed-form");
                let mut acc = CountAccumulator::new(domain);
                for (item, &c) in item_counts.iter().enumerate() {
                    for _ in 0..c {
                        let report = protocol.perturb(item, &mut rng);
                        acc.add(&protocol, &report);
                    }
                }
                for (path, counts) in [&batched[..], acc.counts()].into_iter().enumerate() {
                    for (v, &count) in counts.iter().enumerate() {
                        sums[path][v] += count as f64;
                        sqs[path][v] += (count as f64).powi(2);
                    }
                }
            }

            for v in 0..d {
                let c = item_counts[v] as f64;
                let analytic_mean = c * p + (n as f64 - c) * q;
                let analytic_var = c * p * (1.0 - p) + (n as f64 - c) * q * (1.0 - q);
                let mean = |path: usize| sums[path][v] / reps as f64;
                let var = |path: usize| sqs[path][v] / reps as f64 - mean(path).powi(2);

                // Both paths on the analytic mean (6σ of the rep average)…
                let mean_tol = 6.0 * (analytic_var / reps as f64).sqrt();
                for (path, label) in [(0, "closed-form"), (1, "per-user")] {
                    assert!(
                        (mean(path) - analytic_mean).abs() < mean_tol,
                        "eps={eps} d={d} item {v} {label}: mean {} vs analytic \
                         {analytic_mean} (tol {mean_tol})",
                        mean(path)
                    );
                }
                // …therefore on each other, and with matching spread:
                // sample variances within the (generous) sampling error of
                // a variance estimate over `reps` draws.
                assert!(
                    (mean(0) - mean(1)).abs() < 2.0 * mean_tol,
                    "eps={eps} d={d} item {v}: closed-form mean {} vs per-user mean {}",
                    mean(0),
                    mean(1)
                );
                let var_tol = 10.0 * analytic_var * (2.0 / reps as f64).sqrt();
                assert!(
                    (var(0) - var(1)).abs() < var_tol,
                    "eps={eps} d={d} item {v}: closed-form var {} vs per-user var {} \
                     (tol {var_tol})",
                    var(0),
                    var(1)
                );
                for (path, label) in [(0, "closed-form"), (1, "per-user")] {
                    assert!(
                        (var(path) - analytic_var).abs() < var_tol,
                        "eps={eps} d={d} item {v} {label}: var {} vs analytic \
                         {analytic_var} (tol {var_tol})",
                        var(path)
                    );
                }
            }
        }
    }
}

#[test]
fn olh_retirement_leaves_non_olh_rng_streams_untouched() {
    // Bit-compare gate for the OLH retirement + zero-alloc refactor: the
    // GRR/OUE/SUE/HR batched samplers must consume *exactly* the RNG
    // draws they did before (the `add_multinomial_uniform` rewrite is
    // draw-for-draw identical), so every non-OLH batched experiment —
    // including the 13 blessed goldens — reproduces bit-identically.
    // Expected vectors were captured at the pre-retirement tree.
    let d = 16usize;
    let item_counts = halving_population(d, 5_000);
    let domain = Domain::new(d).unwrap();
    let expected: [(ProtocolKind, Vec<u64>); 4] = [
        (
            ProtocolKind::Grr,
            vec![
                441, 392, 340, 324, 306, 300, 265, 318, 296, 269, 276, 294, 306, 316, 247, 310,
            ],
        ),
        (
            ProtocolKind::Oue,
            vec![
                2037, 1810, 1662, 1683, 1605, 1561, 1570, 1563, 1572, 1563, 1595, 1590, 1551, 1609,
                1461, 1484,
            ],
        ),
        (
            ProtocolKind::Sue,
            vec![
                2424, 2275, 2103, 2128, 2011, 2028, 2005, 2001, 1987, 1994, 1960, 1965, 2006, 1946,
                1912, 1936,
            ],
        ),
        (
            ProtocolKind::Hr,
            vec![
                2942, 2722, 2592, 2587, 2567, 2551, 2543, 2589, 2569, 2487, 2467, 2504, 2474, 2456,
                2470, 2474,
            ],
        ),
    ];
    for (kind, want) in expected {
        let protocol = kind.build(0.8, domain).unwrap();
        let got = protocol
            .batch_aggregate(&item_counts, &mut rng_from_seed(0xD1FF))
            .unwrap();
        assert_eq!(got, want, "{kind:?}: batched RNG stream perturbed");
    }
}

#[test]
fn batched_estimates_stay_near_truth_at_tiny_scale() {
    // Direct accuracy guard (independent of the per-user path): the
    // batched genuine estimate must sit at the LDP noise floor, i.e. its
    // MSE against the truth is far below the poisoned estimate's.
    let mut c = config(ProtocolKind::Grr);
    c.beta = 0.10;
    let result = run_experiment(&c, &options(AggregationMode::Batched)).unwrap();
    assert!(result.mse_genuine.mean < result.mse_before.mean);
    assert!(result.mse_genuine.mean.is_finite());
}

/// The exact law of a sum of independent Bernoulli draws, `c` of them
/// succeeding with probability `p` and `n − c` with `q`:
/// `Binomial(c, p) ⊛ Binomial(n − c, q)`, one convolution step per draw.
fn support_count_pmf(c: u64, n: u64, p: f64, q: f64) -> Vec<f64> {
    let mut pmf = vec![1.0];
    for i in 0..n {
        let success = if i < c { p } else { q };
        let mut next = vec![0.0; pmf.len() + 1];
        for (k, &mass) in pmf.iter().enumerate() {
            next[k] += mass * (1.0 - success);
            next[k + 1] += mass * success;
        }
        pmf = next;
    }
    pmf
}

#[test]
fn batched_counts_match_the_exact_per_item_distribution() {
    // Every user supports item v independently, with probability p if
    // they hold v and q otherwise, so an item's support count is exactly
    // Binomial(c_v, p) ⊛ Binomial(n − c_v, q). GRR's and OLH's λ-splits,
    // HR's row mixture and the unary column sampler each claim that law
    // (not just its mean and variance) per item: one χ² test per item
    // against the convolution, over 20,000 draws. Bins merge from the
    // left until each expects at least 5 draws, and a short right tail
    // joins the last bin. The bound is χ²'s upper 10⁻⁶ quantile by the
    // Wilson–Hilferty cube (z = 4.753), as in `ldp_common::sampling`.
    let item_counts = [9u64, 0, 5, 1, 3, 12];
    let n: u64 = item_counts.iter().sum();
    let domain = Domain::new(item_counts.len()).unwrap();
    let draws = 20_000usize;
    let mut rng = rng_from_seed(0xC0DE);
    for kind in ProtocolKind::EXTENDED {
        for eps in [0.5, 2.0] {
            let protocol = kind.build(eps, domain).unwrap();
            let (p, q) = (protocol.params().p(), protocol.params().q());
            let mut observed = vec![vec![0usize; n as usize + 1]; item_counts.len()];
            for _ in 0..draws {
                let counts = protocol.batch_aggregate(&item_counts, &mut rng).unwrap();
                for (hist, &c) in observed.iter_mut().zip(&counts) {
                    hist[c as usize] += 1;
                }
            }
            for (v, (&c, hist)) in item_counts.iter().zip(&observed).enumerate() {
                let pmf = support_count_pmf(c, n, p, q);
                let mut bins: Vec<(f64, usize)> = Vec::new(); // (expected, observed)
                let (mut expected, mut seen) = (0.0, 0);
                for (&mass, &count) in pmf.iter().zip(hist) {
                    expected += mass * draws as f64;
                    seen += count;
                    if expected >= 5.0 {
                        bins.push((expected, seen));
                        (expected, seen) = (0.0, 0);
                    }
                }
                let last = bins.last_mut().expect("at least one bin");
                last.0 += expected;
                last.1 += seen;
                let chi2: f64 = bins.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
                let dof = bins.len() - 1;
                let h = 2.0 / (9.0 * dof as f64);
                let bound = dof as f64 * (1.0 - h + 4.753 * h.sqrt()).powi(3);
                assert!(
                    chi2 < bound,
                    "{kind} ε={eps} item {v} (c = {c}): χ² = {chi2:.1} over {dof} dof \
                     exceeds {bound:.1}"
                );
            }
        }
    }
}
