//! Criterion ablation: the paper's norm-sub KKT solver vs the exact
//! sort-based simplex projection vs the biased clip+normalize baseline
//! (the cost side of the `PostProcess` ablation; Ablation 2 of
//! `ldp repro --figure ablations` measures the accuracy side).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldp_common::rng::rng_from_seed;
use ldprecover::solve::{clip_normalize, norm_sub, project_simplex};
use rand::Rng;
use std::hint::black_box;

fn estimates(d: usize, negative_fraction: f64, seed: u64) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    (0..d)
        .map(|_| {
            if rng.gen::<f64>() < negative_fraction {
                -0.2 * rng.gen::<f64>()
            } else {
                rng.gen::<f64>() / d as f64 * 4.0
            }
        })
        .collect()
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers");
    group.sample_size(40);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for d in [102usize, 490, 4096] {
        // Heavy-negative input: many norm-sub iterations (worst case).
        let est = estimates(d, 0.5, 7);
        group.bench_with_input(BenchmarkId::new("norm_sub", d), &d, |b, _| {
            b.iter(|| black_box(norm_sub(&est)));
        });
        group.bench_with_input(BenchmarkId::new("project_simplex", d), &d, |b, _| {
            b.iter(|| black_box(project_simplex(&est)));
        });
        group.bench_with_input(BenchmarkId::new("clip_normalize", d), &d, |b, _| {
            b.iter(|| black_box(clip_normalize(&est)));
        });
    }
    group.finish();
}

fn bench_norm_sub_iteration_regimes(c: &mut Criterion) {
    // Few vs many deactivation rounds.
    let mut group = c.benchmark_group("norm_sub_regimes");
    group.sample_size(40);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for (label, negative_fraction) in [("mostly_positive", 0.05), ("mostly_negative", 0.9)] {
        let est = estimates(1024, negative_fraction, 11);
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
            b.iter(|| black_box(norm_sub(&est)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_norm_sub_iteration_regimes);
criterion_main!(benches);
