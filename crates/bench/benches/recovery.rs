//! Criterion micro-benchmarks: LDPRecover's recovery cost vs domain size
//! and knowledge mode. Recovery is O(d · iterations) — thousands of times
//! cheaper than aggregation, which is what makes the η sweep reuse
//! worthwhile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldp_common::rng::rng_from_seed;
use ldp_common::Domain;
use ldp_protocols::PureParams;
use ldprecover::LdpRecover;
use rand::Rng;
use std::hint::black_box;

fn poisoned_fixture(d: usize, seed: u64) -> (Vec<f64>, PureParams) {
    let mut rng = rng_from_seed(seed);
    let domain = Domain::new(d).unwrap();
    let e = 0.5f64.exp();
    let denom = d as f64 - 1.0 + e;
    let params = PureParams::new(e / denom, 1.0 / denom, domain).unwrap();
    // Zipf-ish truth plus additive noise, some entries negative.
    let poisoned: Vec<f64> = (0..d)
        .map(|v| 1.0 / (v as f64 + 1.0) / 5.0 + 0.02 * (rng.gen::<f64>() - 0.6))
        .collect();
    (poisoned, params)
}

fn bench_recover(c: &mut Criterion) {
    let mut group = c.benchmark_group("recover");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for d in [102usize, 490, 2048, 16384] {
        let (poisoned, params) = poisoned_fixture(d, 1);
        let recover = LdpRecover::new(0.2).unwrap();
        group.bench_with_input(BenchmarkId::new("non_knowledge", d), &d, |b, _| {
            b.iter(|| black_box(recover.recover(&poisoned, params).unwrap()));
        });

        let targets: Vec<usize> = (0..10.min(d)).collect();
        group.bench_with_input(BenchmarkId::new("partial_knowledge", d), &d, |b, _| {
            b.iter(|| {
                black_box(
                    recover
                        .recover_with_targets(&poisoned, params, &targets)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recover);
criterion_main!(benches);
