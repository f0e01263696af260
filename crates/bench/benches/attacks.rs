//! Criterion micro-benchmarks: attack crafting throughput — notably the
//! cost gap between the paper's sampled MGA and the precise MGA (whose OLH
//! arm pays for a per-report seed search).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ldp_attacks::{AdaptiveAttack, Mga};
use ldp_common::rng::rng_from_seed;
use ldp_common::Domain;
use ldp_protocols::ProtocolKind;
use std::hint::black_box;

const M: usize = 512;

fn bench_crafting(c: &mut Criterion) {
    let domain = Domain::new(102).unwrap();
    let mut group = c.benchmark_group("craft");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.throughput(Throughput::Elements(M as u64));

    for kind in ProtocolKind::ALL {
        let protocol = kind.build(0.5, domain).unwrap();

        let mut rng = rng_from_seed(1);
        let aa = AdaptiveAttack::random(domain, &mut rng);
        group.bench_with_input(BenchmarkId::new("adaptive", kind.name()), &(), |b, ()| {
            b.iter(|| black_box(aa.craft(&protocol, M, &mut rng)));
        });

        let mut rng = rng_from_seed(2);
        let sampled = AdaptiveAttack::random_targets(domain, 10, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("mga_sampled", kind.name()),
            &(),
            |b, ()| {
                b.iter(|| black_box(sampled.craft(&protocol, M, &mut rng)));
            },
        );

        let mut rng = rng_from_seed(3);
        let precise = Mga::random_targets(domain, 10, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("mga_precise", kind.name()),
            &(),
            |b, ()| {
                b.iter(|| black_box(precise.craft(&protocol, M, &mut rng)));
            },
        );
    }
    group.finish();
}

fn bench_olh_seed_search_budget(c: &mut Criterion) {
    // Ablation: how the seed-search budget scales MGA-OLH crafting cost.
    let domain = Domain::new(102).unwrap();
    let protocol = ProtocolKind::Olh.build(0.5, domain).unwrap();
    let mut group = c.benchmark_group("mga_olh_seed_trials");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for trials in [10usize, 50, 200] {
        let mut rng = rng_from_seed(4);
        let mga = Mga::random_targets(domain, 10, &mut rng).with_seed_trials(trials);
        group.bench_with_input(BenchmarkId::from_parameter(trials), &trials, |b, _| {
            b.iter(|| black_box(mga.craft(&protocol, 64, &mut rng)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_crafting, bench_olh_seed_search_budget);
criterion_main!(benches);
