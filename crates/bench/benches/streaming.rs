//! Streaming ingestion throughput: epochs per second as a function of the
//! shard count and the per-epoch traffic volume.
//!
//! One epoch = every shard samples its population histogram and batched
//! support-count delta from its own derived stream, the deltas merge, and
//! recovery runs on the cumulative counts. For GRR/OUE the per-shard work
//! is `O(d)`–`O(d·log n)`, so epoch cost should be flat in `n` up to the
//! paper-scale 10⁶ users — the property that makes the streaming engine
//! viable at millions-of-users traffic. Shards ∈ {1, 4, 16} additionally
//! quantify the fan-out overhead (thread scheduling vs. shard-local
//! sampling) at fixed total traffic.
//!
//! Run with `cargo bench --bench streaming`; CI only compiles it
//! (`cargo bench --no-run`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ldp_attacks::AttackKind;
use ldp_common::Json;
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;
use ldp_sim::stream::{StreamEngine, StreamSpec, WindowMode};
use std::hint::black_box;

/// Shard layouts of the comparison.
const SHARDS: [usize; 3] = [1, 4, 16];

/// Per-epoch traffic volumes, up to 10⁶ users (beyond the static corpus:
/// counts draw with replacement from the realized frequencies).
const USERS_PER_EPOCH: [usize; 3] = [10_000, 100_000, 1_000_000];

fn spec(protocol: ProtocolKind, shards: usize, users_per_epoch: usize) -> StreamSpec {
    StreamSpec {
        dataset: DatasetKind::Ipums,
        protocol,
        epsilon: 0.5,
        attack: Some(AttackKind::Adaptive),
        beta: 0.05,
        eta: 0.2,
        shards,
        epochs: 1,
        users_per_epoch,
        seed: 0xBE9C4,
        window: WindowMode::Cumulative,
    }
}

fn bench_epoch_ingestion(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_epoch");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for protocol in [ProtocolKind::Grr, ProtocolKind::Oue] {
        for shards in SHARDS {
            for users in USERS_PER_EPOCH {
                group.throughput(Throughput::Elements(users as u64));
                group.bench_with_input(
                    BenchmarkId::new(format!("{}/shards={shards}", protocol.name()), users),
                    &users,
                    |b, &users| {
                        b.iter(|| {
                            let mut engine =
                                StreamEngine::new(spec(protocol, shards, users)).unwrap();
                            black_box(engine.step().unwrap())
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_checkpoint_roundtrip(c: &mut Criterion) {
    // Suspend/resume cost at a realistic state size (d = 102, mid-run).
    let mut group = c.benchmark_group("stream_checkpoint");
    group.sample_size(10);
    let mut engine = StreamEngine::new(spec(ProtocolKind::Grr, 4, 50_000)).unwrap();
    engine.step().unwrap();
    group.bench_function("dump", |b| {
        b.iter(|| black_box(engine.to_checkpoint().render()));
    });
    let bytes = engine.to_checkpoint().render();
    group.bench_function("restore", |b| {
        b.iter(|| {
            let json = Json::parse(black_box(&bytes)).unwrap();
            black_box(StreamEngine::from_checkpoint(&json).unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_epoch_ingestion, bench_checkpoint_roundtrip);
criterion_main!(benches);
