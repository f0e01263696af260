//! Checkpoint / restore tests for the streaming ingestion engine.
//!
//! The suspend/resume contract: serializing the engine through the shared
//! JSON value layer (`ldp_common::json`), restoring it — possibly in a
//! different process — and continuing the stream is **bit-identical** to
//! never having stopped. Randomness is derived per `(shard, epoch)`, so
//! the contract needs no RNG serialization; what it does need is the JSON
//! layer reproducing every `f64` and count exactly, which the proptest
//! below hammers with randomized engine states (full-width seeds
//! included), and strict rejection of malformed checkpoints.

use ldp_attacks::AttackKind;
use ldp_common::Json;
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;
use ldp_sim::stream::{StreamEngine, StreamSpec, WindowMode};
use proptest::prelude::*;

fn spec(protocol: ProtocolKind, shards: usize, epochs: usize) -> StreamSpec {
    StreamSpec {
        dataset: DatasetKind::Ipums,
        protocol,
        epsilon: 0.5,
        attack: Some(AttackKind::Mga { r: 5 }),
        beta: 0.05,
        eta: 0.2,
        shards,
        epochs,
        users_per_epoch: 400,
        seed: 0xC0FFEE,
        window: WindowMode::Cumulative,
    }
}

/// One full serialize → bytes → parse → restore cycle.
fn roundtrip(engine: &StreamEngine) -> StreamEngine {
    let bytes = engine.to_checkpoint().render();
    StreamEngine::from_checkpoint(&Json::parse(&bytes).expect("parse")).expect("restore")
}

#[test]
fn suspend_resume_is_bit_identical_to_an_uninterrupted_run() {
    // For every protocol: run 4 epochs straight through, and 2 + (dump,
    // restore) + 2 — the final states, trajectories, reports, and
    // recovered frequencies must match bitwise.
    for protocol in ProtocolKind::EXTENDED {
        let spec = spec(protocol, 3, 4);
        let mut uninterrupted = StreamEngine::new(spec).unwrap();
        uninterrupted.run_to_completion().unwrap();

        let mut first_half = StreamEngine::new(spec).unwrap();
        first_half.step().unwrap();
        first_half.step().unwrap();
        let mut resumed = roundtrip(&first_half);
        assert_eq!(resumed, first_half, "{protocol}: restore changed state");
        resumed.run_to_completion().unwrap();

        assert_eq!(resumed, uninterrupted, "{protocol}: resumed final state");
        assert_eq!(
            resumed.report().unwrap().render(),
            uninterrupted.report().unwrap().render(),
            "{protocol}: resumed report bytes"
        );
        let a = resumed.recovery_snapshot().unwrap();
        let b = uninterrupted.recovery_snapshot().unwrap();
        for (x, y) in a.recovered.iter().zip(&b.recovered) {
            assert_eq!(x.to_bits(), y.to_bits(), "{protocol}: recovered bits");
        }
    }
}

/// Checkpoints written by an earlier build of `ldp stream --protocol hr
/// --shards 3 --epochs 4 --users-per-epoch 600 --suspend-after 3
/// --window <mode> --checkpoint <file>`. Every other test here round-trips
/// within one build; these pin the format across versions.
const PINNED_CHECKPOINTS: [(&str, &str); 2] = [
    (
        "sliding:2",
        include_str!("fixtures/stream_checkpoint_sliding.json"),
    ),
    (
        "decay:0.5",
        include_str!("fixtures/stream_checkpoint_decay.json"),
    ),
];

#[test]
fn checkpoints_from_an_earlier_build_restore_byte_for_byte_and_resume() {
    for (window, bytes) in PINNED_CHECKPOINTS {
        let mut resumed = StreamEngine::from_checkpoint(&Json::parse(bytes).unwrap()).unwrap();
        assert_eq!(resumed.spec().window.name(), window);
        assert_eq!(resumed.epochs_done(), 3, "{window}: suspended after 3");
        assert_eq!(
            resumed.to_checkpoint().render(),
            bytes,
            "{window}: the restored engine re-renders the exact file bytes"
        );

        let mut uninterrupted = StreamEngine::new(*resumed.spec()).unwrap();
        uninterrupted.run_to_completion().unwrap();
        resumed.run_to_completion().unwrap();
        assert_eq!(
            resumed.report().unwrap().render(),
            uninterrupted.report().unwrap().render(),
            "{window}: resumed final report"
        );
    }
}

#[test]
fn checkpoints_can_be_taken_at_every_epoch_boundary() {
    // Continuous checkpointing (what `ldp stream --checkpoint` does):
    // dumping after each epoch and restoring from *any* of those dumps,
    // then finishing, always reproduces the uninterrupted run.
    let spec = spec(ProtocolKind::Grr, 2, 3);
    let mut reference = StreamEngine::new(spec).unwrap();
    reference.run_to_completion().unwrap();

    let mut engine = StreamEngine::new(spec).unwrap();
    let mut dumps = vec![engine.to_checkpoint().render()];
    while !engine.is_complete() {
        engine.step().unwrap();
        dumps.push(engine.to_checkpoint().render());
    }
    for (at, dump) in dumps.iter().enumerate() {
        let mut resumed = StreamEngine::from_checkpoint(&Json::parse(dump).unwrap()).unwrap();
        assert_eq!(resumed.epochs_done(), at);
        resumed.run_to_completion().unwrap();
        assert_eq!(resumed, reference, "resumed from the epoch-{at} dump");
    }
}

proptest! {
    // Each case runs a real (small) engine; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// JSON value-layer round-trip on randomized engine states: random
    /// protocol/layout/traffic/attack and a full-width random seed. The
    /// restored engine must equal the original, and a second serialize
    /// must reproduce the exact bytes (the layer is a bijection on the
    /// states the engine emits).
    #[test]
    fn random_engine_states_roundtrip_bitwise(
        protocol_pick in 0usize..5,
        shards in 1usize..4,
        epochs in 1usize..3,
        users in 30usize..120,
        run_epochs in 0usize..3,
        attacked in 0u8..2,
        seed in 0u64..u64::MAX,
        window_pick in 0usize..4,
    ) {
        let protocol = ProtocolKind::EXTENDED[protocol_pick];
        let window = [
            WindowMode::Cumulative,
            WindowMode::Sliding(1),
            WindowMode::Sliding(2),
            WindowMode::Decay(0.75),
        ][window_pick];
        let spec = StreamSpec {
            dataset: DatasetKind::Ipums,
            protocol,
            epsilon: 0.8,
            attack: (attacked == 1).then_some(AttackKind::Adaptive),
            beta: if attacked == 1 { 0.05 } else { 0.0 },
            eta: 0.2,
            shards,
            epochs,
            users_per_epoch: users.max(shards),
            seed,
            window,
        };
        let mut engine = StreamEngine::new(spec).unwrap();
        for _ in 0..run_epochs.min(epochs) {
            engine.step().unwrap();
        }
        let bytes = engine.to_checkpoint().render();
        let restored =
            StreamEngine::from_checkpoint(&Json::parse(&bytes).unwrap()).unwrap();
        prop_assert_eq!(&restored, &engine);
        prop_assert_eq!(restored.to_checkpoint().render(), bytes);
    }
}

#[test]
fn truncated_checkpoints_are_rejected_not_misread() {
    // Every proper prefix that drops the closing brace must fail the
    // parse (or, for degenerate prefixes that still parse, the restore
    // validation) — never panic, never resume silently corrupt state.
    let mut engine = StreamEngine::new(spec(ProtocolKind::Oue, 2, 2)).unwrap();
    engine.step().unwrap();
    let text = engine.to_checkpoint().render();
    let len = text.len();
    for cut in [1, len / 4, len / 2, len - 2] {
        let prefix = &text[..cut];
        let outcome = Json::parse(prefix).and_then(|j| StreamEngine::from_checkpoint(&j));
        assert!(outcome.is_err(), "accepted a {cut}-byte prefix of {len}");
    }
}

#[test]
fn foreign_json_documents_are_rejected() {
    for bad in [
        "null",
        "[]",
        "{\"figure\": \"fig3\"}",
        "{\"format\": \"ldp-stream-checkpoint\"}",
        "{\"format\": \"ldp-stream-checkpoint\", \"version\": 1, \"spec\": {}}",
    ] {
        let json = Json::parse(bad).unwrap();
        assert!(
            StreamEngine::from_checkpoint(&json).is_err(),
            "accepted {bad}"
        );
    }
}

#[test]
fn spec_tampering_is_caught_by_validation() {
    // A checkpoint whose spec was edited out of range must fail restore
    // even though the JSON itself is well-formed.
    let mut engine = StreamEngine::new(spec(ProtocolKind::Grr, 2, 2)).unwrap();
    engine.step().unwrap();
    let text = engine.to_checkpoint().render();
    let tampered = text.replace("\"epsilon\": 0.5", "\"epsilon\": -1");
    assert_ne!(tampered, text, "tamper target present");
    let json = Json::parse(&tampered).unwrap();
    assert!(StreamEngine::from_checkpoint(&json).is_err());
}
