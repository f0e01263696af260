//! Checkpoint / restore for the streaming ingestion engine.
//!
//! The engine's randomness is derived per `(shard, epoch)` from the master
//! seed, so a checkpoint never has to serialize RNG state: the complete
//! resumable state is the spec, the epoch cursor, the cumulative count
//! accumulators, and the trajectory. Everything round-trips through the
//! shared JSON value layer ([`ldp_common::json`]) — floats in their
//! shortest round-tripping decimal form (bit-exact on re-parse), the
//! full-width `u64` master seed as a decimal string (JSON numbers are
//! `f64` and lose integers beyond 2⁵³).
//!
//! Restores are strict: the format tag, version, spec ranges, vector
//! shapes, and cross-field invariants (epoch cursor vs trajectory length,
//! population conservation) are all validated, so a truncated or
//! hand-edited checkpoint fails loudly instead of resuming a corrupt
//! stream.

use ldp_attacks::AttackKind;
use ldp_common::float::exactly_zero;
use ldp_common::{Json, LdpError, Result};
use ldp_datasets::DatasetKind;
use ldp_protocols::{CountAccumulator, ProtocolKind};

use super::window::{EpochAggregate, WindowMode, WindowState};
use super::{EpochPoint, StreamEngine, StreamSpec};

/// Format tag guarding against feeding scenario reports (or arbitrary
/// JSON) to the restore path.
const FORMAT: &str = "ldp-stream-checkpoint";
/// Current checkpoint schema version.
const VERSION: f64 = 1.0;

/// Largest integer a JSON number can carry exactly.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0; // 2^53

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json> {
    json.get(key)
        .ok_or_else(|| LdpError::invalid(format!("checkpoint: missing '{key}'")))
}

fn usize_field(json: &Json, key: &str) -> Result<usize> {
    let v = field(json, key)?
        .as_f64()
        .ok_or_else(|| LdpError::invalid(format!("checkpoint: '{key}' not a number")))?;
    if !(v.is_finite() && (0.0..=MAX_SAFE_INT).contains(&v) && exactly_zero(v.fract())) {
        return Err(LdpError::invalid(format!(
            "checkpoint: '{key}' = {v} is not a non-negative integer"
        )));
    }
    Ok(v as usize)
}

fn f64_field(json: &Json, key: &str) -> Result<f64> {
    field(json, key)?
        .as_f64()
        .ok_or_else(|| LdpError::invalid(format!("checkpoint: '{key}' not a number")))
}

fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str> {
    field(json, key)?
        .as_str()
        .ok_or_else(|| LdpError::invalid(format!("checkpoint: '{key}' not a string")))
}

fn counts_field(json: &Json, key: &str, len: usize) -> Result<Vec<u64>> {
    let arr = field(json, key)?
        .as_array()
        .ok_or_else(|| LdpError::invalid(format!("checkpoint: '{key}' not an array")))?;
    if arr.len() != len {
        return Err(LdpError::invalid(format!(
            "checkpoint: '{key}' has {} entries, domain needs {len}",
            arr.len()
        )));
    }
    arr.iter()
        .map(|v| {
            let x = v.as_f64().ok_or_else(|| {
                LdpError::invalid(format!("checkpoint: '{key}' entry not a number"))
            })?;
            if !(x.is_finite() && (0.0..=MAX_SAFE_INT).contains(&x) && exactly_zero(x.fract())) {
                return Err(LdpError::invalid(format!(
                    "checkpoint: '{key}' entry {x} is not a count"
                )));
            }
            Ok(x as u64)
        })
        .collect()
}

/// Serializes an attack kind (`None` → `null`).
pub fn attack_to_json(attack: Option<AttackKind>) -> Json {
    let obj = |kind: &str, param: Option<(&str, usize)>| {
        let mut members = vec![("kind".to_string(), Json::Str(kind.to_string()))];
        if let Some((name, value)) = param {
            members.push((name.to_string(), Json::Num(value as f64)));
        }
        Json::Obj(members)
    };
    match attack {
        None => Json::Null,
        Some(AttackKind::Manip { h }) => obj("manip", Some(("h", h))),
        Some(AttackKind::Mga { r }) => obj("mga", Some(("r", r))),
        Some(AttackKind::MgaSampled { r }) => obj("mga-sampled", Some(("r", r))),
        Some(AttackKind::Adaptive) => obj("aa", None),
        Some(AttackKind::AdaptiveCamouflaged) => obj("aa-camo", None),
        Some(AttackKind::MgaIpa { r }) => obj("mga-ipa", Some(("r", r))),
        Some(AttackKind::MultiAdaptive { attackers }) => {
            obj("multi", Some(("attackers", attackers)))
        }
    }
}

/// Parses an attack kind serialized by [`attack_to_json`].
///
/// # Errors
/// [`LdpError::InvalidParameter`] for unknown kinds or missing parameters.
pub fn attack_from_json(json: &Json) -> Result<Option<AttackKind>> {
    if *json == Json::Null {
        return Ok(None);
    }
    let kind = str_field(json, "kind")?;
    let attack = match kind {
        "manip" => AttackKind::Manip {
            h: usize_field(json, "h")?,
        },
        "mga" => AttackKind::Mga {
            r: usize_field(json, "r")?,
        },
        "mga-sampled" => AttackKind::MgaSampled {
            r: usize_field(json, "r")?,
        },
        "aa" => AttackKind::Adaptive,
        "aa-camo" => AttackKind::AdaptiveCamouflaged,
        "mga-ipa" => AttackKind::MgaIpa {
            r: usize_field(json, "r")?,
        },
        "multi" => AttackKind::MultiAdaptive {
            attackers: usize_field(json, "attackers")?,
        },
        other => {
            return Err(LdpError::invalid(format!(
                "checkpoint: unknown attack kind '{other}'"
            )))
        }
    };
    Ok(Some(attack))
}

/// Serializes a stream spec. The `window` member is only emitted for
/// non-cumulative modes, so cumulative checkpoints/reports stay
/// byte-identical to the pre-window (PR 4) schema and old checkpoints
/// keep restoring.
pub fn spec_to_json(spec: &StreamSpec) -> Json {
    let mut members = vec![
        ("dataset".into(), Json::Str(spec.dataset.name().into())),
        ("protocol".into(), Json::Str(spec.protocol.name().into())),
        ("attack".into(), attack_to_json(spec.attack)),
        ("epsilon".into(), Json::Num(spec.epsilon)),
        ("beta".into(), Json::Num(spec.beta)),
        ("eta".into(), Json::Num(spec.eta)),
        ("shards".into(), Json::Num(spec.shards as f64)),
        ("epochs".into(), Json::Num(spec.epochs as f64)),
        (
            "users_per_epoch".into(),
            Json::Num(spec.users_per_epoch as f64),
        ),
        // Full-width u64: decimal string, not a (lossy) JSON number.
        ("seed".into(), Json::Str(spec.seed.to_string())),
    ];
    if !spec.window.is_cumulative() {
        members.push(("window".into(), Json::Str(spec.window.name())));
    }
    Json::Obj(members)
}

/// Parses a stream spec serialized by [`spec_to_json`], then validates it.
///
/// # Errors
/// [`LdpError::InvalidParameter`] for malformed fields or a spec that
/// fails [`StreamSpec::validate`].
pub fn spec_from_json(json: &Json) -> Result<StreamSpec> {
    let seed_text = str_field(json, "seed")?;
    let seed: u64 = seed_text
        .parse()
        .map_err(|_| LdpError::invalid(format!("checkpoint: seed '{seed_text}' not a u64")))?;
    let spec = StreamSpec {
        dataset: DatasetKind::parse(str_field(json, "dataset")?)?,
        protocol: ProtocolKind::parse(str_field(json, "protocol")?)?,
        attack: attack_from_json(field(json, "attack")?)?,
        epsilon: f64_field(json, "epsilon")?,
        beta: f64_field(json, "beta")?,
        eta: f64_field(json, "eta")?,
        shards: usize_field(json, "shards")?,
        epochs: usize_field(json, "epochs")?,
        users_per_epoch: usize_field(json, "users_per_epoch")?,
        seed,
        window: match json.get("window") {
            None => WindowMode::Cumulative,
            Some(_) => WindowMode::parse(str_field(json, "window")?)?,
        },
    };
    spec.validate()?;
    Ok(spec)
}

fn accumulator_to_json(acc: &CountAccumulator) -> Json {
    Json::Obj(vec![
        (
            "counts".into(),
            Json::Arr(acc.counts().iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
        ("reports".into(), Json::Num(acc.report_count() as f64)),
    ])
}

fn accumulator_from_json(json: &Json, len: usize) -> Result<CountAccumulator> {
    let counts = counts_field(json, "counts", len)?;
    let reports = usize_field(json, "reports")?;
    // Zero reports can only ever have accumulated zero support.
    if reports == 0 && counts.iter().any(|&c| c != 0) {
        return Err(LdpError::invalid(
            "checkpoint: accumulator has support counts but zero reports",
        ));
    }
    Ok(CountAccumulator::from_parts(counts, reports))
}

fn floats_field(json: &Json, key: &str, len: usize) -> Result<Vec<f64>> {
    let arr = field(json, key)?
        .as_array()
        .ok_or_else(|| LdpError::invalid(format!("checkpoint: '{key}' not an array")))?;
    if arr.len() != len {
        return Err(LdpError::invalid(format!(
            "checkpoint: '{key}' has {} entries, domain needs {len}",
            arr.len()
        )));
    }
    arr.iter()
        .map(|v| {
            let x = v.as_f64().ok_or_else(|| {
                LdpError::invalid(format!("checkpoint: '{key}' entry not a number"))
            })?;
            if !(x.is_finite() && x >= 0.0) {
                return Err(LdpError::invalid(format!(
                    "checkpoint: '{key}' entry {x} is not a non-negative mass"
                )));
            }
            Ok(x)
        })
        .collect()
}

fn nonneg_f64_field(json: &Json, key: &str) -> Result<f64> {
    let x = f64_field(json, key)?;
    if !(x.is_finite() && x >= 0.0) {
        return Err(LdpError::invalid(format!(
            "checkpoint: '{key}' = {x} is not a non-negative mass"
        )));
    }
    Ok(x)
}

fn epoch_aggregate_to_json(epoch: &EpochAggregate) -> Json {
    let counts = |v: &[u64]| Json::Arr(v.iter().map(|&c| Json::Num(c as f64)).collect());
    Json::Obj(vec![
        ("truth".into(), counts(&epoch.truth)),
        ("genuine_counts".into(), counts(&epoch.genuine_counts)),
        (
            "genuine_reports".into(),
            Json::Num(epoch.genuine_reports as f64),
        ),
        ("malicious_counts".into(), counts(&epoch.malicious_counts)),
        (
            "malicious_reports".into(),
            Json::Num(epoch.malicious_reports as f64),
        ),
    ])
}

fn epoch_aggregate_from_json(json: &Json, d: usize) -> Result<EpochAggregate> {
    Ok(EpochAggregate {
        truth: counts_field(json, "truth", d)?,
        genuine_counts: counts_field(json, "genuine_counts", d)?,
        genuine_reports: usize_field(json, "genuine_reports")?,
        malicious_counts: counts_field(json, "malicious_counts", d)?,
        malicious_reports: usize_field(json, "malicious_reports")?,
    })
}

/// Serializes the windowed state (`None` for cumulative mode, which
/// keeps no window state — and no checkpoint member).
fn window_state_to_json(state: &WindowState) -> Option<Json> {
    let floats = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    match state {
        WindowState::Cumulative => None,
        WindowState::Sliding { history } => Some(Json::Obj(vec![
            ("kind".into(), Json::Str("sliding".into())),
            (
                "epochs".into(),
                Json::Arr(history.iter().map(epoch_aggregate_to_json).collect()),
            ),
        ])),
        WindowState::Decay {
            truth,
            genuine_counts,
            genuine_reports,
            malicious_counts,
            malicious_reports,
        } => Some(Json::Obj(vec![
            ("kind".into(), Json::Str("decay".into())),
            ("truth".into(), floats(truth)),
            ("genuine_counts".into(), floats(genuine_counts)),
            ("genuine_reports".into(), Json::Num(*genuine_reports)),
            ("malicious_counts".into(), floats(malicious_counts)),
            ("malicious_reports".into(), Json::Num(*malicious_reports)),
        ])),
    }
}

fn window_state_from_json(
    json: Option<&Json>,
    mode: WindowMode,
    d: usize,
    next_epoch: usize,
) -> Result<WindowState> {
    match (mode, json) {
        (WindowMode::Cumulative, None) => Ok(WindowState::Cumulative),
        (WindowMode::Cumulative, Some(_)) => Err(LdpError::invalid(
            "checkpoint: window_state present but the spec is cumulative",
        )),
        (_, None) => Err(LdpError::invalid(format!(
            "checkpoint: spec window '{}' but no window_state",
            mode.name()
        ))),
        (WindowMode::Sliding(span), Some(json)) => {
            if str_field(json, "kind")? != "sliding" {
                return Err(LdpError::invalid(
                    "checkpoint: window_state kind disagrees with the spec window",
                ));
            }
            let epochs = field(json, "epochs")?
                .as_array()
                .ok_or_else(|| LdpError::invalid("checkpoint: 'epochs' not an array"))?;
            if epochs.len() > span.min(next_epoch) {
                return Err(LdpError::invalid(format!(
                    "checkpoint: sliding window holds {} epochs, at most {} possible",
                    epochs.len(),
                    span.min(next_epoch)
                )));
            }
            let history = epochs
                .iter()
                .map(|e| epoch_aggregate_from_json(e, d))
                .collect::<Result<_>>()?;
            Ok(WindowState::Sliding { history })
        }
        (WindowMode::Decay(_), Some(json)) => {
            if str_field(json, "kind")? != "decay" {
                return Err(LdpError::invalid(
                    "checkpoint: window_state kind disagrees with the spec window",
                ));
            }
            Ok(WindowState::Decay {
                truth: floats_field(json, "truth", d)?,
                genuine_counts: floats_field(json, "genuine_counts", d)?,
                genuine_reports: nonneg_f64_field(json, "genuine_reports")?,
                malicious_counts: floats_field(json, "malicious_counts", d)?,
                malicious_reports: nonneg_f64_field(json, "malicious_reports")?,
            })
        }
    }
}

/// Serializes one trajectory point — shared by the checkpoint and by
/// [`StreamEngine::report`] so the two emits can never drift apart.
pub(super) fn point_to_json(p: &EpochPoint) -> Json {
    Json::Obj(vec![
        ("epoch".into(), Json::Num(p.epoch as f64)),
        ("genuine_users".into(), Json::Num(p.genuine_users as f64)),
        (
            "malicious_users".into(),
            Json::Num(p.malicious_users as f64),
        ),
        ("reports_seen".into(), Json::Num(p.reports_seen as f64)),
        ("mse_before".into(), Json::Num(p.mse_before)),
        ("mse_recovered".into(), Json::Num(p.mse_recovered)),
        ("mse_genuine".into(), Json::Num(p.mse_genuine)),
    ])
}

impl StreamEngine {
    /// Serializes the full resumable state.
    pub fn to_checkpoint(&self) -> Json {
        let trajectory = self.trajectory.iter().map(point_to_json).collect();
        let mut members = vec![
            ("format".into(), Json::Str(FORMAT.into())),
            ("version".into(), Json::Num(VERSION)),
            ("spec".into(), spec_to_json(&self.spec)),
            ("next_epoch".into(), Json::Num(self.next_epoch as f64)),
            (
                "true_counts".into(),
                Json::Arr(
                    self.true_counts
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
            ("genuine".into(), accumulator_to_json(&self.genuine)),
            ("malicious".into(), accumulator_to_json(&self.malicious)),
            ("trajectory".into(), Json::Arr(trajectory)),
        ];
        if let Some(window_state) = window_state_to_json(&self.window) {
            members.push(("window_state".into(), window_state));
        }
        Json::Obj(members)
    }

    /// Restores an engine from a checkpoint, re-validating everything.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for wrong format tags, unsupported
    /// versions, malformed fields, shape mismatches, or inconsistent
    /// cross-field state.
    pub fn from_checkpoint(json: &Json) -> Result<StreamEngine> {
        if str_field(json, "format")? != FORMAT {
            return Err(LdpError::invalid(format!(
                "checkpoint: format tag is not '{FORMAT}'"
            )));
        }
        if f64_field(json, "version")? != VERSION {
            return Err(LdpError::invalid(format!(
                "checkpoint: unsupported version (expected {VERSION})"
            )));
        }
        let spec = spec_from_json(field(json, "spec")?)?;
        let d = spec.domain().size();
        let next_epoch = usize_field(json, "next_epoch")?;
        if next_epoch > spec.epochs {
            return Err(LdpError::invalid(format!(
                "checkpoint: next_epoch {next_epoch} beyond the {}-epoch horizon",
                spec.epochs
            )));
        }
        let true_counts = counts_field(json, "true_counts", d)?;
        let genuine = accumulator_from_json(field(json, "genuine")?, d)?;
        let malicious = accumulator_from_json(field(json, "malicious")?, d)?;

        let trajectory_json = field(json, "trajectory")?
            .as_array()
            .ok_or_else(|| LdpError::invalid("checkpoint: 'trajectory' not an array"))?;
        if trajectory_json.len() != next_epoch {
            return Err(LdpError::invalid(format!(
                "checkpoint: {} trajectory points for {next_epoch} ingested epochs",
                trajectory_json.len()
            )));
        }
        let trajectory: Vec<EpochPoint> = trajectory_json
            .iter()
            .map(|p| {
                Ok(EpochPoint {
                    epoch: usize_field(p, "epoch")?,
                    genuine_users: usize_field(p, "genuine_users")?,
                    malicious_users: usize_field(p, "malicious_users")?,
                    reports_seen: usize_field(p, "reports_seen")?,
                    mse_before: f64_field(p, "mse_before")?,
                    mse_recovered: f64_field(p, "mse_recovered")?,
                    mse_genuine: f64_field(p, "mse_genuine")?,
                })
            })
            .collect::<Result<_>>()?;

        // Cross-field invariants: every genuine report corresponds to one
        // population member, and the trajectory's tail matches the
        // accumulated state.
        if true_counts.iter().sum::<u64>() != genuine.report_count() as u64 {
            return Err(LdpError::invalid(
                "checkpoint: population total disagrees with genuine report count",
            ));
        }
        if let Some(last) = trajectory.last() {
            if last.epoch + 1 != next_epoch
                || last.genuine_users != genuine.report_count()
                || last.malicious_users != malicious.report_count()
            {
                return Err(LdpError::invalid(
                    "checkpoint: trajectory tail disagrees with accumulated state",
                ));
            }
        } else if genuine.report_count() != 0 || malicious.report_count() != 0 {
            return Err(LdpError::invalid(
                "checkpoint: reports accumulated but trajectory is empty",
            ));
        }

        let window = window_state_from_json(json.get("window_state"), spec.window, d, next_epoch)?;

        let protocol = spec.protocol.build(spec.epsilon, spec.domain())?;
        Ok(StreamEngine {
            spec,
            protocol,
            next_epoch,
            true_counts,
            genuine,
            malicious,
            window,
            trajectory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests_support::tiny_spec;

    #[test]
    fn attack_kinds_roundtrip() {
        for attack in [
            None,
            Some(AttackKind::Manip { h: 4 }),
            Some(AttackKind::Mga { r: 10 }),
            Some(AttackKind::MgaSampled { r: 3 }),
            Some(AttackKind::Adaptive),
            Some(AttackKind::AdaptiveCamouflaged),
            Some(AttackKind::MgaIpa { r: 7 }),
            Some(AttackKind::MultiAdaptive { attackers: 5 }),
        ] {
            let json = attack_to_json(attack);
            let reparsed = Json::parse(&json.render()).unwrap();
            assert_eq!(attack_from_json(&reparsed).unwrap(), attack, "{attack:?}");
        }
        assert!(
            attack_from_json(&Json::Obj(vec![("kind".into(), Json::Str("ddos".into()))])).is_err()
        );
        assert!(
            attack_from_json(&Json::Obj(vec![("kind".into(), Json::Str("mga".into()))])).is_err(),
            "mga without r"
        );
    }

    #[test]
    fn specs_roundtrip_including_full_width_seeds() {
        let mut spec = tiny_spec();
        spec.seed = u64::MAX - 12345; // beyond 2^53: must survive as a string
        let json = Json::parse(&spec_to_json(&spec).render()).unwrap();
        assert_eq!(spec_from_json(&json).unwrap(), spec);
    }

    #[test]
    fn fresh_and_mid_run_engines_roundtrip() {
        let spec = tiny_spec();
        for steps in [0usize, 1, 2] {
            let mut engine = StreamEngine::new(spec).unwrap();
            for _ in 0..steps {
                engine.step().unwrap();
            }
            let json = Json::parse(&engine.to_checkpoint().render()).unwrap();
            let restored = StreamEngine::from_checkpoint(&json).unwrap();
            assert_eq!(restored, engine, "after {steps} steps");
        }
    }

    #[test]
    fn cumulative_checkpoints_omit_window_members_for_compatibility() {
        // PR 4 checkpoints carried no window members; cumulative engines
        // must keep emitting that exact shape so old artifacts and new
        // ones stay interchangeable.
        let engine = StreamEngine::new(tiny_spec()).unwrap();
        let checkpoint = engine.to_checkpoint();
        assert!(checkpoint.get("window_state").is_none());
        assert!(
            spec_to_json(&tiny_spec()).get("window").is_none(),
            "cumulative specs omit the window member"
        );
        // And a windowed spec round-trips through its named member.
        let mut windowed = tiny_spec();
        windowed.window = WindowMode::Decay(0.75);
        let json = Json::parse(&spec_to_json(&windowed).render()).unwrap();
        assert_eq!(json.get("window"), Some(&Json::Str("decay:0.75".into())));
        assert_eq!(spec_from_json(&json).unwrap(), windowed);
    }

    #[test]
    fn windowed_engines_roundtrip_and_resume_bit_identically() {
        for window in [WindowMode::Sliding(1), WindowMode::Decay(0.625)] {
            let mut spec = tiny_spec();
            spec.window = window;
            // Run one epoch, checkpoint, restore, run the second epoch on
            // both; a resumed run must be indistinguishable.
            let mut engine = StreamEngine::new(spec).unwrap();
            engine.step().unwrap();
            let json = Json::parse(&engine.to_checkpoint().render()).unwrap();
            let mut restored = StreamEngine::from_checkpoint(&json).unwrap();
            assert_eq!(restored, engine, "{window:?} state roundtrips");
            engine.step().unwrap();
            restored.step().unwrap();
            assert_eq!(restored, engine, "{window:?} resume is bit-identical");
            assert_eq!(
                restored.report().unwrap().render(),
                engine.report().unwrap().render()
            );
        }
    }

    #[test]
    fn window_state_and_mode_must_agree_on_restore() {
        let mut sliding_spec = tiny_spec();
        sliding_spec.window = WindowMode::Sliding(2);
        let mut sliding = StreamEngine::new(sliding_spec).unwrap();
        sliding.step().unwrap();
        let windowed_json = Json::parse(&sliding.to_checkpoint().render()).unwrap();

        let mut cumulative = StreamEngine::new(tiny_spec()).unwrap();
        cumulative.step().unwrap();
        let cumulative_json = Json::parse(&cumulative.to_checkpoint().render()).unwrap();

        let transplant = |base: &Json, window_state: Option<&Json>, spec_window: Option<&str>| {
            let Json::Obj(members) = base else {
                unreachable!()
            };
            let mut members: Vec<(String, Json)> = members
                .iter()
                .filter(|(k, _)| k != "window_state")
                .cloned()
                .collect();
            if let Some(state) = window_state {
                members.push(("window_state".into(), state.clone()));
            }
            if let Some(mode) = spec_window {
                for (key, value) in &mut members {
                    if key == "spec" {
                        let Json::Obj(spec_members) = value else {
                            unreachable!()
                        };
                        spec_members.retain(|(k, _)| k != "window");
                        spec_members.push(("window".into(), Json::Str(mode.into())));
                    }
                }
            }
            Json::Obj(members)
        };

        // A windowed spec without its state is torn.
        assert!(
            StreamEngine::from_checkpoint(&transplant(&windowed_json, None, None)).is_err(),
            "sliding spec requires window_state"
        );
        // A cumulative spec carrying window state is just as corrupt.
        let state = windowed_json.get("window_state").unwrap();
        assert!(
            StreamEngine::from_checkpoint(&transplant(&cumulative_json, Some(state), None))
                .is_err(),
            "cumulative spec must not carry window_state"
        );
        // Sliding state under a decay spec is a kind mismatch.
        assert!(
            StreamEngine::from_checkpoint(&transplant(
                &windowed_json,
                Some(state),
                Some("decay:0.5")
            ))
            .is_err(),
            "window kind must match the spec's mode"
        );
    }

    #[test]
    fn restore_rejects_corrupted_checkpoints() {
        let mut engine = StreamEngine::new(tiny_spec()).unwrap();
        engine.step().unwrap();
        let good = engine.to_checkpoint();
        assert!(StreamEngine::from_checkpoint(&good).is_ok());

        type Members = Vec<(String, Json)>;
        let corrupt = |f: &dyn Fn(&mut Members)| {
            let Json::Obj(mut members) = good.clone() else {
                unreachable!()
            };
            f(&mut members);
            Json::Obj(members)
        };
        let set = |members: &mut Members, key: &str, value: Json| {
            members
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v = value)
                .expect("key present");
        };

        for (label, bad) in [
            (
                "wrong format tag",
                corrupt(&|m| set(m, "format", Json::Str("scenario-report".into()))),
            ),
            (
                "future version",
                corrupt(&|m| set(m, "version", Json::Num(99.0))),
            ),
            ("missing spec", corrupt(&|m| m.retain(|(k, _)| k != "spec"))),
            (
                "cursor beyond horizon",
                corrupt(&|m| set(m, "next_epoch", Json::Num(1e6))),
            ),
            (
                "fractional count",
                corrupt(&|m| set(m, "next_epoch", Json::Num(1.5))),
            ),
            (
                "truncated domain",
                corrupt(&|m| set(m, "true_counts", Json::Arr(vec![Json::Num(1.0)]))),
            ),
            (
                "trajectory length mismatch",
                corrupt(&|m| set(m, "trajectory", Json::Arr(vec![]))),
            ),
        ] {
            assert!(
                StreamEngine::from_checkpoint(&bad).is_err(),
                "accepted checkpoint with {label}"
            );
        }
        assert!(StreamEngine::from_checkpoint(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn phantom_state_without_trajectory_is_rejected() {
        // A fresh-looking checkpoint (next_epoch = 0, empty trajectory)
        // smuggling in accumulated reports or support counts must fail —
        // for the malicious accumulator just like the genuine one.
        let fresh = StreamEngine::new(tiny_spec()).unwrap().to_checkpoint();
        let d = tiny_spec().domain().size();
        for (label, key, value) in [
            (
                "phantom malicious reports",
                "malicious",
                Json::Obj(vec![
                    ("counts".into(), Json::Arr(vec![Json::Num(0.0); d])),
                    ("reports".into(), Json::Num(5.0)),
                ]),
            ),
            (
                "support counts with zero reports",
                "genuine",
                Json::Obj(vec![
                    (
                        "counts".into(),
                        Json::Arr(
                            std::iter::once(Json::Num(3.0))
                                .chain(vec![Json::Num(0.0); d - 1])
                                .collect(),
                        ),
                    ),
                    ("reports".into(), Json::Num(0.0)),
                ]),
            ),
        ] {
            let Json::Obj(mut members) = fresh.clone() else {
                unreachable!()
            };
            members
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v = value)
                .expect("key present");
            assert!(
                StreamEngine::from_checkpoint(&Json::Obj(members)).is_err(),
                "accepted checkpoint with {label}"
            );
        }
    }

    #[test]
    fn population_conservation_is_enforced() {
        let mut engine = StreamEngine::new(tiny_spec()).unwrap();
        engine.step().unwrap();
        let Json::Obj(mut members) = engine.to_checkpoint() else {
            unreachable!()
        };
        // Inflate one population cell without touching the report count.
        if let Some((_, Json::Arr(counts))) = members.iter_mut().find(|(k, _)| k == "true_counts") {
            counts[0] = Json::Num(counts[0].as_f64().unwrap() + 1.0);
        }
        assert!(StreamEngine::from_checkpoint(&Json::Obj(members)).is_err());
    }
}
