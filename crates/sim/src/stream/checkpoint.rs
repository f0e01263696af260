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
//! shapes, and cross-field invariants (epoch cursor vs trajectory; every
//! trajectory point `k` is epoch `k` with the users `k + 1` epochs of the
//! spec bring, and the last one matches the totals; every integer count
//! record — the totals and each retained sliding epoch — conserving its
//! population with no more support than reports; a sliding window of
//! exactly `min(span, next_epoch)` epochs, each gaining the trajectory's
//! users) are all validated, so a truncated or hand-edited checkpoint
//! fails loudly instead of resuming a corrupt stream. The trajectory's
//! MSEs are restored as written once checked finite and non-negative:
//! checking their values would mean recomputing them.

use ldp_attacks::AttackKind;
use ldp_common::float::exactly_zero;
use ldp_common::{Json, LdpError, Result};
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;

use super::window::{WindowMode, WindowState};
use super::{EpochPoint, ShardDelta, StreamEngine, StreamSpec, WindowAggregate};

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

/// Serializes an attack kind (`None` → `null`): its
/// [`AttackKind::name`] under `kind`, then its [`AttackKind::param`], if
/// any, under the parameter's key.
pub fn attack_to_json(attack: Option<AttackKind>) -> Json {
    let Some(attack) = attack else {
        return Json::Null;
    };
    let mut members = vec![("kind".to_string(), Json::Str(attack.name().to_string()))];
    if let Some((key, value)) = attack.param() {
        members.push((key.to_string(), Json::Num(value as f64)));
    }
    Json::Obj(members)
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
    match AttackKind::from_name(kind, |key| usize_field(json, key))? {
        None => Err(LdpError::invalid(format!(
            "checkpoint: unknown attack kind '{kind}'"
        ))),
        attack => Ok(attack),
    }
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

fn counts_json(counts: &[u64]) -> Json {
    Json::Arr(counts.iter().map(|&c| Json::Num(c as f64)).collect())
}

/// One side of the cumulative totals, in the accumulator shape older
/// checkpoints wrote: `{"counts": [...], "reports": n}`.
fn accumulator_to_json(counts: &[u64], reports: usize) -> Json {
    Json::Obj(vec![
        ("counts".into(), counts_json(counts)),
        ("reports".into(), Json::Num(reports as f64)),
    ])
}

fn accumulator_from_json(json: &Json, len: usize) -> Result<(Vec<u64>, usize)> {
    Ok((
        counts_field(json, "counts", len)?,
        usize_field(json, "reports")?,
    ))
}

/// The invariants of every integer count record: the population sums to
/// the genuine users, and no item has more support than its side has
/// reports (a report supports an item at most once, so zero reports
/// carry zero support).
fn check_count_record(record: &ShardDelta, what: &str) -> Result<()> {
    if record.population.iter().sum::<u64>() != record.genuine_users as u64 {
        return Err(LdpError::invalid(format!(
            "checkpoint: {what}: population total disagrees with genuine report count"
        )));
    }
    let exceeds = |counts: &[u64], reports: usize| counts.iter().any(|&c| c > reports as u64);
    if exceeds(&record.genuine_counts, record.genuine_users)
        || exceeds(&record.malicious_counts, record.malicious_users)
    {
        return Err(LdpError::invalid(format!(
            "checkpoint: {what}: an item has more support than reports"
        )));
    }
    Ok(())
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

/// A finite, non-negative number: a decayed report mass or an MSE.
fn nonneg_f64_field(json: &Json, key: &str) -> Result<f64> {
    let x = f64_field(json, key)?;
    if !(x.is_finite() && x >= 0.0) {
        return Err(LdpError::invalid(format!(
            "checkpoint: '{key}' = {x} is not finite and non-negative"
        )));
    }
    Ok(x)
}

/// One sliding-window epoch. The member names predate [`ShardDelta`]
/// (`truth` is its population, `*_reports` its user counts) and stay, so
/// checkpoints keep their bytes.
fn window_epoch_to_json(epoch: &ShardDelta) -> Json {
    Json::Obj(vec![
        ("truth".into(), counts_json(&epoch.population)),
        ("genuine_counts".into(), counts_json(&epoch.genuine_counts)),
        (
            "genuine_reports".into(),
            Json::Num(epoch.genuine_users as f64),
        ),
        (
            "malicious_counts".into(),
            counts_json(&epoch.malicious_counts),
        ),
        (
            "malicious_reports".into(),
            Json::Num(epoch.malicious_users as f64),
        ),
    ])
}

fn window_epoch_from_json(json: &Json, d: usize) -> Result<ShardDelta> {
    Ok(ShardDelta {
        population: counts_field(json, "truth", d)?,
        genuine_counts: counts_field(json, "genuine_counts", d)?,
        genuine_users: usize_field(json, "genuine_reports")?,
        malicious_counts: counts_field(json, "malicious_counts", d)?,
        malicious_users: usize_field(json, "malicious_reports")?,
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
                Json::Arr(history.iter().map(window_epoch_to_json).collect()),
            ),
        ])),
        WindowState::Decay(view) => Some(Json::Obj(vec![
            ("kind".into(), Json::Str("decay".into())),
            ("truth".into(), floats(&view.truth)),
            ("genuine_counts".into(), floats(&view.genuine_counts)),
            ("genuine_reports".into(), Json::Num(view.genuine_reports)),
            ("malicious_counts".into(), floats(&view.malicious_counts)),
            (
                "malicious_reports".into(),
                Json::Num(view.malicious_reports),
            ),
        ])),
    }
}

/// Parses the windowed state. `trajectory` is the restored trajectory
/// (one point per ingested epoch, already checked against `spec`), whose
/// per-epoch user increments each retained sliding epoch must match. A
/// decay window's report masses must be the ones the spec's users give
/// (see [`decay_masses`]), and no decayed count may exceed its mass.
fn window_state_from_json(
    json: Option<&Json>,
    spec: &StreamSpec,
    trajectory: &[EpochPoint],
) -> Result<WindowState> {
    let d = spec.domain().size();
    match (spec.window, json) {
        (WindowMode::Cumulative, None) => Ok(WindowState::Cumulative),
        (WindowMode::Cumulative, Some(_)) => Err(LdpError::invalid(
            "checkpoint: window_state present but the spec is cumulative",
        )),
        (mode, None) => Err(LdpError::invalid(format!(
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
            let held = span.min(trajectory.len());
            if epochs.len() != held {
                return Err(LdpError::invalid(format!(
                    "checkpoint: sliding window holds {} epochs, {held} expected",
                    epochs.len()
                )));
            }
            // Users before the first retained epoch; each retained epoch
            // must bring them to its trajectory point.
            let first = trajectory.len() - held;
            let users = |p: &EpochPoint| (p.genuine_users, p.malicious_users);
            let mut seen = first
                .checked_sub(1)
                .map_or((0, 0), |e| users(&trajectory[e]));
            let history = epochs
                .iter()
                .zip(&trajectory[first..])
                .map(|(json, point)| {
                    let delta = window_epoch_from_json(json, d)?;
                    let what = format!("sliding window epoch {}", point.epoch);
                    check_count_record(&delta, &what)?;
                    seen = (seen.0 + delta.genuine_users, seen.1 + delta.malicious_users);
                    if seen != users(point) {
                        return Err(LdpError::invalid(format!(
                            "checkpoint: {what}: users disagree with the trajectory"
                        )));
                    }
                    Ok(delta)
                })
                .collect::<Result<_>>()?;
            Ok(WindowState::Sliding { history })
        }
        (WindowMode::Decay(lambda), Some(json)) => {
            if str_field(json, "kind")? != "decay" {
                return Err(LdpError::invalid(
                    "checkpoint: window_state kind disagrees with the spec window",
                ));
            }
            let truth = floats_field(json, "truth", d)?;
            let genuine_counts = floats_field(json, "genuine_counts", d)?;
            let genuine_reports = nonneg_f64_field(json, "genuine_reports")?;
            let malicious_counts = floats_field(json, "malicious_counts", d)?;
            let malicious_reports = nonneg_f64_field(json, "malicious_reports")?;
            let (genuine, malicious) = decay_masses(spec, lambda, trajectory.len());
            if genuine_reports.to_bits() != genuine.to_bits()
                || malicious_reports.to_bits() != malicious.to_bits()
            {
                return Err(LdpError::invalid(format!(
                    "checkpoint: decay window masses disagree with the spec's users \
                     over {} epochs",
                    trajectory.len()
                )));
            }
            let within = |counts: &[f64], mass: f64| counts.iter().all(|&c| c <= mass);
            if !within(&truth, genuine)
                || !within(&genuine_counts, genuine)
                || !within(&malicious_counts, malicious)
            {
                return Err(LdpError::invalid(
                    "checkpoint: a decay window count exceeds its report mass",
                ));
            }
            Ok(WindowState::Decay(WindowAggregate {
                truth,
                genuine_counts,
                genuine_reports,
                malicious_counts,
                malicious_reports,
            }))
        }
    }
}

/// The genuine and malicious report masses of a decay window after
/// `epochs` epochs: [`WindowState::absorb`]'s recurrence `λ·S + users`
/// over the spec's per-epoch users, the values [`check_trajectory`]
/// checks. Each decayed count is a sum of the same form whose epoch terms
/// are at most the users, and `f64` rounding is monotone, so the engine's
/// own counts never exceed these masses.
fn decay_masses(spec: &StreamSpec, lambda: f64, epochs: usize) -> (f64, f64) {
    let (genuine, malicious) = epoch_users(spec);
    let (mut genuine_mass, mut malicious_mass) = (0.0f64, 0.0f64);
    for _ in 0..epochs {
        genuine_mass = lambda * genuine_mass + genuine as f64;
        malicious_mass = lambda * malicious_mass + malicious as f64;
    }
    (genuine_mass, malicious_mass)
}

/// The genuine and malicious users one epoch brings: the spec's
/// `users_per_epoch`, and every shard's [`StreamSpec::malicious_count`].
fn epoch_users(spec: &StreamSpec) -> (u128, u128) {
    // `shard_users` gives `rem` shards one user more than the other
    // `shards − rem`, so the epoch's malicious users are summed over the
    // two shard sizes (a hand-edited spec may claim 2⁵³ shards). u128
    // keeps every product exact.
    let (base, rem) = (
        spec.users_per_epoch / spec.shards,
        spec.users_per_epoch % spec.shards,
    );
    let malicious = rem as u128 * spec.malicious_count(base + 1) as u128
        + (spec.shards - rem) as u128 * spec.malicious_count(base) as u128;
    (spec.users_per_epoch as u128, malicious)
}

/// Checks that every trajectory point `k` is epoch `k` and carries the
/// users `k + 1` epochs bring — the spec's `users_per_epoch` genuine
/// users and every shard's [`StreamSpec::malicious_count`] — with
/// `reports_seen` their sum. Those are the per-epoch increments
/// [`super::shard_epoch_delta`] produces and
/// [`StreamEngine::apply_epoch_deltas`] admits.
fn check_trajectory(spec: &StreamSpec, trajectory: &[EpochPoint]) -> Result<()> {
    let (genuine, malicious) = epoch_users(spec);
    for (k, point) in trajectory.iter().enumerate() {
        let epochs = k as u128 + 1;
        let (g, m) = (point.genuine_users as u128, point.malicious_users as u128);
        if point.epoch != k
            || g != epochs * genuine
            || m != epochs * malicious
            || point.reports_seen as u128 != g + m
        {
            return Err(LdpError::invalid(format!(
                "checkpoint: trajectory point {k} disagrees with the spec's users \
                 through epoch {k}"
            )));
        }
    }
    Ok(())
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
            ("true_counts".into(), counts_json(&self.totals.population)),
            (
                "genuine".into(),
                accumulator_to_json(&self.totals.genuine_counts, self.totals.genuine_users),
            ),
            (
                "malicious".into(),
                accumulator_to_json(&self.totals.malicious_counts, self.totals.malicious_users),
            ),
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
        let population = counts_field(json, "true_counts", d)?;
        let (genuine_counts, genuine_users) = accumulator_from_json(field(json, "genuine")?, d)?;
        let (malicious_counts, malicious_users) =
            accumulator_from_json(field(json, "malicious")?, d)?;
        let totals = ShardDelta {
            population,
            genuine_counts,
            genuine_users,
            malicious_counts,
            malicious_users,
        };

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
                    // Checked here, not just by the parser, so an
                    // infinite or NaN MSE never resumes from any source.
                    mse_before: nonneg_f64_field(p, "mse_before")?,
                    mse_recovered: nonneg_f64_field(p, "mse_recovered")?,
                    mse_genuine: nonneg_f64_field(p, "mse_genuine")?,
                })
            })
            .collect::<Result<_>>()?;

        // Cross-field invariants: the cumulative counts are a consistent
        // count record, every trajectory point is one the spec produces,
        // and the trajectory's tail matches the counts.
        check_count_record(&totals, "cumulative state")?;
        check_trajectory(&spec, &trajectory)?;
        if let Some(last) = trajectory.last() {
            if last.genuine_users != totals.genuine_users
                || last.malicious_users != totals.malicious_users
            {
                return Err(LdpError::invalid(
                    "checkpoint: trajectory tail disagrees with accumulated state",
                ));
            }
        } else if totals.genuine_users != 0 || totals.malicious_users != 0 {
            return Err(LdpError::invalid(
                "checkpoint: reports accumulated but trajectory is empty",
            ));
        }

        let window = window_state_from_json(json.get("window_state"), &spec, &trajectory)?;

        let protocol = spec.protocol.build(spec.epsilon, spec.domain())?;
        Ok(StreamEngine {
            spec,
            protocol,
            next_epoch,
            totals,
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
            Some(AttackKind::SampledMga { r: 3 }),
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
        let with_attack = |attack| {
            spec_to_json(&StreamSpec {
                attack: Some(attack),
                ..tiny_spec()
            })
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
            (
                "zero attack targets",
                corrupt(&|m| set(m, "spec", with_attack(AttackKind::Mga { r: 0 }))),
            ),
            (
                "more attack targets than items",
                corrupt(&|m| set(m, "spec", with_attack(AttackKind::Manip { h: 1 << 20 }))),
            ),
            (
                "zero attackers",
                corrupt(&|m| {
                    let attack = AttackKind::MultiAdaptive { attackers: 0 };
                    set(m, "spec", with_attack(attack));
                }),
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
    fn restore_rejects_corrupted_sliding_windows() {
        // Each retained epoch is a count record like the cumulative
        // totals, and must have gained the users the trajectory gained;
        // the window holds exactly min(span, next_epoch) of them.
        let spec = StreamSpec {
            window: WindowMode::Sliding(2),
            epochs: 3,
            ..tiny_spec()
        };
        let mut engine = StreamEngine::new(spec).unwrap();
        engine.step().unwrap();
        engine.step().unwrap();
        assert!(StreamEngine::from_checkpoint(&engine.to_checkpoint()).is_ok());

        let corrupt = |edit: fn(&mut std::collections::VecDeque<ShardDelta>)| {
            let mut bad = engine.clone();
            let WindowState::Sliding { history } = &mut bad.window else {
                unreachable!()
            };
            edit(history);
            bad.to_checkpoint()
        };
        for (label, bad) in [
            (
                "a population beyond the genuine users",
                corrupt(|h| h[1].population[0] += 100_000),
            ),
            (
                "support counts with zero genuine reports",
                corrupt(|h| h[1].genuine_users = 0),
            ),
            (
                "more malicious support than malicious reports",
                corrupt(|h| h[1].malicious_counts.fill(1_000_000_000)),
            ),
            (
                "genuine users the trajectory never gained",
                corrupt(|h| {
                    h[1].population[0] += 5;
                    h[1].genuine_users += 5;
                }),
            ),
            (
                "a missing epoch",
                corrupt(|h| {
                    h.pop_front();
                }),
            ),
        ] {
            assert!(
                StreamEngine::from_checkpoint(&bad).is_err(),
                "accepted checkpoint with {label}"
            );
        }
    }

    #[test]
    fn restore_rejects_corrupted_decay_windows() {
        // A decay window's masses are λ·S + users over the spec's epochs,
        // bit for bit, and no decayed count exceeds its mass.
        let spec = StreamSpec {
            window: WindowMode::Decay(0.5),
            shards: 2,
            epochs: 4,
            users_per_epoch: 2000,
            ..tiny_spec()
        };
        let mut engine = StreamEngine::new(spec).unwrap();
        engine.step().unwrap();
        engine.step().unwrap();
        let WindowState::Decay(view) = &engine.window else {
            unreachable!()
        };
        // 2000 + 0.5·2000 genuine, 106 + 0.5·106 malicious.
        assert_eq!(
            (view.genuine_reports, view.malicious_reports),
            (3000.0, 159.0)
        );
        assert!(StreamEngine::from_checkpoint(&engine.to_checkpoint()).is_ok());

        let corrupt = |edit: fn(&mut WindowAggregate)| {
            let mut bad = engine.clone();
            let WindowState::Decay(view) = &mut bad.window else {
                unreachable!()
            };
            edit(view);
            bad.to_checkpoint()
        };
        for (label, bad) in [
            ("a genuine mass of 1", corrupt(|w| w.genuine_reports = 1.0)),
            (
                "one malicious report more",
                corrupt(|w| w.malicious_reports += 1.0),
            ),
            (
                "a genuine count above the genuine mass",
                corrupt(|w| w.genuine_counts[3] = w.genuine_reports + 1.0),
            ),
            (
                "a malicious count above the malicious mass",
                corrupt(|w| w.malicious_counts[0] = w.malicious_reports * 2.0),
            ),
        ] {
            let err = StreamEngine::from_checkpoint(&bad).unwrap_err();
            assert!(
                matches!(err, LdpError::InvalidParameter(_)),
                "{label}: {err}"
            );
        }
    }

    #[test]
    fn restore_rejects_trajectory_points_the_spec_cannot_produce() {
        // Every point k is epoch k with (k + 1) epochs' users: 2000
        // genuine and 2 × round(β/(1−β) · 1000) = 106 malicious per epoch
        // here, so point 0 reads 2000, 106 and 2106.
        let spec = StreamSpec {
            shards: 2,
            epochs: 4,
            users_per_epoch: 2000,
            ..tiny_spec()
        };
        let mut engine = StreamEngine::new(spec).unwrap();
        engine.step().unwrap();
        engine.step().unwrap();
        let point = engine.trajectory()[0];
        assert_eq!(
            (
                point.genuine_users,
                point.malicious_users,
                point.reports_seen
            ),
            (2000, 106, 2106)
        );
        assert!(StreamEngine::from_checkpoint(&engine.to_checkpoint()).is_ok());

        for (label, key, value) in [
            ("reports_seen 2106 -> 9999", "reports_seen", 9999.0),
            ("genuine_users 2000 -> 1234", "genuine_users", 1234.0),
            ("malicious_users 106 -> 107", "malicious_users", 107.0),
            ("epoch 0 -> 1", "epoch", 1.0),
        ] {
            let Json::Obj(mut members) = engine.to_checkpoint() else {
                unreachable!()
            };
            let Some((_, Json::Arr(points))) = members.iter_mut().find(|(k, _)| k == "trajectory")
            else {
                unreachable!()
            };
            let Json::Obj(point) = &mut points[0] else {
                unreachable!()
            };
            point
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v = Json::Num(value))
                .expect("key present");
            assert!(
                matches!(
                    StreamEngine::from_checkpoint(&Json::Obj(members)),
                    Err(LdpError::InvalidParameter(_))
                ),
                "accepted trajectory[0] with {label}"
            );
        }
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
    fn non_finite_trajectory_mses_are_rejected() {
        let mut engine = StreamEngine::new(tiny_spec()).unwrap();
        engine.step().unwrap();
        engine.step().unwrap();
        let good = engine.to_checkpoint();
        for key in ["mse_before", "mse_recovered", "mse_genuine"] {
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0] {
                let Json::Obj(mut members) = good.clone() else {
                    unreachable!()
                };
                if let Some((_, Json::Arr(points))) =
                    members.iter_mut().find(|(k, _)| k == "trajectory")
                {
                    let Json::Obj(point) = &mut points[0] else {
                        unreachable!()
                    };
                    point
                        .iter_mut()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| *v = Json::Num(bad))
                        .expect("key present");
                }
                assert!(
                    StreamEngine::from_checkpoint(&Json::Obj(members)).is_err(),
                    "accepted {key} = {bad}"
                );
            }
        }
        // The same edit made to the file: the literal no longer parses.
        let text = good.render();
        let at = text.find("\"mse_before\": ").expect("a trajectory point") + 14;
        let end = at + text[at..].find(',').expect("more members follow");
        let edited = format!("{}1e400{}", &text[..at], &text[end..]);
        assert!(Json::parse(&edited).is_err(), "1e400 parsed");
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
