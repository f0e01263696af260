//! Sharded streaming ingestion with epoch-based online recovery.
//!
//! The paper's server is a one-shot batch estimator: aggregate every
//! report, then recover once. A production aggregator under an ongoing
//! poisoning campaign wants recovered frequencies *as the stream
//! progresses*. This module turns the existing building blocks into that
//! system:
//!
//! * **Shards** — synthetic genuine + malicious report traffic is fanned
//!   across `N` shards. Each shard has its own RNG stream, derived per
//!   `(shard, epoch)` from the master seed
//!   ([`ldp_common::rng::derive_seed2`]), so shards are independent,
//!   individually re-runnable, and mergeable in any order.
//! * **Epoch deltas** — a shard never materializes reports for genuine
//!   traffic: it samples its epoch's population histogram
//!   ([`DatasetKind::generate_user_counts`]) and hands it to the offline
//!   pipeline's count-cell sampler ([`crate::pipeline::sample_count_cell`]),
//!   `O(d)` per epoch for all five protocols regardless of traffic volume;
//!   the same sampler folds the malicious half straight into the shard's
//!   malicious counts ([`ldp_attacks::Attack::craft_counts`]). The result
//!   is a [`ShardDelta`], the one integer count record of both engines.
//! * **Epoch boundaries** — after every epoch the shard deltas merge into
//!   one epoch delta, which folds into the engine's cumulative totals (a
//!   [`ShardDelta`] too) and its recovery window. The window's float view
//!   ([`WindowAggregate`]; the cumulative totals' in cumulative mode)
//!   goes through the offline pipeline's one count-to-estimate step
//!   (`finish_aggregation`), and the `recover` defense arm runs on the
//!   estimates through the pipeline's arm loop
//!   ([`crate::pipeline::apply_recoveries`]), producing a
//!   recovery-accuracy-vs-reports-seen trajectory. Any *count-only* arm
//!   set can be evaluated on the same state via
//!   [`StreamEngine::arm_snapshot`]: an arm's
//!   [`ArmKind::needs_reports`] decides its eligibility — streaming never
//!   materializes per-user reports, so [`check_count_only`] rejects
//!   report-consuming arms (detection, k-means) with a clear error rather
//!   than silently skipping them.
//! * **Checkpoints** — the whole engine state round-trips through the
//!   shared JSON value layer ([`ldp_common::json`], see
//!   [`checkpoint`](self)); because all randomness is derived per
//!   `(shard, epoch)`, no RNG state needs serializing and a suspended
//!   stream resumes **bit-identically**.
//!
//! Equivalence contracts (enforced by `tests/stream_equivalence.rs`):
//!
//! 1. A 1-shard single-epoch run consumes exactly the RNG call sequence of
//!    the offline batched pipeline (`run_aggregation` + recover) — both
//!    call the same count-cell sampler after the population sample — so
//!    its counts, estimates, and recovered frequencies are bit-identical
//!    to the one-shot path at the same derived seed.
//! 2. The merged final state of an `N`-shard run is bit-identical to
//!    re-running each of its shard/epoch cells standalone
//!    ([`shard_epoch_delta`]) and merging the deltas in any grouping —
//!    sharding is pure parallelization of a fixed randomness layout.
//! 3. Relative to a 1-shard run over the same traffic volume, an
//!    `N`-shard run re-rolls the sampling noise (different derived
//!    streams) but draws from the same distribution: estimates agree
//!    statistically, never bitwise.

pub mod checkpoint;
pub mod window;

pub use crate::pipeline::{ShardDelta, WindowAggregate};
pub use window::{WindowMode, WindowState};

use ldp_attacks::AttackKind;
use ldp_common::rng::{derive_seed2, rng_from_seed};
use ldp_common::{Domain, Json, LdpError, Result};
use ldp_datasets::DatasetKind;
use ldp_protocols::{AnyProtocol, ProtocolKind};
use ldprecover::{ArmKind, ArmSet};

use crate::config::{cell_label, check_cell, malicious_users, ExperimentConfig, PipelineOptions};
use crate::metrics::mse;
use crate::pipeline::{
    apply_recoveries, finish_aggregation, sample_count_cell, TrialArena, TrialResult,
};
use crate::runner::{map_trials, thread_count};

/// Domain-separation salt for the (inert) RNG stream handed to snapshot
/// arms — count-only arms never draw (`declared_inputs_match_what_run_uses`
/// in `ldprecover::arm` pins this), but [`ldprecover::Arm::run`] takes
/// one, and a derived stream keeps any future rng-consuming count-only
/// arm deterministic per `(seed, epoch)`.
const ARM_SNAPSHOT_SALT: u64 = 0xA4A5_AA77;

/// Declarative description of one streaming-ingestion run.
///
/// The population model matches the offline pipeline cell for cell: every
/// epoch, `users_per_epoch` genuine users (split as evenly as possible
/// across the shards) draw items from the dataset's distribution and run
/// the protocol, while each shard's attacker contributes
/// `round(β/(1−β) · genuine)` crafted reports — a sustained campaign at a
/// constant malicious fraction. The attack's randomized state (targets,
/// designed distributions) is re-instantiated per `(shard, epoch)` from
/// that cell's derived stream, mirroring how the offline harness
/// re-randomizes attacks across trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Which evaluation workload generates the genuine traffic.
    pub dataset: DatasetKind,
    /// Which LDP protocol the users run.
    pub protocol: ProtocolKind,
    /// Privacy budget ε.
    pub epsilon: f64,
    /// The ongoing poisoning campaign, or `None` for clean traffic.
    pub attack: Option<AttackKind>,
    /// Malicious fraction β = m/(n+m), applied per shard per epoch.
    pub beta: f64,
    /// The recovery method's assumed ratio η = m/n.
    pub eta: f64,
    /// Number of ingestion shards.
    pub shards: usize,
    /// Planned stream length in epochs.
    pub epochs: usize,
    /// Genuine users arriving per epoch (across all shards).
    pub users_per_epoch: usize,
    /// Master seed; every `(shard, epoch)` cell derives its own stream.
    pub seed: u64,
    /// Which state the epoch-boundary recovery reads (see [`window`]).
    pub window: WindowMode,
}

impl StreamSpec {
    /// Builds a spec from an offline [`ExperimentConfig`], keeping the
    /// protocol/attack/parameter cell identical — the bridge the
    /// differential tests use to compare online against offline runs.
    pub fn from_experiment(
        config: &ExperimentConfig,
        shards: usize,
        epochs: usize,
        users_per_epoch: usize,
    ) -> Self {
        Self {
            dataset: config.dataset,
            protocol: config.protocol,
            epsilon: config.epsilon,
            attack: config.attack,
            beta: config.beta,
            eta: config.eta,
            shards,
            epochs,
            users_per_epoch,
            seed: config.seed,
            window: WindowMode::Cumulative,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for zero shards or epochs, an epoch
    /// too small to give every shard a user, a malformed window, out-of-range
    /// ε/β/η, β > 0 without an attack, attack parameters the dataset's
    /// domain cannot hold (see [`AttackKind::validate`]), or an attacked
    /// stream whose smallest shard (`users_per_epoch / shards` users per
    /// epoch) is too small for β to give it a malicious user
    /// ([`ldp_common::population::check_poisoned`]).
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(LdpError::invalid("shards must be ≥ 1"));
        }
        if self.epochs == 0 {
            return Err(LdpError::invalid("epochs must be ≥ 1"));
        }
        if self.users_per_epoch < self.shards {
            return Err(LdpError::invalid(format!(
                "users_per_epoch ({}) must cover every shard ({})",
                self.users_per_epoch, self.shards
            )));
        }
        self.window.validate()?;
        check_cell(
            self.dataset,
            self.epsilon,
            self.attack,
            self.beta,
            self.eta,
            self.users_per_epoch / self.shards,
            &format!(
                "the smallest shard ({} users per epoch over {} shards)",
                self.users_per_epoch, self.shards
            ),
        )
    }

    /// Genuine users shard `shard` ingests per epoch: an even split of
    /// [`StreamSpec::users_per_epoch`], remainder to the lowest shards.
    pub fn shard_users(&self, shard: usize) -> usize {
        debug_assert!(shard < self.shards);
        self.users_per_epoch / self.shards + usize::from(shard < self.users_per_epoch % self.shards)
    }

    /// Malicious reports accompanying `genuine` genuine users:
    /// `m = round(β/(1−β) · genuine)` (so that β = m/(n+m)), via the
    /// canonical [`ldp_common::population::malicious_count`]. Zero
    /// without an attack — β alone does not poison.
    ///
    /// The engine rounds `m` per shard, so small shards drift from β: 40
    /// shards of 10 users at β = 0.05 get one malicious user each, a
    /// realized 40/440 = 9.1%. [`StreamSpec::validate`] rejects shards so
    /// small that `m` rounds to 0.
    pub fn malicious_count(&self, genuine: usize) -> usize {
        malicious_users(self.attack, self.beta, genuine)
    }

    /// The stream's cell label, as [`ExperimentConfig::label`] names the
    /// offline cell: e.g. `"MGA-GRR"` or `"unpoisoned-GRR"`.
    pub fn label(&self) -> String {
        cell_label(self.attack, self.protocol)
    }

    /// The item domain of the spec's workload.
    pub fn domain(&self) -> Domain {
        self.dataset.domain()
    }
}

/// Checks that every arm in `arms` runs on counts alone, the only state
/// the streaming engine keeps. The CLI calls this while parsing, so an
/// ineligible `--arms` fails before the first epoch.
///
/// # Errors
/// [`LdpError::InvalidParameter`] naming the first report-consuming arm
/// and listing the count-only ones.
pub fn check_count_only(arms: &ArmSet) -> Result<()> {
    match arms.kinds().iter().find(|k| k.needs_reports()) {
        None => Ok(()),
        Some(kind) => Err(LdpError::invalid(format!(
            "arm '{kind}' consumes per-user reports; the streaming engine \
             aggregates counts only (count-only arms: {})",
            ArmKind::ALL
                .into_iter()
                .filter(|k| !k.needs_reports())
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", ")
        ))),
    }
}

/// Computes the delta of one `(shard, epoch)` cell from its derived RNG
/// stream — the unit of randomness of the whole engine.
///
/// After the population histogram, every draw goes through
/// [`sample_count_cell`], the function the offline batched aggregation
/// path (`ldp_sim::pipeline::run_aggregation` in `Batched` mode) calls
/// too. That is what makes a 1-shard single-epoch stream bit-identical to
/// the one-shot pipeline.
///
/// # Errors
/// Propagates spec validation, dataset generation, and protocol
/// construction failures.
pub fn shard_epoch_delta(spec: &StreamSpec, shard: usize, epoch: usize) -> Result<ShardDelta> {
    if shard >= spec.shards {
        return Err(LdpError::invalid(format!(
            "shard {shard} out of range (spec has {})",
            spec.shards
        )));
    }
    let mut rng = rng_from_seed(derive_seed2(spec.seed, shard as u64, epoch as u64));
    let users = spec.shard_users(shard);
    let population = spec.dataset.generate_user_counts(users, &mut rng)?;
    let protocol = spec.protocol.build(spec.epsilon, population.domain())?;
    let (delta, _targets) = sample_count_cell(
        &protocol,
        &population,
        spec.attack,
        spec.malicious_count(users),
        &mut rng,
        &mut TrialArena::new(),
    );
    Ok(delta)
}

/// One point of the recovery-accuracy-vs-reports-seen trajectory,
/// captured at an epoch boundary over the *cumulative* merged state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochPoint {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Cumulative genuine users ingested.
    pub genuine_users: usize,
    /// Cumulative malicious reports ingested.
    pub malicious_users: usize,
    /// Cumulative reports seen (genuine + malicious).
    pub reports_seen: usize,
    /// MSE of the poisoned estimate vs the realized truth so far.
    pub mse_before: f64,
    /// MSE of the recovered estimate vs the realized truth so far.
    pub mse_recovered: f64,
    /// MSE of the genuine-only estimate (the LDP noise floor online).
    pub mse_genuine: f64,
}

/// Full frequency vectors of the engine's current merged state, computed
/// on demand (they are a pure function of the accumulated counts, so they
/// are never stored or checkpointed).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySnapshot {
    /// Realized ground-truth frequencies of the ingested population.
    pub truth: Vec<f64>,
    /// Genuine-only debiased estimate.
    pub genuine_estimate: Vec<f64>,
    /// Poisoned (genuine + malicious) debiased estimate.
    pub poisoned_estimate: Vec<f64>,
    /// LDPRecover output on the poisoned estimate.
    pub recovered: Vec<f64>,
}

/// The sharded streaming ingestion engine.
///
/// Holds the cumulative merged counts (one [`ShardDelta`]: population
/// truth, genuine and malicious support counts and users), the recovery
/// window, and the epoch trajectory. [`StreamEngine::step`]
/// ingests one epoch: shard deltas are computed in parallel (each from its
/// own derived stream), folded in shard order, and recovery runs on the
/// merged counts. Results are bit-identical for any worker count, and —
/// via [`checkpoint`](self) — across suspend/resume boundaries.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    spec: StreamSpec,
    protocol: AnyProtocol,
    next_epoch: usize,
    totals: ShardDelta,
    window: WindowState,
    trajectory: Vec<EpochPoint>,
}

impl PartialEq for StreamEngine {
    /// State equality. The protocol instance is excluded: it is rebuilt
    /// deterministically from `(spec.protocol, spec.epsilon, domain)`, so
    /// it carries no information beyond the spec.
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.next_epoch == other.next_epoch
            && self.totals == other.totals
            && self.window == other.window
            && self.trajectory == other.trajectory
    }
}

impl StreamEngine {
    /// Creates an engine at epoch 0 (nothing ingested yet).
    ///
    /// # Errors
    /// Propagates spec validation and protocol construction.
    pub fn new(spec: StreamSpec) -> Result<Self> {
        spec.validate()?;
        let domain = spec.domain();
        let protocol = spec.protocol.build(spec.epsilon, domain)?;
        Ok(Self {
            spec,
            protocol,
            next_epoch: 0,
            totals: ShardDelta::empty(domain),
            window: WindowState::new(spec.window, domain),
            trajectory: Vec::new(),
        })
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// Epochs ingested so far.
    pub fn epochs_done(&self) -> usize {
        self.next_epoch
    }

    /// Whether the planned stream length has been reached.
    pub fn is_complete(&self) -> bool {
        self.next_epoch >= self.spec.epochs
    }

    /// The cumulative counts: the realized population histogram (ground
    /// truth), the genuine and malicious support counts, and the users
    /// behind each.
    pub fn totals(&self) -> &ShardDelta {
        &self.totals
    }

    /// The trajectory captured so far, one point per ingested epoch.
    pub fn trajectory(&self) -> &[EpochPoint] {
        &self.trajectory
    }

    /// Ingests one epoch: shard deltas in parallel, deterministic fold,
    /// recovery at the boundary. Returns the new trajectory point.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when the stream is already complete;
    /// otherwise propagates delta computation and recovery failures.
    pub fn step(&mut self) -> Result<EpochPoint> {
        if self.is_complete() {
            return Err(LdpError::invalid(format!(
                "stream is complete ({} epochs)",
                self.spec.epochs
            )));
        }
        let epoch = self.next_epoch;
        let spec = self.spec;
        let deltas = map_trials(spec.shards, thread_count(spec.shards), |shard| {
            shard_epoch_delta(&spec, shard, epoch)
        })?;
        let tagged: Vec<(usize, ShardDelta)> = deltas.into_iter().enumerate().collect();
        self.apply_epoch_deltas(epoch, &tagged)
    }

    /// Folds one complete epoch of shard deltas, in any order, into the
    /// engine and runs boundary recovery — the merge half of
    /// [`Self::step`]. Because the fold is exact element-wise `u64`
    /// addition ([`ShardDelta::merge`]), any delta order produces
    /// bit-identical state.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when the stream is complete,
    /// `epoch` is not the next epoch, `deltas` is not exactly one delta
    /// per shard, or a delta's vectors or users are not the ones its shard
    /// produces ([`StreamSpec::shard_users`] genuine users and their
    /// [`StreamSpec::malicious_count`]); otherwise propagates recovery
    /// failures.
    pub fn apply_epoch_deltas(
        &mut self,
        epoch: usize,
        deltas: &[(usize, ShardDelta)],
    ) -> Result<EpochPoint> {
        if self.is_complete() {
            return Err(LdpError::invalid(format!(
                "stream is complete ({} epochs)",
                self.spec.epochs
            )));
        }
        if epoch != self.next_epoch {
            return Err(LdpError::invalid(format!(
                "epoch {epoch} out of order (engine expects {})",
                self.next_epoch
            )));
        }
        let domain = self.spec.domain();
        let domain_size = domain.size();
        let mut seen = vec![false; self.spec.shards];
        for (shard, delta) in deltas {
            if *shard >= self.spec.shards || seen[*shard] {
                return Err(LdpError::invalid(format!(
                    "epoch {epoch}: shard {shard} is out of range or duplicated"
                )));
            }
            if delta.population.len() != domain_size
                || delta.genuine_counts.len() != domain_size
                || delta.malicious_counts.len() != domain_size
            {
                return Err(LdpError::invalid(format!(
                    "epoch {epoch}: shard {shard} delta does not match domain size {domain_size}"
                )));
            }
            let users = self.spec.shard_users(*shard);
            let malicious = self.spec.malicious_count(users);
            if (delta.genuine_users, delta.malicious_users) != (users, malicious) {
                return Err(LdpError::invalid(format!(
                    "epoch {epoch}: shard {shard} delta has {} genuine and {} malicious \
                     users, the spec gives it {users} and {malicious}",
                    delta.genuine_users, delta.malicious_users
                )));
            }
            seen[*shard] = true;
        }
        if deltas.len() != self.spec.shards {
            return Err(LdpError::invalid(format!(
                "epoch {epoch}: got {} deltas for {} shards",
                deltas.len(),
                self.spec.shards
            )));
        }

        let mut merged = ShardDelta::empty(domain);
        for (_, delta) in deltas {
            merged.merge(delta);
        }
        self.totals.merge(&merged);
        self.window.absorb(self.spec.window, merged)?;
        self.next_epoch += 1;

        let snapshot = self.recovery_snapshot()?;
        let point = EpochPoint {
            epoch,
            genuine_users: self.totals.genuine_users,
            malicious_users: self.totals.malicious_users,
            reports_seen: self.totals.genuine_users + self.totals.malicious_users,
            mse_before: mse(&snapshot.poisoned_estimate, &snapshot.truth),
            mse_recovered: mse(&snapshot.recovered, &snapshot.truth),
            mse_genuine: mse(&snapshot.genuine_estimate, &snapshot.truth),
        };
        self.trajectory.push(point);
        Ok(point)
    }

    /// Runs every remaining epoch.
    ///
    /// # Errors
    /// Propagates the first failing [`StreamEngine::step`].
    pub fn run_to_completion(&mut self) -> Result<()> {
        while !self.is_complete() {
            self.step()?;
        }
        Ok(())
    }

    /// Debiases and recovers the current state (on demand; pure in the
    /// accumulated counts): [`StreamEngine::arm_snapshot`] with the
    /// `recover` arm alone. In a windowed mode ([`WindowMode::Sliding`] /
    /// [`WindowMode::Decay`]) every vector is computed over the windowed
    /// state instead of the cumulative one; the debias map is linear in
    /// `(count, reports)`, so the float-count path is the exact windowed
    /// estimator.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] before the first epoch; otherwise
    /// propagates estimation / recovery failures.
    pub fn recovery_snapshot(&self) -> Result<RecoverySnapshot> {
        let TrialResult {
            true_freqs,
            genuine,
            poisoned,
            mut arms,
            ..
        } = self.arm_snapshot(&ArmSet::new([ArmKind::Recover]))?;
        let (_, recovered) = arms
            .pop()
            .ok_or_else(|| LdpError::invalid("the recover arm cannot degenerate"))?;
        Ok(RecoverySnapshot {
            truth: true_freqs,
            genuine_estimate: genuine,
            poisoned_estimate: poisoned,
            recovered: recovered.frequencies,
        })
    }

    /// The engine's windowed state (cumulative mode keeps none) — read
    /// by the checkpoint layer.
    pub fn window_state(&self) -> &WindowState {
        &self.window
    }

    /// Runs an arbitrary *count-only* arm set on the current state — the
    /// streaming face of the defense-arm registry. The state is the
    /// window's float view (the cumulative counts' in cumulative mode),
    /// debiased by the offline pipeline's count-to-estimate step, with
    /// the cumulative users. Eligibility is decided by each arm's
    /// declared inputs: streaming never materializes per-user reports, so
    /// a set containing a report-consuming arm (detection, k-means) is
    /// rejected up front. Partial-knowledge arms get targets identified
    /// online via the paper's top-k-increase rule (the stream never knows
    /// the attack's targets), with the genuine-only estimate standing in
    /// for historical data; arms that degenerate (e.g. the star arm on a
    /// clean stream) are skipped.
    ///
    /// Returns the whole run, so the arms are scored against the truth
    /// they ran on ([`TrialResult::true_freqs`], the window's in a
    /// windowed mode). Pure in the accumulated counts, so resumed and
    /// uninterrupted runs produce identical snapshots.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for report-consuming arms (see
    /// [`check_count_only`]); [`LdpError::EmptyInput`] before the first
    /// epoch; otherwise propagates arm failures.
    pub fn arm_snapshot(&self, arms: &ArmSet) -> Result<TrialResult> {
        check_count_only(arms)?;
        let view = self
            .window
            .aggregate(self.spec.domain())
            .unwrap_or_else(|| WindowAggregate::from_counts(&self.totals));
        let aggregates = finish_aggregation(
            self.protocol,
            &view,
            self.totals.genuine_users,
            self.totals.malicious_users,
            None,
        )?;
        let mut rng = rng_from_seed(derive_seed2(
            self.spec.seed,
            ARM_SNAPSHOT_SALT,
            self.next_epoch as u64,
        ));
        apply_recoveries(
            &aggregates,
            self.spec.eta,
            &PipelineOptions::with_arms(arms.clone()),
            &mut rng,
        )
    }

    /// The run's JSON report: spec, trajectory, and the final recovery
    /// snapshot (`null` before the first epoch). A pure function of the
    /// engine state, so an uninterrupted run and a suspend/resume run emit
    /// byte-identical reports.
    ///
    /// # Errors
    /// Propagates [`StreamEngine::recovery_snapshot`] once epochs exist.
    pub fn report(&self) -> Result<Json> {
        // Before the first epoch there is no estimate to snapshot; the
        // report stays total (the CLI may emit it for a 0-epoch run) with
        // an explicit `null` final block.
        let final_block = if self.next_epoch == 0 {
            Json::Null
        } else {
            let snapshot = self.recovery_snapshot()?;
            let floats = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
            Json::Obj(vec![
                (
                    "reports_seen".into(),
                    Json::Num((self.totals.genuine_users + self.totals.malicious_users) as f64),
                ),
                ("recovered".into(), floats(&snapshot.recovered)),
                (
                    "poisoned_estimate".into(),
                    floats(&snapshot.poisoned_estimate),
                ),
            ])
        };
        let trajectory = self
            .trajectory
            .iter()
            .map(checkpoint::point_to_json)
            .collect();
        Ok(Json::Obj(vec![
            ("stream".into(), checkpoint::spec_to_json(&self.spec)),
            ("epochs_done".into(), Json::Num(self.next_epoch as f64)),
            ("trajectory".into(), Json::Arr(trajectory)),
            ("final".into(), final_block),
        ]))
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// A fast-but-alive spec shared by the stream unit tests.
    pub(crate) fn tiny_spec() -> StreamSpec {
        StreamSpec {
            dataset: DatasetKind::Ipums,
            protocol: ProtocolKind::Grr,
            epsilon: 0.5,
            attack: Some(AttackKind::Adaptive),
            beta: 0.05,
            eta: 0.2,
            shards: 3,
            epochs: 2,
            users_per_epoch: 400,
            seed: 0xFEED,
            window: WindowMode::Cumulative,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::tiny_spec;
    use super::*;

    #[test]
    fn validation_rejects_malformed_specs() {
        assert!(tiny_spec().validate().is_ok());
        for mutate in [
            |s: &mut StreamSpec| s.epsilon = 0.0,
            |s: &mut StreamSpec| s.beta = 1.0,
            |s: &mut StreamSpec| s.eta = -0.1,
            |s: &mut StreamSpec| s.shards = 0,
            |s: &mut StreamSpec| s.epochs = 0,
            |s: &mut StreamSpec| s.users_per_epoch = 2, // < shards
            |s: &mut StreamSpec| s.users_per_epoch = 29, // 9 per shard: m = 0
            |s: &mut StreamSpec| s.attack = None,       // beta stays 0.05
            |s: &mut StreamSpec| s.attack = Some(AttackKind::Mga { r: 0 }),
            |s: &mut StreamSpec| s.attack = Some(AttackKind::Manip { h: 0 }),
            |s: &mut StreamSpec| s.attack = Some(AttackKind::MultiAdaptive { attackers: 0 }),
            |s: &mut StreamSpec| {
                s.dataset = DatasetKind::Fire;
                s.attack = Some(AttackKind::MgaIpa { r: 491 }); // d = 490
            },
        ] {
            let mut s = tiny_spec();
            mutate(&mut s);
            assert!(s.validate().is_err(), "{s:?}");
        }
        let mut smallest = tiny_spec();
        smallest.users_per_epoch = 30; // 10 per shard: m = 1
        assert!(smallest.validate().is_ok());
        let mut clean = tiny_spec();
        clean.attack = None;
        clean.beta = 0.0;
        assert!(clean.validate().is_ok());
        clean.users_per_epoch = 3;
        assert!(clean.validate().is_ok());
    }

    #[test]
    fn shard_split_covers_every_user_exactly_once() {
        for (users, shards) in [(400, 3), (7, 7), (100, 1), (11, 4)] {
            let mut spec = tiny_spec();
            spec.users_per_epoch = users;
            spec.shards = shards;
            let total: usize = (0..shards).map(|s| spec.shard_users(s)).sum();
            assert_eq!(total, users, "{users} users over {shards} shards");
            let min = (0..shards).map(|s| spec.shard_users(s)).min().unwrap();
            let max = (0..shards).map(|s| spec.shard_users(s)).max().unwrap();
            assert!(max - min <= 1, "split must be even");
            assert!(min >= 1, "every shard ingests at least one user");
        }
    }

    #[test]
    fn deltas_are_deterministic_and_distinct_across_the_grid() {
        let spec = tiny_spec();
        let a = shard_epoch_delta(&spec, 1, 0).unwrap();
        let b = shard_epoch_delta(&spec, 1, 0).unwrap();
        assert_eq!(a, b, "same cell, same delta");
        let other_shard = shard_epoch_delta(&spec, 2, 0).unwrap();
        let other_epoch = shard_epoch_delta(&spec, 1, 1).unwrap();
        assert_ne!(a.genuine_counts, other_shard.genuine_counts);
        assert_ne!(a.genuine_counts, other_epoch.genuine_counts);
        assert!(shard_epoch_delta(&spec, 99, 0).is_err(), "shard bounds");
    }

    #[test]
    fn engine_runs_and_tracks_the_trajectory() {
        let spec = tiny_spec();
        let mut engine = StreamEngine::new(spec).unwrap();
        assert!(engine.recovery_snapshot().is_err(), "nothing ingested yet");
        let empty_report = engine.report().unwrap();
        assert_eq!(
            empty_report.get("final"),
            Some(&ldp_common::Json::Null),
            "0-epoch report carries an explicit null final block"
        );
        let p0 = engine.step().unwrap();
        assert_eq!(p0.epoch, 0);
        assert_eq!(p0.genuine_users, 400);
        assert!(p0.malicious_users > 0);
        assert_eq!(p0.reports_seen, p0.genuine_users + p0.malicious_users);
        let p1 = engine.step().unwrap();
        assert_eq!(p1.genuine_users, 800);
        assert!(engine.is_complete());
        assert!(engine.step().is_err(), "stream horizon reached");
        assert_eq!(engine.trajectory().len(), 2);
        // Cumulative state is consistent.
        let totals = engine.totals();
        assert_eq!(
            totals.population.iter().sum::<u64>(),
            totals.genuine_users as u64
        );
        let snapshot = engine.recovery_snapshot().unwrap();
        assert_eq!(snapshot.recovered.len(), spec.domain().size());
        assert!(ldp_common::vecmath::is_probability_vector(
            &snapshot.recovered,
            1e-9
        ));
    }

    #[test]
    fn online_recovery_beats_the_poisoned_estimate() {
        // The headline claim, online: by the final epoch the recovered
        // trajectory sits below the poisoned one.
        let mut spec = tiny_spec();
        spec.users_per_epoch = 1500;
        spec.epochs = 3;
        let mut engine = StreamEngine::new(spec).unwrap();
        engine.run_to_completion().unwrap();
        let last = engine.trajectory().last().unwrap();
        assert!(
            last.mse_recovered < last.mse_before,
            "recovered {} vs poisoned {}",
            last.mse_recovered,
            last.mse_before
        );
    }

    #[test]
    fn clean_streams_carry_no_malicious_state() {
        let mut spec = tiny_spec();
        spec.attack = None;
        spec.beta = 0.0;
        spec.epochs = 1;
        let mut engine = StreamEngine::new(spec).unwrap();
        engine.step().unwrap();
        assert_eq!(engine.totals().malicious_users, 0);
        assert!(engine.totals().malicious_counts.iter().all(|&c| c == 0));
        let snapshot = engine.recovery_snapshot().unwrap();
        assert_eq!(snapshot.genuine_estimate, snapshot.poisoned_estimate);
    }

    #[test]
    fn arm_snapshot_runs_count_only_arms_and_rejects_report_arms() {
        use ldprecover::ArmKind;
        let mut engine = StreamEngine::new(tiny_spec()).unwrap();
        assert!(
            engine.arm_snapshot(&ArmSet::default()).is_err(),
            "nothing ingested yet"
        );
        engine.run_to_completion().unwrap();

        // The recover arm through the snapshot API is bit-identical to the
        // trajectory's recovery path.
        let outputs = engine
            .arm_snapshot(&ArmSet::parse("recover,recover-star,norm-sub,base-cut").unwrap())
            .unwrap()
            .arms;
        let keys: Vec<&str> = outputs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["recover", "star", "norm_sub", "base_cut"]);
        let snapshot = engine.recovery_snapshot().unwrap();
        assert_eq!(outputs[0].1.frequencies, snapshot.recovered);
        for (key, output) in &outputs {
            assert!(
                ldp_common::vecmath::is_probability_vector(&output.frequencies, 1e-9),
                "{key}"
            );
        }

        // Report-consuming arms are ineligible by declared requirement.
        for arms in ["detection", "kmeans", "recover-km"] {
            let err = engine
                .arm_snapshot(&ArmSet::parse(arms).unwrap())
                .unwrap_err()
                .to_string();
            assert!(err.contains("counts only"), "{arms}: {err}");
        }

        // A clean stream degenerates (skips) the star arm instead of failing.
        let mut clean_spec = tiny_spec();
        clean_spec.attack = None;
        clean_spec.beta = 0.0;
        let mut clean = StreamEngine::new(clean_spec).unwrap();
        clean.run_to_completion().unwrap();
        let outputs = clean
            .arm_snapshot(&ArmSet::new([ArmKind::Recover, ArmKind::RecoverStar]))
            .unwrap()
            .arms;
        let keys: Vec<&str> = outputs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["recover"], "star skipped on a clean stream");
    }

    #[test]
    fn arm_snapshots_carry_the_truth_the_trajectory_scores_against() {
        // In every window mode the recover arm, scored against the truth
        // its snapshot returns, lands on the trajectory's final MSE bit
        // for bit. A windowed truth is the window's population, not the
        // cumulative one.
        for window in [
            WindowMode::Cumulative,
            WindowMode::Sliding(2),
            WindowMode::Decay(0.5),
        ] {
            let mut spec = tiny_spec();
            spec.epochs = 4;
            spec.window = window;
            let mut engine = StreamEngine::new(spec).unwrap();
            engine.run_to_completion().unwrap();
            let snapshot = engine
                .arm_snapshot(&ArmSet::new([ArmKind::Recover]))
                .unwrap();
            let last = engine.trajectory().last().unwrap();
            assert_eq!(
                mse(snapshot.recovered().unwrap(), &snapshot.true_freqs).to_bits(),
                last.mse_recovered.to_bits(),
                "{window:?}"
            );
            let totals = engine.totals();
            let cumulative: Vec<f64> = totals
                .population
                .iter()
                .map(|&c| c as f64 / totals.genuine_users as f64)
                .collect();
            assert_eq!(
                snapshot.true_freqs == cumulative,
                window.is_cumulative(),
                "{window:?}"
            );
        }
    }

    #[test]
    fn reports_are_a_pure_function_of_state() {
        let spec = tiny_spec();
        let mut a = StreamEngine::new(spec).unwrap();
        let mut b = StreamEngine::new(spec).unwrap();
        a.run_to_completion().unwrap();
        b.step().unwrap();
        b.step().unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.report().unwrap().render(),
            b.report().unwrap().render(),
            "identical state must emit identical bytes"
        );
    }

    #[test]
    fn out_of_order_delta_application_is_bit_identical() {
        // The merge monoid promises any permutation of an epoch's deltas
        // lands on the same bits.
        let spec = tiny_spec();
        let mut stepped = StreamEngine::new(spec).unwrap();
        stepped.run_to_completion().unwrap();

        let mut reordered = StreamEngine::new(spec).unwrap();
        for epoch in 0..spec.epochs {
            let mut tagged: Vec<(usize, ShardDelta)> = (0..spec.shards)
                .map(|s| (s, shard_epoch_delta(&spec, s, epoch).unwrap()))
                .collect();
            tagged.reverse();
            if epoch % 2 == 1 {
                tagged.swap(0, 1); // a second, different permutation
            }
            reordered.apply_epoch_deltas(epoch, &tagged).unwrap();
        }
        assert_eq!(stepped, reordered, "merged state is order-independent");
        assert_eq!(
            stepped.report().unwrap().render(),
            reordered.report().unwrap().render(),
            "and so are the emitted bytes"
        );
    }

    #[test]
    fn apply_epoch_deltas_rejects_malformed_batches() {
        let spec = tiny_spec();
        let deltas: Vec<(usize, ShardDelta)> = (0..spec.shards)
            .map(|s| (s, shard_epoch_delta(&spec, s, 0).unwrap()))
            .collect();
        // Wrong epoch cursor.
        let mut engine = StreamEngine::new(spec).unwrap();
        assert!(engine.apply_epoch_deltas(1, &deltas).is_err());
        // Missing shard.
        assert!(engine.apply_epoch_deltas(0, &deltas[..2]).is_err());
        // Duplicated shard.
        let mut dup = deltas.clone();
        dup[1] = dup[0].clone();
        assert!(engine.apply_epoch_deltas(0, &dup).is_err());
        // Out-of-range shard index.
        let mut oob = deltas.clone();
        oob[2].0 = spec.shards + 1;
        assert!(engine.apply_epoch_deltas(0, &oob).is_err());
        // Domain-size mismatch in a delta vector.
        let mut torn = deltas.clone();
        torn[0].1.genuine_counts.pop();
        assert!(engine.apply_epoch_deltas(0, &torn).is_err());
        // Users other than the shard's spec values.
        for edit in [
            |d: &mut ShardDelta| d.genuine_users += 1,
            |d: &mut ShardDelta| d.malicious_users -= 1,
        ] {
            let mut miscounted = deltas.clone();
            edit(&mut miscounted[1].1);
            assert!(engine.apply_epoch_deltas(0, &miscounted).is_err());
        }
        // The engine did not advance through any of the rejections.
        assert_eq!(engine.epochs_done(), 0);
        assert!(engine.apply_epoch_deltas(0, &deltas).is_ok());
        assert_eq!(engine.epochs_done(), 1);
    }

    #[test]
    fn sliding_window_spanning_the_stream_matches_cumulative() {
        // A sliding window at least as long as the stream holds exactly
        // the cumulative counts (integer sums represented exactly in
        // f64), so the windowed float path must land on the same bits.
        let cumulative_spec = tiny_spec();
        let mut windowed_spec = cumulative_spec;
        windowed_spec.window = WindowMode::Sliding(cumulative_spec.epochs);
        let mut cumulative = StreamEngine::new(cumulative_spec).unwrap();
        let mut windowed = StreamEngine::new(windowed_spec).unwrap();
        cumulative.run_to_completion().unwrap();
        windowed.run_to_completion().unwrap();
        let a = cumulative.recovery_snapshot().unwrap();
        let b = windowed.recovery_snapshot().unwrap();
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.genuine_estimate, b.genuine_estimate);
        assert_eq!(a.poisoned_estimate, b.poisoned_estimate);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(cumulative.trajectory(), windowed.trajectory());
    }

    #[test]
    fn short_windows_forget_and_decay_discounts_old_epochs() {
        // sliding:1 reads only the newest epoch: its final snapshot is
        // the fresh single-epoch engine's, while the cumulative engine
        // (double the reports) disagrees.
        let mut spec = tiny_spec();
        spec.window = WindowMode::Sliding(1);
        let mut sliding = StreamEngine::new(spec).unwrap();
        sliding.run_to_completion().unwrap();
        let windowed = sliding.recovery_snapshot().unwrap();
        let mut cumulative_spec = spec;
        cumulative_spec.window = WindowMode::Cumulative;
        let mut cumulative = StreamEngine::new(cumulative_spec).unwrap();
        cumulative.run_to_completion().unwrap();
        assert_ne!(
            windowed.genuine_estimate,
            cumulative.recovery_snapshot().unwrap().genuine_estimate,
            "a 1-epoch window must not see epoch 0"
        );
        assert!(ldp_common::vecmath::is_probability_vector(
            &windowed.recovered,
            1e-9
        ));

        // Decay absorbs every epoch but discounts the old one.
        let mut decay_spec = spec;
        decay_spec.window = WindowMode::Decay(0.5);
        let mut decayed = StreamEngine::new(decay_spec).unwrap();
        decayed.run_to_completion().unwrap();
        let WindowState::Decay(view) = decayed.window_state() else {
            panic!("decay spec keeps decay state");
        };
        // Epoch reports are 400 genuine each: 0.5·400 + 400 = 600.
        assert_eq!(view.genuine_reports, 600.0);
        assert!(ldp_common::vecmath::is_probability_vector(
            &decayed.recovery_snapshot().unwrap().recovered,
            1e-9
        ));
    }
}
