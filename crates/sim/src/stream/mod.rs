//! Sharded streaming ingestion with epoch-based online recovery.
//!
//! The paper's server is a one-shot batch estimator: aggregate every
//! report, then recover once. A production aggregator under an ongoing
//! poisoning campaign wants recovered frequencies *as the stream
//! progresses*. This module turns the existing building blocks into that
//! system:
//!
//! * **Shards** — synthetic genuine + malicious report traffic is fanned
//!   across `N` shards. Each shard owns a [`CountAccumulator`] and its own
//!   RNG stream, derived per `(shard, epoch)` from the master seed
//!   ([`ldp_common::rng::derive_seed2`]), so shards are independent,
//!   individually re-runnable, and mergeable in any order.
//! * **Epoch deltas** — a shard never materializes reports for genuine
//!   traffic: it samples its epoch's population histogram
//!   ([`DatasetKind::generate_user_counts`]) and feeds it to the protocol's
//!   count sampler (`batch_aggregate`, the PR 2 batched engine), `O(d)`
//!   per epoch for all five protocols regardless of traffic volume.
//!   Malicious
//!   reports are crafted individually — the attack decides their joint
//!   shape — and folded into a separate accumulator, exactly as the
//!   offline pipeline does.
//! * **Epoch boundaries** — after every epoch the shard deltas merge into
//!   the engine's cumulative state and the `recover` defense arm
//!   (`ldprecover::arm`) runs on the debiased merged counts, producing a
//!   recovery-accuracy-vs-reports-seen trajectory. Any *count-only* arm
//!   set can be evaluated on the same state via
//!   [`StreamEngine::arm_snapshot`]: an arm's
//!   [`ArmRequirements::needs_reports`](ldprecover::ArmRequirements)
//!   decides its eligibility — streaming never materializes per-user
//!   reports, so report-consuming arms (detection, k-means) are rejected
//!   with a clear error rather than silently skipped.
//! * **Checkpoints** — the whole engine state round-trips through the
//!   shared JSON value layer ([`ldp_common::json`], see
//!   [`checkpoint`](self)); because all randomness is derived per
//!   `(shard, epoch)`, no RNG state needs serializing and a suspended
//!   stream resumes **bit-identically**.
//!
//! Equivalence contracts (enforced by `tests/stream_equivalence.rs`):
//!
//! 1. A 1-shard single-epoch run consumes exactly the RNG call sequence of
//!    the offline batched pipeline (`run_aggregation` + recover), so its
//!    counts, estimates, and recovered frequencies are bit-identical to
//!    the one-shot path at the same derived seed.
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

pub use window::{EpochAggregate, WindowAggregate, WindowMode, WindowState};

use ldp_attacks::AttackKind;
use ldp_common::float::exactly_zero;
use ldp_common::rng::{derive_seed2, rng_from_seed};
use ldp_common::{Domain, Json, LdpError, Result};
use ldp_datasets::DatasetKind;
use ldp_protocols::{AnyProtocol, CountAccumulator, LdpFrequencyProtocol, ProtocolKind};
use ldprecover::arm::RecoverArm;
use ldprecover::{
    top_k_increase, ArmContext, ArmOutcome, ArmOutput, ArmSet, DefenseArm, KMeansDefense,
};

use crate::config::ExperimentConfig;
use crate::metrics::mse;
use crate::runner::{map_trials, thread_count};

/// Identified targets for partial-knowledge arms in streaming snapshots
/// (the paper's r/2 = 5 rule).
const STREAM_STAR_TOP_K: usize = 5;

/// Domain-separation salt for the (inert) RNG stream handed to snapshot
/// arms — count-only arms never draw, but the trait contract requires
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
    /// [`LdpError::InvalidParameter`] for out-of-range ε/β/η, zero shards
    /// or epochs, an epoch too small to give every shard a user, or
    /// β > 0 without an attack.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(LdpError::invalid(format!("epsilon = {}", self.epsilon)));
        }
        if !(0.0..1.0).contains(&self.beta) {
            return Err(LdpError::invalid(format!(
                "beta must be in [0,1), got {}",
                self.beta
            )));
        }
        if !(self.eta.is_finite() && self.eta >= 0.0) {
            return Err(LdpError::invalid(format!("eta = {}", self.eta)));
        }
        if self.attack.is_none() && self.beta > 0.0 {
            return Err(LdpError::invalid(
                "beta > 0 requires an attack; set beta = 0 for a clean stream",
            ));
        }
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
        Ok(())
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
    pub fn malicious_count(&self, genuine: usize) -> usize {
        if self.attack.is_none() || exactly_zero(self.beta) {
            return 0;
        }
        ldp_common::population::malicious_count(self.beta, genuine)
    }

    /// The item domain of the spec's workload.
    pub fn domain(&self) -> Domain {
        self.dataset.domain()
    }
}

/// One shard's contribution to one epoch: population histogram, aggregated
/// genuine support counts, and malicious support counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDelta {
    /// The epoch's genuine population histogram (ground truth delta).
    pub population: Vec<u64>,
    /// Aggregated genuine support counts `C(v)`.
    pub genuine_counts: Vec<u64>,
    /// Genuine users in this delta.
    pub genuine_users: usize,
    /// Aggregated malicious support counts.
    pub malicious_counts: Vec<u64>,
    /// Malicious reports in this delta.
    pub malicious_users: usize,
}

/// Computes the delta of one `(shard, epoch)` cell from its derived RNG
/// stream — the unit of randomness of the whole engine.
///
/// The RNG call sequence deliberately mirrors the offline batched
/// aggregation path (`ldp_sim::pipeline::run_aggregation` in `Batched`
/// mode) step for step: population histogram, genuine count sampler, then
/// attack instantiation + crafting. That is what makes a 1-shard
/// single-epoch stream bit-identical to the one-shot pipeline.
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

    // Genuine traffic: population histogram + batched count sampler —
    // nothing O(n) is ever materialized.
    let population = spec.dataset.generate_user_counts(users, &mut rng)?;
    let domain = population.domain();
    let protocol = spec.protocol.build(spec.epsilon, domain)?;
    let genuine_counts = protocol
        .batch_aggregate(population.counts(), &mut rng)
        .unwrap_or_else(|| {
            ldp_protocols::batch::grouped_support_counts(&protocol, population.counts(), &mut rng)
        });

    // Malicious traffic: crafted reports, the attack decides their shape.
    let m = spec.malicious_count(users);
    let mut malicious = CountAccumulator::new(domain);
    if m > 0 {
        let attack_kind = spec.attack.expect("validated: beta > 0 implies an attack");
        let attack = attack_kind.instantiate(domain, &mut rng);
        let crafted = attack.craft(&protocol, m, &mut rng);
        malicious.add_all(&protocol, &crafted);
    }

    Ok(ShardDelta {
        population: population.counts().to_vec(),
        genuine_counts,
        genuine_users: users,
        malicious_counts: malicious.counts().to_vec(),
        malicious_users: m,
    })
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
/// Holds the cumulative merged state (population truth, genuine and
/// malicious accumulators) plus the epoch trajectory. [`StreamEngine::step`]
/// ingests one epoch: shard deltas are computed in parallel (each from its
/// own derived stream), folded in shard order, and recovery runs on the
/// merged counts. Results are bit-identical for any worker count, and —
/// via [`checkpoint`](self) — across suspend/resume boundaries.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    spec: StreamSpec,
    protocol: AnyProtocol,
    next_epoch: usize,
    true_counts: Vec<u64>,
    genuine: CountAccumulator,
    malicious: CountAccumulator,
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
            && self.true_counts == other.true_counts
            && self.genuine == other.genuine
            && self.malicious == other.malicious
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
            true_counts: vec![0; domain.size()],
            genuine: CountAccumulator::new(domain),
            malicious: CountAccumulator::new(domain),
            window: WindowState::new(spec.window, domain.size()),
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

    /// The cumulative genuine accumulator.
    pub fn genuine(&self) -> &CountAccumulator {
        &self.genuine
    }

    /// The cumulative malicious accumulator.
    pub fn malicious(&self) -> &CountAccumulator {
        &self.malicious
    }

    /// The merged poisoned accumulator (genuine + malicious).
    pub fn poisoned(&self) -> CountAccumulator {
        let mut poisoned = self.genuine.clone();
        poisoned.merge(&self.malicious);
        poisoned
    }

    /// The cumulative realized population histogram (ground truth).
    pub fn true_counts(&self) -> &[u64] {
        &self.true_counts
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
    /// addition (the [`CountAccumulator`] merge monoid), any delta order
    /// produces bit-identical state.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when the stream is complete,
    /// `epoch` is not the next epoch, or `deltas` is not exactly one
    /// delta per shard; otherwise propagates recovery failures.
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
        let domain_size = self.spec.domain().size();
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
            seen[*shard] = true;
        }
        if deltas.len() != self.spec.shards {
            return Err(LdpError::invalid(format!(
                "epoch {epoch}: got {} deltas for {} shards",
                deltas.len(),
                self.spec.shards
            )));
        }

        for (_, delta) in deltas {
            for (slot, &c) in self.true_counts.iter_mut().zip(&delta.population) {
                *slot += c;
            }
            self.genuine.merge(&CountAccumulator::from_parts(
                delta.genuine_counts.clone(),
                delta.genuine_users,
            ));
            self.malicious.merge(&CountAccumulator::from_parts(
                delta.malicious_counts.clone(),
                delta.malicious_users,
            ));
        }
        let epoch_agg = EpochAggregate::from_deltas(
            domain_size,
            &deltas.iter().map(|(_, d)| d).collect::<Vec<_>>(),
        );
        self.window.absorb(self.spec.window, epoch_agg)?;
        self.next_epoch += 1;

        let snapshot = self.recovery_snapshot()?;
        let point = EpochPoint {
            epoch,
            genuine_users: self.genuine.report_count(),
            malicious_users: self.malicious.report_count(),
            reports_seen: self.genuine.report_count() + self.malicious.report_count(),
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

    /// Debiases and recovers the current merged state (on demand; pure in
    /// the accumulated counts). Recovery runs the `recover` defense arm
    /// on a count-only [`ArmContext`] — exactly debias-then-recover, the
    /// historical `recover_from_counts` path bit for bit. In a windowed
    /// mode ([`WindowMode::Sliding`] / [`WindowMode::Decay`]) every
    /// vector is computed over the windowed state instead of the
    /// cumulative one; the debias map is linear in `(count, reports)`,
    /// so the float-count path is the exact windowed estimator.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] before the first epoch (or when the
    /// window holds no genuine mass); otherwise propagates estimation /
    /// recovery failures.
    pub fn recovery_snapshot(&self) -> Result<RecoverySnapshot> {
        let (truth, genuine_estimate, poisoned_estimate) = self.current_estimates()?;
        let recovered = self.recover_estimate(&poisoned_estimate)?;
        Ok(RecoverySnapshot {
            truth,
            genuine_estimate,
            poisoned_estimate,
            recovered,
        })
    }

    /// `(truth, genuine_estimate, poisoned_estimate)` of the state the
    /// snapshot reads — cumulative integer path, or the windowed float
    /// path when the spec runs a window.
    fn current_estimates(&self) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>)> {
        let params = self.protocol.params();
        let Some(agg) = self.window.aggregate(self.spec.domain().size()) else {
            let total: u64 = self.true_counts.iter().sum();
            if total == 0 {
                return Err(LdpError::EmptyInput("stream state (no epochs ingested)"));
            }
            let truth: Vec<f64> = self
                .true_counts
                .iter()
                .map(|&c| c as f64 / total as f64)
                .collect();
            let genuine_estimate = self.genuine.frequencies(params)?;
            let poisoned = self.poisoned();
            let poisoned_estimate = poisoned.frequencies(params)?;
            return Ok((truth, genuine_estimate, poisoned_estimate));
        };
        let total: f64 = agg.truth.iter().sum();
        if total <= 0.0 || total.is_nan() {
            return Err(LdpError::EmptyInput("windowed stream state (empty window)"));
        }
        let truth: Vec<f64> = agg.truth.iter().map(|&c| c / total).collect();
        let genuine_estimate = debias_window(params, &agg.genuine_counts, agg.genuine_reports)?;
        let poisoned_counts: Vec<f64> = agg
            .genuine_counts
            .iter()
            .zip(&agg.malicious_counts)
            .map(|(&g, &m)| g + m)
            .collect();
        let poisoned_estimate = debias_window(
            params,
            &poisoned_counts,
            agg.genuine_reports + agg.malicious_reports,
        )?;
        Ok((truth, genuine_estimate, poisoned_estimate))
    }

    /// Runs the recover arm on a poisoned estimate (deterministic; the
    /// RNG stream handed to the arm is inert).
    fn recover_estimate(&self, poisoned_estimate: &[f64]) -> Result<Vec<f64>> {
        let params = self.protocol.params();
        let ctx = ArmContext::new(poisoned_estimate, params, self.spec.eta);
        let mut rng = rng_from_seed(derive_seed2(self.spec.seed, ARM_SNAPSHOT_SALT, 0));
        match RecoverArm.run(&ctx, &mut rng)? {
            ArmOutcome::Outputs(mut outputs) => Ok(outputs.swap_remove(0).1.frequencies),
            ArmOutcome::Degenerate { reason } => Err(LdpError::invalid(format!(
                "the recover arm cannot degenerate, but reported: {reason}"
            ))),
        }
    }

    /// The engine's windowed state (cumulative mode keeps none) — read
    /// by the checkpoint layer.
    pub fn window_state(&self) -> &WindowState {
        &self.window
    }

    /// Runs an arbitrary *count-only* arm set on the current merged state
    /// — the streaming face of the open defense-arm registry. Eligibility
    /// is decided by each arm's declared requirements: streaming never
    /// materializes per-user reports, so a set containing a
    /// report-consuming arm (detection, k-means) is rejected up front.
    /// Partial-knowledge arms get targets identified online via the
    /// paper's top-k-increase rule, with the cumulative genuine-only
    /// estimate standing in for historical data; arms that degenerate
    /// (e.g. the star arm on a clean stream) are skipped.
    ///
    /// Pure in the accumulated counts, so resumed and uninterrupted runs
    /// produce identical snapshots.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] before the first epoch;
    /// [`LdpError::InvalidParameter`] for report-consuming arms;
    /// otherwise propagates arm failures.
    pub fn arm_snapshot(&self, arms: &ArmSet) -> Result<Vec<(String, ArmOutput)>> {
        for &kind in arms.kinds() {
            if kind.requirements().needs_reports {
                return Err(LdpError::invalid(format!(
                    "arm '{kind}' consumes per-user reports; the streaming engine \
                     aggregates counts only (count-only arms: {})",
                    ldprecover::ArmKind::ALL
                        .into_iter()
                        .filter(|k| !k.requirements().needs_reports)
                        .map(|k| k.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        let params = self.protocol.params();
        let (_truth, genuine_estimate, poisoned_estimate) = self.current_estimates()?;
        let targets: Option<Vec<usize>> =
            if arms.needs_targets() && self.malicious.report_count() > 0 {
                top_k_increase(&poisoned_estimate, &genuine_estimate, STREAM_STAR_TOP_K).ok()
            } else {
                None
            };
        let mut ctx = ArmContext::new(&poisoned_estimate, params, self.spec.eta)
            .with_protocol(&self.protocol);
        if let Some(targets) = &targets {
            ctx = ctx.with_targets(targets);
        }
        let mut rng = rng_from_seed(derive_seed2(
            self.spec.seed,
            ARM_SNAPSHOT_SALT,
            self.next_epoch as u64,
        ));
        let mut outputs = Vec::new();
        for arm in arms.build(&KMeansDefense::default()) {
            match arm.run(&ctx, &mut rng)? {
                ArmOutcome::Outputs(named) => outputs.extend(named),
                ArmOutcome::Degenerate { .. } => {}
            }
        }
        Ok(outputs)
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
                    Json::Num((self.genuine.report_count() + self.malicious.report_count()) as f64),
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

/// Debiases windowed float support counts into frequency estimates —
/// the [`PureParams::debias_frequencies`](ldp_protocols) map with the
/// integer counts generalized to window mass (exact for sliding windows,
/// the precise geometric mixture for decay).
fn debias_window(
    params: ldp_protocols::PureParams,
    counts: &[f64],
    reports: f64,
) -> Result<Vec<f64>> {
    if !(reports.is_finite() && reports > 0.0) {
        return Err(LdpError::EmptyInput("windowed reports (no report mass)"));
    }
    Ok(counts
        .iter()
        .map(|&c| params.debias_count(c, reports) / reports)
        .collect())
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
            |s: &mut StreamSpec| s.attack = None,       // beta stays 0.05
        ] {
            let mut s = tiny_spec();
            mutate(&mut s);
            assert!(s.validate().is_err(), "{s:?}");
        }
        let mut clean = tiny_spec();
        clean.attack = None;
        clean.beta = 0.0;
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
        assert_eq!(
            engine.true_counts().iter().sum::<u64>(),
            engine.genuine().report_count() as u64
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
        assert_eq!(engine.malicious().report_count(), 0);
        assert!(engine.malicious().counts().iter().all(|&c| c == 0));
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
            .unwrap();
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
            .unwrap();
        let keys: Vec<&str> = outputs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["recover"], "star skipped on a clean stream");
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
        let WindowState::Decay {
            genuine_reports, ..
        } = decayed.window_state()
        else {
            panic!("decay spec keeps decay state");
        };
        // Epoch reports are 400 genuine each: 0.5·400 + 400 = 600.
        assert_eq!(*genuine_reports, 600.0);
        assert!(ldp_common::vecmath::is_probability_vector(
            &decayed.recovery_snapshot().unwrap().recovered,
            1e-9
        ));
    }
}
