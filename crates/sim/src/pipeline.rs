//! One evaluation trial: aggregation (expensive) + recovery arms (cheap).
//!
//! The split matters for the parameter sweeps: the η sweep of Fig. 5/6
//! re-runs only [`apply_recoveries`] on a shared [`TrialAggregates`], while
//! β and ε sweeps re-aggregate (the perturbation itself changes).
//!
//! The aggregation half is one count-level core shared with the streaming
//! engine ([`crate::stream`]): a cell's integer counts are a
//! [`ShardDelta`], the batched trial and every stream `(shard, epoch)`
//! cell sample theirs through [`sample_count_cell`], and the per-user path
//! shares its malicious half. One count-to-estimate step
//! (`finish_aggregation`) turns the float view of a count record
//! ([`WindowAggregate`]) into the truth and the estimates `f̃_X̃`, `f̃_Y`
//! and `f̃_Z` for the batched trial, the per-user trial and every stream
//! snapshot alike, and [`apply_recoveries`] is the one arm loop every
//! engine runs.
//!
//! The malicious half has one rule: when nothing keeps the crafted
//! reports — the batched trial, every stream cell, and the per-user path
//! without report-consuming arms — they go straight into the malicious
//! counts through [`ldp_attacks::Attack::craft_counts`], which builds no
//! report on OUE and SUE; only when an arm reads raw reports (Detection,
//! k-means) are they crafted with [`ldp_attacks::Attack::craft`], folded
//! and kept. Both make the same draws and counts, so the choice never
//! changes a result.

use ldp_attacks::AttackKind;
use ldp_common::{Domain, LdpError, Result};
use ldp_datasets::PopulationCounts;
use ldp_protocols::{AnyProtocol, LdpFrequencyProtocol, ProtocolScratch, PureParams, Report};
use ldprecover::{top_k_increase, ArmContext, ArmOutcome, ArmOutput};
use rand::Rng;

use crate::config::{ExperimentConfig, PipelineOptions};

/// Per-user reports are perturbed and folded in chunks of this size, so
/// the accumulator's batch kernel (HR's FWHT) amortizes over thousands of
/// reports while the chunk buffer stays cache-resident. Perturbation
/// order — and hence every RNG draw — is identical to the report-at-a-time
/// loop.
const REPORT_CHUNK: usize = 4096;

/// Reusable per-worker scratch for trial execution: the per-user report
/// chunk buffer and the protocol transform workspace. One arena per worker
/// thread ([`crate::runner::map_trials_with`]) amortizes the per-trial
/// allocations that scale with `n` or with HR's transform size.
///
/// Threading an arena through [`run_trial_with`] never changes results:
/// all buffers are fully reset per trial and no kernel consumes
/// randomness (`arena_reuse_is_bitwise_invisible` pins this).
#[derive(Debug, Default)]
pub struct TrialArena {
    report_chunk: Vec<Report>,
    scratch: ProtocolScratch,
}

impl TrialArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The integer counts of one aggregation cell — a stream `(shard, epoch)`
/// cell, a merged epoch or window, or a whole offline trial: population
/// histogram, aggregated genuine support counts, and aggregated malicious
/// support counts. Merging is exact element-wise `u64` addition, so
/// records combine in any order and grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDelta {
    /// The cell's genuine population histogram (ground truth).
    pub population: Vec<u64>,
    /// Aggregated genuine support counts `C(v)`.
    pub genuine_counts: Vec<u64>,
    /// Genuine users in this cell.
    pub genuine_users: usize,
    /// Aggregated malicious support counts.
    pub malicious_counts: Vec<u64>,
    /// Malicious reports in this cell.
    pub malicious_users: usize,
}

impl ShardDelta {
    /// The empty record over `domain` — the identity of [`ShardDelta::merge`].
    pub fn empty(domain: Domain) -> Self {
        ShardDelta {
            population: vec![0; domain.size()],
            genuine_counts: vec![0; domain.size()],
            genuine_users: 0,
            malicious_counts: vec![0; domain.size()],
            malicious_users: 0,
        }
    }

    /// Adds `other` into `self`, element-wise.
    pub fn merge(&mut self, other: &ShardDelta) {
        let add = |into: &mut Vec<u64>, from: &[u64]| {
            for (slot, &c) in into.iter_mut().zip(from) {
                *slot += c;
            }
        };
        add(&mut self.population, &other.population);
        add(&mut self.genuine_counts, &other.genuine_counts);
        add(&mut self.malicious_counts, &other.malicious_counts);
        self.genuine_users += other.genuine_users;
        self.malicious_users += other.malicious_users;
    }
}

/// The float view of a count record, the one form every engine debiases
/// (through `finish_aggregation`): a [`ShardDelta`] read exactly, or a
/// stream's exponentially decayed window, whose masses are fractional.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAggregate {
    /// Genuine population histogram.
    pub truth: Vec<f64>,
    /// Genuine support counts.
    pub genuine_counts: Vec<f64>,
    /// Genuine report mass.
    pub genuine_reports: f64,
    /// Malicious support counts.
    pub malicious_counts: Vec<f64>,
    /// Malicious report mass.
    pub malicious_reports: f64,
}

impl WindowAggregate {
    /// The float view of integer counts — exact while every count and
    /// report total stays below 2⁵³.
    pub(crate) fn from_counts(counts: &ShardDelta) -> Self {
        let floats = |v: &[u64]| v.iter().map(|&c| c as f64).collect();
        WindowAggregate {
            truth: floats(&counts.population),
            genuine_counts: floats(&counts.genuine_counts),
            genuine_reports: counts.genuine_users as f64,
            malicious_counts: floats(&counts.malicious_counts),
            malicious_reports: counts.malicious_users as f64,
        }
    }
}

/// Samples one count cell: the genuine population's support counts from
/// the protocol's count sampler, then the malicious half (attack
/// instantiate → [`ldp_attacks::Attack::craft_counts`]; nothing keeps the
/// reports). This is the whole RNG sequence after the population sample,
/// for the batched trial and for every stream `(shard, epoch)` cell
/// alike, which is why a 1-shard single-epoch stream is bit-identical to
/// the batched pipeline. Returns the cell's counts and the attack's
/// targets (`None` for untargeted attacks or `m = 0`).
///
/// # Panics
/// When `protocol` has no count sampler; every protocol the engines build
/// has one (`every_enum_protocol_batch_aggregates` pins this).
pub fn sample_count_cell<R: Rng>(
    protocol: &AnyProtocol,
    population: &PopulationCounts,
    attack: Option<AttackKind>,
    m: usize,
    rng: &mut R,
    arena: &mut TrialArena,
) -> (ShardDelta, Option<Vec<usize>>) {
    let genuine_counts = protocol
        .batch_aggregate_with(population.counts(), rng, &mut arena.scratch)
        .expect("every engine protocol has a count sampler (every_enum_protocol_batch_aggregates)");
    let mut cell = ShardDelta {
        population: population.counts().to_vec(),
        genuine_counts,
        genuine_users: population.len(),
        malicious_counts: vec![0; protocol.domain().size()],
        malicious_users: 0,
    };
    let targets = craft_and_fold(protocol, attack, m, rng, &mut cell, None);
    (cell, targets)
}

/// The malicious half of a cell, shared by every aggregation path:
/// instantiate the attack, then add the `m` malicious users' support to
/// `cell`'s malicious counts (the attack decides the reports' joint
/// shape). A caller that keeps the reports passes `kept`: they are
/// crafted, folded and appended to it. Otherwise they go straight into
/// the counts ([`ldp_attacks::Attack::craft_counts`]), with the same
/// draws and counts and no report built on OUE and SUE. Returns the
/// attack's targets; draws nothing when `m == 0`.
fn craft_and_fold<R: Rng>(
    protocol: &AnyProtocol,
    attack: Option<AttackKind>,
    m: usize,
    rng: &mut R,
    cell: &mut ShardDelta,
    kept: Option<&mut Vec<Report>>,
) -> Option<Vec<usize>> {
    if m == 0 {
        return None;
    }
    let attack = attack
        .expect("validated: beta > 0 implies an attack")
        .instantiate(protocol.domain(), rng);
    match kept {
        Some(reports) => {
            let crafted = attack.craft(protocol, m, rng);
            protocol.accumulate_all(&crafted, &mut cell.malicious_counts);
            reports.extend(crafted);
        }
        None => attack.craft_counts(protocol, m, rng, &mut cell.malicious_counts),
    }
    cell.malicious_users += m;
    attack.targets().map(<[usize]>::to_vec)
}

/// The expensive half of a trial: everything up to the frequency estimates.
#[derive(Debug, Clone)]
pub struct TrialAggregates {
    /// The protocol instance (parameters feed the recovery arms).
    pub protocol: AnyProtocol,
    /// Ground-truth item frequencies `f_X` of the genuine population.
    pub true_freqs: Vec<f64>,
    /// Genuine aggregated estimate `f̃_X̃` (the FG baseline of Eq. 37).
    pub genuine_freqs: Vec<f64>,
    /// Poisoned aggregated estimate `f̃_Z`.
    pub poisoned_freqs: Vec<f64>,
    /// True malicious aggregated estimate `f̃_Y` (Fig. 7 ground truth);
    /// `None` without an attack.
    pub malicious_true_freqs: Option<Vec<f64>>,
    /// The attack's true target set, if targeted.
    pub attack_targets: Option<Vec<usize>>,
    /// Retained reports (genuine then malicious) when an arm needs them.
    pub reports: Option<Vec<Report>>,
    /// The support counts of the retained reports, when they are kept:
    /// the poisoned counts (genuine plus malicious), which Detection
    /// subtracts its flagged reports from instead of refolding the rest.
    pub report_totals: Option<Vec<u64>>,
    /// Number of genuine users `n`.
    pub genuine_count: usize,
    /// Number of malicious users `m`.
    pub malicious_count: usize,
}

impl TrialAggregates {
    /// Protocol parameters shorthand.
    pub fn params(&self) -> PureParams {
        self.protocol.params()
    }
}
/// Everything a trial produces, ready for metric extraction.
///
/// Defense outputs are a list, not fields: one `(metric key, output)` entry per
/// arm that ran and produced an estimate ([`ArmOutcome::Degenerate`] arms
/// land in [`TrialResult::degenerate`] instead). The typed accessors
/// ([`TrialResult::recovered`], [`TrialResult::detection`], …) preserve
/// the historical field names for the shipped arms.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Ground-truth frequencies `f_X`.
    pub true_freqs: Vec<f64>,
    /// Genuine aggregated estimate `f̃_X̃`.
    pub genuine: Vec<f64>,
    /// Poisoned aggregated estimate `f̃_Z` ("before recovery").
    pub poisoned: Vec<f64>,
    /// Every defense-arm output, keyed by metric key (`"recover"`,
    /// `"star"`, `"detection"`, …), in arm execution order.
    pub arms: Vec<(String, ArmOutput)>,
    /// Arms that hit a documented statistical degeneracy this trial:
    /// `(arm name, reason)`.
    pub degenerate: Vec<(String, String)>,
    /// True malicious aggregated frequencies `f̃_Y`, when attacked.
    pub malicious_true: Option<Vec<f64>>,
    /// The target set the partial-knowledge arms used (oracle targets for
    /// targeted attacks, top-k-increase identification otherwise).
    pub star_targets: Option<Vec<usize>>,
    /// The attack's true targets (FG measurement).
    pub attack_targets: Option<Vec<usize>>,
}

impl TrialResult {
    /// The output of the arm with the given metric key.
    pub fn arm(&self, key: &str) -> Option<&ArmOutput> {
        self.arms
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, output)| output)
    }

    /// An arm's recovered frequencies, by metric key.
    fn arm_frequencies(&self, key: &str) -> Option<&[f64]> {
        self.arm(key).map(|o| o.frequencies.as_slice())
    }

    /// LDPRecover output, when the `recover` arm ran.
    pub fn recovered(&self) -> Option<&[f64]> {
        self.arm_frequencies("recover")
    }

    /// LDPRecover\* output (partial knowledge), when run.
    pub fn recovered_star(&self) -> Option<&[f64]> {
        self.arm_frequencies("star")
    }

    /// Detection baseline output, when run and non-degenerate.
    pub fn detection(&self) -> Option<&[f64]> {
        self.arm_frequencies("detection")
    }

    /// k-means defense estimate, when configured.
    pub fn kmeans(&self) -> Option<&[f64]> {
        self.arm_frequencies("kmeans")
    }

    /// LDPRecover-KM output, when configured.
    pub fn recover_km(&self) -> Option<&[f64]> {
        self.arm_frequencies("recover_km")
    }

    /// LDPRecover's malicious estimate `f̃′_Y` (Fig. 7), when run.
    pub fn malicious_estimate(&self) -> Option<&[f64]> {
        self.arm("recover")?.malicious_estimate.as_deref()
    }

    /// LDPRecover\*'s malicious estimate `f̃*_Y` (Fig. 7), when run.
    pub fn malicious_estimate_star(&self) -> Option<&[f64]> {
        self.arm("star")?.malicious_estimate.as_deref()
    }
}

/// Runs the aggregation half of one trial.
///
/// The genuine population goes through one of two statistically equivalent
/// paths chosen by [`PipelineOptions::aggregation`]:
///
/// * **per-user** — materialize the dataset, then `perturb` + `accumulate`
///   each report (`O(n·d)`);
/// * **batched** — sample the population's count vector directly
///   (`DatasetKind::generate_counts`, one multinomial) and feed it to the
///   protocol's count sampler ([`sample_count_cell`]), so the whole genuine
///   half is `O(d)`–`O(d·log n)` for all five protocols — nothing `O(n)`
///   is ever materialized. This is what makes full-paper-scale sweeps
///   affordable.
///
/// The malicious half is the same on both paths: crafted reports are
/// built and kept only when an arm reads them; otherwise they go straight
/// into the malicious counts ([`ldp_attacks::Attack::craft_counts`]).
///
/// # Errors
/// Propagates configuration validation (including a forced `Batched` mode
/// combined with report-retaining arms), dataset generation, and
/// estimation failures.
pub fn run_aggregation<R: Rng>(
    config: &ExperimentConfig,
    options: &PipelineOptions,
    rng: &mut R,
) -> Result<TrialAggregates> {
    run_aggregation_with(config, options, rng, &mut TrialArena::new())
}

/// [`run_aggregation`] with a caller-owned [`TrialArena`]: bitwise
/// identical results, but chunk buffers and transform scratch are reused
/// across calls instead of reallocated per trial.
///
/// # Errors
/// Same contract as [`run_aggregation`].
pub fn run_aggregation_with<R: Rng>(
    config: &ExperimentConfig,
    options: &PipelineOptions,
    rng: &mut R,
    arena: &mut TrialArena,
) -> Result<TrialAggregates> {
    config.validate()?;
    if options.aggregation.use_batched(options.needs_reports())? {
        run_aggregation_batched(config, rng, arena)
    } else {
        run_aggregation_per_user(config, options, rng, arena)
    }
}

/// The per-user aggregation path: materialized dataset, one report per
/// genuine user, optional report retention. Reports are perturbed in
/// order but folded in [`REPORT_CHUNK`]-sized batches so HR's FWHT
/// kernel carries the accumulation. Malicious reports are built only
/// when retained.
fn run_aggregation_per_user<R: Rng>(
    config: &ExperimentConfig,
    options: &PipelineOptions,
    rng: &mut R,
    arena: &mut TrialArena,
) -> Result<TrialAggregates> {
    let dataset = config.dataset.generate(config.scale, rng)?;
    let domain = dataset.domain();
    let protocol = config.protocol.build(config.epsilon, domain)?;
    let n = dataset.len();
    let m = config.malicious_count(n);

    let mut reports: Option<Vec<Report>> =
        options.needs_reports().then(|| Vec::with_capacity(n + m));

    let mut cell = ShardDelta {
        population: dataset.counts(),
        genuine_users: n,
        ..ShardDelta::empty(domain)
    };
    // Genuine users run Ψ, chunked: perturbation order (hence the RNG
    // stream) is exactly the one-report-at-a-time loop's.
    let chunk = &mut arena.report_chunk;
    chunk.clear();
    for &item in dataset.items() {
        chunk.push(protocol.perturb(item as usize, rng));
        if chunk.len() == REPORT_CHUNK {
            protocol.accumulate_all(chunk, &mut cell.genuine_counts);
            match reports.as_mut() {
                Some(buf) => buf.append(chunk),
                None => chunk.clear(),
            }
        }
    }
    protocol.accumulate_all(chunk, &mut cell.genuine_counts);
    match reports.as_mut() {
        Some(buf) => buf.append(chunk),
        None => chunk.clear(),
    }

    let targets = craft_and_fold(
        &protocol,
        config.attack,
        m,
        rng,
        &mut cell,
        reports.as_mut(),
    );
    // The kept reports' fold: the poisoned counts Detection subtracts
    // its flagged reports from.
    let report_totals = reports.is_some().then(|| {
        cell.genuine_counts
            .iter()
            .zip(&cell.malicious_counts)
            .map(|(&g, &b)| g + b)
            .collect()
    });
    Ok(TrialAggregates {
        reports,
        report_totals,
        ..finish_aggregation(
            protocol,
            &WindowAggregate::from_counts(&cell),
            n,
            m,
            targets,
        )?
    })
}

/// The batched aggregation path: population counts sampled directly, then
/// the shared count-cell sampler.
fn run_aggregation_batched<R: Rng>(
    config: &ExperimentConfig,
    rng: &mut R,
    arena: &mut TrialArena,
) -> Result<TrialAggregates> {
    let population = config.dataset.generate_counts(config.scale, rng)?;
    let protocol = config.protocol.build(config.epsilon, population.domain())?;
    let m = config.malicious_count(population.len());
    let (cell, targets) = sample_count_cell(&protocol, &population, config.attack, m, rng, arena);
    finish_aggregation(
        protocol,
        &WindowAggregate::from_counts(&cell),
        cell.genuine_users,
        cell.malicious_users,
        targets,
    )
}

/// Debiases a count record's float view into the [`TrialAggregates`]
/// every engine reads, retaining no reports: the truth (the population
/// histogram over its own mass), the genuine estimate `f̃_X̃`, the
/// malicious estimate `f̃_Y` (when there is malicious mass), and the
/// poisoned estimate `f̃_Z` over the merged genuine and malicious counts
/// (Eq. 14). On a trial's integer counts every float step is exact; a
/// stream passes its window and its cumulative users.
///
/// # Errors
/// [`LdpError::DomainMismatch`] for counts not over the protocol's
/// domain; [`LdpError::EmptyInput`] for a record without genuine mass.
pub(crate) fn finish_aggregation(
    protocol: AnyProtocol,
    view: &WindowAggregate,
    genuine_count: usize,
    malicious_count: usize,
    attack_targets: Option<Vec<usize>>,
) -> Result<TrialAggregates> {
    let total: f64 = view.truth.iter().sum();
    if total <= 0.0 || total.is_nan() {
        return Err(LdpError::EmptyInput("count record (no genuine users)"));
    }
    let true_freqs = view.truth.iter().map(|&c| c / total).collect();
    let params = protocol.params();
    let genuine_freqs = debias(params, &view.genuine_counts, view.genuine_reports)?;
    let malicious_true_freqs = if view.malicious_reports > 0.0 {
        Some(debias(
            params,
            &view.malicious_counts,
            view.malicious_reports,
        )?)
    } else {
        None
    };
    let poisoned_counts: Vec<f64> = view
        .genuine_counts
        .iter()
        .zip(&view.malicious_counts)
        .map(|(&g, &b)| g + b)
        .collect();
    let poisoned_freqs = debias(
        params,
        &poisoned_counts,
        view.genuine_reports + view.malicious_reports,
    )?;

    Ok(TrialAggregates {
        protocol,
        true_freqs,
        genuine_freqs,
        poisoned_freqs,
        malicious_true_freqs,
        attack_targets,
        reports: None,
        report_totals: None,
        genuine_count,
        malicious_count,
    })
}

/// Debiases support counts into frequency estimates `f̃(v) = Φ(v)/N`:
/// the float operations of [`PureParams::debias_frequencies`], with the
/// report total `N` generalized to report mass (a decay window's is
/// fractional).
fn debias(params: PureParams, counts: &[f64], reports: f64) -> Result<Vec<f64>> {
    params.domain().check_len(counts, "support counts")?;
    if !(reports.is_finite() && reports > 0.0) {
        return Err(LdpError::EmptyInput("support counts (no report mass)"));
    }
    Ok(counts
        .iter()
        .map(|&c| params.debias_count(c, reports) / reports)
        .collect())
}

/// Runs the selected defense arms on an aggregation.
///
/// Arms execute in canonical registry order as the steps of
/// [`ldprecover::ArmSet::build`]; a documented statistical
/// degeneracy ([`ArmOutcome::Degenerate`], e.g. the detection baseline
/// flagging every report) skips that arm for the trial, while every real
/// error propagates and fails the trial.
///
/// # Errors
/// Propagates recovery validation and arm failures.
pub fn apply_recoveries<R: Rng>(
    aggregates: &TrialAggregates,
    eta: f64,
    options: &PipelineOptions,
    rng: &mut R,
) -> Result<TrialResult> {
    let params = aggregates.params();

    // Partial knowledge: oracle targets when the attack is targeted, the
    // paper's top-k-increase identification otherwise (the pre-attack
    // reference is the genuine estimate, standing in for the "historical
    // data" of §V-D). Computed once, shared by every target-consuming arm.
    let star_targets: Option<Vec<usize>> = if options.arms.needs_targets() {
        match &aggregates.attack_targets {
            Some(targets) => Some(targets.clone()),
            None if aggregates.malicious_count > 0 => top_k_increase(
                &aggregates.poisoned_freqs,
                &aggregates.genuine_freqs,
                options.star_top_k.max(1),
            )
            .ok(),
            None => None,
        }
    } else {
        None
    };

    let mut ctx = ArmContext::new(&aggregates.poisoned_freqs, params, eta)
        .with_protocol(&aggregates.protocol)
        .with_sum_model(options.sum_model)
        .with_post_process(options.post_process);
    if let Some(reports) = &aggregates.reports {
        ctx = ctx.with_reports(reports);
    }
    if let Some(totals) = &aggregates.report_totals {
        ctx = ctx.with_report_totals(totals);
    }
    if let Some(targets) = &star_targets {
        ctx = ctx.with_targets(targets);
    }

    let mut arms: Vec<(String, ArmOutput)> = Vec::new();
    let mut degenerate: Vec<(String, String)> = Vec::new();
    for arm in options.arms.build(&options.kmeans) {
        match arm.run(&ctx, rng)? {
            ArmOutcome::Outputs(outputs) => arms.extend(outputs),
            ArmOutcome::Degenerate { reason } => {
                degenerate.push((arm.name().to_string(), reason));
            }
        }
    }

    Ok(TrialResult {
        true_freqs: aggregates.true_freqs.clone(),
        genuine: aggregates.genuine_freqs.clone(),
        poisoned: aggregates.poisoned_freqs.clone(),
        arms,
        degenerate,
        malicious_true: aggregates.malicious_true_freqs.clone(),
        star_targets,
        attack_targets: aggregates.attack_targets.clone(),
    })
}

/// Convenience: aggregation + recovery in one call.
///
/// # Errors
/// Propagates both halves.
pub fn run_trial<R: Rng>(
    config: &ExperimentConfig,
    options: &PipelineOptions,
    rng: &mut R,
) -> Result<TrialResult> {
    run_trial_with(config, options, rng, &mut TrialArena::new())
}

/// [`run_trial`] with a caller-owned [`TrialArena`] — the per-worker form
/// the experiment runner threads through
/// [`crate::runner::map_trials_with`].
///
/// # Errors
/// Propagates both halves.
pub fn run_trial_with<R: Rng>(
    config: &ExperimentConfig,
    options: &PipelineOptions,
    rng: &mut R,
    arena: &mut TrialArena,
) -> Result<TrialResult> {
    let aggregates = run_aggregation_with(config, options, rng, arena)?;
    apply_recoveries(&aggregates, config.eta, options, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_attacks::AttackKind;
    use ldp_common::rng::rng_from_seed;
    use ldp_common::vecmath::is_probability_vector;
    use ldp_datasets::DatasetKind;
    use ldp_protocols::ProtocolKind;

    fn small_config(attack: Option<AttackKind>) -> ExperimentConfig {
        let mut c = ExperimentConfig::paper_default(DatasetKind::Ipums, ProtocolKind::Grr, attack);
        c.scale = 0.02; // ~7.8k genuine users: fast but statistically alive
        if attack.is_none() {
            c.beta = 0.0;
        }
        c
    }

    #[test]
    fn aggregation_shapes_and_counts() {
        let config = small_config(Some(AttackKind::Adaptive));
        let options = PipelineOptions::recovery_only();
        let mut rng = rng_from_seed(1);
        let agg = run_aggregation(&config, &options, &mut rng).unwrap();
        let d = 102;
        assert_eq!(agg.true_freqs.len(), d);
        assert_eq!(agg.genuine_freqs.len(), d);
        assert_eq!(agg.poisoned_freqs.len(), d);
        assert!(agg.reports.is_none(), "recovery-only retains no reports");
        assert!(agg.malicious_count > 0);
        let beta = agg.malicious_count as f64 / (agg.genuine_count + agg.malicious_count) as f64;
        assert!((beta - 0.05).abs() < 0.001);
        assert!(agg.malicious_true_freqs.is_some());
        assert!(agg.attack_targets.is_none(), "AA is untargeted");
    }

    #[test]
    fn unpoisoned_trial_has_no_malicious_artifacts() {
        let config = small_config(None);
        let mut rng = rng_from_seed(2);
        let result = run_trial(&config, &PipelineOptions::recovery_only(), &mut rng).unwrap();
        assert!(result.malicious_true.is_none());
        assert!(result.star_targets.is_none());
        assert!(result.recovered_star().is_none());
        // The star arm degenerates (nothing to know), it does not fail.
        assert!(result
            .degenerate
            .iter()
            .any(|(arm, _)| arm == "recover-star"));
        // Poisoned == genuine without an attack.
        assert_eq!(result.poisoned, result.genuine);
        assert!(is_probability_vector(result.recovered().unwrap(), 1e-9));
    }

    #[test]
    fn targeted_trial_produces_all_arms() {
        let mut config = small_config(Some(AttackKind::Mga { r: 10 }));
        config.protocol = ProtocolKind::Oue;
        let options = PipelineOptions::full_comparison();
        let mut rng = rng_from_seed(3);
        let result = run_trial(&config, &options, &mut rng).unwrap();
        assert!(is_probability_vector(result.recovered().unwrap(), 1e-9));
        let star = result.recovered_star().expect("star arm");
        assert!(is_probability_vector(star, 1e-9));
        assert!(result.detection().is_some(), "detection arm");
        assert!(result.malicious_estimate().is_some());
        assert!(result.malicious_estimate_star().is_some());
        assert_eq!(result.star_targets, result.attack_targets);
        assert_eq!(result.attack_targets.as_ref().unwrap().len(), 10);
    }

    #[test]
    fn untargeted_star_uses_top_k_identification() {
        let config = small_config(Some(AttackKind::Adaptive));
        let options = PipelineOptions::recovery_only();
        let mut rng = rng_from_seed(4);
        let result = run_trial(&config, &options, &mut rng).unwrap();
        let idented = result.star_targets.as_ref().expect("identified targets");
        assert_eq!(idented.len(), 5, "paper's r/2 = 5 rule");
        assert!(result.attack_targets.is_none());
    }

    #[test]
    fn recovery_beats_poisoning_on_average() {
        // The headline claim at miniature scale: MSE(recovered) <
        // MSE(poisoned) for an adaptive attack (averaged over trials to
        // damp noise).
        let config = small_config(Some(AttackKind::Adaptive));
        let options = PipelineOptions::recovery_only();
        let mut before = 0.0;
        let mut after = 0.0;
        for trial in 0..5u64 {
            let mut rng = rng_from_seed(100 + trial);
            let r = run_trial(&config, &options, &mut rng).unwrap();
            before += crate::metrics::mse(&r.poisoned, &r.true_freqs);
            after += crate::metrics::mse(r.recovered().unwrap(), &r.true_freqs);
        }
        assert!(
            after < before,
            "after={after}, before={before} (summed over 5 trials)"
        );
    }

    #[test]
    fn auto_mode_batches_exactly_when_reports_are_unneeded() {
        let config = small_config(Some(AttackKind::Adaptive));
        // recovery_only retains no reports → Auto takes the batched path;
        // the batched path draws far fewer RNG values than per-user, so
        // the two modes must diverge bitwise while both remaining valid.
        let batched_opts = PipelineOptions::recovery_only();
        let per_user_opts = PipelineOptions {
            aggregation: crate::config::AggregationMode::PerUser,
            ..PipelineOptions::recovery_only()
        };
        let mut rng_a = rng_from_seed(11);
        let mut rng_b = rng_from_seed(11);
        let a = run_aggregation(&config, &batched_opts, &mut rng_a).unwrap();
        let b = run_aggregation(&config, &per_user_opts, &mut rng_b).unwrap();
        assert_eq!(a.genuine_count, b.genuine_count);
        assert_ne!(
            a.genuine_freqs, b.genuine_freqs,
            "modes consume different RNG streams"
        );
        assert!(a.reports.is_none());
        assert!(b.reports.is_none(), "recovery_only never retains reports");
        // Both land within the same statistical envelope of the truth.
        let mse_a = crate::metrics::mse(&a.genuine_freqs, &a.true_freqs);
        let mse_b = crate::metrics::mse(&b.genuine_freqs, &b.true_freqs);
        assert!(
            mse_a < 10.0 * mse_b + 1e-6,
            "batched mse={mse_a}, per-user mse={mse_b}"
        );
        assert!(
            mse_b < 10.0 * mse_a + 1e-6,
            "batched mse={mse_a}, per-user mse={mse_b}"
        );
    }

    #[test]
    fn forced_batched_with_report_arms_is_rejected() {
        let config = small_config(Some(AttackKind::Mga { r: 5 }));
        let options = PipelineOptions {
            aggregation: crate::config::AggregationMode::Batched,
            ..PipelineOptions::full_comparison()
        };
        let mut rng = rng_from_seed(12);
        assert!(run_aggregation(&config, &options, &mut rng).is_err());
    }

    #[test]
    fn report_arms_force_per_user_under_auto() {
        let config = small_config(Some(AttackKind::Mga { r: 5 }));
        let options = PipelineOptions::full_comparison(); // Auto + Detection
        let mut rng = rng_from_seed(13);
        let agg = run_aggregation(&config, &options, &mut rng).unwrap();
        let reports = agg.reports.as_ref().expect("per-user path retains reports");
        assert_eq!(reports.len(), agg.genuine_count + agg.malicious_count);
    }

    #[test]
    fn arena_reuse_is_bitwise_invisible() {
        // One arena threaded across heterogeneous trials (different
        // protocols, attacks, aggregation modes — so every buffer is
        // dirty from the previous trial) must give exactly the results of
        // fresh arenas.
        let mut arena = TrialArena::new();
        let cases = [
            (ProtocolKind::Grr, Some(AttackKind::Adaptive), false),
            (ProtocolKind::Hr, Some(AttackKind::Adaptive), false),
            (ProtocolKind::Hr, None, true),
            (ProtocolKind::Oue, Some(AttackKind::Mga { r: 10 }), true),
            (ProtocolKind::Hr, Some(AttackKind::Adaptive), true),
        ];
        for (seed, &(kind, attack, per_user)) in cases.iter().enumerate() {
            let mut config = small_config(attack);
            config.protocol = kind;
            let options = if per_user {
                PipelineOptions {
                    aggregation: crate::config::AggregationMode::PerUser,
                    ..PipelineOptions::recovery_only()
                }
            } else {
                PipelineOptions::recovery_only()
            };
            let mut rng_a = rng_from_seed(700 + seed as u64);
            let mut rng_b = rng_from_seed(700 + seed as u64);
            let reused = run_trial_with(&config, &options, &mut rng_a, &mut arena).unwrap();
            let fresh = run_trial(&config, &options, &mut rng_b).unwrap();
            assert_eq!(reused.poisoned, fresh.poisoned, "case {seed}");
            assert_eq!(reused.genuine, fresh.genuine, "case {seed}");
            assert_eq!(reused.recovered(), fresh.recovered(), "case {seed}");
        }
    }

    #[test]
    fn eta_sweep_reuses_aggregation() {
        let config = small_config(Some(AttackKind::Adaptive));
        let options = PipelineOptions::recovery_only();
        let mut rng = rng_from_seed(5);
        let agg = run_aggregation(&config, &options, &mut rng).unwrap();
        let r1 = apply_recoveries(&agg, 0.05, &options, &mut rng).unwrap();
        let r2 = apply_recoveries(&agg, 0.4, &options, &mut rng).unwrap();
        // Same aggregation, different recovery knobs.
        assert_eq!(r1.poisoned, r2.poisoned);
        assert_ne!(r1.recovered().unwrap(), r2.recovered().unwrap());
    }

    #[test]
    fn open_arm_selection_runs_the_normalization_baselines() {
        let config = small_config(Some(AttackKind::Adaptive));
        let options = PipelineOptions::with_arms(
            ldprecover::ArmSet::parse("recover,norm-sub,base-cut").unwrap(),
        );
        assert!(
            !options.needs_reports(),
            "normalization arms are count-only"
        );
        let mut rng = rng_from_seed(21);
        let result = run_trial(&config, &options, &mut rng).unwrap();
        let keys: Vec<&str> = result.arms.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["recover", "norm_sub", "base_cut"]);
        for (key, output) in &result.arms {
            assert!(
                is_probability_vector(&output.frequencies, 1e-9),
                "{key} must land on the simplex"
            );
        }
        // The baselines are pure refinements of the poisoned estimate.
        assert_eq!(
            result.arm("norm_sub").unwrap().frequencies,
            ldprecover::solve::norm_sub(&result.poisoned)
        );
        assert_eq!(
            result.arm("base_cut").unwrap().frequencies,
            ldprecover::solve::base_cut(&result.poisoned)
        );
    }
}
