//! Multi-trial experiment execution.
//!
//! Each trial gets an independent RNG stream derived from the master seed
//! (`derive_seed(seed, trial)`), so experiments are reproducible and
//! individual trials can be re-run in isolation.

use ldp_common::rng::{derive_seed, rng_from_seed};
use ldp_common::Result;

use crate::config::{ExperimentConfig, PipelineOptions};
use crate::metrics::{frequency_gain, mse, Stats};
use crate::pipeline::{apply_recoveries, run_aggregation_with, TrialResult};

/// Summary statistics of one defense arm over an experiment's trials.
///
/// Derived generically from [`TrialResult::arms`]: `mse` for every arm,
/// `fg` when the arm tracks frequency gain and the attack is targeted,
/// `malicious_mse` when the arm exposes a malicious-estimate side channel
/// and ground truth exists.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmStats {
    /// MSE of the arm's recovered frequencies vs ground truth.
    pub mse: Option<Stats>,
    /// FG of the arm's output (targeted attacks only).
    pub fg: Option<Stats>,
    /// MSE of the arm's malicious estimate vs the true `f̃_Y` (Fig. 7).
    pub malicious_mse: Option<Stats>,
}

/// Per-method MSE / FG summaries for one experiment cell.
///
/// The baseline statistics keep their historical fields; every defense
/// arm's statistics live in [`ExperimentResult::arms`], keyed by metric
/// key, with typed accessors ([`ExperimentResult::mse_recover`], …)
/// preserving the old names for the shipped arms.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// MSE of the *genuine* (unpoisoned) estimate — the LDP noise floor.
    pub mse_genuine: Stats,
    /// MSE of the poisoned estimate ("before recovery").
    pub mse_before: Stats,
    /// FG of the poisoned estimate (targeted attacks only).
    pub fg_before: Option<Stats>,
    /// Per-arm summaries, keyed by metric key, in arm execution order.
    pub arms: Vec<(String, ArmStats)>,
}

impl ExperimentResult {
    /// The summary of the arm with the given metric key.
    pub fn arm(&self, key: &str) -> Option<&ArmStats> {
        self.arms
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, stats)| stats)
    }

    /// MSE of LDPRecover, when run.
    pub fn mse_recover(&self) -> Option<Stats> {
        self.arm("recover").and_then(|a| a.mse)
    }

    /// MSE of LDPRecover\*, when run.
    pub fn mse_star(&self) -> Option<Stats> {
        self.arm("star").and_then(|a| a.mse)
    }

    /// MSE of the Detection baseline, when run.
    pub fn mse_detection(&self) -> Option<Stats> {
        self.arm("detection").and_then(|a| a.mse)
    }

    /// MSE of the k-means defense, when configured.
    pub fn mse_kmeans(&self) -> Option<Stats> {
        self.arm("kmeans").and_then(|a| a.mse)
    }

    /// MSE of LDPRecover-KM, when configured.
    pub fn mse_recover_km(&self) -> Option<Stats> {
        self.arm("recover_km").and_then(|a| a.mse)
    }

    /// FG after LDPRecover.
    pub fn fg_recover(&self) -> Option<Stats> {
        self.arm("recover").and_then(|a| a.fg)
    }

    /// FG after LDPRecover\*.
    pub fn fg_star(&self) -> Option<Stats> {
        self.arm("star").and_then(|a| a.fg)
    }

    /// MSE of LDPRecover's malicious estimate vs the true `f̃_Y` (Fig. 7).
    pub fn malicious_mse_recover(&self) -> Option<Stats> {
        self.arm("recover").and_then(|a| a.malicious_mse)
    }

    /// MSE of LDPRecover\*'s malicious estimate vs the true `f̃_Y` (Fig. 7).
    pub fn malicious_mse_star(&self) -> Option<Stats> {
        self.arm("star").and_then(|a| a.malicious_mse)
    }
}

/// Accumulates one arm's per-trial metric values before summarizing.
#[derive(Default)]
struct ArmBuffers {
    mse: Vec<f64>,
    fg: Vec<f64>,
    malicious_mse: Vec<f64>,
}

/// Accumulates per-trial metric values before summarizing.
#[derive(Default)]
struct MetricBuffers {
    mse_genuine: Vec<f64>,
    mse_before: Vec<f64>,
    fg_before: Vec<f64>,
    /// Per-arm buffers in first-seen order (deterministic: arms execute
    /// in canonical registry order every trial).
    arms: Vec<(String, ArmBuffers)>,
}

impl MetricBuffers {
    fn arm_buffers(&mut self, key: &str) -> &mut ArmBuffers {
        if let Some(index) = self.arms.iter().position(|(k, _)| k == key) {
            return &mut self.arms[index].1;
        }
        self.arms.push((key.to_string(), ArmBuffers::default()));
        &mut self.arms.last_mut().expect("just pushed").1
    }

    fn push_trial(&mut self, r: &TrialResult) -> Result<()> {
        let truth = &r.true_freqs;
        self.mse_genuine.push(mse(&r.genuine, truth));
        self.mse_before.push(mse(&r.poisoned, truth));

        // FG only for attacks with true targets (Eq. 37 needs T).
        if let Some(targets) = &r.attack_targets {
            self.fg_before
                .push(frequency_gain(&r.poisoned, &r.genuine, targets)?);
        }

        for (key, output) in &r.arms {
            // Derive eagerly, push late: a failing FG must not leave the
            // arm's buffers half-updated.
            let fg = match (&r.attack_targets, output.track_fg) {
                (Some(targets), true) => {
                    Some(frequency_gain(&output.frequencies, &r.genuine, targets)?)
                }
                _ => None,
            };
            let malicious_mse = match (&r.malicious_true, &output.malicious_estimate) {
                (Some(mal_true), Some(estimate)) => Some(mse(estimate, mal_true)),
                _ => None,
            };
            let buffers = self.arm_buffers(key);
            buffers.mse.push(mse(&output.frequencies, truth));
            if let Some(fg) = fg {
                buffers.fg.push(fg);
            }
            if let Some(mal) = malicious_mse {
                buffers.malicious_mse.push(mal);
            }
        }
        Ok(())
    }

    fn summarize(self, config: ExperimentConfig) -> ExperimentResult {
        ExperimentResult {
            config,
            mse_genuine: Stats::from_values(&self.mse_genuine),
            mse_before: Stats::from_values(&self.mse_before),
            fg_before: Stats::from_optional(&self.fg_before),
            arms: self
                .arms
                .into_iter()
                .map(|(key, buffers)| {
                    (
                        key,
                        ArmStats {
                            mse: Stats::from_optional(&buffers.mse),
                            fg: Stats::from_optional(&buffers.fg),
                            malicious_mse: Stats::from_optional(&buffers.malicious_mse),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Runs `config.trials` independent trials and summarizes every metric.
///
/// Trials run on `min(available cores, trials)` threads. Every trial owns
/// an RNG stream derived from `(seed, trial)` and results are folded in
/// trial order, so the summary is bit-identical regardless of thread count
/// (verified by `parallelism_does_not_change_results`).
///
/// # Errors
/// Propagates the first trial failure (configuration errors surface on
/// trial 0; statistical degeneracies inside optional arms are tolerated by
/// the pipeline itself).
pub fn run_experiment(
    config: &ExperimentConfig,
    options: &PipelineOptions,
) -> Result<ExperimentResult> {
    config.validate()?;
    let results = map_trials_with(
        config.trials,
        thread_count(config.trials),
        crate::pipeline::TrialArena::new,
        |trial, arena| {
            let mut rng = rng_from_seed(derive_seed(config.seed, trial as u64));
            crate::pipeline::run_trial_with(config, options, &mut rng, arena)
        },
    )?;
    let mut buffers = MetricBuffers::default();
    for result in &results {
        buffers.push_trial(result)?;
    }
    Ok(buffers.summarize(config.clone()))
}

/// Worker count for a trial batch: `min(available cores, trials)`.
pub(crate) fn thread_count(trials: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(trials)
        .max(1)
}

/// Runs `run(trial)` for every trial index, fanned across `threads`
/// workers, with results returned in trial order — the shared machinery of
/// [`run_experiment`], [`run_eta_sweep`], and the scenario engine
/// (`crate::scenario`), which fans both whole cells and custom-cell trials
/// through it. Every job owns a caller-derived RNG stream, so the output
/// is bit-identical for any `threads` (verified by
/// `parallelism_does_not_change_results`).
///
/// # Errors
/// Propagates the first job failure, in job order.
pub fn map_trials<T, F>(trials: usize, threads: usize, run: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    map_trials_with(trials, threads, || (), |trial, ()| run(trial))
}

/// [`map_trials`] with per-worker mutable state: `init()` runs once on
/// each worker thread and the resulting state is threaded through every
/// job that worker claims — the hook the experiment runner uses to reuse
/// one [`crate::pipeline::TrialArena`] per worker across its trials.
/// State must never leak between jobs in a result-visible way; arena
/// reuse is pinned bitwise by `parallelism_does_not_change_results` and
/// `arena_reuse_is_bitwise_invisible`.
///
/// Scheduling is a single shared atomic counter: one `fetch_add` per
/// trial. At paper scale a trial costs milliseconds to seconds, so the
/// handoff is ~6 orders of magnitude below the work it dispatches —
/// measured at ~10 ns per contended claim (4 threads) against ~9 ms per
/// trial (n ≈ 10⁵ per-user HR aggregation with the FWHT readoff) —
/// which is why trials are not chunked.
///
/// # Errors
/// Propagates the first job failure, in job order.
pub fn map_trials_with<T, S, I, F>(trials: usize, threads: usize, init: I, run: F) -> Result<Vec<T>>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> Result<T> + Sync,
{
    if threads <= 1 {
        let mut state = init();
        return (0..trials).map(|trial| run(trial, &mut state)).collect();
    }
    let mut slots: Vec<Option<Result<T>>> = Vec::new();
    slots.resize_with(trials, || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slot_refs: Vec<std::sync::Mutex<&mut Option<Result<T>>>> =
        slots.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let trial = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if trial >= trials {
                        break;
                    }
                    let result = run(trial, &mut state);
                    **slot_refs[trial].lock().expect("slot lock") = Some(result);
                }
            });
        }
    });
    drop(slot_refs);
    slots
        .into_iter()
        .map(|slot| slot.expect("every trial slot filled"))
        .collect()
}

/// Runs an η sweep reusing one aggregation per trial (the recovery half is
/// ~10⁴× cheaper than the aggregation half at paper scale), fanned across
/// cores by the same machinery as [`run_experiment`].
///
/// Every `(trial, η)` cell gets its own RNG stream: a clone of the trial
/// RNG taken right after aggregation — exactly the state a standalone
/// [`run_experiment`] at that η would hand to the recovery arms. Cells are
/// therefore bit-identical to standalone runs and independent of which
/// *other* η values share the sweep (regression-tested by
/// `eta_sweep_cells_match_standalone_runs`; threading one RNG through all
/// ηs used to couple the k-means arm across cells).
///
/// Returns one [`ExperimentResult`] per η, each over `config.trials` trials.
///
/// # Errors
/// Propagates trial failures.
pub fn run_eta_sweep(
    config: &ExperimentConfig,
    etas: &[f64],
    options: &PipelineOptions,
) -> Result<Vec<ExperimentResult>> {
    config.validate()?;
    let per_trial: Vec<Vec<TrialResult>> = map_trials_with(
        config.trials,
        thread_count(config.trials),
        crate::pipeline::TrialArena::new,
        |trial, arena| {
            let mut rng = rng_from_seed(derive_seed(config.seed, trial as u64));
            let aggregates = run_aggregation_with(config, options, &mut rng, arena)?;
            etas.iter()
                .map(|&eta| {
                    let mut eta_rng = rng.clone();
                    apply_recoveries(&aggregates, eta, options, &mut eta_rng)
                })
                .collect()
        },
    )?;
    let mut buffers: Vec<MetricBuffers> = etas.iter().map(|_| MetricBuffers::default()).collect();
    for trial_results in &per_trial {
        for (buffer, result) in buffers.iter_mut().zip(trial_results) {
            buffer.push_trial(result)?;
        }
    }
    Ok(buffers
        .into_iter()
        .zip(etas)
        .map(|(buffer, &eta)| {
            let mut cfg = config.clone();
            cfg.eta = eta;
            buffer.summarize(cfg)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_attacks::AttackKind;
    use ldp_datasets::DatasetKind;
    use ldp_protocols::ProtocolKind;

    fn quick_config(attack: Option<AttackKind>) -> ExperimentConfig {
        let mut c = ExperimentConfig::paper_default(DatasetKind::Ipums, ProtocolKind::Grr, attack);
        c.scale = 0.01;
        c.trials = 3;
        if attack.is_none() {
            c.beta = 0.0;
        }
        c
    }

    #[test]
    fn experiment_summarizes_all_trials() {
        let config = quick_config(Some(AttackKind::MgaSampled { r: 5 }));
        let options = PipelineOptions::full_comparison();
        let result = run_experiment(&config, &options).unwrap();
        assert_eq!(result.mse_before.count, 3);
        assert_eq!(result.mse_recover().expect("recover ran").count, 3);
        assert!(result.mse_star().is_some());
        assert!(result.fg_before.is_some());
        assert!(result.malicious_mse_recover().is_some());
        assert!(result.malicious_mse_star().is_some());
    }

    #[test]
    fn unpoisoned_experiment_skips_attack_metrics() {
        let config = quick_config(None);
        let result = run_experiment(&config, &PipelineOptions::default()).unwrap();
        assert!(result.fg_before.is_none());
        assert!(result.malicious_mse_recover().is_none());
        assert!(result.mse_star().is_none());
    }

    #[test]
    fn experiments_are_reproducible() {
        let config = quick_config(Some(AttackKind::Adaptive));
        let options = PipelineOptions::recovery_only();
        let a = run_experiment(&config, &options).unwrap();
        let b = run_experiment(&config, &options).unwrap();
        assert_eq!(a.mse_before.mean, b.mse_before.mean);
        assert_eq!(a.mse_recover().unwrap().mean, b.mse_recover().unwrap().mean);
    }

    #[test]
    fn parallelism_does_not_change_results() {
        // Per-trial seed derivation + ordered folding make the parallel
        // path bit-identical to the sequential one.
        let config = quick_config(Some(AttackKind::Adaptive));
        let options = PipelineOptions::recovery_only();
        let run = |trial: usize| {
            let mut rng = rng_from_seed(derive_seed(config.seed, trial as u64));
            crate::pipeline::run_trial(&config, &options, &mut rng)
        };
        let parallel = map_trials(config.trials, 3, run).unwrap();
        let sequential = map_trials(config.trials, 1, run).unwrap();
        for (a, b) in parallel.iter().zip(&sequential) {
            assert_eq!(a.poisoned, b.poisoned);
            assert_eq!(a.recovered(), b.recovered());
        }
    }

    #[test]
    fn eta_sweep_produces_one_result_per_eta() {
        let config = quick_config(Some(AttackKind::Adaptive));
        let options = PipelineOptions::recovery_only();
        let etas = [0.01, 0.1, 0.4];
        let results = run_eta_sweep(&config, &etas, &options).unwrap();
        assert_eq!(results.len(), 3);
        for (r, &eta) in results.iter().zip(&etas) {
            assert_eq!(r.config.eta, eta);
            // All sweep points share the same aggregations.
            assert_eq!(r.mse_before.mean, results[0].mse_before.mean);
        }
        // Different η ⇒ different recovery error.
        assert_ne!(
            results[0].mse_recover().unwrap().mean,
            results[2].mse_recover().unwrap().mean
        );
    }

    #[test]
    fn eta_sweep_cells_match_standalone_runs() {
        // The RNG-coupling regression: with an rng-consuming arm (k-means)
        // configured, each (trial, η) cell must be bit-identical to a
        // standalone run_experiment at that η — in particular independent
        // of which *other* η values share the sweep. The old code threaded
        // one RNG through every η in sequence, so a cell's k-means draws
        // depended on its position in the grid.
        let mut config = quick_config(Some(AttackKind::MgaIpa { r: 5 }));
        config.trials = 2;
        let options = PipelineOptions::with_arms(ldprecover::ArmSet::new([
            ldprecover::ArmKind::Recover,
            ldprecover::ArmKind::Kmeans,
            ldprecover::ArmKind::RecoverKm,
        ]));
        let etas = [0.05, 0.2, 0.4];
        let swept = run_eta_sweep(&config, &etas, &options).unwrap();
        for (cell, &eta) in swept.iter().zip(&etas) {
            let mut standalone_cfg = config.clone();
            standalone_cfg.eta = eta;
            let standalone = run_experiment(&standalone_cfg, &options).unwrap();
            assert_eq!(
                cell.mse_recover().unwrap().mean.to_bits(),
                standalone.mse_recover().unwrap().mean.to_bits(),
                "eta={eta}: recover"
            );
            let (a, b) = (cell.mse_kmeans().unwrap(), standalone.mse_kmeans().unwrap());
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "eta={eta}: k-means");
            let (a, b) = (
                cell.mse_recover_km().unwrap(),
                standalone.mse_recover_km().unwrap(),
            );
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "eta={eta}: recover-KM");
        }
        // And the sweep order must not matter: reversing the grid yields
        // the same per-η cells.
        let reversed: Vec<f64> = etas.iter().rev().copied().collect();
        let swept_rev = run_eta_sweep(&config, &reversed, &options).unwrap();
        for (fwd, rev) in swept.iter().zip(swept_rev.iter().rev()) {
            assert_eq!(
                fwd.mse_recover_km().unwrap().mean.to_bits(),
                rev.mse_recover_km().unwrap().mean.to_bits(),
                "eta={}: grid order leaked into the cell",
                fwd.config.eta
            );
        }
    }

    #[test]
    fn batched_and_per_user_experiments_agree_statistically() {
        // Same config, both aggregation modes, means within a loose
        // envelope of each other (they share no RNG draws, so only the
        // distribution can agree).
        let mut config = quick_config(Some(AttackKind::Adaptive));
        config.trials = 6;
        let batched = PipelineOptions {
            aggregation: crate::config::AggregationMode::Batched,
            ..PipelineOptions::default()
        };
        let per_user = PipelineOptions {
            aggregation: crate::config::AggregationMode::PerUser,
            ..PipelineOptions::default()
        };
        let a = run_experiment(&config, &batched).unwrap();
        let b = run_experiment(&config, &per_user).unwrap();
        for (x, y, what) in [
            (&a.mse_genuine, &b.mse_genuine, "genuine"),
            (&a.mse_before, &b.mse_before, "before"),
        ] {
            let spread = x.std.max(y.std).max(1e-9);
            assert!(
                (x.mean - y.mean).abs() < 8.0 * spread,
                "{what}: batched {} vs per-user {}",
                x.mean,
                y.mean
            );
        }
    }
}
