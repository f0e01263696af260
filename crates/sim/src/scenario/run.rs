//! The scenario engine: cartesian cell execution with η-sweep fusion.
//!
//! Execution plan:
//!
//! 1. validate the scenario (unique cell ids, grid entries referencing
//!    only existing cells, consistent row widths),
//! 2. materialize each experiment cell's config at the requested
//!    [`RunScale`] (trials / seed / per-dataset fraction),
//! 3. group experiment cells that differ **only in η** into one
//!    [`run_eta_sweep`] unit (a lone cell is a one-point sweep) — each
//!    fused cell stays bit-identical to running it alone (the PR 2
//!    RNG-stream contract), so fusion is purely a speed-up,
//! 4. execute the units through the same [`map_trials`] fan-out the trial
//!    runner uses (units across workers, trials across workers inside each
//!    unit — results are folded in declaration order either way, so
//!    reports are bit-identical for any thread count),
//! 5. summarize every cell's metrics into a [`ScenarioReport`].

use ldp_common::hash::xxh64;
use ldp_common::rng::derive_seed;
use ldp_common::{LdpError, Result};

use crate::config::{ExperimentConfig, PipelineOptions};
use crate::metrics::Stats;
use crate::runner::{map_trials, run_eta_sweep, thread_count};
use crate::scenario::report::{CellReport, GridReport, ScenarioReport};
use crate::scenario::spec::{CellCtx, CellKind, RunScale, Scenario};

/// Domain-separation salt for per-cell seed derivation (custom cells).
const CELL_SEED_SALT: u64 = 0x5CE7_AB1E;

/// Runs every cell of a scenario at the given scale and assembles the
/// report.
///
/// # Errors
/// [`LdpError::InvalidParameter`] for malformed scenarios (duplicate cell
/// ids, dangling grid references, ragged grid rows, zero trials);
/// otherwise propagates the first failing cell.
pub fn run_scenario(scenario: &Scenario, scale: &RunScale) -> Result<ScenarioReport> {
    validate(scenario)?;
    if scale.trials == 0 {
        return Err(LdpError::invalid("scenario trials must be ≥ 1"));
    }

    let units = plan_units(scenario, scale);
    let outer_threads = outer_thread_count(scale.trials, units.len());
    let unit_outcomes = map_trials(units.len(), outer_threads, |i| execute(&units[i], scale))?;

    // Scatter unit outcomes back into cell order.
    let mut metrics_by_cell: Vec<Option<Vec<(String, Stats)>>> =
        scenario.cells.iter().map(|_| None).collect();
    for (unit, outcomes) in units.iter().zip(unit_outcomes) {
        for (&cell_index, metrics) in unit.cell_indices().iter().zip(outcomes) {
            metrics_by_cell[cell_index] = Some(metrics);
        }
    }

    let cells: Vec<CellReport> = scenario
        .cells
        .iter()
        .zip(metrics_by_cell)
        .map(|(cell, metrics)| CellReport {
            id: cell.id.clone(),
            metrics: metrics.expect("every cell executed by exactly one unit"),
        })
        .collect();

    let report = ScenarioReport {
        id: scenario.id.to_string(),
        title: scenario.title.to_string(),
        paper_anchor: scenario.paper_anchor.to_string(),
        trials: scale.trials,
        seed: scale.seed,
        scale_label: scale.scale.to_string(),
        cells,
        grids: Vec::new(),
        notes: scenario.notes.iter().map(|s| s.to_string()).collect(),
    };
    let grids: Vec<GridReport> = scenario
        .grids
        .iter()
        .map(|grid| GridReport::render(grid, &report))
        .collect();
    Ok(ScenarioReport { grids, ..report })
}

/// Structural validation, before anything expensive runs.
fn validate(scenario: &Scenario) -> Result<()> {
    let mut seen = std::collections::HashSet::new();
    for cell in &scenario.cells {
        if !seen.insert(cell.id.as_str()) {
            return Err(LdpError::invalid(format!(
                "scenario {}: duplicate cell id '{}'",
                scenario.id, cell.id
            )));
        }
    }
    for grid in &scenario.grids {
        for row in &grid.rows {
            if row.entries.len() != grid.columns.len() {
                return Err(LdpError::invalid(format!(
                    "scenario {}, grid '{}', row '{}': {} entries for {} columns",
                    scenario.id,
                    grid.title,
                    row.label,
                    row.entries.len(),
                    grid.columns.len()
                )));
            }
            for entry in &row.entries {
                for cell in entry.referenced_cells() {
                    if !seen.contains(cell) {
                        return Err(LdpError::invalid(format!(
                            "scenario {}, grid '{}', row '{}': unknown cell '{}'",
                            scenario.id, grid.title, row.label, cell
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

/// One schedulable unit of work.
enum Unit<'a> {
    /// Experiment cells identical up to η (one or more), fused into one
    /// aggregation-sharing sweep.
    EtaSweep {
        cell_indices: Vec<usize>,
        base: ExperimentConfig,
        etas: Vec<f64>,
        options: &'a PipelineOptions,
    },
    /// A custom cell.
    Custom {
        cell_index: usize,
        cell: &'a crate::scenario::spec::CustomCell,
        ctx: CellCtx,
    },
}

impl Unit<'_> {
    fn cell_indices(&self) -> Vec<usize> {
        match self {
            Unit::Custom { cell_index, .. } => vec![*cell_index],
            Unit::EtaSweep { cell_indices, .. } => cell_indices.clone(),
        }
    }
}

/// Applies the run scale to every cell and fuses η-only neighbours.
fn plan_units<'a>(scenario: &'a Scenario, scale: &RunScale) -> Vec<Unit<'a>> {
    // Materialize experiment configs at the requested scale.
    let mut experiment: Vec<(usize, ExperimentConfig, &'a PipelineOptions)> = Vec::new();
    let mut units: Vec<Unit<'a>> = Vec::new();
    for (index, cell) in scenario.cells.iter().enumerate() {
        match &cell.kind {
            CellKind::Experiment { config, options } => {
                let mut config = config.clone();
                config.trials = scale.trials;
                config.seed = scale.seed;
                config.scale = scale.scale.fraction(config.dataset);
                experiment.push((index, config, options));
            }
            CellKind::Custom(custom) => {
                let seed = derive_seed(scale.seed, xxh64(cell.id.as_bytes(), CELL_SEED_SALT));
                units.push(Unit::Custom {
                    cell_index: index,
                    cell: custom,
                    ctx: CellCtx::new(scale.trials, seed, scale.scale),
                });
            }
        }
    }

    // Group experiment cells whose configs agree on everything but η.
    let mut groups: Vec<Vec<usize>> = Vec::new(); // indices into `experiment`
    'next: for i in 0..experiment.len() {
        for group in &mut groups {
            let (_, leader_cfg, leader_opts) = &experiment[group[0]];
            let (_, cfg, opts) = &experiment[i];
            let mut eta_neutral = cfg.clone();
            eta_neutral.eta = leader_cfg.eta;
            if eta_neutral == *leader_cfg && opts == leader_opts {
                group.push(i);
                continue 'next;
            }
        }
        groups.push(vec![i]);
    }

    for group in groups {
        let (_, base, options) = experiment[group[0]].clone();
        units.push(Unit::EtaSweep {
            cell_indices: group.iter().map(|&g| experiment[g].0).collect(),
            etas: group.iter().map(|&g| experiment[g].1.eta).collect(),
            base,
            options,
        });
    }
    units
}

/// Worker count for the unit fan-out: what's left of the machine after
/// each unit's internal trial fan-out takes its share.
fn outer_thread_count(trials: usize, units: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    (cores / thread_count(trials).max(1)).clamp(1, units.max(1))
}

/// Executes one unit, returning the metric set of each of its cells (in
/// `cell_indices` order).
fn execute(unit: &Unit<'_>, scale: &RunScale) -> Result<Vec<Vec<(String, Stats)>>> {
    match unit {
        Unit::EtaSweep {
            base,
            etas,
            options,
            ..
        } => {
            let results = run_eta_sweep(base, etas, options)?;
            Ok(results.iter().map(experiment_metrics).collect())
        }
        Unit::Custom { cell, ctx, .. } => {
            let per_trial = map_trials(scale.trials, thread_count(scale.trials), |trial| {
                (cell.run)(trial, ctx)
            })?;
            Ok(vec![fold_custom_metrics(&per_trial)?])
        }
    }
}

/// Every metric an experiment run produced, derived generically from the
/// arms that ran: the two baselines, then `mse_{arm}`, then `fg_before` +
/// `fg_{arm}`, then `malicious_mse_{arm}` — whatever arms the cell
/// selected, no per-defense code.
fn experiment_metrics(result: &crate::runner::ExperimentResult) -> Vec<(String, Stats)> {
    let mut out = vec![
        ("mse_genuine".to_string(), result.mse_genuine),
        ("mse_before".to_string(), result.mse_before),
    ];
    for (key, arm) in &result.arms {
        if let Some(stats) = arm.mse {
            out.push((format!("mse_{key}"), stats));
        }
    }
    if let Some(stats) = result.fg_before {
        out.push(("fg_before".to_string(), stats));
    }
    for (key, arm) in &result.arms {
        if let Some(stats) = arm.fg {
            out.push((format!("fg_{key}"), stats));
        }
    }
    for (key, arm) in &result.arms {
        if let Some(stats) = arm.malicious_mse {
            out.push((format!("malicious_mse_{key}"), stats));
        }
    }
    out
}

/// Folds custom-cell trial outputs into per-metric [`Stats`], enforcing a
/// consistent metric set across trials.
fn fold_custom_metrics(per_trial: &[Vec<(&'static str, f64)>]) -> Result<Vec<(String, Stats)>> {
    let first = per_trial
        .first()
        .ok_or(LdpError::EmptyInput("custom-cell trials"))?;
    let names: Vec<&'static str> = first.iter().map(|(name, _)| *name).collect();
    let mut values: Vec<Vec<f64>> = names.iter().map(|_| Vec::new()).collect();
    for trial in per_trial {
        if trial.len() != names.len() {
            return Err(LdpError::invalid(
                "custom cell produced inconsistent metric sets across trials",
            ));
        }
        for ((name, value), (expected, bucket)) in trial.iter().zip(names.iter().zip(&mut values)) {
            if name != expected {
                return Err(LdpError::invalid(format!(
                    "custom cell metric order changed across trials: '{name}' vs '{expected}'"
                )));
            }
            bucket.push(*value);
        }
    }
    Ok(names
        .into_iter()
        .zip(values)
        .map(|(name, vals)| (name.to_string(), Stats::from_values(&vals)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::{Cell, Entry, GridSpec, Metric, RowSpec, ScaleSpec};
    use ldp_attacks::AttackKind;
    use ldp_datasets::DatasetKind;
    use ldp_protocols::ProtocolKind;
    use ldprecover::ArmKind;

    fn tiny_scale() -> RunScale {
        RunScale {
            trials: 2,
            seed: 7,
            scale: ScaleSpec::Fraction(0.004),
        }
    }

    fn exp_cell(id: &str, eta: f64) -> Cell {
        let mut config = ExperimentConfig::paper_default(
            DatasetKind::Ipums,
            ProtocolKind::Grr,
            Some(AttackKind::Adaptive),
        );
        config.eta = eta;
        Cell::experiment(id, config, PipelineOptions::recovery_only())
    }

    fn scenario(cells: Vec<Cell>, grids: Vec<GridSpec>) -> Scenario {
        Scenario {
            id: "test",
            title: "test scenario",
            paper_anchor: "",
            cells,
            grids,
            notes: vec![],
        }
    }

    #[test]
    fn runs_experiment_and_custom_cells() {
        let s = scenario(
            vec![
                exp_cell("exp", 0.2),
                Cell::custom("twice-trial", |trial, _ctx| {
                    Ok(vec![("value", 2.0 * trial as f64), ("one", 1.0)])
                }),
            ],
            vec![GridSpec {
                title: "t".into(),
                row_header: "row".into(),
                columns: vec!["MSE".into(), "custom".into()],
                rows: vec![RowSpec {
                    label: "r".into(),
                    entries: vec![
                        Entry::stat("exp", Metric::mse(ArmKind::Recover)),
                        Entry::stat("twice-trial", Metric::Custom("value")),
                    ],
                }],
            }],
        );
        let report = run_scenario(&s, &tiny_scale()).unwrap();
        assert_eq!(report.cells.len(), 2);
        let exp = report.metric("exp", "mse_recover").expect("mse_recover");
        assert_eq!(exp.count, 2);
        let custom = report.metric("twice-trial", "value").expect("value");
        assert!((custom.mean - 1.0).abs() < 1e-12, "mean of 0,2");
        assert_eq!(report.metric("twice-trial", "one").unwrap().std, 0.0);
        assert_eq!(report.grids.len(), 1);
        assert_eq!(report.grids[0].table.len(), 1);
    }

    #[test]
    fn eta_only_cells_fuse_and_match_standalone_runs() {
        // The fusion contract: a fused cell's numbers are bit-identical to
        // running the same cell alone.
        let fused = scenario(vec![exp_cell("a", 0.05), exp_cell("b", 0.4)], vec![]);
        let alone = scenario(vec![exp_cell("b", 0.4)], vec![]);
        let scale = tiny_scale();
        let fused_report = run_scenario(&fused, &scale).unwrap();
        let alone_report = run_scenario(&alone, &scale).unwrap();
        let (x, y) = (
            fused_report.metric("b", "mse_recover").unwrap(),
            alone_report.metric("b", "mse_recover").unwrap(),
        );
        assert_eq!(x.mean.to_bits(), y.mean.to_bits());
        // Shared aggregation: before-recovery MSE identical across the fused η cells.
        assert_eq!(
            fused_report
                .metric("a", "mse_before")
                .unwrap()
                .mean
                .to_bits(),
            fused_report
                .metric("b", "mse_before")
                .unwrap()
                .mean
                .to_bits(),
        );
        // Different η ⇒ different recovery.
        assert_ne!(
            fused_report.metric("a", "mse_recover").unwrap().mean,
            fused_report.metric("b", "mse_recover").unwrap().mean,
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let s1 = scenario(vec![exp_cell("a", 0.2), exp_cell("b", 0.1)], vec![]);
        let s2 = scenario(vec![exp_cell("a", 0.2), exp_cell("b", 0.1)], vec![]);
        let scale = tiny_scale();
        let a = run_scenario(&s1, &scale).unwrap();
        let b = run_scenario(&s2, &scale).unwrap();
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn custom_cells_get_stable_per_cell_streams() {
        let build = || {
            scenario(
                vec![
                    Cell::custom("draw-a", |trial, ctx| {
                        use rand::Rng;
                        Ok(vec![("v", ctx.trial_rng(trial).gen::<f64>())])
                    }),
                    Cell::custom("draw-b", |trial, ctx| {
                        use rand::Rng;
                        Ok(vec![("v", ctx.trial_rng(trial).gen::<f64>())])
                    }),
                ],
                vec![],
            )
        };
        let scale = tiny_scale();
        let a = run_scenario(&build(), &scale).unwrap();
        let b = run_scenario(&build(), &scale).unwrap();
        // Stable per cell across runs…
        assert_eq!(
            a.metric("draw-a", "v").unwrap().mean.to_bits(),
            b.metric("draw-a", "v").unwrap().mean.to_bits()
        );
        // …and independent between cells (distinct id ⇒ distinct stream).
        assert_ne!(
            a.metric("draw-a", "v").unwrap().mean.to_bits(),
            a.metric("draw-b", "v").unwrap().mean.to_bits()
        );
    }

    #[test]
    fn validation_rejects_malformed_scenarios() {
        // Duplicate ids.
        let dup = scenario(vec![exp_cell("x", 0.2), exp_cell("x", 0.3)], vec![]);
        assert!(run_scenario(&dup, &tiny_scale()).is_err());

        // Dangling grid reference.
        let dangling = scenario(
            vec![exp_cell("x", 0.2)],
            vec![GridSpec {
                title: "t".into(),
                row_header: "r".into(),
                columns: vec!["c".into()],
                rows: vec![RowSpec {
                    label: "r1".into(),
                    entries: vec![Entry::stat("ghost", Metric::MseBefore)],
                }],
            }],
        );
        assert!(run_scenario(&dangling, &tiny_scale()).is_err());

        // Ragged row.
        let ragged = scenario(
            vec![exp_cell("x", 0.2)],
            vec![GridSpec {
                title: "t".into(),
                row_header: "r".into(),
                columns: vec!["c1".into(), "c2".into()],
                rows: vec![RowSpec {
                    label: "r1".into(),
                    entries: vec![Entry::Blank],
                }],
            }],
        );
        assert!(run_scenario(&ragged, &tiny_scale()).is_err());

        // Zero trials.
        let ok = scenario(vec![exp_cell("x", 0.2)], vec![]);
        let mut scale = tiny_scale();
        scale.trials = 0;
        assert!(run_scenario(&ok, &scale).is_err());
    }

    #[test]
    fn custom_metric_consistency_is_enforced() {
        let s = scenario(
            vec![Cell::custom("flaky", |trial, _ctx| {
                if trial == 0 {
                    Ok(vec![("a", 1.0)])
                } else {
                    Ok(vec![("b", 1.0)])
                }
            })],
            vec![],
        );
        assert!(run_scenario(&s, &tiny_scale()).is_err());
    }
}
