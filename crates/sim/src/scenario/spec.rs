//! Declarative scenario-matrix specifications.
//!
//! A [`Scenario`] is one figure/table of the paper (or an extension
//! experiment) described as data: a set of uniquely-named [`Cell`]s — each
//! either a standard [`ExperimentConfig`] + [`PipelineOptions`] pair or a
//! custom per-trial closure — plus [`GridSpec`]s that lay the cells'
//! metrics out as the tables the paper prints. The engine
//! ([`crate::scenario::run_scenario`]) expands and executes the cells; the
//! grids are pure presentation and never influence what is computed.

use ldp_common::rng::{derive_seed, rng_from_seed};
use ldp_common::Result;
use ldp_datasets::{DatasetKind, ScalePreset};
use rand::rngs::SmallRng;

use crate::config::{ExperimentConfig, PipelineOptions, DEFAULT_SEED};

/// One figure/table of the reproduction, fully described as data.
pub struct Scenario {
    /// Stable identifier (`"fig3"`, `"table1"`, …) — the golden-file key.
    pub id: &'static str,
    /// Human-readable headline.
    pub title: &'static str,
    /// The paper's approximate reading of this figure, for the run header.
    pub paper_anchor: &'static str,
    /// The executable cells, each with a scenario-unique id.
    pub cells: Vec<Cell>,
    /// The tables this scenario prints, referencing cells by id.
    pub grids: Vec<GridSpec>,
    /// Free-form footnotes printed after the tables.
    pub notes: Vec<&'static str>,
}

/// One executable unit of a scenario.
pub struct Cell {
    /// Scenario-unique id (also the golden-file key of its metrics).
    pub id: String,
    /// How the cell computes its metrics.
    pub kind: CellKind,
}

impl Cell {
    /// A standard experiment cell.
    pub fn experiment(
        id: impl Into<String>,
        config: ExperimentConfig,
        options: PipelineOptions,
    ) -> Self {
        Self {
            id: id.into(),
            kind: CellKind::Experiment { config, options },
        }
    }

    /// A custom cell: `run(trial, ctx)` produces named metric values; the
    /// engine fans trials out and folds each metric into a
    /// [`Stats`](crate::metrics::Stats).
    pub fn custom<F>(id: impl Into<String>, run: F) -> Self
    where
        F: Fn(usize, &CellCtx) -> Result<Vec<(&'static str, f64)>> + Send + Sync + 'static,
    {
        Self {
            id: id.into(),
            kind: CellKind::Custom(CustomCell { run: Box::new(run) }),
        }
    }
}

/// The two cell flavors.
pub enum CellKind {
    /// A standard pipeline experiment, executed through
    /// [`crate::runner::run_experiment`] (or, when several cells differ
    /// only in η, one shared [`crate::runner::run_eta_sweep`]).
    Experiment {
        /// The cell's configuration; `trials`/`scale`/`seed` are overridden
        /// by the [`RunScale`] at execution time.
        config: ExperimentConfig,
        /// Which recovery arms to run.
        options: PipelineOptions,
    },
    /// An arbitrary per-trial computation (ablations, KV extension).
    Custom(CustomCell),
}

/// A custom cell's per-trial closure.
pub struct CustomCell {
    /// Returns `(metric name, value)` pairs; every trial must produce the
    /// same metric set.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(usize, &CellCtx) -> Result<Vec<(&'static str, f64)>> + Send + Sync>,
}

/// Execution context handed to custom cells.
pub struct CellCtx {
    /// Trials this cell runs (from the [`RunScale`]).
    pub trials: usize,
    /// The cell's derived master seed (stable per cell id).
    pub seed: u64,
    scale: ScaleSpec,
}

impl CellCtx {
    pub(crate) fn new(trials: usize, seed: u64, scale: ScaleSpec) -> Self {
        Self {
            trials,
            seed,
            scale,
        }
    }

    /// The RNG stream for one trial of this cell.
    pub fn trial_rng(&self, trial: usize) -> SmallRng {
        rng_from_seed(derive_seed(self.seed, trial as u64))
    }

    /// The population fraction for a dataset at the active scale.
    pub fn fraction(&self, dataset: DatasetKind) -> f64 {
        self.scale.fraction(dataset)
    }

    /// The scale fraction for workloads without a [`DatasetKind`] (the KV
    /// extension's synthetic population): the IPUMS fraction.
    pub fn base_fraction(&self) -> f64 {
        self.scale.fraction(DatasetKind::Ipums)
    }
}

/// How large a scenario run is: trials per cell, master seed, population
/// scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunScale {
    /// Trials per cell.
    pub trials: usize,
    /// Master seed (experiment cells use it directly, matching the
    /// historical binaries; custom cells derive a per-cell stream).
    pub seed: u64,
    /// Population scale.
    pub scale: ScaleSpec,
}

impl RunScale {
    /// The canonical run for a named preset (`small`: 5 trials, ~1.2k
    /// users; `paper`: 10 trials, full populations), at the default seed.
    pub fn preset(preset: ScalePreset) -> Self {
        Self {
            trials: preset.trials(),
            seed: DEFAULT_SEED,
            scale: ScaleSpec::Preset(preset),
        }
    }

    /// A run at an explicit uniform fraction (the historical `--scale F`).
    pub fn fraction(trials: usize, scale: f64, seed: u64) -> Self {
        Self {
            trials,
            seed,
            scale: ScaleSpec::Fraction(scale),
        }
    }
}

/// A population scale: a named per-dataset preset or one uniform fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleSpec {
    /// Named preset with per-dataset fractions.
    Preset(ScalePreset),
    /// One fraction in `(0, 1]` applied to every dataset.
    Fraction(f64),
}

impl ScaleSpec {
    /// The subsample fraction for a dataset.
    pub fn fraction(&self, dataset: DatasetKind) -> f64 {
        match self {
            ScaleSpec::Preset(p) => p.fraction(dataset),
            ScaleSpec::Fraction(f) => *f,
        }
    }

    /// Parses `"small" | "paper"` or a fraction in `(0, 1]`.
    ///
    /// # Errors
    /// [`ldp_common::LdpError::InvalidParameter`] for anything else.
    pub fn parse(s: &str) -> Result<Self> {
        if let Ok(preset) = ScalePreset::parse(s) {
            return Ok(ScaleSpec::Preset(preset));
        }
        let fraction: f64 = s.parse().map_err(|_| {
            ldp_common::LdpError::invalid(format!("scale '{s}' (small|paper|0<F≤1)"))
        })?;
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(ldp_common::LdpError::invalid(format!(
                "scale fraction must be in (0,1], got {fraction}"
            )));
        }
        Ok(ScaleSpec::Fraction(fraction))
    }
}

impl std::fmt::Display for ScaleSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleSpec::Preset(p) => f.write_str(p.name()),
            ScaleSpec::Fraction(v) => write!(f, "{v}"),
        }
    }
}

/// One printed table of a scenario.
pub struct GridSpec {
    /// Table title (the `== title ==` banner).
    pub title: String,
    /// Header of the leading row-label column (`"cell"`, `"beta"`, …).
    pub row_header: String,
    /// Headers of the metric columns.
    pub columns: Vec<String>,
    /// The rows, each with exactly `columns.len()` entries.
    pub rows: Vec<RowSpec>,
}

/// One table row: a label plus one entry per metric column.
pub struct RowSpec {
    /// The leading-column label.
    pub label: String,
    /// The metric entries, aligned with [`GridSpec::columns`].
    pub entries: Vec<Entry>,
}

/// How a [`Entry::Stat`] renders its mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatFormat {
    /// `%.3e` — the MSE/FG columns.
    #[default]
    Scientific,
    /// `%.1f` — small plain quantities (e.g. targets per report).
    Fixed1,
    /// `%.1f%%` — values already expressed in percent units.
    Percent1,
}

impl StatFormat {
    /// Renders a mean in this format.
    pub(crate) fn render(self, mean: f64) -> String {
        match self {
            StatFormat::Scientific => format!("{mean:.3e}"),
            StatFormat::Fixed1 => format!("{mean:.1}"),
            StatFormat::Percent1 => format!("{mean:.1}%"),
        }
    }
}

/// One table entry.
pub enum Entry {
    /// `mean` of a cell metric (or `-` when the metric was not produced).
    Stat {
        /// The referenced cell id.
        cell: String,
        /// Which of its metrics.
        metric: Metric,
        /// How to render the mean.
        format: StatFormat,
    },
    /// Fixed text (the paper's own values in Table I).
    Text(String),
    /// `1 − mse_recover/mse_before` of a cell, as a percentage.
    Improvement {
        /// The referenced cell id.
        cell: String,
    },
    /// The mean of [`Entry::Improvement`] over several cells.
    MeanImprovement {
        /// The referenced cell ids.
        cells: Vec<String>,
    },
    /// An empty cell.
    Blank,
}

impl Entry {
    /// Shorthand for a scientific-notation [`Entry::Stat`].
    pub fn stat(cell: impl Into<String>, metric: Metric) -> Self {
        Entry::stat_fmt(cell, metric, StatFormat::Scientific)
    }

    /// [`Entry::Stat`] with an explicit render format.
    pub fn stat_fmt(cell: impl Into<String>, metric: Metric, format: StatFormat) -> Self {
        Entry::Stat {
            cell: cell.into(),
            metric,
            format,
        }
    }

    /// The cell ids this entry reads (for validation).
    pub(crate) fn referenced_cells(&self) -> Vec<&str> {
        match self {
            Entry::Stat { cell, .. } | Entry::Improvement { cell } => vec![cell.as_str()],
            Entry::MeanImprovement { cells } => cells.iter().map(String::as_str).collect(),
            Entry::Text(_) | Entry::Blank => Vec::new(),
        }
    }
}

/// A named metric of a cell.
///
/// Arm metrics are keyed by the registry's metric key
/// ([`ldprecover::ArmKind::metric_key`]): selecting a defense arm in a
/// cell makes its `mse_{key}` / `fg_{key}` / `malicious_mse_{key}`
/// metrics addressable here, with no per-arm variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// MSE of the genuine (unpoisoned) estimate — the LDP noise floor.
    MseGenuine,
    /// MSE of the poisoned estimate ("before recovery").
    MseBefore,
    /// FG of the poisoned estimate.
    FgBefore,
    /// MSE of a defense arm's output (`mse_{key}`).
    MseArm(&'static str),
    /// FG of a defense arm's output (`fg_{key}`).
    FgArm(&'static str),
    /// MSE of a defense arm's malicious estimate vs the true `f̃_Y`
    /// (`malicious_mse_{key}`).
    MalMseArm(&'static str),
    /// A custom cell's named metric.
    Custom(&'static str),
}

impl Metric {
    /// The MSE metric of a registered arm.
    pub const fn mse(kind: ldprecover::ArmKind) -> Self {
        Metric::MseArm(kind.metric_key())
    }

    /// The FG metric of a registered arm.
    pub const fn fg(kind: ldprecover::ArmKind) -> Self {
        Metric::FgArm(kind.metric_key())
    }

    /// The malicious-estimate MSE metric of a registered arm.
    pub const fn malicious_mse(kind: ldprecover::ArmKind) -> Self {
        Metric::MalMseArm(kind.metric_key())
    }

    /// The metric's stable snake_case name (JSON / golden key). Derived
    /// generically for arm metrics, reproducing the historical names
    /// exactly (`mse_star`, `malicious_mse_recover`, …).
    pub fn name(&self) -> String {
        match self {
            Metric::MseGenuine => "mse_genuine".to_string(),
            Metric::MseBefore => "mse_before".to_string(),
            Metric::FgBefore => "fg_before".to_string(),
            Metric::MseArm(key) => format!("mse_{key}"),
            Metric::FgArm(key) => format!("fg_{key}"),
            Metric::MalMseArm(key) => format!("malicious_mse_{key}"),
            Metric::Custom(name) => (*name).to_string(),
        }
    }
}
