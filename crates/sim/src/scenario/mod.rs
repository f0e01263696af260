//! The scenario-matrix subsystem: the paper's evaluation grids as data.
//!
//! The paper's headline results are grids — recovery accuracy across
//! protocol × attack × β × dataset — and this module turns each of them
//! into a declarative [`Scenario`]: uniquely-named cells (standard
//! experiment configs or custom per-trial closures) plus presentation
//! grids that pivot cell metrics into the tables the paper prints.
//!
//! * [`spec`] — the scenario/cell/grid/metric vocabulary and [`RunScale`]
//!   (trials, seed, and the `small`/`paper` scale presets).
//! * [`run`] — the engine: validation, η-sweep fusion, parallel cell
//!   execution through the trial runner's `map_trials`.
//! * [`report`] — structured results ([`ScenarioReport`]) with rendered
//!   tables and JSON emit.
//! * [`golden`] — blessed mean ± SEM-derived tolerance snapshots, the
//!   regression gate of `tests/golden_repro.rs`.
//! * [`catalog`] — every figure/table of the paper (and the ablation/KV
//!   extensions) as scenario definitions; the single source of truth the
//!   `ldp repro` subcommand and the golden suite share.

pub mod catalog;
pub mod golden;
pub mod report;
pub mod run;
pub mod spec;

pub use golden::{Golden, GoldenEntry};
pub use report::{CellReport, GridReport, ScenarioReport};
pub use run::{check_scenario, run_scenario};
pub use spec::{
    Cell, CellCtx, CellKind, Entry, GridSpec, Metric, RowSpec, RunScale, ScaleSpec, Scenario,
};
