#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Simulation pipeline for the LDPRecover reproduction.
//!
//! Orchestrates one full evaluation trial exactly as the paper's §VI does:
//!
//! 1. materialize a dataset (genuine users' items),
//! 2. aggregate the genuine population with the configured LDP protocol —
//!    per-user perturbation, or the count-based batched engine
//!    ([`config::AggregationMode`]) that samples support counts directly,
//! 3. craft malicious reports with the configured poisoning attack,
//! 4. aggregate genuine / malicious / poisoned frequency estimates,
//! 5. run the selected defense arms of the [`ldprecover::ArmKind`]
//!    registry (`recover`, `recover-star`, `detection`, `kmeans`,
//!    `recover-km`, `norm-sub`, `base-cut`) — an [`ArmSet`] selects them
//!    by name, never through hard-coded fields,
//! 6. score everything with the paper's metrics (MSE, Eq. 36; FG, Eq. 37),
//!    with per-arm statistics derived generically (`mse_{arm}`,
//!    `fg_{arm}`, `malicious_mse_{arm}`).
//!
//! * [`config::ExperimentConfig`] — declarative experiment description
//!   (dataset, protocol, ε, attack, β, η, trials, scale, master seed).
//! * [`pipeline`] — a single trial, split into the expensive aggregation
//!   half ([`pipeline::TrialAggregates`]) and the cheap recovery half so
//!   parameter sweeps (e.g. over η) can reuse aggregations.
//! * [`runner`] — multi-trial execution with derived per-trial seeds and
//!   [`metrics::Stats`] summaries.
//! * [`table`] — fixed-width / CSV rendering for the `ldp` CLI and
//!   scenario reports.
//! * [`scenario`] — the declarative scenario-matrix subsystem: the
//!   paper's figures as data (cells × grids), one engine executing them,
//!   JSON reports, and golden statistical regression gates.
//! * [`stream`] — sharded streaming ingestion with epoch-based online
//!   recovery: per-`(shard, epoch)` derived RNG streams, batched epoch
//!   deltas, exact shard merges, recovery trajectories, and bit-identical
//!   JSON checkpoint/resume.

pub mod config;
pub mod metrics;
pub mod pipeline;
pub mod runner;
pub mod scenario;
pub mod stream;
pub mod table;

pub use config::{AggregationMode, ExperimentConfig, PipelineOptions, DEFAULT_SEED};
pub use ldprecover::{ArmKind, ArmSet};
pub use metrics::{frequency_gain, top_k_recall, Stats};
pub use pipeline::{TrialAggregates, TrialArena, TrialResult};
pub use runner::{run_eta_sweep, run_experiment, ArmStats, ExperimentResult};
pub use scenario::{run_scenario, RunScale, ScaleSpec, Scenario, ScenarioReport};
pub use stream::{shard_epoch_delta, EpochPoint, ShardDelta, StreamEngine, StreamSpec};
pub use table::Table;
