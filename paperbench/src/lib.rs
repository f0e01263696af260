//! Paper-scale benchmark of the LDPRecover reproduction.
//!
//! Three workloads, each generated from one `--seed` that goes only into
//! `ExperimentConfig::seed` / `StreamSpec::seed`:
//!
//! * `batched_cells` — the 30 paper-scale cells {IPUMS, Fire} × {GRR, OUE,
//!   SUE, HR, OLH} × {MGA, AA, MGA-IPA} with count-only arms, so `Auto`
//!   aggregation takes the batched path. Attack crafting and the malicious
//!   fold dominate; genuine aggregation is O(d).
//! * `report_arm_cells` — IPUMS × 5 protocols × {fig3/fig4 cell with
//!   Detection, fig9 cell with k-means}. Report-consuming arms force the
//!   per-user path, which is most of the paper-scale reproduction.
//! * `checkpointed_stream` — one in-process `StreamEngine` per protocol
//!   (GRR, then HR) on Fire under AA, writing a checkpoint after every
//!   epoch and reading one back every [`RESTORE_EVERY`] epochs.
//!
//! This library holds what both binaries share: argument parsing, the
//! workload definitions, the untraced passes (which touch only
//! `run_experiment`, `ExperimentConfig`, `PipelineOptions` and
//! `StreamEngine::{new, step, to_checkpoint, from_checkpoint}`), the
//! output checks, the statistics and the result line.

pub mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use ldp_attacks::AttackKind;
use ldp_common::{write_atomic, Json, LdpError, Result};
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;
use ldp_sim::stream::WindowMode;
use ldp_sim::{
    run_experiment, ArmSet, ExperimentConfig, ExperimentResult, PipelineOptions, StreamEngine,
    StreamSpec,
};
use ldprecover::KMeansDefense;

/// Trials per `run_experiment` call on `batched_cells`: two per worker
/// thread on a 2-core host, so both workers stay busy.
pub const BATCHED_TRIALS: usize = 4;
/// Trials per `run_experiment` call on `report_arm_cells` (one per worker).
pub const REPORT_TRIALS: usize = 2;
/// Epochs per stream.
pub const STREAM_EPOCHS: usize = 200;
/// Genuine users per stream epoch, across all shards.
pub const STREAM_USERS_PER_EPOCH: usize = 20_000;
/// Ingestion shards per stream.
pub const STREAM_SHARDS: usize = 4;
/// Sliding-window length (epochs) of the streams' boundary recovery.
pub const STREAM_WINDOW: usize = 16;
/// A checkpoint is read back and compared every this many epochs. Restores
/// cost tens to hundreds of milliseconds each (`Json::parse` re-validates
/// the rest of the document for every string character), so a restore
/// every epoch would drown the epoch timings.
pub const RESTORE_EVERY: usize = 50;
/// The set-up phase is repeated this many times and its median reported.
pub const SETUP_REPS: usize = 7;
/// Population scale of the set-up phase's warm-up call per cell.
pub const WARMUP_SCALE: f64 = 0.01;
/// Epochs of the set-up phase's warm-up stream.
pub const WARMUP_EPOCHS: usize = 2;
/// On MGA-IPA cells the recovered MSE may exceed the poisoned MSE by at
/// most this factor (see [`check_cell`]).
pub const IPA_DEGRADATION_LIMIT: f64 = 1.25;
/// Where the benchmark keeps checkpoints and traces, relative to the
/// directory it runs from.
pub const WORK_DIR: &str = ".bench_work";

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Count-only arms over the 30 paper-scale cells (batched path).
    BatchedCells,
    /// Detection / k-means arms over IPUMS (per-user path).
    ReportArmCells,
    /// Two checkpointed streams on Fire.
    CheckpointedStream,
}

impl Workload {
    /// Parses a workload name.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for unknown names.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "batched_cells" => Ok(Workload::BatchedCells),
            "report_arm_cells" => Ok(Workload::ReportArmCells),
            "checkpointed_stream" => Ok(Workload::CheckpointedStream),
            other => Err(LdpError::invalid(format!(
                "unknown workload '{other}' \
                 (batched_cells|report_arm_cells|checkpointed_stream)"
            ))),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchedCells => "batched_cells",
            Workload::ReportArmCells => "report_arm_cells",
            Workload::CheckpointedStream => "checkpointed_stream",
        }
    }
}

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured-phase length in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for unknown flags, missing or
    /// malformed values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| LdpError::invalid(format!("{flag} needs a value")))?;
            let bad = |what: &str| LdpError::invalid(format!("{flag} {value}: {what}"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(LdpError::invalid(format!("unknown flag {flag}"))),
            }
        }
        let missing = |flag: &str| LdpError::invalid(format!("missing {flag}"));
        Ok(Self {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// One experiment cell: one `run_experiment` call.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Display label, e.g. `Fire/MGA-OLH`.
    pub label: String,
    /// The cell's configuration.
    pub config: ExperimentConfig,
    /// The cell's arm selection.
    pub options: PipelineOptions,
}

const PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::Grr,
    ProtocolKind::Oue,
    ProtocolKind::Sue,
    ProtocolKind::Hr,
    ProtocolKind::Olh,
];

fn cell(
    dataset: DatasetKind,
    protocol: ProtocolKind,
    attack: AttackKind,
    trials: usize,
    seed: u64,
    options: &PipelineOptions,
) -> Result<Cell> {
    let mut config = ExperimentConfig::paper_default(dataset, protocol, Some(attack));
    config.trials = trials;
    config.scale = 1.0;
    config.seed = seed;
    config.validate()?;
    Ok(Cell {
        label: format!("{dataset:?}/{}", config.label()),
        config,
        options: options.clone(),
    })
}

/// The cells of a cell workload (empty for the stream workload).
///
/// # Errors
/// Propagates configuration validation.
pub fn cells(workload: Workload, seed: u64) -> Result<Vec<Cell>> {
    let mut out = Vec::new();
    match workload {
        Workload::BatchedCells => {
            let options = PipelineOptions::with_arms(ArmSet::parse(
                "recover,recover-star,norm-sub,base-cut",
            )?);
            for dataset in [DatasetKind::Ipums, DatasetKind::Fire] {
                for protocol in PROTOCOLS {
                    for attack in [
                        AttackKind::Mga { r: 10 },
                        AttackKind::Adaptive,
                        AttackKind::MgaIpa { r: 10 },
                    ] {
                        out.push(cell(
                            dataset,
                            protocol,
                            attack,
                            BATCHED_TRIALS,
                            seed,
                            &options,
                        )?);
                    }
                }
            }
        }
        Workload::ReportArmCells => {
            // The fig3/fig4 cell shape, then the fig9 cell shape.
            let detection =
                PipelineOptions::with_arms(ArmSet::parse("recover,recover-star,detection")?);
            let kmeans = PipelineOptions {
                kmeans: KMeansDefense::new(20, 0.5)?,
                ..PipelineOptions::with_arms(ArmSet::parse("recover,kmeans,recover-km")?)
            };
            for protocol in PROTOCOLS {
                let ipums = DatasetKind::Ipums;
                out.push(cell(
                    ipums,
                    protocol,
                    AttackKind::Mga { r: 10 },
                    REPORT_TRIALS,
                    seed,
                    &detection,
                )?);
                out.push(cell(
                    ipums,
                    protocol,
                    AttackKind::MgaIpa { r: 10 },
                    REPORT_TRIALS,
                    seed,
                    &kmeans,
                )?);
            }
        }
        Workload::CheckpointedStream => {}
    }
    Ok(out)
}

/// The two stream specs (GRR, then HR) of `checkpointed_stream`.
pub fn stream_specs(seed: u64) -> Vec<StreamSpec> {
    [ProtocolKind::Grr, ProtocolKind::Hr]
        .into_iter()
        .map(|protocol| StreamSpec {
            dataset: DatasetKind::Fire,
            protocol,
            epsilon: 0.5,
            attack: Some(AttackKind::Adaptive),
            beta: 0.05,
            eta: 0.2,
            shards: STREAM_SHARDS,
            epochs: STREAM_EPOCHS,
            users_per_epoch: STREAM_USERS_PER_EPOCH,
            seed,
            window: WindowMode::Sliding(STREAM_WINDOW),
        })
        .collect()
}

/// Everything the set-up phase builds.
pub struct Prepared {
    /// Cells of a cell workload.
    pub cells: Vec<Cell>,
    /// Stream specs of the stream workload.
    pub specs: Vec<StreamSpec>,
    /// Median wall time of one set-up phase, seconds.
    pub setup_s: f64,
}

/// The set-up phase, repeated [`SETUP_REPS`] times: configurations and
/// their validation, one protocol build per cell, `StreamEngine::new` for
/// each stream, and a warm-up call per cell or stream at
/// [`WARMUP_SCALE`] / [`WARMUP_EPOCHS`], so that first-touch costs land in
/// set-up rather than in the first timed call. Stream warm-ups round-trip
/// their checkpoint in memory: file I/O latency follows the host's disk
/// load, which would swamp a set-up phase of a few milliseconds.
///
/// # Errors
/// Propagates configuration, protocol-construction and warm-up failures.
pub fn prepare(workload: Workload, seed: u64) -> Result<Prepared> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let cells = cells(workload, seed)?;
        for c in &cells {
            std::hint::black_box(
                c.config
                    .protocol
                    .build(c.config.epsilon, c.config.dataset.domain())?,
            );
            let warmup = ExperimentConfig {
                scale: WARMUP_SCALE,
                ..c.config.clone()
            };
            std::hint::black_box(run_experiment(&warmup, &c.options)?);
        }
        let specs = if workload == Workload::CheckpointedStream {
            stream_specs(seed)
        } else {
            Vec::new()
        };
        for spec in &specs {
            std::hint::black_box(StreamEngine::new(*spec)?);
            let mut warmup = StreamEngine::new(StreamSpec {
                epochs: WARMUP_EPOCHS,
                ..*spec
            })?;
            warmup.run_to_completion()?;
            std::hint::black_box(StreamEngine::from_checkpoint(&Json::parse(
                &warmup.to_checkpoint().render(),
            )?)?);
        }
        times.push(start.elapsed().as_secs_f64());
        prepared = Some((cells, specs));
    }
    let (cells, specs) = prepared.expect("SETUP_REPS > 0");
    Ok(Prepared {
        cells,
        specs,
        setup_s: median(&mut times),
    })
}

/// Operations attempted and failed, degenerate arm outcomes, and the first
/// few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (cells, epochs, restores, identity checks).
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// Degenerate arm outcomes (documented, not failures).
    pub degenerate: u64,
    messages: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `problem` is `Some`.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(message);
            }
        }
    }

    /// Counts one operation from a `Result` whose `Ok` value is a list of
    /// check failures.
    pub fn record_result(&mut self, what: &str, outcome: Result<Vec<String>>) {
        match outcome {
            Ok(problems) if problems.is_empty() => self.record(None),
            Ok(problems) => self.record(Some(format!("{what}: {}", problems.join("; ")))),
            Err(e) => self.record(Some(format!("{what}: {e}"))),
        }
    }

    /// Failure messages recorded so far.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// What one timed `run_experiment` call produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Wall time of the call, seconds.
    pub secs: f64,
    /// The call's summary.
    pub result: ExperimentResult,
}

/// Every metric key the cell's arm selection produces.
fn expected_arm_keys(options: &PipelineOptions) -> Vec<&'static str> {
    options
        .arms
        .kinds()
        .iter()
        .map(|k| k.metric_key())
        .collect()
}

/// Output checks on one cell's summary: finite statistics for every arm,
/// and a recovered MSE below the poisoned one. Returns the problems found
/// and adds missing trials of each arm to `degenerate`.
pub fn check_cell(cell: &Cell, result: &ExperimentResult, degenerate: &mut u64) -> Vec<String> {
    let trials = cell.config.trials;
    let mut problems = Vec::new();
    let finite = |s: &ldp_sim::Stats| s.mean.is_finite() && s.std.is_finite();
    if !(finite(&result.mse_before) && finite(&result.mse_genuine)) {
        problems.push("non-finite baseline MSE".to_string());
    }
    for key in expected_arm_keys(&cell.options) {
        match result.arm(key).and_then(|a| a.mse) {
            Some(stats) => {
                if !finite(&stats) {
                    problems.push(format!("arm {key}: non-finite MSE"));
                }
                *degenerate += (trials - stats.count.min(trials)) as u64;
            }
            None => *degenerate += trials as u64,
        }
    }
    // Output poisoning (MGA, AA) raises the MSE far above the LDP noise
    // floor, and recovery must bring it below the poisoned MSE. Input
    // poisoning (MGA-IPA) runs Ψ honestly on the target items, so at
    // β = 0.05 its poisoned MSE sits within a few percent of the genuine
    // one and "below" is a coin flip over a few trials; there recovery
    // must not make the estimate materially worse.
    let limit = match cell.config.attack {
        Some(AttackKind::MgaIpa { .. }) => result.mse_before.mean * IPA_DEGRADATION_LIMIT,
        _ => result.mse_before.mean,
    };
    match result.mse_recover() {
        Some(r) if r.count == trials && r.mean < limit => {}
        Some(r) => problems.push(format!(
            "recovered MSE {} over {} trials is not below {limit} (poisoned MSE {})",
            r.mean, r.count, result.mse_before.mean
        )),
        None => problems.push("the recover arm produced no output".to_string()),
    }
    problems
}

/// Bit patterns of every statistic in a summary: two runs of the same
/// cell at the same seed must agree on all of them.
pub fn fingerprint(result: &ExperimentResult) -> Vec<u64> {
    let mut bits = Vec::new();
    let mut push = |s: &ldp_sim::Stats| {
        bits.extend([s.mean.to_bits(), s.std.to_bits(), s.count as u64]);
    };
    push(&result.mse_genuine);
    push(&result.mse_before);
    for (_, arm) in &result.arms {
        for stats in [arm.mse, arm.fg, arm.malicious_mse].into_iter().flatten() {
            push(&stats);
        }
    }
    bits
}

/// MSE(LDPRecover) / MSE(poisoned) of one cell.
pub fn recover_ratio(result: &ExperimentResult) -> f64 {
    result.mse_recover().map_or(f64::NAN, |r| r.mean) / result.mse_before.mean
}

/// Runs every cell once through `run_experiment`, timing each call, and
/// checks the outputs. `reference` holds the first pass's fingerprints;
/// later passes must reproduce them bit for bit.
pub fn run_cells_pass(
    cells: &[Cell],
    reference: &mut Vec<Option<Vec<u64>>>,
    tally: &mut Tally,
) -> Vec<Option<CellRun>> {
    reference.resize(cells.len(), None);
    let mut runs = Vec::with_capacity(cells.len());
    for (cell, expected) in cells.iter().zip(reference.iter_mut()) {
        let start = Instant::now();
        let outcome = run_experiment(&cell.config, &cell.options);
        let secs = start.elapsed().as_secs_f64();
        match outcome {
            Ok(result) => {
                let mut problems = check_cell(cell, &result, &mut tally.degenerate);
                let bits = fingerprint(&result);
                match expected {
                    Some(previous) if *previous != bits => {
                        problems.push("result differs from the previous pass".to_string());
                    }
                    Some(_) => {}
                    None => *expected = Some(bits),
                }
                tally.record_result(&cell.label, Ok(problems));
                runs.push(Some(CellRun { secs, result }));
            }
            Err(e) => {
                tally.record_result(&cell.label, Err(e));
                runs.push(None);
            }
        }
    }
    runs
}

/// Timings and outputs of one stream pass.
///
/// Time blocked in `write_atomic` (file write, `fsync`, rename) is kept
/// apart from every other figure: it follows the host's disk load, which
/// on a shared machine swung epoch latencies by 50% between runs of the
/// same code. The program's own cost of a checkpoint — building and
/// rendering it — stays in the epoch latency.
#[derive(Debug, Default)]
pub struct StreamPass {
    /// Per-epoch boundary latency (`step` + `to_checkpoint` + `render`),
    /// seconds.
    pub epoch_secs: Vec<f64>,
    /// Per-write latency of `write_atomic`, seconds.
    pub write_secs: Vec<f64>,
    /// Per-restore latency (read + parse + `from_checkpoint`), seconds.
    pub restore_secs: Vec<f64>,
    /// Wall time of each stream minus its `write_atomic` time, seconds.
    pub stream_secs: Vec<f64>,
    /// Each stream's quality figure (see [`check_final`]).
    pub final_ratios: Vec<f64>,
}

/// The checkpoint file of one stream in `dir`.
pub fn checkpoint_path(dir: &Path, spec: &StreamSpec) -> PathBuf {
    dir.join(format!("stream-{}.ckpt.json", spec.protocol))
}

/// Writes the engine's checkpoint (as `ldp stream --checkpoint` does) and
/// returns its size in bytes.
///
/// # Errors
/// Propagates the atomic write.
pub fn write_checkpoint(engine: &StreamEngine, path: &Path) -> Result<usize> {
    let text = engine.to_checkpoint().render();
    write_atomic(path, &text)?;
    Ok(text.len())
}

/// Reads a checkpoint back and restores an engine from it; returns the
/// engine and the bytes read.
///
/// # Errors
/// I/O, parse and validation failures.
pub fn read_checkpoint(path: &Path) -> Result<(StreamEngine, usize)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LdpError::invalid(format!("reading {}: {e}", path.display())))?;
    let engine = StreamEngine::from_checkpoint(&Json::parse(&text)?)?;
    Ok((engine, text.len()))
}

/// Output checks on one trajectory point.
pub fn check_point(point: &ldp_sim::EpochPoint) -> Vec<String> {
    let values = [point.mse_before, point.mse_recovered, point.mse_genuine];
    if values.iter().all(|v| v.is_finite() && *v >= 0.0) {
        Vec::new()
    } else {
        vec![format!("epoch {}: non-finite or negative MSE", point.epoch)]
    }
}

/// Output checks on a finished stream: the final recovered MSE must sit
/// below the poisoned one. Also returns the stream's quality figure: the
/// mean of MSE(recovered) / MSE(poisoned) over every epoch whose sliding
/// window is full (the final epoch alone swings by ±10% across seeds).
pub fn check_final(engine: &StreamEngine) -> (f64, Vec<String>) {
    let trajectory = engine.trajectory();
    let full: Vec<f64> = trajectory
        .iter()
        .skip(STREAM_WINDOW - 1)
        .map(|p| p.mse_recovered / p.mse_before)
        .collect();
    let ratio = if full.is_empty() {
        f64::NAN
    } else {
        mean(&full)
    };
    match trajectory.last() {
        Some(last) if last.mse_recovered < last.mse_before => (ratio, Vec::new()),
        Some(last) => (
            ratio,
            vec![format!(
                "final recovered MSE {} is not below poisoned MSE {}",
                last.mse_recovered, last.mse_before
            )],
        ),
        None => (ratio, vec!["the stream ingested no epoch".to_string()]),
    }
}

/// Runs every stream to completion through `StreamEngine::step`, writing a
/// checkpoint after every epoch and restoring one every
/// [`RESTORE_EVERY`] epochs. `reference` holds the first pass's final
/// engines; later passes must reproduce them.
pub fn run_stream_pass(
    specs: &[StreamSpec],
    dir: &Path,
    reference: &mut Vec<Option<StreamEngine>>,
    tally: &mut Tally,
) -> StreamPass {
    reference.resize(specs.len(), None);
    let mut pass = StreamPass::default();
    for (spec, expected) in specs.iter().zip(reference.iter_mut()) {
        let label = format!("stream {}", spec.protocol);
        let path = checkpoint_path(dir, spec);
        let start = Instant::now();
        let write = |text: &str, pass: &mut StreamPass| {
            let t0 = Instant::now();
            let written = write_atomic(&path, text);
            pass.write_secs.push(t0.elapsed().as_secs_f64());
            written
        };
        let writes_before = pass.write_secs.len();
        let mut engine = match StreamEngine::new(*spec).and_then(|engine| {
            write(&engine.to_checkpoint().render(), &mut pass)?;
            Ok(engine)
        }) {
            Ok(engine) => engine,
            Err(e) => {
                tally.record_result(&label, Err(e));
                continue;
            }
        };
        while !engine.is_complete() {
            let t0 = Instant::now();
            let stepped = engine
                .step()
                .map(|point| (point, engine.to_checkpoint().render()));
            pass.epoch_secs.push(t0.elapsed().as_secs_f64());
            let outcome = stepped.and_then(|(point, text)| write(&text, &mut pass).map(|()| point));
            let epoch = engine.epochs_done();
            match outcome {
                Ok(point) => tally.record_result(&label, Ok(check_point(&point))),
                Err(e) => {
                    tally.record_result(&label, Err(e));
                    break;
                }
            }
            if epoch % RESTORE_EVERY == 0 {
                let t0 = Instant::now();
                let restored = read_checkpoint(&path);
                pass.restore_secs.push(t0.elapsed().as_secs_f64());
                let outcome = restored.map(|(restored, _)| {
                    if restored == engine {
                        Vec::new()
                    } else {
                        vec![format!(
                            "restore at epoch {epoch} differs from the live engine"
                        )]
                    }
                });
                tally.record_result(&label, outcome);
            }
        }
        let io: f64 = pass.write_secs[writes_before..].iter().sum();
        pass.stream_secs.push(start.elapsed().as_secs_f64() - io);
        let (ratio, mut problems) = check_final(&engine);
        match expected {
            Some(previous) if *previous != engine => {
                problems.push("final state differs from the previous pass".to_string());
            }
            Some(_) => {}
            None => *expected = Some(engine),
        }
        pass.final_ratios.push(ratio);
        tally.record_result(&label, Ok(problems));
    }
    pass
}

/// This run's private work directory under [`WORK_DIR`], removed when
/// dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates the directory.
    ///
    /// # Errors
    /// I/O failures.
    pub fn create(workload: Workload, seed: u64) -> Result<Self> {
        let dir = Path::new(WORK_DIR).join(format!(
            "{}-seed{seed}-pid{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| LdpError::invalid(format!("creating {}: {e}", dir.display())))?;
        Ok(Self(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `pass` repeatedly until the next pass would overrun `seconds`
/// (always at least `min_passes`), returning each pass's wall time.
pub fn repeat_passes(seconds: f64, min_passes: usize, mut pass: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let t0 = Instant::now();
        pass();
        walls.push(t0.elapsed().as_secs_f64());
        let longest = walls.iter().copied().fold(0.0, f64::max);
        if walls.len() >= min_passes && start.elapsed().as_secs_f64() + longest > seconds {
            return walls;
        }
    }
}

/// Median (sorts in place). NaN for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by linear interpolation between order statistics
/// (sorts in place). NaN for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Geometric mean. NaN for an empty slice or a non-positive value.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || v.is_nan()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean. NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Each cell's median over passes of its `run_experiment` wall time,
/// seconds (NaN for a cell that never succeeded).
pub fn cell_medians(cells: &[Cell], passes: &[Vec<Option<CellRun>>]) -> Vec<f64> {
    (0..cells.len())
        .map(|i| {
            let mut secs: Vec<f64> = passes
                .iter()
                .filter_map(|pass| pass[i].as_ref())
                .map(|run| run.secs)
                .collect();
            median(&mut secs)
        })
        .collect()
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| LdpError::invalid(format!("reading /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| LdpError::invalid("no VmHWM line in /proc/self/status"))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Prints the human-readable table, then the result line (the last line
/// of standard output). `extra` rows are printed in the table only.
/// Returns whether the run is correct: nothing failed and every metric is
/// finite.
pub fn emit(args: &Args, tally: &Tally, metrics: &[Metric], extra: &[Metric]) -> bool {
    let non_finite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    let correct = tally.failed == 0 && non_finite.is_empty() && tally.attempted > 0;
    println!(
        "paperbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in metrics.iter().chain(extra) {
        println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted={} failed={} degenerate={}",
        tally.attempted, tally.failed, tally.degenerate
    );
    for message in tally.messages() {
        println!("  FAILED: {message}");
    }
    for name in &non_finite {
        println!("  FAILED: metric {name} is not finite");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    correct
}

/// The end-to-end metrics of a cell workload from its passes. Operation
/// latencies are taken over the cells' median latencies, so one slow pass
/// of one cell does not move a percentile.
pub fn cell_metrics(
    setup_s: f64,
    cells: &[Cell],
    walls: &[f64],
    passes: &[Vec<Option<CellRun>>],
) -> Result<Vec<Metric>> {
    let medians = cell_medians(cells, passes);
    let rates: Vec<f64> = cells
        .iter()
        .zip(&medians)
        .map(|(cell, secs)| cell.config.trials as f64 / secs)
        .collect();
    let mut ops: Vec<f64> = medians.iter().map(|secs| secs * 1e3).collect();
    let ratios: Vec<f64> = passes
        .first()
        .map(|pass| {
            pass.iter()
                .flatten()
                .map(|run| recover_ratio(&run.result))
                .collect()
        })
        .unwrap_or_default();
    let ratio = if ratios.len() == cells.len() {
        mean(&ratios)
    } else {
        f64::NAN
    };
    Ok(vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("wall_s", median(&mut walls.to_vec()), "s"),
        Metric::new("cell_trials_per_s_gmean", gmean(&rates), "trials/s"),
        Metric::new("op_ms_p50", quantile(&mut ops, 0.5), "ms"),
        Metric::new("op_ms_p95", quantile(&mut ops, 0.95), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        Metric::new("recover_mse_ratio", ratio, "ratio"),
    ])
}

/// Table-only rows for a cell workload: each cell's median latency.
pub fn cell_rows(cells: &[Cell], passes: &[Vec<Option<CellRun>>]) -> Vec<Metric> {
    cells
        .iter()
        .zip(cell_medians(cells, passes))
        .map(|(cell, secs)| Metric::new(format!("cell {}", cell.label), secs * 1e3, "ms"))
        .collect()
}

/// The end-to-end metrics of the stream workload from its passes. Each
/// pass's wall time is counted without its `write_atomic` time (see
/// [`StreamPass`]).
pub fn stream_metrics(setup_s: f64, walls: &[f64], passes: &[StreamPass]) -> Result<Vec<Metric>> {
    let mut walls: Vec<f64> = walls
        .iter()
        .zip(passes)
        .map(|(wall, pass)| wall - pass.write_secs.iter().sum::<f64>())
        .collect();
    let mut ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.epoch_secs)
        .map(|s| s * 1e3)
        .collect();
    let streams = passes.first().map_or(0, |p| p.stream_secs.len());
    let per_stream: Vec<f64> = (0..streams)
        .map(|i| {
            let mut rates: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.stream_secs.get(i))
                .map(|secs| STREAM_EPOCHS as f64 / secs)
                .collect();
            median(&mut rates)
        })
        .collect();
    let ratio = passes.first().map_or(f64::NAN, |p| mean(&p.final_ratios));
    Ok(vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("wall_s", median(&mut walls), "s"),
        Metric::new("cell_trials_per_s_gmean", gmean(&per_stream), "trials/s"),
        Metric::new("op_ms_p50", quantile(&mut ops, 0.5), "ms"),
        Metric::new("op_ms_p95", quantile(&mut ops, 0.95), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        Metric::new("recover_mse_ratio", ratio, "ratio"),
    ])
}

/// Table-only rows of the stream workload: restore and `write_atomic`
/// latencies.
pub fn stream_rows(passes: &[StreamPass]) -> Vec<Metric> {
    let mut restores: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.restore_secs.iter().copied())
        .collect();
    let mut writes: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.write_secs.iter().copied())
        .collect();
    vec![
        Metric::new("restore_ms_p50", quantile(&mut restores, 0.5) * 1e3, "ms"),
        Metric::new("restore_samples", restores.len() as f64, "count"),
        Metric::new("write_ms_p50", quantile(&mut writes, 0.5) * 1e3, "ms"),
        Metric::new("write_ms_p95", quantile(&mut writes, 0.95) * 1e3, "ms"),
    ]
}

/// Table-only rows: `failed_frac` and the number of timed operations.
pub fn extra_rows(tally: &Tally, ops: usize) -> Vec<Metric> {
    vec![
        Metric::new(
            "failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("op_samples", ops as f64, "count"),
    ]
}
