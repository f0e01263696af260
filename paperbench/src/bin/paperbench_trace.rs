//! Traced run (`--trace 1`): re-executes the workload stage by stage under
//! spans, proves the stage composition reproduces the library's own
//! results bit for bit, and prints the per-layer metrics.
//!
//! Each pass of the measured phase runs the workload once untraced (the
//! end-to-end path of the `paperbench` binary) and once traced; the
//! difference of their wall times is the tracing overhead. The staged
//! calls mirror `run_aggregation_with` / `apply_recoveries` for cells and
//! `shard_epoch_delta` then `apply_epoch_deltas` for streams. The first
//! traced pass is compared with `run_trial_with` and `StreamEngine::step`
//! outside the timed sections; any mismatch fails the run.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use ldp_common::rng::{derive_seed, derive_seed2, rng_from_seed};
use ldp_common::vecmath::{is_probability_vector, mse};
use ldp_common::{LdpError, Result};
use ldp_protocols::{CountAccumulator, LdpFrequencyProtocol, ProtocolScratch, Report};
use ldp_sim::pipeline::{run_trial_with, TrialArena, TrialResult};
use ldp_sim::runner::{map_trials, map_trials_with};
use ldp_sim::{shard_epoch_delta, ExperimentConfig, PipelineOptions, ShardDelta, StreamEngine};
use ldp_sim::{Stats, StreamSpec};
use ldprecover::{top_k_increase, ArmContext, ArmOutcome, ArmOutput};
use paperbench::trace::{self, child, span, span_with, Span};
use paperbench::{
    checkpoint_path, emit, median, prepare, quantile, read_checkpoint, run_cells_pass,
    run_stream_pass, write_checkpoint, Args, Cell, Metric, Tally, WorkDir, Workload, RESTORE_EVERY,
    WORK_DIR,
};
use rand::rngs::SmallRng;

/// Per-user reports are perturbed and folded in chunks of this size, as
/// the library's per-user path does (chunking changes no draw and no
/// count; it only batches the accumulator's kernel).
const REPORT_CHUNK: usize = 4096;

/// Span layers, each with the name of its work count.
const LAYERS: [(&str, &str); 17] = [
    ("datasets.sample_population", "calls"),
    ("protocols.aggregate_genuine", "users"),
    ("attacks.craft_malicious", "reports"),
    ("protocols.fold_malicious", "reports"),
    ("protocols.debias", "calls"),
    ("core.identify_targets", "calls"),
    ("core.arm.recover", "calls"),
    ("core.arm.star", "calls"),
    ("core.arm.detection", "calls"),
    ("core.arm.kmeans", "calls"),
    ("core.arm.norm_sub", "calls"),
    ("core.arm.base_cut", "calls"),
    ("sim.trial", "calls"),
    ("sim.stream.shard_delta", "calls"),
    ("sim.stream.apply_epoch", "calls"),
    ("sim.stream.checkpoint_write", "bytes"),
    ("sim.stream.checkpoint_read", "bytes"),
];

/// Counters that are not span totals.
static COUNTERS: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());

fn bump(name: &str, value: f64) {
    *COUNTERS
        .lock()
        .expect("counter lock")
        .entry(name.to_string())
        .or_insert(0.0) += value;
}

fn counter(name: &str) -> f64 {
    COUNTERS
        .lock()
        .expect("counter lock")
        .get(name)
        .copied()
        .unwrap_or(0.0)
}

/// The span layer of a defense arm, by registry name.
fn arm_layer(name: &str) -> &'static str {
    match name {
        "recover" => "core.arm.recover",
        "recover-star" => "core.arm.star",
        "detection" => "core.arm.detection",
        "kmeans" | "recover-km" => "core.arm.kmeans",
        "norm-sub" => "core.arm.norm_sub",
        "base-cut" => "core.arm.base_cut",
        _ => "core.arm.other",
    }
}

/// Per-worker reusable buffers of the staged trial.
#[derive(Default)]
struct Workspace {
    scratch: ProtocolScratch,
    chunk: Vec<Report>,
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if args.trace => args,
        Ok(_) => fail("this binary runs --trace 1; paperbench runs --trace 0"),
        Err(e) => fail(&e.to_string()),
    };
    let correct = match run(&args) {
        Ok(correct) => correct,
        Err(e) => fail(&e.to_string()),
    };
    std::process::exit(if correct { 0 } else { 1 });
}

fn fail(message: &str) -> ! {
    eprintln!("paperbench-trace: {message}");
    std::process::exit(2);
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run(args: &Args) -> Result<bool> {
    let prepared = prepare(args.workload, args.seed)?;
    let mut tally = Tally::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let start = Instant::now();
    if args.workload == Workload::CheckpointedStream {
        let dir = WorkDir::create(args.workload, args.seed)?;
        let mut reference = Vec::new();
        let mut pass = 0u64;
        loop {
            let t0 = Instant::now();
            run_stream_pass(&prepared.specs, dir.path(), &mut reference, &mut tally);
            untraced_walls.push(t0.elapsed().as_secs_f64());
            traced_walls.push(traced_stream_pass(
                &prepared.specs,
                dir.path(),
                pass,
                &mut tally,
            )?);
            pass += 1;
            if out_of_time(start, args.seconds, &untraced_walls, &traced_walls) {
                break;
            }
        }
    } else {
        let mut reference = Vec::new();
        let mut pass = 0u64;
        loop {
            let t0 = Instant::now();
            let runs = run_cells_pass(&prepared.cells, &mut reference, &mut tally);
            untraced_walls.push(t0.elapsed().as_secs_f64());
            let summaries: Vec<_> = runs.into_iter().map(|r| r.map(|r| r.result)).collect();
            traced_walls.push(traced_cells_pass(
                &prepared.cells,
                pass,
                &summaries,
                &mut tally,
            )?);
            pass += 1;
            if out_of_time(start, args.seconds, &untraced_walls, &traced_walls) {
                break;
            }
        }
    }
    let spans = trace::take();
    let (metrics, rows) = layer_metrics(&spans, &untraced_walls, &traced_walls, &mut tally);
    let path = Path::new(WORK_DIR).join("traces").join(format!(
        "{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    trace::write_tsv(&path, &spans)
        .map_err(|e| LdpError::invalid(format!("writing {}: {e}", path.display())))?;
    Ok(emit(args, &tally, &metrics, &rows))
}

/// Whether another untraced + traced iteration would overrun `seconds`.
fn out_of_time(start: Instant, seconds: f64, untraced: &[f64], traced: &[f64]) -> bool {
    let longest = untraced
        .iter()
        .zip(traced)
        .map(|(a, b)| a + b)
        .fold(0.0, f64::max);
    start.elapsed().as_secs_f64() + longest > seconds
}

/// The per-layer metrics, plus table-only rows of absolute self times.
///
/// Self time is reported as a share of the traced passes' core capacity
/// (wall × threads), so a layer a workload never enters reads 0 without
/// posing as a measured time; the absolute seconds go to the table.
fn layer_metrics(
    spans: &[Span],
    untraced_walls: &[f64],
    traced_walls: &[f64],
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<Metric>) {
    let totals = trace::totals(spans);
    let capacity = traced_walls.iter().sum::<f64>() * threads() as f64;
    let mut metrics = Vec::new();
    let mut rows = Vec::new();
    for (layer, count_name) in LAYERS {
        let t = totals.get(layer).copied().unwrap_or_default();
        metrics.push(Metric::new(
            format!("{layer}.self_share"),
            t.self_s / capacity,
            "ratio",
        ));
        let unit = if count_name == "bytes" {
            "bytes"
        } else {
            "count"
        };
        metrics.push(Metric::new(
            format!("{layer}.{count_name}"),
            t.count as f64,
            unit,
        ));
        if layer.starts_with("core.arm.") {
            let degenerate = counter(&format!("{layer}.degenerate"));
            metrics.push(Metric::new(
                format!("{layer}.degenerate"),
                degenerate,
                "count",
            ));
        }
        rows.push(Metric::new(format!("{layer}.self_s"), t.self_s, "s"));
    }
    let busy = counter("sim.runner.busy_s");
    let idle = counter("sim.runner.idle_s");
    metrics.push(Metric::new(
        "sim.runner.busy_share",
        busy / capacity,
        "ratio",
    ));
    metrics.push(Metric::new(
        "sim.runner.idle_share",
        idle / capacity,
        "ratio",
    ));
    rows.push(Metric::new("sim.runner.busy_s", busy, "s"));
    rows.push(Metric::new("sim.runner.idle_s", idle, "s"));
    let mut restores: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sim.stream.checkpoint_read")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
        .collect();
    if !restores.is_empty() {
        rows.push(Metric::new(
            "restore_ms_p50",
            quantile(&mut restores, 0.5),
            "ms",
        ));
    }

    let untraced = median(&mut untraced_walls.to_vec());
    let traced = median(&mut traced_walls.to_vec());
    metrics.push(Metric::new("bench.untraced_wall_s", untraced, "s"));
    metrics.push(Metric::new("bench.traced_wall_s", traced, "s"));
    metrics.push(Metric::new(
        "bench.trace_overhead_s",
        traced - untraced,
        "s",
    ));

    // Self times may not add up to more than the cores the traced passes
    // had: a larger sum would mean a span counted a core twice.
    let self_sum: f64 = totals.values().map(|t| t.self_s).sum();
    let share = self_sum / capacity;
    tally.record((share > 1.0).then(|| {
        format!(
            "layer self times sum to {self_sum} s, more than traced wall × threads = {capacity} s"
        )
    }));
    metrics.push(Metric::new("bench.self_share", share, "ratio"));
    metrics.push(Metric::new("bench.spans", spans.len() as f64, "count"));
    (metrics, rows)
}

// ---------------------------------------------------------------------------
// Cells.
// ---------------------------------------------------------------------------

/// One traced pass over the cells. Trials fan out over worker threads as in
/// `run_experiment`; the first pass is then checked against
/// `run_trial_with` and against the untraced pass's `run_experiment`
/// summaries. Returns the traced wall time.
fn traced_cells_pass(
    cells: &[Cell],
    pass: u64,
    summaries: &[Option<ldp_sim::ExperimentResult>],
    tally: &mut Tally,
) -> Result<f64> {
    let mut wall = 0.0;
    for (index, cell) in cells.iter().enumerate() {
        let config = &cell.config;
        let trials = config.trials;
        let workers = threads().min(trials).max(1);
        let t0 = Instant::now();
        let staged = map_trials_with(trials, workers, Workspace::default, |trial, ws| {
            let mut rng = rng_from_seed(derive_seed(config.seed, trial as u64));
            let trace_id = (pass << 32) | ((index as u64) << 16) | trial as u64;
            let t = Instant::now();
            let result = span(trace_id, "sim.trial", 1, || {
                staged_trial(config, &cell.options, &mut rng, ws)
            });
            Ok((result, t.elapsed().as_secs_f64()))
        })?;
        let cell_wall = t0.elapsed().as_secs_f64();
        wall += cell_wall;
        let busy: f64 = staged.iter().map(|(_, secs)| secs).sum();
        bump("sim.runner.busy_s", busy);
        bump("sim.runner.idle_s", cell_wall * workers as f64 - busy);
        let label = format!("traced {}", cell.label);
        if pass == 0 {
            let outcome = check_cell_identity(cell, &staged, summaries[index].as_ref());
            tally.record_result(&label, outcome);
        } else if let Some((Err(e), _)) = staged.iter().find(|(r, _)| r.is_err()) {
            tally.record(Some(format!("{label}: {e}")));
        }
    }
    Ok(wall)
}

/// Compares the staged trials of one cell with `run_trial_with` at the same
/// seeds and with the untraced `run_experiment` summary, and checks every
/// arm output.
fn check_cell_identity(
    cell: &Cell,
    staged: &[(Result<TrialResult>, f64)],
    summary: Option<&ldp_sim::ExperimentResult>,
) -> Result<Vec<String>> {
    let config = &cell.config;
    let mut problems = Vec::new();
    let mut arena = TrialArena::new();
    let mut before = Vec::new();
    let mut recovered = Vec::new();
    for (trial, (result, _)) in staged.iter().enumerate() {
        let result = result
            .as_ref()
            .map_err(|e| LdpError::invalid(format!("staged trial {trial}: {e}")))?;
        let mut rng = rng_from_seed(derive_seed(config.seed, trial as u64));
        let reference = run_trial_with(config, &cell.options, &mut rng, &mut arena)?;
        problems.extend(
            compare_trials(result, &reference)
                .into_iter()
                .map(|p| format!("trial {trial}: {p}")),
        );
        problems.extend(
            check_arm_outputs(result)
                .into_iter()
                .map(|p| format!("trial {trial}: {p}")),
        );
        before.push(mse(&result.poisoned, &result.true_freqs));
        if let Some(r) = result.recovered() {
            recovered.push(mse(r, &result.true_freqs));
        }
    }
    match summary {
        Some(summary) => {
            let same = |a: &Stats, b: &Stats| {
                a.mean.to_bits() == b.mean.to_bits()
                    && a.std.to_bits() == b.std.to_bits()
                    && a.count == b.count
            };
            if !same(&Stats::from_values(&before), &summary.mse_before) {
                problems.push("staged poisoned MSE differs from run_experiment".to_string());
            }
            match (Stats::from_optional(&recovered), summary.mse_recover()) {
                (Some(a), Some(b)) if same(&a, &b) => {}
                _ => problems.push("staged recovered MSE differs from run_experiment".to_string()),
            }
        }
        None => problems.push("no run_experiment summary to compare with".to_string()),
    }
    Ok(problems)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_opt(a: Option<&[f64]>, b: Option<&[f64]>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same_bits(a, b),
        (None, None) => true,
        _ => false,
    }
}

fn compare_trials(staged: &TrialResult, reference: &TrialResult) -> Vec<String> {
    let mut problems = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            problems.push(format!("{what} differs from run_trial_with"));
        }
    };
    check(
        same_bits(&staged.true_freqs, &reference.true_freqs),
        "truth",
    );
    check(
        same_bits(&staged.genuine, &reference.genuine),
        "genuine estimate",
    );
    check(
        same_bits(&staged.poisoned, &reference.poisoned),
        "poisoned estimate",
    );
    check(
        same_opt(
            staged.malicious_true.as_deref(),
            reference.malicious_true.as_deref(),
        ),
        "malicious estimate",
    );
    check(
        staged.star_targets == reference.star_targets,
        "identified targets",
    );
    check(
        staged.attack_targets == reference.attack_targets,
        "attack targets",
    );
    check(staged.degenerate == reference.degenerate, "degenerate arms");
    check(staged.arms.len() == reference.arms.len(), "arm list");
    for ((key_a, a), (key_b, b)) in staged.arms.iter().zip(&reference.arms) {
        check(
            key_a == key_b
                && same_bits(&a.frequencies, &b.frequencies)
                && same_opt(
                    a.malicious_estimate.as_deref(),
                    b.malicious_estimate.as_deref(),
                )
                && a.track_fg == b.track_fg,
            &format!("arm {key_a}"),
        );
    }
    problems
}

/// Every arm output must be finite; the refined arms (everything but the
/// raw Detection and k-means estimates) must land on the simplex.
fn check_arm_outputs(result: &TrialResult) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, output) in &result.arms {
        let finite = output.frequencies.iter().all(|v| v.is_finite())
            && output
                .malicious_estimate
                .as_ref()
                .is_none_or(|m| m.iter().all(|v| v.is_finite()));
        if !finite {
            problems.push(format!("arm {key}: non-finite output"));
        }
        let refined = !matches!(key.as_str(), "detection" | "kmeans");
        if refined && !is_probability_vector(&output.frequencies, 1e-9) {
            problems.push(format!("arm {key}: output is off the simplex"));
        }
    }
    problems
}

/// One trial, stage by stage, in the order of `run_aggregation_with`
/// followed by `apply_recoveries`.
fn staged_trial(
    config: &ExperimentConfig,
    options: &PipelineOptions,
    rng: &mut SmallRng,
    ws: &mut Workspace,
) -> Result<TrialResult> {
    config.validate()?;
    let batched = options.aggregation.use_batched(options.needs_reports())?;
    let (protocol, true_freqs, mut acc, mut reports, n) = if batched {
        let population = child("datasets.sample_population", 1, || {
            config.dataset.generate_counts(config.scale, rng)
        })?;
        let n = population.len();
        let protocol_and_counts = child("protocols.aggregate_genuine", n as u64, || {
            let protocol = config.protocol.build(config.epsilon, population.domain())?;
            let counts = protocol
                .batch_aggregate_with(population.counts(), rng, &mut ws.scratch)
                .unwrap_or_else(|| {
                    ldp_protocols::batch::grouped_support_counts(
                        &protocol,
                        population.counts(),
                        rng,
                    )
                });
            Ok::<_, LdpError>((protocol, counts))
        });
        let (protocol, counts) = protocol_and_counts?;
        let acc = CountAccumulator::from_parts(counts, n);
        (protocol, population.true_frequencies(), acc, None, n)
    } else {
        let dataset = child("datasets.sample_population", 1, || {
            config.dataset.generate(config.scale, rng)
        })?;
        let n = dataset.len();
        let m = config.malicious_count(n);
        let protocol = config.protocol.build(config.epsilon, dataset.domain())?;
        let mut reports: Option<Vec<Report>> =
            options.needs_reports().then(|| Vec::with_capacity(n + m));
        let acc = child("protocols.aggregate_genuine", n as u64, || {
            let mut acc = CountAccumulator::new(dataset.domain());
            let chunk = &mut ws.chunk;
            chunk.clear();
            for &item in dataset.items() {
                chunk.push(protocol.perturb(item as usize, rng));
                if chunk.len() == REPORT_CHUNK {
                    acc.add_batch(&protocol, chunk);
                    match reports.as_mut() {
                        Some(buf) => buf.append(chunk),
                        None => chunk.clear(),
                    }
                }
            }
            acc.add_batch(&protocol, chunk);
            match reports.as_mut() {
                Some(buf) => buf.append(chunk),
                None => chunk.clear(),
            }
            acc
        });
        (protocol, dataset.true_frequencies(), acc, reports.take(), n)
    };

    // The shared tail: debias, craft, fold, debias.
    let domain = protocol.domain();
    let params = protocol.params();
    let m = config.malicious_count(n);
    let genuine_freqs = child("protocols.debias", 1, || acc.frequencies(params))?;
    let (malicious_true, attack_targets) = if m > 0 {
        let kind = config
            .attack
            .ok_or_else(|| LdpError::invalid("beta > 0 without an attack"))?;
        let (attack, crafted) = child("attacks.craft_malicious", m as u64, || {
            let attack = kind.instantiate(domain, rng);
            let crafted = attack.craft(&protocol, m, rng);
            (attack, crafted)
        });
        let malicious = child("protocols.fold_malicious", m as u64, || {
            let mut malicious = CountAccumulator::new(domain);
            malicious.add_batch(&protocol, &crafted);
            acc.merge(&malicious);
            malicious
        });
        let targets = attack.targets().map(<[usize]>::to_vec);
        if let Some(buf) = reports.as_mut() {
            buf.extend(crafted);
        }
        let freqs = child("protocols.debias", 1, || malicious.frequencies(params))?;
        (Some(freqs), targets)
    } else {
        (None, None)
    };
    let poisoned_freqs = child("protocols.debias", 1, || acc.frequencies(params))?;

    // Recovery: target identification, then each arm in registry order.
    let star_targets = if options.arms.needs_targets() {
        match &attack_targets {
            Some(targets) => Some(targets.clone()),
            None if m > 0 => child("core.identify_targets", 1, || {
                top_k_increase(&poisoned_freqs, &genuine_freqs, options.star_top_k.max(1)).ok()
            }),
            None => None,
        }
    } else {
        None
    };
    let mut ctx = ArmContext::new(&poisoned_freqs, params, config.eta)
        .with_protocol(&protocol)
        .with_sum_model(options.sum_model)
        .with_post_process(options.post_process);
    if let Some(reports) = &reports {
        ctx = ctx.with_reports(reports);
    }
    if let Some(targets) = &star_targets {
        ctx = ctx.with_targets(targets);
    }
    let mut arms: Vec<(String, ArmOutput)> = Vec::new();
    let mut degenerate: Vec<(String, String)> = Vec::new();
    for arm in options.arms.build(&options.kmeans) {
        let layer = arm_layer(arm.name());
        match child(layer, 1, || arm.run(&ctx, rng))? {
            ArmOutcome::Outputs(outputs) => arms.extend(outputs),
            ArmOutcome::Degenerate { reason } => {
                bump(&format!("{layer}.degenerate"), 1.0);
                degenerate.push((arm.name().to_string(), reason));
            }
        }
    }
    Ok(TrialResult {
        true_freqs,
        genuine: genuine_freqs,
        poisoned: poisoned_freqs,
        arms,
        degenerate,
        malicious_true,
        star_targets,
        attack_targets,
    })
}

// ---------------------------------------------------------------------------
// Streams.
// ---------------------------------------------------------------------------

/// One shard's epoch delta, stage by stage, in the order of
/// `shard_epoch_delta`.
fn staged_delta(spec: &StreamSpec, shard: usize, epoch: usize) -> Result<ShardDelta> {
    let mut rng = rng_from_seed(derive_seed2(spec.seed, shard as u64, epoch as u64));
    let users = spec.shard_users(shard);
    let population = child("datasets.sample_population", 1, || {
        spec.dataset.generate_user_counts(users, &mut rng)
    })?;
    let domain = population.domain();
    let protocol_and_counts = child("protocols.aggregate_genuine", users as u64, || {
        let protocol = spec.protocol.build(spec.epsilon, domain)?;
        let counts = protocol
            .batch_aggregate(population.counts(), &mut rng)
            .unwrap_or_else(|| {
                ldp_protocols::batch::grouped_support_counts(
                    &protocol,
                    population.counts(),
                    &mut rng,
                )
            });
        Ok::<_, LdpError>((protocol, counts))
    });
    let (protocol, genuine_counts) = protocol_and_counts?;
    let m = spec.malicious_count(users);
    let mut malicious = CountAccumulator::new(domain);
    if m > 0 {
        let kind = spec
            .attack
            .ok_or_else(|| LdpError::invalid("beta > 0 without an attack"))?;
        let crafted = child("attacks.craft_malicious", m as u64, || {
            let attack = kind.instantiate(domain, &mut rng);
            attack.craft(&protocol, m, &mut rng)
        });
        child("protocols.fold_malicious", m as u64, || {
            malicious.add_all(&protocol, &crafted);
        });
    }
    Ok(ShardDelta {
        population: population.counts().to_vec(),
        genuine_counts,
        genuine_users: users,
        malicious_counts: malicious.counts().to_vec(),
        malicious_users: m,
    })
}

/// One traced pass over the streams: staged shard deltas in parallel,
/// `apply_epoch_deltas`, a checkpoint write per epoch and a restore every
/// [`RESTORE_EVERY`] epochs. The first pass is checked against
/// `shard_epoch_delta` and an engine driven by `step`. Returns the traced
/// wall time, which excludes those checks.
fn traced_stream_pass(
    specs: &[StreamSpec],
    dir: &Path,
    pass: u64,
    tally: &mut Tally,
) -> Result<f64> {
    let mut wall = 0.0;
    for (index, spec) in specs.iter().enumerate() {
        let label = format!("traced stream {}", spec.protocol);
        let path = checkpoint_path(dir, spec);
        let check = pass == 0;
        let t0 = Instant::now();
        let mut engine = StreamEngine::new(*spec)?;
        let stream_trace = (pass << 32) | ((index as u64) << 24);
        span_with(stream_trace, "sim.stream.checkpoint_write", || {
            let written = write_checkpoint(&engine, &path);
            let bytes = written.as_ref().map_or(0, |b| *b as u64);
            (written, bytes)
        })?;
        wall += t0.elapsed().as_secs_f64();
        let mut reference = if check {
            Some(StreamEngine::new(*spec)?)
        } else {
            None
        };
        for epoch in 0..spec.epochs {
            let trace_id = stream_trace | epoch as u64;
            let t0 = Instant::now();
            let deltas = map_trials(spec.shards, threads().min(spec.shards), |shard| {
                Ok(span(trace_id, "sim.stream.shard_delta", 1, || {
                    staged_delta(spec, shard, epoch)
                }))
            })?;
            let tagged: Vec<(usize, ShardDelta)> = deltas
                .into_iter()
                .enumerate()
                .map(|(shard, delta)| delta.map(|d| (shard, d)))
                .collect::<Result<_>>()?;
            let point = span(trace_id, "sim.stream.apply_epoch", 1, || {
                engine.apply_epoch_deltas(epoch, &tagged)
            });
            let written = span_with(trace_id, "sim.stream.checkpoint_write", || {
                let written = write_checkpoint(&engine, &path);
                let bytes = written.as_ref().map_or(0, |b| *b as u64);
                (written, bytes)
            });
            let restored = ((epoch + 1) % RESTORE_EVERY == 0).then(|| {
                span_with(trace_id, "sim.stream.checkpoint_read", || {
                    let restored = read_checkpoint(&path);
                    let bytes = restored.as_ref().map_or(0, |(_, b)| *b as u64);
                    (restored.map(|(engine, _)| engine), bytes)
                })
            });
            wall += t0.elapsed().as_secs_f64();

            let mut problems = Vec::new();
            if let Err(e) = point.and(written) {
                problems.push(e.to_string());
            }
            if let Some(restored) = restored {
                match restored {
                    Ok(restored) if restored == engine => {}
                    Ok(_) => problems.push(format!(
                        "restore at epoch {epoch} differs from the live engine"
                    )),
                    Err(e) => problems.push(format!("restore at epoch {epoch}: {e}")),
                }
            }
            if let Some(reference) = reference.as_mut() {
                reference.step()?;
                for (shard, delta) in &tagged {
                    if *delta != shard_epoch_delta(spec, *shard, epoch)? {
                        problems.push(format!("epoch {epoch} shard {shard}: staged delta differs from shard_epoch_delta"));
                    }
                }
                if *reference != engine {
                    problems.push(format!(
                        "epoch {epoch}: engine state differs from StreamEngine::step"
                    ));
                }
            }
            let failed = !problems.is_empty();
            tally.record_result(&label, Ok(problems));
            if failed {
                break;
            }
        }
    }
    Ok(wall)
}
