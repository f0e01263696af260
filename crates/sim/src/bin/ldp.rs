//! `ldp` — run a single LDPRecover experiment cell from the command
//! line, or reproduce whole paper figures via the `repro` subcommand.
//!
//! ```text
//! cargo run --release -p ldp-sim --bin ldp -- \
//!     --dataset ipums --protocol oue --attack mga --targets 10 \
//!     --beta 0.05 --eta 0.2 --epsilon 0.5 --trials 5 --scale 0.1
//!
//! cargo run --release -p ldp-sim --bin ldp -- \
//!     repro --figure fig3 --scale small --json fig3.json
//! ```
//!
//! The default mode prints MSE (and FG for targeted attacks) for every
//! recovery arm — the full method comparison of the paper's Fig. 3/4 for
//! any parameter combination. `repro` drives the scenario catalog
//! (`ldp_sim::scenario::catalog`): one figure id or `all`, at a named
//! scale preset or an explicit fraction.

use ldp_attacks::AttackKind;
use ldp_common::json::write_atomic;
use ldp_common::{Json, LdpError, Result};
use ldp_datasets::{DatasetKind, ScalePreset};
use ldp_protocols::ProtocolKind;
use ldp_sim::scenario::{catalog, check_scenario, run_scenario, RunScale, ScaleSpec};
use ldp_sim::stream::{check_count_only, StreamEngine, StreamSpec, WindowMode};
use ldp_sim::table::{fmt_mean, fmt_stat};
use ldp_sim::{
    run_experiment, AggregationMode, ExperimentConfig, PipelineOptions, Table, DEFAULT_SEED,
};
use ldprecover::{ArmKind, ArmSet};

const USAGE: &str = "\
ldp — run one LDPRecover experiment cell
ldp repro — reproduce whole paper figures (see `ldp repro --help`)
ldp stream — sharded streaming ingestion with per-epoch recovery
             (see `ldp stream --help`)

options:
  --dataset ipums|fire          workload                [ipums]
  --protocol grr|oue|olh|sue|hr LDP protocol            [grr]
  --attack manip|mga|mga-sampled|aa|aa-camo|mga-ipa|multi|none
                                poisoning attack        [aa]
  --targets N                   r for targeted attacks / |H| for manip [10]
  --attackers N                 attackers for `multi`   [5]
  --beta F                      malicious fraction      [0.05]
  --eta F                       recovery's assumed m/n  [0.2]
  --epsilon F                   privacy budget          [0.5]
  --trials N                    trials to average       [5]
  --scale F                     population scale (0,1]  [0.1]
  --seed N                      master seed             [0x1db05eed]
  --aggregation per-user|batched|auto
                                genuine-user aggregation [auto]
  --arms a,b,c                  defense arms to run, from the registry:
                                recover, recover-star, detection, kmeans,
                                recover-km, norm-sub, base-cut
                                [default: full comparison when attacked]
  --csv                         CSV output
  --help                        this text";

struct Args {
    dataset: DatasetKind,
    protocol: ProtocolKind,
    attack: Option<AttackKind>,
    targets: usize,
    attackers: usize,
    beta: f64,
    eta: f64,
    epsilon: f64,
    trials: usize,
    scale: f64,
    seed: u64,
    aggregation: AggregationMode,
    arms: Option<ArmSet>,
    csv: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            dataset: DatasetKind::Ipums,
            protocol: ProtocolKind::Grr,
            attack: Some(AttackKind::Adaptive),
            targets: 10,
            attackers: 5,
            beta: 0.05,
            eta: 0.2,
            epsilon: 0.5,
            trials: 5,
            scale: 0.1,
            seed: 0x1DB0_5EED,
            aggregation: AggregationMode::Auto,
            arms: None,
            csv: false,
        }
    }
}

fn parse_args<I: Iterator<Item = String>>(mut iter: I) -> Result<Args> {
    let mut args = Args::default();
    let mut attack_name = "aa".to_string();
    let mut explicit_none = false;
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<String> {
            iter.next()
                .ok_or_else(|| LdpError::invalid(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--dataset" => args.dataset = DatasetKind::parse(&value("--dataset")?)?,
            "--protocol" => args.protocol = ProtocolKind::parse(&value("--protocol")?)?,
            "--attack" => {
                attack_name = value("--attack")?.to_ascii_lowercase();
                explicit_none = attack_name == "none";
            }
            "--targets" => args.targets = parse_num(&value("--targets")?, "--targets")?,
            "--attackers" => args.attackers = parse_num(&value("--attackers")?, "--attackers")?,
            "--beta" => args.beta = parse_f64(&value("--beta")?, "--beta")?,
            "--eta" => args.eta = parse_f64(&value("--eta")?, "--eta")?,
            "--epsilon" => args.epsilon = parse_f64(&value("--epsilon")?, "--epsilon")?,
            "--trials" => args.trials = parse_num(&value("--trials")?, "--trials")?,
            "--scale" => args.scale = parse_f64(&value("--scale")?, "--scale")?,
            "--seed" => args.seed = parse_seed(&value("--seed")?)?,
            "--aggregation" => {
                args.aggregation = AggregationMode::parse(&value("--aggregation")?)?;
            }
            "--arms" => args.arms = Some(ArmSet::parse(&value("--arms")?)?),
            "--csv" => args.csv = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(LdpError::invalid(format!("unknown flag '{other}'"))),
        }
    }
    args.attack = resolve_attack(&attack_name, args.targets, args.attackers)?;
    if explicit_none {
        args.beta = 0.0;
    }
    Ok(args)
}

/// Maps a CLI attack name ([`AttackKind::name`]) to an [`AttackKind`]:
/// `--attackers` sets a `multi` attack's parameter, `--targets` every
/// other kind's. `"none"` disables the attack.
fn resolve_attack(name: &str, targets: usize, attackers: usize) -> Result<Option<AttackKind>> {
    if name == "none" {
        return Ok(None);
    }
    let param = |key: &str| {
        Ok(if key == "attackers" {
            attackers
        } else {
            targets
        })
    };
    match AttackKind::from_name(name, param)? {
        None => Err(LdpError::invalid(format!("unknown attack '{name}'"))),
        kind => Ok(kind),
    }
}

fn parse_num(s: &str, flag: &str) -> Result<usize> {
    s.parse()
        .map_err(|e| LdpError::invalid(format!("{flag}: {e}")))
}

/// Parses a `--seed` value: decimal, or hex with a `0x` prefix — the form
/// every usage text and the `ldp stream` header print.
fn parse_seed(s: &str) -> Result<u64> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| LdpError::invalid(format!("--seed: {e}")))
}

fn parse_f64(s: &str, flag: &str) -> Result<f64> {
    s.parse()
        .map_err(|e| LdpError::invalid(format!("{flag}: {e}")))
}

const REPRO_USAGE: &str = "\
ldp repro — reproduce the paper's figures from the scenario catalog

options:
  --figure ID|all               which figure (fig3..fig10, table1,
                                ablations, kv_extension, stream_online,
                                stream_windowed, defense_arms) [all]
  --scale small|paper|F         scale preset or fraction       [small]
  --trials N                    trials per cell    [preset default: 5/10]
  --seed N                      master seed              [0x1db05eed]
  --json PATH                   write JSON report(s); a directory when
                                several figures run
  --csv                         CSV tables
  --help                        this text";

/// Parsed `ldp repro` options.
struct ReproArgs {
    figure: String,
    scale: ScaleSpec,
    trials: Option<usize>,
    seed: u64,
    json: Option<std::path::PathBuf>,
    csv: bool,
}

fn parse_repro_args<I: Iterator<Item = String>>(mut iter: I) -> Result<ReproArgs> {
    let mut args = ReproArgs {
        figure: "all".to_string(),
        scale: ScaleSpec::Preset(ScalePreset::Small),
        trials: None,
        seed: DEFAULT_SEED,
        json: None,
        csv: false,
    };
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<String> {
            iter.next()
                .ok_or_else(|| LdpError::invalid(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--figure" => args.figure = value("--figure")?.to_ascii_lowercase(),
            "--scale" => args.scale = ScaleSpec::parse(&value("--scale")?)?,
            "--trials" => args.trials = Some(parse_num(&value("--trials")?, "--trials")?),
            "--seed" => args.seed = parse_seed(&value("--seed")?)?,
            "--json" => args.json = Some(value("--json")?.into()),
            "--csv" => args.csv = true,
            "--help" | "-h" => {
                println!("{REPRO_USAGE}");
                std::process::exit(0);
            }
            other => return Err(LdpError::invalid(format!("unknown flag '{other}'"))),
        }
    }
    Ok(args)
}

impl ReproArgs {
    /// The engine scale: explicit `--trials` wins, otherwise the preset's
    /// default (5 for `small`, the paper's 10 otherwise).
    fn run_scale(&self) -> RunScale {
        let trials = self.trials.unwrap_or(match self.scale {
            ScaleSpec::Preset(preset) => preset.trials(),
            ScaleSpec::Fraction(_) => 10,
        });
        RunScale {
            trials,
            seed: self.seed,
            scale: self.scale,
        }
    }
}

/// Fail fast — before any simulation work — when an output flag is empty
/// or points into a directory that does not exist, instead of surfacing a
/// bare io error (or losing a long run's output) at write time.
fn validate_output_parent(flag: &str, path: &std::path::Path) -> Result<()> {
    if path.as_os_str().is_empty() {
        // `Path::parent` is `None` here too, but there is nothing to write to.
        return Err(LdpError::invalid(format!(
            "{flag}: empty path (name a file or directory to write)"
        )));
    }
    let parent = match path.parent() {
        // A bare filename resolves against the current directory.
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => return Ok(()),
    };
    if parent.is_dir() {
        Ok(())
    } else {
        Err(LdpError::invalid(format!(
            "{flag} {}: parent directory {} does not exist (create it first)",
            path.display(),
            parent.display()
        )))
    }
}

/// [`validate_output_parent`] for an output that must be a file: an
/// existing directory at `path` is rejected up front too, since the write
/// (an atomic rename) would fail only after the run.
fn validate_output_file(flag: &str, path: &std::path::Path) -> Result<()> {
    validate_output_parent(flag, path)?;
    if path.is_dir() {
        return Err(LdpError::invalid(format!(
            "{flag} {}: is a directory (name a file to write)",
            path.display()
        )));
    }
    Ok(())
}

/// When several figures run, `--json` names a directory that receives
/// one report each: an existing file there is rejected up front, since
/// creating the directory would fail only after the first figure ran.
fn validate_report_dir(flag: &str, path: &std::path::Path) -> Result<()> {
    if path.exists() && !path.is_dir() {
        return Err(LdpError::invalid(format!(
            "{flag} {}: is not a directory (several figures write one report each into a \
             directory; name a directory, or select one figure with --figure)",
            path.display()
        )));
    }
    Ok(())
}

fn repro_main<I: Iterator<Item = String>>(iter: I) -> Result<()> {
    let args = parse_repro_args(iter)?;
    let several = args.figure == "all";
    if let Some(path) = &args.json {
        validate_output_parent("--json", path)?;
        if several {
            validate_report_dir("--json", path)?;
        }
    }
    let ids: Vec<&str> = if several {
        catalog::FIGURE_IDS.to_vec()
    } else {
        vec![args.figure.as_str()]
    };
    // Every selected figure is resolved and checked at the run scale
    // before the first one runs, so an unknown figure or a scale too
    // small for a later figure fails before any row is printed.
    let scale = args.run_scale();
    let scenarios = ids
        .iter()
        .map(|id| catalog::scenario(id))
        .collect::<Result<Vec<_>>>()?;
    for scenario in &scenarios {
        check_scenario(scenario, &scale)?;
    }
    for scenario in &scenarios {
        let report = run_scenario(scenario, &scale)?;
        print!("{}", report.render_text(args.csv));
        if let Some(path) = &args.json {
            let written = report.write_json(path, several)?;
            eprintln!("wrote {}", written.display());
        }
    }
    Ok(())
}

const STREAM_USAGE: &str = "\
ldp stream — sharded streaming ingestion with epoch-based online recovery

Synthetic genuine+malicious traffic is fanned across shards (each with its
own derived RNG stream), merged at every epoch boundary, and re-recovered,
producing a recovery-accuracy-vs-reports-seen trajectory. With
--checkpoint the full engine state is written (atomically) after every
epoch; --resume continues a suspended run bit-identically (same bytes as
uninterrupted).

options:
  --dataset ipums|fire          workload                [ipums]
  --protocol grr|oue|olh|sue|hr LDP protocol            [grr]
  --attack manip|mga|mga-sampled|aa|aa-camo|mga-ipa|multi|none
                                poisoning campaign      [aa]
  --targets N                   r for targeted attacks / |H| for manip [10]
  --attackers N                 attackers for `multi`   [5]
  --beta F                      malicious fraction      [0.05]
  --eta F                       recovery's assumed m/n  [0.2]
  --epsilon F                   privacy budget          [0.5]
  --shards N                    ingestion shards        [4]
  --epochs N                    stream length           [8]
  --users-per-epoch N           genuine users per epoch [5000]
  --seed N                      master seed             [0x1db05eed]
  --window cumulative|sliding:N|decay:L
                                recovery window over epochs: all epochs,
                                the last N, or exponential decay with
                                factor L in (0,1)       [cumulative]
  --checkpoint PATH             write the engine state after every epoch
  --resume PATH                 restore from a checkpoint (spec flags, if
                                repeated, must match the checkpoint spec)
  --suspend-after N             stop once N epochs are done (for --resume)
  --arms a,b,c                  also evaluate these count-only defense arms
                                on the final merged state (recover,
                                recover-star, norm-sub, base-cut)
  --json PATH                   write the JSON report (spec + trajectory)
  --csv                         CSV trajectory table
  --help                        this text";

/// Parsed `ldp stream` options.
struct StreamArgs {
    spec: StreamSpec,
    /// The spec-shaping flags that were explicitly given — with --resume
    /// each is diffed field-by-field against the checkpoint's spec.
    spec_flags: Vec<&'static str>,
    checkpoint: Option<std::path::PathBuf>,
    resume: Option<std::path::PathBuf>,
    suspend_after: Option<usize>,
    arms: Option<ArmSet>,
    json: Option<std::path::PathBuf>,
    csv: bool,
}

fn parse_stream_args<I: Iterator<Item = String>>(mut iter: I) -> Result<StreamArgs> {
    let mut spec = StreamSpec {
        dataset: DatasetKind::Ipums,
        protocol: ProtocolKind::Grr,
        attack: Some(AttackKind::Adaptive),
        epsilon: 0.5,
        beta: 0.05,
        eta: 0.2,
        shards: 4,
        epochs: 8,
        users_per_epoch: 5000,
        seed: DEFAULT_SEED,
        window: WindowMode::Cumulative,
    };
    let mut attack_name = "aa".to_string();
    let mut targets = 10usize;
    let mut attackers = 5usize;
    let mut args = StreamArgs {
        spec,
        spec_flags: Vec::new(),
        checkpoint: None,
        resume: None,
        suspend_after: None,
        arms: None,
        json: None,
        csv: false,
    };
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<String> {
            iter.next()
                .ok_or_else(|| LdpError::invalid(format!("{name} requires a value")))
        };
        // Spec-shaping flags record their name for the --resume diff.
        let mut spec_flag: Option<&'static str> = None;
        match flag.as_str() {
            "--dataset" => {
                spec.dataset = DatasetKind::parse(&value("--dataset")?)?;
                spec_flag = Some("--dataset");
            }
            "--protocol" => {
                spec.protocol = ProtocolKind::parse(&value("--protocol")?)?;
                spec_flag = Some("--protocol");
            }
            "--attack" => {
                attack_name = value("--attack")?.to_ascii_lowercase();
                spec_flag = Some("--attack");
            }
            "--targets" => {
                targets = parse_num(&value("--targets")?, "--targets")?;
                spec_flag = Some("--attack");
            }
            "--attackers" => {
                attackers = parse_num(&value("--attackers")?, "--attackers")?;
                spec_flag = Some("--attack");
            }
            "--beta" => {
                spec.beta = parse_f64(&value("--beta")?, "--beta")?;
                spec_flag = Some("--beta");
            }
            "--eta" => {
                spec.eta = parse_f64(&value("--eta")?, "--eta")?;
                spec_flag = Some("--eta");
            }
            "--epsilon" => {
                spec.epsilon = parse_f64(&value("--epsilon")?, "--epsilon")?;
                spec_flag = Some("--epsilon");
            }
            "--shards" => {
                spec.shards = parse_num(&value("--shards")?, "--shards")?;
                spec_flag = Some("--shards");
            }
            "--epochs" => {
                spec.epochs = parse_num(&value("--epochs")?, "--epochs")?;
                spec_flag = Some("--epochs");
            }
            "--users-per-epoch" => {
                spec.users_per_epoch =
                    parse_num(&value("--users-per-epoch")?, "--users-per-epoch")?;
                spec_flag = Some("--users-per-epoch");
            }
            "--seed" => {
                spec.seed = parse_seed(&value("--seed")?)?;
                spec_flag = Some("--seed");
            }
            "--window" => {
                spec.window = WindowMode::parse(&value("--window")?)?;
                spec_flag = Some("--window");
            }
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?.into()),
            "--resume" => args.resume = Some(value("--resume")?.into()),
            "--suspend-after" => {
                args.suspend_after =
                    Some(parse_num(&value("--suspend-after")?, "--suspend-after")?);
            }
            "--arms" => {
                let arms = ArmSet::parse(&value("--arms")?)?;
                check_count_only(&arms)?;
                args.arms = Some(arms);
            }
            "--json" => args.json = Some(value("--json")?.into()),
            "--csv" => args.csv = true,
            "--help" | "-h" => {
                println!("{STREAM_USAGE}");
                std::process::exit(0);
            }
            other => return Err(LdpError::invalid(format!("unknown flag '{other}'"))),
        }
        if let Some(name) = spec_flag {
            if !args.spec_flags.contains(&name) {
                args.spec_flags.push(name);
            }
        }
    }
    spec.attack = resolve_attack(&attack_name, targets, attackers)?;
    if spec.attack.is_none() {
        spec.beta = 0.0;
    }
    args.spec = spec;
    Ok(args)
}

/// The CLI surface form of an attack spec, for --resume diff messages:
/// the name, then the parameter under its flag's name.
fn attack_cli_form(attack: Option<AttackKind>) -> String {
    let Some(kind) = attack else {
        return "none".into();
    };
    match kind.param() {
        None => kind.name().into(),
        Some(("attackers", n)) => format!("{} (attackers {n})", kind.name()),
        Some((_, n)) => format!("{} (targets {n})", kind.name()),
    }
}

/// Field-by-field diff of the explicitly given spec flags against a
/// checkpoint's restored spec. Empty when every given flag agrees — such
/// a resume is allowed; any disagreement makes `ldp stream` fail fast
/// with one line per conflicting field.
///
/// Values are compared via their rendered forms; f64's Display is
/// shortest-roundtrip, so equal strings means bit-equal floats.
fn resume_spec_conflicts(
    flags: &[&'static str],
    cli: &StreamSpec,
    checkpoint: &StreamSpec,
) -> Vec<String> {
    let mut lines = Vec::new();
    for &flag in flags {
        let (given, stored) = match flag {
            "--dataset" => (cli.dataset.to_string(), checkpoint.dataset.to_string()),
            "--protocol" => (cli.protocol.to_string(), checkpoint.protocol.to_string()),
            "--attack" => (
                attack_cli_form(cli.attack),
                attack_cli_form(checkpoint.attack),
            ),
            "--beta" => (cli.beta.to_string(), checkpoint.beta.to_string()),
            "--eta" => (cli.eta.to_string(), checkpoint.eta.to_string()),
            "--epsilon" => (cli.epsilon.to_string(), checkpoint.epsilon.to_string()),
            "--shards" => (cli.shards.to_string(), checkpoint.shards.to_string()),
            "--epochs" => (cli.epochs.to_string(), checkpoint.epochs.to_string()),
            "--users-per-epoch" => (
                cli.users_per_epoch.to_string(),
                checkpoint.users_per_epoch.to_string(),
            ),
            "--seed" => (
                format!("{:#x}", cli.seed),
                format!("{:#x}", checkpoint.seed),
            ),
            "--window" => (cli.window.name(), checkpoint.window.name()),
            other => (format!("unknown spec flag {other}"), String::new()),
        };
        if given != stored {
            lines.push(format!("  {flag}: flag {given} != checkpoint {stored}"));
        }
    }
    lines
}

fn stream_main<I: Iterator<Item = String>>(iter: I) -> Result<()> {
    let args = parse_stream_args(iter)?;
    if let Some(path) = &args.json {
        validate_output_file("--json", path)?;
    }
    if let Some(path) = &args.checkpoint {
        validate_output_file("--checkpoint", path)?;
    }
    let mut engine = match &args.resume {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                std::io::Error::new(e.kind(), format!("--resume {}: {e}", path.display()))
            })?;
            let engine = StreamEngine::from_checkpoint(&Json::parse(&text)?)?;
            let conflicts = resume_spec_conflicts(&args.spec_flags, &args.spec, engine.spec());
            if !conflicts.is_empty() {
                return Err(LdpError::invalid(format!(
                    "--resume {}: the checkpoint's spec disagrees with the given spec flags:\n\
                     {}\n(drop the conflicting flags, or start a fresh run without --resume)",
                    path.display(),
                    conflicts.join("\n")
                )));
            }
            engine
        }
        None => StreamEngine::new(args.spec)?,
    };
    let horizon = args
        .suspend_after
        .map_or(engine.spec().epochs, |e| e.min(engine.spec().epochs));
    let checkpoint_after = |engine: &StreamEngine| -> Result<()> {
        if let Some(path) = &args.checkpoint {
            write_atomic(path, &engine.to_checkpoint().render())?;
        }
        Ok(())
    };
    // Dump the starting state too, so the checkpoint file exists (and the
    // resume hint below holds) even if no epoch runs before suspension.
    checkpoint_after(&engine)?;
    while engine.epochs_done() < horizon {
        engine.step()?;
        checkpoint_after(&engine)?;
    }

    let spec = *engine.spec();
    println!(
        "stream {}  (dataset={}, eps={}, beta={}, eta={}, shards={}, epochs={}/{}, \
         users/epoch={}, seed={:#x})\n",
        spec.label(),
        spec.dataset,
        spec.epsilon,
        spec.beta,
        spec.eta,
        spec.shards,
        engine.epochs_done(),
        spec.epochs,
        spec.users_per_epoch,
        spec.seed
    );
    let mut table = Table::new([
        "epoch",
        "reports",
        "MSE before",
        "MSE LDPRecover",
        "noise floor",
    ]);
    for point in engine.trajectory() {
        table.push_row([
            format!("{}", point.epoch + 1),
            format!("{}", point.reports_seen),
            format!("{:.3e}", point.mse_before),
            format!("{:.3e}", point.mse_recovered),
            format!("{:.3e}", point.mse_genuine),
        ]);
    }
    if args.csv {
        print!("{}", table.render_csv());
    } else {
        print!("{}", table.render());
    }
    if engine.epochs_done() < spec.epochs {
        println!(
            "\nsuspended after {} of {} epochs{}",
            engine.epochs_done(),
            spec.epochs,
            args.checkpoint
                .as_deref()
                .map(|p| format!(" (resume with --resume {})", p.display()))
                .unwrap_or_default()
        );
    }

    // Optional evaluation of the final state: any count-only arm set,
    // eligibility decided by each kind's declared inputs, scored against
    // the truth the arms ran on (the window's in a windowed mode).
    let snapshot = match &args.arms {
        Some(arms) if engine.epochs_done() > 0 => Some(engine.arm_snapshot(arms)?),
        Some(_) => {
            eprintln!("note: --arms skipped (no epochs ingested, nothing to evaluate)");
            None
        }
        None => None,
    };
    if let (Some(arms), Some(snapshot)) = (&args.arms, &snapshot) {
        // The snapshot is one trial.
        note_missing_arms(arms, 1, |kind| {
            usize::from(snapshot.arm(kind.metric_key()).is_some())
        });
    }
    if let Some(snapshot) = &snapshot {
        let mut arm_table = Table::new(["arm", "MSE (final state)"]);
        for (key, output) in &snapshot.arms {
            arm_table.push_row([
                arm_column_label(key),
                format!(
                    "{:.3e}",
                    ldp_sim::metrics::mse(&output.frequencies, &snapshot.true_freqs)
                ),
            ]);
        }
        println!("\narms on the final merged state:");
        if args.csv {
            print!("{}", arm_table.render_csv());
        } else {
            print!("{}", arm_table.render());
        }
    }

    if let Some(path) = &args.json {
        let mut report = engine.report()?;
        // The arms block is additive and only present when requested, so
        // default reports stay byte-identical across resume boundaries.
        if let (Some(snapshot), Json::Obj(fields)) = (&snapshot, &mut report) {
            let arms_json = snapshot
                .arms
                .iter()
                .map(|(key, output)| {
                    (
                        key.clone(),
                        Json::Obj(vec![
                            (
                                "mse".into(),
                                Json::Num(ldp_sim::metrics::mse(
                                    &output.frequencies,
                                    &snapshot.true_freqs,
                                )),
                            ),
                            (
                                "frequencies".into(),
                                Json::Arr(
                                    output.frequencies.iter().map(|&x| Json::Num(x)).collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect();
            fields.push(("arms".into(), Json::Obj(arms_json)));
        }
        write_atomic(path, &report.render())?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> Result<()> {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("repro") {
        raw.next();
        return repro_main(raw);
    }
    if raw.peek().map(String::as_str) == Some("stream") {
        raw.next();
        return stream_main(raw);
    }
    let args = parse_args(raw)?;
    let mut config = ExperimentConfig::paper_default(args.dataset, args.protocol, args.attack);
    config.beta = if args.attack.is_some() {
        args.beta
    } else {
        0.0
    };
    config.eta = args.eta;
    config.epsilon = args.epsilon;
    config.trials = args.trials;
    config.scale = args.scale;
    config.seed = args.seed;
    config.validate()?;

    // Arm selection: an explicit --arms list wins (and is validated
    // against the aggregation mode by the pipeline); otherwise the
    // historical defaults apply. Forcing batched aggregation is
    // incompatible with report-consuming arms, so the *default* arm set
    // degrades to recovery-only there instead of erroring.
    let mut options = match (&args.arms, args.attack.is_some(), args.aggregation) {
        (Some(arms), _, _) => PipelineOptions::with_arms(arms.clone()),
        (None, true, AggregationMode::Batched) => {
            eprintln!("note: --aggregation batched retains no reports; skipping Detection");
            PipelineOptions::recovery_only()
        }
        (None, true, _) => PipelineOptions::full_comparison(),
        (None, false, _) => PipelineOptions::default(),
    };
    options.aggregation = args.aggregation;
    let result = run_experiment(&config, &options)?;

    println!(
        "cell {}  (dataset={}, eps={}, beta={}, eta={}, trials={}, scale={}, arms={})\n",
        config.label(),
        args.dataset,
        args.epsilon,
        config.beta,
        args.eta,
        args.trials,
        args.scale,
        options.arms
    );

    // One column per arm that produced an estimate, derived from the
    // result's arm list — the table grows with `--arms`, no per-defense
    // code here.
    let mut header = vec!["metric".to_string(), "before".to_string()];
    header.extend(result.arms.iter().map(|(key, _)| arm_column_label(key)));
    let mut table = Table::new(header);
    let mut mse_row = vec!["MSE".to_string(), fmt_mean(&result.mse_before)];
    mse_row.extend(result.arms.iter().map(|(_, arm)| fmt_stat(&arm.mse)));
    table.push_row(mse_row);
    if result.fg_before.is_some() {
        let mut fg_row = vec!["FG".to_string(), fmt_stat(&result.fg_before)];
        fg_row.extend(result.arms.iter().map(|(_, arm)| fmt_stat(&arm.fg)));
        table.push_row(fg_row);
    }
    if args.csv {
        print!("{}", table.render_csv());
    } else {
        print!("{}", table.render());
    }
    println!(
        "\nnoise floor (genuine estimate MSE): {}",
        fmt_mean(&result.mse_genuine)
    );
    note_missing_arms(&options.arms, result.mse_before.count, |kind| {
        result
            .arm(kind.metric_key())
            .and_then(|arm| arm.mse)
            .map_or(0, |mse| mse.count)
    });
    Ok(())
}

/// Prints one stderr note per selected arm that produced fewer estimates
/// than there were trials. A documented degeneracy (no identified target
/// set, every report flagged) skips the arm for that trial, and the table
/// or JSON block would otherwise just lack its column.
fn note_missing_arms(arms: &ArmSet, trials: usize, produced: impl Fn(ArmKind) -> usize) {
    for &kind in arms.kinds() {
        let missing = trials.saturating_sub(produced(kind));
        if missing > 0 {
            eprintln!(
                "note: {kind} produced no estimate in {missing} of {trials} trials \
                 (documented degeneracy)"
            );
        }
    }
}

/// Column label for an arm's metric key: the registry's display label
/// (`LDPRecover*`), or the key itself when no kind has it.
fn arm_column_label(metric_key: &str) -> String {
    ArmKind::ALL
        .into_iter()
        .find(|kind| kind.metric_key() == metric_key)
        .map(|kind| kind.label().to_string())
        .unwrap_or_else(|| metric_key.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.dataset, DatasetKind::Ipums);
        assert_eq!(a.protocol, ProtocolKind::Grr);
        assert_eq!(a.attack, Some(AttackKind::Adaptive));
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--dataset",
            "fire",
            "--protocol",
            "oue",
            "--attack",
            "mga",
            "--targets",
            "7",
            "--beta",
            "0.1",
            "--eta",
            "0.3",
            "--epsilon",
            "1.0",
            "--trials",
            "2",
            "--scale",
            "0.05",
            "--seed",
            "9",
            "--csv",
        ])
        .unwrap();
        assert_eq!(a.dataset, DatasetKind::Fire);
        assert_eq!(a.protocol, ProtocolKind::Oue);
        assert_eq!(a.attack, Some(AttackKind::Mga { r: 7 }));
        assert_eq!(a.beta, 0.1);
        assert!(a.csv);
    }

    #[test]
    fn attack_none_zeroes_beta() {
        let a = parse(&["--attack", "none"]).unwrap();
        assert!(a.attack.is_none());
        assert_eq!(a.beta, 0.0);
    }

    #[test]
    fn targets_apply_regardless_of_flag_order() {
        let a = parse(&["--attack", "mga", "--targets", "3"]).unwrap();
        assert_eq!(a.attack, Some(AttackKind::Mga { r: 3 }));
        let b = parse(&["--targets", "3", "--attack", "manip"]).unwrap();
        assert_eq!(b.attack, Some(AttackKind::Manip { h: 3 }));
    }

    #[test]
    fn rejects_unknown_inputs() {
        assert!(parse(&["--dataset", "census"]).is_err());
        assert!(parse(&["--attack", "ddos"]).is_err());
        assert!(parse(&["--beta"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--aggregation", "vectorized"]).is_err());
    }

    fn parse_repro(args: &[&str]) -> Result<ReproArgs> {
        parse_repro_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn repro_defaults_to_all_figures_at_small_scale() {
        let a = parse_repro(&[]).unwrap();
        assert_eq!(a.figure, "all");
        assert_eq!(a.scale, ScaleSpec::Preset(ScalePreset::Small));
        assert_eq!(a.run_scale().trials, ScalePreset::Small.trials());
        assert_eq!(a.run_scale().seed, DEFAULT_SEED);
    }

    #[test]
    fn repro_flags_parse() {
        let a = parse_repro(&[
            "--figure", "FIG3", "--scale", "paper", "--seed", "9", "--json", "out", "--csv",
        ])
        .unwrap();
        assert_eq!(a.figure, "fig3");
        assert_eq!(a.scale, ScaleSpec::Preset(ScalePreset::Paper));
        assert_eq!(a.run_scale().trials, 10, "paper preset default");
        assert_eq!(a.seed, 9);
        assert!(a.csv);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out")));
        // Explicit trials beat the preset default; fractions default to 10.
        let a = parse_repro(&["--trials", "2", "--scale", "0.1"]).unwrap();
        assert_eq!(a.run_scale().trials, 2);
        assert_eq!(
            parse_repro(&["--scale", "0.1"]).unwrap().run_scale().trials,
            10
        );
    }

    #[test]
    fn repro_rejects_bad_flags() {
        assert!(parse_repro(&["--scale", "huge"]).is_err());
        assert!(parse_repro(&["--figure"]).is_err());
        assert!(parse_repro(&["--frobnicate"]).is_err());
    }

    fn parse_stream(args: &[&str]) -> Result<StreamArgs> {
        parse_stream_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn stream_defaults() {
        let a = parse_stream(&[]).unwrap();
        assert_eq!(a.spec.shards, 4);
        assert_eq!(a.spec.epochs, 8);
        assert_eq!(a.spec.users_per_epoch, 5000);
        assert_eq!(a.spec.attack, Some(AttackKind::Adaptive));
        assert_eq!(a.spec.seed, DEFAULT_SEED);
        assert_eq!(a.spec.window, WindowMode::Cumulative);
        assert!(a.checkpoint.is_none() && a.resume.is_none());
        assert!(a.spec_flags.is_empty(), "no spec flags recorded");
        assert!(a.spec.validate().is_ok());
    }

    #[test]
    fn stream_flags_parse() {
        let a = parse_stream(&[
            "--protocol",
            "oue",
            "--attack",
            "mga",
            "--targets",
            "7",
            "--shards",
            "16",
            "--epochs",
            "3",
            "--users-per-epoch",
            "1200",
            "--checkpoint",
            "c.json",
            "--suspend-after",
            "2",
            "--json",
            "out.json",
            "--csv",
        ])
        .unwrap();
        assert_eq!(a.spec.protocol, ProtocolKind::Oue);
        assert_eq!(a.spec.attack, Some(AttackKind::Mga { r: 7 }));
        assert_eq!(a.spec.shards, 16);
        assert_eq!(a.spec.epochs, 3);
        assert_eq!(a.spec.users_per_epoch, 1200);
        assert_eq!(
            a.checkpoint.as_deref(),
            Some(std::path::Path::new("c.json"))
        );
        assert_eq!(a.suspend_after, Some(2));
        assert!(a.csv);
        // Spec flags are recorded once each; --targets folds into --attack.
        assert_eq!(
            a.spec_flags,
            [
                "--protocol",
                "--attack",
                "--shards",
                "--epochs",
                "--users-per-epoch"
            ]
        );
        // `none` zeroes beta, like the cell runner.
        let clean = parse_stream(&["--attack", "none"]).unwrap();
        assert!(clean.spec.attack.is_none());
        assert_eq!(clean.spec.beta, 0.0);
    }

    #[test]
    fn stream_window_flag_parses() {
        let a = parse_stream(&["--window", "sliding:3"]).unwrap();
        assert_eq!(a.spec.window, WindowMode::Sliding(3));
        assert_eq!(a.spec_flags, ["--window"]);
        assert!(parse_stream(&["--window", "sliding:0"]).is_err());
        assert!(parse_stream(&["--window", "decay:1.5"]).is_err());
    }

    #[test]
    fn seeds_parse_from_decimal_and_the_printed_hex_form() {
        let hex = ["--seed", "0x1db05eed"];
        let dec = ["--seed", "498097901"];
        assert_eq!(parse(&hex).unwrap().seed, 0x1DB0_5EED);
        assert_eq!(parse(&dec).unwrap().seed, 0x1DB0_5EED);
        assert_eq!(
            parse_repro(&hex).unwrap().run_scale(),
            parse_repro(&dec).unwrap().run_scale()
        );
        assert_eq!(
            parse_stream(&hex).unwrap().spec,
            parse_stream(&dec).unwrap().spec
        );
        assert_eq!(parse_seed("0XFFFFFFFFFFFFFFFF").unwrap(), u64::MAX);
        for bad in ["0x", "0xg1", "-1", "1e3", "18446744073709551616"] {
            assert!(parse_seed(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stream_resume_diffs_spec_flags_against_the_checkpoint() {
        // Parsing no longer rejects spec flags next to --resume; the
        // conflict check happens against the restored spec instead.
        let ok = parse_stream(&["--resume", "c.json", "--shards", "2"]).unwrap();
        assert!(ok.resume.is_some());
        assert_eq!(ok.spec_flags, ["--shards"]);
        assert!(parse_stream(&["--frobnicate"]).is_err());
        assert!(parse_stream(&["--shards"]).is_err());

        let cli = parse_stream(&[
            "--shards",
            "2",
            "--protocol",
            "oue",
            "--eta",
            "0.2",
            "--seed",
            "9",
        ])
        .unwrap();
        let mut checkpoint = cli.spec;
        // Matching flags produce no conflicts: resuming is allowed.
        assert!(resume_spec_conflicts(&cli.spec_flags, &cli.spec, &checkpoint).is_empty());
        // Each mismatching field yields one labeled diff line.
        checkpoint.shards = 4;
        checkpoint.protocol = ProtocolKind::Grr;
        let lines = resume_spec_conflicts(&cli.spec_flags, &cli.spec, &checkpoint);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[0], "  --shards: flag 2 != checkpoint 4");
        assert_eq!(lines[1], "  --protocol: flag OUE != checkpoint GRR");
        // Fields never given on the CLI are not diffed, even if different.
        checkpoint.epochs = 99;
        assert_eq!(
            resume_spec_conflicts(&cli.spec_flags, &cli.spec, &checkpoint).len(),
            2
        );
        // Attack and window diffs render their CLI surface forms.
        let cli =
            parse_stream(&["--attack", "mga", "--targets", "7", "--window", "decay:0.5"]).unwrap();
        let mut checkpoint = cli.spec;
        checkpoint.attack = Some(AttackKind::Mga { r: 9 });
        checkpoint.window = WindowMode::Sliding(4);
        let lines = resume_spec_conflicts(&cli.spec_flags, &cli.spec, &checkpoint);
        assert_eq!(
            lines,
            [
                "  --attack: flag mga (targets 7) != checkpoint mga (targets 9)",
                "  --window: flag decay:0.5 != checkpoint sliding:4",
            ]
        );
    }

    #[test]
    fn arms_flag_parses_registry_names() {
        assert!(parse(&[]).unwrap().arms.is_none(), "default: auto-select");
        let a = parse(&["--arms", "recover,norm-sub,base-cut"]).unwrap();
        let arms = a.arms.expect("explicit arm set");
        assert_eq!(
            arms.kinds(),
            &[ArmKind::Recover, ArmKind::NormSub, ArmKind::BaseCut]
        );
        assert!(parse(&["--arms", "recover,frobnicate"]).is_err());
        assert!(parse(&["--arms", ""]).is_err());
        // The stream subcommand takes the same flag, orthogonal to specs.
        let s = parse_stream(&["--arms", "recover,recover-star"]).unwrap();
        assert_eq!(
            s.arms.unwrap().kinds(),
            &[ArmKind::Recover, ArmKind::RecoverStar]
        );
        let resumed = parse_stream(&["--resume", "c.json", "--arms", "recover"]).unwrap();
        assert!(resumed.arms.is_some(), "--arms is not a spec flag");
        // Streams keep counts only, so report-consuming arms fail at parse.
        for arms in ["detection", "recover,kmeans", "recover-km"] {
            assert!(parse_stream(&["--arms", arms]).is_err(), "{arms}");
        }
    }

    #[test]
    fn arm_column_labels_fall_back_to_the_key() {
        assert_eq!(arm_column_label("star"), "LDPRecover*");
        assert_eq!(arm_column_label("recover_km"), "LDPRecover-KM");
        assert_eq!(arm_column_label("my_custom_arm"), "my_custom_arm");
    }

    #[test]
    fn aggregation_flag_defaults_to_auto() {
        assert_eq!(parse(&[]).unwrap().aggregation, AggregationMode::Auto);
        assert_eq!(
            parse(&["--aggregation", "batched"]).unwrap().aggregation,
            AggregationMode::Batched
        );
        assert_eq!(
            parse(&["--aggregation", "per-user"]).unwrap().aggregation,
            AggregationMode::PerUser
        );
    }

    #[test]
    fn output_parent_validation() {
        use std::path::Path;
        // Bare filenames and existing directories pass.
        assert!(validate_output_parent("--json", Path::new("out.json")).is_ok());
        assert!(validate_output_parent("--json", Path::new("./out.json")).is_ok());
        let tmp = std::env::temp_dir();
        assert!(validate_output_parent("--json", &tmp.join("out.json")).is_ok());
        // A missing directory fails with the flag and both paths named.
        let missing = tmp.join("ldp-no-such-dir-ever").join("out.json");
        let err = validate_output_parent("--checkpoint", &missing)
            .unwrap_err()
            .to_string();
        assert!(err.contains("--checkpoint"), "{err}");
        assert!(err.contains("ldp-no-such-dir-ever"), "{err}");
        assert!(err.contains("does not exist"), "{err}");
        // A parent that exists but is a file is just as unwritable.
        let file_parent = tmp.join("ldp-parent-is-a-file");
        std::fs::write(&file_parent, "x").unwrap();
        assert!(validate_output_parent("--json", &file_parent.join("out.json")).is_err());
        std::fs::remove_file(&file_parent).unwrap();
        // An empty path has no parent either, but unlike a bare filename
        // it names nothing to write: it fails up front, naming the flag.
        for check in [validate_output_parent, validate_output_file] {
            let err = check("--checkpoint", Path::new("")).unwrap_err();
            let text = err.to_string();
            assert!(matches!(err, LdpError::InvalidParameter(_)), "{text}");
            assert!(
                text.contains("--checkpoint") && text.contains("empty path"),
                "{text}"
            );
        }
    }

    #[test]
    fn output_file_validation_rejects_directories() {
        use std::path::Path;
        // `ldp stream` writes its report and checkpoint to files: an
        // existing directory fails up front, naming the flag.
        let tmp = std::env::temp_dir();
        let dir = tmp.join("ldp-output-is-a-directory");
        std::fs::create_dir_all(&dir).unwrap();
        for flag in ["--json", "--checkpoint"] {
            let err = validate_output_file(flag, &dir).unwrap_err();
            let text = err.to_string();
            assert!(matches!(err, LdpError::InvalidParameter(_)), "{text}");
            assert!(
                text.contains(flag) && text.contains("is a directory"),
                "{text}"
            );
        }
        assert!(validate_output_file("--json", &dir.join("s.json")).is_ok());
        assert!(validate_output_file("--json", Path::new("s.json")).is_ok());
        // A missing parent still fails as before.
        let missing = tmp.join("ldp-no-such-dir-ever").join("c.json");
        assert!(validate_output_file("--checkpoint", &missing).is_err());
    }

    #[test]
    fn report_dir_validation_rejects_an_existing_file() {
        // `ldp repro --json PATH` with several figures writes one report
        // each into PATH: an existing file there fails up front, naming
        // the flag and the path; a directory or a new path passes.
        let tmp = std::env::temp_dir();
        let file = tmp.join("ldp-report-dir-is-a-file");
        std::fs::write(&file, "x").unwrap();
        let err = validate_report_dir("--json", &file).unwrap_err();
        let text = err.to_string();
        assert!(matches!(err, LdpError::InvalidParameter(_)), "{text}");
        assert!(
            text.contains("--json") && text.contains("ldp-report-dir-is-a-file"),
            "{text}"
        );
        std::fs::remove_file(&file).unwrap();
        assert!(validate_report_dir("--json", &file).is_ok());
        assert!(validate_report_dir("--json", &tmp).is_ok());
    }
}
