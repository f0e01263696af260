//! `#[ignore]`-gated smoke tests for the `ldp` CLI: argument parsing,
//! tiny end-to-end runs of the cell, `repro` and `stream` subcommands,
//! and their output modes.

use std::process::Command;

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_cli_runs_one_tiny_cell() {
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args([
            "--protocol",
            "oue",
            "--attack",
            "mga",
            "--targets",
            "5",
            "--trials",
            "1",
            "--scale",
            "0.005",
        ])
        .output()
        .expect("spawn ldp");
    assert!(
        output.status.success(),
        "ldp exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("LDPRecover"),
        "expected method rows in output:\n{stdout}"
    );
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_repro_subcommand_runs_one_figure() {
    let dir = std::env::temp_dir().join("ldprecover-cli-smoke");
    // The CLI fail-fasts on missing output parents instead of creating
    // them (see `validate_output_parent`), so the dir must exist.
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("table1.json");
    let _ = std::fs::remove_file(&json_path);
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args([
            "repro", "--figure", "table1", "--scale", "0.002", "--trials", "1",
        ])
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("spawn ldp repro");
    assert!(
        output.status.success(),
        "ldp repro exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Table I"), "expected the table:\n{stdout}");
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(json.contains("\"figure\": \"table1\""));
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_repro_rejects_unknown_figure() {
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(["repro", "--figure", "fig99"])
        .output()
        .expect("spawn ldp repro");
    assert!(!output.status.success());
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_repro_rejects_malformed_flags() {
    // Arg parsing must fail loudly, not fall through to defaults.
    for args in [
        ["--frobnicate"].as_slice(),
        ["--trials", "0"].as_slice(),
        ["--scale", "2.0"].as_slice(),
        ["--scale", "medium"].as_slice(),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
            .arg("repro")
            .args(args)
            .output()
            .expect("spawn ldp repro");
        assert!(
            !output.status.success(),
            "ldp repro {args:?} should exit non-zero"
        );
    }
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_repro_csv_and_json_modes_emit_structured_output() {
    let dir = std::env::temp_dir().join("ldprecover-smoke-json");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("fig3.json");
    let _ = std::fs::remove_file(&json_path);
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args([
            "repro", "--figure", "fig3", "--trials", "1", "--scale", "0.002", "--csv",
        ])
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("spawn ldp repro");
    assert!(
        output.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.lines().any(|l| l.matches(',').count() >= 2),
        "--csv produced no comma-separated rows:\n{stdout}"
    );
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    assert!(json.contains("\"figure\": \"fig3\""), "{json}");
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_cli_rejects_unknown_protocol() {
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(["--protocol", "telepathy"])
        .output()
        .expect("spawn ldp");
    assert!(!output.status.success());
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_stream_resume_reproduces_the_uninterrupted_run_byte_for_byte() {
    // The acceptance contract: a 16-shard 8-epoch checkpointed run,
    // suspended halfway and resumed from the checkpoint, emits exactly the
    // bytes of the uninterrupted run — stdout table and JSON report alike.
    let dir = std::env::temp_dir().join("ldprecover-stream-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("c.json");
    let json_full = dir.join("full.json");
    let json_resumed = dir.join("resumed.json");
    for p in [&ckpt, &json_full, &json_resumed] {
        let _ = std::fs::remove_file(p);
    }
    let base = [
        "stream",
        "--shards",
        "16",
        "--epochs",
        "8",
        "--users-per-epoch",
        "160",
    ];

    // Reference: uninterrupted run.
    let full = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(base)
        .arg("--json")
        .arg(&json_full)
        .output()
        .expect("spawn ldp stream");
    assert!(
        full.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&full.stderr)
    );

    // Suspended run: 4 of 8 epochs, checkpoint after every epoch.
    let half = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(base)
        .args(["--suspend-after", "4", "--checkpoint"])
        .arg(&ckpt)
        .output()
        .expect("spawn ldp stream (suspend)");
    assert!(half.status.success());
    assert!(
        String::from_utf8_lossy(&half.stdout).contains("suspended after 4 of 8"),
        "suspension notice"
    );

    // Resume to completion from the checkpoint.
    let resumed = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(["stream", "--resume"])
        .arg(&ckpt)
        .arg("--json")
        .arg(&json_resumed)
        .output()
        .expect("spawn ldp stream (resume)");
    assert!(
        resumed.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    assert_eq!(
        full.stdout, resumed.stdout,
        "resumed stdout must be byte-identical to the uninterrupted run"
    );
    assert_eq!(
        std::fs::read(&json_full).unwrap(),
        std::fs::read(&json_resumed).unwrap(),
        "resumed JSON report must be byte-identical to the uninterrupted run"
    );
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_stream_arms_are_scored_against_the_state_they_ran_on() {
    // `--arms` runs on the window, so its MSEs are taken against the
    // window's truth: the recover arm's must be the trajectory's last
    // "MSE LDPRecover", on stdout and in the JSON report alike.
    let dir = std::env::temp_dir().join("ldprecover-stream-window-arms");
    std::fs::create_dir_all(&dir).unwrap();
    for window in ["sliding:2", "decay:0.5", "cumulative"] {
        let json = dir.join(format!("{}.json", window.replace(':', "_")));
        let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
            .args([
                "stream",
                "--window",
                window,
                "--epochs",
                "6",
                "--users-per-epoch",
                "4000",
                "--arms",
                "recover,norm-sub",
                "--json",
            ])
            .arg(&json)
            .output()
            .expect("spawn ldp stream");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{window}:\n{stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let column = |first: &str, index: usize| {
            stdout
                .lines()
                .map(|line| line.split_whitespace().collect::<Vec<_>>())
                .find(|words| words.first() == Some(&first))
                .map(|words| words[index].to_string())
        };
        assert_eq!(
            column("LDPRecover", 1),
            column("6", 3),
            "{window}: arms table against the trajectory:\n{stdout}"
        );

        let text = std::fs::read_to_string(&json).unwrap();
        let report = ldp_common::Json::parse(&text).unwrap();
        let last_point = report
            .get("trajectory")
            .and_then(|t| t.as_array()?.last())
            .and_then(|p| p.get("mse_recovered")?.as_f64());
        let recover_arm = report
            .get("arms")
            .and_then(|a| a.get("recover")?.get("mse")?.as_f64());
        assert!(last_point.is_some(), "{window}: {text}");
        assert_eq!(recover_arm, last_point, "{window}: JSON arms block");
    }
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn output_flags_into_missing_directories_fail_before_any_work() {
    // `--json`/`--checkpoint` pointing into a directory that doesn't
    // exist must fail up front with a clear message — not run the whole
    // experiment and then lose the report to a bare io error.
    let missing = std::env::temp_dir()
        .join("ldprecover-no-such-dir")
        .join("out.json");
    let _ = std::fs::remove_dir_all(missing.parent().unwrap());
    for args in [
        vec!["repro", "--figure", "table1", "--scale", "0.002", "--json"],
        vec!["stream", "--epochs", "2", "--json"],
        vec!["stream", "--epochs", "2", "--checkpoint"],
    ] {
        let flag = args[args.len() - 1];
        let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
            .args(&args)
            .arg(&missing)
            .output()
            .expect("spawn ldp");
        assert!(!output.status.success(), "{flag} into a missing dir");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("does not exist") && stderr.contains(flag),
            "{flag}: expected a clear parent-directory error, got:\n{stderr}"
        );
    }
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_stream_rejects_report_consuming_arms_before_any_work() {
    // Streams keep counts only. Asking for a report-consuming arm must
    // fail at parse time, not after every epoch has run and checkpointed.
    let dir = std::env::temp_dir().join("ldprecover-stream-arms-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("c.json");
    let _ = std::fs::remove_file(&ckpt);
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(["stream", "--epochs", "2", "--arms", "recover,detection"])
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn ldp stream");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("InvalidParameter") && stderr.contains("detection"),
        "expected a typed arm error, got:\n{stderr}"
    );
    assert!(output.stdout.is_empty(), "no epoch may run");
    assert!(!ckpt.exists(), "no checkpoint may be written");
}

/// Asserts that `ldp <args>` exits 1 with an `InvalidParameter` error.
fn assert_invalid_parameter(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(args)
        .output()
        .expect("spawn ldp");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "ldp {args:?}:\n{stderr}");
    assert!(
        stderr.contains("InvalidParameter"),
        "ldp {args:?}:\n{stderr}"
    );
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn out_of_range_attack_parameters_fail_with_invalid_parameter() {
    for attack in [
        ["--attack", "mga", "--targets", "0"].as_slice(),
        ["--dataset", "fire", "--attack", "mga", "--targets", "491"].as_slice(), // d = 490
        ["--attack", "manip", "--targets", "0"].as_slice(),
        ["--attack", "multi", "--attackers", "0"].as_slice(),
    ] {
        assert_invalid_parameter(attack);
        assert_invalid_parameter(&[["stream"].as_slice(), attack].concat());
    }

    // A suspended checkpoint hand-edited to zero targets fails on restore.
    let dir = std::env::temp_dir().join("ldprecover-attack-params-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("c.json");
    let made = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args([
            "stream",
            "--attack",
            "mga",
            "--targets",
            "5",
            "--epochs",
            "2",
        ])
        .args([
            "--users-per-epoch",
            "200",
            "--suspend-after",
            "1",
            "--checkpoint",
        ])
        .arg(&ckpt)
        .output()
        .expect("spawn ldp stream (checkpoint)");
    assert!(made.status.success());
    let text = std::fs::read_to_string(&ckpt).unwrap();
    assert!(
        text.contains("\"r\": 5"),
        "checkpoint stores the target count"
    );
    std::fs::write(&ckpt, text.replace("\"r\": 5", "\"r\": 0")).unwrap();
    assert_invalid_parameter(&["stream", "--resume", ckpt.to_str().unwrap()]);
}

/// Asserts that `ldp <args>` exits 1 with an `InvalidParameter` error
/// that mentions `needle`, before printing anything on stdout.
fn assert_rejected_before_any_row(args: &[&str], needle: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(args)
        .output()
        .expect("spawn ldp");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "ldp {args:?}:\n{stderr}");
    assert!(
        stderr.contains("InvalidParameter") && stderr.contains(needle),
        "ldp {args:?}:\n{stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "ldp {args:?} printed:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn attacked_cells_too_small_for_a_malicious_user_fail_before_any_row() {
    // At β = 0.05, m = round(β/(1−β)·n) is 0 below 10 users: such a cell
    // would run unpoisoned and print an attacked comparison. IPUMS at
    // scale 10⁻⁵ has 4 users; 360 users over 40 shards give each 9.
    let needle = "at least 10 genuine users";
    assert_rejected_before_any_row(&["--scale", "0.00001", "--trials", "2"], needle);
    assert_rejected_before_any_row(
        &[
            "repro", "--figure", "fig3", "--scale", "0.00001", "--trials", "1",
        ],
        needle,
    );
    assert_rejected_before_any_row(
        &[
            "stream",
            "--shards",
            "40",
            "--users-per-epoch",
            "360",
            "--epochs",
            "1",
        ],
        needle,
    );
    // The key-value extension's population at scale 10⁻⁵ is 2 users.
    assert_rejected_before_any_row(
        &[
            "repro",
            "--figure",
            "kv_extension",
            "--scale",
            "0.00001",
            "--trials",
            "1",
        ],
        needle,
    );
    // Every selected figure is checked before the first one runs: at
    // scale 10⁻³ figures 3 and 4 would run, but fig5's attacked cells
    // need 500 IPUMS users and get 390.
    assert_rejected_before_any_row(
        &["repro", "--scale", "0.001", "--trials", "1"],
        "at least 500 genuine users",
    );
    // Scale 3·10⁻⁵ gives 12 users and one malicious user: it runs.
    stderr_of_successful_run(&["--scale", "0.00003", "--trials", "1"]);
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_repro_json_file_with_several_figures_fails_before_any_row() {
    // Several figures write one report each into the --json directory:
    // an existing file there used to fail only after the first figure.
    let file = std::env::temp_dir().join("ldprecover-repro-json-is-a-file");
    std::fs::write(&file, "keep me\n").unwrap();
    let path = file.to_str().unwrap();
    assert_rejected_before_any_row(
        &["repro", "--scale", "0.002", "--trials", "1", "--json", path],
        path,
    );
    assert_eq!(std::fs::read_to_string(&file).unwrap(), "keep me\n");
    std::fs::remove_file(&file).unwrap();
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn empty_output_paths_fail_before_any_row() {
    // An empty path names nothing to write: it must fail before the run,
    // not at the write after it (after the first epoch for --checkpoint).
    let stream = "stream --shards 2 --epochs 2 --users-per-epoch 2000";
    for (command, flag) in [
        ("repro --figure table1 --scale 0.002 --trials 1", "--json"),
        (stream, "--json"),
        (stream, "--checkpoint"),
    ] {
        let mut args: Vec<&str> = command.split_whitespace().collect();
        args.extend([flag, ""]);
        assert_rejected_before_any_row(&args, flag);
    }
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_stream_resume_names_a_checkpoint_it_cannot_read() {
    let missing = std::env::temp_dir().join("ldprecover-no-such-checkpoint.json");
    let _ = std::fs::remove_file(&missing);
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(["stream", "--resume"])
        .arg(&missing)
        .output()
        .expect("spawn ldp");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("Io")
            && stderr.contains("--resume")
            && stderr.contains(missing.to_str().unwrap()),
        "{stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_stream_output_paths_that_are_directories_fail_before_any_epoch() {
    // The report and the checkpoint are files: a directory there used to
    // fail only at the write, after every epoch had run.
    let dir = std::env::temp_dir().join("ldprecover-stream-output-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_str().unwrap();
    for flag in ["--json", "--checkpoint"] {
        assert_rejected_before_any_row(&["stream", "--epochs", "2", flag, dir], "is a directory");
    }
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn deeply_nested_checkpoints_fail_with_invalid_parameter() {
    // The JSON parser recurses once per `[` or `{`: a document nested far
    // past its cap must fail the restore, not overflow the stack.
    let dir = std::env::temp_dir().join("ldprecover-deep-json-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, doc) in [
        (
            "arrays.json",
            format!("{}{}", "[".repeat(200_000), "]".repeat(200_000)),
        ),
        (
            "objects.json",
            format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000)),
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, doc).unwrap();
        assert_invalid_parameter(&["stream", "--resume", path.to_str().unwrap()]);
    }
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn ldp_stream_resume_diffs_conflicting_spec_flags() {
    // Spec flags alongside --resume are legal when they agree with the
    // checkpoint; a disagreement fails fast with a field-by-field diff
    // instead of silently running the wrong experiment.
    let dir = std::env::temp_dir().join("ldprecover-resume-diff-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("c.json");
    let _ = std::fs::remove_file(&ckpt);
    let made = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args([
            "stream",
            "--shards",
            "4",
            "--epochs",
            "4",
            "--suspend-after",
            "2",
        ])
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn ldp stream (checkpoint)");
    assert!(made.status.success());

    // Conflicting --shards: fail fast, name the field, show both values.
    let conflicted = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(["stream", "--resume"])
        .arg(&ckpt)
        .args(["--shards", "2"])
        .output()
        .expect("spawn ldp stream (conflict)");
    assert!(!conflicted.status.success());
    let stderr = String::from_utf8_lossy(&conflicted.stderr);
    assert!(
        stderr.contains("disagrees with the given spec flags")
            && stderr.contains("--shards: flag 2 != checkpoint 4"),
        "expected a field-by-field diff, got:\n{stderr}"
    );

    // Matching flags restate the checkpoint's spec and proceed.
    let agreed = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(["stream", "--resume"])
        .arg(&ckpt)
        .args(["--shards", "4", "--epochs", "4"])
        .output()
        .expect("spawn ldp stream (agree)");
    assert!(
        agreed.status.success(),
        "matching spec flags must be accepted:\n{}",
        String::from_utf8_lossy(&agreed.stderr)
    );
}

/// Runs `ldp <args>`, asserts exit 0, and returns its stderr.
fn stderr_of_successful_run(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_ldp"))
        .args(args)
        .output()
        .expect("spawn ldp");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "ldp {args:?}:\n{stderr}");
    stderr
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn arms_without_an_estimate_are_noted_on_stderr() {
    // An unpoisoned run has no target set, so LDPRecover* degenerates in
    // every trial; its missing column must not pass silently.
    let stderr = stderr_of_successful_run(&[
        "--attack",
        "none",
        "--arms",
        "recover-star",
        "--scale",
        "0.01",
        "--trials",
        "2",
    ]);
    assert!(
        stderr.contains(
            "note: recover-star produced no estimate in 2 of 2 trials (documented degeneracy)"
        ),
        "{stderr}"
    );
    // The stream snapshot counts as one trial; only the degenerate arm
    // is named.
    let stderr = stderr_of_successful_run(&[
        "stream",
        "--attack",
        "none",
        "--epochs",
        "2",
        "--arms",
        "recover,recover-star,norm-sub",
    ]);
    assert!(
        stderr.contains(
            "note: recover-star produced no estimate in 1 of 1 trials (documented degeneracy)"
        ),
        "{stderr}"
    );
    assert_eq!(stderr.matches("note:").count(), 1, "{stderr}");
}

#[test]
#[ignore = "spawns the CLI binary; run with --ignored"]
fn arms_that_all_produce_estimates_print_no_note() {
    // A targeted attack gives LDPRecover* its oracle target set.
    let stderr = stderr_of_successful_run(&[
        "--attack",
        "mga",
        "--arms",
        "recover,recover-star,norm-sub",
        "--scale",
        "0.01",
        "--trials",
        "2",
    ]);
    assert!(!stderr.contains("note:"), "{stderr}");
    let stderr = stderr_of_successful_run(&[
        "stream",
        "--epochs",
        "2",
        "--arms",
        "recover,recover-star,norm-sub",
    ]);
    assert!(!stderr.contains("note:"), "{stderr}");
}
