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
