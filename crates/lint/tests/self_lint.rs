//! Self-lint: plain `cargo test` runs the full rule catalog — both the
//! token-local rules and the cross-file P01/P02 passes — over the live
//! workspace, so a determinism/hygiene regression fails the tier-1 gate
//! locally. CI's `ldp-lint --deny` step is the same check with a nicer
//! log.

use std::path::{Path, PathBuf};

use ldp_lint::lint_workspace;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("crates/lint/../.. is the workspace root")
}

#[test]
fn workspace_lints_clean() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}) — walker broke?",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "lint findings:\n{}",
        report
            .findings
            .iter()
            .map(ldp_lint::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn blessed_goldens_match_the_manifest() {
    // The live tree's golden.manifest must agree with every blessed
    // artifact — CI's `ldp-lint --check-goldens` is the same check. A
    // failure here means a golden file changed without an explicit
    // `ldp-lint --bless-goldens`.
    let root = workspace_root();
    let errors = ldp_lint::check_goldens(&root).expect("golden scan succeeds");
    assert!(errors.is_empty(), "golden drift:\n{}", errors.join("\n"));
}

#[test]
fn every_golden_directory_is_covered_by_the_manifest() {
    // A `tests/golden` directory missing from GOLDEN_DIRS would hold
    // blessed files that `--check-goldens` never hashes.
    fn walk(dir: &Path, rel: &str, found: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("directory is readable") {
            let entry = entry.expect("directory entry is readable");
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_dir = entry.file_type().is_ok_and(|t| t.is_dir());
            if !is_dir || name == "target" || name.starts_with('.') {
                continue;
            }
            let rel = if rel.is_empty() {
                name
            } else {
                format!("{rel}/{name}")
            };
            if rel == "tests/golden" || rel.ends_with("/tests/golden") {
                found.push(rel.clone());
            }
            walk(&entry.path(), &rel, found);
        }
    }
    let mut found = Vec::new();
    walk(&workspace_root(), "", &mut found);
    assert!(
        found.iter().any(|d| d == "tests/golden"),
        "walker missed tests/golden: {found:?}"
    );
    for dir in &found {
        assert!(
            ldp_lint::GOLDEN_DIRS.contains(&dir.as_str()),
            "{dir} holds goldens that golden.manifest does not cover — add it to GOLDEN_DIRS"
        );
    }
}

#[test]
fn walker_covers_every_crate_and_skips_fixtures_and_vendor() {
    let root = workspace_root();
    let files = ldp_lint::collect_files(&root).expect("walk succeeds");
    let rels: Vec<String> = files
        .iter()
        .map(|f| {
            f.strip_prefix(&root)
                .expect("walked file is under root")
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    for crate_root in [
        "src/lib.rs",
        "crates/common/src/lib.rs",
        "crates/protocols/src/lib.rs",
        "crates/attacks/src/lib.rs",
        "crates/datasets/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/kv/src/lib.rs",
        "crates/sim/src/lib.rs",
        "crates/lint/src/lib.rs",
    ] {
        assert!(
            rels.contains(&crate_root.to_string()),
            "missing {crate_root}"
        );
    }
    assert!(
        !rels
            .iter()
            .any(|r| r.contains("fixtures/") || r.starts_with("vendor/")),
        "walker must skip fixtures/ and vendor/"
    );
}

#[test]
fn crate_ident_map_reads_the_live_manifests() {
    // The cross-file resolver depends on `crates/<dir>` → lib ident
    // mapping being right for the irregular cases (crates/core builds
    // `ldprecover`, the root package is `ldprecover-repro`).
    let root = workspace_root();
    let map = ldp_lint::crate_ident_map(&root);
    let lookup = |dir: &str| {
        map.iter()
            .find(|(d, _)| d == dir)
            .map(|(_, i)| i.as_str())
            .unwrap_or("<missing>")
            .to_string()
    };
    assert_eq!(lookup("common"), "ldp_common");
    assert_eq!(lookup("sim"), "ldp_sim");
    assert_eq!(lookup("core"), "ldprecover");
    assert!(
        ldp_lint::root_package_ident(&root).starts_with("ldprecover"),
        "root package ident should come from the root manifest"
    );
}
