//! Fixture-based golden tests for the rule catalog — both stages.
//!
//! Every rule has a known-bad snippet under `fixtures/bad/` whose
//! expected diagnostics are written inline as `//~ <ID>` markers on the
//! offending lines (compiletest style), and a known-good twin under
//! `fixtures/good/` that must lint clean. Two shapes exist:
//!
//! * a single `.rs` file — one analysis unit of one file;
//! * a subdirectory (e.g. `bad/p01_cross/`) — one analysis unit of
//!   several files forming a crate, for the cross-file passes: the
//!   caller lives in one file, the impurity in another.
//!
//! A `//@ pure-roots: a b c` directive (any file of the unit) declares
//! the P01 roots for that unit; without one, P01 traverses nothing.
//! The workspace walker skips `fixtures/` directories, so the known-bad
//! snippets never pollute the live scan.

use std::path::{Path, PathBuf};

use ldp_lint::analyze_files;

fn fixture_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
}

/// The workspace-relative label a fixture file is linted under. H01
/// fixtures and files literally named `lib.rs` must look like a crate
/// root; everything else is a plain library file.
fn label_for(stem: &str) -> String {
    if stem.starts_with("h01") || stem == "lib" {
        "crates/fixturecrate/src/lib.rs".to_string()
    } else {
        format!("crates/fixturecrate/src/{stem}.rs")
    }
}

/// One analysis unit: its name plus labeled sources.
struct Unit {
    name: String,
    files: Vec<(String, String)>,
}

/// Loads every unit under `fixtures/<kind>/`: plain `.rs` files become
/// single-file units, subdirectories multi-file units.
fn fixture_units(kind: &str) -> Vec<Unit> {
    let dir = fixture_dir(kind);
    let mut out = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixture dir exists")
        .map(|e| e.expect("fixture dir readable").path())
        .collect();
    entries.sort();
    for path in entries {
        let stem = path
            .file_stem()
            .expect("fixture has a name")
            .to_string_lossy()
            .to_string();
        if path.is_dir() {
            let mut files = Vec::new();
            let mut members: Vec<PathBuf> = std::fs::read_dir(&path)
                .expect("fixture subdir readable")
                .map(|e| e.expect("fixture subdir readable").path())
                .filter(|p| p.extension().is_some_and(|e| e == "rs"))
                .collect();
            members.sort();
            for member in members {
                let member_stem = member
                    .file_stem()
                    .expect("member has a name")
                    .to_string_lossy()
                    .to_string();
                let src = std::fs::read_to_string(&member).expect("fixture readable");
                files.push((label_for(&member_stem), src));
            }
            assert!(!files.is_empty(), "empty fixture dir {}", path.display());
            out.push(Unit { name: stem, files });
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).expect("fixture readable");
            out.push(Unit {
                name: stem.clone(),
                files: vec![(label_for(&stem), src)],
            });
        }
    }
    assert!(!out.is_empty(), "no fixtures under {}", dir.display());
    out
}

/// Extracts `//@ pure-roots: a b c` directives from every file of a unit.
fn pure_roots(unit: &Unit) -> Vec<&str> {
    let mut roots = Vec::new();
    for (_, src) in &unit.files {
        for line in src.lines() {
            if let Some(rest) = line.trim().strip_prefix("//@ pure-roots:") {
                roots.extend(rest.split_whitespace());
            }
        }
    }
    roots
}

/// Runs both analysis stages on one unit.
fn analyze_unit(unit: &Unit) -> Vec<ldp_lint::Finding> {
    analyze_files(&unit.files, &pure_roots(unit), &[], "fixroot")
        .expect("fixture pure roots must resolve")
}

/// Parses `//~ <ID> [<ID>…]` markers: (file label, 1-based line, rule id).
fn expected_markers(unit: &Unit) -> Vec<(String, u32, String)> {
    let mut out = Vec::new();
    for (label, src) in &unit.files {
        for (idx, line) in src.lines().enumerate() {
            let Some(pos) = line.find("//~") else {
                continue;
            };
            // Only rule-id tokens count, so prose *about* the `//~`
            // syntax in fixture headers stays inert.
            for id in line[pos + 3..].split_whitespace() {
                if ldp_lint::RuleId::parse(id).is_some() {
                    out.push((label.clone(), idx as u32 + 1, id.to_string()));
                }
            }
        }
    }
    out.sort();
    out
}

#[test]
fn bad_fixtures_fire_exactly_their_marked_diagnostics() {
    let mut rules_covered = std::collections::BTreeSet::new();
    for unit in fixture_units("bad") {
        let expected = expected_markers(&unit);
        assert!(
            !expected.is_empty(),
            "bad fixture {} has no //~ markers",
            unit.name
        );
        let mut actual: Vec<(String, u32, String)> = analyze_unit(&unit)
            .into_iter()
            .map(|f| (f.path, f.line, f.rule.id().to_string()))
            .collect();
        actual.sort();
        assert_eq!(
            actual, expected,
            "fixture {}: findings (left) must match //~ markers (right)",
            unit.name
        );
        for (_, _, id) in expected {
            rules_covered.insert(id);
        }
    }
    // Every rule in the catalog must have at least one bad fixture.
    let all: Vec<String> = ldp_lint::RuleId::ALL
        .iter()
        .map(|r| r.id().to_string())
        .collect();
    let covered: Vec<String> = rules_covered.into_iter().collect();
    assert_eq!(covered, all, "every rule needs a known-bad fixture");
}

#[test]
fn good_fixtures_lint_clean() {
    let mut checked = 0;
    for unit in fixture_units("good") {
        let findings = analyze_unit(&unit);
        assert!(
            findings.is_empty(),
            "good fixture {} should be clean, got:\n{}",
            unit.name,
            findings
                .iter()
                .map(ldp_lint::Finding::render)
                .collect::<Vec<_>>()
                .join("\n")
        );
        checked += 1;
    }
    // One good twin per rule, plus the lexer/scoping torture fixture
    // and the cross-file purity tree.
    assert!(checked >= 12, "expected ≥12 good fixtures, found {checked}");
}

#[test]
fn opaque_pessimism_is_exercised_by_the_cross_file_tree() {
    let unit = fixture_units("bad")
        .into_iter()
        .find(|u| u.name == "p01_cross")
        .expect("bad/p01_cross exists");
    let findings = analyze_unit(&unit);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("did not resolve")),
        "the unresolved-callee case must surface the opaque-pessimism message"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.path.ends_with("util.rs") && f.message.contains("env::var")),
        "the cross-file impurity must land in the callee's file"
    );
}

#[test]
fn finding_render_format_is_path_line_col_id_message() {
    let src = "pub fn f() { Some(1).unwrap(); }\n";
    let findings = ldp_lint::lint_file("crates/fixturecrate/src/x.rs", src);
    assert_eq!(findings.len(), 1);
    let rendered = findings[0].render();
    assert!(
        rendered.starts_with("crates/fixturecrate/src/x.rs:1:22: [D04] "),
        "unexpected render: {rendered}"
    );
    assert!(
        rendered.ends_with("| pub fn f() { Some(1).unwrap(); }"),
        "offending line missing: {rendered}"
    );
}
