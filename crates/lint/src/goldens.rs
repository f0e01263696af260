//! Golden-file drift check: a checked-in manifest of content hashes over
//! every blessed artifact, so an accidental re-bless (or a stray editor
//! touching a golden) fails CI loudly instead of silently moving the
//! ground truth.
//!
//! The manifest lives at the workspace root ([`GOLDEN_MANIFEST`]) and
//! covers every file in the golden directories ([`GOLDEN_DIRS`]): the
//! scenario goldens (`tests/golden/*.json`) and the table renderer's CSV
//! golden (`crates/sim/tests/golden/`). Each line is
//! `<16-hex fnv1a64>  <workspace-relative path>`, sorted by path, so
//! diffs of the manifest read as "which goldens changed". Re-blessing is
//! explicit: `ldp-lint --bless-goldens` regenerates the manifest, and the
//! diff lands in review next to the golden change that caused it.
//!
//! The hash is a hand-rolled FNV-1a 64 — the lint crate stays
//! dependency-free, and drift detection needs speed and stability, not
//! collision resistance against an adversary who can already edit the
//! manifest itself.

use std::path::Path;

use crate::LintError;

/// Workspace-relative path of the golden manifest.
pub const GOLDEN_MANIFEST: &str = "golden.manifest";

/// Workspace-relative directories whose files the manifest covers: every
/// `tests/golden` directory in the workspace.
pub const GOLDEN_DIRS: [&str; 2] = ["crates/sim/tests/golden", "tests/golden"];

/// FNV-1a 64 over raw bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The blessed files under [`GOLDEN_DIRS`] (every regular file, whatever
/// its extension), as sorted workspace-relative paths (always
/// `/`-separated, so the manifest is platform-stable).
pub fn golden_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut files = Vec::new();
    for dir in GOLDEN_DIRS {
        let abs = root.join(dir);
        if !abs.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&abs).map_err(|e| LintError::Io(e.to_string()))? {
            let entry = entry.map_err(|e| LintError::Io(e.to_string()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.path().is_file() {
                files.push(format!("{dir}/{name}"));
            }
        }
    }
    files.sort();
    Ok(files)
}

fn hash_line(root: &Path, rel: &str) -> Result<String, LintError> {
    let bytes = std::fs::read(root.join(rel)).map_err(|e| LintError::Io(format!("{rel}: {e}")))?;
    Ok(format!("{:016x}  {rel}", fnv1a64(&bytes)))
}

/// Renders the manifest content for the current tree.
///
/// # Errors
/// [`LintError::Io`] if a golden directory or file cannot be read.
pub fn render_manifest(root: &Path) -> Result<String, LintError> {
    let mut out = String::new();
    for rel in golden_files(root)? {
        out.push_str(&hash_line(root, &rel)?);
        out.push('\n');
    }
    Ok(out)
}

/// Writes the manifest for the current tree to
/// `<root>/`[`GOLDEN_MANIFEST`], returning the number of files covered.
///
/// # Errors
/// [`LintError::Io`] on read or write failures.
pub fn bless_goldens(root: &Path) -> Result<usize, LintError> {
    let manifest = render_manifest(root)?;
    // Local temp-file + rename (the lint crate deliberately cannot use
    // ldp_common::write_atomic): a crash mid-bless must not leave a torn
    // manifest that every later `--check-goldens` run trusts.
    let tmp = root.join(format!(".{GOLDEN_MANIFEST}.tmp-{}", std::process::id()));
    std::fs::write(&tmp, &manifest)
        .map_err(|e| LintError::Io(format!("{GOLDEN_MANIFEST}: {e}")))?;
    if let Err(e) = std::fs::rename(&tmp, root.join(GOLDEN_MANIFEST)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(LintError::Io(format!("{GOLDEN_MANIFEST}: {e}")));
    }
    Ok(manifest.lines().count())
}

/// Verifies the tree against the checked-in manifest. Returns one
/// human-readable error string per drift: a golden whose hash changed, a
/// manifest entry whose file is gone (stale), a golden the manifest does
/// not cover, or a missing/unparseable manifest. An empty vector means
/// everything matches.
///
/// # Errors
/// [`LintError::Io`] only for filesystem failures *other than* the
/// manifest being absent (that is a finding, not an I/O error).
pub fn check_goldens(root: &Path) -> Result<Vec<String>, LintError> {
    let manifest_path = root.join(GOLDEN_MANIFEST);
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(vec![format!(
                "{GOLDEN_MANIFEST} is missing — generate it with `ldp-lint --bless-goldens`"
            )]);
        }
        Err(e) => return Err(LintError::Io(format!("{GOLDEN_MANIFEST}: {e}"))),
    };

    let mut errors = Vec::new();
    let mut listed: Vec<(String, String)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line.split_once("  ") {
            Some((hash, rel)) if hash.len() == 16 => {
                listed.push((hash.to_string(), rel.to_string()));
            }
            _ => errors.push(format!(
                "{GOLDEN_MANIFEST}:{}: malformed line `{line}` (expected `<16-hex>  <path>`)",
                lineno + 1
            )),
        }
    }

    let on_disk = golden_files(root)?;
    for (hash, rel) in &listed {
        if !on_disk.contains(rel) {
            errors.push(format!(
                "{rel}: listed in {GOLDEN_MANIFEST} but missing from the tree — \
                 stale entry; re-bless with `ldp-lint --bless-goldens`"
            ));
            continue;
        }
        let actual = hash_line(root, rel)?;
        let actual_hash = &actual[..16];
        if actual_hash != hash {
            errors.push(format!(
                "{rel}: content hash {actual_hash} != blessed {hash} — golden drifted; \
                 if the change is intentional, re-bless with `ldp-lint --bless-goldens`"
            ));
        }
    }
    for rel in &on_disk {
        if !listed.iter().any(|(_, r)| r == rel) {
            errors.push(format!(
                "{rel}: golden on disk but not covered by {GOLDEN_MANIFEST} — \
                 re-bless with `ldp-lint --bless-goldens`"
            ));
        }
    }
    Ok(errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn scaffold(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("ldp_lint_goldens_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        for dir in GOLDEN_DIRS {
            std::fs::create_dir_all(root.join(dir)).unwrap();
        }
        std::fs::write(root.join("tests/golden/a.json"), b"{\"v\": 1}\n").unwrap();
        std::fs::write(root.join("crates/sim/tests/golden/x.golden"), b"a,b\n1,2\n").unwrap();
        root
    }

    #[test]
    fn bless_then_check_roundtrips() {
        let root = scaffold("roundtrip");
        assert_eq!(bless_goldens(&root).unwrap(), 2);
        assert_eq!(check_goldens(&root).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn missing_manifest_is_a_finding() {
        let root = scaffold("missing");
        let errors = check_goldens(&root).unwrap();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("--bless-goldens"), "{}", errors[0]);
    }

    #[test]
    fn drift_stale_and_uncovered_are_all_reported() {
        let root = scaffold("drift");
        bless_goldens(&root).unwrap();

        // Drift: edit a blessed golden.
        std::fs::write(root.join("tests/golden/a.json"), b"{\"v\": 2}\n").unwrap();
        // Uncovered: a new golden the manifest has never seen.
        std::fs::write(root.join("tests/golden/b.json"), b"{}\n").unwrap();

        let errors = check_goldens(&root).unwrap();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors
            .iter()
            .any(|e| e.contains("a.json") && e.contains("drifted")));
        assert!(errors
            .iter()
            .any(|e| e.contains("b.json") && e.contains("not covered")));

        // Stale: remove a blessed golden entirely.
        std::fs::remove_file(root.join("crates/sim/tests/golden/x.golden")).unwrap();
        let errors = check_goldens(&root).unwrap();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("x.golden") && e.contains("stale")),
            "{errors:?}"
        );

        // Re-blessing clears everything.
        std::fs::write(root.join("tests/golden/a.json"), b"{\"v\": 2}\n").unwrap();
        bless_goldens(&root).unwrap();
        assert_eq!(check_goldens(&root).unwrap(), Vec::<String>::new());
    }
}
