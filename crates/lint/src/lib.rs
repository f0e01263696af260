#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `ldp-lint` — workspace determinism & hygiene lints the compiler and
//! clippy cannot express.
//!
//! The reproduction's whole value rests on bit-exact determinism: the
//! differential gates (PR 4–6) prove RNG streams draw-for-draw
//! unperturbed, and 14 golden gates enforce the paper's numbers. This
//! crate makes the classic regressions *statically* impossible instead
//! of hoping a test notices. It is a hand-rolled lexer ([`lexer`]) plus
//! two analysis stages — token-local rules ([`rules`]) and a cross-file
//! stage ([`tree`] → [`symbols`] → [`callgraph`] → [`passes`]). No
//! dependencies, no registry, no nightly, no configuration file; same
//! vendored ethos as the workspace's hand-rolled JSON layer.
//!
//! # Rule catalog
//!
//! | id  | rule | rationale | exempt |
//! |-----|------|-----------|--------|
//! | D01 | no `HashMap`/`HashSet` **iteration** | hash iteration order is nondeterministic; one `for (k, _) in &map` feeding a draw loop desynchronizes every downstream RNG stream. Membership checks stay legal. | tests, examples, binary targets |
//! | D02 | no ambient entropy / wall-clock (`thread_rng`, `rand::random`, `OsRng`, `from_entropy`, `SystemTime::now`, `Instant::now`) | every random bit must flow from the master seed (`rng_from_seed` / `derive_seed2`) or replay breaks; time reads make output machine-dependent | binary targets (the CLI) |
//! | D03 | no `==`/`!=` on float-typed operands | float equality is almost always a rounding-sensitive bug; *intentional* exact comparison (sentinels, golden bit-compares) must go through `ldp_common::float::{exact_eq, exactly_zero}`, which documents the intent | tests, examples, the `float` module itself |
//! | D04 | no `unwrap()` / bare `expect("")` in library code | a library panic aborts a whole run — a stream mid-epoch, a repro mid-figure; the workspace contract is typed errors (`LdpError`) or degradation (`ArmOutcome::Degenerate`). A justified `expect("<why this cannot fail>")` is allowed. | tests, examples, binary targets |
//! | D05 | seed literals (`rng_from_seed(<int>)`) only in tests and examples | production paths must derive per-purpose streams via `derive_seed2(master, …)`; a literal silently reuses one stream everywhere | tests, examples |
//! | D09 | artifact writes go through `ldp_common::write_atomic` | a bare `fs::write`/`File::create`/`fs::copy` leaves a torn half-file on crash, which checkpoint-resume and the golden gates would read as corrupt or silently truncated. Applies to binaries too — that is where artifacts get written. | tests, examples, test regions, the `write_atomic` impl (`crates/common/src/json.rs`), the lint manifest writer (`crates/lint/src/goldens.rs`) |
//! | D10 | no `thread::spawn` / `.spawn(` outside the audited surface | all parallelism must flow through `map_trials*` (deterministic join order); stray spawns are unaudited interleaving. Fires even in tests and binaries — the audit is about topology. | `crates/sim/src/runner.rs` |
//! | H01 | every crate root carries `#![forbid(unsafe_code)]` | the workspace is pure safe Rust; `forbid` makes that a compile error, this rule makes *removing the forbid* a lint error | — |
//! | H02 | no `println!`/`eprintln!` in library code | library output must be returned (`String`/`Table`/JSON) so the CLI binary owns the terminal; stray prints corrupt `--json` emissions | the CLI and other bins, tests, examples |
//! | P01 | **transitive purity** of the pure-root call closures | every function reachable from `shard_epoch_delta`, `run_experiment`, the checkpoint codecs, … (see [`passes::PURE_ROOTS`]) must be free of ambient entropy, wall-clock, environment reads, and interior-mutable statics — *including everything they call*, resolved through the conservative call graph; unresolved calls are pessimistically impure | test regions; bins, tests and examples never enter the graph |
//! | P02 | **RNG stream discipline** | (a) one RNG drawn from in two argument positions of one call, or feeding two calls, in a single statement depends on evaluation order — `f(rng.draw(), rng.draw())` works until a refactor reorders, splits, or lifts the draws and silently reshuffles the consumed stream; bind them to sequential `let`s or derive independent streams via `derive_seed2`; (b) `rng.clone()` forks a stream into replayed draws (the η-sweep replay in `runner.rs` is the blessed exception); (c) an RNG captured by a closure handed to `map_trials`/`map_trials_with`/`thread::spawn` draws in scheduler order | tests, examples, binary targets |
//!
//! Run `ldp-lint --explain <RULE>` for the full rationale plus the
//! bad/good fixture pair of any rule.
//!
//! # Cross-file analysis
//!
//! The second stage builds, per run: a delimiter-matched token tree
//! ([`tree`]), a workspace symbol table — module paths from file layout
//! plus inline `mod`s, every `fn` with parameters and body extent, `use`
//! aliases, interior-mutable statics ([`symbols`]) — and a conservative
//! call graph with three-way resolution: workspace (possibly a union of
//! same-named candidates), external, or *opaque* ([`callgraph`]). The
//! P01/P02 passes ([`passes`]) run on top. Known limits, all
//! false-negative directions: turbofish and `<T as Trait>::m` callees
//! are skipped, field-closure calls are invisible, and macro bodies are
//! not expanded.
//!
//! # No suppressions
//!
//! The configuration is fixed: the rules, their file-class exemptions
//! (the catalog's last column) and the P01 root list
//! [`passes::PURE_ROOTS`] are code. There is no suppression file and no
//! per-finding opt-out, so every finding is fixed at the source. A root
//! that matches no library function is a hard error rather than a
//! silently empty pass.
//!
//! # Golden drift
//!
//! `--check-goldens` verifies every blessed artifact (every file under
//! `tests/golden/` and `crates/sim/tests/golden/`) against the checked-in
//! `golden.manifest` of FNV-1a 64 content hashes (see [`goldens`]), so a
//! golden cannot change — or appear, or vanish — without an explicit
//! `--bless-goldens` whose manifest diff lands in review.
//!
//! # Output
//!
//! Findings print as `path:line:col: [ID] message` plus the offending
//! line.
//!
//! # Known limits (by design)
//!
//! The lexer has no type information. D01 tracks only file-local
//! bindings; D03 only fires when one operand is a float literal or an
//! `as f64`/`as f32` cast; the RNG heuristic is the binding name. False
//! negatives are possible; false positives are rare, and are fixed in
//! the code like any other finding. The point is to catch the classic
//! regression shapes cheaply and offline, not to re-implement rustc.

pub mod callgraph;
pub mod goldens;
pub mod lexer;
pub mod passes;
pub mod rules;
pub mod symbols;
pub mod tree;

pub use goldens::{bless_goldens, check_goldens, GOLDEN_DIRS, GOLDEN_MANIFEST};
pub use rules::{lint_file, FileClass, Finding, RuleId};

use std::path::{Path, PathBuf};

/// A fatal lint-pass error (I/O, or a pure root the workspace lacks) —
/// distinct from findings, which are diagnostics about the code under
/// analysis.
#[derive(Debug)]
pub enum LintError {
    /// Reading the tree or a file failed.
    Io(String),
    /// A P01 pure root matches no library function in the workspace.
    Roots(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(m) => write!(f, "io error: {m}"),
            LintError::Roots(m) => write!(f, "root error: {m}"),
        }
    }
}

impl std::error::Error for LintError {}

/// The roots the pass walks, relative to the workspace root. `vendor/`
/// is deliberately absent: vendored stand-ins are external code.
pub const WALK_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Directory names skipped wherever they appear: build output, VCS, and
/// the lint crate's own known-bad fixture snippets.
pub const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "vendor"];

/// Everything one workspace scan produced.
#[derive(Debug)]
pub struct LintReport {
    /// Every finding, in (path, line, col) order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Collects every `.rs` file under the walk roots, sorted by path so
/// output (and therefore CI logs) is deterministic.
pub fn collect_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    for wr in WALK_ROOTS {
        let dir = root.join(wr);
        if dir.is_dir() {
            walk_dir(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| LintError::Io(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk_dir(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs both analysis stages over in-memory `(rel_path, source)` pairs:
/// the token-local rules per file, then the cross-file P01/P02 passes
/// over the symbol table + call graph. `roots` are the P01 roots (empty
/// = P01 traverses nothing; [`lint_workspace`] passes
/// [`passes::PURE_ROOTS`]). `crate_idents` maps `crates/<dir>` directory
/// names to lib idents (see [`crate_ident_map`]); `root_ident` names the
/// workspace-root package. Returns the findings sorted by
/// path/line/col. Errors when a root matches nothing.
pub fn analyze_files(
    files: &[(String, String)],
    roots: &[&str],
    crate_idents: &[(String, String)],
    root_ident: &str,
) -> Result<Vec<Finding>, String> {
    let mut sources = Vec::with_capacity(files.len());
    let mut all: Vec<Finding> = Vec::new();
    for (rel, src) in files {
        let sf = symbols::SourceFile::new(rel, src);
        all.extend(rules::lint_tokens(rel, &sf.class, &sf.toks, src));
        sources.push(sf);
    }
    let ws = symbols::Workspace::build(sources, crate_idents, root_ident);
    let cg = callgraph::CallGraph::build(&ws);
    for pf in passes::run_passes(&ws, &cg, roots)? {
        let file = &ws.files[pf.file];
        let tok = &file.toks[pf.tok];
        let (_, src) = &files[pf.file];
        let source_line = src
            .lines()
            .nth(tok.line as usize - 1)
            .unwrap_or_default()
            .to_string();
        all.push(Finding {
            path: file.rel_path.clone(),
            line: tok.line,
            col: tok.col,
            rule: pf.rule,
            message: pf.message,
            source_line,
        });
    }
    all.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(all)
}

/// Runs the full catalog (both stages) over the workspace at `root`.
/// Findings come back sorted by path/line/col.
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    let paths = collect_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for file in &paths {
        let src = std::fs::read_to_string(file)
            .map_err(|e| LintError::Io(format!("{}: {e}", file.display())))?;
        files.push((relative_path(root, file), src));
    }
    let crate_idents = crate_ident_map(root);
    let root_ident = root_package_ident(root);
    let findings = analyze_files(&files, &passes::PURE_ROOTS, &crate_idents, &root_ident)
        .map_err(LintError::Roots)?;
    Ok(LintReport {
        findings,
        files_scanned: files.len(),
    })
}

/// Maps each `crates/<dir>` to its library crate ident by reading the
/// crate's `Cargo.toml` (`[lib] name` when present, else the `[package]`
/// name with `-` → `_`). Directories whose manifest cannot be read fall
/// back to the directory-name convention inside [`symbols`].
pub fn crate_ident_map(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return out;
    };
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let Some(ident) = manifest_lib_ident(&manifest) else {
            continue;
        };
        let dir_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        out.push((dir_name, ident));
    }
    out
}

/// The workspace-root package ident (for files under the root `src/`).
pub fn root_package_ident(root: &Path) -> String {
    std::fs::read_to_string(root.join("Cargo.toml"))
        .ok()
        .and_then(|m| manifest_lib_ident(&m))
        .unwrap_or_else(|| "workspace_root".to_string())
}

/// Extracts the library ident from a `Cargo.toml`: the `[lib] name`
/// when declared, else the `[package] name`, `-` normalized to `_`.
fn manifest_lib_ident(manifest: &str) -> Option<String> {
    let mut section = String::new();
    let mut package_name: Option<String> = None;
    let mut lib_name: Option<String> = None;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        if key.trim() != "name" {
            continue;
        }
        let value = value.trim().trim_matches('"').to_string();
        match section.as_str() {
            "package" => package_name = Some(value),
            "lib" => lib_name = Some(value),
            _ => {}
        }
    }
    lib_name.or(package_name).map(|n| n.replace('-', "_"))
}

/// Workspace-relative forward-slash path (falls back to the full path
/// when `file` is not under `root`).
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.to_string_lossy().replace('\\', "/")
}
