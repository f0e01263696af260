//! The rule catalog and its enforcement pass.
//!
//! See the crate-level docs for the full rationale table. Each rule here
//! is scoped by [`FileClass`] (where in the workspace the file lives) and
//! by token-level test-region marking ([`mark_test_regions`]), so that
//! the exemptions the catalog promises — tests, examples, the CLI — are
//! applied uniformly.

use crate::lexer::{lex, Tok, TokKind};

/// A rule identifier from the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No iteration over `HashMap`/`HashSet` in non-test library code.
    D01,
    /// No ambient entropy or wall-clock outside the CLI.
    D02,
    /// No `==`/`!=` against float-typed operands.
    D03,
    /// No `unwrap()` / bare `expect("")` in non-test library code.
    D04,
    /// Seed literals only in tests and examples.
    D05,
    /// Artifact writes go through `ldp_common::write_atomic`.
    D09,
    /// No `thread::spawn` outside the `map_trials*` internals.
    D10,
    /// Every crate root carries `#![forbid(unsafe_code)]`.
    H01,
    /// No `println!`/`eprintln!` outside the CLI and tests.
    H02,
    /// Functions reachable from the pure roots are transitively free of
    /// ambient state (cross-file pass, see [`crate::passes`]).
    P01,
    /// RNG stream discipline: no same-statement double feeds, stray
    /// clones, or closure captures into trial fan-outs (cross-file pass).
    P02,
}

impl RuleId {
    /// Every rule, in catalog order.
    pub const ALL: [RuleId; 11] = [
        RuleId::D01,
        RuleId::D02,
        RuleId::D03,
        RuleId::D04,
        RuleId::D05,
        RuleId::D09,
        RuleId::D10,
        RuleId::H01,
        RuleId::H02,
        RuleId::P01,
        RuleId::P02,
    ];

    /// The stable id string (`"D01"`, …) used in output and fixture markers.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::D01 => "D01",
            RuleId::D02 => "D02",
            RuleId::D03 => "D03",
            RuleId::D04 => "D04",
            RuleId::D05 => "D05",
            RuleId::D09 => "D09",
            RuleId::D10 => "D10",
            RuleId::H01 => "H01",
            RuleId::H02 => "H02",
            RuleId::P01 => "P01",
            RuleId::P02 => "P02",
        }
    }

    /// One-line summary for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D01 => "no HashMap/HashSet iteration in non-test library code",
            RuleId::D02 => "no ambient entropy or wall-clock outside the CLI",
            RuleId::D03 => "no ==/!= on float-typed operands",
            RuleId::D04 => "no unwrap()/bare expect(\"\") in non-test library code",
            RuleId::D05 => "rng_from_seed(<literal>) only in tests and examples",
            RuleId::D09 => "artifact writes go through ldp_common::write_atomic",
            RuleId::D10 => "no thread::spawn outside map_trials* internals",
            RuleId::H01 => "crate roots must carry #![forbid(unsafe_code)]",
            RuleId::H02 => "no println!/eprintln! outside the CLI and tests",
            RuleId::P01 => "pure-root call closures stay transitively free of ambient state",
            RuleId::P02 => "RNG streams: no same-statement double draws, clones, or captures",
        }
    }

    /// The full catalog rationale for `--explain` — why the rule exists
    /// and what the sanctioned alternative is.
    pub fn rationale(self) -> &'static str {
        match self {
            RuleId::D01 => {
                "Hash iteration order is nondeterministic across runs and platforms. One \
                 `for (k, _) in &map` feeding a draw loop desynchronizes every downstream \
                 RNG stream and breaks replay. Membership checks (contains/get/insert) stay \
                 legal — hash collections are fine as sets, not as iteration sources. Use a \
                 BTreeMap/BTreeSet or collect into a sorted Vec."
            }
            RuleId::D02 => {
                "Every random bit must flow from the master seed via rng_from_seed/\
                 derive_seed2, and nothing may observe real time — otherwise results stop \
                 being a pure function of (spec, seed) and the golden gates are meaningless. \
                 Binary targets (the CLI) are the only places allowed to touch the \
                 outside world."
            }
            RuleId::D03 => {
                "Float equality is almost always a rounding-sensitive bug. Intentional \
                 exact comparison (sentinels, golden bit-compares) must go through \
                 ldp_common::float::{exact_eq, exactly_zero}, which documents the intent at \
                 the one blessed definition site."
            }
            RuleId::D04 => {
                "A library panic aborts a whole run — a stream mid-epoch, a repro \
                 mid-figure. The workspace contract is typed errors (LdpError) or \
                 graceful degradation (ArmOutcome::Degenerate); a justified \
                 .expect(\"<why this cannot fail>\") is allowed because the message is \
                 the proof obligation."
            }
            RuleId::D05 => {
                "Production paths must derive per-purpose streams via derive_seed2(master, \
                 …): a literal rng_from_seed(42) silently reuses one stream everywhere, \
                 collides shard/epoch/trial draws, and makes the seed impossible to vary \
                 from the CLI."
            }
            RuleId::D09 => {
                "A bare fs::write/File::create leaves a torn half-file on crash or \
                 SIGKILL, which the checkpoint-resume and golden machinery would then read \
                 as corrupt or — worse — silently truncated-but-parseable. \
                 ldp_common::write_atomic (temp file + rename in the target directory) \
                 makes every artifact either fully old or fully new. Tests and examples \
                 write scratch files and are exempt; write_atomic's own implementation and \
                 the lint crate's manifest writer are the blessed definition sites."
            }
            RuleId::D10 => {
                "Threading topology is part of the determinism argument: the workspace \
                 funnels all parallelism through map_trials/map_trials_with (which join in \
                 deterministic trial order). A stray thread::spawn anywhere else \
                 introduces unaudited interleaving — route the work through the runner, \
                 or extend the audited surface deliberately."
            }
            RuleId::H01 => {
                "The workspace is pure safe Rust; #![forbid(unsafe_code)] turns that claim \
                 into a compile error, and this rule turns *removing the forbid* into a \
                 lint error."
            }
            RuleId::H02 => {
                "Library output must be returned (String/Table/JSON) so the CLI binary \
                 owns the terminal; a stray println! corrupts --json emissions and \
                 interleaves nondeterministically under parallel trials."
            }
            RuleId::P01 => {
                "The cross-file purity pass: every function reachable from the pure roots \
                 (shard_epoch_delta, run_experiment, checkpoint encode/decode — the fixed \
                 list passes::PURE_ROOTS) must be transitively free of D02-class ambient \
                 sources, environment reads, and interior-mutable statics. Calls the \
                 conservative call graph cannot resolve are treated as impure. Nothing can \
                 be suppressed: move the impure read out of the closure (wall-clock \
                 timing belongs in the binaries) or simplify the call path so it \
                 resolves."
            }
            RuleId::P02 => {
                "RNG stream discipline across the call graph: (a) one RNG drawn from in two \
                 argument positions of one call, or feeding two calls, in a single statement \
                 depends on evaluation order — Rust evaluates left-to-right today, but a \
                 refactor that reorders, splits, or lifts the draws silently reshuffles the \
                 consumed stream; bind the draws to sequential `let`s or derive independent \
                 streams via derive_seed2; (b) cloning an RNG forks the stream into replayed \
                 draws — derive an independent stream via derive_seed2 (the η-sweep replay \
                 in runner.rs is the one blessed exception); (c) an RNG captured by a \
                 closure handed to map_trials/map_trials_with/thread::spawn draws in \
                 scheduler order — take the RNG as a closure parameter or derive a \
                 per-trial stream inside."
            }
        }
    }

    /// A known-bad example for `--explain`, straight from the fixture
    /// the test suite locks (`crates/lint/fixtures/bad/<id>.rs`).
    pub fn example_bad(self) -> &'static str {
        match self {
            RuleId::D01 => include_str!("../fixtures/bad/d01.rs"),
            RuleId::D02 => include_str!("../fixtures/bad/d02.rs"),
            RuleId::D03 => include_str!("../fixtures/bad/d03.rs"),
            RuleId::D04 => include_str!("../fixtures/bad/d04.rs"),
            RuleId::D05 => include_str!("../fixtures/bad/d05.rs"),
            RuleId::D09 => include_str!("../fixtures/bad/d09.rs"),
            RuleId::D10 => include_str!("../fixtures/bad/d10.rs"),
            RuleId::H01 => include_str!("../fixtures/bad/h01.rs"),
            RuleId::H02 => include_str!("../fixtures/bad/h02.rs"),
            RuleId::P01 => include_str!("../fixtures/bad/p01.rs"),
            RuleId::P02 => include_str!("../fixtures/bad/p02.rs"),
        }
    }

    /// The clean twin of [`RuleId::example_bad`]
    /// (`crates/lint/fixtures/good/<id>.rs`).
    pub fn example_good(self) -> &'static str {
        match self {
            RuleId::D01 => include_str!("../fixtures/good/d01.rs"),
            RuleId::D02 => include_str!("../fixtures/good/d02.rs"),
            RuleId::D03 => include_str!("../fixtures/good/d03.rs"),
            RuleId::D04 => include_str!("../fixtures/good/d04.rs"),
            RuleId::D05 => include_str!("../fixtures/good/d05.rs"),
            RuleId::D09 => include_str!("../fixtures/good/d09.rs"),
            RuleId::D10 => include_str!("../fixtures/good/d10.rs"),
            RuleId::H01 => include_str!("../fixtures/good/h01.rs"),
            RuleId::H02 => include_str!("../fixtures/good/h02.rs"),
            RuleId::P01 => include_str!("../fixtures/good/p01.rs"),
            RuleId::P02 => include_str!("../fixtures/good/p02.rs"),
        }
    }

    /// Parses an id string (case-insensitive).
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(s.trim()))
    }
}

/// One diagnostic: `path:line:col: [ID] message` plus the offending line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, for display.
    pub source_line: String,
}

impl Finding {
    /// Renders the two-line diagnostic block.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}\n    | {}",
            self.path,
            self.line,
            self.col,
            self.rule.id(),
            self.message,
            self.source_line.trim_end()
        )
    }
}

/// Where a file sits in the workspace — drives per-rule exemptions.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// A binary target: under `src/bin/` or a `src/main.rs`.
    pub bin: bool,
    /// An integration-test file (top-level `tests/` or `crates/*/tests/`).
    pub test_file: bool,
    /// Under an `examples/` directory.
    pub example: bool,
    /// A crate root (`src/lib.rs`) — the H01 surface.
    pub crate_root: bool,
    /// The one blessed exact-float-comparison site
    /// (`crates/common/src/float.rs`) — D03 does not apply there.
    pub float_blessed: bool,
}

impl FileClass {
    /// Classifies a workspace-relative, forward-slash path.
    pub fn classify(rel_path: &str) -> FileClass {
        let p = rel_path;
        FileClass {
            bin: p.contains("/src/bin/") || p.ends_with("src/main.rs"),
            test_file: p.starts_with("tests/") || p.contains("/tests/"),
            example: p.starts_with("examples/") || p.contains("/examples/"),
            crate_root: p == "src/lib.rs"
                || (p.starts_with("crates/") && p.ends_with("/src/lib.rs")),
            float_blessed: p == "crates/common/src/float.rs",
        }
    }

    /// "Library code": not a test file, example, or bin.
    pub(crate) fn library(&self) -> bool {
        !(self.test_file || self.example || self.bin)
    }
}

/// Marks every token that sits inside test-gated scope: an item under
/// `#[cfg(test)]` / `#[test]` / `#[bench]` (any attribute whose
/// identifier set contains `test` or `bench`), or a `mod` whose name
/// starts with `test`. Attribute → item association is brace-structural:
/// the pending flag applies until the item's `{` opens (marking the whole
/// block) or a `;`/`,`/`}` ends a braceless item (`use`, `struct S;`).
pub fn mark_test_regions(toks: &mut [Tok]) {
    let mut stack: Vec<bool> = Vec::new();
    let mut pending = false;
    let mut k = 0usize;
    while k < toks.len() {
        let parent = stack.last().copied().unwrap_or(false);
        // Outer attribute: consume `#[ … ]` atomically.
        if toks[k].is_punct("#") && k + 1 < toks.len() && toks[k + 1].is_punct("[") {
            let mut depth = 0usize;
            let mut has_test = false;
            let mut j = k + 1;
            while j < toks.len() {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].kind == TokKind::Ident
                    && (toks[j].text == "test" || toks[j].text == "bench")
                {
                    has_test = true;
                }
                j += 1;
            }
            pending |= has_test;
            let marked = parent || pending;
            let end = j.min(toks.len() - 1);
            for t in toks[k..=end].iter_mut() {
                t.in_test = marked;
            }
            k = j + 1;
            continue;
        }
        // Inner attribute `#![ … ]`: skip atomically, no pending change.
        if toks[k].is_punct("#")
            && k + 2 < toks.len()
            && toks[k + 1].is_punct("!")
            && toks[k + 2].is_punct("[")
        {
            let mut depth = 0usize;
            let mut j = k + 2;
            while j < toks.len() {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let end = j.min(toks.len() - 1);
            for t in toks[k..=end].iter_mut() {
                t.in_test = parent;
            }
            k = j + 1;
            continue;
        }
        // `mod test…` gates its block even without #[cfg(test)].
        if toks[k].is_ident("mod")
            && toks
                .get(k + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("test"))
        {
            pending = true;
        }
        toks[k].in_test = parent || pending;
        if toks[k].is_punct("{") {
            stack.push(parent || pending);
            pending = false;
        } else if toks[k].is_punct("}") {
            stack.pop();
            pending = false;
        } else if toks[k].is_punct(";") || toks[k].is_punct(",") {
            pending = false;
        }
        k += 1;
    }
}

/// Runs the whole local catalog over one file's source.
pub fn lint_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let class = FileClass::classify(rel_path);
    let mut toks = lex(src);
    mark_test_regions(&mut toks);
    lint_tokens(rel_path, &class, &toks, src)
}

/// Runs the local rules over pre-lexed tokens (with test regions already
/// marked) — the entry the cross-file analyzer uses so each file is
/// lexed exactly once. `src` supplies the quoted source lines.
pub fn lint_tokens(rel_path: &str, class: &FileClass, toks: &[Tok], src: &str) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out: Vec<Finding> = Vec::new();
    {
        let mut emit = |tok: &Tok, rule: RuleId, message: String| {
            let source_line = lines
                .get(tok.line as usize - 1)
                .map(|s| (*s).to_string())
                .unwrap_or_default();
            out.push(Finding {
                path: rel_path.to_string(),
                line: tok.line,
                col: tok.col,
                rule,
                message,
                source_line,
            });
        };
        rule_d01(class, toks, &mut emit);
        rule_d02(class, toks, &mut emit);
        rule_d03(class, toks, &mut emit);
        rule_d04(class, toks, &mut emit);
        rule_d05(class, toks, &mut emit);
        rule_d09(class, toks, &mut emit, rel_path);
        rule_d10(class, toks, &mut emit, rel_path);
        rule_h01(class, toks, &mut emit, rel_path);
        rule_h02(class, toks, &mut emit);
    }
    out.sort_by_key(|f| (f.line, f.col, f.rule));
    out
}

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// D01 — order-nondeterministic iteration over `HashMap`/`HashSet`.
///
/// Heuristic, file-local binding tracking: a name counts as hash-backed
/// when it is `let`-bound to a `HashMap`/`HashSet` constructor expression
/// or carries an explicit `: HashMap<…>`/`: HashSet<…>` ascription
/// (params, fields, lets). Flagged uses: `name.iter()` & friends
/// ([`ITER_METHODS`]) and `for … in [&[mut]] name {`. Membership checks
/// (`contains`, `insert`, `get`) stay legal — that is the point of the
/// rule: hash collections are fine as sets, not as iteration sources.
fn rule_d01(class: &FileClass, toks: &[Tok], emit: &mut impl FnMut(&Tok, RuleId, String)) {
    if !class.library() {
        return;
    }
    // Pass 1: collect hash-backed binding names. Test-region bindings
    // are skipped — they cannot leak into library scope, and a test-only
    // `let names = HashSet::new()` must not taint an unrelated library
    // binding that happens to share the name.
    let mut bindings: Vec<String> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.in_test || !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `std :: collections ::` path prefix.
        let mut head = k;
        while head >= 2 && toks[head - 1].is_punct("::") && toks[head - 2].kind == TokKind::Ident {
            head -= 2;
        }
        if head == 0 {
            continue;
        }
        let before = &toks[head - 1];
        if before.is_punct("=") {
            // `let [mut] NAME = … HashMap::new()` — find the `let`.
            let mut j = head - 1;
            while j > 0 {
                j -= 1;
                let t = &toks[j];
                if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                    break;
                }
                if t.is_ident("let") {
                    let mut n = j + 1;
                    if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                        n += 1;
                    }
                    if let Some(name) = toks.get(n).filter(|t| t.kind == TokKind::Ident) {
                        bindings.push(name.text.clone());
                    }
                    break;
                }
            }
        } else {
            // `NAME: [&[mut]] HashMap<…>` — param, field, or ascribed let.
            let mut b = head - 1;
            while b > 0 && (toks[b].is_punct("&") || toks[b].is_ident("mut")) {
                b -= 1;
            }
            if toks[b].is_punct(":") && b >= 1 && toks[b - 1].kind == TokKind::Ident {
                bindings.push(toks[b - 1].text.clone());
            }
        }
    }
    bindings.sort();
    bindings.dedup();
    // Pass 2: flag order-observing uses of tracked names.
    for (k, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let name_is_tracked = bindings.binary_search(&t.text).is_ok();
        if name_is_tracked
            && toks.get(k + 1).is_some_and(|t| t.is_punct("."))
            && toks
                .get(k + 2)
                .is_some_and(|m| ITER_METHODS.iter().any(|im| m.is_ident(im)))
            && toks.get(k + 3).is_some_and(|t| t.is_punct("("))
        {
            let method = &toks[k + 2].text;
            emit(
                t,
                RuleId::D01,
                format!(
                    "`{}.{method}()` iterates a HashMap/HashSet in library code — order is \
                     nondeterministic; collect into a sorted Vec or use a BTreeMap/BTreeSet \
                     (membership checks are fine)",
                    t.text
                ),
            );
        }
        // `for PAT in [&[mut]] NAME {`
        if t.is_ident("in") {
            let mut j = k + 1;
            if toks.get(j).is_some_and(|t| t.is_punct("&")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let (Some(name), Some(open)) = (toks.get(j), toks.get(j + 1)) else {
                continue;
            };
            if name.kind == TokKind::Ident
                && bindings.binary_search(&name.text).is_ok()
                && open.is_punct("{")
            {
                emit(
                    name,
                    RuleId::D01,
                    format!(
                        "`for … in {}` iterates a HashMap/HashSet in library code — order is \
                         nondeterministic; iterate a sorted Vec or a BTreeMap/BTreeSet instead",
                        name.text
                    ),
                );
            }
        }
    }
}

/// D02 — ambient entropy / wall-clock. The draw-for-draw differential
/// gates only hold when every random bit flows from the master seed and
/// nothing observes real time; binary targets (the CLI) are the only
/// places allowed to touch the outside world.
fn rule_d02(class: &FileClass, toks: &[Tok], emit: &mut impl FnMut(&Tok, RuleId, String)) {
    if class.bin {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let banned = match t.text.as_str() {
            "thread_rng" | "OsRng" | "from_entropy" => true,
            "random" => k >= 2 && toks[k - 1].is_punct("::") && toks[k - 2].is_ident("rand"),
            _ => false,
        };
        if banned {
            emit(
                t,
                RuleId::D02,
                format!(
                    "`{}` is an ambient entropy source — all randomness must derive from the \
                     master seed via rng_from_seed/derive_seed2",
                    t.text
                ),
            );
            continue;
        }
        if (t.is_ident("SystemTime") || t.is_ident("Instant"))
            && toks.get(k + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(k + 2).is_some_and(|t| t.is_ident("now"))
        {
            emit(
                t,
                RuleId::D02,
                format!(
                    "`{}::now()` reads the wall-clock — deterministic code must not observe \
                     real time (the CLI is exempt)",
                    t.text
                ),
            );
        }
    }
}

/// D03 — `==`/`!=` with a float-typed operand. Detection is heuristic
/// (the lexer has no types): an operand is float-typed when it is a float
/// literal or an `as f64`/`as f32` cast. Intentional exact comparison
/// goes through `ldp_common::float` (the one blessed definition site).
fn rule_d03(class: &FileClass, toks: &[Tok], emit: &mut impl FnMut(&Tok, RuleId, String)) {
    if class.test_file || class.example || class.float_blessed {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) || t.in_test {
            continue;
        }
        let left_float = k >= 1 && toks[k - 1].kind == TokKind::Float
            || (k >= 2
                && toks[k - 2].is_ident("as")
                && (toks[k - 1].is_ident("f64") || toks[k - 1].is_ident("f32")));
        let right_float = toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Float);
        if left_float || right_float {
            emit(
                t,
                RuleId::D03,
                format!(
                    "`{}` on a float-typed operand — use ldp_common::float::exact_eq/\
                     exactly_zero for intentional exact comparison, or an epsilon band",
                    t.text
                ),
            );
        }
    }
}

/// D04 — `unwrap()` / bare `expect("")` in non-test library code. The
/// streaming/defense contracts degrade (`ArmOutcome::Degenerate`) or
/// propagate typed errors; a library panic aborts the whole run.
fn rule_d04(class: &FileClass, toks: &[Tok], emit: &mut impl FnMut(&Tok, RuleId, String)) {
    if !class.library() {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if t.in_test || k == 0 || !toks[k - 1].is_punct(".") {
            continue;
        }
        if t.is_ident("unwrap")
            && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
            && toks.get(k + 2).is_some_and(|t| t.is_punct(")"))
        {
            emit(
                t,
                RuleId::D04,
                "`.unwrap()` in library code — return a typed error (`ldp_common::LdpError`) \
                 or use `.expect(\"<why this cannot fail>\")`"
                    .to_string(),
            );
        }
        if t.is_ident("expect")
            && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
            && toks
                .get(k + 2)
                .is_some_and(|t| matches!(t.kind, TokKind::Str { empty: true }))
        {
            emit(
                t,
                RuleId::D04,
                "bare `.expect(\"\")` in library code — the message must state why the value \
                 is guaranteed present"
                    .to_string(),
            );
        }
    }
}

/// D05 — literal seeds in production paths. Every production RNG stream
/// must be derived from the run's master seed via `derive_seed2` so that
/// shard/epoch/trial streams never collide; a hard-coded
/// `rng_from_seed(42)` silently reuses one stream everywhere.
fn rule_d05(class: &FileClass, toks: &[Tok], emit: &mut impl FnMut(&Tok, RuleId, String)) {
    if class.test_file || class.example {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if t.in_test || !t.is_ident("rng_from_seed") {
            continue;
        }
        if toks.get(k + 1).is_some_and(|t| t.is_punct("("))
            && toks.get(k + 2).is_some_and(|t| t.kind == TokKind::Int)
            && toks.get(k + 3).is_some_and(|t| t.is_punct(")"))
        {
            emit(
                t,
                RuleId::D05,
                format!(
                    "`rng_from_seed({})` hard-codes a seed in a production path — derive the \
                     stream from the master seed via derive_seed2",
                    toks[k + 2].text
                ),
            );
        }
    }
}

/// Files allowed to create/write files directly: the `write_atomic`
/// implementation itself, and the lint crate's own manifest writer
/// (which cannot depend on `ldp_common` and carries its own
/// temp-and-rename).
const D09_BLESSED: [&str; 2] = ["crates/common/src/json.rs", "crates/lint/src/goldens.rs"];

/// D09 — artifact writes must go through `ldp_common::write_atomic`. A
/// bare `fs::write`/`File::create` leaves a torn half-file on crash,
/// which checkpoint-resume and the golden gates would read as corrupt
/// (or worse, truncated-but-parseable). Unlike most rules this one
/// applies to binaries too — the CLI is exactly where artifacts get
/// written.
fn rule_d09(
    class: &FileClass,
    toks: &[Tok],
    emit: &mut impl FnMut(&Tok, RuleId, String),
    rel_path: &str,
) {
    if class.test_file || class.example || D09_BLESSED.contains(&rel_path) {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident || k < 2 {
            continue;
        }
        if !toks.get(k + 1).is_some_and(|n| n.is_punct("(")) || !toks[k - 1].is_punct("::") {
            continue;
        }
        let head = &toks[k - 2];
        let writes = (head.is_ident("fs") && (t.text == "write" || t.text == "copy"))
            || (head.is_ident("File") && (t.text == "create" || t.text == "create_new"));
        if writes {
            emit(
                t,
                RuleId::D09,
                format!(
                    "`{}::{}` writes a file non-atomically — a crash mid-write leaves a \
                     torn artifact; route it through ldp_common::write_atomic (temp file \
                     + rename)",
                    head.text, t.text
                ),
            );
        }
    }
}

/// Files allowed to spawn threads/processes: the trial fan-out
/// internals.
const D10_ALLOWED: [&str; 1] = ["crates/sim/src/runner.rs"];

/// D10 — thread-spawn audit. All parallelism must flow through the
/// audited surface (`map_trials*`) whose join order is deterministic;
/// any other `thread::spawn` / `.spawn(` is unaudited interleaving.
/// Deliberately fires in tests and binaries too: the audit is about
/// topology, not output.
fn rule_d10(
    class: &FileClass,
    toks: &[Tok],
    emit: &mut impl FnMut(&Tok, RuleId, String),
    rel_path: &str,
) {
    let _ = class;
    if D10_ALLOWED.contains(&rel_path) {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !t.is_ident("spawn")
            || !toks.get(k + 1).is_some_and(|n| n.is_punct("("))
            || k == 0
        {
            continue;
        }
        let path_spawn = k >= 2 && toks[k - 1].is_punct("::") && toks[k - 2].is_ident("thread");
        let method_spawn = toks[k - 1].is_punct(".");
        if path_spawn || method_spawn {
            emit(
                t,
                RuleId::D10,
                "thread/process spawn outside the audited surface (map_trials* internals \
                 in runner.rs) — route parallel work through the runner, or \
                 extend the audited file list deliberately"
                    .to_string(),
            );
        }
    }
}

/// H01 — crate roots must carry `#![forbid(unsafe_code)]`.
fn rule_h01(
    class: &FileClass,
    toks: &[Tok],
    emit: &mut impl FnMut(&Tok, RuleId, String),
    rel_path: &str,
) {
    if !class.crate_root {
        return;
    }
    let found = toks.windows(8).any(|w| {
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && w[2].is_punct("[")
            && w[3].is_ident("forbid")
            && w[4].is_punct("(")
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(")")
            && w[7].is_punct("]")
    });
    if !found {
        let anchor = Tok {
            kind: TokKind::Punct,
            text: String::new(),
            line: 1,
            col: 1,
            in_test: false,
        };
        emit(
            &anchor,
            RuleId::H01,
            format!("crate root {rel_path} is missing `#![forbid(unsafe_code)]`"),
        );
    }
}

/// H02 — stray stdout/stderr. Library code renders to `String`/`Table`
/// and lets the CLI binary decide what reaches a terminal.
fn rule_h02(class: &FileClass, toks: &[Tok], emit: &mut impl FnMut(&Tok, RuleId, String)) {
    if !class.library() {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        if (t.text == "println" || t.text == "eprintln")
            && toks.get(k + 1).is_some_and(|t| t.is_punct("!"))
        {
            emit(
                t,
                RuleId::H02,
                format!(
                    "`{}!` in library code — render to a String (e.g. \
                     ScenarioReport::render_text) and let the CLI print",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_on(path: &str, src: &str) -> Vec<(u32, &'static str)> {
        lint_file(path, src)
            .into_iter()
            .map(|f| (f.line, f.rule.id()))
            .collect()
    }

    const LIB: &str = "crates/demo/src/x.rs";

    #[test]
    fn cfg_test_scope_exempts_unwrap_and_prints() {
        let src = "pub fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { Some(1).unwrap(); println!(\"x\"); }\n\
                   }\n";
        assert!(rules_on(LIB, src).is_empty());
    }

    #[test]
    fn test_attr_on_fn_exempts_body() {
        let src = "#[test]\nfn t() { Some(1).unwrap(); }\n";
        assert!(rules_on(LIB, src).is_empty());
    }

    #[test]
    fn entropy_fires_even_in_test_code() {
        // D02 is deliberately NOT test-exempt: the differential suites
        // only mean something if the tests themselves are deterministic.
        let src = "#[cfg(test)]\nuse rand::thread_rng;\n";
        assert_eq!(rules_on(LIB, src), [(2, "D02")]);
    }

    #[test]
    fn library_unwrap_fires_and_bin_is_exempt() {
        let src = "pub fn f() { Some(1).unwrap(); }\n";
        assert_eq!(rules_on(LIB, src), [(1, "D04")]);
        assert!(rules_on("crates/sim/src/bin/ldp.rs", src).is_empty());
    }

    #[test]
    fn bare_expect_fires_but_justified_expect_passes() {
        let bare = "pub fn f() { Some(1).expect(\"\"); }\n";
        let just = "pub fn f() { Some(1).expect(\"always present: seeded above\"); }\n";
        assert_eq!(rules_on(LIB, bare), [(1, "D04")]);
        assert!(rules_on(LIB, just).is_empty());
    }

    #[test]
    fn hashmap_iteration_fires_membership_does_not() {
        let bad = "pub fn f() {\n\
                       let mut m = std::collections::HashMap::new();\n\
                       m.insert(1, 2);\n\
                       for (k, v) in &m { let _ = (k, v); }\n\
                   }\n";
        assert_eq!(rules_on(LIB, bad), [(4, "D01")]);
        let ok = "pub fn f() {\n\
                      let mut s = std::collections::HashSet::new();\n\
                      s.insert(1);\n\
                      let _ = s.contains(&1);\n\
                  }\n";
        assert!(rules_on(LIB, ok).is_empty());
    }

    #[test]
    fn test_only_hash_binding_does_not_taint_library_names() {
        // A library Vec named `names` iterated normally, plus a test-only
        // HashSet that shares the name: no finding.
        let src = "pub fn f() -> usize {\n\
                       let names: Vec<u32> = vec![1, 2];\n\
                       names.into_iter().count()\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g() {\n\
                           let mut names = std::collections::HashSet::new();\n\
                           names.insert(1);\n\
                           for n in &names { let _ = n; }\n\
                       }\n\
                   }\n";
        assert!(rules_on(LIB, src).is_empty());
    }

    #[test]
    fn ascribed_param_iteration_fires() {
        let src = "pub fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
                       m.keys().copied().collect()\n\
                   }\n";
        assert_eq!(rules_on(LIB, src), [(2, "D01")]);
    }

    #[test]
    fn entropy_and_wall_clock_fire_outside_bench() {
        let src = "pub fn f() { let _ = rand::thread_rng(); }\n\
                   pub fn g() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(rules_on(LIB, src), [(1, "D02"), (2, "D02")]);
        assert!(rules_on("crates/sim/src/bin/ldp.rs", src).is_empty());
    }

    #[test]
    fn float_equality_fires_int_does_not() {
        assert_eq!(
            rules_on(LIB, "pub fn f(x: f64) -> bool { x == 0.0 }\n"),
            [(1, "D03")]
        );
        assert_eq!(
            rules_on(LIB, "pub fn f(x: u32) -> bool { x as f64 != 1.0 }\n"),
            [(1, "D03")]
        );
        assert!(rules_on(LIB, "pub fn f(x: u32) -> bool { x == 0 }\n").is_empty());
        assert!(rules_on(
            "crates/common/src/float.rs",
            "pub fn eq(a: f64, b: f64) -> bool { a == 0.0 }\n"
        )
        .is_empty());
    }

    #[test]
    fn seed_literal_fires_derived_seed_does_not() {
        assert_eq!(
            rules_on(LIB, "pub fn f() { let _ = rng_from_seed(42); }\n"),
            [(1, "D05")]
        );
        assert!(rules_on(
            LIB,
            "pub fn f(master: u64) { let _ = rng_from_seed(derive_seed2(master, 1, 2)); }\n"
        )
        .is_empty());
    }

    #[test]
    fn crate_root_requires_forbid_unsafe() {
        assert_eq!(
            rules_on("crates/demo/src/lib.rs", "//! Docs.\npub fn f() {}\n"),
            [(1, "H01")]
        );
        assert!(rules_on(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
        // Non-roots are not checked.
        assert!(rules_on(LIB, "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn println_fires_in_library_only() {
        let src = "pub fn f() { println!(\"x\"); }\n";
        assert_eq!(rules_on(LIB, src), [(1, "H02")]);
        assert!(rules_on("crates/sim/src/bin/ldp.rs", src).is_empty());
        assert!(rules_on("tests/foo.rs", src).is_empty());
        assert!(rules_on("examples/demo.rs", src).is_empty());
    }

    #[test]
    fn bare_writes_fire_and_blessed_sites_are_exempt() {
        let src = "pub fn save(p: &std::path::Path, s: &str) {\n\
                       std::fs::write(p, s).ok();\n\
                       let _ = std::fs::File::create(p);\n\
                   }\n";
        assert_eq!(rules_on(LIB, src), [(2, "D09"), (3, "D09")]);
        // Bins DO get checked — artifacts are written exactly there.
        assert_eq!(
            rules_on("crates/sim/src/bin/ldp.rs", src),
            [(2, "D09"), (3, "D09")]
        );
        // Tests, test regions, and the two blessed impl sites are exempt.
        assert!(rules_on("crates/sim/tests/golden.rs", src).is_empty());
        assert!(rules_on(LIB, "#[test]\nfn t() { std::fs::write(p, s).ok(); }\n").is_empty());
        assert!(rules_on("crates/common/src/json.rs", src).is_empty());
        assert!(rules_on("crates/lint/src/goldens.rs", src).is_empty());
    }

    #[test]
    fn fs_copy_counts_as_a_write() {
        let src = "pub fn promote(a: &P, b: &P) { std::fs::copy(a, b).ok(); }\n";
        assert_eq!(rules_on(LIB, src), [(1, "D09")]);
    }

    #[test]
    fn spawn_fires_everywhere_except_the_audited_files() {
        let src = "pub fn go() {\n\
                       std::thread::spawn(|| {});\n\
                       let _ = scope.spawn(|| {});\n\
                   }\n";
        assert_eq!(rules_on(LIB, src), [(2, "D10"), (3, "D10")]);
        // D10 deliberately fires in tests and bins too.
        assert_eq!(
            rules_on(LIB, "#[test]\nfn t() { std::thread::spawn(|| {}); }\n"),
            [(2, "D10")]
        );
        assert!(rules_on("crates/sim/src/runner.rs", src).is_empty());
        assert_eq!(
            rules_on("crates/sim/src/stream/mod.rs", src),
            [(2, "D10"), (3, "D10")],
            "only runner.rs is audited"
        );
        // A fn *named* spawn, called bare, is not a spawn site.
        assert!(rules_on(LIB, "pub fn go() { spawn(); }\nfn spawn() {}\n").is_empty());
    }

    #[test]
    fn every_rule_has_a_nonempty_explanation_and_example_pair() {
        for rule in RuleId::ALL {
            assert!(
                !rule.rationale().trim().is_empty(),
                "{} has no rationale",
                rule.id()
            );
            assert!(
                !rule.example_bad().trim().is_empty(),
                "{} has no bad example",
                rule.id()
            );
            assert!(
                !rule.example_good().trim().is_empty(),
                "{} has no good example",
                rule.id()
            );
            assert!(
                !rule.summary().trim().is_empty(),
                "{} has no summary",
                rule.id()
            );
        }
    }

    #[test]
    fn banned_names_in_strings_and_comments_are_ignored() {
        let src = "// thread_rng in a comment\n\
                   pub fn f() -> &'static str { \"SystemTime::now unwrap()\" }\n";
        assert!(rules_on(LIB, src).is_empty());
    }
}
