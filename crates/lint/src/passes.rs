//! Cross-file analysis passes over the call graph: P01 transitive
//! purity and P02 RNG stream discipline.
//!
//! **P01 — unit purity.** Every function reachable from the pure roots
//! ([`PURE_ROOTS`]) must be transitively free of ambient state: entropy
//! sources, wall-clock reads, environment reads, `static mut`, and reads
//! of interior-mutable statics. Calls the graph could not resolve to
//! workspace code ([`Callee::Opaque`]) are treated pessimistically as
//! impure — the pass would rather demand a simpler call path than
//! silently trust an unresolved one. External callees (std, vendored
//! crates) are trusted: the D02-class sources they could smuggle in are
//! matched by name at every call site anyway.
//!
//! **P02 — RNG stream discipline.** Three shapes that leave every draw
//! *defined* today but one refactor away from reshuffling the stream:
//! (a) one RNG binding drawn from in two argument slots of one call, or
//! feeding two separate calls, inside a single statement;
//! (b) cloning an RNG outside the blessed η-sweep site — a forked
//! stream replays draws instead of deriving an independent stream via
//! `derive_seed2`; (c) an RNG binding captured by a closure handed to
//! `map_trials`/`map_trials_with`/`thread::spawn`, where per-trial
//! interleaving makes the draw order scheduler-dependent.
//!
//! Findings are emitted as [`PassFinding`]s (file index + token index);
//! [`crate::analyze_files`] converts them to ordinary [`crate::Finding`]s
//! with line/column/source-line context.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, Callee};
use crate::lexer::TokKind;
use crate::rules::RuleId;
use crate::symbols::Workspace;

/// The P01 roots: the determinism-critical entry points whose whole
/// call closure the golden gates depend on.
pub const PURE_ROOTS: [&str; 9] = [
    "attack_from_json",
    "attack_to_json",
    "from_checkpoint",
    "run_experiment",
    "run_eta_sweep",
    "shard_epoch_delta",
    "spec_from_json",
    "spec_to_json",
    "to_checkpoint",
];

/// Files allowed to clone an RNG (the η-sweep replays a prefix stream
/// deliberately, with a comment explaining why).
const BLESSED_RNG_CLONE_FILES: [&str; 1] = ["crates/sim/src/runner.rs"];

/// `std::env` functions that read ambient process state.
const ENV_READS: [&str; 9] = [
    "args",
    "args_os",
    "current_dir",
    "current_exe",
    "temp_dir",
    "var",
    "var_os",
    "vars",
    "vars_os",
];

/// A finding located by file index + token index (resolved to
/// line/column by the caller, which owns the sources).
#[derive(Debug)]
pub struct PassFinding {
    /// Index into the workspace's file list.
    pub file: usize,
    /// Token index of the offending identifier.
    pub tok: usize,
    /// Which pass fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

/// Runs both cross-file passes with `roots` as the P01 roots. Errors
/// when a root matches no library function — a misspelled root would
/// otherwise silently disable the pass.
pub fn run_passes(
    ws: &Workspace,
    cg: &CallGraph,
    roots: &[&str],
) -> Result<Vec<PassFinding>, String> {
    let mut findings = Vec::new();
    p01_purity(ws, cg, roots, &mut findings)?;
    p02_stream_discipline(ws, cg, &mut findings);
    findings.sort_by_key(|f| (f.file, f.tok, f.rule));
    Ok(findings)
}

/// True when `fns[i]` may serve as a pure root / traversal node: live
/// library code, not a test body.
fn library_fn(ws: &Workspace, i: usize) -> bool {
    let f = &ws.fns[i];
    if f.is_test {
        return false;
    }
    let c = &ws.files[f.file].class;
    !(c.test_file || c.example || c.bin || c.bench_crate)
}

/// Does `pattern` name this function? Accepts a bare name, a full
/// `crate::mod::Type::name` path, or any `::`-joined path suffix.
fn fn_matches(ws: &Workspace, i: usize, pattern: &str) -> bool {
    let f = &ws.fns[i];
    if f.name == pattern {
        return true;
    }
    let qual = f.qual();
    qual == pattern || qual.ends_with(&format!("::{pattern}"))
}

/// P01: breadth-first reachability from the pure roots, flagging direct
/// impurities inside reached bodies and opaque call edges.
fn p01_purity(
    ws: &Workspace,
    cg: &CallGraph,
    roots: &[&str],
    findings: &mut Vec<PassFinding>,
) -> Result<(), String> {
    let mut visited = vec![false; ws.fns.len()];
    let mut pred: Vec<Option<usize>> = vec![None; ws.fns.len()];
    let mut queue: Vec<usize> = Vec::new();
    for &root in roots {
        let mut any = false;
        for (i, seen) in visited.iter_mut().enumerate() {
            if library_fn(ws, i) && fn_matches(ws, i, root) {
                any = true;
                if !*seen {
                    *seen = true;
                    queue.push(i);
                }
            }
        }
        if !any {
            return Err(format!(
                "[P01] pure root `{root}` matches no library function — update the \
                 root list (`passes::PURE_ROOTS` for the workspace scan)"
            ));
        }
    }
    let mut qi = 0usize;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        for (tok, why) in direct_impurities(ws, u) {
            findings.push(PassFinding {
                file: ws.fns[u].file,
                tok,
                rule: RuleId::P01,
                message: format!(
                    "{why} inside `{}`, which must stay pure: {}",
                    ws.fns[u].qual(),
                    chain_text(ws, &pred, u)
                ),
            });
        }
        for call in &cg.calls[u] {
            match &call.callee {
                Callee::Opaque => findings.push(PassFinding {
                    file: ws.fns[u].file,
                    tok: call.name_tok,
                    rule: RuleId::P01,
                    message: format!(
                        "call to `{}` from `{}` did not resolve to workspace code — \
                         P01 treats unresolved calls as impure ({}); simplify the \
                         path so it resolves",
                        call.display,
                        ws.fns[u].qual(),
                        chain_text(ws, &pred, u)
                    ),
                }),
                Callee::Resolved(v) => {
                    for &c in v {
                        if !visited[c] {
                            visited[c] = true;
                            pred[c] = Some(u);
                            queue.push(c);
                        }
                    }
                }
                Callee::External => {}
            }
        }
    }
    Ok(())
}

/// Renders the root → … → fn chain that made `u` purity-relevant.
fn chain_text(ws: &Workspace, pred: &[Option<usize>], u: usize) -> String {
    let mut chain = vec![u];
    let mut cur = u;
    while let Some(p) = pred[cur] {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    if chain.len() == 1 {
        format!("`{}` is a declared pure root", ws.fns[u].qual())
    } else {
        let path: Vec<String> = chain.iter().map(|&i| ws.fns[i].qual()).collect();
        format!("reachable from pure root via {}", path.join(" -> "))
    }
}

/// Scans one function body for direct ambient-state touches. Test-gated
/// tokens are skipped (a `#[cfg(test)]` helper nested in a pure fn's
/// file cannot taint it).
fn direct_impurities(ws: &Workspace, u: usize) -> Vec<(usize, String)> {
    let fun = &ws.fns[u];
    let Some((open, close)) = fun.body else {
        return Vec::new();
    };
    let toks = &ws.files[fun.file].toks;
    let mut out = Vec::new();
    for k in open + 1..close {
        let t = &toks[k];
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let ambient_entropy = matches!(t.text.as_str(), "thread_rng" | "OsRng" | "from_entropy")
            || (t.text == "random"
                && k >= 2
                && toks[k - 1].is_punct("::")
                && toks[k - 2].is_ident("rand"));
        if ambient_entropy {
            out.push((k, format!("ambient entropy source `{}`", t.text)));
            continue;
        }
        if (t.is_ident("SystemTime") || t.is_ident("Instant"))
            && toks.get(k + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(k + 2).is_some_and(|n| n.is_ident("now"))
        {
            out.push((k, format!("wall-clock read `{}::now()`", t.text)));
            continue;
        }
        if t.is_ident("env")
            && toks.get(k + 1).is_some_and(|n| n.is_punct("::"))
            && toks
                .get(k + 2)
                .is_some_and(|n| ENV_READS.iter().any(|e| n.is_ident(e)))
        {
            out.push((k, format!("environment read `env::{}`", toks[k + 2].text)));
            continue;
        }
        if t.is_ident("static") && toks.get(k + 1).is_some_and(|n| n.is_ident("mut")) {
            out.push((k, "`static mut` declaration".to_string()));
            continue;
        }
        if ws.mut_statics.binary_search(&t.text).is_ok() && k >= 1 && !toks[k - 1].is_punct(".") {
            out.push((k, format!("read of interior-mutable static `{}`", t.text)));
        }
    }
    out
}

/// P02: the three stream-discipline shapes, per library function.
fn p02_stream_discipline(ws: &Workspace, cg: &CallGraph, findings: &mut Vec<PassFinding>) {
    for u in 0..ws.fns.len() {
        let fun = &ws.fns[u];
        if fun.is_test || !ws.files[fun.file].class.library() {
            continue;
        }
        let Some(body) = fun.body else { continue };
        let rel_path = ws.files[fun.file].rel_path.as_str();
        p02a_same_statement(ws, cg, u, body, findings);
        if !BLESSED_RNG_CLONE_FILES.contains(&rel_path) {
            p02b_clone(ws, u, body, findings);
        }
        p02c_captured_in_closure(ws, cg, u, body, findings);
    }
}

/// Identifier heuristic: a binding "carries an RNG" when its name
/// mentions `rng`.
fn rngish(text: &str) -> bool {
    text.to_ascii_lowercase().contains("rng")
}

/// One open delimiter of P02-a's nesting stack; only `(` groups (calls
/// and tuples) track argument slots.
struct Group {
    paren: bool,
    arg: usize,
    /// `(rng name, argument slot, token index of the use)`.
    uses: Vec<(String, usize, usize)>,
}

/// P02-a: one RNG binding whose draws depend on evaluation order within
/// a single statement (split at `;`, `{`, `}` and `=>`). Two shapes, in
/// one walk:
///
/// * **argument slots** — the binding is drawn from in ≥ 2 top-level
///   argument positions of one parenthesized group, a call or a tuple
///   (`combine(sample(&mut rng), sample(&mut rng))`; commas inside nested
///   `()`/`[]`/`{}` don't count, so a duplicate inside a single argument
///   flags at the inner group only);
/// * **separate calls** — the binding feeds ≥ 2 distinct call units
///   (`rng.next_u64() ^ rng.next_u64()`). A use's unit is the outermost
///   enclosing call's argument list, or the RNG's own method-call parens
///   at statement level.
///
/// A finding anchors at the first use it covers; when both shapes cover
/// the same first use (`(rng.a(), rng.b())`), it is reported once.
fn p02a_same_statement(
    ws: &Workspace,
    cg: &CallGraph,
    u: usize,
    (open, close): (usize, usize),
    findings: &mut Vec<PassFinding>,
) {
    let toks = &ws.files[ws.fns[u].file].toks;
    let mut call_opens: BTreeMap<usize, usize> = BTreeMap::new();
    for call in &cg.calls[u] {
        call_opens.insert(call.args_open, call.args_close);
    }
    // First use token → message; one report per anchor.
    let mut reports: BTreeMap<usize, String> = BTreeMap::new();
    // (name, statement id) → distinct unit ids + first use token.
    let mut units: BTreeMap<(String, usize), (Vec<usize>, usize)> = BTreeMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut calls: Vec<(usize, usize)> = Vec::new(); // (open, close) of enclosing calls
    let mut stmt = 0usize;
    for k in open + 1..close {
        while calls.last().is_some_and(|&(_, c)| k >= c) {
            calls.pop();
        }
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            groups.push(Group {
                paren: t.is_punct("("),
                arg: 0,
                uses: Vec::new(),
            });
            if let Some(&c) = call_opens.get(&k) {
                calls.push((k, c));
            }
            stmt += usize::from(t.is_punct("{"));
            continue;
        }
        if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            if let Some(group) = groups.pop().filter(|g| g.paren) {
                for (name, slots, first) in repeated_slots(&group.uses) {
                    reports.entry(first).or_insert_with(|| {
                        format!(
                            "`{name}` is drawn from in {slots} argument positions of one call — \
                             the consumed stream depends on argument evaluation order, which \
                             the next refactor can silently reshuffle; bind each draw to its \
                             own `let`, or derive independent streams via derive_seed2"
                        )
                    });
                }
            }
            stmt += usize::from(t.is_punct("}"));
            continue;
        }
        if t.is_punct(",") {
            if let Some(g) = groups.last_mut().filter(|g| g.paren) {
                g.arg += 1;
            }
            continue;
        }
        if t.is_punct(";") || t.is_punct("=>") {
            stmt += 1;
            continue;
        }
        if t.in_test {
            continue;
        }
        // Receiver draw: `rng.method(` with `method != clone` (clones
        // are P02-b's shape, not a draw).
        let is_receiver = t.kind == TokKind::Ident
            && rngish(&t.text)
            && toks.get(k + 1).is_some_and(|n| n.is_punct("."))
            && toks
                .get(k + 2)
                .is_some_and(|n| n.kind == TokKind::Ident && !n.is_ident("clone"))
            && toks.get(k + 3).is_some_and(|n| n.is_punct("("));
        let is_mut_borrow = t.is_punct("&")
            && toks.get(k + 1).is_some_and(|n| n.is_ident("mut"))
            && toks
                .get(k + 2)
                .is_some_and(|n| n.kind == TokKind::Ident && rngish(&n.text));
        let (name, use_tok, own_unit) = if is_receiver {
            (t.text.clone(), k, Some(k + 3))
        } else if is_mut_borrow {
            (toks[k + 2].text.clone(), k + 2, None)
        } else {
            continue;
        };
        for g in groups.iter_mut().filter(|g| g.paren) {
            g.uses.push((name.clone(), g.arg, use_tok));
        }
        let unit = match (calls.first(), own_unit) {
            (Some(&(outer, _)), _) => outer,
            (None, Some(own)) => own,
            (None, None) => continue, // `&mut rng` outside any call: a borrow, not a draw
        };
        let entry = units
            .entry((name, stmt))
            .or_insert_with(|| (Vec::new(), use_tok));
        if !entry.0.contains(&unit) {
            entry.0.push(unit);
        }
    }
    for ((name, _), (units, first)) in units {
        if units.len() >= 2 {
            reports.entry(first).or_insert_with(|| {
                format!(
                    "`{name}` feeds {} separate calls within one statement — the consumed \
                     stream depends on evaluation order, which the next refactor can \
                     silently reshuffle; bind each draw to its own `let`",
                    units.len()
                )
            });
        }
    }
    for (tok, message) in reports {
        findings.push(PassFinding {
            file: ws.fns[u].file,
            tok,
            rule: RuleId::P02,
            message,
        });
    }
}

/// The names a group's uses put in ≥ 2 distinct argument slots:
/// `(name, slot count, first use token)`.
fn repeated_slots(uses: &[(String, usize, usize)]) -> Vec<(&str, usize, usize)> {
    let mut names: Vec<&str> = uses.iter().map(|(n, _, _)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = Vec::new();
    for name in names {
        let mut slots: Vec<usize> = uses
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|&(_, slot, _)| slot)
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let first = uses
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, tok)| tok);
        if let (true, Some(first)) = (slots.len() >= 2, first) {
            out.push((name, slots.len(), first));
        }
    }
    out
}

/// P02-b: `rng.clone()` outside the blessed η-sweep file.
fn p02b_clone(
    ws: &Workspace,
    u: usize,
    (open, close): (usize, usize),
    findings: &mut Vec<PassFinding>,
) {
    let toks = &ws.files[ws.fns[u].file].toks;
    for k in open + 1..close {
        let t = &toks[k];
        if t.in_test || t.kind != TokKind::Ident || !rngish(&t.text) {
            continue;
        }
        if toks.get(k + 1).is_some_and(|n| n.is_punct("."))
            && toks.get(k + 2).is_some_and(|n| n.is_ident("clone"))
            && toks.get(k + 3).is_some_and(|n| n.is_punct("("))
        {
            findings.push(PassFinding {
                file: ws.fns[u].file,
                tok: k,
                rule: RuleId::P02,
                message: format!(
                    "`{}.clone()` forks an RNG stream — the clone replays the same draws \
                     instead of consuming independent ones; derive a fresh stream via \
                     derive_seed2 (the η-sweep replay site in runner.rs is the one \
                     blessed exception)",
                    t.text
                ),
            });
        }
    }
}

/// P02-c: an RNG binding captured by a closure handed to a trial
/// fan-out (`map_trials`/`map_trials_with`) or `thread::spawn`: worker
/// interleaving then decides the draw order. RNGs *bound inside* the
/// closure (parameters, `let`s) are fine — that is the sanctioned
/// per-trial-stream pattern.
fn p02c_captured_in_closure(
    ws: &Workspace,
    cg: &CallGraph,
    u: usize,
    _body: (usize, usize),
    findings: &mut Vec<PassFinding>,
) {
    let toks = &ws.files[ws.fns[u].file].toks;
    for call in &cg.calls[u] {
        let last = call.display.rsplit("::").next().unwrap_or(&call.display);
        let is_sink = matches!(last, "map_trials" | "map_trials_with")
            || call.display.ends_with("thread::spawn")
            || call.display == "thread::spawn"
            || (call.is_method && call.display == ".spawn");
        if !is_sink || call.args_close <= call.args_open {
            continue;
        }
        // Closure-local names: params between `|…|` plus `let` bindings.
        let span = call.args_open + 1..call.args_close;
        let mut local: Vec<String> = Vec::new();
        let mut i = span.start;
        let mut saw_closure = false;
        while i < span.end {
            let t = &toks[i];
            if t.is_punct("||") {
                saw_closure = true;
            } else if t.is_punct("|") && !saw_closure {
                saw_closure = true;
                // Collect every ident up to the closing `|` — parameter
                // names and their type tokens alike (over-collecting
                // type names is harmless: they only ever *exempt*).
                let mut j = i + 1;
                while j < span.end && !toks[j].is_punct("|") {
                    if toks[j].kind == TokKind::Ident {
                        local.push(toks[j].text.clone());
                    }
                    j += 1;
                }
                i = j;
            } else if t.is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name) = toks.get(j).filter(|n| n.kind == TokKind::Ident) {
                    local.push(name.text.clone());
                }
            }
            i += 1;
        }
        if !saw_closure {
            continue;
        }
        let mut flagged: Vec<String> = Vec::new();
        for k in span.clone() {
            let t = &toks[k];
            if t.in_test || t.kind != TokKind::Ident || !rngish(&t.text) {
                continue;
            }
            if local.contains(&t.text) || flagged.contains(&t.text) {
                continue;
            }
            // Skip path segments, call/macro names, and field inits:
            // `rng_from_seed(…)`, `rand::rngs::…`, `rng_seed: x`.
            let prev_path = k >= 1 && (toks[k - 1].is_punct(".") || toks[k - 1].is_punct("::"));
            let next_path = toks.get(k + 1).is_some_and(|n| {
                n.is_punct("::") || n.is_punct("(") || n.is_punct("!") || n.is_punct(":")
            });
            if prev_path || next_path {
                continue;
            }
            flagged.push(t.text.clone());
            findings.push(PassFinding {
                file: ws.fns[u].file,
                tok: k,
                rule: RuleId::P02,
                message: format!(
                    "closure passed to `{}` captures RNG `{}` from the enclosing scope — \
                     per-trial interleaving makes the draw order scheduler-dependent; \
                     take the RNG as a closure parameter or derive a per-trial stream \
                     inside the closure",
                    call.display, t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::symbols::SourceFile;

    /// `(rule id, message)` pairs.
    fn analyze(files: &[(&str, &str)], roots: &[&str]) -> Result<Vec<(String, String)>, String> {
        let sources = files
            .iter()
            .map(|(p, s)| SourceFile::new(p, s))
            .collect::<Vec<_>>();
        let ws = Workspace::build(sources, &[], "rootcrate");
        let cg = CallGraph::build(&ws);
        Ok(run_passes(&ws, &cg, roots)?
            .into_iter()
            .map(|f| (f.rule.id().to_string(), f.message))
            .collect())
    }

    #[test]
    fn transitive_env_read_is_found_across_files_with_chain() {
        let found = analyze(
            &[
                (
                    "crates/app/src/lib.rs",
                    "pub mod util;\n\
                     pub fn entry(x: u64) -> u64 { util::scale(x) }\n",
                ),
                (
                    "crates/app/src/util.rs",
                    "pub fn scale(x: u64) -> u64 { jitter() + x }\n\
                     fn jitter() -> u64 { std::env::var(\"J\").map(|_| 1).unwrap_or(0) }\n",
                ),
            ],
            &["entry"],
        )
        .expect("roots resolve");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, "P01");
        assert!(found[0].1.contains("env::var"), "{}", found[0].1);
        assert!(
            found[0]
                .1
                .contains("app::entry -> app::util::scale -> app::util::jitter"),
            "chain is reconstructed: {}",
            found[0].1
        );
    }

    #[test]
    fn opaque_callee_is_pessimistic() {
        let files = [(
            "crates/app/src/lib.rs",
            "pub fn entry() { crate::missing::helper(); }\n",
        )];
        let found = analyze(&files, &["entry"]).expect("roots resolve");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].1.contains("did not resolve"), "{}", found[0].1);
    }

    #[test]
    fn traversal_reaches_impure_callee() {
        let files = [(
            "crates/app/src/lib.rs",
            "pub fn entry() { telemetry(); }\n\
             fn telemetry() { let _ = std::time::Instant::now(); }\n",
        )];
        let found = analyze(&files, &["entry"]).expect("roots resolve");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].1.contains("Instant::now"));
    }

    #[test]
    fn mut_static_reads_and_declarations_are_impure() {
        let found = analyze(
            &[(
                "crates/app/src/lib.rs",
                "static SEQ: std::sync::atomic::AtomicU64 = z();\n\
                 pub fn entry() -> u64 { SEQ.fetch_add(1, O) }\n",
            )],
            &["entry"],
        )
        .expect("roots resolve");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].1.contains("interior-mutable static `SEQ`"));
    }

    #[test]
    fn unknown_root_is_a_hard_error() {
        let err = analyze(
            &[("crates/app/src/lib.rs", "pub fn entry() {}\n")],
            &["no_such_fn"],
        )
        .expect_err("misspelled root must not silently disable the pass");
        assert!(err.contains("no_such_fn"), "{err}");
    }

    #[test]
    fn p02a_two_draws_one_statement_fire_sequential_lets_do_not() {
        let found = analyze(
            &[(
                "crates/app/src/lib.rs",
                "pub fn two(rng: &mut R) -> u64 { rng.next_u64() + rng.next_u64() }\n",
            )],
            &[],
        )
        .expect("no roots needed");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, "P02");
        assert!(found[0].1.contains("2 separate calls"), "{}", found[0].1);
        let clean = analyze(
            &[(
                "crates/app/src/lib.rs",
                "pub fn two(rng: &mut R) -> u64 {\n\
                     let a = rng.next_u64();\n\
                     let b = rng.next_u64();\n\
                     a + b\n\
                 }\n",
            )],
            &[],
        )
        .expect("no roots needed");
        assert!(clean.is_empty(), "{clean:?}");
    }

    /// P02 findings of one library file.
    fn p02_on(path: &str, src: &str) -> Vec<String> {
        let found = analyze(&[(path, src)], &[]).expect("no roots needed");
        found.into_iter().map(|(_, message)| message).collect()
    }

    const LIB: &str = "crates/app/src/lib.rs";

    #[test]
    fn p02a_reports_each_shape_once() {
        // A tuple's two slots are also two separate calls: one finding.
        let found = p02_on(
            LIB,
            "pub fn f(rng: &mut R) -> (u64, u64) { (rng.next_u64(), rng.next_u64()) }\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("2 argument positions"), "{}", found[0]);
    }

    #[test]
    fn rng_in_two_argument_slots_fires() {
        // Two nested draws in distinct argument positions: the outer call
        // observes evaluation order.
        let found = p02_on(
            LIB,
            "pub fn f(rng: &mut R) -> u64 {\n\
                 combine(sample(a, &mut rng), sample(b, &mut rng))\n\
             }\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("2 argument positions"), "{}", found[0]);
        // Receiver-position draws count too.
        let found = p02_on(
            LIB,
            "pub fn f(rng: &mut R) -> (u64, u64) {\n\
                 pair(rng.next_u64(), rng.next_u64())\n\
             }\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        // Binary targets and tests are exempt.
        let src = "pub fn f(rng: &mut R) { g(h(&mut rng), h(&mut rng)); }\n";
        assert!(p02_on("crates/sim/src/bin/ldp.rs", src).is_empty());
        let test = "#[test]\nfn t() { g(h(&mut rng), h(&mut rng)); }\n";
        assert!(p02_on(LIB, test).is_empty());
    }

    #[test]
    fn rng_duplicates_inside_one_argument_flag_the_inner_call_only() {
        // Both draws sit in argument 0 of the outer call, so only the
        // inner group (where they occupy two slots) fires.
        let found = p02_on(
            LIB,
            "pub fn f(rng: &mut R) -> u64 {\n\
                 outer(inner(&mut rng, &mut rng))\n\
             }\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn sequential_and_distinct_rng_use_is_clean() {
        // Sequential lets make the order explicit.
        let ordered = "pub fn f(rng: &mut R) -> u64 {\n\
                           let x = sample(a, &mut rng);\n\
                           let y = sample(b, &mut rng);\n\
                           combine(x, y)\n\
                       }\n";
        assert!(p02_on(LIB, ordered).is_empty());
        // Two *different* RNGs in one call are fine.
        let distinct = "pub fn f(a_rng: &mut R, b_rng: &mut R) -> u64 {\n\
                            combine(sample(&mut a_rng), sample(&mut b_rng))\n\
                        }\n";
        assert!(p02_on(LIB, distinct).is_empty());
        // Commas inside nested braces don't split argument slots.
        let braced = "pub fn f(rng: &mut R) -> S {\n\
                          build(S { a: 1, b: 2 }, &mut rng)\n\
                      }\n";
        assert!(p02_on(LIB, braced).is_empty());
        // Non-RNG identifiers are outside the rule's scope.
        let vecs = "pub fn f(v: &mut Vec<u32>) { g(fill(&mut v), fill(&mut v)); }\n";
        assert!(p02_on(LIB, vecs).is_empty());
    }

    #[test]
    fn p02b_clone_fires_outside_blessed_file_only() {
        let src = "pub fn f(rng: &mut R) -> R { rng.clone() }\n";
        let found = analyze(&[("crates/app/src/lib.rs", src)], &[]).expect("ok");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].1.contains("forks an RNG stream"));
        let blessed = analyze(&[("crates/sim/src/runner.rs", src)], &[]).expect("ok");
        assert!(blessed.is_empty(), "{blessed:?}");
    }

    #[test]
    fn p02c_captured_rng_fires_parameter_and_local_rngs_do_not() {
        let captured = "pub fn f(rng: &mut R) -> V {\n\
                            map_trials(8, 2, |trial| dist.sample(&mut rng))\n\
                        }\n\
                        pub fn map_trials(n: usize, t: usize, run: F) -> V { v }\n";
        let found = analyze(&[("crates/app/src/lib.rs", captured)], &[]).expect("ok");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].1.contains("captures RNG `rng`"), "{}", found[0].1);
        let sanctioned = "pub fn f() -> V {\n\
                              map_trials(8, 2, |trial_rng| dist.sample(trial_rng))\n\
                          }\n\
                          pub fn g(seed: u64) -> V {\n\
                              map_trials(8, 2, move |trial| {\n\
                                  let mut rng = rng_from_seed(seed);\n\
                                  dist.sample(&mut rng)\n\
                              })\n\
                          }\n\
                          pub fn map_trials(n: usize, t: usize, run: F) -> V { v }\n";
        let clean = analyze(&[("crates/app/src/lib.rs", sanctioned)], &[]).expect("ok");
        assert!(clean.is_empty(), "{clean:?}");
    }
}
