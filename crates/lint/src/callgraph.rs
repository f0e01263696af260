//! Conservative call graph over the workspace symbol table.
//!
//! For every `fn` body the extractor records each call expression —
//! free calls (`helper(…)`), path calls (`crate::stream::f(…)`,
//! `Type::method(…)`), and method calls (`x.m(…)`) — and resolves the
//! callee against [`crate::symbols::Workspace`]:
//!
//! * **Resolved** — one or more workspace `fn` items. Ambiguous bare
//!   names and multi-impl methods resolve to the *union* of same-named
//!   candidates: the purity pass then checks all of them, which
//!   over-approximates reachability (safe direction for P01).
//! * **External** — a name/path that cannot be workspace code: `std`,
//!   vendored crates, or a bare name nothing in the workspace declares.
//! * **Opaque** — a path that *claims* to be workspace-internal
//!   (`crate::`/`self::`/`super::`-rooted or starting with a workspace
//!   crate ident) but resolves to nothing. The purity pass treats these
//!   pessimistically as impure.
//!
//! Resolution candidates exclude test-gated functions and functions in
//! test files, binaries, and examples — those targets are program roots
//! of their own and exempt from most determinism rules, so letting them
//! into the candidate pool would poison the union resolution of common
//! names (`parse`, `run`) with intentionally impure code. Known limits,
//! documented in the crate docs: turbofish callees (`f::<T>(…)`) and
//! fully-qualified `<T as Trait>::m` calls are skipped, and
//! field-closure invocations (`(self.cb)(…)`) are invisible — all
//! false-negative directions.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::symbols::{FnSym, Workspace};

/// Callee resolution for one call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// Workspace functions this call may dispatch to (≥ 1 entries).
    Resolved(Vec<usize>),
    /// Definitely not workspace code (std / vendored / unknown bare name).
    External,
    /// Workspace-looking path that did not resolve — treated as impure.
    Opaque,
}

/// One call expression inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Token index of the callee name identifier.
    pub name_tok: usize,
    /// Token index of the argument list opener `(`.
    pub args_open: usize,
    /// Token index of the argument list closer (body end if unmatched).
    pub args_close: usize,
    /// Display path for diagnostics (`crate::stream::f`, `.merge`).
    pub display: String,
    /// Resolution verdict.
    pub callee: Callee,
    /// For `x.m(…)`: the receiver identifier when it is a simple name.
    pub receiver: Option<String>,
    /// True for method-call syntax.
    pub is_method: bool,
}

/// The workspace call graph: per-function call sites, index-aligned
/// with [`Workspace::fns`].
#[derive(Debug)]
pub struct CallGraph {
    /// `calls[f]` = call sites inside `fns[f]`'s body.
    pub calls: Vec<Vec<CallSite>>,
}

/// Crate roots that are always external (std + the vendored stand-ins).
const EXTERNAL_CRATES: [&str; 6] = ["alloc", "core", "proptest", "rand", "serde", "std"];

/// Keywords and prelude constructors that look like `ident(` but are
/// never workspace function calls.
const NON_CALL_IDENTS: [&str; 28] = [
    "Err", "None", "Ok", "Self", "Some", "as", "box", "break", "const", "continue", "crate", "dyn",
    "else", "enum", "fn", "for", "if", "impl", "in", "let", "loop", "match", "move", "return",
    "self", "super", "while", "where",
];

/// True when `fns[idx]` may be the target of library-side resolution.
fn is_candidate(ws: &Workspace, idx: usize) -> bool {
    let f = &ws.fns[idx];
    !f.is_test && ws.files[f.file].class.library()
}

impl CallGraph {
    /// Extracts and resolves every call site in the workspace.
    pub fn build(ws: &Workspace) -> CallGraph {
        // Name → candidate fn indices, workspace-wide.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for idx in 0..ws.fns.len() {
            if is_candidate(ws, idx) {
                by_name.entry(&ws.fns[idx].name).or_default().push(idx);
            }
        }
        let mut calls = Vec::with_capacity(ws.fns.len());
        for f in 0..ws.fns.len() {
            calls.push(extract_calls(ws, &by_name, f));
        }
        CallGraph { calls }
    }
}

fn extract_calls(ws: &Workspace, by_name: &BTreeMap<&str, Vec<usize>>, f: usize) -> Vec<CallSite> {
    let fun = &ws.fns[f];
    let Some((body_open, body_close)) = fun.body else {
        return Vec::new();
    };
    let file = &ws.files[fun.file];
    let toks = &file.toks;
    let mut out = Vec::new();
    for k in body_open + 1..body_close {
        let t = &toks[k];
        if t.kind != TokKind::Ident || !toks.get(k + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let args_open = k + 1;
        let args_close = file.matches[args_open].unwrap_or(body_close);
        let prev = k.checked_sub(1).map(|p| &toks[p]);
        if prev.is_some_and(|p| p.is_punct(".")) {
            // Method call `recv.name(…)`.
            let receiver = k
                .checked_sub(2)
                .map(|r| &toks[r])
                .filter(|r| r.kind == TokKind::Ident)
                .map(|r| r.text.clone());
            let callee = resolve_method(by_name, ws, &t.text);
            out.push(CallSite {
                name_tok: k,
                args_open,
                args_close,
                display: format!(".{}", t.text),
                callee,
                receiver,
                is_method: true,
            });
            continue;
        }
        if prev.is_some_and(|p| p.is_ident("fn")) {
            continue; // a nested fn declaration, not a call
        }
        // Walk a `a::b::name(` path backwards.
        let mut segs = vec![t.text.clone()];
        let mut p = k;
        let mut qualified_self = false;
        while p >= 2 && toks[p - 1].is_punct("::") {
            let head = &toks[p - 2];
            if head.kind == TokKind::Ident {
                segs.insert(0, head.text.clone());
                p -= 2;
            } else {
                // `<T as Trait>::name(` or turbofish residue — skip it.
                qualified_self = true;
                break;
            }
        }
        if qualified_self {
            continue;
        }
        if segs.len() == 1 && NON_CALL_IDENTS.contains(&segs[0].as_str()) {
            continue;
        }
        let callee = resolve_path(ws, by_name, fun, &segs);
        out.push(CallSite {
            name_tok: k,
            args_open,
            args_close,
            display: segs.join("::"),
            callee,
            receiver: None,
            is_method: false,
        });
    }
    out
}

/// Method calls resolve to the union of same-named methods (functions
/// with a `self_ty`); zero candidates means a std/vendored method.
fn resolve_method(by_name: &BTreeMap<&str, Vec<usize>>, ws: &Workspace, name: &str) -> Callee {
    let methods: Vec<usize> = by_name
        .get(name)
        .map(|c| {
            c.iter()
                .copied()
                .filter(|&i| ws.fns[i].self_ty.is_some())
                .collect()
        })
        .unwrap_or_default();
    if methods.is_empty() {
        Callee::External
    } else {
        Callee::Resolved(methods)
    }
}

/// Resolves a free/path call from `caller`'s scope.
fn resolve_path(
    ws: &Workspace,
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: &FnSym,
    segs: &[String],
) -> Callee {
    let fs = &ws.syms[caller.file];
    // Single bare name: same-file, then same-crate, then workspace-wide,
    // then use-alias / glob expansion.
    if segs.len() == 1 {
        let name = segs[0].as_str();
        if let Some((alias, full)) = fs.uses.iter().find(|(a, _)| a == name) {
            let _ = alias;
            return resolve_absolute(ws, by_name, caller, full);
        }
        let Some(cands) = by_name.get(name) else {
            // Try glob imports before giving up.
            for glob in &fs.globs {
                let mut full = glob.clone();
                full.push(name.to_string());
                if let Callee::Resolved(v) = resolve_absolute(ws, by_name, caller, &full) {
                    return Callee::Resolved(v);
                }
            }
            return Callee::External;
        };
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| ws.fns[i].file == caller.file)
            .collect();
        if !same_file.is_empty() {
            return Callee::Resolved(same_file);
        }
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| ws.syms[ws.fns[i].file].crate_ident == fs.crate_ident)
            .collect();
        if !same_crate.is_empty() {
            return Callee::Resolved(same_crate);
        }
        return Callee::Resolved(cands.clone());
    }
    // Expand the first segment: use-alias, then self/super/crate.
    if let Some((_, full)) = fs.uses.iter().find(|(a, _)| a == &segs[0]) {
        let mut expanded = full.clone();
        expanded.extend(segs[1..].iter().cloned());
        return resolve_absolute(ws, by_name, caller, &expanded);
    }
    resolve_absolute(ws, by_name, caller, segs)
}

/// Resolves a (possibly `crate`/`self`/`super`-rooted) path against the
/// symbol table, normalizing the head to an absolute module path first.
fn resolve_absolute(
    ws: &Workspace,
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: &FnSym,
    segs: &[String],
) -> Callee {
    let fs = &ws.syms[caller.file];
    let head = segs[0].as_str();
    let workspace_rooted = head == "crate"
        || head == "self"
        || head == "super"
        || ws.crate_idents.iter().any(|c| c == head);
    if EXTERNAL_CRATES.contains(&head) {
        return Callee::External;
    }
    // Normalize to `[crate_ident, mods…, (Type,) name]`.
    let mut abs: Vec<String> = match head {
        "crate" => {
            let mut v = vec![fs.crate_ident.clone()];
            v.extend(segs[1..].iter().cloned());
            v
        }
        "self" => {
            let mut v = vec![fs.crate_ident.clone()];
            v.extend(fs.mod_base.iter().cloned());
            v.extend(segs[1..].iter().cloned());
            v
        }
        "super" => {
            let mut v = vec![fs.crate_ident.clone()];
            let keep = fs.mod_base.len().saturating_sub(1);
            v.extend(fs.mod_base[..keep].iter().cloned());
            v.extend(segs[1..].iter().cloned());
            v
        }
        _ if ws.crate_idents.iter().any(|c| c == head) => segs.to_vec(),
        // Relative path (`util::scale(…)`): try caller-module-relative,
        // then crate-root-relative.
        _ => {
            let mut rel = vec![fs.crate_ident.clone()];
            rel.extend(fs.mod_base.iter().cloned());
            rel.extend(segs.iter().cloned());
            if let Some(v) = match_chain(ws, by_name, &rel) {
                return Callee::Resolved(v);
            }
            let mut v = vec![fs.crate_ident.clone()];
            v.extend(segs.iter().cloned());
            v
        }
    };
    if let Some(v) = match_chain(ws, by_name, &abs) {
        return Callee::Resolved(v);
    }
    // Re-exports flatten module paths (`pub use stream::f` makes
    // `ldp_sim::f` valid): fall back to name-in-crate, then to a
    // `Type::method` match anywhere.
    let name = abs.last().cloned().unwrap_or_default();
    let crate_ident = abs.first().cloned().unwrap_or_default();
    abs.pop();
    if let Some(cands) = by_name.get(name.as_str()) {
        let in_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| ws.syms[ws.fns[i].file].crate_ident == crate_ident)
            .collect();
        if !in_crate.is_empty() {
            return Callee::Resolved(in_crate);
        }
        // `Type::assoc(…)` — the head was a type name, not a module.
        if let Some(ty) = abs.last() {
            let on_type: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| ws.fns[i].self_ty.as_deref() == Some(ty.as_str()))
                .collect();
            if !on_type.is_empty() {
                return Callee::Resolved(on_type);
            }
        }
    }
    // An unresolved CamelCase tail is a tuple-struct or enum-variant
    // constructor (`Json::Num(…)`, `WindowMode::Sliding(…)`) — data
    // construction, not behavior; never a purity edge.
    let constructor = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
    if workspace_rooted && !constructor {
        Callee::Opaque
    } else {
        // `SomeStdType::method(…)`, an external crate we don't know, or
        // a constructor.
        Callee::External
    }
}

/// Exact chain match: `path == module ++ [self_ty?] ++ name`.
fn match_chain(
    ws: &Workspace,
    by_name: &BTreeMap<&str, Vec<usize>>,
    path: &[String],
) -> Option<Vec<usize>> {
    let name = path.last()?;
    let cands = by_name.get(name.as_str())?;
    let hits: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| {
            let f = &ws.fns[i];
            let mut chain: Vec<&str> = f.module.iter().map(String::as_str).collect();
            if let Some(ty) = &f.self_ty {
                chain.push(ty);
            }
            chain.push(&f.name);
            chain.len() == path.len() && chain.iter().zip(path).all(|(a, b)| *a == b)
        })
        .collect();
    if hits.is_empty() {
        None
    } else {
        Some(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SourceFile;

    fn graph_of(files: &[(&str, &str)]) -> (Workspace, CallGraph) {
        let sources = files
            .iter()
            .map(|(p, s)| SourceFile::new(p, s))
            .collect::<Vec<_>>();
        let ws = Workspace::build(sources, &[], "rootcrate");
        let cg = CallGraph::build(&ws);
        (ws, cg)
    }

    fn callee_of<'g>(ws: &Workspace, cg: &'g CallGraph, caller: &str, display: &str) -> &'g Callee {
        let f = ws
            .fns
            .iter()
            .position(|f| f.name == caller)
            .expect("caller exists in fixture");
        &cg.calls[f]
            .iter()
            .find(|c| c.display == display)
            .expect("call site exists in fixture")
            .callee
    }

    #[test]
    fn cross_file_relative_and_crate_paths_resolve() {
        let (ws, cg) = graph_of(&[
            (
                "crates/app/src/lib.rs",
                "pub mod util;\n\
                 pub fn entry(x: u64) -> u64 { util::scale(x) + crate::util::twice(x) }\n",
            ),
            (
                "crates/app/src/util.rs",
                "pub fn scale(x: u64) -> u64 { x * 3 }\n\
                 pub fn twice(x: u64) -> u64 { x * 2 }\n",
            ),
        ]);
        let scale = ws
            .fns
            .iter()
            .position(|f| f.name == "scale")
            .expect("scale");
        let twice = ws
            .fns
            .iter()
            .position(|f| f.name == "twice")
            .expect("twice");
        assert_eq!(
            callee_of(&ws, &cg, "entry", "util::scale"),
            &Callee::Resolved(vec![scale])
        );
        assert_eq!(
            callee_of(&ws, &cg, "entry", "crate::util::twice"),
            &Callee::Resolved(vec![twice])
        );
    }

    #[test]
    fn use_aliases_and_bare_names_resolve() {
        let (ws, cg) = graph_of(&[
            (
                "crates/app/src/lib.rs",
                "use crate::util::scale as sc;\n\
                 pub mod util;\n\
                 pub fn entry(x: u64) -> u64 { sc(x) + helper(x) }\n\
                 fn helper(x: u64) -> u64 { x }\n",
            ),
            (
                "crates/app/src/util.rs",
                "pub fn scale(x: u64) -> u64 { x }\n",
            ),
        ]);
        assert!(matches!(
            callee_of(&ws, &cg, "entry", "sc"),
            Callee::Resolved(_)
        ));
        assert!(matches!(
            callee_of(&ws, &cg, "entry", "helper"),
            Callee::Resolved(_)
        ));
    }

    #[test]
    fn std_paths_are_external_and_crate_rooted_misses_are_opaque() {
        let (ws, cg) = graph_of(&[(
            "crates/app/src/lib.rs",
            "pub fn entry() -> u64 {\n\
                 let v = std::cmp::min(1, 2);\n\
                 crate::missing::helper(v)\n\
             }\n",
        )]);
        assert_eq!(
            callee_of(&ws, &cg, "entry", "std::cmp::min"),
            &Callee::External
        );
        assert_eq!(
            callee_of(&ws, &cg, "entry", "crate::missing::helper"),
            &Callee::Opaque
        );
    }

    #[test]
    fn methods_resolve_to_union_of_impls() {
        let (ws, cg) = graph_of(&[(
            "crates/app/src/lib.rs",
            "pub struct A; pub struct B;\n\
             impl A { pub fn merge(&self) {} }\n\
             impl B { pub fn merge(&self) {} }\n\
             pub fn entry(a: &A) { a.merge(); a.push(1); }\n",
        )]);
        let Callee::Resolved(v) = callee_of(&ws, &cg, "entry", ".merge") else {
            panic!("expected resolved union");
        };
        assert_eq!(v.len(), 2);
        // `.push` has no workspace impl — std method.
        assert_eq!(callee_of(&ws, &cg, "entry", ".push"), &Callee::External);
    }

    #[test]
    fn test_and_bin_fns_are_not_candidates() {
        let (ws, cg) = graph_of(&[
            (
                "crates/app/src/lib.rs",
                "pub fn entry() { parse(); }\n\
                 #[cfg(test)]\nmod tests { fn parse() {} }\n",
            ),
            (
                "crates/app/src/bin/cli.rs",
                "fn parse() {}\nfn main() { parse(); }\n",
            ),
        ]);
        // The only non-test, non-bin `parse` is… nothing → external.
        assert_eq!(callee_of(&ws, &cg, "entry", "parse"), &Callee::External);
    }

    #[test]
    fn macros_and_struct_literals_are_not_calls() {
        let (ws, cg) = graph_of(&[(
            "crates/app/src/lib.rs",
            "pub fn entry() { format!(\"x\"); let _ = Some(1); if cond() {} }\n\
             fn cond() -> bool { true }\n",
        )]);
        let entry = ws
            .fns
            .iter()
            .position(|f| f.name == "entry")
            .expect("entry");
        let displays: Vec<&str> = cg.calls[entry].iter().map(|c| c.display.as_str()).collect();
        assert_eq!(displays, ["cond"]);
    }
}
