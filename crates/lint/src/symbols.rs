//! Workspace symbol table: every `fn` item, `use` alias, and
//! interior-mutable `static`, with enough module-path context to resolve
//! cross-file calls.
//!
//! Built purely from the lexer output plus the [`crate::tree`] nesting
//! map — no rustc, no macros expanded. The table records, per file:
//!
//! * the file's **module path** (crate ident + `mod.rs`/file-layout
//!   segments + inline `mod name { … }` blocks);
//! * every **`fn` item** with its name, enclosing `impl`/`trait` type,
//!   parameter names + type tokens, and body token range;
//! * every **`use` declaration**, flattened to `(alias, full path)`
//!   pairs (groups and `as` renames resolved, globs recorded);
//! * every **interior-mutable `static`** (`static mut`, or a type
//!   mentioning `Atomic*`/`Mutex`/`RefCell`/… ) — the P01 purity pass
//!   treats reads of these as ambient state.
//!
//! The crate ident for `crates/<dir>/…` comes from a caller-provided
//! map (parsed from each crate's `Cargo.toml` by [`crate::lint_workspace`],
//! since lib names like `crates/core → ldprecover` are irregular); files
//! outside the map fall back to the directory name with `-` → `_`.

use crate::lexer::{Tok, TokKind};
use crate::rules::FileClass;
use crate::tree::delim_matches;

/// One lexed source file plus its nesting map — the unit the cross-file
/// stage consumes.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Classification (bin/test/example/…), same as the local rules.
    pub class: FileClass,
    /// Lexed tokens with `in_test` already marked.
    pub toks: Vec<Tok>,
    /// Delimiter match map from [`delim_matches`].
    pub matches: Vec<Option<usize>>,
}

impl SourceFile {
    /// Lexes and classifies one file (test regions marked).
    pub fn new(rel_path: &str, src: &str) -> SourceFile {
        let class = FileClass::classify(rel_path);
        let mut toks = crate::lexer::lex(src);
        crate::rules::mark_test_regions(&mut toks);
        let matches = delim_matches(&toks);
        SourceFile {
            rel_path: rel_path.to_string(),
            class,
            toks,
            matches,
        }
    }
}

/// One `fn` parameter: the bound name and its type tokens (space-joined).
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name; empty for destructuring patterns the builder skips.
    pub name: String,
    /// The type ascription, tokens space-joined (`& mut R`).
    pub ty: String,
}

impl Param {
    /// Heuristic: does this parameter carry an RNG? (name contains
    /// `rng`, or the type tokens mention `Rng`.)
    pub fn is_rngish(&self) -> bool {
        self.name.to_ascii_lowercase().contains("rng") || self.ty.contains("Rng")
    }
}

/// One `fn` item in the workspace.
#[derive(Debug)]
pub struct FnSym {
    /// The bare function name.
    pub name: String,
    /// Module path: crate ident, then file-layout / inline-mod segments.
    pub module: Vec<String>,
    /// Enclosing `impl`/`trait` type name, when this is a method.
    pub self_ty: Option<String>,
    /// Index into the workspace's file list.
    pub file: usize,
    /// Token index of the name identifier.
    pub name_tok: usize,
    /// Body token range `(open_brace, close_brace)`; `None` for
    /// bodiless trait signatures.
    pub body: Option<(usize, usize)>,
    /// Parsed parameters (simple `name: Type` ascriptions only).
    pub params: Vec<Param>,
    /// Test-gated (token-level `in_test`, or the file is a test file).
    pub is_test: bool,
}

impl FnSym {
    /// Display path: `crate::mod::Type::name`.
    pub fn qual(&self) -> String {
        let mut parts: Vec<&str> = self.module.iter().map(String::as_str).collect();
        if let Some(ty) = &self.self_ty {
            parts.push(ty);
        }
        parts.push(&self.name);
        parts.join("::")
    }
}

/// Per-file symbol info beyond the raw tokens.
#[derive(Debug, Default)]
pub struct FileSyms {
    /// Crate ident (`ldp_common`, …) this file belongs to.
    pub crate_ident: String,
    /// File-layout module path segments (without the crate ident).
    pub mod_base: Vec<String>,
    /// Flattened `use` aliases: local name → full path segments.
    pub uses: Vec<(String, Vec<String>)>,
    /// Glob imports: the path prefixes of `use …::*;`.
    pub globs: Vec<Vec<String>>,
    /// Indices into [`Workspace::fns`] declared in this file.
    pub fns: Vec<usize>,
}

/// The whole-workspace symbol table.
#[derive(Debug)]
pub struct Workspace {
    /// The source files, index-aligned with [`FnSym::file`].
    pub files: Vec<SourceFile>,
    /// Per-file symbol info, index-aligned with `files`.
    pub syms: Vec<FileSyms>,
    /// Every `fn` item found.
    pub fns: Vec<FnSym>,
    /// Names of interior-mutable statics (`static mut`, atomics, locks,
    /// cells) declared anywhere in the workspace.
    pub mut_statics: Vec<String>,
    /// Every crate ident seen (for "is this path workspace-internal?").
    pub crate_idents: Vec<String>,
}

/// Type names whose presence in a `static`'s type marks it
/// interior-mutable (ambient state for the purity pass).
const INTERIOR_MUTABLE: [&str; 16] = [
    "AtomicBool",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicU8",
    "AtomicUsize",
    "Cell",
    "LazyCell",
    "LazyLock",
    "Mutex",
    "OnceCell",
    "OnceLock",
    "RwLock",
];

impl Workspace {
    /// Builds the table over pre-lexed files. `crate_idents_by_dir` maps
    /// a `crates/<dir>` directory name to its lib ident; missing entries
    /// fall back to the directory name (`-` → `_`), and files outside
    /// `crates/` (root `src/`, `tests/`, `examples/`) get `root_ident`.
    pub fn build(
        files: Vec<SourceFile>,
        crate_idents_by_dir: &[(String, String)],
        root_ident: &str,
    ) -> Workspace {
        let mut syms = Vec::with_capacity(files.len());
        let mut fns = Vec::new();
        let mut mut_statics = Vec::new();
        let mut crate_idents: Vec<String> = vec![root_ident.to_string()];
        for (fi, file) in files.iter().enumerate() {
            let (crate_ident, mod_base) =
                file_module_path(&file.rel_path, crate_idents_by_dir, root_ident);
            if !crate_idents.contains(&crate_ident) {
                crate_idents.push(crate_ident.clone());
            }
            let mut fs = FileSyms {
                crate_ident,
                mod_base,
                ..FileSyms::default()
            };
            scan_file(file, fi, &mut fs, &mut fns, &mut mut_statics);
            syms.push(fs);
        }
        mut_statics.sort();
        mut_statics.dedup();
        crate_idents.sort();
        crate_idents.dedup();
        Workspace {
            files,
            syms,
            fns,
            mut_statics,
            crate_idents,
        }
    }
}

/// Derives `(crate ident, module base path)` from a file's location.
fn file_module_path(
    rel_path: &str,
    crate_idents_by_dir: &[(String, String)],
    root_ident: &str,
) -> (String, Vec<String>) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (ident, in_crate) = if parts.first() == Some(&"crates") && parts.len() > 2 {
        let dir = parts[1];
        let ident = crate_idents_by_dir
            .iter()
            .find(|(d, _)| d == dir)
            .map(|(_, i)| i.clone())
            .unwrap_or_else(|| dir.replace('-', "_"));
        (ident, &parts[2..])
    } else {
        (root_ident.to_string(), &parts[..])
    };
    // Only `src/` contributes module structure; `tests/`, `examples/`,
    // and `src/bin/` files are each their own crate root.
    let mut mods: Vec<String> = Vec::new();
    if in_crate.first() == Some(&"src") && !in_crate.contains(&"bin") {
        for (i, seg) in in_crate.iter().enumerate().skip(1) {
            let is_last = i == in_crate.len() - 1;
            if is_last {
                let stem = seg.trim_end_matches(".rs");
                if stem != "lib" && stem != "main" && stem != "mod" {
                    mods.push(stem.to_string());
                }
            } else {
                mods.push((*seg).to_string());
            }
        }
    }
    (ident, mods)
}

/// What a brace on the scope stack means.
enum Frame {
    Mod(String),
    Impl(String),
    Other,
}

/// Linear scan of one file: `mod`/`impl` scope tracking, `fn` items,
/// `use` declarations, interior-mutable statics.
fn scan_file(
    file: &SourceFile,
    fi: usize,
    fs: &mut FileSyms,
    fns: &mut Vec<FnSym>,
    mut_statics: &mut Vec<String>,
) {
    let toks = &file.toks;
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending: Option<Frame> = None;
    let mut k = 0usize;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("{") {
            stack.push(pending.take().unwrap_or(Frame::Other));
            k += 1;
            continue;
        }
        if t.is_punct("}") {
            stack.pop();
            k += 1;
            continue;
        }
        if t.is_punct(";") {
            pending = None;
            k += 1;
            continue;
        }
        if t.is_ident("mod") && toks.get(k + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            pending = Some(Frame::Mod(toks[k + 1].text.clone()));
            k += 2;
            continue;
        }
        if t.is_ident("impl") || t.is_ident("trait") {
            if let Some(ty) = impl_self_ty(toks, k) {
                pending = Some(Frame::Impl(ty));
            }
            k += 1;
            continue;
        }
        if t.is_ident("use") {
            let end = parse_use(toks, k + 1, fs);
            k = end;
            continue;
        }
        if t.is_ident("static") {
            k = scan_static(toks, k, mut_statics);
            continue;
        }
        if t.is_ident("fn") && toks.get(k + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let after = scan_fn(file, fi, k, &stack, fs, fns);
            k = after;
            continue;
        }
        k += 1;
    }
}

/// The self type of an `impl`/`trait` header starting at `k`:
/// `impl Type`, `impl<T> Type<T>`, `impl Trait for Type`, `trait Name`.
fn impl_self_ty(toks: &[Tok], k: usize) -> Option<String> {
    let mut j = k + 1;
    // Skip the generic parameter list after the keyword.
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct("<") {
                depth += 1;
            } else if toks[j].is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // `impl Trait for Type { …` — the self type follows `for`, if any.
    let mut first_ident: Option<&Tok> = None;
    let mut i = j;
    while i < toks.len() && !toks[i].is_punct("{") && !toks[i].is_punct(";") {
        if toks[i].is_ident("for") {
            first_ident = None; // restart: the type is after `for`
        } else if toks[i].is_ident("where") {
            break;
        } else if first_ident.is_none()
            && toks[i].kind == TokKind::Ident
            && !toks[i].is_ident("dyn")
        {
            first_ident = Some(&toks[i]);
        }
        i += 1;
    }
    first_ident.map(|t| t.text.clone())
}

/// Parses one `use` declaration starting just after the `use` keyword;
/// returns the index after the terminating `;`.
fn parse_use(toks: &[Tok], start: usize, fs: &mut FileSyms) -> usize {
    let mut end = start;
    while end < toks.len() && !toks[end].is_punct(";") {
        end += 1;
    }
    let mut prefix: Vec<String> = Vec::new();
    collect_use_tree(toks, start, end, &mut prefix, fs);
    end + 1
}

/// Recursive descent over a use-tree slice `[i, end)` with the current
/// path `prefix`; emits `(alias, full path)` pairs into `fs`.
fn collect_use_tree(
    toks: &[Tok],
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    fs: &mut FileSyms,
) {
    let depth_at_entry = prefix.len();
    let mut last: Option<String> = None;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident && !t.is_ident("as") {
            last = Some(t.text.clone());
            i += 1;
            continue;
        }
        if t.is_punct("::") {
            if let Some(seg) = last.take() {
                prefix.push(seg);
            }
            i += 1;
            continue;
        }
        if t.is_ident("as") {
            // `path as alias` — alias the *current* last segment.
            if let (Some(seg), Some(alias)) = (
                last.take(),
                toks.get(i + 1).filter(|a| a.kind == TokKind::Ident),
            ) {
                let mut full = prefix.clone();
                full.push(seg);
                fs.uses.push((alias.text.clone(), full));
            }
            i += 2;
            continue;
        }
        if t.is_punct("*") {
            fs.globs.push(prefix.clone());
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            // Group: split on top-level commas, recurse per element.
            let mut depth = 0usize;
            let mut elem_start = i + 1;
            let mut j = i + 1;
            while j < end {
                if toks[j].is_punct("{") {
                    depth += 1;
                } else if toks[j].is_punct("}") {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if toks[j].is_punct(",") && depth == 0 {
                    collect_use_tree(toks, elem_start, j, prefix, fs);
                    elem_start = j + 1;
                }
                j += 1;
            }
            collect_use_tree(toks, elem_start, j.min(end), prefix, fs);
            i = j + 1;
            continue;
        }
        if t.is_punct(",") {
            // Top-level comma outside a group (shouldn't appear) — flush.
            flush_use_leaf(&mut last, prefix, fs);
            i += 1;
            continue;
        }
        i += 1;
    }
    flush_use_leaf(&mut last, prefix, fs);
    prefix.truncate(depth_at_entry);
}

fn flush_use_leaf(last: &mut Option<String>, prefix: &[String], fs: &mut FileSyms) {
    if let Some(seg) = last.take() {
        if seg != "self" {
            let mut full = prefix.to_vec();
            full.push(seg.clone());
            fs.uses.push((seg, full));
        } else if !prefix.is_empty() {
            // `use a::b::{self, …}` — alias `b` to the prefix itself.
            let alias = prefix[prefix.len() - 1].clone();
            fs.uses.push((alias, prefix.to_vec()));
        }
    }
}

/// Records a `static` declaration if interior-mutable; returns the index
/// to resume scanning from (just past the name).
fn scan_static(toks: &[Tok], k: usize, mut_statics: &mut Vec<String>) -> usize {
    let mut j = k + 1;
    let is_static_mut = toks.get(j).is_some_and(|t| t.is_ident("mut"));
    if is_static_mut {
        j += 1;
    }
    let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
        return k + 1;
    };
    // Type tokens run from after the `:` to the `=` or `;`.
    let mut interior = is_static_mut;
    let mut i = j + 1;
    let mut depth = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && (t.is_punct("=") || t.is_punct(";")) {
            break;
        } else if t.kind == TokKind::Ident && INTERIOR_MUTABLE.contains(&t.text.as_str()) {
            interior = true;
        }
        i += 1;
    }
    if interior {
        mut_statics.push(name.text.clone());
    }
    j + 1
}

/// Parses one `fn` item starting at the `fn` keyword index `k`; returns
/// the index to resume from (after the signature — the body is scanned
/// by the caller's loop so nested items are still found).
fn scan_fn(
    file: &SourceFile,
    fi: usize,
    k: usize,
    stack: &[Frame],
    fs: &mut FileSyms,
    fns: &mut Vec<FnSym>,
) -> usize {
    let toks = &file.toks;
    let name_tok = k + 1;
    let name = toks[name_tok].text.clone();
    // Skip generics between name and the parameter list.
    let mut j = name_tok + 1;
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct("<") {
                depth += 1;
            } else if toks[j].is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    if !toks.get(j).is_some_and(|t| t.is_punct("(")) {
        return name_tok + 1;
    }
    let params_open = j;
    let Some(params_close) = file.matches[params_open] else {
        return name_tok + 1;
    };
    let params = parse_params(toks, params_open + 1, params_close);
    // Find the body `{` (or a `;` for bodiless signatures), skipping
    // any delimited groups in the return type / where clause.
    let mut b = params_close + 1;
    let mut body = None;
    while b < toks.len() {
        let t = &toks[b];
        if t.is_punct("{") {
            let close = file.matches[b].unwrap_or(toks.len() - 1);
            body = Some((b, close));
            break;
        }
        if t.is_punct(";") {
            break;
        }
        if (t.is_punct("(") || t.is_punct("[")) && file.matches[b].is_some() {
            b = file.matches[b].expect("checked is_some") + 1;
            continue;
        }
        b += 1;
    }
    let mut module = vec![fs.crate_ident.clone()];
    module.extend(fs.mod_base.iter().cloned());
    let mut self_ty = None;
    for frame in stack {
        match frame {
            Frame::Mod(m) => module.push(m.clone()),
            Frame::Impl(ty) => self_ty = Some(ty.clone()),
            Frame::Other => {}
        }
    }
    let idx = fns.len();
    fns.push(FnSym {
        name,
        module,
        self_ty,
        file: fi,
        name_tok,
        body,
        params,
        is_test: toks[k].in_test || file.class.test_file,
    });
    fs.fns.push(idx);
    // Resume after the signature; the caller's scan continues into the
    // body (bodies can declare nested fns, statics, uses).
    body.map_or(params_close + 1, |(open, _)| open)
}

/// Parses `name: Type` parameters in `(start, end)`; receivers
/// (`self`, `&mut self`) and destructuring patterns are skipped.
fn parse_params(toks: &[Tok], start: usize, end: usize) -> Vec<Param> {
    let mut out = Vec::new();
    let mut seg_start = start;
    let mut depth = 0usize;
    let mut angle = 0i32;
    let mut i = start;
    while i <= end {
        let at_end = i == end;
        let t = &toks[i.min(end)];
        if !at_end {
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth = depth.saturating_sub(1);
            } else if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            }
        }
        if at_end || (t.is_punct(",") && depth == 0 && angle <= 0) {
            if let Some(p) = parse_one_param(toks, seg_start, i) {
                out.push(p);
            }
            seg_start = i + 1;
        }
        i += 1;
    }
    out
}

fn parse_one_param(toks: &[Tok], start: usize, end: usize) -> Option<Param> {
    let colon = (start..end).find(|&i| toks[i].is_punct(":"))?;
    let name_tok = toks.get(colon.checked_sub(1)?)?;
    if name_tok.kind != TokKind::Ident {
        return None; // destructuring pattern — out of scope
    }
    let ty: Vec<&str> = toks[colon + 1..end]
        .iter()
        .map(|t| t.text.as_str())
        .collect();
    Some(Param {
        name: name_tok.text.clone(),
        ty: ty.join(" "),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        let sources = files
            .iter()
            .map(|(p, s)| SourceFile::new(p, s))
            .collect::<Vec<_>>();
        Workspace::build(sources, &[], "rootcrate")
    }

    #[test]
    fn file_layout_module_paths() {
        let ws = ws_of(&[
            ("crates/demo/src/lib.rs", "pub fn a() {}"),
            ("crates/demo/src/stream/mod.rs", "pub fn b() {}"),
            ("crates/demo/src/stream/worker.rs", "pub fn c() {}"),
            ("src/lib.rs", "pub fn d() {}"),
        ]);
        let quals: Vec<String> = ws.fns.iter().map(FnSym::qual).collect();
        assert_eq!(
            quals,
            [
                "demo::a",
                "demo::stream::b",
                "demo::stream::worker::c",
                "rootcrate::d",
            ]
        );
    }

    #[test]
    fn inline_mods_impls_and_methods() {
        let src = "pub mod inner {\n\
                       pub struct S;\n\
                       impl S { pub fn m(&self, n: u32) -> u32 { n } }\n\
                       impl Clone for S { fn clone(&self) -> S { S } }\n\
                   }\n";
        let ws = ws_of(&[("crates/demo/src/lib.rs", src)]);
        let quals: Vec<String> = ws.fns.iter().map(FnSym::qual).collect();
        assert_eq!(quals, ["demo::inner::S::m", "demo::inner::S::clone"]);
        assert_eq!(ws.fns[0].params.len(), 1);
        assert_eq!(ws.fns[0].params[0].name, "n");
    }

    #[test]
    fn use_aliases_flatten_groups_and_renames() {
        let src = "use crate::stream::{shard_epoch_delta, checkpoint as ckpt};\n\
                   use ldp_common::rng::rng_from_seed;\n\
                   use super::*;\n";
        let ws = ws_of(&[("crates/demo/src/x.rs", src)]);
        let fs = &ws.syms[0];
        let find = |alias: &str| {
            fs.uses
                .iter()
                .find(|(a, _)| a == alias)
                .map(|(_, p)| p.join("::"))
        };
        assert_eq!(
            find("shard_epoch_delta").as_deref(),
            Some("crate::stream::shard_epoch_delta")
        );
        assert_eq!(find("ckpt").as_deref(), Some("crate::stream::checkpoint"));
        assert_eq!(
            find("rng_from_seed").as_deref(),
            Some("ldp_common::rng::rng_from_seed")
        );
        assert_eq!(fs.globs, vec![vec!["super".to_string()]]);
    }

    #[test]
    fn interior_mutable_statics_are_collected() {
        let src = "static SEQ: std::sync::atomic::AtomicU64 = init();\n\
                   static NAME: &str = \"fine\";\n\
                   static mut RAW: u32 = 0;\n";
        let ws = ws_of(&[("crates/demo/src/x.rs", src)]);
        assert_eq!(ws.mut_statics, ["RAW", "SEQ"]);
    }

    #[test]
    fn fn_bodies_and_rng_params() {
        let src = "pub fn draw(rng: &mut ChaChaRng, n: usize) -> u64 { body(rng, n) }\n\
                   pub fn sig_only();\n";
        let ws = ws_of(&[("crates/demo/src/x.rs", src)]);
        assert!(ws.fns[0].body.is_some());
        assert!(ws.fns[0].params[0].is_rngish());
        assert!(!ws.fns[0].params[1].is_rngish());
        assert!(ws.fns[1].body.is_none());
    }

    #[test]
    fn test_gated_fns_are_marked() {
        let src = "pub fn live() {}\n\
                   #[cfg(test)]\nmod tests { fn helper() {} }\n";
        let ws = ws_of(&[("crates/demo/src/x.rs", src)]);
        assert!(!ws.fns[0].is_test);
        assert!(ws.fns[1].is_test);
    }
}
