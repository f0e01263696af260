//! The `ldp-lint` binary: scans the workspace and prints findings as
//! `path:line:col: [ID] message` (with the offending line). See the
//! library docs for the rule catalog; `--explain <RULE>` prints one
//! rule's full catalog entry with its bad/good fixture pair.

use std::path::PathBuf;
use std::process::ExitCode;

use ldp_lint::{bless_goldens, check_goldens, lint_workspace, RuleId, GOLDEN_MANIFEST};

const USAGE: &str = "\
ldp-lint — workspace determinism & hygiene lints

USAGE: ldp-lint [OPTIONS]

OPTIONS:
    --deny             exit non-zero when any finding remains
    --check-goldens    fail when a blessed golden/trajectory file drifted
                       from golden.manifest
    --bless-goldens    regenerate golden.manifest from the tree and exit
    --explain <RULE>   print a rule's full catalog entry (rationale plus
                       the bad/good fixture pair) and exit
    --root <DIR>       workspace root (default: current directory)
    --list-rules       print the rule catalog and exit
    --help             print this help
";

struct Args {
    deny: bool,
    check_goldens: bool,
    bless_goldens: bool,
    explain: Option<String>,
    root: PathBuf,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        check_goldens: false,
        bless_goldens: false,
        explain: None,
        root: PathBuf::from("."),
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--check-goldens" => args.check_goldens = true,
            "--bless-goldens" => args.bless_goldens = true,
            "--list-rules" => args.list_rules = true,
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule id")?);
            }
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn explain(rule: RuleId) {
    println!("[{}] {}", rule.id(), rule.summary());
    println!();
    println!("{}", rule.rationale());
    println!();
    println!("--- known-bad (fires the rule) ---");
    print!("{}", rule.example_bad());
    println!("--- known-good twin (lints clean) ---");
    print!("{}", rule.example_good());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ldp-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(id) = &args.explain {
        return match RuleId::parse(id) {
            Some(rule) => {
                explain(rule);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("ldp-lint: unknown rule `{id}` (try --list-rules)");
                ExitCode::from(2)
            }
        };
    }
    if args.list_rules {
        println!("ldp-lint rule catalog:");
        for rule in RuleId::ALL {
            println!("  [{}] {}", rule.id(), rule.summary());
        }
        return ExitCode::SUCCESS;
    }
    if !args.root.join("Cargo.toml").exists() || !args.root.join("crates").is_dir() {
        eprintln!(
            "ldp-lint: `{}` does not look like the workspace root (no Cargo.toml/crates); \
             run from the repo root or pass --root",
            args.root.display()
        );
        return ExitCode::from(2);
    }
    if args.bless_goldens {
        return match bless_goldens(&args.root) {
            Ok(n) => {
                println!("ldp-lint: blessed {n} file(s) into {GOLDEN_MANIFEST}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ldp-lint: {e}");
                ExitCode::from(2)
            }
        };
    }
    let report = match lint_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ldp-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for finding in &report.findings {
        println!("{}", finding.render());
    }
    let mut failed = false;
    if args.check_goldens {
        match check_goldens(&args.root) {
            Ok(errors) => {
                for e in &errors {
                    println!("ldp-lint: {e}");
                }
                failed |= !errors.is_empty();
            }
            Err(e) => {
                eprintln!("ldp-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "ldp-lint: {} finding(s) across {} files",
        report.findings.len(),
        report.files_scanned
    );
    failed |= args.deny && !report.findings.is_empty();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
