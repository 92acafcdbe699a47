//! `hmg-audit` — static protocol verifier and shadow-table linter.
//!
//! Usage:
//!
//! ```text
//! hmg-audit [--root DIR] [--inject CLASS] [--model] [--depth N] [--protocol VARIANT]
//! ```
//!
//! Exits 0 when the audit is clean, 1 when it found violations (each
//! printed as `file:line: [rule] message`), 2 on usage errors.
//! `--inject` seeds one known violation class (self-test mode; CI runs
//! these with inverted exit expectations): `incomplete-row`,
//! `waitsfor-cycle`, `dir-match`, `spec-drop-forward`.
//!
//! `--model` additionally runs the explicit-state model checker over
//! the guarded-action spec variants, printing one greppable `[model]`
//! line per variant (and counterexample traces on violation).
//! `--depth N` bounds the BFS (default: exhaustive); `--protocol`
//! restricts to one variant (`nhcc`, `hmg`, `nhcc-phase`, `hmg-phase`).

use std::path::PathBuf;
use std::process::ExitCode;

use hmg_audit::{run_audit, AuditOptions, Inject};
use hmg_protocol::SpecVariant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hmg-audit [--root DIR] [--inject CLASS] [--model] [--depth N] \
         [--protocol VARIANT]\n       CLASS: {}\n       VARIANT: {}",
        Inject::CLASSES.map(|(name, ..)| name).join(" | "),
        SpecVariant::ALL.map(|v| v.name()).join(" | ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut opts_inject = None;
    let mut model = false;
    let mut model_depth = None;
    let mut protocol = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
            "--inject" => match args.next().as_deref().and_then(Inject::parse) {
                Some(class) => opts_inject = Some(class),
                None => return usage(),
            },
            "--model" => model = true,
            "--depth" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => model_depth = Some(n),
                None => return usage(),
            },
            "--protocol" => match args.next().as_deref().and_then(SpecVariant::from_name) {
                Some(v) => protocol = Some(v),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    if !root.join("crates").is_dir() {
        eprintln!(
            "hmg-audit: {} does not look like the workspace root (no crates/ directory); \
             pass --root",
            root.display()
        );
        return ExitCode::from(2);
    }

    let report = run_audit(&AuditOptions {
        inject: opts_inject,
        model,
        model_depth,
        protocol,
        ..AuditOptions::new(root)
    });
    for run in &report.model_runs {
        println!("{}", run.report());
    }
    for f in &report.findings {
        println!("{f}");
    }
    println!("{}", report.summary());
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
