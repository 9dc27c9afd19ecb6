//! CLI entry point: `cargo run -p ooh-verify [workspace-root]`.
//!
//! Prints every violation and exits 1 if any are found, 0 on a clean tree —
//! suitable for CI and pre-commit hooks. A usage error (any flag, a second
//! root) or a failed/empty scan exits 2.
#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;

/// Parses the command line (program name already skipped) into the one
/// optional workspace root. Anything else is an error naming the argument —
/// a typo'd flag must not be scanned as a directory.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<PathBuf>, String> {
    let mut root: Option<PathBuf> = None;
    for arg in args {
        if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        }
        if let Some(first) = &root {
            return Err(format!(
                "unexpected argument `{arg}` (workspace root already given as `{}`)",
                first.display()
            ));
        }
        root = Some(PathBuf::from(arg));
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args(std::env::args().skip(1)) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("ooh-verify: {e}");
            eprintln!("usage: ooh-verify [workspace-root]");
            return ExitCode::from(2);
        }
    };
    let root = root.unwrap_or_else(ooh_verify::workspace_root);

    let report = match ooh_verify::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ooh-verify: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    // An empty scan means the root is wrong (e.g. a typo'd CI path), not a
    // clean tree — passing silently here would defeat the whole gate.
    if report.files_scanned == 0 {
        eprintln!(
            "ooh-verify: no Rust sources found under {} — wrong workspace root?",
            root.display()
        );
        return ExitCode::from(2);
    }

    for v in &report.violations {
        println!("{v}");
    }
    println!(
        "ooh-verify: {} files scanned, {} violation(s), {} allowlisted",
        report.files_scanned,
        report.violations.len(),
        report.allowed
    );
    if report.is_clean() {
        return ExitCode::SUCCESS;
    }
    println!("rules:");
    for rule in ooh_verify::RULES {
        println!("  {:<18} {}", rule.id, rule.summary);
    }
    println!("suppress with verify.allow or `// ooh-verify: allow(<rule>)` — see crates/verify/src/lib.rs");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<PathBuf>, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn the_only_argument_is_an_optional_root() {
        assert_eq!(parse(&[]).unwrap(), None);
        assert_eq!(parse(&["ws"]).unwrap(), Some(PathBuf::from("ws")));
    }

    #[test]
    fn unknown_flags_are_usage_errors_not_roots() {
        // A typo'd flag must not scan a directory called `json`...
        let e = parse(&["--fromat", "json"]).unwrap_err();
        assert!(e.contains("--fromat"), "{e}");
        // ...nor may a flag this CLI does not have scan its value.
        let e = parse(&["--format", "sarif"]).unwrap_err();
        assert!(e.contains("--format"), "{e}");
        let e = parse(&["--prune-stale"]).unwrap_err();
        assert!(e.contains("--prune-stale"), "{e}");
    }

    #[test]
    fn a_second_root_is_a_usage_error() {
        let e = parse(&["a", "b"]).unwrap_err();
        assert!(e.contains("`b`") && e.contains("`a`"), "{e}");
    }
}
