//! CLI entry point:
//! `cargo run -p ooh-verify [--prune-stale] [--format text|sarif] [--output FILE] [workspace-root]`.
//!
//! The default (text) mode prints every violation and exits 1 if any are
//! found, 0 on a clean tree — suitable for CI and pre-commit hooks.
//! `--format sarif` emits the SARIF report instead (to stdout, or to
//! `--output FILE`); the exit code contract is the same in both formats. `--prune-stale` rewrites `verify.allow` without the
//! entries the `stale-allow` rule flagged, then re-scans and reports on the
//! pruned tree. A usage error (unknown flag, missing value, second root)
//! or a failed/empty scan exits 2.
#![allow(clippy::print_stdout)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Text,
    Sarif,
}

#[derive(Debug)]
struct Args {
    root: Option<PathBuf>,
    prune: bool,
    format: Format,
    output: Option<PathBuf>,
}

/// Parses the command line (program name already skipped). Anything that
/// is not a known flag, a flag's value, or the one optional workspace root
/// is an error naming the argument — a typo'd flag must not be scanned as
/// a directory.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        root: None,
        prune: false,
        format: Format::Text,
        output: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--prune-stale" => parsed.prune = true,
            "--format" => {
                parsed.format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!(
                            "--format takes text|sarif, got {:?}",
                            other.unwrap_or("nothing")
                        ))
                    }
                };
            }
            "--output" => {
                let path = args.next().ok_or("--output takes a file path")?;
                parsed.output = Some(PathBuf::from(path));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            root => {
                if let Some(first) = &parsed.root {
                    return Err(format!(
                        "unexpected argument `{root}` (workspace root already given as `{}`)",
                        first.display()
                    ));
                }
                parsed.root = Some(PathBuf::from(root));
            }
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let Args {
        root,
        prune,
        format,
        output,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ooh-verify: {e}");
            eprintln!(
                "usage: ooh-verify [--prune-stale] [--format text|sarif] [--output FILE] [workspace-root]"
            );
            return ExitCode::from(2);
        }
    };
    let root = root.unwrap_or_else(ooh_verify::workspace_root);

    let mut report = match ooh_verify::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ooh-verify: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if prune {
        let stale_lines: BTreeSet<usize> = report
            .violations
            .iter()
            .filter(|v| v.rule == "stale-allow" && v.path == "verify.allow")
            .map(|v| v.line)
            .collect();
        if stale_lines.is_empty() {
            println!("ooh-verify: no stale verify.allow entries to prune");
        } else {
            let allow_path = root.join("verify.allow");
            let text = match std::fs::read_to_string(&allow_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("ooh-verify: reading {}: {e}", allow_path.display());
                    return ExitCode::from(2);
                }
            };
            let pruned = ooh_verify::prune_stale(&text, &stale_lines);
            if let Err(e) = std::fs::write(&allow_path, pruned) {
                eprintln!("ooh-verify: writing {}: {e}", allow_path.display());
                return ExitCode::from(2);
            }
            println!(
                "ooh-verify: pruned {} stale entr{} from {}",
                stale_lines.len(),
                if stale_lines.len() == 1 { "y" } else { "ies" },
                allow_path.display()
            );
            // Report on the tree as it now stands.
            report = match ooh_verify::run(&root) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ooh-verify: failed to re-scan {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
        }
    }

    // An empty scan means the root is wrong (e.g. a typo'd CI path), not a
    // clean tree — passing silently here would defeat the whole gate.
    if report.files_scanned == 0 {
        eprintln!(
            "ooh-verify: no Rust sources found under {} — wrong workspace root?",
            root.display()
        );
        return ExitCode::from(2);
    }

    let rendered = match format {
        Format::Text => {
            let mut text = String::new();
            for v in &report.violations {
                text.push_str(&format!("{v}\n"));
            }
            text.push_str(&format!(
                "ooh-verify: {} files scanned, {} violation(s), {} allowlisted\n",
                report.files_scanned,
                report.violations.len(),
                report.allowed
            ));
            if !report.is_clean() {
                text.push_str("rules:\n");
                for rule in ooh_verify::RULES {
                    text.push_str(&format!("  {:<18} {}\n", rule.id, rule.summary));
                }
                text.push_str("suppress with verify.allow or `// ooh-verify: allow(<rule>)` — see crates/verify/src/lib.rs\n");
            }
            text
        }
        Format::Sarif => ooh_verify::sarif::to_sarif(&report),
    };
    if !emit(&rendered, output.as_deref()) {
        return ExitCode::from(2);
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `text` to `path` (or stdout). Returns false on an I/O error.
fn emit(text: &str, path: Option<&std::path::Path>) -> bool {
    match path {
        Some(p) => match std::fs::write(p, text) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("ooh-verify: writing {}: {e}", p.display());
                false
            }
        },
        None => {
            print!("{text}");
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults_and_every_flag() {
        let none = parse(&[]).unwrap();
        assert_eq!(
            (none.root, none.prune, none.format, none.output),
            (None, false, Format::Text, None)
        );
        let all = parse(&[
            "--prune-stale",
            "--format",
            "sarif",
            "--output",
            "o.sarif",
            "ws",
        ])
        .unwrap();
        assert_eq!(all.root, Some(PathBuf::from("ws")));
        assert!(all.prune);
        assert_eq!(all.format, Format::Sarif);
        assert_eq!(all.output, Some(PathBuf::from("o.sarif")));
    }

    #[test]
    fn unknown_flags_are_usage_errors_not_roots() {
        // A typo'd flag must not scan a directory called `json`...
        let e = parse(&["--fromat", "json"]).unwrap_err();
        assert!(e.contains("--fromat"), "{e}");
        // ...nor may a flag this CLI does not have scan its value.
        let e = parse(&["--cache", "/tmp/x.cache"]).unwrap_err();
        assert!(e.contains("--cache"), "{e}");
    }

    #[test]
    fn a_second_root_and_missing_values_are_usage_errors() {
        let e = parse(&["a", "b"]).unwrap_err();
        assert!(e.contains("`b`") && e.contains("`a`"), "{e}");
        assert!(parse(&["--format"]).unwrap_err().contains("--format"));
        assert!(parse(&["--format", "xml"]).unwrap_err().contains("xml"));
        assert!(parse(&["--format", "json"]).unwrap_err().contains("json"));
        assert!(parse(&["--output"]).unwrap_err().contains("--output"));
    }
}
