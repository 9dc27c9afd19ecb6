//! Pins *where* `ooh-verify` reports, not just *that* it reports:
//! `tests/lint_corpus.rs` and `tests/protocol_mutations.rs` assert which
//! rule fires on each known-bad input, this file pins every finding in
//! `tests/golden/lint_corpus_findings.txt`. An engine change that keeps
//! the verdicts but moves, splits or merges a finding shows up here as a
//! one-line diff. Regenerate deliberately with
//! `OOH_BLESS=1 cargo test --test lint_findings_golden` and review the
//! diff like any other output change.
//!
//! Corpus rows carry `line:col` in the corpus file. Mutation rows scan
//! production files, so they are anchored to the enclosing function
//! instead: `fn <name>+<lines below the fn line>:<col>`. Edits elsewhere in
//! the mutated file leave them alone; only an edit inside that function,
//! above the seeded site, moves one.
//!
//! The second test holds the parser to its "total" contract: a scan of
//! any line-boundary prefix of any corpus file — unbalanced braces,
//! half a `match`, an unterminated string — degrades to fewer findings,
//! never to a panic.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Every corpus file with the crate it is scanned as (the pairing
/// `tests/lint_corpus.rs` uses).
const CORPUS: &[(&str, &str)] = &[
    ("machine", "arch_panic_bad.rs"),
    ("machine", "arch_panic_good.rs"),
    ("guest", "arch_phys_bad.rs"),
    ("guest", "arch_phys_good.rs"),
    ("hypervisor", "cost_bad.rs"),
    ("hypervisor", "cost_good.rs"),
    ("guest", "demote_log_bad.rs"),
    ("guest", "demote_log_good.rs"),
    ("core", "det_hash_bad.rs"),
    ("core", "det_hash_good.rs"),
    ("sim", "det_par_bad.rs"),
    ("sim", "det_par_good.rs"),
    ("sim", "det_time_bad.rs"),
    ("sim", "det_time_good.rs"),
    ("guest", "drain_clear_bad.rs"),
    ("guest", "drain_clear_good.rs"),
    ("hypervisor", "ipi_full_bad.rs"),
    ("hypervisor", "ipi_full_good.rs"),
    ("bench", "order_bad.rs"),
    ("bench", "order_good.rs"),
    ("machine", "ring_guard_bad.rs"),
    ("machine", "ring_guard_good.rs"),
    ("guest", "shootdown_bad.rs"),
    ("guest", "shootdown_good.rs"),
    ("guest", "spml_pairing_bad.rs"),
    ("guest", "spml_pairing_good.rs"),
];

/// How a seeded mutation edits its workspace file.
enum Edit {
    Replace(&'static str, &'static str),
    DropLinesContaining(&'static str),
}

/// The five `tests/protocol_mutations.rs` scans: `(name, file, edit)`.
const MUTATIONS: &[(&str, &str, Edit)] = &[
    (
        "skip_disable_logging",
        "crates/guest/src/ooh_module.rs",
        Edit::Replace(
            "        self.disable_logging(kernel, hv)\n    }",
            "        Ok(())\n    }",
        ),
    ),
    (
        "clear_before_drain",
        "crates/guest/src/ooh_module.rs",
        Edit::Replace(
            "        let per_page_invalidate =",
            "        hv.guest_vmwrite(kernel.vm, kernel.vcpu, Field::GuestPmlIndex, 511, Lane::Kernel)?;\n        let per_page_invalidate =",
        ),
    ),
    (
        "drop_ipi",
        "crates/hypervisor/src/hypervisor.rs",
        Edit::DropLinesContaining(
            "v.post_interrupt(&self.ctx, Lane::Kernel, EPML_SELF_IPI_VECTOR);",
        ),
    ),
    (
        "skip_demote_generation_bump",
        "crates/guest/src/kernel.rs",
        Edit::DropLinesContaining("self.process_mut(pid)?.bump_map_generation();"),
    ),
    (
        "skip_demote_shootdown",
        "crates/guest/src/kernel.rs",
        Edit::DropLinesContaining("self.shootdown_page(hv, base);"),
    ),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn corpus_source(file: &str) -> String {
    let path = root().join("tests/lint_corpus").join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading corpus file {}: {e}", path.display()))
}

fn push_rows(out: &mut String, scan: &str, violations: &[ooh_verify::Violation]) {
    for v in violations {
        let _ = writeln!(out, "{scan} {} {}:{}", v.rule, v.line, v.col);
    }
}

/// The `fn` item at or above 1-based `line` of `source`: its name and
/// line. A line declares one when `fn` is its first token after any
/// qualifiers, so comments, `fn(..)` types and calls never match.
fn enclosing_fn(source: &str, line: usize) -> (&str, usize) {
    const QUALIFIERS: &[&str] = &[
        "pub",
        "pub(crate)",
        "pub(super)",
        "const",
        "async",
        "unsafe",
    ];
    let lines: Vec<&str> = source.lines().collect();
    for at in (1..=line.min(lines.len())).rev() {
        let mut words = lines[at - 1]
            .split_whitespace()
            .skip_while(|w| QUALIFIERS.contains(w));
        if words.next() == Some("fn") {
            if let Some(rest) = words.next() {
                let end = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                return (&rest[..end], at);
            }
        }
    }
    panic!("no fn item at or above line {line}")
}

fn push_anchored_rows(
    out: &mut String,
    scan: &str,
    inputs: &[(String, String, String)],
    violations: &[ooh_verify::Violation],
) {
    for v in violations {
        let (_, _, source) = inputs
            .iter()
            .find(|(_, rel, _)| *rel == v.path)
            .unwrap_or_else(|| panic!("finding in unscanned file {}", v.path));
        let (name, fn_line) = enclosing_fn(source, v.line);
        let _ = writeln!(
            out,
            "{scan} {} fn {name}+{}:{}",
            v.rule,
            v.line - fn_line,
            v.col
        );
    }
}

fn render_findings() -> String {
    let mut out = String::new();
    for (crate_name, file) in CORPUS {
        let rel = format!("crates/{crate_name}/src/{file}");
        let report = ooh_verify::scan_files(
            &[(crate_name.to_string(), rel, corpus_source(file))],
            &ooh_verify::Allowlist::parse(""),
        );
        push_rows(&mut out, file, &report.violations);
    }
    let workspace = ooh_verify::collect_inputs(&root()).expect("collect workspace sources");
    for (name, path, edit) in MUTATIONS {
        let mut inputs = workspace.clone();
        let target = inputs
            .iter_mut()
            .find(|(_, rel, _)| rel == path)
            .unwrap_or_else(|| panic!("no workspace file {path}"));
        let mutated: String = match edit {
            Edit::Replace(from, to) => target.2.replace(from, to),
            Edit::DropLinesContaining(needle) => target
                .2
                .lines()
                .filter(|l| !l.contains(needle))
                .map(|l| format!("{l}\n"))
                .collect(),
        };
        assert_ne!(mutated, target.2, "mutation {name} was a no-op");
        target.2 = mutated;
        let allow = ooh_verify::Allowlist::load(&root().join("verify.allow"));
        let report = ooh_verify::scan_files(&inputs, &allow);
        push_anchored_rows(
            &mut out,
            &format!("{name}:{path}"),
            &inputs,
            &report.violations,
        );
    }
    out
}

#[test]
fn corpus_and_mutation_findings_match_golden() {
    let actual = render_findings();
    let path = root().join("tests/golden/lint_corpus_findings.txt");
    if std::env::var_os("OOH_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with OOH_BLESS=1 \
             cargo test --test lint_findings_golden",
            path.display()
        )
    });
    assert_eq!(
        actual, want,
        "ooh-verify moved, added or dropped a finding on the corpus or a seeded mutation"
    );
}

#[test]
fn every_line_prefix_of_every_corpus_file_scans_without_panicking() {
    for (crate_name, file) in CORPUS {
        let source = corpus_source(file);
        let rel = format!("crates/{crate_name}/src/{file}");
        let allow = ooh_verify::Allowlist::parse("");
        let mut prefix = String::new();
        for line in source.split_inclusive('\n') {
            prefix.push_str(line);
            // The result is irrelevant; reaching the next iteration is the
            // assertion.
            let _ = ooh_verify::scan_source(crate_name, &rel, &prefix, &allow);
        }
    }
}
