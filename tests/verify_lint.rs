//! Runs the `ooh-verify` determinism & architecture lint pass as part of the
//! workspace's tier-1 test suite, so a violating diff fails `cargo test -q`
//! without anyone having to remember to run the binary. Also holds the
//! linter to its own standard: two scans of the same tree must render to
//! byte-identical text, JSON, and SARIF.

#[test]
fn workspace_passes_ooh_verify_lint() {
    let root = ooh_verify::workspace_root();
    let report = ooh_verify::run(&root).expect("scanning the workspace sources");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the crate layout move?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "ooh-verify found {} violation(s) — run `cargo run -p ooh-verify` for details:\n{}",
        report.violations.len(),
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The linter preaches determinism, so it is held to it: scanning the same
/// tree twice must produce byte-identical reports in every output format.
/// A diff here means a rule (or an emitter) depends on something other than
/// the scanned sources — hasher state, timestamps, path iteration order.
#[test]
fn verify_output_is_byte_identical_across_runs() {
    let root = ooh_verify::workspace_root();
    let a = ooh_verify::run(&root).expect("first scan");
    let b = ooh_verify::run(&root).expect("second scan");

    let text = |r: &ooh_verify::Report| {
        r.violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(text(&a), text(&b), "text rendering differs across runs");
    assert_eq!(
        ooh_verify::sarif::to_sarif(&a),
        ooh_verify::sarif::to_sarif(&b),
        "SARIF rendering differs across runs"
    );
    assert_eq!(a.files_scanned, b.files_scanned);
    assert_eq!(a.allowed, b.allowed);
}

/// Findings come out sorted by `(path, line, rule, col)` — the order the
/// formats rely on for stability.
#[test]
fn verify_findings_are_sorted() {
    // Scan a deliberately dirty two-file input so there are findings to
    // check ordering on (the workspace itself scans clean).
    let inputs = vec![
        (
            "sim".to_string(),
            "crates/sim/src/zz.rs".to_string(),
            "fn f() { let t = std::time::Instant::now(); let r = rand::random(); }".to_string(),
        ),
        (
            "machine".to_string(),
            "crates/machine/src/aa.rs".to_string(),
            "fn g() { x.unwrap();\n y.unwrap(); }".to_string(),
        ),
    ];
    let report = ooh_verify::scan_files(&inputs, &ooh_verify::Allowlist::parse(""));
    assert!(report.violations.len() >= 3, "{:?}", report.violations);
    let keys: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule, v.col))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings are not in (path, line, rule, col) order");
}
