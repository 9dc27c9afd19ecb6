//! `bench_results/<id>.txt` is what `ooh-bench <id>` prints, byte for byte.
//!
//! Every report in `ooh_bench::reports::ALL` is pinned here, and all 16 run
//! in tier-1 (`cargo test`; the simulator crates build at `opt-level = 2`
//! in the dev profile, see the root `Cargo.toml`). A pin fails on the first
//! differing line; if the change is intended, regenerate with `cargo run
//! --release -p ooh-bench -- <id> > bench_results/<id>.txt` and explain
//! the diff.

use ooh_bench::reports::ALL;
use std::collections::BTreeSet;
use std::path::Path;

/// `bench_results/` files that are criterion output, not reports.
const NOT_REPORTS: [&str; 2] = ["dirty_path", "verify_bench"];

fn pin(id: &str) {
    let (_, render) = ALL
        .iter()
        .find(|(name, _)| *name == id)
        .unwrap_or_else(|| panic!("no report {id:?} in reports::ALL"));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("bench_results/{id}.txt"));
    let want = std::fs::read_to_string(&path).expect("read pinned output");
    let got = render();
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let line = (0..)
        .find(|&i| got_lines.get(i) != want_lines.get(i))
        .unwrap_or(got_lines.len());
    panic!(
        "bench_results/{id}.txt differs from reports::{id}::render() at line {}:\n  \
         pinned:   {:?}\n  rendered: {:?}\n\
         (if intended: cargo run --release -p ooh-bench -- {id} > bench_results/{id}.txt)",
        line + 1,
        want_lines.get(line),
        got_lines.get(line),
    );
}

/// One test per report, and the list of every id the macro pinned.
macro_rules! pins {
    ($($id:ident),*) => {
        const PINNED: &[&str] = &[$(stringify!($id),)*];
        $(#[test] fn $id() { pin(stringify!($id)) })*
    };
}

pins!(
    fig1, smp, table6, table4, fleet_snap, ablation, fig3, table5, hugepage, fig10_11, table1,
    table3, fig4, fig5, fig7_8_9, fig6
);

/// A report cannot land unpinned, and a pinned file cannot outlive its
/// report: `reports::ALL`, the tests above and the files agree.
#[test]
fn every_report_is_pinned_and_every_pin_has_a_report() {
    let reports: BTreeSet<&str> = ALL.iter().map(|(id, _)| *id).collect();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_results");
    let files: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("read bench_results/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .filter(|stem| !NOT_REPORTS.contains(&stem.as_str()))
        .collect();
    let files: BTreeSet<&str> = files.iter().map(String::as_str).collect();
    assert_eq!(reports, files, "reports::ALL vs bench_results/*.txt");
    let pinned: BTreeSet<&str> = PINNED.iter().copied().collect();
    assert_eq!(reports, pinned, "reports::ALL vs the pins in this file");
}
