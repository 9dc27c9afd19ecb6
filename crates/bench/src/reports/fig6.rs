//! Figure 6 — impact of Boehm GC's tracking technique on the *application*
//! (Tracked): execution time under /proc, SPML and EPML relative to the
//! untracked ideal (stop-the-world GC without dirty tracking).
//!
//! Paper shape: SPML ≥ /proc on most apps (up to 273% on string-match);
//! EPML cuts the overhead to single digits (up to 62% better than /proc).

use crate::gc_scenarios::run_phoenix_gc;
use crate::report;
use ooh_core::Technique;
use ooh_sim::{overhead_pct, TextTable};
use ooh_workloads::SizeClass;
use rayon::par_map_ordered;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    app: String,
    size: &'static str,
    technique: String,
    overhead_pct: f64,
    total_ms: f64,
    baseline_ms: f64,
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "fig6",
        "impact of Boehm's tracking technique on the application",
    );
    let mut tbl = TextTable::new(["app", "size", "/proc", "SPML", "EPML"]);
    let apps = [
        "histogram",
        "kmeans",
        "matrix-multiply",
        "pca",
        "string-match",
        "word-count",
    ];
    // Every (app, size) cell is an independent deterministic simulation:
    // fan the grid out across cores (the rayon use DESIGN.md §5 justifies).
    let grid: Vec<(&str, SizeClass)> = apps
        .iter()
        .flat_map(|&a| [SizeClass::Medium, SizeClass::Large].map(|s| (a, s)))
        .collect();
    let results = par_map_ordered(&grid, rayon::default_threads(), |&(app, size)| {
        let base = run_phoenix_gc(app, size, None).expect("baseline");
        let runs: Vec<_> = [Technique::Proc, Technique::Spml, Technique::Epml]
            .into_iter()
            .map(|t| (t, run_phoenix_gc(app, size, Some(t)).expect("tracked")))
            .collect();
        (app, size, base, runs)
    });
    for (app, size, base, runs) in results {
        let mut cells = vec![app.to_string(), size.name().to_string()];
        for (t, run) in runs {
            let ov = overhead_pct(run.total_ns as f64, base.total_ns as f64);
            cells.push(format!("{ov:.1}%"));
            report::json_row(
                &mut out,
                &Row {
                    app: app.to_string(),
                    size: size.name(),
                    technique: t.name().to_string(),
                    overhead_pct: ov,
                    total_ms: report::ms(run.total_ns),
                    baseline_ms: report::ms(base.total_ns),
                },
            );
        }
        tbl.row(cells);
    }
    report::line(&mut out, &tbl);
    out
}
