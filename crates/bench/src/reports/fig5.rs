//! Figure 5 — execution time of Boehm GC when implemented with /proc, SPML
//! and EPML: per-cycle collection times, with the first cycle highlighted
//! (under SPML it carries the reverse mapping; later cycles reuse the
//! cached addresses, paper footnote 2).
//!
//! Paper shape: ignoring the first cycle, SPML ≤ /proc; EPML best (up to
//! 58% faster than /proc and 47% than SPML on GCBench Medium).

use crate::gc_scenarios::{run_gcbench, run_phoenix_gc, GcAppRun};
use crate::report;
use ooh_core::Technique;
use ooh_sim::TextTable;
use ooh_workloads::SizeClass;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    app: String,
    size: &'static str,
    technique: String,
    cycles: usize,
    first_cycle_ms: f64,
    rest_avg_ms: f64,
    gc_total_ms: f64,
}

fn emit(out: &mut String, tbl: &mut TextTable, run: &GcAppRun) {
    let first = run.cycles.first().map(|c| c.total_ns).unwrap_or(0);
    let rest: Vec<u64> = run.cycles.iter().skip(1).map(|c| c.total_ns).collect();
    let rest_avg = if rest.is_empty() {
        0.0
    } else {
        rest.iter().sum::<u64>() as f64 / rest.len() as f64
    };
    tbl.row([
        run.app.clone(),
        run.size.to_string(),
        run.technique.clone(),
        run.cycles.len().to_string(),
        format!("{:.3}", report::ms(first)),
        format!("{:.3}", rest_avg / 1e6),
        format!("{:.3}", report::ms(run.gc_total_ns)),
    ]);
    report::json_row(
        out,
        &Row {
            app: run.app.clone(),
            size: run.size,
            technique: run.technique.clone(),
            cycles: run.cycles.len(),
            first_cycle_ms: report::ms(first),
            rest_avg_ms: rest_avg / 1e6,
            gc_total_ms: report::ms(run.gc_total_ns),
        },
    );
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "fig5",
        "Boehm GC cycle times per technique (first cycle highlighted)",
    );
    let mut tbl = TextTable::new([
        "app",
        "size",
        "technique",
        "cycles",
        "1st cycle (ms)",
        "rest avg (ms)",
        "GC total (ms)",
    ]);
    let techniques = [Technique::Proc, Technique::Spml, Technique::Epml];

    for size in [SizeClass::Medium, SizeClass::Large] {
        for &t in &techniques {
            let run = run_gcbench(size, Some(t)).expect("gcbench run");
            emit(&mut out, &mut tbl, &run);
        }
    }
    for app in ["histogram", "word-count", "string-match"] {
        for size in [SizeClass::Medium, SizeClass::Large] {
            for &t in &techniques {
                let run = run_phoenix_gc(app, size, Some(t)).expect("phoenix gc run");
                emit(&mut out, &mut tbl, &run);
            }
        }
    }
    report::line(&mut out, &tbl);
    out
}
