//! Figure 4 — slowdown incurred by each tracking technique on the
//! micro-benchmark (array parser), as a function of region size.
//!
//! Paper shape: SPML worst overall (up to 66×, driven by reverse mapping),
//! ufd next (up to 15×, worst below 250 MB), /proc up to ~4×, EPML
//! negligible (≤0.6%) at every size.

use crate::{report, run_baseline, run_tracked};
use ooh_core::Technique;
use ooh_sim::table::fnum;
use ooh_sim::TextTable;
use ooh_workloads::{micro, microbench_sizes_mib};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    technique: &'static str,
    mib: u64,
    slowdown_x: f64,
    tracked_overhead_pct: f64,
}

const PASSES: u32 = 4;

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "fig4",
        "micro-benchmark slowdown per tracking technique",
    );
    let sizes = microbench_sizes_mib();

    let mut baselines = Vec::new();
    for &mib in &sizes {
        let mut w = micro(mib, PASSES);
        baselines.push(run_baseline(&mut w).expect("baseline"));
    }

    let mut tbl = TextTable::new(
        std::iter::once("Slowdown (x)".to_string()).chain(sizes.iter().map(|s| format!("{s}MB"))),
    );
    for technique in Technique::ALL {
        let mut row = vec![technique.name().to_string()];
        for (i, &mib) in sizes.iter().enumerate() {
            let mut w = micro(mib, PASSES);
            let steps_per_pass = w.num_pages.div_ceil(256) as u32;
            let run = run_tracked(technique, &mut w, steps_per_pass).expect("tracked");
            let slowdown = run.tracked_done_ns as f64 / baselines[i] as f64;
            row.push(fnum(slowdown, 2));
            report::json_row(
                &mut out,
                &Row {
                    technique: technique.name(),
                    mib,
                    slowdown_x: slowdown,
                    tracked_overhead_pct: 100.0 * (slowdown - 1.0),
                },
            );
        }
        tbl.row(row);
    }
    report::line(&mut out, &tbl);
    out
}
