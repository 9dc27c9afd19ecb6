//! Table I — overhead (%) of ufd- and /proc-based dirty page tracking on
//! Tracked and on Tracker, for the Listing-1 array parser at increasing
//! region sizes.
//!
//! Paper reference points (1 GB): ufd 1463% / 1349%, /proc 335% / 147%.
//! Run with `OOH_FULL=1` to extend the sweep to 500 MB and 1 GB.

use crate::{report, run_baseline, run_tracked};
use ooh_core::Technique;
use ooh_sim::{overhead_pct, TextTable};
use ooh_workloads::{micro, microbench_sizes_mib};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    technique: &'static str,
    mib: u64,
    tracked_overhead_pct: f64,
    tracker_overhead_pct: f64,
    baseline_ms: f64,
    dirty_pages: u64,
}

/// Passes over the region per run; collection happens between passes, as a
/// checkpoint-style tracker would.
const PASSES: u32 = 4;

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "table1",
        "overhead of ufd and /proc on Tracked and Tracker",
    );
    report::scaling_note(
        &mut out,
        "sizes are true region sizes; default sweep stops at 250 MiB (OOH_FULL=1 for 1 GiB)",
    );
    let sizes = microbench_sizes_mib();

    let mut tracked_tbl = TextTable::new(
        std::iter::once("On Tracked (%)".to_string()).chain(sizes.iter().map(|s| format!("{s}MB"))),
    );
    let mut tracker_tbl = TextTable::new(
        std::iter::once("On Tracker (%)".to_string()).chain(sizes.iter().map(|s| format!("{s}MB"))),
    );

    let mut baselines = Vec::new();
    for &mib in &sizes {
        let mut w = micro(mib, PASSES);
        baselines.push(run_baseline(&mut w).expect("baseline"));
    }

    for technique in [Technique::Ufd, Technique::Proc] {
        let mut tracked_row = vec![technique.name().to_string()];
        let mut tracker_row = vec![technique.name().to_string()];
        for (i, &mib) in sizes.iter().enumerate() {
            let mut w = micro(mib, PASSES);
            // Collect once per pass (the array parser's natural round).
            let steps_per_pass = (w.num_pages).div_ceil(256) as u32;
            let run = run_tracked(technique, &mut w, steps_per_pass).expect("tracked run");
            let base = baselines[i] as f64;
            let on_tracked = overhead_pct(run.tracked_done_ns as f64, base);
            let on_tracker = overhead_pct(run.tracker_done_ns as f64, base);
            tracked_row.push(format!("{on_tracked:.0}"));
            tracker_row.push(format!("{on_tracker:.0}"));
            report::json_row(
                &mut out,
                &Row {
                    technique: technique.name(),
                    mib,
                    tracked_overhead_pct: on_tracked,
                    tracker_overhead_pct: on_tracker,
                    baseline_ms: report::ms(baselines[i]),
                    dirty_pages: run.union_dirty_pages,
                },
            );
        }
        tracked_tbl.row(tracked_row);
        tracker_tbl.row(tracker_row);
    }
    report::line(&mut out, &tracked_tbl);
    report::line(&mut out, &tracker_tbl);
    out
}
