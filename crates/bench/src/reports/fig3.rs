//! Figure 3 — breakdown of SPML's collection phase into *reverse mapping*,
//! *PT walk* (the library's pagemap scan) and *ring buffer copy*, across
//! region sizes.
//!
//! Paper shape: reverse mapping is the bottleneck, >68% of collection time
//! on average and growing with memory size; ring copy is negligible.
//!
//! With `OOH_TRACE=1`, each run boots with an `ooh_trace::Tracer` installed;
//! the row is rebuilt from the trace's event counts, serialized, and
//! asserted byte-identical to the counter-based row; the per-lane
//! conservation invariant is checked; and the largest size's profile /
//! folded stacks / Chrome trace are written into `OOH_TRACE_OUT` (default
//! `bench_results/`). Stdout is byte-identical with and without `OOH_TRACE`.

use crate::report;
use crate::scenario::{counter, run_tracked_on};
use ooh_core::Technique;
use ooh_sim::table::fpct;
use ooh_sim::{Event, SimCtx, TextTable};
use ooh_workloads::{micro, microbench_sizes_mib};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mib: u64,
    revmap_ms: f64,
    pt_walk_ms: f64,
    ring_copy_ms: f64,
    revmap_share_pct: f64,
}

fn make_row(mib: u64, cost: &ooh_sim::CostModel, pages: u64, count: impl Fn(Event) -> u64) -> Row {
    let revmap_ns = count(Event::ReverseMapLookup) * cost.reverse_map_lookup_ns(pages);
    let pt_walk_ns = count(Event::PagemapReadEntry) * cost.pagemap_entry_ns
        + count(Event::PagemapReadChunk) * cost.pagemap_chunk_ns;
    let ring_ns = count(Event::RingBufferCopyEntry) * cost.ring_copy_entry_ns;
    let total = (revmap_ns + pt_walk_ns + ring_ns) as f64;
    Row {
        mib,
        revmap_ms: report::ms(revmap_ns),
        pt_walk_ms: report::ms(pt_walk_ns),
        ring_copy_ms: report::ms(ring_ns),
        revmap_share_pct: 100.0 * revmap_ns as f64 / total,
    }
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "fig3",
        "SPML collection-phase time: reverse mapping vs PT walk vs ring copy",
    );
    let cost = SimCtx::new().cost().clone();
    let mut tbl = TextTable::new([
        "size",
        "revmap(ms)",
        "ptwalk(ms)",
        "rbcopy(ms)",
        "revmap share",
    ]);
    let sizes = microbench_sizes_mib();
    let largest = *sizes.last().expect("nonempty size list");
    for mib in sizes {
        let mut w = micro(mib, 2);
        let pages = w.num_pages;
        let steps_per_pass = pages.div_ceil(256) as u32;

        let (mut stack, tracer) = report::boot();
        let run =
            run_tracked_on(&mut stack, Technique::Spml, &mut w, steps_per_pass).expect("spml run");
        report::check_conservation("fig3", &tracer, &stack);

        let row = make_row(mib, &cost, pages, |e| counter(&run, e));

        if let Some(t) = &tracer {
            // `TrackedRun::counters` snapshots the context's counters over
            // the stack's whole life; the trace journal covers the same
            // window, so its event totals must regenerate the row exactly.
            let trace_row = make_row(mib, &cost, pages, |e| t.event_units(e));
            let a = serde_json::to_string(&row).expect("serialize row");
            let b = serde_json::to_string(&trace_row).expect("serialize trace row");
            assert_eq!(
                a, b,
                "fig3: trace-regenerated row for {mib}MB diverged from counter-based row"
            );
            if mib == largest {
                report::write_trace_artifacts("fig3", t);
            }
        }

        tbl.row([
            format!("{}MB", row.mib),
            format!("{:.2}", row.revmap_ms),
            format!("{:.2}", row.pt_walk_ms),
            format!("{:.3}", row.ring_copy_ms),
            fpct(row.revmap_share_pct),
        ]);
        report::json_row(&mut out, &row);
    }
    report::line(&mut out, &tbl);
    out
}
