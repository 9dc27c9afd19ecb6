//! SMP scenario — dirty tracking on a multi-vCPU guest.
//!
//! The paper's measurements are single-core; this report shows what the
//! simulator charges once the guest schedules across several vCPUs: every
//! PTE teardown (munmap, soft-dirty clear, D-bit clear on EPML drain)
//! broadcasts TLB shootdown IPIs to the remote cores, and the per-vCPU
//! PML/EPML buffers are drained independently. Sweeps 1, 2 and 4 vCPUs.

use crate::{counter, report, run_tracked_on, Stack};
use ooh_core::Technique;
use ooh_sim::{Event, TextTable};
use ooh_workloads::micro;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    technique: &'static str,
    vcpus: u32,
    tracked_done_ms: f64,
    tracker_done_ms: f64,
    shootdown_ipis: u64,
    context_switches: u64,
    union_dirty_pages: u64,
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "smp",
        "multi-vCPU tracking: cross-vCPU shootdown cost per technique",
    );
    let mut tbl = TextTable::new([
        "technique",
        "vcpus",
        "tracked (ms)",
        "tracker (ms)",
        "shootdown IPIs",
        "ctx sw",
        "dirty pages",
    ]);
    for vcpus in [1, 2, 4] {
        for technique in Technique::ALL {
            let mut stack = Stack::boot_with_vcpus(1024, vcpus);
            // Populate the other cores: one background process per extra
            // vCPU (round-robin placement puts them on vCPUs 1..n), so the
            // shootdown broadcasts hit cores that are actually scheduling.
            for _ in 1..vcpus {
                stack.kernel.spawn(&mut stack.hv).expect("background spawn");
            }
            let mut w = micro(1, 2);
            let run = run_tracked_on(&mut stack, technique, &mut w, 1).expect("run");
            let ipis = counter(&run, Event::TlbShootdownIpi);
            tbl.row([
                technique.name().to_string(),
                vcpus.to_string(),
                format!("{:.3}", report::ms(run.tracked_done_ns)),
                format!("{:.3}", report::ms(run.tracker_done_ns)),
                ipis.to_string(),
                run.context_switches.to_string(),
                run.union_dirty_pages.to_string(),
            ]);
            report::json_row(
                &mut out,
                &Row {
                    technique: technique.name(),
                    vcpus,
                    tracked_done_ms: report::ms(run.tracked_done_ns),
                    tracker_done_ms: report::ms(run.tracker_done_ns),
                    shootdown_ipis: ipis,
                    context_switches: run.context_switches,
                    union_dirty_pages: run.union_dirty_pages,
                },
            );
        }
    }
    report::line(&mut out, &tbl);
    report::line(
        &mut out,
        "At 1 vCPU no shootdown IPIs fire (invalidations are core-local) and\n\
         the times match the single-core scenarios byte-for-byte; each extra\n\
         vCPU adds one IPI per remote core to every PTE-teardown broadcast.",
    );
    out
}
