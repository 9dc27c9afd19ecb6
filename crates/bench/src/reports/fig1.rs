//! Figure 1 analog — the *mechanism timeline* of one tracking round per
//! technique. The paper's Figure 1 is conceptual (suspensions of Tracked,
//! world transitions, collection phases); this report derives the same
//! story from measured event counts and lane times on a fixed round:
//! 64 pages dirtied, one collection.

use crate::{counter, report, run_tracked};
use ooh_core::Technique;
use ooh_sim::{Event, TextTable};
use ooh_workloads::micro;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    technique: &'static str,
    event: String,
    count: u64,
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "fig1",
        "mechanism timeline per technique (one round, 64 dirty pages)",
    );
    let mut tbl = TextTable::new([
        "technique",
        "#PF kern",
        "#PF user",
        "ctx sw",
        "vmexits",
        "hypercalls",
        "vmrd/vmwr",
        "PML logs",
        "ring copies",
        "revmap",
        "pagemap entries",
    ]);
    for technique in Technique::ALL {
        let mut w = micro(1, 2); // 256 pages x 2 passes, collect per pass
        let run = run_tracked(technique, &mut w, 1).expect("run");
        let c = |e: Event| counter(&run, e);
        tbl.row([
            technique.name().to_string(),
            c(Event::PageFaultKernel).to_string(),
            c(Event::PageFaultUser).to_string(),
            c(Event::ContextSwitch).to_string(),
            (c(Event::VmExit) + c(Event::PmlBufferFullExit)).to_string(),
            c(Event::Hypercall).to_string(),
            (c(Event::Vmread) + c(Event::Vmwrite)).to_string(),
            (c(Event::PmlLogGpa) + c(Event::PmlLogGva)).to_string(),
            c(Event::RingBufferCopyEntry).to_string(),
            c(Event::ReverseMapLookup).to_string(),
            c(Event::PagemapReadEntry).to_string(),
        ]);
        for e in [
            Event::PageFaultKernel,
            Event::PageFaultUser,
            Event::ContextSwitch,
            Event::Hypercall,
            Event::Vmread,
            Event::Vmwrite,
            Event::PmlLogGpa,
            Event::PmlLogGva,
            Event::RingBufferCopyEntry,
            Event::ReverseMapLookup,
            Event::PagemapReadEntry,
        ] {
            report::json_row(
                &mut out,
                &Row {
                    technique: technique.name(),
                    event: e.name().to_string(),
                    count: c(e),
                },
            );
        }
    }
    report::line(&mut out, &tbl);
    report::line(
        &mut out,
        "The Figure-1 story, in counts: /proc and ufd suspend Tracked once per\n\
         page (#PF columns); SPML replaces faults with hypercalls + revmap;\n\
         EPML leaves only vmwrites and PML hardware logs on the timeline.",
    );
    out
}
