//! Table VI — influence of each technique on the internal metrics: which
//! metrics it involves, which depend on memory size, which run during the
//! monitoring phase, and which dominate. Derived from the mechanism
//! structure plus a measured probe run per technique (the counts prove the
//! associations rather than asserting them).

use crate::{counter, report, run_tracked};
use ooh_core::Technique;
use ooh_sim::{Event, TextTable};
use ooh_workloads::micro;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    technique: &'static str,
    associated_metrics: Vec<&'static str>,
    size_dependent: Vec<&'static str>,
    monitoring_phase: Vec<&'static str>,
    two_most_costly: Vec<&'static str>,
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "table6",
        "influence of each technique on the internal metrics",
    );

    let associations: [(Technique, &[(&str, Event)]); 4] = [
        (
            Technique::Proc,
            &[
                ("M1", Event::ContextSwitch),
                ("M5", Event::PageFaultKernel),
                ("M15", Event::ClearRefsPte),
                ("M16", Event::PagemapReadEntry),
            ],
        ),
        (
            Technique::Ufd,
            &[
                ("M1", Event::ContextSwitch),
                ("M2", Event::UfdWriteProtectPage),
                ("M6", Event::PageFaultUser),
            ],
        ),
        (
            Technique::Spml,
            &[
                ("M1", Event::ContextSwitch),
                ("M3", Event::IoctlInitPml),
                ("M9", Event::HypercallInitPml),
                ("M13", Event::HypercallEnableLogging),
                ("M14", Event::HypercallDisableLogging),
                ("M16", Event::PagemapReadEntry),
                ("M17", Event::ReverseMapLookup),
                ("M18", Event::RingBufferCopyEntry),
            ],
        ),
        (
            Technique::Epml,
            &[
                ("M1", Event::ContextSwitch),
                ("M3", Event::IoctlInitPml),
                ("M7", Event::Vmread),
                ("M8", Event::Vmwrite),
                ("M10", Event::HypercallInitPmlShadow),
                ("M18", Event::RingBufferCopyEntry),
            ],
        ),
    ];

    type MetricLists = (
        Technique,
        &'static [&'static str],
        &'static [&'static str],
        &'static [&'static str],
    );
    let static_info: [MetricLists; 4] = [
        (
            Technique::Proc,
            &["M5", "M15", "M16"],
            &["M5"],
            &["M16", "M5"],
        ),
        (
            Technique::Ufd,
            &["M2", "M5", "M6"],
            &["M5", "M6"],
            &["M6", "M5"],
        ),
        (
            Technique::Spml,
            &["M14", "M16", "M17", "M18"],
            &["M13", "M14"],
            &["M17", "M16"],
        ),
        (Technique::Epml, &["M18"], &["M7", "M8"], &["M10", "M12"]),
    ];

    let mut tbl = TextTable::new([
        "technique",
        "associated (verified by probe)",
        "size-dependent",
        "monitoring-phase",
        "two most costly",
    ]);

    for ((technique, assoc), (_, size_dep, monitoring, costly)) in
        associations.iter().zip(static_info.iter())
    {
        // Probe: run the micro-benchmark once and verify every associated
        // metric actually fired (counts > 0).
        let mut w = micro(4, 2);
        let run = run_tracked(*technique, &mut w, 4).expect("probe run");
        let verified: Vec<&'static str> = assoc
            .iter()
            .map(|&(m, ev)| {
                let n = counter(&run, ev);
                assert!(
                    n > 0,
                    "{}: metric {m} ({ev:?}) never fired",
                    technique.name()
                );
                m
            })
            .collect();

        tbl.row([
            technique.name().to_string(),
            verified.join(","),
            size_dep.join(","),
            monitoring.join(","),
            costly.join(","),
        ]);
        report::json_row(
            &mut out,
            &Row {
                technique: technique.name(),
                associated_metrics: verified,
                size_dependent: size_dep.to_vec(),
                monitoring_phase: monitoring.to_vec(),
                two_most_costly: costly.to_vec(),
            },
        );
    }
    report::line(&mut out, &tbl);
    report::line(
        &mut out,
        "scalability: EPML has 1 size-dependent metric (M18); SPML has 4; \
         ufd and /proc have 3 each — Table VI's conclusion.",
    );
    out
}
