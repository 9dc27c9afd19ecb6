//! Figures 7, 8 and 9 — CRIU checkpointing with /proc, SPML and EPML:
//!
//! * Fig. 7 — memory-write (MW) time: with /proc the pagemap walk is folded
//!   into MW (pages are written as found), so MW is big and size-dependent;
//!   the PML designs write a precollected batch (paper: up to 26× better,
//!   nearly constant).
//! * Fig. 8 — complete checkpoint time with the MD (collection) phase
//!   highlighted: SPML's MD carries the reverse mapping (paper: up to 5×
//!   slower than /proc); EPML is fastest (up to 4× vs /proc, 13× vs SPML).
//! * Fig. 9 — overhead on the checkpointed application (paper: /proc up to
//!   ~102%, SPML up to ~114%, EPML ≤14%, avg 3%).

use crate::criu_scenarios::{criu_baseline, run_criu, App};
use crate::report;
use ooh_core::Technique;
use ooh_sim::{overhead_pct, TextTable};
use ooh_workloads::SizeClass;
use rayon::par_map_ordered;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    app: String,
    technique: String,
    md_ms: f64,
    mw_ms: f64,
    checkpoint_ms: f64,
    pages: u64,
    tracked_overhead_pct: f64,
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "fig7_8_9",
        "CRIU: MW time, checkpoint time (MD highlighted), app overhead",
    );
    let size = SizeClass::Large;
    let techniques = [Technique::Proc, Technique::Spml, Technique::Epml];

    let mut t7 = TextTable::new(["app", "/proc MW(ms)", "SPML MW(ms)", "EPML MW(ms)"]);
    let mut t8 = TextTable::new([
        "app",
        "/proc MD/total(ms)",
        "SPML MD/total(ms)",
        "EPML MD/total(ms)",
    ]);
    let mut t9 = TextTable::new(["app", "/proc ovh", "SPML ovh", "EPML ovh"]);

    // Independent simulations: sweep the app grid in parallel.
    let results = par_map_ordered(&App::ALL, rayon::default_threads(), |&app| {
        let baseline = criu_baseline(app, size).expect("baseline");
        let runs: Vec<_> = techniques
            .iter()
            .map(|&t| run_criu(app, size, t).expect("criu run"))
            .collect();
        (app, baseline, runs)
    });
    for (app, baseline, runs) in results {
        let mut r7 = vec![app.name()];
        let mut r8 = vec![app.name()];
        let mut r9 = vec![app.name()];
        for run in runs {
            let ovh = overhead_pct(run.total_ns as f64, baseline as f64);
            r7.push(format!("{:.2}", report::ms(run.mw_ns)));

            r8.push(format!(
                "{:.2}/{:.2}",
                report::ms(run.md_ns),
                report::ms(run.checkpoint_ns)
            ));
            r9.push(format!("{ovh:.1}%"));
            report::json_row(
                &mut out,
                &Row {
                    app: run.app.clone(),
                    technique: run.technique.clone(),
                    md_ms: report::ms(run.md_ns),
                    mw_ms: report::ms(run.mw_ns),
                    checkpoint_ms: report::ms(run.checkpoint_ns),
                    pages: run.pages_dumped,
                    tracked_overhead_pct: ovh,
                },
            );
        }
        t7.row(r7);
        t8.row(r8);
        t9.row(r9);
    }
    report::line(&mut out, format_args!("Figure 7: memory-write time\n{t7}"));
    report::line(
        &mut out,
        format_args!("Figure 8: checkpoint time (MD/total)\n{t8}"),
    );
    report::line(
        &mut out,
        format_args!("Figure 9: overhead on Tracked\n{t9}"),
    );
    out
}
