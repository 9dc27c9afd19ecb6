//! Table IV — validation of the analytical model: measured vs estimated
//! E(C_tker) and E(C_tked_tker) for SPML and /proc, with CRIU as Tracker
//! and tkrzw `baby` as Tracked.
//!
//! Paper result: the formulas estimate E(C_tker) with ~96% average accuracy
//! and E(C_tked_tker) with ~99%.

use crate::{accuracy_pct, estimate_tracked_impact_ns, estimate_tracker_ns, report, Stack};
use ooh_core::Technique;
use ooh_criu::{Criu, CriuConfig};
use ooh_sim::{Event, SimCtx, TextTable};
use ooh_workloads::{tkrzw_config, EngineKind, SizeClass, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    technique: &'static str,
    measured_tracker_ms: f64,
    estimated_tracker_ms: f64,
    tracker_accuracy_pct: f64,
    measured_total_ms: f64,
    estimated_total_ms: f64,
    total_accuracy_pct: f64,
    n_context_switches: u64,
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "table4",
        "formula validation: measured vs estimated, CRIU x tkrzw-baby",
    );
    let cost = SimCtx::new().cost().clone();
    let mut tbl = TextTable::new([
        "technique",
        "E(Ctker) meas (ms)",
        "E(Ctker) est (ms)",
        "acc",
        "E(Ctked_tker) meas (ms)",
        "est (ms)",
        "acc",
    ]);

    for technique in [
        Technique::Spml,
        Technique::Proc,
        Technique::Ufd,
        Technique::Epml,
    ] {
        let mut stack = Stack::boot();
        let ctx = stack.ctx();
        let mut w = tkrzw_config(EngineKind::Baby, SizeClass::Medium, 42);
        {
            let mut env = stack.env();
            w.setup(&mut env).unwrap();
        }
        let snap0: std::collections::HashMap<&'static str, u64> = Event::ALL
            .iter()
            .map(|&e| (e.name(), ctx.counters().get(e)))
            .collect();
        let lane0 = ctx.clock().snapshot();
        let t0 = ctx.now_ns();

        // Tracker = CRIU: attach, run Tracked with periodic pre-dumps,
        // final dump at the end.
        let mut criu = Criu::attach(
            &mut stack.hv,
            &mut stack.kernel,
            stack.pid,
            CriuConfig::new(technique),
        )
        .unwrap();
        let mut cp_ns = 0u64; // E(C_p): the dump-write routine
        let mut steps = 0u32;
        let mut done = false;
        while !done {
            {
                let mut env = stack.env();
                done = w.step(&mut env).unwrap();
                env.timer_tick().unwrap();
            }
            steps += 1;
            if steps.is_multiple_of(16) && !done {
                let (_, st) = criu
                    .pre_dump(&mut stack.hv, &mut stack.kernel, stack.pid)
                    .unwrap();
                cp_ns += st.write_ns;
            }
        }
        let (_, st) = criu
            .final_dump(&mut stack.hv, &mut stack.kernel, stack.pid)
            .unwrap();
        cp_ns += st.write_ns;
        criu.detach(&mut stack.hv, &mut stack.kernel).unwrap();
        let total_ns = ctx.now_ns() - t0;
        let resident = stack.kernel.process(stack.pid).unwrap().resident_pages();
        // Measured E(C_tker): everything the tracking side consumed — the
        // Tracker lane (CRIU phases, ufd fault handling, revmap) plus the
        // Hypervisor lane (PML service work is tracker-induced; it is zero
        // in an untracked run).
        let lane1 = ctx.clock().snapshot();
        let lanes = lane1.since(&lane0);
        let tracker_ns = lanes.tracker_ns + lanes.hypervisor_ns;

        // Estimates from event-count deltas.
        let counts = |e: Event| ctx.counters().get(e) - snap0[e.name()];
        let est_tracker = estimate_tracker_ns(technique, &counts, &cost, resident);
        let est_impact = estimate_tracked_impact_ns(technique, &counts, &cost);

        // Formula 1: E(C_tker) = E(C_x) + E(C_p); Formula 3:
        // E(C_tked_tker) = E(C_tked) + E(C_tker) + I(C_x, C_tked).
        let baseline_ns = {
            let mut stack2 = Stack::boot();
            let ctx2 = stack2.ctx();
            let mut w2 = tkrzw_config(EngineKind::Baby, SizeClass::Medium, 42);
            let mut env = stack2.env();
            w2.setup(&mut env).unwrap();
            let b0 = ctx2.now_ns();
            while !w2.step(&mut env).unwrap() {
                env.timer_tick().unwrap();
            }
            ctx2.now_ns() - b0
        };
        let est_tracker_total = est_tracker.tracker_ns + cp_ns;
        let est_total = baseline_ns + est_tracker_total + est_impact.tracked_impact_ns;

        let acc_tracker = accuracy_pct(est_tracker_total as f64, tracker_ns as f64);
        let acc_total = accuracy_pct(est_total as f64, total_ns as f64);

        tbl.row([
            technique.name().to_string(),
            format!("{:.2}", report::ms(tracker_ns)),
            format!("{:.2}", report::ms(est_tracker_total)),
            format!("{acc_tracker:.1}%"),
            format!("{:.2}", report::ms(total_ns)),
            format!("{:.2}", report::ms(est_total)),
            format!("{acc_total:.1}%"),
        ]);
        report::json_row(
            &mut out,
            &Row {
                technique: technique.name(),
                measured_tracker_ms: report::ms(tracker_ns),
                estimated_tracker_ms: report::ms(est_tracker_total),
                tracker_accuracy_pct: acc_tracker,
                measured_total_ms: report::ms(total_ns),
                estimated_total_ms: report::ms(est_total),
                total_accuracy_pct: acc_total,
                n_context_switches: counts(Event::SchedOut),
            },
        );
    }
    report::line(&mut out, &tbl);
    out
}
