//! Table V — the basic costs of the internal metrics M1–M18.
//!
//! Part (a): size-agnostic unit costs, measured by invoking each mechanism
//! directly on the simulated stack and timing it (which also validates that
//! the charged costs equal the calibrated model).
//! Part (b): size-dependent totals for the array parser at each region
//! size, measured with clock deltas around the mechanism.
//!
//! With `OOH_TRACE=1`, every stack boots with an `ooh_trace::Tracer`
//! installed and each measured metric is wrapped in a trace scope. The
//! table is then regenerated a second time *from the trace* (scope sums for
//! the clock-delta metrics, scope event counts × unit costs for the
//! counter-derived ones) and asserted byte-identical to the counter-based
//! rows; the per-lane conservation invariant is checked on every stack; and
//! the attribution profile / folded stacks / Chrome trace of the largest
//! size are written into `OOH_TRACE_OUT` (default `bench_results/`).
//! Stdout is byte-identical with and without `OOH_TRACE` — trace-mode
//! notices go to stderr.
//!
//! M1 and M9–M13 are printed straight from the cost-model constants (their
//! mechanisms are either not exercised here or exercised only inside M3/M4),
//! so the trace cross-check covers the *measured* metrics: M3, M4, M7, M8
//! and all of part (b).

use crate::report;
use crate::scenario::Stack;
use ooh_core::{OohSession, Technique};
use ooh_guest::{OohMode, OohModule, UfdMode, VmaKind};
use ooh_machine::Field;
use ooh_sim::{Lane, ScopeKind, TextTable};
use ooh_trace::Tracer;
use ooh_workloads::microbench_sizes_mib;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct UnitRow {
    metric: &'static str,
    cost_us: f64,
    technique: &'static str,
}

#[derive(Serialize)]
struct SizeRow {
    metric: &'static str,
    mib: u64,
    total_ms: f64,
}

/// Clock-delta measurement of one mechanism, wrapped in a same-named trace
/// scope so the delta can be regenerated from the trace (`scope_ns(label)`).
fn measure<F: FnOnce(&mut Stack)>(stack: &mut Stack, label: &'static str, f: F) -> u64 {
    let ctx = stack.ctx();
    let _span = ctx.span(ScopeKind::Phase, label, 0);
    let t0 = ctx.now_ns();
    f(stack);
    ctx.now_ns() - t0
}

/// Assert that the counter-derived and trace-derived renderings of a row
/// value are byte-identical.
fn assert_same_cell(metric: &str, counter_cell: &str, trace_cell: &str) {
    assert_eq!(
        counter_cell, trace_cell,
        "trace-regenerated cell for {metric} diverged from the counter-based one"
    );
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(&mut out, "table5", "basic costs of internal metrics M1-M18");

    // ---- (a) size-agnostic metrics -------------------------------------
    let mut a = TextTable::new(["metric", "cost (us)", "technique"]);
    let mut unit = |name: &'static str, ns: u64, tech: &'static str| {
        a.row([
            name.to_string(),
            format!("{:.3}", ns as f64 / 1e3),
            tech.to_string(),
        ]);
        report::json_row(
            &mut out,
            &UnitRow {
                metric: name,
                cost_us: ns as f64 / 1e3,
                technique: tech,
            },
        );
    };
    // In trace mode, re-derive each measured unit cost from the trace and
    // assert the formatted cell matches.
    let cross_check_unit = |tracer: &Option<Arc<Tracer>>, name: &'static str, ns: u64| {
        if let Some(t) = tracer {
            let trace_ns = t.scope_ns(name);
            assert_same_cell(
                name,
                &format!("{:.3}", ns as f64 / 1e3),
                &format!("{:.3}", trace_ns as f64 / 1e3),
            );
        }
    };

    // M1: context switch (the pure user/kernel crossing; the address-space
    // switch's TLB flush is charged separately as a TlbFlush).
    {
        let cost = ooh_sim::SimCtx::new().cost().clone();
        unit("M1 context switch", cost.context_switch_ns, "all");
    }
    // M3/M4: OoH module ioctls (wrapping the M9/M11 hypercalls).
    {
        let (mut stack, tracer) = report::boot();
        let mut module = None;
        let ns3 = measure(&mut stack, "M3 ioctl init PML", |s| {
            module = Some(OohModule::load(&mut s.kernel, &mut s.hv, OohMode::Spml).unwrap());
        });
        let ns4 = measure(&mut stack, "M4 ioctl deactivate PML", |s| {
            module
                .take()
                .unwrap()
                .unload(&mut s.kernel, &mut s.hv)
                .unwrap();
        });
        unit("M3 ioctl init PML", ns3, "SPML & EPML");
        unit("M4 ioctl deactivate PML", ns4, "SPML & EPML");
        cross_check_unit(&tracer, "M3 ioctl init PML", ns3);
        cross_check_unit(&tracer, "M4 ioctl deactivate PML", ns4);
        report::check_conservation("table5", &tracer, &stack);
    }
    // M7/M8: shadow vmread/vmwrite.
    {
        let (mut stack, tracer) = report::boot();
        let module = OohModule::load(&mut stack.kernel, &mut stack.hv, OohMode::Epml).unwrap();
        stack.kernel.ooh = Some(module);
        let vm = stack.kernel.vm;
        let ns7 = measure(&mut stack, "M7 vmread", |s| {
            s.hv.guest_vmread(vm, 0, Field::GuestPmlIndex, Lane::Kernel)
                .unwrap();
        });
        let ns8 = measure(&mut stack, "M8 vmwrite", |s| {
            s.hv.guest_vmwrite(vm, 0, Field::EpmlControl, 0, Lane::Kernel)
                .unwrap();
        });
        unit("M7 vmread", ns7, "EPML");
        unit("M8 vmwrite", ns8, "EPML");
        cross_check_unit(&tracer, "M7 vmread", ns7);
        cross_check_unit(&tracer, "M8 vmwrite", ns8);
        report::check_conservation("table5", &tracer, &stack);
    }
    // M9-M12 from the cost model (measured inside M3/M4 above).
    {
        let cost = ooh_sim::SimCtx::new().cost().clone();
        unit("M9 hypercall init PML", cost.hypercall_init_pml_ns, "SPML");
        unit(
            "M10 + init VMCS shadowing",
            cost.hypercall_init_pml_shadow_ns,
            "EPML",
        );
        unit(
            "M11 PML deactivation",
            cost.hypercall_deactivate_pml_ns,
            "SPML",
        );
        unit(
            "M12 + VMCS shadowing deact.",
            cost.hypercall_deactivate_shadow_ns,
            "EPML",
        );
        unit("M13 enable PML logging", cost.enable_logging_ns, "SPML");
    }
    report::line(&mut out, &a);

    // ---- (b) size-dependent metrics ---------------------------------------
    let sizes = microbench_sizes_mib();
    let largest = *sizes.last().expect("nonempty size list");
    let mut b = TextTable::new(
        std::iter::once("total (ms)".to_string()).chain(sizes.iter().map(|s| format!("{s}MB"))),
    );
    let mut rows: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for &mib in &sizes {
        let pages = mib * 256;

        // A pre-faulted region.
        let (mut stack, tracer) = report::boot();
        let pid = stack.pid;
        let region = stack.kernel.mmap(pid, pages, true, VmaKind::Anon).unwrap();
        for g in region.iter_pages().collect::<Vec<_>>() {
            stack
                .kernel
                .write_u64(&mut stack.hv, pid, g, 1, Lane::Tracked)
                .unwrap();
        }

        // M15: clear_refs.
        let m15 = measure(&mut stack, "M15 clear_refs", |s| {
            s.kernel.clear_refs(&mut s.hv, pid, Lane::Tracker).unwrap();
        });
        // M5: kernel PFH — re-dirty every page after clear_refs.
        let m5 = {
            let ctx = stack.ctx();
            let _span = ctx.span(ScopeKind::Phase, "M5 PFH kernel", 0);
            let before = ctx.counters().get(ooh_sim::Event::PageFaultKernel);
            for g in region.iter_pages().collect::<Vec<_>>() {
                stack
                    .kernel
                    .write_u64(&mut stack.hv, pid, g, 2, Lane::Tracked)
                    .unwrap();
            }
            let n = ctx.counters().get(ooh_sim::Event::PageFaultKernel) - before;
            n * ctx.cost().page_fault_kernel_ns
        };
        // M16: pagemap walk.
        let m16 = measure(&mut stack, "M16 PT walk (userspace)", |s| {
            s.kernel
                .read_pagemap(&mut s.hv, pid, region, Lane::Tracker)
                .unwrap();
        });
        // M6: userspace PFH via uffd-wp over the whole region.
        let m6 = {
            let ufd = stack.kernel.ufd_create(pid, UfdMode::WriteProtect);
            stack.kernel.ufd_register(&mut stack.hv, ufd, region);
            stack
                .kernel
                .ufd_writeprotect(&mut stack.hv, ufd, region, true)
                .unwrap();
            let ctx = stack.ctx();
            let _span = ctx.span(ScopeKind::Phase, "M6 PFH user", 0);
            let before = ctx.counters().get(ooh_sim::Event::PageFaultUser);
            for g in region.iter_pages().collect::<Vec<_>>() {
                stack
                    .kernel
                    .write_u64(&mut stack.hv, pid, g, 3, Lane::Tracked)
                    .unwrap();
            }
            let n = ctx.counters().get(ooh_sim::Event::PageFaultUser) - before;
            n * ctx.cost().page_fault_user_ns
        };
        // M17 + M18 + M14: one SPML round over the whole region.
        let (m14, m17, m18) = {
            let ctx = stack.ctx();
            let round_span = ctx.span(ScopeKind::Phase, "spml round", 0);
            let rb_before = ctx.counters().get(ooh_sim::Event::RingBufferCopyEntry);
            let rm_before = ctx.counters().get(ooh_sim::Event::ReverseMapLookup);
            let dis_before = ctx.counters().get(ooh_sim::Event::HypercallDisableLogging);
            let mut session =
                OohSession::start(&mut stack.hv, &mut stack.kernel, pid, Technique::Spml).unwrap();
            for g in region.iter_pages().collect::<Vec<_>>() {
                stack
                    .kernel
                    .write_u64(&mut stack.hv, pid, g, 4, Lane::Tracked)
                    .unwrap();
            }
            // Periodic preemptions so disable_logging (M14) fires.
            for _ in 0..16 {
                stack.kernel.preemption_round_trip(&mut stack.hv).unwrap();
            }
            session
                .fetch_dirty(&mut stack.hv, &mut stack.kernel)
                .unwrap();
            drop(round_span);
            let rb = ctx.counters().get(ooh_sim::Event::RingBufferCopyEntry) - rb_before;
            let rm = ctx.counters().get(ooh_sim::Event::ReverseMapLookup) - rm_before;
            let dis = ctx.counters().get(ooh_sim::Event::HypercallDisableLogging) - dis_before;
            session.stop(&mut stack.hv, &mut stack.kernel).unwrap();
            let resident = pages;
            (
                dis * ctx.cost().disable_logging_base_ns + rb * ctx.cost().ring_copy_entry_ns,
                rm * ctx.cost().reverse_map_lookup_ns(resident),
                rb * ctx.cost().ring_copy_entry_ns,
            )
        };

        // Trace-side regeneration of the same row, from scope sums (M15,
        // M16) and scope event counts × unit costs (M5, M6, M14, M17, M18).
        let trace_row: Option<Vec<(&'static str, u64)>> = tracer.as_ref().map(|t| {
            let ctx = stack.ctx();
            let ev = |label: &str, event: ooh_sim::Event| t.scope_event_units(label, event);
            let rb = ev("spml round", ooh_sim::Event::RingBufferCopyEntry);
            let rm = ev("spml round", ooh_sim::Event::ReverseMapLookup);
            let dis = ev("spml round", ooh_sim::Event::HypercallDisableLogging);
            vec![
                ("M15 clear_refs", t.scope_ns("M15 clear_refs")),
                (
                    "M16 PT walk (userspace)",
                    t.scope_ns("M16 PT walk (userspace)"),
                ),
                (
                    "M5 PFH kernel",
                    ev("M5 PFH kernel", ooh_sim::Event::PageFaultKernel)
                        * ctx.cost().page_fault_kernel_ns,
                ),
                (
                    "M6 PFH user",
                    ev("M6 PFH user", ooh_sim::Event::PageFaultUser)
                        * ctx.cost().page_fault_user_ns,
                ),
                (
                    "M14 disable PML logging",
                    dis * ctx.cost().disable_logging_base_ns + rb * ctx.cost().ring_copy_entry_ns,
                ),
                ("M18 ring buffer copy", rb * ctx.cost().ring_copy_entry_ns),
                (
                    "M17 reverse mapping",
                    rm * ctx.cost().reverse_map_lookup_ns(pages),
                ),
            ]
        });

        for (name, ns) in [
            ("M15 clear_refs", m15),
            ("M16 PT walk (userspace)", m16),
            ("M5 PFH kernel", m5),
            ("M6 PFH user", m6),
            ("M14 disable PML logging", m14),
            ("M18 ring buffer copy", m18),
            ("M17 reverse mapping", m17),
        ] {
            if let Some(trow) = &trace_row {
                let (_, tns) = trow
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("trace row covers every metric");
                assert_same_cell(
                    name,
                    &format!("{:.3}", report::ms(ns)),
                    &format!("{:.3}", report::ms(*tns)),
                );
            }
            rows.entry(name).or_default().push(report::ms(ns));
            report::json_row(
                &mut out,
                &SizeRow {
                    metric: name,
                    mib,
                    total_ms: report::ms(ns),
                },
            );
        }

        report::check_conservation("table5", &tracer, &stack);
        if let Some(t) = &tracer {
            if mib == largest {
                report::write_trace_artifacts("table5", t);
            }
        }
    }
    for (name, vals) in rows {
        let mut row = vec![name.to_string()];
        row.extend(vals.iter().map(|v| format!("{v:.3}")));
        b.row(row);
    }
    report::line(&mut out, &b);
    out
}
