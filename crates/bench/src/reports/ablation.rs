//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Ring buffer sizing** — the paper uses a 512 KiB ring; smaller rings
//!    overflow under bursty dirtying and force conservative full rescans.
//! 2. **EPML drain invalidation policy** — per-page `invlpg` vs full TLB
//!    flush: the flush is cheap itself but taxes the application with
//!    re-walks; always-invlpg taxes large drains.
//! 3. **SPML reverse-map caching (paper footnote 2)** — Boehm's
//!    cache-after-first-cycle vs re-resolving every cycle.

use crate::gc_scenarios::run_gcbench;
use crate::{report, run_baseline, Stack};
use ooh_core::{OohSession, Technique};
use ooh_gc::{BoehmGc, GcMode};
use ooh_guest::{OohMode, OohModule};
use ooh_sim::{Event, TextTable};
use ooh_workloads::{gcbench_config, gcbench_heap_pages, micro, SizeClass, WorkEnv, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    study: &'static str,
    variant: String,
    metric: &'static str,
    value: f64,
}

/// Study 1: SPML with ring sizes under a bursty writer.
fn ring_sizing(out: &mut String) {
    report::line(
        out,
        "-- ablation 1: ring buffer sizing (SPML, 50 MiB array parser) --",
    );
    let mut tbl = TextTable::new([
        "ring (pages)",
        "capacity (entries)",
        "overflow fallbacks",
        "collect time (ms)",
    ]);
    for ring_pages in [8usize, 32, 128] {
        let mut stack = Stack::boot();
        let ctx = stack.ctx();
        let pid = stack.pid;
        let mut w = micro(50, 2);
        {
            let mut env = stack.env();
            w.setup(&mut env).unwrap();
        }
        // Load the module with the ablated ring size, then run SPML on top.
        let mut module =
            OohModule::load_with(&mut stack.kernel, &mut stack.hv, OohMode::Spml, ring_pages)
                .unwrap();
        module.track(&mut stack.kernel, &mut stack.hv, pid).unwrap();
        stack.kernel.ooh = Some(module);
        let mut session =
            OohSession::start(&mut stack.hv, &mut stack.kernel, pid, Technique::Spml).unwrap();

        let mut env = WorkEnv::new(&mut stack.hv, &mut stack.kernel, pid);
        while !w.step(&mut env).unwrap() {
            env.timer_tick().unwrap();
        }
        let c0 = ctx.now_ns();
        let fallbacks_before = ctx.counters().get(Event::RingBufferOverflow);
        let dirty = session
            .fetch_dirty(&mut stack.hv, &mut stack.kernel)
            .unwrap();
        assert_eq!(
            dirty.len(),
            50 * 256,
            "no pages lost whatever the ring size"
        );
        let collect_ms = (ctx.now_ns() - c0) as f64 / 1e6;
        let overflowed = ctx.counters().get(Event::RingBufferOverflow) - fallbacks_before;
        session.stop(&mut stack.hv, &mut stack.kernel).unwrap();

        tbl.row([
            ring_pages.to_string(),
            (ring_pages * 512).to_string(),
            if overflowed > 0 { "yes" } else { "no" }.to_string(),
            format!("{collect_ms:.2}"),
        ]);
        report::json_row(
            out,
            &Row {
                study: "ring_sizing",
                variant: format!("{ring_pages}p"),
                metric: "collect_ms",
                value: collect_ms,
            },
        );
    }
    report::line(out, &tbl);
}

/// Study 2: EPML drain invalidation policy.
fn invlpg_policy(out: &mut String) {
    report::line(
        out,
        "-- ablation 2: EPML drain TLB policy (10 MiB array parser) --",
    );
    let mut tbl = TextTable::new(["policy", "threshold", "tracked overhead"]);
    let baseline = {
        let mut w = micro(10, 4);
        run_baseline(&mut w).unwrap()
    };
    for (name, threshold) in [
        ("always full flush", 0u64),
        ("hybrid (64)", 64),
        ("always invlpg", u64::MAX),
    ] {
        let mut stack = Stack::boot();
        let ctx = stack.ctx();
        let pid = stack.pid;
        let mut w = micro(10, 4);
        {
            let mut env = stack.env();
            w.setup(&mut env).unwrap();
        }
        let mut module = OohModule::load(&mut stack.kernel, &mut stack.hv, OohMode::Epml).unwrap();
        module.invlpg_threshold = threshold;
        module.track(&mut stack.kernel, &mut stack.hv, pid).unwrap();
        stack.kernel.ooh = Some(module);
        let session =
            OohSession::start(&mut stack.hv, &mut stack.kernel, pid, Technique::Epml).unwrap();
        let t0 = ctx.now_ns();
        {
            let mut env = WorkEnv::new(&mut stack.hv, &mut stack.kernel, pid);
            while !w.step(&mut env).unwrap() {
                env.timer_tick().unwrap();
            }
        }
        let run_ns = ctx.now_ns() - t0;
        session.stop(&mut stack.hv, &mut stack.kernel).unwrap();
        let overhead = 100.0 * (run_ns as f64 / baseline as f64 - 1.0);
        tbl.row([
            name.to_string(),
            if threshold == u64::MAX {
                "inf".into()
            } else {
                threshold.to_string()
            },
            format!("{overhead:.1}%"),
        ]);
        report::json_row(
            out,
            &Row {
                study: "invlpg_policy",
                variant: name.to_string(),
                metric: "tracked_overhead_pct",
                value: overhead,
            },
        );
    }
    report::line(out, &tbl);
}

/// Study 3: the footnote-2 reverse-map cache.
fn revmap_cache(out: &mut String) {
    report::line(
        out,
        "-- ablation 3: SPML reverse-map cache (GCBench medium) --",
    );
    let mut tbl = TextTable::new(["variant", "GC total (ms)", "first cycle (ms)"]);
    // Cached (the default Boehm integration): via the gc scenario.
    let cached = run_gcbench(SizeClass::Medium, Some(Technique::Spml)).unwrap();
    // Uncached: same run but without enable_collection_cache.
    let uncached = {
        let mut stack = Stack::boot();
        let pid = stack.pid;
        let session =
            OohSession::start(&mut stack.hv, &mut stack.kernel, pid, Technique::Spml).unwrap();
        let mut gc = BoehmGc::new(
            &mut stack.hv,
            &mut stack.kernel,
            pid,
            gcbench_heap_pages(SizeClass::Medium),
            512,
            GcMode::Incremental {
                session,
                major_every: 64,
            },
        )
        .unwrap();
        let bench = gcbench_config(SizeClass::Medium);
        {
            let mut env = WorkEnv::new(&mut stack.hv, &mut stack.kernel, pid);
            bench.run(&mut env, &mut gc).unwrap();
        }
        gc.shutdown(&mut stack.hv, &mut stack.kernel).unwrap()
    };
    let unc_total: u64 = uncached.iter().map(|c| c.total_ns).sum();
    let unc_first = uncached.first().map(|c| c.total_ns).unwrap_or(0);
    let cached_first = cached.cycles.first().map(|c| c.total_ns).unwrap_or(0);
    tbl.row([
        "cached (footnote 2)".to_string(),
        format!("{:.2}", cached.gc_total_ns as f64 / 1e6),
        format!("{:.2}", cached_first as f64 / 1e6),
    ]);
    tbl.row([
        "uncached".to_string(),
        format!("{:.2}", unc_total as f64 / 1e6),
        format!("{:.2}", unc_first as f64 / 1e6),
    ]);
    report::line(out, &tbl);
    report::json_row(
        out,
        &Row {
            study: "revmap_cache",
            variant: "cached".into(),
            metric: "gc_total_ms",
            value: cached.gc_total_ns as f64 / 1e6,
        },
    );
    report::json_row(
        out,
        &Row {
            study: "revmap_cache",
            variant: "uncached".into(),
            metric: "gc_total_ms",
            value: unc_total as f64 / 1e6,
        },
    );
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "ablation",
        "design-choice ablations: ring size, TLB policy, revmap cache",
    );
    ring_sizing(&mut out);
    invlpg_policy(&mut out);
    revmap_cache(&mut out);
    out
}
