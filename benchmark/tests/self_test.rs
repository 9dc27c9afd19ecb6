//! Self-tests of the benchmark: every workload's oracle at a tiny size,
//! injected faults counted as failed operations, the mirrored tracking loop
//! pinned against `run_tracked_on`, and every emitted name checked against
//! `BENCHMARK.json`.

use ooh_bench::{run_tracked_on, Stack};
use ooh_benchmark::harness::{measure, Fault, Measured, Protocol};
use ooh_benchmark::json::{self, Value};
use ooh_benchmark::spans::Recorder;
use ooh_benchmark::spec::{self, END_TO_END, WORKLOADS};
use ooh_benchmark::{compare, report, workloads};
use ooh_core::Technique;
use ooh_workloads::{micro, Workload};
use std::sync::Arc;

fn tiny(name: &str, traced: bool, fault: Option<Fault>) -> Measured {
    let bench = workloads::by_name(name, true).expect("known workload");
    // Two timed reps, so the rep-against-rep determinism check runs too.
    let protocol = Protocol {
        seed: 7,
        seconds: 0.0,
        min_reps: 2,
        traced,
        fault,
    };
    measure(bench.as_ref(), &protocol)
}

#[test]
fn every_workload_passes_its_oracle_and_emits_exactly_the_spec_names() {
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let m = tiny(w.name, true, None);
        let bench = workloads::by_name(w.name, true).unwrap();
        assert_eq!(
            (m.attempted, m.failed),
            (2 + bench.traced_reps(), 0),
            "{}: {:?}",
            w.name,
            m.failures
        );
        assert!(m.correct());

        let e2e: Vec<&str> = m.end_to_end.iter().map(|(n, _)| *n).collect();
        assert_eq!(e2e, END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>());
        for (name, s) in &m.end_to_end {
            assert!(s.median > 0.0, "{} {name} must never be 0", w.name);
        }
        let layers = m.per_layer.as_ref().expect("traced");
        let names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(
            names,
            spec::per_layer()
                .iter()
                .map(|l| l.name.as_str())
                .collect::<Vec<_>>()
        );
        assert!(
            !m.spans.is_empty(),
            "{}: the traced rep recorded no span",
            w.name
        );

        // The driver's line carries exactly the four keys, with every
        // end-to-end metric untraced and every per-layer metric traced.
        for (traced, want) in [(false, END_TO_END.len()), (true, 92)] {
            let line = json::parse(&report::contract_line(&m, traced).render()).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("metrics").unwrap().as_obj().unwrap().len(), want);
        }
        results.push((w.name, report::detail(bench.as_ref(), &m, 7)));
    }

    // Owned rungs are measured, foreign ones are zero.
    let rung = |w: &str, name: &str| {
        let d = &results.iter().find(|(n, _)| *n == w).unwrap().1;
        d.get("per_layer")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    assert!(rung("wc_hot", "guest.write_u64_hit.ns") > 0.0);
    assert!(rung("wc_hot", "machine.mmu.access_walk.ns") == 0.0);
    assert!(rung("micro_pml", "guest.write_u64_relog.spml.ns") > 0.0);
    assert!(rung("micro_pml", "core.revmap.batch.ns") > 0.0);
    assert!(rung("micro_fault", "guest.write_u64_wpfault.ufd.ns") > 0.0);
    assert!(rung("micro_fault", "guest.read_pagemap.ns") > 0.0);
    assert!(rung("micro_fault", "guest.write_u64_relog.epml.ns") == 0.0);
    assert!(rung("fleet_chain", "bench.fleet.vm.p95_s") > 0.0);
    assert!(rung("ckpt_chain", "criu.chain.decode.self_s") > 0.0);
    assert!(rung("drain_sparse", "machine.dirty.retain_within.self_s") > 0.0);

    // A result compares clean against itself; a moved exact count, a
    // regressed median or a newly failed op does not.
    let walks = format!(
        "\"sim.events.page_walk\":{{\"value\":{}",
        rung("wc_hot", "sim.events.page_walk")
    );
    let result = Value::obj([("workloads", Value::obj(results))]);
    assert!(compare::compare(&result, &result).unwrap().ok);
    let edited =
        |from: &str, to: &str| json::parse(&result.render().replacen(from, to, 1)).unwrap();
    let moved = compare::compare(
        &result,
        &edited(&walks, "\"sim.events.page_walk\":{\"value\":1"),
    )
    .unwrap();
    assert!(
        !moved.ok && moved.report.contains("COUNT MISMATCH sim.events.page_walk"),
        "{}",
        moved.report
    );
    let failed =
        compare::compare(&result, &edited("\"ops_failed\":0", "\"ops_failed\":1")).unwrap();
    assert!(!failed.ok && failed.report.contains("MORE FAILED OPS"));
    let slower = compare::compare(&result, &edited("\"median\":", "\"median\":1000")).unwrap();
    assert!(!slower.ok && slower.report.contains("REGRESSED"));
}

#[test]
fn injected_faults_are_counted_in_ops_failed() {
    for (workload, fault) in [
        ("wc_hot", Fault::DropReportedPage),
        ("micro_pml", Fault::DropReportedPage),
        ("micro_fault", Fault::DropReportedPage),
        ("ckpt_chain", Fault::FlipWireByte),
    ] {
        let m = tiny(workload, false, Some(fault));
        assert_eq!(
            (m.attempted, m.failed),
            (2, 2),
            "{workload}: {:?}",
            m.failures
        );
        assert!(!m.correct());
    }
}

/// The harness restates `run_tracked_on`'s loop to get at the dirty set and
/// to place spans; it must drive the simulator through the very same events.
#[test]
fn mirrored_tracking_loop_charges_exactly_what_run_tracked_on_charges() {
    for technique in Technique::ALL {
        let mut reference = Stack::boot();
        let mut w = micro(1, 3);
        let run = run_tracked_on(&mut reference, technique, &mut w, 1).unwrap();

        let mut mirrored = Stack::boot();
        let mut w = micro(1, 3);
        w.setup(&mut mirrored.env()).unwrap();
        let reported =
            workloads::tracked_loop(&mut mirrored, technique, &mut w, 1, &Recorder::off()).unwrap();

        let (a, b) = (reference.ctx(), mirrored.ctx());
        assert_eq!(
            a.counters().snapshot(),
            b.counters().snapshot(),
            "{}",
            technique.name()
        );
        assert_eq!(
            a.clock().snapshot(),
            b.clock().snapshot(),
            "{}",
            technique.name()
        );
        assert_eq!(run.union_dirty_pages, reported.union.len() as u64);
        assert_eq!(
            run.rounds.iter().map(|r| r.dirty_pages).collect::<Vec<_>>(),
            reported.rounds
        );
    }
}

/// Untraced reps run in the configuration the `ooh-bench` binaries ship:
/// `ooh-sim` built with its `trace` feature (`install_tracer` exists only
/// then) and no sink installed on the stacks `Stack::boot` hands out.
#[test]
fn trace_feature_is_on_and_untraced_stacks_have_no_sink() {
    let stack = Stack::boot();
    assert!(
        stack
            .ctx()
            .install_tracer(Arc::new(ooh_trace::Tracer::new())),
        "a freshly booted stack must have no trace sink"
    );
}

#[test]
fn benchmark_json_lists_exactly_the_names_the_benchmark_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").unwrap().as_f64(),
        Some(spec::RUN_SECONDS as f64)
    );
    assert_eq!(
        doc.get("paths").unwrap(),
        &Value::Arr(vec![Value::Str("benchmark".into())])
    );

    let list = |key: &str| match doc.get(key) {
        Some(Value::Arr(items)) => items.clone(),
        other => panic!("{key}: expected an array, got {other:?}"),
    };
    let text = |v: &Value, k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{k} in {v:?}"))
            .to_string()
    };
    let well_formed = |s: &str| {
        s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };

    let got: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let want: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.into(), w.why.into()))
        .collect();
    assert_eq!(got, want);

    let got: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").unwrap().as_f64().unwrap(),
            )
        })
        .collect();
    let want: Vec<_> = END_TO_END
        .iter()
        .map(|e| {
            (
                e.name.to_string(),
                e.unit.to_string(),
                e.better.as_str().to_string(),
                e.bound,
            )
        })
        .collect();
    assert_eq!(got, want);
    assert!(got.iter().all(|(n, ..)| well_formed(n)));
    assert_eq!(
        got.iter().map(|m| m.3).fold(0.0, f64::max),
        got.iter().find(|m| m.0 == "setup_s").unwrap().3
    );

    let got: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let want: Vec<_> = spec::per_layer()
        .iter()
        .map(|l| {
            (
                l.name.clone(),
                l.unit.to_string(),
                l.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(got, want);
    assert!(got.iter().all(|(n, ..)| well_formed(n)));
}
