//! Figures 10 & 11 — scalability with the number of tenant VMs: 1–5 VMs,
//! each running Boehm GC over the Phoenix histogram (Large config),
//! tracked with /proc, SPML or EPML.
//!
//! Paper result: per-VM Tracker and Tracked performance is the same as the
//! single-VM case and stays constant as VMs are added (PML state is
//! per-vCPU; the ring is per-process). The VMs time-share one physical CPU
//! round-robin, as tenants on one core would.

use crate::report;
use ooh_core::{OohSession, Technique};
use ooh_gc::{BoehmGc, GcMode};
use ooh_guest::GuestKernel;
use ooh_hypervisor::Hypervisor;
use ooh_machine::MachineConfig;
use ooh_sim::{SimCtx, TextTable};
use ooh_workloads::{phoenix, SizeClass, WorkEnv, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    n_vms: usize,
    vm: usize,
    technique: &'static str,
    gc_total_ms: f64,
    app_total_ms: f64,
}

struct Tenant {
    kernel: GuestKernel,
    pid: ooh_guest::Pid,
    workload: Box<dyn Workload>,
    gc: Option<BoehmGc>,
    app_ns: u64,
    gc_ns: u64,
    steps: u32,
    done: bool,
}

const STEPS_PER_CYCLE: u32 = 48;

fn run_fleet(n_vms: usize, technique: Technique) -> Vec<(u64, u64)> {
    let ctx = SimCtx::new();
    let mut hv = Hypervisor::new(MachineConfig::epml(16 * 1024 * 1024 * 1024), ctx.clone());
    let mut tenants = Vec::new();
    for i in 0..n_vms {
        let vm = hv.create_vm(512 * 1024 * 1024, 1).expect("vm");
        let mut kernel = GuestKernel::new(vm);
        let pid = kernel.spawn(&mut hv).expect("spawn");
        let mut workload = phoenix("histogram", SizeClass::Large, 1000 + i as u64);
        {
            let mut env = WorkEnv::new(&mut hv, &mut kernel, pid);
            workload.setup(&mut env).expect("setup");
        }
        let mut session = OohSession::start(&mut hv, &mut kernel, pid, technique).expect("session");
        session.enable_collection_cache();
        let gc = BoehmGc::new(
            &mut hv,
            &mut kernel,
            pid,
            2048,
            64,
            GcMode::Incremental {
                session,
                major_every: 64,
            },
        )
        .expect("gc");
        tenants.push(Tenant {
            kernel,
            pid,
            workload,
            gc: Some(gc),
            app_ns: 0,
            gc_ns: 0,
            steps: 0,
            done: false,
        });
    }

    // Round-robin: one workload quantum per tenant per turn, with each
    // tenant's GC cycle on its own cadence.
    loop {
        let mut all_done = true;
        for t in tenants.iter_mut() {
            if t.done {
                continue;
            }
            all_done = false;
            let t0 = ctx.now_ns();
            {
                let mut env = WorkEnv::new(&mut hv, &mut t.kernel, t.pid);
                t.done = t.workload.step(&mut env).expect("step");
                env.timer_tick().expect("tick");
            }
            t.app_ns += ctx.now_ns() - t0;
            t.steps += 1;
            if t.steps % STEPS_PER_CYCLE == 0 || t.done {
                let g0 = ctx.now_ns();
                t.gc.as_mut()
                    .expect("gc present")
                    .collect(&mut hv, &mut t.kernel)
                    .expect("collect");
                t.gc_ns += ctx.now_ns() - g0;
            }
        }
        if all_done {
            break;
        }
    }
    tenants
        .into_iter()
        .map(|mut t| {
            t.gc.take()
                .expect("gc present")
                .shutdown(&mut hv, &mut t.kernel)
                .expect("shutdown");
            (t.gc_ns, t.app_ns)
        })
        .collect()
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "fig10_11",
        "multi-VM scalability: per-VM GC (Fig.10) and app (Fig.11) time, 1-5 VMs",
    );
    let mut t10 = TextTable::new(["technique", "VMs", "per-VM GC time (ms)"]);
    let mut t11 = TextTable::new(["technique", "VMs", "per-VM app time (ms)"]);
    for technique in [Technique::Proc, Technique::Spml, Technique::Epml] {
        for n in 1..=5usize {
            let per_vm = run_fleet(n, technique);
            let gcs: Vec<String> = per_vm
                .iter()
                .map(|(g, _)| format!("{:.2}", report::ms(*g)))
                .collect();
            let apps: Vec<String> = per_vm
                .iter()
                .map(|(_, a)| format!("{:.2}", report::ms(*a)))
                .collect();
            t10.row([technique.name().to_string(), n.to_string(), gcs.join(" ")]);
            t11.row([technique.name().to_string(), n.to_string(), apps.join(" ")]);
            for (i, (g, a)) in per_vm.iter().enumerate() {
                report::json_row(
                    &mut out,
                    &Row {
                        n_vms: n,
                        vm: i,
                        technique: technique.name(),
                        gc_total_ms: report::ms(*g),
                        app_total_ms: report::ms(*a),
                    },
                );
            }
        }
    }
    report::line(
        &mut out,
        format_args!("Figure 10: Tracker (GC) time per VM\n{t10}"),
    );
    report::line(
        &mut out,
        format_args!("Figure 11: Tracked (application) time per VM\n{t11}"),
    );
    out
}
