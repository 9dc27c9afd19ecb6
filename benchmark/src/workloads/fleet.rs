//! `fleet_chain`: the whole product at once — `run_fleet` over 256 VMs.
//! The only workload where per-VM boot cost and parallel efficiency show,
//! so boot is *inside* its timed region.

use crate::harness::{fnv_bytes, Bench, Counts, Fault, Rep, Work};
use crate::spans::Recorder;
use crate::stats;
use ooh_bench::fleet::{run_fleet, simulate_vm, FleetConfig, VmReport};
use ooh_bench::Stack;
use ooh_guest::VmaKind;
use ooh_sim::SimCtx;
use std::time::Instant;

pub struct FleetChain {
    n_vms: usize,
    pages_per_vm: u64,
    threads: usize,
}

impl FleetChain {
    pub fn new(tiny: bool) -> Self {
        // At most two workers: the reference box has two cores, and a
        // result must not depend on how many more the host happens to have.
        let threads = rayon::default_threads().min(2);
        if tiny {
            FleetChain {
                n_vms: 6,
                pages_per_vm: 128,
                threads,
            }
        } else {
            FleetChain {
                n_vms: 256,
                pages_per_vm: 1024,
                threads,
            }
        }
    }
}

impl Bench for FleetChain {
    fn name(&self) -> &'static str {
        "fleet_chain"
    }

    fn rep(&self, seed: u64, rec: &Recorder, _fault: Option<Fault>) -> Result<Rep, String> {
        // Set-up is the config plus one probe VM of the fleet's shape (boot
        // + prefault): the per-VM set-up the timed region then pays n_vms
        // times, measured once where nothing else runs.
        let t0 = Instant::now();
        let config = FleetConfig {
            n_vms: self.n_vms,
            pages_per_vm: self.pages_per_vm,
            threads: self.threads,
            seed,
            ..FleetConfig::default()
        };
        let mut probe = rec.span("bench.boot", || {
            Stack::boot_with_ctx_vcpus(64, SimCtx::new(), 1)
        });
        let region = probe
            .kernel
            .mmap(probe.pid, self.pages_per_vm, true, VmaKind::Anon)
            .map_err(|e| e.to_string())?;
        rec.span("workloads.setup", || probe.env().prefault(region))
            .map_err(|e| e.to_string())?;
        drop(probe);
        let setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (vms, vm_seconds): (Vec<VmReport>, Vec<f64>) = if rec.enabled() {
            // `run_fleet`'s fan-out, restated so each VM gets a span.
            let ids: Vec<usize> = (0..config.n_vms).collect();
            let timed = rayon::par_map_ordered(&ids, config.threads, |&vm| {
                let start = Instant::now();
                let report = simulate_vm(&config, vm);
                (report, start, Instant::now())
            });
            let mut secs = Vec::with_capacity(timed.len());
            let vms = timed
                .into_iter()
                .map(|(report, start, end)| {
                    rec.closed("bench.fleet.vm", start, end);
                    secs.push((end - start).as_secs_f64());
                    report
                })
                .collect();
            (vms, secs)
        } else {
            // `run_fleet` asserts every VM's chain restores byte-identically
            // against its full-snapshot oracle; a failure panics the rep.
            (run_fleet(&config).vms, Vec::new())
        };
        let wall_s = t1.elapsed().as_secs_f64();

        let mut counts = Counts::zero();
        let sum = |f: &dyn Fn(&VmReport) -> u64| vms.iter().map(f).sum::<u64>();
        for (i, name) in [
            "sim.virt_ns.tracked",
            "sim.virt_ns.tracker",
            "sim.virt_ns.kernel",
            "sim.virt_ns.hypervisor",
        ]
        .into_iter()
        .enumerate()
        {
            counts.set(name, sum(&|v| v.lane_ns[i].1));
        }
        let pages_shipped = sum(&|v| v.pages_shipped);
        counts.set(
            "core.dirty.pages_reported",
            sum(&|v| v.rounds.iter().map(|r| r.pages).sum()),
        );
        counts.set("core.dirty.rounds", sum(&|v| v.rounds.len() as u64));
        counts.set("criu.pages_written", pages_shipped);
        // Base + one diff per round + the final downtime layer.
        counts.set("criu.chain.layers", sum(&|v| v.rounds.len() as u64 + 2));
        counts.set("criu.chain.wire_bytes", sum(&|v| v.chain_bytes));

        if let Some(v) = vms
            .iter()
            .find(|v| v.restore_verified_pages != v.resident_pages)
        {
            return Err(format!(
                "vm {}: restore verified {} of {} pages",
                v.vm, v.restore_verified_pages, v.resident_pages
            ));
        }
        let report_json = serde_json::to_string(&vms).map_err(|e| e.to_string())?;

        let mut layer_extra = Vec::new();
        if !vm_seconds.is_empty() {
            let busy: f64 = vm_seconds.iter().sum();
            layer_extra = vec![
                ("bench.fleet.vm.p50_s", stats::median(&vm_seconds)),
                (
                    "bench.fleet.vm.p95_s",
                    ooh_sim::percentile(&vm_seconds, 95.0),
                ),
                (
                    "bench.fleet.par_efficiency",
                    busy / (config.threads as f64 * wall_s),
                ),
            ];
        }
        let n_vms = vms.len() as u64;
        Ok(Rep {
            setup_s,
            wall_s,
            // Per-VM contexts are private to `simulate_vm`, so the fleet has
            // no access count; its access rate is its VM rate.
            work: Work {
                accesses: n_vms,
                pages: pages_shipped,
                vms: n_vms,
            },
            counts,
            digest: fnv_bytes(report_json.as_bytes()),
            layer_extra,
        })
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("n_vms", self.n_vms as u64),
            ("pages_per_vm", self.pages_per_vm),
            ("threads", self.threads as u64),
        ]
    }
}
