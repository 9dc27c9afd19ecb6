//! Every name the benchmark emits — workloads, end-to-end metrics,
//! per-layer metrics — with unit, direction and bound. `list`, the result
//! files, `compare` and the self-test against `BENCHMARK.json` all read
//! this one table.

use ooh_sim::Event;

/// Seed used when `--seed` is not given (the paper's submission date).
pub const DEFAULT_SEED: u64 = 20_220_911;

/// Run length recorded in `BENCHMARK.json` and used by `run`.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "wc_hot",
        why: "Phoenix word-count under EPML: 23.7M guest accesses at 99.97% TLB hits, so the access-path hit rung does all the work and the drain path is idle",
    },
    WorkloadSpec {
        name: "micro_pml",
        why: "Listing-1 array parser (128 MiB x 16 passes) under SPML then EPML: TLB-miss walks, A/D 0->1 logging and the PML buffer -> ring -> revmap -> DirtySet drain",
    },
    WorkloadSpec {
        name: "micro_fault",
        why: "same parser under /proc then ufd: clear_refs full flushes, per-page write-protect faults and pagemap scans use the same TLB and walker differently",
    },
    WorkloadSpec {
        name: "ckpt_chain",
        why: "one VM's CRIU pre-copy chain (dump, encode, decode, flatten, restore, verify): the bottom of the drain path does the work, the access path is a minor share",
    },
    WorkloadSpec {
        name: "fleet_chain",
        why: "256 VMs through run_fleet on two threads: boot cost, all four techniques, 1/2/4 vCPUs and parallel fan-out are only visible here",
    },
    WorkloadSpec {
        name: "drain_sparse",
        why: "no guest: the tracker's bitmap drain/retain/diff/merge/iterate loop over 4 GiB at 1 per mille isolated pages, the shape DirtyBitmap loses to a BTree on",
    },
    WorkloadSpec {
        name: "drain_dense",
        why: "same bitmap loop at 12.5% density in 8 extents: a sparse-set win that costs word-packed scans shows as a loss here and nowhere else",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The bound recorded in `BENCHMARK.json`: one per metric, so the
    /// loosest any workload needs. `compare` applies [`cell_bound`].
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "accesses_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "pages_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "vms_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// `setup_s` differences below this many seconds are timer noise, not a
/// regression (`compare` only; the contract file has no floor).
pub const SETUP_FLOOR_S: f64 = 0.020;

/// Does the workload have the metric's own unit of work (see README)?
/// Elsewhere a rate is reported over the workload's primary unit, because
/// the driver's contract wants every metric from every workload.
pub fn native(metric: &str, workload: &str) -> bool {
    match metric {
        "accesses_per_s" => matches!(workload, "wc_hot" | "micro_pml" | "micro_fault"),
        "pages_per_s" => matches!(workload, "ckpt_chain" | "drain_sparse" | "drain_dense"),
        "vms_per_s" => workload == "fleet_chain",
        _ => true,
    }
}

/// Regression bound for one (metric, workload) cell, as `compare` applies it.
pub fn cell_bound(metric: &str, workload: &str) -> f64 {
    let noisy = matches!(workload, "ckpt_chain" | "fleet_chain");
    match metric {
        "setup_s" | "peak_rss_mib" => 0.10,
        _ if noisy => 0.10,
        _ => 0.05,
    }
}

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// A count that is identical in every rep, and across commits that
    /// leave simulation untouched: `compare` fails if it moves.
    pub exact: bool,
}

/// Spans the harness records, in ladder order.
pub const SPANS: [&str; 26] = [
    "bench.boot",
    "workloads.setup",
    "workloads.step",
    "guest.timer_tick",
    "guest.write_u64",
    "core.session.start",
    "core.session.stop",
    "core.fetch_dirty.spml",
    "core.fetch_dirty.epml",
    "core.fetch_dirty.proc",
    "core.fetch_dirty.ufd",
    "criu.attach",
    "criu.full_dump",
    "criu.pre_dump",
    "criu.final_dump",
    "criu.chain.push_diff",
    "criu.chain.encode",
    "criu.chain.decode",
    "criu.chain.flatten",
    "criu.restore",
    "criu.verify",
    "machine.dirty.extend_pages",
    "machine.dirty.retain_within",
    "machine.dirty.difference",
    "machine.dirty.merge",
    "machine.dirty.pages",
];

/// `sim.events.*` counts and the simulator events each one sums.
pub const EVENT_COUNTS: [(&str, &[Event]); 20] = [
    ("sim.events.guest_load", &[Event::GuestLoad]),
    ("sim.events.guest_store", &[Event::GuestStore]),
    ("sim.events.page_walk", &[Event::PageWalk]),
    ("sim.events.pml_log_gpa", &[Event::PmlLogGpa]),
    ("sim.events.pml_log_gva", &[Event::PmlLogGva]),
    ("sim.events.pml_full_exit", &[Event::PmlBufferFullExit]),
    ("sim.events.pml_self_ipi", &[Event::PmlSelfIpi]),
    ("sim.events.vmexit", &[Event::VmExit]),
    ("sim.events.hypercall", &[Event::Hypercall]),
    (
        "sim.events.page_fault",
        &[Event::PageFaultKernel, Event::PageFaultUser],
    ),
    ("sim.events.tlb_flush", &[Event::TlbFlush]),
    ("sim.events.tlb_invlpg", &[Event::TlbInvlpg]),
    ("sim.events.tlb_shootdown_ipi", &[Event::TlbShootdownIpi]),
    ("sim.events.context_switch", &[Event::ContextSwitch]),
    ("sim.events.revmap_lookup", &[Event::ReverseMapLookup]),
    ("sim.events.ring_copy", &[Event::RingBufferCopyEntry]),
    ("sim.events.ring_overflow", &[Event::RingBufferOverflow]),
    ("sim.events.pagemap_entry", &[Event::PagemapReadEntry]),
    ("sim.events.clear_refs_pte", &[Event::ClearRefsPte]),
    ("sim.events.ufd_event", &[Event::UfdEventDelivered]),
];

/// The other exact counts (unit `ns` for the virtual-clock lanes).
pub const OTHER_COUNTS: [&str; 15] = [
    "sim.charges",
    "sim.virt_ns.tracked",
    "sim.virt_ns.tracker",
    "sim.virt_ns.kernel",
    "sim.virt_ns.hypervisor",
    "machine.tlb.hits",
    "machine.tlb.misses",
    "machine.tlb.flushes",
    "machine.tlb.shootdowns",
    "machine.tlb.evictions",
    "core.dirty.pages_reported",
    "core.dirty.rounds",
    "criu.pages_written",
    "criu.chain.layers",
    "criu.chain.wire_bytes",
];

/// Access ladder, hit side, bottom to top (owned by `wc_hot`).
pub const HIT_RUNGS: [&str; 9] = [
    "sim.charge",
    "machine.tlb.lookup_hit",
    "machine.mmu.access_hit_load",
    "machine.mmu.access_hit_store",
    "hypervisor.guest_access_hit",
    "guest.access_hit",
    "guest.read_u64_hit",
    "guest.write_u64_hit",
    "trace.write_u64_hit_sink",
];

/// Access ladder, miss side (owned by `micro_pml` and `micro_fault`).
pub const MISS_RUNGS: [&str; 10] = [
    "machine.tlb.fill_invlpg",
    "machine.tlb.flush_refill",
    "machine.mmu.access_walk",
    "machine.mmu.access_walk_log",
    "guest.write_u64_relog.epml",
    "guest.write_u64_relog.spml",
    "guest.write_u64_wpfault.proc",
    "guest.write_u64_wpfault.ufd",
    "guest.demand_fault",
    "guest.timer_tick",
];

/// Drain ladder, top rungs (owned by `micro_pml`; `read_pagemap` also by
/// `micro_fault`). Its bottom rungs are the `drain_*` and `ckpt_chain` spans.
pub const DRAIN_RUNGS: [&str; 5] = [
    "machine.pml.log_drain",
    "machine.ring.push_pop",
    "core.revmap.batch",
    "core.revmap.batch_cached",
    "guest.read_pagemap",
];

/// All per-layer metrics, in the order they are printed.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut push = |name: String, unit, better, exact| {
        out.push(Layer {
            name,
            unit,
            better,
            exact,
        })
    };
    for s in SPANS {
        push(format!("{s}.self_s"), "s", Lower, false);
    }
    push("bench.fleet.vm.p50_s".into(), "s", Lower, false);
    push("bench.fleet.vm.p95_s".into(), "s", Lower, false);
    push("bench.fleet.par_efficiency".into(), "ratio", Higher, false);
    push("trace.overhead_pct".into(), "%", Lower, false);
    for (name, _) in EVENT_COUNTS {
        push(name.into(), "count", Lower, true);
    }
    for name in OTHER_COUNTS {
        let ns = name.starts_with("sim.virt_ns.");
        let better = if name == "machine.tlb.hits" {
            Higher
        } else {
            Lower
        };
        push(name.into(), if ns { "ns" } else { "count" }, better, true);
    }
    push("machine.tlb.hit_ratio".into(), "ratio", Higher, true);
    push("host_ns_per_access".into(), "ns", Lower, false);
    push("host_ns_per_charge".into(), "ns", Lower, false);
    for r in HIT_RUNGS.iter().chain(&MISS_RUNGS).chain(&DRAIN_RUNGS) {
        push(format!("{r}.ns"), "ns", Lower, false);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ninety_two_unique_well_formed_layer_names() {
        let layers = per_layer();
        assert_eq!(layers.len(), 92);
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        assert!(names.iter().all(|n| ok(n)), "malformed name in {names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn contract_bounds_cover_every_cell_bound() {
        for m in &END_TO_END {
            assert!(m.bound <= 0.25);
            for w in &WORKLOADS {
                assert!(
                    cell_bound(m.name, w.name) <= m.bound,
                    "{} on {}",
                    m.name,
                    w.name
                );
            }
        }
    }
}
