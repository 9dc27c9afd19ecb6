//! The experiment runner: boot a stack, run a workload untracked (the
//! paper's "ideal execution time") or under a tracking technique with
//! periodic collection rounds, and report the timing decomposition.

use ooh_core::{DirtySet, OohSession, Technique};
use ooh_guest::{GuestError, GuestKernel, Pid};
use ooh_hypervisor::Hypervisor;
use ooh_machine::MachineConfig;
use ooh_sim::{Event, SimCtx};
use ooh_workloads::{WorkEnv, Workload};
use serde::Serialize;

/// A booted single-VM stack.
pub struct Stack {
    pub hv: Hypervisor,
    pub kernel: GuestKernel,
    pub pid: Pid,
}

impl Stack {
    /// Boot with EPML-capable hardware (the BOCHS-analog machine) — every
    /// technique runs there, so comparisons share one substrate.
    pub fn boot() -> Self {
        Self::boot_with_ram(8 * 1024) // 8 GiB host default
    }

    /// Boot with `host_mib` of host RAM (guest gets half).
    pub fn boot_with_ram(host_mib: u64) -> Self {
        Self::boot_with_ctx(host_mib, SimCtx::new())
    }

    /// Boot against a caller-provided context — the hook the trace mode
    /// uses to install an `ooh_trace::Tracer` *before* the first charge, so
    /// the conservation invariant covers boot time too.
    pub fn boot_with_ctx(host_mib: u64, ctx: SimCtx) -> Self {
        Self::boot_with_ctx_vcpus(host_mib, ctx, 1)
    }

    /// Boot an SMP stack: the VM gets `n_vcpus` vCPUs and the guest kernel
    /// schedules across all of them (processes are placed round-robin).
    pub fn boot_with_vcpus(host_mib: u64, n_vcpus: u32) -> Self {
        Self::boot_with_ctx_vcpus(host_mib, SimCtx::new(), n_vcpus)
    }

    /// The fully-general boot: host size, context, and vCPU count.
    pub fn boot_with_ctx_vcpus(host_mib: u64, ctx: SimCtx, n_vcpus: u32) -> Self {
        let n_vcpus = n_vcpus.max(1);
        let mut hv = Hypervisor::new(MachineConfig::epml(host_mib * 1024 * 1024), ctx);
        let vm = hv
            .create_vm(host_mib / 2 * 1024 * 1024, n_vcpus)
            .expect("VM creation");
        let mut kernel = GuestKernel::with_vcpus(vm, n_vcpus);
        let pid = kernel.spawn(&mut hv).expect("spawn");
        Stack { hv, kernel, pid }
    }

    pub fn ctx(&self) -> SimCtx {
        self.hv.ctx.clone()
    }

    pub fn env(&mut self) -> WorkEnv<'_> {
        WorkEnv::new(&mut self.hv, &mut self.kernel, self.pid)
    }
}

/// One collection round's record.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RoundInfo {
    pub round: u32,
    pub dirty_pages: u64,
    pub collect_ns: u64,
}

/// Result of a tracked run.
#[derive(Debug, Clone, Serialize)]
pub struct TrackedRun {
    pub technique: Technique,
    /// Technique initialization time (phase 1). Reported separately, as
    /// the paper does (M3/M9/M10 are one-time and size-independent); the
    /// `*_done_ns` windows below start after init.
    pub init_ns: u64,
    /// Virtual time from post-init until the workload finished.
    pub tracked_done_ns: u64,
    /// Virtual time until the tracker's final collection finished.
    pub tracker_done_ns: u64,
    pub rounds: Vec<RoundInfo>,
    /// Total distinct pages reported dirty across rounds.
    pub union_dirty_pages: u64,
    /// Guest context switches during the run (the paper's N).
    pub context_switches: u64,
    /// Selected event counts for the formula validation.
    pub counters: Vec<(String, u64)>,
}

/// Run `workload` to completion with no tracking: the ideal time.
/// Setup (input generation) is excluded, matching the tracked runs' window.
pub fn run_baseline(workload: &mut dyn Workload) -> Result<u64, GuestError> {
    let mut stack = Stack::boot();
    let ctx = stack.ctx();
    let mut env = stack.env();
    workload.setup(&mut env)?;
    let t0 = ctx.now_ns();
    while !workload.step(&mut env)? {
        env.timer_tick()?;
    }
    Ok(ctx.now_ns() - t0)
}

/// Run `workload` under `technique`, collecting every `collect_every`
/// workload quanta (0 = collect only once at the end).
pub fn run_tracked(
    technique: Technique,
    workload: &mut dyn Workload,
    collect_every: u32,
) -> Result<TrackedRun, GuestError> {
    let mut stack = Stack::boot();
    run_tracked_on(&mut stack, technique, workload, collect_every)
}

/// As [`run_tracked`], against a caller-provided stack (multi-VM studies).
pub fn run_tracked_on(
    stack: &mut Stack,
    technique: Technique,
    workload: &mut dyn Workload,
    collect_every: u32,
) -> Result<TrackedRun, GuestError> {
    let ctx = stack.ctx();

    // Setup runs untracked (input generation is not part of tracking).
    {
        let mut env = stack.env();
        workload.setup(&mut env)?;
    }

    let t_init0 = ctx.now_ns();
    let mut session = OohSession::start(&mut stack.hv, &mut stack.kernel, stack.pid, technique)?;
    let init_ns = ctx.now_ns() - t_init0;
    let t0 = ctx.now_ns();

    let mut rounds = Vec::new();
    let mut union = DirtySet::new();
    let mut steps_since_collect = 0u32;
    let mut done = false;
    while !done {
        {
            let mut env = stack.env();
            done = workload.step(&mut env)?;
            env.timer_tick()?;
        }
        steps_since_collect += 1;
        if collect_every > 0 && steps_since_collect >= collect_every && !done {
            let c0 = ctx.now_ns();
            let dirty = session.fetch_dirty(&mut stack.hv, &mut stack.kernel)?;
            rounds.push(RoundInfo {
                round: rounds.len() as u32,
                dirty_pages: dirty.len() as u64,
                collect_ns: ctx.now_ns() - c0,
            });
            union.merge(&dirty);
            steps_since_collect = 0;
        }
    }
    let tracked_done_ns = ctx.now_ns() - t0;

    // Final collection (the tracker drains what is left).
    let c0 = ctx.now_ns();
    let dirty = session.fetch_dirty(&mut stack.hv, &mut stack.kernel)?;
    rounds.push(RoundInfo {
        round: rounds.len() as u32,
        dirty_pages: dirty.len() as u64,
        collect_ns: ctx.now_ns() - c0,
    });
    union.merge(&dirty);
    session.stop(&mut stack.hv, &mut stack.kernel)?;
    let tracker_done_ns = ctx.now_ns() - t0;

    let counters = ctx
        .counters()
        .snapshot()
        .into_iter()
        .map(|(e, n)| (e.name().to_string(), n))
        .collect();

    Ok(TrackedRun {
        technique,
        init_ns,
        tracked_done_ns,
        tracker_done_ns,
        rounds,
        union_dirty_pages: union.len() as u64,
        context_switches: stack.kernel.context_switches,
        counters,
    })
}

/// Convenience: count of a named event in a [`TrackedRun`].
pub fn counter(run: &TrackedRun, event: Event) -> u64 {
    run.counters
        .iter()
        .find(|(n, _)| n == event.name())
        .map(|(_, v)| *v)
        .unwrap_or(0)
}
