//! Schedulable step surface for the `ooh-model` interleaving explorer.
//!
//! The simulator's protocols (SPML hypercalls, EPML guest-buffer appends and
//! self-IPIs, ring drains, tracker collects, TLB invalidations) are logically
//! concurrent even though the simulation itself is single-threaded: the
//! hardware-posted IPI sits queued while the guest keeps executing, the
//! scheduler can preempt the tracked process between any two writes, and the
//! tracker's collect races the producer side of the ring. This module
//! reifies each atomic protocol action as a [`Step`] value and packages a
//! booted stack as a [`ModelSession`] implementing [`ModelPort`], so the
//! `ooh-model` crate can enumerate interleavings exhaustively. Normal
//! (non-model) runs never construct these types and are unaffected.

use crate::dirtyset::DirtySet;
use crate::session::OohSession;
use crate::tracker::Technique;
use ooh_guest::{GuestError, GuestKernel, Pid, VmaKind};
use ooh_hypervisor::Hypervisor;
use ooh_machine::{Gva, GvaRange, MachineConfig, Pte, StateHasher, PAGE_SIZE};
use ooh_sim::{Event, Lane, SimCtx};
use std::collections::BTreeSet;

/// One schedulable atomic action. The explorer enumerates these in `Ord`
/// order, so the variant order here fixes the (deterministic) search order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    /// The tracked process writes one u64 into target page `k` of its
    /// region (a guest write burst of length one — the finest grain at
    /// which the hardware interleaves with the protocols).
    WriteTracked(u64),
    /// The untracked background process writes into target page `k` of its
    /// own region. Under EPML both regions start at the same GVA, so a
    /// misattribution bug shows up as a ghost page in the tracked set.
    WriteOther(u64),
    /// Scheduler preempts the tracked process (runs the sched-out hook:
    /// SPML DisableLogging hypercall / EPML control vmwrite + drain).
    SchedOut,
    /// Scheduler resumes the tracked process (sched-in hook).
    SchedIn,
    /// Deliver the oldest pending virtual interrupt (the EPML buffer-full
    /// self-IPI). Posting and delivery are separate events on real
    /// hardware; this step is the delivery half.
    DeliverIpi,
    /// Guest executes a full TLB flush (e.g. an unrelated munmap elsewhere).
    FlushTlb,
    /// Tracker ends the round: collect + compare against the oracle.
    FetchDirty,
}

impl Step {
    /// Stable token used in serialized schedule files.
    pub fn token(self) -> &'static str {
        match self {
            Step::WriteTracked(_) => "write-tracked",
            Step::WriteOther(_) => "write-other",
            Step::SchedOut => "sched-out",
            Step::SchedIn => "sched-in",
            Step::DeliverIpi => "deliver-ipi",
            Step::FlushTlb => "flush-tlb",
            Step::FetchDirty => "fetch-dirty",
        }
    }

    /// The step's argument, if its token carries one.
    pub fn arg(self) -> Option<u64> {
        match self {
            Step::WriteTracked(k) | Step::WriteOther(k) => Some(k),
            _ => None,
        }
    }

    /// Inverse of [`Self::token`]/[`Self::arg`] for schedule-file parsing.
    pub fn from_parts(token: &str, arg: Option<u64>) -> Option<Step> {
        match (token, arg) {
            ("write-tracked", Some(k)) => Some(Step::WriteTracked(k)),
            ("write-other", Some(k)) => Some(Step::WriteOther(k)),
            ("sched-out", None) => Some(Step::SchedOut),
            ("sched-in", None) => Some(Step::SchedIn),
            ("deliver-ipi", None) => Some(Step::DeliverIpi),
            ("flush-tlb", None) => Some(Step::FlushTlb),
            ("fetch-dirty", None) => Some(Step::FetchDirty),
            _ => None,
        }
    }
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.arg() {
            Some(k) => write!(f, "{} {}", self.token(), k),
            None => f.write_str(self.token()),
        }
    }
}

/// Seeded protocol bugs for the explorer's self-validation: each must be
/// caught by a safety property with a short counterexample, proving the
/// model actually has teeth. Production code paths never enable these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mutation {
    None,
    /// The posted buffer-full self-IPI is silently discarded instead of
    /// delivered (lost interrupt): the buffer never drains and subsequent
    /// full-path writes lose their log entries.
    DropIpi,
    /// The drain resets the hardware index before copying entries out.
    ClearBeforeDrain,
    /// The sched-out hook forgets to disable logging, so the next process's
    /// writes keep logging into the tracked buffer.
    SkipDisableLogging,
}

impl Mutation {
    pub const ALL: [Mutation; 4] = [
        Mutation::None,
        Mutation::DropIpi,
        Mutation::ClearBeforeDrain,
        Mutation::SkipDisableLogging,
    ];

    pub fn token(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::DropIpi => "drop-ipi",
            Mutation::ClearBeforeDrain => "clear-before-drain",
            Mutation::SkipDisableLogging => "skip-disable-logging",
        }
    }

    pub fn from_token(s: &str) -> Option<Mutation> {
        Mutation::ALL.into_iter().find(|m| m.token() == s)
    }
}

/// Initial-state shape explored. Scenarios bound the branching factor so
/// bounded-exhaustive search stays tractable while still covering the
/// protocol's interesting regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scenario {
    /// A handful of pages, empty log buffers: exercises the common path
    /// (transitions, drains, preemption hooks).
    Small,
    /// The EPML guest buffer is pre-filled to one-slot-from-full, so the
    /// very next tracked write triggers the buffer-full self-IPI: exercises
    /// the post/deliver/drain race the protocol exists to get right.
    NearFull,
}

impl Scenario {
    pub fn token(self) -> &'static str {
        match self {
            Scenario::Small => "small",
            Scenario::NearFull => "near-full",
        }
    }

    pub fn from_token(s: &str) -> Option<Scenario> {
        match s {
            "small" => Some(Scenario::Small),
            "near-full" => Some(Scenario::NearFull),
            _ => None,
        }
    }

    /// Search depth at which the default exhaustive run bounds this
    /// scenario (chosen so a full sweep stays in CI budget).
    pub fn default_depth(self) -> usize {
        match self {
            Scenario::Small => 5,
            Scenario::NearFull => 4,
        }
    }

    fn params(self) -> ScenarioParams {
        match self {
            Scenario::Small => ScenarioParams {
                tracked_pages: 4,
                tracked_targets: 3,
                other_pages: 2,
                other_targets: 2,
                warm_writes: 0,
            },
            Scenario::NearFull => ScenarioParams {
                // 511 warm pages fill the EPML guest buffer to one slot
                // from full; the two remaining pages are the live targets.
                tracked_pages: 513,
                tracked_targets: 2,
                other_pages: 2,
                other_targets: 1,
                warm_writes: 511,
            },
        }
    }
}

struct ScenarioParams {
    tracked_pages: u64,
    tracked_targets: u64,
    other_pages: u64,
    other_targets: u64,
    warm_writes: u64,
}

/// Stable lowercase token for a technique in schedule files / CLI args
/// (`Technique::name` uses display forms like "/proc" that are awkward in
/// file formats).
pub fn technique_token(t: Technique) -> &'static str {
    match t {
        Technique::Proc => "soft-dirty",
        Technique::Ufd => "ufd",
        Technique::Spml => "spml",
        Technique::Epml => "epml",
    }
}

pub fn technique_from_token(s: &str) -> Option<Technique> {
    Technique::ALL.into_iter().find(|&t| technique_token(t) == s)
}

/// Errors from constructing a [`ModelSession`] (as opposed to
/// [`ModelViolation`]s found while exploring one).
#[derive(Debug)]
pub enum ModelError {
    /// The simulator stack failed to boot.
    Guest(GuestError),
    /// The requested mutation lives in the OoH guest module, which the
    /// requested technique does not load.
    UnsupportedMutation {
        mutation: Mutation,
        technique: Technique,
    },
}

impl From<GuestError> for ModelError {
    fn from(e: GuestError) -> Self {
        ModelError::Guest(e)
    }
}

impl From<ooh_machine::MachineError> for ModelError {
    fn from(e: ooh_machine::MachineError) -> Self {
        ModelError::Guest(GuestError::Machine(e))
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Guest(e) => write!(f, "boot failed: {e}"),
            ModelError::UnsupportedMutation {
                mutation,
                technique,
            } => write!(
                f,
                "mutation {} needs a module-based technique, not {}",
                mutation.token(),
                technique.name()
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// A safety-property violation found on some interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelViolation {
    /// P1: a page the oracle knows was written is missing from the
    /// reported dirty set (page numbers, i.e. GVA >> 12).
    LostPage { page: u64 },
    /// P1: the reported set contains a page the oracle never saw written
    /// (and the ring reported no drops that would justify a superset).
    ExtraPage { page: u64 },
    /// P3: the shared ring's queue depth exceeded its capacity, or entries
    /// vanished without the dropped counter accounting for them.
    RingOverflow { detail: String },
    /// P4: a page with a clear PTE dirty bit still has a TLB entry carrying
    /// a set guest-dirty flag — the cached entry would suppress re-logging.
    StaleTlb { page: u64 },
    /// P5: a per-lane virtual clock moved backwards.
    ClockRegression { lane: &'static str },
    /// P2 (and the machine's other shadow invariants): an
    /// [`ooh_machine::DEBUG_INVARIANTS`] assertion fired inside the simulator
    /// during the step.
    InvariantPanic { message: String },
    /// The simulator returned an error the model did not expect (treated as
    /// a failure of the path, with the error preserved verbatim).
    Internal { message: String },
}

impl std::fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelViolation::LostPage { page } => {
                write!(f, "lost dirty page {page:#x} (written but not reported)")
            }
            ModelViolation::ExtraPage { page } => {
                write!(f, "ghost dirty page {page:#x} (reported but never written)")
            }
            ModelViolation::RingOverflow { detail } => {
                write!(f, "ring overflow accounting broken: {detail}")
            }
            ModelViolation::StaleTlb { page } => write!(
                f,
                "stale TLB entry for page {page:#x} still suppresses logging after its \
                 dirty bit was cleared"
            ),
            ModelViolation::ClockRegression { lane } => {
                write!(f, "virtual clock for lane {lane} moved backwards")
            }
            ModelViolation::InvariantPanic { message } => {
                write!(f, "simulator invariant panic: {message}")
            }
            ModelViolation::Internal { message } => {
                write!(f, "unexpected simulator error: {message}")
            }
        }
    }
}

/// What the explorer needs from a system under test: enumerate the enabled
/// steps, apply one, hash the state, and advise on step independence.
/// [`ModelSession`] is the production implementation over the real
/// simulator stack; the trait exists so the explorer can be exercised
/// against toy systems in its own unit tests.
pub trait ModelPort {
    /// Steps enabled in the current state, in deterministic (sorted) order.
    fn enabled_steps(&mut self) -> Vec<Step>;

    /// Apply one step, checking every safety property it can affect.
    fn apply(&mut self, step: Step) -> Result<(), ModelViolation>;

    /// Hash of the protocol-relevant state (clocks and statistics
    /// excluded), used for interleaving deduplication.
    fn digest(&mut self) -> u64;

    /// Conservative independence: `true` only if applying `a` then `b`
    /// provably reaches the same state as `b` then `a` AND neither enables
    /// or disables the other. Used for sleep-set pruning; when unsure,
    /// return `false` (sound, merely slower).
    fn commutes(&mut self, a: Step, b: Step) -> bool;
}

/// A booted simulator stack wrapped as a model-checkable system: one
/// tracked process, one background process, a live [`OohSession`], and a
/// ground-truth oracle of written pages.
pub struct ModelSession {
    hv: Hypervisor,
    kernel: GuestKernel,
    tracked: Pid,
    other: Pid,
    tracked_region: GvaRange,
    other_region: GvaRange,
    session: OohSession,
    technique: Technique,
    mutation: Mutation,
    /// Page numbers (GVA >> 12) written into the tracked region since the
    /// last fetch — the ground truth every collect is compared against.
    oracle: BTreeSet<u64>,
    /// Monotonically increasing write payload, so repeated writes to one
    /// page stay distinguishable in memory (not part of the digest).
    seq: u64,
    /// Per-lane clock readings from after the previous step (P5).
    lane_ns: [u64; 4],
    /// Ring drop count at the last fetch, to tell fresh drops from old.
    dropped_at_last_fetch: u64,
    tracked_targets: u64,
    other_targets: u64,
    warm_writes: u64,
}

impl ModelSession {
    /// Boot a fresh stack in `scenario` shape with `mutation` armed.
    ///
    /// Mutations that live in the OoH guest module
    /// ([`Mutation::ClearBeforeDrain`], [`Mutation::SkipDisableLogging`])
    /// require a module-based technique (SPML/EPML); booting them under
    /// soft-dirty or ufd is an error.
    pub fn boot(
        technique: Technique,
        scenario: Scenario,
        mutation: Mutation,
    ) -> Result<ModelSession, ModelError> {
        Self::boot_with_vcpus(technique, scenario, mutation, 1)
    }

    /// [`Self::boot`] on an SMP guest: the VM gets `vcpus` vCPUs, and both
    /// model processes are pinned to vCPU 0 so the schedule alphabet keeps
    /// its single-core meaning (SchedOut really hands the core over). The
    /// extra cores exercise the cross-vCPU shootdown and per-vCPU shadow
    /// paths, and every per-vCPU property (P4, digest) ranges over all of
    /// them.
    pub fn boot_with_vcpus(
        technique: Technique,
        scenario: Scenario,
        mutation: Mutation,
        vcpus: u32,
    ) -> Result<ModelSession, ModelError> {
        let vcpus = vcpus.max(1);
        let p = scenario.params();
        let mut hv = Hypervisor::new(MachineConfig::epml(64 * 1024 * PAGE_SIZE), SimCtx::new());
        let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, vcpus)?;
        let mut kernel = GuestKernel::with_vcpus(vm, vcpus);

        let tracked = kernel.spawn_on(&mut hv, 0)?;
        let other = kernel.spawn_on(&mut hv, 0)?;
        let tracked_region = kernel.mmap(tracked, p.tracked_pages, true, VmaKind::Anon)?;
        let other_region = kernel.mmap(other, p.other_pages, true, VmaKind::Anon)?;

        // Pre-fault both regions (mlockall-style, like the paper's
        // Listing 1) so model steps never take the demand-zero path.
        kernel.context_switch(&mut hv, tracked)?;
        for g in tracked_region.iter_pages().collect::<Vec<_>>() {
            kernel.write_u64(&mut hv, tracked, g, 0, Lane::Tracked)?;
        }
        kernel.context_switch(&mut hv, other)?;
        for g in other_region.iter_pages().collect::<Vec<_>>() {
            kernel.write_u64(&mut hv, other, g, 0, Lane::Tracked)?;
        }

        // Clear the background process's accumulated PTE dirty bits: the
        // session start only resets the *tracked* process, and the ghost-
        // page property needs the other process's writes to be fresh 0→1
        // transitions.
        for g in other_region.iter_pages().collect::<Vec<_>>() {
            if let Some((slot, pte)) = kernel.pte_lookup(&mut hv, other, g)? {
                if pte.is_dirty() {
                    kernel.kernel_phys_write(&mut hv, slot, pte.without(Pte::DIRTY).0)?;
                    for v in 0..kernel.n_vcpus() {
                        hv.note_guest_pte_dirty_cleared(kernel.vm, v, g);
                    }
                }
            }
        }
        kernel.shootdown_all(&mut hv);

        kernel.context_switch(&mut hv, tracked)?;
        let session = OohSession::start(&mut hv, &mut kernel, tracked, technique)?;

        match mutation {
            Mutation::None | Mutation::DropIpi => {}
            Mutation::ClearBeforeDrain | Mutation::SkipDisableLogging => {
                let module = kernel
                    .ooh
                    .as_mut()
                    .ok_or(ModelError::UnsupportedMutation {
                        mutation,
                        technique,
                    })?;
                match mutation {
                    Mutation::ClearBeforeDrain => module.mutate_clear_before_drain = true,
                    Mutation::SkipDisableLogging => module.mutate_skip_disable_logging = true,
                    _ => unreachable!(),
                }
            }
        }

        let mut this = ModelSession {
            hv,
            kernel,
            tracked,
            other,
            tracked_region,
            other_region,
            session,
            technique,
            mutation,
            oracle: BTreeSet::new(),
            seq: 0,
            lane_ns: [0; 4],
            dropped_at_last_fetch: 0,
            tracked_targets: p.tracked_targets,
            other_targets: p.other_targets,
            warm_writes: p.warm_writes,
        };

        // Warm phase: fill the log buffer to one slot from full. Uses the
        // no-IRQ write path so a buffer-full IPI posted here (there should
        // be none with exactly PML_ENTRIES - 1 writes) would stay pending
        // rather than being delivered behind the model's back.
        for i in 0..this.warm_writes {
            let gva = this.tracked_region.start.add(i * PAGE_SIZE);
            this.seq += 1;
            let seq = this.seq;
            this.kernel.write_bytes_no_irq(
                &mut this.hv,
                this.tracked,
                gva,
                &seq.to_le_bytes(),
                Lane::Tracked,
            )?;
            this.oracle.insert(gva.page());
        }

        this.lane_ns = this.read_lane_ns();
        this.dropped_at_last_fetch = this.ring_dropped()?;
        Ok(this)
    }

    pub fn technique(&self) -> Technique {
        self.technique
    }

    pub fn mutation(&self) -> Mutation {
        self.mutation
    }

    fn read_lane_ns(&self) -> [u64; 4] {
        let clock = self.hv.ctx.clock();
        [
            clock.lane_ns(Lane::Tracked),
            clock.lane_ns(Lane::Tracker),
            clock.lane_ns(Lane::Kernel),
            clock.lane_ns(Lane::Hypervisor),
        ]
    }

    fn ring_dropped(&self) -> Result<u64, ooh_machine::MachineError> {
        match self.kernel.ooh.as_ref() {
            Some(module) => self.hv.ring_dropped(module.ring()),
            None => Ok(0),
        }
    }

    /// Is the EPML guest buffer full with its wake-up IPI still pending?
    /// Real hardware delivers a posted interrupt at the next instruction
    /// boundary, so the guest cannot slip more writes in between; the model
    /// mirrors that by gating guest-execution steps until delivery (or
    /// until the fault-injection mutation discards the vector).
    fn execution_gated(&self) -> bool {
        self.hv
            .guest_pml_free_slots(self.kernel.vm, self.kernel.vcpu)
            == Some(0)
            && self.hv.pending_vector_count(self.kernel.vm, self.kernel.vcpu) > 0
    }

    fn tracked_target_gva(&self, k: u64) -> Gva {
        self.tracked_region
            .start
            .add((self.warm_writes + k) * PAGE_SIZE)
    }

    fn other_target_gva(&self, k: u64) -> Gva {
        self.other_region.start.add(k * PAGE_SIZE)
    }

    /// Free slots in whichever log buffer the active technique appends to
    /// (`None` when the technique has no buffer).
    fn active_buffer_free_slots(&self) -> Option<u64> {
        match self.technique {
            Technique::Epml => self
                .hv
                .guest_pml_free_slots(self.kernel.vm, self.kernel.vcpu),
            Technique::Spml => self.hv.hyp_pml_free_slots(self.kernel.vm, self.kernel.vcpu),
            Technique::Proc | Technique::Ufd => None,
        }
    }

    /// P1 at fetch time: the reported set must equal the oracle exactly —
    /// except that a ring overflow since the last fetch entitles the
    /// tracker to a conservative superset (never a subset).
    fn check_fetch(&mut self, reported: &DirtySet) -> Result<(), ModelViolation> {
        let dropped = self
            .ring_dropped()
            .map_err(|e| ModelViolation::Internal { message: e.to_string() })?;
        let superset_ok = dropped > self.dropped_at_last_fetch;
        self.dropped_at_last_fetch = dropped;

        let got: BTreeSet<u64> = reported.pages().collect();
        for &page in &self.oracle {
            if !got.contains(&page) {
                return Err(ModelViolation::LostPage { page });
            }
        }
        if !superset_ok {
            for &page in &got {
                if !self.oracle.contains(&page) {
                    return Err(ModelViolation::ExtraPage { page });
                }
            }
        }
        self.oracle.clear();
        Ok(())
    }

    /// Properties checked after every step: P3 (ring accounting), P5 (lane
    /// clock monotonicity), and — when [`ooh_machine::DEBUG_INVARIANTS`] is
    /// on — P4 (no logging-suppressing stale TLB entry).
    fn check_after_step(&mut self) -> Result<(), ModelViolation> {
        // P3: queue depth bounded by capacity; drops accounted by the
        // overflow event counter (a silent drop breaks the tracker's
        // "fall back to full rescan" contract).
        if let Some(module) = self.kernel.ooh.as_ref() {
            let ring = module.ring();
            let len = self
                .hv
                .ring_len(ring)
                .map_err(|e| ModelViolation::Internal { message: e.to_string() })?;
            if len > ring.capacity() {
                return Err(ModelViolation::RingOverflow {
                    detail: format!("queue depth {len} exceeds capacity {}", ring.capacity()),
                });
            }
            let dropped = self
                .hv
                .ring_dropped(ring)
                .map_err(|e| ModelViolation::Internal { message: e.to_string() })?;
            let counted = self.hv.ctx.counters().get(Event::RingBufferOverflow);
            if dropped != counted {
                return Err(ModelViolation::RingOverflow {
                    detail: format!(
                        "header says {dropped} dropped but {counted} overflow events charged"
                    ),
                });
            }
        }

        // P5: virtual time never runs backwards on any lane.
        let now = self.read_lane_ns();
        for (i, lane) in Lane::ALL.iter().enumerate() {
            if now[i] < self.lane_ns[i] {
                return Err(ModelViolation::ClockRegression { lane: lane.label() });
            }
        }
        self.lane_ns = now;

        self.check_step_invariants()
    }

    /// P4, [`ooh_machine::DEBUG_INVARIANTS`] builds only: a tracked-region
    /// page whose PTE dirty bit is clear must not retain a TLB entry with the
    /// guest-dirty flag set — such an entry lets the fast path skip the
    /// page-walk that would log the next write, losing the page for the
    /// following round.
    /// Checked on *every* vCPU: a dirty-bit clear is only correct if the
    /// shootdown reached all cores, so a stale entry anywhere violates P4.
    fn check_step_invariants(&mut self) -> Result<(), ModelViolation> {
        if ooh_machine::DEBUG_INVARIANTS {
            if self.technique != Technique::Epml {
                return Ok(());
            }
            let cr3 = self
                .kernel
                .process(self.tracked)
                .map_err(|e| ModelViolation::Internal { message: e.to_string() })?
                .cr3;
            for gva in self.tracked_region.iter_pages().collect::<Vec<_>>() {
                let Some((_, pte)) = self
                    .kernel
                    .pte_lookup(&mut self.hv, self.tracked, gva)
                    .map_err(|e| ModelViolation::Internal { message: e.to_string() })?
                else {
                    continue;
                };
                if !pte.is_present() || pte.is_dirty() {
                    continue;
                }
                for vc in &self.hv.vm(self.kernel.vm).vcpus {
                    if let Some(entry) = vc.tlb.peek(cr3, gva) {
                        if entry.guest_dirty {
                            return Err(ModelViolation::StaleTlb { page: gva.page() });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl ModelPort for ModelSession {
    fn enabled_steps(&mut self) -> Vec<Step> {
        let mut steps = Vec::new();
        let gated = self.execution_gated();
        if !gated {
            if self.kernel.current() == Some(self.tracked) {
                for k in 0..self.tracked_targets {
                    steps.push(Step::WriteTracked(k));
                }
                steps.push(Step::SchedOut);
            } else {
                for k in 0..self.other_targets {
                    steps.push(Step::WriteOther(k));
                }
                steps.push(Step::SchedIn);
            }
        }
        if self.hv.pending_vector_count(self.kernel.vm, self.kernel.vcpu) > 0 {
            steps.push(Step::DeliverIpi);
        }
        steps.push(Step::FlushTlb);
        steps.push(Step::FetchDirty);
        steps.sort();
        steps
    }

    fn apply(&mut self, step: Step) -> Result<(), ModelViolation> {
        let internal = |e: GuestError| ModelViolation::Internal { message: e.to_string() };
        match step {
            Step::WriteTracked(k) => {
                let gva = self.tracked_target_gva(k);
                self.seq += 1;
                let seq = self.seq;
                self.kernel
                    .write_bytes_no_irq(
                        &mut self.hv,
                        self.tracked,
                        gva,
                        &seq.to_le_bytes(),
                        Lane::Tracked,
                    )
                    .map_err(internal)?;
                self.oracle.insert(gva.page());
            }
            Step::WriteOther(k) => {
                let gva = self.other_target_gva(k);
                self.seq += 1;
                let seq = self.seq;
                self.kernel
                    .write_bytes_no_irq(
                        &mut self.hv,
                        self.other,
                        gva,
                        &seq.to_le_bytes(),
                        Lane::Tracked,
                    )
                    .map_err(internal)?;
            }
            Step::SchedOut => {
                let other = self.other;
                self.kernel
                    .context_switch(&mut self.hv, other)
                    .map_err(internal)?;
            }
            Step::SchedIn => {
                let tracked = self.tracked;
                self.kernel
                    .context_switch(&mut self.hv, tracked)
                    .map_err(internal)?;
            }
            Step::DeliverIpi => {
                if self.mutation == Mutation::DropIpi {
                    self.hv
                        .discard_pending_interrupts(self.kernel.vm, self.kernel.vcpu);
                } else {
                    self.kernel.poll_interrupts(&mut self.hv).map_err(internal)?;
                }
            }
            Step::FlushTlb => {
                self.kernel.flush_tlb(&mut self.hv);
            }
            Step::FetchDirty => {
                let reported = self
                    .session
                    .fetch_dirty(&mut self.hv, &mut self.kernel)
                    .map_err(internal)?;
                self.check_fetch(&reported)?;
            }
        }
        self.check_after_step()
    }

    fn digest(&mut self) -> u64 {
        let mut h = StateHasher::new();
        h.write_u64(match self.kernel.current() {
            Some(pid) => u64::from(pid.0),
            None => u64::MAX,
        });
        h.write_u64(self.session.rounds());
        h.write_sorted(&self.oracle.iter().copied().collect::<Vec<_>>());
        for v in 0..self.kernel.n_vcpus() {
            self.hv
                .hash_vm_state(self.kernel.vm, v, &mut h)
                .expect("state hash must not fault");
        }
        if let Some(module) = self.kernel.ooh.as_ref() {
            h.write_bool(true);
            self.hv
                .hash_ring(module.ring(), &mut h)
                .expect("ring hash must not fault");
        } else {
            h.write_bool(false);
        }
        // PTE protocol bits (present/writable/dirty/soft-dirty/uffd-wp) for
        // every page the model can touch.
        let pages: Vec<(Pid, Gva)> = self
            .tracked_region
            .iter_pages()
            .map(|g| (self.tracked, g))
            .chain(self.other_region.iter_pages().map(|g| (self.other, g)))
            .collect();
        for (pid, gva) in pages {
            match self
                .kernel
                .pte_lookup(&mut self.hv, pid, gva)
                .expect("pte walk must not fault")
            {
                Some((_, pte)) => {
                    h.write_bool(true);
                    h.write_u64(
                        pte.0
                            & (Pte::PRESENT
                                | Pte::WRITABLE
                                | Pte::DIRTY
                                | Pte::SOFT_DIRTY
                                | Pte::UFFD_WP),
                    );
                }
                None => h.write_bool(false),
            }
        }
        // Pending userfaultfd events (order-insensitive: the tracker folds
        // them into a set).
        h.write_u64(self.kernel.ufds.len() as u64);
        for ufd in &self.kernel.ufds {
            let mut evs: Vec<u64> = ufd
                .pending_events()
                .iter()
                .map(|e| e.gva.page() << 1 | u64::from(e.write))
                .collect();
            evs.sort_unstable();
            h.write_sorted(&evs);
        }
        h.finish()
    }

    fn commutes(&mut self, a: Step, b: Step) -> bool {
        // Only same-kind writes to distinct pages are claimed independent,
        // and only while nothing can overflow: both PTEs present (no fault
        // path), at least two free slots in the active log buffer (neither
        // write can trip buffer-full), and two free ring slots. Everything
        // else — scheduler hooks, IPI delivery, drains, collects, TLB
        // flushes — is treated as dependent, which is always sound.
        let (pid, ga, gb) = match (a, b) {
            (Step::WriteTracked(x), Step::WriteTracked(y)) if x != y => {
                (self.tracked, self.tracked_target_gva(x), self.tracked_target_gva(y))
            }
            (Step::WriteOther(x), Step::WriteOther(y)) if x != y => {
                (self.other, self.other_target_gva(x), self.other_target_gva(y))
            }
            _ => return false,
        };
        for gva in [ga, gb] {
            match self.kernel.pte_lookup(&mut self.hv, pid, gva) {
                Ok(Some((_, pte))) if pte.is_present() => {}
                _ => return false,
            }
        }
        if let Some(free) = self.active_buffer_free_slots() {
            if free < 2 {
                return false;
            }
        }
        if let Some(module) = self.kernel.ooh.as_ref() {
            let ring = module.ring();
            match self.hv.ring_len(ring) {
                Ok(len) if ring.capacity() - len >= 2 => {}
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_tokens_round_trip() {
        let steps = [
            Step::WriteTracked(2),
            Step::WriteOther(0),
            Step::SchedOut,
            Step::SchedIn,
            Step::DeliverIpi,
            Step::FlushTlb,
            Step::FetchDirty,
        ];
        for s in steps {
            assert_eq!(Step::from_parts(s.token(), s.arg()), Some(s), "{s}");
        }
        assert_eq!(Step::from_parts("write-tracked", None), None);
        assert_eq!(Step::from_parts("fetch-dirty", Some(1)), None);
        assert_eq!(Step::from_parts("nonsense", None), None);
    }

    #[test]
    fn technique_tokens_round_trip() {
        for t in Technique::ALL {
            assert_eq!(technique_from_token(technique_token(t)), Some(t));
        }
        assert_eq!(technique_from_token("/proc"), None);
    }

    #[test]
    fn boot_enables_the_expected_steps() {
        for t in Technique::ALL {
            let mut m = ModelSession::boot(t, Scenario::Small, Mutation::None).unwrap();
            let steps = m.enabled_steps();
            assert!(steps.contains(&Step::WriteTracked(0)), "{}", t.name());
            assert!(steps.contains(&Step::SchedOut), "{}", t.name());
            assert!(steps.contains(&Step::FetchDirty), "{}", t.name());
            assert!(!steps.contains(&Step::SchedIn), "{}", t.name());
            // Sorted and duplicate-free.
            let mut sorted = steps.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(steps, sorted);
        }
    }

    #[test]
    fn write_then_fetch_satisfies_p1() {
        for t in Technique::ALL {
            let mut m = ModelSession::boot(t, Scenario::Small, Mutation::None).unwrap();
            m.apply(Step::WriteTracked(0)).unwrap();
            m.apply(Step::WriteTracked(2)).unwrap();
            m.apply(Step::FetchDirty).unwrap();
            // Round 2: nothing written, empty fetch must also pass.
            m.apply(Step::FetchDirty).unwrap();
        }
    }

    #[test]
    fn near_full_buffer_gates_execution_after_the_tipping_write() {
        let mut m = ModelSession::boot(Technique::Epml, Scenario::NearFull, Mutation::None)
            .unwrap();
        assert!(!m.execution_gated());
        // One slot left: this write fills the buffer and posts the IPI.
        m.apply(Step::WriteTracked(0)).unwrap();
        assert!(m.execution_gated());
        let steps = m.enabled_steps();
        assert!(steps.contains(&Step::DeliverIpi));
        assert!(!steps.iter().any(|s| matches!(s, Step::WriteTracked(_))));
        // Delivery drains the buffer and reopens execution.
        m.apply(Step::DeliverIpi).unwrap();
        assert!(!m.execution_gated());
        m.apply(Step::FetchDirty).unwrap();
    }

    #[test]
    fn digest_is_deterministic_and_state_sensitive() {
        let mut a = ModelSession::boot(Technique::Epml, Scenario::Small, Mutation::None).unwrap();
        let mut b = ModelSession::boot(Technique::Epml, Scenario::Small, Mutation::None).unwrap();
        assert_eq!(a.digest(), b.digest(), "identical boots must hash alike");
        a.apply(Step::WriteTracked(0)).unwrap();
        assert_ne!(a.digest(), b.digest(), "a write must change the digest");
        b.apply(Step::WriteTracked(0)).unwrap();
        assert_eq!(a.digest(), b.digest(), "same history, same digest");
    }

    #[test]
    fn independent_writes_commute_and_dependent_steps_do_not() {
        let mut m = ModelSession::boot(Technique::Epml, Scenario::Small, Mutation::None).unwrap();
        assert!(m.commutes(Step::WriteTracked(0), Step::WriteTracked(1)));
        assert!(!m.commutes(Step::WriteTracked(0), Step::WriteTracked(0)));
        assert!(!m.commutes(Step::WriteTracked(0), Step::FetchDirty));
        assert!(!m.commutes(Step::SchedOut, Step::FetchDirty));
        assert!(!m.commutes(Step::DeliverIpi, Step::WriteTracked(0)));
        // Near the buffer-full edge even distinct writes stop commuting.
        let mut nf =
            ModelSession::boot(Technique::Epml, Scenario::NearFull, Mutation::None).unwrap();
        assert!(!nf.commutes(Step::WriteTracked(0), Step::WriteTracked(1)));
    }

    /// P4 fires on a stale entry left on a core other than the writer's:
    /// vCPU 1 keeps the guest-dirty translation vCPU 0 cached before the
    /// drain cleared the page's PTE dirty bit (a shootdown that missed it).
    #[test]
    fn stale_tlb_entry_on_another_vcpu_violates_p4() {
        let mut m =
            ModelSession::boot_with_vcpus(Technique::Epml, Scenario::Small, Mutation::None, 2)
                .unwrap();
        let gva = m.tracked_target_gva(0);
        let cr3 = m.kernel.process(m.tracked).unwrap().cr3;
        m.apply(Step::WriteTracked(0)).unwrap();
        let vm = m.kernel.vm;
        let cached = m.hv.vm(vm).vcpus[0].tlb.peek(cr3, gva).unwrap();
        assert!(cached.guest_dirty);
        m.apply(Step::FetchDirty).unwrap();
        let (_, pte) = m
            .kernel
            .pte_lookup(&mut m.hv, m.tracked, gva)
            .unwrap()
            .unwrap();
        assert!(!pte.is_dirty(), "the drain clears the PTE dirty bit");

        m.hv.vm_mut(vm).vcpus[1].tlb.fill(cr3, gva, cached);
        let expected = if ooh_machine::DEBUG_INVARIANTS {
            Err(ModelViolation::StaleTlb { page: gva.page() })
        } else {
            Ok(())
        };
        assert_eq!(m.check_after_step(), expected);
    }

    #[test]
    fn module_mutations_require_a_module_technique() {
        assert!(
            ModelSession::boot(Technique::Proc, Scenario::Small, Mutation::ClearBeforeDrain)
                .is_err()
        );
        assert!(ModelSession::boot(
            Technique::Ufd,
            Scenario::Small,
            Mutation::SkipDisableLogging
        )
        .is_err());
    }
}
