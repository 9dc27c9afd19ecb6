//! The hypervisor proper: VM lifecycle, the guest memory-access entry point
//! (with PML event dispatch), the hypercall handler, and the PML-full vmexit
//! handler — the Xen slice the paper modifies, in ~its entirety.

use crate::hypercall::{Hypercall, HypercallResult};
use crate::vm::{SpmlState, Vm, VmId};
use ooh_machine::{
    AccessOk, DirtyBitmap, Fault, Field, Gpa, Gva, Hpa, Machine, MachineConfig, MachineError, Mmu,
    PmlEvent, RingView, StateHasher, VmxMode, EPML_SELF_IPI_VECTOR, PML_ENTRIES,
};
use ooh_sim::{Event, Lane, SimCtx};

/// Result of a successful guest access through the hypervisor entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestAccess {
    pub hpa: Hpa,
    pub gpa: Gpa,
}

/// The hypervisor: owns the machine and all VMs.
pub struct Hypervisor {
    pub machine: Machine,
    pub ctx: SimCtx,
    vms: Vec<Vm>,
}

impl Hypervisor {
    pub fn new(config: MachineConfig, ctx: SimCtx) -> Self {
        Self {
            machine: Machine::new(config),
            ctx,
            vms: Vec::new(),
        }
    }

    /// Does the underlying machine implement the EPML extension?
    pub fn epml_hw(&self) -> bool {
        self.machine.config.epml
    }

    /// Create a VM with `ram_bytes` of guest RAM and `n_vcpus` vCPUs. Each
    /// vCPU gets a hypervisor-level PML buffer page, with the PML address
    /// programmed into its VMCS (logging stays disabled until someone —
    /// guest registration or migration — needs it).
    pub fn create_vm(&mut self, ram_bytes: u64, n_vcpus: u32) -> Result<VmId, MachineError> {
        let id = VmId(self.vms.len() as u32);
        let mut vm = Vm::new(id, &mut self.machine.phys, ram_bytes, n_vcpus)?;
        for vcpu in &mut vm.vcpus {
            let pml_page = self.machine.phys.alloc_frame()?;
            vcpu.epml_hw = self.machine.config.epml;
            if let Some(cap) = self.machine.config.tlb_capacity {
                vcpu.tlb = ooh_machine::Tlb::with_capacity(cap);
            }
            vcpu.vmcs
                .vmwrite(VmxMode::Root, Field::PmlAddress, pml_page.raw())?;
            vcpu.sync_pml_from_vmcs();
        }
        self.vms.push(vm);
        Ok(id)
    }

    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.0 as usize]
    }

    pub fn vm_mut(&mut self, id: VmId) -> &mut Vm {
        &mut self.vms[id.0 as usize]
    }

    /// Split borrow: one VM plus the physical memory, for callers that walk
    /// the VM's EPT while touching frames.
    pub fn vm_and_phys_mut(&mut self, id: VmId) -> (&mut Vm, &mut ooh_machine::HostPhys) {
        (&mut self.vms[id.0 as usize], &mut self.machine.phys)
    }

    /// Allocate a page of guest RAM for `vm`.
    pub fn alloc_guest_page(&mut self, vm: VmId) -> Result<Gpa, MachineError> {
        self.vms[vm.0 as usize].alloc_guest_page(&mut self.machine.phys)
    }

    /// Allocate a 2 MiB guest region for `vm` (huge EPT mapping).
    pub fn alloc_guest_huge_region(&mut self, vm: VmId) -> Result<Gpa, MachineError> {
        self.vms[vm.0 as usize].alloc_guest_huge_region(&mut self.machine.phys)
    }

    /// Split-on-dirty demotion of the huge EPT mapping covering `gpa`:
    /// demote to a 4K subtree, shoot down every covering translation, and
    /// charge the demotion's fault + per-entry + IPI costs. Returns whether
    /// a huge mapping was present.
    pub fn demote_guest_region(
        &mut self,
        vm: VmId,
        gpa: Gpa,
        lane: Lane,
    ) -> Result<bool, MachineError> {
        let vmref = &mut self.vms[vm.0 as usize];
        if !vmref.demote_region(&mut self.machine.phys, gpa)? {
            return Ok(false);
        }
        // A demotion is a vmexit-priced fault plus a 512-entry table fill,
        // fenced by a shootdown IPI round to the sibling vCPUs.
        self.ctx.charge(lane, Event::PageFaultKernel);
        self.ctx
            .charge_n(lane, Event::ClearRefsPte, ooh_machine::HUGE_PAGE_PAGES);
        if vmref.vcpus.len() > 1 {
            self.ctx.charge(lane, Event::TlbShootdownIpi);
        }
        Ok(true)
    }

    /// Is the EPT mapping covering `gpa` still a 2 MiB leaf?
    pub fn is_huge_mapped(&self, vm: VmId, gpa: Gpa) -> Result<bool, MachineError> {
        self.vms[vm.0 as usize]
            .ept
            .is_huge_mapped(&self.machine.phys, gpa)
    }

    /// Toggle the split-on-dirty policy for `vm` (see [`Vm::split_on_dirty`]).
    pub fn set_split_on_dirty(&mut self, vm: VmId, on: bool) {
        self.vms[vm.0 as usize].split_on_dirty = on;
    }

    /// Free a page of guest RAM.
    pub fn free_guest_page(&mut self, vm: VmId, gpa: Gpa) -> Result<(), MachineError> {
        self.vms[vm.0 as usize].free_guest_page(&mut self.machine.phys, gpa)
    }

    /// Hypervisor-internal GPA→HPA translation (no architectural effects).
    pub fn gpa_to_hpa(&mut self, vm: VmId, gpa: Gpa) -> Result<Option<Hpa>, MachineError> {
        self.vms[vm.0 as usize].gpa_to_hpa(&self.machine.phys, gpa)
    }

    fn mmu_parts(
        &mut self,
        vm: VmId,
        vcpu: u32,
    ) -> (Mmu<'_>, &mut SpmlState, &mut DirtyBitmap) {
        let epml_hw = self.machine.config.epml;
        let vm = &mut self.vms[vm.0 as usize];
        let split_on_dirty = vm.split_on_dirty;
        let vcpu = &mut vm.vcpus[vcpu as usize];
        (
            Mmu {
                phys: &mut self.machine.phys,
                ept: &mut vm.ept,
                tlb: &mut vcpu.tlb,
                pml: &mut vcpu.pml,
                ctx: &self.ctx,
                lane: Lane::Tracked, // callers override via the lane argument
                epml_hw,
                spp: Some(&vm.spp_table),
                split_on_dirty,
            },
            &mut vm.spml,
            &mut vm.hyp_dirty,
        )
    }

    /// The guest data-access entry point: performs the nested walk and
    /// dispatches any PML events (hypervisor-buffer-full vmexit handled
    /// here; guest-buffer-full delivered as a virtual self-IPI).
    pub fn guest_access(
        &mut self,
        vm: VmId,
        vcpu: u32,
        cr3: Gpa,
        gva: Gva,
        write: bool,
        lane: Lane,
    ) -> Result<Result<GuestAccess, Fault>, MachineError> {
        let (mut mmu, _, _) = self.mmu_parts(vm, vcpu);
        mmu.lane = lane;
        let outcome = mmu.access(cr3, gva, write)?;
        match outcome {
            Ok(AccessOk { hpa, gpa, events }) => {
                // A TLB hit logs nothing, so there is nothing to dispatch.
                if !events.is_empty() {
                    self.dispatch_pml_events(vm, vcpu, &events, lane)?;
                }
                Ok(Ok(GuestAccess { hpa, gpa }))
            }
            // EPT-side split-on-dirty: a logged write hit a still-clean huge
            // EPT leaf. On real hardware this is an EPT-violation vmexit the
            // guest never sees — demote, fence, and retry the access. If the
            // retry faults again the fault is guest-PTE-side (a huge guest
            // leaf under EPML) and the guest kernel owns the demotion.
            Err(Fault::HugeDirtyWrite { gpa, .. })
                if self.is_huge_mapped(vm, gpa)? =>
            {
                self.demote_guest_region(vm, gpa, Lane::Hypervisor)?;
                let (mut mmu, _, _) = self.mmu_parts(vm, vcpu);
                mmu.lane = lane;
                match mmu.access(cr3, gva, write)? {
                    Ok(AccessOk { hpa, gpa, events }) => {
                        self.dispatch_pml_events(vm, vcpu, &events, lane)?;
                        Ok(Ok(GuestAccess { hpa, gpa }))
                    }
                    Err(fault) => Ok(Err(fault)),
                }
            }
            Err(fault) => Ok(Err(fault)),
        }
    }

    /// Guest-kernel-initiated guest-physical read (e.g. PTE reads).
    pub fn guest_phys_read_u64(
        &mut self,
        vm: VmId,
        vcpu: u32,
        gpa: Gpa,
        lane: Lane,
    ) -> Result<Result<u64, Fault>, MachineError> {
        let (mut mmu, _, _) = self.mmu_parts(vm, vcpu);
        mmu.lane = lane;
        mmu.read_guest_phys_u64(gpa)
    }

    /// Guest-kernel-initiated guest-physical write (e.g. PTE updates, ring
    /// buffer pushes) — goes through the PML circuit like any other store.
    pub fn guest_phys_write_u64(
        &mut self,
        vm: VmId,
        vcpu: u32,
        gpa: Gpa,
        value: u64,
        lane: Lane,
    ) -> Result<Result<(), Fault>, MachineError> {
        let mut events = Vec::new();
        let (mut mmu, _, _) = self.mmu_parts(vm, vcpu);
        mmu.lane = lane;
        let r = mmu.write_guest_phys_u64(gpa, value, &mut events)?;
        if r.is_ok() {
            self.dispatch_pml_events(vm, vcpu, &events, lane)?;
        }
        Ok(r)
    }

    fn dispatch_pml_events(
        &mut self,
        vm: VmId,
        vcpu: u32,
        events: &[PmlEvent],
        lane: Lane,
    ) -> Result<(), MachineError> {
        for &ev in events {
            match ev {
                PmlEvent::HypBufferFull => self.handle_pml_full(vm, vcpu, lane)?,
                PmlEvent::GuestBufferFull => {
                    // EPML: the hardware posts a virtual self-IPI straight to
                    // the guest; the hypervisor never runs.
                    self.ctx.charge(Lane::Kernel, Event::PmlSelfIpi);
                    let v = &mut self.vms[vm.0 as usize].vcpus[vcpu as usize];
                    v.post_interrupt(&self.ctx, Lane::Kernel, EPML_SELF_IPI_VECTOR);
                }
            }
        }
        Ok(())
    }

    /// The page-modification-log-full vmexit handler (the paper's modified
    /// Xen handler): drain the hardware buffer; route GPAs to the guest ring
    /// (if the guest registered) and/or the hypervisor's migration dirty set
    /// (if the hypervisor enabled PML for itself); clear the EPT dirty bits
    /// and stale TLB translations so the next write re-logs.
    pub fn handle_pml_full(
        &mut self,
        vm: VmId,
        vcpu: u32,
        lane: Lane,
    ) -> Result<(), MachineError> {
        let _span = self
            .ctx
            .span(ooh_sim::ScopeKind::Op, "pml_full_exit", u64::from(vcpu));
        self.ctx.charge(Lane::Hypervisor, Event::PmlBufferFullExit);
        self.drain_hyp_pml(vm, vcpu)?;
        self.ctx.charge(Lane::Hypervisor, Event::VmEntry);
        let _ = lane;
        Ok(())
    }

    /// Drain the hypervisor PML buffer of `vcpu`, routing entries per the
    /// coordination flags. Returns the number of entries processed.
    pub fn drain_hyp_pml(&mut self, vm: VmId, vcpu: u32) -> Result<u64, MachineError> {
        let phys = &mut self.machine.phys;
        let vmref = &mut self.vms[vm.0 as usize];
        let entries = {
            let vc = &mut vmref.vcpus[vcpu as usize];
            let Some(buf) = vc.pml.hyp.as_mut() else {
                return Ok(0);
            };
            buf.drain(phys)?
        };
        let n = entries.len() as u64;
        if n == 0 {
            return Ok(0);
        }
        let to_guest = vmref.spml.enabled_by_guest && vmref.spml.guest_logging_on;
        for &raw in &entries {
            let gpa = Gpa(raw);
            // Keep-huge expansion: the logged GPA is 4K-precise (real PML
            // logs precise addresses even under 2M mappings), but the D bit
            // lives on the region-wide entry — sibling pages written after
            // the 0→1 transition never logged. If the mapping is still huge
            // at drain time, the only sound reading is "the whole region is
            // dirty": route all 512 pages and reset the region once.
            let entry_dirty = vmref.ept.lookup(phys, gpa)?.map(|(_, e)| e);
            let huge = entry_dirty.is_some_and(|e| e.is_huge());
            let (first_page, page_count) = if huge {
                (gpa.huge_base().page(), ooh_machine::HUGE_PAGE_PAGES)
            } else {
                (gpa.page(), 1)
            };
            for page in first_page..first_page + page_count {
                if to_guest {
                    if let Some(ring) = vmref.spml.guest_ring.as_ref() {
                        self.ctx
                            .charge(Lane::Hypervisor, Event::RingBufferCopyEntry);
                        if !ring.push(phys, Gpa::from_page(page).raw())? {
                            self.ctx.charge(Lane::Hypervisor, Event::RingBufferOverflow);
                        }
                    }
                }
                if vmref.spml.enabled_by_hyp {
                    vmref.hyp_dirty.insert(page);
                }
                if vmref.wss_active {
                    vmref.wss_accessed.insert(page);
                    // Access entries and dirty entries share the log; consult
                    // the EPT D bit to classify.
                    if entry_dirty.is_some_and(|e| e.is_dirty()) {
                        vmref.wss_dirty.insert(page);
                    }
                }
            }
            // Reset per-round dirty state. The EPT D bit is VM-global: once
            // cleared, the next write from *any* vCPU must re-log, so every
            // vCPU — not just the one whose buffer filled — forgets the page
            // in both its TLB and its PML shadow. A remote core writing
            // through a stale dirty-marked translation would silently skip
            // the log. (For a huge entry this clears the region-wide bit
            // once but retires all 512 shadow pages.)
            vmref.ept.clear_dirty(phys, gpa)?;
            for vc in &mut vmref.vcpus {
                for page in first_page..first_page + page_count {
                    vc.pml.note_hyp_dirty_cleared(page);
                    vc.tlb.invalidate_gpa_page(page);
                }
            }
        }
        Ok(n)
    }

    /// Handle a hypercall from `vcpu` of `vm` (the guest OoH module is the
    /// only caller). Charges the Table-Va-calibrated costs.
    pub fn hypercall(
        &mut self,
        vm: VmId,
        vcpu: u32,
        call: Hypercall,
        lane: Lane,
    ) -> Result<HypercallResult, MachineError> {
        let _span = self
            .ctx
            .span(ooh_sim::ScopeKind::Op, call.name(), u64::from(vcpu));
        self.ctx.counters().add(Event::Hypercall, 1);
        match call {
            Hypercall::SpmlInit {
                ring_header,
                ring_data,
            } => {
                self.ctx.charge(lane, Event::HypercallInitPml);
                // Translate the guest-owned ring pages once; the hypervisor
                // writes through its HPA view from then on.
                let Some(header) = self.gpa_to_hpa(vm, ring_header)? else {
                    return Ok(HypercallResult::Invalid);
                };
                let mut data = Vec::with_capacity(ring_data.len());
                for g in ring_data {
                    match self.gpa_to_hpa(vm, g)? {
                        Some(h) => data.push(h),
                        None => return Ok(HypercallResult::Invalid),
                    }
                }
                let ring = RingView::attach(&self.machine.phys, header, data)?;
                let vmref = &mut self.vms[vm.0 as usize];
                vmref.spml.guest_ring = Some(ring);
                vmref.spml.enabled_by_guest = true;
                // Entering log-dirty service: reset accumulated EPT dirty
                // state so only *new* writes log (Xen does the same when it
                // begins a log-dirty epoch; the sweep is part of M9's cost).
                vmref.ept.clear_all_dirty(&mut self.machine.phys)?;
                for vc in &mut vmref.vcpus {
                    vc.tlb.flush_all();
                    vc.pml.shadow_reset_hyp();
                }
                vmref.sync_logging();
                Ok(HypercallResult::Ok)
            }
            Hypercall::SpmlDeactivate => {
                self.ctx.charge(lane, Event::HypercallDeactivatePml);
                let vmref = &mut self.vms[vm.0 as usize];
                vmref.spml.enabled_by_guest = false;
                vmref.spml.guest_logging_on = false;
                vmref.spml.guest_ring = None;
                for vc in &mut vmref.vcpus {
                    vc.pml.shadow_reset_hyp();
                }
                vmref.sync_logging();
                Ok(HypercallResult::Ok)
            }
            Hypercall::EnableLogging => {
                self.ctx.charge(lane, Event::HypercallEnableLogging);
                let vmref = &mut self.vms[vm.0 as usize];
                if !vmref.spml.enabled_by_guest {
                    return Ok(HypercallResult::Invalid);
                }
                vmref.spml.guest_logging_on = true;
                vmref.sync_logging();
                Ok(HypercallResult::Ok)
            }
            Hypercall::DisableLogging => {
                self.ctx.charge(lane, Event::HypercallDisableLogging);
                if !self.vms[vm.0 as usize].spml.enabled_by_guest {
                    return Ok(HypercallResult::Invalid);
                }
                // Flush whatever the buffer holds into the ring, then stop.
                self.drain_hyp_pml(vm, vcpu)?;
                let vmref = &mut self.vms[vm.0 as usize];
                vmref.spml.guest_logging_on = false;
                vmref.sync_logging();
                Ok(HypercallResult::Ok)
            }
            Hypercall::EpmlInit => {
                if !self.machine.config.epml {
                    return Ok(HypercallResult::Invalid);
                }
                self.ctx.charge(lane, Event::HypercallInitPmlShadow);
                let vc = &mut self.vms[vm.0 as usize].vcpus[vcpu as usize];
                vc.vmcs.attach_shadow(&[
                    Field::GuestPmlAddress,
                    Field::GuestPmlIndex,
                    Field::EpmlControl,
                ]);
                Ok(HypercallResult::Ok)
            }
            Hypercall::SppSetMask { gpa, mask } => {
                self.ctx.charge(lane, Event::SppUpdate);
                let vmref = &mut self.vms[vm.0 as usize];
                // The page must be guest RAM of this VM.
                if vmref.ept.translate(&self.machine.phys, gpa)?.is_none() {
                    return Ok(HypercallResult::Invalid);
                }
                vmref.spp_table.set_mask(gpa, mask);
                // Cached translations must re-walk so the new mask applies.
                for vc in &mut vmref.vcpus {
                    vc.tlb.invalidate_gpa_page(gpa.page());
                }
                Ok(HypercallResult::Ok)
            }
            Hypercall::SppClear { gpa } => {
                self.ctx.charge(lane, Event::SppUpdate);
                let vmref = &mut self.vms[vm.0 as usize];
                vmref.spp_table.clear(gpa);
                for vc in &mut vmref.vcpus {
                    vc.tlb.invalidate_gpa_page(gpa.page());
                }
                Ok(HypercallResult::Ok)
            }
            Hypercall::EpmlDeactivate => {
                self.ctx.charge(lane, Event::HypercallDeactivateShadow);
                let vc = &mut self.vms[vm.0 as usize].vcpus[vcpu as usize];
                vc.vmcs.detach_shadow();
                vc.sync_pml_from_vmcs();
                // Undrained guest-buffer entries die with the session; the
                // shadow must not outlive them (debug-invariants only).
                vc.pml.shadow_reset_guest();
                Ok(HypercallResult::Ok)
            }
        }
    }

    /// Execute a guest-mode `vmwrite` on `vcpu` (the OoH module's EPML hot
    /// path). Goes through the EPML-extended instruction semantics.
    pub fn guest_vmwrite(
        &mut self,
        vm: VmId,
        vcpu: u32,
        field: Field,
        value: u64,
        lane: Lane,
    ) -> Result<(), MachineError> {
        let vmref = &mut self.vms[vm.0 as usize];
        let vc = &mut vmref.vcpus[vcpu as usize];
        vc.vmwrite(
            &self.ctx,
            lane,
            field,
            value,
            &mut self.machine.phys,
            &mut vmref.ept,
        )
    }

    /// `debug-invariants` hook: the guest OoH module cleared the D bit of the
    /// guest PTE mapping `gva` (track-reset or guest-buffer drain). Keeps the
    /// PML shadow's "already logged" set in sync so a later 0→1 transition is
    /// not mistaken for a double-log. No-op unless the feature is enabled.
    pub fn note_guest_pte_dirty_cleared(&mut self, vm: VmId, vcpu: u32, gva: Gva) {
        self.vms[vm.0 as usize].vcpus[vcpu as usize]
            .pml
            .note_guest_dirty_cleared(gva.page());
    }

    /// Fold the model-observable state of one vCPU (plus its VM's SPML
    /// coordination flags and guest ring) into `h`. This is the machine half
    /// of the `ooh-model` explorer's state-hash deduplication key; clocks,
    /// event counters, and TLB hit/miss statistics are deliberately excluded
    /// because they never feed back into protocol decisions.
    pub fn hash_vm_state(
        &self,
        vm: VmId,
        vcpu: u32,
        h: &mut StateHasher,
    ) -> Result<(), MachineError> {
        let vmref = &self.vms[vm.0 as usize];
        let vc = &vmref.vcpus[vcpu as usize];
        h.write_u64(vc.cr3.raw());
        h.write_u64(vc.pending_vectors.len() as u64);
        for &vector in &vc.pending_vectors {
            h.write_u64(u64::from(vector));
        }
        h.write_bool(vmref.spml.enabled_by_guest);
        h.write_bool(vmref.spml.guest_logging_on);
        h.write_bool(vmref.spml.enabled_by_hyp);
        h.write_bool(vc.pml.hyp_logging);
        h.write_bool(vc.pml.guest_logging);
        match &vc.pml.hyp {
            Some(buf) => {
                h.write_bool(true);
                buf.hash_state(&self.machine.phys, h)?;
            }
            None => h.write_bool(false),
        }
        match &vc.pml.guest {
            Some(buf) => {
                h.write_bool(true);
                buf.hash_state(&self.machine.phys, h)?;
            }
            None => h.write_bool(false),
        }
        vc.tlb.hash_state(h);
        match vmref.spml.guest_ring.as_ref() {
            Some(ring) => {
                h.write_bool(true);
                ring.hash_state(&self.machine.phys, h)?;
            }
            None => h.write_bool(false),
        }
        Ok(())
    }

    /// Ring accessors through the hypervisor's physical view, so guest-side
    /// crates (which hold `RingView`s but must not touch host frames
    /// directly) can observe queue state for model properties.
    pub fn ring_len(&self, ring: &RingView) -> Result<u64, MachineError> {
        ring.len(&self.machine.phys)
    }

    /// Total entries the ring has dropped (see [`Self::ring_len`]).
    pub fn ring_dropped(&self, ring: &RingView) -> Result<u64, MachineError> {
        ring.dropped(&self.machine.phys)
    }

    /// Fold a ring's observable state into `h` (see [`Self::ring_len`]).
    pub fn hash_ring(&self, ring: &RingView, h: &mut StateHasher) -> Result<(), MachineError> {
        ring.hash_state(&self.machine.phys, h)
    }

    /// Interrupt vectors queued on `vcpu` but not yet delivered. The model
    /// checker uses this to decide whether an IPI-delivery step is enabled.
    pub fn pending_vector_count(&self, vm: VmId, vcpu: u32) -> usize {
        self.vms[vm.0 as usize].vcpus[vcpu as usize]
            .pending_vectors
            .len()
    }

    /// Free entry slots in the EPML guest buffer (`None` when EPML is not
    /// active on the vcpu). `Some(0)` means the next logged write takes the
    /// buffer-full path.
    pub fn guest_pml_free_slots(&self, vm: VmId, vcpu: u32) -> Option<u64> {
        let vc = &self.vms[vm.0 as usize].vcpus[vcpu as usize];
        vc.pml
            .guest
            .as_ref()
            .map(|buf| u64::from(PML_ENTRIES) - u64::from(buf.len()))
    }

    /// Free entry slots in the hypervisor PML buffer (`None` when absent).
    pub fn hyp_pml_free_slots(&self, vm: VmId, vcpu: u32) -> Option<u64> {
        let vc = &self.vms[vm.0 as usize].vcpus[vcpu as usize];
        vc.pml
            .hyp
            .as_ref()
            .map(|buf| u64::from(PML_ENTRIES) - u64::from(buf.len()))
    }

    /// Execute a guest-mode `vmread` on `vcpu`.
    pub fn guest_vmread(
        &mut self,
        vm: VmId,
        vcpu: u32,
        field: Field,
        lane: Lane,
    ) -> Result<u64, MachineError> {
        let vc = &mut self.vms[vm.0 as usize].vcpus[vcpu as usize];
        vc.vmread(&self.ctx, lane, field)
    }
}

impl std::fmt::Debug for Hypervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hypervisor")
            .field("vms", &self.vms.len())
            .field("config", &self.machine.config)
            .finish_non_exhaustive()
    }
}
