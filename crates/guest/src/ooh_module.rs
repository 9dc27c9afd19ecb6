//! The OoH kernel module — the guest-kernel half of the paper's UIO-style
//! library.
//!
//! Loaded once per guest; a tracker registers the PID it wants monitored via
//! the module's ioctl surface (wrapped by `ooh-core`'s userspace library).
//! The module:
//!
//! * allocates the **per-process ring buffer** in guest memory and shares it
//!   with userspace (and, under SPML, with the hypervisor);
//! * hooks the scheduler: on schedule-in/out of the tracked process it
//!   enables/disables address logging — via the `enable_logging` /
//!   `disable_logging` hypercalls under SPML, via a single shadow `vmwrite`
//!   under EPML;
//! * under EPML, owns the guest-level PML buffer (a guest page whose GPA it
//!   vmwrites into the `Guest PML Address` VMCS field) and handles the
//!   buffer-full virtual self-IPI by draining GVAs into the ring and
//!   clearing the guest PTE dirty bits so the next round re-logs.

use crate::kernel::{GuestError, GuestKernel};
use crate::process::Pid;
use ooh_hypervisor::{Hypercall, Hypervisor};
use ooh_machine::{Field, Gpa, Gva, Pte, RingView, PML_ENTRIES};
use ooh_sim::{Event, Lane};

/// Which OoH design the module operates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum OohMode {
    Spml,
    Epml,
}

/// Ring buffer size in data pages (512 entries each): 128 pages = the
/// paper's 512 KiB buffer, holding 65536 logged addresses (256 MiB of
/// distinct dirtied pages) between fetches.
pub const RING_DATA_PAGES: usize = 128;

/// The loaded module state.
pub struct OohModule {
    pub mode: OohMode,
    tracked: Option<Pid>,
    /// Guest pages backing the ring (header first), kept for teardown.
    ring_pages_gpa: Vec<Gpa>,
    /// The kernel's view of the ring (HPA-resolved at allocation time; ring
    /// pages are pinned, so the translation is stable).
    ring: RingView,
    /// EPML: per-vCPU guest-level PML buffer pages (GPA, module-owned),
    /// indexed by vCPU id. Each core logs into — and drains, via its own
    /// self-IPI — its own buffer; they are never shared across cores.
    guest_pml_gpas: Vec<Option<Gpa>>,
    /// Statistics: entries pushed into the ring by this module (EPML) or by
    /// the hypervisor on our behalf (SPML, counted at fetch).
    pub entries_logged: u64,
    /// Self-IPIs handled (EPML).
    pub self_ipis: u64,
    /// Drains at or below this entry count invalidate per page; above it,
    /// one full TLB flush (Linux's flush-threshold heuristic; ablatable).
    pub invlpg_threshold: u64,
}

impl OohModule {
    /// Load the module: allocates the shared ring in guest memory and
    /// performs the one-time hypervisor setup for `mode`. Charged as the
    /// paper's M3 wrapper around the M9/M10 hypercall.
    pub fn load(
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
        mode: OohMode,
    ) -> Result<OohModule, GuestError> {
        Self::load_with(kernel, hv, mode, RING_DATA_PAGES)
    }

    /// As [`load`](Self::load) with an explicit ring size (ablation knob).
    pub fn load_with(
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
        mode: OohMode,
        ring_data_pages: usize,
    ) -> Result<OohModule, GuestError> {
        let ctx = hv.ctx.clone();
        ctx.charge(Lane::Tracker, Event::IoctlInitPml);

        // Allocate the ring in guest memory: 1 header + N data pages.
        let mut ring_pages_gpa = Vec::with_capacity(1 + ring_data_pages);
        for _ in 0..1 + ring_data_pages {
            ring_pages_gpa.push(hv.alloc_guest_page(kernel.vm)?);
        }
        let header_hpa = hv
            .gpa_to_hpa(kernel.vm, ring_pages_gpa[0])?
            .expect("just mapped");
        let mut data_hpas = Vec::with_capacity(ring_data_pages);
        for g in &ring_pages_gpa[1..] {
            data_hpas.push(hv.gpa_to_hpa(kernel.vm, *g)?.expect("just mapped"));
        }
        let ring = RingView::create(&mut hv.machine.phys, header_hpa, data_hpas)?;

        let mut module = OohModule {
            mode,
            tracked: None,
            ring_pages_gpa,
            ring,
            guest_pml_gpas: vec![None; kernel.n_vcpus() as usize],
            entries_logged: 0,
            self_ipis: 0,
            invlpg_threshold: 64,
        };

        match mode {
            OohMode::Spml => {
                let call = Hypercall::SpmlInit {
                    ring_header: module.ring_pages_gpa[0],
                    ring_data: module.ring_pages_gpa[1..].to_vec(),
                };
                hv.hypercall(kernel.vm, kernel.vcpu, call, Lane::Tracker)?;
            }
            OohMode::Epml => {
                // One-time, per vCPU: enable VMCS shadowing (the only
                // hypercall EPML ever makes), then give every core its own
                // guest-level buffer with vmexit-free vmwrites. The tracked
                // process executes on its home vCPU, but the buffer-full
                // self-IPI is delivered to whichever core logged, so each
                // core must own a drainable buffer.
                for v in 0..kernel.n_vcpus() {
                    hv.hypercall(kernel.vm, v, Hypercall::EpmlInit, Lane::Tracker)?;
                    let buf_gpa = hv.alloc_guest_page(kernel.vm)?;
                    module.guest_pml_gpas[v as usize] = Some(buf_gpa);
                    hv.guest_vmwrite(
                        kernel.vm,
                        v,
                        Field::GuestPmlAddress,
                        buf_gpa.raw(),
                        Lane::Tracker,
                    )?;
                    hv.guest_vmwrite(
                        kernel.vm,
                        v,
                        Field::GuestPmlIndex,
                        (PML_ENTRIES - 1) as u64,
                        Lane::Tracker,
                    )?;
                }
            }
        }
        Ok(module)
    }

    /// Register the PID to monitor. Logging starts at its next schedule-in
    /// (or immediately if it is current).
    pub fn track(
        &mut self,
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
        pid: Pid,
    ) -> Result<(), GuestError> {
        self.tracked = Some(pid);
        // The ioctl runs on the tracked process's home core; the logging
        // state the hooks toggle lives in that vCPU's VMCS.
        kernel.vcpu = kernel.vcpu_of(pid);
        if self.mode == OohMode::Epml {
            // Reset the process's accumulated guest-PT dirty state so only
            // writes from now on log (the SPML equivalent happens inside the
            // hypervisor's init hypercall). Cost is covered by the module
            // ioctl (M3/M10) the tracker already paid.
            let resident: Vec<u64> = kernel
                .process(pid)?
                .resident
                .keys()
                .copied()
                .collect();
            // Huge regions visited once: the 512 resident pages of a region
            // share one leaf (and one D bit).
            let mut huge_done = std::collections::BTreeSet::new();
            for gva_page in resident {
                let gva = ooh_machine::Gva::from_page(gva_page);
                if let Some((slot, pte)) = kernel.pte_lookup(hv, pid, gva)? {
                    if pte.is_dirty() {
                        kernel.kernel_phys_write(hv, slot, pte.without(Pte::DIRTY).0)?;
                        for v in 0..kernel.n_vcpus() {
                            hv.note_guest_pte_dirty_cleared(kernel.vm, v, gva);
                        }
                    }
                } else if huge_done.insert(gva.huge_page()) {
                    if let Some((slot, hpte)) = kernel.huge_pte_lookup(hv, pid, gva)? {
                        if hpte.is_dirty() {
                            kernel.kernel_phys_write(hv, slot, hpte.without(Pte::DIRTY).0)?;
                            let base = gva.huge_base();
                            for i in 0..ooh_machine::HUGE_PAGE_PAGES {
                                let g = base.add(i * ooh_machine::PAGE_SIZE);
                                for v in 0..kernel.n_vcpus() {
                                    hv.note_guest_pte_dirty_cleared(kernel.vm, v, g);
                                }
                            }
                        }
                    }
                }
            }
            // The D-bit clears must be visible on every core.
            kernel.shootdown_all(hv);
        }
        if kernel.current() == Some(pid) {
            self.sched_in(kernel, hv)?;
        }
        Ok(())
    }

    /// Stop monitoring (tracker detached).
    pub fn untrack(
        &mut self,
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
    ) -> Result<(), GuestError> {
        if let Some(pid) = self.tracked.take() {
            kernel.vcpu = kernel.vcpu_of(pid);
            self.disable_logging(kernel, hv)?;
        }
        Ok(())
    }

    pub fn tracks(&self, pid: Pid) -> bool {
        self.tracked == Some(pid)
    }

    pub fn tracked(&self) -> Option<Pid> {
        self.tracked
    }

    /// The ring view userspace attaches to (UIO mmap of the same pages).
    pub fn ring(&self) -> &RingView {
        &self.ring
    }

    /// Scheduler hook: tracked process scheduled in.
    pub fn sched_in(
        &mut self,
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
    ) -> Result<(), GuestError> {
        match self.mode {
            OohMode::Spml => {
                hv.hypercall(kernel.vm, kernel.vcpu, Hypercall::EnableLogging, Lane::Kernel)?;
            }
            OohMode::Epml => {
                hv.guest_vmwrite(kernel.vm, kernel.vcpu, Field::EpmlControl, 1, Lane::Kernel)?;
            }
        }
        Ok(())
    }

    /// Scheduler hook: tracked process scheduled out.
    pub fn sched_out(
        &mut self,
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
    ) -> Result<(), GuestError> {
        self.disable_logging(kernel, hv)
    }

    fn disable_logging(
        &mut self,
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
    ) -> Result<(), GuestError> {
        match self.mode {
            OohMode::Spml => {
                // The hypervisor flushes the PML buffer into the ring as part
                // of the hypercall (the paper's M14).
                hv.hypercall(
                    kernel.vm,
                    kernel.vcpu,
                    Hypercall::DisableLogging,
                    Lane::Kernel,
                )?;
            }
            OohMode::Epml => {
                hv.guest_vmwrite(kernel.vm, kernel.vcpu, Field::EpmlControl, 0, Lane::Kernel)?;
                // Drain whatever the guest buffer holds so entries are not
                // misattributed to the next process.
                self.drain_guest_buffer(kernel, hv)?;
            }
        }
        Ok(())
    }

    /// Fetch-path flush: make sure everything logged so far is visible in
    /// the ring. Under SPML this is a `disable_logging`/`enable_logging`
    /// hypercall pair (the hypervisor drains the PML buffer as part of
    /// disable); under EPML the module drains its own guest-level buffer.
    pub fn flush(
        &mut self,
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
    ) -> Result<(), GuestError> {
        let Some(pid) = self.tracked else {
            return Ok(());
        };
        kernel.vcpu = kernel.vcpu_of(pid);
        match self.mode {
            OohMode::Spml => {
                let running = kernel.current() == Some(pid);
                hv.hypercall(
                    kernel.vm,
                    kernel.vcpu,
                    Hypercall::DisableLogging,
                    Lane::Tracker,
                )?;
                if running {
                    hv.hypercall(
                        kernel.vm,
                        kernel.vcpu,
                        Hypercall::EnableLogging,
                        Lane::Tracker,
                    )?;
                }
            }
            OohMode::Epml => {
                // The tracked process logs into its home vCPU's buffer, but
                // scheduling history may have left entries on other cores —
                // drain every per-vCPU buffer, then return to the home core.
                let entry_vcpu = kernel.vcpu;
                for v in 0..kernel.n_vcpus() {
                    kernel.vcpu = v;
                    self.drain_guest_buffer(kernel, hv)?;
                }
                kernel.vcpu = entry_vcpu;
            }
        }
        Ok(())
    }

    /// EPML buffer-full self-IPI handler.
    pub fn handle_self_ipi(
        &mut self,
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
    ) -> Result<(), GuestError> {
        self.self_ipis += 1;
        self.drain_guest_buffer(kernel, hv)
    }

    /// Drain the guest-level PML buffer: move logged GVAs into the ring,
    /// clear their guest PTE dirty bits, flush the TLB once, and reset the
    /// hardware index with a single vmwrite.
    fn drain_guest_buffer(
        &mut self,
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
    ) -> Result<(), GuestError> {
        if self.mode != OohMode::Epml {
            return Ok(());
        }
        // Each core drains its own buffer (the self-IPI handler runs on the
        // core whose buffer filled; `kernel.vcpu` names it here).
        let Some(buf_gpa) = self
            .guest_pml_gpas
            .get(kernel.vcpu as usize)
            .copied()
            .flatten()
        else {
            return Ok(());
        };
        let ctx = hv.ctx.clone();
        let _span = ctx.span(ooh_sim::ScopeKind::Op, "epml_drain", 0);

        // Read the hardware index (vmread — the paper's M7).
        let index = hv.guest_vmread(kernel.vm, kernel.vcpu, Field::GuestPmlIndex, Lane::Kernel)?;
        let count = if index >= PML_ENTRIES as u64 {
            PML_ENTRIES as u64 // wrapped: buffer full
        } else {
            (PML_ENTRIES - 1) as u64 - index
        };
        if count == 0 {
            return Ok(());
        }

        let Some(pid) = self.tracked else {
            // Nothing to attribute entries to; just reset. Dropping the
            // logged GVAs is deliberate here: with no tracked process the
            // entries have no consumer, and their pages' D bits stay set so
            // nothing is lost for a later track().
            hv.guest_vmwrite( // ooh-verify: allow(drain-before-clear)
                kernel.vm,
                kernel.vcpu,
                Field::GuestPmlIndex,
                (PML_ENTRIES - 1) as u64,
                Lane::Kernel,
            )?;
            return Ok(());
        };

        // Entries were written top-down from slot 511. Small drains
        // invalidate per page (Linux's flush threshold heuristic); big
        // drains do one full flush instead of hundreds of invlpgs.
        let per_page_invalidate = count <= self.invlpg_threshold;
        for k in 0..count {
            let slot = (PML_ENTRIES as u64 - 1) - k;
            let gva_raw = kernel.kernel_phys_read(hv, buf_gpa.add(slot * 8))?;
            let gva = Gva(gva_raw);

            // Keep-huge expansion: the logged GVA is the precise faulting
            // page, but when the mapping is still a 2M leaf its one D bit
            // spoke for the whole region — sibling writes after the 0→1
            // transition never logged. Surface all 512 pages to the ring
            // (cost-charged per copied entry, like the hypervisor's SPML
            // drain) and retire the region's dirty state once.
            let huge = match kernel.pte_lookup(hv, pid, gva)? {
                Some(_) => None,
                None => kernel.huge_pte_lookup(hv, pid, gva)?,
            };
            if let Some((hslot, hpte)) = huge {
                let base = gva.huge_base();
                for i in 0..ooh_machine::HUGE_PAGE_PAGES {
                    let g = base.add(i * ooh_machine::PAGE_SIZE);
                    ctx.charge(Lane::Kernel, Event::RingBufferCopyEntry);
                    if !self.ring.push(&mut hv.machine.phys, g.raw())? {
                        ctx.counters().add(Event::RingBufferOverflow, 1);
                    }
                    self.entries_logged += 1;
                }
                if hpte.is_dirty() {
                    kernel.kernel_phys_write(hv, hslot, hpte.without(Pte::DIRTY).0)?;
                    for i in 0..ooh_machine::HUGE_PAGE_PAGES {
                        let g = base.add(i * ooh_machine::PAGE_SIZE);
                        for v in 0..kernel.n_vcpus() {
                            hv.note_guest_pte_dirty_cleared(kernel.vm, v, g);
                        }
                    }
                }
                if per_page_invalidate {
                    // One shootdown drops the covering huge translation on
                    // every core.
                    kernel.shootdown_page(hv, base);
                }
                continue;
            }

            ctx.charge(Lane::Kernel, Event::RingBufferCopyEntry);
            if !self.ring.push(&mut hv.machine.phys, gva_raw)? {
                ctx.counters().add(Event::RingBufferOverflow, 1);
            }
            self.entries_logged += 1;
            // Clear the guest PTE dirty bit so the next write re-logs. The
            // PTE is shared by every core, so every vCPU's shadow — and,
            // below, every vCPU's TLB — must forget it.
            if let Some((slot_gpa, pte)) = kernel.pte_lookup(hv, pid, gva)? {
                if pte.is_dirty() {
                    kernel.kernel_phys_write(hv, slot_gpa, pte.without(Pte::DIRTY).0)?;
                    for v in 0..kernel.n_vcpus() {
                        hv.note_guest_pte_dirty_cleared(kernel.vm, v, gva);
                    }
                }
            }
            if per_page_invalidate {
                kernel.shootdown_page(hv, gva);
            }
        }
        if !per_page_invalidate {
            kernel.shootdown_all(hv);
        }

        // Reset the hardware index (vmwrite — M8).
        hv.guest_vmwrite(
            kernel.vm,
            kernel.vcpu,
            Field::GuestPmlIndex,
            (PML_ENTRIES - 1) as u64,
            Lane::Kernel,
        )?;
        Ok(())
    }

    /// Unload: deactivate the hypervisor side and release pages. Charged as
    /// the paper's M4 wrapper around M11/M12.
    pub fn unload(
        mut self,
        kernel: &mut GuestKernel,
        hv: &mut Hypervisor,
    ) -> Result<(), GuestError> {
        let ctx = hv.ctx.clone();
        ctx.charge(Lane::Tracker, Event::IoctlDeactivatePml);
        self.untrack(kernel, hv)?;
        match self.mode {
            OohMode::Spml => {
                hv.hypercall(
                    kernel.vm,
                    kernel.vcpu,
                    Hypercall::SpmlDeactivate,
                    Lane::Tracker,
                )?;
            }
            OohMode::Epml => {
                hv.guest_vmwrite(kernel.vm, kernel.vcpu, Field::EpmlControl, 0, Lane::Tracker)?;
                for v in 0..kernel.n_vcpus() {
                    hv.hypercall(kernel.vm, v, Hypercall::EpmlDeactivate, Lane::Tracker)?;
                }
                for slot in self.guest_pml_gpas.iter_mut() {
                    if let Some(g) = slot.take() {
                        hv.free_guest_page(kernel.vm, g)?;
                    }
                }
            }
        }
        for g in self.ring_pages_gpa.drain(..) {
            hv.free_guest_page(kernel.vm, g)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for OohModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OohModule")
            .field("mode", &self.mode)
            .field("tracked", &self.tracked)
            .field("entries_logged", &self.entries_logged)
            .field("self_ipis", &self.self_ipis)
            .finish_non_exhaustive()
    }
}
