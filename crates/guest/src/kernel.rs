//! The guest kernel: process lifecycle, page-table management, the page
//! fault handler (demand paging, soft-dirty re-protection, userfaultfd
//! delivery), and the memory-access API workloads run against.

use crate::ooh_module::OohModule;
use crate::process::{Pid, Process, Vma, VmaKind};
use crate::ufd::{Ufd, UfdEvent, UfdMode};
use ooh_hypervisor::{Hypervisor, VmId};
use ooh_machine::{
    Fault, Gpa, Gva, GvaRange, Hpa, MachineError, Pte, EPML_SELF_IPI_VECTOR, HUGE_PAGE_PAGES,
    HUGE_PAGE_SIZE, PAGE_SIZE,
};
use ooh_sim::{Event, Lane};

/// Guest-level errors.
#[derive(Debug)]
pub enum GuestError {
    /// Access outside any VMA or violating VMA permissions.
    Segfault { pid: Pid, gva: Gva },
    /// Write into a guarded region: a heap-overflow detection, either from
    /// an SPP sub-page guard or a classic guard page.
    GuardViolation {
        pid: Pid,
        gva: Gva,
        /// SPP sub-page index, or None for a whole guard page.
        subpage: Option<u32>,
    },
    /// No such process.
    NoProcess(Pid),
    /// A fault could not be resolved after repeated attempts (model bug).
    FaultLoop { pid: Pid, gva: Gva },
    /// Underlying machine error (OOM etc.).
    Machine(MachineError),
}

impl From<MachineError> for GuestError {
    fn from(e: MachineError) -> Self {
        GuestError::Machine(e)
    }
}

impl std::fmt::Display for GuestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuestError::Segfault { pid, gva } => write!(f, "segfault in {pid} at {gva}"),
            GuestError::GuardViolation { pid, gva, subpage } => match subpage {
                Some(s) => write!(f, "overflow into SPP sub-page guard in {pid} at {gva} (sub-page {s})"),
                None => write!(f, "overflow into guard page in {pid} at {gva}"),
            },
            GuestError::NoProcess(pid) => write!(f, "no such process {pid}"),
            GuestError::FaultLoop { pid, gva } => {
                write!(f, "unresolvable fault loop in {pid} at {gva}")
            }
            GuestError::Machine(e) => write!(f, "machine error: {e}"),
        }
    }
}

impl std::error::Error for GuestError {}

/// The guest operating system state for one VM.
///
/// SMP model: the kernel owns `n_vcpus` virtual CPUs. Every process gets a
/// *home vCPU* at spawn time (deterministic round-robin over spawn order)
/// and all of its user-mode execution — stores, loads, faults, procfs
/// syscalls — runs there, which is where its translations get cached and
/// its PML/EPML entries get logged. `vcpu` always names the vCPU currently
/// executing kernel code; syscall-style entry points switch it to the
/// calling process's home vCPU.
pub struct GuestKernel {
    pub vm: VmId,
    /// The vCPU currently executing (kernel or user) code.
    pub vcpu: u32,
    /// Number of vCPUs this kernel schedules across.
    n_vcpus: u32,
    processes: std::collections::BTreeMap<Pid, Process>,
    next_pid: u32,
    /// Open userfaultfd objects.
    pub ufds: Vec<Ufd>,
    /// The OoH kernel module, once loaded.
    pub ooh: Option<OohModule>,
    /// Per-vCPU currently scheduled process.
    current: Vec<Option<Pid>>,
    /// Round-robin cursor for spawn placement.
    next_placement: u32,
    /// Timer ticks delivered so far (drives the tick → vCPU rotation).
    timer_ticks: u64,
    /// Total context switches performed (the paper's N).
    pub context_switches: u64,
    /// Transparent-huge-page policy: when on, large writable anonymous
    /// mmaps become huge-eligible VMAs and not-present faults on them
    /// install 2M leaves. Off by default — all pre-existing behavior
    /// (including every logged address and cost) is unchanged.
    pub huge_policy: bool,
}

impl GuestKernel {
    /// A single-vCPU kernel (the paper's baseline setup).
    pub fn new(vm: VmId) -> Self {
        Self::with_vcpus(vm, 1)
    }

    /// An SMP kernel scheduling across `n_vcpus` vCPUs. The VM passed in
    /// must have been created with at least as many vCPUs.
    pub fn with_vcpus(vm: VmId, n_vcpus: u32) -> Self {
        let n = n_vcpus.max(1);
        Self {
            vm,
            vcpu: 0,
            n_vcpus: n,
            processes: std::collections::BTreeMap::new(),
            next_pid: 1,
            ufds: Vec::new(),
            ooh: None,
            current: vec![None; n as usize],
            next_placement: 0,
            timer_ticks: 0,
            context_switches: 0,
            huge_policy: false,
        }
    }

    /// Number of vCPUs this kernel schedules across.
    pub fn n_vcpus(&self) -> u32 {
        self.n_vcpus
    }

    /// The home vCPU `pid` was placed on at spawn (current vCPU if unknown).
    pub fn vcpu_of(&self, pid: Pid) -> u32 {
        self.processes.get(&pid).map_or(self.vcpu, |p| p.home_vcpu)
    }

    /// Switch execution to `pid`'s home vCPU (syscall entry on its core).
    fn run_on_home_vcpu(&mut self, pid: Pid) {
        self.vcpu = self.vcpu_of(pid);
    }

    // --- process lifecycle -------------------------------------------------

    /// Create a process: allocates its page-table root and places it on the
    /// next vCPU in deterministic round-robin order.
    pub fn spawn(&mut self, hv: &mut Hypervisor) -> Result<Pid, GuestError> {
        let vcpu = self.next_placement % self.n_vcpus;
        self.next_placement += 1;
        self.spawn_on(hv, vcpu)
    }

    /// Create a process pinned to `vcpu` (taskset-style explicit placement).
    pub fn spawn_on(&mut self, hv: &mut Hypervisor, vcpu: u32) -> Result<Pid, GuestError> {
        debug_assert!(vcpu < self.n_vcpus, "vCPU {vcpu} out of range");
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let cr3 = hv.alloc_guest_page(self.vm)?;
        let mut proc = Process::new(pid, cr3);
        proc.pt_pages.push(cr3);
        proc.home_vcpu = vcpu;
        self.processes.insert(pid, proc);
        if self.current[vcpu as usize].is_none() {
            self.current[vcpu as usize] = Some(pid);
            let ctx = hv.ctx.clone();
            hv.vm_mut(self.vm).vcpus[vcpu as usize].set_cr3(&ctx, Lane::Kernel, cr3);
        }
        Ok(pid)
    }

    /// Tear a process down, freeing its data and page-table pages.
    pub fn exit(&mut self, hv: &mut Hypervisor, pid: Pid) -> Result<(), GuestError> {
        let proc = self
            .processes
            .remove(&pid)
            .ok_or(GuestError::NoProcess(pid))?;
        for (_, gpa_page) in proc.resident.iter() {
            hv.free_guest_page(self.vm, Gpa::from_page(*gpa_page))?;
        }
        for gpa in proc.pt_pages {
            hv.free_guest_page(self.vm, gpa)?;
        }
        for slot in self.current.iter_mut() {
            if *slot == Some(pid) {
                *slot = None;
            }
        }
        Ok(())
    }

    pub fn process(&self, pid: Pid) -> Result<&Process, GuestError> {
        self.processes.get(&pid).ok_or(GuestError::NoProcess(pid))
    }

    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, GuestError> {
        self.processes
            .get_mut(&pid)
            .ok_or(GuestError::NoProcess(pid))
    }

    pub fn pids(&self) -> Vec<Pid> {
        self.processes.keys().copied().collect()
    }

    /// The process running on the currently executing vCPU.
    pub fn current(&self) -> Option<Pid> {
        self.current[self.vcpu as usize]
    }

    /// The process running on `vcpu`.
    pub fn current_on(&self, vcpu: u32) -> Option<Pid> {
        self.current.get(vcpu as usize).copied().flatten()
    }

    // --- memory mapping -----------------------------------------------------

    /// mmap: reserve `pages` pages (lazy; PTEs appear on first touch).
    ///
    /// Under [`Self::huge_policy`], writable anonymous/GC-heap mappings of
    /// at least one 2M region become huge-eligible: the reservation is
    /// 2M-aligned and faults install 2M leaves where a full region fits.
    /// Stacks stay 4K (they grow a page at a time and their guard
    /// interactions want page granularity).
    pub fn mmap(
        &mut self,
        pid: Pid,
        pages: u64,
        writable: bool,
        kind: VmaKind,
    ) -> Result<GvaRange, GuestError> {
        let huge = self.huge_policy
            && writable
            && pages >= HUGE_PAGE_PAGES
            && matches!(kind, VmaKind::Anon | VmaKind::GcHeap);
        let proc = self.process_mut(pid)?;
        Ok(if huge {
            proc.reserve_vma_huge(pages, writable, kind)
        } else {
            proc.reserve_vma(pages, writable, kind)
        })
    }

    /// munmap: drop the VMA and free its resident pages and PTEs, then
    /// shoot the stale translations down on *every* vCPU — the PTE teardown
    /// is globally visible, so a single-vCPU flush would leave other cores
    /// free to write through (and dirty-log against) dead translations.
    pub fn munmap(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        range: GvaRange,
    ) -> Result<(), GuestError> {
        self.run_on_home_vcpu(pid);
        let vm = self.vm;
        let vma = {
            let proc = self.process_mut(pid)?;
            let Some(vma) = proc.remove_vma(range) else {
                return Err(GuestError::Segfault {
                    pid,
                    gva: range.start,
                });
            };
            vma
        };
        let n_vcpus = self.n_vcpus;
        // Still-huge regions first. The level-1 leaf is ONE PTE covering 512
        // pages: its dirty bit speaks for every covered frame, so the shadow
        // must retire all of them before the slot is destroyed — clearing
        // only the faulting page (the pre-fix behavior of the 4K loop below,
        // which cannot even see a huge leaf) leaves 511 frames falsely
        // "already logged" when their GPAs are recycled.
        if vma.huge {
            let mut base = Gva(range.start.raw().next_multiple_of(HUGE_PAGE_SIZE));
            while base.add(HUGE_PAGE_SIZE).raw() <= range.end().raw() {
                if let Some((slot, hpte)) = self.huge_pte_lookup(hv, pid, base)? {
                    if hpte.is_dirty() {
                        for i in 0..HUGE_PAGE_PAGES {
                            let g = base.add(i * PAGE_SIZE);
                            for v in 0..n_vcpus {
                                hv.note_guest_pte_dirty_cleared(vm, v, g);
                            }
                        }
                    }
                    self.kernel_phys_write(hv, slot, Pte::empty().0)?;
                    for i in 0..HUGE_PAGE_PAGES {
                        let freed = self
                            .process_mut(pid)?
                            .unmap_resident(base.page() + i);
                        if let Some(gpa_page) = freed {
                            hv.free_guest_page(vm, Gpa::from_page(gpa_page))?;
                        }
                    }
                }
                base = base.add(HUGE_PAGE_SIZE);
            }
        }
        for gva in range.iter_pages().collect::<Vec<_>>() {
            if let Some((slot, pte)) = self.pte_lookup(hv, pid, gva)? {
                if pte.is_present() {
                    // The PTE (and with it any set dirty bit) is going away:
                    // tell every vCPU's PML shadow, or the page would
                    // false-panic as "logged twice" when the GVA/GPA is
                    // recycled and dirtied again under debug-invariants.
                    if pte.is_dirty() {
                        for v in 0..n_vcpus {
                            hv.note_guest_pte_dirty_cleared(vm, v, gva);
                        }
                    }
                    self.kernel_phys_write(hv, slot, Pte::empty().0)?;
                    let proc = self.process_mut(pid)?;
                    if let Some(gpa_page) = proc.unmap_resident(gva.page()) {
                        hv.free_guest_page(vm, Gpa::from_page(gpa_page))?;
                    }
                }
            }
        }
        self.shootdown_all(hv);
        Ok(())
    }

    // --- page-table plumbing (kernel privilege) ------------------------------

    /// Raw guest-physical read used for PTE access (kernel mapped the PT
    /// pages; cost is covered by the metric of whichever operation drives
    /// this — clear_refs, pagemap, fault handling).
    pub fn kernel_phys_read(&self, hv: &mut Hypervisor, gpa: Gpa) -> Result<u64, GuestError> {
        match hv.guest_phys_read_u64(self.vm, self.vcpu, gpa, Lane::Kernel)? {
            Ok(v) => Ok(v),
            Err(_) => Err(GuestError::Machine(MachineError::BadFrame {
                hpa: Hpa(gpa.raw()),
            })),
        }
    }

    /// Raw guest-physical write for PTE updates (goes through the PML
    /// circuit like real page-table stores do).
    pub fn kernel_phys_write(
        &self,
        hv: &mut Hypervisor,
        gpa: Gpa,
        value: u64,
    ) -> Result<(), GuestError> {
        match hv.guest_phys_write_u64(self.vm, self.vcpu, gpa, value, Lane::Kernel)? {
            Ok(()) => Ok(()),
            Err(_) => Err(GuestError::Machine(MachineError::BadFrame {
                hpa: Hpa(gpa.raw()),
            })),
        }
    }

    /// Walk to the leaf PTE slot for (`pid`, `gva`); when `alloc`, missing
    /// intermediate page-table pages are allocated (and recorded for
    /// teardown).
    fn pte_slot(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        alloc: bool,
    ) -> Result<Option<Gpa>, GuestError> {
        let cr3 = self.process(pid)?.cr3;
        let mut table = cr3;
        for level in (1..4).rev() {
            let slot = table.add(gva.pt_index(level) as u64 * 8);
            let entry = Pte(self.kernel_phys_read(hv, slot)?);
            if level == 1 && entry.is_present() && entry.is_huge() {
                // A 2M leaf terminates the walk: there is no level-0 slot
                // under it. Callers that understand huge mappings go through
                // [`Self::huge_pte_lookup`] instead.
                return Ok(None);
            }
            table = if entry.is_present() {
                entry.frame()
            } else if alloc {
                let page = hv.alloc_guest_page(self.vm)?;
                self.process_mut(pid)?.pt_pages.push(page);
                self.kernel_phys_write(hv, slot, Pte::table(page).0)?;
                page
            } else {
                return Ok(None);
            };
        }
        Ok(Some(table.add(gva.pt_index(0) as u64 * 8)))
    }

    /// Walk to the *level-1* slot for (`pid`, `gva`) — where a 2M leaf (or
    /// the pointer to its 4K table) lives. With `alloc`, missing level-3/2
    /// tables are allocated.
    fn huge_pte_slot(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        alloc: bool,
    ) -> Result<Option<Gpa>, GuestError> {
        let cr3 = self.process(pid)?.cr3;
        let mut table = cr3;
        for level in (2..4).rev() {
            let slot = table.add(gva.pt_index(level) as u64 * 8);
            let entry = Pte(self.kernel_phys_read(hv, slot)?);
            table = if entry.is_present() {
                entry.frame()
            } else if alloc {
                let page = hv.alloc_guest_page(self.vm)?;
                self.process_mut(pid)?.pt_pages.push(page);
                self.kernel_phys_write(hv, slot, Pte::table(page).0)?;
                page
            } else {
                return Ok(None);
            };
        }
        Ok(Some(table.add(gva.pt_index(1) as u64 * 8)))
    }

    /// Read the 2M leaf covering `gva` (level-1 slot address + value), if
    /// one is installed. Returns `None` when the region is unmapped or
    /// mapped through a 4K table.
    pub fn huge_pte_lookup(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
    ) -> Result<Option<(Gpa, Pte)>, GuestError> {
        match self.huge_pte_slot(hv, pid, gva, false)? {
            Some(slot) => {
                let pte = Pte(self.kernel_phys_read(hv, slot)?);
                if pte.is_present() && pte.is_huge() {
                    Ok(Some((slot, pte)))
                } else {
                    Ok(None)
                }
            }
            None => Ok(None),
        }
    }

    /// Read the leaf PTE for `gva` (slot address + value), if the table
    /// path exists.
    pub fn pte_lookup(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
    ) -> Result<Option<(Gpa, Pte)>, GuestError> {
        match self.pte_slot(hv, pid, gva, false)? {
            Some(slot) => {
                let pte = Pte(self.kernel_phys_read(hv, slot)?);
                Ok(Some((slot, pte)))
            }
            None => Ok(None),
        }
    }

    /// Install a leaf PTE, creating intermediate tables.
    pub fn install_pte(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        pte: Pte,
    ) -> Result<(), GuestError> {
        let slot = self
            .pte_slot(hv, pid, gva, true)?
            .expect("alloc=true yields a slot");
        self.kernel_phys_write(hv, slot, pte.0)
    }

    // --- the page fault handler ------------------------------------------------

    fn handle_fault(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        fault: Fault,
        lane: Lane,
    ) -> Result<(), GuestError> {
        match fault {
            Fault::NotPresent { gva, .. } => self.fault_not_present(hv, pid, gva, lane),
            Fault::WriteProtected { gva } => self.fault_write_protect(hv, pid, gva, lane),
            Fault::HugeDirtyWrite { gva, .. } => {
                // Split-on-dirty: the first logged write to a huge mapping
                // demotes it to 4K before any D bit is set or entry logged,
                // so the retried store logs a precise 4K address.
                self.demote_huge(hv, pid, gva)?;
                Ok(())
            }
            Fault::EptViolation { .. } => {
                // Guest RAM is pre-populated; an EPT violation means a model
                // bug, surface it hard.
                Err(GuestError::Machine(MachineError::BadFrame {
                    hpa: Hpa(0),
                }))
            }
            Fault::SppViolation { gva, subpage, .. } => {
                // Overflow detection: deliver synchronously to the owner
                // (the secure allocator's SIGSEGV handler analog).
                hv.ctx.charge(Lane::Kernel, Event::SppViolationFault);
                hv.ctx.charge(Lane::Kernel, Event::ContextSwitch);
                Err(GuestError::GuardViolation {
                    pid,
                    gva,
                    subpage: Some(subpage),
                })
            }
        }
    }

    fn fault_not_present(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        _lane: Lane,
    ) -> Result<(), GuestError> {
        let Some(vma) = self.process(pid)?.vma_for(gva).cloned() else {
            return Err(GuestError::Segfault { pid, gva });
        };

        // Huge-eligible fault: the region containing `gva` lies fully inside
        // a huge VMA (tails shorter than 2M stay 4K) and no missing-mode
        // userfaultfd wants page-granular notification for it.
        if vma.huge {
            let base = gva.huge_base();
            let region_end = base.add(HUGE_PAGE_SIZE);
            let fully_inside =
                base.raw() >= vma.range.start.raw() && region_end.raw() <= vma.range.end().raw();
            let ufd_covered = self
                .ufds
                .iter()
                .any(|u| u.pid == pid && u.mode == UfdMode::Missing && u.covers(gva));
            if fully_inside && !ufd_covered {
                return self.fault_huge_not_present(hv, pid, &vma, base);
            }
        }

        // userfaultfd missing-mode: the fault is resolved by the tracker in
        // userspace (UFFDIO_ZEROPAGE); Tracked pays the full round trip.
        let ufd_missing = self
            .ufds
            .iter_mut()
            .find(|u| u.pid == pid && u.mode == UfdMode::Missing && u.covers(gva));
        if let Some(ufd) = ufd_missing {
            ufd.deliver(UfdEvent {
                pid,
                gva: gva.page_base(),
                write: false,
            });
            hv.ctx.charge(Lane::Kernel, Event::UfdEventDelivered);
            hv.ctx.charge_n(Lane::Kernel, Event::ContextSwitch, 2);
            hv.ctx.charge(Lane::Tracker, Event::PageFaultUser);
        } else {
            // Ordinary demand-zero fault, handled in the kernel.
            hv.ctx.charge(Lane::Kernel, Event::PageFaultKernel);
            hv.ctx.charge(Lane::Kernel, Event::ContextSwitch);
        }

        let data = hv.alloc_guest_page(self.vm)?;
        let mut flags = Pte::USER | Pte::ACCESSED | Pte::SOFT_DIRTY;
        if vma.writable {
            flags |= Pte::WRITABLE;
        }
        self.install_pte(hv, pid, gva, Pte::leaf(data, flags))?;
        self.process_mut(pid)?
            .map_resident(gva.page(), data.page());
        Ok(())
    }

    /// Resolve a not-present fault with one 2M mapping: a single kernel
    /// fault populates 512 pages (the hugepage win — one fault, one PTE,
    /// one TLB entry per region).
    fn fault_huge_not_present(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        vma: &Vma,
        base: Gva,
    ) -> Result<(), GuestError> {
        hv.ctx.charge(Lane::Kernel, Event::PageFaultKernel);
        hv.ctx.charge(Lane::Kernel, Event::ContextSwitch);
        let data = hv.alloc_guest_huge_region(self.vm)?;
        let mut flags = Pte::USER | Pte::ACCESSED | Pte::SOFT_DIRTY;
        if vma.writable {
            flags |= Pte::WRITABLE;
        }
        let slot = self
            .huge_pte_slot(hv, pid, base, true)?
            .expect("alloc=true yields a slot");
        self.kernel_phys_write(hv, slot, Pte::huge_leaf(data, flags).0)?;
        // Residency is tracked per 4K page even under a huge mapping: the
        // backing GPAs are contiguous, so pagemap, reverse mapping, and
        // checkpointing see exactly what 512 individual faults would have
        // produced.
        let proc = self.process_mut(pid)?;
        for i in 0..HUGE_PAGE_PAGES {
            proc.map_resident(base.page() + i, data.page() + i);
        }
        Ok(())
    }

    /// Demote the 2M guest mapping covering `gva` to a freshly built 4K
    /// table (split-on-dirty, or a tracker needing page-granular
    /// protection). The 512 inherited leaves keep the huge leaf's flags and
    /// A/D state; the EPT side is demoted too if still huge. Ends with a
    /// cross-vCPU shootdown of the covering translation and a reverse-map
    /// generation bump. Idempotent: returns false if no huge mapping covers
    /// `gva`.
    pub fn demote_huge(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
    ) -> Result<bool, GuestError> {
        let base = gva.huge_base();
        let Some((slot, hpte)) = self.huge_pte_lookup(hv, pid, base)? else {
            return Ok(false);
        };
        let ctx = hv.ctx.clone();
        ctx.charge(Lane::Kernel, Event::PageFaultKernel);
        ctx.charge(Lane::Kernel, Event::ContextSwitch);
        // Build the 4K table: 512 leaves inheriting flags + A/D from the
        // huge leaf, each retargeted to its slice of the backing region.
        let table = hv.alloc_guest_page(self.vm)?;
        self.process_mut(pid)?.pt_pages.push(table);
        ctx.charge_n(Lane::Kernel, Event::ClearRefsPte, HUGE_PAGE_PAGES);
        let proto = hpte.without(Pte::PS);
        for i in 0..HUGE_PAGE_PAGES {
            let leaf = proto.retarget(hpte.frame().add(i * PAGE_SIZE));
            self.kernel_phys_write(hv, table.add(i * 8), leaf.0)?;
        }
        self.kernel_phys_write(hv, slot, Pte::table(table).0)?;
        // The EPT mapping demotes with us when still huge (its own fault
        // would otherwise fire on the retried write anyway).
        hv.demote_guest_region(self.vm, hpte.frame(), Lane::Kernel)?;
        // The edit replaces a live translation: every core must drop the
        // covering huge entry before anyone can walk the new table.
        self.shootdown_page(hv, base);
        // Reverse-map caches built while the region was huge are stale.
        self.process_mut(pid)?.bump_map_generation();
        Ok(true)
    }

    fn fault_write_protect(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        _lane: Lane,
    ) -> Result<(), GuestError> {
        let Some((slot, pte)) = self.pte_lookup(hv, pid, gva)? else {
            // A protection fault on a still-huge mapping resolves at 2M
            // granularity: restore write access on the one covering leaf
            // (soft-dirty keeps working — the region re-marks as a whole).
            if let Some((hslot, hpte)) = self.huge_pte_lookup(hv, pid, gva)? {
                let vma_writable = self
                    .process(pid)?
                    .vma_for(gva)
                    .map(|v| v.writable)
                    .unwrap_or(false);
                if !hpte.is_writable() && vma_writable && !hpte.is_uffd_wp() && !hpte.is_guard() {
                    hv.ctx.charge(Lane::Kernel, Event::PageFaultKernel);
                    hv.ctx.charge(Lane::Kernel, Event::ContextSwitch);
                    self.kernel_phys_write(
                        hv,
                        hslot,
                        hpte.with(Pte::WRITABLE | Pte::SOFT_DIRTY).0,
                    )?;
                    self.invlpg(hv, gva.huge_base());
                    return Ok(());
                }
            }
            return Err(GuestError::Segfault { pid, gva });
        };
        let vma_writable = self
            .process(pid)?
            .vma_for(gva)
            .map(|v| v.writable)
            .unwrap_or(false);

        // Classic guard page (heap canary): never fixed up.
        if pte.is_guard() {
            hv.ctx.charge(Lane::Kernel, Event::PageFaultKernel);
            hv.ctx.charge(Lane::Kernel, Event::ContextSwitch);
            return Err(GuestError::GuardViolation {
                pid,
                gva,
                subpage: None,
            });
        }

        // userfaultfd write-protect mode: deliver to the tracker, which
        // records the dirty address and write-unprotects (the paper's M6
        // path — the costly one).
        if pte.is_uffd_wp() {
            let ufd = self
                .ufds
                .iter_mut()
                .find(|u| u.pid == pid && u.mode == UfdMode::WriteProtect && u.covers(gva));
            if let Some(ufd) = ufd {
                ufd.deliver(UfdEvent {
                    pid,
                    gva: gva.page_base(),
                    write: true,
                });
                hv.ctx.charge(Lane::Kernel, Event::UfdEventDelivered);
                hv.ctx.charge_n(Lane::Kernel, Event::ContextSwitch, 2);
                hv.ctx.charge(Lane::Tracker, Event::PageFaultUser);
                hv.ctx.charge(Lane::Tracker, Event::UfdWriteUnprotectPage);
            }
            // Resolve: clear the WP marker (UFFDIO_WRITEPROTECT with
            // mode=0 from the tracker, or implicit if nobody listens).
            self.kernel_phys_write(hv, slot, pte.without(Pte::UFFD_WP).0)?;
            self.invlpg(hv, gva);
            return Ok(());
        }

        // Soft-dirty re-protection fault: the kernel restores write access
        // and marks the PTE soft-dirty (Linux's clear_refs machinery).
        if !pte.is_writable() && vma_writable {
            hv.ctx.charge(Lane::Kernel, Event::PageFaultKernel);
            hv.ctx.charge(Lane::Kernel, Event::ContextSwitch);
            self.kernel_phys_write(hv, slot, pte.with(Pte::WRITABLE | Pte::SOFT_DIRTY).0)?;
            self.invlpg(hv, gva);
            return Ok(());
        }

        Err(GuestError::Segfault { pid, gva })
    }

    /// Single-page TLB invalidation on the local vCPU.
    pub fn invlpg(&self, hv: &mut Hypervisor, gva: Gva) {
        let ctx = hv.ctx.clone();
        ctx.charge(Lane::Kernel, Event::TlbInvlpg);
        hv.vm_mut(self.vm).vcpus[self.vcpu as usize].tlb.invlpg(gva);
    }

    /// Full TLB flush on the local vCPU.
    pub fn flush_tlb(&self, hv: &mut Hypervisor) {
        let ctx = hv.ctx.clone();
        ctx.charge(Lane::Kernel, Event::TlbFlush);
        hv.vm_mut(self.vm).vcpus[self.vcpu as usize]
            .tlb
            .flush_all();
    }

    /// Cross-vCPU single-page TLB shootdown: invlpg locally, then send a
    /// shootdown IPI to every other vCPU. Each remote core drops the
    /// translation; the initiating kernel lane pays one calibrated IPI cost
    /// per remote core (send, remote handler, wait-for-ack). With one vCPU
    /// this degenerates to a plain local invlpg.
    pub fn shootdown_page(&self, hv: &mut Hypervisor, gva: Gva) {
        self.invlpg(hv, gva);
        let ctx = hv.ctx.clone();
        for v in 0..self.n_vcpus {
            if v == self.vcpu {
                continue;
            }
            ctx.charge(Lane::Kernel, Event::TlbShootdownIpi);
            hv.vm_mut(self.vm).vcpus[v as usize].tlb.shootdown_invlpg(gva);
        }
    }

    /// Cross-vCPU full-flush shootdown (munmap / clear_refs batches): flush
    /// locally, then IPI every other vCPU to flush too. With one vCPU this
    /// degenerates to a plain local flush.
    pub fn shootdown_all(&self, hv: &mut Hypervisor) {
        self.flush_tlb(hv);
        let ctx = hv.ctx.clone();
        for v in 0..self.n_vcpus {
            if v == self.vcpu {
                continue;
            }
            ctx.charge(Lane::Kernel, Event::TlbShootdownIpi);
            hv.vm_mut(self.vm).vcpus[v as usize].tlb.shootdown_flush_all();
        }
    }

    // --- the access path ----------------------------------------------------------

    /// Translate + access one byte address, resolving faults like a real
    /// kernel would, then service any pending interrupts (EPML self-IPIs).
    pub fn access(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        write: bool,
        lane: Lane,
    ) -> Result<Hpa, GuestError> {
        let hpa = self.access_no_irq(hv, pid, gva, write, lane)?;
        self.poll_interrupts(hv)?;
        Ok(hpa)
    }

    /// [`Self::access`] without the interrupt poll: the access completes and
    /// any posted self-IPI stays pending. This is the model checker's step
    /// surface — it lets the explorer schedule IPI delivery as its own step
    /// and so enumerate the store/IPI interleavings that `access` (which
    /// services interrupts immediately, like an interruptible kernel path)
    /// never produces. Normal workloads should use `access`.
    pub fn access_no_irq(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        write: bool,
        lane: Lane,
    ) -> Result<Hpa, GuestError> {
        let proc = self.process(pid)?;
        let cr3 = proc.cr3;
        self.vcpu = proc.home_vcpu;
        for _attempt in 0..8 {
            match hv.guest_access(self.vm, self.vcpu, cr3, gva, write, lane)? {
                Ok(acc) => return Ok(acc.hpa),
                Err(fault) => self.handle_fault(hv, pid, fault, lane)?,
            }
        }
        Err(GuestError::FaultLoop { pid, gva })
    }

    /// Service pending posted interrupts (the EPML buffer-full self-IPI) on
    /// every vCPU. Each vCPU drains its *own* guest-level PML buffer — the
    /// self-IPI is posted to the core whose buffer filled, and the handler
    /// runs there (`self.vcpu` is switched for the duration so the module
    /// drains the right buffer).
    pub fn poll_interrupts(&mut self, hv: &mut Hypervisor) -> Result<(), GuestError> {
        // The common case on every access: nothing posted anywhere.
        let vcpus = &hv.vm(self.vm).vcpus;
        if vcpus.iter().all(|v| v.pending_vectors.is_empty()) {
            return Ok(());
        }
        let entry_vcpu = self.vcpu;
        for v in 0..self.n_vcpus {
            loop {
                let vector = {
                    let vcpu = &mut hv.vm_mut(self.vm).vcpus[v as usize];
                    vcpu.take_interrupt()
                };
                match vector {
                    Some(EPML_SELF_IPI_VECTOR) => {
                        self.vcpu = v;
                        if let Some(mut ooh) = self.ooh.take() {
                            let r = ooh.handle_self_ipi(self, hv);
                            self.ooh = Some(ooh);
                            if let Err(e) = r {
                                self.vcpu = entry_vcpu;
                                return Err(e);
                            }
                        }
                    }
                    Some(_) => {} // spurious vector: ignore
                    None => break,
                }
            }
        }
        self.vcpu = entry_vcpu;
        Ok(())
    }

    // --- typed data access (what workloads use) -------------------------------------

    /// Write `bytes` at `gva`, splitting on page boundaries.
    pub fn write_bytes(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        bytes: &[u8],
        lane: Lane,
    ) -> Result<(), GuestError> {
        self.write_bytes_inner(hv, pid, gva, bytes, lane, true)
    }

    /// [`Self::write_bytes`] without the interrupt poll (see
    /// [`Self::access_no_irq`] for when that matters).
    pub fn write_bytes_no_irq(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        bytes: &[u8],
        lane: Lane,
    ) -> Result<(), GuestError> {
        self.write_bytes_inner(hv, pid, gva, bytes, lane, false)
    }

    fn write_bytes_inner(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        bytes: &[u8],
        lane: Lane,
        poll_irq: bool,
    ) -> Result<(), GuestError> {
        let mut off = 0usize;
        while off < bytes.len() {
            let cur = gva.add(off as u64);
            let in_page = (PAGE_SIZE - cur.offset()) as usize;
            let n = in_page.min(bytes.len() - off);
            let hpa = if poll_irq {
                self.access(hv, pid, cur, true, lane)?
            } else {
                self.access_no_irq(hv, pid, cur, true, lane)?
            };
            hv.machine.phys.write(hpa, &bytes[off..off + n])?;
            let ctx = &hv.ctx;
            ctx.charge_ns(
                lane,
                Event::GuestStore,
                (n as u64).div_ceil(8) * ctx.cost().guest_store_ns,
            );
            off += n;
        }
        Ok(())
    }

    /// Read `buf.len()` bytes at `gva`.
    pub fn read_bytes(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        buf: &mut [u8],
        lane: Lane,
    ) -> Result<(), GuestError> {
        let mut off = 0usize;
        while off < buf.len() {
            let cur = gva.add(off as u64);
            let in_page = (PAGE_SIZE - cur.offset()) as usize;
            let n = in_page.min(buf.len() - off);
            let hpa = self.access(hv, pid, cur, false, lane)?;
            hv.machine.phys.read(hpa, &mut buf[off..off + n])?;
            let ctx = &hv.ctx;
            ctx.charge_ns(
                lane,
                Event::GuestLoad,
                (n as u64).div_ceil(8) * ctx.cost().guest_load_ns,
            );
            off += n;
        }
        Ok(())
    }

    /// Write one 8-byte word. A word inside one page is one access, one
    /// frame write and one charge, exactly what the byte loop does for it;
    /// a page-straddler takes the byte loop.
    fn write_word(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        word: [u8; 8],
        lane: Lane,
    ) -> Result<(), GuestError> {
        if gva.offset() > PAGE_SIZE - 8 {
            return self.write_bytes(hv, pid, gva, &word, lane);
        }
        let hpa = self.access(hv, pid, gva, true, lane)?;
        hv.machine.phys.write(hpa, &word)?;
        let ctx = &hv.ctx;
        ctx.charge_ns(lane, Event::GuestStore, ctx.cost().guest_store_ns);
        Ok(())
    }

    /// Read one 8-byte word: the load twin of [`Self::write_word`].
    fn read_word(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        lane: Lane,
    ) -> Result<[u8; 8], GuestError> {
        let mut word = [0u8; 8];
        if gva.offset() > PAGE_SIZE - 8 {
            self.read_bytes(hv, pid, gva, &mut word, lane)?;
            return Ok(word);
        }
        let hpa = self.access(hv, pid, gva, false, lane)?;
        hv.machine.phys.read(hpa, &mut word)?;
        let ctx = &hv.ctx;
        ctx.charge_ns(lane, Event::GuestLoad, ctx.cost().guest_load_ns);
        Ok(word)
    }

    pub fn write_u64(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        value: u64,
        lane: Lane,
    ) -> Result<(), GuestError> {
        self.write_word(hv, pid, gva, value.to_le_bytes(), lane)
    }

    /// [`Self::write_u64`] without the interrupt poll (model-checker step).
    pub fn write_u64_no_irq(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        value: u64,
        lane: Lane,
    ) -> Result<(), GuestError> {
        self.write_bytes_no_irq(hv, pid, gva, &value.to_le_bytes(), lane)
    }

    pub fn read_u64(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        lane: Lane,
    ) -> Result<u64, GuestError> {
        Ok(u64::from_le_bytes(self.read_word(hv, pid, gva, lane)?))
    }

    pub fn write_f64(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        value: f64,
        lane: Lane,
    ) -> Result<(), GuestError> {
        self.write_word(hv, pid, gva, value.to_le_bytes(), lane)
    }

    pub fn read_f64(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        lane: Lane,
    ) -> Result<f64, GuestError> {
        Ok(f64::from_le_bytes(self.read_word(hv, pid, gva, lane)?))
    }

    // --- scheduling -------------------------------------------------------------------

    /// Context-switch `pid`'s home vCPU to `pid`: charges M1, loads CR3
    /// (TLB flush), and runs the OoH module's schedule hooks — per-vCPU
    /// SPML enable/disable hypercalls and per-vCPU EPML control vmwrites —
    /// for tracked processes, on that vCPU.
    pub fn context_switch(&mut self, hv: &mut Hypervisor, pid: Pid) -> Result<(), GuestError> {
        self.run_on_home_vcpu(pid);
        let slot = self.vcpu as usize;
        if self.current[slot] == Some(pid) {
            return Ok(());
        }
        let ctx = hv.ctx.clone();
        ctx.charge(Lane::Kernel, Event::ContextSwitch);
        self.context_switches += 1;

        let old = self.current[slot];
        // Schedule-out hook for the old process.
        if let Some(old_pid) = old {
            if let Some(mut ooh) = self.ooh.take() {
                if ooh.tracks(old_pid) {
                    ooh.sched_out(self, hv)?;
                }
                self.ooh = Some(ooh);
            }
        }

        let cr3 = self.process(pid)?.cr3;
        hv.vm_mut(self.vm).vcpus[slot].set_cr3(&ctx, Lane::Kernel, cr3);
        self.current[slot] = Some(pid);
        ctx.counters().add(Event::SchedIn, 1);
        if old.is_some() {
            ctx.counters().add(Event::SchedOut, 1);
        }

        // Schedule-in hook for the new process.
        if let Some(mut ooh) = self.ooh.take() {
            if ooh.tracks(pid) {
                ooh.sched_in(self, hv)?;
            }
            self.ooh = Some(ooh);
        }
        Ok(())
    }

    /// Model a timer tick that preempts the process on the current vCPU in
    /// favour of an idle kernel thread and comes back — two context switches
    /// and the OoH schedule hooks, exactly what perturbs SPML (hypercalls)
    /// and EPML (vmwrites) during the monitoring phase.
    pub fn preemption_round_trip(&mut self, hv: &mut Hypervisor) -> Result<(), GuestError> {
        let Some(pid) = self.current[self.vcpu as usize] else {
            return Ok(());
        };
        let ctx = hv.ctx.clone();
        ctx.charge_n(Lane::Kernel, Event::ContextSwitch, 2);
        self.context_switches += 2;
        if let Some(mut ooh) = self.ooh.take() {
            if ooh.tracks(pid) {
                ooh.sched_out(self, hv)?;
                ooh.sched_in(self, hv)?;
            }
            self.ooh = Some(ooh);
        }
        Ok(())
    }

    /// [`Self::preemption_round_trip`] on an explicit vCPU: the SMP timer
    /// tick, delivered to one core. Workload runners rotate this over all
    /// vCPUs to model per-core timer interrupts.
    pub fn preemption_round_trip_on(
        &mut self,
        hv: &mut Hypervisor,
        vcpu: u32,
    ) -> Result<(), GuestError> {
        debug_assert!(vcpu < self.n_vcpus, "vCPU {vcpu} out of range");
        self.vcpu = vcpu;
        self.preemption_round_trip(hv)
    }

    /// Deliver the next timer tick, rotating deterministically across the
    /// vCPUs so every core's scheduler hooks fire under SMP. At one vCPU
    /// this is exactly [`Self::preemption_round_trip`] on vCPU 0.
    pub fn timer_tick(&mut self, hv: &mut Hypervisor) -> Result<(), GuestError> {
        let target = (self.timer_ticks % u64::from(self.n_vcpus)) as u32;
        self.timer_ticks += 1;
        self.preemption_round_trip_on(hv, target)
    }

    // --- VMA helpers used by trackers ------------------------------------------------------

    /// All VMAs of `pid` (tracker-facing copy of /proc/PID/maps).
    pub fn vmas(&self, pid: Pid) -> Result<Vec<Vma>, GuestError> {
        Ok(self.process(pid)?.vmas.clone())
    }

    /// The process's GPA↔GVA map generation (see
    /// [`Process::map_generation`]): trackers caching reverse-map results
    /// across rounds must invalidate when this moves.
    pub fn map_generation(&self, pid: Pid) -> Result<u64, GuestError> {
        Ok(self.process(pid)?.map_generation())
    }
}

impl std::fmt::Debug for GuestKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestKernel")
            .field("vm", &self.vm)
            .field("processes", &self.processes.len())
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}
