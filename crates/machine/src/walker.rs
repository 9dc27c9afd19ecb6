//! The MMU: nested (guest PT + EPT) page walks with architectural A/D-bit
//! side effects and the PML logging circuit.
//!
//! This is the component the EPML hardware extension modifies, and the one
//! whose event stream everything else in the reproduction hangs off:
//!
//! * a store that sets a **leaf EPT dirty bit 0→1** appends the *GPA* to the
//!   hypervisor-level PML buffer (standard PML);
//! * under EPML, a store that sets the **guest leaf PTE dirty bit 0→1**
//!   additionally appends the *GVA* to the guest-level PML buffer (the
//!   paper's modified page-walk circuit);
//! * a buffer filling produces a [`PmlEvent`] — a vmexit for the hypervisor
//!   buffer, a virtual self-IPI for the guest buffer — which the caller
//!   dispatches to the appropriate handler.
//!
//! Guest page-table pages live in guest physical memory, so the walker's own
//! A/D-bit updates are guest-physical *writes* that themselves set EPT dirty
//! bits and can be PML-logged (true of real hardware; the OoH library
//! filters such addresses out, and our reproduction keeps that noise).

use crate::addr::{Gpa, Gva, Hpa, HUGE_PAGE_PAGES};
use crate::ept::Ept;
use crate::error::{Fault, MachineError};
use crate::phys::HostPhys;
use crate::pml::{LogOutcome, PmlEvent, PmlState};
use crate::pte::{EptEntry, Pte};
use crate::spp::SppTable;
use crate::tlb::{Tlb, TlbEntry};
use ooh_sim::{Event, Lane, SimCtx};

/// Result of a successful guest access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOk {
    /// Final host-physical address of the byte addressed by the GVA.
    pub hpa: Hpa,
    /// The guest-physical address it went through.
    pub gpa: Gpa,
    /// PML events raised by this access (at most one per buffer).
    pub events: Vec<PmlEvent>,
}

/// Mutable view of everything a page walk touches.
pub struct Mmu<'a> {
    pub phys: &'a mut HostPhys,
    pub ept: &'a mut Ept,
    pub tlb: &'a mut Tlb,
    pub pml: &'a mut PmlState,
    pub ctx: &'a SimCtx,
    /// Lane charged for MMU time (whoever is executing).
    pub lane: Lane,
    /// Machine supports the EPML extension (GVA logging + guest buffer).
    pub epml_hw: bool,
    /// The VM's sub-page permission table (None = SPP not in use).
    pub spp: Option<&'a SppTable>,
    /// Split-on-dirty policy armed: the first *logged* write to a still-clean
    /// 2 MiB mapping raises [`Fault::HugeDirtyWrite`] instead of setting any
    /// A/D bit, so the kernel can demote the region to 4K before the write
    /// retries and logs at page granularity. Off (the default) preserves
    /// pre-huge-page behaviour bit-for-bit.
    pub split_on_dirty: bool,
}

impl Mmu<'_> {
    /// Perform a guest data access at `gva` under page-table root `cr3`.
    ///
    /// Outer `Err` = model misuse; inner `Err` = architectural fault to be
    /// handled by the guest kernel / hypervisor and retried.
    pub fn access(
        &mut self,
        cr3: Gpa,
        gva: Gva,
        write: bool,
    ) -> Result<Result<AccessOk, Fault>, MachineError> {
        // --- TLB fast path ------------------------------------------------
        if let Some(entry) = self.tlb.lookup(cr3, gva) {
            let usable = if write {
                entry.store_fast_path()
            } else {
                true
            };
            if usable {
                if write {
                    self.check_write_fast_path(cr3, gva, &entry)?;
                }
                self.ctx.charge(self.lane, Event::TlbHit);
                return Ok(Ok(AccessOk {
                    hpa: entry.hpa(gva),
                    gpa: entry.gpa(gva),
                    events: Vec::new(),
                }));
            }
        }

        // --- full nested walk ----------------------------------------------
        let _span = self
            .ctx
            .span(ooh_sim::ScopeKind::Op, "page_walk", gva.page());
        self.ctx.charge(self.lane, Event::PageWalk);
        let mut events = Vec::new();

        // Walk the guest page table (each PTE read is a guest-physical read).
        let mut table = cr3;
        let mut leaf_slot_gpa = Gpa::NULL;
        let mut pte = Pte::empty();
        for level in (0..4).rev() {
            let slot = table.add(gva.pt_index(level) as u64 * 8);
            let raw = match self.read_guest_phys_u64(slot)? {
                Ok(v) => v,
                Err(f) => return Ok(Err(f)),
            };
            let entry = Pte(raw);
            if !entry.is_present() {
                return Ok(Err(Fault::NotPresent { gva, level }));
            }
            if level == 1 && entry.is_huge() {
                // PS bit: this level-1 entry is a 2 MiB leaf; the walk
                // terminates here, one level early.
                leaf_slot_gpa = slot;
                pte = entry;
                break;
            }
            if level == 0 {
                leaf_slot_gpa = slot;
                pte = entry;
            } else {
                table = entry.frame();
            }
        }

        // Permission check at the leaf. userfaultfd write-protection is
        // modeled as Linux does it: the UFFD_WP software bit forces the
        // write fault even though the VMA is writable.
        if write && (!pte.is_writable() || pte.is_uffd_wp()) {
            return Ok(Err(Fault::WriteProtected { gva }));
        }

        // SPP: sub-page write permission check. It must precede the A/D
        // updates — a denied write leaves no architectural trace, otherwise
        // a pre-set dirty bit would suppress PML logging of a later
        // legitimate write to the same page.
        let data_gpa = if pte.is_huge() {
            pte.frame().add(gva.huge_offset())
        } else {
            pte.frame().add(gva.offset())
        };
        if write {
            if let Some(spp) = self.spp {
                if !spp.write_allowed(data_gpa) {
                    return Ok(Err(Fault::SppViolation {
                        gva,
                        gpa: data_gpa,
                        subpage: SppTable::subpage_of(data_gpa),
                    }));
                }
            }
        }

        // Split-on-dirty pre-check. It must run BEFORE any architectural
        // mutation: once a D bit is set (or a PML entry written) the 0→1
        // transition is consumed and the retried access after demotion
        // would neither re-log nor re-fault — the write would be lost to
        // every tracker. A logged write is about to happen at 2 MiB
        // granularity iff a still-clean huge entry sits on an armed logging
        // path; fault out so the kernel can demote first.
        if write && self.split_on_dirty {
            if pte.is_huge() && !pte.is_dirty() && self.epml_hw && self.pml.guest_logging {
                return Ok(Err(Fault::HugeDirtyWrite {
                    gva,
                    gpa: data_gpa.huge_base(),
                }));
            }
            if self.pml.hyp_logging {
                // Read-only peek — ept.lookup sets no A/D bits.
                if let Some((_, e)) = self.ept.lookup(self.phys, data_gpa)? {
                    if e.is_huge() && !e.is_dirty() {
                        return Ok(Err(Fault::HugeDirtyWrite {
                            gva,
                            gpa: data_gpa.huge_base(),
                        }));
                    }
                }
            }
        }

        // Guest A/D update (hardware sets A always, D on write).
        let guest_d_transition = write && !pte.is_dirty();
        let mut new_pte = pte.with(Pte::ACCESSED);
        if write {
            new_pte = new_pte.with(Pte::DIRTY);
        }
        if new_pte != pte {
            if let Err(f) = self.write_guest_phys_u64(leaf_slot_gpa, new_pte.0, &mut events)? {
                return Ok(Err(f));
            }
        }

        // EPT leaf for the data page.
        let Some((ept_slot, ept_entry)) = self.ept.lookup(self.phys, data_gpa)? else {
            return Ok(Err(Fault::EptViolation {
                gpa: data_gpa,
                write,
            }));
        };

        let ept_a_transition = !ept_entry.is_accessed();
        let ept_d_transition = write && !ept_entry.is_dirty();
        let mut new_ept = ept_entry.with(EptEntry::ACCESSED);
        if write {
            new_ept = new_ept.with(EptEntry::DIRTY);
        }
        if new_ept != ept_entry {
            self.phys.write_u64(ept_slot, new_ept.0)?;
        }

        // --- the PML circuit --------------------------------------------------
        if ept_d_transition {
            self.log_hyp(data_gpa.page_base(), true, &mut events)?;
        } else if ept_a_transition && self.pml.log_accesses {
            // PML-R: access logging for working-set estimation (a dirty
            // transition already logged above; don't double-log).
            self.log_hyp(data_gpa.page_base(), false, &mut events)?;
        }
        if guest_d_transition && self.epml_hw {
            self.log_guest(gva.page_base(), &mut events)?;
        }

        // Host-physical 4K frame of the data page (a huge EPT leaf maps the
        // whole 2 MiB region; index the covered frame).
        let hpa_page = if ept_entry.is_huge() {
            ept_entry.frame().page() + data_gpa.page() % HUGE_PAGE_PAGES
        } else {
            ept_entry.frame().page()
        };

        // TLB fill with post-access state. A translation is cached at 2 MiB
        // only when BOTH levels still map it huge — after a one-sided
        // demotion the region's frames may diverge page by page, so the
        // smaller granularity governs what may be cached.
        let cache_huge = pte.is_huge() && ept_entry.is_huge();
        self.tlb.fill(
            cr3,
            gva,
            TlbEntry {
                gpa_page: if cache_huge {
                    data_gpa.huge_base().page()
                } else {
                    data_gpa.page()
                },
                hpa_page: if cache_huge {
                    ept_entry.frame().page()
                } else {
                    hpa_page
                },
                writable: pte.is_writable() && !pte.is_uffd_wp(),
                guest_dirty: new_pte.is_dirty(),
                ept_dirty: new_ept.is_dirty(),
                spp_guarded: self
                    .spp
                    .map(|s| s.is_guarded(data_gpa))
                    .unwrap_or(false),
                huge: cache_huge,
            },
        );

        Ok(Ok(AccessOk {
            hpa: Hpa::from_page(hpa_page).add(gva.offset()),
            gpa: data_gpa,
            events,
        }))
    }

    /// Guest-physical read (kernel or MMU initiated): translates through the
    /// EPT, setting the accessed bit.
    pub fn read_guest_phys_u64(&mut self, gpa: Gpa) -> Result<Result<u64, Fault>, MachineError> {
        let Some((slot, entry)) = self.ept.lookup(self.phys, gpa)? else {
            return Ok(Err(Fault::EptViolation { gpa, write: false }));
        };
        if !entry.is_accessed() {
            self.phys
                .write_u64(slot, entry.with(EptEntry::ACCESSED).0)?;
        }
        let fa = if entry.is_huge() {
            entry.frame().add(gpa.huge_offset())
        } else {
            entry.frame().add(gpa.offset())
        };
        let v = self.phys.read_u64(fa)?;
        Ok(Ok(v))
    }

    /// Guest-physical write: translates through the EPT, sets A/D, and logs
    /// the GPA through PML on a dirty transition (page-table pages and other
    /// kernel-touched guest memory are logged exactly like data pages).
    pub fn write_guest_phys_u64(
        &mut self,
        gpa: Gpa,
        value: u64,
        events: &mut Vec<PmlEvent>,
    ) -> Result<Result<(), Fault>, MachineError> {
        let Some((slot, entry)) = self.ept.lookup(self.phys, gpa)? else {
            return Ok(Err(Fault::EptViolation { gpa, write: true }));
        };
        let d_transition = !entry.is_dirty();
        let new = entry.with(EptEntry::ACCESSED | EptEntry::DIRTY);
        if new != entry {
            self.phys.write_u64(slot, new.0)?;
        }
        let fa = if entry.is_huge() {
            entry.frame().add(gpa.huge_offset())
        } else {
            entry.frame().add(gpa.offset())
        };
        self.phys.write_u64(fa, value)?;
        if d_transition {
            self.log_hyp(gpa.page_base(), true, events)?;
        }
        Ok(Ok(()))
    }

    /// `dirty_transition` distinguishes D-bit logs from PML-R A-bit logs:
    /// only the former feed the one-log-per-transition shadow invariant.
    fn log_hyp(
        &mut self,
        gpa: Gpa,
        dirty_transition: bool,
        events: &mut Vec<PmlEvent>,
    ) -> Result<(), MachineError> {
        if !self.pml.hyp_logging {
            return Ok(());
        }
        let Some(buf) = self.pml.hyp.as_mut() else {
            return Ok(());
        };
        self.ctx.charge(self.lane, Event::PmlLogGpa);
        let outcome = buf.log(self.phys, gpa.raw())?;
        match outcome {
            LogOutcome::Logged => {}
            LogOutcome::LoggedLastSlot | LogOutcome::Full => {
                events.push(PmlEvent::HypBufferFull);
            }
        }
        // A Full outcome wrote nothing, so it does not count as "logged".
        if dirty_transition && outcome != LogOutcome::Full {
            self.pml.note_hyp_dirty_logged(gpa.page());
        }
        Ok(())
    }

    fn log_guest(&mut self, gva: Gva, events: &mut Vec<PmlEvent>) -> Result<(), MachineError> {
        if !self.pml.guest_logging {
            return Ok(());
        }
        let Some(buf) = self.pml.guest.as_mut() else {
            return Ok(());
        };
        self.ctx.charge(self.lane, Event::PmlLogGva);
        let outcome = buf.log(self.phys, gva.raw())?;
        match outcome {
            LogOutcome::Logged => {}
            LogOutcome::LoggedLastSlot | LogOutcome::Full => {
                events.push(PmlEvent::GuestBufferFull);
            }
        }
        if outcome != LogOutcome::Full {
            self.pml.note_guest_dirty_logged(gva.page());
        }
        Ok(())
    }

    /// `debug-invariants` only: a TLB hit is about to let a store complete
    /// without a walk, on the cached claim that both dirty bits are already
    /// set (`store_fast_path`). Verify the claim against the architectural
    /// state — if a PML drain cleared a dirty bit but left this translation
    /// cached, the store would go unlogged and the tracker would miss the
    /// page. Reads raw PTE/EPT words only (no A/D side effects, no charges).
    fn check_write_fast_path(
        &mut self,
        cr3: Gpa,
        gva: Gva,
        entry: &TlbEntry,
    ) -> Result<(), MachineError> {
        if !crate::DEBUG_INVARIANTS {
            return Ok(());
        }
        let data_gpa = entry.gpa(gva);
        match self.ept.lookup(self.phys, data_gpa)? {
            Some((_, e)) => assert!(
                e.is_dirty(),
                "TLB invariant violated: write fast path for {gva:?} -> {data_gpa:?}, but the \
                 EPT dirty bit is clear — a drain flushed this page and the stale TLB entry \
                 would suppress PML re-logging"
            ),
            None => panic!(
                "TLB invariant violated: cached translation for unmapped GPA {data_gpa:?}"
            ),
        }
        // Guest-PTE side (the EPML guest buffer's log trigger).
        let mut table = cr3;
        for level in (0..4).rev() {
            let slot = table.add(gva.pt_index(level) as u64 * 8);
            let Some(hslot) = self.ept.translate(self.phys, slot)? else {
                return Ok(());
            };
            let e = Pte(self.phys.read_u64(hslot)?);
            if !e.is_present() {
                return Ok(());
            }
            if level == 0 || (level == 1 && e.is_huge()) {
                assert!(
                    e.is_dirty(),
                    "TLB invariant violated: write fast path for {gva:?}, but the guest PTE \
                     dirty bit is clear — the OoH module drained this page and the stale TLB \
                     entry would suppress guest-buffer re-logging"
                );
                return Ok(());
            }
            table = e.frame();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;
    use crate::pml::PmlBuffer;

    /// Build a tiny "guest": identity-ish EPT, one guest page table mapping
    /// `GVA 0x40000000+n*4K → GPA 0x1000*n (data region)`.
    struct Rig {
        phys: HostPhys,
        ept: Ept,
        tlb: Tlb,
        pml: PmlState,
        ctx: SimCtx,
        cr3: Gpa,
        next_gpa: u64,
    }

    impl Rig {
        fn new() -> Self {
            let mut phys = HostPhys::new(4096 * PAGE_SIZE);
            let mut ept = Ept::new(&mut phys).unwrap();
            let mut next_gpa = 0x100; // guest frame numbers
            // Allocate + map the guest's root page table page.
            let cr3_gpa = Gpa::from_page(next_gpa);
            next_gpa += 1;
            let f = phys.alloc_frame().unwrap();
            ept.map(&mut phys, cr3_gpa, f).unwrap();
            Self {
                phys,
                ept,
                tlb: Tlb::new(),
                pml: PmlState::default(),
                ctx: SimCtx::new(),
                cr3: cr3_gpa,
                next_gpa,
            }
        }

        fn alloc_guest_page(&mut self) -> Gpa {
            let gpa = Gpa::from_page(self.next_gpa);
            self.next_gpa += 1;
            let f = self.phys.alloc_frame().unwrap();
            self.ept.map(&mut self.phys, gpa, f).unwrap();
            gpa
        }

        /// Map `gva → data gpa` in the guest PT, allocating table pages.
        fn map_gva(&mut self, gva: Gva, flags: u64) -> Gpa {
            let data = self.alloc_guest_page();
            let mut table = self.cr3;
            for level in (1..4).rev() {
                let slot = table.add(gva.pt_index(level) as u64 * 8);
                let hslot = self.ept.translate(&self.phys, slot).unwrap().unwrap();
                let raw = self.phys.read_u64(hslot).unwrap();
                let e = Pte(raw);
                table = if e.is_present() {
                    e.frame()
                } else {
                    let t = self.alloc_guest_page();
                    self.phys.write_u64(hslot, Pte::table(t).0).unwrap();
                    t
                };
            }
            let slot = table.add(gva.pt_index(0) as u64 * 8);
            let hslot = self.ept.translate(&self.phys, slot).unwrap().unwrap();
            self.phys
                .write_u64(hslot, Pte::leaf(data, flags).0)
                .unwrap();
            data
        }

        /// Map a 2 MiB-aligned `gva` as a guest 2M leaf over a fresh
        /// 2M-aligned 512-page GPA region; the EPT side is mapped as one
        /// huge leaf when `ept_huge`, else 512 individual 4K leaves.
        fn map_gva_huge(&mut self, gva: Gva, flags: u64, ept_huge: bool) -> Gpa {
            assert!(gva.is_huge_aligned());
            let base_page = self.next_gpa.next_multiple_of(512);
            self.next_gpa = base_page + 512;
            let gpa = Gpa::from_page(base_page);
            if ept_huge {
                let hpa = self.phys.alloc_frames_contiguous(512, 512).unwrap();
                self.ept.map_huge(&mut self.phys, gpa, hpa).unwrap();
            } else {
                for i in 0..512u64 {
                    let f = self.phys.alloc_frame().unwrap();
                    self.ept
                        .map(&mut self.phys, gpa.add(i * PAGE_SIZE), f)
                        .unwrap();
                }
            }
            let mut table = self.cr3;
            for level in (2..4).rev() {
                let slot = table.add(gva.pt_index(level) as u64 * 8);
                let hslot = self.ept.translate(&self.phys, slot).unwrap().unwrap();
                let e = Pte(self.phys.read_u64(hslot).unwrap());
                table = if e.is_present() {
                    e.frame()
                } else {
                    let t = self.alloc_guest_page();
                    self.phys.write_u64(hslot, Pte::table(t).0).unwrap();
                    t
                };
            }
            let slot = table.add(gva.pt_index(1) as u64 * 8);
            let hslot = self.ept.translate(&self.phys, slot).unwrap().unwrap();
            self.phys
                .write_u64(hslot, Pte::huge_leaf(gpa, flags).0)
                .unwrap();
            gpa
        }

        fn mmu(&mut self) -> Mmu<'_> {
            Mmu {
                phys: &mut self.phys,
                ept: &mut self.ept,
                tlb: &mut self.tlb,
                pml: &mut self.pml,
                ctx: &self.ctx,
                lane: Lane::Tracked,
                epml_hw: true,
                spp: None,
                split_on_dirty: false,
            }
        }

        fn enable_hyp_pml(&mut self) {
            let page = self.phys.alloc_frame().unwrap();
            self.pml.hyp = Some(PmlBuffer::new(page));
            self.pml.hyp_logging = true;
        }

        fn enable_guest_pml(&mut self) {
            let page = self.phys.alloc_frame().unwrap();
            self.pml.guest = Some(PmlBuffer::new(page));
            self.pml.guest_logging = true;
        }
    }

    const BASE: Gva = Gva(0x4000_0000);

    #[cfg(feature = "debug-invariants")]
    mod invariant_tests {
        use super::*;

        /// A drain that clears the EPT dirty bit but forgets to invalidate
        /// the TLB is exactly the missed-logging bug the fast-path check
        /// exists to catch.
        #[test]
        #[should_panic(expected = "TLB invariant violated")]
        fn stale_tlb_entry_after_drain_panics() {
            let mut rig = Rig::new();
            rig.map_gva(BASE, Pte::WRITABLE | Pte::USER);
            rig.enable_hyp_pml();
            let cr3 = rig.cr3;
            let mut mmu = rig.mmu();
            let gpa = mmu.access(cr3, BASE, true).unwrap().unwrap().gpa;
            // Buggy drain: clear the EPT D bit *without* invalidating the TLB.
            mmu.ept.clear_dirty(mmu.phys, gpa).unwrap();
            let _ = mmu.access(cr3, BASE, true);
        }

        /// The correct drain sequence (reset buffer, clear D, note, flush
        /// the translation) lets the page re-log without tripping anything.
        #[test]
        fn drain_then_rewrite_relogs_cleanly() {
            let mut rig = Rig::new();
            rig.map_gva(BASE, Pte::WRITABLE | Pte::USER);
            rig.enable_hyp_pml();
            let cr3 = rig.cr3;
            let mut mmu = rig.mmu();
            let gpa = mmu.access(cr3, BASE, true).unwrap().unwrap().gpa;
            mmu.pml.hyp.as_mut().unwrap().drain(mmu.phys).unwrap();
            mmu.ept.clear_dirty(mmu.phys, gpa).unwrap();
            mmu.pml.note_hyp_dirty_cleared(gpa.page());
            mmu.tlb.invalidate_gpa_page(gpa.page());
            mmu.access(cr3, BASE, true).unwrap().unwrap();
        }
    }

    #[test]
    fn read_write_through_translation() {
        let mut rig = Rig::new();
        rig.map_gva(BASE, Pte::WRITABLE | Pte::USER);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        let ok = mmu.access(cr3, BASE.add(0x10), true).unwrap().unwrap();
        mmu.phys.write(ok.hpa, b"xyz").unwrap();
        let ok2 = mmu.access(cr3, BASE.add(0x10), false).unwrap().unwrap();
        let mut buf = [0u8; 3];
        mmu.phys.read(ok2.hpa, &mut buf).unwrap();
        assert_eq!(&buf, b"xyz");
    }

    #[test]
    fn not_present_faults() {
        let mut rig = Rig::new();
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        match mmu.access(cr3, BASE, false).unwrap() {
            Err(Fault::NotPresent { gva, .. }) => assert_eq!(gva, BASE),
            other => panic!("expected NotPresent, got {other:?}"),
        }
    }

    #[test]
    fn write_protect_faults_only_on_write() {
        let mut rig = Rig::new();
        rig.map_gva(BASE, Pte::USER); // not writable
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        assert!(mmu.access(cr3, BASE, false).unwrap().is_ok());
        assert!(matches!(
            mmu.access(cr3, BASE, true).unwrap(),
            Err(Fault::WriteProtected { .. })
        ));
    }

    #[test]
    fn uffd_wp_bit_forces_write_fault() {
        let mut rig = Rig::new();
        rig.map_gva(BASE, Pte::WRITABLE | Pte::USER | Pte::UFFD_WP);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        assert!(mmu.access(cr3, BASE, false).unwrap().is_ok());
        assert!(matches!(
            mmu.access(cr3, BASE, true).unwrap(),
            Err(Fault::WriteProtected { .. })
        ));
    }

    #[test]
    fn store_sets_guest_and_ept_dirty_and_logs_gpa() {
        let mut rig = Rig::new();
        rig.enable_hyp_pml();
        let data_gpa = rig.map_gva(BASE, Pte::WRITABLE | Pte::USER);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        let ok = mmu.access(cr3, BASE.add(8), true).unwrap().unwrap();
        assert_eq!(ok.gpa, data_gpa.add(8));
        assert!(ok.events.is_empty());
        // GPA of the data page is in the hypervisor PML buffer; the A/D
        // update to the leaf PT page was also logged (hardware-faithful).
        let logged = rig.pml.hyp.as_mut().unwrap().drain(&rig.phys).unwrap();
        assert!(logged.contains(&data_gpa.raw()));
        assert!(rig.ctx.counters().get(Event::PmlLogGpa) >= 1);
    }

    #[test]
    fn second_store_to_same_page_does_not_relog() {
        let mut rig = Rig::new();
        rig.enable_hyp_pml();
        rig.map_gva(BASE, Pte::WRITABLE | Pte::USER);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        mmu.access(cr3, BASE, true).unwrap().unwrap();
        let n1 = rig.ctx.counters().get(Event::PmlLogGpa);
        let mut mmu = rig.mmu();
        mmu.access(cr3, BASE.add(64), true).unwrap().unwrap();
        mmu.access(cr3, BASE.add(128), true).unwrap().unwrap();
        assert_eq!(rig.ctx.counters().get(Event::PmlLogGpa), n1);
        // And those stores hit the TLB fast path.
        assert!(rig.ctx.counters().get(Event::TlbHit) >= 2);
    }

    #[test]
    fn epml_logs_gva_to_guest_buffer() {
        let mut rig = Rig::new();
        rig.enable_guest_pml();
        rig.map_gva(BASE, Pte::WRITABLE | Pte::USER);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        mmu.access(cr3, BASE.add(4), true).unwrap().unwrap();
        let logged = rig.pml.guest.as_mut().unwrap().drain(&rig.phys).unwrap();
        assert_eq!(logged, vec![BASE.raw()]);
        assert_eq!(rig.ctx.counters().get(Event::PmlLogGva), 1);
    }

    #[test]
    fn epml_disabled_hw_logs_nothing_to_guest_buffer() {
        let mut rig = Rig::new();
        rig.enable_guest_pml();
        rig.map_gva(BASE, Pte::WRITABLE | Pte::USER);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        mmu.epml_hw = false;
        mmu.access(cr3, BASE, true).unwrap().unwrap();
        assert!(rig.pml.guest.as_mut().unwrap().is_empty());
    }

    #[test]
    fn buffer_full_event_is_raised() {
        let mut rig = Rig::new();
        rig.enable_guest_pml();
        // Map 512 pages and dirty them all: the 512th log fills the buffer.
        for i in 0..512u64 {
            rig.map_gva(BASE.add(i * PAGE_SIZE), Pte::WRITABLE | Pte::USER);
        }
        let cr3 = rig.cr3;
        let mut full_events = 0;
        for i in 0..512u64 {
            let mut mmu = rig.mmu();
            let ok = mmu.access(cr3, BASE.add(i * PAGE_SIZE), true).unwrap().unwrap();
            full_events += ok
                .events
                .iter()
                .filter(|e| **e == PmlEvent::GuestBufferFull)
                .count();
        }
        assert_eq!(full_events, 1);
        assert_eq!(rig.pml.guest.as_ref().unwrap().len(), 512);
    }

    #[test]
    fn dirty_clear_plus_tlb_flush_relogs() {
        let mut rig = Rig::new();
        rig.enable_guest_pml();
        rig.map_gva(BASE, Pte::WRITABLE | Pte::USER);
        let cr3 = rig.cr3;
        {
            let mut mmu = rig.mmu();
            mmu.access(cr3, BASE, true).unwrap().unwrap();
        }
        // Drain + clear guest D bit + flush TLB = start of a new round.
        rig.pml.guest.as_mut().unwrap().drain(&rig.phys).unwrap();
        // Clear the guest PTE dirty bit by hand (the OoH module does this).
        {
            let mut table = rig.cr3;
            for level in (1..4).rev() {
                let slot = table.add(BASE.pt_index(level) as u64 * 8);
                let h = rig.ept.translate(&rig.phys, slot).unwrap().unwrap();
                table = Pte(rig.phys.read_u64(h).unwrap()).frame();
            }
            let slot = table.add(BASE.pt_index(0) as u64 * 8);
            let h = rig.ept.translate(&rig.phys, slot).unwrap().unwrap();
            let pte = Pte(rig.phys.read_u64(h).unwrap());
            rig.phys.write_u64(h, pte.without(Pte::DIRTY).0).unwrap();
            // The OoH module pairs the D-bit clear with this shadow note
            // (see Hypervisor::note_guest_pte_dirty_cleared).
            rig.pml.note_guest_dirty_cleared(BASE.page());
        }
        rig.tlb.flush_all();
        {
            let mut mmu = rig.mmu();
            mmu.access(cr3, BASE.add(12), true).unwrap().unwrap();
        }
        let logged = rig.pml.guest.as_mut().unwrap().drain(&rig.phys).unwrap();
        assert_eq!(logged, vec![BASE.raw()], "new round must re-log the page");
    }

    const HUGE_BASE: Gva = Gva(0x4000_0000); // 2M-aligned

    #[test]
    fn huge_walk_translates_and_logs_precise_gpa() {
        let mut rig = Rig::new();
        rig.enable_hyp_pml();
        let gpa = rig.map_gva_huge(HUGE_BASE, Pte::WRITABLE | Pte::USER, true);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        // Store into page 37 of the region.
        let probe = HUGE_BASE.add(37 * PAGE_SIZE + 0x18);
        let ok = mmu.access(cr3, probe, true).unwrap().unwrap();
        assert_eq!(ok.gpa, gpa.add(37 * PAGE_SIZE + 0x18));
        // PML logs the precise 4K-aligned GPA, as real PML does even under
        // a 2M EPT leaf.
        let logged = rig.pml.hyp.as_mut().unwrap().drain(&rig.phys).unwrap();
        assert!(logged.contains(&gpa.add(37 * PAGE_SIZE).raw()));
        // The region-wide D bit suppresses logging for the other 511 pages.
        let n1 = rig.ctx.counters().get(Event::PmlLogGpa);
        let mut mmu = rig.mmu();
        mmu.access(cr3, HUGE_BASE.add(300 * PAGE_SIZE), true)
            .unwrap()
            .unwrap();
        assert_eq!(rig.ctx.counters().get(Event::PmlLogGpa), n1);
        // One huge TLB entry serves the whole region.
        assert_eq!(rig.tlb.huge_len(), 1);
        let mut mmu = rig.mmu();
        mmu.access(cr3, HUGE_BASE.add(511 * PAGE_SIZE), true)
            .unwrap()
            .unwrap();
        assert!(rig.ctx.counters().get(Event::TlbHit) >= 1);
    }

    #[test]
    fn epml_huge_logs_gva_once_per_region() {
        let mut rig = Rig::new();
        rig.enable_guest_pml();
        rig.map_gva_huge(HUGE_BASE, Pte::WRITABLE | Pte::USER, true);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        mmu.access(cr3, HUGE_BASE.add(5 * PAGE_SIZE + 4), true)
            .unwrap()
            .unwrap();
        mmu.access(cr3, HUGE_BASE.add(6 * PAGE_SIZE), true)
            .unwrap()
            .unwrap();
        let logged = rig.pml.guest.as_mut().unwrap().drain(&rig.phys).unwrap();
        // One log for the whole region (D set once), at the precise 4K GVA.
        assert_eq!(logged, vec![HUGE_BASE.add(5 * PAGE_SIZE).raw()]);
    }

    #[test]
    fn split_on_dirty_faults_before_any_mutation() {
        let mut rig = Rig::new();
        rig.enable_hyp_pml();
        let gpa = rig.map_gva_huge(HUGE_BASE, Pte::WRITABLE | Pte::USER, true);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        mmu.split_on_dirty = true;
        match mmu.access(cr3, HUGE_BASE.add(9 * PAGE_SIZE), true).unwrap() {
            Err(Fault::HugeDirtyWrite { gva, gpa: region }) => {
                assert_eq!(gva, HUGE_BASE.add(9 * PAGE_SIZE));
                assert_eq!(region, gpa);
            }
            other => panic!("expected HugeDirtyWrite, got {other:?}"),
        }
        // Nothing was mutated: no PML entry, EPT D clear, guest D clear.
        assert!(rig.pml.hyp.as_ref().unwrap().is_empty());
        let (_, e) = rig.ept.lookup(&rig.phys, gpa).unwrap().unwrap();
        assert!(!e.is_dirty());
        // Reads are unaffected by the armed policy.
        let mut mmu = rig.mmu();
        mmu.split_on_dirty = true;
        mmu.access(cr3, HUGE_BASE, false).unwrap().unwrap();
        // Hypervisor demotes the EPT side; the retried write then succeeds
        // and logs the precise 4K GPA.
        rig.ept.demote(&mut rig.phys, gpa).unwrap();
        rig.tlb.flush_all();
        let mut mmu = rig.mmu();
        mmu.split_on_dirty = true;
        // Guest PT is still a (clean) huge leaf, but guest logging is off,
        // so only the EPT side gates — and it is 4K now.
        mmu.access(cr3, HUGE_BASE.add(9 * PAGE_SIZE), true)
            .unwrap()
            .unwrap();
        let logged = rig.pml.hyp.as_mut().unwrap().drain(&rig.phys).unwrap();
        assert!(logged.contains(&gpa.add(9 * PAGE_SIZE).raw()));
    }

    #[test]
    fn split_on_dirty_guest_side_faults_with_epml() {
        let mut rig = Rig::new();
        rig.enable_guest_pml();
        // EPT side 4K from the start: only the guest PT is huge.
        let gpa = rig.map_gva_huge(HUGE_BASE, Pte::WRITABLE | Pte::USER, false);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        mmu.split_on_dirty = true;
        assert!(matches!(
            mmu.access(cr3, HUGE_BASE.add(3 * PAGE_SIZE), true).unwrap(),
            Err(Fault::HugeDirtyWrite { .. })
        ));
        assert!(rig.pml.guest.as_ref().unwrap().is_empty());
        // With the policy off the same write proceeds (keep-huge mode) and
        // the region logs once at the faulting GVA.
        let mut mmu = rig.mmu();
        mmu.access(cr3, HUGE_BASE.add(3 * PAGE_SIZE), true)
            .unwrap()
            .unwrap();
        let logged = rig.pml.guest.as_mut().unwrap().drain(&rig.phys).unwrap();
        assert_eq!(logged, vec![HUGE_BASE.add(3 * PAGE_SIZE).raw()]);
        let _ = gpa;
    }

    #[test]
    fn loads_never_log() {
        let mut rig = Rig::new();
        rig.enable_hyp_pml();
        rig.enable_guest_pml();
        rig.map_gva(BASE, Pte::WRITABLE | Pte::USER);
        let cr3 = rig.cr3;
        let mut mmu = rig.mmu();
        for i in 0..10 {
            mmu.access(cr3, BASE.add(i * 8), false).unwrap().unwrap();
        }
        // Only the PT-page A-bit updates may have logged GPAs; the *data*
        // page must not appear, and the guest (GVA) buffer must be empty.
        assert!(rig.pml.guest.as_ref().unwrap().is_empty());
        assert_eq!(rig.ctx.counters().get(Event::PmlLogGva), 0);
    }
}
