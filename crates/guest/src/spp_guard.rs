//! The OoH-SPP kernel surface: translate a process's guard requests from
//! GVAs to GPAs and program the hypervisor's sub-page permission table.
//!
//! Following the OoH methodology (§IV-A): a userspace library (the secure
//! allocator in `ooh-secheap`) talks to a small kernel module, which keeps
//! the privilege of multiplexing the feature and performs the hypercalls.
//! SPP needs no hot-path calls — masks change only on alloc/free — so the
//! software-only design is already efficient (no EPML-style extension
//! required, as the paper anticipates).

use crate::kernel::{GuestError, GuestKernel};
use crate::process::Pid;
use ooh_hypervisor::{Hypercall, HypercallResult, Hypervisor};
use ooh_machine::{Gpa, Gva, SppTable, SUBPAGES_PER_PAGE, SUBPAGE_SIZE};

impl GuestKernel {
    /// Resolve the guest-physical page backing `gva`, faulting it in first
    /// if needed (SPP masks attach to physical pages, so the page must
    /// exist and stay resident — the module pins it, like the ring buffer).
    fn resolve_spp_page(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
    ) -> Result<Gpa, GuestError> {
        if !self.process(pid)?.resident.contains_key(&gva.page()) {
            // Demand-fault the page in with a kernel-initiated touch.
            self.access(hv, pid, gva.page_base(), true, ooh_sim::Lane::Kernel)?;
        }
        let gpa_page = *self
            .process(pid)?
            .resident
            .get(&gva.page())
            .expect("just faulted in");
        Ok(Gpa::from_page(gpa_page))
    }

    /// Set the *writable* mask of the page containing `gva` (bit i =
    /// sub-page i writable). The mask is absolute; the userspace library
    /// accumulates its guard layout per page.
    pub fn spp_set_page_mask(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
        writable_mask: u32,
    ) -> Result<(), GuestError> {
        let gpa = self.resolve_spp_page(hv, pid, gva)?;
        match hv.hypercall(
            self.vm,
            self.vcpu,
            Hypercall::SppSetMask {
                gpa,
                mask: writable_mask,
            },
            ooh_sim::Lane::Tracked,
        )? {
            HypercallResult::Ok => Ok(()),
            _ => Err(GuestError::Segfault { pid, gva }),
        }
    }

    /// Remove sub-page protection from the page containing `gva`.
    pub fn spp_clear_page(
        &mut self,
        hv: &mut Hypervisor,
        pid: Pid,
        gva: Gva,
    ) -> Result<(), GuestError> {
        let Some(&gpa_page) = self.process(pid)?.resident.get(&gva.page()) else {
            return Ok(()); // never materialized: nothing to clear
        };
        hv.hypercall(
            self.vm,
            self.vcpu,
            Hypercall::SppClear {
                gpa: Gpa::from_page(gpa_page),
            },
            ooh_sim::Lane::Tracked,
        )?;
        Ok(())
    }

    /// The sub-page index covering `gva` within its page.
    pub fn spp_subpage_of(gva: Gva) -> u32 {
        (gva.offset() / SUBPAGE_SIZE) as u32
    }
}

/// Number of 128-byte sub-pages covering `bytes`.
pub fn subpages_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(SUBPAGE_SIZE)
}

/// Re-exported so userspace callers need not depend on ooh-machine.
pub use ooh_machine::spp::mask_protecting;

/// Compile-time sanity: the geometry constants agree.
const _: () = assert!(SUBPAGES_PER_PAGE * SUBPAGE_SIZE == ooh_machine::PAGE_SIZE);
const _: () = {
    let _ = SppTable::subpage_of;
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::VmaKind;
    use ooh_machine::{MachineConfig, PAGE_SIZE};
    use ooh_sim::{Lane, SimCtx};

    fn boot() -> (Hypervisor, GuestKernel, Pid) {
        let mut hv = Hypervisor::new(MachineConfig::epml(64 * 1024 * PAGE_SIZE), SimCtx::new());
        let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, 1).unwrap();
        let mut kernel = GuestKernel::new(vm);
        let pid = kernel.spawn(&mut hv).unwrap();
        (hv, kernel, pid)
    }

    #[test]
    fn spp_guard_blocks_exactly_the_masked_subpages() {
        let (mut hv, mut kernel, pid) = boot();
        let range = kernel.mmap(pid, 2, true, VmaKind::Anon).unwrap();
        let page = range.start;
        // Protect sub-pages 2..=3 of the first page.
        kernel
            .spp_set_page_mask(&mut hv, pid, page, mask_protecting(2, 3))
            .unwrap();
        // Sub-page 0/1 writable.
        kernel.write_u64(&mut hv, pid, page, 1, Lane::Tracked).unwrap();
        kernel
            .write_u64(&mut hv, pid, page.add(SUBPAGE_SIZE + 8), 2, Lane::Tracked)
            .unwrap();
        // Sub-page 2: blocked with the precise index reported.
        match kernel.write_u64(&mut hv, pid, page.add(2 * SUBPAGE_SIZE), 3, Lane::Tracked) {
            Err(GuestError::GuardViolation { subpage: Some(2), .. }) => {}
            other => panic!("expected SPP guard violation, got {other:?}"),
        }
        // Reads are never blocked by SPP.
        assert_eq!(
            kernel
                .read_u64(&mut hv, pid, page.add(2 * SUBPAGE_SIZE), Lane::Tracked)
                .unwrap(),
            0
        );
        // Second page untouched by the first page's mask.
        kernel
            .write_u64(&mut hv, pid, page.add(PAGE_SIZE), 4, Lane::Tracked)
            .unwrap();
    }

    #[test]
    fn spp_clear_restores_write_access() {
        let (mut hv, mut kernel, pid) = boot();
        let range = kernel.mmap(pid, 1, true, VmaKind::Anon).unwrap();
        kernel
            .spp_set_page_mask(&mut hv, pid, range.start, 0)
            .unwrap();
        assert!(kernel
            .write_u64(&mut hv, pid, range.start, 1, Lane::Tracked)
            .is_err());
        kernel.spp_clear_page(&mut hv, pid, range.start).unwrap();
        kernel
            .write_u64(&mut hv, pid, range.start, 1, Lane::Tracked)
            .unwrap();
    }

    #[test]
    fn tlb_cached_translations_do_not_bypass_new_masks() {
        let (mut hv, mut kernel, pid) = boot();
        let range = kernel.mmap(pid, 1, true, VmaKind::Anon).unwrap();
        // Warm the TLB with full write access (dirty bits set).
        kernel
            .write_u64(&mut hv, pid, range.start.add(256), 1, Lane::Tracked)
            .unwrap();
        kernel
            .write_u64(&mut hv, pid, range.start.add(256), 2, Lane::Tracked)
            .unwrap();
        // Now protect sub-page 2; the cached entry must not let writes slip.
        kernel
            .spp_set_page_mask(&mut hv, pid, range.start, mask_protecting(2, 2))
            .unwrap();
        assert!(matches!(
            kernel.write_u64(&mut hv, pid, range.start.add(2 * SUBPAGE_SIZE), 3, Lane::Tracked),
            Err(GuestError::GuardViolation { .. })
        ));
    }

    #[test]
    fn subpage_math() {
        assert_eq!(subpages_for_bytes(1), 1);
        assert_eq!(subpages_for_bytes(128), 1);
        assert_eq!(subpages_for_bytes(129), 2);
        assert_eq!(GuestKernel::spp_subpage_of(Gva(0x1000 + 300)), 2);
    }
}
