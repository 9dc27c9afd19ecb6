//! # ooh-hypervisor — the Xen slice the OoH paper modifies
//!
//! A hypervisor the size of exactly what the experiments need:
//!
//! * VM lifecycle with per-VM [`ooh_machine::Ept`] and Xen-style
//!   pre-populated guest RAM ([`vm::Vm`]);
//! * the guest memory-access entry point, which runs the nested walker and
//!   dispatches PML events ([`hypervisor::Hypervisor::guest_access`]);
//! * the page-modification-log-full vmexit handler, extended as in the
//!   paper's Xen patch to copy GPAs into a ring buffer shared with the
//!   guest when the guest has registered (SPML);
//! * the OoH hypercall ABI — `enable_logging`/`disable_logging` for SPML's
//!   hot path, plus one-time init/deactivate calls and the EPML
//!   VMCS-shadowing setup ([`hypercall::Hypercall`]);
//! * the `enabled_by_guest` / `enabled_by_hyp` coordination flags that let
//!   the guest's per-process tracking coexist with the hypervisor's own PML
//!   consumer, pre-copy live migration ([`migration::PreCopyMigration`]).

#![forbid(unsafe_code)]

pub mod hypercall;
pub mod hypervisor;
pub mod migration;
pub mod vm;
pub mod wss;

pub use hypercall::{Hypercall, HypercallResult};
pub use hypervisor::{GuestAccess, Hypervisor};
pub use migration::{MigrationConfig, MigrationReport, PreCopyMigration, RoundStats};
pub use vm::{SpmlState, Vm, VmId};
pub use wss::{WssEstimator, WssSample};

#[cfg(test)]
mod tests {
    use super::*;
    use ooh_machine::{Fault, Gva, MachineConfig, PAGE_SIZE};
    use ooh_sim::{Lane, SimCtx};

    fn hv(epml: bool) -> Hypervisor {
        let cfg = if epml {
            MachineConfig::epml(64 * 1024 * PAGE_SIZE)
        } else {
            MachineConfig::stock(64 * 1024 * PAGE_SIZE)
        };
        Hypervisor::new(cfg, SimCtx::new())
    }

    #[test]
    fn create_vm_allocates_pml_buffers() {
        let mut h = hv(false);
        let vm = h.create_vm(1024 * PAGE_SIZE, 2).unwrap();
        let v = h.vm(vm);
        assert_eq!(v.vcpus.len(), 2);
        for vc in &v.vcpus {
            assert!(vc.pml.hyp.is_some());
            assert!(!vc.pml.hyp_logging, "logging off until someone enables it");
        }
    }

    #[test]
    fn unmapped_guest_access_is_ept_violation() {
        let mut h = hv(false);
        let vm = h.create_vm(1024 * PAGE_SIZE, 1).unwrap();
        // No guest page tables: the CR3 read itself hits an unmapped GPA.
        let r = h
            .guest_access(vm, 0, ooh_machine::Gpa(0x1000), Gva(0x4000), false, Lane::Tracked)
            .unwrap();
        assert!(matches!(r, Err(Fault::EptViolation { .. })));
    }

    #[test]
    fn spml_enable_requires_registration() {
        let mut h = hv(false);
        let vm = h.create_vm(1024 * PAGE_SIZE, 1).unwrap();
        let r = h
            .hypercall(vm, 0, Hypercall::EnableLogging, Lane::Kernel)
            .unwrap();
        assert_eq!(r, HypercallResult::Invalid);
    }

    #[test]
    fn epml_init_rejected_on_stock_hardware() {
        let mut h = hv(false);
        let vm = h.create_vm(1024 * PAGE_SIZE, 1).unwrap();
        let r = h.hypercall(vm, 0, Hypercall::EpmlInit, Lane::Kernel).unwrap();
        assert_eq!(r, HypercallResult::Invalid);
    }

    #[test]
    fn epml_init_attaches_shadow_on_epml_hardware() {
        let mut h = hv(true);
        let vm = h.create_vm(1024 * PAGE_SIZE, 1).unwrap();
        let r = h.hypercall(vm, 0, Hypercall::EpmlInit, Lane::Kernel).unwrap();
        assert_eq!(r, HypercallResult::Ok);
        assert!(h.vm(vm).vcpus[0].vmcs.shadowing_enabled());
        // The guest can now toggle its logging bit without vmexits.
        h.guest_vmwrite(vm, 0, ooh_machine::Field::EpmlControl, 1, Lane::Kernel)
            .unwrap();
        assert_eq!(
            h.guest_vmread(vm, 0, ooh_machine::Field::EpmlControl, Lane::Kernel)
                .unwrap(),
            1
        );
    }

    #[test]
    fn migration_converges_only_when_dirtying_stops() {
        use ooh_machine::{EptEntry, Gpa};
        let mut h = hv(false);
        let vm = h.create_vm(1024 * PAGE_SIZE, 1).unwrap();
        // Give the VM some RAM.
        let mut gpas = Vec::new();
        for _ in 0..200 {
            gpas.push(h.alloc_guest_page(vm).unwrap());
        }
        let config = MigrationConfig {
            page_copy_ns: 1_000,
            stop_threshold_pages: 8,
            max_rounds: 6,
        };
        let mut mig = PreCopyMigration::start(&mut h, vm, config);

        // A writer that keeps dirtying 64 pages per round (more than the
        // stop threshold): mark EPT D bits directly, as guest stores would.
        let dirty_pages = |h: &mut Hypervisor, n: usize| {
            let (vmref, phys) = h.vm_and_phys_mut(vm);
            for g in gpas.iter().take(n) {
                let (slot, e) = vmref.ept.lookup(phys, *g).unwrap().unwrap();
                phys.write_u64(slot, e.with(EptEntry::DIRTY).0).unwrap();
            }
        };

        // While the writer is hot, rounds keep sending ≥64 pages.
        for _ in 0..3 {
            dirty_pages(&mut h, 64);
            // Simulate the PML path: harvest dirty EPT bits into hyp_dirty.
            {
                let (vmref, phys) = h.vm_and_phys_mut(vm);
                let dirty: Vec<Gpa> = vmref.ept.collect_dirty(phys).unwrap();
                for g in &dirty {
                    vmref.hyp_dirty.insert(g.page());
                }
                vmref.ept.clear_all_dirty(phys).unwrap();
            }
            let sent = mig.round(&mut h).unwrap();
            assert!(sent >= 64, "hot writer keeps the dirty set large: {sent}");
            assert!(!mig.converged(sent));
        }
        // Writer stops: the next round is small and convergence follows.
        let sent = mig.round(&mut h).unwrap();
        assert!(mig.converged(sent), "quiescent guest must converge ({sent})");
        let report = mig.finalize(&mut h).unwrap();
        assert!(report.converged);
        assert_eq!(report.downtime_pages, 0);
    }

    #[test]
    fn spp_hypercall_validates_gpa_ownership() {
        let mut h = hv(false);
        let vm = h.create_vm(64 * PAGE_SIZE, 1).unwrap();
        // Unmapped GPA: rejected.
        let r = h
            .hypercall(
                vm,
                0,
                Hypercall::SppSetMask {
                    gpa: ooh_machine::Gpa(0x5000_0000),
                    mask: 0,
                },
                ooh_sim::Lane::Kernel,
            )
            .unwrap();
        assert_eq!(r, HypercallResult::Invalid);
        // Mapped GPA: accepted.
        let g = h.alloc_guest_page(vm).unwrap();
        let r = h
            .hypercall(
                vm,
                0,
                Hypercall::SppSetMask { gpa: g, mask: 0 },
                ooh_sim::Lane::Kernel,
            )
            .unwrap();
        assert_eq!(r, HypercallResult::Ok);
        assert_eq!(h.vm(vm).spp_table.mask(g), Some(0));
        // Clearing restores.
        h.hypercall(vm, 0, Hypercall::SppClear { gpa: g }, ooh_sim::Lane::Kernel)
            .unwrap();
        assert_eq!(h.vm(vm).spp_table.mask(g), None);
    }

    #[test]
    fn migration_flags_do_not_clobber_guest_registration() {
        let mut h = hv(false);
        let vm = h.create_vm(1024 * PAGE_SIZE, 1).unwrap();
        // Fake a guest registration without a ring (flags only).
        h.vm_mut(vm).spml.enabled_by_guest = true;
        h.vm_mut(vm).spml.guest_logging_on = true;
        h.vm_mut(vm).sync_logging();
        assert!(h.vm(vm).vcpus[0].pml.hyp_logging);

        let mig = PreCopyMigration::start(&mut h, vm, MigrationConfig::default());
        assert!(h.vm(vm).spml.enabled_by_hyp);
        let report = mig.finalize(&mut h).unwrap();
        assert!(!h.vm(vm).spml.enabled_by_hyp);
        // Guest's logging survives the hypervisor's deactivation (§IV-C(3)).
        assert!(h.vm(vm).vcpus[0].pml.hyp_logging);
        assert!(report.rounds.len() >= 2);
    }
}
