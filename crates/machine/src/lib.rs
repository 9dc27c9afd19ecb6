//! # ooh-machine — a software model of the VT-x MMU path
//!
//! The OoH paper needs hardware we do not have: Intel PML, VMCS shadowing,
//! posted interrupts, and the paper's proposed **EPML** ISA extension (which
//! exists only in the authors' modified BOCHS). This crate is our BOCHS: an
//! architectural model of exactly the slice of an x86/VT-x machine the
//! paper's mechanisms exercise —
//!
//! * physical memory as real 4 KiB frames ([`phys::HostPhys`]);
//! * 4-level guest page tables living **in guest memory** and a 4-level EPT
//!   ([`ept::Ept`]) living in host memory, both with architectural
//!   accessed/dirty semantics;
//! * a nested page walker ([`walker::Mmu`]) that performs the guest-PT+EPT
//!   walk, updates A/D bits, and implements the PML logging circuit
//!   (GPA→hypervisor buffer) plus the paper's EPML extension
//!   (GVA→guest buffer, virtual self-IPI on full);
//! * a per-vCPU TLB ([`tlb::Tlb`]) whose caching is what makes PML cheap and
//!   whose flushes are what make /proc and ufd expensive;
//! * VMCS state with shadowing ([`vmcs::Vmcs`]) and the extended `vmwrite`
//!   that translates the guest PML buffer address GPA→HPA ([`vcpu::Vcpu`]).
//!
//! Timing is charged to a shared [`ooh_sim::SimCtx`] with unit costs
//! calibrated to the paper's Table V; see `ooh-sim` for the calibration.

#![forbid(unsafe_code)]

pub mod addr;
pub mod digest;
pub mod dirty;
pub mod ept;
pub mod error;
pub mod machine;
pub mod phys;
pub mod pml;
pub mod pte;
pub mod ring;
pub mod spp;
pub mod tlb;
pub mod vcpu;
pub mod vmcs;
pub mod walker;

pub use addr::{
    Gpa, Gva, GvaRange, Hpa, HUGE_PAGE_PAGES, HUGE_PAGE_SHIFT, HUGE_PAGE_SIZE, PAGE_SHIFT,
    PAGE_SIZE, PT_ENTRIES,
};
pub use digest::StateHasher;
pub use dirty::DirtyBitmap;
pub use ept::Ept;
pub use error::{Fault, MachineError};
pub use machine::{Machine, MachineConfig};
pub use phys::HostPhys;
pub use pml::{LogOutcome, PmlBuffer, PmlEvent, PmlState, PML_ENTRIES};
pub use pte::{EptEntry, Pte};
pub use ring::{RingView, RING_ENTRIES_PER_PAGE};
pub use spp::{mask_protecting, SppTable, SUBPAGES_PER_PAGE, SUBPAGE_SIZE};
pub use tlb::{Tlb, TlbEntry};
pub use vcpu::{Vcpu, EPML_SELF_IPI_VECTOR};
pub use vmcs::{exec_controls, Field, Vmcs, VmxMode};
pub use walker::{AccessOk, Mmu};

/// Whether the runtime invariant hooks are compiled in (the
/// `debug-invariants` feature of this crate): the PML shadow, the ring
/// checks, the TLB fast-path check, and the model checker's P4. Every hook
/// body is `if DEBUG_INVARIANTS { .. }`, so a default build folds it away.
pub const DEBUG_INVARIANTS: bool = cfg!(feature = "debug-invariants");
