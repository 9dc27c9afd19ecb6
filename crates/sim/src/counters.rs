//! Mechanism event counters.
//!
//! Each low-level mechanism in the simulated stack records an [`Event`] when
//! it fires. The benchmark harness reads these to validate the paper's
//! analytical model (Table IV uses event counts × unit costs) and to explain
//! *why* a technique is slow (e.g. SPML's hypercall count).
//!
//! Like the clock, the counters have one writer (the owning scenario) and
//! are plain [`Cell`]s.

use std::cell::Cell;

macro_rules! events {
    ($(#[$ea:meta])* pub enum Event { $( $(#[$va:meta])* $name:ident ),+ $(,)? }) => {
        $(#[$ea])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
        #[repr(usize)]
        pub enum Event {
            $( $(#[$va])* $name ),+
        }

        impl Event {
            /// All event kinds, in declaration order.
            pub const ALL: &'static [Event] = &[ $(Event::$name),+ ];

            /// Stable snake_case name used in reports.
            pub fn name(self) -> &'static str {
                match self {
                    $( Event::$name => stringify!($name) ),+
                }
            }
        }

        const EVENT_COUNT: usize = Event::ALL.len();
    };
}

events! {
    /// Every countable mechanism in the simulated stack.
    pub enum Event {
        // --- world transitions -------------------------------------------
        /// User↔kernel context switch inside the guest (paper metric M1).
        ContextSwitch,
        /// Guest→hypervisor transition (any vmexit).
        VmExit,
        /// Hypervisor→guest transition (vmentry / resume).
        VmEntry,

        // --- faults -------------------------------------------------------
        /// Page fault resolved entirely in the guest kernel (M5; /proc
        /// soft-dirty re-protection faults, demand-zero faults).
        PageFaultKernel,
        /// Page fault forwarded to userspace via userfaultfd (M6).
        PageFaultUser,
        /// EPT violation taken by the hypervisor (demand mapping of guest RAM).
        EptViolation,

        // --- VMX instructions ----------------------------------------------
        /// `vmread` executed without vmexit thanks to VMCS shadowing (M7).
        Vmread,
        /// `vmwrite` executed without vmexit thanks to VMCS shadowing (M8).
        Vmwrite,

        // --- hypercalls -----------------------------------------------------
        /// Any hypercall (guest → hypervisor request).
        Hypercall,
        /// SPML `enable_logging` fast hypercall on schedule-in (M13).
        HypercallEnableLogging,
        /// SPML `disable_logging` hypercall on schedule-out, including the
        /// PML-buffer flush it performs (M14).
        HypercallDisableLogging,
        /// One-time PML initialization hypercall (M9).
        HypercallInitPml,
        /// One-time PML + VMCS-shadowing initialization (EPML; M10).
        HypercallInitPmlShadow,
        /// PML deactivation hypercall (M11).
        HypercallDeactivatePml,
        /// PML + VMCS shadowing deactivation (EPML; M12).
        HypercallDeactivateShadow,

        // --- PML hardware ----------------------------------------------------
        /// One GPA appended to the hypervisor-level PML buffer.
        PmlLogGpa,
        /// One GVA appended to the guest-level (EPML) PML buffer.
        PmlLogGva,
        /// PML-buffer-full vmexit taken by the hypervisor.
        PmlBufferFullExit,
        /// Guest-level PML buffer full: virtual self-IPI posted to the guest.
        PmlSelfIpi,

        // --- buffers & copies ---------------------------------------------
        /// One entry copied between a PML buffer and a ring buffer (M18 unit).
        RingBufferCopyEntry,
        /// Ring-buffer overflow: producer found the ring full (entry dropped
        /// and fall back to full-scan on next collect).
        RingBufferOverflow,

        // --- /proc machinery --------------------------------------------------
        /// One PTE cleared during `echo 4 > /proc/PID/clear_refs` (M15 unit).
        ClearRefsPte,
        /// One pagemap entry materialized for a userspace reader (M16 unit).
        PagemapReadEntry,
        /// One `read(2)`-sized chunk of /proc/PID/pagemap served.
        PagemapReadChunk,
        /// Full TLB flush (after clear_refs or write-protect changes).
        TlbFlush,
        /// Single-page TLB shootdown (invlpg-equivalent).
        TlbInvlpg,
        /// Cross-vCPU TLB shootdown IPI: one remote vCPU told to invalidate
        /// a translation on a PTE teardown (munmap, drain dirty-clear,
        /// clear_refs). Charged once per remote vCPU per teardown batch.
        TlbShootdownIpi,

        // --- userfaultfd machinery ------------------------------------------
        /// `UFFDIO_REGISTER` ioctl.
        UfdRegister,
        /// One page write-protected via `UFFDIO_WRITEPROTECT` (M2 unit).
        UfdWriteProtectPage,
        /// One page write-unprotected by the tracker to resume Tracked.
        UfdWriteUnprotectPage,
        /// One fault event delivered through the uffd file descriptor.
        UfdEventDelivered,

        // --- reverse mapping (SPML) -------------------------------------------
        /// One GPA→GVA reverse-map lookup performed by OoH Lib (M17 unit).
        ReverseMapLookup,

        // --- ioctls to the OoH module (UIO driver) ----------------------------
        /// OoH module ioctl: initialize PML tracking for a PID (M3).
        IoctlInitPml,
        /// OoH module ioctl: deactivate PML tracking (M4).
        IoctlDeactivatePml,

        // --- scheduler ----------------------------------------------------------
        /// A tracked process was scheduled in.
        SchedIn,
        /// A tracked process was scheduled out.
        SchedOut,

        // --- memory accesses (workload-visible) ---------------------------------
        /// Guest page-table walk performed by the MMU (TLB miss).
        PageWalk,
        /// TLB hit (no walk needed).
        TlbHit,
        /// A store instruction retired by the workload.
        GuestStore,
        /// A load instruction retired by the workload.
        GuestLoad,

        // --- interrupts -----------------------------------------------------------
        /// Posted interrupt delivered directly to a running guest.
        PostedInterrupt,

        // --- SPP (the §III-D extension) ---------------------------------------------
        /// Sub-page permission mask updated via the OoH-SPP hypercall.
        SppUpdate,
        /// Write blocked by a sub-page guard (overflow detected).
        SppViolationFault,

        // --- migration / checkpoint transport ----------------------------------------
        /// One page shipped over the migration/checkpoint copy channel
        /// during a pre-copy round. The cost is channel-dependent
        /// (`MigrationConfig::page_copy_ns`), charged explicitly via
        /// `SimCtx::charge_n_ns`, so the flat unit cost here is zero.
        MigrationPageCopy,
    }
}

/// A fixed array of counters, one per [`Event`].
pub struct EventCounters {
    counts: [Cell<u64>; EVENT_COUNT],
}

impl EventCounters {
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// Add `n` occurrences of `event`.
    pub fn add(&self, event: Event, n: u64) {
        let slot = &self.counts[event as usize];
        slot.set(slot.get() + n);
    }

    /// Current count for `event`.
    pub fn get(&self, event: Event) -> u64 {
        self.counts[event as usize].get()
    }

    /// Snapshot all non-zero counters as `(event, count)` pairs.
    pub fn snapshot(&self) -> Vec<(Event, u64)> {
        Event::ALL
            .iter()
            .filter_map(|&e| {
                let n = self.get(e);
                (n != 0).then_some((e, n))
            })
            .collect()
    }
}

impl Default for EventCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EventCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.snapshot().iter().map(|(e, n)| (e.name(), n)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let c = EventCounters::new();
        for &e in Event::ALL {
            assert_eq!(c.get(e), 0, "{}", e.name());
        }
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn add_and_snapshot() {
        let c = EventCounters::new();
        c.add(Event::Vmread, 3);
        c.add(Event::Hypercall, 1);
        c.add(Event::Vmread, 2);
        assert_eq!(c.get(Event::Vmread), 5);
        let snap = c.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.contains(&(Event::Vmread, 5)));
        assert!(snap.contains(&(Event::Hypercall, 1)));
    }

    #[test]
    fn event_names_are_unique() {
        let mut names: Vec<_> = Event::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
