//! Virtual nanosecond clock with per-lane time attribution.
//!
//! The simulated machine is single-vCPU (as in the paper's evaluation setup:
//! "the VM has 1 vCPU"), so everything — Tracked, Tracker, the guest kernel,
//! and the hypervisor — serializes on one timeline. The global clock is that
//! timeline; each *lane* records how much of it a given actor consumed, which
//! is exactly what the paper's Formulas 1–4 decompose.
//!
//! The clock has exactly one writer, the scenario that owns it, so its
//! counters are plain [`Cell`]s and it is not `Sync`: parallel scenarios
//! each build their own.

use std::cell::Cell;

/// Who consumed a slice of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The monitored application (the paper's *Tracked*).
    Tracked,
    /// The monitoring system — CRIU, the GC, or a raw tracker (*Tracker*).
    Tracker,
    /// Guest-kernel work: fault handling, pagemap walks, the OoH module.
    Kernel,
    /// Hypervisor work: vmexit handling, hypercalls, PML buffer copies.
    Hypervisor,
}

impl Lane {
    /// All lanes, in display order.
    pub const ALL: [Lane; 4] = [Lane::Tracked, Lane::Tracker, Lane::Kernel, Lane::Hypervisor];

    fn index(self) -> usize {
        match self {
            Lane::Tracked => 0,
            Lane::Tracker => 1,
            Lane::Kernel => 2,
            Lane::Hypervisor => 3,
        }
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Tracked => "tracked",
            Lane::Tracker => "tracker",
            Lane::Kernel => "kernel",
            Lane::Hypervisor => "hypervisor",
        }
    }
}

/// Monotonic virtual clock, owned by one scenario (see the module docs).
#[derive(Debug, Default)]
pub struct SimClock {
    total_ns: Cell<u64>,
    lanes: [Cell<u64>; 4],
}

impl SimClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the global clock by `ns`, attributing the time to `lane`.
    pub fn advance(&self, lane: Lane, ns: u64) {
        if ns == 0 {
            return;
        }
        let slot = &self.lanes[lane.index()];
        self.total_ns.set(self.total_ns.get() + ns);
        slot.set(slot.get() + ns);
    }

    /// Current virtual time in nanoseconds since scenario start.
    pub fn now_ns(&self) -> u64 {
        self.total_ns.get()
    }

    /// Time consumed by one lane.
    pub fn lane_ns(&self, lane: Lane) -> u64 {
        self.lanes[lane.index()].get()
    }

    /// Snapshot of all lane times (tracked, tracker, kernel, hypervisor).
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            total_ns: self.now_ns(),
            tracked_ns: self.lane_ns(Lane::Tracked),
            tracker_ns: self.lane_ns(Lane::Tracker),
            kernel_ns: self.lane_ns(Lane::Kernel),
            hypervisor_ns: self.lane_ns(Lane::Hypervisor),
        }
    }
}

/// A point-in-time copy of the clock, used to compute phase durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct ClockSnapshot {
    pub total_ns: u64,
    pub tracked_ns: u64,
    pub tracker_ns: u64,
    pub kernel_ns: u64,
    pub hypervisor_ns: u64,
}

impl ClockSnapshot {
    /// Elementwise difference `self - earlier` (phase duration).
    pub fn since(&self, earlier: &ClockSnapshot) -> ClockSnapshot {
        ClockSnapshot {
            total_ns: self.total_ns - earlier.total_ns,
            tracked_ns: self.tracked_ns - earlier.tracked_ns,
            tracker_ns: self.tracker_ns - earlier.tracker_ns,
            kernel_ns: self.kernel_ns - earlier.kernel_ns,
            hypervisor_ns: self.hypervisor_ns - earlier.hypervisor_ns,
        }
    }

    /// Time *not* spent in the Tracked lane: the disruption the tracking
    /// machinery imposed on the application's timeline.
    pub fn non_tracked_ns(&self) -> u64 {
        self.total_ns - self.tracked_ns
    }
}

/// Pretty-print a nanosecond quantity with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_accumulate_independently() {
        let c = SimClock::new();
        c.advance(Lane::Tracked, 10);
        c.advance(Lane::Tracker, 20);
        c.advance(Lane::Tracked, 5);
        assert_eq!(c.now_ns(), 35);
        assert_eq!(c.lane_ns(Lane::Tracked), 15);
        assert_eq!(c.lane_ns(Lane::Tracker), 20);
        assert_eq!(c.lane_ns(Lane::Kernel), 0);
    }

    #[test]
    fn snapshot_difference() {
        let c = SimClock::new();
        c.advance(Lane::Kernel, 100);
        let a = c.snapshot();
        c.advance(Lane::Kernel, 50);
        c.advance(Lane::Tracked, 7);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.total_ns, 57);
        assert_eq!(d.kernel_ns, 50);
        assert_eq!(d.tracked_ns, 7);
        assert_eq!(d.non_tracked_ns(), 50);
    }

    #[test]
    fn zero_advance_is_noop() {
        let c = SimClock::new();
        c.advance(Lane::Tracked, 0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(15), "15ns");
        assert_eq!(fmt_ns(1_500), "1.500us");
        assert_eq!(fmt_ns(2_000_000), "2.000ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.500s");
    }
}
