//! # ooh-core — the OoH userspace library
//!
//! The paper's primary contribution, as a library: a single
//! [`DirtyPageTracker`] abstraction with four interchangeable
//! implementations —
//!
//! | technique | mechanism | logs | bottleneck |
//! |---|---|---|---|
//! | [`ProcTracker`] | soft-dirty bits (`clear_refs`/`pagemap`) | PTE bits | pagemap scan (M16) + write faults (M5) |
//! | [`UfdTracker`] | userfaultfd write-protect | fault events | userspace fault handling (M6) |
//! | [`PmlTracker`] (SPML) | hypervisor-emulated PML (OoH software design) | GPAs | reverse mapping (M17) + hypercalls |
//! | [`PmlTracker`] (EPML) | hardware-extended PML (OoH hardware design) | GVAs | nothing size-dependent but the ring copy (M18) |
//!
//! plus [`OohSession`], the application-facing facade, and the
//! [`revmap`] module implementing SPML's GPA→GVA resolution.

#![forbid(unsafe_code)]

pub mod dirtyset;
#[cfg(test)]
mod invariants;
pub mod pml_tracker;
pub mod policy;
pub mod proc_tracker;
pub mod revmap;
pub mod session;
pub mod tracker;
pub mod ufd_tracker;

pub use dirtyset::DirtySet;
pub use pml_tracker::PmlTracker;
pub use policy::{dirty_rate_pps, ConvergencePolicy, Decision, PolicyState};
pub use proc_tracker::ProcTracker;
pub use session::OohSession;
pub use tracker::{make_tracker, DirtyPageTracker, TrackEnv, Technique};
pub use ufd_tracker::UfdTracker;

#[cfg(test)]
mod tests {
    use super::*;
    use ooh_guest::{GuestKernel, Pid, VmaKind};
    use ooh_hypervisor::Hypervisor;
    use ooh_machine::{GvaRange, MachineConfig, PAGE_SIZE};
    use ooh_sim::{Lane, SimCtx};

    struct Rig {
        hv: Hypervisor,
        kernel: GuestKernel,
        pid: Pid,
        region: GvaRange,
    }

    /// Boot an EPML-capable stack with one process owning `pages`
    /// pre-faulted pages (mlockall-style, like the paper's Listing 1).
    fn boot(pages: u64) -> Rig {
        let mut hv = Hypervisor::new(
            MachineConfig::epml(64 * 1024 * PAGE_SIZE),
            SimCtx::new(),
        );
        let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, 1).unwrap();
        let mut kernel = GuestKernel::new(vm);
        let pid = kernel.spawn(&mut hv).unwrap();
        let region = kernel.mmap(pid, pages, true, VmaKind::Anon).unwrap();
        for g in region.iter_pages().collect::<Vec<_>>() {
            kernel.write_u64(&mut hv, pid, g, 0, Lane::Tracked).unwrap();
        }
        Rig {
            hv,
            kernel,
            pid,
            region,
        }
    }

    fn write_pages(rig: &mut Rig, pages: &[u64]) {
        for &i in pages {
            rig.kernel
                .write_u64(
                    &mut rig.hv,
                    rig.pid,
                    rig.region.start.add(i * PAGE_SIZE),
                    i + 1,
                    Lane::Tracked,
                )
                .unwrap();
        }
    }

    fn expected(rig: &Rig, pages: &[u64]) -> DirtySet {
        pages
            .iter()
            .map(|&i| rig.region.start.add(i * PAGE_SIZE))
            .collect()
    }

    /// The core correctness property: every technique reports exactly the
    /// written pages.
    #[test]
    fn all_techniques_report_the_same_dirty_set() {
        let dirtied = [1u64, 5, 6, 13, 31];
        for technique in Technique::ALL {
            let mut rig = boot(32);
            let mut session =
                OohSession::start(&mut rig.hv, &mut rig.kernel, rig.pid, technique).unwrap();
            write_pages(&mut rig, &dirtied);
            let set = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert_eq!(
                set,
                expected(&rig, &dirtied),
                "technique {} reported a wrong dirty set",
                technique.name()
            );
            session.stop(&mut rig.hv, &mut rig.kernel).unwrap();
        }
    }

    /// Rounds are independent: a page dirtied in round 1 must not reappear
    /// in round 2 unless rewritten.
    #[test]
    fn rounds_are_disjoint_for_all_techniques() {
        for technique in Technique::ALL {
            let mut rig = boot(16);
            let mut session =
                OohSession::start(&mut rig.hv, &mut rig.kernel, rig.pid, technique).unwrap();

            write_pages(&mut rig, &[2, 3]);
            let r1 = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert_eq!(r1, expected(&rig, &[2, 3]), "{}", technique.name());

            write_pages(&mut rig, &[3, 9]);
            let r2 = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert_eq!(r2, expected(&rig, &[3, 9]), "{}", technique.name());

            // Nothing written: empty round.
            let r3 = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert!(r3.is_empty(), "{}: {:?}", technique.name(), r3);
            session.stop(&mut rig.hv, &mut rig.kernel).unwrap();
        }
    }

    /// Preemptions (scheduler activity) during the round must not lose or
    /// duplicate pages — this exercises the SPML hypercall hooks and the
    /// EPML vmwrite hooks.
    #[test]
    fn preemption_during_round_preserves_the_set() {
        for technique in Technique::ALL {
            let mut rig = boot(16);
            let mut session =
                OohSession::start(&mut rig.hv, &mut rig.kernel, rig.pid, technique).unwrap();
            write_pages(&mut rig, &[0, 1]);
            rig.kernel.preemption_round_trip(&mut rig.hv).unwrap();
            write_pages(&mut rig, &[1, 2]);
            rig.kernel.preemption_round_trip(&mut rig.hv).unwrap();
            write_pages(&mut rig, &[8]);
            let set = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert_eq!(
                set,
                expected(&rig, &[0, 1, 2, 8]),
                "technique {}",
                technique.name()
            );
            session.stop(&mut rig.hv, &mut rig.kernel).unwrap();
        }
    }

    /// Reads must never be reported as dirty.
    #[test]
    fn reads_are_not_dirty() {
        for technique in Technique::ALL {
            let mut rig = boot(8);
            let mut session =
                OohSession::start(&mut rig.hv, &mut rig.kernel, rig.pid, technique).unwrap();
            for i in 0..8u64 {
                rig.kernel
                    .read_u64(
                        &mut rig.hv,
                        rig.pid,
                        rig.region.start.add(i * PAGE_SIZE),
                        Lane::Tracked,
                    )
                    .unwrap();
            }
            write_pages(&mut rig, &[4]);
            let set = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert_eq!(set, expected(&rig, &[4]), "{}", technique.name());
            session.stop(&mut rig.hv, &mut rig.kernel).unwrap();
        }
    }

    /// A buffer-full episode (>512 dirty pages in one quantum) must not lose
    /// pages under the PML techniques.
    #[test]
    fn pml_buffer_overflow_loses_nothing() {
        for technique in [Technique::Spml, Technique::Epml] {
            let mut rig = boot(600);
            let mut session =
                OohSession::start(&mut rig.hv, &mut rig.kernel, rig.pid, technique).unwrap();
            let all: Vec<u64> = (0..600).collect();
            write_pages(&mut rig, &all);
            let set = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert_eq!(set.len(), 600, "technique {}", technique.name());
            session.stop(&mut rig.hv, &mut rig.kernel).unwrap();
        }
    }

    /// The cost ordering the whole paper is about: on a write-heavy round,
    /// Tracker-side time is SPML > /proc > EPML, and EPML's Tracked
    /// disruption is the smallest.
    #[test]
    fn cost_ordering_matches_the_paper() {
        let mut total = std::collections::BTreeMap::new();
        for technique in Technique::ALL {
            let mut rig = boot(256);
            let mut session =
                OohSession::start(&mut rig.hv, &mut rig.kernel, rig.pid, technique).unwrap();
            // Per-round cost only: init/teardown are one-time and — as the
            // paper notes for EPML's M10 — do not affect scalability.
            let t0 = rig.hv.ctx.now_ns();
            let all: Vec<u64> = (0..256).collect();
            write_pages(&mut rig, &all);
            let set = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert_eq!(set.len(), 256);
            total.insert(technique, rig.hv.ctx.now_ns() - t0);
            session.stop(&mut rig.hv, &mut rig.kernel).unwrap();
        }
        let spml = total[&Technique::Spml];
        let proc = total[&Technique::Proc];
        let epml = total[&Technique::Epml];
        let ufd = total[&Technique::Ufd];
        assert!(spml > proc, "SPML ({spml}) must cost more than /proc ({proc})");
        assert!(proc > epml, "/proc ({proc}) must cost more than EPML ({epml})");
        assert!(ufd > epml, "ufd ({ufd}) must cost more than EPML ({epml})");
    }

    /// EPML must be unavailable on stock hardware.
    #[test]
    fn epml_requires_the_hardware_extension() {
        let mut hv = Hypervisor::new(
            MachineConfig::stock(16 * 1024 * PAGE_SIZE),
            SimCtx::new(),
        );
        let vm = hv.create_vm(4096 * PAGE_SIZE, 1).unwrap();
        let mut kernel = GuestKernel::new(vm);
        let pid = kernel.spawn(&mut hv).unwrap();
        kernel.mmap(pid, 4, true, VmaKind::Anon).unwrap();
        let r = OohSession::start(&mut hv, &mut kernel, pid, Technique::Epml);
        assert!(r.is_err(), "EPML on stock hardware must fail");
    }

    /// A VMA mapped mid-round is tracked from that round on: every technique
    /// reports a demand-zero write into it. The PML trackers re-read the
    /// VMA list on collect; ufd never saw the VMA at `begin_round`, so it
    /// reports the VMA's resident pages through the conservative scan.
    #[test]
    fn every_technique_handles_region_growth() {
        let mut missed = Vec::new();
        for technique in Technique::ALL {
            let mut rig = boot(8);
            let mut session =
                OohSession::start(&mut rig.hv, &mut rig.kernel, rig.pid, technique).unwrap();
            write_pages(&mut rig, &[1]);
            let r1 = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert_eq!(r1, expected(&rig, &[1]), "{}", technique.name());
            let extra = rig.kernel.mmap(rig.pid, 2, true, VmaKind::Anon).unwrap();
            rig.kernel
                .write_u64(&mut rig.hv, rig.pid, extra.start, 42, Lane::Tracked)
                .unwrap();
            let r2 = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            if !r2.contains(extra.start) {
                missed.push(technique.name());
            }
            // From the next round on the new VMA is tracked like any other.
            let r3 = session.fetch_dirty(&mut rig.hv, &mut rig.kernel).unwrap();
            assert!(r3.is_empty(), "{}: {:?}", technique.name(), r3);
            session.stop(&mut rig.hv, &mut rig.kernel).unwrap();
        }
        assert!(missed.is_empty(), "write into a VMA mapped mid-round lost by {missed:?}");
    }
}
