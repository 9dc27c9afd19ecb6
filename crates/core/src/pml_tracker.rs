//! The OoH trackers: per-process PML through the OoH module's ring.
//!
//! SPML and EPML are two back ends of one userspace library. Both load the
//! OoH module, register the process, and drain its per-process ring on
//! collect; they differ only in what a ring entry is:
//!
//! * **SPML** (hypervisor-emulated PML): the hypervisor copies logged
//!   **GPAs** into the ring on every schedule-out and buffer-full event, so
//!   the tracker reverse-maps GPA→GVA — the step that dominates SPML's
//!   collection time (Figure 3) and makes it the slowest technique for the
//!   Tracker.
//! * **EPML** (the paper's hardware extension): the page-walk circuit logs
//!   **GVAs** straight into the guest-level buffer, which the module drains
//!   into the ring on self-IPIs and schedule-outs. Collection is just a ring
//!   drain — no reverse mapping, no hypercalls — so the only
//!   memory-size-dependent cost left is the ring copy itself (M18), which
//!   is why EPML scales where everything else does not.

use crate::dirtyset::DirtySet;
use crate::revmap::{reverse_map_batch, reverse_map_batch_cached, RevMapCache};
use crate::tracker::{
    conservative_full_scan, writable_ranges, DirtyPageTracker, Technique, TrackEnv,
};
use ooh_guest::{GuestError, GuestKernel, OohMode, OohModule};
use ooh_machine::{DirtyBitmap, Gpa, Gva, RingView};

#[derive(Debug)]
pub struct PmlTracker {
    mode: OohMode,
    /// Ring drop count at the end of the previous round (overflow detector).
    last_dropped: u64,
    /// SPML only: when set, GPA→GVA resolutions are cached across rounds
    /// (Boehm's integration, paper footnote 2: the first cycle pays the
    /// reverse mapping, later cycles reuse it). CRIU does not use this.
    cache: Option<RevMapCache>,
}

impl PmlTracker {
    pub fn new(mode: OohMode) -> Self {
        Self {
            mode,
            last_dropped: 0,
            cache: None,
        }
    }
}

/// Ensure the kernel has an OoH module loaded in `mode`; (re)loads if the
/// mode differs. The module lives in `kernel.ooh`.
fn ensure_module(env: &mut TrackEnv<'_>, mode: OohMode) -> Result<(), GuestError> {
    if env.kernel.ooh.as_ref().is_some_and(|m| m.mode == mode) {
        return Ok(());
    }
    if let Some(old) = env.kernel.ooh.take() {
        old.unload(env.kernel, env.hv)?;
    }
    let module = OohModule::load(env.kernel, env.hv, mode)?;
    env.kernel.ooh = Some(module);
    Ok(())
}

/// Run `f` with the module temporarily taken out of the kernel (borrow
/// dance: the module's methods need `&mut GuestKernel`).
fn with_module<R>(
    env: &mut TrackEnv<'_>,
    f: impl FnOnce(&mut OohModule, &mut TrackEnv<'_>) -> Result<R, GuestError>,
) -> Result<R, GuestError> {
    let mut module = env
        .kernel
        .ooh
        .take()
        .expect("OoH module must be loaded first");
    let r = f(&mut module, env);
    env.kernel.ooh = Some(module);
    r
}

/// The module's ring shared with this process.
fn ring(kernel: &GuestKernel) -> &RingView {
    kernel
        .ooh
        .as_ref()
        .expect("OoH module must be loaded first")
        .ring()
}

/// Drain the shared ring into a vector of raw entries.
fn drain_ring(env: &mut TrackEnv<'_>) -> Result<Vec<u64>, GuestError> { // ooh-verify: allow(cost-coverage) — ring copies are charged where they are produced (RingBufferCopyEntry per push)
    Ok(ring(env.kernel).drain(&mut env.hv.machine.phys)?)
}

impl DirtyPageTracker for PmlTracker {
    fn technique(&self) -> Technique {
        match self.mode {
            OohMode::Spml => Technique::Spml,
            OohMode::Epml => Technique::Epml,
        }
    }

    fn init(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        ensure_module(env, self.mode)?;
        let pid = env.pid;
        with_module(env, |m, env| m.track(env.kernel, env.hv, pid))
    }

    fn begin_round(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        // Flush anything logged before this round into the ring, then
        // discard it: the round starts clean.
        with_module(env, |m, env| m.flush(env.kernel, env.hv))?;
        drain_ring(env)?;
        Ok(())
    }

    fn collect(&mut self, env: &mut TrackEnv<'_>) -> Result<DirtySet, GuestError> {
        // Refresh the registered region: VMAs mapped since init (heap
        // growth) are tracked too, as a real tracker re-reading
        // /proc/PID/maps would.
        let registered = writable_ranges(env)?;
        with_module(env, |m, env| m.flush(env.kernel, env.hv))?;
        let raw = drain_ring(env)?;

        // Ring overflow since last round: entries were lost; fall back to a
        // conservative full scan, bypassing the ring and the reverse map.
        // The warm cache may hold translations for frames whose logging we
        // just lost track of, so it must not leak into the next round.
        let dropped = ring(env.kernel).dropped(&env.hv.machine.phys)?;
        if dropped != self.last_dropped {
            self.last_dropped = dropped;
            if let Some(cache) = self.cache.as_mut() {
                cache.clear();
            }
            return conservative_full_scan(env, &registered);
        }

        let mut set = match self.mode {
            // EPML's entries are already GVAs.
            OohMode::Epml => raw.into_iter().map(Gva).collect(),
            OohMode::Spml => {
                // Build the library's address index by walking the process
                // pagemap (the paper's M16 "PT walk in userspace", Figure
                // 3's second-largest SPML collection component). Cached
                // mode (Boehm) only pays it while the cache is cold.
                if self.cache.as_ref().is_none_or(RevMapCache::is_empty) {
                    for range in &registered {
                        env.kernel
                            .read_pagemap(env.hv, env.pid, *range, ooh_sim::Lane::Tracker)?;
                    }
                }
                // Dedupe GPAs (a page re-logs once per scheduling quantum)
                // by packing them into a word bitmap — one bit per logged
                // page, iterated ascending and unique — then reverse-map,
                // the expensive part.
                let gpa_pages: DirtyBitmap = raw.into_iter().map(|r| Gpa(r).page()).collect();
                match self.cache.as_mut() {
                    Some(cache) => {
                        reverse_map_batch_cached(env.hv, env.kernel, env.pid, &gpa_pages, cache)?
                    }
                    None => reverse_map_batch(env.hv, env.kernel, env.pid, &gpa_pages)?,
                }
            }
        };
        set.retain_within(&registered);
        Ok(set)
    }

    fn finish(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        with_module(env, |m, env| m.untrack(env.kernel, env.hv))
    }

    fn enable_collection_cache(&mut self) {
        if self.mode == OohMode::Spml {
            self.cache = Some(RevMapCache::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooh_guest::VmaKind;
    use ooh_hypervisor::Hypervisor;
    use ooh_machine::{MachineConfig, PAGE_SIZE};
    use ooh_sim::{Event, Lane, SimCtx};

    /// Ring overflow: a 1-data-page ring (512 entries) overflows under a
    /// 600-page round, forcing the conservative full scan. It must still
    /// report every written page, and the reverse-map cache SPML warmed in
    /// the round before must not survive into the next one.
    #[test]
    fn overflow_falls_back_to_a_full_scan() {
        for mode in [OohMode::Spml, OohMode::Epml] {
            let mut hv = Hypervisor::new(MachineConfig::epml(64 * 1024 * PAGE_SIZE), SimCtx::new());
            let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, 1).unwrap();
            let mut kernel = GuestKernel::new(vm);
            let pid = kernel.spawn(&mut hv).unwrap();
            let range = kernel.mmap(pid, 600, true, VmaKind::Anon).unwrap();
            let pages: Vec<Gva> = range.iter_pages().collect();

            // Preload the module with a tiny ring so one round overflows
            // it; the tracker's init reuses a module whose mode matches.
            let module = OohModule::load_with(&mut kernel, &mut hv, mode, 1).unwrap();
            kernel.ooh = Some(module);

            let mut tracker = PmlTracker::new(mode);
            tracker.enable_collection_cache();
            let mut env = TrackEnv::new(&mut hv, &mut kernel, pid);
            tracker.init(&mut env).unwrap();
            for round in [&pages[..8], &pages[..]] {
                tracker.begin_round(&mut env).unwrap();
                for &gva in round {
                    env.kernel
                        .write_u64(env.hv, pid, gva, 7, Lane::Tracked)
                        .unwrap();
                }
                let set = tracker.collect(&mut env).unwrap();
                for &gva in round {
                    assert!(set.contains(gva), "{mode:?} lost {gva:?}");
                }
                let warm = tracker.cache.as_ref().is_some_and(|c| !c.is_empty());
                let overflowed = env.hv.ctx.counters().get(Event::RingBufferOverflow) > 0;
                // Round 1 fits the ring (and warms SPML's cache); round 2
                // overflows it, and the fallback drops the cache.
                assert_eq!(overflowed, round.len() == pages.len(), "{mode:?}");
                assert_eq!(warm, !overflowed && mode == OohMode::Spml, "{mode:?}");
            }
        }
    }
}
