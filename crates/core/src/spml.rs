//! The SPML tracker: hypervisor-emulated per-process PML.
//!
//! The hypervisor copies logged **GPAs** into the shared ring on every
//! schedule-out and buffer-full event; this tracker fetches the ring and
//! reverse-maps GPA→GVA — the step that dominates SPML's collection time
//! (Figure 3) and makes it the slowest technique for the Tracker.

use crate::dirtyset::DirtySet;
use crate::revmap::{reverse_map_batch, reverse_map_batch_cached, RevMapCache};
use crate::tracker::{DirtyPageTracker, TrackEnv, Technique};
use ooh_guest::{GuestError, OohMode, OohModule};
use ooh_machine::{DirtyBitmap, Gpa, GvaRange};

#[derive(Debug, Default)]
pub struct SpmlTracker {
    registered: Vec<GvaRange>,
    /// Entries fetched from the ring this round (raw GPAs, pre-revmap).
    pub raw_entries_last_round: u64,
    /// Ring drop count at the end of the previous round (overflow detector).
    last_dropped: u64,
    /// Rounds that had to fall back to a conservative full scan.
    pub overflow_fallbacks: u64,
    /// When set, GPA→GVA resolutions are cached across rounds (Boehm's
    /// integration, paper footnote 2: the first cycle pays the reverse
    /// mapping, later cycles reuse it). CRIU does not use this.
    cache: Option<RevMapCache>,
}

impl SpmlTracker {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Ensure the kernel has an OoH module loaded in `mode`; (re)loads if the
/// mode differs. Returns nothing — the module lives in `kernel.ooh`.
pub(crate) fn ensure_module(
    env: &mut TrackEnv<'_>,
    mode: OohMode,
) -> Result<(), GuestError> {
    let reload = match env.kernel.ooh.as_ref() {
        Some(m) => m.mode != mode,
        None => true,
    };
    if reload {
        if let Some(old) = env.kernel.ooh.take() {
            old.unload(env.kernel, env.hv)?;
        }
        let module = OohModule::load(env.kernel, env.hv, mode)?;
        env.kernel.ooh = Some(module);
    }
    Ok(())
}

/// Run `f` with the module temporarily taken out of the kernel (borrow
/// dance: the module's methods need `&mut GuestKernel`).
pub(crate) fn with_module<R>(
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

/// Drain the shared ring into a vector of raw entries.
pub(crate) fn drain_ring(env: &mut TrackEnv<'_>) -> Result<Vec<u64>, GuestError> { // ooh-verify: allow(cost-coverage) — ring copies are charged where they are produced (RingBufferCopyEntry per push)
    let ring = env
        .kernel
        .ooh
        .as_ref()
        .expect("OoH module must be loaded first")
        .ring()
        .clone();
    Ok(ring.drain(&mut env.hv.machine.phys)?)
}

/// Total entries ever dropped from the ring (overflow detector).
pub(crate) fn ring_dropped(env: &mut TrackEnv<'_>) -> Result<u64, GuestError> {
    let ring = env
        .kernel
        .ooh
        .as_ref()
        .expect("OoH module must be loaded first")
        .ring()
        .clone();
    Ok(ring.dropped(&env.hv.machine.phys)?)
}

/// Overflow fallback: entries were lost, so the only safe answer is "every
/// resident page in the registered region may be dirty". The library pays a
/// full pagemap walk (M16) for it, like any address-space scan.
pub(crate) fn conservative_full_scan(
    env: &mut TrackEnv<'_>,
    registered: &[GvaRange],
) -> Result<DirtySet, GuestError> {
    let mut set = DirtySet::new();
    for range in registered {
        for e in env
            .kernel
            .read_pagemap(env.hv, env.pid, *range, ooh_sim::Lane::Tracker)?
        {
            if e.present {
                set.insert(e.gva);
            }
        }
    }
    Ok(set)
}

impl DirtyPageTracker for SpmlTracker {
    fn technique(&self) -> Technique {
        Technique::Spml
    }

    fn init(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        ensure_module(env, OohMode::Spml)?;
        let pid = env.pid;
        with_module(env, |m, env| m.track(env.kernel, env.hv, pid))?;
        self.registered = env
            .kernel
            .vmas(env.pid)?
            .iter()
            .filter(|v| v.writable)
            .map(|v| v.range)
            .collect();
        Ok(())
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
        //
        self.registered = env
            .kernel
            .vmas(env.pid)?
            .iter()
            .filter(|v| v.writable)
            .map(|v| v.range)
            .collect();
        with_module(env, |m, env| m.flush(env.kernel, env.hv))?;
        let raw = drain_ring(env)?;
        self.raw_entries_last_round = raw.len() as u64;

        // Ring overflow since last round: entries were lost; fall back to a
        // conservative full scan.
        let dropped = ring_dropped(env)?;
        if dropped != self.last_dropped {
            self.last_dropped = dropped;
            self.overflow_fallbacks += 1;
            // The fallback bypasses the ring and the reverse map entirely:
            // the pre-overflow raw count describes a round that never
            // completed, and the warm cache may hold translations for frames
            // whose logging we just lost track of. Neither may leak into the
            // next round.
            self.raw_entries_last_round = 0;
            if let Some(cache) = self.cache.as_mut() {
                cache.clear();
            }
            return conservative_full_scan(env, &self.registered);
        }

        // Build the library's address index by walking the process pagemap
        // (the paper's M16 "PT walk in userspace", Figure 3's second-largest
        // SPML collection component). Cached-revmap mode (Boehm) only pays
        // it while the cache is cold.
        if self.cache.as_ref().map(|c| c.is_empty()).unwrap_or(true) {
            for range in self.registered.clone() {
                let _ = env
                    .kernel
                    .read_pagemap(env.hv, env.pid, range, ooh_sim::Lane::Tracker)?;
            }
        }

        // Dedupe GPAs (a page re-logs once per scheduling quantum) by
        // packing them into a word bitmap — one bit set per logged page,
        // iterated ascending and unique, exactly the order the old
        // sort+dedup produced — then reverse-map, the expensive part.
        let gpa_pages: DirtyBitmap = raw.into_iter().map(|r| Gpa(r).page()).collect();
        let mut set = match self.cache.as_mut() {
            Some(cache) => {
                reverse_map_batch_cached(env.hv, env.kernel, env.pid, &gpa_pages, cache)?
            }
            None => reverse_map_batch(env.hv, env.kernel, env.pid, &gpa_pages)?,
        };
        set.retain_within(&self.registered);
        Ok(set)
    }

    fn finish(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        with_module(env, |m, env| m.untrack(env.kernel, env.hv))
    }

    fn enable_collection_cache(&mut self) {
        self.cache = Some(RevMapCache::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{DirtyPageTracker, TrackEnv};
    use ooh_guest::{GuestKernel, VmaKind};
    use ooh_hypervisor::Hypervisor;
    use ooh_machine::{MachineConfig, PAGE_SIZE};
    use ooh_sim::{Lane, SimCtx};

    /// Regression test for the overflow-fallback reset: a 1-data-page ring
    /// (512 entries) overflows under a 600-page round, forcing the
    /// conservative full scan. Before the fix, `raw_entries_last_round`
    /// kept the pre-overflow count of a round that never completed, and the
    /// warm reverse-map cache survived into the next round.
    #[test]
    fn overflow_fallback_resets_raw_count_and_cache() {
        let mut hv = Hypervisor::new(MachineConfig::stock(64 * 1024 * PAGE_SIZE), SimCtx::new());
        let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, 1).unwrap();
        let mut kernel = GuestKernel::new(vm);
        let pid = kernel.spawn(&mut hv).unwrap();
        let pages = 600u64;
        let range = kernel.mmap(pid, pages, true, VmaKind::Anon).unwrap();

        // Preload the module with a tiny ring so one round overflows it;
        // the tracker's init reuses a module whose mode already matches.
        let module = OohModule::load_with(&mut kernel, &mut hv, OohMode::Spml, 1).unwrap();
        kernel.ooh = Some(module);

        let mut tracker = SpmlTracker::new();
        tracker.enable_collection_cache();
        let mut env = TrackEnv::new(&mut hv, &mut kernel, pid);
        tracker.init(&mut env).unwrap();
        tracker.begin_round(&mut env).unwrap();
        for gva in range.iter_pages().collect::<Vec<_>>() {
            env.kernel
                .write_u64(env.hv, pid, gva, 7, Lane::Tracked)
                .unwrap();
        }
        let set = tracker.collect(&mut env).unwrap();

        assert_eq!(tracker.overflow_fallbacks, 1, "the tiny ring must overflow");
        assert_eq!(
            tracker.raw_entries_last_round, 0,
            "pre-overflow raw count must not leak out of the failed round"
        );
        assert!(
            tracker.cache.as_ref().is_some_and(|c| c.is_empty()),
            "warm revmap cache must be dropped on fallback"
        );
        // The conservative scan still reports every written page.
        for gva in range.iter_pages() {
            assert!(set.contains(gva));
        }
    }
}
