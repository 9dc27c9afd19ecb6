//! The userfaultfd technique, write-protect mode.
//!
//! The tracker registers the monitored VMAs, write-protects them, and gets a
//! synchronous notification on each first write — during which Tracked is
//! suspended for the full userspace round trip (the paper's dominant M6
//! cost). Collection is cheap (events were gathered during monitoring);
//! starting a new round re-protects the pages that were dirtied.

use crate::dirtyset::DirtySet;
use crate::tracker::{
    conservative_full_scan, writable_ranges, DirtyPageTracker, Technique, TrackEnv,
};
use ooh_guest::{GuestError, UfdId, UfdMode};
use ooh_machine::GvaRange;

#[derive(Debug, Default)]
pub struct UfdTracker {
    ufd: Option<UfdId>,
    registered: Vec<GvaRange>,
    /// Pages dirtied in the current round (accumulated from events).
    current: DirtySet,
}

impl UfdTracker {
    pub fn new() -> Self {
        Self::default()
    }

    // The drain is a plain buffer take: the tracker's `read(2)` round trip
    // was already charged at fault-delivery time (ufd.rs charges the full
    // M6 cost synchronously), so there is nothing left to account here.
    fn drain_into_current(&mut self, env: &mut TrackEnv<'_>) { // ooh-verify: allow(cost-coverage)
        if let Some(id) = self.ufd {
            for ev in env.kernel.ufd_read_events(id) {
                self.current.insert(ev.gva);
            }
        }
    }
}

impl DirtyPageTracker for UfdTracker {
    fn technique(&self) -> Technique {
        Technique::Ufd
    }

    fn init(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        let id = env.kernel.ufd_create(env.pid, UfdMode::WriteProtect);
        self.ufd = Some(id);
        Ok(())
    }

    fn begin_round(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        // Consume any leftover events and discard them, then re-protect the
        // whole registered region (the paper's per-round M2 ioctl — its cost
        // scales with the monitored memory size). A full-range sweep also
        // covers pages that became resident since the previous round.
        self.drain_into_current(env);
        self.current = DirtySet::new();
        let id = self.ufd.expect("init not called");
        // Register VMAs that appeared since the last round (the paper's
        // trackers call UFFDIO_REGISTER as the monitored region grows),
        // then re-protect the whole region.
        let current = writable_ranges(env)?;
        for range in &current {
            if !self.registered.contains(range) {
                env.kernel.ufd_register(env.hv, id, *range);
            }
        }
        self.registered = current;
        for range in self.registered.clone() {
            env.kernel.ufd_writeprotect(env.hv, id, range, true)?;
        }
        Ok(())
    }

    fn collect(&mut self, env: &mut TrackEnv<'_>) -> Result<DirtySet, GuestError> {
        self.drain_into_current(env);
        let mut out = self.current.clone();
        // Retain within the VMAs live *now*, not the begin-round snapshot:
        // events for a range unmapped mid-round describe translations that
        // no longer exist, and the pagemap- and PML-based collectors all
        // drop such pages too.
        let live = writable_ranges(env)?;
        out.retain_within(&live);
        // A VMA mapped since `begin_round` was never registered or
        // write-protected, so writes into it raised no events: report its
        // resident pages wholesale, as CRIU dumps a VMA that appeared
        // between pre-dumps in full.
        let unarmed: Vec<GvaRange> = live
            .into_iter()
            .filter(|r| !self.registered.contains(r))
            .collect();
        out.merge(&conservative_full_scan(env, &unarmed)?);
        Ok(out)
    }

    fn finish(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        // Unprotect everything still protected so Tracked runs free.
        if let Some(id) = self.ufd.take() {
            for range in self.registered.clone() {
                env.kernel.ufd_writeprotect(env.hv, id, range, false)?;
            }
        }
        Ok(())
    }
}
