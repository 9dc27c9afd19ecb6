//! The `/proc` technique: soft-dirty bits via `clear_refs` + `pagemap`.
//!
//! This is what stock CRIU and Boehm use. Costs: the clear_refs PTE sweep
//! and TLB flush per round (M15), one kernel-handled write fault per
//! re-dirtied page during monitoring (M5), and the big pagemap scan at
//! collection (M16).

use crate::dirtyset::DirtySet;
use crate::tracker::{DirtyPageTracker, TrackEnv, Technique};
use ooh_guest::GuestError;
use ooh_sim::Lane;

#[derive(Debug, Default)]
pub struct ProcTracker;

impl ProcTracker {
    pub fn new() -> Self {
        Self
    }
}

impl DirtyPageTracker for ProcTracker {
    fn technique(&self) -> Technique {
        Technique::Proc
    }

    fn init(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        // No mechanism to arm; the first round starts with clear_refs.
        self.begin_round(env)
    }

    fn begin_round(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        env.kernel.clear_refs(env.hv, env.pid, Lane::Tracker)?;
        Ok(())
    }

    fn collect(&mut self, env: &mut TrackEnv<'_>) -> Result<DirtySet, GuestError> {
        let dirty = env
            .kernel
            .soft_dirty_pages(env.hv, env.pid, Lane::Tracker)?;
        Ok(dirty.into())
    }

    fn finish(&mut self, _env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        Ok(())
    }
}
