//! High-level facade: the API an application developer sees.
//!
//! The paper ships OoH as "a kernel module plus a userspace template the
//! developer integrates". [`OohSession`] is that template: pick a
//! [`Technique`], point it at a PID, and fetch dirty pages per round.

use crate::dirtyset::DirtySet;
use crate::tracker::{make_tracker, DirtyPageTracker, TrackEnv, Technique};
use ooh_guest::{GuestError, GuestKernel, Pid};
use ooh_hypervisor::Hypervisor;
use ooh_sim::ScopeKind;

/// A live tracking session over one process.
pub struct OohSession {
    pid: Pid,
    tracker: Box<dyn DirtyPageTracker>,
    rounds: u64,
}

impl OohSession {
    /// Start tracking `pid` with `technique`. Performs the technique's
    /// phase-1 initialization and opens the first round.
    pub fn start(
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
        pid: Pid,
        technique: Technique,
    ) -> Result<Self, GuestError> {
        let ctx = hv.ctx.clone();
        let _technique = ctx.span(ScopeKind::Technique, technique.name(), 0);
        let _process = ctx.span(ScopeKind::Process, "pid", u64::from(pid.0));
        let _phase = ctx.span(ScopeKind::Phase, "init", 0);
        let mut tracker = make_tracker(technique);
        let mut env = TrackEnv::new(hv, kernel, pid);
        tracker.init(&mut env)?;
        tracker.begin_round(&mut env)?;
        Ok(Self {
            pid,
            tracker,
            rounds: 0,
        })
    }

    pub fn technique(&self) -> Technique {
        self.tracker.technique()
    }

    pub fn pid(&self) -> Pid {
        self.pid
    }

    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Enable cross-round collection caching (see
    /// [`DirtyPageTracker::enable_collection_cache`]). Boehm's integration
    /// turns this on; CRIU's does not.
    pub fn enable_collection_cache(&mut self) {
        self.tracker.enable_collection_cache();
    }

    /// End the current round, returning the pages dirtied since the last
    /// fetch (or since `start`), and open the next round.
    pub fn fetch_dirty(
        &mut self,
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
    ) -> Result<DirtySet, GuestError> {
        let ctx = hv.ctx.clone();
        let _technique = ctx.span(ScopeKind::Technique, self.tracker.technique().name(), 0);
        let _process = ctx.span(ScopeKind::Process, "pid", u64::from(self.pid.0));
        let _phase = ctx.span(ScopeKind::Phase, "collect", 0);
        let mut env = TrackEnv::new(hv, kernel, self.pid);
        let set = self.tracker.collect(&mut env)?;
        self.tracker.begin_round(&mut env)?;
        self.rounds += 1;
        Ok(set)
    }

    /// Stop tracking and tear the mechanism down.
    pub fn stop(
        mut self,
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
    ) -> Result<(), GuestError> {
        let ctx = hv.ctx.clone();
        let _technique = ctx.span(ScopeKind::Technique, self.tracker.technique().name(), 0);
        let _process = ctx.span(ScopeKind::Process, "pid", u64::from(self.pid.0));
        let _phase = ctx.span(ScopeKind::Phase, "teardown", 0);
        let mut env = TrackEnv::new(hv, kernel, self.pid);
        self.tracker.finish(&mut env)
    }
}

impl std::fmt::Debug for OohSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OohSession")
            .field("pid", &self.pid)
            .field("technique", &self.tracker.technique())
            .field("rounds", &self.rounds)
            .finish()
    }
}
