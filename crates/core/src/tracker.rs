//! The tracker abstraction: one trait, four techniques.
//!
//! The paper's Tracker loop has four phases — initialization, monitoring,
//! collection, exploitation. The trait maps them directly:
//! [`DirtyPageTracker::init`] (phase 1), the time between `begin_round` and
//! `collect` (phase 2, Tracked runs), [`DirtyPageTracker::collect`]
//! (phase 3), and the caller's own use of the returned [`DirtySet`]
//! (phase 4 — CRIU writes pages, the GC re-marks them).

use crate::dirtyset::DirtySet;
use ooh_guest::{GuestError, GuestKernel, OohMode, Pid};
use ooh_hypervisor::Hypervisor;
use ooh_machine::GvaRange;
use serde::Serialize;

/// The four techniques the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Technique {
    /// `/proc/PID/pagemap` soft-dirty (CRIU's and Boehm's default).
    Proc,
    /// userfaultfd in write-protect mode.
    Ufd,
    /// Shadow PML: hypervisor-emulated per-process PML (software-only OoH).
    Spml,
    /// Extended PML: the paper's hardware extension.
    Epml,
}

impl Technique {
    pub const ALL: [Technique; 4] =
        [Technique::Proc, Technique::Ufd, Technique::Spml, Technique::Epml];

    pub fn name(self) -> &'static str {
        match self {
            Technique::Proc => "/proc",
            Technique::Ufd => "ufd",
            Technique::Spml => "SPML",
            Technique::Epml => "EPML",
        }
    }
}

/// Everything a tracker operation needs: the stack plus the monitored PID.
pub struct TrackEnv<'a> {
    pub hv: &'a mut Hypervisor,
    pub kernel: &'a mut GuestKernel,
    pub pid: Pid,
}

impl<'a> TrackEnv<'a> {
    pub fn new(hv: &'a mut Hypervisor, kernel: &'a mut GuestKernel, pid: Pid) -> Self {
        Self { hv, kernel, pid }
    }
}

/// A dirty-page tracking technique, as used by CRIU and the GC.
pub trait DirtyPageTracker {
    /// Which technique this is.
    fn technique(&self) -> Technique;

    /// Phase 1: one-time setup (register the PID, arm the mechanism). Also
    /// begins the first round.
    fn init(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError>;

    /// Start a fresh round: from this point on, writes are recorded.
    /// (For `/proc` this is clear_refs; for ufd, re-protection; for the PML
    /// techniques it is implicit — the previous collect reset the state.)
    fn begin_round(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError>;

    /// End the round: return every page dirtied since `begin_round`.
    fn collect(&mut self, env: &mut TrackEnv<'_>) -> Result<DirtySet, GuestError>;

    /// Tear the mechanism down.
    fn finish(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError>;

    /// Opt into cross-round caching of collection work where the technique
    /// supports it. Today this is SPML's GPA→GVA cache (paper footnote 2:
    /// Boehm reverse-maps once and reuses the addresses); a no-op elsewhere.
    fn enable_collection_cache(&mut self) {}
}

/// Construct a tracker for `technique`.
pub fn make_tracker(technique: Technique) -> Box<dyn DirtyPageTracker> {
    match technique {
        Technique::Proc => Box::new(crate::proc_tracker::ProcTracker::new()),
        Technique::Ufd => Box::new(crate::ufd_tracker::UfdTracker::new()),
        Technique::Spml => Box::new(crate::pml_tracker::PmlTracker::new(OohMode::Spml)),
        Technique::Epml => Box::new(crate::pml_tracker::PmlTracker::new(OohMode::Epml)),
    }
}

/// The monitored process's writable VMAs, as a tracker re-reading
/// `/proc/PID/maps` sees them now.
pub(crate) fn writable_ranges(env: &TrackEnv<'_>) -> Result<Vec<GvaRange>, GuestError> {
    Ok(env
        .kernel
        .vmas(env.pid)?
        .iter()
        .filter(|v| v.writable)
        .map(|v| v.range)
        .collect())
}

/// The conservative answer when a tracker cannot know what was written in
/// `ranges` (lost ring entries, a VMA it never armed): every resident page
/// may be dirty. The library pays a full pagemap walk (M16) for it, like
/// any address-space scan.
pub(crate) fn conservative_full_scan(
    env: &mut TrackEnv<'_>,
    ranges: &[GvaRange],
) -> Result<DirtySet, GuestError> {
    let mut set = DirtySet::new();
    for range in ranges {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_names() {
        assert_eq!(Technique::Proc.name(), "/proc");
        assert_eq!(Technique::Epml.name(), "EPML");
    }

    #[test]
    fn factory_constructs_all() {
        for t in Technique::ALL {
            assert_eq!(make_tracker(t).technique(), t);
        }
    }
}
