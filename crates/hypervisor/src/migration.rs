//! Pre-copy live migration — the hypervisor's *own* PML consumer.
//!
//! PML was introduced for exactly this: during the pre-copy phase the
//! hypervisor repeatedly sends pages dirtied since the previous round, and
//! PML tells it which those are without write-protecting the guest. We
//! implement the standard iterative algorithm so we can (a) demonstrate the
//! paper's guest/hypervisor PML *coexistence* (the `enabled_by_guest` /
//! `enabled_by_hyp` flags) and (b) provide the hypervisor-side baseline the
//! "Alternative" of §III-C alludes to (checkpoint the whole VM instead of
//! the process).

use crate::hypervisor::Hypervisor;
use crate::vm::VmId;
use ooh_machine::MachineError;
use ooh_sim::{Event, Lane};
use serde::Serialize;

/// Tunables of the pre-copy loop.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MigrationConfig {
    /// Simulated time to transfer one page to the destination (4 KiB over
    /// ~10 Gb/s plus protocol overhead ≈ 4 µs).
    pub page_copy_ns: u64,
    /// Stop-and-copy threshold: switch to the final round when the dirty set
    /// falls at or below this many pages.
    pub stop_threshold_pages: u64,
    /// Hard cap on pre-copy rounds (guests can dirty faster than we copy).
    pub max_rounds: u32,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self {
            page_copy_ns: 4_000,
            stop_threshold_pages: 64,
            max_rounds: 30,
        }
    }
}

/// Per-round record.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RoundStats {
    pub round: u64,
    pub pages_sent: u64,
    /// Virtual time spent copying this round's pages.
    pub ns: u64,
}

/// Final report.
#[derive(Debug, Clone, Serialize)]
pub struct MigrationReport {
    pub rounds: Vec<RoundStats>,
    pub total_pages_sent: u64,
    pub downtime_pages: u64,
    pub total_ns: u64,
    pub converged: bool,
}

/// Driver object for one in-flight migration.
#[derive(Debug)]
pub struct PreCopyMigration {
    vm: VmId,
    config: MigrationConfig,
    rounds: Vec<RoundStats>,
}

impl PreCopyMigration {
    /// Begin migrating `vm`: raises `enabled_by_hyp` (PML on for the whole
    /// VM, coexisting with any guest-level use) and queues the initial
    /// full-RAM copy as round 0.
    pub fn start(hv: &mut Hypervisor, vm: VmId, config: MigrationConfig) -> Self {
        {
            let vmref = hv.vm_mut(vm);
            vmref.spml.enabled_by_hyp = true;
            vmref.sync_logging();
        }
        let mut this = Self {
            vm,
            config,
            rounds: Vec::new(),
        };
        // Round 0: everything currently allocated.
        let pages = hv.vm(vm).allocated_pages();
        this.record_round(hv, pages);
        this
    }

    fn record_round(&mut self, hv: &Hypervisor, pages: u64) {
        let ns = pages * self.config.page_copy_ns;
        if pages > 0 {
            // Counted per page so cost-coverage and the fleet's per-VM
            // attribution see the copy channel as a mechanism, not dead time.
            hv.ctx
                .charge_n_ns(Lane::Hypervisor, Event::MigrationPageCopy, pages, ns);
        }
        // The round counter is architectural (it lands in serialized
        // reports), so it is wide enough to never truncate — the old
        // `as u32` would have wrapped silently.
        self.rounds.push(RoundStats {
            round: self.rounds.len() as u64,
            pages_sent: pages,
            ns,
        });
    }

    /// One pre-copy round: drain PML on every vCPU, take the dirty set, and
    /// "send" it. Returns the number of pages sent this round.
    pub fn round(&mut self, hv: &mut Hypervisor) -> Result<u64, MachineError> {
        // Saturating, not truncating: an `as u32` cast here would silently
        // skip the upper vCPUs' buffers if the count ever exceeded u32
        // (unreachable today — create_vm takes the count as u32).
        let n_vcpus = u32::try_from(hv.vm(self.vm).vcpus.len()).unwrap_or(u32::MAX);
        for v in 0..n_vcpus {
            hv.drain_hyp_pml(self.vm, v)?;
        }
        let pages = {
            let vmref = hv.vm_mut(self.vm);
            let dirty = vmref.hyp_dirty.take();
            dirty.len() as u64
        };
        self.record_round(hv, pages);
        Ok(pages)
    }

    /// Should we give up on convergence (dirty rate too high)?
    pub fn rounds_exhausted(&self) -> bool {
        // Compare in usize: a truncating `as u32` on the count would let a
        // (pathological) >2^32-round migration sail past the cap.
        self.rounds.len() >= self.config.max_rounds as usize
    }

    /// Has the dirty set shrunk enough for stop-and-copy?
    pub fn converged(&self, last_round_pages: u64) -> bool {
        last_round_pages <= self.config.stop_threshold_pages
    }

    /// Final stop-and-copy round: the VM is paused, the remaining dirty set
    /// is sent (this is the downtime), PML is released, flags cleared.
    pub fn finalize(mut self, hv: &mut Hypervisor) -> Result<MigrationReport, MachineError> {
        // Saturating, not truncating: an `as u32` cast here would silently
        // skip the upper vCPUs' buffers if the count ever exceeded u32
        // (unreachable today — create_vm takes the count as u32).
        let n_vcpus = u32::try_from(hv.vm(self.vm).vcpus.len()).unwrap_or(u32::MAX);
        for v in 0..n_vcpus {
            hv.drain_hyp_pml(self.vm, v)?;
        }
        let remaining: u64 = {
            let vmref = hv.vm_mut(self.vm);
            let n = vmref.hyp_dirty.len() as u64;
            vmref.hyp_dirty.clear();
            n
        };
        let converged = self.converged(remaining);
        self.record_round(hv, remaining);
        {
            // Paper §IV-C(3): before deactivating PML for its own use, the
            // hypervisor checks the guest flag — if the guest still has PML
            // enabled, only the hypervisor's interest is dropped and logging
            // stays on for the guest.
            let vmref = hv.vm_mut(self.vm);
            vmref.spml.enabled_by_hyp = false;
            vmref.sync_logging();
        }
        let total_pages_sent = self.rounds.iter().map(|r| r.pages_sent).sum();
        let total_ns = self.rounds.iter().map(|r| r.ns).sum();
        Ok(MigrationReport {
            downtime_pages: remaining,
            total_pages_sent,
            total_ns,
            converged,
            rounds: self.rounds,
        })
    }

    /// Run the whole loop to completion.
    pub fn run_to_completion(
        mut self,
        hv: &mut Hypervisor,
        mut between_rounds: impl FnMut(&mut Hypervisor) -> Result<(), MachineError>,
    ) -> Result<MigrationReport, MachineError> {
        loop {
            between_rounds(hv)?;
            let sent = self.round(hv)?;
            if self.converged(sent) || self.rounds_exhausted() {
                return self.finalize(hv);
            }
        }
    }
}
