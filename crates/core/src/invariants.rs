//! Cross-tracker agreement checker (test-only).
//!
//! The load-bearing claim of the whole library is that the four techniques
//! are *interchangeable*: for the same write pattern they must report the
//! same dirty set, round after round. This module packages the check as a
//! harness that throws a write schedule at all four trackers and fails
//! loudly on the first divergence.
//!
//! Under `--features ooh-machine/debug-invariants` the same runs also
//! exercise the machine-level shadow invariants (PML
//! one-log-per-dirty-transition, SPSC ring structure, no stale-TLB logging
//! suppression) on every simulated instruction.

use crate::{DirtySet, OohSession, Technique};
use ooh_guest::{GuestError, GuestKernel, Pid, VmaKind};
use ooh_hypervisor::Hypervisor;
use ooh_machine::{GvaRange, MachineConfig, PAGE_SIZE};
use ooh_sim::{Lane, SimCtx};

/// One booted EPML-capable stack with a single tracked process.
struct Rig {
    hv: Hypervisor,
    kernel: GuestKernel,
    pid: Pid,
    region: GvaRange,
}

/// Boot a fresh stack with `pages` pre-faulted pages (mlockall-style, like
/// the paper's Listing 1). Each technique gets its own rig so a stateful bug
/// in one cannot mask a divergence in another.
fn boot(pages: u64) -> Result<Rig, GuestError> {
    let mut hv = Hypervisor::new(MachineConfig::epml(64 * 1024 * PAGE_SIZE), SimCtx::new());
    let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, 1)?;
    let mut kernel = GuestKernel::new(vm);
    let pid = kernel.spawn(&mut hv)?;
    let region = kernel.mmap(pid, pages, true, VmaKind::Anon)?;
    for g in region.iter_pages().collect::<Vec<_>>() {
        kernel.write_u64(&mut hv, pid, g, 0, Lane::Tracked)?;
    }
    Ok(Rig {
        hv,
        kernel,
        pid,
        region,
    })
}

/// Run `rounds` (each a list of page indices into the tracked region to
/// write) through one technique, returning the dirty set it reported for
/// each round.
fn run_schedule(
    technique: Technique,
    pages: u64,
    rounds: &[Vec<u64>],
) -> Result<Vec<DirtySet>, GuestError> {
    let mut rig = boot(pages)?;
    let mut session = OohSession::start(&mut rig.hv, &mut rig.kernel, rig.pid, technique)?;
    let mut reported = Vec::with_capacity(rounds.len());
    for round in rounds {
        for &i in round {
            assert!(
                i < pages,
                "invariant-checker misuse: page index {i} outside the {pages}-page region"
            );
            rig.kernel.write_u64(
                &mut rig.hv,
                rig.pid,
                rig.region.start.add(i * PAGE_SIZE),
                i + 1,
                Lane::Tracked,
            )?;
        }
        reported.push(session.fetch_dirty(&mut rig.hv, &mut rig.kernel)?);
    }
    session.stop(&mut rig.hv, &mut rig.kernel)?;
    Ok(reported)
}

/// Drive all four techniques through the identical write schedule and assert
/// they report identical dirty sets for every round. Panics with a
/// round-and-technique diagnostic on the first divergence; returns the
/// agreed per-round sets on success so callers can make further assertions.
///
/// `rounds[r]` lists the page indices (relative to a `pages`-page tracked
/// region) written during round `r`; duplicates are fine and model repeated
/// writes to a hot page within one round.
pub fn check_cross_tracker_agreement(
    pages: u64,
    rounds: &[Vec<u64>],
) -> Result<Vec<DirtySet>, GuestError> {
    let baseline_technique = Technique::ALL[0];
    let baseline = run_schedule(baseline_technique, pages, rounds)?;
    for &technique in &Technique::ALL[1..] {
        let sets = run_schedule(technique, pages, rounds)?;
        for (round, (got, want)) in sets.iter().zip(baseline.iter()).enumerate() {
            assert_eq!(
                got,
                want,
                "cross-tracker invariant violated: round {round} dirty set from {} \
                 disagrees with {} — extra pages {:?}, missing pages {:?}",
                technique.name(),
                baseline_technique.name(),
                got.difference(want).pages().collect::<Vec<_>>(),
                want.difference(got).pages().collect::<Vec<_>>(),
            );
        }
    }
    Ok(baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_holds_on_a_mixed_schedule() {
        let rounds = vec![
            vec![0, 3, 7, 7, 15],
            vec![],
            vec![3, 4],
            vec![15, 14, 13, 12, 11, 10, 9, 8],
        ];
        let sets = check_cross_tracker_agreement(16, &rounds).unwrap();
        assert_eq!(sets.len(), rounds.len());
        assert_eq!(sets[0].len(), 4, "round 0: duplicates collapse to one page");
        assert!(sets[1].is_empty(), "round 1: nothing written");
        assert_eq!(sets[3].len(), 8);
    }

    #[test]
    fn agreement_holds_past_pml_buffer_capacity() {
        // >512 writes in one round forces a PML buffer-full episode for the
        // PML techniques; agreement must survive the fallback path.
        let rounds = vec![(0..600).collect::<Vec<u64>>()];
        let sets = check_cross_tracker_agreement(600, &rounds).unwrap();
        assert_eq!(sets[0].len(), 600);
    }

    #[test]
    #[should_panic(expected = "invariant-checker misuse")]
    fn out_of_region_index_is_rejected() {
        let _ = check_cross_tracker_agreement(4, &[vec![4]]);
    }
}
