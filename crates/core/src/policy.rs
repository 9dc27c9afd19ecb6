//! Convergence/throttling policy for pre-copy loops.
//!
//! The CRIU-chain fleet scheduler in `ooh-bench` drives this policy over
//! each VM's pre-copy rounds. (The hypervisor's whole-VM
//! `PreCopyMigration` loop keeps only its built-in threshold and round
//! cap.) The control problem: a guest that dirties pages faster than the
//! copy channel can ship them never converges, and an unbounded loop just
//! burns rounds.
//! The standard datacenter answer (Xen, QEMU auto-converge, Firecracker)
//! is a three-state policy:
//!
//! 1. **Continue** while the dirty set is shrinking toward the
//!    stop-and-copy threshold;
//! 2. **Throttle** the writer (inject think-time / reduce its quantum)
//!    once its dirty *rate* has exceeded the copy bandwidth for a few
//!    consecutive rounds;
//! 3. **Stop-and-copy** when the dirty set is small enough (converged) or
//!    when the round cap / throttle ladder is exhausted (forced).
//!
//! All inputs are virtual-clock quantities, so decisions are a pure
//! function of the round history — the same seeded scenario always takes
//! the same decision sequence, which is what lets the fleet determinism
//! tests cover policy behaviour byte-for-byte.

use serde::Serialize;

/// Nanoseconds per virtual second (rate conversions).
const NS_PER_SEC: u64 = 1_000_000_000;

/// What the policy tells the pre-copy driver to do after a round.
/// (Reports serialize the [`token`](Decision::token) string — the offline
/// serde shim only derives unit enums.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Dirty set trending down and rate under bandwidth: run another round.
    Continue,
    /// Dirty rate has exceeded copy bandwidth for too long: slow the
    /// writer. `level` is the cumulative throttle step (each step halves
    /// the writer's quantum in the reference drivers).
    Throttle { level: u32 },
    /// Pause the writer and ship the remainder. `converged` is true when
    /// the dirty set fell under the stop threshold, false when the policy
    /// gave up (round cap or throttle ladder exhausted).
    StopAndCopy { converged: bool },
}

impl Decision {
    /// Short token used in report tables ("cont", "thr1", "stop", "bail").
    pub fn token(&self) -> String {
        match self {
            Decision::Continue => "cont".to_string(),
            Decision::Throttle { level } => format!("thr{level}"),
            Decision::StopAndCopy { converged: true } => "stop".to_string(),
            Decision::StopAndCopy { converged: false } => "bail".to_string(),
        }
    }
}

/// Tunables of the convergence policy.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ConvergencePolicy {
    /// Hard cap on pre-copy rounds (base/full copy excluded).
    pub max_rounds: u32,
    /// Stop-and-copy when a round's dirty set is at or below this many
    /// pages — shipping them while paused costs acceptable downtime.
    pub stop_threshold_pages: u64,
    /// Copy-channel bandwidth in pages per virtual second; a writer
    /// dirtying faster than this can never converge un-throttled.
    pub bandwidth_pps: u64,
    /// Consecutive over-bandwidth rounds tolerated before throttling.
    pub patience_rounds: u32,
    /// Throttle-ladder height; past it the policy stops-and-copies.
    pub max_throttle_level: u32,
}

impl Default for ConvergencePolicy {
    fn default() -> Self {
        Self {
            max_rounds: 16,
            stop_threshold_pages: 64,
            // 4 KiB over ~10 Gb/s with protocol overhead ≈ 4 µs/page.
            bandwidth_pps: 250_000,
            patience_rounds: 2,
            max_throttle_level: 3,
        }
    }
}

/// Mutable per-migration policy state: the round counter, the
/// over-bandwidth streak and the current throttle level.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PolicyState {
    /// Pre-copy rounds observed so far.
    pub rounds: u32,
    /// Consecutive rounds whose dirty rate exceeded bandwidth.
    pub hot_streak: u32,
    /// Current throttle level (0 = unthrottled).
    pub throttle_level: u32,
    /// Rounds during which a throttle was in force.
    pub throttled_rounds: u32,
}

/// Dirty rate in pages per virtual second; a zero interval (nothing ran
/// between drains) with dirty pages counts as unbounded rate.
pub fn dirty_rate_pps(pages: u64, interval_ns: u64) -> u64 {
    if interval_ns == 0 {
        return if pages == 0 { 0 } else { u64::MAX };
    }
    u128::from(pages)
        .saturating_mul(u128::from(NS_PER_SEC))
        .checked_div(u128::from(interval_ns))
        .map_or(u64::MAX, |r| u64::try_from(r).unwrap_or(u64::MAX))
}

impl ConvergencePolicy {
    /// Observe one pre-copy round (`pages` dirtied over `interval_ns` of
    /// virtual time since the previous drain) and decide what to do next.
    /// Pure function of `(self, *state, pages, interval_ns)`; mutates
    /// `state` to carry the streak/level across rounds.
    pub fn decide(&self, state: &mut PolicyState, pages: u64, interval_ns: u64) -> Decision {
        state.rounds += 1;
        if state.throttle_level > 0 {
            state.throttled_rounds += 1;
        }
        if pages <= self.stop_threshold_pages {
            return Decision::StopAndCopy { converged: true };
        }
        if state.rounds >= self.max_rounds {
            return Decision::StopAndCopy { converged: false };
        }
        if dirty_rate_pps(pages, interval_ns) > self.bandwidth_pps {
            state.hot_streak += 1;
        } else {
            state.hot_streak = 0;
        }
        if state.hot_streak >= self.patience_rounds {
            if state.throttle_level >= self.max_throttle_level {
                // The ladder is exhausted and the writer is still out-running
                // the channel: further rounds only ship the same pages again.
                return Decision::StopAndCopy { converged: false };
            }
            state.hot_streak = 0;
            state.throttle_level += 1;
            return Decision::Throttle {
                level: state.throttle_level,
            };
        }
        Decision::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = NS_PER_SEC;

    fn policy() -> ConvergencePolicy {
        ConvergencePolicy {
            max_rounds: 10,
            stop_threshold_pages: 8,
            bandwidth_pps: 1_000,
            patience_rounds: 2,
            max_throttle_level: 2,
        }
    }

    #[test]
    fn converging_vm_never_throttles() {
        let p = policy();
        let mut st = PolicyState::default();
        // Shrinking dirty sets, always under bandwidth (1000 pps).
        for pages in [400u64, 120, 40, 16] {
            assert_eq!(p.decide(&mut st, pages, SEC), Decision::Continue);
        }
        assert_eq!(
            p.decide(&mut st, 6, SEC),
            Decision::StopAndCopy { converged: true }
        );
        assert_eq!(st.throttle_level, 0);
        assert_eq!(st.throttled_rounds, 0);
    }

    #[test]
    fn hot_writer_climbs_the_throttle_ladder_then_bails() {
        let p = policy();
        let mut st = PolicyState::default();
        let mut decisions = Vec::new();
        // 5000 pages/sec against a 1000 pps channel, forever.
        for _ in 0..p.max_rounds {
            let d = p.decide(&mut st, 5_000, SEC);
            decisions.push(d);
            if matches!(d, Decision::StopAndCopy { .. }) {
                break;
            }
        }
        assert_eq!(
            decisions,
            vec![
                Decision::Continue,               // streak 1
                Decision::Throttle { level: 1 },  // streak hits patience
                Decision::Continue,               // streak 1 again
                Decision::Throttle { level: 2 },  // ladder top
                Decision::Continue,
                Decision::StopAndCopy { converged: false }, // ladder exhausted
            ]
        );
        assert!(st.rounds <= p.max_rounds, "decided within the round cap");
    }

    #[test]
    fn round_cap_forces_stop() {
        let p = policy();
        let mut st = PolicyState::default();
        // Over threshold but *under* bandwidth: never throttles, never
        // converges — the cap must end it.
        let mut last = Decision::Continue;
        for _ in 0..p.max_rounds {
            last = p.decide(&mut st, 500, SEC);
            if matches!(last, Decision::StopAndCopy { .. }) {
                break;
            }
        }
        assert_eq!(last, Decision::StopAndCopy { converged: false });
        assert_eq!(st.rounds, p.max_rounds);
        assert_eq!(st.throttle_level, 0);
    }

    #[test]
    fn dirty_rate_edge_cases() {
        assert_eq!(dirty_rate_pps(0, 0), 0);
        assert_eq!(dirty_rate_pps(10, 0), u64::MAX);
        assert_eq!(dirty_rate_pps(1_000, SEC), 1_000);
        assert_eq!(dirty_rate_pps(1, 2 * SEC), 0); // rounds down
        assert_eq!(dirty_rate_pps(u64::MAX, 1), u64::MAX); // saturates
    }

    #[test]
    fn throttled_rounds_are_counted() {
        let p = policy();
        let mut st = PolicyState::default();
        for _ in 0..4 {
            let _ = p.decide(&mut st, 5_000, SEC);
        }
        // Rounds 3 and 4 ran with a throttle in force (level set in round 2).
        assert_eq!(st.throttled_rounds, 2);
    }
}
