//! Greedy ddmin counterexample shrinking.
//!
//! Violating schedules come out of the explorer with incidental steps mixed
//! in (extra writes, flushes, scheduler noise on the way to the bug). The
//! shrinker repeatedly replays the schedule with one step removed and keeps
//! any removal that still trips a violation — not necessarily the *same*
//! violation, which is the standard ddmin relaxation: any failing schedule
//! is a valid, and smaller, counterexample. Replay skips steps that are not
//! enabled, so removing a step never makes a candidate un-runnable.

use crate::explorer::{replay, ModelConfig, ReplayOutcome};
use crate::session::{ModelError, ModelViolation, Step};

/// Result of a shrink run.
#[derive(Debug)]
pub enum ShrinkOutcome {
    /// A (locally) 1-minimal schedule and the violation its replay trips.
    Shrunk {
        schedule: Vec<Step>,
        violation: ModelViolation,
    },
    /// The input schedule did not trip any violation on replay — the caller
    /// handed over something that was never (or is no longer) failing.
    VanishedViolation,
}

/// Shrink `schedule` to 1-minimality: the result still violates, but no
/// single-step removal of it does.
pub fn shrink(model: &ModelConfig, schedule: &[Step]) -> Result<ShrinkOutcome, ModelError> {
    let mut best: Vec<Step> = schedule.to_vec();
    match replay(model, &best)? {
        ReplayOutcome::Passed { .. } => return Ok(ShrinkOutcome::VanishedViolation),
        ReplayOutcome::Violated { .. } => {}
    }
    loop {
        let mut improved = false;
        for i in 0..best.len() {
            let mut candidate = best.clone();
            candidate.remove(i);
            if let ReplayOutcome::Violated { .. } = replay(model, &candidate)? {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    match replay(model, &best)? {
        ReplayOutcome::Violated { violation, .. } => Ok(ShrinkOutcome::Shrunk {
            schedule: best,
            violation,
        }),
        // Unreachable in a deterministic simulator (the loop only ever
        // keeps violating candidates), but fail soft rather than assert.
        ReplayOutcome::Passed { .. } => Ok(ShrinkOutcome::VanishedViolation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, ExploreConfig};
    use crate::session::{Mutation, Scenario};
    use ooh_core::Technique;

    #[test]
    fn shrinks_clear_before_drain_to_two_steps() {
        let model = ModelConfig {
            technique: Technique::Epml,
            scenario: Scenario::Small,
            mutation: Mutation::ClearBeforeDrain,
            vcpus: 1,
        };
        let cx = explore(&ExploreConfig { model, depth: 3 })
            .unwrap()
            .counterexample
            .unwrap();
        match shrink(&model, &cx.schedule).unwrap() {
            ShrinkOutcome::Shrunk { schedule, .. } => {
                assert_eq!(schedule.len(), 2, "1-minimal schedule: {schedule:?}");
                assert!(matches!(schedule[0], Step::WriteTracked(_)), "{schedule:?}");
                assert_eq!(schedule[1], Step::FetchDirty, "{schedule:?}");
            }
            ShrinkOutcome::VanishedViolation => panic!("violation must reproduce"),
        }
    }

    #[test]
    fn non_violating_schedule_is_reported_as_vanished() {
        let model = ModelConfig {
            technique: Technique::Epml,
            scenario: Scenario::Small,
            mutation: Mutation::None,
            vcpus: 1,
        };
        let r = shrink(&model, &[Step::WriteTracked(0), Step::FetchDirty]).unwrap();
        assert!(matches!(r, ShrinkOutcome::VanishedViolation));
    }
}
