//! Depth-first interleaving exploration with sleep-set pruning and
//! state-hash deduplication.
//!
//! [`ModelSession`] deliberately has no `Clone` (it owns a whole simulated
//! machine), so the search is *replay-based*: descending applies a step to
//! the live session, and returning to a node for its next sibling re-boots
//! and replays the path prefix. Every boot and replay is deterministic, so
//! the restored state is bit-identical to the one left behind.

use crate::session::{
    technique_token, ModelError, ModelSession, ModelViolation, Mutation, Scenario, Step,
};
use ooh_core::Technique;
use ooh_machine::StateHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One bootable system-under-test configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ModelConfig {
    pub technique: Technique,
    pub scenario: Scenario,
    pub mutation: Mutation,
    /// vCPUs the guest boots with (1 = the classic single-core model; more
    /// exercise the cross-vCPU shootdown and per-vCPU shadow paths).
    pub vcpus: u32,
}

impl ModelConfig {
    pub fn boot(&self) -> Result<ModelSession, ModelError> {
        ModelSession::boot_with_vcpus(self.technique, self.scenario, self.mutation, self.vcpus)
    }

    /// `scenario/technique` label used in summaries and file names (with a
    /// `smpN` leg when the guest is multi-vCPU).
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}",
            self.scenario.token(),
            technique_token(self.technique)
        );
        if self.vcpus > 1 {
            format!("{base}/smp{}", self.vcpus)
        } else {
            base
        }
    }
}

/// Exploration parameters: which system, how deep.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    pub model: ModelConfig,
    pub depth: usize,
}

/// Search-effort accounting. All counts are deterministic for a given
/// configuration, so two runs must produce byte-identical summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Interleaving tree nodes visited (dedup hits not included).
    pub nodes: u64,
    /// Paths followed to the full depth bound.
    pub paths: u64,
    /// Nodes skipped because an equal (state, sleep-set) pair was already
    /// explored at least as deeply.
    pub dedup_hits: u64,
    /// Steps skipped by the sleep-set rule.
    pub sleep_skips: u64,
    /// Sessions booted (initial + prefix replays).
    pub boots: u64,
}

/// A violating interleaving: the step sequence from the initial state, whose
/// final step tripped `violation`.
#[derive(Debug, Clone)]
pub struct Counterexample {
    pub schedule: Vec<Step>,
    pub violation: ModelViolation,
}

/// The result of one bounded-exhaustive run.
#[derive(Debug)]
pub struct ExploreReport {
    pub stats: ExploreStats,
    /// First violation found in deterministic search order, if any.
    pub counterexample: Option<Counterexample>,
}

/// Explore all interleavings of `cfg.model` to depth `cfg.depth`, stopping
/// at the first violation.
pub fn explore(cfg: &ExploreConfig) -> Result<ExploreReport, ModelError> {
    let mut dfs = Dfs {
        cfg: *cfg,
        stats: ExploreStats::default(),
        seen: BTreeMap::new(),
    };
    let session = dfs.boot()?;
    let mut prefix = Vec::new();
    let counterexample = dfs.visit(session, cfg.depth, &mut prefix, &BTreeSet::new())?;
    Ok(ExploreReport {
        stats: dfs.stats,
        counterexample,
    })
}

struct Dfs {
    cfg: ExploreConfig,
    stats: ExploreStats,
    /// (state digest, sleep-set digest) → deepest remaining bound already
    /// explored from that pair.
    seen: BTreeMap<(u64, u64), usize>,
}

impl Dfs {
    fn boot(&mut self) -> Result<ModelSession, ModelError> {
        self.stats.boots += 1;
        self.cfg.model.boot()
    }

    /// Re-create the session at the state reached by `prefix`.
    fn replay_prefix(&mut self, prefix: &[Step]) -> Result<ModelSession, ModelError> {
        let mut session = self.boot()?;
        for &step in prefix {
            session
                .apply(step)
                .map_err(|violation| ModelError::ReplayDiverged { step, violation })?;
        }
        Ok(session)
    }

    fn visit(
        &mut self,
        session: ModelSession,
        depth_left: usize,
        prefix: &mut Vec<Step>,
        sleep: &BTreeSet<Step>,
    ) -> Result<Option<Counterexample>, ModelError> {
        self.stats.nodes += 1;
        let mut session = session;

        let key = (session.digest(), sleep_digest(sleep));
        if let Some(&explored) = self.seen.get(&key) {
            if explored >= depth_left {
                self.stats.dedup_hits += 1;
                return Ok(None);
            }
        }
        self.seen.insert(key, depth_left);

        if depth_left == 0 {
            self.stats.paths += 1;
            return Ok(None);
        }

        let enabled = session.enabled_steps();
        let mut explored_here: Vec<Step> = Vec::new();
        // The live session is valid for the first child only; later
        // siblings restore the node state by replaying the prefix.
        let mut at_node = Some(session);

        for step in enabled {
            if sleep.contains(&step) {
                self.stats.sleep_skips += 1;
                continue;
            }
            let mut s = match at_node.take() {
                Some(s) => s,
                None => self.replay_prefix(prefix)?,
            };
            // Sleep set for the child: every already-dismissed step that
            // commutes with `step` stays asleep (exploring it after `step`
            // would only permute two independent actions).
            let child_sleep: BTreeSet<Step> = sleep
                .iter()
                .chain(explored_here.iter())
                .copied()
                .filter(|&u| s.commutes(u, step))
                .collect();

            prefix.push(step);
            match catch_unwind(AssertUnwindSafe(|| s.apply(step))) {
                Err(payload) => {
                    return Ok(Some(Counterexample {
                        schedule: prefix.clone(),
                        violation: ModelViolation::InvariantPanic {
                            message: panic_message(payload.as_ref()),
                        },
                    }));
                }
                Ok(Err(violation)) => {
                    return Ok(Some(Counterexample {
                        schedule: prefix.clone(),
                        violation,
                    }));
                }
                Ok(Ok(())) => {
                    if let Some(cx) = self.visit(s, depth_left - 1, prefix, &child_sleep)? {
                        return Ok(Some(cx));
                    }
                }
            }
            prefix.pop();
            explored_here.push(step);
        }
        Ok(None)
    }
}

fn sleep_digest(sleep: &BTreeSet<Step>) -> u64 {
    let mut h = StateHasher::new();
    for &s in sleep {
        h.write_u64(step_code(s));
    }
    h.finish()
}

fn step_code(s: Step) -> u64 {
    let (tag, arg) = match s {
        Step::WriteTracked(k) => (0, k),
        Step::WriteOther(k) => (1, k),
        Step::SchedOut => (2, 0),
        Step::SchedIn => (3, 0),
        Step::DeliverIpi => (4, 0),
        Step::FlushTlb => (5, 0),
        Step::FetchDirty => (6, 0),
    };
    (tag << 32) | arg
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Outcome of replaying a serialized schedule against a fresh boot.
#[derive(Debug)]
pub enum ReplayOutcome {
    /// Every applicable step ran without tripping a property. Steps not
    /// enabled in the state they were reached in are skipped (this keeps
    /// ddmin candidates and slightly-stale corpus files replayable).
    Passed { applied: usize, skipped: usize },
    /// Step `at` (0-based index into the schedule) tripped `violation`.
    Violated {
        at: usize,
        violation: ModelViolation,
    },
}

/// Boot `model` and run `schedule` through it, step by step.
pub fn replay(model: &ModelConfig, schedule: &[Step]) -> Result<ReplayOutcome, ModelError> {
    let mut session = model.boot()?;
    let mut applied = 0;
    let mut skipped = 0;
    for (at, &step) in schedule.iter().enumerate() {
        if !session.enabled_steps().contains(&step) {
            skipped += 1;
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| session.apply(step))) {
            Err(payload) => {
                return Ok(ReplayOutcome::Violated {
                    at,
                    violation: ModelViolation::InvariantPanic {
                        message: panic_message(payload.as_ref()),
                    },
                });
            }
            Ok(Err(violation)) => return Ok(ReplayOutcome::Violated { at, violation }),
            Ok(Ok(())) => applied += 1,
        }
    }
    Ok(ReplayOutcome::Passed { applied, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_epml(mutation: Mutation, depth: usize) -> ExploreConfig {
        ExploreConfig {
            model: ModelConfig {
                technique: Technique::Epml,
                scenario: Scenario::Small,
                mutation,
                vcpus: 1,
            },
            depth,
        }
    }

    /// Smoke: a shallow clean exploration finds no violation and its
    /// summary numbers are reproducible. (The full-depth sweep runs in
    /// release mode via the `ooh-model` binary; this keeps `cargo test`
    /// fast.)
    #[test]
    fn shallow_exploration_is_clean_and_deterministic() {
        let cfg = small_epml(Mutation::None, 2);
        let a = explore(&cfg).unwrap();
        assert!(
            a.counterexample.is_none(),
            "clean config must verify: {:?}",
            a.counterexample
        );
        assert!(a.stats.nodes > 0 && a.stats.paths > 0);
        let b = explore(&cfg).unwrap();
        assert_eq!(a.stats, b.stats, "exploration must be deterministic");
    }

    /// Sleep sets and dedup must prune something even at tiny depth: with
    /// three independent write targets the permutation space collapses.
    #[test]
    fn pruning_actually_prunes() {
        let cfg = small_epml(Mutation::None, 3);
        let r = explore(&cfg).unwrap();
        assert!(
            r.stats.sleep_skips > 0 || r.stats.dedup_hits > 0,
            "no pruning at depth 3: {:?}",
            r.stats
        );
    }

    /// The clear-before-drain mutation must be caught quickly.
    #[test]
    fn clear_before_drain_is_caught() {
        let cfg = small_epml(Mutation::ClearBeforeDrain, 3);
        let r = explore(&cfg).unwrap();
        let cx = r.counterexample.expect("mutation must be detected");
        assert!(cx.schedule.len() <= 3, "{:?}", cx.schedule);
    }

    /// Replaying a counterexample trips the same class of violation;
    /// replaying it against the unmutated system passes.
    #[test]
    fn counterexamples_replay() {
        let cfg = small_epml(Mutation::ClearBeforeDrain, 3);
        let cx = explore(&cfg).unwrap().counterexample.unwrap();
        match replay(&cfg.model, &cx.schedule).unwrap() {
            ReplayOutcome::Violated { .. } => {}
            other => panic!("expected violation, got {other:?}"),
        }
        let clean = ModelConfig {
            mutation: Mutation::None,
            ..cfg.model
        };
        match replay(&clean, &cx.schedule).unwrap() {
            ReplayOutcome::Passed { .. } => {}
            other => panic!("clean system must pass, got {other:?}"),
        }
    }
}
