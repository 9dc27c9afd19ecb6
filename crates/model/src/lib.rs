//! # ooh-model — bounded-exhaustive interleaving model checker
//!
//! The simulator executes one interleaving of the OoH protocols per run; the
//! tests hand-pick a few. This crate explores *all* interleavings of the
//! schedulable atomic actions ([`Step`]) that a [`ModelSession`] drives
//! through the real machine, hypervisor, guest module and tracker, up to a
//! configurable depth, checking safety properties on every path:
//!
//! * **P1 — no lost or ghost dirty page**: every collect is compared against
//!   a ground-truth oracle of written pages (exact equality; a superset is
//!   tolerated only across a recorded ring overflow).
//! * **P2 — one log entry per 0→1 dirty transition**: the machine's shadow
//!   accounting panics under `ooh-machine/debug-invariants`; the explorer
//!   catches the panic and reports the path.
//! * **P3 — the ring never silently overflows**: queue depth stays within
//!   capacity and every drop is matched by an overflow event.
//! * **P4 — no logging-suppressing stale TLB entry** after a drain
//!   (`ooh-machine/debug-invariants` builds).
//! * **P5 — per-lane virtual clocks are monotone**.
//!
//! State explosion is tamed with sleep-set partial-order reduction (over the
//! conservative [`ModelSession::commutes`] relation) and state-hash
//! deduplication. On a violation the [`shrink`] module minimizes the
//! schedule with a greedy ddmin pass and [`schedule`] serializes it to a
//! replayable text file (see `tests/model_corpus/` at the workspace root).
//!
//! `--self-validate` proves the properties have teeth by arming each
//! [`Mutation`]. The session applies a mutation itself, as an ordering of
//! the actions it already performs (see [`session`]), so no production
//! crate carries a fault-injection hook.

#![forbid(unsafe_code)]

pub mod explorer;
pub mod schedule;
pub mod session;
pub mod shrink;

pub use explorer::{
    explore, replay, Counterexample, ExploreConfig, ExploreReport, ExploreStats, ModelConfig,
    ReplayOutcome,
};
pub use schedule::{ParseError, ScheduleFile};
pub use session::{
    technique_from_token, technique_token, ModelError, ModelSession, ModelViolation, Mutation,
    Scenario, Step,
};
pub use shrink::{shrink, ShrinkOutcome};
