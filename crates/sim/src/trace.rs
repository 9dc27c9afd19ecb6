//! Trace hooks: the contract between the simulation context and an external
//! trace consumer (the `ooh-trace` crate).
//!
//! `ooh-sim` itself stores nothing: when a [`TraceSink`] has been installed
//! on a [`SimCtx`](crate::SimCtx), every virtual-clock charge is forwarded
//! as a [`TraceRecord`], and scoped context (technique / phase / operation /
//! process) is forwarded as push/pop of [`ScopeKind`]-tagged frames. Everything is keyed by the
//! *virtual* clock — no wall-clock time enters here, so the det-time lints
//! and the byte-identical determinism contract are unaffected.
//!
//! With no sink installed the hooks are inert: `span()` returns an empty
//! guard and the charge paths skip straight to the clock.

use crate::clock::Lane;
use crate::counters::Event;

/// One virtual-clock charge, as seen by a sink.
///
/// `event` is `None` for plain [`SimCtx::advance`](crate::SimCtx::advance)
/// calls (computation time with no mechanism event). `count` is the number
/// of mechanism occurrences batched into this record (`charge_n`), so sinks
/// can regenerate event counters exactly; `ns` is the total time charged for
/// the whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time immediately *before* the clock advanced.
    pub start_ns: u64,
    /// Lane the time was attributed to.
    pub lane: Lane,
    /// Mechanism event, if any.
    pub event: Option<Event>,
    /// Occurrences batched into this charge (matches the counter increment).
    pub count: u64,
    /// Total nanoseconds charged.
    pub ns: u64,
}

/// What a scope frame describes. Sinks use the innermost frame of each kind
/// to attribute records (technique → phase → op), and `Process`/`Vcpu`
/// frames carry the pid/vcpu id in their `arg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScopeKind {
    /// A tracking technique ("/proc", "ufd", "SPML", "EPML").
    Technique,
    /// A tracker phase ("init", "collect", "teardown") or a bench metric.
    Phase,
    /// A mechanism-level operation ("page_walk", "clear_refs", ...).
    Op,
    /// The guest process being operated on (`arg` = pid).
    Process,
    /// The vCPU executing (`arg` = vcpu index).
    Vcpu,
}

impl ScopeKind {
    /// Short label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            ScopeKind::Technique => "technique",
            ScopeKind::Phase => "phase",
            ScopeKind::Op => "op",
            ScopeKind::Process => "process",
            ScopeKind::Vcpu => "vcpu",
        }
    }
}

/// A consumer of trace records and scope frames. Implemented by
/// `ooh_trace::Tracer`; `ooh-sim` only ever talks to the trait object.
///
/// All methods take `&self`: the sink is shared behind an `Arc` and must do
/// its own interior locking. Timestamps are virtual nanoseconds read off the
/// owning context's clock.
pub trait TraceSink: Send + Sync {
    /// A virtual-clock charge happened.
    fn record(&self, rec: TraceRecord);
    /// A scope opened at virtual time `now_ns`.
    fn push_scope(&self, kind: ScopeKind, label: &'static str, arg: u64, now_ns: u64);
    /// The innermost scope closed at virtual time `now_ns`.
    fn pop_scope(&self, now_ns: u64);
}

/// RAII guard for a scope frame: pops on drop. Inert (no context handle)
/// when no sink is installed.
#[must_use = "a span guard pops its scope when dropped; binding it to `_` pops immediately"]
pub struct TraceSpan {
    pub(crate) ctx: Option<crate::SimCtx>,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            if let Some(sink) = ctx.trace_sink() {
                sink.pop_scope(ctx.now_ns());
            }
        }
    }
}

impl std::fmt::Debug for TraceSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSpan").finish_non_exhaustive()
    }
}
