//! # ooh-sim — simulation substrate for Out of Hypervisor
//!
//! Every other crate in the workspace runs *mechanisms* (page walks, vmexits,
//! hypercalls, ring-buffer drains) against a shared [`SimCtx`]: a virtual
//! nanosecond clock, a per-mechanism [`CostModel`] calibrated against the
//! paper's measured Table V, and a set of [`Event`] counters.
//!
//! The design principle is that *costs emerge from mechanism counts × unit
//! costs*: nothing in the benchmark harness hard-codes "SPML is slow"; SPML
//! is slow because it executes many hypercalls and a quadratic-ish reverse
//! mapping, each of which charges its unit cost to the clock.
//!
//! Time can be attributed to one of four [`Lane`]s (Tracked application,
//! Tracker, guest kernel, hypervisor) so the harness can report both
//! "overhead on Tracked" and "overhead on Tracker" as the paper does.
//!
//! A [`SimCtx`] has one writer: the scenario that built it. Its clock and
//! counters are plain cells behind an `Rc`, so the compiler keeps a context
//! on the thread that owns it, and parallel scenarios (the fleet, the
//! parallel reports) each build their own inside their worker:
//!
//! ```compile_fail,E0277
//! fn needs_send<T: Send>(_: T) {}
//! needs_send(ooh_sim::SimCtx::new());
//! ```
//!
//! ```compile_fail,E0277
//! fn needs_sync<T: Sync>(_: &T) {}
//! needs_sync(&ooh_sim::SimCtx::new());
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod cost;
pub mod counters;
pub mod rng;
pub mod stats;
pub mod table;
pub mod trace;

pub use clock::{Lane, SimClock};
pub use cost::CostModel;
pub use counters::{Event, EventCounters};
pub use rng::SimRng;
pub use stats::{overhead_pct, percentile, speedup, Summary};
pub use table::TextTable;
pub use trace::{ScopeKind, TraceRecord, TraceSink, TraceSpan};

use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;

/// Simulation context: clock + counters + cost model.
///
/// Cloning is cheap (`Rc` internally) and every clone advances the same
/// clock and counters. Neither `Send` nor `Sync`: see the crate docs.
#[derive(Clone)]
pub struct SimCtx {
    inner: Rc<SimCtxInner>,
}

struct SimCtxInner {
    clock: SimClock,
    counters: EventCounters,
    cost: CostModel,
    /// Installed trace sink, if any. Install-once matches the determinism
    /// contract (a sink appearing mid-run would see a partial timeline).
    tracer: OnceCell<Arc<dyn TraceSink>>,
}

impl SimCtx {
    /// A fresh context with the paper-calibrated default cost model.
    pub fn new() -> Self {
        Self::with_cost_model(CostModel::paper_calibrated())
    }

    /// A fresh context with an explicit cost model (used by ablation benches
    /// and by tests that want zero-cost mechanisms).
    pub fn with_cost_model(cost: CostModel) -> Self {
        Self {
            inner: Rc::new(SimCtxInner {
                clock: SimClock::new(),
                counters: EventCounters::new(),
                cost,
                tracer: OnceCell::new(),
            }),
        }
    }

    /// Install a trace sink. Every subsequent charge is forwarded to it as a
    /// [`TraceRecord`]. Returns `false` if a sink was already installed (the
    /// existing one stays). Install *before* the first charge if the sink is
    /// to account for the full timeline (conservation checks require this).
    pub fn install_tracer(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.inner.tracer.set(sink).is_ok()
    }

    /// The installed trace sink, if any.
    pub(crate) fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.inner.tracer.get()
    }

    /// Open a trace scope (technique / phase / op / process / vcpu) that
    /// closes when the returned guard drops. Inert when no sink is
    /// installed.
    pub fn span(&self, kind: ScopeKind, label: &'static str, arg: u64) -> TraceSpan {
        match self.inner.tracer.get() {
            Some(sink) => {
                sink.push_scope(kind, label, arg, self.now_ns());
                TraceSpan {
                    ctx: Some(self.clone()),
                }
            }
            None => TraceSpan { ctx: None },
        }
    }

    /// Advance the clock, forwarding the charge to the trace sink if one is
    /// installed. The single chokepoint for all virtual time: every
    /// `charge*` (through [`Self::record`]) and `advance` land here, which is
    /// what makes the per-lane conservation invariant (attributed ns == lane
    /// totals) checkable at all.
    fn advance_traced(&self, lane: Lane, event: Option<Event>, count: u64, ns: u64) {
        if let Some(sink) = self.inner.tracer.get() {
            let start_ns = self.inner.clock.now_ns();
            self.inner.clock.advance(lane, ns);
            sink.record(TraceRecord {
                start_ns,
                lane,
                event,
                count,
                ns,
            });
            return;
        }
        self.inner.clock.advance(lane, ns);
    }

    /// The virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// The event counters.
    pub fn counters(&self) -> &EventCounters {
        &self.inner.counters
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Record one occurrence of `event`, charging its unit cost to `lane`.
    ///
    /// Returns the nanoseconds charged so callers can aggregate phase times.
    pub fn charge(&self, lane: Lane, event: Event) -> u64 {
        self.record(lane, event, 1, self.inner.cost.unit_ns(event))
    }

    /// Record `n` occurrences of `event` at once (e.g. a batched buffer copy).
    pub fn charge_n(&self, lane: Lane, event: Event, n: u64) -> u64 {
        let ns = self.inner.cost.unit_ns(event).saturating_mul(n);
        self.record(lane, event, n, ns)
    }

    /// Record `n` occurrences of `event` with an explicit *total* cost —
    /// for batches whose unit cost is not in the [`CostModel`], e.g. a
    /// migration round shipping `n` pages over a configured copy channel.
    pub fn charge_n_ns(&self, lane: Lane, event: Event, n: u64, ns: u64) -> u64 {
        self.record(lane, event, n, ns)
    }

    /// Record one occurrence of `event` with an explicit cost (for costs
    /// computed from mechanism state, e.g. a pagemap scan proportional to
    /// resident pages).
    pub fn charge_ns(&self, lane: Lane, event: Event, ns: u64) -> u64 {
        self.record(lane, event, 1, ns)
    }

    /// The one body behind every `charge*`: count `n` occurrences of
    /// `event` and advance `lane` by `ns`.
    fn record(&self, lane: Lane, event: Event, n: u64, ns: u64) -> u64 {
        self.inner.counters.add(event, n);
        self.advance_traced(lane, Some(event), n, ns);
        ns
    }

    /// Advance the clock without recording an event (plain computation time,
    /// e.g. the Tracked application's own work between memory operations).
    pub fn advance(&self, lane: Lane, ns: u64) {
        if ns == 0 {
            return; // mirrors SimClock::advance; nothing to attribute either
        }
        self.advance_traced(lane, None, 1, ns);
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.inner.clock.now_ns()
    }
}

impl Default for SimCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SimCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCtx")
            .field("now_ns", &self.now_ns())
            .finish_non_exhaustive()
    }
}

/// Size of a simulated page, in bytes (x86-64 4 KiB pages).
pub const PAGE_SIZE: usize = 4096;

/// log2(PAGE_SIZE), the page shift.
pub const PAGE_SHIFT: u32 = 12;

/// Number of guest-physical-address entries a hardware PML buffer holds
/// (one 4 KiB page of 64-bit entries, per the Intel SDM).
pub const PML_BUFFER_ENTRIES: usize = 512;

/// Number of 64-bit pagemap entries a reader consumes per `read(2)` call
/// (a 64 KiB buffer, the chunking CRIU and our /proc tracker use).
pub const PAGEMAP_CHUNK_ENTRIES: usize = 8192;

/// Convert a byte count to a number of whole pages (rounding up).
pub fn pages_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_advances_clock_and_counter() {
        let ctx = SimCtx::new();
        assert_eq!(ctx.now_ns(), 0);
        let ns = ctx.charge(Lane::Kernel, Event::ContextSwitch);
        assert!(ns > 0);
        assert_eq!(ctx.now_ns(), ns);
        assert_eq!(ctx.counters().get(Event::ContextSwitch), 1);
        assert_eq!(ctx.clock().lane_ns(Lane::Kernel), ns);
        assert_eq!(ctx.clock().lane_ns(Lane::Tracked), 0);
    }

    #[test]
    fn charge_n_batches() {
        let ctx = SimCtx::new();
        let unit = ctx.cost().unit_ns(Event::RingBufferCopyEntry);
        let ns = ctx.charge_n(Lane::Hypervisor, Event::RingBufferCopyEntry, 512);
        assert_eq!(ns, unit * 512);
        assert_eq!(ctx.counters().get(Event::RingBufferCopyEntry), 512);
    }

    #[test]
    fn pages_for_bytes_rounds_up() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
    }

    #[test]
    fn clones_share_one_clock_and_one_set_of_counters() {
        let a = SimCtx::new();
        let b = a.clone();
        let na = a.charge(Lane::Kernel, Event::ContextSwitch);
        let nb = b.charge_n(Lane::Tracker, Event::ContextSwitch, 2);
        b.advance(Lane::Tracked, 7);
        for ctx in [&a, &b] {
            assert_eq!(ctx.now_ns(), na + nb + 7);
            assert_eq!(ctx.counters().get(Event::ContextSwitch), 3);
            assert_eq!(ctx.clock().lane_ns(Lane::Kernel), na);
            assert_eq!(ctx.clock().lane_ns(Lane::Tracker), nb);
            assert_eq!(ctx.clock().lane_ns(Lane::Tracked), 7);
        }
    }

    #[test]
    fn zero_cost_model_charges_nothing() {
        let ctx = SimCtx::with_cost_model(CostModel::zero());
        ctx.charge(Lane::Tracker, Event::Hypercall);
        assert_eq!(ctx.now_ns(), 0);
        assert_eq!(ctx.counters().get(Event::Hypercall), 1);
    }
}
