//! # ooh-trace — deterministic cost attribution over the virtual clock
//!
//! The simulator charges every mechanism to a virtual nanosecond clock
//! (`SimCtx::charge*`), but that attribution is write-only: the clock says
//! *how much* time passed, not *where* it went. This crate is the read side.
//! Install a [`Tracer`] on a `SimCtx` and every charge is journaled as a
//! structured record — lane, event kind, vCPU, pid, technique, nanoseconds —
//! keyed **only by the virtual clock**, so tracing never perturbs the
//! determinism contract: the same seeded scenario produces the same journal,
//! byte for byte, and the virtual clocks are identical with tracing on or
//! off.
//!
//! Three views come out of the journal:
//!
//! * an **attribution tree** (technique → phase → op → event) with
//!   count/sum/min/max/p50/p99 per node — [`Tracer::profile_rows`] /
//!   [`Tracer::text_profile`];
//! * **folded stacks** for flamegraph tooling — [`Tracer::folded`];
//! * **Chrome `trace_event` JSON** on the virtual timebase —
//!   [`Tracer::chrome_trace`].
//!
//! The load-bearing property is **conservation**: the per-lane sums of
//! attributed nanoseconds equal the lane totals on the `SimClock`, exactly
//! ([`Tracer::check_conservation`]). That is what lets `table5` be
//! regenerated from the trace and cross-checked against the hand-wired
//! counters (see `crates/bench/src/reports/table5.rs`). It holds because every
//! clock advance goes through the single `SimCtx` chokepoint, provided the
//! tracer is installed *before the first charge*.
//!
//! Aggregates (attribution tree, per-label scope sums, lane totals) are
//! exact for runs of any length; only the per-instance timeline kept for the
//! Chrome export is capped, with drops counted and reported. When no tracer
//! is installed the hooks cost one relaxed load per charge (DESIGN.md §8).

#![forbid(unsafe_code)]

use ooh_sim::clock::fmt_ns;
use ooh_sim::trace::{ScopeKind, TraceRecord, TraceSink};
use ooh_sim::{Event, Lane, SimClock, SimCtx};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Label used when a record falls outside any scope of a given kind.
const UNSCOPED: &str = "-";
/// Event-name stand-in for `SimCtx::advance` records (no mechanism event).
const ADVANCE: &str = "(advance)";

/// Default cap on journal records and closed-scope instances kept verbatim
/// for the Chrome export. Aggregates are always exact; only the timeline
/// view is truncated, with the drop counted and reported.
const DEFAULT_TIMELINE_CAP: usize = 65_536;

fn lane_index(lane: Lane) -> usize {
    match lane {
        Lane::Tracked => 0,
        Lane::Tracker => 1,
        Lane::Kernel => 2,
        Lane::Hypervisor => 3,
    }
}

/// Attribution-tree coordinates of one journal record:
/// technique → phase → op → event, plus the lane it charged.
type NodeKey = (
    &'static str, // technique
    &'static str, // phase
    &'static str, // op
    &'static str, // event
    &'static str, // lane label
);

/// Aggregate statistics for one attribution-tree node.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Journal records that landed on this node.
    pub records: u64,
    /// Mechanism occurrences (sum of per-record `count`; equals the event
    /// counter increment for this node's slice of the run).
    pub units: u64,
    /// Total nanoseconds charged.
    pub sum_ns: u64,
    /// Smallest / largest single-record charge.
    pub min_ns: u64,
    pub max_ns: u64,
    /// Exact per-record-ns histogram (value → occurrences). Charges are
    /// model-derived so the value set is tiny; this gives exact percentiles
    /// without keeping the records themselves.
    hist: BTreeMap<u64, u64>,
}

impl NodeStats {
    fn add(&mut self, count: u64, ns: u64) {
        if self.records == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.records += 1;
        self.units += count;
        self.sum_ns += ns;
        *self.hist.entry(ns).or_insert(0) += 1;
    }

    /// Exact percentile over per-record charges (`p` in 0..=100).
    pub fn percentile_ns(&self, p: u32) -> u64 {
        if self.records == 0 {
            return 0;
        }
        // Nearest-rank on the histogram's cumulative counts.
        let rank = ((u128::from(self.records) * u128::from(p)).div_ceil(100)).max(1) as u64;
        let mut seen = 0u64;
        for (&ns, &n) in &self.hist {
            seen += n;
            if seen >= rank {
                return ns;
            }
        }
        self.max_ns
    }
}

/// An open scope frame on the stack, accumulating while open.
#[derive(Debug, Clone)]
struct OpenScope {
    kind: ScopeKind,
    label: &'static str,
    arg: u64,
    start_ns: u64,
    depth: usize,
    /// Nanoseconds charged while this scope was open (descendants included).
    total_ns: u64,
    /// Per-event occurrence counts charged while open.
    event_units: BTreeMap<&'static str, u64>,
}

/// Per-label aggregate over all (closed and open) scope instances. Exact
/// regardless of how many instances there were.
#[derive(Debug, Clone, Default)]
struct ScopeAgg {
    instances: u64,
    total_ns: u64,
    event_units: BTreeMap<&'static str, u64>,
}

/// One closed scope instance retained for the timeline export (capped).
#[derive(Debug, Clone)]
struct ClosedScope {
    kind: ScopeKind,
    label: &'static str,
    arg: u64,
    start_ns: u64,
    end_ns: u64,
    depth: usize,
    total_ns: u64,
}

/// One record kept verbatim for the timeline export (capped).
#[derive(Debug, Clone, Copy)]
struct JournalRecord {
    start_ns: u64,
    ns: u64,
    count: u64,
    lane: usize,
    event: &'static str,
    pid: u64,
    vcpu: u64,
}

#[derive(Debug, Default)]
struct TracerInner {
    stack: Vec<OpenScope>,
    scope_totals: BTreeMap<&'static str, ScopeAgg>,
    closed: Vec<ClosedScope>,
    closed_dropped: u64,
    nodes: BTreeMap<NodeKey, NodeStats>,
    lane_ns: [u64; 4],
    records: u64,
    journal: Vec<JournalRecord>,
    journal_dropped: u64,
    timeline_cap: usize,
}

/// One attribution-tree node, flattened for the `#json` report convention.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileRow {
    pub technique: &'static str,
    pub phase: &'static str,
    pub op: &'static str,
    pub event: &'static str,
    pub lane: &'static str,
    pub records: u64,
    pub units: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// The journal + attribution tree. Install on a `SimCtx` with
/// [`Tracer::install`] *before the first charge*, run the scenario, then
/// query/export. Interior locking makes it shareable behind the `Arc` the
/// sink registration requires; the simulator is logically single-threaded
/// per scenario, so the lock is uncontended.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_timeline_cap(DEFAULT_TIMELINE_CAP)
    }

    /// A tracer keeping at most `cap` verbatim journal records and `cap`
    /// closed-scope instances for the timeline export (aggregates are
    /// unaffected by the cap).
    pub fn with_timeline_cap(cap: usize) -> Self {
        Self {
            inner: Mutex::new(TracerInner {
                timeline_cap: cap,
                ..TracerInner::default()
            }),
        }
    }

    /// Create a tracer and install it on `ctx`. Panics if `ctx` already has
    /// a sink — a second tracer would silently observe nothing.
    pub fn install(ctx: &SimCtx) -> Arc<Tracer> {
        let tracer = Arc::new(Tracer::new());
        let installed = ctx.install_tracer(tracer.clone());
        assert!(installed, "SimCtx already has a trace sink installed");
        tracer
    }

    fn lock(&self) -> MutexGuard<'_, TracerInner> {
        // The sink never panics while holding the lock, but be lenient:
        // a poisoned journal is still readable.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    // --- queries ---------------------------------------------------------

    /// Total records journaled (aggregated; unaffected by the timeline cap).
    pub fn records(&self) -> u64 {
        self.lock().records
    }

    /// Nanoseconds attributed to `lane` across the whole journal.
    pub fn lane_attributed_ns(&self, lane: Lane) -> u64 {
        self.lock().lane_ns[lane_index(lane)]
    }

    /// Nanoseconds attributed across all lanes.
    pub fn total_attributed_ns(&self) -> u64 {
        self.lock().lane_ns.iter().sum()
    }

    /// Total occurrences of `event` across the journal (equals the event
    /// counter delta since the tracer was installed, for events charged via
    /// `charge`/`charge_n`/`charge_ns`).
    pub fn event_units(&self, event: Event) -> u64 {
        let name = event.name();
        self.lock()
            .nodes
            .iter()
            .filter(|((_, _, _, e, _), _)| *e == name)
            .map(|(_, s)| s.units)
            .sum()
    }

    /// Nanoseconds charged while scopes labeled `label` were open
    /// (descendant scopes included). Sums across every scope instance with
    /// that label, including still-open ones; same-label scopes must not
    /// nest or time double-counts.
    pub fn scope_ns(&self, label: &str) -> u64 {
        let inner = self.lock();
        let closed: u64 = inner
            .scope_totals
            .get(label)
            .map(|a| a.total_ns)
            .unwrap_or(0);
        let open: u64 = inner
            .stack
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.total_ns)
            .sum();
        closed + open
    }

    /// Occurrences of `event` charged while scopes labeled `label` were open.
    pub fn scope_event_units(&self, label: &str, event: Event) -> u64 {
        let name = event.name();
        let inner = self.lock();
        let closed: u64 = inner
            .scope_totals
            .get(label)
            .and_then(|a| a.event_units.get(name).copied())
            .unwrap_or(0);
        let open: u64 = inner
            .stack
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.event_units.get(name).copied().unwrap_or(0))
            .sum();
        closed + open
    }

    /// Number of scope instances (closed or open) with this label.
    pub fn scope_instances(&self, label: &str) -> u64 {
        let inner = self.lock();
        let closed = inner
            .scope_totals
            .get(label)
            .map(|a| a.instances)
            .unwrap_or(0);
        closed + inner.stack.iter().filter(|s| s.label == label).count() as u64
    }

    /// The attribution tree, flattened to rows in key order
    /// (technique, phase, op, event, lane).
    pub fn profile_rows(&self) -> Vec<ProfileRow> {
        self.lock()
            .nodes
            .iter()
            .map(|(&(technique, phase, op, event, lane), s)| ProfileRow {
                technique,
                phase,
                op,
                event,
                lane,
                records: s.records,
                units: s.units,
                sum_ns: s.sum_ns,
                min_ns: s.min_ns,
                max_ns: s.max_ns,
                p50_ns: s.percentile_ns(50),
                p99_ns: s.percentile_ns(99),
            })
            .collect()
    }

    // --- invariants ------------------------------------------------------

    /// The conservation invariant: for every lane, the nanoseconds this
    /// journal attributes equal the lane's total on `clock`. Exact equality
    /// — the journal sees every charge (it sits on the `SimCtx` chokepoint),
    /// so any difference means a charge bypassed the chokepoint or the
    /// tracer was installed after time had already passed. Also checks that
    /// the attribution tree sums to the same total as the lane accumulators.
    pub fn check_conservation(&self, clock: &SimClock) -> Result<(), String> {
        let inner = self.lock();
        for lane in Lane::ALL {
            let attributed = inner.lane_ns[lane_index(lane)];
            let total = clock.lane_ns(lane);
            if attributed != total {
                return Err(format!(
                    "trace conservation violated on lane {}: journal attributes {attributed}ns \
                     but the virtual clock holds {total}ns (was the tracer installed before \
                     the first charge?)",
                    lane.label()
                ));
            }
        }
        let node_sum: u64 = inner.nodes.values().map(|s| s.sum_ns).sum();
        let lane_sum: u64 = inner.lane_ns.iter().sum();
        if node_sum != lane_sum {
            return Err(format!(
                "trace self-consistency violated: attribution tree sums {node_sum}ns \
                 but lane accumulators hold {lane_sum}ns"
            ));
        }
        Ok(())
    }

    // --- exports ---------------------------------------------------------

    /// Human-readable attribution tree: technique → phase → op → event,
    /// each line with units / record count / sum / p50 / p99.
    pub fn text_profile(&self) -> String {
        let rows = self.profile_rows();
        let mut out = String::new();
        let (mut tech, mut phase, mut op) = ("\0", "\0", "\0");
        for r in &rows {
            if r.technique != tech {
                tech = r.technique;
                out.push_str(&format!("technique {tech}\n"));
                (phase, op) = ("\0", "\0");
            }
            if r.phase != phase {
                phase = r.phase;
                out.push_str(&format!("  phase {phase}\n"));
                op = "\0";
            }
            if r.op != op {
                op = r.op;
                out.push_str(&format!("    op {op}\n"));
            }
            out.push_str(&format!(
                "      {:<24} [{}] units {:>10}  sum {:>12}  p50 {:>9}  p99 {:>9}\n",
                r.event,
                r.lane,
                r.units,
                fmt_ns(r.sum_ns),
                fmt_ns(r.p50_ns),
                fmt_ns(r.p99_ns),
            ));
        }
        out
    }

    /// Folded-stack output (`lane;technique;phase;op;event value-in-ns` per
    /// line), consumable by `flamegraph.pl` / inferno / speedscope.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for r in self.profile_rows() {
            if r.sum_ns == 0 {
                continue;
            }
            out.push_str(&format!(
                "{};{};{};{};{} {}\n",
                r.lane, r.technique, r.phase, r.op, r.event, r.sum_ns
            ));
        }
        out
    }

    /// Chrome `trace_event` JSON (the "JSON array format") on the virtual
    /// timebase: `ts`/`dur` are virtual **nanoseconds**, not the wall-clock
    /// microseconds viewers assume — divide by 1000 mentally or load into a
    /// tool that honors `displayTimeUnit`. Scopes render on tid 0; journal
    /// records render on tid 1–4 (one thread per lane). If the timeline cap
    /// truncated either view, a final metadata event reports the drop counts
    /// (aggregates are never truncated).
    pub fn chrome_trace(&self) -> String {
        let inner = self.lock();
        let mut events: Vec<String> = Vec::new();
        for (i, name) in ["scopes", "tracked", "tracker", "kernel", "hypervisor"]
            .iter()
            .enumerate()
        {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for s in &inner.closed {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"cat\":\"{}\",\"name\":\"{}\",\
                 \"args\":{{\"arg\":{},\"depth\":{},\"charged_ns\":{}}}}}",
                s.start_ns,
                s.end_ns.saturating_sub(s.start_ns),
                s.kind.label(),
                s.label,
                s.arg,
                s.depth,
                s.total_ns
            ));
        }
        // Still-open scopes render with their charged time as the duration.
        for s in &inner.stack {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"cat\":\"{}\",\"name\":\"{}\",\
                 \"args\":{{\"arg\":{},\"depth\":{},\"charged_ns\":{},\"open\":1}}}}",
                s.start_ns, s.total_ns, s.kind.label(), s.label, s.arg, s.depth, s.total_ns
            ));
        }
        for r in &inner.journal {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"cat\":\"event\",\"name\":\"{}\",\
                 \"args\":{{\"count\":{},\"pid\":{},\"vcpu\":{}}}}}",
                r.lane + 1,
                r.start_ns,
                r.ns,
                r.event,
                r.count,
                r.pid,
                r.vcpu
            ));
        }
        if inner.journal_dropped > 0 || inner.closed_dropped > 0 {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"timeline_truncated\",\
                 \"args\":{{\"dropped_records\":{},\"dropped_scopes\":{}}}}}",
                inner.journal_dropped, inner.closed_dropped
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
            events.join(",")
        )
    }
}

impl TracerInner {
    fn innermost(&self, kind: ScopeKind) -> Option<&OpenScope> {
        self.stack.iter().rev().find(|s| s.kind == kind)
    }
}

impl TraceSink for Tracer {
    fn record(&self, rec: TraceRecord) {
        let mut inner = self.lock();
        let event = rec.event.map(Event::name).unwrap_or(ADVANCE);
        let key: NodeKey = (
            inner
                .innermost(ScopeKind::Technique)
                .map(|s| s.label)
                .unwrap_or(UNSCOPED),
            inner
                .innermost(ScopeKind::Phase)
                .map(|s| s.label)
                .unwrap_or(UNSCOPED),
            inner
                .innermost(ScopeKind::Op)
                .map(|s| s.label)
                .unwrap_or(UNSCOPED),
            event,
            rec.lane.label(),
        );
        let pid = inner.innermost(ScopeKind::Process).map(|s| s.arg);
        let vcpu = inner.innermost(ScopeKind::Vcpu).map(|s| s.arg);

        inner.records += 1;
        inner.lane_ns[lane_index(rec.lane)] += rec.ns;
        inner.nodes.entry(key).or_default().add(rec.count, rec.ns);
        for scope in &mut inner.stack {
            scope.total_ns += rec.ns;
            *scope.event_units.entry(event).or_insert(0) += rec.count;
        }
        if inner.journal.len() < inner.timeline_cap {
            let r = JournalRecord {
                start_ns: rec.start_ns,
                ns: rec.ns,
                count: rec.count,
                lane: lane_index(rec.lane),
                event,
                pid: pid.unwrap_or(0),
                vcpu: vcpu.unwrap_or(0),
            };
            inner.journal.push(r);
        } else {
            inner.journal_dropped += 1;
        }
    }

    fn push_scope(&self, kind: ScopeKind, label: &'static str, arg: u64, now_ns: u64) {
        let mut inner = self.lock();
        let depth = inner.stack.len();
        inner.stack.push(OpenScope {
            kind,
            label,
            arg,
            start_ns: now_ns,
            depth,
            total_ns: 0,
            event_units: BTreeMap::new(),
        });
    }

    fn pop_scope(&self, now_ns: u64) {
        let mut inner = self.lock();
        let Some(scope) = inner.stack.pop() else {
            return;
        };
        let agg = inner.scope_totals.entry(scope.label).or_default();
        agg.instances += 1;
        agg.total_ns += scope.total_ns;
        for (ev, n) in &scope.event_units {
            *agg.event_units.entry(ev).or_insert(0) += n;
        }
        if inner.closed.len() < inner.timeline_cap {
            let c = ClosedScope {
                kind: scope.kind,
                label: scope.label,
                arg: scope.arg,
                start_ns: scope.start_ns,
                end_ns: now_ns,
                depth: scope.depth,
                total_ns: scope.total_ns,
            };
            inner.closed.push(c);
        } else {
            inner.closed_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooh_sim::ScopeKind;

    #[test]
    fn records_land_in_innermost_scopes() {
        let ctx = SimCtx::new();
        let tracer = Tracer::install(&ctx);
        {
            let _t = ctx.span(ScopeKind::Technique, "SPML", 0);
            let _p = ctx.span(ScopeKind::Phase, "collect", 0);
            ctx.charge(Lane::Tracker, Event::ReverseMapLookup);
            {
                let _o = ctx.span(ScopeKind::Op, "drain", 0);
                ctx.charge_n(Lane::Hypervisor, Event::RingBufferCopyEntry, 3);
            }
        }
        ctx.charge(Lane::Kernel, Event::ContextSwitch); // outside all scopes

        let rows = tracer.profile_rows();
        let find = |ev: &str| rows.iter().find(|r| r.event == ev).unwrap().clone();
        let rm = find("ReverseMapLookup");
        assert_eq!(
            (rm.technique, rm.phase, rm.op, rm.lane),
            ("SPML", "collect", "-", "tracker")
        );
        let rb = find("RingBufferCopyEntry");
        assert_eq!((rb.technique, rb.phase, rb.op), ("SPML", "collect", "drain"));
        assert_eq!(rb.units, 3);
        assert_eq!(rb.records, 1);
        let cs = find("ContextSwitch");
        assert_eq!((cs.technique, cs.phase, cs.op), ("-", "-", "-"));
    }

    #[test]
    fn conservation_holds_and_detects_late_install() {
        let ctx = SimCtx::new();
        let tracer = Tracer::install(&ctx);
        ctx.charge(Lane::Kernel, Event::PageFaultKernel);
        ctx.charge_n(Lane::Hypervisor, Event::RingBufferCopyEntry, 100);
        ctx.advance(Lane::Tracked, 12345);
        tracer.check_conservation(ctx.clock()).unwrap();
        assert_eq!(tracer.total_attributed_ns(), ctx.now_ns());

        // A tracer installed after charges cannot reconcile.
        let late_ctx = SimCtx::new();
        late_ctx.charge(Lane::Kernel, Event::ContextSwitch);
        let late = Tracer::install(&late_ctx);
        late_ctx.charge(Lane::Kernel, Event::ContextSwitch);
        assert!(late.check_conservation(late_ctx.clock()).is_err());
    }

    #[test]
    fn event_units_match_counters() {
        let ctx = SimCtx::new();
        let tracer = Tracer::install(&ctx);
        ctx.charge_n(Lane::Hypervisor, Event::RingBufferCopyEntry, 512);
        ctx.charge(Lane::Hypervisor, Event::RingBufferCopyEntry);
        ctx.charge(Lane::Kernel, Event::TlbFlush);
        assert_eq!(
            tracer.event_units(Event::RingBufferCopyEntry),
            ctx.counters().get(Event::RingBufferCopyEntry)
        );
        assert_eq!(tracer.event_units(Event::TlbFlush), 1);
        assert_eq!(tracer.event_units(Event::Hypercall), 0);
    }

    #[test]
    fn scope_sums_include_descendants() {
        let ctx = SimCtx::new();
        let tracer = Tracer::install(&ctx);
        let outer_ns;
        {
            let _m = ctx.span(ScopeKind::Phase, "M15", 0);
            let a = ctx.charge(Lane::Tracker, Event::ClearRefsPte);
            let b = {
                let _o = ctx.span(ScopeKind::Op, "flush", 0);
                ctx.charge(Lane::Kernel, Event::TlbFlush)
            };
            outer_ns = a + b;
        }
        ctx.charge(Lane::Kernel, Event::TlbFlush); // outside
        assert_eq!(tracer.scope_ns("M15"), outer_ns);
        assert_eq!(tracer.scope_event_units("M15", Event::TlbFlush), 1);
        assert_eq!(tracer.scope_event_units("M15", Event::ClearRefsPte), 1);
        assert_eq!(tracer.scope_instances("M15"), 1);
    }

    #[test]
    fn repeated_scope_labels_aggregate() {
        let ctx = SimCtx::new();
        let tracer = Tracer::install(&ctx);
        let mut total = 0;
        for i in 0..100 {
            let _s = ctx.span(ScopeKind::Op, "page_walk", i);
            total += ctx.charge(Lane::Kernel, Event::PageWalk);
        }
        assert_eq!(tracer.scope_ns("page_walk"), total);
        assert_eq!(tracer.scope_instances("page_walk"), 100);
        assert_eq!(tracer.scope_event_units("page_walk", Event::PageWalk), 100);
    }

    #[test]
    fn percentiles_are_exact_on_skewed_histograms() {
        let mut s = NodeStats::default();
        for _ in 0..99 {
            s.add(1, 10);
        }
        s.add(1, 1000);
        assert_eq!(s.percentile_ns(50), 10);
        assert_eq!(s.percentile_ns(99), 10);
        assert_eq!(s.percentile_ns(100), 1000);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 1000);
    }

    #[test]
    fn folded_and_chrome_exports_are_well_formed() {
        let ctx = SimCtx::new();
        let tracer = Tracer::install(&ctx);
        {
            let _t = ctx.span(ScopeKind::Technique, "EPML", 0);
            let _p = ctx.span(ScopeKind::Process, "pid", 7);
            ctx.charge(Lane::Kernel, Event::PmlLogGva);
        }
        let folded = tracer.folded();
        assert!(folded.contains("kernel;EPML;-;-;PmlLogGva "));
        let chrome = tracer.chrome_trace();
        // Structurally sound JSON (balanced braces/brackets — no string in the
        // output contains either, so naive counting is exact) with our
        // virtual-timebase marker and the pid arg.
        let balance = |open: char, close: char| {
            chrome.matches(open).count() as i64 - chrome.matches(close).count() as i64
        };
        assert_eq!(balance('{', '}'), 0);
        assert_eq!(balance('[', ']'), 0);
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ns\""));
        assert!(chrome.contains("\"vcpu\":0"));
        assert!(chrome.contains("\"pid\":7"));
        let text = tracer.text_profile();
        assert!(text.contains("technique EPML"));
    }

    #[test]
    fn timeline_cap_truncates_timeline_but_not_aggregates() {
        let ctx = SimCtx::new();
        let tracer = Arc::new(Tracer::with_timeline_cap(4));
        assert!(ctx.install_tracer(tracer.clone()));
        for i in 0..10 {
            let _s = ctx.span(ScopeKind::Op, "tick", i);
            ctx.charge(Lane::Kernel, Event::ContextSwitch);
        }
        assert_eq!(tracer.records(), 10);
        assert_eq!(tracer.event_units(Event::ContextSwitch), 10);
        assert_eq!(tracer.scope_instances("tick"), 10);
        tracer.check_conservation(ctx.clock()).unwrap();
        let chrome = tracer.chrome_trace();
        assert!(chrome.contains("\"dropped_records\":6"));
        assert!(chrome.contains("\"dropped_scopes\":6"));
    }

    #[test]
    fn tracing_does_not_change_the_clock() {
        let plain = SimCtx::new();
        let traced = SimCtx::new();
        let _t = Tracer::install(&traced);
        for ctx in [&plain, &traced] {
            ctx.charge(Lane::Kernel, Event::PageFaultKernel);
            ctx.charge_n(Lane::Hypervisor, Event::RingBufferCopyEntry, 17);
            ctx.advance(Lane::Tracked, 999);
        }
        assert_eq!(plain.clock().snapshot(), traced.clock().snapshot());
    }
}
