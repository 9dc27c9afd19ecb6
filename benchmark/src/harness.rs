//! The measurement protocol shared by every workload: a discarded warm-up
//! rep, timed reps with tracing off, then (when asked) the traced rep and
//! the workload's ladder rungs. One rep is one operation.

use crate::spans::{self, Recorder, Span};
use crate::spec::{self, EVENT_COUNTS, OTHER_COUNTS};
use crate::stats::{self, Summary};
use ooh_guest::GuestKernel;
use ooh_hypervisor::Hypervisor;
use ooh_sim::{Event, Lane};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Exact counts of one rep's timed region, keyed by per-layer metric name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(pub BTreeMap<&'static str, u64>);

impl Counts {
    /// Every count name present, all zero.
    pub fn zero() -> Self {
        let names = EVENT_COUNTS.iter().map(|(n, _)| *n).chain(OTHER_COUNTS);
        Counts(names.map(|n| (n, 0)).collect())
    }

    /// The simulator-side counts of a booted stack, as of now.
    pub fn capture(hv: &Hypervisor, kernel: &GuestKernel) -> Self {
        let mut c = Counts::zero();
        let ctx = &hv.ctx;
        for (name, events) in EVENT_COUNTS {
            c.0.insert(name, events.iter().map(|&e| ctx.counters().get(e)).sum());
        }
        c.0.insert(
            "sim.charges",
            Event::ALL.iter().map(|&e| ctx.counters().get(e)).sum(),
        );
        for lane in Lane::ALL {
            let name = match lane {
                Lane::Tracked => "sim.virt_ns.tracked",
                Lane::Tracker => "sim.virt_ns.tracker",
                Lane::Kernel => "sim.virt_ns.kernel",
                Lane::Hypervisor => "sim.virt_ns.hypervisor",
            };
            c.0.insert(name, ctx.clock().lane_ns(lane));
        }
        let tlbs = || hv.vm(kernel.vm).vcpus.iter().map(|v| &v.tlb);
        c.0.insert("machine.tlb.hits", tlbs().map(|t| t.hits()).sum());
        c.0.insert("machine.tlb.misses", tlbs().map(|t| t.misses()).sum());
        c.0.insert("machine.tlb.flushes", tlbs().map(|t| t.flushes()).sum());
        c.0.insert(
            "machine.tlb.shootdowns",
            tlbs().map(|t| t.shootdowns()).sum(),
        );
        c.0.insert("machine.tlb.evictions", tlbs().map(|t| t.evictions()).sum());
        c
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    pub fn set(&mut self, name: &'static str, v: u64) {
        debug_assert!(self.0.contains_key(name), "unknown count {name}");
        self.0.insert(name, v);
    }

    pub fn add(&mut self, name: &'static str, v: u64) {
        self.set(name, self.get(name) + v);
    }

    /// `self += later − earlier`: accumulate one timed region's delta.
    pub fn add_delta(&mut self, earlier: &Counts, later: &Counts) {
        for (name, v) in &mut self.0 {
            *v += later.get(name) - earlier.get(name);
        }
    }

    pub fn accesses(&self) -> u64 {
        self.get("sim.events.guest_load") + self.get("sim.events.guest_store")
    }
}

/// Numerators of the three throughput metrics for one rep (README has the
/// table of what each workload counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    pub accesses: u64,
    pub pages: u64,
    pub vms: u64,
}

/// What one rep measured.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub work: Work,
    pub counts: Counts,
    /// Fingerprint of the rep's outputs; must equal rep 0's.
    pub digest: u64,
    /// Per-layer figures only a traced rep can measure (fleet per-VM times).
    pub layer_extra: Vec<(&'static str, f64)>,
}

/// Fault injected into a rep's outputs, to prove the oracles count failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop one page from the dirty set the tracker reported.
    DropReportedPage,
    /// Flip one byte of the encoded snapshot chain.
    FlipWireByte,
}

/// One workload: how to run a rep and which ladder rungs it owns.
pub trait Bench {
    fn name(&self) -> &'static str;

    /// Run one rep on a freshly built stack. `Err` means an oracle failed or
    /// a simulator call returned an error.
    fn rep(&self, seed: u64, rec: &Recorder, fault: Option<Fault>) -> Result<Rep, String>;

    /// Timed reps a measurement takes after the warm-up, at least.
    fn min_reps(&self) -> usize {
        5
    }

    /// Traced reps a traced measurement takes; the one with the median wall
    /// time stands for them (its spans, its `trace.overhead_pct`).
    fn traced_reps(&self) -> usize {
        1
    }

    /// Median ns/op of each ladder rung this workload owns.
    fn ladder(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// The workload's sizes, echoed in result headers.
    fn sizes(&self) -> Vec<(&'static str, u64)>;
}

pub struct Protocol {
    pub seed: u64,
    /// Keep starting timed reps until this much wall time has passed...
    pub seconds: f64,
    /// ...and at least this many are done ([`Bench::min_reps`] for a
    /// measurement; the self-tests take two).
    pub min_reps: usize,
    pub traced: bool,
    pub fault: Option<Fault>,
}

pub struct Measured {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// Per end-to-end metric, over the successful timed reps.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Every per-layer metric (zero where the workload never enters the
    /// layer), when the protocol asked for the traced rep.
    pub per_layer: Option<Vec<LayerValue>>,
    pub spans: Vec<Span>,
}

pub struct LayerValue {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.end_to_end.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.per_layer
            .as_ref()?
            .iter()
            .find(|l| l.name == name)
            .map(|l| l.value)
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one rep, turning a panic anywhere below into a failed rep.
fn guarded_rep(
    b: &dyn Bench,
    seed: u64,
    rec: &Recorder,
    fault: Option<Fault>,
) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| b.rep(seed, rec, fault))).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panicked: {msg}"))
    })
}

/// A rep also fails if its exact counts or output digest differ from the
/// first good rep of the same run: determinism is checked rep against rep.
fn against_reference(rep: Rep, reference: &Option<Rep>) -> Result<Rep, String> {
    if let Some(r0) = reference {
        if rep.digest != r0.digest {
            return Err(format!(
                "output digest {:#x} differs from rep 0's {:#x}",
                rep.digest, r0.digest
            ));
        }
        if let Some((name, v)) = rep.counts.0.iter().find(|(n, v)| r0.counts.get(n) != **v) {
            return Err(format!(
                "{name} = {v}, rep 0 counted {}",
                r0.counts.get(name)
            ));
        }
    }
    Ok(rep)
}

pub fn measure(b: &dyn Bench, p: &Protocol) -> Measured {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(p.seconds.max(0.0));
    // The warm-up rep is discarded: it lets the allocator and page cache
    // settle. Its failures would repeat in the timed reps, which count them.
    let _ = guarded_rep(b, p.seed, &Recorder::off(), None);

    let mut out = Measured {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: None,
        spans: Vec::new(),
    };
    let mut good: Vec<Rep> = Vec::new();
    let mut reference: Option<Rep> = None;
    let record = |out: &mut Measured, r: Result<Rep, String>, reference: &mut Option<Rep>| {
        out.attempted += 1;
        match r.and_then(|rep| against_reference(rep, reference)) {
            Ok(rep) => {
                reference.get_or_insert_with(|| rep.clone());
                Some(rep)
            }
            Err(why) => {
                out.failed += 1;
                out.failures
                    .push(format!("rep {}: {why}", out.attempted - 1));
                None
            }
        }
    };

    while out.attempted < p.min_reps || started.elapsed() < budget {
        let r = guarded_rep(b, p.seed, &Recorder::off(), p.fault);
        good.extend(record(&mut out, r, &mut reference));
    }
    // Sampled before the traced rep and the ladder rigs allocate, so traced
    // and untraced runs report the same figure.
    let rss = peak_rss_mib();

    if !good.is_empty() {
        let series =
            |f: &dyn Fn(&Rep) -> f64| stats::summarize(&good.iter().map(f).collect::<Vec<_>>());
        out.end_to_end = vec![
            ("wall_s", series(&|r| r.wall_s)),
            (
                "accesses_per_s",
                series(&|r| r.work.accesses as f64 / r.wall_s),
            ),
            ("pages_per_s", series(&|r| r.work.pages as f64 / r.wall_s)),
            ("vms_per_s", series(&|r| r.work.vms as f64 / r.wall_s)),
            ("setup_s", series(&|r| r.setup_s)),
            ("peak_rss_mib", stats::summarize(&[rss])),
        ];
    }

    if p.traced {
        let mut traced = Vec::new();
        for _ in 0..b.traced_reps() {
            let rec = Recorder::on(out.attempted as u32);
            let r = guarded_rep(b, p.seed, &rec, p.fault);
            traced.extend(record(&mut out, r, &mut reference).map(|rep| (rep, rec.into_spans())));
        }
        traced.sort_by(|(a, _), (b, _)| a.wall_s.total_cmp(&b.wall_s));
        let median = traced.len() / 2;
        let untraced_wall_s = out.metric("wall_s").map(|s| s.median);
        if let (Some((rep, spans)), Some(wall_s)) =
            (traced.into_iter().nth(median), untraced_wall_s)
        {
            out.per_layer = Some(per_layer(b, &rep, wall_s, &spans));
            out.spans = spans;
        }
    }
    out
}

/// Assemble all 92 per-layer metrics from the traced rep, the untraced
/// median it is compared with, and the workload's ladder probes.
fn per_layer(b: &dyn Bench, traced: &Rep, untraced_wall_s: f64, spans: &[Span]) -> Vec<LayerValue> {
    let self_s = spans::self_times(spans);
    let rungs: BTreeMap<&str, f64> = b.ladder().into_iter().collect();
    let counts = &traced.counts;
    let lookups = counts.get("machine.tlb.hits") + counts.get("machine.tlb.misses");
    let per = |n: u64| {
        if n == 0 {
            0.0
        } else {
            untraced_wall_s * 1e9 / n as f64
        }
    };
    spec::per_layer()
        .into_iter()
        .map(|layer| {
            let n = layer.name.as_str();
            let value = if let Some(span) = n.strip_suffix(".self_s") {
                self_s.get(span).copied().unwrap_or(0.0)
            } else if let Some(rung) = n.strip_suffix(".ns") {
                rungs.get(rung).copied().unwrap_or(0.0)
            } else {
                match n {
                    "trace.overhead_pct" => ooh_sim::overhead_pct(traced.wall_s, untraced_wall_s),
                    "machine.tlb.hit_ratio" if lookups > 0 => {
                        counts.get("machine.tlb.hits") as f64 / lookups as f64
                    }
                    "machine.tlb.hit_ratio" => 0.0,
                    "host_ns_per_access" => per(counts.accesses()),
                    "host_ns_per_charge" => per(counts.get("sim.charges")),
                    _ => traced
                        .layer_extra
                        .iter()
                        .find(|(k, _)| *k == n)
                        .map_or_else(|| counts.get(n) as f64, |(_, v)| *v),
                }
            };
            LayerValue {
                name: layer.name,
                unit: layer.unit,
                value,
            }
        })
        .collect()
}

/// Accumulates the timed region of a rep whose measured calls are
/// interleaved with harness work (hashing a wire image, say) that must not
/// count.
#[derive(Default)]
pub struct Stopwatch(Duration);

impl Stopwatch {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0 += t0.elapsed();
        out
    }

    pub fn seconds(&self) -> f64 {
        self.0.as_secs_f64()
    }
}

/// FNV-1a over 64-bit words: the digest the oracles compare.
pub fn fnv_words(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a byte string, eight bytes at a time (whole wire images are
/// hashed, so a byte-at-a-time FNV would dominate the oracle).
pub fn fnv_bytes(bytes: &[u8]) -> u64 {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    let words = chunks.map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    fnv_words(
        FNV_SEED ^ bytes.len() as u64,
        words.chain([u64::from_le_bytes(last)]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_bytes_sees_every_byte_and_the_length() {
        let a = fnv_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_ne!(a, fnv_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 10]));
        assert_ne!(a, fnv_bytes(&[1, 2, 3, 4, 5, 6, 7, 9, 9]));
        assert_ne!(fnv_bytes(&[0]), fnv_bytes(&[0, 0]));
    }

    #[test]
    fn counts_delta_accumulates() {
        let mut a = Counts::zero();
        let mut b = Counts::zero();
        a.set("sim.charges", 5);
        b.set("sim.charges", 12);
        let mut acc = Counts::zero();
        acc.add_delta(&a, &b);
        acc.add_delta(&a, &b);
        assert_eq!(acc.get("sim.charges"), 14);
        assert_eq!(acc.0.len(), 35);
    }
}
