//! `drain_sparse`, `drain_dense`: no guest at all — the tracker's multi-round
//! drain → retain → diff → merge → iterate loop on `DirtyBitmap`, so
//! `machine::dirty` does all the work. The stream generator is ported from
//! `crates/bench/benches/dirty_path.rs` (which keeps the BTree baseline) and
//! takes its randomness from the benchmark seed.

use crate::harness::{fnv_words, Bench, Counts, Fault, Rep, Work, FNV_SEED};
use crate::spans::Recorder;
use ooh_machine::{DirtyBitmap, Gva, GvaRange};
use ooh_sim::SimRng;
use std::collections::BTreeSet;
use std::time::Instant;

/// 4 KiB pages per MiB of working set.
const PAGES_PER_MIB: u64 = 256;
/// Times each dirty page appears in one round's raw drain stream.
const DUP_FACTOR: usize = 4;
/// Tracking rounds per loop (checkpoint intervals).
const ROUNDS: usize = 4;
/// First page of the simulated VMA (non-zero, so chunk keying is exercised).
const BASE_PAGE: u64 = 0x0010_0000;

#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// 1 ‰ density, isolated pages: about one bit per bitmap chunk.
    Sparse,
    /// 12.5 % density in [`DENSE_EXTENTS`] large extents (GC heap sweeps).
    Dense,
}

pub struct Drain {
    name: &'static str,
    pattern: Pattern,
    ws_mib: u64,
    /// Loops per rep: fixed, so a rep's work and counts are exact.
    loops: u32,
}

impl Drain {
    pub fn sparse(tiny: bool) -> Self {
        let (ws_mib, loops) = if tiny { (64, 3) } else { (4096, 2000) };
        Drain {
            name: "drain_sparse",
            pattern: Pattern::Sparse,
            ws_mib,
            loops,
        }
    }

    pub fn dense(tiny: bool) -> Self {
        let (ws_mib, loops) = if tiny { (64, 3) } else { (4096, 480) };
        Drain {
            name: "drain_dense",
            pattern: Pattern::Dense,
            ws_mib,
            loops,
        }
    }
}

/// Extents of the dense pattern.
const DENSE_EXTENTS: u64 = 8;

/// Distinct dirty pages over `ws_pages`, ascending (sweep order).
fn dirty_pages(pattern: Pattern, ws_pages: u64, rng: &mut SimRng) -> Vec<u64> {
    let mut seen = BTreeSet::new();
    match pattern {
        Pattern::Sparse => {
            let target = (ws_pages / 1000).max(1) as usize;
            while seen.len() < target {
                seen.insert(BASE_PAGE + rng.next_below(ws_pages));
            }
        }
        // One extent per eighth of the working set, at a seeded offset
        // inside it. `dirty_path.rs` drops its extents anywhere, which lets
        // the seed decide how many of the 8 the registered VMAs retain
        // (6 ± 1.2) and moves the loop's work by ±15 %; stratified, a seed
        // moves where the extents lie, not how much work they are.
        Pattern::Dense => {
            let stripe = ws_pages / DENSE_EXTENTS;
            let run_len = (ws_pages * 125 / 1000 / DENSE_EXTENTS).max(1);
            for extent in 0..DENSE_EXTENTS {
                let start = BASE_PAGE + extent * stripe + rng.next_below(stripe - run_len + 1);
                seen.extend(start..start + run_len);
            }
        }
    }
    seen.into_iter().collect()
}

/// One round's raw drain stream: what a PML ring records. `DUP_FACTOR`
/// sweeps over the round's pages in ascending program order, each starting
/// at a rotated offset, with ~1/8 of adjacent entries swapped (store-buffer
/// jitter) — duplicates and near-misses included, a global shuffle excluded.
fn drain_stream(dirty: &[u64], rng: &mut SimRng) -> Vec<u64> {
    let n = dirty.len();
    let mut stream = Vec::with_capacity(n * DUP_FACTOR);
    for pass in 0..DUP_FACTOR {
        let rot = pass * n / DUP_FACTOR;
        let start = stream.len();
        stream.extend(dirty[rot..].iter().chain(&dirty[..rot]).copied());
        let pass_slice = &mut stream[start..];
        let mut i = 0;
        while i + 1 < pass_slice.len() {
            if rng.next_below(8) == 0 {
                pass_slice.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
    }
    stream
}

/// What one loop computes: the accumulated union, the last round's newly
/// dirty count, and a digest of every page iterated.
#[derive(Debug, PartialEq, Eq)]
struct LoopResult {
    union_len: usize,
    union_digest: u64,
    newly_digest: u64,
}

struct Inputs {
    /// Per-round streams over rotating ~5/8 windows of the dirty pages, so
    /// round-over-round diffs and the union are all nontrivial.
    rounds: Vec<Vec<u64>>,
    /// Three registered VMAs covering ~3/4 of the working set, so retain
    /// has real work.
    ranges: Vec<GvaRange>,
    reference: LoopResult,
}

impl Inputs {
    fn build(pattern: Pattern, ws_mib: u64, seed: u64) -> Inputs {
        let ws_pages = ws_mib * PAGES_PER_MIB;
        let mut rng = SimRng::new(seed);
        let dirty = dirty_pages(pattern, ws_pages, &mut rng);
        let n = dirty.len();
        let window = (n * 5 / 8).max(1);
        let rounds: Vec<Vec<u64>> = (0..ROUNDS)
            .map(|r| {
                let lo = r * n / ROUNDS;
                let mut pages: Vec<u64> = (lo..lo + window).map(|i| dirty[i % n]).collect();
                pages.sort_unstable();
                drain_stream(&pages, &mut rng)
            })
            .collect();
        let q = ws_pages / 4;
        let raw = [
            (BASE_PAGE, BASE_PAGE + q),
            (BASE_PAGE + q + q / 2, BASE_PAGE + 2 * q + q / 2),
            (BASE_PAGE + 3 * q, BASE_PAGE + ws_pages),
        ];
        let ranges = raw
            .iter()
            .map(|&(lo, hi)| GvaRange::new(Gva::from_page(lo), hi - lo))
            .collect();

        // Reference: the same loop on `BTreeSet`, the pre-bitmap data path.
        let mut prev = BTreeSet::new();
        let mut union = BTreeSet::new();
        let mut newly_digest = FNV_SEED;
        for stream in &rounds {
            let mut set: BTreeSet<u64> = stream.iter().copied().collect();
            set.retain(|p| raw.iter().any(|&(lo, hi)| (lo..hi).contains(p)));
            newly_digest = fnv_words(newly_digest, set.difference(&prev).copied());
            union.extend(set.iter().copied());
            prev = set;
        }
        let reference = LoopResult {
            union_len: union.len(),
            union_digest: fnv_words(FNV_SEED, union.iter().copied()),
            newly_digest,
        };
        Inputs {
            rounds,
            ranges,
            reference,
        }
    }
}

/// The tracker's loop over the word-packed bitmap, one span per stage.
fn bitmap_loop(inputs: &Inputs, rec: &Recorder) -> LoopResult {
    let mut prev = DirtyBitmap::new();
    let mut union = DirtyBitmap::new();
    let mut newly_digest = FNV_SEED;
    for stream in &inputs.rounds {
        let mut set = DirtyBitmap::new();
        rec.span("machine.dirty.extend_pages", || {
            set.extend_pages(stream.iter().copied())
        });
        rec.span("machine.dirty.retain_within", || {
            set.retain_within(&inputs.ranges)
        });
        let newly = rec.span("machine.dirty.difference", || set.difference(&prev));
        rec.span("machine.dirty.merge", || union.merge(&set));
        newly_digest = rec.span("machine.dirty.pages", || {
            fnv_words(newly_digest, newly.pages())
        });
        prev = set;
    }
    let union_digest = rec.span("machine.dirty.pages", || fnv_words(FNV_SEED, union.pages()));
    LoopResult {
        union_len: union.len(),
        union_digest,
        newly_digest,
    }
}

impl Bench for Drain {
    fn name(&self) -> &'static str {
        self.name
    }

    fn rep(&self, seed: u64, rec: &Recorder, _fault: Option<Fault>) -> Result<Rep, String> {
        let t0 = Instant::now();
        let inputs = Inputs::build(self.pattern, self.ws_mib, seed);
        let setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut wrong = 0u32;
        for _ in 0..self.loops {
            wrong += u32::from(std::hint::black_box(bitmap_loop(&inputs, rec)) != inputs.reference);
        }
        let wall_s = t1.elapsed().as_secs_f64();
        if wrong > 0 {
            return Err(format!(
                "{wrong} of {} loops disagree with the BTreeSet reference",
                self.loops
            ));
        }

        let entries: u64 =
            inputs.rounds.iter().map(|r| r.len() as u64).sum::<u64>() * u64::from(self.loops);
        let r = &inputs.reference;
        Ok(Rep {
            setup_s,
            wall_s,
            // No guest and no VM: every rate is over raw drain-stream entries.
            work: Work {
                accesses: entries,
                pages: entries,
                vms: entries,
            },
            counts: Counts::zero(),
            digest: fnv_words(
                FNV_SEED,
                [r.union_len as u64, r.union_digest, r.newly_digest],
            ),
            layer_extra: Vec::new(),
        })
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("ws_mib", self.ws_mib),
            ("loops_per_rep", u64::from(self.loops)),
            ("rounds_per_loop", ROUNDS as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed_and_the_density() {
        let a = Inputs::build(Pattern::Sparse, 64, 1);
        let b = Inputs::build(Pattern::Sparse, 64, 1);
        let c = Inputs::build(Pattern::Sparse, 64, 2);
        assert_eq!(a.rounds, b.rounds);
        assert_ne!(a.rounds, c.rounds);
        // 64 MiB = 16384 pages: 1 per mille = 16 pages, 5/8 window, x4 dups.
        assert!(a.rounds.iter().all(|r| r.len() == 10 * DUP_FACTOR));
        let d = Inputs::build(Pattern::Dense, 64, 1);
        assert_eq!(d.rounds[0].len(), 2048 * 5 / 8 * DUP_FACTOR);
        assert_eq!(bitmap_loop(&d, &Recorder::off()), d.reference);
    }
}
