//! `wc_hot`, `micro_pml`, `micro_fault`: a paper application under a
//! dirty-page tracking technique on the full stack.
//!
//! The timed loop is `ooh_bench::run_tracked_on`'s, step for step (a
//! self-test pins the event counts against it). It is restated here for two
//! reasons the public function cannot serve: the oracle needs the reported
//! dirty *set*, where `TrackedRun` keeps only its size, and the traced rep
//! needs a span around each call into a layer.

use crate::harness::{fnv_bytes, fnv_words, Bench, Counts, Fault, Rep, Work, FNV_SEED};
use crate::ladder;
use crate::spans::Recorder;
use ooh_bench::Stack;
use ooh_core::{DirtySet, OohSession, Technique};
use ooh_guest::GuestError;
use ooh_machine::{Gpa, Gva, PAGE_SIZE};
use ooh_workloads::{micro, phoenix, SizeClass, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
enum App {
    /// Phoenix word-count at a Table III size class.
    WordCount(SizeClass),
    /// Listing-1 array parser: region MiB × passes, collected once per pass.
    Micro { mib: u64, passes: u32 },
}

pub struct Tracked {
    name: &'static str,
    app: App,
    techniques: &'static [Technique],
}

impl Tracked {
    pub fn wc_hot(tiny: bool) -> Self {
        let size = if tiny {
            SizeClass::Small
        } else {
            SizeClass::Large
        };
        Tracked {
            name: "wc_hot",
            app: App::WordCount(size),
            techniques: &[Technique::Epml],
        }
    }

    pub fn micro_pml(tiny: bool) -> Self {
        Tracked {
            name: "micro_pml",
            app: App::micro(tiny),
            techniques: &[Technique::Spml, Technique::Epml],
        }
    }

    pub fn micro_fault(tiny: bool) -> Self {
        Tracked {
            name: "micro_fault",
            app: App::micro(tiny),
            techniques: &[Technique::Proc, Technique::Ufd],
        }
    }
}

impl App {
    fn micro(tiny: bool) -> App {
        if tiny {
            App::Micro { mib: 1, passes: 2 }
        } else {
            App::Micro {
                mib: 128,
                passes: 16,
            }
        }
    }
}

/// `ooh_workloads::phoenix("word-count", ..)`'s sizes (config.rs).
const WC_TABLE_SLOTS: u64 = 16384;

fn wc_input_pages(size: SizeClass) -> u64 {
    match size {
        SizeClass::Small => 256,
        SizeClass::Medium => 512,
        SizeClass::Large => 1024,
    }
}

fn span_of(t: Technique) -> &'static str {
    match t {
        Technique::Spml => "core.fetch_dirty.spml",
        Technique::Epml => "core.fetch_dirty.epml",
        Technique::Proc => "core.fetch_dirty.proc",
        Technique::Ufd => "core.fetch_dirty.ufd",
    }
}

/// What the tracker reported over one run.
pub struct Reported {
    pub rounds: Vec<u64>,
    pub union: DirtySet,
}

/// `run_tracked_on` after set-up: start the session, step the workload with
/// a timer tick per quantum, collect every `collect_every` quanta and once
/// at the end, stop the session.
pub fn tracked_loop(
    stack: &mut Stack,
    technique: Technique,
    workload: &mut dyn Workload,
    collect_every: u32,
    rec: &Recorder,
) -> Result<Reported, GuestError> {
    let fetch = span_of(technique);
    let mut session = rec.span("core.session.start", || {
        OohSession::start(&mut stack.hv, &mut stack.kernel, stack.pid, technique)
    })?;
    let mut out = Reported {
        rounds: Vec::new(),
        union: DirtySet::new(),
    };
    let mut steps_since_collect = 0u32;
    let mut done = false;
    while !done {
        done = rec.span("workloads.step", || workload.step(&mut stack.env()))?;
        rec.span("guest.timer_tick", || {
            stack.kernel.timer_tick(&mut stack.hv)
        })?;
        steps_since_collect += 1;
        if collect_every > 0 && steps_since_collect >= collect_every && !done {
            let dirty = rec.span(fetch, || {
                session.fetch_dirty(&mut stack.hv, &mut stack.kernel)
            })?;
            out.rounds.push(dirty.len() as u64);
            out.union.merge(&dirty);
            steps_since_collect = 0;
        }
    }
    let dirty = rec.span(fetch, || {
        session.fetch_dirty(&mut stack.hv, &mut stack.kernel)
    })?;
    out.rounds.push(dirty.len() as u64);
    out.union.merge(&dirty);
    rec.span("core.session.stop", || {
        session.stop(&mut stack.hv, &mut stack.kernel)
    })?;
    Ok(out)
}

/// Digest of every resident page's bytes, read straight from the host
/// frames: no charge, no TLB fill, so the sweep leaves the simulated state
/// exactly as set-up left it.
fn page_digests(stack: &mut Stack) -> Result<BTreeMap<u64, u64>, String> {
    let err = |e: ooh_machine::MachineError| e.to_string();
    let resident = &stack
        .kernel
        .process(stack.pid)
        .map_err(|e| e.to_string())?
        .resident;
    let mut out = BTreeMap::new();
    for (&gva_page, &gpa_page) in resident {
        let hpa = stack
            .hv
            .gpa_to_hpa(stack.kernel.vm, Gpa::from_page(gpa_page))
            .map_err(err)?
            .ok_or("resident page without a host frame")?;
        let frame = stack.hv.machine.phys.frame_bytes(hpa).map_err(err)?;
        out.insert(gva_page, fnv_bytes(frame));
    }
    Ok(out)
}

/// One technique's share of a rep, accumulated into `rep`: boot a fresh
/// stack, set the workload up, run the tracked loop, and check that no page
/// whose bytes changed is missing from the reported set (over-reporting is
/// allowed; DESIGN.md says where it happens).
fn run_one(
    technique: Technique,
    workload: &mut dyn Workload,
    collect_every: u32,
    rec: &Recorder,
    fault: Option<Fault>,
    rep: &mut Rep,
) -> Result<Reported, String> {
    let err = |e: GuestError| e.to_string();
    let t0 = Instant::now();
    let mut stack = rec.span("bench.boot", Stack::boot);
    rec.span("workloads.setup", || workload.setup(&mut stack.env()))
        .map_err(err)?;
    rep.setup_s += t0.elapsed().as_secs_f64();

    let before_pages = page_digests(&mut stack)?;
    let before = Counts::capture(&stack.hv, &stack.kernel);
    let t1 = Instant::now();
    let mut reported =
        tracked_loop(&mut stack, technique, workload, collect_every, rec).map_err(err)?;
    rep.wall_s += t1.elapsed().as_secs_f64();
    rep.counts
        .add_delta(&before, &Counts::capture(&stack.hv, &stack.kernel));

    if fault == Some(Fault::DropReportedPage) {
        let kept: Vec<Gva> = reported.union.iter().skip(1).collect();
        reported.union = kept.into_iter().collect();
    }
    for (page, digest) in &page_digests(&mut stack)? {
        if before_pages.get(page) != Some(digest) && !reported.union.contains(Gva::from_page(*page))
        {
            return Err(format!(
                "{}: page {page:#x} changed but was not reported dirty",
                technique.name()
            ));
        }
    }

    let pages: u64 = reported.rounds.iter().sum();
    rep.work.pages += pages;
    rep.work.vms += 1;
    rep.counts.add("core.dirty.pages_reported", pages);
    rep.counts
        .add("core.dirty.rounds", reported.rounds.len() as u64);
    rep.digest = fnv_words(
        rep.digest,
        [workload.checksum(), reported.union.len() as u64],
    );
    rep.digest = fnv_words(rep.digest, reported.union.pages());
    Ok(reported)
}

impl Bench for Tracked {
    fn name(&self) -> &'static str {
        self.name
    }

    fn rep(&self, seed: u64, rec: &Recorder, fault: Option<Fault>) -> Result<Rep, String> {
        let mut rep = Rep {
            setup_s: 0.0,
            wall_s: 0.0,
            work: Work {
                accesses: 0,
                pages: 0,
                vms: 0,
            },
            counts: Counts::zero(),
            digest: FNV_SEED,
            layer_extra: Vec::new(),
        };
        // A fresh stack per technique, one after the other.
        for &technique in self.techniques {
            match self.app {
                App::WordCount(size) => {
                    let mut w = phoenix("word-count", size, seed);
                    run_one(technique, w.as_mut(), 0, rec, fault, &mut rep)?;
                }
                App::Micro { mib, passes } => {
                    let mut parser = micro(mib, passes);
                    // One collection per pass: a pass is num_pages / 256 quanta.
                    let reported =
                        run_one(technique, &mut parser, mib as u32, rec, fault, &mut rep)?;
                    // The parser writes every page every pass, so every round
                    // reports exactly the region, and so does the union.
                    if let Some(r) = reported.rounds.iter().position(|&n| n != parser.num_pages) {
                        let (got, want) = (reported.rounds[r], parser.num_pages);
                        return Err(format!(
                            "{}: round {r} reported {got} of {want} pages",
                            technique.name()
                        ));
                    }
                    if reported.union != parser.region().iter_pages().collect::<DirtySet>() {
                        return Err(format!(
                            "{}: reported union is not the region",
                            technique.name()
                        ));
                    }
                }
            }
        }
        rep.work.accesses = rep.counts.accesses();
        Ok(rep)
    }

    /// Rung populations copy the application: TLB entries = its resident
    /// pages; word-count's hits go to its hash table.
    fn ladder(&self) -> Vec<(&'static str, f64)> {
        match self.app {
            App::WordCount(size) => {
                let table_pages = WC_TABLE_SLOTS * 16 / PAGE_SIZE;
                ladder::hit_ladder(wc_input_pages(size) + table_pages, table_pages)
            }
            App::Micro { mib, .. } => {
                let pages = mib * 256;
                let mut rungs = ladder::miss_ladder(pages, self.techniques);
                if self.techniques.contains(&Technique::Spml) {
                    rungs.extend(ladder::drain_ladder(pages));
                } else {
                    rungs.push(ladder::read_pagemap(pages));
                }
                rungs
            }
        }
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        match self.app {
            App::WordCount(size) => vec![
                ("input_pages", wc_input_pages(size)),
                ("table_slots", WC_TABLE_SLOTS),
                ("techniques", self.techniques.len() as u64),
            ],
            App::Micro { mib, passes } => vec![
                ("region_mib", mib),
                ("passes", u64::from(passes)),
                ("techniques", self.techniques.len() as u64),
            ],
        }
    }
}
