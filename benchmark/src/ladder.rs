//! The ladder rungs: isolated probes of one public call each, so that rung
//! *n* minus rung *n − 1* is one layer's cost. Populations copy the owning
//! workload (TLB entries = its resident pages).
//!
//! Each probe runs a warm-up batch, then [`BATCHES`] timed batches of at
//! least [`MIN_BATCH`] (so the two timer reads per batch cost < 1 %), and
//! reports the median ns/op.

use crate::stats;
use ooh_bench::Stack;
use ooh_core::revmap::{reverse_map_batch, reverse_map_batch_cached, RevMapCache};
use ooh_core::{OohSession, Technique};
use ooh_guest::VmaKind;
use ooh_machine::{
    DirtyBitmap, Ept, Gpa, Gva, GvaRange, HostPhys, Hpa, Mmu, PmlBuffer, PmlState, Pte, RingView,
    Tlb, TlbEntry, PAGE_SIZE,
};
use ooh_sim::{Event, Lane, SimCtx};
use ooh_trace::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 11;
const MIN_BATCH: Duration = Duration::from_millis(1);
/// Entries per drain-ladder batch (eight PML buffers' worth).
const DRAIN_BATCH: u64 = 4096;

type Rung = (&'static str, f64);

/// Median ns/op of `pass`, which performs some operations on `state` and
/// returns how many. `reset` runs untimed before every batch. A batch is one
/// pass when the pass consumes state `reset` must restore (`repeat == false`),
/// else passes repeat until the batch is long enough.
fn probe<S>(
    state: &mut S,
    repeat: bool,
    mut reset: impl FnMut(&mut S),
    mut pass: impl FnMut(&mut S) -> u64,
) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        reset(state);
        let t0 = Instant::now();
        let mut ops = pass(state);
        while repeat && t0.elapsed() < MIN_BATCH {
            ops += pass(state);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        if batch > 0 {
            samples.push(ns / ops.max(1) as f64);
        }
    }
    stats::median(&samples)
}

/// A probe whose pass leaves the state as it found it.
fn steady(mut pass: impl FnMut() -> u64) -> f64 {
    probe(&mut (), true, |_| (), |_| pass())
}

/// The hit ladder's access pattern, copied from word-count: 8-byte accesses
/// to scattered 16-byte slots of a hot table occupying the last `hot_pages`
/// of a `pages`-page population (a prime stride visits every slot once per
/// pass, like hash probes, not a prefetch-friendly sweep).
fn hot_slots(base: Gva, pages: u64, hot_pages: u64) -> Vec<Gva> {
    const STRIDE: u64 = 7919;
    let slots = hot_pages * PAGE_SIZE / 16;
    assert!(
        hot_pages <= pages && !slots.is_multiple_of(STRIDE),
        "stride must be coprime with the slot count"
    );
    let table = base.add((pages - hot_pages) * PAGE_SIZE);
    (0..slots)
        .map(|i| table.add(i * STRIDE % slots * 16))
        .collect()
}

/// The miss ladder's access pattern, copied from the array parser: one
/// access per page, ascending.
fn sweep(base: Gva, pages: u64) -> Vec<Gva> {
    (0..pages).map(|i| base.add(i * PAGE_SIZE)).collect()
}

// ---------------------------------------------------------------------------
// A hand-built guest for the machine-level rungs (as
// `machine/tests/walker_tlb_proptests.rs` builds one): one page table, no
// hypervisor, no kernel.
// ---------------------------------------------------------------------------

const RIG_BASE: Gva = Gva(0x4000_0000);

struct MmuRig {
    phys: HostPhys,
    ept: Ept,
    tlb: Tlb,
    pml: PmlState,
    ctx: SimCtx,
    cr3: Gpa,
    next_gpa: u64,
    /// Host slot of each page's leaf PTE, for resetting D bits.
    leaf_slots: Vec<Hpa>,
    order: Vec<Gva>,
}

impl MmuRig {
    /// Map `n` pages, all accessed, dirty and cached in the TLB; passes
    /// visit `order`.
    fn new(n: u64, order: Vec<Gva>) -> Self {
        // Data pages + guest page tables + EPT tables, with headroom.
        let mut phys = HostPhys::new((2 * n + 4096) * PAGE_SIZE);
        let mut ept = Ept::new(&mut phys).expect("ept root");
        let cr3 = Gpa::from_page(0x100);
        let frame = phys.alloc_frame().expect("frame");
        ept.map(&mut phys, cr3, frame).expect("map cr3");
        let mut rig = MmuRig {
            phys,
            ept,
            tlb: Tlb::new(),
            pml: PmlState::default(),
            ctx: SimCtx::new(),
            cr3,
            next_gpa: 0x101,
            leaf_slots: Vec::new(),
            order,
        };
        for gva in sweep(RIG_BASE, n) {
            rig.map(gva);
            rig.access(gva, true);
        }
        rig
    }

    fn alloc_guest_page(&mut self) -> Gpa {
        let gpa = Gpa::from_page(self.next_gpa);
        self.next_gpa += 1;
        let frame = self.phys.alloc_frame().expect("frame");
        self.ept.map(&mut self.phys, gpa, frame).expect("ept map");
        gpa
    }

    fn host_slot(&mut self, slot: Gpa) -> Hpa {
        self.ept
            .translate(&self.phys, slot)
            .expect("translate")
            .expect("table page mapped")
    }

    fn map(&mut self, gva: Gva) {
        let data = self.alloc_guest_page();
        let mut table = self.cr3;
        for level in (1..4).rev() {
            let hslot = self.host_slot(table.add(gva.pt_index(level) as u64 * 8));
            let entry = Pte(self.phys.read_u64(hslot).expect("pte"));
            table = if entry.is_present() {
                entry.frame()
            } else {
                let t = self.alloc_guest_page();
                self.phys.write_u64(hslot, Pte::table(t).0).expect("pte");
                t
            };
        }
        let hslot = self.host_slot(table.add(gva.pt_index(0) as u64 * 8));
        self.phys
            .write_u64(hslot, Pte::leaf(data, Pte::WRITABLE | Pte::USER).0)
            .expect("pte");
        self.leaf_slots.push(hslot);
    }

    /// One `Mmu::access`, building the borrowed view per call as
    /// `Hypervisor::guest_access` does. A full PML buffer is drained here,
    /// so buffer-full handling is amortised into the logging rung.
    fn access(&mut self, gva: Gva, write: bool) {
        let mut mmu = Mmu {
            phys: &mut self.phys,
            ept: &mut self.ept,
            tlb: &mut self.tlb,
            pml: &mut self.pml,
            ctx: &self.ctx,
            lane: Lane::Tracked,
            epml_hw: true,
            spp: None,
            split_on_dirty: false,
        };
        let ok = mmu
            .access(self.cr3, gva, write)
            .expect("model misuse")
            .expect("rig pages never fault");
        if !ok.events.is_empty() {
            if let Some(buf) = self.pml.guest.as_mut() {
                black_box(buf.drain(&self.phys).expect("drain"));
            }
        }
        black_box(ok.hpa);
    }

    fn pass(&mut self, write: bool) -> u64 {
        for i in 0..self.order.len() {
            self.access(self.order[i], write);
        }
        self.order.len() as u64
    }

    /// Arm the guest-level (EPML) buffer and clear every page's dirty state,
    /// so the next store to each page walks, sets D 0→1 and logs.
    fn clear_dirty_and_log(&mut self) {
        if self.pml.guest.is_none() {
            let page = self.phys.alloc_frame().expect("frame");
            self.pml.guest = Some(PmlBuffer::new(page));
            self.pml.guest_logging = true;
        }
        for &slot in &self.leaf_slots {
            let pte = Pte(self.phys.read_u64(slot).expect("pte"));
            self.phys
                .write_u64(slot, pte.without(Pte::DIRTY).0)
                .expect("pte");
        }
        self.ept
            .clear_all_dirty(&mut self.phys)
            .expect("clear EPT dirty");
        self.tlb.flush_all();
        let buf = self.pml.guest.as_mut().expect("armed above");
        buf.drain(&self.phys).expect("drain");
    }
}

fn tlb_entry(page: u64) -> TlbEntry {
    TlbEntry {
        gpa_page: page,
        hpa_page: page,
        writable: true,
        guest_dirty: true,
        ept_dirty: true,
        spp_guarded: false,
        huge: false,
    }
}

/// A booted stack with `pages` prefaulted pages.
fn booted(pages: u64, ctx: SimCtx) -> (Stack, GvaRange) {
    let mut stack = Stack::boot_with_ctx(8 * 1024, ctx);
    let region = stack
        .kernel
        .mmap(stack.pid, pages, true, VmaKind::Anon)
        .expect("mmap");
    stack.env().prefault(region).expect("prefault");
    (stack, region)
}

// ---------------------------------------------------------------------------
// Access ladder, hit side (wc_hot)
// ---------------------------------------------------------------------------

pub fn hit_ladder(pages: u64, hot_pages: u64) -> Vec<Rung> {
    let mut out = Vec::new();

    let ctx = SimCtx::new();
    out.push((
        "sim.charge",
        steady(|| {
            for _ in 0..1024 {
                black_box(ctx.charge(Lane::Tracked, black_box(Event::TlbHit)));
            }
            1024
        }),
    ));

    let cr3 = Gpa::from_page(0x100);
    let order = hot_slots(RIG_BASE, pages, hot_pages);
    let ops = order.len() as u64;
    let mut tlb = Tlb::new();
    for gva in sweep(RIG_BASE, pages) {
        tlb.fill(cr3, gva, tlb_entry(gva.page()));
    }
    out.push((
        "machine.tlb.lookup_hit",
        steady(|| {
            for &gva in &order {
                black_box(tlb.lookup(cr3, black_box(gva)));
            }
            ops
        }),
    ));

    let mut rig = MmuRig::new(pages, order);
    out.push(("machine.mmu.access_hit_load", steady(|| rig.pass(false))));
    out.push(("machine.mmu.access_hit_store", steady(|| rig.pass(true))));
    drop(rig);

    let (mut stack, region) = booted(pages, SimCtx::new());
    let order = hot_slots(region.start, pages, hot_pages);
    let (hv, kernel, pid) = (&mut stack.hv, &mut stack.kernel, stack.pid);
    let (vm, vcpu) = (kernel.vm, kernel.vcpu_of(pid));
    let cr3 = kernel.process(pid).expect("process").cr3;
    out.push((
        "hypervisor.guest_access_hit",
        steady(|| {
            for &gva in &order {
                black_box(
                    hv.guest_access(vm, vcpu, cr3, gva, true, Lane::Tracked)
                        .expect("access")
                        .expect("no fault"),
                );
            }
            ops
        }),
    ));
    out.push((
        "guest.access_hit",
        steady(|| {
            for &gva in &order {
                black_box(
                    kernel
                        .access(hv, pid, gva, true, Lane::Tracked)
                        .expect("access"),
                );
            }
            ops
        }),
    ));
    out.push((
        "guest.read_u64_hit",
        steady(|| {
            for &gva in &order {
                black_box(kernel.read_u64(hv, pid, gva, Lane::Tracked).expect("read"));
            }
            ops
        }),
    ));
    out.push((
        "guest.write_u64_hit",
        steady(|| {
            for &gva in &order {
                kernel
                    .write_u64(hv, pid, gva, 1, Lane::Tracked)
                    .expect("write");
            }
            ops
        }),
    ));
    drop(stack);

    // The same store with an `ooh_trace::Tracer` sink installed before boot.
    let ctx = SimCtx::new();
    let tracer = Tracer::install(&ctx);
    let (mut stack, _) = booted(pages, ctx);
    out.push((
        "trace.write_u64_hit_sink",
        steady(|| {
            for &gva in &order {
                stack
                    .kernel
                    .write_u64(&mut stack.hv, stack.pid, gva, 1, Lane::Tracked)
                    .expect("write");
            }
            ops
        }),
    ));
    black_box(tracer.records());
    out
}

// ---------------------------------------------------------------------------
// Access ladder, miss side (micro_pml, micro_fault)
// ---------------------------------------------------------------------------

/// The miss rungs every owner shares, plus the first-write-after-collect
/// rung of each of the owner's `techniques`.
pub fn miss_ladder(pages: u64, techniques: &[Technique]) -> Vec<Rung> {
    let mut out = Vec::new();

    let cr3 = Gpa::from_page(0x100);
    let order = sweep(RIG_BASE, pages);
    let mut tlb = Tlb::new();
    for &gva in &order {
        tlb.fill(cr3, gva, tlb_entry(gva.page()));
    }
    out.push((
        "machine.tlb.fill_invlpg",
        steady(|| {
            for &gva in &order {
                tlb.invlpg(gva);
                tlb.fill(cr3, gva, tlb_entry(gva.page()));
            }
            pages
        }),
    ));
    // A full flush, amortised over refilling every entry it dropped.
    out.push((
        "machine.tlb.flush_refill",
        steady(|| {
            tlb.flush_all();
            for &gva in &order {
                tlb.fill(cr3, gva, tlb_entry(gva.page()));
            }
            pages
        }),
    ));
    drop(tlb);

    // Nested walk with A and D already set: no transition, no log.
    let mut rig = MmuRig::new(pages, order);
    out.push((
        "machine.mmu.access_walk",
        probe(&mut rig, false, |r| r.tlb.flush_all(), |r| r.pass(true)),
    ));
    // Nested walk + D 0→1 + `PmlBuffer::log`.
    out.push((
        "machine.mmu.access_walk_log",
        probe(&mut rig, false, MmuRig::clear_dirty_and_log, |r| {
            r.pass(true)
        }),
    ));
    drop(rig);

    let (mut stack, region) = booted(pages, SimCtx::new());
    let order = sweep(region.start, pages);
    for (i, &technique) in techniques.iter().enumerate() {
        let name = match technique {
            Technique::Epml => "guest.write_u64_relog.epml",
            Technique::Spml => "guest.write_u64_relog.spml",
            Technique::Proc => "guest.write_u64_wpfault.proc",
            Technique::Ufd => "guest.write_u64_wpfault.ufd",
        };
        let mut session = OohSession::start(&mut stack.hv, &mut stack.kernel, stack.pid, technique)
            .expect("session start");
        // First write to each page after a collection: re-log (PML) or
        // write-protect fault (/proc, ufd); buffer-full handling amortised.
        let first_write = probe(
            &mut (&mut stack, &mut session),
            false,
            |(s, session)| {
                black_box(
                    session
                        .fetch_dirty(&mut s.hv, &mut s.kernel)
                        .expect("fetch_dirty"),
                );
            },
            |(s, _)| {
                for &gva in &order {
                    s.kernel
                        .write_u64(&mut s.hv, s.pid, gva, 2, Lane::Tracked)
                        .expect("write");
                }
                pages
            },
        );
        out.push((name, first_write));
        if i == 0 {
            // One timer tick with this technique's schedule hooks armed.
            out.push((
                "guest.timer_tick",
                steady(|| {
                    for _ in 0..64 {
                        stack.kernel.timer_tick(&mut stack.hv).expect("tick");
                    }
                    64
                }),
            ));
        }
        session
            .stop(&mut stack.hv, &mut stack.kernel)
            .expect("session stop");
    }

    // First touch of an unmapped anonymous page (demand-zero fault), on a
    // region mapped afresh for every batch.
    let fault_pages = pages.min(4096);
    let demand = probe(
        &mut (&mut stack, None::<GvaRange>),
        false,
        |(s, fresh)| {
            if let Some(old) = fresh.take() {
                s.kernel.munmap(&mut s.hv, s.pid, old).expect("munmap");
            }
            *fresh = Some(
                s.kernel
                    .mmap(s.pid, fault_pages, true, VmaKind::Anon)
                    .expect("mmap"),
            );
        },
        |(s, fresh)| {
            for gva in fresh.expect("mapped by reset").iter_pages() {
                s.kernel
                    .write_u64(&mut s.hv, s.pid, gva, 3, Lane::Tracked)
                    .expect("write");
            }
            fault_pages
        },
    );
    out.push(("guest.demand_fault", demand));
    out
}

// ---------------------------------------------------------------------------
// Drain ladder, top rungs (micro_pml)
// ---------------------------------------------------------------------------

pub fn drain_ladder(pages: u64) -> Vec<Rung> {
    let mut out = Vec::new();

    let mut phys = HostPhys::new(64 * PAGE_SIZE);
    let mut buf = PmlBuffer::new(phys.alloc_frame().expect("frame"));
    out.push((
        "machine.pml.log_drain",
        steady(|| {
            for i in 0..512u64 {
                buf.log(&mut phys, i << 12).expect("log");
            }
            black_box(buf.drain(&phys).expect("drain"));
            512
        }),
    ));

    let header = phys.alloc_frame().expect("frame");
    let data: Vec<Hpa> = (0..16)
        .map(|_| phys.alloc_frame().expect("frame"))
        .collect();
    let ring = RingView::create(&mut phys, header, data).expect("ring");
    out.push((
        "machine.ring.push_pop",
        steady(|| {
            for i in 0..DRAIN_BATCH {
                ring.push(&mut phys, i).expect("push");
            }
            while let Some(v) = ring.pop(&mut phys).expect("pop") {
                black_box(v);
            }
            DRAIN_BATCH
        }),
    ));

    let (mut stack, _) = booted(pages, SimCtx::new());
    let n = DRAIN_BATCH.min(pages);
    let resident = &stack.kernel.process(stack.pid).expect("process").resident;
    // Every (pages / n)-th resident page's GPA: spread over the whole map.
    let gpas: DirtyBitmap = resident
        .values()
        .step_by((pages / n) as usize)
        .take(n as usize)
        .copied()
        .collect();
    out.push((
        "core.revmap.batch",
        steady(|| {
            black_box(
                reverse_map_batch(&mut stack.hv, &stack.kernel, stack.pid, &gpas).expect("revmap"),
            );
            n
        }),
    ));
    let mut cache = RevMapCache::new();
    out.push((
        "core.revmap.batch_cached",
        steady(|| {
            black_box(
                reverse_map_batch_cached(
                    &mut stack.hv,
                    &stack.kernel,
                    stack.pid,
                    &gpas,
                    &mut cache,
                )
                .expect("revmap"),
            );
            n
        }),
    ));
    drop(stack);
    out.push(read_pagemap(pages));
    out
}

/// `GuestKernel::read_pagemap` per entry, over 4096 PTEs of a `pages`-page
/// process (top of the drain ladder for `/proc`; SPML's revmap models it).
pub fn read_pagemap(pages: u64) -> Rung {
    let (mut stack, region) = booted(pages, SimCtx::new());
    let n = DRAIN_BATCH.min(pages);
    let range = GvaRange::new(region.start, n);
    let ns = steady(|| {
        black_box(
            stack
                .kernel
                .read_pagemap(&mut stack.hv, stack.pid, range, Lane::Tracker)
                .expect("pagemap"),
        );
        n
    });
    ("guest.read_pagemap", ns)
}
