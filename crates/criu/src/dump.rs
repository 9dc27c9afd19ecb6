//! Checkpoint (dump) side: iterative pre-dump + final dump, with the MD
//! (memory dump / collection) and MW (memory write) phases the paper times
//! separately (Figures 7 and 8).
//!
//! Phase structure per technique, following §VI-F:
//!
//! * `/proc` — CRIU walks the pagemap and writes each dirty page as it finds
//!   it: MD and MW are *merged*; we account the whole interleaved loop as MW
//!   (this is why the paper measures MW up to 5.7 s with /proc);
//! * SPML — MD = ring fetch + GPA→GVA reverse mapping (the dominant cost),
//!   MW = one batched sequential write of the collected pages;
//! * EPML — MD = ring fetch only, MW = batched write. Both PML techniques
//!   make MW "almost constant" because they write exactly the dirty list.

use crate::image::{CheckpointImage, VmaRecord};
use ooh_core::{DirtySet, OohSession, Technique};
use ooh_guest::{GuestError, GuestKernel, Pid};
use ooh_hypervisor::Hypervisor;
use ooh_sim::{Event, Lane};
use serde::Serialize;

/// Checkpointer tunables.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CriuConfig {
    pub technique: Technique,
    /// Sequential (batched) per-page dump cost: memory read + image write
    /// (≈3.9 µs/page reproduces the paper's E(C_p)=251 ms for the 253 MB
    /// `baby` workload).
    pub page_dump_ns: u64,
    /// Extra per-page overhead when pages are written unbatched, one
    /// write(2) at a time, as the /proc-interleaved path does.
    pub unbatched_overhead_ns: u64,
    /// Pages per batched write for the PML paths.
    pub write_batch_pages: u64,
    /// Number of pre-dump (pre-copy) rounds before the final dump.
    pub predump_rounds: u32,
}

impl CriuConfig {
    pub fn new(technique: Technique) -> Self {
        Self {
            technique,
            page_dump_ns: 3_900,
            unbatched_overhead_ns: 630, // two user/kernel crossings
            write_batch_pages: 512,
            predump_rounds: 0,
        }
    }
}

/// Wall-clock breakdown of one dump, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct DumpStats {
    /// Tracking-technique initialization (phase 1).
    pub init_ns: u64,
    /// Memory-dump phase: collecting the dirty-page addresses.
    pub md_ns: u64,
    /// Memory-write phase: writing page contents to the image.
    pub mw_ns: u64,
    /// Pure page-write time regardless of phase attribution (the tracking
    /// routine C_p of the paper's Formula 1).
    pub write_ns: u64,
    /// Pages written to the image.
    pub pages_written: u64,
    /// Total checkpoint time (init excluded; the paper plots it once).
    pub total_ns: u64,
}

/// The checkpoint engine.
pub struct Criu {
    pub config: CriuConfig,
    session: Option<OohSession>,
    pub init_ns: u64,
}

impl Criu {
    /// Attach to `pid`: initializes the configured tracking technique.
    pub fn attach(
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
        pid: Pid,
        config: CriuConfig,
    ) -> Result<Self, GuestError> {
        let t0 = hv.ctx.now_ns();
        let session = OohSession::start(hv, kernel, pid, config.technique)?;
        let init_ns = hv.ctx.now_ns() - t0;
        Ok(Self {
            config,
            session: Some(session),
            init_ns,
        })
    }

    fn vma_records(kernel: &GuestKernel, pid: Pid) -> Result<Vec<VmaRecord>, GuestError> {
        Ok(kernel
            .vmas(pid)?
            .iter()
            .map(|v| VmaRecord {
                start: v.range.start,
                pages: v.range.pages,
                writable: v.writable,
            })
            .collect())
    }

    /// Write the pages in `dirty` into `img`, charging the technique's MW
    /// pattern. Returns pages written.
    fn write_pages(
        &self,
        hv: &mut Hypervisor,
        kernel: &GuestKernel,
        pid: Pid,
        dirty: &DirtySet,
        img: &mut CheckpointImage,
    ) -> Result<u64, GuestError> {
        let ctx = hv.ctx.clone();
        let proc = kernel.process(pid)?;
        let mut written = 0u64;
        let batched = self.config.technique != Technique::Proc;
        for gva in dirty.iter() {
            let Some(&gpa_page) = proc.resident.get(&gva.page()) else {
                continue; // page vanished (unmapped) since collection
            };
            let hpa = hv
                .gpa_to_hpa(kernel.vm, ooh_machine::Gpa::from_page(gpa_page))?
                .expect("resident page must be mapped");
            let bytes = hv.machine.phys.frame_bytes(hpa)?;
            img.put_page(gva.page(), bytes);
            let mut cost = self.config.page_dump_ns;
            if !batched {
                cost += self.config.unbatched_overhead_ns;
                ctx.counters().add(Event::ContextSwitch, 1);
            } else if written.is_multiple_of(self.config.write_batch_pages) {
                ctx.charge(Lane::Tracker, Event::ContextSwitch);
            }
            ctx.advance(Lane::Tracker, cost);
            written += 1;
        }
        Ok(written)
    }

    /// One pre-dump (pre-copy) round: collect + write dirty pages while the
    /// application keeps running afterwards.
    pub fn pre_dump(
        &mut self,
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
        pid: Pid,
    ) -> Result<(CheckpointImage, DumpStats), GuestError> {
        self.dump_round(hv, kernel, pid, true)
    }

    /// Final dump: the application is paused (nothing else runs in the
    /// simulation during this call), all remaining dirty pages are written,
    /// and VMA metadata is recorded.
    pub fn final_dump(
        &mut self,
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
        pid: Pid,
    ) -> Result<(CheckpointImage, DumpStats), GuestError> {
        self.dump_round(hv, kernel, pid, false)
    }

    fn dump_round(
        &mut self,
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
        pid: Pid,
        incremental: bool,
    ) -> Result<(CheckpointImage, DumpStats), GuestError> {
        let session = self.session.as_mut().expect("attach() first");
        let mut img = CheckpointImage::new(incremental);
        img.vmas = Self::vma_records(kernel, pid)?;

        let t0 = hv.ctx.now_ns();
        let dirty = session.fetch_dirty(hv, kernel)?;
        let t_collect = hv.ctx.now_ns();
        let written = self.write_pages(hv, kernel, pid, &dirty, &mut img)?;
        let t_write = hv.ctx.now_ns();

        // Phase attribution per technique (see module docs): /proc's
        // interleaved walk counts as MW; the PML designs separate MD.
        let (md_ns, mw_ns) = if self.config.technique == Technique::Proc {
            (0, t_write - t0)
        } else {
            (t_collect - t0, t_write - t_collect)
        };
        Ok((
            img,
            DumpStats {
                init_ns: self.init_ns,
                md_ns,
                mw_ns,
                write_ns: t_write - t_collect,
                pages_written: written,
                total_ns: t_write - t0,
            },
        ))
    }

    /// Convenience: checkpoint everything currently resident (first/full
    /// checkpoint — every resident page is "dirty" relative to nothing).
    pub fn full_dump(
        &mut self,
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
        pid: Pid,
    ) -> Result<(CheckpointImage, DumpStats), GuestError> {
        let mut img = CheckpointImage::new(false);
        img.vmas = Self::vma_records(kernel, pid)?;
        let mut all = DirtySet::new();
        for &p in kernel.process(pid)?.resident.keys() {
            all.insert_page(p);
        }
        let t0 = hv.ctx.now_ns();
        let written = self.write_pages(hv, kernel, pid, &all, &mut img)?;
        let t1 = hv.ctx.now_ns();
        // Reset the tracking round: subsequent dumps are incremental.
        let session = self.session.as_mut().expect("attach() first");
        let _ = session.fetch_dirty(hv, kernel)?;
        Ok((
            img,
            DumpStats {
                init_ns: self.init_ns,
                md_ns: 0,
                mw_ns: t1 - t0,
                write_ns: t1 - t0,
                pages_written: written,
                total_ns: t1 - t0,
            },
        ))
    }

    /// Detach: tear down the tracking session.
    pub fn detach(
        mut self,
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
    ) -> Result<(), GuestError> {
        if let Some(s) = self.session.take() {
            s.stop(hv, kernel)?;
        }
        Ok(())
    }
}
