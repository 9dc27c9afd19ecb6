//! Regression tests for shadow-PML invalidation on PTE teardown.
//!
//! The debug-invariants shadow cross-checks that no page is dirty-logged
//! twice without an intervening dirty-clear. Before munmap (guest PTEs) and
//! `free_guest_page` (EPT + hyp shadow) notified the shadow about the
//! teardown, the dirty-log → unmap → remap → dirty sequence false-panicked
//! with "PML invariant violated: ... dirty-logged twice" the moment the
//! guest allocator recycled a freed frame.

use ooh_guest::{GuestKernel, OohMode, OohModule, VmaKind};
use ooh_hypervisor::Hypervisor;
use ooh_machine::{MachineConfig, HUGE_PAGE_PAGES, PAGE_SIZE};
use ooh_sim::{Lane, SimCtx};

fn boot(config: MachineConfig) -> (Hypervisor, GuestKernel, ooh_guest::Pid) {
    let mut hv = Hypervisor::new(config, SimCtx::new());
    let vm = hv.create_vm(1024 * PAGE_SIZE, 1).unwrap();
    let mut kernel = GuestKernel::new(vm);
    let pid = kernel.spawn(&mut hv).unwrap();
    (hv, kernel, pid)
}

fn track(kernel: &mut GuestKernel, hv: &mut Hypervisor, mode: OohMode) {
    let pid = *kernel.pids().first().expect("one process spawned");
    let module = OohModule::load(kernel, hv, mode).unwrap();
    kernel.ooh = Some(module);
    let mut module = kernel.ooh.take().unwrap();
    module.track(kernel, hv, pid).unwrap();
    kernel.ooh = Some(module);
}

fn dirty_unmap_remap_dirty(mode: OohMode) {
    let config = match mode {
        OohMode::Epml => MachineConfig::epml(4096 * PAGE_SIZE),
        _ => MachineConfig::stock(4096 * PAGE_SIZE),
    };
    let (mut hv, mut kernel, pid) = boot(config);
    track(&mut kernel, &mut hv, mode);

    // Dirty-log a region while logging is armed.
    let a = kernel.mmap(pid, 4, true, VmaKind::Anon).unwrap();
    for gva in a.iter_pages().collect::<Vec<_>>() {
        kernel.write_u64(&mut hv, pid, gva, 1, Lane::Tracked).unwrap();
    }
    // Tear it down: the frames go back on the guest allocator's free list.
    kernel.munmap(&mut hv, pid, a).unwrap();
    // Dirty the recycled frames through a fresh mapping. Pre-fix, the hyp
    // shadow still remembered A's logs for those GPAs and the second log
    // panicked "dirty-logged twice".
    let b = kernel.mmap(pid, 4, true, VmaKind::Anon).unwrap();
    for gva in b.iter_pages().collect::<Vec<_>>() {
        kernel.write_u64(&mut hv, pid, gva, 2, Lane::Tracked).unwrap();
    }
}

#[test]
fn spml_dirty_log_unmap_remap_dirty_does_not_false_panic() {
    dirty_unmap_remap_dirty(OohMode::Spml);
}

#[test]
fn epml_dirty_log_unmap_remap_dirty_does_not_false_panic() {
    dirty_unmap_remap_dirty(OohMode::Epml);
}

/// Same sequence through a *partially-populated huge* VMA: 512 pages fault
/// in as one level-1 leaf whose single dirty bit speaks for every covered
/// frame, plus an 8-page 4K tail. munmap must retire the shadow state for
/// the whole 2M region (not just the one precisely-logged page) before the
/// leaf is destroyed and its frames are recycled.
///
/// The re-dirty leg runs in a *second process*: mmap never reuses virtual
/// addresses within one process (the VA allocator is a pure bump), but
/// every process starts at the same MMAP_BASE, so B's huge region lands on
/// the exact GVAs A just tore down — and B's faults recycle A's freed
/// frames. Pre-fix, B's first writes panicked "dirty-logged twice" on both
/// shadows: the GVA-keyed guest shadow (EPML) because munmap only retired
/// the one precisely-logged page of the region, and the GPA-keyed hyp
/// shadow (SPML) via the recycled frames.
fn huge_dirty_unmap_remap_dirty(mode: OohMode) {
    let config = match mode {
        OohMode::Epml => MachineConfig::epml(16384 * PAGE_SIZE),
        _ => MachineConfig::stock(16384 * PAGE_SIZE),
    };
    let mut hv = Hypervisor::new(config, SimCtx::new());
    let vm = hv.create_vm(4096 * PAGE_SIZE, 1).unwrap();
    let mut kernel = GuestKernel::new(vm);
    kernel.huge_policy = true;
    let pid_a = kernel.spawn(&mut hv).unwrap();
    track(&mut kernel, &mut hv, mode);

    let pages = HUGE_PAGE_PAGES + 8;
    let a = kernel.mmap(pid_a, pages, true, VmaKind::Anon).unwrap();
    // A few pages inside the huge region (only the first write logs — the
    // region-wide D bit swallows the rest) and one page in the 4K tail.
    for i in [0u64, 3, 261, 511, 513] {
        let gva = a.start.add(i * PAGE_SIZE);
        kernel.write_u64(&mut hv, pid_a, gva, 1, Lane::Tracked).unwrap();
    }
    kernel.munmap(&mut hv, pid_a, a).unwrap();

    // Process B: same GVAs, recycled GPAs.
    let pid_b = kernel.spawn(&mut hv).unwrap();
    let mut module = kernel.ooh.take().unwrap();
    module.track(&mut kernel, &mut hv, pid_b).unwrap();
    kernel.ooh = Some(module);
    let b = kernel.mmap(pid_b, pages, true, VmaKind::Anon).unwrap();
    assert_eq!(b.start, a.start, "fresh process reuses A's huge GVAs");
    for i in [0u64, 3, 261, 511, 513] {
        let gva = b.start.add(i * PAGE_SIZE);
        kernel.write_u64(&mut hv, pid_b, gva, 2, Lane::Tracked).unwrap();
    }
}

#[test]
fn spml_huge_dirty_log_unmap_remap_dirty_does_not_false_panic() {
    huge_dirty_unmap_remap_dirty(OohMode::Spml);
}

#[test]
fn epml_huge_dirty_log_unmap_remap_dirty_does_not_false_panic() {
    huge_dirty_unmap_remap_dirty(OohMode::Epml);
}
