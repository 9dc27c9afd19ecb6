//! Guest processes and their virtual address spaces (VMAs).

use ooh_machine::{Gpa, Gva, GvaRange};
use serde::Serialize;

/// Process identifier inside a guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// What a mapping is for (reporting / checkpoint metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum VmaKind {
    /// Anonymous memory (malloc/mmap) — what the trackers monitor.
    Anon,
    /// Process stack.
    Stack,
    /// GC-managed heap.
    GcHeap,
}

/// One virtual memory area.
#[derive(Debug, Clone)]
pub struct Vma {
    pub range: GvaRange,
    /// VMA-level write permission (the PTE may be temporarily
    /// write-protected by soft-dirty or userfaultfd machinery; the VMA
    /// permission is what faults are resolved against).
    pub writable: bool,
    pub kind: VmaKind,
    /// Huge-page eligible: the VMA starts 2M-aligned and not-present
    /// faults on its fully-covered 2 MiB regions install 2M leaf PTEs
    /// (any tail shorter than a region stays 4K).
    pub huge: bool,
}

/// Base of the mmap region we hand out (mirrors the x86-64 mmap area).
pub const MMAP_BASE: Gva = Gva(0x7f00_0000_0000);
/// Guard gap between successive mappings, in pages.
const GUARD_PAGES: u64 = 1;

/// One guest process: an address space rooted at `cr3` plus its VMAs.
pub struct Process {
    pub pid: Pid,
    /// Guest-physical root of this process's page table hierarchy.
    pub cr3: Gpa,
    /// The vCPU all of its user-mode execution runs on, set at spawn.
    pub(crate) home_vcpu: u32,
    pub vmas: Vec<Vma>,
    /// Page-table pages allocated for this process (for teardown and
    /// accounting — the kernel frees them on exit).
    pub pt_pages: Vec<Gpa>,
    /// Data pages currently mapped (GVA page → GPA page), kept by the
    /// kernel for teardown, checkpointing, and pagemap reads. Mutate through
    /// [`Process::map_resident`] / [`Process::unmap_resident`] so the
    /// inverse index stays consistent.
    pub resident: std::collections::BTreeMap<u64, u64>,
    /// Inverse of `resident` (GPA page → GVA page), maintained incrementally
    /// on the kernel map/unmap path so reverse mapping is O(log n) per
    /// lookup in *wall* time. The *virtual-clock* cost of a reverse-map
    /// lookup is still the paper's pagemap-scan cost (charged in
    /// `ooh-core::revmap`); this index only removes the simulator's own
    /// rebuild-per-batch overhead.
    resident_inverse: std::collections::BTreeMap<u64, u64>,
    /// Bumped on every map/unmap of a resident page. Caches derived from
    /// the GPA↔GVA mapping (the SPML tracker's cross-round reverse-map
    /// cache) compare this against the generation they were built at: any
    /// change means a frame may have been recycled under them, so a cached
    /// translation — or a cached negative — can be stale.
    map_generation: u64,
    /// Next free mmap address.
    next_mmap: Gva,
}

impl Process {
    pub fn new(pid: Pid, cr3: Gpa) -> Self {
        Self {
            pid,
            cr3,
            home_vcpu: 0,
            vmas: Vec::new(),
            pt_pages: Vec::new(),
            resident: std::collections::BTreeMap::new(),
            resident_inverse: std::collections::BTreeMap::new(),
            map_generation: 0,
            next_mmap: MMAP_BASE,
        }
    }

    /// Reserve an address range for `pages` pages (the mmap syscall's VMA
    /// part; PTEs are installed lazily on first touch).
    pub fn reserve_vma(&mut self, pages: u64, writable: bool, kind: VmaKind) -> GvaRange {
        let range = GvaRange::new(self.next_mmap, pages);
        self.next_mmap = range.end().add(GUARD_PAGES * ooh_machine::PAGE_SIZE);
        self.vmas.push(Vma {
            range,
            writable,
            kind,
            huge: false,
        });
        range
    }

    /// Reserve a huge-eligible VMA: the start address is bumped to the next
    /// 2 MiB boundary so 2M regions of the mapping coincide with level-1
    /// page-table slots, and faults may install 2M leaves.
    pub fn reserve_vma_huge(&mut self, pages: u64, writable: bool, kind: VmaKind) -> GvaRange {
        let start = Gva(self.next_mmap.raw().next_multiple_of(ooh_machine::HUGE_PAGE_SIZE));
        let range = GvaRange::new(start, pages);
        self.next_mmap = range.end().add(GUARD_PAGES * ooh_machine::PAGE_SIZE);
        self.vmas.push(Vma {
            range,
            writable,
            kind,
            huge: true,
        });
        range
    }

    /// The VMA containing `gva`, if any.
    pub fn vma_for(&self, gva: Gva) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.range.contains(gva))
    }

    /// Remove a VMA exactly matching `range`; returns it if found.
    pub fn remove_vma(&mut self, range: GvaRange) -> Option<Vma> {
        let idx = self.vmas.iter().position(|v| v.range == range)?;
        Some(self.vmas.remove(idx))
    }

    /// Record that `gva_page` is now backed by `gpa_page`, keeping the
    /// inverse index in sync. Returns the previous backing, if any.
    pub fn map_resident(&mut self, gva_page: u64, gpa_page: u64) -> Option<u64> {
        let prev = self.resident.insert(gva_page, gpa_page);
        if let Some(old_gpa) = prev {
            self.resident_inverse.remove(&old_gpa);
        }
        self.resident_inverse.insert(gpa_page, gva_page);
        self.map_generation += 1;
        prev
    }

    /// Drop the mapping for `gva_page`, keeping the inverse index in sync.
    /// Returns the GPA page that backed it, if any.
    pub fn unmap_resident(&mut self, gva_page: u64) -> Option<u64> {
        let gpa_page = self.resident.remove(&gva_page)?;
        self.resident_inverse.remove(&gpa_page);
        self.map_generation += 1;
        Some(gpa_page)
    }

    /// Current map generation: changes whenever `resident` does. A cached
    /// negative matters as much as a cached positive here — a GPA that had
    /// no GVA last round may be a recycled frame backing a live page now —
    /// so both map *and* unmap bump it.
    pub fn map_generation(&self) -> u64 {
        self.map_generation
    }

    /// Force-invalidate caches keyed on the generation without changing
    /// `resident`. Demotion of a 2M mapping is such an event: the GPA↔GVA
    /// pairs survive, but cached reverse-map structure built while the
    /// region was huge (and any negative cached against it) may be stale.
    pub fn bump_map_generation(&mut self) {
        self.map_generation += 1;
    }

    /// The GVA page backed by `gpa_page`, if any — the incremental inverse
    /// of `resident`, O(log n) per call.
    pub fn gva_for_gpa_page(&self, gpa_page: u64) -> Option<u64> {
        debug_assert_eq!(self.resident.len(), self.resident_inverse.len());
        self.resident_inverse.get(&gpa_page).copied()
    }

    /// Number of resident (mapped) pages.
    pub fn resident_pages(&self) -> u64 {
        self.resident.len() as u64
    }

    /// Total pages reserved across all VMAs.
    pub fn reserved_pages(&self) -> u64 {
        self.vmas.iter().map(|v| v.range.pages).sum()
    }
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("cr3", &self.cr3)
            .field("home_vcpu", &self.home_vcpu)
            .field("vmas", &self.vmas.len())
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_is_disjoint_with_guard_gap() {
        let mut p = Process::new(Pid(1), Gpa(0x1000));
        let a = p.reserve_vma(4, true, VmaKind::Anon);
        let b = p.reserve_vma(2, true, VmaKind::Anon);
        assert!(!a.overlaps(&b));
        assert!(b.start >= a.end().add(ooh_machine::PAGE_SIZE));
    }

    #[test]
    fn vma_lookup() {
        let mut p = Process::new(Pid(1), Gpa(0x1000));
        let a = p.reserve_vma(4, true, VmaKind::Anon);
        assert!(p.vma_for(a.start).is_some());
        assert!(p.vma_for(a.start.add(4 * 4096 - 1)).is_some());
        assert!(p.vma_for(a.end()).is_none());
        assert!(p.vma_for(Gva(0x1000)).is_none());
    }

    #[test]
    fn remove_vma_exact_match_only() {
        let mut p = Process::new(Pid(1), Gpa(0x1000));
        let a = p.reserve_vma(4, true, VmaKind::Anon);
        let wrong = GvaRange::new(a.start, 2);
        assert!(p.remove_vma(wrong).is_none());
        assert!(p.remove_vma(a).is_some());
        assert!(p.vma_for(a.start).is_none());
    }

    #[test]
    fn huge_reserve_is_2m_aligned_and_disjoint() {
        let mut p = Process::new(Pid(1), Gpa(0x1000));
        let a = p.reserve_vma(3, true, VmaKind::Anon);
        let h = p.reserve_vma_huge(512, true, VmaKind::Anon);
        assert!(h.start.is_huge_aligned());
        assert!(!a.overlaps(&h));
        assert!(p.vma_for(h.start).unwrap().huge);
        assert!(!p.vma_for(a.start).unwrap().huge);
        let g0 = p.map_generation();
        p.bump_map_generation();
        assert_eq!(p.map_generation(), g0 + 1);
    }

    #[test]
    fn page_accounting() {
        let mut p = Process::new(Pid(1), Gpa(0x1000));
        p.reserve_vma(8, true, VmaKind::Anon);
        assert_eq!(p.reserved_pages(), 8);
        assert_eq!(p.resident_pages(), 0);
        p.map_resident(0x7f000, 0x123);
        assert_eq!(p.resident_pages(), 1);
        assert_eq!(p.gva_for_gpa_page(0x123), Some(0x7f000));
    }

    #[test]
    fn inverse_index_tracks_map_and_unmap() {
        let mut p = Process::new(Pid(1), Gpa(0x1000));
        assert_eq!(p.map_resident(0x10, 0xa0), None);
        assert_eq!(p.map_resident(0x11, 0xa1), None);
        assert_eq!(p.gva_for_gpa_page(0xa0), Some(0x10));
        assert_eq!(p.gva_for_gpa_page(0xa1), Some(0x11));
        // Remapping a GVA to a new GPA retires the old inverse entry.
        assert_eq!(p.map_resident(0x10, 0xb0), Some(0xa0));
        assert_eq!(p.gva_for_gpa_page(0xa0), None);
        assert_eq!(p.gva_for_gpa_page(0xb0), Some(0x10));
        // Unmap drops both directions.
        assert_eq!(p.unmap_resident(0x11), Some(0xa1));
        assert_eq!(p.gva_for_gpa_page(0xa1), None);
        assert_eq!(p.unmap_resident(0x11), None);
        assert_eq!(p.resident_pages(), 1);
    }
}
