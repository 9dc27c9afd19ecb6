//! TLB model.
//!
//! The TLB is what makes PML cheap: once a page's dirty bits are set and its
//! translation cached, further stores to it hit the TLB and log nothing.
//! Conversely, every dirty-tracking technique's per-round cost starts with a
//! TLB flush (clear_refs, write-protect updates, PML drain), which is why we
//! model the flush/invlpg traffic explicitly.
//!
//! Capacity is unbounded: a bounded TLB would evict entries and cause extra
//! *walks*, but never extra *logs* (a re-walk of an already-dirty page sees
//! no 0→1 transition), so dirty-tracking semantics are unaffected while the
//! model stays deterministic. Walk counts are therefore a lower bound, which
//! we note in EXPERIMENTS.md.

use crate::addr::{Gpa, Gva, Hpa};
use crate::digest::StateHasher;
use std::collections::BTreeMap;

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Guest-physical page the GVA maps to.
    pub gpa_page: u64,
    /// Host-physical page behind it.
    pub hpa_page: u64,
    /// Guest PTE was writable at fill time.
    pub writable: bool,
    /// Guest PTE D bit was set at fill time — a store through an entry with
    /// `guest_dirty && ept_dirty` needs no walk and cannot log.
    pub guest_dirty: bool,
    /// EPT leaf D bit was set at fill time.
    pub ept_dirty: bool,
    /// The backing page is under SPP control: stores must always take the
    /// walk path so the sub-page permission check runs (real SPP caches
    /// sub-page rights in the TLB; the conservative model re-walks).
    pub spp_guarded: bool,
    /// This entry caches a 2 MiB translation: `gpa_page`/`hpa_page` are the
    /// 2 MiB-aligned *base* pages and the entry covers 512 consecutive 4K
    /// pages (real TLBs keep large-page translations in a separate array;
    /// so do we).
    pub huge: bool,
}

impl TlbEntry {
    /// Can a store use this entry without a (logging) micro-walk?
    pub fn store_fast_path(&self) -> bool {
        self.writable && self.guest_dirty && self.ept_dirty && !self.spp_guarded
    }

    pub fn hpa(&self, gva: Gva) -> Hpa {
        if self.huge {
            Hpa::from_page(self.hpa_page).add(gva.huge_offset())
        } else {
            Hpa::from_page(self.hpa_page).add(gva.offset())
        }
    }

    pub fn gpa(&self, gva: Gva) -> Gpa {
        if self.huge {
            Gpa::from_page(self.gpa_page).add(gva.huge_offset())
        } else {
            Gpa::from_page(self.gpa_page).add(gva.offset())
        }
    }
}

/// Per-vCPU TLB. Tagged by the CR3 that filled it; switching CR3 flushes
/// (we model a pre-PCID kernel, matching the paper's Linux 4.15 guest).
///
/// Capacity is unbounded by default (see the module docs for why that
/// never changes logging semantics); [`Tlb::with_capacity`] bounds it with
/// FIFO eviction for studies of walk-count sensitivity.
#[derive(Debug, Default)]
pub struct Tlb {
    entries: BTreeMap<u64, TlbEntry>,
    /// 2 MiB translations, keyed by `gva.huge_page()` — the separate
    /// large-page array of a real TLB. Exempt from the 4K capacity bound
    /// (huge entries are few and cover 512× the space each).
    huge_entries: BTreeMap<u64, TlbEntry>,
    /// FIFO of filled pages, used only when `capacity` is set (kept exact:
    /// stale keys are skipped at eviction).
    fill_order: std::collections::VecDeque<u64>,
    capacity: Option<usize>,
    cr3_tag: u64,
    hits: u64,
    misses: u64,
    flushes: u64,
    invlpgs: u64,
    evictions: u64,
    shootdowns: u64,
}

impl Tlb {
    pub fn new() -> Self {
        Self::default()
    }

    /// A TLB bounded to `capacity` translations, FIFO-evicted.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Look up the translation for `gva` under `cr3`.
    pub fn lookup(&mut self, cr3: Gpa, gva: Gva) -> Option<TlbEntry> {
        if self.cr3_tag != cr3.raw() {
            self.misses += 1;
            return None;
        }
        match self
            .entries
            .get(&gva.page())
            .or_else(|| self.huge_entries.get(&gva.huge_page()))
        {
            Some(e) => {
                self.hits += 1;
                Some(*e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Non-counting lookup: what `lookup` would return, without perturbing
    /// the hit/miss statistics. Used by the model checker's invariant and
    /// digest passes, which must observe without disturbing.
    pub fn peek(&self, cr3: Gpa, gva: Gva) -> Option<TlbEntry> {
        if self.cr3_tag != cr3.raw() {
            return None;
        }
        self.entries
            .get(&gva.page())
            .or_else(|| self.huge_entries.get(&gva.huge_page()))
            .copied()
    }

    /// Fold the behaviorally relevant TLB state (CR3 tag + cached
    /// translations with their permission/dirty flags) into `h`. Hit/miss
    /// statistics are deliberately excluded: they never feed back into
    /// logging decisions. BTreeMap iteration keeps the order deterministic.
    pub fn hash_state(&self, h: &mut StateHasher) {
        h.write_u64(self.cr3_tag);
        h.write_u64(self.entries.len() as u64);
        for (gva_page, e) in &self.entries {
            h.write_u64(*gva_page);
            h.write_u64(e.gpa_page);
            h.write_bool(e.writable);
            h.write_bool(e.guest_dirty);
            h.write_bool(e.ept_dirty);
            h.write_bool(e.spp_guarded);
        }
        // The large-page array is hashed only when populated so digests of
        // huge-free runs stay identical to the pre-huge-page format.
        if !self.huge_entries.is_empty() {
            h.write_u64(u64::MAX); // section marker, not a valid entry count
            h.write_u64(self.huge_entries.len() as u64);
            for (huge_page, e) in &self.huge_entries {
                h.write_u64(*huge_page);
                h.write_u64(e.gpa_page);
                h.write_bool(e.writable);
                h.write_bool(e.guest_dirty);
                h.write_bool(e.ept_dirty);
                h.write_bool(e.spp_guarded);
            }
        }
    }

    /// Install a translation (called by the walker after a successful walk).
    pub fn fill(&mut self, cr3: Gpa, gva: Gva, entry: TlbEntry) {
        if self.cr3_tag != cr3.raw() {
            // Different address space than the cached one: implicit flush.
            self.entries.clear();
            self.huge_entries.clear();
            self.fill_order.clear();
            self.cr3_tag = cr3.raw();
        }
        if entry.huge {
            self.huge_entries.insert(gva.huge_page(), entry);
            return;
        }
        // A refill of a resident page (the walk that sets its D bits) replaces
        // it in place: it keeps its FIFO slot and evicts nothing.
        if let Some(cap) = self
            .capacity
            .filter(|_| !self.entries.contains_key(&gva.page()))
        {
            while self.entries.len() >= cap {
                // Evict the oldest still-resident fill.
                match self.fill_order.pop_front() {
                    Some(victim) => {
                        if self.entries.remove(&victim).is_some() {
                            self.evictions += 1;
                        }
                    }
                    None => break, // bookkeeping drained: nothing to evict
                }
            }
            self.fill_order.push_back(gva.page());
        }
        self.entries.insert(gva.page(), entry);
    }

    /// Full flush (mov-to-CR3 / clear_refs / PML drain).
    pub fn flush_all(&mut self) {
        self.entries.clear();
        self.huge_entries.clear();
        self.fill_order.clear();
        self.flushes += 1;
    }

    /// Single-page invalidation. As on real x86, invlpg drops *any* cached
    /// translation for the address — the covering 2 MiB entry included, so
    /// a demotion's invalidation cannot leave the stale huge translation
    /// serving the other 511 pages.
    pub fn invlpg(&mut self, gva: Gva) {
        self.entries.remove(&gva.page());
        self.huge_entries.remove(&gva.huge_page());
        self.invlpgs += 1;
    }

    /// Invalidate every cached translation pointing at `gpa_page`
    /// (used when the hypervisor changes an EPT mapping). A huge entry is
    /// dropped when the page falls anywhere in its 512-page span.
    pub fn invalidate_gpa_page(&mut self, gpa_page: u64) {
        self.entries.retain(|_, e| e.gpa_page != gpa_page);
        self.huge_entries
            .retain(|_, e| !(e.gpa_page..e.gpa_page + 512).contains(&gpa_page));
    }

    /// Remote half of a cross-vCPU TLB shootdown: invalidate one page on
    /// behalf of another vCPU's IPI. Same architectural effect as
    /// [`Tlb::invlpg`], but counted separately — the *initiator* charges the
    /// IPI cost, this vCPU only records that it serviced a shootdown.
    pub fn shootdown_invlpg(&mut self, gva: Gva) {
        self.entries.remove(&gva.page());
        self.huge_entries.remove(&gva.huge_page());
        self.shootdowns += 1;
    }

    /// Remote half of a full-flush shootdown (munmap / clear_refs batches).
    pub fn shootdown_flush_all(&mut self) {
        self.entries.clear();
        self.huge_entries.clear();
        self.fill_order.clear();
        self.shootdowns += 1;
    }

    /// Shootdown requests this TLB serviced on behalf of other vCPUs.
    pub fn shootdowns(&self) -> u64 {
        self.shootdowns
    }

    /// Cached 4K translations (the large-page array is counted separately
    /// by [`huge_len`](Self::huge_len), mirroring real TLB organisation).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Cached 2 MiB translations.
    pub fn huge_len(&self) -> usize {
        self.huge_entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.huge_entries.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(hpa_page: u64) -> TlbEntry {
        TlbEntry {
            gpa_page: 0x42,
            hpa_page,
            writable: true,
            guest_dirty: false,
            ept_dirty: false,
            spp_guarded: false,
            huge: false,
        }
    }

    fn huge_entry(gpa_page: u64, hpa_page: u64) -> TlbEntry {
        TlbEntry {
            gpa_page,
            hpa_page,
            writable: true,
            guest_dirty: true,
            ept_dirty: true,
            spp_guarded: false,
            huge: true,
        }
    }

    #[test]
    fn fill_then_hit() {
        let mut t = Tlb::new();
        let cr3 = Gpa(0x1000);
        assert!(t.lookup(cr3, Gva(0x7000)).is_none());
        t.fill(cr3, Gva(0x7000), entry(0x99));
        let e = t.lookup(cr3, Gva(0x7123)).unwrap();
        assert_eq!(e.hpa(Gva(0x7123)), Hpa((0x99 << 12) | 0x123));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn cr3_change_is_implicit_flush() {
        let mut t = Tlb::new();
        t.fill(Gpa(0x1000), Gva(0x7000), entry(1));
        assert!(t.lookup(Gpa(0x2000), Gva(0x7000)).is_none());
        t.fill(Gpa(0x2000), Gva(0x8000), entry(2));
        // old entry gone even if we switch back
        assert!(t.lookup(Gpa(0x1000), Gva(0x7000)).is_none());
    }

    #[test]
    fn flush_and_invlpg() {
        let mut t = Tlb::new();
        let cr3 = Gpa(0x1000);
        t.fill(cr3, Gva(0x1000), entry(1));
        t.fill(cr3, Gva(0x2000), entry(2));
        t.invlpg(Gva(0x1000));
        assert!(t.lookup(cr3, Gva(0x1000)).is_none());
        assert!(t.lookup(cr3, Gva(0x2000)).is_some());
        t.flush_all();
        assert!(t.is_empty());
        assert_eq!(t.flushes(), 1);
    }

    #[test]
    fn store_fast_path_requires_all_bits() {
        let mut e = entry(1);
        assert!(!e.store_fast_path());
        e.guest_dirty = true;
        assert!(!e.store_fast_path());
        e.ept_dirty = true;
        assert!(e.store_fast_path());
        e.spp_guarded = true;
        assert!(!e.store_fast_path(), "SPP pages never take the fast path");
        e.spp_guarded = false;
        e.writable = false;
        assert!(!e.store_fast_path());
    }

    #[test]
    fn bounded_tlb_evicts_fifo() {
        let mut t = Tlb::with_capacity(2);
        let cr3 = Gpa(0x1000);
        t.fill(cr3, Gva(0x1000), entry(1));
        t.fill(cr3, Gva(0x2000), entry(2));
        t.fill(cr3, Gva(0x3000), entry(3)); // evicts 0x1000
        assert!(t.lookup(cr3, Gva(0x1000)).is_none());
        assert!(t.lookup(cr3, Gva(0x2000)).is_some());
        assert!(t.lookup(cr3, Gva(0x3000)).is_some());
        assert_eq!(t.evictions(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn bounded_tlb_refill_of_resident_page_evicts_nothing() {
        let mut t = Tlb::with_capacity(2);
        let cr3 = Gpa(0x1000);
        t.fill(cr3, Gva(0x1000), entry(1));
        t.fill(cr3, Gva(0x2000), entry(2));
        t.fill(cr3, Gva(0x2000), entry(22)); // refill in place
        assert_eq!(t.peek(cr3, Gva(0x1000)).map(|e| e.hpa_page), Some(1));
        assert_eq!(t.peek(cr3, Gva(0x2000)).map(|e| e.hpa_page), Some(22));
        assert_eq!(t.evictions(), 0);
        // FIFO order is still 0x1000, 0x2000: no duplicate key evicts
        // 0x2000 ahead of its turn.
        t.fill(cr3, Gva(0x3000), entry(3));
        assert!(t.peek(cr3, Gva(0x1000)).is_none());
        assert!(t.peek(cr3, Gva(0x2000)).is_some());
        t.fill(cr3, Gva(0x4000), entry(4));
        assert!(t.peek(cr3, Gva(0x2000)).is_none());
        assert!(t.peek(cr3, Gva(0x3000)).is_some());
        assert!(t.peek(cr3, Gva(0x4000)).is_some());
        assert_eq!(t.evictions(), 2);
    }

    #[test]
    fn bounded_tlb_refill_after_invlpg() {
        let mut t = Tlb::with_capacity(2);
        let cr3 = Gpa(0x1000);
        t.fill(cr3, Gva(0x1000), entry(1));
        t.invlpg(Gva(0x1000));
        t.fill(cr3, Gva(0x2000), entry(2));
        t.fill(cr3, Gva(0x3000), entry(3));
        // 0x1000 is a stale FIFO key; eviction must skip it without error.
        t.fill(cr3, Gva(0x4000), entry(4));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn peek_does_not_count() {
        let mut t = Tlb::new();
        let cr3 = Gpa(0x1000);
        t.fill(cr3, Gva(0x7000), entry(0x99));
        assert!(t.peek(cr3, Gva(0x7000)).is_some());
        assert!(t.peek(cr3, Gva(0x8000)).is_none());
        assert!(t.peek(Gpa(0x2000), Gva(0x7000)).is_none());
        assert_eq!(t.hits(), 0);
        assert_eq!(t.misses(), 0);
    }

    #[test]
    fn hash_state_reflects_entries_not_stats() {
        let mut a = Tlb::new();
        let mut b = Tlb::new();
        let cr3 = Gpa(0x1000);
        a.fill(cr3, Gva(0x7000), entry(0x99));
        b.fill(cr3, Gva(0x7000), entry(0x99));
        // Different stats, same entries.
        let _ = a.lookup(cr3, Gva(0x7000));
        let digest = |t: &Tlb| {
            let mut h = StateHasher::new();
            t.hash_state(&mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        b.fill(cr3, Gva(0x8000), entry(0x77));
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn shootdowns_invalidate_and_count_separately() {
        let mut t = Tlb::new();
        let cr3 = Gpa(0x1000);
        t.fill(cr3, Gva(0x1000), entry(1));
        t.fill(cr3, Gva(0x2000), entry(2));
        t.shootdown_invlpg(Gva(0x1000));
        assert!(t.peek(cr3, Gva(0x1000)).is_none());
        assert!(t.peek(cr3, Gva(0x2000)).is_some());
        t.shootdown_flush_all();
        assert!(t.is_empty());
        assert_eq!(t.shootdowns(), 2);
        // Local-flush and invlpg statistics are untouched by remote work.
        assert_eq!(t.flushes(), 0);
    }

    #[test]
    fn huge_fill_covers_512_pages() {
        let mut t = Tlb::new();
        let cr3 = Gpa(0x1000);
        // GVA 2M-region 3 → GPA pages 1024.., HPA pages 4096..
        let base = Gva(3 << 21);
        t.fill(cr3, base, huge_entry(1024, 4096));
        assert_eq!(t.huge_len(), 1);
        assert_eq!(t.len(), 0);
        // Any address inside the 2M region hits, with the huge offset.
        let probe = base.add(200 * 4096 + 0x321);
        let e = t.lookup(cr3, probe).unwrap();
        assert!(e.huge);
        assert_eq!(e.hpa(probe), Hpa::from_page(4096 + 200).add(0x321));
        assert_eq!(e.gpa(probe), Gpa::from_page(1024 + 200).add(0x321));
        // Just past the region misses.
        assert!(t.lookup(cr3, base.add(512 * 4096)).is_none());
    }

    #[test]
    fn invlpg_drops_covering_huge_entry() {
        let mut t = Tlb::new();
        let cr3 = Gpa(0x1000);
        let base = Gva(3 << 21);
        t.fill(cr3, base, huge_entry(1024, 4096));
        // invlpg of *any* covered page (the demotion protocol invalidates
        // the faulting page) must drop the whole huge translation.
        t.invlpg(base.add(77 * 4096));
        assert!(t.peek(cr3, base).is_none());
        t.fill(cr3, base, huge_entry(1024, 4096));
        t.shootdown_invlpg(base.add(9 * 4096));
        assert!(t.peek(cr3, base).is_none());
        assert_eq!(t.shootdowns(), 1);
    }

    #[test]
    fn invalidate_gpa_inside_huge_span() {
        let mut t = Tlb::new();
        let cr3 = Gpa(0x1000);
        t.fill(cr3, Gva(3 << 21), huge_entry(1024, 4096));
        t.fill(cr3, Gva(0x1000), entry(1)); // gpa_page 0x42
        t.invalidate_gpa_page(1024 + 511); // last page of the huge span
        assert_eq!(t.huge_len(), 0);
        assert!(t.peek(cr3, Gva(0x1000)).is_some());
        // A page just past the span leaves the entry alone.
        t.fill(cr3, Gva(3 << 21), huge_entry(1024, 4096));
        t.invalidate_gpa_page(1024 + 512);
        assert_eq!(t.huge_len(), 1);
    }

    #[test]
    fn flushes_clear_huge_entries_and_digest_gates_on_them() {
        let mut t = Tlb::new();
        let cr3 = Gpa(0x1000);
        let digest = |t: &Tlb| {
            let mut h = StateHasher::new();
            t.hash_state(&mut h);
            h.finish()
        };
        let empty = digest(&t);
        t.fill(cr3, Gva(3 << 21), huge_entry(1024, 4096));
        assert_ne!(digest(&t), empty, "huge entries must be digest-visible");
        t.flush_all();
        assert!(t.is_empty());
        t.fill(cr3, Gva(3 << 21), huge_entry(1024, 4096));
        t.shootdown_flush_all();
        assert!(t.is_empty());
        // CR3 switch implicitly flushes the large-page array too.
        t.fill(cr3, Gva(3 << 21), huge_entry(1024, 4096));
        t.fill(Gpa(0x2000), Gva(0x5000), entry(7));
        assert_eq!(t.huge_len(), 0);
    }

    #[test]
    fn invalidate_by_gpa() {
        let mut t = Tlb::new();
        let cr3 = Gpa(0x1000);
        t.fill(cr3, Gva(0x1000), entry(1));
        t.fill(
            cr3,
            Gva(0x2000),
            TlbEntry {
                gpa_page: 0x55,
                hpa_page: 2,
                writable: true,
                guest_dirty: true,
                ept_dirty: true,
                spp_guarded: false,
                huge: false,
            },
        );
        t.invalidate_gpa_page(0x42);
        assert!(t.lookup(cr3, Gva(0x1000)).is_none());
        assert!(t.lookup(cr3, Gva(0x2000)).is_some());
    }
}
