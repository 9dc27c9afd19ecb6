//! Intel SPP (Sub-Page write Permission) model.
//!
//! SPP lets the hypervisor refine EPT write permission to 128-byte
//! sub-pages: each guarded guest-physical page carries a 32-bit mask, one
//! bit per sub-page (bit set = writable). Writes to a cleared sub-page
//! fault to the hypervisor.
//!
//! The paper names SPP as the next OoH candidate (§III-D): exposing it to
//! the guest lets secure heap allocators replace whole guard *pages* with
//! guard *sub-pages*, cutting the memory overhead by up to 32×. The
//! `ooh-secheap` crate builds exactly that on this model.

use crate::addr::Gpa;
use std::collections::BTreeMap;

/// Bytes per sub-page.
pub const SUBPAGE_SIZE: u64 = 128;
/// Sub-pages per 4 KiB page.
pub const SUBPAGES_PER_PAGE: u64 = 32;

/// The sub-page permission table (the SPPTP-rooted structure, modeled as a
/// map: only guarded pages have entries; unguarded pages behave as before).
#[derive(Debug, Default)]
pub struct SppTable {
    masks: BTreeMap<u64, u32>,
}

impl SppTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) the write mask for `gpa`'s page. Bit `i` set
    /// means sub-page `i` (bytes `i*128..(i+1)*128`) is writable.
    pub fn set_mask(&mut self, gpa: Gpa, mask: u32) {
        self.masks.insert(gpa.page(), mask);
    }

    /// Remove SPP protection from a page entirely.
    pub fn clear(&mut self, gpa: Gpa) -> bool {
        self.masks.remove(&gpa.page()).is_some()
    }

    /// Current mask for a page, if guarded.
    pub fn mask(&self, gpa: Gpa) -> Option<u32> {
        self.masks.get(&gpa.page()).copied()
    }

    /// Is this page under SPP control at all?
    pub fn is_guarded(&self, gpa: Gpa) -> bool {
        self.masks.contains_key(&gpa.page())
    }

    /// May a write to `gpa` (byte address) proceed?
    pub fn write_allowed(&self, gpa: Gpa) -> bool {
        match self.masks.get(&gpa.page()) {
            None => true,
            Some(mask) => {
                let sub = (gpa.offset() / SUBPAGE_SIZE) as u32;
                mask & (1 << sub) != 0
            }
        }
    }

    /// The sub-page index of a byte address.
    pub fn subpage_of(gpa: Gpa) -> u32 {
        (gpa.offset() / SUBPAGE_SIZE) as u32
    }
}

/// Build a mask with sub-pages `[first, last]` (inclusive) *cleared*
/// (write-protected) and everything else writable.
pub fn mask_protecting(first: u32, last: u32) -> u32 {
    debug_assert!(first <= last && last < SUBPAGES_PER_PAGE as u32);
    let mut m = u32::MAX;
    for i in first..=last {
        m &= !(1 << i);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unguarded_pages_allow_all_writes() {
        let t = SppTable::new();
        assert!(t.write_allowed(Gpa(0x1234)));
        assert!(!t.is_guarded(Gpa(0x1000)));
    }

    #[test]
    fn mask_controls_subpage_writes() {
        let mut t = SppTable::new();
        // Protect sub-pages 1 and 2 of page 5.
        t.set_mask(Gpa::from_page(5), mask_protecting(1, 2));
        let base = Gpa::from_page(5);
        assert!(t.write_allowed(base)); // sub-page 0
        assert!(!t.write_allowed(base.add(128))); // sub-page 1
        assert!(!t.write_allowed(base.add(2 * 128 + 64))); // sub-page 2
        assert!(t.write_allowed(base.add(3 * 128))); // sub-page 3
        assert!(t.write_allowed(base.add(4095))); // sub-page 31
        // Other pages unaffected.
        assert!(t.write_allowed(Gpa::from_page(6)));
    }

    #[test]
    fn clear_restores_full_write_access() {
        let mut t = SppTable::new();
        t.set_mask(Gpa::from_page(9), 0);
        assert!(!t.write_allowed(Gpa::from_page(9)));
        assert!(t.clear(Gpa::from_page(9)));
        assert!(t.write_allowed(Gpa::from_page(9)));
        assert!(!t.clear(Gpa::from_page(9)));
    }

    #[test]
    fn mask_protecting_bounds() {
        assert_eq!(mask_protecting(0, 31), 0);
        assert_eq!(mask_protecting(0, 0), !1u32);
        assert_eq!(mask_protecting(31, 31), !(1u32 << 31));
    }

    #[test]
    fn subpage_of_maps_offsets() {
        assert_eq!(SppTable::subpage_of(Gpa(0x1000)), 0);
        assert_eq!(SppTable::subpage_of(Gpa(0x1000 + 127)), 0);
        assert_eq!(SppTable::subpage_of(Gpa(0x1000 + 128)), 1);
        assert_eq!(SppTable::subpage_of(Gpa(0x1FFF)), 31);
    }
}
