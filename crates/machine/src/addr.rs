//! Address-space newtypes.
//!
//! Three address spaces exist in a virtualized x86 machine and the OoH paper
//! is careful about which one each mechanism sees:
//!
//! * [`Gva`] — guest virtual address. What userspace processes (and the
//!   paper's Trackers) manipulate. EPML logs these.
//! * [`Gpa`] — guest physical address. What the guest kernel sees as "RAM";
//!   PML logs these at the hypervisor level.
//! * [`Hpa`] — host physical address. Only the hypervisor ever sees these
//!   (the paper's security argument relies on this).
//!
//! Newtypes make it a type error to hand a GPA to something expecting a GVA —
//! exactly the confusion SPML's reverse mapping exists to resolve.

use serde::Serialize;

/// Bytes per page (4 KiB).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Entries per page-table page (512 × 8 bytes = 4 KiB).
pub const PT_ENTRIES: u64 = 512;
/// Bits of index per page-table level.
pub const PT_INDEX_BITS: u32 = 9;
/// Bytes per 2 MiB huge page (one level-1 leaf entry).
pub const HUGE_PAGE_SIZE: u64 = PAGE_SIZE * PT_ENTRIES;
/// log2 of the huge-page size.
pub const HUGE_PAGE_SHIFT: u32 = PAGE_SHIFT + PT_INDEX_BITS;
/// 4 KiB pages covered by one 2 MiB huge page.
pub const HUGE_PAGE_PAGES: u64 = PT_ENTRIES;

macro_rules! addr_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
        pub struct $name(pub u64);

        impl $name {
            /// The zero address.
            pub const NULL: $name = $name(0);

            /// Raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Page number (address >> 12).
            #[inline]
            pub const fn page(self) -> u64 {
                self.0 >> PAGE_SHIFT
            }

            /// Offset within the page.
            #[inline]
            pub const fn offset(self) -> u64 {
                self.0 & (PAGE_SIZE - 1)
            }

            /// Address of the start of the containing page.
            #[inline]
            pub const fn page_base(self) -> $name {
                $name(self.0 & !(PAGE_SIZE - 1))
            }

            /// Construct from a page number.
            #[inline]
            pub const fn from_page(page: u64) -> $name {
                $name(page << PAGE_SHIFT)
            }

            /// Is this address page-aligned?
            #[inline]
            pub const fn is_page_aligned(self) -> bool {
                self.0 & (PAGE_SIZE - 1) == 0
            }

            /// Huge-page number (address >> 21).
            #[inline]
            pub const fn huge_page(self) -> u64 {
                self.0 >> HUGE_PAGE_SHIFT
            }

            /// Offset within the containing 2 MiB huge page.
            #[inline]
            pub const fn huge_offset(self) -> u64 {
                self.0 & (HUGE_PAGE_SIZE - 1)
            }

            /// Address of the start of the containing 2 MiB huge page.
            #[inline]
            pub const fn huge_base(self) -> $name {
                $name(self.0 & !(HUGE_PAGE_SIZE - 1))
            }

            /// Is this address 2 MiB-aligned?
            #[inline]
            pub const fn is_huge_aligned(self) -> bool {
                self.0 & (HUGE_PAGE_SIZE - 1) == 0
            }

            /// Add a byte offset (the pointer-arithmetic idiom used all
            /// over the codebase; deliberately not `std::ops::Add`, which
            /// would suggest address+address makes sense).
            #[allow(clippy::should_implement_trait)]
            #[inline]
            pub fn add(self, bytes: u64) -> $name {
                $name(self.0 + bytes)
            }

            /// The 9-bit page-table index at `level` (3 = top / PML4-analog,
            /// 0 = leaf level).
            #[inline]
            pub const fn pt_index(self, level: u32) -> usize {
                ((self.0 >> (PAGE_SHIFT + level * PT_INDEX_BITS)) & (PT_ENTRIES - 1)) as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}({:#x})", stringify!($name), self.0)
            }
        }
    };
}

addr_type! {
    /// Guest virtual address.
    Gva
}
addr_type! {
    /// Guest physical address.
    Gpa
}
addr_type! {
    /// Host physical address.
    Hpa
}

/// A half-open page-aligned GVA range `[start, start + pages·4K)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct GvaRange {
    pub start: Gva,
    pub pages: u64,
}

impl GvaRange {
    pub fn new(start: Gva, pages: u64) -> Self {
        debug_assert!(start.is_page_aligned(), "GvaRange must be page-aligned");
        Self { start, pages }
    }

    /// Build the smallest page-aligned range covering `[start, start+len)`.
    pub fn covering(start: Gva, len: u64) -> Self {
        let first = start.page();
        let last = if len == 0 {
            first
        } else {
            (start.raw() + len - 1) >> PAGE_SHIFT
        };
        Self {
            start: Gva::from_page(first),
            pages: last - first + 1,
        }
    }

    pub fn end(&self) -> Gva {
        self.start.add(self.pages * PAGE_SIZE)
    }

    pub fn len_bytes(&self) -> u64 {
        self.pages * PAGE_SIZE
    }

    pub fn contains(&self, gva: Gva) -> bool {
        gva >= self.start && gva < self.end()
    }

    /// Iterate the page-base addresses of every page in the range.
    pub fn iter_pages(&self) -> impl Iterator<Item = Gva> + '_ {
        let first = self.start.page();
        (first..first + self.pages).map(Gva::from_page)
    }

    /// Does this range overlap another?
    pub fn overlaps(&self, other: &GvaRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        let a = Gva(0x1234_5678);
        assert_eq!(a.page(), 0x12345);
        assert_eq!(a.offset(), 0x678);
        assert_eq!(a.page_base(), Gva(0x1234_5000));
        assert_eq!(Gva::from_page(a.page()).raw(), 0x1234_5000);
        assert!(!a.is_page_aligned());
        assert!(a.page_base().is_page_aligned());
    }

    #[test]
    fn huge_page_math() {
        let a = Gva(0x7f83_4567_8123);
        assert_eq!(a.huge_page(), a.raw() >> 21);
        assert_eq!(a.huge_offset(), a.raw() & (HUGE_PAGE_SIZE - 1));
        assert_eq!(a.huge_base().raw(), a.raw() & !(HUGE_PAGE_SIZE - 1));
        assert!(a.huge_base().is_huge_aligned());
        assert!(!a.is_huge_aligned());
        // A huge page covers exactly PT_ENTRIES 4K pages.
        assert_eq!(HUGE_PAGE_SIZE, 2 * 1024 * 1024);
        assert_eq!(HUGE_PAGE_PAGES, 512);
        assert_eq!(a.huge_base().page() + a.page() % HUGE_PAGE_PAGES, a.page());
    }

    #[test]
    fn pt_indices_decompose_the_address() {
        // 0x0000_7f83_4567_8123:
        let a = Gva(0x0000_7f83_4567_8123);
        let reconstructed: u64 = ((a.pt_index(3) as u64) << 39)
            | ((a.pt_index(2) as u64) << 30)
            | ((a.pt_index(1) as u64) << 21)
            | ((a.pt_index(0) as u64) << 12)
            | a.offset();
        assert_eq!(reconstructed, a.raw());
        for lvl in 0..4 {
            assert!(a.pt_index(lvl) < PT_ENTRIES as usize);
        }
    }

    #[test]
    fn range_covering() {
        let r = GvaRange::covering(Gva(0x1001), 0x2000);
        assert_eq!(r.start, Gva(0x1000));
        assert_eq!(r.pages, 3); // 0x1001..0x3001 touches pages 1,2,3
        assert!(r.contains(Gva(0x1000)));
        assert!(r.contains(Gva(0x3fff)));
        assert!(!r.contains(Gva(0x4000)));
    }

    #[test]
    fn range_covering_zero_len() {
        let r = GvaRange::covering(Gva(0x5000), 0);
        assert_eq!(r.pages, 1);
    }

    #[test]
    fn range_iter_and_overlap() {
        let r = GvaRange::new(Gva(0x10000), 4);
        let pages: Vec<u64> = r.iter_pages().map(|g| g.page()).collect();
        assert_eq!(pages, vec![0x10, 0x11, 0x12, 0x13]);

        let s = GvaRange::new(Gva(0x13000), 2);
        assert!(r.overlaps(&s));
        let t = GvaRange::new(Gva(0x14000), 1);
        assert!(!r.overlaps(&t));
    }

    #[test]
    fn distinct_address_spaces_do_not_unify() {
        // This is a compile-time property; the test documents intent.
        fn takes_gpa(_: Gpa) {}
        takes_gpa(Gpa(4096));
        // takes_gpa(Gva(4096)); // <- must not compile
    }
}
