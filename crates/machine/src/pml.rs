//! Page Modification Logging hardware state.
//!
//! Faithful to the SDM semantics: the PML index starts at 511 and counts
//! down; the CPU writes the logged address at `base + index*8` *then*
//! decrements; if a log is attempted while the index is out of the 0..=511
//! range, a page-modification-log-full event fires **before** the write and
//! the entry is not lost (the write retries after the handler resets the
//! index).
//!
//! The EPML extension adds a second, guest-level buffer with identical
//! mechanics, except the full event is delivered as a virtual self-IPI via
//! posted interrupts instead of a vmexit.

use crate::addr::Hpa;
use crate::digest::StateHasher;
use crate::error::MachineError;
use crate::phys::HostPhys;

/// Number of entries in a PML buffer (one 4 KiB page of u64s).
pub const PML_ENTRIES: u16 = 512;

/// Index value meaning "buffer full" (decremented past 0 wraps to 0xFFFF).
const FULL_SENTINEL: u16 = u16::MAX;

/// One PML buffer: a base pointer plus the architectural index register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmlBuffer {
    /// Host-physical base of the 4 KiB log page.
    pub base: Hpa,
    /// The PML index (a guest-state VMCS field on real hardware).
    pub index: u16,
}

/// Outcome of attempting to log one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOutcome {
    /// Entry written; buffer has room for more.
    Logged,
    /// Entry written into the last slot; the *next* attempt will be Full.
    LoggedLastSlot,
    /// Buffer is full; nothing was written. The caller must raise the full
    /// event (vmexit / self-IPI), have the handler drain + reset, and retry.
    Full,
}

impl PmlBuffer {
    /// A fresh buffer over the page at `base`, index at 511.
    pub fn new(base: Hpa) -> Self {
        debug_assert!(base.is_page_aligned());
        Self {
            base,
            index: PML_ENTRIES - 1,
        }
    }

    /// Is the index out of logging range (full)?
    pub fn is_full(&self) -> bool {
        self.index >= PML_ENTRIES
    }

    /// Number of entries currently held.
    pub fn len(&self) -> u16 {
        if self.is_full() {
            PML_ENTRIES
        } else {
            PML_ENTRIES - 1 - self.index
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempt to log `value` (a page-aligned GPA or GVA).
    pub fn log(&mut self, phys: &mut HostPhys, value: u64) -> Result<LogOutcome, MachineError> {
        if self.is_full() {
            return Ok(LogOutcome::Full);
        }
        phys.write_u64(self.base.add(self.index as u64 * 8), value)?;
        if self.index == 0 {
            self.index = FULL_SENTINEL;
            Ok(LogOutcome::LoggedLastSlot)
        } else {
            self.index -= 1;
            Ok(LogOutcome::Logged)
        }
    }

    /// Fold the observable buffer state into `h`: fullness, entry count, and
    /// the logged addresses as a sorted multiset (the drain turns them into
    /// a set, so their in-buffer order is not behaviorally observable).
    pub fn hash_state(&self, phys: &HostPhys, h: &mut StateHasher) -> Result<(), MachineError> {
        h.write_bool(self.is_full());
        let n = self.len();
        let mut entries = Vec::with_capacity(n as usize);
        for i in (0..n).map(|k| PML_ENTRIES - 1 - k) {
            entries.push(phys.read_u64(self.base.add(i as u64 * 8))?);
        }
        h.write_sorted(&entries);
        Ok(())
    }

    /// Drain all logged entries (oldest first) and reset the index to 511.
    /// This is what the hypervisor's PML-full handler (or the guest's
    /// self-IPI handler under EPML) does.
    pub fn drain(&mut self, phys: &HostPhys) -> Result<Vec<u64>, MachineError> {
        let n = self.len();
        let mut out = Vec::with_capacity(n as usize);
        // Entries were written at 511, 510, … downwards; oldest first means
        // reading from 511 down to index+1.
        for i in (0..n).map(|k| PML_ENTRIES - 1 - k) {
            out.push(phys.read_u64(self.base.add(i as u64 * 8))?);
        }
        self.index = PML_ENTRIES - 1;
        Ok(out)
    }
}

/// The PML-related hardware state of one vCPU: the hypervisor-level buffer
/// (standard PML) and, when the EPML extension is present and configured,
/// the guest-level buffer.
#[derive(Debug, Default)]
pub struct PmlState {
    /// Standard PML: logs **GPAs**, managed by the hypervisor.
    pub hyp: Option<PmlBuffer>,
    /// Whether hypervisor-level logging is currently active (the
    /// "enable PML" secondary execution control).
    pub hyp_logging: bool,
    /// EPML: logs **GVAs**, managed by the guest OS (OoH Module).
    pub guest: Option<PmlBuffer>,
    /// Whether guest-level logging is currently active (the EPML enable bit
    /// the OoH module flips with `vmwrite` on schedule-in/out).
    pub guest_logging: bool,
    /// PML-R extension (Bitchebe et al.): also log guest-physical addresses
    /// on EPT *accessed*-bit transitions, so the hypervisor can estimate
    /// working-set size without write-protecting the guest. Only meaningful
    /// while `hyp_logging` is on.
    pub log_accesses: bool,
    /// Shadow bookkeeping for the `debug-invariants` feature. Stays empty
    /// (and costs one pointer-sized struct) when the feature is off.
    pub shadow: PmlShadow,
}

/// Shadow tracking behind the `debug-invariants` feature: the set of pages
/// whose 0→1 dirty-bit transition has been logged and whose dirty bit has
/// not been cleared since. The architectural invariant is *exactly one log
/// entry per transition per round*: a second log for the same page without
/// an intervening clear means the walker double-logged; a missing clear
/// notification means a drain path forgot to reset per-round state.
#[derive(Debug, Default)]
pub struct PmlShadow {
    /// GPA pages dirty-logged into the hypervisor-level buffer.
    hyp_logged: std::collections::BTreeSet<u64>,
    /// GVA pages dirty-logged into the guest-level (EPML) buffer.
    guest_logged: std::collections::BTreeSet<u64>,
}

impl PmlState {
    /// The walker logged a 0→1 EPT dirty transition for `gpa_page` into the
    /// hypervisor buffer. Panics (feature `debug-invariants` only) if the
    /// page was already logged this round.
    pub fn note_hyp_dirty_logged(&mut self, gpa_page: u64) {
        if crate::DEBUG_INVARIANTS {
            assert!(
                self.shadow.hyp_logged.insert(gpa_page),
                "PML invariant violated: GPA page {gpa_page:#x} dirty-logged twice \
                 without an intervening EPT dirty-bit clear"
            );
        }
    }

    /// The drain path cleared the EPT dirty bit of `gpa_page`; it may log
    /// again. No-op without `debug-invariants`.
    pub fn note_hyp_dirty_cleared(&mut self, gpa_page: u64) {
        if crate::DEBUG_INVARIANTS {
            self.shadow.hyp_logged.remove(&gpa_page);
        }
    }

    /// The walker logged a 0→1 guest-PTE dirty transition for `gva_page`
    /// into the guest-level (EPML) buffer.
    pub fn note_guest_dirty_logged(&mut self, gva_page: u64) {
        if crate::DEBUG_INVARIANTS {
            assert!(
                self.shadow.guest_logged.insert(gva_page),
                "PML invariant violated: GVA page {gva_page:#x} dirty-logged twice \
                 without an intervening guest-PTE dirty-bit clear"
            );
        }
    }

    /// The OoH module cleared the dirty bit of the guest PTE mapping
    /// `gva_page` (drain or track-reset); it may log again.
    pub fn note_guest_dirty_cleared(&mut self, gva_page: u64) {
        if crate::DEBUG_INVARIANTS {
            self.shadow.guest_logged.remove(&gva_page);
        }
    }

    /// Bulk reset of the hypervisor-side shadow — paired with
    /// `Ept::clear_all_dirty` (SPML init, WSS intervals).
    pub fn shadow_reset_hyp(&mut self) {
        if crate::DEBUG_INVARIANTS {
            self.shadow.hyp_logged.clear();
        }
    }

    /// Bulk reset of the guest-side shadow — paired with EPML deactivation.
    pub fn shadow_reset_guest(&mut self) {
        if crate::DEBUG_INVARIANTS {
            self.shadow.guest_logged.clear();
        }
    }
}

/// Events produced by a single logged store, to be dispatched by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmlEvent {
    /// The hypervisor-level buffer filled: page-modification-log-full vmexit.
    HypBufferFull,
    /// The guest-level buffer filled: virtual self-IPI to the guest.
    GuestBufferFull,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    fn mk() -> (HostPhys, PmlBuffer) {
        let mut phys = HostPhys::new(8 * PAGE_SIZE);
        let page = phys.alloc_frame().unwrap();
        (phys, PmlBuffer::new(page))
    }

    #[test]
    fn index_starts_at_511() {
        let (_, b) = mk();
        assert_eq!(b.index, 511);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert!(!b.is_full());
    }

    #[test]
    fn log_writes_at_descending_slots() {
        let (mut phys, mut b) = mk();
        assert_eq!(b.log(&mut phys, 0xA000).unwrap(), LogOutcome::Logged);
        assert_eq!(b.log(&mut phys, 0xB000).unwrap(), LogOutcome::Logged);
        assert_eq!(b.len(), 2);
        // First entry landed at slot 511, second at 510.
        assert_eq!(phys.read_u64(b.base.add(511 * 8)).unwrap(), 0xA000);
        assert_eq!(phys.read_u64(b.base.add(510 * 8)).unwrap(), 0xB000);
    }

    #[test]
    fn fills_after_512_entries_then_rejects() {
        let (mut phys, mut b) = mk();
        for i in 0..511u64 {
            assert_eq!(b.log(&mut phys, i << 12).unwrap(), LogOutcome::Logged);
        }
        assert_eq!(
            b.log(&mut phys, 511 << 12).unwrap(),
            LogOutcome::LoggedLastSlot
        );
        assert!(b.is_full());
        assert_eq!(b.len(), 512);
        // Full: nothing written, value preserved for retry by caller.
        assert_eq!(b.log(&mut phys, 0xDEAD000).unwrap(), LogOutcome::Full);
    }

    #[test]
    fn drain_returns_oldest_first_and_resets() {
        let (mut phys, mut b) = mk();
        for v in [0x1000u64, 0x2000, 0x3000] {
            b.log(&mut phys, v).unwrap();
        }
        let drained = b.drain(&phys).unwrap();
        assert_eq!(drained, vec![0x1000, 0x2000, 0x3000]);
        assert_eq!(b.index, 511);
        assert!(b.is_empty());
    }

    #[test]
    fn drain_full_buffer_returns_512() {
        let (mut phys, mut b) = mk();
        for i in 0..512u64 {
            b.log(&mut phys, i << 12).unwrap();
        }
        let drained = b.drain(&phys).unwrap();
        assert_eq!(drained.len(), 512);
        assert_eq!(drained[0], 0);
        assert_eq!(drained[511], 511 << 12);
        // usable again after drain
        assert_eq!(b.log(&mut phys, 0x7000).unwrap(), LogOutcome::Logged);
    }

    #[test]
    fn drain_empty_is_empty() {
        let (phys, mut b) = mk();
        assert!(b.drain(&phys).unwrap().is_empty());
    }

    #[cfg(feature = "debug-invariants")]
    mod invariant_tests {
        use super::super::PmlState;

        #[test]
        fn log_clear_log_is_legal() {
            let mut s = PmlState::default();
            s.note_hyp_dirty_logged(0x40);
            s.note_hyp_dirty_cleared(0x40);
            s.note_hyp_dirty_logged(0x40);
            s.note_guest_dirty_logged(0x99);
            s.note_guest_dirty_cleared(0x99);
            s.note_guest_dirty_logged(0x99);
        }

        #[test]
        #[should_panic(expected = "PML invariant violated")]
        fn double_hyp_log_without_clear_panics() {
            let mut s = PmlState::default();
            s.note_hyp_dirty_logged(0x40);
            s.note_hyp_dirty_logged(0x40);
        }

        #[test]
        #[should_panic(expected = "PML invariant violated")]
        fn double_guest_log_without_clear_panics() {
            let mut s = PmlState::default();
            s.note_guest_dirty_logged(0x7);
            s.note_guest_dirty_logged(0x7);
        }

        #[test]
        fn bulk_reset_forgives_everything() {
            let mut s = PmlState::default();
            s.note_hyp_dirty_logged(1);
            s.note_hyp_dirty_logged(2);
            s.shadow_reset_hyp();
            s.note_hyp_dirty_logged(1);
            s.note_guest_dirty_logged(3);
            s.shadow_reset_guest();
            s.note_guest_dirty_logged(3);
        }
    }

    #[test]
    fn log_retry_after_drain_succeeds() {
        let (mut phys, mut b) = mk();
        for i in 0..512u64 {
            b.log(&mut phys, i << 12).unwrap();
        }
        assert_eq!(b.log(&mut phys, 0xFEED000).unwrap(), LogOutcome::Full);
        b.drain(&phys).unwrap();
        assert_eq!(b.log(&mut phys, 0xFEED000).unwrap(), LogOutcome::Logged);
        assert_eq!(b.drain(&phys).unwrap(), vec![0xFEED000]);
    }
}
