//! Shared ring buffer over physical frames.
//!
//! OoH's data path is a single-producer/single-consumer ring of 64-bit
//! address entries living in *guest* memory (allocated by the OoH kernel
//! module, mmapped by the tracker — the UIO pattern). Under SPML the
//! producer is the hypervisor (writing through its HPA view); under EPML it
//! is the guest kernel's self-IPI handler. The consumer is always the
//! userspace OoH library.
//!
//! Layout: a header page (head at offset 0, tail at offset 8, capacity at
//! 16, dropped-entry count at 24) followed by `N` data pages of u64 entries.
//! `head` counts pops, `tail` counts pushes; both are free-running and
//! reduced mod capacity on access, the classic power-of-two-free protocol.

use crate::addr::{Hpa, PAGE_SIZE};
use crate::digest::StateHasher;
use crate::error::MachineError;
use crate::phys::HostPhys;

const OFF_HEAD: u64 = 0;
const OFF_TAIL: u64 = 8;
const OFF_CAP: u64 = 16;
const OFF_DROPPED: u64 = 24;

/// Entries per data page.
pub const RING_ENTRIES_PER_PAGE: u64 = PAGE_SIZE / 8;

/// A view of the ring through host-physical frame addresses. Both sides
/// (hypervisor and guest kernel / userspace) construct their own `RingView`
/// over the same frames; all state lives in the frames themselves.
#[derive(Debug, Clone)]
pub struct RingView {
    header: Hpa,
    data: Vec<Hpa>,
    capacity: u64,
}

impl RingView {
    /// Create a ring over `header` + `data` frames, initializing the header.
    /// Call once (producer side at setup).
    pub fn create(
        phys: &mut HostPhys,
        header: Hpa,
        data: Vec<Hpa>,
    ) -> Result<Self, MachineError> {
        let capacity = data.len() as u64 * RING_ENTRIES_PER_PAGE;
        phys.write_u64(header.add(OFF_HEAD), 0)?;
        phys.write_u64(header.add(OFF_TAIL), 0)?;
        phys.write_u64(header.add(OFF_CAP), capacity)?;
        phys.write_u64(header.add(OFF_DROPPED), 0)?;
        Ok(Self {
            header,
            data,
            capacity,
        })
    }

    /// Attach to an already-created ring (consumer side).
    pub fn attach(
        phys: &HostPhys,
        header: Hpa,
        data: Vec<Hpa>,
    ) -> Result<Self, MachineError> {
        let capacity = phys.read_u64(header.add(OFF_CAP))?;
        debug_assert_eq!(capacity, data.len() as u64 * RING_ENTRIES_PER_PAGE);
        Ok(Self {
            header,
            data,
            capacity,
        })
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn head(&self, phys: &HostPhys) -> Result<u64, MachineError> {
        phys.read_u64(self.header.add(OFF_HEAD))
    }

    fn tail(&self, phys: &HostPhys) -> Result<u64, MachineError> {
        phys.read_u64(self.header.add(OFF_TAIL))
    }

    /// Entries currently queued.
    pub fn len(&self, phys: &HostPhys) -> Result<u64, MachineError> {
        Ok(self.tail(phys)? - self.head(phys)?)
    }

    pub fn is_empty(&self, phys: &HostPhys) -> Result<bool, MachineError> {
        Ok(self.len(phys)? == 0)
    }

    /// Total entries dropped because the ring was full.
    pub fn dropped(&self, phys: &HostPhys) -> Result<u64, MachineError> {
        phys.read_u64(self.header.add(OFF_DROPPED))
    }

    fn slot(&self, index: u64) -> Hpa {
        let i = index % self.capacity;
        let page = (i / RING_ENTRIES_PER_PAGE) as usize;
        let off = (i % RING_ENTRIES_PER_PAGE) * 8;
        self.data[page].add(off)
    }

    /// `debug-invariants` only: structural SPSC checks on the shared header.
    /// `head` must never run past `tail` (FIFO: pops consume pushes), the
    /// queue depth must never exceed capacity (wraparound must not overwrite
    /// unconsumed entries), and the header capacity must match this view's
    /// (attach/create disagreement corrupts slot arithmetic).
    fn check_invariants(&self, phys: &HostPhys, head: u64, tail: u64) -> Result<(), MachineError> {
        if crate::DEBUG_INVARIANTS {
            let cap = phys.read_u64(self.header.add(OFF_CAP))?;
            assert_eq!(
                cap, self.capacity,
                "ring invariant violated: header capacity {cap} != view capacity {}",
                self.capacity
            );
            assert!(
                head <= tail,
                "ring invariant violated: head {head} ran past tail {tail} (pop without push)"
            );
            assert!(
                tail - head <= self.capacity,
                "ring invariant violated: {} queued entries exceed capacity {} \
                 (producer wrapped over unconsumed entries)",
                tail - head,
                self.capacity
            );
        }
        Ok(())
    }

    /// Push one entry. Returns `false` (and bumps the dropped counter) if
    /// the ring is full — the consumer will detect drops and fall back to a
    /// full rescan, as the OoH library does.
    pub fn push(&self, phys: &mut HostPhys, value: u64) -> Result<bool, MachineError> {
        let head = self.head(phys)?;
        let tail = self.tail(phys)?;
        self.check_invariants(phys, head, tail)?;
        if tail - head >= self.capacity {
            let d = self.dropped(phys)?;
            phys.write_u64(self.header.add(OFF_DROPPED), d + 1)?;
            return Ok(false);
        }
        phys.write_u64(self.slot(tail), value)?;
        phys.write_u64(self.header.add(OFF_TAIL), tail + 1)?;
        Ok(true)
    }

    /// Pop the oldest entry, if any.
    pub fn pop(&self, phys: &mut HostPhys) -> Result<Option<u64>, MachineError> {
        let head = self.head(phys)?;
        let tail = self.tail(phys)?;
        self.check_invariants(phys, head, tail)?;
        if head == tail {
            return Ok(None);
        }
        let v = phys.read_u64(self.slot(head))?;
        phys.write_u64(self.header.add(OFF_HEAD), head + 1)?;
        Ok(Some(v))
    }

    /// Fold the observable ring state into `h`: queue depth, drop count, and
    /// the queued entries as a sorted multiset. The absolute head/tail
    /// positions are excluded — they are free-running, so two histories with
    /// identical queued contents but different push totals would otherwise
    /// never deduplicate in the model checker.
    pub fn hash_state(&self, phys: &HostPhys, h: &mut StateHasher) -> Result<(), MachineError> {
        let head = self.head(phys)?;
        let tail = self.tail(phys)?;
        h.write_u64(tail - head);
        h.write_u64(self.dropped(phys)?);
        let mut queued = Vec::with_capacity((tail - head) as usize);
        for i in head..tail {
            queued.push(phys.read_u64(self.slot(i))?);
        }
        h.write_sorted(&queued);
        Ok(())
    }

    /// Drain everything currently queued.
    pub fn drain(&self, phys: &mut HostPhys) -> Result<Vec<u64>, MachineError> {
        let mut out = Vec::with_capacity(self.len(phys)? as usize);
        while let Some(v) = self.pop(phys)? {
            out.push(v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(pages: usize) -> (HostPhys, RingView) {
        let mut phys = HostPhys::new(64 * PAGE_SIZE);
        let header = phys.alloc_frame().unwrap();
        let data: Vec<Hpa> = (0..pages).map(|_| phys.alloc_frame().unwrap()).collect();
        let ring = RingView::create(&mut phys, header, data).unwrap();
        (phys, ring)
    }

    #[test]
    fn fifo_order() {
        let (mut phys, ring) = mk(1);
        for v in [10u64, 20, 30] {
            assert!(ring.push(&mut phys, v).unwrap());
        }
        assert_eq!(ring.len(&phys).unwrap(), 3);
        assert_eq!(ring.pop(&mut phys).unwrap(), Some(10));
        assert_eq!(ring.pop(&mut phys).unwrap(), Some(20));
        assert_eq!(ring.pop(&mut phys).unwrap(), Some(30));
        assert_eq!(ring.pop(&mut phys).unwrap(), None);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut phys, ring) = mk(1);
        let cap = ring.capacity();
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for _ in 0..5 {
            while next_push - next_pop < cap {
                assert!(ring.push(&mut phys, next_push).unwrap());
                next_push += 1;
            }
            for _ in 0..cap / 2 {
                assert_eq!(ring.pop(&mut phys).unwrap(), Some(next_pop));
                next_pop += 1;
            }
        }
        let drained = ring.drain(&mut phys).unwrap();
        assert_eq!(drained, (next_pop..next_push).collect::<Vec<_>>());
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let (mut phys, ring) = mk(1);
        for i in 0..ring.capacity() {
            assert!(ring.push(&mut phys, i).unwrap());
        }
        assert!(!ring.push(&mut phys, 999).unwrap());
        assert!(!ring.push(&mut phys, 998).unwrap());
        assert_eq!(ring.dropped(&phys).unwrap(), 2);
        // Oldest entries intact.
        assert_eq!(ring.pop(&mut phys).unwrap(), Some(0));
    }

    #[test]
    fn multi_page_ring_spans_frames() {
        let (mut phys, ring) = mk(3);
        assert_eq!(ring.capacity(), 3 * RING_ENTRIES_PER_PAGE);
        for i in 0..ring.capacity() {
            assert!(ring.push(&mut phys, i * 7).unwrap());
        }
        for i in 0..ring.capacity() {
            assert_eq!(ring.pop(&mut phys).unwrap(), Some(i * 7));
        }
    }

    #[cfg(feature = "debug-invariants")]
    mod invariant_tests {
        use super::*;

        #[test]
        #[should_panic(expected = "ring invariant violated")]
        fn corrupted_head_past_tail_panics() {
            let (mut phys, ring) = mk(1);
            ring.push(&mut phys, 1).unwrap();
            // Corrupt the shared header the way a buggy consumer would:
            // advance head beyond tail.
            phys.write_u64(ring.header.add(super::super::OFF_HEAD), 5).unwrap();
            let _ = ring.pop(&mut phys);
        }

        #[test]
        #[should_panic(expected = "ring invariant violated")]
        fn corrupted_overfull_ring_panics() {
            let (mut phys, ring) = mk(1);
            // A producer that wrapped over unconsumed entries: tail - head
            // exceeds capacity.
            phys.write_u64(
                ring.header.add(super::super::OFF_TAIL),
                ring.capacity() + 1,
            )
            .unwrap();
            let _ = ring.push(&mut phys, 1);
        }

        #[test]
        #[should_panic(expected = "ring invariant violated")]
        fn capacity_mismatch_panics() {
            let (mut phys, ring) = mk(2);
            phys.write_u64(ring.header.add(super::super::OFF_CAP), 8).unwrap();
            let _ = ring.push(&mut phys, 1);
        }
    }

    #[test]
    fn attach_sees_same_state() {
        let (mut phys, ring) = mk(2);
        ring.push(&mut phys, 42).unwrap();
        let header = ring.header;
        let data = ring.data.clone();
        let view2 = RingView::attach(&phys, header, data).unwrap();
        assert_eq!(view2.len(&phys).unwrap(), 1);
        assert_eq!(view2.pop(&mut phys).unwrap(), Some(42));
        // The original view observes the pop (shared state in frames).
        assert!(ring.is_empty(&phys).unwrap());
    }
}
