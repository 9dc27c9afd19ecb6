//! The typed accessors (`write_u64`, `read_u64`, `write_f64`, `read_f64`)
//! are observationally the byte loop they shortcut.
//!
//! Twin EPML stacks run the same op sequence: one through the typed
//! accessors, the other through `write_bytes` / `read_bytes`. After every
//! op the values, every event counter and every lane of the clock must be
//! equal, and no posted interrupt may be left pending on any vCPU (`access`
//! services the EPML self-IPI before it returns). The sequence writes more
//! distinct pages than two guest PML buffers hold, so the buffer-full
//! self-IPI path runs, and its count is pinned.

use ooh::machine::PML_ENTRIES;
use ooh::prelude::*;
use ooh::sim::Event;

/// Pages the sequence dirties: two full guest PML buffers plus a tail.
const PAGES: u64 = 2 * PML_ENTRIES as u64 + 40;

/// Word offsets inside each page: aligned, the last in-page word, and two
/// page-straddlers (4092 and 4095 spill into the next page).
const OFFSETS: [u64; 5] = [0, 8, 4088, 4092, 4095];

struct Side {
    hv: Hypervisor,
    kernel: GuestKernel,
    pid: Pid,
    base: Gva,
    session: OohSession,
}

impl Side {
    /// An EPML-tracked process homed on the last vCPU (vCPU 1 of 2).
    fn boot(vcpus: u32) -> Self {
        let mut hv = Hypervisor::new(MachineConfig::epml(64 * 1024 * PAGE_SIZE), SimCtx::new());
        let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, vcpus).expect("vm");
        let mut kernel = GuestKernel::with_vcpus(vm, vcpus);
        let pid = kernel.spawn_on(&mut hv, vcpus - 1).expect("spawn");
        // One spare page so the last page's straddlers stay mapped.
        let base = kernel
            .mmap(pid, PAGES + 1, true, VmaKind::Anon)
            .expect("mmap")
            .start;
        let session = OohSession::start(&mut hv, &mut kernel, pid, Technique::Epml).expect("epml");
        Self {
            hv,
            kernel,
            pid,
            base,
            session,
        }
    }

    fn write_u64(&mut self, typed: bool, gva: Gva, v: u64) {
        let (hv, k) = (&mut self.hv, &mut self.kernel);
        if typed {
            k.write_u64(hv, self.pid, gva, v, Lane::Tracked)
        } else {
            k.write_bytes(hv, self.pid, gva, &v.to_le_bytes(), Lane::Tracked)
        }
        .expect("write");
    }

    fn write_f64(&mut self, typed: bool, gva: Gva, v: f64) {
        let (hv, k) = (&mut self.hv, &mut self.kernel);
        if typed {
            k.write_f64(hv, self.pid, gva, v, Lane::Tracked)
        } else {
            k.write_bytes(hv, self.pid, gva, &v.to_le_bytes(), Lane::Tracked)
        }
        .expect("write");
    }

    fn read_bytes(&mut self, gva: Gva) -> [u8; 8] {
        let mut b = [0u8; 8];
        self.kernel
            .read_bytes(&mut self.hv, self.pid, gva, &mut b, Lane::Tracked)
            .expect("read");
        b
    }

    fn read_u64(&mut self, typed: bool, gva: Gva) -> u64 {
        if typed {
            self.kernel
                .read_u64(&mut self.hv, self.pid, gva, Lane::Tracked)
                .expect("read")
        } else {
            u64::from_le_bytes(self.read_bytes(gva))
        }
    }

    fn read_f64(&mut self, typed: bool, gva: Gva) -> f64 {
        if typed {
            self.kernel
                .read_f64(&mut self.hv, self.pid, gva, Lane::Tracked)
                .expect("read")
        } else {
            f64::from_le_bytes(self.read_bytes(gva))
        }
    }

    fn pending_vectors(&self) -> usize {
        (0..self.kernel.n_vcpus())
            .map(|v| self.hv.pending_vector_count(self.kernel.vm, v))
            .sum()
    }
}

fn assert_same(typed: &Side, bytes: &Side, what: &str) {
    assert_eq!(
        typed.hv.ctx.counters().snapshot(),
        bytes.hv.ctx.counters().snapshot(),
        "event counters diverge after {what}"
    );
    assert_eq!(
        typed.hv.ctx.clock().snapshot(),
        bytes.hv.ctx.clock().snapshot(),
        "clock diverges after {what}"
    );
    assert_eq!(
        typed.pending_vectors(),
        0,
        "typed side left a vector pending after {what}"
    );
    assert_eq!(
        bytes.pending_vectors(),
        0,
        "byte side left a vector pending after {what}"
    );
}

fn run(vcpus: u32) {
    let mut typed = Side::boot(vcpus);
    let mut bytes = Side::boot(vcpus);
    assert_same(&typed, &bytes, "boot");
    for page in 0..PAGES {
        for off in OFFSETS {
            let gva = typed.base.add(page * PAGE_SIZE + off);
            assert_eq!(gva, bytes.base.add(page * PAGE_SIZE + off));
            let v = (page << 20) ^ (off << 4) ^ 0x5a5a_0000_0000_0001;
            let f = page as f64 * 0.75 - off as f64;
            let at = format!("page {page} offset {off} ({vcpus} vCPUs)");

            typed.write_u64(true, gva, v);
            bytes.write_u64(false, gva, v);
            assert_same(&typed, &bytes, &format!("write_u64 at {at}"));

            let (a, b) = (typed.read_u64(true, gva), bytes.read_u64(false, gva));
            assert_eq!((a, b), (v, v), "read_u64 at {at}");
            assert_same(&typed, &bytes, &format!("read_u64 at {at}"));

            typed.write_f64(true, gva, f);
            bytes.write_f64(false, gva, f);
            assert_same(&typed, &bytes, &format!("write_f64 at {at}"));

            let (a, b) = (typed.read_f64(true, gva), bytes.read_f64(false, gva));
            assert_eq!(
                (a.to_bits(), b.to_bits()),
                (f.to_bits(), f.to_bits()),
                "read_f64 at {at}"
            );
            assert_same(&typed, &bytes, &format!("read_f64 at {at}"));
        }
    }

    // Every page (and the spare one the straddlers reach) logged once: two
    // full buffers, two self-IPIs, and nothing lost from the dirty set.
    for side in [&typed, &bytes] {
        assert_eq!(
            side.hv.ctx.counters().get(Event::PmlSelfIpi),
            2,
            "{vcpus} vCPUs"
        );
    }
    let a = typed
        .session
        .fetch_dirty(&mut typed.hv, &mut typed.kernel)
        .expect("collect");
    let b = bytes
        .session
        .fetch_dirty(&mut bytes.hv, &mut bytes.kernel)
        .expect("collect");
    assert_eq!(a.len() as u64, PAGES + 1);
    assert_eq!(a.pages().collect::<Vec<_>>(), b.pages().collect::<Vec<_>>());
    assert_same(&typed, &bytes, "collect");
}

#[test]
fn typed_accessors_match_byte_loop_on_one_vcpu() {
    run(1);
}

#[test]
fn typed_accessors_match_byte_loop_on_two_vcpus_homed_on_vcpu_1() {
    run(2);
}
