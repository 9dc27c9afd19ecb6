//! `ckpt_chain`: one VM's CRIU pre-copy snapshot chain, end to end. The
//! bottom of the drain path (`DirtySet` → `CheckpointImage` →
//! `SnapshotChain` wire) does the work; guest writes are a minor share.

use crate::harness::{fnv_bytes, fnv_words, Bench, Counts, Fault, Rep, Stopwatch, Work, FNV_SEED};
use crate::spans::Recorder;
use ooh_bench::Stack;
use ooh_core::Technique;
use ooh_criu::{restore, verify, Criu, CriuConfig, SnapshotChain};
use ooh_guest::VmaKind;
use ooh_machine::PAGE_SIZE;
use ooh_sim::{Lane, SimRng};
use std::time::Instant;

pub struct CkptChain {
    host_mib: u64,
    region_pages: u64,
    /// Pre-dump rounds; each appends one diff layer.
    rounds: u32,
    /// Seeded runs of consecutive pages written per round.
    runs_per_round: u64,
    run_pages: u64,
}

impl CkptChain {
    pub fn new(tiny: bool) -> Self {
        if tiny {
            CkptChain {
                host_mib: 64,
                region_pages: 256,
                rounds: 3,
                runs_per_round: 4,
                run_pages: 16,
            }
        } else {
            CkptChain {
                host_mib: 1024,
                region_pages: 8192,
                rounds: 12,
                runs_per_round: 32,
                run_pages: 64,
            }
        }
    }
}

impl Bench for CkptChain {
    fn name(&self) -> &'static str {
        "ckpt_chain"
    }

    // Decode time swings with allocator first-touch (sizing run: 0.12-0.57 s),
    // so this workload takes two more reps than the others.
    fn min_reps(&self) -> usize {
        7
    }

    // For the same reason a single traced rep read 28 % "overhead" in one
    // baseline run in eight; the median of three does not.
    fn traced_reps(&self) -> usize {
        3
    }

    fn rep(&self, seed: u64, rec: &Recorder, fault: Option<Fault>) -> Result<Rep, String> {
        let err = |e: ooh_guest::GuestError| e.to_string();
        let t0 = Instant::now();
        let mut stack = rec.span("bench.boot", || Stack::boot_with_ram(self.host_mib));
        let region = stack
            .kernel
            .mmap(stack.pid, self.region_pages, true, VmaKind::Anon)
            .map_err(err)?;
        rec.span("workloads.setup", || stack.env().prefault(region))
            .map_err(err)?;
        let setup_s = t0.elapsed().as_secs_f64();

        let (hv, kernel, pid) = (&mut stack.hv, &mut stack.kernel, stack.pid);
        let before = Counts::capture(hv, kernel);
        let mut sw = Stopwatch::default();
        let mut rng = SimRng::new(seed);
        let mut pages_written = 0u64;
        let mut incremental_pages = 0u64;

        let config = CriuConfig::new(Technique::Epml);
        let mut criu = sw
            .time(|| rec.span("criu.attach", || Criu::attach(hv, kernel, pid, config)))
            .map_err(err)?;
        let (base, stats) = sw
            .time(|| rec.span("criu.full_dump", || criu.full_dump(hv, kernel, pid)))
            .map_err(err)?;
        pages_written += stats.pages_written;
        let mut chain = SnapshotChain::new(base);
        for _ in 0..self.rounds {
            sw.time(|| {
                rec.span("guest.write_u64", || {
                    for _ in 0..self.runs_per_round {
                        let start = rng.next_below(self.region_pages - self.run_pages + 1);
                        for page in start..start + self.run_pages {
                            let gva = region.start.add(page * PAGE_SIZE);
                            kernel.write_u64(hv, pid, gva, rng.next_u64() | 1, Lane::Tracked)?;
                        }
                    }
                    Ok::<(), ooh_guest::GuestError>(())
                })
            })
            .map_err(err)?;
            let (diff, stats) = sw
                .time(|| rec.span("criu.pre_dump", || criu.pre_dump(hv, kernel, pid)))
                .map_err(err)?;
            pages_written += stats.pages_written;
            incremental_pages += stats.pages_written;
            sw.time(|| rec.span("criu.chain.push_diff", || chain.push_diff(diff)));
        }
        let (fin, stats) = sw
            .time(|| rec.span("criu.final_dump", || criu.final_dump(hv, kernel, pid)))
            .map_err(err)?;
        pages_written += stats.pages_written;
        incremental_pages += stats.pages_written;
        sw.time(|| rec.span("criu.chain.push_diff", || chain.push_diff(fin)));
        sw.time(|| criu.detach(hv, kernel)).map_err(err)?;
        sw.time(|| chain.validate()).map_err(|e| e.to_string())?;

        // The oracle image: a full dump of the paused guest at the same
        // virtual instant the chain ends at (as `simulate_vm` takes it).
        let mut oracle_criu = sw
            .time(|| rec.span("criu.attach", || Criu::attach(hv, kernel, pid, config)))
            .map_err(err)?;
        let (oracle, _) = sw
            .time(|| rec.span("criu.full_dump", || oracle_criu.full_dump(hv, kernel, pid)))
            .map_err(err)?;
        sw.time(|| oracle_criu.detach(hv, kernel)).map_err(err)?;

        let wire = sw.time(|| rec.span("criu.chain.encode", || chain.encode()));
        let wire_len = wire.as_ref().len() as u64;
        let wire_digest = fnv_bytes(wire.as_ref());
        let wire = match fault {
            Some(Fault::FlipWireByte) => {
                let mut bytes = wire.to_vec();
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
                bytes.into()
            }
            _ => wire,
        };
        let decoded = sw
            .time(|| rec.span("criu.chain.decode", || SnapshotChain::decode(wire)))
            .map_err(|e| format!("decode: {e}"))?;
        let flat = sw.time(|| rec.span("criu.chain.flatten", || decoded.flatten()));
        let new_pid = sw
            .time(|| rec.span("criu.restore", || restore(hv, kernel, &flat)))
            .map_err(err)?;
        let verified = sw
            .time(|| rec.span("criu.verify", || verify(hv, kernel, new_pid, &oracle)))
            .map_err(err)?;
        let wall_s = sw.seconds();

        let mut counts = Counts::zero();
        counts.add_delta(&before, &Counts::capture(hv, kernel));
        counts.set("core.dirty.pages_reported", incremental_pages);
        counts.set("core.dirty.rounds", u64::from(self.rounds) + 1);
        counts.set("criu.pages_written", pages_written);
        counts.set("criu.chain.layers", chain.len() as u64);
        counts.set("criu.chain.wire_bytes", wire_len);

        // Oracles: the restored process matches the same-instant full dump
        // on every page, and the wire format re-encodes byte-identically.
        if verified != self.region_pages {
            return Err(format!(
                "verify checked {verified} pages, expected {}",
                self.region_pages
            ));
        }
        if fnv_bytes(decoded.encode().as_ref()) != wire_digest {
            return Err("decode(encode(chain)).encode() is not byte-identical".into());
        }

        Ok(Rep {
            setup_s,
            wall_s,
            work: Work {
                accesses: counts.accesses(),
                pages: chain.pages_shipped(),
                vms: 1,
            },
            digest: fnv_words(FNV_SEED, [wire_digest, wire_len, verified]),
            counts,
            layer_extra: Vec::new(),
        })
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("host_mib", self.host_mib),
            ("region_pages", self.region_pages),
            ("rounds", u64::from(self.rounds)),
            ("runs_per_round", self.runs_per_round),
            ("run_pages", self.run_pages),
        ]
    }
}
