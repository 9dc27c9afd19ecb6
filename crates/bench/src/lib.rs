//! # ooh-bench — the harness that regenerates every table and figure
//!
//! One report per experiment, each a `render()` in [`reports`] printed by
//! `cargo run --release -p ooh-bench -- <id>` and pinned byte-for-byte to
//! `bench_results/<id>.txt` (see DESIGN.md §4 for the index):
//!
//! | id | paper artifact |
//! |---|---|
//! | `fig1`     | Figure 1 — mechanism timeline per technique, in event counts |
//! | `table1`   | Table I — ufd & /proc overhead on Tracked/Tracker, size sweep |
//! | `table3`   | Table III — workload configurations + measured memory |
//! | `table4`   | Table IV — formula validation (measured vs estimated) |
//! | `table5`   | Table V — unit costs of metrics M1–M18 |
//! | `table6`   | Table VI — per-technique metric analysis |
//! | `fig3`     | Figure 3 — SPML collection-phase breakdown |
//! | `fig4`     | Figure 4 — micro-benchmark slowdown, all techniques |
//! | `fig5`     | Figure 5 — Boehm GC cycle times per technique |
//! | `fig6`     | Figure 6 — Boehm overhead on Tracked |
//! | `fig7_8_9` | Figures 7–9 — CRIU memory-write time, checkpoint time, overhead on Tracked |
//! | `fig10_11` | Figures 10 & 11 — multi-VM scalability |
//! | `ablation` | ring size, EPML drain TLB policy, footnote-2 revmap cache |
//! | `hugepage` | four techniques × {4K, 2M keep-huge, 2M split-on-dirty} |
//! | `smp`      | 1/2/4-vCPU guests: cross-vCPU shootdown cost |
//! | `fleet_snap` | fleet checkpoint/migration: diff-snapshot chains under the convergence policy |
//!
//! The criterion bench in `benches/` times the dirty data path on the host.

#![forbid(unsafe_code)]

pub mod criu_scenarios;
pub mod fleet;
pub mod formula;
pub mod gc_scenarios;
pub mod report;
pub mod reports;
pub mod scenario;

pub use formula::{accuracy_pct, estimate_tracked_impact_ns, estimate_tracker_ns, Estimate};
pub use scenario::{
    counter, run_baseline, run_tracked, run_tracked_on, RoundInfo, Stack, TrackedRun,
};
