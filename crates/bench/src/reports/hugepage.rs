//! hugepage — the four tracking techniques under three mapping regimes:
//! plain 4K pages, 2M huge pages kept huge (dirty entries expand to the
//! covering 512-page range at drain time), and 2M with split-on-dirty
//! (the first logged write demotes the region back to 4K precision).
//!
//! The interesting columns are the dirty-page unions: keep-huge trades
//! fault/walk savings for conservative over-reporting (every touched 2M
//! region counts as 512 dirty pages), while split-on-dirty recovers the
//! exact 4K dirty set at the cost of one demotion per written region.
//! Proc and Ufd demote on their protection sweeps regardless (soft-dirty
//! write-protection and uffd-wp are PTE-granular), so their unions match
//! the 4K run in every mode.

use crate::{report, run_tracked_on, Stack};
use ooh_core::Technique;
use ooh_sim::TextTable;
use ooh_workloads::{phoenix, EngineKind, KvWorkload, SizeClass, Workload};
use serde::Serialize;

/// tkrzw baby with an arena big enough (>512 pages) to earn 2M mappings;
/// the table-III size classes all stay under 2M after scaling.
const TKRZW_OPS: u64 = 40_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
enum Mode {
    FourK,
    KeepHuge,
    SplitOnDirty,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::FourK, Mode::KeepHuge, Mode::SplitOnDirty];

    fn name(self) -> &'static str {
        match self {
            Mode::FourK => "4K",
            Mode::KeepHuge => "2M",
            Mode::SplitOnDirty => "2M+split",
        }
    }
}

#[derive(Serialize)]
struct Row {
    workload: &'static str,
    technique: &'static str,
    mode: &'static str,
    total_ms: f64,
    union_dirty_pages: u64,
}

fn workload(which: &str) -> Box<dyn Workload> {
    match which {
        "phoenix-histogram" => phoenix("histogram", SizeClass::Medium, 42),
        "tkrzw-baby" => Box::new(KvWorkload::new(EngineKind::Baby, TKRZW_OPS, 3, 42)),
        other => panic!("unknown workload {other:?}"),
    }
}

fn run_one(which: &'static str, technique: Technique, mode: Mode) -> Row {
    let mut stack = Stack::boot();
    if mode != Mode::FourK {
        // Both switches act before the workload's setup mmaps, so eligible
        // regions are huge-mapped from the first fault.
        stack.kernel.huge_policy = true;
        stack
            .hv
            .set_split_on_dirty(stack.kernel.vm, mode == Mode::SplitOnDirty);
    }
    let mut w = workload(which);
    let run = run_tracked_on(&mut stack, technique, w.as_mut(), 16).expect("tracked run");
    Row {
        workload: which,
        technique: technique.name(),
        mode: mode.name(),
        total_ms: report::ms(run.tracker_done_ns),
        union_dirty_pages: run.union_dirty_pages,
    }
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "hugepage",
        "four techniques x {4K, 2M keep-huge, 2M split-on-dirty}",
    );
    report::scaling_note(
        &mut out,
        "tkrzw-baby runs 40K ops so its arena crosses the 2M threshold; \
         phoenix-histogram uses the medium (4 MB datafile) class",
    );
    for which in ["phoenix-histogram", "tkrzw-baby"] {
        let mut tbl = TextTable::new([
            "technique",
            "4K total (ms)",
            "4K dirty",
            "2M total (ms)",
            "2M dirty",
            "2M+split total (ms)",
            "2M+split dirty",
        ]);
        report::line(&mut out, format_args!("-- {which} --"));
        for technique in [
            Technique::Proc,
            Technique::Ufd,
            Technique::Spml,
            Technique::Epml,
        ] {
            let rows: Vec<Row> = Mode::ALL
                .iter()
                .map(|&m| run_one(which, technique, m))
                .collect();
            for r in &rows {
                report::json_row(&mut out, r);
            }
            tbl.row([
                technique.name().to_string(),
                format!("{:.2}", rows[0].total_ms),
                rows[0].union_dirty_pages.to_string(),
                format!("{:.2}", rows[1].total_ms),
                rows[1].union_dirty_pages.to_string(),
                format!("{:.2}", rows[2].total_ms),
                rows[2].union_dirty_pages.to_string(),
            ]);
        }
        out.push_str(&tbl.render());
    }
    out
}
