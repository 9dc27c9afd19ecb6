//! Table III — configuration setup and memory consumption for each
//! workload at each size class. The paper lists its parameters and measured
//! memory; we print ours (scaled, see config.rs) with the memory actually
//! resident after a run.

use crate::{report, Stack};
use ooh_machine::PAGE_SIZE;
use ooh_sim::TextTable;
use ooh_workloads::{
    gcbench_config, gcbench_heap_pages, phoenix, tkrzw_config, EngineKind, SizeClass, Workload,
    PHOENIX_APPS,
};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    app: String,
    size: &'static str,
    resident_mib: f64,
}

fn mib(pages: u64) -> f64 {
    (pages * PAGE_SIZE) as f64 / (1 << 20) as f64
}

pub fn render() -> String {
    let mut out = String::new();
    report::header(
        &mut out,
        "table3",
        "workload configurations and memory consumption",
    );
    report::scaling_note(
        &mut out,
        "working sets scaled ~1/16 of the paper's (see DESIGN.md)",
    );
    let mut tbl = TextTable::new(["application", "small (MiB)", "medium (MiB)", "large (MiB)"]);

    // GCBench: report the configured heap, which bounds its footprint.
    {
        let mut row = vec!["GCbench".to_string()];
        for size in SizeClass::ALL {
            let cfg = gcbench_config(size).config;
            let pages = gcbench_heap_pages(size);
            row.push(format!(
                "{:.2} (arr {}K, depth {}/{})",
                mib(pages),
                cfg.array_words / 1024,
                cfg.lived_depth,
                cfg.stretch_depth
            ));
        }
        tbl.row(row);
    }

    for app in PHOENIX_APPS {
        let mut row = vec![app.to_string()];
        for size in SizeClass::ALL {
            let mut stack = Stack::boot();
            let mut w = phoenix(app, size, 7);
            {
                let mut env = stack.env();
                w.run(&mut env).expect("workload");
            }
            let pages = stack.kernel.process(stack.pid).unwrap().resident_pages();
            row.push(format!("{:.2}", mib(pages)));
            report::json_row(
                &mut out,
                &Row {
                    app: app.to_string(),
                    size: size.name(),
                    resident_mib: mib(pages),
                },
            );
        }
        tbl.row(row);
    }

    for kind in EngineKind::ALL {
        let mut row = vec![kind.name().to_string()];
        for size in SizeClass::ALL {
            let mut stack = Stack::boot();
            let mut w = tkrzw_config(kind, size, 7);
            {
                let mut env = stack.env();
                w.run(&mut env).expect("workload");
            }
            let pages = stack.kernel.process(stack.pid).unwrap().resident_pages();
            row.push(format!(
                "{:.2} ({} ops, {} thr)",
                mib(pages),
                w.n_ops,
                w.threads
            ));
            report::json_row(
                &mut out,
                &Row {
                    app: kind.name().to_string(),
                    size: size.name(),
                    resident_mib: mib(pages),
                },
            );
        }
        tbl.row(row);
    }
    report::line(&mut out, &tbl);
    out
}
