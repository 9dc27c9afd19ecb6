//! One module per report. Each `render()` returns exactly the bytes of
//! `bench_results/<id>.txt`; `tests/bench_results.rs` holds them to it.

pub mod ablation;
pub mod fig1;
pub mod fig10_11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7_8_9;
pub mod fleet_snap;
pub mod hugepage;
pub mod smp;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

/// A report body: the full text `ooh-bench <id>` prints.
pub type Render = fn() -> String;

/// Every report, by id: `ooh-bench <id>` prints `render()`.
pub const ALL: &[(&str, Render)] = &[
    ("ablation", ablation::render),
    ("fig1", fig1::render),
    ("fig10_11", fig10_11::render),
    ("fig3", fig3::render),
    ("fig4", fig4::render),
    ("fig5", fig5::render),
    ("fig6", fig6::render),
    ("fig7_8_9", fig7_8_9::render),
    ("fleet_snap", fleet_snap::render),
    ("hugepage", hugepage::render),
    ("smp", smp::render),
    ("table1", table1::render),
    ("table3", table3::render),
    ("table4", table4::render),
    ("table5", table5::render),
    ("table6", table6::render),
];
