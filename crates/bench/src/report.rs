//! Output conventions shared by every report: a rendered text table plus
//! one JSON line per row (prefixed `#json `), appended to the report's
//! buffer, so results are both human-readable and machine-checkable.
//!
//! Also the one trace mode: with `OOH_TRACE` set (to anything but empty or
//! `0`), [`boot`] installs an `ooh_trace::Tracer` before the first charge
//! and [`write_trace_artifacts`] drops the profile, folded stacks and
//! Chrome trace into `OOH_TRACE_OUT` (default `bench_results/`). Reports
//! that support it (`table5`, `fig3`) render the same bytes either way.

use crate::scenario::Stack;
use ooh_sim::SimCtx;
use ooh_trace::Tracer;
use serde::Serialize;
use std::fmt::{Display, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// Append one line of text (a report's `println!`).
pub fn line(out: &mut String, text: impl Display) {
    writeln!(out, "{text}").expect("writing to a String cannot fail");
}

/// Append the experiment header.
pub fn header(out: &mut String, id: &str, title: &str) {
    line(out, format_args!("== {id}: {title} =="));
}

/// Append one machine-readable row.
pub fn json_row<T: Serialize>(out: &mut String, row: &T) {
    let json = serde_json::to_string(row).expect("serializable row");
    line(out, format_args!("#json {json}"));
}

/// Append a scaling note once per experiment.
pub fn scaling_note(out: &mut String, note: &str) {
    line(out, format_args!("note: {note}"));
}

/// ns → milliseconds for display.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn trace_mode() -> bool {
    std::env::var_os("OOH_TRACE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Boot the default stack; in trace mode, with a tracer installed before
/// the first charge so the conservation invariant covers boot time too.
pub fn boot() -> (Stack, Option<Arc<Tracer>>) {
    if trace_mode() {
        let ctx = SimCtx::new();
        let tracer = Tracer::install(&ctx);
        (Stack::boot_with_ctx(8 * 1024, ctx), Some(tracer))
    } else {
        (Stack::boot(), None)
    }
}

/// Panic unless `stack`'s trace conserves every lane (no-op untraced).
pub fn check_conservation(id: &str, tracer: &Option<Arc<Tracer>>, stack: &Stack) {
    if let Some(t) = tracer {
        t.check_conservation(stack.ctx().clock())
            .unwrap_or_else(|e| panic!("{id}: trace conservation: {e:?}"));
    }
}

/// Write `<id>_profile.json`, `<id>.folded` and `<id>_chrome_trace.json`
/// into `OOH_TRACE_OUT`, with a notice on stderr (stdout stays the report).
pub fn write_trace_artifacts(id: &str, tracer: &Tracer) {
    let dir = std::env::var_os("OOH_TRACE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_results"));
    std::fs::create_dir_all(&dir).expect("create trace output dir");
    let rows_json = serde_json::to_string(&tracer.profile_rows()).expect("serialize profile");
    std::fs::write(dir.join(format!("{id}_profile.json")), rows_json).expect("write profile json");
    std::fs::write(dir.join(format!("{id}.folded")), tracer.folded()).expect("write folded stacks");
    std::fs::write(
        dir.join(format!("{id}_chrome_trace.json")),
        tracer.chrome_trace(),
    )
    .expect("write chrome trace");
    eprintln!(
        "{id}: trace cross-check passed; profile artifacts in {}",
        dir.display()
    );
}
