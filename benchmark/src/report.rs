//! What a measurement prints: one line per metric for people, a `#detail`
//! JSON line that `run` folds into the result file, and the one-object last
//! line the benchmark driver reads.

use crate::harness::{Bench, LayerValue, Measured};
use crate::json::Value;
use crate::spec::{self, END_TO_END};
use crate::stats::Summary;
use std::fmt::Write as _;

fn num(v: impl Into<f64>) -> Value {
    Value::Num(v.into())
}

fn summary_json(unit: &str, s: &Summary) -> Value {
    Value::obj([
        ("unit", Value::Str(unit.into())),
        ("median", num(s.median)),
        ("min", num(s.min)),
        ("max", num(s.max)),
        ("iqr", num(s.iqr)),
        ("n", num(s.n as f64)),
    ])
}

fn layer_json(l: &LayerValue) -> (String, Value) {
    (
        l.name.clone(),
        Value::obj([("value", num(l.value)), ("unit", Value::Str(l.unit.into()))]),
    )
}

/// Share of `wc_hot`'s measured wall time the hit ladder predicts:
/// (loads × `guest.read_u64_hit` + stores × `guest.write_u64_hit`) ÷ wall.
/// `None` for workloads that do not own the hit ladder.
pub fn ladder_coverage(m: &Measured) -> Option<f64> {
    let read = m.layer("guest.read_u64_hit.ns").filter(|&v| v > 0.0)?;
    let write = m.layer("guest.write_u64_hit.ns")?;
    let loads = m.layer("sim.events.guest_load")?;
    let stores = m.layer("sim.events.guest_store")?;
    let wall_ns = m.metric("wall_s")?.median * 1e9;
    Some((loads * read + stores * write) / wall_ns)
}

/// Everything one workload measured, for the result file.
pub fn detail(b: &dyn Bench, m: &Measured, seed: u64) -> Value {
    let mut pairs = vec![
        ("workload".to_string(), Value::Str(b.name().into())),
        ("seed".to_string(), num(seed as f64)),
        ("ops_attempted".to_string(), num(m.attempted as f64)),
        ("ops_failed".to_string(), num(m.failed as f64)),
        ("correct".to_string(), Value::Bool(m.correct())),
        (
            "failures".to_string(),
            Value::Arr(m.failures.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "sizes".to_string(),
            Value::obj(b.sizes().into_iter().map(|(k, v)| (k, num(v as f64)))),
        ),
        (
            "end_to_end".to_string(),
            Value::obj(m.end_to_end.iter().map(|(name, s)| {
                let unit = END_TO_END
                    .iter()
                    .find(|e| e.name == *name)
                    .map_or("", |e| e.unit);
                (*name, summary_json(unit, s))
            })),
        ),
    ];
    if let Some(layers) = &m.per_layer {
        pairs.push((
            "per_layer".to_string(),
            Value::obj(layers.iter().map(layer_json)),
        ));
    }
    if let Some(c) = ladder_coverage(m) {
        pairs.push(("ladder_coverage".to_string(), num(c)));
    }
    Value::Obj(pairs)
}

/// The driver's last line: exactly `correct`, `attempted`, `failed` and
/// `metrics` — every end-to-end metric untraced, every per-layer one traced.
pub fn contract_line(m: &Measured, traced: bool) -> Value {
    let metrics = if traced {
        Value::obj(m.per_layer.as_deref().unwrap_or(&[]).iter().map(layer_json))
    } else {
        Value::obj(END_TO_END.iter().filter_map(|e| {
            let s = m.metric(e.name)?;
            Some((
                e.name,
                Value::obj([
                    ("value", num(s.median)),
                    ("unit", Value::Str(e.unit.into())),
                ]),
            ))
        }))
    };
    Value::obj([
        ("correct", Value::Bool(m.correct())),
        ("attempted", num(m.attempted as f64)),
        ("failed", num(m.failed as f64)),
        ("metrics", metrics),
    ])
}

/// One line per metric, by name, with its unit.
pub fn human(b: &dyn Bench, m: &Measured) -> String {
    let w = b.name();
    let mut out = String::new();
    for e in &END_TO_END {
        if let Some(s) = m.metric(e.name) {
            let alias = if spec::native(e.name, w) {
                ""
            } else {
                "  (over the workload's primary unit)"
            };
            let _ = writeln!(
                out,
                "{w} {} = {:.6} {} (median of {}, min {:.6}, max {:.6}, iqr {:.6}){alias}",
                e.name, s.median, e.unit, s.n, s.min, s.max, s.iqr
            );
        }
    }
    for l in m.per_layer.iter().flatten() {
        let _ = writeln!(out, "{w} {} = {} {}", l.name, l.value, l.unit);
    }
    if let Some(c) = ladder_coverage(m) {
        let _ = writeln!(
            out,
            "{w} ladder coverage = {c:.3} (predicted / measured wall_s)"
        );
    }
    let _ = writeln!(
        out,
        "{w} ops_attempted = {} ops_failed = {}",
        m.attempted, m.failed
    );
    for f in &m.failures {
        let _ = writeln!(out, "{w} FAILED {f}");
    }
    out
}
