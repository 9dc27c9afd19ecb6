//! `compare A.json B.json`: a verdict per (end-to-end metric × workload), a
//! diff of every exact count, and a non-zero exit on any regression, count
//! mismatch or higher share of failed operations. A is the parent, B the
//! change; for an A/A check both come from the same commit.

use crate::json::Value;
use crate::spec::{self, Better, END_TO_END, SETUP_FLOOR_S, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// Run-to-run spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub iqr: f64,
    pub n: f64,
}

impl Stat {
    fn read(v: &Value) -> Option<Stat> {
        let f = |k| v.get(k).and_then(Value::as_f64);
        Some(Stat {
            median: f("median")?,
            min: f("min")?,
            max: f("max")?,
            iqr: f("iqr")?,
            n: f("n")?,
        })
    }
}

/// `floor`: an absolute difference below which the cell is within bound
/// whatever the ratio says (set-up times of a few milliseconds).
pub fn verdict(better: Better, bound: f64, floor: f64, a: &Stat, b: &Stat) -> Verdict {
    if (b.median - a.median).abs() < floor {
        return Verdict::WithinBound;
    }
    let (worse_by, all_b_better) = match better {
        Better::Lower => ((b.median - a.median) / a.median, b.max < a.min),
        Better::Higher => ((a.median - b.median) / a.median, b.min > a.max),
    };
    // One sample (`peak_rss_mib`) says nothing about its spread; take the
    // bound for it, so that only a gain beyond the bound reads as improved.
    let spread = if a.n.min(b.n) < 2.0 {
        bound
    } else {
        (a.iqr / a.median).max(b.iqr / b.median).abs()
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound {
        // Too noisy to call, unless every B rep beats every A rep.
        if all_b_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if -worse_by > spread && all_b_better {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

pub struct Comparison {
    pub report: String,
    pub ok: bool,
}

pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let mut report = String::new();
    let mut ok = true;
    let layers = spec::per_layer();
    for w in &WORKLOADS {
        let side = |v: &Value, which: &str| {
            v.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .cloned()
                .ok_or_else(|| format!("{which}: no workload {:?}", w.name))
        };
        let (wa, wb) = (side(a, "A")?, side(b, "B")?);

        for e in &END_TO_END {
            let cell = |v: &Value, which: &str| {
                v.get("end_to_end")
                    .and_then(|m| m.get(e.name))
                    .and_then(Stat::read)
                    .ok_or_else(|| format!("{which}: {} has no {}", w.name, e.name))
            };
            let (sa, sb) = (cell(&wa, "A")?, cell(&wb, "B")?);
            let bound = spec::cell_bound(e.name, w.name);
            let floor = if e.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let v = verdict(e.better, bound, floor, &sa, &sb);
            ok &= v != Verdict::Regressed;
            report.push_str(&format!(
                "{:<13} {:<15} {:>14.6} -> {:>14.6} {:<4} {:+7.2}%  bound {:.0}%  {}\n",
                w.name,
                e.name,
                sa.median,
                sb.median,
                e.unit,
                (sb.median - sa.median) / sa.median * 100.0,
                bound * 100.0,
                v.as_str()
            ));
        }

        let count = |v: &Value, name: &str| {
            v.get("per_layer")
                .and_then(|m| m.get(name))
                .and_then(|l| l.get("value"))
                .and_then(Value::as_f64)
        };
        for l in layers.iter().filter(|l| l.exact) {
            let (ca, cb) = (count(&wa, &l.name), count(&wb, &l.name));
            if ca != cb {
                ok = false;
                report.push_str(&format!(
                    "{:<13} COUNT MISMATCH {}: {ca:?} -> {cb:?}\n",
                    w.name, l.name
                ));
            }
        }

        let failed_share = |v: &Value| {
            let f = |k| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            f("ops_failed") / f("ops_attempted").max(1.0)
        };
        let (fa, fb) = (failed_share(&wa), failed_share(&wb));
        if fb > fa {
            ok = false;
            report.push_str(&format!(
                "{:<13} MORE FAILED OPS: share {fa:.3} -> {fb:.3}\n",
                w.name
            ));
        }
    }
    report.push_str(if ok {
        "compare: no regression, every exact count identical\n"
    } else {
        "compare: FAILED (see REGRESSED / COUNT MISMATCH / MORE FAILED OPS above)\n"
    });
    Ok(Comparison { report, ok })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(median: f64, half_range: f64) -> Stat {
        Stat {
            median,
            min: median - half_range,
            max: median + half_range,
            iqr: half_range,
            n: 5.0,
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let a = stat(1.00, 0.005);
        let lower = |b: &Stat| verdict(Better::Lower, 0.05, 0.0, &a, b);
        assert_eq!(lower(&stat(1.02, 0.005)), Verdict::WithinBound);
        assert_eq!(lower(&stat(1.06, 0.005)), Verdict::Regressed);
        assert_eq!(lower(&stat(0.90, 0.005)), Verdict::Improved);
        // A small shift inside the spread is not an improvement.
        assert_eq!(lower(&stat(0.998, 0.005)), Verdict::WithinBound);
        // Spread wider than the bound: cannot tell, unless B wins every run.
        assert_eq!(lower(&stat(1.01, 0.08)), Verdict::Unresolved);
        let noisy_a = stat(1.00, 0.08);
        assert_eq!(
            verdict(Better::Lower, 0.05, 0.0, &noisy_a, &stat(0.60, 0.08)),
            Verdict::Improved
        );
        // Higher-is-better flips the sign.
        let r = stat(100.0, 0.5);
        assert_eq!(
            verdict(Better::Higher, 0.05, 0.0, &r, &stat(90.0, 0.5)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Higher, 0.05, 0.0, &r, &stat(110.0, 0.5)),
            Verdict::Improved
        );
        // A single sample has no spread of its own: small gains stay within
        // bound, only one beyond the bound is an improvement.
        let one = |median| Stat {
            n: 1.0,
            ..stat(median, 0.0)
        };
        assert_eq!(
            verdict(Better::Lower, 0.10, 0.0, &one(100.0), &one(99.9)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, 0.0, &one(100.0), &one(80.0)),
            Verdict::Improved
        );
        // Under the floor nothing regresses.
        let s = stat(0.002, 0.0001);
        assert_eq!(
            verdict(Better::Lower, 0.10, 0.020, &s, &stat(0.004, 0.0001)),
            Verdict::WithinBound
        );
    }
}
