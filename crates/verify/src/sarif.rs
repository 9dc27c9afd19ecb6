//! Structured output for [`crate::Report`]: SARIF 2.1.0, hand-rolled (this
//! crate is dependency-free by design).
//!
//! The emitter is deterministic: violations are already sorted by
//! `(path, line, rule, col)` when a report is built, rule metadata comes
//! from the static [`crate::RULES`] table in declaration order, and no
//! timestamps, absolute paths, or environment data are embedded — the
//! bytes depend only on the scanned sources. `tests/verify_lint.rs`
//! asserts the byte-identical-across-runs property for both formats (text
//! being [`crate::Violation`]'s `Display`).

use std::fmt::Write as _;

use crate::{Report, RULES};

/// JSON string escaping per RFC 8259: `"`, `\`, and control chars.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The report as SARIF 2.1.0: one run, the driver named `ooh-verify`, the
/// full [`RULES`] table as `tool.driver.rules` (so viewers can show rule
/// docs), and one `error`-level result per violation with its physical
/// location and the fix hint in the result's property bag.
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"ooh-verify\",\n");
    out.push_str("          \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n            {");
        let _ = write!(
            out,
            "\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"help\": {{\"text\": \"{}\"}}",
            escape_json(r.id),
            escape_json(r.summary),
            escape_json(r.help),
        );
        out.push('}');
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = RULES
            .iter()
            .position(|r| r.id == v.rule)
            .unwrap_or(RULES.len() - 1);
        out.push_str("\n        {");
        let _ = write!(
            out,
            "\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, ",
            escape_json(v.rule),
            rule_index,
            escape_json(&v.message),
        );
        let _ = write!(
            out,
            "\"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}, \"snippet\": {{\"text\": \"{}\"}}}}}}}}], ",
            escape_json(&v.path),
            v.line,
            v.col,
            escape_json(&v.excerpt),
        );
        // Protocol traces (typestate findings) become a codeFlow — the
        // step-by-step path viewers can walk — and relatedLocations so
        // plain SARIF consumers still surface every step.
        if !v.trace.is_empty() {
            out.push_str("\"codeFlows\": [{\"threadFlows\": [{\"locations\": [");
            for (j, s) in v.trace.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"location\": {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}, \"message\": {{\"text\": \"{}\"}}}}}}",
                    escape_json(&v.path),
                    s.line,
                    s.col,
                    escape_json(&s.note),
                );
            }
            out.push_str("]}]}], ");
            out.push_str("\"relatedLocations\": [");
            for (j, s) in v.trace.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}, \"message\": {{\"text\": \"{}\"}}}}",
                    escape_json(&v.path),
                    s.line,
                    s.col,
                    escape_json(&s.note),
                );
            }
            out.push_str("], ");
        }
        let _ = write!(
            out,
            "\"properties\": {{\"hint\": \"{}\"}}",
            escape_json(&v.hint),
        );
        out.push('}');
    }
    if report.violations.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n      ]\n");
    }
    out.push_str("    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;

    fn sample() -> Report {
        Report {
            files_scanned: 2,
            allowed: 1,
            violations: vec![Violation {
                rule: "cost-coverage",
                path: "crates/hypervisor/src/hypervisor.rs".to_string(),
                line: 10,
                col: 5,
                excerpt: "fn handle_x() { \"quote\\\" \t\" }".to_string(),
                message: "handler `handle_x` never charges the cost model".to_string(),
                hint: "charge the cost model".to_string(),
                trace: Vec::new(),
            }],
        }
    }

    fn traced() -> Report {
        let mut r = sample();
        r.violations[0].trace = vec![
            crate::TraceStep {
                line: 8,
                col: 5,
                note: "`handle_x` entered — protocol 'p' starts in state 's0'".to_string(),
            },
            crate::TraceStep {
                line: 10,
                col: 5,
                note: "success exit reached in state 's0'".to_string(),
            },
        ];
        r
    }

    #[test]
    fn sarif_structure_and_rule_index() {
        let s = to_sarif(&sample());
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"ooh-verify\""));
        assert!(s.contains("\"ruleId\": \"cost-coverage\""));
        let idx = RULES.iter().position(|r| r.id == "cost-coverage").unwrap();
        assert!(s.contains(&format!("\"ruleIndex\": {idx},")));
        assert!(s.contains("\"startLine\": 10"));
        assert!(s.contains("\"startColumn\": 5"));
        // Every rule is declared in the driver.
        for r in RULES {
            assert!(s.contains(&format!("\"id\": \"{}\"", r.id)), "{} missing", r.id);
        }
    }

    #[test]
    fn traces_render_as_code_flows_and_related_locations() {
        let s = to_sarif(&traced());
        assert!(s.contains("\"codeFlows\""), "{s}");
        assert!(s.contains("\"threadFlows\""));
        assert!(s.contains("\"relatedLocations\""));
        assert!(s.contains("starts in state"));
        // Traceless findings carry no codeFlows.
        assert!(!to_sarif(&sample()).contains("codeFlows"));
    }

    #[test]
    fn empty_report_is_valid_and_stable() {
        let empty = Report::default();
        let s = to_sarif(&empty);
        assert_eq!(s, to_sarif(&empty));
        assert!(s.contains("\"results\": []"));
    }
}
