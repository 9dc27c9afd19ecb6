//! Serialized counterexample schedules.
//!
//! A schedule file is plain text so it can live in the regression corpus
//! (`tests/model_corpus/`), be read in a code review, and be replayed with
//! `cargo run -p ooh-model -- --replay <file>`. Format:
//!
//! ```text
//! # free-form comments
//! technique = epml
//! scenario = near-full
//! mutation = drop-ipi
//! property = lost dirty page 0x7f0000001ff
//! step write-tracked 0
//! step deliver-ipi
//! step write-tracked 1
//! step fetch-dirty
//! ```
//!
//! `technique` and `scenario` are mandatory; `mutation` defaults to `none`;
//! `vcpus` defaults to 1 (and is only serialized when the model is
//! multi-vCPU, so single-core corpus files stay byte-stable); `property` is
//! informational (it records what the explorer saw — replay re-derives the
//! actual violation). Step tokens are defined by [`Step::token`] and carry
//! an argument only for the write steps.

use crate::explorer::ModelConfig;
use crate::session::{technique_from_token, technique_token, Mutation, Scenario, Step};

/// A parsed (or to-be-serialized) schedule file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleFile {
    pub model: ModelConfig,
    /// Human-readable description of the violation this schedule tripped.
    pub property: Option<String>,
    pub steps: Vec<Step>,
}

/// A schedule-file syntax error, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ScheduleFile {
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str("# ooh-model counterexample schedule\n");
        out.push_str("# replay: cargo run -p ooh-model -- --replay <this file>\n");
        out.push_str(&format!(
            "technique = {}\n",
            technique_token(self.model.technique)
        ));
        out.push_str(&format!("scenario = {}\n", self.model.scenario.token()));
        out.push_str(&format!("mutation = {}\n", self.model.mutation.token()));
        if self.model.vcpus != 1 {
            out.push_str(&format!("vcpus = {}\n", self.model.vcpus));
        }
        if let Some(p) = &self.property {
            out.push_str(&format!("property = {p}\n"));
        }
        for step in &self.steps {
            out.push_str(&format!("step {step}\n"));
        }
        out
    }

    pub fn parse(text: &str) -> Result<ScheduleFile, ParseError> {
        let mut technique = None;
        let mut scenario = None;
        let mut mutation = Mutation::None;
        let mut vcpus = 1u32;
        let mut property = None;
        let mut steps = Vec::new();
        let err = |line: usize, message: String| ParseError { line, message };

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("step ") {
                let mut parts = rest.split_whitespace();
                let token = parts
                    .next()
                    .ok_or_else(|| err(lineno, "missing step token".into()))?;
                let arg = match parts.next() {
                    Some(a) => Some(a.parse::<u64>().map_err(|_| {
                        err(lineno, format!("step argument {a:?} is not a number"))
                    })?),
                    None => None,
                };
                if parts.next().is_some() {
                    return Err(err(lineno, "trailing tokens after step".into()));
                }
                let step = Step::from_parts(token, arg)
                    .ok_or_else(|| err(lineno, format!("unknown step {line:?}")))?;
                steps.push(step);
            } else if let Some((key, value)) = line.split_once('=') {
                let (key, value) = (key.trim(), value.trim());
                match key {
                    "technique" => {
                        technique = Some(technique_from_token(value).ok_or_else(|| {
                            err(lineno, format!("unknown technique {value:?}"))
                        })?);
                    }
                    "scenario" => {
                        scenario = Some(Scenario::from_token(value).ok_or_else(|| {
                            err(lineno, format!("unknown scenario {value:?}"))
                        })?);
                    }
                    "mutation" => {
                        mutation = Mutation::from_token(value).ok_or_else(|| {
                            err(lineno, format!("unknown mutation {value:?}"))
                        })?;
                    }
                    "vcpus" => {
                        vcpus = value.parse::<u32>().ok().filter(|&n| n >= 1).ok_or_else(
                            || err(lineno, format!("bad vcpu count {value:?}")),
                        )?;
                    }
                    "property" => property = Some(value.to_string()),
                    other => {
                        return Err(err(lineno, format!("unknown header key {other:?}")));
                    }
                }
            } else {
                return Err(err(lineno, format!("unparseable line {line:?}")));
            }
        }

        let technique =
            technique.ok_or_else(|| err(0, "missing `technique =` header".into()))?;
        let scenario = scenario.ok_or_else(|| err(0, "missing `scenario =` header".into()))?;
        Ok(ScheduleFile {
            model: ModelConfig {
                technique,
                scenario,
                mutation,
                vcpus,
            },
            property,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooh_core::Technique;

    fn sample() -> ScheduleFile {
        ScheduleFile {
            model: ModelConfig {
                technique: Technique::Epml,
                scenario: Scenario::NearFull,
                mutation: Mutation::DropIpi,
                vcpus: 1,
            },
            property: Some("lost dirty page 0x7f00000001ff".to_string()),
            steps: vec![
                Step::WriteTracked(0),
                Step::DeliverIpi,
                Step::WriteTracked(1),
                Step::FetchDirty,
            ],
        }
    }

    #[test]
    fn serialize_parse_round_trip() {
        let f = sample();
        assert_eq!(ScheduleFile::parse(&f.serialize()).unwrap(), f);
        // Single-vCPU files never carry the header (corpus byte-stability).
        assert!(!f.serialize().contains("vcpus"));
    }

    #[test]
    fn vcpus_header_round_trips_and_defaults_to_one() {
        let mut f = sample();
        f.model.vcpus = 4;
        let text = f.serialize();
        assert!(text.contains("vcpus = 4"));
        assert_eq!(ScheduleFile::parse(&text).unwrap(), f);

        let parsed = ScheduleFile::parse("technique = spml\nscenario = small\n").unwrap();
        assert_eq!(parsed.model.vcpus, 1);
        let e = ScheduleFile::parse("technique = spml\nscenario = small\nvcpus = 0\n")
            .unwrap_err();
        assert!(e.message.contains("bad vcpu count"));
    }

    #[test]
    fn mutation_defaults_to_none_and_comments_are_ignored() {
        let f = ScheduleFile::parse(
            "# hi\ntechnique = spml\nscenario = small\n\nstep sched-out\nstep sched-in\n",
        )
        .unwrap();
        assert_eq!(f.model.mutation, Mutation::None);
        assert_eq!(f.steps, vec![Step::SchedOut, Step::SchedIn]);
        assert_eq!(f.property, None);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = ScheduleFile::parse("technique = epml\nscenario = small\nstep warp-ten\n")
            .unwrap_err();
        assert_eq!(e.line, 3);
        let e = ScheduleFile::parse("scenario = small\n").unwrap_err();
        assert!(e.message.contains("technique"));
        let e = ScheduleFile::parse("technique = EPML\nscenario = small\n").unwrap_err();
        assert!(e.message.contains("unknown technique"));
        let e = ScheduleFile::parse("technique = epml\nscenario = small\nstep fetch-dirty 3\n")
            .unwrap_err();
        assert!(e.message.contains("unknown step"));
    }
}
