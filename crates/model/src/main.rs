//! `ooh-model` CLI: bounded-exhaustive interleaving checking of the OoH
//! protocols.
//!
//! * default: sweep every supported (scenario, technique) pair at the
//!   scenario's default depth and fail on the first property violation;
//! * `--self-validate`: arm each seeded mutation and prove the explorer
//!   catches it with a shrunk counterexample of at most ten steps;
//! * `--replay FILE`: re-run a serialized schedule and report its outcome.
//!
//! All output is deterministic (no wall-clock, no randomness): two runs of
//! the same binary print byte-identical reports, which CI checks.

#![allow(clippy::print_stdout)]

use ooh_core::Technique;
use ooh_model::{
    explore, replay, shrink, Counterexample, ExploreConfig, ModelConfig, Mutation, ReplayOutcome,
    Scenario, ScheduleFile, ShrinkOutcome, Step,
};
use std::process::ExitCode;

struct Args {
    depth: Option<usize>,
    technique: Option<Technique>,
    vcpus: u32,
    out: Option<std::path::PathBuf>,
    self_validate: bool,
    replay: Option<std::path::PathBuf>,
}

const USAGE: &str = "usage: ooh-model [--depth N] [--technique soft-dirty|ufd|spml|epml] \
[--vcpus N] [--out DIR] [--self-validate | --replay FILE]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        depth: None,
        technique: None,
        vcpus: 1,
        out: None,
        self_validate: false,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--depth" => {
                let v = it.next().ok_or("--depth needs a value")?;
                args.depth = Some(v.parse().map_err(|_| format!("bad depth {v:?}"))?);
            }
            "--technique" => {
                let v = it.next().ok_or("--technique needs a value")?;
                args.technique = Some(
                    ooh_model::technique_from_token(&v)
                        .ok_or(format!("unknown technique {v:?}"))?,
                );
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                args.out = Some(v.into());
            }
            "--vcpus" => {
                let v = it.next().ok_or("--vcpus needs a value")?;
                let n: u32 = v.parse().map_err(|_| format!("bad vcpu count {v:?}"))?;
                if n == 0 {
                    return Err("--vcpus must be at least 1".into());
                }
                args.vcpus = n;
            }
            "--self-validate" => args.self_validate = true,
            "--replay" => {
                let v = it.next().ok_or("--replay needs a value")?;
                args.replay = Some(v.into());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.self_validate && args.replay.is_some() {
        return Err("--self-validate and --replay are mutually exclusive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ooh-model: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Expected panics (debug-invariants assertions on mutated paths) are
    // caught and reported as violations; the default hook's stderr spew
    // would only obscure the deterministic report.
    std::panic::set_hook(Box::new(|_| {}));

    let result = if let Some(path) = &args.replay {
        run_replay(path)
    } else if args.self_validate {
        run_self_validate(&args)
    } else {
        run_sweep(&args)
    };
    match result {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("ooh-model: {e}");
            ExitCode::from(2)
        }
    }
}

fn format_schedule(steps: &[Step]) -> String {
    steps
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(" -> ")
}

fn write_counterexample(
    args: &Args,
    file_stem: &str,
    model: ModelConfig,
    cx: &Counterexample,
) -> Result<(), String> {
    let Some(dir) = &args.out else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let file = ScheduleFile {
        model,
        property: Some(cx.violation.to_string()),
        steps: cx.schedule.clone(),
    };
    let path = dir.join(format!("{file_stem}.sched"));
    std::fs::write(&path, file.serialize())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("      wrote {}", path.display());
    Ok(())
}

/// The supported (scenario, technique) pairs: every technique handles the
/// small shape; the near-full shape pre-fills a PML buffer, which only the
/// PML techniques have.
fn sweep_configs(vcpus: u32) -> Vec<ModelConfig> {
    let mut configs = Vec::new();
    for technique in Technique::ALL {
        configs.push(ModelConfig {
            technique,
            scenario: Scenario::Small,
            mutation: Mutation::None,
            vcpus,
        });
    }
    for technique in [Technique::Spml, Technique::Epml] {
        configs.push(ModelConfig {
            technique,
            scenario: Scenario::NearFull,
            mutation: Mutation::None,
            vcpus,
        });
    }
    configs
}

fn run_sweep(args: &Args) -> Result<bool, String> {
    println!("ooh-model: bounded-exhaustive interleaving check");
    match args.depth {
        Some(d) => println!("depth: {d}"),
        None => println!(
            "depth: default (small={}, near-full={})",
            Scenario::Small.default_depth(),
            Scenario::NearFull.default_depth()
        ),
    }
    if args.vcpus > 1 {
        println!("vcpus: {}", args.vcpus);
    }
    let mut checked = 0usize;
    let mut violations = 0usize;
    for model in sweep_configs(args.vcpus) {
        if let Some(t) = args.technique {
            if model.technique != t {
                continue;
            }
        }
        let depth = args.depth.unwrap_or(model.scenario.default_depth());
        let report = explore(&ExploreConfig { model, depth })
            .map_err(|e| format!("{}: {e}", model.label()))?;
        checked += 1;
        let s = report.stats;
        match report.counterexample {
            None => println!(
                "  {:<22} ok  nodes={} paths={} dedup={} sleep={} boots={}",
                model.label(),
                s.nodes,
                s.paths,
                s.dedup_hits,
                s.sleep_skips,
                s.boots
            ),
            Some(cx) => {
                violations += 1;
                println!("  {:<22} VIOLATION", model.label());
                println!("      schedule: {}", format_schedule(&cx.schedule));
                println!("      violation: {}", cx.violation);
                let shrunk = match shrink(&model, &cx.schedule).map_err(|e| e.to_string())? {
                    ShrinkOutcome::Shrunk {
                        schedule,
                        violation,
                    } => Counterexample { schedule, violation },
                    ShrinkOutcome::VanishedViolation => cx,
                };
                println!("      shrunk: {}", format_schedule(&shrunk.schedule));
                let mut stem = format!(
                    "violation-{}-{}",
                    model.scenario.token(),
                    ooh_model::technique_token(model.technique)
                );
                if model.vcpus > 1 {
                    stem.push_str(&format!("-smp{}", model.vcpus));
                }
                write_counterexample(args, &stem, model, &shrunk)?;
            }
        }
    }
    println!("result: {checked} configs checked, {violations} violations");
    Ok(violations == 0)
}

/// The three seeded protocol bugs and the shape each is detected in.
fn mutation_configs(vcpus: u32) -> [(Mutation, ModelConfig); 3] {
    [
        (
            Mutation::DropIpi,
            ModelConfig {
                technique: Technique::Epml,
                scenario: Scenario::NearFull,
                mutation: Mutation::DropIpi,
                vcpus,
            },
        ),
        (
            Mutation::ClearBeforeDrain,
            ModelConfig {
                technique: Technique::Epml,
                scenario: Scenario::Small,
                mutation: Mutation::ClearBeforeDrain,
                vcpus,
            },
        ),
        (
            Mutation::SkipDisableLogging,
            ModelConfig {
                technique: Technique::Epml,
                scenario: Scenario::Small,
                mutation: Mutation::SkipDisableLogging,
                vcpus,
            },
        ),
    ]
}

fn run_self_validate(args: &Args) -> Result<bool, String> {
    println!("ooh-model: mutation self-validation");
    let mut caught = 0usize;
    let total = mutation_configs(args.vcpus).len();
    for (mutation, model) in mutation_configs(args.vcpus) {
        let depth = args.depth.unwrap_or(model.scenario.default_depth());
        let label = format!("{} ({})", mutation.token(), model.label());
        let report = explore(&ExploreConfig { model, depth })
            .map_err(|e| format!("{label}: {e}"))?;
        let Some(cx) = report.counterexample else {
            println!("  {label}: NOT CAUGHT at depth {depth}");
            continue;
        };
        let shrunk = match shrink(&model, &cx.schedule).map_err(|e| e.to_string())? {
            ShrinkOutcome::Shrunk {
                schedule,
                violation,
            } => Counterexample { schedule, violation },
            ShrinkOutcome::VanishedViolation => {
                println!("  {label}: counterexample did not replay (shrinker)");
                continue;
            }
        };
        if shrunk.schedule.len() > 10 {
            println!(
                "  {label}: caught, but the shrunk schedule has {} steps (> 10): {}",
                shrunk.schedule.len(),
                format_schedule(&shrunk.schedule)
            );
            continue;
        }
        caught += 1;
        println!(
            "  {label}: caught in {} steps: {}",
            shrunk.schedule.len(),
            format_schedule(&shrunk.schedule)
        );
        println!("      violation: {}", shrunk.violation);
        write_counterexample(args, mutation.token(), model, &shrunk)?;
    }
    println!("result: {caught}/{total} mutations caught");
    Ok(caught == total)
}

fn run_replay(path: &std::path::Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let file = ScheduleFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "ooh-model: replaying {} ({} steps, mutation {})",
        path.display(),
        file.steps.len(),
        file.model.mutation.token()
    );
    if let Some(p) = &file.property {
        println!("  recorded property: {p}");
    }
    match replay(&file.model, &file.steps).map_err(|e| e.to_string())? {
        ReplayOutcome::Passed { applied, skipped } => {
            println!("  passed ({applied} steps applied, {skipped} skipped)");
            Ok(true)
        }
        ReplayOutcome::Violated { at, violation } => {
            println!("  violated at step {at} ({}): {violation}", file.steps[at]);
            Ok(false)
        }
    }
}
