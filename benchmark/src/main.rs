//! Command line of the benchmark.
//!
//! ```text
//! ooh-benchmark run [--seed N] [--out FILE]      every workload, one child process each
//! ooh-benchmark list                             names, units, directions, bounds
//! ooh-benchmark compare A.json B.json            verdicts + exact-count diff
//! ooh-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                one workload in this process (driver contract)
//! ```

use ooh_benchmark::harness::{measure, Bench, Protocol};
use ooh_benchmark::json::{self, Value};
use ooh_benchmark::spec::{self, DEFAULT_SEED, END_TO_END, HIT_RUNGS, RUN_SECONDS, WORKLOADS};
use ooh_benchmark::{compare, report, spans, workloads};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Traces and default results go to `benchmark/out/` (git-ignored).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("list") => {
            list();
            Ok(true)
        }
        Some("compare") => compare_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => one_workload(&args),
        _ => Err(
            "usage: run [--seed N] [--out FILE] | list | compare A.json B.json | \
                  --workload W --seed N --seconds S --trace 0|1"
                .into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ooh-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs; every flag must be one of `known`.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for pair in args.chunks(2) {
        match pair {
            [name, value] if known.contains(&name.as_str()) => {
                out.push((name.clone(), value.clone()))
            }
            [name, ..] => return Err(format!("unknown or incomplete flag {name:?}")),
            [] => unreachable!("chunks are never empty"),
        }
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<Option<T>, String> {
    match flags.iter().find(|(n, _)| n == name) {
        None => Ok(None),
        Some((_, v)) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

/// The driver's entry point: measure one workload in this process and print
/// its result object as the last line of stdout.
fn one_workload(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = flag(&f, "--workload")?.ok_or("--workload is required")?;
    let seed = flag(&f, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = flag(&f, "--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let traced = match flag::<u8>(&f, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let bench = workloads::by_name(&name, false)
        .ok_or_else(|| format!("unknown workload {name:?}; try `list`"))?;

    let protocol = Protocol {
        seed,
        seconds,
        min_reps: bench.min_reps(),
        traced,
        fault: None,
    };
    let m = measure(bench.as_ref(), &protocol);
    if m.end_to_end.is_empty() || (traced && m.per_layer.is_none()) {
        return Err(format!("{name}: no rep succeeded: {:?}", m.failures));
    }
    if traced {
        let path = out_dir().join(format!("trace_{name}.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(&m.spans).render()));
        match written {
            Ok(()) => println!("{name} trace written to {}", path.display()),
            Err(e) => eprintln!("{name}: could not write {}: {e}", path.display()),
        }
    }
    print!("{}", report::human(bench.as_ref(), &m));
    println!(
        "#detail {}",
        report::detail(bench.as_ref(), &m, seed).render()
    );
    println!("{}", report::contract_line(&m, traced).render());
    Ok(true)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Enough about the machine and the tree for the file to reproduce itself.
fn header(seed: u64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let per_workload = |reps: fn(&dyn Bench) -> usize| {
        Value::obj(WORKLOADS.iter().filter_map(|w| {
            let b = workloads::by_name(w.name, false)?;
            Some((w.name, Value::Num(reps(b.as_ref()) as f64)))
        }))
    };
    Value::obj([
        ("benchmark", Value::Str("ooh-benchmark".into())),
        (
            "command",
            Value::Str("cargo run --release --manifest-path benchmark/Cargo.toml -- run".into()),
        ),
        ("nproc", Value::Num(rayon::default_threads() as f64)),
        ("cpu_model", Value::Str(cpu)),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Num(seed as f64)),
        (
            "fleet_threads",
            Value::Num(rayon::default_threads().min(2) as f64),
        ),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        ("warm_up_reps", Value::Num(1.0)),
        ("min_timed_reps", per_workload(|b| b.min_reps())),
        ("traced_reps", per_workload(|b| b.traced_reps())),
    ])
}

/// Run every workload, each in its own child process (so `peak_rss_mib` is
/// the workload's own and one load generator runs at a time), and write the
/// result file.
fn run(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["--seed", "--out"])?;
    let seed = flag(&f, "--seed")?.unwrap_or(DEFAULT_SEED);
    let out: PathBuf = flag(&f, "--out")?.unwrap_or_else(|| out_dir().join("result.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut results = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        println!("== {} ==", w.name);
        let child = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &seed.to_string()])
            .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let output = child
            .wait_with_output()
            .map_err(|e| format!("wait {}: {e}", w.name))?;
        if !output.status.success() {
            return Err(format!("{}: child exited with {}", w.name, output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut detail = None;
        for line in stdout.lines() {
            match line.strip_prefix("#detail ") {
                Some(d) => detail = Some(json::parse(d)?),
                // The child's driver-contract line is folded into the detail.
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        let detail = detail.ok_or_else(|| format!("{}: child printed no #detail line", w.name))?;
        ok &= detail.get("correct") == Some(&Value::Bool(true));
        ok &= sane(w.name, &detail);
        results.push((w.name, detail));
    }

    let result = Value::obj([("header", header(seed)), ("workloads", Value::obj(results))]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result written to {}", out.display());
    Ok(ok)
}

/// The ladder sanity checks a baseline must pass: every access-ladder rung at
/// least the rung below it, coverage in range, tracing overhead small.
fn sane(workload: &str, detail: &Value) -> bool {
    let layer = |name: &str| {
        detail
            .get("per_layer")
            .and_then(|m| m.get(name))
            .and_then(|l| l.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let mut ok = true;
    let mut check = |cond: bool, what: String| {
        if !cond {
            println!("{workload} SANITY FAILED: {what}");
            ok = false;
        }
    };
    let overhead = layer("trace.overhead_pct");
    check(
        overhead <= 5.0,
        format!("trace.overhead_pct = {overhead:.2} > 5"),
    );
    if workload == "wc_hot" {
        // (rung, the rung it calls): a caller cannot cost less than its
        // callee. `sim.charge` and `machine.tlb.lookup_hit` are sibling
        // leaves under `Mmu::access`, so neither is checked against the other.
        let calls = [
            ("machine.mmu.access_hit_load", "sim.charge"),
            ("machine.mmu.access_hit_load", "machine.tlb.lookup_hit"),
            ("machine.mmu.access_hit_store", "sim.charge"),
            ("machine.mmu.access_hit_store", "machine.tlb.lookup_hit"),
            (
                "hypervisor.guest_access_hit",
                "machine.mmu.access_hit_store",
            ),
            ("guest.access_hit", "hypervisor.guest_access_hit"),
            ("guest.read_u64_hit", "machine.mmu.access_hit_load"),
            ("guest.write_u64_hit", "guest.access_hit"),
            ("trace.write_u64_hit_sink", "guest.write_u64_hit"),
        ];
        debug_assert!(calls
            .iter()
            .all(|(a, b)| HIT_RUNGS.contains(a) && HIT_RUNGS.contains(b)));
        for (upper, lower) in calls {
            let (hi, lo) = (layer(&format!("{upper}.ns")), layer(&format!("{lower}.ns")));
            check(
                hi >= lo,
                format!("rung {upper} ({hi:.1} ns) is below {lower} ({lo:.1} ns), which it calls"),
            );
        }
        let coverage = detail
            .get("ladder_coverage")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        check(
            (0.5..=1.1).contains(&coverage),
            format!("ladder coverage {coverage:.3} outside 0.5..=1.1"),
        );
    }
    ok
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<13} {}", w.name, w.why);
    }
    println!("end-to-end metrics (name, unit, better, BENCHMARK.json bound; compare's per-workload bounds):");
    for e in &END_TO_END {
        let cells: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                let alias = if spec::native(e.name, w.name) {
                    ""
                } else {
                    "*"
                };
                format!("{}{alias}={:.2}", w.name, spec::cell_bound(e.name, w.name))
            })
            .collect();
        println!(
            "  {:<15} {:<4} {:<6} {:.2}   {}",
            e.name,
            e.unit,
            e.better.as_str(),
            e.bound,
            cells.join(" ")
        );
    }
    println!("  (* = rate over the workload's primary unit; see README)");
    println!("per-layer metrics (name, unit, better):");
    for l in spec::per_layer() {
        println!("  {:<36} {:<6} {}", l.name, l.unit, l.better.as_str());
    }
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|s| json::parse(&s))
    };
    let c = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", c.report);
    Ok(c.ok)
}
