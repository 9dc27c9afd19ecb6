//! Wall-clock benchmarks of the analyzer itself (host time): the cost of
//! a full workspace scan and of its layers (lex/parse, call graph, the
//! rule detectors). The committed numbers live in
//! `bench_results/verify_bench.txt`; CI's `verify` job re-runs this bench
//! so a rule that regresses the scan from milliseconds to seconds is
//! caught as a perf diff, not discovered when `cargo test -q` starts
//! crawling.
//!
//! The analyzer runs inside tier-1 (`tests/verify_lint.rs`) on every
//! `cargo test`, so its wall-clock *is* developer-loop latency.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use ooh_verify::ast::ParsedFile;
use ooh_verify::callgraph::CallGraph;

fn bench_layers(c: &mut Criterion) {
    let root = ooh_verify::workspace_root();
    let inputs = ooh_verify::collect_inputs(&root).expect("collect workspace sources");
    let parse = || -> Vec<ParsedFile> {
        inputs
            .iter()
            .map(|(cr, rel, src)| ParsedFile::parse(cr, rel, src))
            .collect()
    };
    let mut g = c.benchmark_group("verify_layers");

    g.bench_function("lex_parse_workspace", |b| {
        b.iter(|| black_box(parse().len()))
    });

    let parsed = parse();
    g.bench_function("callgraph_build", |b| {
        b.iter(|| black_box(CallGraph::build(&parsed).nodes.len()))
    });

    let graph = CallGraph::build(&parsed);
    g.bench_function("rule_detectors", |b| {
        b.iter(|| black_box(ooh_verify::rules::detect(&parsed, &graph).len()))
    });

    g.bench_function("full_scan", |b| {
        b.iter(|| {
            let report = ooh_verify::scan_files(&inputs, &ooh_verify::Allowlist::parse(""));
            black_box(report.files_scanned)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_layers);
criterion_main!(benches);
