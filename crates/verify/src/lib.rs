//! `ooh-verify`: a source-level lint pass for the OoH simulator workspace.
//!
//! The simulator's core promise is *determinism*: the same seeded scenario
//! must produce byte-identical event counters and stats on every run and on
//! every machine. The second promise is *architecture*: guest-side code never
//! touches host-physical memory directly, every vmexit/hypercall handler
//! charges the cost model, and the core simulation crates do not panic on
//! recoverable errors. Both promises are easy to break with a one-line diff
//! that compiles fine, so this crate enforces them as text-level rules that
//! run inside `cargo test -q` (see `tests/verify_lint.rs` at the workspace
//! root) and as a standalone binary (`cargo run -p ooh-verify`).
//!
//! The scanner is deliberately dependency-free and is one pipeline, each
//! stage a module of this crate:
//!
//! - [`lexer`] — a real Rust lexer producing a token stream with line/column
//!   spans; it understands raw strings, byte strings with escapes, nested
//!   block comments, and char-literal/lifetime ambiguity, so no rule can
//!   match inside documentation or message text;
//! - [`ast`] — a lightweight item parser: `fn` items with body token
//!   ranges, balanced-delimiter matching, `#[cfg(test)]` regions,
//!   call/method/macro sites;
//! - [`callgraph`] — a workspace-wide name-based call graph: the
//!   reachability closure behind "this call eventually charges the cost
//!   model", and the registered entry points (vmexit dispatch, hypercall
//!   table, tracker collect/drain, shootdown broadcasts);
//! - [`cfg`] — per-function control-flow graphs recovered from the token
//!   stream (branches, loops, match arms, early returns, success vs
//!   error-shaped exits);
//! - [`dataflow`] + [`typestate`] — a forward fixpoint with a lattice join
//!   over paths, and the engine that runs declarative lifecycle protocols
//!   (state machines over call events) on it; findings carry a step-by-step
//!   protocol trace;
//! - [`rules`] — the rule table: one entry per rule id with its metadata
//!   and its detector — a banned token sequence, a set of protocols, or a
//!   bespoke per-file matcher.
//!
//! The report is text: one [`Violation`] `Display` per finding, protocol
//! traces indented under it.
//!
//! It is still not rustc — the goal is catching honest regressions, not
//! adversarial obfuscation — but findings carry file/line/column spans,
//! rule documentation, and fix hints.
//!
//! False positives are suppressed two ways:
//! - an entry in `verify.allow` at the workspace root
//!   (`<rule> <path-suffix> [line-substring]`), or
//! - an inline `// ooh-verify: allow(<rule>)` marker on the offending line.
//!
//! Suppressions are themselves linted: the `stale-allow` rule fails the run
//! when a `verify.allow` entry or an inline marker no longer matches any
//! violation (dead exemptions hide future regressions), naming the line to
//! delete. The `feature-gate` rule checks that every debug-invariants hook
//! site keeps its body behind `ooh_machine::DEBUG_INVARIANTS`, so default
//! builds pay nothing for the shadow accounting.

#![forbid(unsafe_code)]

pub mod ast;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod lexer;
pub mod rules;
pub mod typestate;

pub use rules::{rule_info, RuleInfo, RULES};

use ast::ParsedFile;
use callgraph::CallGraph;

use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose non-test code must be deterministic: no wall-clock time, no
/// OS randomness, no iteration-order-dependent containers. Keyed by the
/// directory name under `crates/`.
pub const SIM_CRATES: &[&str] = &[
    "sim",
    "machine",
    "hypervisor",
    "guest",
    "core",
    "criu",
    "gc",
    "trace",
    "model",
];

/// Crates that model guest-side (non-root) software. They may only reach
/// physical memory through the hypervisor/machine API surface, never via the
/// `HostPhys` handle that `crates/machine` exposes to vmx-root code.
pub const GUEST_SIDE_CRATES: &[&str] = &["guest", "core", "criu", "gc", "secheap", "workloads", "model"];

/// Crates whose non-test code must not panic on recoverable errors.
pub const NO_PANIC_CRATES: &[&str] = &["core", "machine", "hypervisor", "model"];

/// Debug-invariants hook sites: functions whose whole body is shadow
/// accounting or invariant checking. Each must gate on
/// `ooh_machine::DEBUG_INVARIANTS` so default builds compile the body out
/// (the optimizer removes the `if false` arm). Names are exact; e.g. the
/// hypervisor's `note_guest_pte_dirty_cleared` wrapper merely delegates to
/// `note_guest_dirty_cleared` and is deliberately not listed.
pub const GATED_HOOKS: &[&str] = &[
    "note_hyp_dirty_logged",
    "note_hyp_dirty_cleared",
    "note_guest_dirty_logged",
    "note_guest_dirty_cleared",
    "shadow_reset_hyp",
    "shadow_reset_guest",
    "check_invariants",
    "check_write_fast_path",
    "check_step_invariants",
];

/// One step of a protocol trace: where a typestate transition happened
/// and what it did. Rendered under the finding in the text report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// 1-based line in the finding's file.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What happened here (`call `push` — state 'armed' → 'drained'`).
    pub note: String,
}

/// One lint hit, after allowlist filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier, one of the [`RuleInfo::id`]s in [`RULES`].
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// What went wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
    /// Protocol trace (protocol findings only; empty otherwise): the
    /// step-by-step path from function entry to the violating exit.
    pub trace: Vec<TraceStep>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.excerpt
        )?;
        for step in &self.trace {
            write!(f, "\n      {}:{}  {}", step.line, step.col, step.note)?;
        }
        Ok(())
    }
}

/// Result of a full workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    /// Hits suppressed by `verify.allow` or inline markers.
    pub allowed: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct AllowEntry {
    rule: String,
    path_suffix: String,
    /// If present, the raw source line must contain this substring.
    substring: Option<String>,
    /// 1-based line in `verify.allow` (for stale-entry reports).
    line: usize,
    /// The trimmed entry text, echoed back in stale-entry reports.
    text: String,
    /// Set when the entry suppresses at least one hit during a scan.
    used: Cell<bool>,
}

/// How a raw hit was (or was not) suppressed.
enum Permit {
    /// An inline `// ooh-verify: allow(<rule>)` marker on the line.
    Inline,
    /// A `verify.allow` entry (now marked used).
    Entry,
    /// Not suppressed — the hit is a violation.
    No,
}

/// Parsed `verify.allow`. Format, one entry per line:
///
/// ```text
/// # comment
/// <rule> <path-suffix> [line-substring...]
/// ```
///
/// `<rule>` may be `*` to allow every rule on matching lines. The path
/// matches if the workspace-relative path ends with `<path-suffix>`. The
/// optional substring (rest of the line, may contain spaces) must appear in
/// the raw source line for the entry to apply — this pins an exemption to a
/// specific call site instead of a whole file.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(rule), Some(suffix)) = (parts.next(), parts.next()) else {
                continue;
            };
            let substring = parts
                .next()
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from);
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path_suffix: suffix.to_string(),
                substring,
                line: idx + 1,
                text: line.to_string(),
                used: Cell::new(false),
            });
        }
        Allowlist { entries }
    }

    pub fn load(path: &Path) -> Allowlist {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        }
    }

    fn permit(&self, rule: &str, path: &str, raw_line: &str) -> Permit {
        // Inline marker always wins: `// ooh-verify: allow(<rule>)`.
        if raw_line.contains(&format!("ooh-verify: allow({rule})"))
            || raw_line.contains("ooh-verify: allow(all)")
        {
            return Permit::Inline;
        }
        for e in &self.entries {
            if (e.rule == rule || e.rule == "*")
                && path.ends_with(&e.path_suffix)
                && e.substring
                    .as_deref()
                    .is_none_or(|s| raw_line.contains(s))
            {
                e.used.set(true);
                return Permit::Entry;
            }
        }
        Permit::No
    }

    /// Entries that never suppressed a hit since parsing, as
    /// `(verify.allow line, entry text)` pairs. Meaningful after a full
    /// workspace scan; [`run`] turns them into `stale-allow` violations.
    pub fn stale_entries(&self) -> Vec<(usize, String)> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| (e.line, e.text.clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Per-file scan
// ---------------------------------------------------------------------------

/// Scans one source file in isolation. `crate_name` is the directory under
/// `crates/` (`"machine"`, `"sim"`, ...; the workspace-root package scans
/// as `"ooh"`), `rel_path` is workspace-relative with forward slashes.
/// Returns the violations after allowlist filtering, plus the count of
/// suppressed hits. The call graph covers only this one file — helpers
/// defined elsewhere look like leaves — so whole-workspace scans go through
/// [`scan_files`]/[`run`] instead.
pub fn scan_source(
    crate_name: &str,
    rel_path: &str,
    source: &str,
    allow: &Allowlist,
) -> (Vec<Violation>, usize) {
    let report = scan_files(
        &[(
            crate_name.to_string(),
            rel_path.to_string(),
            source.to_string(),
        )],
        allow,
    );
    (report.violations, report.allowed)
}

/// The scan pipeline over a set of `(crate_name, rel_path, source)` files:
///
/// 1. lex + parse every file ([`ast::ParsedFile`]);
/// 2. build the workspace [`CallGraph`] — cross-file helper calls resolve
///    here;
/// 3. run every rule's detector ([`rules::detect`]);
/// 4. deduplicate by `(rule, path, line, col)`, filter through the allowlist and
///    inline markers, report stale markers, and sort by
///    `(path, line, rule, col)`.
pub fn scan_files(inputs: &[(String, String, String)], allow: &Allowlist) -> Report {
    let parsed: Vec<ParsedFile> = inputs
        .iter()
        .map(|(crate_name, rel_path, source)| ParsedFile::parse(crate_name, rel_path, source))
        .collect();
    let graph = CallGraph::build(&parsed);
    let mut raw_hits = rules::detect(&parsed, &graph);
    sort_findings(&mut raw_hits);
    raw_hits.dedup_by(|a, b| {
        a.rule == b.rule && a.path == b.path && a.line == b.line && a.col == b.col
    });

    let mut report = Report {
        files_scanned: parsed.len(),
        ..Report::default()
    };
    // (path, line, rule) triples whose hit an inline marker suppressed —
    // consulted below to decide which markers are stale.
    let mut inline_used: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    for v in raw_hits {
        let line_text = parsed
            .iter()
            .find(|f| f.rel_path == v.path)
            .and_then(|f| f.source.lines().nth(v.line - 1))
            .unwrap_or("");
        match allow.permit(v.rule, &v.path, line_text) {
            Permit::Inline => {
                inline_used.insert((v.path.clone(), v.line, v.rule));
                report.allowed += 1;
            }
            Permit::Entry => report.allowed += 1,
            Permit::No => report.violations.push(v),
        }
    }
    for file in &parsed {
        for (line, tok) in inline_markers(file) {
            let used = inline_used
                .iter()
                .any(|(p, l, r)| p == &file.rel_path && *l == line && (tok == "all" || tok == *r));
            if !used {
                let message = format!(
                    "inline marker `allow({tok})` suppresses nothing on this line; remove it"
                );
                report.violations.push(stale_allow(
                    &file.rel_path,
                    line,
                    file.raw_line(line),
                    message,
                ));
            }
        }
    }
    sort_findings(&mut report.violations);
    report
}

/// A `stale-allow` finding on `line` of `path` (a source file's inline
/// marker, or a `verify.allow` entry).
fn stale_allow(path: &str, line: usize, excerpt: String, message: String) -> Violation {
    Violation {
        rule: "stale-allow",
        path: path.to_string(),
        line,
        col: 1,
        excerpt,
        message,
        hint: rule_info("stale-allow").help.to_string(),
        trace: Vec::new(),
    }
}

/// The report order the text output relies on for stability.
fn sort_findings(findings: &mut [Violation]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.col).cmp(&(b.path.as_str(), b.line, b.rule, b.col))
    });
}

/// Finds inline `// ooh-verify: allow(<rule>)` markers in non-test code, as
/// `(line, rule)` pairs. The parse is strict so that prose *about* markers
/// does not register: the rule token must be a known rule name (or `all`)
/// followed by a closing paren — `allow(<rule>)` placeholders in docs fail
/// this — and the marker must sit in a line comment (a `//` earlier on the
/// same line), so string literals that mention the syntax don't count.
fn inline_markers(file: &ParsedFile) -> Vec<(usize, String)> {
    const NEEDLE: &str = "ooh-verify: allow(";
    let is_rule_char = |c: char| c.is_alphanumeric() || c == '_' || c == '-';
    let mut out = Vec::new();
    let mut pos = 0; // char offset of the current line's start
    for (idx, line) in file.source.split('\n').enumerate() {
        let mut from = 0;
        while let Some(at) = line[from..].find(NEEDLE).map(|i| i + from) {
            let rest = &line[at + NEEDLE.len()..];
            let tok: String = rest.chars().take_while(|&c| is_rule_char(c)).collect();
            let valid = rest[tok.len()..].starts_with(')')
                && (tok == "all" || RULES.iter().any(|r| r.id == tok));
            let in_comment = line[..at].contains("//");
            let offset = pos + line[..at].chars().count();
            if valid && in_comment && !file.pos_in_test(offset) {
                out.push((idx + 1, tok));
            }
            from = at + NEEDLE.len();
        }
        pos += line.chars().count() + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Collects the scan inputs for the workspace rooted at `root` — `src/` of
/// the root package and every `crates/*/src/` tree, as deterministic
/// `(crate_name, rel_path, source)` triples. `tests/`, `benches/`, and
/// `examples/` directories are integration-test/bench code and exempt by
/// construction. Shared by [`run`] and the seeded-mutation driver tests
/// (which swap one file's source before scanning).
pub fn collect_inputs(root: &Path) -> io::Result<Vec<(String, String, String)>> {
    let mut targets: Vec<(String, PathBuf)> = vec![("ooh".to_string(), root.join("src"))];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<String> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        for name in names {
            let src = crates_dir.join(&name).join("src");
            if src.is_dir() {
                targets.push((name, src));
            }
        }
    }

    let mut inputs: Vec<(String, String, String)> = Vec::new();
    for (crate_name, dir) in targets {
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let source = fs::read_to_string(&path)?;
            inputs.push((crate_name.clone(), rel, source));
        }
    }
    Ok(inputs)
}

/// Scans the whole workspace rooted at `root` (see [`collect_inputs`] for
/// the file set), with `verify.allow` loaded from the root.
pub fn run(root: &Path) -> io::Result<Report> {
    let allow = Allowlist::load(&root.join("verify.allow"));
    let inputs = collect_inputs(root)?;
    let mut report = scan_files(&inputs, &allow);
    // An allow entry that matched nothing across the whole walk is dead
    // weight: it either outlived the code it exempted or never matched at
    // all (typo'd suffix/substring), and in both cases it could silently
    // exempt a *future* regression. Fail until it is pruned.
    for (line, text) in allow.stale_entries() {
        let message = format!("allow entry matches no current violation: `{text}`");
        report
            .violations
            .push(stale_allow("verify.allow", line, text, message));
    }
    sort_findings(&mut report.violations);
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root from this crate's own manifest directory
/// (`crates/verify` → two levels up). The binary and the integration tests
/// both use this, so `cargo run -p ooh-verify` works from any CWD.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(crate_name: &str, src: &str) -> Vec<Violation> {
        scan_source(crate_name, "crates/x/src/lib.rs", src, &Allowlist::default()).0
    }

    #[test]
    fn comments_and_literals_are_invisible_to_token_rules() {
        let src = "let x = \"HashMap\"; // HashMap here\n/* a /* HashSet */ b */ let y = 1;\n";
        assert!(scan("core", &format!("fn f() {{ {src} }}")).is_empty());
        let src = r####"fn f() { let s = r#"Instant "quoted" inside"#; let c = '"'; let l: &'static str = x; }"####;
        assert!(scan("sim", src).is_empty());
    }

    #[test]
    fn flags_instant_in_sim_crate() {
        let vs = scan("sim", "fn t() { let t0 = std::time::Instant::now(); }");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "det-time");
        assert_eq!(vs[0].line, 1);
    }

    #[test]
    fn ignores_instant_outside_sim_crates() {
        let vs = scan("bench", "fn t() { let t0 = std::time::Instant::now(); }");
        assert!(vs.is_empty());
    }

    #[test]
    fn flags_hashmap_but_not_in_tests() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { let _: HashMap<u8, u8>; }\n}\n";
        let vs = scan("machine", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 1);
    }

    #[test]
    fn cfg_test_fn_is_exempt() {
        let src = "#[cfg(test)]\nfn helper() { let m = std::collections::HashMap::new(); }\n\
                   fn live() { let s: std::collections::HashSet<u8> = Default::default(); }\n";
        let vs = scan("core", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "det-hash");
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn token_boundaries_respected() {
        // GuestHashMap is a workload engine name, not std's HashMap.
        let vs = scan("guest", "fn f(x: GuestHashMap) -> MyHashSetLike { x }");
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn flags_unordered_par_iter_in_sim_and_bench_crates() {
        // par_iter / into_par_iter / par_bridge are nondeterministic-merge
        // tokens; the ordered helper is the one blessed spelling.
        let vs = scan("sim", "fn f(v: &[u64]) { v.par_iter().for_each(|x| work(x)); }");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "det-par");
        let vs = scan("bench", "fn f(v: Vec<u64>) { v.into_par_iter().sum::<u64>(); }");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "det-par");
        let vs = scan("bench", "fn f(it: I) { it.par_bridge().count(); }");
        assert_eq!(vs.len(), 1, "{vs:?}");
        // The deterministic helper passes; `par_iter` inside a longer
        // identifier is not a hit.
        let vs = scan("bench", "fn f(v: &[u64]) { par_map_ordered(v, 8, |&x| x); }");
        assert!(vs.is_empty(), "{vs:?}");
        // Crates outside the simulation/bench set (e.g. the verifier
        // itself) are not covered by the rule.
        let vs = scan("verify", "fn f(v: &[u64]) { v.par_iter().count(); }");
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn flags_host_phys_in_guest_side_crates() {
        let vs = scan("core", "fn f(p: &mut HostPhys) {}");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "arch-phys");
        // The hypervisor runs in vmx-root mode; HostPhys is its job.
        let vs = scan("hypervisor", "fn f(p: &mut HostPhys) { p.charge(); }");
        assert!(vs.iter().all(|v| v.rule != "arch-phys"));
    }

    #[test]
    fn flags_unwrap_in_no_panic_crates() {
        let vs = scan("machine", "fn f() { x.unwrap(); y.expect(\"boom\"); }");
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs.iter().all(|v| v.rule == "arch-panic"));
        let vs = scan("workloads", "fn f() { x.unwrap(); }");
        assert!(vs.is_empty());
    }

    #[test]
    fn handler_without_charge_is_flagged() {
        let src = "impl H {\n    pub fn handle_pml_full(&mut self) -> R { self.drain() }\n}\n";
        let vs = scan("hypervisor", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "cost-coverage");
        let src = "impl H {\n    pub fn handle_pml_full(&mut self) -> R { self.ctx.charge(l, e); self.drain() }\n}\n";
        assert!(scan("hypervisor", src).is_empty());
    }

    #[test]
    fn shootdown_without_charge_is_flagged() {
        let src = "impl K {\n    pub fn shootdown_all(&self, hv: &mut Hypervisor) { self.flush(hv) }\n}\n";
        let vs = scan("guest", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "cost-coverage");
        assert!(vs[0].message.contains("shootdown_all"));
        let src = "impl K {\n    pub fn shootdown_page(&self, hv: &mut Hypervisor) { ctx.charge(l, Event::TlbShootdownIpi); }\n}\n";
        assert!(scan("guest", src).is_empty());
        // The strict tier is guest `shootdown_page`/`shootdown_all` only:
        // other crates may name helpers `shootdown_*` without being the
        // charging site.
        let src = "fn shootdown_flush_all(&mut self) { self.flush() }";
        assert!(scan("machine", src).is_empty());
    }

    #[test]
    fn hypercall_arm_without_charge_is_flagged() {
        let src = "fn hypercall(&mut self, c: Hypercall) {\n\
                   self.ctx.charge(l, Event::VmExit);\n\
                   match c {\n\
                       Hypercall::SpmlInit { gpa } => { self.ctx.charge(l, Event::Hypercall); self.init(gpa); }\n\
                       Hypercall::SpmlDeactivate => self.deactivate(),\n\
                   }\n}\n";
        let vs = scan("hypervisor", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("SpmlDeactivate"));
    }

    #[test]
    fn hypercall_construction_is_not_an_arm() {
        // Guest code *builds* Hypercall values; only hypervisor match arms
        // are checked, and construction followed by `)` or `,` is skipped.
        let src = "fn hypercall(&mut self, c: Hypercall) {\n\
                   let x = make(Hypercall::SpmlInit { gpa });\n\
                   match c { Hypercall::SpmlInit { gpa } => self.ctx.charge(l, e), }\n}\n";
        let vs = scan("hypervisor", src);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn allowlist_suppresses_by_suffix_and_substring() {
        let allow = Allowlist::parse(
            "# pinned exemption\n\
             arch-panic src/lib.rs shadowing_enabled implies shadow\n",
        );
        let src = "fn f() {\n    x.expect(\"shadowing_enabled implies shadow\");\n    y.expect(\"other\");\n}";
        let (vs, allowed) = scan_source("machine", "crates/x/src/lib.rs", src, &allow);
        assert_eq!(allowed, 1);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].excerpt.contains("other"));
    }

    #[test]
    fn inline_marker_suppresses() {
        let src = "fn f() { let m = std::collections::HashMap::new(); } // ooh-verify: allow(det-hash)";
        let (vs, allowed) =
            scan_source("core", "crates/core/src/x.rs", src, &Allowlist::default());
        assert!(vs.is_empty());
        assert_eq!(allowed, 1);
    }

    #[test]
    fn wildcard_rule_matches_any() {
        let allow = Allowlist::parse("* src/special.rs\n");
        let (vs, allowed) = scan_source(
            "core",
            "crates/core/src/special.rs",
            "fn f() { let t = std::time::Instant::now(); }",
            &allow,
        );
        assert!(vs.is_empty());
        assert_eq!(allowed, 1);
    }

    #[test]
    fn seeded_violation_in_real_tree_shape() {
        // The acceptance criterion: adding Instant::now() to crates/sim must
        // produce a non-empty report. Simulate by scanning the injected
        // source the way `run` would.
        let (vs, _) = scan_source(
            "sim",
            "crates/sim/src/lib.rs",
            "pub fn now() -> std::time::Instant { std::time::Instant::now() }",
            &Allowlist::default(),
        );
        assert!(!vs.is_empty());
        assert!(vs.iter().all(|v| v.rule == "det-time"));
    }

    #[test]
    fn stale_inline_marker_is_flagged() {
        // The marker names a real rule but nothing on the line trips it.
        let vs = scan("machine", "fn f() {} // ooh-verify: allow(det-hash)\n");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "stale-allow");
        assert_eq!(vs[0].line, 1);
        // Wrong-rule marker next to a real (suppressed-by-nothing) hit: the
        // det-time violation stands AND the det-hash marker is stale.
        let vs = scan(
            "machine",
            "fn f() { let t = std::time::Instant::now(); } // ooh-verify: allow(det-hash)\n",
        );
        let rules: Vec<_> = vs.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["det-time", "stale-allow"], "{vs:?}");
    }

    #[test]
    fn marker_prose_and_strings_do_not_parse_as_markers() {
        // `<rule>` placeholder in a doc comment: not a valid rule token.
        let vs = scan("machine", "// suppress with ooh-verify: allow(<rule>)\nfn f() {}\n");
        assert!(vs.is_empty(), "{vs:?}");
        // Marker text inside a string literal: no `//` before it.
        let vs = scan(
            "machine",
            "fn f() -> &'static str { \"ooh-verify: allow(all)\" }\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
        // Markers inside #[cfg(test)] regions are someone else's business.
        let vs = scan(
            "machine",
            "#[cfg(test)]\nmod tests {\n    fn f() {} // ooh-verify: allow(det-hash)\n}\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn unused_allow_entries_are_reported_stale() {
        let allow = Allowlist::parse(
            "# comment\n\
             arch-panic src/lib.rs boom\n\
             det-hash src/other.rs\n",
        );
        let src = "fn f() { x.expect(\"boom\"); }";
        let (vs, allowed) = scan_source("machine", "crates/x/src/lib.rs", src, &allow);
        assert!(vs.is_empty(), "{vs:?}");
        assert_eq!(allowed, 1);
        let stale = allow.stale_entries();
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].0, 3, "stale entry keeps its verify.allow line");
        assert!(stale[0].1.starts_with("det-hash"));
    }

    #[test]
    fn ungated_debug_hook_is_flagged() {
        let src = "impl T {\n    pub fn note_hyp_dirty_logged(&mut self, p: u64) { self.shadow.insert(p); }\n}\n";
        let vs = scan("machine", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "feature-gate");
        assert_eq!(vs[0].line, 2);
        assert!(vs[0].message.contains("note_hyp_dirty_logged"));
    }

    #[test]
    fn gated_debug_hook_passes() {
        let src = "impl T {\n    pub fn note_hyp_dirty_logged(&mut self, p: u64) {\n        if crate::DEBUG_INVARIANTS { self.shadow.insert(p); }\n    }\n}\n";
        assert!(scan("machine", src).is_empty());
        // Early-return style gates pass too (walker's fast-path check), and
        // so does the path other crates use.
        let src = "fn check_write_fast_path(&self) -> R {\n    if !crate::DEBUG_INVARIANTS { return Ok(()); }\n    self.deep_check()\n}\n";
        assert!(scan("machine", src).is_empty());
        let src = "fn check_step_invariants(&self) -> R {\n    if ooh_machine::DEBUG_INVARIANTS { self.p4()?; }\n    Ok(())\n}\n";
        assert!(scan("core", src).is_empty());
        // A raw feature gate, even on the right feature, does not count:
        // only the machine crate declares `debug-invariants`.
        let src = "fn shadow_reset_hyp(&mut self) { if cfg!(feature = \"debug-invariants\") { self.s.clear(); } }\n";
        let vs = scan("machine", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "feature-gate");
        // The name in a string or comment is not a gate.
        let src = "fn shadow_reset_guest(&mut self) { // DEBUG_INVARIANTS\n    log(\"DEBUG_INVARIANTS\"); self.s.clear(); }\n";
        let vs = scan("machine", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "feature-gate");
    }

    #[test]
    fn test_only_hook_helpers_are_exempt_from_feature_gate() {
        let src = "#[cfg(test)]\nmod tests {\n    fn check_invariants() { assert!(true); }\n}\n";
        assert!(scan("machine", src).is_empty());
    }

    #[test]
    fn real_workspace_is_clean() {
        let report = run(&workspace_root()).expect("workspace scan");
        assert!(report.files_scanned > 50, "scanned {}", report.files_scanned);
        assert!(
            report.is_clean(),
            "lint violations:\n{}",
            report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
