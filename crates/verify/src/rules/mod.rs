//! The rule table: one [`RuleInfo`] entry per rule id, holding its metadata
//! (id, one-line summary, fix hint) *and* its [`Detector`] — which crates
//! it covers and how it finds violations. There are three kinds of
//! detector, all over the same [`ParsedFile`] token stream:
//!
//! - [`Detector::Tokens`] — a banned token sequence (`HashMap`,
//!   `rand::random`, `.unwrap()`);
//! - [`Detector::PerFile`] — a bespoke matcher for a shape neither of the
//!   other two fits (`feature-gate`, `ordered-iter`);
//! - [`Detector::Protocols`] — lifecycle obligations as declarative
//!   [`Protocol`] state machines, run by the [`crate::typestate`] engine
//!   over each function's CFG.
//!
//! Adding a rule is adding an entry here (DESIGN.md §12 has the recipe).

pub mod order;

use crate::ast::{CallKind, ParsedFile};
use crate::callgraph::CallGraph;
use crate::lexer;
use crate::typestate::{self, Check, EventPat, Protocol, Scope};
use crate::{Violation, GATED_HOOKS, GUEST_SIDE_CRATES, NO_PANIC_CRATES, SIM_CRATES};

/// One lint rule: its identifier (used in `verify.allow` and inline
/// markers), a one-line summary for reports, a fix hint attached to every
/// finding the rule produces, and the detector that produces them.
#[derive(Debug)]
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub help: &'static str,
    pub detect: Detector,
}

/// How a rule finds its violations. Test code (`#[cfg(test)]` items) is
/// exempt under every detector.
#[derive(Debug)]
pub enum Detector {
    /// Banned token sequences in the listed crate sets (directory names
    /// under `crates/`), as `(needle, why)` pairs. A needle is lexed like
    /// source, so `HashMap` is a whole-ident match (`GuestHashMap` is
    /// fine), `rand::random` a path and `.unwrap()` a method call.
    Tokens {
        crates: &'static [&'static [&'static str]],
        needles: &'static [(&'static str, &'static str)],
    },
    /// A bespoke matcher, run over every file.
    PerFile(fn(&ParsedFile, &mut Vec<Violation>)),
    /// Lifecycle protocols checked per path by [`crate::typestate`].
    Protocols(&'static [Protocol]),
    /// Raised by the suppression bookkeeping in [`crate::scan_files`] and
    /// [`crate::run`], which is where stale exemptions become visible.
    Suppressions,
}

/// The four `SimCtx` charging entry points. They record an event but do
/// not call each other, so "charges the cost model" is reaching any one.
const CHARGES: &[&str] = &["charge", "charge_n", "charge_ns", "charge_n_ns"];

const SHOOTDOWNS: &[&str] = &["shootdown_page", "shootdown_all"];

/// The PML-shadow notification hooks.
const NOTIFY_HOOKS: &[&str] = &[
    "note_guest_pte_dirty_cleared",
    "note_guest_dirty_cleared",
    "note_hyp_dirty_cleared",
];

/// Free-slot / capacity probes that establish the ring-guard state.
const RING_PROBES: &[&str] = &[
    "free_slots",
    "guest_pml_free_slots",
    "hyp_pml_free_slots",
    "is_full",
    "has_space",
];

/// Every lint rule, in report order (SARIF `ruleIndex` is the position).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "det-time",
        summary: "simulator crates must not read wall-clock time (std::time::Instant/SystemTime)",
        help: "thread the scenario's simulated clock through instead of reading host time",
        detect: Detector::Tokens {
            crates: &[SIM_CRATES],
            needles: &[
                ("Instant", "wall-clock time via std::time::Instant breaks replayability"),
                ("SystemTime", "wall-clock time via SystemTime breaks replayability"),
            ],
        },
    },
    RuleInfo {
        id: "det-rand",
        summary: "simulator crates must not use OS randomness (thread_rng / rand::random)",
        help: "use the scenario's seeded PRNG so runs replay byte-identically",
        detect: Detector::Tokens {
            crates: &[SIM_CRATES],
            needles: &[
                ("thread_rng", "OS-seeded RNG; use the scenario's seeded PRNG"),
                ("rand::random", "OS-seeded RNG; use the scenario's seeded PRNG"),
            ],
        },
    },
    RuleInfo {
        id: "det-hash",
        summary: "simulator crates must not use HashMap/HashSet (iteration order is nondeterministic); use BTreeMap/BTreeSet",
        help: "switch the container to BTreeMap/BTreeSet, or justify a lookup-only map in verify.allow",
        detect: Detector::Tokens {
            crates: &[SIM_CRATES],
            needles: &[
                ("HashMap", "iteration order varies per process; use BTreeMap"),
                ("HashSet", "iteration order varies per process; use BTreeSet"),
            ],
        },
    },
    // Deterministic parallelism: the fan-out drivers (bench binaries) and
    // every simulation crate may only parallelize through an ordered merge
    // (`rayon::par_map_ordered`). The rayon-style unordered iterator tokens
    // all imply a merge order that depends on thread timing — exactly what
    // the byte-identical-output tests cannot tolerate.
    RuleInfo {
        id: "det-par",
        summary: "parallel maps in simulator/bench crates must merge deterministically (par_map_ordered); unordered par_iter-style reductions are banned",
        help: "route the fan-out through rayon::par_map_ordered so merge order is input order",
        detect: Detector::Tokens {
            crates: &[SIM_CRATES, &["bench"]],
            needles: &[
                ("par_iter", "unordered parallel iteration; use rayon::par_map_ordered (deterministic ordered merge)"),
                ("into_par_iter", "unordered parallel iteration; use rayon::par_map_ordered (deterministic ordered merge)"),
                ("par_bridge", "unordered parallel bridge; use rayon::par_map_ordered (deterministic ordered merge)"),
            ],
        },
    },
    RuleInfo {
        id: "arch-phys",
        summary: "guest-side crates must not touch HostPhys; physical memory is reached via the hypervisor API",
        help: "go through the hypervisor/machine API surface; only vmx-root code may hold HostPhys",
        detect: Detector::Tokens {
            crates: &[GUEST_SIDE_CRATES],
            needles: &[(
                "HostPhys",
                "guest-side code must go through the hypervisor API, not raw host-physical memory",
            )],
        },
    },
    // Two tiers, chosen per entry shape. *Strict* (every success exit is
    // charged) for the hypervisor's `handle_*` / `hypercall` bodies and the
    // guest's shootdown broadcasts; each `Hypercall::X => ..` arm of the
    // dispatcher re-arms the obligation, so "added a variant, forgot the
    // charge" is caught at the arm, not smeared over the whole function.
    // *Weak* (some success path reaches a charge at all) for every other
    // entry point — guest fault/IPI handlers, the tracker `collect`/
    // `drain_*` surface, the migration round surface — where charging
    // legitimately lives several calls down (pagemap walks, `record_round`)
    // and per-path precision would only manufacture noise. Error-shaped
    // exits are exempt in both: the simulator charges for work done.
    RuleInfo {
        id: "cost-coverage",
        summary: "every handler reachable from the vmexit/hypercall/tracker entry points must charge the cost model on all success paths",
        help: "charge the cost model (ctx.charge(lane, event)) on the uncovered path, or call a helper that does; suppress with verify.allow if the path is genuinely free",
        detect: Detector::Protocols(&[
            Protocol {
                name: "entry-reaches-charge",
                scope: Scope::EntryHandlers,
                states: &["uncharged", "charged"],
                transitions: &[(0, EventPat::CallReaching(CHARGES), 1)],
                checks: &[Check {
                    bad: 0,
                    unless: Some(1),
                    whole_fn: true,
                    message: "handler `{fn}` never charges the cost model, directly or through any callee — every entry-point path must account its cycles",
                }],
            },
            Protocol {
                name: "handler-charges-every-path",
                scope: Scope::FnNamed(&[
                    ("hypervisor", "hypercall"),
                    ("hypervisor", "handle_*"),
                    ("guest", "shootdown_page"),
                    ("guest", "shootdown_all"),
                ]),
                states: &["uncharged", "charged", "arm-uncharged"],
                transitions: &[
                    (0, EventPat::ArmPattern("Hypercall"), 2),
                    (1, EventPat::ArmPattern("Hypercall"), 2),
                    (0, EventPat::CallReaching(CHARGES), 1),
                    (2, EventPat::CallReaching(CHARGES), 1),
                ],
                checks: &[
                    Check {
                        bad: 0,
                        unless: None,
                        whole_fn: false,
                        message: "some success path through handler `{fn}` returns without charging the cost model",
                    },
                    Check {
                        bad: 2,
                        unless: None,
                        whole_fn: false,
                        message: "match arm for `{arm}` in `{fn}` never charges the cost model on some path",
                    },
                ],
            },
        ]),
    },
    // A *downgrade site* is a function that physically writes a PTE
    // (`*phys_write*` call) with a restricting value: `Pte::empty()`
    // (teardown), `.without(..)` clearing DIRTY/WRITABLE/SOFT_DIRTY, or
    // `.with(..)` setting UFFD_WP. `.without(Pte::UFFD_WP)` is the
    // *unprotect* direction — an upgrade — and is deliberately not
    // matched: stale-permissive entries are handled by the runtime
    // stale-allow discipline, not by mandatory flushes (paper §3: only
    // restricting transitions require eager invalidation, the lazy
    // direction may keep serving stale-but-safe translations).
    RuleInfo {
        id: "shootdown-complete",
        summary: "every PTE permission-downgrade/teardown site must reach a TLB shootdown",
        help: "call shootdown_page(gva) or shootdown_all() after the PTE write (directly or via a helper), or allowlist with a comment explaining why no other core can hold this translation",
        detect: Detector::Protocols(&[Protocol {
            name: "downgrade-shootdown",
            scope: Scope::BodyCallContains(SIM_CRATES, "phys_write"),
            states: &["coherent", "stale", "shot-down"],
            transitions: &[
                (0, EventPat::CallReaching(SHOOTDOWNS), 2),
                (
                    0,
                    EventPat::PteDestruction {
                        cleared: &["DIRTY", "WRITABLE", "SOFT_DIRTY"],
                        set: &["UFFD_WP"],
                    },
                    1,
                ),
                (1, EventPat::CallReaching(SHOOTDOWNS), 2),
            ],
            checks: &[Check {
                bad: 1,
                unless: Some(2),
                whole_fn: true,
                message: "PTE downgrade in `{fn}` never reaches a TLB shootdown — remote cores may keep using the old translation",
            }],
        }]),
    },
    RuleInfo {
        id: "arch-panic",
        summary: "core/machine/hypervisor non-test code must not unwrap()/expect(); return errors instead",
        help: "propagate with `?` or map the error; panics in the simulation core abort whole experiment sweeps",
        detect: Detector::Tokens {
            crates: &[NO_PANIC_CRATES],
            needles: &[
                (".unwrap()", "propagate the error instead of panicking"),
                (".expect(", "propagate the error instead of panicking"),
            ],
        },
    },
    RuleInfo {
        id: "ordered-iter",
        summary: "iteration over unordered containers must not flow into output, counters, or trace emission",
        help: "sort the keys first, rebuild through a BTreeMap/BTreeSet, or use par_map_ordered",
        detect: Detector::PerFile(order::check),
    },
    RuleInfo {
        id: "spml-pairing",
        summary: "every success path through the guest's sched-out must disable dirty logging (SPML DisableLogging hypercall / EPML control vmwrite)",
        help: "make every sched-out return path reach disable_logging (or the DisableLogging hypercall / EpmlControl vmwrite); a vCPU descheduled with logging enabled leaks PML state into the next tenant",
        detect: Detector::Protocols(&[Protocol {
            name: "sched-out-disables",
            scope: Scope::FnNamed(&[("guest", "sched_out")]),
            states: &["enabled", "disabled"],
            transitions: &[
                (0, EventPat::CallReaching(&["disable_logging"]), 1),
                (
                    0,
                    EventPat::CallWithArg {
                        names: &["hypercall"],
                        args: &["DisableLogging"],
                    },
                    1,
                ),
                (
                    0,
                    EventPat::CallWithArg {
                        names: &["guest_vmwrite", "vmwrite"],
                        args: &["EpmlControl"],
                    },
                    1,
                ),
            ],
            checks: &[Check {
                bad: 0,
                unless: None,
                whole_fn: false,
                message: "sched-out path leaves dirty logging enabled: `{fn}` can return without reaching DisableLogging",
            }],
        }]),
    },
    // Two halves. Index: once `GuestPmlIndex` has been read (a drain
    // began), writing it back while no entry was copied or notified loses
    // logged pages. D bit: a path that destroys the architectural dirty
    // bit (`Pte::empty()`, `.without(DIRTY)` — `SOFT_DIRTY` is software
    // state with no PML shadow) in a phys-writing function must also carry
    // a `note_*_dirty_cleared` notify, before or after, so the PML-based
    // trackers cannot silently lose a transition the page tables no longer
    // remember (the PR 5 munmap bug as a static finding).
    RuleInfo {
        id: "drain-before-clear",
        summary: "PML state must be drained before it is destroyed: no GuestPmlIndex reset before the entries are copied out, and no D-bit destruction without a note_*_dirty_cleared notify on the path",
        help: "copy the logged entries (ring push / dirty-notify) before resetting GuestPmlIndex, and pair PTE D-bit destruction with note_*_dirty_cleared so the PML shadow tracks the transition",
        detect: Detector::Protocols(&[
            Protocol {
                name: "pml-index-order",
                scope: Scope::Any(&["guest"]),
                states: &["idle", "armed", "drained", "cleared-early"],
                transitions: &[
                    (
                        0,
                        EventPat::CallWithArg {
                            names: &["guest_vmread", "vmread"],
                            args: &["GuestPmlIndex"],
                        },
                        1,
                    ),
                    (1, EventPat::RingPushAny, 2),
                    (1, EventPat::CallReaching(NOTIFY_HOOKS), 2),
                    (
                        1,
                        EventPat::CallWithArg {
                            names: &["guest_vmwrite", "vmwrite"],
                            args: &["GuestPmlIndex"],
                        },
                        3,
                    ),
                ],
                checks: &[Check {
                    bad: 3,
                    unless: Some(2),
                    whole_fn: false,
                    message: "`{fn}` resets GuestPmlIndex before draining: logged entries on this path are lost",
                }],
            },
            Protocol {
                name: "dbit-notify",
                scope: Scope::BodyCallContains(SIM_CRATES, "phys_write"),
                states: &["clean", "pending-notify", "notified"],
                transitions: &[
                    (0, EventPat::CallReaching(NOTIFY_HOOKS), 2),
                    (
                        0,
                        EventPat::PteDestruction {
                            cleared: &["DIRTY"],
                            set: &[],
                        },
                        1,
                    ),
                    (1, EventPat::CallReaching(NOTIFY_HOOKS), 2),
                ],
                checks: &[Check {
                    bad: 1,
                    unless: Some(2),
                    whole_fn: false,
                    message: "`{fn}` destroys PTE dirty bits but no path carries a note_*_dirty_cleared notify: the PML shadow misses the transition",
                }],
            },
        ]),
    },
    RuleInfo {
        id: "ring-guard",
        summary: "SPSC ring pushes must be dominated by a free-slot probe or consume the overflow result",
        help: "check free_slots()/is_full() first, or branch on the push's boolean overflow result and count the drop",
        detect: Detector::Protocols(&[Protocol {
            name: "spsc-overflow-guard",
            scope: Scope::Any(SIM_CRATES),
            states: &["unguarded", "guarded", "overflow-risk"],
            transitions: &[
                (0, EventPat::CallNamed(RING_PROBES), 1),
                (0, EventPat::RingPushUnchecked, 2),
            ],
            checks: &[Check {
                bad: 2,
                unless: None,
                whole_fn: false,
                message: "unguarded ring push in `{fn}`: the overflow result is discarded and no free-slot probe dominates it",
            }],
        }]),
    },
    RuleInfo {
        id: "ipi-on-full",
        summary: "the hypervisor's GuestBufferFull dispatch arm must post the EPML self-IPI before returning",
        help: "post_interrupt(.., EPML_SELF_IPI_VECTOR) inside the GuestBufferFull arm; without the self-IPI the guest never learns its PML buffer filled",
        detect: Detector::Protocols(&[Protocol {
            name: "epml-self-ipi",
            scope: Scope::Any(&["hypervisor"]),
            states: &["idle", "must-post-ipi"],
            transitions: &[
                (0, EventPat::ArmPattern("GuestBufferFull"), 1),
                (1, EventPat::CallReaching(&["post_interrupt"]), 0),
            ],
            checks: &[Check {
                bad: 1,
                unless: None,
                whole_fn: false,
                message: "`{fn}` enters the GuestBufferFull arm but can return without posting the EPML self-IPI (post_interrupt)",
            }],
        }]),
    },
    // A guest function that demotes a huge mapping (reaches
    // `demote_guest_region`) must both broadcast a TLB shootdown and bump
    // the process map generation before any success return (DESIGN.md §14).
    RuleInfo {
        id: "demote-before-log",
        summary: "every huge-page demotion site must broadcast a TLB shootdown and bump the process map generation before returning",
        help: "after demote_guest_region, reach shootdown_page/shootdown_all (other cores hold the stale 2M translation) and bump_map_generation (GPA→GVA reverse-map caches were built against the huge layout)",
        detect: Detector::Protocols(&[Protocol {
            name: "demote-shootdown-generation",
            scope: Scope::BodyCallContains(&["guest"], "demote_guest_region"),
            states: &["idle", "demoted", "shot-down", "bumped", "done"],
            transitions: &[
                (0, EventPat::CallReaching(&["demote_guest_region"]), 1),
                (1, EventPat::CallReaching(SHOOTDOWNS), 2),
                (1, EventPat::CallReaching(&["bump_map_generation"]), 3),
                (2, EventPat::CallReaching(&["bump_map_generation"]), 4),
                (3, EventPat::CallReaching(SHOOTDOWNS), 4),
            ],
            checks: &[
                Check {
                    bad: 1,
                    unless: Some(4),
                    whole_fn: false,
                    message: "`{fn}` demotes a huge mapping but can return without a TLB shootdown or a map-generation bump: other cores keep the stale 2M translation and reverse-map caches go stale",
                },
                Check {
                    bad: 2,
                    unless: Some(4),
                    whole_fn: false,
                    message: "`{fn}` demotes a huge mapping and shoots the TLB down but never bumps the map generation: GPA\u{2192}GVA reverse-map caches built against the huge layout stay live",
                },
                Check {
                    bad: 3,
                    unless: Some(4),
                    whole_fn: false,
                    message: "`{fn}` demotes a huge mapping and bumps the map generation but never broadcasts a shootdown: another core's TLB still translates through the replaced 2M entry",
                },
            ],
        }]),
    },
    RuleInfo {
        id: "stale-allow",
        summary: "every verify.allow entry and inline allow marker must still match a violation; prune dead exemptions",
        help: "remove the dead suppression, or run `cargo run -p ooh-verify -- --prune-stale`",
        detect: Detector::Suppressions,
    },
    RuleInfo {
        id: "feature-gate",
        summary: "debug-invariants hook bodies must stay behind cfg!(feature = \"debug-invariants\")",
        help: "wrap the hook body in `if cfg!(feature = \"debug-invariants\") { .. }` so release builds compile it out",
        detect: Detector::PerFile(feature_gate),
    },
];

/// The [`RuleInfo`] for `id` (`stale-allow`'s entry when unknown, which
/// cannot happen for violations produced by this crate).
pub fn rule_info(id: &str) -> &'static RuleInfo {
    let find = |id: &str| RULES.iter().find(|r| r.id == id);
    find(id)
        .or_else(|| find("stale-allow"))
        .expect("the rule table has a stale-allow entry")
}

/// Runs every rule's detector over the parsed workspace and returns the
/// raw hits (unsorted, before suppression).
pub fn detect(files: &[ParsedFile], graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut protocols = Vec::new();
    for rule in RULES {
        match &rule.detect {
            Detector::Tokens { crates, needles } => {
                let covered = |f: &&ParsedFile| {
                    crates
                        .iter()
                        .any(|set| set.contains(&f.crate_name.as_str()))
                };
                for (needle, why) in *needles {
                    let pat = lexer::lex(needle);
                    // A needle ending in an open call paren reads closed:
                    // `.expect()`.
                    let close = if needle.ends_with('(') { ")" } else { "" };
                    for file in files.iter().filter(covered) {
                        for i in token_runs(file, &pat) {
                            let message =
                                format!("`{needle}{close}` in crate `{}`: {why}", file.crate_name);
                            out.push(violation_at(file, i, rule.id, message, rule.help));
                        }
                    }
                }
            }
            Detector::PerFile(detect) => files.iter().for_each(|f| detect(f, &mut out)),
            Detector::Protocols(protos) => protocols.extend(protos.iter().map(|p| (rule.id, p))),
            Detector::Suppressions => {}
        }
    }
    out.extend(typestate::check(&protocols, files, graph));
    out
}

/// Token indices where a non-test run of `file`'s tokens matches the lexed
/// needle `pat` kind-for-kind and text-for-text.
fn token_runs<'a>(file: &'a ParsedFile, pat: &'a [lexer::Tok]) -> impl Iterator<Item = usize> + 'a {
    file.toks
        .windows(pat.len())
        .enumerate()
        .filter(move |(i, run)| {
            let same = |(t, p): (&lexer::Tok, &lexer::Tok)| t.kind == p.kind && t.text == p.text;
            !file.in_test[*i] && run.iter().zip(pat).all(same)
        })
        .map(|(i, _)| i)
}

/// `feature-gate`: every function named in [`GATED_HOOKS`] must keep its
/// body behind `cfg!(feature = "debug-invariants")`. The check is two-part
/// because literal tokens carry no contents: the body must contain a
/// `cfg!` macro token (the gate exists) and the *raw* body text must
/// contain the `debug-invariants` feature name (it gates on the right
/// feature).
fn feature_gate(file: &ParsedFile, out: &mut Vec<Violation>) {
    let rule = rule_info("feature-gate");
    for f in &file.fns {
        if f.in_test || !GATED_HOOKS.contains(&f.name.as_str()) {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let has_cfg = file
            .calls_in(open + 1, close)
            .iter()
            .any(|c| c.kind == CallKind::Macro && file.toks[c.tok].text == "cfg");
        let lo = file.toks[open].pos;
        let hi = file.toks[close].pos + 1;
        let raw_body: String = file.source.chars().skip(lo).take(hi - lo).collect();
        if !(has_cfg && raw_body.contains("debug-invariants")) {
            let message = format!(
                "debug hook `{}` must gate its body behind cfg!(feature = \"debug-invariants\")",
                f.name
            );
            out.push(violation_at(file, f.fn_tok, rule.id, message, rule.help));
        }
    }
}

/// Builds a [`crate::Violation`] anchored at token `tok` of `file`.
pub fn violation_at(
    file: &ParsedFile,
    tok: usize,
    rule: &'static str,
    message: String,
    hint: &str,
) -> Violation {
    let t = &file.toks[tok];
    Violation {
        rule,
        path: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        excerpt: file.raw_line(t.line),
        message,
        hint: hint.to_string(),
        trace: Vec::new(),
    }
}

#[cfg(test)]
mod tests;
