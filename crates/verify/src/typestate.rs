//! The typestate engine: lifecycle protocols as state machines over call
//! events, checked by forward dataflow over the per-function CFGs
//! ([`crate::cfg`], [`crate::dataflow`]).
//!
//! A [`Protocol`] declares a [`Scope`] (which functions it runs over),
//! states (state 0 is the start), transitions keyed by [`EventPat`] (call
//! names, call-graph reachability, literal argument idents, match-arm
//! patterns, and two domain-specific shapes: SPSC ring pushes and PTE
//! downgrades), and exit [`Check`]s. The engine builds each function's CFG
//! once and runs every in-scope protocol over it: the powerset of protocol
//! states is a `u32` bitmask, joined (unioned) over CFG paths to a
//! fixpoint, so "some success path reaches the exit in state S" is one bit
//! test on the exit block's out-state.
//!
//! Findings carry a *protocol trace*: a breadth-first search over the
//! (block, event-position, state) product graph recovers the shortest
//! path from function entry to the offending exit, and every transition
//! along it becomes a [`crate::TraceStep`] (rendered under the finding in
//! the text report). Blocks guarded by a `mutate_*`
//! condition are fault-injection arms (the model's seeded mutations):
//! the transfer function kills all states through them, so deliberately
//! broken paths behind a knob are invisible — until a mutation driver
//! makes them unconditional, which is exactly how the seeded-mutation
//! cross-validation tests work (`tests/protocol_mutations.rs`).
//!
//! The protocols themselves are data in the rule table
//! ([`crate::rules::RULES`]); this module knows nothing about PML or TLBs
//! beyond the two domain-specific event shapes.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{FnItem, ParsedFile, NO_MATCH};
use crate::callgraph::{pattern_matches, CallGraph, ENTRY_POINTS};
use crate::cfg::{Cfg, Ev, ExitKind};
use crate::dataflow::forward;
use crate::lexer::{Tok, TokKind};
use crate::rules::violation_at;
use crate::{rule_info, TraceStep, Violation, SIM_CRATES};

/// Which functions a protocol runs over (always: non-test, with a body).
/// Crate names are directory names under `crates/`.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Every function of these crates.
    Any(&'static [&'static str]),
    /// Functions whose `(crate, name)` matches one of these pairs; a
    /// trailing `*` in the name is a prefix wildcard.
    FnNamed(&'static [(&'static str, &'static str)]),
    /// Functions of these crates whose body has a call whose name contains
    /// the substring (e.g. `phys_write` — the fn-level predicate that
    /// tells a PTE write-back from a value copy).
    BodyCallContains(&'static [&'static str], &'static str),
    /// The registered [`ENTRY_POINTS`], plus every `handle_*` function of
    /// a simulator crate reachable from them.
    EntryHandlers,
}

/// An event pattern over CFG events.
#[derive(Debug, Clone, Copy)]
pub enum EventPat {
    /// Call whose normalized name is one of these (no graph walk).
    CallNamed(&'static [&'static str]),
    /// Call whose name is, or transitively reaches (via
    /// [`CallGraph::names_reaching`]), a function with one of these names.
    CallReaching(&'static [&'static str]),
    /// Call named `names` whose argument tokens mention one of the
    /// `args` idents verbatim (e.g. `guest_vmwrite(.., Field::GuestPmlIndex, ..)`).
    CallWithArg {
        names: &'static [&'static str],
        args: &'static [&'static str],
    },
    /// Entry into a `match` arm whose pattern mentions this ident
    /// (constructing `Hypercall::X { .. }` in an expression is not an arm).
    ArmPattern(&'static str),
    /// `.push(..)` on a ring-named receiver (`ring` / `*_ring`),
    /// regardless of whether the overflow result is consumed.
    RingPushAny,
    /// Same, but only when the push result is discarded and no
    /// guard keyword shapes the statement (see [`ring_push`]).
    RingPushUnchecked,
    /// PTE teardown or downgrade: `Pte::empty()`, `.without(..)` naming one
    /// of the `cleared` flag idents, or `.with(..)` naming one of the `set`
    /// flag idents (write-protection is a downgrade even though it *adds*
    /// a bit).
    PteDestruction {
        cleared: &'static [&'static str],
        set: &'static [&'static str],
    },
}

/// An exit obligation: flag a success exit whose state set contains
/// `bad` — unless `unless` is also present, which downgrades the path
/// union to "every destructive path also saw the compensating event".
#[derive(Debug, Clone, Copy)]
pub struct Check {
    pub bad: u8,
    pub unless: Option<u8>,
    /// Judge `unless` over the union of *all* success exits instead of the
    /// exit at hand: the obligation is "the function gets there at all",
    /// not "every exit does". Such a finding blames the function — it
    /// anchors at the `fn` keyword when no event put the path in `bad`.
    pub whole_fn: bool,
    /// Finding message; `{fn}` expands to the function name, `{arm}` to
    /// the label of the match arm that put the path in `bad`.
    pub message: &'static str,
}

/// One lifecycle protocol. States are indices into `states` (≤ 32), state
/// 0 is the start; the engine runs the powerset bitmask forward over each
/// in-scope CFG.
#[derive(Debug)]
pub struct Protocol {
    /// Short machine name distinguishing protocols that share a rule id.
    pub name: &'static str,
    pub scope: Scope,
    pub states: &'static [&'static str],
    /// `(from, event, to)` — first matching transition wins; states with
    /// no matching transition are unchanged by the event.
    pub transitions: &'static [(u8, EventPat, u8)],
    pub checks: &'static [Check],
}

/// `CallReaching` leaf name → the names of every workspace fn from which
/// that leaf is reachable, resolved once per scan.
type ReachSets = BTreeMap<&'static str, BTreeSet<String>>;

/// Runs every `(rule id, protocol)` pair over every in-scope function.
pub fn check(
    protocols: &[(&'static str, &'static Protocol)],
    files: &[ParsedFile],
    graph: &CallGraph,
) -> Vec<Violation> {
    let mut reach = ReachSets::new();
    for (_, proto) in protocols {
        for (_, pat, _) in proto.transitions {
            if let EventPat::CallReaching(leaves) = pat {
                for &leaf in *leaves {
                    reach
                        .entry(leaf)
                        .or_insert_with(|| graph.names_reaching(leaf));
                }
            }
        }
    }
    let entry_handlers = entry_handlers(files, graph);
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            // Built on the first in-scope protocol, shared by the rest.
            let mut cfg = None;
            for &(rule, proto) in protocols {
                if !in_scope(proto, file, f, entry_handlers.contains(&(fi, gi))) {
                    continue;
                }
                let Some(cfg) = cfg.get_or_insert_with(|| Cfg::build(file, f)) else {
                    break;
                };
                run_protocol(rule, proto, &reach, file, f, cfg, &mut out);
            }
        }
    }
    out
}

/// The `(file, fn)` index pairs [`Scope::EntryHandlers`] covers.
fn entry_handlers(files: &[ParsedFile], graph: &CallGraph) -> BTreeSet<(usize, usize)> {
    graph
        .reachable_from_entries(files)
        .into_iter()
        .map(|id| &graph.nodes[id])
        .filter(|node| {
            let crate_name = files[node.file].crate_name.as_str();
            ENTRY_POINTS
                .iter()
                .any(|(c, p)| *c == crate_name && pattern_matches(p, &node.name))
                || (node.name.starts_with("handle_") && SIM_CRATES.contains(&crate_name))
        })
        .map(|node| (node.file, node.fn_idx))
        .collect()
}

fn in_scope(proto: &Protocol, file: &ParsedFile, f: &FnItem, entry_handler: bool) -> bool {
    let crate_name = file.crate_name.as_str();
    match proto.scope {
        Scope::Any(crates) => crates.contains(&crate_name),
        Scope::FnNamed(pairs) => pairs
            .iter()
            .any(|(c, p)| *c == crate_name && pattern_matches(p, &f.name)),
        Scope::BodyCallContains(crates, sub) => {
            let Some((lo, hi)) = file.body_inner(f) else {
                return false;
            };
            crates.contains(&crate_name)
                && file
                    .calls_in(lo, hi)
                    .iter()
                    .any(|c| file.toks[c.tok].name().contains(sub))
        }
        Scope::EntryHandlers => entry_handler,
    }
}

/// The per-(block, event) applicable transitions, precomputed so the
/// fixpoint's transfer function is a table walk.
type EventTrans = Vec<Vec<Vec<(u8, u8)>>>;

fn classify(proto: &Protocol, reach: &ReachSets, file: &ParsedFile, cfg: &Cfg) -> EventTrans {
    cfg.blocks
        .iter()
        .map(|b| {
            b.events
                .iter()
                .map(|ev| {
                    proto
                        .transitions
                        .iter()
                        .filter(|(_, pat, _)| event_matches(pat, reach, file, ev))
                        .map(|(from, _, to)| (*from, *to))
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn event_matches(pat: &EventPat, reach: &ReachSets, file: &ParsedFile, ev: &Ev) -> bool {
    match (pat, ev) {
        (EventPat::CallNamed(names), Ev::Call(tok)) => {
            names.contains(&file.toks[*tok].name())
        }
        (EventPat::CallReaching(leaves), Ev::Call(tok)) => leaves
            .iter()
            .any(|leaf| reach[leaf].contains(file.toks[*tok].name())),
        (EventPat::CallWithArg { names, args }, Ev::Call(tok)) => {
            names.contains(&file.toks[*tok].name()) && call_arg_mentions(file, *tok, args)
        }
        (EventPat::ArmPattern(ident), Ev::Arm { lo, hi }) => file.toks
            [*lo..(*hi).min(file.toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.name() == *ident),
        (EventPat::RingPushAny, Ev::Call(tok)) => ring_push(file, *tok).is_some(),
        (EventPat::RingPushUnchecked, Ev::Call(tok)) => ring_push(file, *tok) == Some(false),
        (EventPat::PteDestruction { cleared, set }, Ev::Call(tok)) => {
            let (toks, tok) = (&file.toks, *tok);
            match toks[tok].name() {
                "empty" => {
                    tok >= 3
                        && toks[tok - 1].is_punct(':')
                        && toks[tok - 2].is_punct(':')
                        && toks[tok - 3].is_ident("Pte")
                }
                "without" => call_arg_mentions(file, tok, cleared),
                "with" => call_arg_mentions(file, tok, set),
                _ => false,
            }
        }
        _ => false,
    }
}

/// Idents inside the call's `( .. )` argument group.
fn call_arg_mentions(file: &ParsedFile, tok: usize, args: &[&str]) -> bool {
    let open = tok + 1;
    if !file.toks.get(open).is_some_and(|t| t.is_open('(')) {
        return false;
    }
    let close = file.matching[open];
    if close == NO_MATCH {
        return false;
    }
    file.toks[open + 1..close]
        .iter()
        .any(|t| t.kind == TokKind::Ident && args.contains(&t.name()))
}

/// Classifies a `.push(..)` on a ring-shaped receiver. Returns `None`
/// when the call is not a ring push, else `Some(checked)`: the push is
/// *checked* when the statement consumes its overflow result — it sits
/// under `if`/`while`/`match`/an `assert`, is negated, or is bound by a
/// non-`_` `let`/assignment. The receiver must be named `ring` or end in
/// `_ring`, which keeps `String::push` and friends out.
fn ring_push(file: &ParsedFile, tok: usize) -> Option<bool> {
    let toks = &file.toks;
    if toks[tok].name() != "push" || tok < 2 || !toks[tok - 1].is_punct('.') {
        return None;
    }
    let recv = &toks[tok - 2];
    if recv.kind != TokKind::Ident {
        return None;
    }
    let rname = recv.name();
    if rname != "ring" && !rname.ends_with("_ring") {
        return None;
    }
    // Walk back over the receiver chain (`self.pml.ring.push` → `self`).
    let mut r = tok - 2;
    while r >= 2 && toks[r - 1].is_punct('.') && toks[r - 2].kind == TokKind::Ident {
        r -= 2;
    }
    // Scan the statement prefix (bounded) back to `;` / `{` / `}` / `=>`.
    let (mut has_kw, mut has_bang, mut has_let, mut has_underscore, mut has_eq) =
        (false, false, false, false, false);
    let mut j = r;
    let mut budget = 32;
    while j > 0 && budget > 0 {
        j -= 1;
        budget -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_open('{') || t.is_close('}') {
            break;
        }
        if t.is_punct('>') && j > 0 && toks[j - 1].is_punct('=') {
            break; // match-arm arrow
        }
        match t.kind {
            TokKind::Ident => {
                if t.is_ident("if") || t.is_ident("while") || t.is_ident("match")
                    || t.text.starts_with("assert") || t.text.starts_with("debug_assert")
                {
                    has_kw = true;
                } else if t.is_ident("let") {
                    has_let = true;
                } else if t.is_ident("_") {
                    has_underscore = true;
                }
            }
            TokKind::Punct if t.is_punct('!') => has_bang = true,
            TokKind::Punct if t.is_punct('=') => has_eq = true,
            _ => {}
        }
    }
    let checked = has_kw || has_bang || (has_let && !has_underscore) || (!has_let && has_eq);
    Some(checked)
}

/// The first token of the path a call is written through (`Pte` for
/// `Pte::empty(..)`) — where a finding on the call anchors. Method calls
/// and bare calls are their own head.
fn path_head(toks: &[Tok], mut tok: usize) -> usize {
    while tok >= 3
        && toks[tok - 1].is_punct(':')
        && toks[tok - 2].is_punct(':')
        && toks[tok - 3].kind == TokKind::Ident
    {
        tok -= 3;
    }
    tok
}

/// Applies a block's event transitions to a state mask, in event order.
fn apply_block(mask: u32, trans: &[Vec<(u8, u8)>]) -> u32 {
    let mut m = mask;
    for ev_trans in trans {
        if ev_trans.is_empty() {
            continue;
        }
        let mut next = 0u32;
        for s in 0..32u8 {
            if m & (1 << s) == 0 {
                continue;
            }
            let to = ev_trans
                .iter()
                .find(|(from, _)| *from == s)
                .map_or(s, |(_, to)| *to);
            next |= 1 << to;
        }
        m = next;
    }
    m
}

fn run_protocol(
    rule: &'static str,
    proto: &Protocol,
    reach: &ReachSets,
    file: &ParsedFile,
    f: &FnItem,
    cfg: &Cfg,
    out: &mut Vec<Violation>,
) {
    let trans = classify(proto, reach, file, cfg);
    // Skip functions that never produce a protocol event: the start state
    // rides through unchanged and exit checks on it would flag every
    // unrelated function. Scopes that pick functions by name mean it: a
    // `sched_out` or an entry handler with no event at all is the finding.
    let touches = trans.iter().flatten().any(|t| !t.is_empty());
    let by_name = matches!(proto.scope, Scope::FnNamed(_) | Scope::EntryHandlers);
    if !touches && !by_name {
        return;
    }
    let outs = forward(cfg, 1u32, |b, m| {
        if cfg.blocks[b].exempt {
            0
        } else {
            apply_block(*m, &trans[b])
        }
    });
    let exits: Vec<_> = cfg
        .blocks
        .iter()
        .enumerate()
        .filter_map(|(b, blk)| Some((b, blk.exit?)))
        .filter(|(b, exit)| exit.kind == ExitKind::Ok && outs[*b] != 0)
        .collect();
    let joined = exits.iter().fold(0, |m, (b, _)| m | outs[*b]);
    let mut seen: BTreeSet<(usize, usize, &'static str)> = BTreeSet::new();
    for &(b, exit) in &exits {
        for check in proto.checks {
            let compensated = if check.whole_fn { joined } else { outs[b] };
            if outs[b] & (1 << check.bad) == 0
                || check.unless.is_some_and(|u| compensated & (1 << u) != 0)
            {
                continue;
            }
            let steps = trace_path(proto, cfg, &trans, b, check.bad);
            // Anchor at the last transition into the bad state. When it
            // held from entry, blame the `return` that leaves with it — or
            // the function itself, for a fall-through exit (a closing
            // brace is no place for a finding) and for whole-fn verdicts.
            let entered = steps.iter().rev().find(|s| s.to == check.bad);
            let anchor = match entered {
                Some(s) => path_head(&file.toks, s.tok),
                None if check.whole_fn || file.toks[exit.site].is_close('}') => f.fn_tok,
                None => exit.site,
            };
            let t = &file.toks[anchor];
            if !seen.insert((t.line, t.col, check.message)) {
                continue;
            }
            let arm = entered
                .filter(|s| s.is_arm)
                .map_or_else(String::new, |s| arm_label(file, s.tok));
            let message = check
                .message
                .replace("{fn}", &f.name)
                .replace("{arm}", &arm);
            out.push(Violation {
                trace: render_trace(proto, file, f, &steps, exit.site, check.bad),
                ..violation_at(file, anchor, rule, message, rule_info(rule).help)
            });
        }
    }
}

/// One recovered protocol step: a state transition at `tok`.
#[derive(Clone, Copy)]
struct PathStep {
    tok: usize,
    from: u8,
    to: u8,
    is_arm: bool,
}

/// Shortest entry→(exit, bad) path over the (block, event-pos, state)
/// product graph, as the list of state transitions along it. BFS order is
/// deterministic (block/event/state indices only). Returns an empty list
/// when no concrete path exists (the abstraction joined facts the product
/// walk cannot witness) — the finding then anchors as if the bad state
/// had held from entry.
fn trace_path(
    proto: &Protocol,
    cfg: &Cfg,
    trans: &EventTrans,
    exit_block: usize,
    bad: u8,
) -> Vec<PathStep> {
    #[derive(Clone, Copy)]
    struct Node {
        block: usize,
        pos: usize,
        state: u8,
        parent: usize,
        cause: Option<PathStep>,
    }
    let n = cfg.blocks.len();
    let width = cfg.blocks.iter().map(|b| b.events.len() + 1).max().unwrap_or(1);
    let nstates = proto.states.len();
    let idx = |b: usize, p: usize, s: u8| (b * width + p) * nstates + s as usize;
    let mut visited = vec![false; n * width * nstates];
    let mut nodes: Vec<Node> = vec![Node {
        block: 0,
        pos: 0,
        state: 0,
        parent: usize::MAX,
        cause: None,
    }];
    visited[idx(0, 0, 0)] = true;
    let mut head = 0;
    let mut found = None;
    while head < nodes.len() {
        let cur = nodes[head];
        let blk = &cfg.blocks[cur.block];
        if cur.pos == blk.events.len() {
            if cur.block == exit_block && cur.state == bad {
                found = Some(head);
                break;
            }
            for &s in &blk.succs {
                if cfg.blocks[s].exempt {
                    continue;
                }
                if !visited[idx(s, 0, cur.state)] {
                    visited[idx(s, 0, cur.state)] = true;
                    nodes.push(Node {
                        block: s,
                        pos: 0,
                        state: cur.state,
                        parent: head,
                        cause: None,
                    });
                }
            }
        } else {
            let ev_trans = &trans[cur.block][cur.pos];
            let to = ev_trans
                .iter()
                .find(|(from, _)| *from == cur.state)
                .map_or(cur.state, |(_, to)| *to);
            if !visited[idx(cur.block, cur.pos + 1, to)] {
                visited[idx(cur.block, cur.pos + 1, to)] = true;
                let (tok, is_arm) = match blk.events[cur.pos] {
                    Ev::Call(t) => (t, false),
                    Ev::Arm { lo, .. } => (lo, true),
                };
                let from = cur.state;
                let cause = (to != from).then_some(PathStep {
                    tok,
                    from,
                    to,
                    is_arm,
                });
                nodes.push(Node {
                    block: cur.block,
                    pos: cur.pos + 1,
                    state: to,
                    parent: head,
                    cause,
                });
            }
        }
        head += 1;
    }
    let Some(mut at) = found else {
        return Vec::new();
    };
    let mut steps = Vec::new();
    while at != usize::MAX {
        steps.extend(nodes[at].cause);
        at = nodes[at].parent;
    }
    steps.reverse();
    steps
}

fn render_trace(
    proto: &Protocol,
    file: &ParsedFile,
    f: &FnItem,
    steps: &[PathStep],
    exit_site: usize,
    bad: u8,
) -> Vec<TraceStep> {
    let mut out = Vec::new();
    let head = &file.toks[f.fn_tok];
    out.push(TraceStep {
        line: head.line,
        col: head.col,
        note: format!(
            "`{}` entered — protocol '{}' starts in state '{}'",
            f.name, proto.name, proto.states[0]
        ),
    });
    for s in steps {
        let t = &file.toks[s.tok];
        let what = if s.is_arm {
            format!("matched arm `{}`", arm_label(file, s.tok))
        } else {
            format!("call `{}`", t.name())
        };
        out.push(TraceStep {
            line: t.line,
            col: t.col,
            note: format!(
                "{what} — state '{}' → '{}'",
                proto.states[s.from as usize], proto.states[s.to as usize]
            ),
        });
    }
    let e = &file.toks[exit_site];
    out.push(TraceStep {
        line: e.line,
        col: e.col,
        note: format!(
            "success exit reached in state '{}'",
            proto.states[bad as usize]
        ),
    });
    out
}

/// A readable label for a match-arm pattern starting at `lo`: its idents
/// joined with `::` (`PmlEvent::GuestBufferFull`).
fn arm_label(file: &ParsedFile, lo: usize) -> String {
    file.toks[lo..]
        .iter()
        .take_while(|t| !(t.is_punct('=') || t.is_open('{')))
        .filter(|t| t.kind == TokKind::Ident)
        .take(3)
        .map(|t| t.name().to_string())
        .collect::<Vec<_>>()
        .join("::")
}
