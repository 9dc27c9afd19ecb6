//! `ordered-iter`: iteration over an unordered container must not flow
//! into output, counters, or trace emission.
//!
//! This generalizes `det-par` (which only polices parallel iteration
//! order): `HashMap`/`HashSet` iteration order varies run to run, so any
//! value that leaves the process through a report, a counter, or a trace
//! while driven by such an iteration makes the simulator's output
//! nondeterministic — the property every det-* rule exists to protect.
//!
//! Mechanics, per file (test regions excluded):
//!
//! 1. collect *hash-typed names*: `x: HashMap<..>` / `x: HashSet<..>`
//!    ascriptions (fields, params, lets — path prefixes like
//!    `std::collections::` are skipped) and `let x = HashMap::new()`
//!    initializers;
//! 2. find *iterations* of those names: `.iter()/.keys()/.values()/
//!    .drain()/.retain()/..` method chains and `for .. in [&]name`
//!    loops;
//! 3. inside the iteration's statement or loop body, look for a *sink*
//!    (print/write/format/trace macro, `push_str`, `emit*`, `record*`,
//!    `charge`, `counters().add`) not neutralized by a *sanitizer*
//!    (`sort*`/`sorted` in the chain, or rebuilding through
//!    `BTreeMap`/`BTreeSet`/`par_map_ordered`).
//!
//! Lookups (`get`, `entry`, `contains_key`, indexing) never match — only
//! iteration is order-sensitive.

use crate::ast::{CallKind, ParsedFile, NO_MATCH};
use crate::lexer::{Tok, TokKind};
use crate::rules::violation_at;
use crate::Violation;

pub const RULE: &str = "ordered-iter";
const HINT: &str = "sort the keys first (collect + sort), rebuild through a BTreeMap/BTreeSet, or route the iteration through par_map_ordered before emitting";

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

const SINK_MACROS: &[&str] = &[
    "print", "println", "eprint", "eprintln", "write", "writeln", "format", "trace", "log",
];

pub fn check(file: &ParsedFile, out: &mut Vec<Violation>) {
    let hashy = hash_typed_names(&file.toks);
    if hashy.is_empty() {
        return;
    }
    for f in &file.fns {
        if f.in_test {
            continue;
        }
        let Some((lo, hi)) = file.body_inner(f) else {
            continue;
        };
        for site in iteration_sites(&file.toks, &file.matching, lo, hi, &hashy) {
            let (rlo, rhi) = statement_region(&file.toks, &file.matching, site, lo, hi);
            if has_sanitizer(&file.toks, rlo, rhi) {
                continue;
            }
            if let Some(sink) = find_sink(file, rlo, rhi) {
                out.push(violation_at(
                    file,
                    site,
                    RULE,
                    format!(
                        "iteration over unordered `{}` flows into `{}` — emission order is nondeterministic",
                        file.toks[site].text, sink
                    ),
                    HINT,
                ));
            }
        }
    }
}

/// Names declared with a `HashMap`/`HashSet` type or initializer.
fn hash_typed_names(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        // `name : [&] [path ::]* HashMap` — fields, params, and let
        // ascriptions all share this shape.
        if toks[i].kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            let mut j = i + 2;
            // Skip `::` of a fully-qualified path start (`: ::std::...`).
            let mut hit = false;
            while let Some(t) = toks.get(j) {
                match t.kind {
                    TokKind::Ident if t.text == "HashMap" || t.text == "HashSet" => {
                        hit = true;
                        break;
                    }
                    TokKind::Ident => j += 1,
                    TokKind::Punct
                        if t.is_punct(':') || t.is_punct('&') || t.is_punct('\'') =>
                    {
                        j += 1
                    }
                    TokKind::Lifetime => j += 1,
                    _ => break,
                }
            }
            if hit {
                names.push(toks[i].text.clone());
                continue;
            }
        }
        // `let [mut] name = [path ::]* HashMap::new()` / `with_capacity`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = toks.get(j) else { continue };
            if name_tok.kind != TokKind::Ident
                || !toks.get(j + 1).is_some_and(|t| t.is_punct('='))
            {
                continue;
            }
            let mut k = j + 2;
            while let Some(t) = toks.get(k) {
                match t.kind {
                    TokKind::Ident if t.text == "HashMap" || t.text == "HashSet" => {
                        names.push(name_tok.text.clone());
                        break;
                    }
                    TokKind::Ident => k += 1,
                    TokKind::Punct if t.is_punct(':') => k += 1,
                    _ => break,
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Token indices of iterations over any of `names` inside `lo..hi`: the
/// name token of `name.iter()`-style chains, or the name token in a
/// `for .. in [&]name`-style loop header.
fn iteration_sites(
    toks: &[Tok],
    matching: &[usize],
    lo: usize,
    hi: usize,
    names: &[String],
) -> Vec<usize> {
    let hi = hi.min(toks.len());
    let mut sites = Vec::new();
    for i in lo..hi {
        if toks[i].kind != TokKind::Ident || names.binary_search(&toks[i].text).is_err() {
            continue;
        }
        // name . <iter-method> (
        if toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && ITER_METHODS.contains(&t.text.as_str()))
            && toks.get(i + 3).is_some_and(|t| t.is_open('('))
        {
            sites.push(i);
            continue;
        }
        // for .. in [& mut] [self .] name { — scan back for `in` then `for`
        // without leaving the loop header (balanced groups like the tuple
        // pattern `(k, v)` are skipped whole).
        let mut j = i;
        let mut saw_in = false;
        while j > lo {
            j -= 1;
            let t = &toks[j];
            if t.is_ident("in") {
                saw_in = true;
            } else if t.is_ident("for") {
                if saw_in && !toks.get(i + 1).is_some_and(|t| t.is_punct('.')) {
                    sites.push(i);
                }
                break;
            } else if t.kind == TokKind::Close {
                let m = matching[j];
                if m == NO_MATCH {
                    break;
                }
                j = m;
            } else if t.is_punct(';') || t.kind == TokKind::Open {
                break;
            }
        }
    }
    sites
}

/// The token region to inspect for sinks: from the start of the statement
/// containing `site` to its terminating `;` (skipping balanced groups, so
/// a `for` header runs through its whole loop body). Group interiors stay
/// inside the returned range.
fn statement_region(
    toks: &[Tok],
    matching: &[usize],
    site: usize,
    lo: usize,
    hi: usize,
) -> (usize, usize) {
    let mut start = site;
    while start > lo {
        let t = &toks[start - 1];
        if t.is_punct(';') || t.kind == TokKind::Open || t.kind == TokKind::Close {
            break;
        }
        start -= 1;
    }
    let mut end = site;
    let hi = hi.min(toks.len());
    while end < hi && !toks[end].is_punct(';') {
        if toks[end].kind == TokKind::Open {
            let m = matching[end];
            if m == NO_MATCH || m >= hi {
                end = hi;
                break;
            }
            end = m + 1;
        } else {
            end += 1;
        }
    }
    (start, end.min(hi))
}

fn has_sanitizer(toks: &[Tok], lo: usize, hi: usize) -> bool {
    toks[lo..hi.min(toks.len())].iter().any(|t| {
        t.kind == TokKind::Ident
            && (t.text.starts_with("sort")
                || t.text == "sorted"
                || t.text == "BTreeMap"
                || t.text == "BTreeSet"
                || t.text == "par_map_ordered")
    })
}

/// The first sink call/macro in `lo..hi`, as a display name.
fn find_sink(file: &ParsedFile, lo: usize, hi: usize) -> Option<String> {
    let toks = &file.toks;
    for c in file.calls_in(lo, hi) {
        let name = toks[c.tok].text.as_str();
        match c.kind {
            CallKind::Macro if SINK_MACROS.contains(&name) => {
                return Some(format!("{name}!"));
            }
            CallKind::Method | CallKind::Call => {
                if name == "push_str"
                    || name == "charge"
                    || name.starts_with("emit")
                    || name.starts_with("record")
                {
                    return Some(name.to_string());
                }
                // counters().add(..)
                if name == "add"
                    && c.tok >= 3
                    && toks[c.tok - 1].is_punct('.')
                    && toks[c.tok - 2].is_close(')')
                {
                    let open = file.matching[c.tok - 2];
                    if open != NO_MATCH
                        && open >= 1
                        && toks[open - 1].is_ident("counters")
                    {
                        return Some("counters().add".to_string());
                    }
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        check(&ParsedFile::parse("core", "crates/core/src/lib.rs", src), &mut out);
        out
    }

    #[test]
    fn hash_iteration_into_println_is_flagged() {
        let src = "fn dump(stats: &HashMap<u64, u64>) {\n    for (k, v) in stats.iter() {\n        println!(\"{k} {v}\");\n    }\n}\n";
        let vs = run(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, RULE);
        assert!(vs[0].message.contains("println!"), "{vs:?}");
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn sorted_iteration_is_clean() {
        let src = "fn dump(stats: &HashMap<u64, u64>) {\n    let mut keys: Vec<_> = stats.keys().collect();\n    keys.sort();\n    for k in keys {\n        println!(\"{k}\");\n    }\n}\n";
        // The hash iteration (`stats.keys()`) sits in a statement with a
        // `collect`; the sink lives in a separate loop over the sorted Vec.
        assert!(run(src).is_empty());
    }

    #[test]
    fn btree_rebuild_sanitizes() {
        let src = "fn dump(stats: &HashMap<u64, u64>) {\n    for (k, v) in stats.iter().collect::<BTreeMap<_, _>>() {\n        println!(\"{k} {v}\");\n    }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn for_loop_sugar_is_detected() {
        let src = "fn dump(stats: HashMap<u64, u64>) {\n    for (k, v) in &stats {\n        out.push_str(&format!(\"{k}\"));\n    }\n}\n";
        let vs = run(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn lookups_are_not_iteration() {
        let src = "fn peek(stats: &HashMap<u64, u64>) {\n    println!(\"{}\", stats.get(&1).unwrap());\n    println!(\"{}\", stats[&2]);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn iteration_without_a_sink_is_fine() {
        let src = "fn total(stats: &HashMap<u64, u64>) -> u64 {\n    stats.values().sum()\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn let_initializer_names_are_tracked() {
        let src = "fn f() {\n    let mut seen = HashMap::new();\n    seen.insert(1, 2);\n    for (k, _) in seen.drain() {\n        emit_row(k);\n    }\n}\n";
        let vs = run(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("emit_row"), "{vs:?}");
    }

    #[test]
    fn counters_add_is_a_sink() {
        let src = "fn f(m: &HashMap<u64, u64>, ctx: &C) {\n    for (_, v) in m.iter() {\n        ctx.counters().add(Event::X, *v);\n    }\n}\n";
        let vs = run(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("counters().add"), "{vs:?}");
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod t {\n    fn dump(stats: &HashMap<u64, u64>) {\n        for (k, v) in stats.iter() { println!(\"{k} {v}\"); }\n    }\n}\n";
        assert!(run(src).is_empty());
    }
}
