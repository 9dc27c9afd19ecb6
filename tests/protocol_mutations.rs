//! Cross-validation of the typestate protocols against ooh-model's
//! seeded mutations: each of the three lifecycle bugs the model applies
//! at *runtime* (`ooh_model::Mutation`, as orderings of the steps its
//! session drives, exercised by the self-validation sweep) must also be
//! caught *statically* by `ooh-verify` when the same bug is written into
//! the source.
//!
//! The driver scans the real workspace sources — not corpus snippets —
//! with one file textually mutated to behave the way the runtime ordering
//! does, and asserts the scan produces exactly the expected protocol
//! finding. The unmutated workspace must scan clean (modulo the
//! documented allowlist), so each finding is attributable to its
//! mutation alone.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scans the workspace with `mutate(source)` applied to the file whose
/// path ends with `path_suffix`, and returns the findings.
fn scan_mutated(path_suffix: &str, mutate: impl Fn(&str) -> String) -> Vec<ooh_verify::Violation> {
    let root = workspace_root();
    let mut inputs = ooh_verify::collect_inputs(&root).expect("collect workspace sources");
    let target = inputs
        .iter_mut()
        .find(|(_, rel, _)| rel.ends_with(path_suffix))
        .unwrap_or_else(|| panic!("no workspace file ends with {path_suffix}"));
    let mutated = mutate(&target.2);
    assert_ne!(
        mutated, target.2,
        "mutation of {path_suffix} was a no-op — the seeded pattern moved?"
    );
    target.2 = mutated;
    let allow = ooh_verify::Allowlist::load(&root.join("verify.allow"));
    ooh_verify::scan_files(&inputs, &allow).violations
}

/// The scan must contain exactly one finding of `rule`, anchored in
/// `path_suffix`, carrying a non-empty protocol trace — and no findings
/// of any other rule (the mutation must not trip unrelated lints).
fn assert_single_protocol_finding(vs: &[ooh_verify::Violation], rule: &str, path_suffix: &str) {
    let hits: Vec<_> = vs.iter().filter(|v| v.rule == rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {rule} finding, got {vs:?}"
    );
    let hit = hits[0];
    assert!(
        hit.path.ends_with(path_suffix),
        "finding anchored in {} — expected {path_suffix}",
        hit.path
    );
    assert!(
        !hit.trace.is_empty(),
        "protocol findings must carry a trace: {hit:?}"
    );
    assert!(
        vs.iter().all(|v| v.rule == rule),
        "mutation tripped unrelated rules: {vs:?}"
    );
}

#[test]
fn unmutated_workspace_is_protocol_clean() {
    let root = workspace_root();
    let report = ooh_verify::run(&root).expect("workspace scan");
    assert!(
        report.violations.is_empty(),
        "baseline must be clean so mutation findings are attributable:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Model mutation `SkipDisableLogging`: sched-out returns without
/// disabling dirty logging, which is what the model's unhooked switch
/// does on every sched-out.
#[test]
fn skip_disable_logging_is_caught_statically() {
    let vs = scan_mutated("crates/guest/src/ooh_module.rs", |src| {
        src.replace(
            "        self.disable_logging(kernel, hv)\n    }",
            "        Ok(())\n    }",
        )
    });
    assert_single_protocol_finding(&vs, "spml-pairing", "crates/guest/src/ooh_module.rs");
}

/// Model mutation `ClearBeforeDrain`: the hardware PML index is reset
/// before the logged entries are copied out.
#[test]
fn clear_before_drain_is_caught_statically() {
    let vs = scan_mutated("crates/guest/src/ooh_module.rs", |src| {
        src.replace(
            "        let per_page_invalidate =",
            "        hv.guest_vmwrite(kernel.vm, kernel.vcpu, Field::GuestPmlIndex, 511, Lane::Kernel)?;\n        let per_page_invalidate =",
        )
    });
    assert_single_protocol_finding(&vs, "drain-before-clear", "crates/guest/src/ooh_module.rs");
}

/// Model mutation `DropIpi` (the model clears the pending vectors): the
/// GuestBufferFull dispatch arm never posts the EPML self-IPI. The
/// static equivalent deletes the `post_interrupt` call.
#[test]
fn drop_ipi_is_caught_statically() {
    let vs = scan_mutated("crates/hypervisor/src/hypervisor.rs", |src| {
        src.lines()
            .filter(|l| !l.contains("v.post_interrupt(&self.ctx, Lane::Kernel, EPML_SELF_IPI_VECTOR);"))
            .map(|l| format!("{l}\n"))
            .collect()
    });
    assert_single_protocol_finding(&vs, "ipi-on-full", "crates/hypervisor/src/hypervisor.rs");
}

/// Split-on-dirty demotion without the reverse-map invalidation: delete
/// the `bump_map_generation` call from the kernel's `demote_huge` and the
/// GPA→GVA caches built against the huge layout would stay live.
#[test]
fn skip_demote_generation_bump_is_caught_statically() {
    let vs = scan_mutated("crates/guest/src/kernel.rs", |src| {
        src.lines()
            .filter(|l| !l.contains("self.process_mut(pid)?.bump_map_generation();"))
            .map(|l| format!("{l}\n"))
            .collect()
    });
    assert_single_protocol_finding(&vs, "demote-before-log", "crates/guest/src/kernel.rs");
}

/// Demotion without the cross-vCPU shootdown: another core's TLB keeps
/// the replaced 2M translation, so its writes bypass the new 4K leaves.
#[test]
fn skip_demote_shootdown_is_caught_statically() {
    let vs = scan_mutated("crates/guest/src/kernel.rs", |src| {
        src.lines()
            .filter(|l| !l.contains("self.shootdown_page(hv, base);"))
            .map(|l| format!("{l}\n"))
            .collect()
    });
    assert_single_protocol_finding(&vs, "demote-before-log", "crates/guest/src/kernel.rs");
}
