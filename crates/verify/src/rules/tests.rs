//! The protocol rules, driven end to end through [`crate::scan_source`]
//! (token rules, suppression and `feature-gate` are exercised in
//! `lib.rs`). Every other rule runs on each snippet too, so assertions
//! filter by rule id where a snippet is deliberately minimal.

use crate::{scan_source, Allowlist, Violation};

fn scan(crate_name: &str, src: &str) -> Vec<Violation> {
    let path = format!("crates/{crate_name}/src/t.rs");
    scan_source(crate_name, &path, src, &Allowlist::default()).0
}

fn of_rule(crate_name: &str, src: &str, rule: &str) -> Vec<Violation> {
    let mut vs = scan(crate_name, src);
    vs.retain(|v| v.rule == rule);
    vs
}

fn rules_of(v: &[Violation]) -> Vec<&'static str> {
    v.iter().map(|x| x.rule).collect()
}

// --- cost-coverage ---------------------------------------------------------

#[test]
fn handler_charging_transitively_passes() {
    let src = "impl H {\n    pub fn handle_pml_full(&mut self) -> R { self.pay(); self.drain() }\n    fn pay(&mut self) { self.ctx.charge(1, 2); }\n}\n";
    assert!(scan("hypervisor", src).is_empty());
}

#[test]
fn uncharged_early_success_return_is_flagged_at_the_return() {
    let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.idle { return Ok(()); }\n        self.ctx.charge(1, 2);\n        Ok(())\n    }\n}\n";
    let vs = scan("hypervisor", src);
    assert_eq!(rules_of(&vs), vec!["cost-coverage"], "{vs:?}");
    assert!(vs[0].message.contains("handle_x"));
    assert_eq!(vs[0].line, 3);
    assert!(!vs[0].trace.is_empty(), "protocol findings carry a trace");
}

#[test]
fn uncharged_fall_through_is_flagged_at_the_fn() {
    // No single `return` to blame: the finding sits on the `fn` line,
    // where an inline allow marker can reach it.
    let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.a { self.ctx.charge(1, 2); }\n        Ok(())\n    }\n}\n";
    let vs = scan("hypervisor", src);
    assert_eq!(rules_of(&vs), vec!["cost-coverage"], "{vs:?}");
    assert_eq!(vs[0].line, 2);
}

#[test]
fn err_shaped_exits_are_exempt() {
    // `?`, `return Err`, an `Invalid` guard rejection, and an `Err(..)`
    // tail expression are all error exits: no charge owed.
    let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        self.probe()?;\n        if self.bad { return Err(Bug); }\n        if self.off { return Ok(HypercallResult::Invalid); }\n        match self.kind {\n            K::Work => { self.ctx.charge(1, 2); Ok(()) }\n            K::Broken => Err(Bug),\n        }\n    }\n}\n";
    assert!(scan("hypervisor", src).is_empty());
}

#[test]
fn branchy_charging_must_cover_all_arms() {
    // Charge only in the then-branch: the else path escapes.
    let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.a { self.ctx.charge(1, 2); } else { self.noop(); }\n        Ok(())\n    }\n}\n";
    assert_eq!(rules_of(&scan("hypervisor", src)), vec!["cost-coverage"]);
    // Charging in every arm of an else-if chain passes...
    let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.a { self.ctx.charge(1, 2); } else if self.b { self.ctx.charge(1, 3); } else { self.ctx.charge(1, 4); }\n        Ok(())\n    }\n}\n";
    assert!(scan("hypervisor", src).is_empty());
    // ...but without the trailing `else` some path takes no arm.
    let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.a { self.ctx.charge(1, 2); } else if self.b { self.ctx.charge(1, 3); }\n        Ok(())\n    }\n}\n";
    assert_eq!(rules_of(&scan("hypervisor", src)), vec!["cost-coverage"]);
}

#[test]
fn a_loop_body_may_run_zero_times() {
    let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        for v in self.pending() { self.ctx.charge(1, v); }\n        Ok(())\n    }\n}\n";
    assert_eq!(rules_of(&scan("hypervisor", src)), vec!["cost-coverage"]);
}

#[test]
fn every_uncharged_hypercall_arm_is_flagged_by_variant() {
    // Nothing is charged before the match (as in the real dispatcher), so
    // each arm owes its own charge and is blamed at its own pattern.
    let src = "impl H {\n    pub fn hypercall(&mut self, c: Hypercall) -> R {\n        match c {\n            Hypercall::SpmlInit { gpa } => { self.ctx.charge(1, 2); self.init(gpa) }\n            Hypercall::SpmlDeactivate => self.deactivate(),\n            Hypercall::EpmlInit => { if self.fast { return Ok(()); } self.ctx.charge(1, 3); Ok(()) }\n        }\n    }\n}\n";
    let vs = scan("hypervisor", src);
    assert_eq!(
        rules_of(&vs),
        vec!["cost-coverage", "cost-coverage"],
        "{vs:?}"
    );
    assert_eq!((vs[0].line, vs[1].line), (5, 6));
    assert!(
        vs[0].message.contains("Hypercall::SpmlDeactivate"),
        "{vs:?}"
    );
    assert!(vs[1].message.contains("Hypercall::EpmlInit"), "{vs:?}");
}

#[test]
fn hypercall_arm_guard_rejections_are_exempt() {
    let src = "impl H {\n    pub fn hypercall(&mut self, c: Hypercall) -> R {\n        match c {\n            Hypercall::EpmlInit => {\n                if !self.cfg.epml { return Ok(HypercallResult::Invalid); }\n                self.ctx.charge(1, 2);\n                Ok(HypercallResult::Ok)\n            }\n        }\n    }\n}\n";
    assert!(scan("hypervisor", src).is_empty());
}

#[test]
fn guest_fault_handlers_only_need_to_reach_a_charge() {
    // Charges only on one branch: the weak tier passes (some success path
    // is charged); the strict tier would have flagged the fall-through.
    let src = "impl K {\n    pub fn handle_fault(&mut self) -> R {\n        if self.wp { self.ctx.charge(1, 2); return Ok(()); }\n        Ok(())\n    }\n}\n";
    assert!(scan("guest", src).is_empty());
    // No charge anywhere: flagged once, on the `fn` line.
    let src = "impl K {\n    pub fn handle_fault(&mut self) -> R {\n        if self.wp { return Ok(()); }\n        self.fix();\n        Ok(())\n    }\n    fn fix(&mut self) {}\n}\n";
    let vs = scan("guest", src);
    assert_eq!(rules_of(&vs), vec!["cost-coverage"], "{vs:?}");
    assert_eq!(vs[0].line, 2);
}

#[test]
fn core_trackers_must_reach_charge() {
    let src = "impl T {\n    fn collect(&mut self, env: &mut E) -> R { self.walk(env) }\n    fn walk(&mut self, env: &mut E) -> R { env.ctx.charge(1, 2); R }\n}\n";
    assert!(scan("core", src).is_empty());
    let src = "impl T {\n    fn collect(&mut self, env: &mut E) -> R { self.walk(env) }\n    fn walk(&mut self, env: &mut E) -> R { R }\n}\n";
    let vs = scan("core", src);
    assert_eq!(rules_of(&vs), vec!["cost-coverage"], "{vs:?}");
    assert!(vs[0].message.contains("collect"));
}

#[test]
fn a_charge_behind_an_ambiguous_name_does_not_propagate() {
    // `pull` reaches a charge only through `.drain()`. With one `drain` in
    // the workspace that resolves; with two, `pull` cannot be credited —
    // which one did it call? — so `collect` is left with no charging call.
    let tracker = "impl T {\n    fn collect(&mut self, env: &mut E) -> R { self.pull(env) }\n    fn pull(&mut self, env: &mut E) -> R { self.ring.drain(env) }\n}\nimpl Ring { fn drain(&self, env: &mut E) -> R { env.ctx.charge(1, 2); R } }\n";
    assert!(scan("core", tracker).is_empty());
    let two = format!("{tracker}impl Buf {{ fn drain(&self, env: &mut E) -> R {{ R }} }}\n");
    assert_eq!(rules_of(&scan("core", &two)), vec!["cost-coverage"]);
}

#[test]
fn migration_rounds_reach_a_charge_through_any_variant() {
    // `round` charges through `record_round`, which uses the explicit-ns
    // variant — all four `SimCtx::charge*` names count.
    let src = "impl M {\n    pub fn round(&mut self, hv: &mut H) -> R { self.record_round(hv, 4); Ok(4) }\n    fn record_round(&mut self, hv: &H, pages: u64) { hv.ctx.charge_n_ns(1, 2, pages, 9); }\n}\n";
    assert!(scan("hypervisor", src).is_empty());
    let src = "impl M {\n    pub fn round(&mut self, hv: &mut H) -> R { self.record_round(hv, 4); Ok(4) }\n    fn record_round(&mut self, hv: &H, pages: u64) { self.rounds.push(pages); }\n}\n";
    let vs = scan("hypervisor", src);
    assert_eq!(rules_of(&vs), vec!["cost-coverage"], "{vs:?}");
    assert!(vs[0].message.contains("round"));
}

#[test]
fn non_entry_crates_are_out_of_cost_scope() {
    assert!(scan("bench", "fn handle_click() { draw(); }").is_empty());
}

// --- shootdown-complete ----------------------------------------------------

#[test]
fn teardown_with_notify_and_shootdown_passes() {
    let src = "impl K {\n    fn munmap(&mut self, hv: &mut H) {\n        hv.note_guest_pte_dirty_cleared(gpa);\n        self.kernel_phys_write(pa, Pte::empty().0);\n        self.shootdown_all(hv);\n    }\n}\n";
    assert!(scan("guest", src).is_empty());
    // A helper that shoots down counts.
    let src = "impl K {\n    fn munmap(&mut self, hv: &mut H) {\n        hv.note_guest_pte_dirty_cleared(gpa);\n        self.kernel_phys_write(pa, Pte::empty().0);\n        self.broadcast(hv);\n    }\n    fn broadcast(&mut self, hv: &mut H) { self.shootdown_all(hv); }\n}\n";
    assert!(scan("guest", src).is_empty());
}

#[test]
fn teardown_without_shootdown_is_flagged_at_the_pte_expression() {
    let src = "impl K {\n    fn munmap(&mut self, hv: &mut H) {\n        hv.note_guest_pte_dirty_cleared(gpa);\n        self.kernel_phys_write(pa, Pte::empty().0);\n    }\n}\n";
    let vs = scan("guest", src);
    assert_eq!(rules_of(&vs), vec!["shootdown-complete"], "{vs:?}");
    assert!(vs[0].message.contains("TLB shootdown"), "{vs:?}");
    assert_eq!(
        (vs[0].line, vs[0].col),
        (4, 36),
        "anchors on `Pte`, the head of `Pte::empty`"
    );
}

#[test]
fn a_shootdown_on_some_path_is_enough() {
    // The obligation is reachability, not every-exit: the early return
    // leaves stale, but the function does get to a shootdown.
    let src = "impl K {\n    fn sweep(&mut self, hv: &mut H) -> R {\n        self.kernel_phys_write(pa, pte.without(Pte::WRITABLE).0);\n        if self.single_core { return Ok(()); }\n        self.shootdown_all(hv);\n        Ok(())\n    }\n}\n";
    assert!(scan("guest", src).is_empty());
}

#[test]
fn soft_dirty_clear_needs_a_shootdown_but_no_notify() {
    let src = "impl K {\n    fn clear_refs(&mut self, hv: &mut H) {\n        let v = pte.without(Pte::SOFT_DIRTY | Pte::WRITABLE);\n        self.kernel_phys_write(pa, v.0);\n        self.shootdown_all(hv);\n    }\n}\n";
    assert!(scan("guest", src).is_empty());
    let src = "impl K {\n    fn clear_refs(&mut self, hv: &mut H) {\n        let v = pte.without(Pte::SOFT_DIRTY | Pte::WRITABLE);\n        self.kernel_phys_write(pa, v.0);\n    }\n}\n";
    assert_eq!(rules_of(&scan("guest", src)), vec!["shootdown-complete"]);
}

#[test]
fn uffd_unprotect_is_an_upgrade_but_protect_is_a_downgrade() {
    // `.without(Pte::UFFD_WP)` relaxes permissions; no shootdown needed.
    let src = "impl K {\n    fn unprotect(&mut self, hv: &mut H) {\n        let v = pte.without(Pte::UFFD_WP);\n        self.kernel_phys_write(pa, v.0);\n    }\n}\n";
    assert!(scan("guest", src).is_empty());
    let src = "impl K {\n    fn writeprotect(&mut self, hv: &mut H) {\n        let v = pte.with(Pte::UFFD_WP);\n        self.kernel_phys_write(pa, v.0);\n    }\n}\n";
    let vs = scan("guest", src);
    assert_eq!(rules_of(&vs), vec!["shootdown-complete"], "{vs:?}");
    assert!(
        vs[0].trace.iter().any(|s| s.note.contains("call `with`")),
        "{vs:?}"
    );
}

#[test]
fn downgrade_without_phys_write_is_not_a_site() {
    // Computing a downgraded value without writing it is fine.
    let src = "impl K {\n    fn preview(&self) -> Pte { pte.without(Pte::DIRTY) }\n}\n";
    assert!(scan("guest", src).is_empty());
}

#[test]
fn pte_rules_cover_every_sim_crate_and_nothing_else() {
    let src = "fn munmap() { kernel_phys_write(pa, Pte::empty().0); }";
    assert!(scan("bench", src).is_empty());
    let vs = scan("machine", src);
    assert_eq!(
        rules_of(&vs),
        vec!["drain-before-clear", "shootdown-complete"],
        "{vs:?}"
    );
}

// --- spml-pairing ----------------------------------------------------------

#[test]
fn sched_out_without_disable_is_flagged_with_trace() {
    let src = "impl M {\n    fn sched_out(&mut self, hv: &mut H) -> Result<(), E> {\n        if self.idle { return Ok(()); }\n        self.disable_logging(hv)\n    }\n    fn disable_logging(&mut self, hv: &mut H) -> Result<(), E> { hv.hypercall(0, Hypercall::DisableLogging, 0) }\n}\n";
    let v = scan("guest", src);
    assert_eq!(rules_of(&v), vec!["spml-pairing"], "{v:?}");
    assert!(
        v[0].trace.len() >= 2,
        "trace must have entry + exit: {:?}",
        v[0].trace
    );
    assert!(v[0].message.contains("sched_out"));
}

#[test]
fn sched_out_that_always_disables_is_clean() {
    // Both return paths disable: the early-out disables first, the
    // tail uses the vmwrite form — no path escapes enabled.
    let src = "impl M {\n    fn sched_out(&mut self, hv: &mut H) -> Result<(), E> {\n        if self.idle { return self.disable_logging(hv); }\n        hv.guest_vmwrite(self.vm, 0, Field::EpmlControl, 0)?;\n        Ok(())\n    }\n    fn disable_logging(&mut self, hv: &mut H) -> Result<(), E> { hv.hypercall(0, Hypercall::DisableLogging, 0) }\n}\n";
    assert!(scan("guest", src).is_empty());
}

// --- drain-before-clear ----------------------------------------------------

#[test]
fn index_reset_before_drain_is_flagged() {
    let src = "impl M {\n    fn drain(&mut self, hv: &mut H) -> Result<(), E> {\n        let idx = hv.guest_vmread(self.vm, 0, Field::GuestPmlIndex)?;\n        hv.guest_vmwrite(self.vm, 0, Field::GuestPmlIndex, 511)?;\n        let n = idx;\n        for k in 0..n { self.ring.push(k)?; }\n        Ok(())\n    }\n}\n";
    assert!(!of_rule("guest", src, "drain-before-clear").is_empty());
}

#[test]
fn index_reset_after_drain_is_clean() {
    let src = "impl M {\n    fn drain(&mut self, hv: &mut H) -> Result<(), E> {\n        let idx = hv.guest_vmread(self.vm, 0, Field::GuestPmlIndex)?;\n        for k in 0..idx { if !self.ring.push(k)? { self.overflow += 1; } }\n        hv.guest_vmwrite(self.vm, 0, Field::GuestPmlIndex, 511)?;\n        Ok(())\n    }\n}\n";
    assert!(scan("guest", src).is_empty());
}

#[test]
fn dbit_destruction_without_notify_is_flagged() {
    // The PR 5 munmap bug shape: D-bit teardown, shootdown, no notify.
    let src = "impl K {\n    fn munmap(&mut self, hv: &mut H) -> Result<(), E> {\n        self.kernel_phys_write(hv, slot, Pte::empty().0)?;\n        self.shootdown_all(hv);\n        Ok(())\n    }\n}\n";
    assert_eq!(rules_of(&scan("guest", src)), vec!["drain-before-clear"]);
    let src = "impl K {\n    fn sweep(&mut self, hv: &mut H) {\n        let v = pte.without(Pte::DIRTY);\n        self.kernel_phys_write(pa, v.0);\n        self.shootdown_all(hv);\n    }\n}\n";
    assert_eq!(rules_of(&scan("guest", src)), vec!["drain-before-clear"]);
}

#[test]
fn dbit_destruction_with_notify_before_or_after_is_clean() {
    let before = "impl K {\n    fn munmap(&mut self, hv: &mut H) -> Result<(), E> {\n        hv.note_guest_pte_dirty_cleared(self.vm, 0, gpa);\n        self.kernel_phys_write(hv, slot, Pte::empty().0)?;\n        Ok(())\n    }\n}\n";
    assert!(
        of_rule("guest", before, "drain-before-clear").is_empty(),
        "notify-then-clear is the munmap design"
    );
    let after = "impl K {\n    fn sweep(&mut self, hv: &mut H) -> Result<(), E> {\n        self.kernel_phys_write(hv, slot, pte.without(Pte::DIRTY).0)?;\n        hv.note_guest_pte_dirty_cleared(self.vm, 0, gpa);\n        Ok(())\n    }\n}\n";
    assert!(
        of_rule("guest", after, "drain-before-clear").is_empty(),
        "clear-then-notify is the drain design"
    );
}

#[test]
fn traces_step_through_the_protocol() {
    let src = "impl M {\n    fn drain(&mut self, hv: &mut H) -> Result<(), E> {\n        let idx = hv.guest_vmread(self.vm, 0, Field::GuestPmlIndex)?;\n        hv.guest_vmwrite(self.vm, 0, Field::GuestPmlIndex, 511)?;\n        Ok(())\n    }\n}\n";
    let v = scan("guest", src);
    assert_eq!(v.len(), 1, "{v:?}");
    let notes: Vec<&str> = v[0].trace.iter().map(|s| s.note.as_str()).collect();
    assert!(notes[0].contains("starts in state"), "{notes:?}");
    assert!(
        notes.iter().any(|n| n.contains("'idle' → 'armed'")),
        "{notes:?}"
    );
    assert!(
        notes
            .iter()
            .any(|n| n.contains("'armed' → 'cleared-early'")),
        "{notes:?}"
    );
    assert!(notes.last().unwrap().contains("exit"), "{notes:?}");
}

// --- ring-guard, ipi-on-full -----------------------------------------------

#[test]
fn unchecked_ring_push_is_flagged_but_guarded_forms_are_clean() {
    let bad = "fn burst(&mut self) { self.ring.push(v); }";
    assert_eq!(rules_of(&scan("machine", bad)), vec!["ring-guard"]);

    let consumed = "fn burst(&mut self) { if !self.ring.push(v) { self.overflow += 1; } }";
    assert!(scan("machine", consumed).is_empty());
    let probed =
        "fn burst(&mut self) { if self.ring.free_slots() == 0 { return; }\n self.ring.push(v); }";
    assert!(scan("machine", probed).is_empty());
    let bound = "fn burst(&mut self) { let ok = self.ring.push(v); self.note(ok); }";
    assert!(scan("machine", bound).is_empty());
    let discarded = "fn burst(&mut self) { let _ = self.ring.push(v); }";
    assert_eq!(rules_of(&scan("machine", discarded)), vec!["ring-guard"]);
}

#[test]
fn vec_push_is_not_a_ring_push() {
    let src = "fn gather(&mut self) { self.out.push(1); self.string.push('c'); }";
    assert!(scan("machine", src).is_empty());
}

#[test]
fn buffer_full_arm_must_post_interrupt() {
    let bad = "impl H {\n    fn dispatch(&mut self, ev: PmlEvent) {\n        match ev {\n            PmlEvent::GuestBufferFull => { self.ctx.charge(1, 2); }\n            _ => {}\n        }\n    }\n}\n";
    let v = scan("hypervisor", bad);
    assert_eq!(rules_of(&v), vec!["ipi-on-full"], "{v:?}");
    assert!(
        v[0].trace
            .iter()
            .any(|s| s.note.contains("GuestBufferFull")),
        "trace must show the arm entry: {:?}",
        v[0].trace
    );

    let good = "impl H {\n    fn dispatch(&mut self, ev: PmlEvent) {\n        match ev {\n            PmlEvent::GuestBufferFull => {\n                self.ctx.charge(1, 2);\n                v.post_interrupt(&self.ctx, 0, VEC);\n            }\n            _ => {}\n        }\n    }\n}\n";
    assert!(scan("hypervisor", good).is_empty());
}
