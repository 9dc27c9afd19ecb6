//! Fleet checkpoint/migration driver — snapshot chains under the
//! convergence policy, at fleet scale.
//!
//! Every VM runs the full control-plane scenario from `ooh_bench::fleet`:
//! base snapshot → policy-controlled pre-copy rounds growing a diff chain
//! (hot writers throttled, hopeless ones stopped) → stop-and-copy →
//! restore-and-verify against a full-snapshot oracle. The table shows
//! per-VM dirty rates and convergence outcomes; the summary reports how
//! many pages the diff chains shipped versus repeated full snapshots.
//!
//! Knobs (all env, all deterministic):
//! * `OOH_FLEET_VMS`     — number of VMs (default 32);
//! * `OOH_FLEET_THREADS` — worker threads (default: available cores);
//! * `OOH_FLEET_PAGES`   — tracked pages per VM (default 1024);
//! * `OOH_FLEET_OUT`     — if set, write the full report JSON to this path
//!   (the CI fleet-smoke artifact).
//!
//! Output is byte-identical across reruns and thread counts — CI diffs it.

use crate::fleet::{run_fleet, FleetConfig};
use crate::report;
use ooh_sim::TextTable;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

pub fn render() -> String {
    let mut out = String::new();
    let config = FleetConfig {
        n_vms: env_usize("OOH_FLEET_VMS", 32),
        threads: env_usize("OOH_FLEET_THREADS", rayon::default_threads()),
        pages_per_vm: env_usize("OOH_FLEET_PAGES", 1024) as u64,
        ..FleetConfig::default()
    };
    report::header(
        &mut out,
        "fleet_snap",
        "checkpoint/migration control plane: diff-snapshot chains under the convergence policy",
    );
    report::line(
        &mut out,
        format_args!(
            "vms={} pages_per_vm={} policy: max_rounds={} stop<=|{}|pg bandwidth={}pps",
            config.n_vms,
            config.pages_per_vm,
            config.policy.max_rounds,
            config.policy.stop_threshold_pages,
            config.policy.bandwidth_pps
        ),
    );

    let fleet = run_fleet(&config);

    let mut tbl = TextTable::new([
        "vm",
        "technique",
        "profile",
        "vcpus",
        "rounds",
        "peak pps",
        "outcome",
        "thr",
        "shipped",
        "vs full",
        "verified",
    ]);
    for v in &fleet.vms {
        let peak_pps = v.rounds.iter().map(|r| r.dirty_pps).max().unwrap_or(0);
        let outcome = v
            .rounds
            .last()
            .map(|r| r.decision.clone())
            .unwrap_or_default();
        tbl.row([
            v.vm.to_string(),
            v.technique.clone(),
            format!("{:?}", v.profile),
            v.vcpus.to_string(),
            v.rounds.len().to_string(),
            peak_pps.to_string(),
            outcome,
            v.throttled_rounds.to_string(),
            v.pages_shipped.to_string(),
            v.full_snapshot_pages.to_string(),
            v.restore_verified_pages.to_string(),
        ]);
        report::json_row(&mut out, v);
    }
    report::line(&mut out, &tbl);
    report::line(
        &mut out,
        format_args!(
            "fleet_snap: vms={} converged={} throttled={} shipped={} full_equiv={} savings={}.{:02}x",
            fleet.n_vms,
            fleet.converged_vms,
            fleet.throttled_vms,
            fleet.total_pages_shipped,
            fleet.total_full_snapshot_pages,
            fleet.diff_savings_x100 / 100,
            fleet.diff_savings_x100 % 100
        ),
    );

    if let Ok(path) = std::env::var("OOH_FLEET_OUT") {
        let json = serde_json::to_string(&fleet).expect("serializable fleet report");
        std::fs::write(&path, &json).expect("write fleet report");
        report::line(&mut out, format_args!("report written to {path}"));
    }
    out
}
