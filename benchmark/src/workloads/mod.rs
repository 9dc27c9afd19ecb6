//! The seven workloads. Names are final: later PRs are judged against them.

mod ckpt;
mod drain;
mod fleet;
mod tracked;

pub use tracked::tracked_loop;

use crate::harness::Bench;

/// Build a workload by name. `tiny` sizes are for the self-tests only; every
/// measurement uses the full size.
pub fn by_name(name: &str, tiny: bool) -> Option<Box<dyn Bench>> {
    Some(match name {
        "wc_hot" => Box::new(tracked::Tracked::wc_hot(tiny)),
        "micro_pml" => Box::new(tracked::Tracked::micro_pml(tiny)),
        "micro_fault" => Box::new(tracked::Tracked::micro_fault(tiny)),
        "ckpt_chain" => Box::new(ckpt::CkptChain::new(tiny)),
        "fleet_chain" => Box::new(fleet::FleetChain::new(tiny)),
        "drain_sparse" => Box::new(drain::Drain::sparse(tiny)),
        "drain_dense" => Box::new(drain::Drain::dense(tiny)),
        _ => return None,
    })
}
