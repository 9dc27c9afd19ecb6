//! Known-bad: `sched_out` has an early-return path that never reaches
//! DisableLogging, so the vCPU is descheduled with dirty logging still
//! enabled — the next tenant on the core inherits the PML machinery.
//! Mirrors the model's SkipDisableLogging mutation, written into the
//! hook as an early return instead of a switch with the module unhooked.

pub struct OohModule {
    idle: bool,
    vm: VmId,
    vcpu: u32,
}

impl OohModule {
    pub fn sched_out(&mut self, hv: &mut Hypervisor) -> Result<(), GuestError> {
        if self.idle {
            // BUG: returns while logging is enabled.
            return Ok(());
        }
        self.disable_logging(hv)
    }

    fn disable_logging(&mut self, hv: &mut Hypervisor) -> Result<(), GuestError> {
        hv.hypercall(self.vm, self.vcpu, Hypercall::DisableLogging, Lane::Kernel)?;
        Ok(())
    }
}
