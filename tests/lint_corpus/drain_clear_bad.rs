//! Known-bad: the guest drain resets `GuestPmlIndex` (vmwrite) before a
//! single logged entry has been copied into the ring — the hardware
//! discards the buffer contents and the pages' D bits were never
//! cleared, so those writes are lost to the tracker. Mirrors the model's
//! ClearBeforeDrain mutation, written into the drain itself.

pub struct OohModule {
    ring: SpscRing,
    overflow: u64,
    vm: VmId,
    vcpu: u32,
}

impl OohModule {
    pub fn drain_guest_buffer(&mut self, hv: &mut Hypervisor) -> Result<(), GuestError> {
        let index = hv.guest_vmread(self.vm, self.vcpu, Field::GuestPmlIndex, Lane::Kernel)?;
        // BUG: reset the hardware index before copying anything out.
        hv.guest_vmwrite(self.vm, self.vcpu, Field::GuestPmlIndex, 511, Lane::Kernel)?;
        let count = 511 - index;
        for k in 0..count {
            if !self.ring.push(k)? {
                self.overflow += 1;
            }
        }
        Ok(())
    }
}
