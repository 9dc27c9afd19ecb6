//! The physical machine: installed RAM plus the hardware feature set.

use crate::phys::HostPhys;

/// Hardware configuration knobs. Every machine has PML (with PML-R access
/// logging), VMCS shadowing, posted interrupts and SPP, as the paper's
/// testbed does; the only hardware property that differs between the
/// paper's two machines is EPML.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Installed RAM in bytes.
    pub ram_bytes: u64,
    /// The paper's proposed EPML extension present (true for the
    /// BOCHS-analog emulated machine, false for the stock machine).
    pub epml: bool,
    /// Optional TLB capacity per vCPU (None = unbounded, the default model;
    /// see `tlb` module docs). Bounding changes walk counts — useful for
    /// studying baseline sensitivity — but never logging semantics.
    pub tlb_capacity: Option<usize>,
}

impl MachineConfig {
    /// The paper's real testbed: PML + shadowing + posted interrupts, no
    /// EPML (SPML experiments run here).
    pub fn stock(ram_bytes: u64) -> Self {
        Self {
            ram_bytes,
            epml: false,
            tlb_capacity: None,
        }
    }

    /// The paper's extended (BOCHS-emulated) machine with EPML.
    pub fn epml(ram_bytes: u64) -> Self {
        Self {
            epml: true,
            ..Self::stock(ram_bytes)
        }
    }
}

/// The machine: RAM plus config. vCPUs are owned by the hypervisor's VMs.
pub struct Machine {
    pub phys: HostPhys,
    pub config: MachineConfig,
}

impl Machine {
    pub fn new(config: MachineConfig) -> Self {
        Self {
            phys: HostPhys::new(config.ram_bytes),
            config,
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("config", &self.config)
            .field("phys", &self.phys)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    #[test]
    fn stock_has_no_epml() {
        let c = MachineConfig::stock(1 << 30);
        assert!(!c.epml);
        let e = MachineConfig::epml(1 << 30);
        assert!(e.epml);
    }

    #[test]
    fn machine_allocates_configured_ram() {
        let m = Machine::new(MachineConfig::stock(64 * PAGE_SIZE));
        assert_eq!(m.phys.total_frames(), 64);
    }
}
