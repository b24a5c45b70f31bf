//! Resource-event hooks — the integration seam the Covirt controller uses.
//!
//! The paper: *"\[the control module\] places a series of callback routines
//! into various locations within the Hobbes infrastructure in order to
//! capture notifications when resource management operations are
//! performed."* These are those locations, with the ordering contract the
//! Covirt memory protocol depends on spelled out per method.

use crate::boot::BootPlan;
use crate::enclave::Enclave;
use crate::PiscesResult;
use covirt_simhw::addr::PhysRange;

/// Callbacks invoked by [`crate::host::PiscesHost`] around resource
/// management operations. All methods default to no-ops; a hook may veto by
/// returning an error, which aborts the surrounding operation.
#[allow(unused_variables)]
pub trait EnclaveHooks: Send + Sync {
    /// Called after the host constructs the boot plan and before the CPUs
    /// are kicked. The returned plan replaces the original — this is how
    /// Covirt interposes its hypervisor into the boot path.
    fn on_boot_plan(&self, enclave: &Enclave, plan: BootPlan) -> PiscesResult<BootPlan> {
        Ok(plan)
    }

    /// Called when a memory grant has been *decided* but **before** the
    /// page list is transmitted to the co-kernel. Covirt maps the region
    /// into the EPT here and returns immediately; by the time the co-kernel
    /// learns of the memory, a nested walk already succeeds. (Ordering rule:
    /// resources become guest-visible only after they are mapped.)
    fn on_mem_add_prepared(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        Ok(())
    }

    /// Called when a grant every hook prepared is abandoned **before** the
    /// co-kernel was told of it (the control ring was full). Covirt unmaps
    /// the range and returns at once: no core can hold a translation for
    /// memory its kernel never heard of, so no flush is owed — and the
    /// cores may be the reason the grant failed.
    fn on_mem_add_aborted(&self, enclave: &Enclave, range: PhysRange) {}

    /// Called when the co-kernel has **acknowledged** removal of a region
    /// but before the host reclaims/reuses it. Covirt unmaps the EPT
    /// entries here and issues a `TlbFlush` command to every enclave core,
    /// returning only once the flush completes. (Ordering rule: reclamation
    /// happens only after the mapping is gone everywhere.)
    fn on_mem_remove_acked(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        Ok(())
    }

    /// Called when an IPI vector is allocated to the enclave — Covirt adds
    /// it to the enclave's transmission whitelist.
    fn on_vector_alloc(&self, enclave: &Enclave, vector: u8) -> PiscesResult<()> {
        Ok(())
    }

    /// Called when an IPI vector is returned — Covirt removes it from the
    /// whitelist (before the vector can be handed to someone else).
    fn on_vector_free(&self, enclave: &Enclave, vector: u8) -> PiscesResult<()> {
        Ok(())
    }

    /// Called when the enclave is torn down (cleanly or after a fault) so
    /// the layer can release its own per-enclave state.
    fn on_teardown(&self, enclave: &Enclave) {}
}

/// A no-op hook set, useful as a default and in tests.
pub struct NullHooks;

impl EnclaveHooks for NullHooks {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveId;
    use crate::resources::ResourceSpec;
    use covirt_simhw::addr::HostPhysAddr;
    use covirt_simhw::memory::PhysMemory;
    use covirt_simhw::topology::ZoneId;

    #[test]
    fn null_hooks_pass_through() {
        let mgmt = PhysMemory::new(&[1 << 20])
            .alloc_window(ZoneId(0), 0x1000, 0x1000)
            .unwrap();
        let e = Enclave::new(EnclaveId(1), "t".into(), ResourceSpec::new(), mgmt);
        let h = NullHooks;
        assert!(h
            .on_mem_add_prepared(&e, PhysRange::new(HostPhysAddr::new(0), 1))
            .is_ok());
        assert!(h
            .on_mem_remove_acked(&e, PhysRange::new(HostPhysAddr::new(0), 1))
            .is_ok());
        assert!(h.on_vector_alloc(&e, 0x40).is_ok());
        assert!(h.on_vector_free(&e, 0x40).is_ok());
        h.on_teardown(&e);
    }
}
