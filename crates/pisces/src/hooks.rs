//! Resource-event hooks — the integration seam the Covirt controller uses.
//!
//! The paper: *"\[the control module\] places a series of callback routines
//! into various locations within the Hobbes infrastructure in order to
//! capture notifications when resource management operations are
//! performed."* These are those locations, with the ordering contract the
//! Covirt memory protocol depends on spelled out per method.

use crate::enclave::Enclave;
use crate::PiscesResult;
use covirt_simhw::addr::PhysRange;

/// Callbacks invoked by [`crate::host::PiscesHost`] around resource
/// management operations. All methods default to no-ops; a hook may veto by
/// returning an error, which aborts the surrounding operation.
#[allow(unused_variables)]
pub trait EnclaveHooks: Send + Sync {
    /// Called when a loaded enclave is about to launch, before the CPUs are
    /// kicked. Covirt builds the enclave's virtualization context here —
    /// which is how its hypervisor is interposed into the boot path: a core
    /// of an enclave with a context starts under it.
    fn on_launch(&self, enclave: &Enclave) -> PiscesResult<()> {
        Ok(())
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
    /// the range and flushes it from the enclave's live cores, as for a
    /// reclaim: a kernel whose memory map is corrupt may already have
    /// touched the mapped range, so a core may hold its translation. An
    /// error says one may still: the range must not go back to the node.
    fn on_mem_add_aborted(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        Ok(())
    }

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

    /// Called when the enclave is torn down (cleanly or after a fault),
    /// **before** anything it holds returns to the node, so the layer can
    /// release its own per-enclave state and cut off whoever still reaches
    /// the enclave's memory. May block (the Hobbes layer waits here for the
    /// attachers of the enclave's segments to flush, Covirt for the
    /// enclave's own cores to stop); the host holds none of its locks
    /// across the call. An error (a core that never stopped) is returned,
    /// and the host then releases nothing the enclave holds.
    fn on_teardown(&self, enclave: &Enclave) -> PiscesResult<()> {
        Ok(())
    }
}
