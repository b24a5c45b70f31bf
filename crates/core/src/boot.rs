//! The management-region layout once Covirt is interposed.
//!
//! "Covirt replaces the standard boot parameter structure with a new,
//! specialized structure used by the hypervisor. The Covirt boot parameters
//! contain the VM configuration information, a minimal communication
//! channel used as a command queue, and a pointer to the unmodified Pisces
//! boot parameter structure used by the co-kernel."
//!
//! In this in-process model the hypervisor is configured from its
//! [`crate::vctx::VirtContext`], which holds `Arc`s (the EPT, the bitmaps,
//! the whitelist) no byte record can carry, so no such record is written.
//! What does live in the enclave's 256 KiB management region is what both
//! sides reach through memory: the command queues, and the Pisces
//! parameters whose address each core's VMCS carries in guest RDI.
//!
//! ```text
//! +0        Pisces BootParams          (written by Pisces, untouched)
//! +96 KiB   per-core command queues    (4 KiB each, boot-core first)
//! +tail     control channel            (written by Pisces, untouched)
//! ```

use crate::cmdqueue::CmdQueue;
use covirt_simhw::addr::HostPhysAddr;

/// Offset of the first per-core command queue.
pub const CMDQ_BASE_OFFSET: u64 = 96 * 1024;
/// Stride between per-core command queues.
pub const CMDQ_STRIDE: u64 = 4 * 1024;

/// Where the per-core command queue of the `idx`-th enclave core lives in a
/// management region starting at `mgmt_base`.
pub fn cmdq_addr(mgmt_base: HostPhysAddr, idx: usize) -> HostPhysAddr {
    debug_assert!(CMDQ_STRIDE >= CmdQueue::required_bytes());
    mgmt_base.add(CMDQ_BASE_OFFSET + idx as u64 * CMDQ_STRIDE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmdq_layout_fits_stride() {
        assert!(CMDQ_STRIDE >= CmdQueue::required_bytes());
        let base = HostPhysAddr::new(0x100000);
        assert_eq!(cmdq_addr(base, 0).raw(), 0x100000 + CMDQ_BASE_OFFSET);
        assert_eq!(
            cmdq_addr(base, 2).raw(),
            0x100000 + CMDQ_BASE_OFFSET + 2 * CMDQ_STRIDE
        );
    }
}
