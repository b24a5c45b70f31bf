//! Fault injection: the bug classes Section V of the paper catalogues.
//!
//! Each injection manufactures a state where the kernel's *belief* about
//! its resources diverges from the actual assignment, then reports the
//! action (an address to touch, an ICR value to write) that the bug would
//! perform. Actually *performing* the action happens in the execution
//! environment (the `covirt` crate) or a test, where the outcome differs by
//! configuration: native Pisces corrupts/crashes the neighbour, Covirt
//! contains the fault.

use crate::kernel::KittenKernel;
use crate::memmap::RegionKind;
use covirt_simhw::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_4K};
use covirt_simhw::apic::{IcrCommand, ICR_MODE_FIXED, ICR_SH_NONE};

/// A manufactured bug, ready to be "executed".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The kernel will read/write this address believing it is mapped.
    WildAccess {
        /// The out-of-assignment address.
        addr: HostPhysAddr,
        /// Whether the buggy access is a write.
        write: bool,
    },
    /// The kernel will transmit this ICR command; the destination/vector
    /// is not allocated to the enclave.
    ErrantIpi {
        /// The raw ICR value the buggy code writes.
        icr: u64,
    },
}

/// The paper's XEMEM-cleanup-path anecdote: a shared segment lingers in the
/// co-kernel's state after the host reclaimed it. The kernel's map keeps
/// the (now stale) region; the returned fault touches it.
///
/// `reclaimed` is the segment range that the host has already taken back.
pub fn stale_shared_mapping(kernel: &KittenKernel, reclaimed: PhysRange) -> InjectedFault {
    // Model the buggy cleanup path: the kernel *should* have removed the
    // region but didn't — ensure it is (still) present as a Shared region.
    let present = kernel.memmap().contains(reclaimed.start, 8);
    if !present {
        kernel.with_memmap_mut(|m| m.corrupt_extend(reclaimed));
        // The identity page-table entries are also still in place in the
        // buggy scenario; re-establish them if the cleanup already ran.
        let _ = kernel.page_tables.map(
            reclaimed.start.raw(),
            reclaimed.start,
            reclaimed.len,
            covirt_simhw::paging::Perms::RWX,
            2,
        );
    }
    InjectedFault::WildAccess {
        addr: reclaimed.start.add(reclaimed.len / 2),
        write: true,
    }
}

/// A trivial-but-catastrophic memory-map misconfiguration: an off-by-one
/// region end. The kernel extends its map one page past its real
/// assignment and will happily touch the neighbour's first page.
pub fn off_by_one_region(kernel: &KittenKernel) -> InjectedFault {
    // `KittenKernel::boot` refuses parameters without a memory region and
    // nothing removes a boot region, so there is a last one to run past.
    let boot = kernel.memmap().by_kind(RegionKind::Boot);
    let end = boot.last().map_or(HostPhysAddr::new(0), |r| r.range.end());
    let rogue = PhysRange::new(end, PAGE_SIZE_4K);
    kernel.with_memmap_mut(|m| m.corrupt_extend(rogue));
    let _ = kernel.page_tables.map(
        rogue.start.raw(),
        rogue.start,
        rogue.len,
        covirt_simhw::paging::Perms::RWX,
        1,
    );
    InjectedFault::WildAccess {
        addr: rogue.start,
        write: true,
    }
}

/// An errant IPI: buggy signalling code targets a core outside the enclave
/// with a vector the enclave was never allocated (mimicking a device
/// interrupt on the victim, one of the failure modes Section IV names).
pub fn errant_ipi(victim_core: usize, vector: u8) -> InjectedFault {
    let cmd = IcrCommand {
        vector,
        mode: ICR_MODE_FIXED,
        dest: victim_core as u32,
        shorthand: ICR_SH_NONE,
    };
    InjectedFault::ErrantIpi { icr: cmd.encode() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::node::{NodeConfig, SimNode};
    use covirt_simhw::topology::{CoreId, ZoneId};
    use pisces::host::PiscesHost;
    use pisces::resources::ResourceRequest;

    fn booted() -> (
        std::sync::Arc<PiscesHost>,
        std::sync::Arc<pisces::Enclave>,
        KittenKernel,
    ) {
        let node = SimNode::new(NodeConfig::small());
        let host = PiscesHost::new(node);
        let req = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 32 * 1024 * 1024)]);
        let enclave = host.create_enclave("e0", &req).unwrap();
        let plan = host.launch(&enclave).unwrap();
        let kernel = KittenKernel::boot(&host.node().mem, plan.pisces_params_addr).unwrap();
        (host, enclave, kernel)
    }

    #[test]
    fn stale_mapping_survives_in_kernel_view() {
        let (h, _e, k) = booted();
        let seg = h
            .node()
            .mem
            .alloc_backed(ZoneId(0), 2 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let frames: Vec<u64> = (0..seg.len / PAGE_SIZE_4K)
            .map(|i| seg.start.raw() + i * PAGE_SIZE_4K)
            .collect();
        k.map_shared_pagelist(seg, &frames).unwrap();
        // Host reclaims the segment; the buggy kernel never unmaps.
        let fault = stale_shared_mapping(&k, seg);
        match fault {
            InjectedFault::WildAccess { addr, write } => {
                assert!(write);
                assert!(seg.contains(addr));
                // The kernel still translates it — its belief is stale.
                assert!(k.translate(addr.raw()).is_ok());
            }
            f => panic!("unexpected fault {f:?}"),
        }
    }

    #[test]
    fn off_by_one_extends_past_assignment() {
        let (_h, e, k) = booted();
        let fault = off_by_one_region(&k);
        match fault {
            InjectedFault::WildAccess { addr, .. } => {
                // The address is *not* in the real assignment...
                assert!(!e.resources().covers(&PhysRange::new(addr, 8)));
                // ...but the kernel believes it is and can translate it.
                assert!(k.memmap().contains(addr, 8));
                assert!(k.translate(addr.raw()).is_ok());
            }
            f => panic!("unexpected fault {f:?}"),
        }
    }

    #[test]
    fn errant_ipi_encodes_victim() {
        let fault = errant_ipi(0, 0x2f);
        match fault {
            InjectedFault::ErrantIpi { icr } => {
                let cmd = IcrCommand::decode(icr);
                assert_eq!(cmd.dest, 0);
                assert_eq!(cmd.vector, 0x2f);
            }
            f => panic!("unexpected fault {f:?}"),
        }
    }
}
