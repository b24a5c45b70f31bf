//! Error type shared by the hardware model.

use crate::addr::{GuestPhysAddr, GuestVirtAddr, HostPhysAddr, PhysRange};
use std::fmt;

/// Errors raised by the simulated hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwError {
    /// A physical access targeted memory with no backing (unpopulated or
    /// outside every allocated region).
    UnbackedPhys(HostPhysAddr),
    /// A physical allocation request could not be satisfied.
    OutOfMemory {
        /// NUMA zone the allocation targeted.
        zone: usize,
        /// Bytes requested.
        requested: u64,
    },
    /// The requested NUMA zone does not exist on this node.
    NoSuchZone(usize),
    /// The requested core does not exist on this node.
    NoSuchCore(usize),
    /// Attempt to free or operate on a region that is not allocated.
    NotAllocated(HostPhysAddr),
    /// Attempt to free a range that is (in part) already free: it overlaps
    /// a free extent, or is larger than everything its zone has out.
    DoubleFree {
        /// The range whose free was refused.
        range: PhysRange,
    },
    /// A page-table walk failed (not-present entry) at the given level.
    PageNotPresent {
        /// Faulting guest-virtual address.
        gva: GuestVirtAddr,
        /// Walk level (4 = PML4 .. 1 = PT).
        level: u8,
    },
    /// A nested (EPT) walk faulted: the guest-physical address is unmapped
    /// or the access kind is not permitted.
    EptViolation {
        /// Faulting guest-physical address.
        gpa: GuestPhysAddr,
        /// Whether the access was a read.
        read: bool,
        /// Whether the access was a write.
        write: bool,
        /// Whether the access was an instruction fetch.
        exec: bool,
    },
    /// VMX operation attempted while VMX is not enabled on the core.
    VmxNotEnabled(usize),
    /// The VMCS referenced by a VMX operation is absent or not current.
    InvalidVmcs,
    /// A misaligned or otherwise malformed argument.
    Invalid(&'static str),
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::UnbackedPhys(a) => write!(f, "access to unbacked physical address {a}"),
            HwError::OutOfMemory { zone, requested } => {
                write!(
                    f,
                    "out of memory in NUMA zone {zone} ({requested} bytes requested)"
                )
            }
            HwError::NoSuchZone(z) => write!(f, "no such NUMA zone: {z}"),
            HwError::NoSuchCore(c) => write!(f, "no such core: {c}"),
            HwError::NotAllocated(a) => write!(f, "region at {a} is not allocated"),
            HwError::DoubleFree { range } => write!(f, "double free of {range:?}"),
            HwError::PageNotPresent { gva, level } => {
                write!(f, "page not present for {gva} at level {level}")
            }
            HwError::EptViolation {
                gpa,
                read,
                write,
                exec,
            } => write!(
                f,
                "EPT violation at {gpa} (r={} w={} x={})",
                u8::from(*read),
                u8::from(*write),
                u8::from(*exec)
            ),
            HwError::VmxNotEnabled(c) => write!(f, "VMX not enabled on core {c}"),
            HwError::InvalidVmcs => write!(f, "invalid or non-current VMCS"),
            HwError::Invalid(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for HwError {}

/// Convenience alias used throughout the crate.
pub type HwResult<T> = Result<T, HwError>;
