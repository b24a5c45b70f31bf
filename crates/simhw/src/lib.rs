//! # covirt-simhw — simulated x86-64 node with hardware virtualization
//!
//! This crate is a *functional* software model of the hardware platform the
//! Covirt paper runs on: a dual-socket Intel Xeon node with VT-x (VMX)
//! virtualization extensions. It exists because the reproduction has no
//! access to bare-metal VT-x; every hardware structure Covirt configures or
//! reacts to is modelled faithfully enough that the *decision logic* of the
//! hypervisor and controller — what is mapped, what traps, what must be
//! flushed, what is whitelisted — runs unmodified against it.
//!
//! The model covers:
//!
//! * **Topology** ([`topology`]) — sockets, cores, NUMA zones, per-zone
//!   memory pools (defaults mirror the paper's 2× Xeon E5-2603 v4 testbed).
//! * **Physical memory** ([`memory`], [`backing`]) — one linear map per
//!   NUMA zone: a region allocator, a populated-page bitmap and one host
//!   reservation the zone's addresses index directly.
//! * **Paging** ([`paging`]) — 4-level x86-64 page tables stored *inside*
//!   simulated physical memory, so page walks perform real dependent loads.
//! * **EPT** ([`ept`]) — 4-level nested page tables with 4 KiB / 2 MiB /
//!   1 GiB mappings, permission bits, and violation reporting.
//! * **TLB** ([`tlb`]) — a per-core software translation cache with explicit
//!   invalidation, used to make translation overheads *emerge* rather than
//!   being hard-coded.
//! * **Interrupts** ([`apic`], [`posted`], [`interconnect`]) — local APICs,
//!   the ICR, NMIs, the LAPIC timer, and VT-x posted-interrupt descriptors.
//! * **VMX** ([`vmcs`], [`exit`], [`msr`], [`ioport`]) — the VMCS field
//!   store, exit reasons, MSR file + MSR bitmaps, and I/O port bitmaps.
//! * **CPUs and the node** ([`cpu`], [`node`], [`clock`]) — per-core state
//!   (VMX on/off, active VMCS, TSC) and the assembled [`node::SimNode`].
//!
//! Nothing in this crate knows about Covirt, Pisces, Kitten, Hobbes or
//! XEMEM; it is strictly the hardware layer those crates program.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable,
        clippy::panic
    )
)]

pub mod addr;
pub mod apic;
pub mod backing;
pub mod clock;
pub mod cpu;
pub mod ept;
pub mod error;
pub mod exit;
pub mod interconnect;
pub mod ioport;
pub mod memory;
pub mod msr;
pub mod node;
pub mod paging;
pub mod posted;
mod sizeclass;
pub mod tlb;
pub mod topology;
pub mod vmcs;

pub use addr::{
    GuestPhysAddr, GuestVirtAddr, HostPhysAddr, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K,
};
pub use error::HwError;
pub use node::{NodeConfig, SimNode};
