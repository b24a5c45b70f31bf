//! # covirt — lightweight fault isolation and resource protection for
//! co-kernels
//!
//! This crate is the reproduction of the paper's contribution: a
//! *split-architecture* protection layer for co-kernel OS/R stacks.
//!
//! * The **hypervisor** ([`hypervisor`]) is a per-CPU, minimal VMX root
//!   context interposed under a co-kernel enclave. It does very little by
//!   design: it loads the pre-configured VMCS, launches the guest, handles
//!   the small set of trapped operations (CPUID/XSETBV emulation, MSR and
//!   I/O intercepts, ICR whitelisting), terminates the enclave on abort
//!   exits (EPT violations, double faults), and services the command queue
//!   when signalled with an NMI.
//! * The **controller** ([`controller`]) is embedded in the co-kernel
//!   management framework (Pisces hooks + Hobbes hooks). It watches every
//!   resource-assignment change, edits the enclave's virtualization context
//!   *directly and asynchronously* (EPT mappings, whitelists, bitmaps), and
//!   only involves the hypervisor when cached state must be invalidated —
//!   via fixed-size commands ([`cmdqueue`]) signalled with NMI IPIs.
//! * **Protection features are modular** ([`config`]): memory (EPT), IPI
//!   (full APIC virtualization or posted interrupts), MSR, I/O-port and
//!   abort handling can each be enabled independently, so operators choose
//!   their performance/protection trade-off.
//! * The **execution environment** ([`exec`]) is how simulated guest code
//!   runs "on" an enclave core: all memory traffic goes through a per-core
//!   TLB whose miss path is a real (nested, under memory protection) page
//!   walk, IPis go through the (possibly virtualized) ICR, and safe points
//!   deliver interrupts — so protection overheads *emerge* from executed
//!   code rather than being constants.
//!
//! See DESIGN.md at the repository root for the paper-to-crate map.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable,
        clippy::panic
    )
)]

pub mod cmdqueue;
pub mod config;
pub mod controller;
pub mod exec;
pub mod fault;
pub mod hypervisor;
pub mod stats;
pub mod vctx;
pub mod whitelist;

pub use config::{CovirtConfig, ExecMode, IpiMode};
pub use controller::CovirtController;
pub use exec::GuestCore;

/// Errors from the Covirt layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CovirtError {
    /// Hardware-model failure.
    Hw(covirt_simhw::HwError),
    /// Pisces framework failure.
    Pisces(pisces::PiscesError),
    /// Kitten kernel failure.
    Kitten(kitten::KittenError),
    /// The enclave has no virtualization context.
    NoContext(u64),
    /// The enclave was terminated by the hypervisor; the abort reason.
    EnclaveTerminated(std::sync::Arc<str>),
    /// Command-queue failure.
    CmdQueue(pisces::ring::RingError),
    /// A core did not acknowledge a synchronization command.
    FlushTimeout(cmdqueue::FlushTimeout),
    /// Malformed request.
    Invalid(&'static str),
}

impl std::fmt::Display for CovirtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CovirtError::Hw(e) => write!(f, "hardware: {e}"),
            CovirtError::Pisces(e) => write!(f, "pisces: {e}"),
            CovirtError::Kitten(e) => write!(f, "kitten: {e}"),
            CovirtError::NoContext(id) => write!(f, "no virtualization context for enclave {id}"),
            CovirtError::EnclaveTerminated(why) => write!(f, "enclave terminated: {why}"),
            CovirtError::CmdQueue(w) => write!(f, "command queue: {w}"),
            CovirtError::FlushTimeout(t) => write!(f, "TLB flush synchronization failed: {t}"),
            CovirtError::Invalid(w) => write!(f, "invalid request: {w}"),
        }
    }
}

impl std::error::Error for CovirtError {}

impl From<covirt_simhw::HwError> for CovirtError {
    fn from(e: covirt_simhw::HwError) -> Self {
        CovirtError::Hw(e)
    }
}

impl From<pisces::PiscesError> for CovirtError {
    fn from(e: pisces::PiscesError) -> Self {
        CovirtError::Pisces(e)
    }
}

impl From<kitten::KittenError> for CovirtError {
    fn from(e: kitten::KittenError) -> Self {
        CovirtError::Kitten(e)
    }
}

impl From<pisces::ring::RingError> for CovirtError {
    fn from(e: pisces::ring::RingError) -> Self {
        CovirtError::CmdQueue(e)
    }
}

impl From<cmdqueue::FlushTimeout> for CovirtError {
    fn from(e: cmdqueue::FlushTimeout) -> Self {
        CovirtError::FlushTimeout(e)
    }
}

/// Result alias.
pub type CovirtResult<T> = Result<T, CovirtError>;
