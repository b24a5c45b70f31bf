//! # kitten — a Lightweight Kernel model
//!
//! A functional model of the Kitten LWK as deployed inside a Pisces
//! enclave: it boots from the Pisces boot-parameter structure, builds an
//! *identity-mapped* view of its assigned memory (Kitten's contiguous
//! physical-memory policy), runs tasks with minimal scheduling, keeps OS
//! noise low via a tickless-by-default timer policy, and acknowledges the
//! host's management requests over the control channel.
//!
//! The crate also carries the *fault-injection* surface
//! ([`faults`]) used to reproduce the bug classes Section V of the paper
//! describes (stale shared-memory mappings, memory-map misconfiguration,
//! errant IPIs): each injection puts the kernel into a state where its own
//! view of its resources disagrees with the actual assignment — precisely
//! the inconsistency Covirt exists to contain.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable,
        clippy::panic
    )
)]

pub mod faults;
pub mod kernel;
pub mod memmap;
pub mod task;
pub mod timer;

pub use kernel::KittenKernel;
pub use memmap::MemMap;
pub use timer::TimerPolicy;

/// Errors from the kernel model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KittenError {
    /// Underlying hardware failure.
    Hw(covirt_simhw::HwError),
    /// Malformed boot parameters.
    BadBootParams,
    /// Control-channel failure.
    Ctrl(&'static str),
    /// Address not in the kernel's memory map.
    NotMapped(u64),
    /// Invalid request.
    Invalid(&'static str),
}

impl std::fmt::Display for KittenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KittenError::Hw(e) => write!(f, "hardware error: {e}"),
            KittenError::BadBootParams => write!(f, "bad boot parameters"),
            KittenError::Ctrl(what) => write!(f, "control channel: {what}"),
            KittenError::NotMapped(a) => write!(f, "address {a:#x} not in memory map"),
            KittenError::Invalid(what) => write!(f, "invalid request: {what}"),
        }
    }
}

impl std::error::Error for KittenError {}

impl From<covirt_simhw::HwError> for KittenError {
    fn from(e: covirt_simhw::HwError) -> Self {
        KittenError::Hw(e)
    }
}

/// Result alias.
pub type KittenResult<T> = Result<T, KittenError>;
