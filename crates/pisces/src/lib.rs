//! # pisces — a co-kernel framework model
//!
//! This crate reproduces the *Pisces* lightweight co-kernel framework the
//! paper builds on: it partitions a node's hardware resources into
//! *enclaves*, boots an independent OS/R in each, and provides the
//! communication and management plumbing between the host kernel and the
//! co-kernels. It is implemented against the simulated hardware in
//! [`covirt_simhw`] and exposes exactly the seams Covirt hooks:
//!
//! * **Resource partitioning** ([`resources`]) — cores, memory regions and
//!   IPI vectors assigned to each enclave, with dynamic add/remove.
//! * **Boot protocol** ([`boot`]) — the trampoline hand-off: a
//!   boot-parameter record of words in enclave memory whose address is
//!   passed to the co-kernel in a register. Covirt *interposes* on this
//!   (it boots the CPU into its hypervisor, which chains to the original
//!   kernel entry with the same register), which is why a launch runs the
//!   hook chain first ([`hooks::EnclaveHooks::on_launch`]).
//! * **Control channels** ([`ring`], [`ctrlchan`]) — shared-memory rings
//!   of fixed word records between the host and each enclave (Pisces'
//!   longcall channel): the host's requests (memory grants and reclaims,
//!   shutdown, liveness) one way and the co-kernel's acknowledgements the
//!   other.
//! * **Lifecycle + hooks** ([`enclave`], [`hooks`], [`host`]) — enclave
//!   state machine and the resource-event callbacks whose *ordering*
//!   (map-before-notify, unmap-after-ack, cut-off-before-free) the Covirt
//!   controller depends on. The host's methods are the management
//!   interface; the `/dev/pisces` ioctl numbering the real module puts in
//!   front of them is not modelled.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable,
        clippy::panic
    )
)]

pub mod boot;
pub mod ctrlchan;
pub mod enclave;
pub mod hooks;
pub mod host;
pub mod resources;
pub mod ring;

use std::borrow::Cow;

pub use enclave::{Enclave, EnclaveId, EnclaveState};
pub use host::PiscesHost;
pub use resources::ResourceSpec;

/// Errors produced by the framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PiscesError {
    /// Underlying hardware error.
    Hw(covirt_simhw::HwError),
    /// The named enclave does not exist.
    NoSuchEnclave(u64),
    /// Operation invalid in the enclave's current state.
    BadState {
        /// The enclave.
        enclave: u64,
        /// What was attempted.
        op: &'static str,
    },
    /// A requested resource is unavailable or already assigned.
    ResourceBusy(Cow<'static, str>),
    /// A hook vetoed the operation.
    Vetoed(&'static str),
    /// Malformed request.
    Invalid(&'static str),
}

impl std::fmt::Display for PiscesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PiscesError::Hw(e) => write!(f, "hardware error: {e}"),
            PiscesError::NoSuchEnclave(id) => write!(f, "no such enclave: {id}"),
            PiscesError::BadState { enclave, op } => {
                write!(f, "enclave {enclave}: invalid state for {op}")
            }
            PiscesError::ResourceBusy(what) => write!(f, "resource busy: {what}"),
            PiscesError::Vetoed(why) => write!(f, "operation vetoed by hook: {why}"),
            PiscesError::Invalid(what) => write!(f, "invalid request: {what}"),
        }
    }
}

impl std::error::Error for PiscesError {}

impl From<covirt_simhw::HwError> for PiscesError {
    fn from(e: covirt_simhw::HwError) -> Self {
        PiscesError::Hw(e)
    }
}

/// Result alias for the crate.
pub type PiscesResult<T> = Result<T, PiscesError>;
