//! # hobbes — the master control process and application composition layer
//!
//! Hobbes is the exascale OS/R umbrella over Pisces/Kitten/XEMEM: a master
//! control process ("Leviathan") that coordinates resource assignment and
//! sharing across enclaves, plus the application-composition machinery that
//! lets one application span several OS/Rs. The Covirt *controller module*
//! is specified as being "integrated with the master control process", so
//! this crate provides the hook points ([`events::HobbesHooks`]) the
//! controller subscribes to for the XEMEM control paths, mirroring the
//! Pisces-level hooks for plain memory grants.
//!
//! Who shares memory with whom is XEMEM's record and nobody else's: the
//! master reads it to notify a dead enclave's dependants, and revokes it
//! from its teardown hook — owner dies ⇒ its segments are destroyed and
//! every attacher cut off (detach hook: EPT unmap + acknowledged flush) ⇒
//! only then is the owner's memory freed.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable,
        clippy::panic
    )
)]

pub mod app;
pub mod events;
pub mod master;

pub use master::MasterControl;

/// Errors from the orchestration layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HobbesError {
    /// Pisces framework error.
    Pisces(pisces::PiscesError),
    /// XEMEM error.
    Xemem(xemem::XememError),
    /// Kitten kernel error.
    Kitten(kitten::KittenError),
    /// A hook vetoed the operation.
    Vetoed(String),
    /// Unknown enclave or no kernel registered for it.
    NoKernel(u64),
    /// Unknown application.
    NoSuchApp(u64),
    /// Malformed request.
    Invalid(&'static str),
}

impl std::fmt::Display for HobbesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HobbesError::Pisces(e) => write!(f, "pisces: {e}"),
            HobbesError::Xemem(e) => write!(f, "xemem: {e}"),
            HobbesError::Kitten(e) => write!(f, "kitten: {e}"),
            HobbesError::Vetoed(why) => write!(f, "vetoed: {why}"),
            HobbesError::NoKernel(id) => write!(f, "no kernel registered for enclave {id}"),
            HobbesError::NoSuchApp(id) => write!(f, "no such application: {id}"),
            HobbesError::Invalid(w) => write!(f, "invalid request: {w}"),
        }
    }
}

impl std::error::Error for HobbesError {}

impl From<pisces::PiscesError> for HobbesError {
    fn from(e: pisces::PiscesError) -> Self {
        HobbesError::Pisces(e)
    }
}

impl From<xemem::XememError> for HobbesError {
    fn from(e: xemem::XememError) -> Self {
        HobbesError::Xemem(e)
    }
}

impl From<kitten::KittenError> for HobbesError {
    fn from(e: kitten::KittenError) -> Self {
        HobbesError::Kitten(e)
    }
}

/// Result alias.
pub type HobbesResult<T> = Result<T, HobbesError>;
