//! # xemem — cross-enclave shared memory
//!
//! A model of the XEMEM shared-memory system: XPMEM-compatible segment
//! export/attach across enclave boundaries, with segment ids managed by a
//! node-local name service. XEMEM is the substrate for *all* inter-enclave
//! application communication in Hobbes (and for OS services such as
//! forwarded system calls), which is why the Covirt controller must track its
//! attach/detach control paths: every attach grows an enclave's reachable
//! memory, every detach shrinks it.
//!
//! The crate is deliberately OS-agnostic: it tracks which pages belong to
//! which segment and who is attached — the node's only record of who
//! shares memory with whom. Wiring an attachment into a kernel's page
//! tables (and into the EPT under Covirt), and cutting it out again when
//! the segment or its owner goes, is the business of the `hobbes`
//! orchestration layer.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable,
        clippy::panic
    )
)]

pub mod segment;
pub mod service;
pub mod wellknown;

pub use segment::{SegmentId, SegmentInfo};
pub use service::XememService;

/// Errors from the shared-memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XememError {
    /// Name already in use.
    NameTaken(String),
    /// Unknown segment name.
    NoSuchName(String),
    /// Unknown segment id.
    NoSuchSegment(SegmentId),
    /// The requester is already attached.
    AlreadyAttached,
    /// The requester is not attached.
    NotAttached,
    /// The owner may not attach to its own segment.
    OwnerAttach,
    /// Malformed request.
    Invalid(&'static str),
}

impl std::fmt::Display for XememError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XememError::NameTaken(n) => write!(f, "segment name taken: {n}"),
            XememError::NoSuchName(n) => write!(f, "no such segment name: {n}"),
            XememError::NoSuchSegment(id) => write!(f, "no such segment: {id}"),
            XememError::AlreadyAttached => write!(f, "already attached"),
            XememError::NotAttached => write!(f, "not attached"),
            XememError::OwnerAttach => write!(f, "owner cannot attach to its own segment"),
            XememError::Invalid(w) => write!(f, "invalid request: {w}"),
        }
    }
}

impl std::error::Error for XememError {}

/// Result alias.
pub type XememResult<T> = Result<T, XememError>;
