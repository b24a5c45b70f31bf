//! The well-known segid space.
//!
//! XEMEM reserves the low segids so core services can find each other
//! before the name service itself is reachable (the name service's own
//! command segment being the canonical example); exported segments are
//! numbered from the first id above them.

/// First dynamically allocated segid.
pub const DYNAMIC_BASE: u64 = 0x1000;
