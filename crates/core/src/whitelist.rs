//! The IPI transmission whitelist.
//!
//! "The hypervisor is then able to compare the destination CPU and vector
//! against a whitelist in order to verify that the IPI operation is
//! permitted, and any errant IPIs are simply dropped."
//!
//! The whitelist is one of the structures the controller updates *without*
//! hypervisor coordination: the hypervisor reads it afresh on every trapped
//! ICR write, so there is no CPU-cached state to invalidate — exactly the
//! distinction the paper draws between updates that need the command queue
//! and those that do not.
//!
//! It is bits, as the hardware structures beside it are: the enclave's own
//! cores are a bitmap fixed at construction (an enclave's cores never
//! change), its own vectors are 256 bits the controller sets and clears in
//! place, and a check on that pair takes no lock. Cross-enclave grants are
//! rare and sit behind a lock that a check consults only when the pair is
//! not one of the enclave's own.

use parking_lot::RwLock;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allowed (destination core, vector) pairs for one enclave.
pub struct IpiWhitelist {
    /// Cores the enclave may target, one bit each: its own. A core past the
    /// last word is not one of them.
    cores: Box<[u64]>,
    /// Vectors the enclave may raise on its own cores, one bit each. The
    /// controller's vector hooks update a word with `AcqRel` and a check
    /// reads it with `Acquire`, so a check that sees a revocation also
    /// sees what the revoking thread did before it.
    vectors: [AtomicU64; 4],
    /// Explicit extra (core, vector) grants for cross-enclave signalling.
    grants: RwLock<HashSet<(usize, u8)>>,
    /// IPIs dropped by enforcement (instrumentation).
    dropped: AtomicU64,
    /// IPIs permitted (instrumentation).
    permitted: AtomicU64,
}

/// The word and mask of bit `i` in a bitmap of `u64`s.
fn bit(i: usize) -> (usize, u64) {
    (i / 64, 1 << (i % 64))
}

impl IpiWhitelist {
    /// Whitelist for an enclave owning `cores`, allowed to use `vectors`
    /// among themselves.
    pub fn new(
        cores: impl IntoIterator<Item = usize> + Clone,
        vectors: impl IntoIterator<Item = u8>,
    ) -> Self {
        let words = cores.clone().into_iter().max().map_or(0, |c| c / 64 + 1);
        let mut core_bits = vec![0u64; words].into_boxed_slice();
        for c in cores {
            let (w, m) = bit(c);
            core_bits[w] |= m;
        }
        let mut vector_bits = [0u64; 4].map(AtomicU64::new);
        for v in vectors {
            let (w, m) = bit(v.into());
            *vector_bits[w].get_mut() |= m;
        }
        IpiWhitelist {
            cores: core_bits,
            vectors: vector_bits,
            grants: RwLock::new(HashSet::new()),
            dropped: AtomicU64::new(0),
            permitted: AtomicU64::new(0),
        }
    }

    /// Is `dest` one of the enclave's cores and `vector` one of its
    /// vectors? Lock-free.
    #[inline]
    fn own(&self, dest: usize, vector: u8) -> bool {
        let (cw, cm) = bit(dest);
        let (vw, vm) = bit(vector.into());
        self.cores.get(cw).is_some_and(|w| w & cm != 0)
            && self.vectors[vw].load(Ordering::Acquire) & vm != 0
    }

    /// The whole predicate: own pair, else a grant.
    fn allows(&self, dest: usize, vector: u8) -> bool {
        self.own(dest, vector) || self.grants.read().contains(&(dest, vector))
    }

    /// Is sending `vector` to `dest` allowed? Updates the counters.
    pub fn check(&self, dest: usize, vector: u8) -> bool {
        let ok = self.allows(dest, vector);
        if ok {
            self.permitted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Non-counting query (for tests/diagnostics).
    pub fn would_allow(&self, dest: usize, vector: u8) -> bool {
        self.allows(dest, vector)
    }

    /// Allow a vector on the enclave's own cores (vector allocation).
    pub fn add_vector(&self, vector: u8) {
        let (w, m) = bit(vector.into());
        self.vectors[w].fetch_or(m, Ordering::AcqRel);
    }

    /// Revoke a vector (vector free — runs before the vector is recycled).
    pub fn remove_vector(&self, vector: u8) {
        let (w, m) = bit(vector.into());
        self.vectors[w].fetch_and(!m, Ordering::AcqRel);
    }

    /// Grant a specific cross-enclave (core, vector) pair (Hobbes treats
    /// per-core IPI vectors as a globally allocatable application
    /// resource).
    pub fn grant(&self, dest: usize, vector: u8) {
        self.grants.write().insert((dest, vector));
    }

    /// Revoke a cross-enclave grant.
    pub fn revoke(&self, dest: usize, vector: u8) {
        self.grants.write().remove(&(dest, vector));
    }

    /// (permitted, dropped) counts.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.permitted.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cores_and_vectors_allowed() {
        let w = IpiWhitelist::new([2, 3], [0x40, 0x41]);
        assert!(w.check(2, 0x40));
        assert!(w.check(3, 0x41));
        assert!(!w.check(0, 0x40), "host core is not a legal destination");
        assert!(!w.check(2, 0x2f), "unallocated vector must be dropped");
        assert!(!w.check(64, 0x40), "a core past the bitmap is no one's own");
        assert!(!w.check(usize::MAX, 0x40), "nor is the broadcast stand-in");
        assert_eq!(w.counts(), (2, 4));
    }

    #[test]
    fn grants_extend_reach() {
        let w = IpiWhitelist::new([2], [0x40]);
        assert!(!w.would_allow(5, 0x50));
        w.grant(5, 0x50);
        assert!(w.check(5, 0x50));
        w.revoke(5, 0x50);
        assert!(!w.would_allow(5, 0x50));
    }

    #[test]
    fn vector_lifecycle() {
        let w = IpiWhitelist::new([1], []);
        assert!(!w.would_allow(1, 0x42));
        w.add_vector(0x42);
        assert!(w.would_allow(1, 0x42));
        w.remove_vector(0x42);
        assert!(!w.would_allow(1, 0x42));
        // The top vector lives in the last word.
        w.add_vector(0xff);
        assert!(w.would_allow(1, 0xff) && !w.would_allow(1, 0xfe));
    }

    #[test]
    fn would_allow_does_not_count() {
        let w = IpiWhitelist::new([1], [0x40]);
        w.would_allow(1, 0x40);
        w.would_allow(9, 0x40);
        assert_eq!(w.counts(), (0, 0));
    }
}
