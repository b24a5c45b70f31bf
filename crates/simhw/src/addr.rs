//! Address newtypes and page-size constants.
//!
//! The simulator distinguishes three address spaces, mirroring the paper's
//! setting:
//!
//! * [`HostPhysAddr`] — the node's real physical address space, owned by the
//!   host Linux kernel and partitioned by Pisces into enclaves.
//! * [`GuestPhysAddr`] — what an enclave co-kernel believes is physical.
//!   Because Covirt is a *zero-abstraction* hypervisor the EPT is an identity
//!   map, so guest-physical == host-physical for every address the enclave
//!   legitimately owns; the types stay distinct so the nested-walk code
//!   cannot confuse the two.
//! * [`GuestVirtAddr`] — virtual addresses inside a co-kernel / its tasks.

use std::fmt;

/// 4 KiB base page.
pub const PAGE_SIZE_4K: u64 = 4 * 1024;
/// 2 MiB large page.
pub const PAGE_SIZE_2M: u64 = 2 * 1024 * 1024;
/// 1 GiB giant page.
pub const PAGE_SIZE_1G: u64 = 1024 * 1024 * 1024;

/// Bits of a 4 KiB page offset.
pub const PAGE_SHIFT_4K: u32 = 12;
/// Bits of a 2 MiB page offset.
pub const PAGE_SHIFT_2M: u32 = 21;
/// Bits of a 1 GiB page offset.
pub const PAGE_SHIFT_1G: u32 = 30;

macro_rules! addr_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Construct from a raw 64-bit value.
            #[inline]
            pub const fn new(v: u64) -> Self {
                Self(v)
            }

            /// The raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Offset within a page of the given size (size must be a power of two).
            #[inline]
            pub const fn page_offset(self, page_size: u64) -> u64 {
                self.0 & (page_size - 1)
            }

            /// Round down to the containing page boundary.
            #[inline]
            pub const fn align_down(self, page_size: u64) -> Self {
                Self(self.0 & !(page_size - 1))
            }

            /// Round up to the next page boundary.
            ///
            /// Addresses inside the top page of the address space have no
            /// representable rounded-up boundary: this used to saturate at
            /// `u64::MAX` and mask, silently rounding *down*. Debug builds
            /// now panic there; release builds keep the saturating result.
            /// Use [`Self::checked_align_up`] for untrusted inputs.
            #[inline]
            pub const fn align_up(self, page_size: u64) -> Self {
                debug_assert!(
                    self.0 <= u64::MAX - (page_size - 1),
                    "align_up overflows u64; use checked_align_up"
                );
                Self((self.0.saturating_add(page_size - 1)) & !(page_size - 1))
            }

            /// Round up to the next page boundary, or `None` when the
            /// boundary would exceed `u64::MAX` (the address lies inside
            /// the top, partial page of the address space).
            #[inline]
            pub const fn checked_align_up(self, page_size: u64) -> Option<Self> {
                match self.0.checked_add(page_size - 1) {
                    Some(v) => Some(Self(v & !(page_size - 1))),
                    None => None,
                }
            }

            /// True if the address is aligned to `page_size`.
            #[inline]
            pub const fn is_aligned(self, page_size: u64) -> bool {
                self.0 & (page_size - 1) == 0
            }

            /// Add a byte offset.
            #[inline]
            pub const fn add(self, off: u64) -> Self {
                Self(self.0 + off)
            }

            /// Checked add of a byte offset.
            #[inline]
            pub fn checked_add(self, off: u64) -> Option<Self> {
                self.0.checked_add(off).map(Self)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }
    };
}

addr_type!(
    /// An address in the node's real physical address space.
    HostPhysAddr
);
addr_type!(
    /// An address in an enclave's guest-physical address space.
    ///
    /// Covirt maps guest-physical identity onto host-physical, so for owned
    /// resources `GuestPhysAddr(x)` corresponds to `HostPhysAddr(x)`.
    GuestPhysAddr
);
addr_type!(
    /// A virtual address inside a co-kernel or one of its tasks.
    GuestVirtAddr
);

impl GuestPhysAddr {
    /// Reinterpret as a host-physical address (Covirt's identity mapping).
    #[inline]
    pub const fn to_host_identity(self) -> HostPhysAddr {
        HostPhysAddr(self.0)
    }
}

impl HostPhysAddr {
    /// Reinterpret as a guest-physical address (Covirt's identity mapping).
    #[inline]
    pub const fn to_guest_identity(self) -> GuestPhysAddr {
        GuestPhysAddr(self.0)
    }
}

/// Inclusive-start, exclusive-end range of host-physical memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysRange {
    /// First byte of the range.
    pub start: HostPhysAddr,
    /// Length in bytes.
    pub len: u64,
}

impl PhysRange {
    /// Construct a range; `len` may be zero.
    pub const fn new(start: HostPhysAddr, len: u64) -> Self {
        Self { start, len }
    }

    /// One past the last byte.
    pub const fn end(&self) -> HostPhysAddr {
        HostPhysAddr(self.start.0 + self.len)
    }

    /// True if `addr` lies within the range.
    pub const fn contains(&self, addr: HostPhysAddr) -> bool {
        addr.0 >= self.start.0 && addr.0 < self.start.0 + self.len
    }

    /// True if the two ranges share at least one byte.
    pub fn overlaps(&self, other: &PhysRange) -> bool {
        self.start.0 < other.end().0 && other.start.0 < self.end().0
    }

    /// True if `other` is fully contained in `self`.
    pub fn covers(&self, other: &PhysRange) -> bool {
        other.start.0 >= self.start.0 && other.end().0 <= self.end().0
    }

    /// True if `other` begins exactly where `self` ends.
    pub fn abuts(&self, other: &PhysRange) -> bool {
        self.end().0 == other.start.0
    }
}

impl fmt::Debug for PhysRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysRange[{:#x}..{:#x})", self.start.0, self.end().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_down_up() {
        let a = HostPhysAddr::new(0x1234);
        assert_eq!(a.align_down(PAGE_SIZE_4K).raw(), 0x1000);
        assert_eq!(a.align_up(PAGE_SIZE_4K).raw(), 0x2000);
        assert!(a.align_down(PAGE_SIZE_4K).is_aligned(PAGE_SIZE_4K));
        assert_eq!(a.page_offset(PAGE_SIZE_4K), 0x234);
    }

    #[test]
    fn align_noop_when_aligned() {
        let a = GuestPhysAddr::new(PAGE_SIZE_2M * 3);
        assert_eq!(a.align_up(PAGE_SIZE_2M), a);
        assert_eq!(a.align_down(PAGE_SIZE_2M), a);
        assert!(a.is_aligned(PAGE_SIZE_2M));
    }

    #[test]
    fn range_contains_and_overlap() {
        let r = PhysRange::new(HostPhysAddr::new(0x1000), 0x1000);
        assert!(r.contains(HostPhysAddr::new(0x1000)));
        assert!(r.contains(HostPhysAddr::new(0x1fff)));
        assert!(!r.contains(HostPhysAddr::new(0x2000)));

        let r2 = PhysRange::new(HostPhysAddr::new(0x1800), 0x1000);
        assert!(r.overlaps(&r2));
        let r3 = PhysRange::new(HostPhysAddr::new(0x2000), 0x1000);
        assert!(!r.overlaps(&r3));
        assert!(r.abuts(&r3));
        assert!(!r3.abuts(&r));
    }

    #[test]
    fn range_covers() {
        let outer = PhysRange::new(HostPhysAddr::new(0x1000), 0x4000);
        let inner = PhysRange::new(HostPhysAddr::new(0x2000), 0x1000);
        assert!(outer.covers(&inner));
        assert!(!inner.covers(&outer));
        assert!(outer.covers(&outer));
    }

    #[test]
    fn checked_align_up_boundaries() {
        let top = HostPhysAddr::new(!(PAGE_SIZE_4K - 1)); // aligned top boundary
        assert_eq!(top.checked_align_up(PAGE_SIZE_4K), Some(top));
        assert_eq!(
            HostPhysAddr::new(top.raw() - 1)
                .checked_align_up(PAGE_SIZE_4K)
                .unwrap(),
            top
        );
        // Inside the top partial page: no representable boundary.
        assert_eq!(
            HostPhysAddr::new(top.raw() + 1).checked_align_up(PAGE_SIZE_4K),
            None
        );
        assert_eq!(
            HostPhysAddr::new(u64::MAX).checked_align_up(PAGE_SIZE_4K),
            None
        );
        assert_eq!(
            GuestVirtAddr::new(1).checked_align_up(PAGE_SIZE_2M),
            Some(GuestVirtAddr::new(PAGE_SIZE_2M))
        );
    }

    /// Regression: near the top of the address space `align_up` saturated
    /// the add and silently rounded *down* (0xffff_ffff_ffff_fff5 →
    /// 0xffff_ffff_ffff_f000). It must refuse instead.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "align_up overflows")]
    fn align_up_overflow_panics_in_debug() {
        let _ = HostPhysAddr::new(u64::MAX - 10).align_up(PAGE_SIZE_4K);
    }

    #[test]
    fn identity_conversion_roundtrip() {
        let g = GuestPhysAddr::new(0xdead_b000);
        assert_eq!(g.to_host_identity().to_guest_identity(), g);
    }
}
