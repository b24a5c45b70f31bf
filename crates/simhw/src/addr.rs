//! Address newtypes and the page sizes.
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

/// The three page sizes of x86-64 paging, smallest first (so `min` picks the
/// smaller page). The one place a size, its offset bits and the table level
/// whose leaves have it are related: whatever holds a `PageSize` holds a size
/// the TLB, the walk cache and the radix engine all know.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageSize {
    /// 4 KiB base page: a level-1 (PT) leaf.
    Size4K,
    /// 2 MiB large page: a level-2 (PD) leaf.
    Size2M,
    /// 1 GiB giant page: a level-3 (PDPT) leaf.
    Size1G,
}

impl PageSize {
    /// Every size, smallest first.
    pub const ALL: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

    /// Bits of the page offset.
    #[inline]
    pub const fn shift(self) -> u32 {
        level_shift(self.level())
    }

    /// Size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        1 << self.shift()
    }

    /// Base of the page of this size containing `addr`.
    #[inline]
    pub const fn base_of(self, addr: u64) -> u64 {
        addr & !(self.bytes() - 1)
    }

    /// The table level (1 = PT … 3 = PDPT) whose leaves map this size.
    #[inline]
    pub const fn level(self) -> u8 {
        match self {
            PageSize::Size4K => 1,
            PageSize::Size2M => 2,
            PageSize::Size1G => 3,
        }
    }

    /// The size a leaf at `level` maps; `None` for a level that has no
    /// leaves (the PML4, or no level at all).
    #[inline]
    pub const fn from_level(level: u8) -> Option<Self> {
        match level {
            1 => Some(PageSize::Size4K),
            2 => Some(PageSize::Size2M),
            3 => Some(PageSize::Size1G),
            _ => None,
        }
    }

    /// The size of exactly `bytes` bytes, if there is one.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Option<Self> {
        match bytes {
            PAGE_SIZE_4K => Some(PageSize::Size4K),
            PAGE_SIZE_2M => Some(PageSize::Size2M),
            PAGE_SIZE_1G => Some(PageSize::Size1G),
            _ => None,
        }
    }
}

/// Address bits below the table index of `level` (1 = PT … 4 = PML4): the 12
/// offset bits of a base page plus 9 index bits per level beneath. One entry
/// at `level` spans `1 << level_shift(level)` bytes, and a leaf there maps a
/// page of that size.
#[inline]
pub(crate) const fn level_shift(level: u8) -> u32 {
    12 + 9 * (level as u32 - 1)
}

/// 4 KiB base page.
pub const PAGE_SIZE_4K: u64 = PageSize::Size4K.bytes();
/// 2 MiB large page.
pub const PAGE_SIZE_2M: u64 = PageSize::Size2M.bytes();
/// 1 GiB giant page.
pub const PAGE_SIZE_1G: u64 = PageSize::Size1G.bytes();

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

    /// The range of `len` bytes at `start`, built from words another party
    /// wrote (a co-kernel's ring or boot page); `None` when its end would
    /// not fit the address space. Every range made of such words goes
    /// through here, so [`Self::end`] and [`Self::contains`] cannot wrap.
    pub const fn checked(start: u64, len: u64) -> Option<Self> {
        match start.checked_add(len) {
            Some(_) => Some(Self::new(HostPhysAddr(start), len)),
            None => None,
        }
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
    }

    #[test]
    fn align_noop_when_aligned() {
        let a = GuestPhysAddr::new(PAGE_SIZE_2M * 3);
        assert_eq!(a.align_up(PAGE_SIZE_2M), a);
        assert_eq!(a.align_down(PAGE_SIZE_2M), a);
    }

    /// A range whose end would wrap is refused; one that ends exactly at
    /// the top of the address space is not.
    #[test]
    fn a_checked_range_never_wraps() {
        let page = !0xfff_u64;
        assert_eq!(PhysRange::checked(page, 0x2000), None);
        assert_eq!(PhysRange::checked(u64::MAX, 1), None);
        let top = PhysRange::checked(page, 0xfff).unwrap();
        assert_eq!(top.end().raw(), u64::MAX);
        assert!(top.contains(HostPhysAddr::new(page)));
        assert_eq!(
            PhysRange::checked(0x1000, 0x1000),
            Some(PhysRange::new(HostPhysAddr::new(0x1000), 0x1000))
        );
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
}
