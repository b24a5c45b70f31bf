//! Cache-line placement of words two threads share.
//!
//! A word the host writes on every grant or reclaim must not share a cache
//! line with a word a guest core reads at every safe point or on every
//! walk: each write then costs the guest core a miss on a line it only
//! reads. The unit of that rule is [`LINE_BYTES`], two 64-byte lines,
//! because the adjacent-line prefetcher of Intel cores moves lines in
//! aligned pairs. A type that holds both kinds of word puts the written
//! ones in a [`Line`], and its tests check the placement with
//! [`shares_line`].

/// The unit of the placement rule: an aligned pair of 64-byte lines.
pub const LINE_BYTES: usize = 128;

/// `T` on lines of its own: aligned to [`LINE_BYTES`] and padded to a
/// multiple of it, so no field around it shares one of its lines.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Line<T>(pub T);

impl<T> std::ops::Deref for Line<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Line<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Whether the `a_len` bytes at offset `a` and the `b_len` bytes at offset
/// `b` of one [`LINE_BYTES`]-aligned object touch a common line. Empty
/// spans touch none.
pub const fn shares_line(a: usize, a_len: usize, b: usize, b_len: usize) -> bool {
    if a_len == 0 || b_len == 0 {
        return false;
    }
    let (a_first, a_last) = (a / LINE_BYTES, (a + a_len - 1) / LINE_BYTES);
    let (b_first, b_last) = (b / LINE_BYTES, (b + b_len - 1) / LINE_BYTES);
    a_first <= b_last && b_first <= a_last
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{align_of, size_of};

    #[test]
    fn a_line_is_aligned_and_padded_to_the_unit() {
        assert_eq!(align_of::<Line<u8>>(), LINE_BYTES);
        assert_eq!(size_of::<Line<u8>>(), LINE_BYTES);
        assert_eq!(size_of::<Line<[u8; LINE_BYTES + 1]>>(), 2 * LINE_BYTES);
    }

    #[test]
    fn spans_share_a_line_only_when_they_touch_one() {
        assert!(shares_line(0, 8, 120, 8));
        assert!(shares_line(120, 16, 128, 8), "a span across a boundary");
        assert!(!shares_line(0, 128, 128, 8));
        assert!(!shares_line(0, 0, 0, 8), "an empty span");
    }
}
