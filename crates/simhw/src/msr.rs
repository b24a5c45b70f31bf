//! Model-specific registers and the VMX MSR intercept bitmaps.
//!
//! Covirt lists MSR accesses among the operations it can protect. VMX
//! provides per-MSR read and write intercept bitmaps covering the low
//! (`0..=0x1fff`) and high (`0xc000_0000..=0xc000_1fff`) ranges; accesses to
//! MSRs outside those ranges unconditionally exit. Covirt intercepts only
//! writes, so the model keeps the write half and reproduces exactly its
//! dispatch.

use parking_lot::RwLock;
use std::collections::HashMap;

/// IA32_APIC_BASE.
pub const IA32_APIC_BASE: u32 = 0x1b;
/// IA32_EFER.
pub const IA32_EFER: u32 = 0xc000_0080;
/// IA32_FS_BASE.
pub const IA32_FS_BASE: u32 = 0xc000_0100;
/// IA32_GS_BASE.
pub const IA32_GS_BASE: u32 = 0xc000_0101;
/// IA32_TSC_DEADLINE.
pub const IA32_TSC_DEADLINE: u32 = 0x6e0;
/// IA32_MISC_ENABLE.
pub const IA32_MISC_ENABLE: u32 = 0x1a0;
/// A machine-check bank control MSR — something a guest must never touch.
pub const IA32_MC0_CTL: u32 = 0x400;

/// Per-core MSR file.
#[derive(Default)]
pub struct MsrFile {
    values: RwLock<HashMap<u32, u64>>,
}

impl MsrFile {
    /// Create an MSR file with architectural defaults.
    pub fn new() -> Self {
        let f = MsrFile::default();
        f.write(IA32_EFER, 0x500); // LME | LMA — long mode, as Pisces boots kernels
        f.write(IA32_MISC_ENABLE, 1);
        f
    }

    /// RDMSR.
    pub fn read(&self, index: u32) -> u64 {
        *self.values.read().get(&index).unwrap_or(&0)
    }

    /// WRMSR.
    pub fn write(&self, index: u32, value: u64) {
        self.values.write().insert(index, value);
    }
}

const LOW_BASE: u32 = 0;
const LOW_END: u32 = 0x2000;
const HIGH_BASE: u32 = 0xc000_0000;
const HIGH_END: u32 = 0xc000_2000;
const WORDS: usize = (0x2000 / 64) as usize;

/// The write half of a VMX MSR intercept bitmap: two 1-KiB bitmaps
/// (write-low, write-high). A set bit means the write causes a VM exit.
pub struct MsrBitmap {
    write_low: [u64; WORDS],
    write_high: [u64; WORDS],
}

impl Default for MsrBitmap {
    fn default() -> Self {
        Self::intercept_none()
    }
}

impl MsrBitmap {
    /// A bitmap that intercepts nothing in the covered ranges (accesses
    /// outside the ranges still exit, per VMX).
    pub fn intercept_none() -> Self {
        MsrBitmap {
            write_low: [0; WORDS],
            write_high: [0; WORDS],
        }
    }

    fn slot(index: u32) -> Option<(bool, usize, u64)> {
        if (LOW_BASE..LOW_END).contains(&index) {
            let bit = index - LOW_BASE;
            Some((true, (bit / 64) as usize, 1u64 << (bit % 64)))
        } else if (HIGH_BASE..HIGH_END).contains(&index) {
            let bit = index - HIGH_BASE;
            Some((false, (bit / 64) as usize, 1u64 << (bit % 64)))
        } else {
            None
        }
    }

    /// Mark writes of `index` as intercepted.
    pub fn intercept_write(&mut self, index: u32, intercept: bool) {
        if let Some((low, w, m)) = Self::slot(index) {
            let arr = if low {
                &mut self.write_low
            } else {
                &mut self.write_high
            };
            if intercept {
                arr[w] |= m;
            } else {
                arr[w] &= !m;
            }
        }
    }

    /// Does a write of `index` exit? (Out-of-range MSRs always exit.)
    pub fn write_exits(&self, index: u32) -> bool {
        match Self::slot(index) {
            Some((low, w, m)) => {
                let arr = if low {
                    &self.write_low
                } else {
                    &self.write_high
                };
                arr[w] & m != 0
            }
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msr_file_defaults_and_rw() {
        let f = MsrFile::new();
        assert_eq!(f.read(IA32_EFER), 0x500);
        assert_eq!(f.read(0x1234), 0);
        f.write(IA32_FS_BASE, 0xdead_0000);
        assert_eq!(f.read(IA32_FS_BASE), 0xdead_0000);
    }

    #[test]
    fn bitmap_default_passes_in_range() {
        let b = MsrBitmap::intercept_none();
        assert!(!b.write_exits(IA32_APIC_BASE));
        assert!(!b.write_exits(IA32_EFER));
    }

    #[test]
    fn out_of_range_always_exits() {
        let b = MsrBitmap::intercept_none();
        assert!(b.write_exits(0x8000_0000));
        assert!(b.write_exits(0x4000_0000));
    }

    #[test]
    fn selective_intercepts() {
        let mut b = MsrBitmap::intercept_none();
        b.intercept_write(IA32_MC0_CTL, true);
        assert!(b.write_exits(IA32_MC0_CTL));
        assert!(!b.write_exits(IA32_MC0_CTL + 4), "only the one MSR");
        b.intercept_write(IA32_MC0_CTL, false);
        assert!(!b.write_exits(IA32_MC0_CTL));
    }

    #[test]
    fn high_range_intercepts() {
        let mut b = MsrBitmap::intercept_none();
        b.intercept_write(IA32_GS_BASE, true);
        assert!(b.write_exits(IA32_GS_BASE));
        assert!(!b.write_exits(IA32_FS_BASE));
        assert!(!b.write_exits(IA32_GS_BASE - HIGH_BASE), "the low twin");
    }
}
