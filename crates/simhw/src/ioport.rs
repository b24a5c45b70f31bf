//! Legacy I/O port space and the VMX I/O intercept bitmap.
//!
//! I/O operations are the fourth resource class Covirt can protect. The
//! model keeps a node-wide port space (a few well-known ports stand in for
//! real devices, and count the writes that reach them) and the VMX-style
//! 64-Kbit intercept bitmap.

use parking_lot::RwLock;
use std::collections::HashMap;

/// Serial port COM1 data register — a port a co-kernel legitimately pokes
/// for early console output.
pub const PORT_COM1: u16 = 0x3f8;
/// The keyboard controller reset line — a port that must never be reached
/// from an enclave (writing 0xFE there reboots the node).
pub const PORT_KBD_RESET: u16 = 0x64;
/// PCI configuration address port.
pub const PORT_PCI_CONFIG_ADDR: u16 = 0xcf8;
/// PCI configuration data port.
pub const PORT_PCI_CONFIG_DATA: u16 = 0xcfc;

/// Node-wide port space (device side).
#[derive(Default)]
pub struct IoPortSpace {
    /// Count of writes per port — lets tests assert a dangerous write never
    /// reached the "device".
    writes: RwLock<HashMap<u16, u64>>,
}

impl IoPortSpace {
    /// Create an empty port space.
    pub fn new() -> Self {
        Self::default()
    }

    /// OUT instruction (device side): the model's devices keep no value,
    /// only how often each port was written.
    pub fn write(&self, port: u16, _value: u32) {
        *self.writes.write().entry(port).or_insert(0) += 1;
    }

    /// How many writes have reached `port`.
    pub fn write_count(&self, port: u16) -> u64 {
        *self.writes.read().get(&port).unwrap_or(&0)
    }
}

const IO_WORDS: usize = 65536 / 64;

/// VMX-style I/O bitmap: one bit per port; set ⇒ the access VM-exits.
pub struct IoBitmap {
    bits: Box<[u64; IO_WORDS]>,
}

impl Default for IoBitmap {
    fn default() -> Self {
        Self::intercept_none()
    }
}

impl IoBitmap {
    /// Intercept no ports.
    pub fn intercept_none() -> Self {
        IoBitmap {
            bits: Box::new([0; IO_WORDS]),
        }
    }

    /// Set or clear the intercept for one port.
    pub fn set(&mut self, port: u16, intercept: bool) {
        let w = (port / 64) as usize;
        let m = 1u64 << (port % 64);
        if intercept {
            self.bits[w] |= m;
        } else {
            self.bits[w] &= !m;
        }
    }

    /// Set or clear the intercept for an inclusive port range.
    pub fn set_range(&mut self, first: u16, last: u16, intercept: bool) {
        for p in first..=last {
            self.set(p, intercept);
        }
    }

    /// Does an access to `port` exit?
    pub fn exits(&self, port: u16) -> bool {
        self.bits[(port / 64) as usize] & (1u64 << (port % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_writes_are_counted() {
        let io = IoPortSpace::new();
        assert_eq!(io.write_count(PORT_COM1), 0);
        io.write(PORT_COM1, b'x' as u32);
        io.write(PORT_COM1, b'y' as u32);
        assert_eq!(io.write_count(PORT_COM1), 2);
        assert_eq!(io.write_count(PORT_KBD_RESET), 0);
    }

    #[test]
    fn bitmap_default_passes() {
        let b = IoBitmap::intercept_none();
        assert!(!b.exits(PORT_COM1));
        assert!(!b.exits(0));
        assert!(!b.exits(u16::MAX));
    }

    #[test]
    fn bitmap_selective() {
        let mut b = IoBitmap::intercept_none();
        b.set(PORT_KBD_RESET, true);
        assert!(b.exits(PORT_KBD_RESET));
        assert!(!b.exits(PORT_COM1));
        b.set(PORT_KBD_RESET, false);
        assert!(!b.exits(PORT_KBD_RESET));
    }

    #[test]
    fn bitmap_range() {
        let mut b = IoBitmap::intercept_none();
        b.set_range(PORT_PCI_CONFIG_ADDR, PORT_PCI_CONFIG_DATA + 3, true);
        assert!(b.exits(PORT_PCI_CONFIG_ADDR));
        assert!(b.exits(PORT_PCI_CONFIG_DATA));
        assert!(b.exits(PORT_PCI_CONFIG_DATA + 3));
        assert!(!b.exits(PORT_PCI_CONFIG_DATA + 4));
    }
}
