//! Time-stamp counter model.
//!
//! The paper samples the hardware TSC around XEMEM attach operations
//! (Figure 4) and inside the Selfish-Detour loop (Figure 3). The simulator
//! offers the same instrument: a monotonic cycle counter derived from the
//! host's monotonic clock, scaled to the node's nominal TSC frequency.

use std::time::Instant;

/// A node-wide TSC: all cores read the same invariant counter, as on any
/// post-Nehalem Intel part.
pub struct TscClock {
    start: Instant,
    hz: u64,
}

impl TscClock {
    /// Create a clock ticking at `hz` cycles per second.
    pub fn new(hz: u64) -> Self {
        TscClock {
            start: Instant::now(),
            hz,
        }
    }

    /// RDTSC: cycles since the clock was created.
    #[inline]
    pub fn rdtsc(&self) -> u64 {
        let ns = self.start.elapsed().as_nanos() as u64;
        // 128-bit intermediate avoids overflow for multi-hour runs.
        (ns as u128 * self.hz as u128 / 1_000_000_000) as u64
    }

    /// Nominal frequency in Hz.
    #[inline]
    pub fn hz(&self) -> u64 {
        self.hz
    }

    /// Convert a cycle delta to nanoseconds.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        (cycles as u128 * 1_000_000_000 / self.hz as u128) as u64
    }

    /// Convert nanoseconds to cycles.
    #[inline]
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        (ns as u128 * self.hz as u128 / 1_000_000_000) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let c = TscClock::new(1_700_000_000);
        let a = c.rdtsc();
        let b = c.rdtsc();
        assert!(b >= a);
    }

    #[test]
    fn conversion_roundtrip() {
        let c = TscClock::new(1_700_000_000);
        let ns = 1_000_000;
        let cycles = c.ns_to_cycles(ns);
        assert_eq!(cycles, 1_700_000);
        let back = c.cycles_to_ns(cycles);
        assert!((back as i64 - ns as i64).abs() <= 1);
    }

    #[test]
    fn ticks_forward_in_real_time() {
        let c = TscClock::new(1_000_000_000);
        let a = c.rdtsc();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.rdtsc();
        assert!(
            b - a >= 1_000_000,
            "expected at least 1ms of cycles, got {}",
            b - a
        );
    }
}
