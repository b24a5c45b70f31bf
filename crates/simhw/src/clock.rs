//! Time-stamp counter model.
//!
//! The paper samples the hardware TSC around XEMEM attach operations
//! (Figure 4) and inside the Selfish-Detour loop (Figure 3). The simulator
//! offers the same instrument: a monotonic cycle counter derived from the
//! host's monotonic clock, scaled to the node's nominal TSC frequency.
//!
//! It is the model's one clock: every stamp, timer and workload timing
//! reads it, and every modelled cost is charged on it
//! ([`TscClock::charge_ns`]).

use std::time::{Duration, Instant};

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
        self.ns_to_cycles(self.start.elapsed().as_nanos() as u64)
    }

    /// Nanoseconds since `t0`, an earlier [`Self::rdtsc`] reading.
    #[inline]
    pub fn ns_since(&self, t0: u64) -> u64 {
        self.cycles_to_ns(self.rdtsc().saturating_sub(t0))
    }

    /// Charge a modelled hardware cost of `ns`: spin until this clock has
    /// advanced by `ns` since the call began. The deadline is computed
    /// once, and each poll is one read of the host clock this clock
    /// scales, compared unscaled, with no `PAUSE` between reads: the charge
    /// never returns before its deadline and overshoots it by at most one
    /// read. Out of line: inlined into the exit and safe-point paths it
    /// cost `faultcycle`'s `native_ratio` 1.2 % (EXPERIMENTS.md §PR 55).
    #[inline(never)]
    pub fn charge_ns(&self, ns: u64) {
        let end = Instant::now() + Duration::from_nanos(ns);
        while Instant::now() < end {}
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

    /// Convert nanoseconds to cycles. The 128-bit intermediate avoids
    /// overflow for multi-hour runs.
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

    /// A charge never returns before its deadline, read on the clock it
    /// charges. Only the lower bound is checked: a loaded host may
    /// deschedule the spinner for any time past it.
    #[test]
    fn a_spin_never_returns_before_its_deadline() {
        let c = TscClock::new(1_700_000_000);
        for ns in [0, 1, 50, 700, 5_000, 100_000] {
            for _ in 0..100 {
                let t = c.rdtsc();
                c.charge_ns(ns);
                let took = c.rdtsc() - t;
                assert!(
                    took >= c.ns_to_cycles(ns),
                    "charge_ns({ns}) took {took} cycles"
                );
            }
        }
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
