//! Time-stamp counter model.
//!
//! The paper samples the hardware TSC around XEMEM attach operations
//! (Figure 4) and inside the Selfish-Detour loop (Figure 3). The simulator
//! offers the same instrument: a monotonic cycle counter derived from the
//! host's monotonic clock, scaled to the node's nominal TSC frequency.

use std::sync::OnceLock;
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

/// Burn wall-clock time: return at the first clock read at or past `ns`
/// after the call began — how the model charges a fixed hardware cost.
///
/// The clock is the host's TSC where it ticks at a constant rate: one
/// `RDTSC` a poll instead of one `Instant::now`, which reads the TSC and
/// scales it. Its rate and the ticks one read takes are measured once per
/// process. Without a usable TSC the spin reads `Instant`.
#[inline]
pub fn spin_ns(ns: u64) {
    match HostTsc::get() {
        Some(host) => host.spin(ns),
        None => spin_instant(ns),
    }
}

/// [`spin_ns`] on `Instant`.
fn spin_instant(ns: u64) {
    let deadline = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < deadline {}
}

/// How long [`HostTsc::get`] measures the TSC against `Instant`.
const CALIBRATION: Duration = Duration::from_millis(2);

/// The host's time-stamp counter, measured.
#[derive(Clone, Copy)]
struct HostTsc {
    /// Ticks per nanosecond, 32.32 fixed point.
    rate: u64,
    /// The fewest ticks a read took, back to back.
    read: u64,
}

impl HostTsc {
    /// The host TSC, measured on first use: its rate against `Instant` over
    /// [`CALIBRATION`] and its cost per read. `None` where the TSC is
    /// missing, does not tick at a constant rate, or measured implausibly.
    fn get() -> Option<HostTsc> {
        static HOST: OnceLock<Option<HostTsc>> = OnceLock::new();
        *HOST.get_or_init(|| {
            if !invariant_tsc() {
                return None;
            }
            let (t0, i0) = tsc_at_instant();
            while i0.elapsed() < CALIBRATION {}
            let (t1, i1) = tsc_at_instant();
            let rate = ((t1.checked_sub(t0)? as u128) << 32) / (i1 - i0).as_nanos().max(1);
            // Between 0.1 and 100 GHz.
            let plausible = (1u128 << 32) / 10..=100u128 << 32;
            let read = (0..64)
                .map(|_| {
                    let a = tsc();
                    tsc().wrapping_sub(a)
                })
                .min()?;
            plausible.contains(&rate).then_some(HostTsc {
                rate: rate as u64,
                read,
            })
        })
    }

    /// `ns` in ticks, rounded up.
    fn ticks(&self, ns: u64) -> u64 {
        ((ns as u128 * self.rate as u128) >> 32) as u64 + 1
    }

    /// [`spin_ns`] on the TSC. The first read waits for what came before
    /// it (`LFENCE`), so it counts from the call. A read's value is taken
    /// inside the read, so the spin ends one read early by its values:
    /// what the first read spent before its value and the last one after
    /// it add up to that read. The charge then overshoots by up to one
    /// read and the fence.
    #[inline]
    fn spin(&self, ns: u64) {
        let end = tsc_ordered().saturating_add(self.ticks(ns).saturating_sub(self.read));
        while tsc() < end {}
    }
}

/// A TSC reading and the `Instant` taken between two reads no further apart
/// than any of a few tries got, the midpoint of those two.
fn tsc_at_instant() -> (u64, Instant) {
    let mut best = (u64::MAX, 0, Instant::now());
    for _ in 0..8 {
        let before = tsc();
        let at = Instant::now();
        let after = tsc();
        let spread = after.wrapping_sub(before);
        if spread < best.0 {
            best = (spread, before + spread / 2, at);
        }
    }
    (best.1, best.2)
}

/// The host's time-stamp counter (0 off x86-64).
#[inline]
fn tsc() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC reads a counter; it touches no memory.
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

/// [`tsc`] once every instruction before it has completed.
#[inline]
fn tsc_ordered() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: LFENCE orders instructions; it touches no memory.
    unsafe {
        std::arch::x86_64::_mm_lfence()
    };
    tsc()
}

/// Whether the host's TSC ticks at a constant rate in every power state
/// (CPUID leaf 8000_0007h, EDX bit 8).
fn invariant_tsc() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
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

    /// A spin never returns before its deadline, on the TSC or on
    /// `Instant` alike. Only the lower bound is checked: a loaded host may
    /// deschedule the spinner for any time past it.
    #[test]
    fn a_spin_never_returns_before_its_deadline() {
        let host = HostTsc::get();
        if invariant_tsc() {
            assert!(host.is_some(), "an invariant TSC measured implausibly");
        }
        let spins: [(&str, &dyn Fn(u64)); 2] =
            [("spin_ns", &spin_ns), ("spin_instant", &spin_instant)];
        for (name, spin) in spins {
            for ns in [0, 1, 50, 700, 5_000, 100_000] {
                for _ in 0..100 {
                    let t = Instant::now();
                    spin(ns);
                    let took = t.elapsed();
                    assert!(
                        took >= Duration::from_nanos(ns),
                        "{name}({ns}) took {took:?}"
                    );
                }
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
