//! Local APIC model: the ICR (IPI transmission), EOI, and the LAPIC timer.
//!
//! IPI *transmission* is the resource Covirt's second protection feature
//! guards: in Hobbes, per-core vectors are a globally allocatable
//! application resource, and a misdirected ICR write can mimic device
//! interrupts on a victim OS/R. The model exposes the ICR as a register
//! write ([`LocalApic::icr_write`]) so the hypervisor can interpose on it
//! exactly as VMX's APIC-virtualization does.
//!
//! The timer is a deadline in TSC cycles, polled at safe points — the
//! standard discrete-event treatment, and a faithful model of an LWK where
//! ticks are rare and handled at quiescent points.

use crate::clock::TscClock;
use crate::error::HwResult;
use crate::interconnect::{DeliveryMode, Interconnect, IpiDest};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// ICR delivery-mode field values (subset).
pub const ICR_MODE_FIXED: u64 = 0b000;
/// NMI delivery mode.
pub const ICR_MODE_NMI: u64 = 0b100;

/// Destination shorthand field values.
pub const ICR_SH_NONE: u64 = 0b00;
/// Self shorthand.
pub const ICR_SH_SELF: u64 = 0b01;
/// All including self.
pub const ICR_SH_ALL_INC: u64 = 0b10;
/// All excluding self.
pub const ICR_SH_ALL_EXC: u64 = 0b11;

/// A decoded ICR write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IcrCommand {
    /// Interrupt vector (ignored for NMI).
    pub vector: u8,
    /// Delivery mode (`ICR_MODE_*`).
    pub mode: u64,
    /// Destination APIC id (physical mode).
    pub dest: u32,
    /// Destination shorthand (`ICR_SH_*`).
    pub shorthand: u64,
}

impl IcrCommand {
    /// Encode into the x2APIC 64-bit ICR layout (vector 0..7, delivery mode
    /// 8..10, shorthand 18..19, destination 32..63).
    pub fn encode(&self) -> u64 {
        (self.vector as u64)
            | (self.mode << 8)
            | (self.shorthand << 18)
            | ((self.dest as u64) << 32)
    }

    /// Decode from the x2APIC 64-bit ICR layout.
    pub fn decode(raw: u64) -> Self {
        IcrCommand {
            vector: (raw & 0xff) as u8,
            mode: (raw >> 8) & 0b111,
            dest: (raw >> 32) as u32,
            shorthand: (raw >> 18) & 0b11,
        }
    }

    /// Resolve the destination relative to the sending core.
    pub fn resolve_dest(&self, sender: usize) -> IpiDest {
        match self.shorthand {
            ICR_SH_SELF => IpiDest::Core(sender),
            ICR_SH_ALL_INC => IpiDest::AllIncludingSelf,
            ICR_SH_ALL_EXC => IpiDest::AllExcludingSelf,
            _ => IpiDest::Core(self.dest as usize),
        }
    }

    /// The interconnect delivery mode.
    pub fn delivery(&self) -> DeliveryMode {
        if self.mode == ICR_MODE_NMI {
            DeliveryMode::Nmi
        } else {
            DeliveryMode::Fixed(self.vector)
        }
    }
}

/// The per-core local APIC.
pub struct LocalApic {
    /// This APIC's id (== core id on our node).
    pub id: usize,
    interconnect: Arc<Interconnect>,
    clock: Arc<TscClock>,
    /// Timer deadline in TSC cycles; 0 = disarmed.
    timer_deadline: AtomicU64,
    /// Timer period in cycles (0 = one-shot).
    timer_period: AtomicU64,
    /// Vector the timer delivers.
    timer_vector: AtomicU64,
}

impl LocalApic {
    /// Build the APIC for core `id`.
    pub fn new(id: usize, interconnect: Arc<Interconnect>, clock: Arc<TscClock>) -> Self {
        LocalApic {
            id,
            interconnect,
            clock,
            timer_deadline: AtomicU64::new(0),
            timer_period: AtomicU64::new(0),
            timer_vector: AtomicU64::new(0xec),
        }
    }

    /// Write the ICR: decodes the command and delivers the interrupt
    /// immediately (the simulated bus has no queuing delay).
    pub fn icr_write(&self, raw: u64) -> HwResult<()> {
        let cmd = IcrCommand::decode(raw);
        self.interconnect
            .send(self.id, cmd.resolve_dest(self.id), cmd.delivery())
    }

    /// Arm the timer to fire `period_ns` from now; `periodic` rearms
    /// automatically on expiry. A `period_ns` of 0 disarms.
    pub fn arm_timer(&self, period_ns: u64, periodic: bool, vector: u8) {
        self.timer_vector.store(vector as u64, Ordering::Relaxed);
        if period_ns == 0 {
            self.timer_deadline.store(0, Ordering::Release);
            self.timer_period.store(0, Ordering::Relaxed);
            return;
        }
        let cycles = self.clock.ns_to_cycles(period_ns);
        self.timer_period
            .store(if periodic { cycles } else { 0 }, Ordering::Relaxed);
        self.timer_deadline
            .store(self.clock.rdtsc() + cycles, Ordering::Release);
    }

    /// Poll the timer: if the deadline passed, deliver the timer vector to
    /// this core's own mailbox (and rearm if periodic). Returns true if it
    /// fired. Called from the core's safe points.
    pub fn poll_timer(&self) -> bool {
        let deadline = self.timer_deadline.load(Ordering::Acquire);
        if deadline == 0 {
            return false;
        }
        let now = self.clock.rdtsc();
        if now < deadline {
            return false;
        }
        let period = self.timer_period.load(Ordering::Relaxed);
        // Skip missed periods rather than delivering a burst — models a
        // discarded-overrun LAPIC programmed by a tickless LWK.
        let next = match (now - deadline).checked_div(period) {
            Some(missed) => deadline + (missed + 1) * period,
            None => 0, // one-shot: disarm
        };
        if self
            .timer_deadline
            .compare_exchange(deadline, next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let vector = self.timer_vector.load(Ordering::Relaxed) as u8;
            let _ = self.interconnect.send(
                self.id,
                IpiDest::Core(self.id),
                DeliveryMode::Fixed(vector),
            );
            true
        } else {
            false
        }
    }

    /// The node clock this APIC's timer runs off.
    pub fn clock(&self) -> &Arc<TscClock> {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cores: usize) -> (Arc<Interconnect>, Arc<TscClock>, Vec<LocalApic>) {
        let ic = Arc::new(Interconnect::new(cores));
        let clock = Arc::new(TscClock::new(1_000_000_000));
        let apics = (0..cores)
            .map(|i| LocalApic::new(i, Arc::clone(&ic), Arc::clone(&clock)))
            .collect();
        (ic, clock, apics)
    }

    #[test]
    fn icr_encode_decode_roundtrip() {
        let cmd = IcrCommand {
            vector: 0x42,
            mode: ICR_MODE_FIXED,
            dest: 3,
            shorthand: ICR_SH_NONE,
        };
        assert_eq!(IcrCommand::decode(cmd.encode()), cmd);
        let nmi = IcrCommand {
            vector: 0,
            mode: ICR_MODE_NMI,
            dest: 7,
            shorthand: ICR_SH_ALL_EXC,
        };
        assert_eq!(IcrCommand::decode(nmi.encode()), nmi);
    }

    #[test]
    fn icr_write_delivers_fixed() {
        let (ic, _, apics) = setup(4);
        let cmd = IcrCommand {
            vector: 0x90,
            mode: ICR_MODE_FIXED,
            dest: 2,
            shorthand: ICR_SH_NONE,
        };
        apics[0].icr_write(cmd.encode()).unwrap();
        assert!(ic.mailbox(2).unwrap().irr.test(0x90));
    }

    #[test]
    fn icr_write_delivers_nmi() {
        let (ic, _, apics) = setup(2);
        let cmd = IcrCommand {
            vector: 0,
            mode: ICR_MODE_NMI,
            dest: 1,
            shorthand: ICR_SH_NONE,
        };
        apics[0].icr_write(cmd.encode()).unwrap();
        assert!(ic.mailbox(1).unwrap().take_nmi());
    }

    #[test]
    fn shorthand_self() {
        let (ic, _, apics) = setup(2);
        let cmd = IcrCommand {
            vector: 0x31,
            mode: ICR_MODE_FIXED,
            dest: 99,
            shorthand: ICR_SH_SELF,
        };
        apics[1].icr_write(cmd.encode()).unwrap();
        assert!(ic.mailbox(1).unwrap().irr.test(0x31));
        assert!(!ic.mailbox(0).unwrap().irr.test(0x31));
    }

    #[test]
    fn timer_oneshot_fires_once() {
        let (ic, _, apics) = setup(1);
        apics[0].arm_timer(1, false, 0xec); // 1 ns — already due
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(apics[0].poll_timer());
        assert!(ic.mailbox(0).unwrap().irr.test(0xec));
        assert!(!apics[0].poll_timer());
    }

    #[test]
    fn timer_periodic_rearms() {
        let (_, _, apics) = setup(1);
        apics[0].arm_timer(100_000, true, 0xec); // 100 µs period
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(apics[0].poll_timer());
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(apics[0].poll_timer(), "periodic timer should fire again");
    }

    #[test]
    fn timer_disarm() {
        let (_, _, apics) = setup(1);
        apics[0].arm_timer(100, true, 0xec);
        apics[0].arm_timer(0, false, 0xec);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(!apics[0].poll_timer());
    }

    #[test]
    fn timer_not_due_does_not_fire() {
        let (_, _, apics) = setup(1);
        apics[0].arm_timer(10_000_000_000, false, 0xec); // 10 s away
        assert!(!apics[0].poll_timer());
    }
}
