//! Per-core CPU state: the core's VMX lifecycle, its APIC and MSR file.
//!
//! Covirt replicates its hypervisor context per CPU core ("each hypervisor
//! context only supports a single CPU core and is unaware of other
//! hypervisor instances"); correspondingly each simulated [`Cpu`] carries
//! its own VMX state, APIC and MSR file.
//!
//! # The VMX lifecycle
//!
//! A core's VMX life is one word, read as a [`VmxState`] and changed only
//! by [`Cpu::transition`]. The states follow the SDM's VMX operation and
//! VMCS launch states (Intel SDM vol. 3C §24.1): outside VMX operation, VMX
//! non-root operation on a launched VMCS, and VMX root operation with that
//! VMCS still current and launched. `e` is the enclave whose VMCS is
//! current:
//!
//! ```text
//!   Off ── Launch ──▶ Guest(e) ── Exit ───▶ Root(e)
//!                     Guest(e) ◀── Resume ── Root(e)
//!   Off ◀── Leave ─── Guest(e) or Root(e)
//! ```
//!
//! [`VmxEvent`] names the instructions behind each arrow. Every other pair
//! is refused with an [`HwError`], and the state stays:
//! [`HwError::VmxNotEnabled`] outside VMX operation,
//! [`HwError::InvalidVmcs`] for an event of an enclave whose VMCS is not
//! current, [`HwError::Invalid`] otherwise (a second VMXON among them). The
//! word belongs to the physical core, not to an enclave: a core no one took
//! out of VMX operation refuses the next enclave's `Launch`.

use crate::apic::LocalApic;
use crate::error::{HwError, HwResult};
use crate::msr::MsrFile;
use crate::topology::CoreId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a core is in its VMX life; the enclave is the one whose VMCS is
/// current.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmxState {
    /// Outside VMX operation: host (Linux / Pisces) context, or idle.
    Off,
    /// VMX non-root operation: the enclave's co-kernel runs on its
    /// launched VMCS.
    Guest(u64),
    /// VMX root operation: the Covirt hypervisor handles an exit of the
    /// enclave's guest.
    Root(u64),
}

/// Low bits of the lifecycle word holding the state; the enclave takes the
/// rest.
const STATE_BITS: u32 = 2;

impl VmxState {
    /// The enclave whose VMCS is current, while the core is in VMX
    /// operation.
    pub fn enclave(self) -> Option<u64> {
        match self {
            VmxState::Off => None,
            VmxState::Guest(e) | VmxState::Root(e) => Some(e),
        }
    }

    fn word(self) -> u64 {
        match self {
            VmxState::Off => 0,
            VmxState::Guest(e) => e << STATE_BITS | 1,
            VmxState::Root(e) => e << STATE_BITS | 2,
        }
    }

    fn from_word(word: u64) -> Self {
        match word & ((1 << STATE_BITS) - 1) {
            1 => VmxState::Guest(word >> STATE_BITS),
            2 => VmxState::Root(word >> STATE_BITS),
            _ => VmxState::Off,
        }
    }
}

/// What moves a core between [`VmxState`]s (see the module doc).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmxEvent {
    /// VMXON, VMPTRLD and VMLAUNCH: `Off → Guest`.
    Launch,
    /// A VM exit: `Guest → Root`.
    Exit,
    /// VMRESUME: `Root → Guest`.
    Resume,
    /// VMCLEAR and VMXOFF: `Guest` or `Root` → `Off`.
    Leave,
}

/// One logical CPU core.
pub struct Cpu {
    /// Node-global core id (== APIC id).
    pub id: CoreId,
    /// The core's local APIC.
    pub apic: Arc<LocalApic>,
    /// The core's MSR file.
    pub msrs: MsrFile,
    /// The [`VmxState`], packed into one word.
    vmx: AtomicU64,
}

impl Cpu {
    /// Build a core with its APIC, outside VMX operation.
    pub fn new(id: CoreId, apic: Arc<LocalApic>) -> Self {
        Cpu {
            id,
            apic,
            msrs: MsrFile::new(),
            vmx: AtomicU64::new(VmxState::Off.word()),
        }
    }

    /// Where the core is in its VMX life.
    pub fn vmx_state(&self) -> VmxState {
        VmxState::from_word(self.vmx.load(Ordering::SeqCst))
    }

    /// Apply `event` on behalf of `enclave`'s hypervisor and return the
    /// state it leads to, or refuse it and leave the state as it was. Only
    /// the hypervisor instance driving the core calls this; the order is
    /// sequentially consistent, so a controller that reads the core out of
    /// guest mode after editing a table knows the core reads the edit when
    /// it enters again.
    pub fn transition(&self, enclave: u64, event: VmxEvent) -> HwResult<VmxState> {
        let mut word = self.vmx.load(Ordering::SeqCst);
        loop {
            let next = self.next(VmxState::from_word(word), enclave, event)?;
            let swap =
                self.vmx
                    .compare_exchange(word, next.word(), Ordering::SeqCst, Ordering::SeqCst);
            match swap {
                Ok(_) => return Ok(next),
                Err(now) => word = now,
            }
        }
    }

    /// The one transition table.
    fn next(&self, state: VmxState, enclave: u64, event: VmxEvent) -> HwResult<VmxState> {
        use VmxEvent::*;
        use VmxState::*;
        match (state, event) {
            (Off, Launch) if enclave >> (u64::BITS - STATE_BITS) == 0 => Ok(Guest(enclave)),
            (Off, Launch) => Err(HwError::Invalid("enclave id wider than the VMX word")),
            (Off, _) => Err(HwError::VmxNotEnabled(self.id.0)),
            (_, Launch) => Err(HwError::Invalid("VMXON while already in VMX operation")),
            (Guest(e) | Root(e), _) if e != enclave => Err(HwError::InvalidVmcs),
            (Guest(e), Exit) => Ok(Root(e)),
            (Root(_), Exit) => Err(HwError::Invalid("VM exit outside VMX non-root operation")),
            (Root(e), Resume) => Ok(Guest(e)),
            (Guest(_), Resume) => Err(HwError::Invalid("VMRESUME outside VMX root operation")),
            (Guest(_) | Root(_), Leave) => Ok(Off),
        }
    }
}
