//! The five workloads and the interface the runner drives them through.
//!
//! Every workload owns its access kernel and reaches the program only
//! through public APIs (`workloads::World`, `GuestCore`, the controller,
//! Pisces, Hobbes, Kitten and the `covirt-simhw` types), so refactoring the
//! `workloads::*` harnesses cannot change what is measured. Each is a
//! closed loop with one client: the driver thread issues the next op only
//! after the previous one completed.

pub mod faultcycle;
pub mod frag;
pub mod gups;
pub mod memchurn;
pub mod stream;

use crate::costs::Counts;
use crate::spans::Spans;
use covirt::config::CovirtConfig;
use covirt::{ExecMode, GuestCore};
use std::collections::BTreeMap;
use workloads::World;

/// Workload names, in run order. Later issues cite them; they are fixed.
pub const WORKLOADS: [&str; 5] = ["stream", "gups", "frag", "memchurn", "faultcycle"];

/// The configuration every Covirt arm runs under: memory + IPI protection,
/// the paper's main-evaluation setting.
pub const COVIRT: ExecMode = ExecMode::Covirt(CovirtConfig::MEM_IPI);

/// One side of the native/Covirt comparison. Reps alternate between the
/// two so both see the same host conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Plain Pisces co-kernel: the paper's baseline.
    Native = 0,
    /// The same work under the Covirt hypervisor.
    Covirt = 1,
}

impl Arm {
    /// The execution mode this arm's world is built for.
    pub fn mode(self) -> ExecMode {
        match self {
            Arm::Native => ExecMode::Native,
            Arm::Covirt => COVIRT,
        }
    }
}

/// Per-op latency samples in microseconds, by short name (`grant`,
/// `reclaim`, `bringup`, `contain`), Covirt arm only.
pub type Latencies = BTreeMap<&'static str, Vec<f64>>;

/// What the final output check found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Finish {
    /// Ops whose output was wrong.
    pub failed: u64,
    /// Digest of the outputs: equal for equal seeds, different otherwise.
    pub checksum: u64,
}

/// What the layer probes run against: the workload's own Covirt world
/// (page tables, EPT, regions) and the guest core that ran it.
pub struct ProbeTarget<'a> {
    pub world: &'a World,
    pub guest: &'a mut GuestCore,
    /// One address on each of a few distinct pages of the workload's data.
    pub pages: Vec<u64>,
}

/// A workload as the runner sees it.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Ops one rep performs in one arm (fixed, so counts reproduce).
    const OPS_PER_REP: u64;
    /// Native+Covirt rep pairs per requested second of measuring,
    /// calibrated on the 2-vCPU sandbox so the measured phase takes about
    /// 0.85 of `--seconds`.
    const PAIRS_PER_SECOND: f64;
    /// OS threads the workload keeps busy, the driver included.
    const THREADS: usize = 1;

    /// Build both worlds, allocate and initialise from `seed`, and run one
    /// warm rep per arm. This is what `setup_s` times.
    fn setup(seed: u64) -> Self;

    /// Run one rep in `arm`; returns the ops that failed.
    fn rep(&mut self, arm: Arm, spans: &mut Spans) -> u64;

    /// Untimed work between rep pairs (rebuilding a worn-out node).
    fn housekeeping(&mut self) {}

    /// The arm's cumulative counter vector.
    fn counts(&mut self, arm: Arm) -> Counts;

    /// Bytes the arm's zone 0 has handed out and not got back, cumulative
    /// over any node rebuilds.
    fn in_use_bytes(&self, arm: Arm) -> u64;

    /// Take the latency samples collected since the last call.
    fn take_latencies(&mut self) -> Latencies {
        Latencies::new()
    }

    /// Spans only a traced run records (barrier and XEMEM samples).
    fn trace_extras(&mut self, _spans: &mut Spans, _batches: usize) {}

    /// Check the outputs. Called once, after the last rep.
    fn finish(&mut self) -> Finish;

    /// Quiesce the workload and expose its Covirt world to the probes.
    fn probe_target(&mut self) -> ProbeTarget<'_>;
}

/// One untimed rep per arm, so caches fill and lazy set-up finishes before
/// anything is measured. Every `setup` ends with it.
pub fn warm<W: Workload>(w: &mut W) {
    let mut off = Spans::new(std::time::Instant::now());
    for arm in [Arm::Native, Arm::Covirt] {
        assert_eq!(w.rep(arm, &mut off), 0, "warm rep failed");
    }
}

/// xorshift64* — the benchmark's only source of input randomness, so the
/// same `--seed` always generates the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seed through one splitmix64 step so that neighbouring seeds give
    /// unrelated streams and a zero seed is usable.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fold `word` into a running FNV-1a style digest.
#[inline]
pub fn digest(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The node-and-controller half of a world's counter vector plus its one
/// guest core's half.
pub fn world_counts(world: &World, guest: &GuestCore) -> Counts {
    Counts::of_core(guest).plus(&Counts::of_node(
        &world.node.mem,
        world.controller.as_deref(),
        world.enclave.id.0,
    ))
}

/// Zone-0 bytes in use on a world's node.
pub fn zone0_in_use(world: &World) -> u64 {
    world
        .node
        .mem
        .zone_usage(covirt_simhw::topology::ZoneId(0))
        .expect("zone 0 exists")
        .1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(1);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(1);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let c = Rng::new(2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        assert_ne!(Rng::new(0).next_u64(), 0);
        let f = Rng::new(3).next_f64();
        assert!((0.0..1.0).contains(&f));
    }
}
