//! Driver for `figures profile` — always-on cycle accounting with
//! per-enclave phase attribution.
//!
//! Two runs share one shape: enable the profiler, bracket every guest
//! core with `profile_begin`/`profile_finish`, drive real workload
//! traffic (STREAM plus a grant → touch → epoch-reclaim churn loop), and
//! read the phase totals at the end. The clean run yields the per-enclave
//! × per-phase cycle breakdown and the conservation check (accounted
//! cycles must equal wall-clock TSC per core); the fault run adds a
//! bystander enclave beside a misbehaving one — reclaim churn, then a
//! contained fault — and must pin the ShootdownWait cycle spike on the
//! misbehaving enclave, not the bystander.

use covirt::GuestCore;
use covirt_simhw::topology::{CoreId, ZoneId};
use covirt_trace::{Phase, ProfileSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::{scenario, stream, World};

/// What a profile run measured.
pub struct ProfileReport {
    /// Final per-core × per-enclave × per-phase cycle totals.
    pub snapshot: ProfileSnapshot,
    /// The workload enclave (the misbehaving one on fault runs).
    pub enclave: u64,
    /// The clean bystander enclave (fault runs only).
    pub bystander: Option<u64>,
}

impl ProfileReport {
    /// Worst per-lane conservation error across lanes that ran a session.
    pub fn max_conservation_error(&self) -> f64 {
        self.snapshot
            .lanes
            .iter()
            .filter(|l| l.wall > 0)
            .map(|l| l.conservation_error())
            .fold(0.0, f64::max)
    }

    /// Cycles attributed to `enclave` in `phase`, merged across lanes and
    /// the controller overlay.
    pub fn enclave_phase_cycles(&self, enclave: u64, phase: Phase) -> u64 {
        self.snapshot
            .by_enclave()
            .iter()
            .filter(|e| e.enclave == Some(enclave))
            .map(|e| e.cycles[phase as usize])
            .sum()
    }
}

/// Clean run: STREAM on core 0, then the grant → touch → epoch-reclaim
/// churn on every core, all bracketed. The shootdown waits land in the
/// controller overlay, the cores' own flush servicing in their lane
/// totals.
pub fn clean_run() -> ProfileReport {
    let world = scenario::world(2);
    let prof = Arc::clone(world.node.recorder().profiler());
    prof.set_enabled(true);

    scenario::stream_phase(&world);
    scenario::reclaim_churn(&world);

    ProfileReport {
        snapshot: prof.snapshot(),
        enclave: world.enclave.id.0,
        bystander: None,
    }
}

/// Fault run: a clean bystander enclave streams on its own core while
/// the workload enclave churns reclaim epochs and then hits a contained
/// fault. The churn's shootdown waits are ShootdownWait overlay cycles
/// on the misbehaving enclave; none may land on the bystander.
pub fn fault_run() -> ProfileReport {
    let world = scenario::world(2);
    let prof = Arc::clone(world.node.recorder().profiler());
    prof.set_enabled(true);
    let ctl = Arc::clone(world.controller.as_ref().unwrap());

    // Bystander enclave on a core of its own, doing clean guest work for
    // the whole run. Its phase profile must stay free of ShootdownWait
    // cycles.
    let topo = world.node.topology.clone();
    let bystander_core = topo.total_cores() - 1 - 2;
    let req = pisces::resources::ResourceRequest::new(
        vec![CoreId(bystander_core)],
        vec![(ZoneId(0), 64 * 1024 * 1024)],
    );
    let (bystander, bykernel) = world
        .master
        .bring_up_enclave("bystander", &req)
        .expect("bystander enclave");
    let bystander_id = bystander.id.0;
    let stop_by = Arc::new(AtomicBool::new(false));
    let by_thread = {
        let node = Arc::clone(&world.node);
        let ctl = Arc::clone(&ctl);
        let stop = Arc::clone(&stop_by);
        let tlb = world.tlb;
        std::thread::spawn(move || {
            let mut g = GuestCore::launch_covirt(node, bykernel.clone(), ctl, bystander_core, tlb)
                .expect("bystander core");
            g.profile_begin();
            let mut cur = 0u64;
            let a = bykernel
                .alloc_contiguous(2 * 1024 * 1024, &mut cur)
                .expect("bystander array");
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let off = (i % 1024) * 8;
                g.write_u64(a + off, i).unwrap();
                assert_eq!(g.read_u64(a + off).unwrap(), i);
                g.poll().unwrap();
                i += 1;
            }
            g.profile_finish();
            g.shutdown();
        })
    };

    // Churn phase on the workload enclave's cores, shut down after so
    // the fault phase can relaunch the first: a contained EPT violation.
    for g in scenario::reclaim_churn(&world).cores {
        g.shutdown();
    }
    scenario::contained_fault(&world);

    stop_by.store(true, Ordering::Release);
    by_thread.join().expect("bystander thread panicked");

    ProfileReport {
        snapshot: prof.snapshot(),
        enclave: world.enclave.id.0,
        bystander: Some(bystander_id),
    }
}

/// An off-vs-on overhead measurement (the `traceovh` and `profile`
/// harnesses): best-of-four STREAM triad per mode,
/// interleaved so host scheduler noise lands on both modes alike.
pub struct OverheadArm {
    /// Best triad bandwidth with the instrumentation disabled, MB/s.
    pub off_mbs: f64,
    /// Best triad bandwidth with the instrumentation enabled, MB/s.
    pub on_mbs: f64,
}

impl OverheadArm {
    /// How much slower the disabled path is than the enabled one, in
    /// percent (positive = the off-path costs something, which is the
    /// regression the gates bound; negative = off faster, as expected).
    pub fn deficit_pct(&self) -> f64 {
        if self.on_mbs <= 0.0 {
            return 0.0;
        }
        (self.on_mbs - self.off_mbs) / self.on_mbs * 100.0
    }
}

/// Best-of-five STREAM triad in a fresh world with the instrument under
/// test switched `on` or off. The session is bracketed either way (the
/// brackets are always compiled in), so an arm's delta is exactly the
/// off-path cost its gate bounds: one relaxed load + branch per emit
/// point, one cached-bool branch per phase transition.
fn stream_triad(switch: fn(&World, bool), on: bool) -> f64 {
    let world = scenario::world(1);
    switch(&world, on);
    let s = stream::Stream::setup(&world, 200_000);
    let mut g = world.guest_core(world.cores[0]).unwrap();
    g.profile_begin();
    s.init(&mut g).expect("stream init");
    let mut best: f64 = 0.0;
    for _ in 0..5 {
        best = best.max(s.run_once(&mut g).expect("stream kernel").triad_mbs);
    }
    g.profile_finish();
    best
}

fn overhead_arm(switch: fn(&World, bool)) -> OverheadArm {
    let triad = |on| stream_triad(switch, on);
    // Warm once, then best-of-four per mode, interleaved.
    let _ = triad(false);
    let mut off: f64 = 0.0;
    let mut on: f64 = 0.0;
    for _ in 0..4 {
        off = off.max(triad(false));
        on = on.max(triad(true));
    }
    OverheadArm {
        off_mbs: off,
        on_mbs: on,
    }
}

/// Disabled-recorder cost on the guest data plane: the off-path is one
/// relaxed load + branch per emit point, so disabled throughput must
/// track (and normally beat) enabled throughput.
pub fn recorder_overhead_arm() -> OverheadArm {
    overhead_arm(|w, on| w.node.recorder().set_enabled(on))
}

/// Disabled-profiler cost on the guest data plane.
pub fn profiler_overhead_arm() -> OverheadArm {
    overhead_arm(|w, on| w.node.recorder().profiler().set_enabled(on))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_conserves_cycles_and_attributes_guest_work() {
        let r = clean_run();
        assert!(
            r.max_conservation_error() <= 0.01,
            "conservation error {:.4} above 1%",
            r.max_conservation_error()
        );
        assert!(
            r.enclave_phase_cycles(r.enclave, Phase::GuestExec) > 0,
            "no guest-exec cycles attributed to the workload enclave"
        );
    }

    #[test]
    fn fault_run_pins_the_spike_on_the_faulting_enclave() {
        let r = fault_run();
        let bystander = r.bystander.unwrap();
        let spike = |e| r.enclave_phase_cycles(e, Phase::ShootdownWait);
        assert!(
            spike(r.enclave) > 0,
            "no ShootdownWait cycles on the misbehaving enclave"
        );
        assert_eq!(
            spike(bystander),
            0,
            "bystander enclave was charged controller-side cycles"
        );
        assert!(
            r.enclave_phase_cycles(bystander, Phase::GuestExec) > 0,
            "bystander did no attributed guest work"
        );
    }
}
