//! The protocol scenarios the extension harnesses (`audit`, `profile`,
//! `shootdown`) share, each written once: a short STREAM phase for
//! data-plane traffic, the Section IV grant → touch → epoch-reclaim churn
//! against live cores, and the Section V contained fault. A harness
//! builds its world, switches on what it observes (recorder, profiler),
//! calls these, and reduces what they return.
//!
//! Every guest session a scenario opens is bracketed as a profiler session
//! (`profile_begin` … `profile_finish`): free while the profiler is off,
//! and the conservation interval `profile` checks when it is on.

use covirt::config::CovirtConfig;
use covirt::exec::FaultOutcome;
use covirt::{ExecMode, GuestCore};
use covirt_simhw::addr::PhysRange;
use covirt_simhw::topology::{HwLayout, ZoneId};
use kitten::faults;

use crate::{stream, World};

/// The world the scenario harnesses run in: memory protection on, `cores`
/// cores in one zone, 96 MiB.
pub fn world(cores: usize) -> World {
    World::build(
        ExecMode::Covirt(CovirtConfig::MEM),
        HwLayout { cores, zones: 1 },
        96 * 1024 * 1024,
    )
}

/// A small STREAM kernel on the first core: attributed data-plane traffic
/// (exits, posted-interrupt harvests) for the observer. The core is shut
/// down so a later phase can relaunch it.
pub fn stream_phase(world: &World) {
    let s = stream::Stream::setup(world, 50_000);
    let mut g = world.guest_core(world.cores[0]).expect("guest core");
    g.profile_begin();
    s.init(&mut g).expect("stream init");
    s.run_once(&mut g).expect("stream kernel");
    g.profile_finish();
    g.shutdown();
}

/// What [`reclaim_churn`] leaves behind.
pub struct Churn {
    /// The two ranges that were granted and reclaimed.
    pub ranges: [PhysRange; 2],
    /// The enclave's cores in rank order, stopped but not shut down, so
    /// their counters can still be read.
    pub cores: Vec<GuestCore>,
    /// Broadcast shootdowns the churn cost (the coalescing claim: 1).
    pub shootdowns: u64,
}

/// Grant two 2 MiB ranges, let the co-kernel ack them, cache their
/// translations on every (live, polling) core, then reclaim both inside
/// one epoch so a single broadcast shootdown closes both lifecycles.
pub fn reclaim_churn(world: &World) -> Churn {
    let ctl = world.controller.as_ref().expect("covirt world");
    let (enclave, kernel) = (&world.enclave, &world.kernel);
    let pisces = world.master.pisces();
    let shootdowns_before = ctl.shootdown_count();

    let grant = || {
        pisces
            .add_memory(enclave, ZoneId(0), 2 * 1024 * 1024)
            .expect("grant")
    };
    let ranges = [grant(), grant()];
    kernel.poll_ctrl().expect("co-kernel poll");
    pisces.process_acks(enclave).expect("grant acks");

    // Every core fills its TLB with the soon-to-be-stale entries before
    // the reclaim starts, then keeps polling so the flushes get serviced.
    let live = world.live_cores(
        move |g| {
            g.profile_begin();
            for r in ranges {
                g.write_u64(r.start.raw(), 1).expect("touch granted range");
            }
        },
        GuestCore::profile_finish,
    );

    ctl.begin_reclaim_epoch(enclave.id.0);
    for r in ranges {
        pisces.request_remove_memory(enclave, r).expect("reclaim");
        while enclave.resources().mem.contains(&r) {
            kernel.poll_ctrl().expect("co-kernel poll");
            pisces.process_acks(enclave).expect("reclaim ack");
        }
    }
    ctl.end_reclaim_epoch(enclave.id.0).expect("epoch close");
    let cores = live.stop();

    Churn {
        ranges,
        cores,
        shootdowns: ctl.shootdown_count() - shootdowns_before,
    }
}

/// The enclave's first core writes one page past its last region (the
/// paper's off-by-one bug); Covirt must contain it.
pub fn contained_fault(world: &World) {
    let mut g = world.guest_core(world.cores[0]).expect("guest core");
    g.profile_begin();
    let outcome = g.execute_fault(faults::off_by_one_region(&world.kernel));
    g.profile_finish();
    assert!(
        matches!(outcome, FaultOutcome::Contained(_)),
        "covirt must contain the injected fault, got {outcome:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_trace::EventKind;

    #[test]
    fn churn_reclaims_both_ranges_with_one_broadcast_and_flushes_every_core() {
        let world = world(2);
        let in_use = || world.node.mem.zone_usage(ZoneId(0)).unwrap().1;
        let before = in_use();
        let churn = reclaim_churn(&world);

        assert_eq!(
            churn.shootdowns, 1,
            "2 reclaims in one epoch -> 1 broadcast"
        );
        assert_eq!(churn.cores.len(), 2);
        for g in &churn.cores {
            assert_eq!(g.tlb_stats().range_flushes, 2, "core {}", g.core);
        }
        let held = world.enclave.resources().mem;
        assert!(churn.ranges.iter().all(|r| !held.contains(r)));
        assert_eq!(in_use(), before, "both grants returned to the zone");
    }

    /// The two-phase broadcast: a shootdown posts to every live core
    /// before it waits on any, so the flushes run concurrently and the
    /// round trip is one signal delivery, not one per core. A serial
    /// post-wait-per-core loop interleaves the two kinds.
    #[test]
    fn every_post_of_a_shootdown_precedes_its_first_wait() {
        let world = world(4);
        world.node.recorder().set_enabled(true);
        reclaim_churn(&world);
        // Posts and waits are both stamped by the controller's thread, so
        // their timestamps order them; each wait is on its core's lane.
        let (events, _) = world.node.drain_trace();
        let of = |kind| events.iter().filter(move |e| e.kind == kind);
        assert_eq!(of(EventKind::CmdPost).count(), 8, "2 ranges x 4 cores");
        let mut waited: Vec<u64> = of(EventKind::CmdWait).map(|e| e.lane as u64).collect();
        waited.sort_unstable();
        let mut cores: Vec<u64> = of(EventKind::CmdPost).map(|e| e.b).collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 4);
        assert_eq!(waited, cores, "one wait per core, on its lane");
        let tsc = |kind| of(kind).map(|e| e.tsc);
        assert!(tsc(EventKind::CmdPost).max() < tsc(EventKind::CmdWait).min());
    }
}
