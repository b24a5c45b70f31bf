//! Multi-core scaling of the guest data plane (the `scaling` ablation).
//!
//! Weak scaling: every enclave core runs its own STREAM arrays and its own
//! RandomAccess table concurrently, at 1/2/4/8 cores, Native vs Covirt
//! memory protection. The paper's data-plane claim is that per-core
//! throughput must not degrade under Covirt as cores are added — which is
//! exactly what a shared lock on the physical-resolution path would break.
//! (There is none: physical memory is a linear map, and a resolve is a
//! zone index, a bounds check and a bitmap load.)

use crate::env::{World, DEFAULT_ENCLAVE_MEM};
use crate::figures::Scale;
use crate::{randomaccess, stream};
use covirt::config::CovirtConfig;
use covirt::ExecMode;
use covirt_simhw::addr::{PhysRange, PAGE_SIZE_4K};
use covirt_simhw::tlb::TlbParams;
use covirt_simhw::topology::{CoreId, HwLayout, Topology, ZoneId};

/// Core counts the sweep runs (the paper's 1→8 ladder).
pub const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The two endpoints the scaling claim compares.
pub fn modes() -> [ExecMode; 2] {
    [ExecMode::Native, ExecMode::Covirt(CovirtConfig::MEM)]
}

/// One (mode, cores) measurement.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Configuration label.
    pub mode: String,
    /// Enclave cores driven concurrently.
    pub cores: usize,
    /// Median per-core STREAM triad bandwidth (MB/s); each core streams
    /// its own arrays, so flat-per-core = linear aggregate scaling.
    pub stream_mbs_per_core: f64,
    /// Median per-core RandomAccess GUPS over a private table.
    pub gups_per_core: f64,
}

/// Workload sizing for one scaling point.
#[derive(Clone, Copy, Debug)]
pub struct ScalingParams {
    /// STREAM array length per core (elements), so each core's working
    /// set spans many 2 MiB pages.
    pub stream_n: usize,
    /// log2 RandomAccess table entries per core.
    pub ra_log2_n: u32,
    /// RandomAccess updates per core.
    pub ra_updates: u64,
    /// STREAM trials (best-of, the STREAM convention).
    pub trials: usize,
}

impl ScalingParams {
    /// Parameters for a scale.
    pub fn for_scale(scale: Scale) -> ScalingParams {
        match scale {
            Scale::Quick => ScalingParams {
                stream_n: 1 << 21,
                ra_log2_n: 16,
                ra_updates: 200_000,
                trials: 5,
            },
            Scale::Paper => ScalingParams {
                stream_n: 1 << 22,
                ra_log2_n: 20,
                ra_updates: 2_000_000,
                trials: 5,
            },
        }
    }
}

/// Run one (mode, cores) point: per-core STREAM then per-core
/// RandomAccess, all cores concurrent, one OS thread per core, in a single
/// NUMA zone (the multi-zone arm is [`run_numa_point`]).
pub fn run_point(mode: ExecMode, cores: usize, p: ScalingParams) -> ScalingPoint {
    let world = build_world(mode, cores, 1, p);
    let streams: Vec<stream::Stream> = (0..cores)
        .map(|_| stream::Stream::setup(&world, p.stream_n))
        .collect();
    let tables: Vec<randomaccess::RandomAccess> = (0..cores)
        .map(|_| randomaccess::RandomAccess::setup(&world, p.ra_log2_n))
        .collect();
    let results = world.run_on_cores(|rank, g| {
        let s = &streams[rank];
        s.init(g).expect("stream init");
        let mut triad: f64 = 0.0;
        for _ in 0..p.trials {
            triad = triad.max(s.run_once(g).expect("stream kernel").triad_mbs);
        }
        let ra = &tables[rank];
        ra.init(g).expect("ra init");
        // Best-of for GUPS as well: on an oversubscribed host a single
        // run's wall clock includes the scheduler's interference, which
        // best-of filters the same way STREAM's convention does.
        let mut gups: f64 = 0.0;
        for _ in 0..p.trials {
            gups = gups.max(ra.run(g, p.ra_updates).expect("ra updates").gups);
        }
        (triad, gups)
    });
    let triads: Vec<f64> = results.iter().map(|r| r.0).collect();
    let gups: Vec<f64> = results.iter().map(|r| r.1).collect();
    ScalingPoint {
        mode: mode.label(),
        cores,
        stream_mbs_per_core: covirt::stats::median(&triads),
        gups_per_core: covirt::stats::median(&gups),
    }
}

/// A TLB small enough that fills dominate: what the warm-miss and the
/// fragmentation walks run under.
const SMALL_TLB: TlbParams = TlbParams {
    entries_4k: 16,
    entries_2m: 2,
    entries_1g: 1,
};

/// log2 entries of the table [`run_warm_miss_point`] updates: 8 MiB, four
/// 2 MiB pages over a TLB that holds two.
pub const WARM_MISS_LOG2_N: u32 = 20;

/// RandomAccess under `covirt-mem` on one core whose 2 MiB TLB class holds
/// two of the table's four pages, so about half the updates miss — the
/// walk-bound regime of perfbench's `gups`. A first run of `updates` warms
/// the walk cache and the second is returned: its `walk_loads_per_miss()` is
/// the nested (EPT-entry) loads a *warm* TLB miss pays — 0 while the walk
/// cache serves every guest-physical address the walk meets, 3 if the data
/// page's leaf is walked afresh on every miss.
pub fn run_warm_miss_point(updates: u64) -> randomaccess::RaResult {
    let mut world = World::quick(ExecMode::Covirt(CovirtConfig::MEM));
    world.tlb = SMALL_TLB;
    let ra = randomaccess::RandomAccess::setup(&world, WARM_MISS_LOG2_N);
    let mut g = world.guest_core(world.cores[0]).expect("guest core");
    ra.init(&mut g).expect("ra init");
    ra.run(&mut g, updates).expect("ra warm-up");
    ra.run(&mut g, updates).expect("ra updates")
}

/// Run the full sweep: every core count, Native then Covirt, interleaved
/// per rung so host drift hits both modes alike.
pub fn run(scale: Scale) -> Vec<ScalingPoint> {
    let p = ScalingParams::for_scale(scale);
    let mut out = Vec::new();
    for &cores in &CORE_COUNTS {
        for mode in modes() {
            out.push(run_point(mode, cores, p));
        }
    }
    out
}

/// One multi-zone weak-scaling measurement: cores split across NUMA zones,
/// each core's STREAM arrays pinned to its local zone.
#[derive(Clone, Debug)]
pub struct NumaPoint {
    /// Configuration label.
    pub mode: String,
    /// Enclave cores driven concurrently (split evenly across zones).
    pub cores: usize,
    /// NUMA zones the cores and their arrays span.
    pub zones: usize,
    /// Median per-core STREAM triad bandwidth (MB/s).
    pub stream_mbs_per_core: f64,
}

/// Build the world a scaling point runs in: one socket per zone, cores and
/// the enclave's memory split evenly across them. The paper testbed has 6
/// cores per socket, so an 8-core single-zone enclave does not fit; every
/// rung runs on sockets wide enough for the 8-core one (core 0 is still
/// left to the host by `pick_cores`).
fn build_world(mode: ExecMode, cores: usize, zones: usize, p: ScalingParams) -> World {
    assert!(
        zones >= 1 && cores.is_multiple_of(zones),
        "cores must split evenly"
    );
    let per_core = p.stream_n as u64 * 8 * 3 + (8u64 << p.ra_log2_n);
    let mem = (per_core * cores as u64 + 96 * 1024 * 1024).max(DEFAULT_ENCLAVE_MEM);
    let topo = Topology {
        sockets: zones,
        cores_per_socket: 1 + CORE_COUNTS[CORE_COUNTS.len() - 1],
        zones,
        mem_per_zone: mem / zones as u64 + 256 * 1024 * 1024,
        tsc_hz: Topology::paper_testbed().tsc_hz,
    };
    World::build_on(topo, mode, HwLayout { cores, zones }, mem)
}

/// Run one multi-zone point: every core streams arrays allocated in its
/// *local* zone, concurrently.
pub fn run_numa_point(mode: ExecMode, cores: usize, zones: usize, p: ScalingParams) -> NumaPoint {
    let world = build_world(mode, cores, zones, p);
    let streams: Vec<stream::Stream> = world
        .cores
        .iter()
        .map(|&c| {
            let z = world.node.topology.zone_of_core(CoreId(c)).0;
            world.set_alloc_zone(Some(z));
            stream::Stream::setup(&world, p.stream_n)
        })
        .collect();
    world.set_alloc_zone(None);
    let triads = world.run_on_cores(|rank, g| {
        let s = &streams[rank];
        s.init(g).expect("stream init");
        let mut triad: f64 = 0.0;
        for _ in 0..p.trials {
            triad = triad.max(s.run_once(g).expect("stream kernel").triad_mbs);
        }
        triad
    });
    NumaPoint {
        mode: mode.label(),
        cores,
        zones,
        stream_mbs_per_core: covirt::stats::median(&triads),
    }
}

/// The multi-zone weak-scaling sweep (2 zones, 2/4/8 cores, both modes).
pub fn run_numa(scale: Scale) -> Vec<NumaPoint> {
    let p = ScalingParams::for_scale(scale);
    let mut out = Vec::new();
    for &cores in &[2usize, 4, 8] {
        for mode in modes() {
            out.push(run_numa_point(mode, cores, 2, p));
        }
    }
    out
}

/// Working-set width of the fragmentation access pattern: four grants
/// spread across the enclave's grant list.
pub const FRAG_WORKING_SET: usize = 4;

/// EPT-entry loads per TLB miss over a fragmented enclave. Grant `regions`
/// 64 KiB regions one at a time, shrink the TLB so fills dominate, then
/// round-robin a [`FRAG_WORKING_SET`]-grant working set touching every
/// 4 KiB page `rounds` times. The data pages sit under 4 KiB EPT leaves the
/// walk cache cannot keep (they alias into a few of its slots), so each
/// miss walks the EPT from the cached PD page of its GiB — 2 loads; 4 means
/// the walk starts at the root again.
pub fn frag_nested_loads_per_miss(regions: usize, rounds: usize) -> f64 {
    const GRANT_BYTES: u64 = 64 * 1024;
    let mut world = crate::scenario::world(1);
    world.tlb = SMALL_TLB;
    let pisces = world.master.pisces();
    let mut grants: Vec<PhysRange> = Vec::with_capacity(regions);
    for _ in 0..regions {
        let r = pisces
            .add_memory(&world.enclave, ZoneId(0), GRANT_BYTES)
            .unwrap();
        world.kernel.poll_ctrl().unwrap();
        pisces.process_acks(&world.enclave).unwrap();
        grants.push(r);
    }
    let mut g = world.guest_core(world.cores[0]).unwrap();
    let ws: Vec<PhysRange> = (0..FRAG_WORKING_SET)
        .map(|i| grants[i * grants.len() / FRAG_WORKING_SET])
        .collect();
    let c0 = g.counters();
    for _ in 0..rounds {
        for r in &ws {
            for page in 0..(r.len / PAGE_SIZE_4K) {
                g.read_u64(r.start.raw() + page * PAGE_SIZE_4K).unwrap();
            }
        }
    }
    let c = g.counters();
    covirt::stats::ratio(c.walk_loads - c0.walk_loads, c.walks - c0.walks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_reports_sane_numbers() {
        let p = ScalingParams {
            stream_n: 1 << 12,
            ra_log2_n: 10,
            ra_updates: 5_000,
            trials: 1,
        };
        let pt = run_point(ExecMode::Covirt(CovirtConfig::MEM), 2, p);
        assert_eq!(pt.cores, 2);
        assert!(pt.stream_mbs_per_core > 0.0);
        assert!(pt.gups_per_core > 0.0);
    }

    #[test]
    fn numa_point_runs_on_both_zones() {
        let p = ScalingParams {
            stream_n: 1 << 14,
            ra_log2_n: 10,
            ra_updates: 0,
            trials: 1,
        };
        let pt = run_numa_point(ExecMode::Covirt(CovirtConfig::MEM), 2, 2, p);
        assert_eq!(pt.cores, 2);
        assert_eq!(pt.zones, 2);
        assert!(pt.stream_mbs_per_core > 0.0);
    }

    #[test]
    fn frag_walks_start_at_the_cached_pd_page() {
        let loads = frag_nested_loads_per_miss(64, 2);
        assert!(
            (2.0..2.05).contains(&loads),
            "a data page's EPT walk must start at its cached PD page: {loads:.3} loads per miss"
        );
    }
}
