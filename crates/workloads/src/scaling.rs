//! Multi-core scaling of the guest data plane (the `scaling` ablation).
//!
//! Weak scaling: every enclave core runs its own STREAM arrays and its own
//! RandomAccess table concurrently, at 1/2/4/8 cores, Native vs Covirt
//! memory protection. The paper's data-plane claim is that per-core
//! throughput must not degrade under Covirt as cores are added — which is
//! exactly what a shared lock on the physical-resolution path would break.
//! Alongside throughput the harness reports the resolve-path
//! instrumentation that shows why it holds: the per-core region-cache hit
//! rate (misses are the only traffic that touches the shared snapshot) and
//! the snapshot swaps published while the point ran (writer-side cost,
//! expected ~0 during steady state).

use crate::env::{World, DEFAULT_ENCLAVE_MEM};
use crate::figures::Scale;
use crate::{randomaccess, stream};
use covirt::config::CovirtConfig;
use covirt::ExecMode;
use covirt_simhw::addr::{PhysRange, PAGE_SIZE_2M, PAGE_SIZE_4K};
use covirt_simhw::memory::ZoneStats;
use covirt_simhw::tlb::TlbParams;
use covirt_simhw::topology::{CoreId, HwLayout, Topology, ZoneId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    /// Region-cache hit rate over all resolves, aggregated across cores.
    pub resolve_hit_rate: f64,
    /// Populate-snapshot swaps published during the measured run.
    pub snapshot_swaps: u64,
}

/// Workload sizing for one scaling point.
#[derive(Clone, Copy, Debug)]
pub struct ScalingParams {
    /// STREAM array length per core (elements). Sized so each core's
    /// working set spans many 2 MiB pages: the hit-rate denominator is
    /// roughly the distinct pages touched, and a footprint of only a few
    /// pages lets the one compulsory region-cache miss dominate the ratio.
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
/// NUMA zone (the enclave's workload data is one grant region — the
/// baseline the per-core region cache is built for; the multi-zone arm is
/// [`run_numa_point`]).
pub fn run_point(mode: ExecMode, cores: usize, p: ScalingParams) -> ScalingPoint {
    let world = build_world(mode, cores, 1, p);
    let streams: Vec<stream::Stream> = (0..cores)
        .map(|_| stream::Stream::setup(&world, p.stream_n))
        .collect();
    let tables: Vec<randomaccess::RandomAccess> = (0..cores)
        .map(|_| randomaccess::RandomAccess::setup(&world, p.ra_log2_n))
        .collect();
    let swaps_before = world.node.mem.snapshot_swaps();
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
        let c = g.counters();
        (triad, gups, c.resolve_hits, c.resolve_misses)
    });
    let snapshot_swaps = world.node.mem.snapshot_swaps() - swaps_before;
    let triads: Vec<f64> = results.iter().map(|r| r.0).collect();
    let gups: Vec<f64> = results.iter().map(|r| r.1).collect();
    let hits: u64 = results.iter().map(|r| r.2).sum();
    let misses: u64 = results.iter().map(|r| r.3).sum();
    ScalingPoint {
        mode: mode.label(),
        cores,
        stream_mbs_per_core: covirt::stats::median(&triads),
        gups_per_core: covirt::stats::median(&gups),
        resolve_hit_rate: covirt::stats::ratio(hits, hits + misses),
        snapshot_swaps,
    }
}

/// A TLB small enough that fills dominate: what the warm-miss and the
/// fragmentation points run under.
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
/// each core's STREAM arrays pinned to its local zone, per-zone resolve
/// stats read from the sharded memory.
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
    /// Region-cache hit rate over all resolves, aggregated across cores.
    pub resolve_hit_rate: f64,
    /// Per-zone resolve hit rate (shard counters), indexed by zone.
    pub per_zone_hit_rate: Vec<f64>,
    /// Snapshots published while the point ran, summed over zones.
    pub snapshot_swaps: u64,
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
/// *local* zone, concurrently. Per-zone shard stats show each zone serving
/// its own resolves; the region-cache hit rate must match the single-zone
/// arm — locality is free, not a new cost.
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
    let zone_before: Vec<ZoneStats> = (0..zones)
        .map(|z| world.node.mem.zone_stats(ZoneId(z)).unwrap())
        .collect();
    let swaps_before = world.node.mem.snapshot_swaps();
    let results = world.run_on_cores(|rank, g| {
        let s = &streams[rank];
        s.init(g).expect("stream init");
        let mut triad: f64 = 0.0;
        for _ in 0..p.trials {
            triad = triad.max(s.run_once(g).expect("stream kernel").triad_mbs);
        }
        let c = g.counters();
        (triad, c.resolve_hits, c.resolve_misses)
    });
    let snapshot_swaps = world.node.mem.snapshot_swaps() - swaps_before;
    let triads: Vec<f64> = results.iter().map(|r| r.0).collect();
    let hits: u64 = results.iter().map(|r| r.1).sum();
    let misses: u64 = results.iter().map(|r| r.2).sum();
    let per_zone_hit_rate = (0..zones)
        .map(|z| {
            let after = world.node.mem.zone_stats(ZoneId(z)).unwrap();
            let h = after.resolve_hits - zone_before[z].resolve_hits;
            let m = after.resolve_misses - zone_before[z].resolve_misses;
            covirt::stats::ratio(h, h + m)
        })
        .collect();
    NumaPoint {
        mode: mode.label(),
        cores,
        zones,
        stream_mbs_per_core: covirt::stats::median(&triads),
        resolve_hit_rate: covirt::stats::ratio(hits, hits + misses),
        per_zone_hit_rate,
        snapshot_swaps,
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

/// Cross-zone publish-isolation measurement: a zone-0 enclave's resolve
/// hit rate with zone 1 quiet vs with zone 1 under sustained host
/// grant/reclaim churn plus a sustained reader (the epoch-reclamation
/// stressor). Sharded resolution makes the two statistically identical;
/// a shared snapshot or a global generation would dent the churn arm.
#[derive(Clone, Debug)]
pub struct ChurnIsolation {
    /// Zone-0 enclave resolve hit rate, zone 1 quiet.
    pub baseline_hit_rate: f64,
    /// Same measurement with zone-1 churn + a sustained zone-1 reader.
    pub churn_hit_rate: f64,
    /// Snapshots the churn published into zone 1 during the churn arm.
    pub remote_publishes: u64,
    /// Zone-1 retired-snapshot backlog high water during the churn arm
    /// (bounded-reclamation gauge: must stay small despite the reader).
    pub remote_backlog_high_water: u64,
}

/// Run the churn-isolation experiment at `p`'s STREAM sizing.
pub fn run_churn_isolation(p: ScalingParams) -> ChurnIsolation {
    // A 2-zone node whose enclave (cores and memory) lives wholly in
    // zone 0; zone 1 stays host-owned churn fodder.
    let per_core = p.stream_n as u64 * 8 * 3;
    let mem = (per_core * 2 + 96 * 1024 * 1024).max(DEFAULT_ENCLAVE_MEM);
    let topo = Topology {
        sockets: 2,
        cores_per_socket: 4,
        zones: 2,
        mem_per_zone: mem + 256 * 1024 * 1024,
        tsc_hz: Topology::paper_testbed().tsc_hz,
    };
    let world = World::build_on(
        topo,
        ExecMode::Covirt(CovirtConfig::MEM),
        HwLayout { cores: 2, zones: 1 },
        mem,
    );
    let streams: Vec<stream::Stream> = (0..2)
        .map(|_| stream::Stream::setup(&world, p.stream_n))
        .collect();

    let measure = |churn: bool| -> (f64, u64, u64) {
        let mem = Arc::clone(&world.node.mem);
        let z1_before = mem.zone_stats(ZoneId(1)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        if churn {
            // A long-lived zone-1 region gives the sustained reader a
            // stable target while grant/reclaim cycles churn around it.
            let pin = mem
                .alloc_backed(ZoneId(1), PAGE_SIZE_2M, PAGE_SIZE_2M)
                .unwrap();
            {
                let mem = Arc::clone(&mem);
                let stop = Arc::clone(&stop);
                threads.push(std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let _ = mem.resolve(pin.start, 8).unwrap();
                        std::hint::spin_loop();
                    }
                    mem.free(pin).unwrap();
                }));
            }
            {
                let mem = Arc::clone(&mem);
                let stop = Arc::clone(&stop);
                threads.push(std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let r = mem
                            .alloc_backed(ZoneId(1), PAGE_SIZE_2M, PAGE_SIZE_2M)
                            .unwrap();
                        mem.free(r).unwrap();
                    }
                }));
            }
        }
        let results = world.run_on_cores(|rank, g| {
            let s = &streams[rank];
            s.init(g).expect("stream init");
            for _ in 0..p.trials {
                let _ = s.run_once(g).expect("stream kernel");
            }
            let c = g.counters();
            (c.resolve_hits, c.resolve_misses)
        });
        stop.store(true, Ordering::Release);
        for t in threads {
            t.join().unwrap();
        }
        let hits: u64 = results.iter().map(|r| r.0).sum();
        let misses: u64 = results.iter().map(|r| r.1).sum();
        let z1_after = mem.zone_stats(ZoneId(1)).unwrap();
        (
            covirt::stats::ratio(hits, hits + misses),
            z1_after.snapshot_swaps - z1_before.snapshot_swaps,
            z1_after.retired_backlog_high_water,
        )
    };

    let (baseline_hit_rate, _, _) = measure(false);
    let (churn_hit_rate, remote_publishes, remote_backlog_high_water) = measure(true);
    ChurnIsolation {
        baseline_hit_rate,
        churn_hit_rate,
        remote_publishes,
        remote_backlog_high_water,
    }
}

/// One many-grants fragmentation measurement: an enclave fragmented across
/// hundreds of small grant regions, accessed over a working set wider than
/// one region, with the per-core region cache at a given associativity.
#[derive(Clone, Debug)]
pub struct FragPoint {
    /// Region-cache ways the guest core ran with.
    pub ways: usize,
    /// Small grant regions the enclave was fragmented across.
    pub regions: usize,
    /// Region-cache hit rate over the access run.
    pub hit_rate: f64,
    /// Average snapshot-search probes (`ZoneStats::avg_search_depth`) per
    /// cache miss.
    pub avg_search_depth: f64,
    /// EPT-entry loads per TLB miss over the access run: the data pages sit
    /// under 4 KiB EPT leaves the walk cache cannot keep (they alias into a
    /// few of its slots), so each miss walks the EPT from the cached PD page
    /// of its GiB — 2 loads; 4 means the walk starts at the root again.
    pub nested_loads_per_miss: f64,
}

/// Working-set width of the fragmentation access pattern; sized to the
/// full region-cache associativity so `ways >=` this captures it and
/// `ways = 1` thrashes.
pub const FRAG_WORKING_SET: usize = 4;

/// Run one fragmentation point: grant `regions` 64 KiB regions one at a
/// time (each lands as its own populated region in the zone snapshot),
/// shrink the TLB so fills dominate, then round-robin a
/// [`FRAG_WORKING_SET`]-region working set touching every 4 KiB page.
pub fn run_frag_point(ways: usize, regions: usize, rounds: usize) -> FragPoint {
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
    g.set_region_cache_ways(ways);
    let before = world.node.mem.zone_stats(ZoneId(0)).unwrap();
    // Spread the working set across the grant list so its members sit far
    // apart in the sorted snapshot (deep, distinct search paths).
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
    let hits = c.resolve_hits - c0.resolve_hits;
    let misses = c.resolve_misses - c0.resolve_misses;
    let after = world.node.mem.zone_stats(ZoneId(0)).unwrap();
    let searches = after.resolve_misses - before.resolve_misses;
    let depth = after.search_depth_total - before.search_depth_total;
    FragPoint {
        ways,
        regions,
        hit_rate: covirt::stats::ratio(hits, hits + misses),
        avg_search_depth: if searches == 0 {
            0.0
        } else {
            depth as f64 / searches as f64
        },
        nested_loads_per_miss: covirt::stats::ratio(
            c.walk_loads - c0.walk_loads,
            c.walks - c0.walks,
        ),
    }
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
        assert!(pt.resolve_hit_rate > 0.0 && pt.resolve_hit_rate <= 1.0);
    }

    #[test]
    fn numa_point_spreads_resolves_across_zones() {
        let p = ScalingParams {
            stream_n: 1 << 14,
            ra_log2_n: 10,
            ra_updates: 0,
            trials: 1,
        };
        let pt = run_numa_point(ExecMode::Covirt(CovirtConfig::MEM), 2, 2, p);
        assert_eq!(pt.cores, 2);
        assert_eq!(pt.zones, 2);
        assert_eq!(pt.per_zone_hit_rate.len(), 2);
        assert!(pt.stream_mbs_per_core > 0.0);
        // Each core's arrays landed in its local zone, so *both* shards
        // must have served resolves — the lifted `zones: 1` pin.
        for (z, &hr) in pt.per_zone_hit_rate.iter().enumerate() {
            assert!(hr > 0.0, "zone {z} served no cached resolves");
        }
    }

    #[test]
    fn churn_isolation_reports_remote_activity() {
        let p = ScalingParams {
            stream_n: 1 << 16,
            ra_log2_n: 10,
            ra_updates: 0,
            trials: 2,
        };
        let iso = run_churn_isolation(p);
        assert!(iso.remote_publishes > 0, "churn arm published nothing");
        assert!(iso.baseline_hit_rate > 0.5);
        // The hard gate is `numa.churn_hit_rate_ratio`; here just require the
        // churn arm to be in the same regime, not collapsed.
        assert!(
            iso.churn_hit_rate > 0.9 * iso.baseline_hit_rate,
            "churn hit rate {:.3} collapsed vs baseline {:.3}",
            iso.churn_hit_rate,
            iso.baseline_hit_rate
        );
        assert!(iso.remote_backlog_high_water <= 32);
    }

    #[test]
    fn frag_associativity_covers_working_set() {
        let direct = run_frag_point(1, 64, 2);
        let assoc = run_frag_point(4, 64, 2);
        assert_eq!(direct.regions, 64);
        // 64 sorted regions: any miss path probes several levels deep.
        assert!(
            direct.avg_search_depth > 1.0,
            "search depth {:.2} too shallow for 64 regions",
            direct.avg_search_depth
        );
        assert!(
            assoc.hit_rate > direct.hit_rate,
            "4-way hit rate {:.3} not above direct-mapped {:.3}",
            assoc.hit_rate,
            direct.hit_rate
        );
        for p in [direct, assoc] {
            assert!(
                (2.0..2.05).contains(&p.nested_loads_per_miss),
                "a data page's EPT walk must start at its cached PD page: {:.3} loads per miss",
                p.nested_loads_per_miss
            );
        }
    }

    #[test]
    fn stream_resolve_hit_rate_exceeds_90_pct() {
        // The acceptance bar: with one grant region and streaming fills,
        // nearly every resolve must be answered core-locally.
        let p = ScalingParams {
            stream_n: 1 << 21,
            ra_log2_n: 14,
            ra_updates: 20_000,
            trials: 1,
        };
        for mode in modes() {
            let pt = run_point(mode, 2, p);
            assert!(
                pt.resolve_hit_rate > 0.9,
                "{}: resolve hit rate {:.3} <= 0.9",
                pt.mode,
                pt.resolve_hit_rate
            );
        }
    }
}
