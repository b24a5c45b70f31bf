//! Layer probes: what one call into one layer costs, in isolation.
//!
//! A traced run ends with these. The data-plane probes call single layers
//! against the workload's *own* page tables, EPT and regions on the driver
//! thread; each reports the fastest of several batches of back-to-back
//! calls, the estimate least disturbed by the host. The control-plane
//! sample runs a few traced reps of `memchurn` and `faultcycle` so that
//! every traced run, whatever its workload, carries measured grant,
//! reclaim, bring-up and containment spans.

use crate::runner::LayerValues;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::faultcycle::Faultcycle;
use crate::workloads::memchurn::Memchurn;
use crate::workloads::{Arm, Latencies, ProbeTarget, Workload};
use covirt::cmdqueue::Command;
use covirt::vctx::CMD_DOORBELL_VECTOR;
use covirt_simhw::addr::{GuestPhysAddr, HostPhysAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use covirt_simhw::memory::{RegionCache, REGION_CACHE_WAYS};
use covirt_simhw::paging::{Access, DirectLoad};
use covirt_simhw::posted::PostedIntDescriptor;
use covirt_simhw::tlb::Tlb;
use covirt_simhw::topology::ZoneId;
use std::hint::black_box;
use std::time::Instant;

/// Calls per batch for nanosecond-scale probes.
const CALLS: usize = 1024;
/// Calls per batch for microsecond-scale probes.
const SLOW_CALLS: usize = 64;
/// Commands per timed command-queue round-trip sample.
const ROUNDTRIP_BATCH: usize = 16;

/// Nanoseconds per call: the fastest of `batches` batches of `calls`
/// back-to-back calls, after one warm batch.
fn fastest_ns(batches: usize, calls: usize, mut call: impl FnMut()) -> f64 {
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..calls {
            call();
        }
        t.elapsed().as_nanos() as f64 / calls as f64
    };
    batch();
    (0..batches.max(1))
        .map(|_| batch())
        .fold(f64::INFINITY, f64::min)
}

/// Probe the data-plane layers of `target` and read its gauges.
pub fn data_plane(target: ProbeTarget<'_>, batches: usize, values: &mut LayerValues) {
    let ProbeTarget {
        world,
        guest: g,
        pages,
    } = target;
    let mem = &world.node.mem;
    let ctl = world
        .controller
        .as_ref()
        .expect("probes run on the Covirt world");
    let vctx = ctl.context(world.enclave.id.0).expect("enclave context");
    let ept = vctx.ept.as_ref().expect("memory protection is on");
    let hot = pages[0];
    let calls = Some(batches * CALLS);
    let mut put = |name, value, samples| {
        values.insert(name, (value, samples));
    };

    // Gauges, read before the probes below publish snapshots of their own.
    let zone = mem.zone_stats(ZoneId(0)).expect("zone 0 exists");
    put(
        "simhw.memory.retired_backlog_high_water",
        zone.retired_backlog_high_water as f64,
        None,
    );
    let (leaf_4k, leaf_2m, _) = ept.leaf_counts().expect("EPT leaf count");
    put("simhw.ept.leaf_4k", leaf_4k as f64, None);
    put("simhw.ept.leaf_2m", leaf_2m as f64, None);

    // simhw.tlb: a private TLB of the workload's geometry holding one page.
    let mut tlb = Tlb::new(world.tlb);
    let page = hot & !(PAGE_SIZE_4K - 1);
    let (backing, off) = mem
        .resolve(HostPhysAddr::new(page), PAGE_SIZE_4K)
        .expect("workload page resolves");
    tlb.insert(page, PAGE_SIZE_4K, backing.ptr_at(off), backing, true);
    put(
        "simhw.tlb.lookup_hit_ns",
        fastest_ns(batches, CALLS, || {
            black_box(tlb.lookup(black_box(hot)));
        }),
        calls,
    );

    // simhw.paging / simhw.ept: the two walks a nested miss is made of,
    // over the workload's pages.
    let mut next = 0usize;
    let mut cycle = || {
        next = (next + 1) % pages.len();
        pages[next]
    };
    put(
        "simhw.paging.walk_ns",
        fastest_ns(batches, CALLS, || {
            black_box(world.kernel.page_tables.walk(cycle(), &DirectLoad(mem)))
                .expect("guest walk");
        }),
        calls,
    );
    put(
        "simhw.ept.translate_ns",
        fastest_ns(batches, CALLS, || {
            black_box(ept.translate(GuestPhysAddr::new(cycle()), Access::Read, &DirectLoad(mem)))
                .expect("EPT walk");
        }),
        calls,
    );

    // simhw.memory: region-cache hit (one region) and miss (more regions
    // than ways, visited round-robin, so every resolve searches the
    // workload's snapshot).
    let cache = RegionCache::new();
    put(
        "simhw.memory.resolve_hit_ns",
        fastest_ns(batches, CALLS, || {
            black_box(cache.resolve(mem, HostPhysAddr::new(hot), 8)).expect("resolve");
        }),
        calls,
    );
    let extra: Vec<_> = (0..REGION_CACHE_WAYS + 2)
        .map(|_| {
            mem.alloc_backed(ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K)
                .expect("probe region")
        })
        .collect();
    let mut at = 0usize;
    put(
        "simhw.memory.resolve_miss_ns",
        fastest_ns(batches, CALLS, || {
            at = (at + 1) % extra.len();
            black_box(cache.resolve(mem, extra[at].start, 8)).expect("resolve");
        }),
        calls,
    );
    for r in extra {
        mem.free(r).expect("free probe region");
    }
    put(
        "simhw.memory.alloc_free_us",
        fastest_ns(batches, SLOW_CALLS, || {
            let r = mem
                .alloc_backed(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M)
                .expect("alloc");
            mem.free(r).expect("free");
        }) / 1000.0,
        Some(batches * SLOW_CALLS),
    );

    // simhw.ept map/unmap of one 2 MiB range in the workload's own EPT.
    let range = mem
        .alloc_backed(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M)
        .expect("probe range");
    let (mut map_ns, mut unmap_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..=batches {
        let (mut map, mut unmap) = (0u128, 0u128);
        for _ in 0..SLOW_CALLS {
            let t0 = Instant::now();
            ept.map_identity(range, 3).expect("map");
            let t1 = Instant::now();
            ept.unmap(range).expect("unmap");
            map += (t1 - t0).as_nanos();
            unmap += t1.elapsed().as_nanos();
        }
        map_ns = map_ns.min(map as f64 / SLOW_CALLS as f64);
        unmap_ns = unmap_ns.min(unmap as f64 / SLOW_CALLS as f64);
    }
    mem.free(range).expect("free probe range");
    put(
        "simhw.ept.map_2m_us",
        map_ns / 1000.0,
        Some(batches * SLOW_CALLS),
    );
    put(
        "simhw.ept.unmap_2m_us",
        unmap_ns / 1000.0,
        Some(batches * SLOW_CALLS),
    );

    // simhw.posted: one doorbell post and its acknowledgement.
    let desc = PostedIntDescriptor::new(CMD_DOORBELL_VECTOR);
    put(
        "simhw.posted.post_ack_ns",
        fastest_ns(batches, CALLS, || {
            black_box(desc.post(CMD_DOORBELL_VECTOR));
            desc.acknowledge();
        }),
        calls,
    );

    // core.exec: the access path on a hit and on a miss, and an idle poll.
    put(
        "core.exec.hit_path_ns",
        fastest_ns(batches, CALLS, || {
            black_box(g.read_u64(black_box(hot))).expect("read");
        }),
        calls,
    );
    put(
        "core.exec.poll_idle_ns",
        fastest_ns(batches, CALLS, || g.poll().expect("poll")),
        calls,
    );
    // Every read below is a compulsory miss: the core's TLB is flushed (by
    // a real command, untimed) before each timed sweep over the pages.
    let q = vctx.cmdq(g.core).cloned().expect("command queue");
    let doorbell = vctx.cmd_doorbell(g.core).expect("doorbell");
    let mut miss_ns = f64::INFINITY;
    for _ in 0..=batches {
        let (mut timed, mut reads) = (0u128, 0usize);
        while reads < CALLS {
            q.post(Command::TlbFlushAll).expect("post flush");
            doorbell.post(CMD_DOORBELL_VECTOR);
            g.poll().expect("harvest flush");
            let t = Instant::now();
            for &p in &pages {
                black_box(g.read_u64(p)).expect("read");
            }
            timed += t.elapsed().as_nanos();
            reads += pages.len();
        }
        miss_ns = miss_ns.min(timed as f64 / reads as f64);
    }
    put("core.exec.miss_path_ns", miss_ns, calls);

    // core.hypervisor: one always-exiting instruction, exit to re-entry.
    put(
        "core.hypervisor.exit_roundtrip_ns",
        fastest_ns(batches, SLOW_CALLS, || g.cpuid(0).expect("cpuid")),
        Some(batches * SLOW_CALLS),
    );

    // core.cmdqueue: post → doorbell → harvest → complete with the guest
    // polled from this thread, and the bare ring operations.
    let mut roundtrips = Vec::new();
    for _ in 0..(8 * batches).max(24) {
        let t = Instant::now();
        for _ in 0..ROUNDTRIP_BATCH {
            let seq = ctl.post_sync(&vctx, g.core).expect("post");
            while q.completed() < seq {
                g.poll().expect("poll");
            }
        }
        roundtrips.push(t.elapsed().as_nanos() as f64 / ROUNDTRIP_BATCH as f64);
    }
    let samples = Some(roundtrips.len());
    put(
        "core.cmdqueue.roundtrip_p50_ns",
        stats::median(&roundtrips),
        samples,
    );
    put(
        "core.cmdqueue.roundtrip_p99_ns",
        stats::tail(&roundtrips, 0.99).value,
        samples,
    );
    put(
        "core.cmdqueue.post_drain_ns",
        fastest_ns(batches, CALLS, || {
            let seq = q.post(Command::Sync).expect("post");
            black_box(q.drain());
            q.complete(seq);
        }),
        calls,
    );
}

/// Run a few traced Covirt reps of the control-plane workloads `W` is not,
/// collecting their spans and latencies. Returns the ops that failed.
pub fn control_plane<W: Workload>(
    seed: u64,
    batches: usize,
    spans: &mut Spans,
    latencies: &mut Latencies,
) -> u64 {
    let mut failed = 0;
    if W::NAME != Memchurn::NAME {
        failed += sample::<Memchurn>(seed, 2, batches, spans, latencies);
    }
    if W::NAME != Faultcycle::NAME {
        failed += sample::<Faultcycle>(seed, 1, batches, spans, latencies);
    }
    failed
}

fn sample<S: Workload>(
    seed: u64,
    reps: usize,
    batches: usize,
    spans: &mut Spans,
    latencies: &mut Latencies,
) -> u64 {
    let mut s = S::setup(seed);
    let mut failed = 0;
    for _ in 0..reps {
        failed += s.rep(Arm::Covirt, spans);
    }
    s.trace_extras(spans, batches);
    for (name, xs) in s.take_latencies() {
        latencies.entry(name).or_default().extend(xs);
    }
    failed + s.finish().failed
}
