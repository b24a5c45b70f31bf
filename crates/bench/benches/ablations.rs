//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `ept_coalescing`  — nested-translate latency with 4 KiB-only vs
//!   2 MiB/1 GiB-coalesced EPT mappings (the "large page" optimization of
//!   Section IV-C);
//! * `ipi_mode`        — IPI send→receive round-trip under no protection,
//!   full APIC virtualization (TrapAll) and posted interrupts;
//! * `cmdqueue`        — the asynchronous controller-side reconfiguration
//!   protocol: EPT unmap + TlbFlush command + NMI + completion wait, with
//!   a live guest polling — the cost the paper claims is minimal;
//! * `exitless`        — single-command post→complete round trip, NMI
//!   delivery (one VM exit per command) vs doorbell-first posted-
//!   interrupt delivery (harvested in guest mode, zero exits);
//! * `exit_cost`       — per-exit-reason hypervisor handling cost;
//! * `shootdown`       — broadcast-shootdown wall clock vs live-core count
//!   (two-phase post-all-then-wait-all must stay ~flat 1→8 cores);
//! * `walk_cache`      — nested-walk cost with the EPT paging-structure
//!   cache on vs off;
//! * `scaling`         — concurrent per-core STREAM triad at 1/2/4/8
//!   cores, Native vs Covirt (the lock-free resolve path must keep
//!   per-core throughput flat), plus the per-core region cache on vs off
//!   under TLB-fill pressure;
//! * `numa_shard`      — zone-local resolve latency with the remote zone
//!   quiet vs under publish churn (sharding must keep them identical),
//!   plus the writer-side publish cost with a sustained reader holding
//!   epoch sections open (bounded reclamation must keep it flat).

use covirt::cmdqueue::Command;
use covirt::config::CovirtConfig;
use covirt::ExecMode;
use covirt_simhw::addr::{GuestPhysAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use covirt_simhw::ept::Ept;
use covirt_simhw::interconnect::{DeliveryMode, IpiDest};
use covirt_simhw::memory::PhysMemory;
use covirt_simhw::paging::{Access, DirectLoad, FramePool};
use covirt_simhw::topology::{HwLayout, ZoneId};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use workloads::World;

fn ept_for(mem: &Arc<PhysMemory>) -> Ept {
    let pool = mem
        .alloc_backed(ZoneId(0), 8 * 1024 * 1024, PAGE_SIZE_4K)
        .unwrap();
    Ept::new(Arc::new(FramePool::new(Arc::clone(mem), pool).unwrap())).unwrap()
}

fn ablate_ept_coalescing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_ept_coalescing");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let mem = Arc::new(PhysMemory::new(&[256 * 1024 * 1024]));
    let region = mem
        .alloc(ZoneId(0), 32 * PAGE_SIZE_2M, PAGE_SIZE_2M)
        .unwrap();

    for (label, max_level) in [("4k-only", 1u8), ("coalesced-2m", 3u8)] {
        let ept = ept_for(&mem);
        ept.map_identity(region, max_level).unwrap();
        let (c4k, c2m, c1g) = ept.leaf_counts().unwrap();
        eprintln!("[{label}] EPT leaves: {c4k} x4K, {c2m} x2M, {c1g} x1G");
        let mut addr = region.start.raw();
        group.bench_function(label, |b| {
            b.iter(|| {
                // Walk a striding address so caches of the radix path vary.
                addr = region.start.raw()
                    + (addr.wrapping_mul(6364136223846793005) % region.len) / 8 * 8;
                criterion::black_box(
                    ept.translate(GuestPhysAddr::new(addr), Access::Read, &DirectLoad(&mem))
                        .unwrap()
                        .loads,
                )
            })
        });
    }
    group.finish();
}

fn ablate_ipi_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_ipi_mode");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for mode in [
        ExecMode::Native,
        ExecMode::Covirt(CovirtConfig::MEM_IPI), // TrapAll
        ExecMode::Covirt(CovirtConfig::MEM_IPI_PIV), // Posted
    ] {
        let world = World::build(mode, HwLayout { cores: 2, zones: 1 }, 96 * 1024 * 1024);
        let vector = world.ipi_vectors()[0];
        let [c0, c1] = [world.cores[0], world.cores[1]];
        let mut sender = world.guest_core(c0).unwrap();
        let mut receiver = world.guest_core(c1).unwrap();
        group.bench_function(mode.label(), |b| {
            b.iter(|| {
                sender.send_ipi(c1, vector).unwrap();
                receiver.poll().unwrap();
                criterion::black_box(receiver.counters.ipi_irqs)
            })
        });
    }
    group.finish();
}

fn ablate_cmdqueue(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_cmdqueue");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // A live guest core polls on another thread; the controller posts a
    // Sync command + NMI and waits for completion — the full asynchronous
    // reconfiguration round trip.
    let world = World::build(
        ExecMode::Covirt(CovirtConfig::MEM),
        HwLayout { cores: 1, zones: 1 },
        96 * 1024 * 1024,
    );
    let ctl = world.controller.as_ref().unwrap();
    let vctx = ctl.context(world.enclave.id.0).unwrap();
    let core = world.cores[0];
    let q = vctx.cmdq(core).unwrap().clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let node = Arc::clone(&world.node);
    let mut guest = world.guest_core(core).unwrap();
    let poller = std::thread::spawn(move || {
        while !stop2.load(Ordering::Acquire) {
            guest.poll().unwrap();
            std::hint::spin_loop();
        }
        guest.shutdown();
    });

    group.bench_function("async-cmd+nmi-roundtrip", |b| {
        b.iter(|| {
            let seq = q.post(Command::Sync).unwrap();
            node.interconnect
                .send(0, IpiDest::Core(core), DeliveryMode::Nmi)
                .unwrap();
            q.wait(seq, 50_000_000).expect("flush ack timed out");
        })
    });

    // Contrast: the EPT edit alone (what the controller does without any
    // hypervisor involvement — the "many cases" fast path).
    let mem = Arc::new(PhysMemory::new(&[256 * 1024 * 1024]));
    let ept = ept_for(&mem);
    let region = mem
        .alloc(ZoneId(0), 4 * PAGE_SIZE_2M, PAGE_SIZE_2M)
        .unwrap();
    group.bench_function("controller-side-ept-edit", |b| {
        b.iter(|| {
            ept.map_identity(region, 3).unwrap();
            ept.unmap(region).unwrap();
        })
    });

    stop.store(true, Ordering::Release);
    poller.join().unwrap();
    group.finish();
}

/// Exitless command delivery (DESIGN.md "Exitless command delivery"):
/// single-command post→complete round-trip under NMI-only delivery (every
/// command exits) vs doorbell-first (harvested at a guest safe point, no
/// exit). Controller and guest interleave on one thread so the measured
/// span is the delivery mechanism, not host-scheduler wakeup latency.
fn ablate_exitless(c: &mut Criterion) {
    use covirt::controller::CmdDelivery;
    let mut group = c.benchmark_group("ablate_exitless");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for (name, delivery) in [
        ("nmi-only-roundtrip", CmdDelivery::NmiOnly),
        ("doorbell-first-roundtrip", CmdDelivery::DoorbellFirst),
    ] {
        let world = World::build(
            ExecMode::Covirt(CovirtConfig::MEM),
            HwLayout { cores: 1, zones: 1 },
            96 * 1024 * 1024,
        );
        let ctl = world.controller.as_ref().unwrap();
        ctl.set_delivery(delivery);
        let vctx = ctl.context(world.enclave.id.0).unwrap();
        let core = world.cores[0];
        let q = vctx.cmdq(core).unwrap().clone();
        let mut guest = world.guest_core(core).unwrap();

        group.bench_function(name, |b| {
            b.iter(|| {
                let seq = ctl.post_sync(&vctx, core).unwrap();
                while q.completed() < seq {
                    guest.poll().unwrap();
                }
            })
        });
        guest.shutdown();
    }
    group.finish();
}

fn ablate_shootdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_shootdown");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // The controller runs the two-phase broadcast barrier (post + NMI to
    // all, then wait on all). A single service thread polls every guest
    // core round-robin, modelling cores that each handle their own NMI
    // concurrently: per-core service is microseconds, so wall clock tracks
    // the number of cross-thread round trips the *protocol* needs — one for
    // the broadcast barrier regardless of core count (a serial post-wait
    // loop would need one per core). This also keeps the measurement honest
    // on single-CPU hosts, where one thread per core would serialize on the
    // host scheduler and measure its quantum instead of the protocol.
    for n in [1usize, 2, 4, 8] {
        let zones = if n > 6 { 2 } else { 1 };
        let world = World::build(
            ExecMode::Covirt(CovirtConfig::MEM),
            HwLayout { cores: n, zones },
            96 * 1024 * 1024,
        );
        let ctl = Arc::clone(world.controller.as_ref().unwrap());
        ctl.set_flush_spins(50_000_000);
        let enclave = world.enclave.id.0;
        let stop = Arc::new(AtomicBool::new(false));
        let mut guests: Vec<_> = world
            .cores
            .iter()
            .map(|&core| world.guest_core(core).unwrap())
            .collect();
        let service = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for g in &mut guests {
                        g.poll().unwrap();
                    }
                    std::hint::spin_loop();
                }
                for g in guests {
                    g.shutdown();
                }
            })
        };

        group.bench_function(format!("broadcast-{n}-cores"), |b| {
            b.iter(|| ctl.shootdown_barrier(enclave).expect("shootdown barrier"))
        });

        stop.store(true, Ordering::Release);
        service.join().unwrap();
    }
    group.finish();
}

fn ablate_walk_cache(c: &mut Criterion) {
    use covirt_simhw::tlb::TlbParams;
    use workloads::randomaccess::RandomAccess;
    let mut group = c.benchmark_group("ablate_walk_cache");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for (label, enabled) in [("walk-cache-on", true), ("walk-cache-off", false)] {
        let mut world = World::build(
            ExecMode::Covirt(CovirtConfig::MEM),
            HwLayout { cores: 1, zones: 1 },
            96 * 1024 * 1024,
        );
        // Shrink the TLB so the random stream misses steadily — every
        // iteration pays the nested-walk path the cache accelerates.
        world.tlb = TlbParams {
            entries_4k: 16,
            entries_2m: 2,
            entries_1g: 1,
        };
        let ra = RandomAccess::setup(&world, 20);
        let mut g = world.guest_core(world.cores[0]).unwrap();
        g.set_walk_cache_enabled(enabled);
        ra.init(&mut g).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| criterion::black_box(ra.run(&mut g, 1024).unwrap().walks))
        });
        let r = ra.run(&mut g, 100_000).unwrap();
        eprintln!(
            "[{label}] walk loads/miss {:.2}, cache hit rate {:.1}% ({} walks)",
            r.walk_loads_per_miss(),
            r.walk_cache_hit_rate() * 100.0,
            r.walks
        );
    }
    group.finish();
}

fn ablate_scaling(c: &mut Criterion) {
    use covirt_simhw::tlb::TlbParams;
    use workloads::scaling::{self, ScalingParams, CORE_COUNTS};
    use workloads::stream::Stream;
    let mut group = c.benchmark_group("ablate_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let p = ScalingParams {
        stream_n: 1 << 18,
        ra_log2_n: 10,
        ra_updates: 0,
        trials: 1,
    };

    // All cores run their own triad concurrently; per-iteration wall clock
    // divided by core count must stay flat if the resolve path is truly
    // core-local (weak scaling — the `figures scaling` claim).
    for &n in &CORE_COUNTS {
        for mode in scaling::modes() {
            let world = scaling::build_world(mode, n, p);
            let streams: Vec<Stream> = (0..n).map(|_| Stream::setup(&world, p.stream_n)).collect();
            world.run_on_cores(|rank, g| streams[rank].init(g).unwrap());
            group.bench_function(format!("{}-{n}c", mode.label()), |b| {
                b.iter(|| {
                    criterion::black_box(
                        world.run_on_cores(|rank, g| streams[rank].run_once(g).unwrap().triad_mbs),
                    )
                })
            });
        }
    }

    // Region-cache ablation: shrink the TLB so every access pays a fill,
    // then compare the fill path with the per-core cache on vs off (off =
    // every fill resolves against the shared snapshot).
    for (label, enabled) in [("resolve-cache-on", true), ("resolve-cache-off", false)] {
        let mut world = scaling::build_world(ExecMode::Covirt(CovirtConfig::MEM), 2, p);
        world.tlb = TlbParams {
            entries_4k: 16,
            entries_2m: 2,
            entries_1g: 1,
        };
        let streams: Vec<Stream> = (0..2).map(|_| Stream::setup(&world, p.stream_n)).collect();
        world.run_on_cores(|rank, g| {
            g.set_region_cache_enabled(enabled);
            streams[rank].init(g).unwrap()
        });
        group.bench_function(label, |b| {
            b.iter(|| {
                criterion::black_box(world.run_on_cores(|rank, g| {
                    g.set_region_cache_enabled(enabled);
                    streams[rank].run_once(g).unwrap().triad_mbs
                }))
            })
        });
    }
    group.finish();
}

fn ablate_numa_shard(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_numa_shard");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let mem = Arc::new(PhysMemory::new(&[64 * 1024 * 1024, 64 * 1024 * 1024]));
    let local = mem
        .alloc_backed(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M)
        .unwrap();

    // Zone-local resolve with the remote zone quiet.
    group.bench_function("local-resolve-quiet", |b| {
        b.iter(|| criterion::black_box(mem.resolve(local.start, 8).unwrap().1))
    });

    // Same resolve while zone 1 is republished continuously — per-zone
    // sharding must keep the latency indistinguishable from quiet.
    {
        let stop = Arc::new(AtomicBool::new(false));
        let churn = {
            let mem = Arc::clone(&mem);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let r = mem
                        .alloc_backed(ZoneId(1), PAGE_SIZE_2M, PAGE_SIZE_2M)
                        .unwrap();
                    mem.free(r).unwrap();
                }
            })
        };
        group.bench_function("local-resolve-remote-churn", |b| {
            b.iter(|| criterion::black_box(mem.resolve(local.start, 8).unwrap().1))
        });
        stop.store(true, Ordering::Release);
        churn.join().unwrap();
    }

    // Writer-side cost: one grant/reclaim publish cycle while a sustained
    // reader keeps epoch sections opening and closing on the same shard —
    // the bounded-reclamation path must not turn publishes into waits.
    {
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let mem = Arc::clone(&mem);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    criterion::black_box(mem.resolve(local.start, 8).unwrap().1);
                    std::hint::spin_loop();
                }
            })
        };
        group.bench_function("publish-under-sustained-reader", |b| {
            b.iter(|| {
                let r = mem
                    .alloc_backed(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M)
                    .unwrap();
                mem.free(r).unwrap();
            })
        });
        stop.store(true, Ordering::Release);
        reader.join().unwrap();
    }
    group.finish();
}

type GuestOp = Box<dyn Fn(&mut covirt::GuestCore)>;

fn ablate_exit_cost(c: &mut Criterion) {
    use covirt_simhw::exit::ExitReason;
    let mut group = c.benchmark_group("ablate_exit_cost");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let world = World::build(
        ExecMode::Covirt(CovirtConfig::FULL),
        HwLayout { cores: 1, zones: 1 },
        96 * 1024 * 1024,
    );
    let mut g = world.guest_core(world.cores[0]).unwrap();
    let a = world.alloc_array(1024 * 1024);
    let reasons: [(&str, GuestOp); 3] = [
        (
            "cpuid",
            Box::new(|g: &mut covirt::GuestCore| g.cpuid(1).unwrap()),
        ),
        (
            "wrmsr-benign",
            Box::new(|g: &mut covirt::GuestCore| {
                g.wrmsr(covirt_simhw::msr::IA32_TSC_DEADLINE, 1).unwrap()
            }),
        ),
        (
            "io-benign",
            Box::new(|g: &mut covirt::GuestCore| {
                g.io_write(covirt_simhw::ioport::PORT_COM1, 1).unwrap()
            }),
        ),
    ];
    let _ = ExitReason::Hlt; // keep the import honest
    for (name, f) in reasons {
        group.bench_function(name, |b| b.iter(|| f(&mut g)));
    }
    // Data-path contrast: a TLB-hit guest load (no exit at all).
    group.bench_function("tlb-hit-load", |b| {
        g.write_u64(a, 1).unwrap();
        b.iter(|| criterion::black_box(g.read_u64(a).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablate_ept_coalescing,
    ablate_ipi_mode,
    ablate_cmdqueue,
    ablate_exitless,
    ablate_exit_cost,
    ablate_shootdown,
    ablate_walk_cache,
    ablate_scaling,
    ablate_numa_shard
);
criterion_main!(benches);
