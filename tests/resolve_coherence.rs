//! Concurrent coherence of the lock-free resolve path: reader threads
//! hammer `resolve`/guest reads through per-core region caches while
//! memory is granted and reclaimed underneath them.
//!
//! The invariants under test mirror the snapshot contract in
//! `simhw::memory`:
//!
//! * a resolve that succeeds returns backing that was populated in *some*
//!   published snapshot, and the word read through it is a value some
//!   writer legitimately stored there — never garbage from a recycled
//!   frame and never a torn word;
//! * under the full stack, guest loads racing a reclaim epoch observe
//!   only values the host published for that region's lifetime (or fault
//!   once their TLB entry is shot down).

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::{CovirtController, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::simhw::addr::PAGE_SIZE_2M;
use covirt_suite::simhw::memory::{PhysMemory, RegionCache};
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tags carry a recognizable high half so a read can be classified.
const TAG_BASE: u64 = 0x7a67_0000_0000_0000;
const TAG_MASK: u64 = 0xffff_0000_0000_0000;
/// Stamped into a region after it is unpublished, while it is still
/// populated — a reader racing the reclaim may legitimately see it.
const POISON: u64 = 0xdead_dead_dead_dead;

/// A value is coherent if it is a tag (current or from a recycled later
/// lifetime of the same range), the dying-window poison, or zero (a
/// freshly allocated, zeroed recycling of the range). Anything else means
/// a resolve reached memory no writer ever published — a torn word or a
/// dangling region.
fn coherent(v: u64) -> bool {
    v == 0 || v == POISON || v & TAG_MASK == TAG_BASE
}

#[test]
fn concurrent_resolve_never_sees_reclaimed_or_torn_state() {
    let mem = Arc::new(PhysMemory::new(&[64 * 1024 * 1024]));
    // The published region's start address; 0 = nothing published. A word
    // keeps the readers off any lock, so they cannot starve the writer.
    let published = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    const CYCLES: u64 = 300;

    std::thread::scope(|s| {
        // Writer: grant → stamp → publish → unpublish → poison → reclaim.
        s.spawn(|| {
            for i in 0..CYCLES {
                let r = mem
                    .alloc_backed(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M)
                    .unwrap();
                let tag = TAG_BASE | i;
                mem.write_u64(r.start, tag).unwrap();
                mem.write_u64(r.start.add(PAGE_SIZE_2M - 8), tag).unwrap();
                published.store(r.start.raw(), Ordering::Release);
                for _ in 0..10 {
                    std::thread::yield_now();
                }
                published.store(0, Ordering::Release);
                mem.write_u64(r.start, POISON).unwrap();
                mem.free(r).unwrap();
            }
            done.store(true, Ordering::Release);
        });

        // Readers: per-thread region caches (one per simulated core).
        for _ in 0..3 {
            s.spawn(|| {
                let cache = RegionCache::new();
                let mut resolved_ok = 0u64;
                while !done.load(Ordering::Acquire) {
                    let addr = published.load(Ordering::Acquire);
                    if addr == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    let start = covirt_suite::simhw::addr::HostPhysAddr::new(addr);
                    for _ in 0..32 {
                        // The publication may already be stale; a failed
                        // resolve is the correct answer then.
                        if let Ok((backing, off)) = cache.resolve(&mem, start, 8) {
                            let v = backing.read_u64(off);
                            assert!(coherent(v), "resolve returned incoherent word {v:#x}");
                            resolved_ok += 1;
                        }
                    }
                    // Keep single-CPU hosts round-robining instead of
                    // letting one spinner burn its whole quantum.
                    std::thread::yield_now();
                }
                let (hits, misses) = cache.stats();
                assert!(hits + misses >= resolved_ok);
            });
        }
    });
    // Every region was freed: the snapshot must be empty and every cycle
    // published exactly two swaps (grant + reclaim).
    assert_eq!(mem.populated_regions(), 0);
    assert!(mem.snapshot_swaps() >= 2 * CYCLES);
}

#[test]
fn guest_reads_stay_coherent_across_reclaim_epochs() {
    let node = SimNode::new(NodeConfig::paper_testbed());
    let master = MasterControl::new(Arc::clone(&node));
    let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
    ctl.attach_hobbes(&master);
    let req = ResourceRequest::new(
        vec![CoreId(2), CoreId(3)],
        vec![(ZoneId(0), 64 * 1024 * 1024)],
    );
    let (e, k) = master.bring_up_enclave("coherence", &req).unwrap();

    let published: Arc<Mutex<Option<(u64, u64)>>> = Arc::new(Mutex::new(None));
    // The tag each guest last tried to read, so a publish window stays open
    // until both cores have used it (a fixed number of yields lets a
    // descheduled guest miss every window).
    let seen = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let stop = Arc::new(AtomicBool::new(false));
    let guests: Vec<_> = [2usize, 3]
        .into_iter()
        .enumerate()
        .map(|(i, core)| {
            let mut g = GuestCore::launch_covirt(
                Arc::clone(&node),
                Arc::clone(&k),
                Arc::clone(&ctl),
                core,
                TlbParams::default(),
            )
            .unwrap();
            let published = Arc::clone(&published);
            let seen = Arc::clone(&seen);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    // Service flush NMIs so reclaim epochs can close.
                    g.poll().unwrap();
                    let Some((addr, tag)) = *published.lock().unwrap() else {
                        std::thread::yield_now();
                        continue;
                    };
                    // A fault is a correct outcome once the shootdown
                    // lands; a successful load must be coherent.
                    if let Ok(v) = g.read_u64(addr) {
                        assert!(coherent(v), "guest read incoherent word {v:#x}");
                    }
                    seen[i].store(tag, Ordering::Release);
                }
                g
            })
        })
        .collect();

    for cycle in 0..12u64 {
        let r = master
            .pisces()
            .add_memory(&e, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        k.poll_ctrl().unwrap();
        master.pisces().process_acks(&e).unwrap();
        let tag = TAG_BASE | cycle;
        node.mem.write_u64(r.start, tag).unwrap();
        *published.lock().unwrap() = Some((r.start.raw(), tag));
        let t0 = std::time::Instant::now();
        while seen.iter().any(|s| s.load(Ordering::Acquire) != tag) {
            assert!(t0.elapsed().as_secs() < 30, "guests never read the grant");
            std::thread::yield_now();
        }
        *published.lock().unwrap() = None;

        // Reclaim under an epoch while the guests keep reading: the close
        // cannot return until both cores flushed their stale entries.
        ctl.begin_reclaim_epoch(e.id.0);
        master.pisces().request_remove_memory(&e, r).unwrap();
        let t0 = std::time::Instant::now();
        while e.resources().mem.contains(&r) {
            k.poll_ctrl().unwrap();
            master.pisces().process_acks(&e).unwrap();
            assert!(t0.elapsed().as_secs() < 30, "reclaim wedged");
            std::thread::yield_now();
        }
        ctl.end_reclaim_epoch(e.id.0).unwrap();
    }
    stop.store(true, Ordering::Release);
    for h in guests {
        let g = h.join().unwrap();
        // The resolve instrumentation saw traffic on every live core.
        let c = g.counters();
        assert!(c.resolve_hits + c.resolve_misses > 0);
        g.shutdown();
    }
}
