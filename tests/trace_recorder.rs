//! Property tests for the flight recorder (`covirt-trace`).
//!
//! The recorder's contract under concurrency:
//!
//! * a record is never torn — a snapshot either sees a slot's full
//!   (tsc, kind, a, b) payload or not at all, even while writers race;
//! * the merged dump is TSC-sorted, and within one lane the per-event
//!   reservation index is strictly increasing (per-core monotonic order);
//! * a lane that wrapped keeps exactly the latest `capacity` records.

// `ProptestConfig { cases, ..default() }` is the portable spelling; the
// offline stub's config struct has a single field, which trips this lint.
#![allow(clippy::needless_update)]

use covirt_trace::{EventKind, Recorder, Tracer};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Payload derived from (lane, idx) so a torn record is detectable: `b`
/// must always equal `idx * GOLDEN ^ lane`.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn expected_b(lane: u64, idx: u64) -> u64 {
    idx.wrapping_mul(GOLDEN) ^ lane
}

/// A tracer whose clock is a shared atomic counter, so TSC order across
/// lanes is a real total order the test can check against.
fn tracer_with_shared_clock(rec: &Arc<Recorder>, lane: u32, clock: &Arc<AtomicU64>) -> Tracer {
    let clock = Arc::clone(clock);
    Tracer::new(
        Arc::clone(rec),
        lane,
        Arc::new(move || clock.fetch_add(1, Ordering::Relaxed)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// N concurrent writer threads (one per lane) each emit M events;
    /// no record tears, the merged dump is TSC-monotonic, and each lane
    /// retains the newest min(M, capacity) records in reservation order.
    #[test]
    fn concurrent_writers_never_tear(
        lanes in 1usize..5,
        per_lane in 1u64..600,
        cap_log2 in 4u32..9,
    ) {
        let capacity = 1u64 << cap_log2;
        let rec = Arc::new(Recorder::new(lanes, capacity as usize));
        rec.set_enabled(true);
        let clock = Arc::new(AtomicU64::new(1));

        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let t = tracer_with_shared_clock(&rec, lane as u32, &clock);
                std::thread::spawn(move || {
                    for i in 0..per_lane {
                        t.emit(
                            EventKind::CmdPost,
                            lane as u64,
                            expected_b(lane as u64, i),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let merged = rec.drain();
        prop_assert_eq!(
            merged.len() as u64,
            lanes as u64 * per_lane.min(capacity),
            "each lane keeps the newest min(M, capacity) records"
        );

        // Global dump is TSC-sorted.
        for w in merged.windows(2) {
            prop_assert!(w[0].tsc <= w[1].tsc, "merged dump must be TSC-sorted");
        }

        for lane in 0..lanes as u32 {
            let evs: Vec<_> = merged.iter().filter(|e| e.lane == lane).collect();
            prop_assert_eq!(evs.len() as u64, per_lane.min(capacity));
            // Per-lane TSC strictly increases (the shared clock ticks per
            // emit), reservation indices are contiguous and end at the
            // last emit — i.e. a wrapped ring kept the newest records.
            for w in evs.windows(2) {
                prop_assert!(w[0].tsc < w[1].tsc, "per-lane TSC must strictly increase");
                prop_assert_eq!(w[0].idx + 1, w[1].idx, "reservation order, no gaps");
            }
            prop_assert_eq!(evs.last().unwrap().idx, per_lane - 1);
            // Payload integrity: no torn records.
            for e in &evs {
                prop_assert_eq!(e.a, lane as u64);
                prop_assert_eq!(e.b, expected_b(lane as u64, e.idx), "torn record detected");
                prop_assert_eq!(e.kind, EventKind::CmdPost);
            }
        }
    }

    /// A reader snapshotting *while* writers race never observes a torn
    /// or out-of-order record, only a (possibly short) consistent prefix
    /// of each lane.
    #[test]
    fn reader_during_writes_sees_consistent_records(
        per_lane in 64u64..400,
        cap_log2 in 4u32..8,
    ) {
        let lanes = 2usize;
        let rec = Arc::new(Recorder::new(lanes, 1 << cap_log2));
        rec.set_enabled(true);
        let clock = Arc::new(AtomicU64::new(1));

        let writers: Vec<_> = (0..lanes)
            .map(|lane| {
                let t = tracer_with_shared_clock(&rec, lane as u32, &clock);
                std::thread::spawn(move || {
                    for i in 0..per_lane {
                        t.emit(EventKind::EptMap, lane as u64, expected_b(lane as u64, i));
                    }
                })
            })
            .collect();

        // Snapshot repeatedly while the writers run.
        for _ in 0..32 {
            for e in rec.drain() {
                prop_assert_eq!(e.kind, EventKind::EptMap);
                prop_assert_eq!(e.b, expected_b(e.a, e.idx), "mid-write snapshot tore a record");
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        // Final snapshot is complete and well-formed.
        let merged = rec.drain();
        prop_assert_eq!(merged.len() as u64, 2 * per_lane.min(1 << cap_log2));
        for e in &merged {
            prop_assert_eq!(e.b, expected_b(e.a, e.idx));
        }
    }
}

#[test]
fn disabled_recorder_stays_empty_under_threads() {
    let rec = Arc::new(Recorder::new(4, 64));
    let clock = Arc::new(AtomicU64::new(1));
    let handles: Vec<_> = (0..4)
        .map(|lane| {
            let t = tracer_with_shared_clock(&rec, lane, &clock);
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    t.emit(EventKind::NmiKick, 1, 2);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        rec.drain().is_empty(),
        "disabled recorder must record nothing"
    );
    assert_eq!(rec.emitted(), 0);
}

/// Both exporters emit structurally well-formed JSON for a busy capture
/// (checked with a minimal hand-rolled validator — no JSON crate in-tree).
#[test]
fn exporters_emit_wellformed_json() {
    use covirt_trace::export;

    let rec = Arc::new(Recorder::new(3, 128));
    rec.set_enabled(true);
    let clock = Arc::new(AtomicU64::new(1));
    for lane in 0..3u32 {
        let t = tracer_with_shared_clock(&rec, lane, &clock);
        let (a, b) = covirt_trace::pack_str("ept_violation\"\\x");
        t.emit_at(EventKind::ExitEnter, 10 + lane as u64, a, b);
        t.emit(EventKind::ExitLeave, 1200, 0);
        t.emit(EventKind::CmdPost, 7, lane as u64);
        t.emit(EventKind::CmdComplete, 7, 900);
        t.emit(EventKind::ShootdownBegin, 2, 1);
        t.emit(EventKind::ShootdownEnd, 4000, 0);
    }
    let events = rec.drain();

    let chrome = export::to_chrome_trace(&events, 1_000_000_000);
    assert!(
        json_wellformed(&chrome),
        "chrome trace must parse: {chrome}"
    );
    assert!(chrome.contains("\"traceEvents\""));
    assert!(
        chrome.contains("\"ph\":\"X\""),
        "span pairs must become X events"
    );

    for line in export::to_jsonl(&events, 1_000_000_000).lines() {
        assert!(json_wellformed(line), "jsonl line must parse: {line}");
    }
}

/// Minimal JSON structural validator: balanced containers outside strings,
/// legal escapes inside them. Enough to catch broken hand-rolled output.
fn json_wellformed(s: &str) -> bool {
    let mut stack = Vec::new();
    let mut in_str = false;
    let mut esc = false;
    for c in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            } else if (c as u32) < 0x20 {
                return false; // raw control char inside a string
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => stack.push(c),
            '}' | ']' => {
                let want = if c == '}' { '{' } else { '[' };
                if stack.pop() != Some(want) {
                    return false;
                }
            }
            _ => {}
        }
    }
    !in_str && stack.is_empty()
}
