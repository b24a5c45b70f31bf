//! Seed and determinism self-check: the same seed gives the same counter
//! vector (hence the same `sim_cycles_per_op`) and the same outputs; a
//! different seed gives different inputs.

use covirt_perfbench::cli::run_named;
use covirt_perfbench::runner::{RunResult, Scale};

/// A few rep pairs, and a deadline no debug build will hit: the rep count
/// must be the planned one for counts to be comparable.
const TINY: Scale = Scale {
    seconds: 0.05,
    segments: 2,
    probe_batches: 1,
    deadline_s: 600.0,
};

fn run(workload: &str, seed: u64) -> RunResult {
    let mut r = run_named(workload, seed, false, TINY).expect("known workload");
    assert_eq!(r.failed, 0, "{workload} seed {seed}: failed ops");
    assert!(!r.deadline_hit);
    // The wall clock drives the timer; the model records its interrupts
    // and charges nothing for them.
    for c in &mut r.counts {
        c.timer_irqs = 0;
    }
    r
}

#[test]
fn single_threaded_workloads_repeat_exactly() {
    for w in ["stream", "gups", "frag", "faultcycle"] {
        let (a, b, other) = (run(w, 1), run(w, 1), run(w, 2));
        assert_eq!(
            a.counts, b.counts,
            "{w}: counter vectors differ between same-seed runs"
        );
        assert_eq!(
            a.value("sim_cycles_per_op"),
            b.value("sim_cycles_per_op"),
            "{w}: modelled cost differs between same-seed runs"
        );
        assert_eq!(
            a.checksum, b.checksum,
            "{w}: outputs differ between same-seed runs"
        );
        assert_ne!(
            a.checksum, other.checksum,
            "{w}: seed 2 generated seed 1's inputs"
        );
    }
}

/// The access stream itself, not only the data, follows the seed where the
/// workload has one.
#[test]
fn the_seed_moves_the_random_access_streams() {
    for w in ["gups", "frag"] {
        assert_ne!(run(w, 1).counts, run(w, 2).counts, "{w}");
    }
}

/// Two threads race on doorbells, so `memchurn` repeats closely, not
/// exactly.
#[test]
fn memchurn_repeats_within_one_percent() {
    let sim = |seed| {
        run("memchurn", seed)
            .value("sim_cycles_per_op")
            .expect("reported")
    };
    let (a, b) = (sim(1), sim(1));
    assert!(
        (a - b).abs() / a < 0.01,
        "memchurn modelled cost {a} vs {b}"
    );
    assert_ne!(run("memchurn", 1).checksum, run("memchurn", 2).checksum);
}
