//! `gups` — the walk workload (paper Fig. 5b, amplified).
//!
//! HPCC random read-xor-write over a 2^20-entry table (8 MiB, four 2 MiB
//! pages) with a TLB of only two 2 MiB entries, so about half of all
//! updates take a page walk. Most time goes to `GuestCore::translate_slow`,
//! the guest walk, the EPT walk cache (≈100 % hits) and the final EPT
//! translate; the region cache always hits and the snapshot search is
//! idle. Walk, walk-cache and EPT work must show here; region-cache and
//! snapshot-search work must not.

use super::{digest, warm, world_counts, zone0_in_use, Arm, Finish, ProbeTarget, Rng, Workload};
use crate::costs::Counts;
use crate::spans::Spans;
use covirt::{CovirtResult, GuestCore};
use covirt_simhw::addr::PAGE_SIZE_2M;
use covirt_simhw::tlb::TlbParams;
use covirt_simhw::topology::HwLayout;
use workloads::World;

const LOG2_ENTRIES: u32 = 20;
const ENTRIES: u64 = 1 << LOG2_ENTRIES;
const UPDATES_PER_REP: u64 = 20_000;
/// Accesses between safe points (the HPCC look-ahead).
const BATCH: u64 = 128;
const ENCLAVE_MEM: u64 = 64 * 1024 * 1024;

/// Small enough that the 4-page table thrashes the 2 MiB set.
const TLB: TlbParams = TlbParams {
    entries_4k: 64,
    entries_2m: 2,
    entries_1g: 1,
};

/// The HPCC polynomial generator step.
#[inline]
fn hpcc_next(ran: u64) -> u64 {
    (ran << 1) ^ (if (ran as i64) < 0 { 7 } else { 0 })
}

struct Side {
    world: World,
    guest: GuestCore,
    table: u64,
    /// Generator state; both arms replay the same stream.
    ran: u64,
}

pub struct Gups {
    sides: [Side; 2],
}

impl Side {
    fn build(arm: Arm, start: u64) -> Side {
        let mut world = World::build(arm.mode(), HwLayout { cores: 1, zones: 1 }, ENCLAVE_MEM);
        world.tlb = TLB;
        let mut guest = world.guest_core(world.cores[0]).expect("guest core launch");
        let table = world.alloc_array(ENTRIES * 8);
        guest
            .with_chunks_mut::<u64>(table, ENTRIES as usize, |off, ch| {
                for (i, v) in ch.iter_mut().enumerate() {
                    *v = (off + i) as u64;
                }
            })
            .expect("table init");
        Side {
            world,
            guest,
            table,
            ran: start,
        }
    }

    fn updates(&mut self, spans: &mut Spans) -> CovirtResult<()> {
        let g = &mut self.guest;
        let mut ran = self.ran;
        let mut left = UPDATES_PER_REP;
        while left > 0 {
            let batch = spans.enter("core.exec.batch");
            for _ in 0..left.min(BATCH) {
                ran = hpcc_next(ran);
                let addr = self.table + (ran & (ENTRIES - 1)) * 8;
                let v = g.read_u64(addr)?;
                g.write_u64(addr, v ^ ran)?;
            }
            spans.exit(batch);
            let poll = spans.enter("core.exec.poll");
            g.poll()?;
            spans.exit(poll);
            left = left.saturating_sub(BATCH);
        }
        self.ran = ran;
        Ok(())
    }
}

impl Workload for Gups {
    const NAME: &'static str = "gups";
    const OPS_PER_REP: u64 = UPDATES_PER_REP;
    const PAIRS_PER_SECOND: f64 = 195.0;

    fn setup(seed: u64) -> Gups {
        // Any non-zero start is a point on the generator's cycle.
        let start = Rng::new(seed).next_u64() | 1;
        let mut w = Gups {
            sides: [Arm::Native, Arm::Covirt].map(|arm| Side::build(arm, start)),
        };
        warm(&mut w);
        w
    }

    fn rep(&mut self, arm: Arm, spans: &mut Spans) -> u64 {
        match self.sides[arm as usize].updates(spans) {
            Ok(()) => 0,
            Err(_) => Self::OPS_PER_REP,
        }
    }

    fn counts(&mut self, arm: Arm) -> Counts {
        let side = &self.sides[arm as usize];
        world_counts(&side.world, &side.guest)
    }

    fn in_use_bytes(&self, arm: Arm) -> u64 {
        zone0_in_use(&self.sides[arm as usize].world)
    }

    /// Both arms replayed the same update stream, so the two tables must
    /// be bit-identical.
    fn finish(&mut self) -> Finish {
        let mut tables: Vec<Vec<u64>> = Vec::new();
        for side in &mut self.sides {
            let mut t = vec![0u64; ENTRIES as usize];
            if side
                .guest
                .with_chunks::<u64>(side.table, ENTRIES as usize, |off, ch| {
                    t[off..off + ch.len()].copy_from_slice(ch)
                })
                .is_err()
            {
                return Finish {
                    failed: ENTRIES,
                    checksum: 0,
                };
            }
            tables.push(t);
        }
        Finish {
            failed: tables[0]
                .iter()
                .zip(&tables[1])
                .filter(|(n, c)| n != c)
                .count() as u64,
            checksum: tables[1].iter().fold(0, |acc, &v| digest(acc, v)),
        }
    }

    fn probe_target(&mut self) -> ProbeTarget<'_> {
        let side = &mut self.sides[Arm::Covirt as usize];
        ProbeTarget {
            world: &side.world,
            pages: (0..ENTRIES * 8 / PAGE_SIZE_2M)
                .map(|p| side.table + p * PAGE_SIZE_2M)
                .collect(),
            guest: &mut side.guest,
        }
    }
}
