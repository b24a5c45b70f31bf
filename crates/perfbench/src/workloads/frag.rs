//! `frag` — the fragmented-enclave workload.
//!
//! 256 separate 64 KiB grants (`add_memory` → `poll_ctrl` →
//! `process_acks`; 4 KiB mappings, 256 regions in the zone snapshot), a
//! 16-entry 4 KiB TLB, and seeded touches spread over all grants,
//! alternating read and write. It uses the same layers as `gups`
//! differently: ≈99 % TLB misses, a region cache that almost never hits
//! and a deep snapshot search. Region-cache, snapshot-search and
//! huge-page-EPT work must show here, and `gups` must not move.

use super::{digest, warm, world_counts, zone0_in_use, Arm, Finish, ProbeTarget, Rng, Workload};
use crate::costs::Counts;
use crate::spans::Spans;
use covirt::{CovirtResult, GuestCore};
use covirt_simhw::addr::PAGE_SIZE_4K;
use covirt_simhw::tlb::TlbParams;
use covirt_simhw::topology::{HwLayout, ZoneId};
use workloads::World;

const GRANTS: usize = 256;
const GRANT_BYTES: u64 = 64 * 1024;
const TOUCHES_PER_REP: u64 = 20_000;
const BATCH: u64 = 128;
const ENCLAVE_MEM: u64 = 64 * 1024 * 1024;

const TLB: TlbParams = TlbParams {
    entries_4k: 16,
    entries_2m: 2,
    entries_1g: 1,
};

struct Side {
    world: World,
    guest: GuestCore,
    /// Base address of each grant.
    grants: Vec<u64>,
    rng: Rng,
    /// Digest of every value read so far.
    checksum: u64,
}

pub struct Frag {
    sides: [Side; 2],
}

impl Side {
    fn build(arm: Arm, seed: u64) -> Side {
        let mut world = World::build(arm.mode(), HwLayout { cores: 1, zones: 1 }, ENCLAVE_MEM);
        world.tlb = TLB;
        let pisces = world.master.pisces();
        let grants = (0..GRANTS)
            .map(|_| {
                let r = pisces
                    .add_memory(&world.enclave, ZoneId(0), GRANT_BYTES)
                    .expect("grant");
                world.kernel.poll_ctrl().expect("guest maps the grant");
                pisces.process_acks(&world.enclave).expect("grant ack");
                r.start.raw()
            })
            .collect();
        let guest = world.guest_core(world.cores[0]).expect("guest core launch");
        Side {
            world,
            guest,
            grants,
            rng: Rng::new(seed),
            checksum: 0,
        }
    }

    fn touches(&mut self, spans: &mut Spans) -> CovirtResult<()> {
        let g = &mut self.guest;
        let mut left = TOUCHES_PER_REP;
        while left > 0 {
            let batch = spans.enter("core.exec.batch");
            for i in 0..left.min(BATCH) {
                let r = self.rng.next_u64();
                let grant = self.grants[(r >> 32) as usize % GRANTS];
                let page = (r >> 16) % (GRANT_BYTES / PAGE_SIZE_4K);
                let word = (r >> 4) % (PAGE_SIZE_4K / 8);
                let addr = grant + page * PAGE_SIZE_4K + word * 8;
                if i % 2 == 0 {
                    self.checksum = digest(self.checksum, g.read_u64(addr)?);
                } else {
                    g.write_u64(addr, r)?;
                }
            }
            spans.exit(batch);
            let poll = spans.enter("core.exec.poll");
            g.poll()?;
            spans.exit(poll);
            left = left.saturating_sub(BATCH);
        }
        Ok(())
    }
}

impl Workload for Frag {
    const NAME: &'static str = "frag";
    const OPS_PER_REP: u64 = TOUCHES_PER_REP;
    const PAIRS_PER_SECOND: f64 = 60.0;

    fn setup(seed: u64) -> Frag {
        let mut w = Frag {
            sides: [Arm::Native, Arm::Covirt].map(|arm| Side::build(arm, seed)),
        };
        warm(&mut w);
        w
    }

    fn rep(&mut self, arm: Arm, spans: &mut Spans) -> u64 {
        match self.sides[arm as usize].touches(spans) {
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

    /// Both arms replay the same touches, and every read sees earlier
    /// writes, so one wrong or lost access makes the read digests differ.
    fn finish(&mut self) -> Finish {
        let [native, covirt] = &self.sides;
        Finish {
            failed: if native.checksum == covirt.checksum {
                0
            } else {
                Self::OPS_PER_REP
            },
            checksum: covirt.checksum,
        }
    }

    fn probe_target(&mut self) -> ProbeTarget<'_> {
        let side = &mut self.sides[Arm::Covirt as usize];
        ProbeTarget {
            world: &side.world,
            pages: side.grants.iter().step_by(GRANTS / 32).copied().collect(),
            guest: &mut side.guest,
        }
    }
}
