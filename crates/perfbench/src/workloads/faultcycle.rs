//! `faultcycle` — the enclave lifecycle and the paper's Section V claim.
//!
//! One cycle brings up a 32 MiB enclave on core 9, launches its core,
//! touches memory, then makes the co-kernel write one page past its
//! assignment (`kitten::faults::off_by_one_region`). Under Covirt the
//! write must be `Contained`, the victim enclave dead and reclaimed, and a
//! bystander enclave's seeded data intact and still runnable. The native
//! arm runs the same lifecycle to first touch and then tears down in an
//! orderly way (a native wild write is not contained, so it is not made).
//!
//! Deliberately **single-threaded**: containment then runs on the driver
//! thread alone and never crosses the enclave-teardown race recorded as
//! P0 in ROADMAP.md. The node is rebuilt every 512 cycles because each
//! Covirt enclave today leaks its 16 MiB EPT pool.

use super::{
    digest, warm, world_counts, zone0_in_use, Arm, Finish, Latencies, ProbeTarget, Rng, Workload,
};
use crate::costs::Counts;
use crate::spans::Spans;
use covirt::exec::FaultOutcome;
use covirt::GuestCore;
use covirt_simhw::addr::PAGE_SIZE_2M;
use covirt_simhw::tlb::TlbParams;
use covirt_simhw::topology::{CoreId, HwLayout, ZoneId};
use kitten::KittenKernel;
use pisces::resources::ResourceRequest;
use pisces::EnclaveState;
use std::sync::Arc;
use std::time::Instant;
use workloads::World;

const CYCLES_PER_REP: u64 = 64;
const VICTIM_CORE: usize = 9;
const VICTIM_MEM: u64 = 32 * 1024 * 1024;
const BYSTANDER_MEM: u64 = 64 * 1024 * 1024;
/// Cycles one node serves before it is rebuilt.
const CYCLES_PER_NODE: u64 = 512;
/// Seeded words the bystander holds; every cycle re-reads each eighth.
const SEEDED_WORDS: usize = 512;

/// One arm's node with its long-lived bystander enclave.
struct Side {
    world: World,
    bystander: GuestCore,
    /// Guest address of the bystander's seeded words.
    data: u64,
    cycles_on_node: u64,
    /// Zone-0 bytes in use when this node had no victim yet.
    fresh_in_use: u64,
}

pub struct Faultcycle {
    seed: u64,
    sides: [Side; 2],
    seeded: Vec<u64>,
    /// Counters of dead victims and retired nodes, per arm.
    retired: [Counts; 2],
    /// Bytes retired nodes never got back, per arm.
    retired_leak: [u64; 2],
    tokens: Rng,
    latencies: Latencies,
}

impl Side {
    fn build(arm: Arm, seeded: &[u64]) -> Side {
        let world = World::build(arm.mode(), HwLayout { cores: 1, zones: 1 }, BYSTANDER_MEM);
        let mut bystander = world
            .guest_core(world.cores[0])
            .expect("bystander core launch");
        let data = world.alloc_array(PAGE_SIZE_2M);
        bystander
            .with_chunks_mut::<u64>(data, SEEDED_WORDS, |off, ch| {
                ch.copy_from_slice(&seeded[off..off + ch.len()])
            })
            .expect("seed the bystander");
        let fresh_in_use = zone0_in_use(&world);
        Side {
            world,
            bystander,
            data,
            cycles_on_node: 0,
            fresh_in_use,
        }
    }

    /// The bystander still holds its data and still runs.
    fn bystander_intact(&mut self, seeded: &[u64], token: u64) -> bool {
        let g = &mut self.bystander;
        let scratch = self.data + (SEEDED_WORDS as u64) * 8;
        (0..SEEDED_WORDS)
            .step_by(8)
            .all(|i| g.read_u64(self.data + i as u64 * 8).ok() == Some(seeded[i]))
            && g.write_u64(scratch, token).is_ok()
            && g.read_u64(scratch).ok() == Some(token)
            && g.poll().is_ok()
    }
}

impl Faultcycle {
    /// One lifecycle; `None` on any failure. Returns the victim's counters.
    fn cycle(&mut self, arm: Arm, spans: &mut Spans) -> Option<Counts> {
        let side = &mut self.sides[arm as usize];
        let world = &side.world;
        let (master, pisces, node) = (&world.master, world.master.pisces(), &world.node);
        let req = ResourceRequest::new(vec![CoreId(VICTIM_CORE)], vec![(ZoneId(0), VICTIM_MEM)]);
        let token = self.tokens.next_u64();

        // `MasterControl::bring_up_enclave`, its three steps called
        // separately so each gets a span.
        let t0 = Instant::now();
        let s = spans.enter("pisces.create");
        let enclave = pisces.create_enclave("victim", &req).ok()?;
        spans.exit(s);
        let s = spans.enter("pisces.launch");
        let plan = pisces.launch(&enclave).ok()?;
        spans.exit(s);
        let s = spans.enter("kitten.boot");
        let kernel = Arc::new(KittenKernel::boot(&node.mem, plan.pisces_params_addr).ok()?);
        master.register_kernel(enclave.id.0, Arc::clone(&kernel));
        spans.exit(s);
        let s = spans.enter("core.exec.launch");
        let mut g = match &world.controller {
            Some(c) => GuestCore::launch_covirt(
                Arc::clone(node),
                Arc::clone(&kernel),
                Arc::clone(c),
                VICTIM_CORE,
                TlbParams::default(),
            ),
            None => GuestCore::launch_native(
                Arc::clone(node),
                Arc::clone(&kernel),
                VICTIM_CORE,
                TlbParams::default(),
            ),
        }
        .ok()?;
        spans.exit(s);
        let first = kernel.alloc_contiguous(PAGE_SIZE_2M, &mut 0).ok()?;
        g.write_u64(first, token).ok()?;
        let touched = g.read_u64(first).ok()? == token;
        let bringup_us = t0.elapsed().as_nanos() as f64 / 1000.0;

        let mut victim = Counts::default();
        let ended = match &world.controller {
            Some(ctl) => {
                let vctx = ctl.context(enclave.id.0).ok()?;
                let fault = kitten::faults::off_by_one_region(&kernel);
                let t1 = Instant::now();
                let s = spans.enter("hobbes.failure");
                let outcome = g.execute_fault(fault);
                spans.exit(s);
                let contain_us = t1.elapsed().as_nanos() as f64 / 1000.0;
                self.latencies
                    .entry("bringup")
                    .or_default()
                    .push(bringup_us);
                self.latencies
                    .entry("contain")
                    .or_default()
                    .push(contain_us);
                if let Some(ept) = &vctx.ept {
                    (victim.ept_maps, victim.ept_unmaps) = ept.op_counts();
                }
                matches!(outcome, FaultOutcome::Contained(_))
                    && matches!(enclave.state(), EnclaveState::Failed(_))
                    && g.terminated().is_some()
                    && ctl.context(enclave.id.0).is_err()
                    && enclave.resources().mem.is_empty()
            }
            None => {
                g.poll().ok()?;
                pisces.teardown(&enclave).is_ok() && enclave.state() == EnclaveState::Terminated
            }
        };
        victim = victim.plus(&Counts::of_core(&g));
        side.cycles_on_node += 1;
        (touched && ended && side.bystander_intact(&self.seeded, token)).then_some(victim)
    }
}

impl Workload for Faultcycle {
    const NAME: &'static str = "faultcycle";
    const OPS_PER_REP: u64 = CYCLES_PER_REP;
    const PAIRS_PER_SECOND: f64 = 120.0;

    fn setup(seed: u64) -> Faultcycle {
        let mut rng = Rng::new(seed);
        let seeded: Vec<u64> = (0..SEEDED_WORDS).map(|_| rng.next_u64()).collect();
        let sides = [Arm::Native, Arm::Covirt].map(|arm| Side::build(arm, &seeded));
        let mut w = Faultcycle {
            seed,
            sides,
            seeded,
            retired: [Counts::default(); 2],
            retired_leak: [0; 2],
            tokens: rng,
            latencies: Latencies::new(),
        };
        warm(&mut w);
        w.latencies.clear();
        w
    }

    fn rep(&mut self, arm: Arm, spans: &mut Spans) -> u64 {
        let mut failed = 0;
        for _ in 0..CYCLES_PER_REP {
            match self.cycle(arm, spans) {
                Some(victim) => {
                    self.retired[arm as usize] = self.retired[arm as usize].plus(&victim)
                }
                None => failed += 1,
            }
        }
        failed
    }

    /// Between reps, untimed: replace a node that has served its cycles,
    /// carrying its counters and its leak forward.
    fn housekeeping(&mut self) {
        for arm in [Arm::Native, Arm::Covirt] {
            let i = arm as usize;
            if self.sides[i].cycles_on_node + CYCLES_PER_REP > CYCLES_PER_NODE {
                let old = &self.sides[i];
                self.retired[i] = self.retired[i].plus(&world_counts(&old.world, &old.bystander));
                self.retired_leak[i] += zone0_in_use(&old.world) - old.fresh_in_use;
                self.sides[i] = Side::build(arm, &self.seeded);
            }
        }
    }

    fn counts(&mut self, arm: Arm) -> Counts {
        let side = &self.sides[arm as usize];
        self.retired[arm as usize].plus(&world_counts(&side.world, &side.bystander))
    }

    fn in_use_bytes(&self, arm: Arm) -> u64 {
        let side = &self.sides[arm as usize];
        self.retired_leak[arm as usize] + zone0_in_use(&side.world) - side.fresh_in_use
    }

    fn take_latencies(&mut self) -> Latencies {
        std::mem::take(&mut self.latencies)
    }

    /// Every cycle checked its own containment; at the end, read all of
    /// both bystanders' seeded data back.
    fn finish(&mut self) -> Finish {
        let mut out = Finish {
            failed: 0,
            checksum: self.seed,
        };
        for side in &mut self.sides {
            let mut wrong = 0u64;
            let mut sum = 0u64;
            let seeded = &self.seeded;
            let read = side
                .bystander
                .with_chunks::<u64>(side.data, SEEDED_WORDS, |off, ch| {
                    for (i, &v) in ch.iter().enumerate() {
                        wrong += u64::from(v != seeded[off + i]);
                        sum = digest(sum, v);
                    }
                });
            out.failed += if read.is_ok() {
                wrong
            } else {
                SEEDED_WORDS as u64
            };
            out.checksum = digest(out.checksum, sum);
        }
        out
    }

    fn probe_target(&mut self) -> ProbeTarget<'_> {
        let side = &mut self.sides[Arm::Covirt as usize];
        let owned = side.world.enclave.resources().mem[0];
        ProbeTarget {
            world: &side.world,
            pages: (1..=4)
                .map(|p| owned.end().raw() - p * PAGE_SIZE_2M)
                .collect(),
            guest: &mut side.bystander,
        }
    }
}
