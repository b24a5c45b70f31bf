//! `stream` — the bypass workload (paper Fig. 5a).
//!
//! Triad `a = b + s·c` over three 2^18-element `f64` arrays, each exactly
//! one 2 MiB page, streamed through `with_chunks{,_mut}` with a `poll`
//! per pass. At least 99.9 % of TLB lookups hit and the modelled cost per
//! element is near zero, so changes to the walk, the EPT, the region cache
//! or the snapshot must show *no* change here; only the chunk path, the
//! TLB hit path and `poll` move it.

use super::{digest, warm, world_counts, zone0_in_use, Arm, Finish, ProbeTarget, Rng, Workload};
use crate::costs::Counts;
use crate::spans::Spans;
use covirt::{CovirtResult, GuestCore};
use covirt_simhw::topology::HwLayout;
use workloads::World;

/// Elements per array: 2^18 doubles = one 2 MiB page.
const N: usize = 1 << 18;
/// Triad passes per rep.
const PASSES: u64 = 4;
/// Enclave memory: three 2 MiB arrays behind the 16 MiB page-table pool.
const ENCLAVE_MEM: u64 = 64 * 1024 * 1024;

struct Side {
    world: World,
    guest: GuestCore,
    a: u64,
    b: u64,
    c: u64,
    /// Triads run so far; selects the scalar, so a skipped pass shows in
    /// the final check.
    passes: u64,
}

pub struct Stream {
    sides: [Side; 2],
    b_host: Vec<f64>,
    c_host: Vec<f64>,
    buf_b: Vec<f64>,
    buf_c: Vec<f64>,
}

fn scalar(pass: u64) -> f64 {
    (pass % 7 + 1) as f64
}

impl Side {
    fn build(arm: Arm, b_host: &[f64], c_host: &[f64]) -> Side {
        let world = World::build(arm.mode(), HwLayout { cores: 1, zones: 1 }, ENCLAVE_MEM);
        let mut guest = world.guest_core(world.cores[0]).expect("guest core launch");
        let bytes = (N * 8) as u64;
        let (a, b, c) = (
            world.alloc_array(bytes),
            world.alloc_array(bytes),
            world.alloc_array(bytes),
        );
        let fill = |g: &mut GuestCore, at: u64, src: &[f64]| {
            g.with_chunks_mut::<f64>(at, N, |off, ch| {
                ch.copy_from_slice(&src[off..off + ch.len()])
            })
            .expect("array init")
        };
        fill(&mut guest, b, b_host);
        fill(&mut guest, c, c_host);
        fill(&mut guest, a, &vec![0.0; N]);
        Side {
            world,
            guest,
            a,
            b,
            c,
            passes: 0,
        }
    }

    fn triad(
        &mut self,
        buf_b: &mut [f64],
        buf_c: &mut [f64],
        spans: &mut Spans,
    ) -> CovirtResult<()> {
        let s = scalar(self.passes);
        let g = &mut self.guest;
        let batch = spans.enter("core.exec.batch");
        g.with_chunks::<f64>(self.b, N, |off, ch| {
            buf_b[off..off + ch.len()].copy_from_slice(ch)
        })?;
        g.with_chunks::<f64>(self.c, N, |off, ch| {
            buf_c[off..off + ch.len()].copy_from_slice(ch)
        })?;
        g.with_chunks_mut::<f64>(self.a, N, |off, ch| {
            for (i, v) in ch.iter_mut().enumerate() {
                *v = buf_b[off + i] + s * buf_c[off + i];
            }
        })?;
        spans.exit(batch);
        let poll = spans.enter("core.exec.poll");
        g.poll()?;
        spans.exit(poll);
        self.passes += 1;
        Ok(())
    }
}

impl Workload for Stream {
    const NAME: &'static str = "stream";
    const OPS_PER_REP: u64 = PASSES * N as u64;
    const PAIRS_PER_SECOND: f64 = 190.0;

    fn setup(seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        let b_host: Vec<f64> = (0..N).map(|_| rng.next_f64()).collect();
        let c_host: Vec<f64> = (0..N).map(|_| rng.next_f64()).collect();
        let sides = [Arm::Native, Arm::Covirt].map(|arm| Side::build(arm, &b_host, &c_host));
        let mut w = Stream {
            sides,
            b_host,
            c_host,
            buf_b: vec![0.0; N],
            buf_c: vec![0.0; N],
        };
        warm(&mut w);
        w
    }

    fn rep(&mut self, arm: Arm, spans: &mut Spans) -> u64 {
        let side = &mut self.sides[arm as usize];
        for _ in 0..PASSES {
            if side.triad(&mut self.buf_b, &mut self.buf_c, spans).is_err() {
                return Self::OPS_PER_REP;
            }
        }
        0
    }

    fn counts(&mut self, arm: Arm) -> Counts {
        let side = &self.sides[arm as usize];
        world_counts(&side.world, &side.guest)
    }

    fn in_use_bytes(&self, arm: Arm) -> u64 {
        zone0_in_use(&self.sides[arm as usize].world)
    }

    fn finish(&mut self) -> Finish {
        let mut out = Finish::default();
        for side in &mut self.sides {
            let s = scalar(side.passes - 1);
            let (b, c) = (&self.b_host, &self.c_host);
            let mut wrong = 0u64;
            let mut sum = 0u64;
            let read = side.guest.with_chunks::<f64>(side.a, N, |off, ch| {
                for (i, &v) in ch.iter().enumerate() {
                    wrong += u64::from(v != b[off + i] + s * c[off + i]);
                    sum = digest(sum, v.to_bits());
                }
            });
            out.failed += if read.is_ok() { wrong } else { N as u64 };
            out.checksum = digest(out.checksum, sum);
        }
        out
    }

    fn probe_target(&mut self) -> ProbeTarget<'_> {
        let side = &mut self.sides[Arm::Covirt as usize];
        ProbeTarget {
            world: &side.world,
            pages: vec![side.a, side.b, side.c],
            guest: &mut side.guest,
        }
    }
}
