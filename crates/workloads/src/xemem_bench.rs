//! XEMEM attach latency (Figure 4).
//!
//! Measures the latency of an XEMEM attach operation — TSC-sampled around
//! the attach, exactly as the paper instruments it — for region sizes up to
//! 1024 MiB, with Covirt enabled and disabled. With Covirt on, the attach
//! path additionally runs the controller's EPT mapping; the paper's finding
//! (and this model's) is that the EPT update is negligible next to the page
//! -list construction and transmission the attach already performs.

use crate::env::World;
use covirt::ExecMode;
use covirt_simhw::addr::{PhysRange, PAGE_SIZE_2M};
use covirt_simhw::topology::HwLayout;

/// Default sweep of region sizes (MiB) — the paper goes up to 1024 MiB;
/// the scaled default stops at 64 MiB (same code path, smaller backing).
pub const DEFAULT_SIZES_MIB: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The paper-scale sweep.
pub const PAPER_SIZES_MIB: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// A two-enclave world — the producer owns the segments, the consumer
/// attaches them — ready to time attaches of segments up to one size.
pub struct AttachBench {
    world: World,
    consumer: u64,
    attaches: u64,
}

impl AttachBench {
    /// The world for segments of up to `max_mib` MiB under `mode`.
    pub fn new(mode: ExecMode, max_mib: u64) -> AttachBench {
        // Producer enclave holds the segments: needs headroom above the
        // largest segment (pt pool + boot structures).
        let producer_mem = (max_mib + 64) * 1024 * 1024;
        let world = World::build(mode, HwLayout { cores: 2, zones: 1 }, producer_mem);

        // A second enclave to be the consumer.
        let topo = world.node.topology.clone();
        let req = pisces::resources::ResourceRequest::new(
            vec![covirt_simhw::topology::CoreId(topo.total_cores() - 1 - 2)],
            vec![(covirt_simhw::topology::ZoneId(0), 64 * 1024 * 1024)],
        );
        let (consumer, _ckernel) = world
            .master
            .bring_up_enclave("consumer", &req)
            .expect("consumer enclave");
        AttachBench {
            world,
            consumer: consumer.id.0,
            attaches: 0,
        }
    }

    /// Export a `mib` MiB segment, time the consumer's attach of it, then
    /// detach and destroy it. Returns the attach latency in microseconds.
    pub fn attach_us(&mut self, mib: u64) -> f64 {
        let (world, bytes) = (&self.world, mib * 1024 * 1024);
        let producer_region = world.enclave.resources().mem[0];
        // Carve the segment from the tail of the producer's region, below
        // anything the producer's page-table pool uses.
        let seg = PhysRange::new(
            producer_region
                .start
                .add(producer_region.len - bytes)
                .align_down(PAGE_SIZE_2M),
            bytes,
        );
        let name = format!("fig4-{}", self.attaches);
        self.attaches += 1;
        world
            .master
            .export_segment(world.enclave.id.0, &name, seg)
            .expect("export");
        let clock = &world.node.clock;
        let t0 = clock.rdtsc();
        world
            .master
            .attach_segment(self.consumer, &name)
            .expect("attach");
        let t1 = clock.rdtsc();
        world
            .master
            .detach_segment(self.consumer, &name)
            .expect("detach");
        world.master.destroy_segment(&name).expect("destroy");
        clock.cycles_to_ns(t1 - t0) as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt::config::CovirtConfig;

    /// Mean latency of `reps` attaches of each of `sizes_mib` in one bench.
    fn mean_us(mode: ExecMode, sizes_mib: &[u64], reps: usize) -> Vec<f64> {
        let mut bench = AttachBench::new(mode, sizes_mib.iter().copied().max().unwrap());
        sizes_mib
            .iter()
            .map(|&mib| {
                let latencies: Vec<f64> = (0..reps).map(|_| bench.attach_us(mib)).collect();
                covirt::stats::mean(&latencies)
            })
            .collect()
    }

    #[test]
    fn latency_grows_with_size() {
        let means = mean_us(ExecMode::Native, &[1, 16], 3);
        assert_eq!(means.len(), 2);
        assert!(means[0] > 0.0);
        // 16 MiB builds a 16× longer page list than 1 MiB; latency should
        // not be *smaller*. (Allow noise: ≥ half.)
        assert!(means[1] >= means[0] * 0.5);
    }

    #[test]
    fn covirt_attach_works_and_is_comparable() {
        let native = mean_us(ExecMode::Native, &[4], 3)[0];
        let covirt = mean_us(ExecMode::Covirt(CovirtConfig::MEM), &[4], 3)[0];
        assert!(covirt > 0.0);
        // The paper: "Covirt imposes little to no overhead". Allow a wide
        // band in a unit test; the bench harness reports the real numbers.
        assert!(
            covirt < native * 10.0 + 1000.0,
            "covirt attach ({covirt} µs) wildly slower than native ({native} µs)"
        );
    }
}
