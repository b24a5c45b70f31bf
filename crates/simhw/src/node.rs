//! The assembled node: topology + memory + clock + interconnect + CPUs +
//! I/O port space.

use crate::apic::LocalApic;
use crate::clock::TscClock;
use crate::cpu::Cpu;
use crate::error::{HwError, HwResult};
use crate::interconnect::Interconnect;
use crate::ioport::IoPortSpace;
use crate::memory::PhysMemory;
use crate::topology::{CoreId, Topology};
use covirt_trace::{Recorder, Tracer, DEFAULT_LANE_CAPACITY};
use std::sync::Arc;

/// Construction parameters for a [`SimNode`].
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// The hardware topology.
    pub topology: Topology,
}

impl NodeConfig {
    /// The paper's testbed.
    pub fn paper_testbed() -> Self {
        NodeConfig {
            topology: Topology::paper_testbed(),
        }
    }

    /// Small node for unit tests.
    pub fn small() -> Self {
        NodeConfig {
            topology: Topology::small(),
        }
    }
}

/// A simulated node. All components are reference-counted so the host OS
/// model, the enclave threads and the Covirt controller can share them,
/// exactly as they share the physical machine.
pub struct SimNode {
    /// The static topology.
    pub topology: Topology,
    /// Physical memory (allocators + populated regions).
    pub mem: Arc<PhysMemory>,
    /// The invariant TSC.
    pub clock: Arc<TscClock>,
    /// Interrupt routing fabric.
    pub interconnect: Arc<Interconnect>,
    /// Legacy I/O port space.
    pub ioports: Arc<IoPortSpace>,
    cpus: Vec<Arc<Cpu>>,
    recorder: Arc<Recorder>,
}

impl SimNode {
    /// Build a node from `config`.
    pub fn new(config: NodeConfig) -> Arc<Self> {
        let topo = config.topology;
        let zone_bytes: Vec<u64> = (0..topo.zones).map(|_| topo.mem_per_zone).collect();
        let mem = Arc::new(PhysMemory::new(&zone_bytes));
        let clock = Arc::new(TscClock::new(topo.tsc_hz));
        let interconnect = Arc::new(Interconnect::new(topo.total_cores()));
        // One lane per core plus a controller lane.
        let recorder = Recorder::new(topo.total_cores() + 1, DEFAULT_LANE_CAPACITY);
        let ctrl_lane = recorder.controller_lane();
        let now: Arc<dyn Fn() -> u64 + Send + Sync> = {
            let clock = Arc::clone(&clock);
            Arc::new(move || clock.rdtsc())
        };
        mem.set_tracer(Tracer::new(
            Arc::clone(&recorder),
            ctrl_lane,
            Arc::clone(&now),
        ));
        interconnect.set_tracer(Tracer::new(
            Arc::clone(&recorder),
            ctrl_lane,
            Arc::clone(&now),
        ));
        let cpus = (0..topo.total_cores())
            .map(|i| {
                let apic = Arc::new(LocalApic::new(
                    i,
                    Arc::clone(&interconnect),
                    Arc::clone(&clock),
                ));
                Arc::new(Cpu::new(CoreId(i), apic))
            })
            .collect();
        Arc::new(SimNode {
            topology: topo,
            mem,
            clock,
            interconnect,
            ioports: Arc::new(IoPortSpace::new()),
            cpus,
            recorder,
        })
    }

    /// The node's flight recorder (trace rings + metrics registry).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// A tracer stamping events for `lane` with this node's TSC. Lanes 0
    /// to `total_cores - 1` are per-core; see [`SimNode::controller_tracer`].
    pub fn tracer(&self, lane: u32) -> Tracer {
        let clock = Arc::clone(&self.clock);
        Tracer::new(
            Arc::clone(&self.recorder),
            lane,
            Arc::new(move || clock.rdtsc()),
        )
    }

    /// The controller's tracer (the lane after the last core's).
    pub fn controller_tracer(&self) -> Tracer {
        self.tracer(self.recorder.controller_lane())
    }

    /// Drain the flight recorder together with its per-lane overflow drop
    /// counters. Audit consumers need both: the events to check, and the
    /// drops to know whether absence-based invariants may be asserted.
    pub fn drain_trace(&self) -> (Vec<covirt_trace::TraceEvent>, Vec<u64>) {
        let drops = self.recorder.drops_per_lane();
        (self.recorder.drain(), drops)
    }

    /// A core by id.
    pub fn cpu(&self, id: CoreId) -> HwResult<&Arc<Cpu>> {
        self.cpus.get(id.0).ok_or(HwError::NoSuchCore(id.0))
    }

    /// All cores.
    pub fn cpus(&self) -> &[Arc<Cpu>] {
        &self.cpus
    }
}

impl std::fmt::Debug for SimNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimNode({} sockets × {} cores, {} zones × {} MiB)",
            self.topology.sockets,
            self.topology.cores_per_socket,
            self.topology.zones,
            self.topology.mem_per_zone / (1024 * 1024)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::{DeliveryMode, IpiDest};
    use crate::topology::ZoneId;

    #[test]
    fn node_assembly() {
        let node = SimNode::new(NodeConfig::small());
        assert_eq!(node.cpus().len(), 4);
        assert!(node.cpu(CoreId(3)).is_ok());
        assert!(matches!(node.cpu(CoreId(4)), Err(HwError::NoSuchCore(4))));
        assert!(node.mem.zone_usage(ZoneId(0)).is_ok());
        assert!(node.mem.zone_usage(ZoneId(1)).is_err());
    }

    #[test]
    fn paper_testbed_dimensions() {
        let node = SimNode::new(NodeConfig::paper_testbed());
        assert_eq!(node.cpus().len(), 12);
        assert!(node.mem.zone_usage(ZoneId(2)).is_err());
        let (total, _) = node.mem.zone_usage(ZoneId(1)).unwrap();
        assert_eq!(total, 32 * 1024 * 1024 * 1024);
    }

    #[test]
    fn apic_ids_match_core_ids() {
        let node = SimNode::new(NodeConfig::small());
        for (i, cpu) in node.cpus().iter().enumerate() {
            assert_eq!(cpu.id.0, i);
            assert_eq!(cpu.apic.id, i);
        }
    }

    #[test]
    fn interconnect_reaches_all_cores() {
        let node = SimNode::new(NodeConfig::small());
        node.interconnect
            .send(0, IpiDest::AllExcludingSelf, DeliveryMode::Fixed(0x77))
            .unwrap();
        for i in 1..4 {
            assert!(node.interconnect.mailbox(i).unwrap().irr.test(0x77));
        }
    }
}
