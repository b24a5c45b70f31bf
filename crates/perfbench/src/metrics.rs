//! The metric registry: every name the benchmark prints, with its unit,
//! direction, regression bound and where it is reported.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a metric is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// End to end on every workload, from the untraced run; the driver
    /// gates it at `bound`.
    EndToEnd,
    /// End to end, but gated by `perfbench compare` only: measured in the
    /// untraced run, printed and written with its bound — and reported by
    /// every traced run too, which is where `BENCHMARK.json` lists it. The
    /// driver's end-to-end list must hold on every workload within a fixed
    /// bound; the four latencies exist on one workload each, and
    /// `host_ns_per_op` drifts by a tenth within the hour in this sandbox.
    CompareOnly,
    /// One layer, from the traced run; no bound.
    Layer,
}

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen; `None` for
    /// layer metrics.
    pub bound: Option<f64>,
    pub scope: Scope,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        scope: Scope::EndToEnd,
    }
}

const fn compared(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        scope: Scope::CompareOnly,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        scope: Scope::Layer,
    }
}

use Better::{Higher, Lower};

/// Every metric, in print order.
pub const METRICS: &[Def] = &[
    // End to end, gated by the driver.
    e2e("setup_s", "s", Lower, 0.25),
    e2e("native_ratio", "ratio", Higher, 0.10),
    e2e("sim_cycles_per_op", "cycles", Lower, 0.01),
    // End to end, gated by `perfbench compare`: raw host time on every
    // workload, and one workload's latencies each.
    compared("host_ns_per_op", "ns", 0.10),
    compared("grant_p50_us", "us", 0.10),
    compared("reclaim_p50_us", "us", 0.10),
    compared("bringup_p50_us", "us", 0.10),
    compared("contain_p50_us", "us", 0.10),
    // simhw.tlb
    layer("simhw.tlb.hit_rate", "ratio", Higher),
    layer("simhw.tlb.lookup_hit_ns", "ns", Lower),
    layer("simhw.tlb.flushes_per_op", "count", Lower),
    // simhw.paging
    layer("simhw.paging.walk_ns", "ns", Lower),
    // simhw.ept
    layer("simhw.ept.translate_ns", "ns", Lower),
    layer("simhw.ept.walk_cache_hit_rate", "ratio", Higher),
    layer("simhw.ept.leaf_4k", "count", Lower),
    layer("simhw.ept.leaf_2m", "count", Higher),
    layer("simhw.ept.map_2m_us", "us", Lower),
    layer("simhw.ept.unmap_2m_us", "us", Lower),
    // simhw.memory
    layer("simhw.memory.region_cache_hit_rate", "ratio", Higher),
    layer("simhw.memory.search_depth", "count", Lower),
    layer("simhw.memory.resolve_hit_ns", "ns", Lower),
    layer("simhw.memory.resolve_miss_ns", "ns", Lower),
    layer("simhw.memory.alloc_free_us", "us", Lower),
    layer("simhw.memory.snapshot_swaps_per_op", "count", Lower),
    layer("simhw.memory.retired_backlog_high_water", "count", Lower),
    layer("simhw.memory.leaked_bytes_per_op", "bytes", Lower),
    // simhw.posted
    layer("simhw.posted.post_ack_ns", "ns", Lower),
    // core.exec
    layer("core.exec.walks_per_op", "count", Lower),
    layer("core.exec.walk_loads_per_miss", "count", Lower),
    layer("core.exec.hit_path_ns", "ns", Lower),
    layer("core.exec.miss_path_ns", "ns", Lower),
    layer("core.exec.poll_idle_ns", "ns", Lower),
    layer("core.exec.exits_per_op", "count", Lower),
    layer("core.exec.timer_exits", "count", Lower),
    layer("core.exec.launch_us", "us", Lower),
    // core.cmdqueue
    layer("core.cmdqueue.roundtrip_p50_ns", "ns", Lower),
    layer("core.cmdqueue.roundtrip_p99_ns", "ns", Lower),
    layer("core.cmdqueue.post_drain_ns", "ns", Lower),
    // core.controller
    layer("core.controller.shootdowns_per_op", "count", Lower),
    layer("core.controller.doorbells_per_op", "count", Lower),
    layer("core.controller.harvested_per_op", "count", Lower),
    layer("core.controller.nmi_escalations", "count", Lower),
    layer("core.controller.barrier_us", "us", Lower),
    // core.hypervisor
    layer("core.hypervisor.exit_roundtrip_ns", "ns", Lower),
    // pisces
    layer("pisces.add_memory_us", "us", Lower),
    layer("pisces.acks_grant_us", "us", Lower),
    layer("pisces.request_remove_us", "us", Lower),
    layer("pisces.acks_reclaim_us", "us", Lower),
    layer("pisces.grant_p99_us", "us", Lower),
    layer("pisces.reclaim_p99_us", "us", Lower),
    layer("pisces.create_us", "us", Lower),
    layer("pisces.launch_us", "us", Lower),
    // kitten
    layer("kitten.boot_us", "us", Lower),
    layer("kitten.poll_ctrl_us", "us", Lower),
    // hobbes
    layer("hobbes.failure_us", "us", Lower),
    layer("hobbes.contain_p99_us", "us", Lower),
    // xemem
    layer("xemem.attach_2m_us", "us", Lower),
    layer("xemem.detach_2m_us", "us", Lower),
    // The cost model's decomposition.
    layer("sim.native_cycles_per_op", "cycles", Lower),
    layer("sim.share.tlb", "ratio", Lower),
    layer("sim.share.walk", "ratio", Lower),
    layer("sim.share.resolve", "ratio", Lower),
    layer("sim.share.exit", "ratio", Lower),
    layer("sim.share.control", "ratio", Lower),
    // Host-time context and the benchmark's own cost.
    layer("host.native_ns_per_op", "ns", Lower),
    layer("host.ops_per_s", "1/s", Higher),
    layer("host.rep_spread", "ratio", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Look a definition up by name.
pub fn def(name: &str) -> Option<&'static Def> {
    METRICS.iter().find(|d| d.name == name)
}

/// The metrics `BENCHMARK.json` lists under `end_to_end`.
pub fn end_to_end() -> impl Iterator<Item = &'static Def> {
    METRICS.iter().filter(|d| d.scope == Scope::EndToEnd)
}

/// The metrics `BENCHMARK.json` lists under `per_layer`: every traced-run
/// metric, the compare-only ones included.
pub fn per_layer() -> impl Iterator<Item = &'static Def> {
    METRICS.iter().filter(|d| d.scope != Scope::EndToEnd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{valid_name, Value};
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_are_valid_and_unique() {
        for (i, d) in METRICS.iter().enumerate() {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.name);
            assert!(
                METRICS[..i].iter().all(|e| e.name != d.name),
                "{} listed twice",
                d.name
            );
            if let Some(b) = d.bound {
                assert!(
                    b > 0.0 && b <= 0.25,
                    "{}: bounds stay within a quarter",
                    d.name
                );
            }
        }
        assert!(def("setup_s").is_some_and(|d| d.unit == "s" && d.better == Lower));
    }

    /// `BENCHMARK.json` is the driver's view of this registry.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../../BENCHMARK.json");
        let b = Value::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| match b.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);

        let got: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let want: Vec<_> = end_to_end()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(got, want);

        let got: Vec<_> = list("per_layer")
            .iter()
            .map(|m| {
                assert!(m.get("bound").is_none(), "layer metrics carry no bound");
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = per_layer()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(got, want);

        let got: Vec<_> = list("workloads")
            .iter()
            .map(|w| field(w, "name").unwrap())
            .collect();
        assert_eq!(got, WORKLOADS);
        assert_eq!(
            list("paths"),
            vec![Value::String("crates/perfbench".into())]
        );
    }
}
