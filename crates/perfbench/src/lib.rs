//! `perfbench` — the repo's benchmark.
//!
//! Five workloads (`stream`, `gups`, `frag`, `memchurn`, `faultcycle`),
//! each a closed loop with one client under `CovirtConfig::MEM_IPI`,
//! measured two ways: **host time**, estimated so that it survives a noisy
//! 2-vCPU sandbox (interleaved native/Covirt reps, fast deciles, medians),
//! and **modelled time**, Σ(program counter × unit cost), which repeats
//! exactly. An untraced run yields the end-to-end metrics; a traced run
//! adds spans around every call into a layer, the counters at the same
//! boundaries, and isolated layer probes. See `README.md` in this crate.

pub mod cli;
pub mod compare;
pub mod costs;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
