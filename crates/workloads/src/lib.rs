//! # workloads — the paper's benchmark suite, from scratch
//!
//! Rust implementations of every benchmark in Table I of the paper,
//! running *on* the simulated co-kernel stack: all memory traffic flows
//! through [`covirt::GuestCore`]'s translation path, IPIs go through the
//! (possibly virtualized) ICR, and every thread of a parallel workload
//! drives one enclave core. That is what lets the evaluation reproduce the
//! paper's overhead *shapes* mechanistically instead of hard-coding them.
//!
//! | Benchmark (Table I)    | Module            | Figure |
//! |------------------------|-------------------|--------|
//! | Selfish Detour 1.0.7   | [`selfish`]       | Fig. 3 |
//! | XEMEM attach latency   | [`xemem_bench`]   | Fig. 4 |
//! | STREAM 5.10            | [`stream`]        | Fig. 5a |
//! | RandomAccess_OMP (25)  | [`randomaccess`]  | Fig. 5b |
//! | HPCG 3.1               | [`hpcg`]          | Fig. 7 |
//! | MiniFE 2.0             | [`minife`]        | Fig. 6 |
//! | LAMMPS (lj/chain/eam/chute) | [`md`]       | Fig. 8 |
//!
//! [`env::World`] builds a full node → Pisces → (optional Covirt) →
//! Kitten stack for one `ExecMode`, and [`figures`] contains the
//! per-figure drivers the benchmark harness and the `figures` binary use.

pub mod audit;
pub mod env;
pub mod exitless;
pub mod figures;
pub mod hpcg;
pub mod md;
pub mod minife;
pub mod profile;
pub mod randomaccess;
pub mod scaling;
pub mod scenario;
pub mod selfish;
pub mod shootdown;
pub mod sparse;
pub mod stream;
pub mod table1;
pub mod xemem_bench;

pub use env::World;
