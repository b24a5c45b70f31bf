//! HPCG — preconditioned conjugate gradient (Figure 7).
//!
//! A faithful-in-structure, scaled-down HPCG: PCG over the 27-point
//! stencil with a symmetric-Gauss-Seidel preconditioner (block-Jacobi
//! across ranks — see DESIGN.md for the substitution note). Each rank owns
//! a contiguous row block; dot products reduce through shared atomic
//! cells behind barriers, matching the OpenMP structure of the reference.

use crate::env::{partition, World};
use crate::sparse::{cg_rank, vec_ops, CgShared, CgVectors, GuestCsr};

/// HPCG result.
#[derive(Clone, Copy, Debug)]
pub struct HpcgResult {
    /// Effective GFLOP/s over the timed CG phase (the figure's y-axis).
    pub gflops: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Final relative residual.
    pub final_residual: f64,
    /// Wall time of the solve in seconds.
    pub seconds: f64,
}

/// Flop count per CG iteration for an `nnz`-non-zero matrix of dimension
/// `n` with a SYMGS preconditioner (2 sweeps ≈ 4·nnz + CG vector work).
fn flops_per_iteration(n: usize, nnz: usize) -> f64 {
    (2 * nnz + 4 * nnz + 10 * n) as f64
}

/// Run HPCG in `world`: assemble a `dim³` problem (on the first core),
/// solve with PCG for at most `max_iters` iterations, report GFLOP/s.
pub fn run(world: &World, dim: usize, max_iters: usize) -> HpcgResult {
    let (m, v) = {
        let mut g = world.guest_core(world.cores[0]).expect("setup core");
        let m = GuestCsr::assemble(world, &mut g, dim, dim, dim).expect("assemble");
        let alloc = || world.alloc_array((m.n * 8) as u64);
        let v = CgVectors {
            x: alloc(),
            b: alloc(),
            r: alloc(),
            z: alloc(),
            p: alloc(),
            ap: alloc(),
        };
        // b = A·1 so the exact solution is the ones vector.
        let ones = alloc();
        vec_ops::fill(&mut g, ones, 0..m.n, 1.0).expect("fill");
        m.spmv_rows(&mut g, ones, v.b, 0..m.n).expect("rhs");
        g.shutdown();
        (m, v)
    };

    let ranks = world.cores.len();
    let shared = CgShared::new(ranks);
    let parts = partition(m.n, ranks);
    let t0 = world.node.clock.rdtsc();
    let results = world.run_on_cores(|rank, g| {
        cg_rank(
            g,
            &m,
            &v,
            parts[rank].clone(),
            &shared,
            max_iters,
            1e-9,
            true,
        )
        .expect("pcg rank")
    });
    let seconds = world.node.clock.ns_since(t0) as f64 / 1e9;
    let (iterations, final_residual) = results[0];
    HpcgResult {
        gflops: flops_per_iteration(m.n, m.nnz) * iterations as f64 / seconds / 1e9,
        iterations,
        final_residual,
        seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt::config::CovirtConfig;
    use covirt::ExecMode;
    use covirt_simhw::topology::HwLayout;

    #[test]
    fn converges_to_ones_single_core() {
        let w = World::quick(ExecMode::Native);
        let r = run(&w, 8, 100);
        assert!(r.final_residual < 1e-9, "residual {}", r.final_residual);
        assert!(r.iterations < 100, "PCG should converge quickly on 8³");
        assert!(r.gflops > 0.0);
    }

    #[test]
    fn converges_multicore() {
        let w = World::build(
            ExecMode::Native,
            HwLayout { cores: 4, zones: 2 },
            crate::env::DEFAULT_ENCLAVE_MEM,
        );
        let r = run(&w, 10, 150);
        assert!(r.final_residual < 1e-9, "residual {}", r.final_residual);
    }

    #[test]
    fn converges_under_covirt() {
        let w = World::quick(ExecMode::Covirt(CovirtConfig::MEM_IPI));
        let r = run(&w, 8, 100);
        assert!(r.final_residual < 1e-9);
    }
}
