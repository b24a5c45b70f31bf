//! MiniFE — implicit finite-element proxy app (Figure 6).
//!
//! MiniFE's two phases are reproduced: *assembly* (building the sparse
//! operator in guest memory element by element) and an unpreconditioned
//! CG *solve*. As the paper notes, MiniFE "does not require significant
//! amounts of inter-process coordination": the solve has only the CG dot
//! products as cross-rank synchronization, which is why IPI protection has
//! no visible effect on it.

use crate::env::{partition, World};
use crate::sparse::{cg_rank, vec_ops, CgShared, CgVectors, GuestCsr};

/// MiniFE result.
#[derive(Clone, Copy, Debug)]
pub struct MinifeResult {
    /// CG MFLOP/s (the scaling figure's y-axis).
    pub mflops: f64,
    /// Assembly wall time in seconds.
    pub assembly_seconds: f64,
    /// Solve wall time in seconds.
    pub solve_seconds: f64,
    /// CG iterations run.
    pub iterations: usize,
    /// Final relative residual.
    pub final_residual: f64,
}

/// Run MiniFE in `world` on an `nx = ny = nz = dim` box.
pub fn run(world: &World, dim: usize, max_iters: usize) -> MinifeResult {
    // Assembly phase (single core, like the reference's default build).
    let t_asm = world.node.clock.rdtsc();
    let (m, b) = {
        let mut g = world.guest_core(world.cores[0]).expect("setup core");
        let m = GuestCsr::assemble(world, &mut g, dim, dim, dim).expect("assemble");
        let b = world.alloc_array((m.n * 8) as u64);
        let ones = world.alloc_array((m.n * 8) as u64);
        vec_ops::fill(&mut g, ones, 0..m.n, 1.0).expect("fill");
        m.spmv_rows(&mut g, ones, b, 0..m.n).expect("rhs");
        g.shutdown();
        (m, b)
    };
    let assembly_seconds = world.node.clock.ns_since(t_asm) as f64 / 1e9;

    let alloc = || world.alloc_array((m.n * 8) as u64);
    let (x, r) = (alloc(), alloc());
    // No preconditioner: z is r itself.
    let v = CgVectors {
        x,
        b,
        r,
        z: r,
        p: alloc(),
        ap: alloc(),
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
            false,
        )
        .expect("cg rank")
    });
    let solve_seconds = world.node.clock.ns_since(t0) as f64 / 1e9;
    let (iterations, final_residual) = results[0];
    // CG flops/iter: SpMV (2 nnz) + 2 dots (4n) + 3 axpy-class (6n).
    let flops = (2 * m.nnz + 10 * m.n) as f64 * iterations as f64;
    MinifeResult {
        mflops: flops / solve_seconds / 1e6,
        assembly_seconds,
        solve_seconds,
        iterations,
        final_residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt::config::CovirtConfig;
    use covirt::ExecMode;
    use covirt_simhw::topology::HwLayout;

    #[test]
    fn solves_small_problem() {
        let w = World::quick(ExecMode::Native);
        let r = run(&w, 8, 200);
        assert!(r.final_residual < 1e-9, "residual {}", r.final_residual);
        assert!(r.mflops > 0.0);
        assert!(r.assembly_seconds > 0.0);
    }

    #[test]
    fn multicore_matches_convergence() {
        let w = World::build(
            ExecMode::Native,
            HwLayout { cores: 4, zones: 1 },
            crate::env::DEFAULT_ENCLAVE_MEM,
        );
        let r = run(&w, 10, 300);
        assert!(r.final_residual < 1e-9);
    }

    #[test]
    fn covirt_solve_converges() {
        let w = World::quick(ExecMode::Covirt(CovirtConfig::MEM));
        let r = run(&w, 8, 200);
        assert!(r.final_residual < 1e-9);
    }
}
