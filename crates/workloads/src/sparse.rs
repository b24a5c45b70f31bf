//! Sparse-matrix substrate shared by HPCG and MiniFE: a 27-point-stencil
//! CSR matrix and vectors living in guest memory, with parallel SpMV,
//! dot products and AXPYs running on enclave cores, and the one CG loop
//! both solve with.

use crate::env::World;
use covirt::{CovirtResult, GuestCore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// A CSR matrix in guest memory (27-point stencil on an
/// `nx × ny × nz` grid: diagonal 26, off-diagonals −1 — the standard
/// HPCG-class synthetic problem, whose exact solution for `b = A·1` is the
/// all-ones vector).
pub struct GuestCsr {
    /// Rows (= grid points).
    pub n: usize,
    /// Non-zeros.
    pub nnz: usize,
    /// Guest address of `row_off: [u64; n+1]`.
    pub row_off: u64,
    /// Guest address of `cols: [u64; nnz]`.
    pub cols: u64,
    /// Guest address of `vals: [f64; nnz]`.
    pub vals: u64,
}

impl GuestCsr {
    /// Number of stencil neighbours (including self) for a grid point.
    fn row_entries(dims: (usize, usize, usize), x: usize, y: usize, z: usize) -> Vec<(usize, f64)> {
        let (nx, ny, nz) = dims;
        let mut out = Vec::with_capacity(27);
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let (cx, cy, cz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                    if cx < 0 || cy < 0 || cz < 0 {
                        continue;
                    }
                    let (cx, cy, cz) = (cx as usize, cy as usize, cz as usize);
                    if cx >= nx || cy >= ny || cz >= nz {
                        continue;
                    }
                    let col = (cz * ny + cy) * nx + cx;
                    let diag = dx == 0 && dy == 0 && dz == 0;
                    out.push((col, if diag { 26.0 } else { -1.0 }));
                }
            }
        }
        out
    }

    /// Build the stencil matrix in `world`'s enclave, writing it through
    /// `g`'s data path (this *is* MiniFE's assembly phase).
    pub fn assemble(
        world: &World,
        g: &mut GuestCore,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> CovirtResult<GuestCsr> {
        let n = nx * ny * nz;
        // Upper bound then exact count.
        let mut row_counts = Vec::with_capacity(n);
        let dims = (nx, ny, nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    row_counts.push(Self::row_entries(dims, x, y, z).len());
                }
            }
        }
        let nnz: usize = row_counts.iter().sum();
        let m = GuestCsr {
            n,
            nnz,
            row_off: world.alloc_array(((n + 1) * 8) as u64),
            cols: world.alloc_array((nnz * 8) as u64),
            vals: world.alloc_array((nnz * 8) as u64),
        };

        // Row offsets.
        let mut off = 0u64;
        g.write_u64(m.row_off, 0)?;
        for (i, &c) in row_counts.iter().enumerate() {
            off += c as u64;
            g.write_u64(m.row_off + ((i + 1) * 8) as u64, off)?;
        }
        // Column indices and values, streamed row by row.
        let mut k = 0u64;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    for (col, val) in Self::row_entries(dims, x, y, z) {
                        g.write_u64(m.cols + k * 8, col as u64)?;
                        g.write_f64(m.vals + k * 8, val)?;
                        k += 1;
                    }
                    g.poll()?;
                }
            }
        }
        debug_assert_eq!(k as usize, nnz);
        Ok(m)
    }

    /// `y[rows] = A[rows] · x` over a row range (one rank's share).
    pub fn spmv_rows(
        &self,
        g: &mut GuestCore,
        x: u64,
        y: u64,
        rows: std::ops::Range<usize>,
    ) -> CovirtResult<()> {
        for row in rows {
            let lo = g.read_u64(self.row_off + (row * 8) as u64)?;
            let hi = g.read_u64(self.row_off + ((row + 1) * 8) as u64)?;
            let mut acc = 0.0f64;
            for k in lo..hi {
                let col = g.read_u64(self.cols + k * 8)?;
                let val = g.read_f64(self.vals + k * 8)?;
                acc += val * g.read_f64(x + col * 8)?;
            }
            g.write_f64(y + (row * 8) as u64, acc)?;
            if row % 256 == 0 {
                g.poll()?;
            }
        }
        Ok(())
    }

    /// One forward+backward Gauss-Seidel sweep restricted to a row block.
    /// Couplings to columns *outside* the block are dropped, making the
    /// preconditioner block-Jacobi across ranks: block-diagonal, symmetric
    /// positive definite, and free of cross-rank data dependencies (the
    /// simplified SYMGS — see DESIGN.md).
    pub fn symgs_block(
        &self,
        g: &mut GuestCore,
        r: u64,
        z: u64,
        rows: std::ops::Range<usize>,
    ) -> CovirtResult<()> {
        let block = rows.clone();
        let sweep =
            |g: &mut GuestCore, order: &mut dyn Iterator<Item = usize>| -> CovirtResult<()> {
                for row in order {
                    let lo = g.read_u64(self.row_off + (row * 8) as u64)?;
                    let hi = g.read_u64(self.row_off + ((row + 1) * 8) as u64)?;
                    let mut sum = g.read_f64(r + (row * 8) as u64)?;
                    let mut diag = 1.0f64;
                    for k in lo..hi {
                        let col = g.read_u64(self.cols + k * 8)? as usize;
                        let val = g.read_f64(self.vals + k * 8)?;
                        if col == row {
                            diag = val;
                        } else if col >= block.start && col < block.end {
                            sum -= val * g.read_f64(z + (col * 8) as u64)?;
                        }
                    }
                    g.write_f64(z + (row * 8) as u64, sum / diag)?;
                }
                Ok(())
            };
        sweep(g, &mut rows.clone())?;
        g.poll()?;
        sweep(g, &mut rows.rev())?;
        g.poll()?;
        Ok(())
    }
}

/// Cross-rank reduction cell: an atomic f64 (bit-cast) accumulator.
pub struct ReduceCell {
    bits: AtomicU64,
}

impl Default for ReduceCell {
    fn default() -> Self {
        Self::new()
    }
}

impl ReduceCell {
    /// Zeroed cell.
    pub fn new() -> Self {
        ReduceCell {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Reset to zero (call between reductions, behind a barrier).
    pub fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }

    /// Atomically add `v`.
    pub fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }
}

/// Per-iteration shared state for a parallel CG solve.
pub struct CgShared {
    /// Rank barrier (SpMV/dot phases).
    pub barrier: Barrier,
    /// Dot-product accumulators (double-buffered by phase).
    pub dots: [ReduceCell; 2],
}

impl CgShared {
    /// For `ranks` participants.
    pub fn new(ranks: usize) -> Self {
        CgShared {
            barrier: Barrier::new(ranks),
            dots: [ReduceCell::new(), ReduceCell::new()],
        }
    }
}

/// All-ranks reduction: every rank contributes `local` and receives the
/// global sum. Three barriers fence reset / accumulate / read so no rank
/// can observe a half-built value.
pub fn reduce(bar: &Barrier, cell: &ReduceCell, local: f64) -> f64 {
    bar.wait();
    cell.reset(); // idempotent: every rank stores the same zero
    bar.wait();
    cell.add(local);
    bar.wait();
    cell.get()
}

/// The guest addresses of a CG solve's vectors. `z` is the preconditioned
/// residual `M⁻¹r`; an unpreconditioned solve passes `r` itself.
pub struct CgVectors {
    /// Solution.
    pub x: u64,
    /// Right-hand side.
    pub b: u64,
    /// Residual.
    pub r: u64,
    /// Preconditioned residual (`r` when unpreconditioned).
    pub z: u64,
    /// Search direction.
    pub p: u64,
    /// `A·p`.
    pub ap: u64,
}

/// One rank's CG loop over its row block; all ranks execute it
/// concurrently. Solves `A·x = b` from `x = 0` until the relative residual
/// falls below `tol` or `max_iters` iterations ran, and returns both.
///
/// With `precondition`, `z = M⁻¹r` is one SYMGS sweep pair per iteration
/// (HPCG). Without it `v.z` must be `v.r` (MiniFE): the `r→z` copy is
/// skipped, `r·r` is the `r·z` already reduced and `‖b‖` the first `r·r`,
/// so an iteration reduces two dot products.
#[allow(clippy::too_many_arguments)]
pub fn cg_rank(
    g: &mut GuestCore,
    m: &GuestCsr,
    v: &CgVectors,
    rows: std::ops::Range<usize>,
    shared: &CgShared,
    max_iters: usize,
    tol: f64,
    precondition: bool,
) -> CovirtResult<(usize, f64)> {
    let bar = &shared.barrier;
    let dot = |g: &mut GuestCore, cell: usize, a, b| -> CovirtResult<f64> {
        let local = vec_ops::dot_local(g, a, b, rows.clone())?;
        Ok(reduce(bar, &shared.dots[cell], local))
    };
    // z = M⁻¹ r.
    let precondition_r = |g: &mut GuestCore| -> CovirtResult<()> {
        if precondition {
            vec_ops::fill(g, v.z, rows.clone(), 0.0)?;
            m.symgs_block(g, v.r, v.z, rows.clone())?;
        }
        Ok(())
    };

    // x = 0, r = b, z = M⁻¹ r, p = z.
    vec_ops::fill(g, v.x, rows.clone(), 0.0)?;
    vec_ops::copy(g, v.b, v.r, rows.clone())?;
    precondition_r(g)?;
    vec_ops::copy(g, v.z, v.p, rows.clone())?;

    let mut rz = dot(g, 0, v.r, v.z)?;
    let bb = match precondition {
        true => dot(g, 1, v.b, v.b)?,
        false => rz,
    };
    let b_norm = bb.sqrt().max(f64::MIN_POSITIVE);

    let mut iters = 0;
    let mut rel = f64::INFINITY;
    for _ in 0..max_iters {
        // Ap = A p (barrier first: p must be fully updated everywhere).
        bar.wait();
        m.spmv_rows(g, v.p, v.ap, rows.clone())?;
        let alpha = rz / dot(g, 1, v.p, v.ap)?;
        vec_ops::axpy(g, alpha, v.p, v.x, rows.clone())?;
        vec_ops::axpy(g, -alpha, v.ap, v.r, rows.clone())?;
        precondition_r(g)?;
        let rz_new = dot(g, 0, v.r, v.z)?;
        let rr = match precondition {
            true => dot(g, 1, v.r, v.r)?,
            false => rz_new,
        };
        rel = rr.sqrt() / b_norm;
        iters += 1;
        if rel < tol {
            break;
        }
        let beta = rz_new / rz;
        rz = rz_new;
        vec_ops::xpby(g, v.z, beta, v.p, rows.clone())?;
        g.poll()?;
    }
    Ok((iters, rel))
}

/// Vector helpers over guest memory (rank-local row ranges).
pub mod vec_ops {
    use super::*;

    /// `dst[rows] = value`.
    pub fn fill(
        g: &mut GuestCore,
        dst: u64,
        rows: std::ops::Range<usize>,
        value: f64,
    ) -> CovirtResult<()> {
        for i in rows {
            g.write_f64(dst + (i * 8) as u64, value)?;
        }
        Ok(())
    }

    /// Local partial dot product of `a[rows]·b[rows]`.
    pub fn dot_local(
        g: &mut GuestCore,
        a: u64,
        b: u64,
        rows: std::ops::Range<usize>,
    ) -> CovirtResult<f64> {
        let mut acc = 0.0;
        for i in rows {
            acc += g.read_f64(a + (i * 8) as u64)? * g.read_f64(b + (i * 8) as u64)?;
        }
        Ok(acc)
    }

    /// `y[rows] += alpha * x[rows]`.
    pub fn axpy(
        g: &mut GuestCore,
        alpha: f64,
        x: u64,
        y: u64,
        rows: std::ops::Range<usize>,
    ) -> CovirtResult<()> {
        for i in rows {
            let v = g.read_f64(y + (i * 8) as u64)? + alpha * g.read_f64(x + (i * 8) as u64)?;
            g.write_f64(y + (i * 8) as u64, v)?;
        }
        Ok(())
    }

    /// `p[rows] = z[rows] + beta * p[rows]`.
    pub fn xpby(
        g: &mut GuestCore,
        z: u64,
        beta: f64,
        p: u64,
        rows: std::ops::Range<usize>,
    ) -> CovirtResult<()> {
        for i in rows {
            let v = g.read_f64(z + (i * 8) as u64)? + beta * g.read_f64(p + (i * 8) as u64)?;
            g.write_f64(p + (i * 8) as u64, v)?;
        }
        Ok(())
    }

    /// Copy `src[rows]` into `dst[rows]`.
    pub fn copy(
        g: &mut GuestCore,
        src: u64,
        dst: u64,
        rows: std::ops::Range<usize>,
    ) -> CovirtResult<()> {
        for i in rows {
            let v = g.read_f64(src + (i * 8) as u64)?;
            g.write_f64(dst + (i * 8) as u64, v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt::ExecMode;

    #[test]
    fn stencil_row_counts() {
        // Interior points have 27 entries, corners 8.
        let dims = (4, 4, 4);
        assert_eq!(GuestCsr::row_entries(dims, 1, 1, 1).len(), 27);
        assert_eq!(GuestCsr::row_entries(dims, 0, 0, 0).len(), 8);
        assert_eq!(GuestCsr::row_entries(dims, 3, 3, 3).len(), 8);
        // Diagonal is 26, others -1, and the row sums to 26 - (k-1).
        let entries = GuestCsr::row_entries(dims, 1, 1, 1);
        let diag: f64 = entries
            .iter()
            .filter(|(c, _)| *c == 21)
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(diag, 26.0);
        let sum: f64 = entries.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 0.0); // 26 - 26 neighbours
    }

    #[test]
    fn spmv_of_ones_matches_row_sums() {
        let w = World::quick(ExecMode::Native);
        let mut g = w.guest_core(w.cores[0]).unwrap();
        let m = GuestCsr::assemble(&w, &mut g, 4, 4, 4).unwrap();
        let x = w.alloc_array((m.n * 8) as u64);
        let y = w.alloc_array((m.n * 8) as u64);
        vec_ops::fill(&mut g, x, 0..m.n, 1.0).unwrap();
        m.spmv_rows(&mut g, x, y, 0..m.n).unwrap();
        // Interior rows: 26 - 26 = 0; corner rows: 26 - 7 = 19.
        let corner = g.read_f64(y).unwrap();
        assert_eq!(corner, 19.0);
        let interior_row = (4 + 1) * 4 + 1;
        assert_eq!(g.read_f64(y + (interior_row * 8) as u64).unwrap(), 0.0);
    }

    #[test]
    fn symgs_reduces_residual() {
        let w = World::quick(ExecMode::Native);
        let mut g = w.guest_core(w.cores[0]).unwrap();
        let m = GuestCsr::assemble(&w, &mut g, 4, 4, 4).unwrap();
        let r = w.alloc_array((m.n * 8) as u64);
        let z = w.alloc_array((m.n * 8) as u64);
        vec_ops::fill(&mut g, r, 0..m.n, 1.0).unwrap();
        vec_ops::fill(&mut g, z, 0..m.n, 0.0).unwrap();
        m.symgs_block(&mut g, r, z, 0..m.n).unwrap();
        // One SYMGS sweep of a diagonally dominant system moves z toward
        // A⁻¹r: all entries positive and bounded by ~1/19.
        for i in 0..m.n {
            let v = g.read_f64(z + (i * 8) as u64).unwrap();
            assert!(v > 0.0 && v < 1.0, "z[{i}] = {v}");
        }
    }

    #[test]
    fn reduce_cell_concurrent() {
        use std::sync::Arc;
        let cell = Arc::new(ReduceCell::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(0.5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.get(), 2000.0);
        cell.reset();
        assert_eq!(cell.get(), 0.0);
    }

    #[test]
    fn vector_ops_basics() {
        let w = World::quick(ExecMode::Native);
        let mut g = w.guest_core(w.cores[0]).unwrap();
        let a = w.alloc_array(64 * 8);
        let b = w.alloc_array(64 * 8);
        vec_ops::fill(&mut g, a, 0..64, 2.0).unwrap();
        vec_ops::fill(&mut g, b, 0..64, 3.0).unwrap();
        assert_eq!(vec_ops::dot_local(&mut g, a, b, 0..64).unwrap(), 384.0);
        vec_ops::axpy(&mut g, 2.0, a, b, 0..64).unwrap(); // b = 3 + 4 = 7
        assert_eq!(g.read_f64(b + 8).unwrap(), 7.0);
        vec_ops::xpby(&mut g, a, 0.5, b, 0..64).unwrap(); // b = 2 + 3.5 = 5.5
        assert_eq!(g.read_f64(b + 16).unwrap(), 5.5);
        vec_ops::copy(&mut g, a, b, 0..64).unwrap();
        assert_eq!(g.read_f64(b).unwrap(), 2.0);
    }
}
