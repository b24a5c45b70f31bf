//! STREAM (v5.10-style) — sustained memory bandwidth.
//!
//! The four canonical kernels (Copy, Scale, Add, Triad) over three `f64`
//! arrays, streamed through the guest translation path with page-sized
//! chunks. Streaming access over 2 MiB identity mappings makes TLB misses
//! vanishingly rare, which is why the paper (Fig. 5a) sees no measurable
//! Covirt overhead for STREAM — and why this implementation reproduces
//! that shape mechanically.

use crate::env::World;
use covirt::{CovirtResult, GuestCore};

/// One array's length in elements. STREAM requires arrays much larger than
/// LLC; the default (2^22 doubles = 32 MiB/array) satisfies that while
/// staying inside the scaled-down enclave.
pub const DEFAULT_N: usize = 1 << 22;

/// Bandwidth results in MB/s for each kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamResult {
    /// Copy: `c[i] = a[i]`.
    pub copy_mbs: f64,
    /// Scale: `b[i] = s*c[i]`.
    pub scale_mbs: f64,
    /// Add: `c[i] = a[i] + b[i]`.
    pub add_mbs: f64,
    /// Triad: `a[i] = b[i] + s*c[i]`.
    pub triad_mbs: f64,
}

impl StreamResult {
    /// The triad figure the paper's bar chart reports.
    pub fn headline(&self) -> f64 {
        self.triad_mbs
    }
}

/// Guest-side STREAM state: three arrays at identity addresses.
pub struct Stream {
    a: u64,
    b: u64,
    c: u64,
    n: usize,
}

impl Stream {
    /// Allocate the arrays in `world`'s enclave.
    pub fn setup(world: &World, n: usize) -> Stream {
        let bytes = (n * 8) as u64;
        Stream {
            a: world.alloc_array(bytes),
            b: world.alloc_array(bytes),
            c: world.alloc_array(bytes),
            n,
        }
    }

    /// Initialize per the STREAM reference (a=1, b=2, c=0).
    pub fn init(&self, g: &mut GuestCore) -> CovirtResult<()> {
        g.with_chunks_mut::<f64>(self.a, self.n, |_, ch| ch.fill(1.0))?;
        g.with_chunks_mut::<f64>(self.b, self.n, |_, ch| ch.fill(2.0))?;
        g.with_chunks_mut::<f64>(self.c, self.n, |_, ch| ch.fill(0.0))?;
        Ok(())
    }

    fn binary_kernel(
        &self,
        g: &mut GuestCore,
        src: u64,
        dst: u64,
        f: impl Fn(f64) -> f64,
    ) -> CovirtResult<()> {
        // Page-chunked: read a source chunk, transform into the dest chunk.
        // Chunks are at most one 2 MiB page, so a scratch read buffer stays
        // cache-resident.
        let mut buf: Vec<f64> = Vec::new();
        let mut done = 0usize;
        while done < self.n {
            let mut got = 0usize;
            g.with_chunks::<f64>(
                src + done as u64 * 8,
                (self.n - done).min(1 << 18),
                |off, ch| {
                    if off == 0 {
                        buf.clear();
                        buf.extend_from_slice(ch);
                        got = ch.len();
                    }
                },
            )?;
            g.with_chunks_mut::<f64>(dst + done as u64 * 8, got, |off, ch| {
                for (i, v) in ch.iter_mut().enumerate() {
                    *v = f(buf[off + i]);
                }
            })?;
            done += got;
            g.poll()?;
        }
        Ok(())
    }

    fn ternary_kernel(
        &self,
        g: &mut GuestCore,
        s1: u64,
        s2: u64,
        dst: u64,
        f: impl Fn(f64, f64) -> f64,
    ) -> CovirtResult<()> {
        let mut b1: Vec<f64> = Vec::new();
        let mut b2: Vec<f64> = Vec::new();
        let mut done = 0usize;
        while done < self.n {
            let want = (self.n - done).min(1 << 18);
            let mut got = 0usize;
            g.with_chunks::<f64>(s1 + done as u64 * 8, want, |off, ch| {
                if off == 0 {
                    b1.clear();
                    b1.extend_from_slice(ch);
                    got = ch.len();
                }
            })?;
            let mut got2 = 0usize;
            g.with_chunks::<f64>(s2 + done as u64 * 8, got, |off, ch| {
                if off == 0 {
                    b2.clear();
                    b2.extend_from_slice(ch);
                    got2 = ch.len();
                }
            })?;
            let take = got.min(got2);
            g.with_chunks_mut::<f64>(dst + done as u64 * 8, take, |off, ch| {
                for (i, v) in ch.iter_mut().enumerate() {
                    *v = f(b1[off + i], b2[off + i]);
                }
            })?;
            done += take;
            g.poll()?;
        }
        Ok(())
    }

    /// Run all four kernels once and report bandwidths.
    pub fn run_once(&self, g: &mut GuestCore) -> CovirtResult<StreamResult> {
        const SCALAR: f64 = 3.0;
        let bytes2 = (self.n * 16) as f64; // 2 arrays touched
        let bytes3 = (self.n * 24) as f64; // 3 arrays touched
        let clock = std::sync::Arc::clone(g.clock());
        let mbs = |bytes: f64, t0: u64| bytes * 1e3 / clock.ns_since(t0) as f64;

        let t = clock.rdtsc();
        self.binary_kernel(g, self.a, self.c, |x| x)?;
        let copy = mbs(bytes2, t);

        let t = clock.rdtsc();
        self.binary_kernel(g, self.c, self.b, |x| SCALAR * x)?;
        let scale = mbs(bytes2, t);

        let t = clock.rdtsc();
        self.ternary_kernel(g, self.a, self.b, self.c, |x, y| x + y)?;
        let add = mbs(bytes3, t);

        let t = clock.rdtsc();
        self.ternary_kernel(g, self.b, self.c, self.a, |x, y| x + SCALAR * y)?;
        let triad = mbs(bytes3, t);

        Ok(StreamResult {
            copy_mbs: copy,
            scale_mbs: scale,
            add_mbs: add,
            triad_mbs: triad,
        })
    }

    /// Verify the arrays against the analytic values after `iters` full
    /// runs (the STREAM self-check).
    pub fn verify(&self, g: &mut GuestCore, iters: usize) -> CovirtResult<bool> {
        let (mut a, mut b, mut c) = (1.0f64, 2.0f64, 0.0f64);
        for _ in 0..iters {
            c = a;
            b = 3.0 * c;
            c = a + b;
            a = b + 3.0 * c;
        }
        let got_a = g.read_f64(self.a)?;
        let got_b = g.read_f64(self.b)?;
        let got_c = g.read_f64(self.c)?;
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-8 * y.abs().max(1.0);
        Ok(close(got_a, a) && close(got_b, b) && close(got_c, c))
    }
}

/// Run STREAM in `world` on its first core: `trials` timed runs, best
/// bandwidth per kernel (the STREAM convention).
pub fn run(world: &World, n: usize, trials: usize) -> StreamResult {
    let s = Stream::setup(world, n);
    let results = world.run_on_cores(|rank, g| {
        if rank != 0 {
            return StreamResult::default(); // STREAM is single-core in Fig. 5
        }
        s.init(g).expect("init");
        let mut best = StreamResult::default();
        for _ in 0..trials {
            let r = s.run_once(g).expect("stream kernel");
            best.copy_mbs = best.copy_mbs.max(r.copy_mbs);
            best.scale_mbs = best.scale_mbs.max(r.scale_mbs);
            best.add_mbs = best.add_mbs.max(r.add_mbs);
            best.triad_mbs = best.triad_mbs.max(r.triad_mbs);
        }
        assert!(
            s.verify(g, trials).expect("verify"),
            "STREAM validation failed"
        );
        best
    });
    results[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt::config::CovirtConfig;
    use covirt::ExecMode;

    #[test]
    fn stream_validates_native() {
        let w = World::quick(ExecMode::Native);
        let r = run(&w, 1 << 16, 2);
        assert!(r.copy_mbs > 0.0 && r.triad_mbs > 0.0);
    }

    #[test]
    fn stream_validates_under_covirt() {
        let w = World::quick(ExecMode::Covirt(CovirtConfig::MEM_IPI));
        let r = run(&w, 1 << 16, 2);
        assert!(r.triad_mbs > 0.0);
    }

    #[test]
    fn verify_catches_corruption() {
        let w = World::quick(ExecMode::Native);
        let s = Stream::setup(&w, 4096);
        let mut g = w.guest_core(w.cores[0]).unwrap();
        s.init(&mut g).unwrap();
        s.run_once(&mut g).unwrap();
        // Corrupt one element; verification must fail.
        g.write_f64(s.a, -1234.5).unwrap();
        assert!(!s.verify(&mut g, 1).unwrap());
    }
}
