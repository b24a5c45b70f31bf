//! Offline stand-in for `criterion`.
//!
//! Provides the macro/API surface the workspace's benches use
//! (`criterion_group!`, `criterion_main!`, benchmark groups,
//! `black_box`). Instead of criterion's statistical
//! machinery, each benchmark runs a small fixed number of iterations and
//! prints the mean wall-clock time — enough for `cargo bench --no-run`
//! gates and for eyeballing relative numbers offline.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

const WARMUP_ITERS: u64 = 1;
const MEASURE_ITERS: u64 = 5;

/// Top-level benchmark driver (stub: only carries naming/printing).
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl std::fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
        }
    }
}

/// Measures one closure: `b.iter(|| work())`.
pub struct Bencher {
    mean_ns: f64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..WARMUP_ITERS {
            black_box(f());
        }
        let start = Instant::now();
        for _ in 0..MEASURE_ITERS {
            black_box(f());
        }
        self.mean_ns = start.elapsed().as_nanos() as f64 / MEASURE_ITERS as f64;
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, id), &mut f);
        self
    }

    pub fn finish(self) {}
}

fn run_one(label: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher { mean_ns: 0.0 };
    f(&mut b);
    println!("bench {label:<48} {:>14.0} ns/iter (stub)", b.mean_ns);
}

/// Collect benchmark functions into a group callable from `main`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Entry point running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("stub");
        group
            .sample_size(10)
            .measurement_time(Duration::from_millis(1));
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2)));
        group.finish();
    }

    criterion_group!(benches, bench);

    #[test]
    fn group_and_main_macros_run() {
        let mut c = Criterion::default();
        benches(&mut c);
    }
}
