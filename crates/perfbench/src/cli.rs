//! The `perfbench` command line.
//!
//! ```text
//! perfbench run --workload <w> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <dir>]
//! perfbench all [--smoke] [--seed <n>] [--seconds <s>] [--out <dir>]
//! perfbench compare <A> <B>
//! ```
//!
//! `run` prints every metric by name with its unit, writes
//! `<w>.json` (or `<w>.trace.json`) under `--out`, and ends with the one
//! JSON line the benchmark driver reads. Exit codes: 0 success, 1 a failed
//! op (`all`) or a `worse` verdict (`compare`), 2 usage or I/O.

use crate::compare::{self, Verdict};
use crate::runner::{self, RunResult, Scale};
use crate::workloads::faultcycle::Faultcycle;
use crate::workloads::frag::Frag;
use crate::workloads::gups::Gups;
use crate::workloads::memchurn::Memchurn;
use crate::workloads::stream::Stream;
use crate::workloads::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  perfbench run --workload <stream|gups|frag|memchurn|faultcycle> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <dir>]
  perfbench all [--smoke] [--seed <n>] [--seconds <s>] [--out <dir>]
  perfbench compare <A> <B>";

/// Seconds one run measures for unless `--seconds` says otherwise; the
/// same figure is `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: Path::new(&target).join("perfbench"),
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
            }
            "--out" => a.out = PathBuf::from(value("--out")?),
            "--smoke" => a.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

/// Run one workload by name.
pub fn run_named(name: &str, seed: u64, trace: bool, scale: Scale) -> Option<RunResult> {
    Some(match name {
        "stream" => runner::run::<Stream>(seed, trace, scale),
        "gups" => runner::run::<Gups>(seed, trace, scale),
        "frag" => runner::run::<Frag>(seed, trace, scale),
        "memchurn" => runner::run::<Memchurn>(seed, trace, scale),
        "faultcycle" => runner::run::<Faultcycle>(seed, trace, scale),
        _ => return None,
    })
}

fn print_metrics(r: &RunResult) {
    println!(
        "# {} seed={} {} pairs={} ops/rep={} threads={}{}",
        r.workload,
        r.seed,
        if r.traced { "traced" } else { "untraced" },
        r.pairs,
        r.ops_per_rep,
        r.threads,
        if r.deadline_hit {
            " (deadline cut the run short)"
        } else {
            ""
        },
    );
    for m in &r.metrics {
        let mut line = format!("{:<42} {:>18.6} {}", m.def.name, m.value, m.def.unit);
        if let Some(s) = m.spread {
            line.push_str(&format!("  spread={:.2}%", s * 100.0));
        }
        if let Some(n) = m.samples {
            line.push_str(&format!("  samples={n}"));
        }
        println!("{line}");
    }
    println!(
        "{:<42} {:>18.6} ratio  failed={} attempted={}",
        "failed_share",
        r.failed_share(),
        r.failed,
        r.attempted
    );
}

fn write_result(out: &Path, r: &RunResult) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let suffix = if r.traced { "trace.json" } else { "json" };
    let mut text = runner::to_json(r).to_json();
    text.push('\n');
    std::fs::write(out.join(format!("{}.{suffix}", r.workload)), text)
}

fn run_and_report(name: &str, a: &Args, trace: bool, scale: Scale) -> Result<RunResult, String> {
    let r = run_named(name, a.seed, trace, scale).ok_or(format!("unknown workload {name}"))?;
    print_metrics(&r);
    write_result(&a.out, &r).map_err(|e| format!("{}: {e}", a.out.display()))?;
    Ok(r)
}

/// Entry point; `args` excludes the program name.
pub fn main(args: Vec<String>) -> ExitCode {
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    let outcome = parse(rest).and_then(|a| match command {
        "run" => {
            let name = a.workload.clone().ok_or("run needs --workload")?;
            let r = run_and_report(&name, &a, a.trace, Scale::full(a.seconds))?;
            // A run that finished reports failed ops in its result line;
            // the exit code says only that there is a result.
            println!("{}", runner::driver_line(&r));
            Ok(true)
        }
        "all" => {
            let scale = if a.smoke {
                Scale::smoke()
            } else {
                Scale::full(a.seconds)
            };
            let mut clean = true;
            for trace in [false, true] {
                for w in WORKLOADS {
                    clean &= run_and_report(w, &a, trace, scale)?.failed == 0;
                }
            }
            Ok(clean)
        }
        "compare" => {
            let [dir_a, dir_b] = a.positional.as_slice() else {
                return Err("compare needs two result directories".into());
            };
            let rows = compare::compare_dirs(Path::new(dir_a), Path::new(dir_b))?;
            print!("{}", compare::render(&rows));
            Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
        }
        _ => Err(USAGE.into()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
