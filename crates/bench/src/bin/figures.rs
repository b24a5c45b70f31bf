//! `figures` — regenerate the paper's tables and figures, and run the
//! covirt-bench observability suite.
//!
//! ```text
//! cargo run -p covirt-bench --release --bin figures -- all
//! cargo run -p covirt-bench --release --bin figures -- fig5b --full
//! cargo run -p covirt-bench --release --bin figures -- exitless --trials 3
//! cargo run -p covirt-bench --release --bin figures -- bench
//! ```
//!
//! Every experiment is an entry of [`suite::HARNESSES`]: `figures <name>`
//! is `figures bench` restricted to that one harness — it prints the
//! harness's report and judges its rows of [`suite::GATES`], so any
//! failed bound exits non-zero with the failing row named. `--full`
//! selects the paper-scale sweep parameters from Table I instead of the
//! scaled defaults. `bench` is the one subcommand that is not a harness.

use covirt_bench::gate::GateResult;
use covirt_bench::suite::{self, BenchRecord, Ctx, Harness, HARNESSES};
use std::path::PathBuf;
use workloads::census::CountingAlloc;
use workloads::figures::Scale;

/// Counts each thread's heap allocations for the `alloc` harness; costs
/// the other harnesses one thread-local increment per allocation.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Options every subcommand receives.
#[derive(Clone)]
struct Opts {
    scale: Scale,
    /// Output directory for exported artifacts (traces, profiles,
    /// BENCH_covirt.json). Defaults to `target/figures/` so nothing
    /// lands in the repo root.
    out: PathBuf,
    /// Trials per harness (`--trials`); the default is
    /// [`suite::DEFAULT_TRIALS`] for `bench` and one for a single harness.
    trials: Option<usize>,
}

fn usage_text() -> String {
    let names: Vec<&str> = HARNESSES.iter().map(|h| h.name).collect();
    let mut out = format!(
        "usage: figures <{}|bench|all> [--full] [--out <dir>] [--trials <n>]\n",
        names.join("|")
    );
    for h in HARNESSES {
        let mut lines = h.help.lines();
        let first = lines.next().unwrap_or("");
        let gated = if h.gated() { " [gated]" } else { "" };
        out.push_str(&format!("\n  {:<9} {first}{gated}", h.name));
        for l in lines {
            out.push_str(&format!("\n            {}", l.trim_start()));
        }
    }
    out.push_str(
        "\n  bench     covirt-bench observability suite: run every harness that has gate\
         \n            rows headless over --trials trials, judge each bounded row of the\
         \n            gate table, and write <out>/BENCH_covirt.json (per row its samples,\
         \n            median, judged trial, bounds and verdict); exits 1 naming any row\
         \n            that misses its bound\
         \n  all       every harness marked for the combined run\
         \n  --full    paper-scale sweep parameters (slow; needs several GiB)\
         \n  --out     artifact directory (default target/figures/)\
         \n  --trials  trials per harness (default 3 for bench, 1 otherwise)\
         \n  [gated]   the harness owns bounded rows of the gate table and exits 1\
         \n            when one misses",
    );
    out
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2)
}

/// Run `harnesses` the way `bench` runs all of them, restricted: measure
/// over `--trials`, print each report, judge their rows of the gate table.
fn harness_cmd(harnesses: &[&Harness], o: &Opts) -> GateResult {
    let ctx = Ctx {
        scale: o.scale,
        out: &o.out,
        report: true,
    };
    let records = suite::run_suite(harnesses, o.trials.unwrap_or(1), &ctx);
    suite::apply_gates(&records, harnesses)
}

/// Current commit hash, or "unknown" outside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Render the per-row suite table: each row's median and, for a bounded
/// row, the trial judged, its bounds and the verdict.
fn render_suite(commit: &str, records: &[BenchRecord]) -> String {
    let mut out = format!(
        "covirt-bench suite @ {commit} ({} row(s))\n\
         {:<44} {:>14} {:>6} {:<6} {:>20} {:<14} verdict\n",
        records.len(),
        "metric",
        "median",
        "trials",
        "unit",
        "judged",
        "bound",
    );
    for r in records {
        let checks = r.checks();
        let (judged, bound, verdict) = if checks.is_empty() {
            (String::new(), String::new(), "info")
        } else {
            let (which, v) = r.judged();
            let bounds: Vec<&str> = checks.iter().map(|c| c.0.as_str()).collect();
            let ok = checks.iter().all(|c| c.1);
            (
                format!("{which} {v:.4}"),
                bounds.join(", "),
                if ok { "ok" } else { "FAIL" },
            )
        };
        out.push_str(&format!(
            "{:<44} {:>14.4} {:>6} {:<6} {judged:>20} {bound:<14} {verdict}\n",
            r.key(),
            r.median,
            r.samples.len(),
            r.spec.unit,
        ));
    }
    out
}

/// `bench` subcommand: run the suite, judge every bounded row of the gate
/// table and write `BENCH_covirt.json`.
fn bench_cmd(o: &Opts) -> GateResult {
    let trials = o.trials.unwrap_or(suite::DEFAULT_TRIALS);
    let harnesses: Vec<&Harness> = HARNESSES
        .iter()
        .filter(|h| h.rows().next().is_some())
        .collect();
    eprintln!("[bench] running the full suite, {trials} trial(s) per harness...");
    let ctx = Ctx {
        scale: o.scale,
        out: &o.out,
        report: false,
    };
    let records = suite::run_suite(&harnesses, trials, &ctx);
    let commit = git_commit();
    println!("{}", render_suite(&commit, &records));
    let json = suite::to_json(&commit, &records);
    print!(
        "{}",
        suite::write_artifact(&o.out, "BENCH_covirt.json", &json)
    );
    suite::apply_gates(&records, &harnesses)
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut opts = Opts {
        scale: Scale::Quick,
        out: PathBuf::from("target/figures"),
        trials: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("{flag} needs a value\n");
                usage()
            }
        };
        match a.as_str() {
            "--full" => opts.scale = Scale::Paper,
            "--out" => opts.out = PathBuf::from(value("--out")),
            "--trials" => {
                let v = value("--trials");
                opts.trials = match v.parse::<usize>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => {
                        eprintln!("--trials needs a positive integer, got {v:?}\n");
                        usage()
                    }
                }
            }
            _ if a.starts_with("--") => usage(),
            _ => positional.push(a),
        }
    }
    if positional.len() != 1 {
        usage();
    }
    let what = positional[0].as_str();

    let t0 = std::time::Instant::now();
    let result = if what == "all" {
        let in_all: Vec<&Harness> = HARNESSES.iter().filter(|h| h.in_all).collect();
        harness_cmd(&in_all, &opts)
    } else if let Some(h) = suite::harness(what) {
        harness_cmd(&[h], &opts)
    } else if what == "bench" {
        bench_cmd(&opts)
    } else {
        usage()
    };
    let rendered = result.render();
    if !rendered.is_empty() {
        if result.ok() {
            println!("{rendered}");
        } else {
            eprint!("{rendered}");
        }
    }
    eprintln!("[figures] done in {:.1}s", t0.elapsed().as_secs_f64());
    if !result.ok() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Usage and dispatch read the one harness table, so every harness and
    /// `bench` are listed, `bench` shadows no harness, and the shootdown
    /// demo has no second entry point.
    #[test]
    fn usage_lists_every_harness_and_tool() {
        let usage = usage_text();
        for name in HARNESSES.iter().map(|h| h.name).chain(["bench"]) {
            assert!(
                usage.contains(&format!("\n  {name:<9} ")),
                "{name} unlisted"
            );
        }
        assert!(suite::harness("bench").is_none());
        for gone in ["trace", "report"] {
            assert!(!usage.contains(&format!("\n  {gone} ")), "{gone} listed");
            assert!(!usage.contains(&format!("|{gone}|")), "{gone} listed");
        }
        assert!(!usage.contains("--fault"));
    }
}
