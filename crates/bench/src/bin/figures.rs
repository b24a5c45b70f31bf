//! `figures` — regenerate the paper's tables and figures, and run the
//! covirt-bench observability suite.
//!
//! ```text
//! cargo run -p covirt-bench --release --bin figures -- all
//! cargo run -p covirt-bench --release --bin figures -- fig5b --full
//! cargo run -p covirt-bench --release --bin figures -- exitless --trials 3
//! cargo run -p covirt-bench --release --bin figures -- bench --compare bench/baseline.json
//! ```
//!
//! Every experiment is an entry of [`suite::HARNESSES`]: `figures <name>`
//! is `figures bench` restricted to that one harness — it prints the
//! harness's report and judges its rows of [`suite::GATES`], so any
//! failed bound exits non-zero with the failing row named. `--full`
//! selects the paper-scale sweep parameters from Table I instead of the
//! scaled defaults. `trace`, `report` and `bench` are plain tool commands.

use covirt_bench::gate::GateResult;
use covirt_bench::suite::{self, Ctx, Harness, HARNESSES};
use covirt_bench::{render_report, render_shootdown};
use covirt_trace::bench::{self, BenchSuite, ComparePolicy, MAD_SIGMA};
use std::path::{Path, PathBuf};
use workloads::figures::Scale;
use workloads::shootdown;

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
    /// Baseline to compare the bench suite against.
    compare: Option<PathBuf>,
    /// Re-bless `bench/baseline.json` from this bench run.
    bless: bool,
    /// `harness.metric` to synthetically regress before the comparison
    /// (gate-path self-test; the written artifact stays honest).
    inject: Option<String>,
}

/// A subcommand that is not a harness: it measures no row of the gate
/// table.
struct Tool {
    name: &'static str,
    /// Help text; continuation lines are newline-separated.
    help: &'static str,
    run: fn(&Opts) -> GateResult,
}

const TOOLS: &[Tool] = &[
    Tool {
        name: "trace",
        help: "shootdown demo with the flight recorder on; writes covirt-trace.json\n\
               (chrome://tracing / ui.perfetto.dev) and covirt-trace.jsonl under --out",
        run: trace_cmd,
    },
    Tool {
        name: "report",
        help: "shootdown demo with the flight recorder on; prints the per-core and\n\
               per-zone counts, the audit page of the same capture and the slowest\n\
               command completions",
        run: |_| report_cmd(),
    },
    Tool {
        name: "bench",
        help: "covirt-bench observability suite: run every harness that has gate\n\
               rows headless over --trials trials, write <out>/BENCH_covirt.json\n\
               (median/MAD per metric, config fingerprint, commit), and apply the\n\
               declarative gate table; with --compare <baseline.json>, also run\n\
               the noise-aware regression comparator; --bless rewrites\n\
               bench/baseline.json from this run; exits 1 on any gate or\n\
               comparison failure",
        run: bench_cmd,
    },
];

fn usage_text() -> String {
    let names: Vec<&str> = HARNESSES
        .iter()
        .map(|h| h.name)
        .chain(TOOLS.iter().map(|t| t.name))
        .collect();
    let mut out = format!(
        "usage: figures <{}|all> [--full] [--out <dir>] [--trials <n>]\n\
         \x20              [--compare <baseline.json>] [--bless] [--inject-regression <harness.metric>]\n",
        names.join("|")
    );
    let entries = HARNESSES
        .iter()
        .map(|h| (h.name, h.help, h.gated()))
        .chain(TOOLS.iter().map(|t| (t.name, t.help, false)));
    for (name, help, gated) in entries {
        let mut lines = help.lines();
        let gated = if gated { " [gated]" } else { "" };
        out.push_str(&format!(
            "\n  {:<9} {}{gated}",
            name,
            lines.next().unwrap_or("")
        ));
        for l in lines {
            out.push_str(&format!("\n            {}", l.trim_start()));
        }
    }
    out.push_str(
        "\n  all       every harness marked for the combined run\
         \n  --full    paper-scale sweep parameters (slow; needs several GiB)\
         \n  --out     artifact directory (default target/figures/)\
         \n  --trials  trials per harness (default 3 for bench, 1 otherwise)\
         \n  [gated]   the harness owns bounded rows of the gate table and exits 1\
         \n            when one misses\
         \n  --compare bench: baseline suite to gate against\
         \n  --bless   bench: rewrite bench/baseline.json from this run\
         \n  --inject-regression  bench: synthetically regress one metric before\
         \n            the comparison (gate-path self-test)",
    );
    out
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2)
}

/// Resolve `--out`, creating the directory.
fn out_dir(o: &Opts) -> PathBuf {
    std::fs::create_dir_all(&o.out).unwrap_or_else(|e| panic!("create {}: {e}", o.out.display()));
    o.out.clone()
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

/// `trace` subcommand: run the shootdown demo with the recorder on and
/// export the merged timeline in both formats.
fn trace_cmd(o: &Opts) -> GateResult {
    use covirt_trace::export;

    let run = shootdown::run(true);
    println!("{}", render_shootdown(&run));
    let node = run.node;
    let events = node.recorder().drain();
    let hz = node.clock.hz();

    let dir = out_dir(o);
    let chrome_path = dir.join("covirt-trace.json");
    let jsonl_path = dir.join("covirt-trace.jsonl");
    let chrome = export::to_chrome_trace(&events, hz);
    let jsonl = export::to_jsonl(&events, hz);
    std::fs::write(&chrome_path, &chrome).expect("write covirt-trace.json");
    std::fs::write(&jsonl_path, &jsonl).expect("write covirt-trace.jsonl");

    let mut by_kind: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for e in &events {
        *by_kind.entry(e.kind.name()).or_insert(0) += 1;
    }
    println!(
        "\n{} trace events across {} lanes:",
        events.len(),
        node.recorder().lane_count()
    );
    for (k, n) in &by_kind {
        println!("  {k:<18} {n:>6}");
    }
    println!(
        "\nwrote {} ({} bytes; load in chrome://tracing or ui.perfetto.dev)",
        chrome_path.display(),
        chrome.len()
    );
    println!("wrote {} ({} bytes)", jsonl_path.display(), jsonl.len());
    GateResult::new()
}

/// `report` subcommand: run the shootdown demo with the recorder on and
/// print its counts and its audited latencies as one page.
fn report_cmd() -> GateResult {
    println!("{}", render_report(&shootdown::run(true)));
    GateResult::new()
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

/// Synthetically regress `harness.metric` in `s`: shift every sample past
/// the comparator's widest possible threshold in the worse direction.
/// Returns false when the metric doesn't exist.
fn inject_regression(s: &mut BenchSuite, key: &str) -> bool {
    let Some((harness, metric)) = key.split_once('.') else {
        return false;
    };
    let Some(r) = s
        .records
        .iter_mut()
        .find(|r| r.harness == harness && r.metric == metric)
    else {
        return false;
    };
    let bump = 10.0
        * (r.rel_floor * r.median.abs()
            + ComparePolicy::default().sigmas * MAD_SIGMA * r.mad
            + r.abs_floor)
        + 1.0;
    let signed = match r.direction {
        bench::Direction::Lower => bump,
        bench::Direction::Higher => -bump,
    };
    let samples: Vec<f64> = r.samples.iter().map(|x| x + signed).collect();
    *r = covirt_trace::bench::BenchRecord::from_samples(
        harness,
        metric,
        &r.unit,
        r.direction,
        r.rel_floor,
        r.abs_floor,
        r.gated,
        samples,
    );
    true
}

/// Render the per-metric suite summary table.
fn render_suite(s: &BenchSuite) -> String {
    let mut out = format!(
        "covirt-bench suite @ {} ({} harness(es), {} metric(s), fingerprint {:016x})\n\
         {:<42} {:>14} {:>12} {:>7} {:<7} gated\n",
        s.commit,
        s.harnesses().len(),
        s.records.len(),
        s.fingerprint,
        "metric",
        "median",
        "mad",
        "trials",
        "unit",
    );
    for r in &s.records {
        out.push_str(&format!(
            "{:<42} {:>14.4} {:>12.4} {:>7} {:<7} {}\n",
            r.key(),
            r.median,
            r.mad,
            r.samples.len(),
            r.unit,
            if r.gated { "yes" } else { "info" }
        ));
    }
    out
}

/// `bench` subcommand: run the suite, write `BENCH_covirt.json`, apply
/// the declarative gate table, and optionally compare/bless a baseline.
fn bench_cmd(o: &Opts) -> GateResult {
    let mut g = GateResult::new();
    let trials = o.trials.unwrap_or(suite::DEFAULT_TRIALS);
    let harnesses: Vec<&Harness> = HARNESSES
        .iter()
        .filter(|h| h.rows().next().is_some())
        .collect();
    eprintln!("[bench] running the full suite, {trials} trial(s) per harness...");
    let dir = out_dir(o);
    let ctx = Ctx {
        scale: o.scale,
        out: &dir,
        report: false,
    };
    let records = suite::run_suite(&harnesses, trials, &ctx);
    let current = BenchSuite::new(git_commit(), suite::config_string(trials), records);

    let path = dir.join("BENCH_covirt.json");
    std::fs::write(&path, current.to_json()).expect("write BENCH_covirt.json");
    println!("{}", render_suite(&current));
    println!("wrote {}", path.display());

    // Schema validity: the artifact on disk must parse back to this run.
    let reparsed = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| BenchSuite::from_json(&t).map_err(|e| e.to_string()));
    g.check(
        "BENCH_covirt.json schema-valid",
        reparsed.as_ref() == Ok(&current),
        match &reparsed {
            Ok(_) => "round-trips exactly".to_string(),
            Err(e) => e.clone(),
        },
    );
    g.check(
        "suite covers >= 6 harnesses",
        current.harnesses().len() >= 6,
        format!("{} harness(es)", current.harnesses().len()),
    );

    g.merge(suite::apply_gates(&current.records, &harnesses));

    if let Some(base_path) = &o.compare {
        let mut compared = current.clone();
        if let Some(key) = &o.inject {
            let found = inject_regression(&mut compared, key);
            g.check(
                "injected regression target exists",
                found,
                format!("--inject-regression {key}"),
            );
            if found {
                eprintln!("[bench] injected a synthetic regression into {key}");
            }
        }
        match std::fs::read_to_string(base_path)
            .map_err(|e| e.to_string())
            .and_then(|t| BenchSuite::from_json(&t).map_err(|e| e.to_string()))
        {
            Err(e) => {
                g.check(
                    "baseline loads",
                    false,
                    format!("{}: {e}", base_path.display()),
                );
            }
            Ok(baseline) => {
                println!(
                    "comparing against {} (baseline commit {})",
                    base_path.display(),
                    baseline.commit
                );
                let cmp = bench::compare(&baseline, &compared, ComparePolicy::default());
                println!("{}", cmp.render());
                g.check(
                    "no metric regressed vs baseline",
                    cmp.ok(),
                    if cmp.ok() {
                        "comparison clean".to_string()
                    } else if cmp.config_mismatch.is_some() {
                        "config fingerprint mismatch (re-bless after deliberate config changes)"
                            .to_string()
                    } else {
                        cmp.failures()
                            .iter()
                            .map(|d| format!("{} ({})", d.key, d.verdict.name()))
                            .collect::<Vec<_>>()
                            .join(", ")
                    },
                );
            }
        }
    } else if o.inject.is_some() {
        g.check(
            "inject requires --compare",
            false,
            "--inject-regression only makes sense with --compare",
        );
    }

    if o.bless {
        let dest = Path::new("bench/baseline.json");
        std::fs::create_dir_all("bench").expect("create bench/");
        std::fs::write(dest, current.to_json()).expect("write bench/baseline.json");
        println!("blessed {} from this run", dest.display());
    }
    g
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut opts = Opts {
        scale: Scale::Quick,
        out: PathBuf::from("target/figures"),
        trials: None,
        compare: None,
        bless: false,
        inject: None,
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
            "--bless" => opts.bless = true,
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
            "--compare" => opts.compare = Some(PathBuf::from(value("--compare"))),
            "--inject-regression" => opts.inject = Some(value("--inject-regression")),
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
    } else if let Some(t) = TOOLS.iter().find(|t| t.name == what) {
        (t.run)(&opts)
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

    /// Usage and dispatch read the same two tables, so every harness and
    /// tool is listed, and no tool shadows a harness or the `all` keyword.
    #[test]
    fn usage_lists_every_harness_and_tool() {
        let usage = usage_text();
        for name in HARNESSES
            .iter()
            .map(|h| h.name)
            .chain(TOOLS.iter().map(|t| t.name))
        {
            assert!(
                usage.contains(&format!("\n  {name:<9} ")),
                "{name} unlisted"
            );
        }
        for t in TOOLS {
            assert!(suite::harness(t.name).is_none(), "{} is both", t.name);
            assert_ne!(t.name, "all");
            assert!(!t.help.trim().is_empty());
        }
        assert!(!usage.contains("--fault"));
    }
}
