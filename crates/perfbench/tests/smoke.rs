//! `perfbench all --smoke` end to end: every run finishes, writes a
//! well-formed result, reports every metric it owes, and fails no op.

use covirt_perfbench::json::{valid_name, Value};
use covirt_perfbench::metrics::{self, Scope};
use covirt_perfbench::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

fn load(dir: &Path, file: &str) -> Value {
    let text = std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    Value::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn number(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing number {key}"))
}

/// The header every result file carries, and no failed op.
fn check_header(v: &Value, workload: &str, traced: bool) {
    assert_eq!(number(v, "schema"), 1.0);
    assert_eq!(v.get("workload").and_then(Value::as_str), Some(workload));
    assert_eq!(v.get("traced"), Some(&Value::Bool(traced)));
    assert!(number(v, "attempted") >= 1.0);
    assert_eq!(number(v, "failed"), 0.0, "{workload}: failed ops");
    assert_eq!(number(v, "failed_share"), 0.0);
    assert!(number(v, "pairs") >= 1.0);
    assert!(number(v, "threads") <= number(v, "nproc").max(2.0));
    for arm in ["native", "covirt"] {
        assert!(
            v.get("counts").and_then(|c| c.get(arm)).is_some(),
            "counts.{arm}"
        );
    }
}

/// A metric entry: registered name, the registry's unit, a finite value.
fn check_metric(name: &str, m: &Value) {
    assert!(valid_name(name), "{name}");
    let def = metrics::def(name).unwrap_or_else(|| panic!("{name} is not registered"));
    assert_eq!(
        m.get("unit").and_then(Value::as_str),
        Some(def.unit),
        "{name}"
    );
    assert_eq!(
        m.get("better").and_then(Value::as_str),
        Some(def.better.as_str())
    );
    assert!(number(m, "value").is_finite(), "{name}");
    assert_eq!(m.get("bound").and_then(Value::as_f64), def.bound, "{name}");
}

#[test]
fn smoke_suite_is_clean_and_complete() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["all", "--smoke", "--seed", "3", "--out"])
        .arg(&out)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "perfbench all --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    for w in WORKLOADS {
        // Untraced: the end-to-end metrics, each with its bound and spread.
        let v = load(&out, &format!("{w}.json"));
        check_header(&v, w, false);
        assert_eq!(number(&v, "seed"), 3.0);
        let Some(Value::Object(ms)) = v.get("metrics") else {
            panic!("{w}: no metrics")
        };
        for (name, m) in ms {
            check_metric(name, m);
            assert!(
                m.get("spread").is_some(),
                "{w}.{name}: end-to-end metrics carry a spread"
            );
            assert!(
                number(m, "value") != 0.0,
                "{w}.{name}: end-to-end metrics are never 0"
            );
        }
        for def in metrics::end_to_end() {
            assert!(
                ms.iter().any(|(n, _)| n == def.name),
                "{w}: no {}",
                def.name
            );
            assert!(stdout.contains(def.name));
        }
        let own: &[&str] = match w {
            "memchurn" => &["host_ns_per_op", "grant_p50_us", "reclaim_p50_us"],
            "faultcycle" => &["host_ns_per_op", "bringup_p50_us", "contain_p50_us"],
            _ => &["host_ns_per_op"],
        };
        let listed = ms
            .iter()
            .filter(|(n, _)| metrics::def(n).is_some_and(|d| d.scope == Scope::CompareOnly))
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>();
        assert_eq!(listed, own, "{w}: compare-only metrics");

        // Traced: every layer metric, and the spans behind them.
        let t = load(&out, &format!("{w}.trace.json"));
        check_header(&t, w, true);
        let Some(Value::Object(ms)) = t.get("metrics") else {
            panic!("{w}: no traced metrics")
        };
        let names: Vec<&str> = ms.iter().map(|(n, _)| n.as_str()).collect();
        let want: Vec<&str> = metrics::per_layer().map(|d| d.name).collect();
        assert_eq!(names, want, "{w}: traced metrics");
        for (name, m) in ms {
            check_metric(name, m);
        }
        let shares: f64 = ["tlb", "walk", "resolve", "exit", "control"]
            .iter()
            .map(|g| {
                number(
                    &ms.iter()
                        .find(|(n, _)| n == &format!("sim.share.{g}"))
                        .unwrap()
                        .1,
                    "value",
                )
            })
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{w}: sim.share.* sums to {shares}"
        );
        let spans = t.get("spans").expect("traced runs write their spans");
        assert!(number(spans, "recorded") > 0.0);
        for name in [
            "rep",
            "pisces.add_memory",
            "hobbes.failure",
            "core.controller.barrier",
        ] {
            assert!(
                spans.get("by_name").and_then(|b| b.get(name)).is_some(),
                "{w}: no {name} spans"
            );
        }
    }
}

/// The driver's form of the command line, and its one-line result.
#[test]
fn run_prints_the_driver_line_last() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-driver-line");
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "run",
            "--workload",
            "gups",
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("perfbench runs");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = Value::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    let Value::Object(fields) = &last else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    let Some(Value::Object(ms)) = last.get("metrics") else {
        panic!("no metrics")
    };
    let names: Vec<&str> = ms.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = metrics::end_to_end().map(|d| d.name).collect();
    assert_eq!(names, want);

    // Unknown workloads and flags are usage errors, not results.
    for bad in [
        &["run", "--workload", "nope"][..],
        &["run", "--frobnicate"],
        &["compare", "only-one"],
        &[],
    ] {
        let r = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(bad)
            .output()
            .unwrap();
        assert_eq!(r.status.code(), Some(2), "{bad:?}");
        assert!(r.stdout.is_empty());
    }
}
