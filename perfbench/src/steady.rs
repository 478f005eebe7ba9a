//! `perfbench steady`: how much the benchmark's own figures move.
//!
//! Runs one workload `--runs` times as child processes, each with its
//! own seed, alternating between two sets (odd and even runs) the way
//! two sets of runs of one commit would be compared. For every metric
//! it prints the median, the quartiles, the interquartile distance as a
//! share of the median, the largest run-to-run spread, and how far the
//! two sets' medians lie apart, next to the metric's bound from
//! `BENCHMARK.json`. It also checks that every run failed the same
//! share of its operations. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- steady --workload serve-mixed --runs 10 --seconds 25
//! ```

use std::collections::BTreeMap;
use std::process::Command;

use denali_trace::json::{self, Json};

use crate::stats::{median, quartiles};

struct RunResult {
    legs: String,
    /// The median wall time of the run's set-up probes (not a metric).
    setup_wall_s: Option<f64>,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_once(workload: &str, seed: u64, seconds: u64, trace: u8) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "run with seed {seed} failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or("run printed nothing")?;
    let report = lines.next().and_then(|report| json::parse(report).ok());
    let note = |key: &str| {
        report
            .as_ref()
            .and_then(|r| r.get(key).and_then(Json::as_str).map(str::to_owned))
    };
    let legs = note("legs").unwrap_or_default();
    let setup_wall_s = note("setup_wall_s").and_then(|s| {
        s.strip_prefix("median=")?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    });
    let value = json::parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    if value.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "run with seed {seed} reported incorrect output: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let count = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("no {key}"))
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(entries)) = value.get("metrics") {
        for (name, m) in entries {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    Ok(RunResult {
        legs,
        setup_wall_s,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the
/// working directory (empty when it is absent).
fn bounds() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return out;
    };
    let Ok(value) = json::parse(&text) else {
        return out;
    };
    for metric in value
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        if let (Some(name), Some(bound)) = (
            metric.get("name").and_then(Json::as_str),
            metric.get("bound").and_then(Json::as_f64),
        ) {
            out.insert(name.to_owned(), bound);
        }
    }
    out
}

/// Entry point of the `steady` subcommand.
///
/// # Errors
///
/// Fails on bad arguments or a failed run.
pub fn main(args: &[String]) -> Result<(), String> {
    let flags = crate::flags(args)?;
    let workload: String = crate::flag(&flags, "workload", None)?;
    let runs: u64 = crate::flag(&flags, "runs", Some(10))?;
    let seconds: u64 = crate::flag(&flags, "seconds", Some(25))?;
    let trace: u8 = crate::flag(&flags, "trace", Some(0))?;
    let first_seed: u64 = crate::flag(&flags, "first-seed", Some(1))?;
    let mut results = Vec::new();
    for i in 0..runs {
        let seed = first_seed + i;
        let result = run_once(&workload, seed, seconds, trace)?;
        eprintln!(
            "run {i} (set {}, seed {seed}): {} | {}",
            if i % 2 == 0 { "A" } else { "B" },
            result
                .metrics
                .iter()
                .map(|(k, v)| format!("{k}={v:.6}"))
                .collect::<Vec<_>>()
                .join(" "),
            result.legs
        );
        results.push(result);
    }
    let shares: Vec<(u64, u64)> = results.iter().map(|r| (r.failed, r.attempted)).collect();
    let same_share = shares
        .windows(2)
        .all(|w| w[0].0 * w[1].1 == w[1].0 * w[0].1);
    println!(
        "{workload}: {runs} runs of {seconds} s, failed/attempted {:?} ({})",
        shares[0],
        if same_share {
            "the same share in every run"
        } else {
            "SHARES DIFFER"
        }
    );
    // The wall-clock set-up time is printed beside the metrics, without
    // a bound, to show why `setup_s` counts CPU time instead.
    for result in &mut results {
        if let Some(wall) = result.setup_wall_s {
            result.metrics.insert("(setup wall s)".to_owned(), wall);
        }
    }
    let bounds = bounds();
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "metric", "median", "q1", "q3", "iqr%", "range%", "A-vs-B%", "bound%"
    );
    for name in results[0].metrics.keys() {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        let set = |parity: usize| -> Vec<f64> {
            values
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, v)| *v)
                .collect()
        };
        let mid = median(&values);
        let (q1, q3) = quartiles(&values).unwrap_or((mid, mid));
        let share = |d: f64| {
            if mid == 0.0 {
                0.0
            } else {
                100.0 * d / mid.abs()
            }
        };
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        let iqr = share(q3 - q1);
        let between = share((median(&set(0)) - median(&set(1))).abs());
        let (bound, verdict) = match bounds.get(name) {
            Some(b) if iqr > 100.0 * b || between > 100.0 * b => (100.0 * b, "OVER BOUND"),
            Some(b) if iqr > 100.0 * b / 3.0 => (100.0 * b, "over a third of bound"),
            Some(b) => (100.0 * b, "ok"),
            None => (f64::NAN, "-"),
        };
        println!(
            "{name:<26} {mid:>14.6} {q1:>14.6} {q3:>14.6} {iqr:>8.2} {:>8.2} {between:>8.2} {bound:>7.1}  {verdict}",
            share(max - min)
        );
    }
    Ok(())
}
