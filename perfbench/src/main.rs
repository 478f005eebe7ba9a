//! `perfbench`: the Denali benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench steady --workload NAME [--runs K] [--seconds S] [--trace 0|1] [--first-seed N]
//! perfbench setup-probe --workload NAME
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The line before
//! it describes the run: seed, pinned options, commit, CPU count. The
//! second form measures the benchmark's own steadiness (see
//! `steady.rs`). The third does one set-up and prints `ready` with the
//! CPU seconds it used; a run starts it several times to time cold
//! set-ups (`setup_s`). See `README.md` for the workloads and metrics.

mod check;
mod client;
mod layers;
mod programs;
mod run;
mod speed;
mod stats;
mod steady;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use denali_trace::json;

fn usage() -> String {
    let names: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
         perfbench steady --workload NAME [--runs K] [--seconds S] [--trace 0|1] [--first-seed N]\n\
         workloads: {}",
        names.join(", ")
    )
}

/// `--flag value` pairs into a lookup.
fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((name.to_owned(), value.clone()));
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.iter().find(|(n, _)| n == name) {
        Some((_, v)) => v.parse().map_err(|_| format!("--{name}: bad value {v}")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn parse_run(args: &[String]) -> Result<run::Args, String> {
    let flags = flags(args)?;
    for (name, _) in &flags {
        if !["workload", "seed", "seconds", "trace"].contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    let name: String = flag(&flags, "workload", None)?;
    let workload =
        workload::Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let trace: u8 = flag(&flags, "trace", Some(0))?;
    if trace > 1 {
        return Err("--trace takes 0 or 1".to_owned());
    }
    let seconds: u64 = flag(&flags, "seconds", None)?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(run::Args {
        workload,
        seed: flag(&flags, "seed", None)?,
        seconds,
        trace: trace == 1,
    })
}

/// A JSON number with every digit; JSON has no infinity, so a missing
/// tail prints as a huge value.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "1e12".to_owned()
    }
}

fn print_outcome(outcome: &run::Outcome) {
    let mut report = String::from("{");
    for (i, (key, value)) in outcome.notes.iter().enumerate() {
        if i > 0 {
            report.push(',');
        }
        json::write_str(&mut report, key);
        report.push(':');
        json::write_str(&mut report, value);
    }
    report.push('}');
    println!("{report}");
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return match steady::main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench steady: {e}\n{}", usage());
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("setup-probe") {
        let probe = flags(&args[1..]).and_then(|f| {
            let name: String = flag(&f, "workload", None)?;
            workload::Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))
        });
        return match probe.and_then(run::setup_probe) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench setup-probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_run(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run::run(&args, process_start) {
        Ok(outcome) => {
            for error in &outcome.errors {
                eprintln!("perfbench: incorrect output: {error}");
            }
            print_outcome(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
