//! One run of one workload: set-up, the compile leg, the serve leg, the
//! output checks, and the metrics.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use denali_core::{CompileResult, Denali};
use denali_trace::json::{self, Json};

use crate::check;
use crate::client::{self, Client, Leg, ServerHandle};
use crate::layers;
use crate::programs::{self, Engine, KnownFault, Request, Stream};
use crate::speed;
use crate::stats::{median, tail_quantile};
use crate::workload::{self, Workload};

/// Cold set-ups per run, each in a fresh process; `setup_s` is the
/// median of their CPU times.
const SETUP_PROBES: usize = 21;

/// The longest stretch of compile passes between two calibration
/// points (a pass longer than this has a point on either side).
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);

/// How long the serve leg waits for the responses of one leg.
const LEG_TIMEOUT: Duration = Duration::from_secs(60);

/// Command-line arguments of one run.
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Run length the workload's operation counts are sized for.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of a run.
pub struct Outcome {
    /// Every checked output was right.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
    /// Everything that went wrong, for standard error.
    pub errors: Vec<String>,
    /// Run description for the report line: seed, options, host.
    pub notes: Vec<(String, String)>,
}

/// Everything set-up builds.
pub struct Setup {
    /// The compile pipeline, options pinned.
    pub denali: Denali,
    /// The in-process server.
    pub server: ServerHandle,
    /// The client connection.
    pub client: Client,
    /// The warm-up compile of Figure 2.
    pub figure2: CompileResult,
}

fn setup(workload: Workload) -> Result<Setup, String> {
    let denali = Denali::new(workload::pinned_options());
    // Parse and lower every input once, so a malformed input fails
    // set-up rather than the first timed pass.
    for (name, source) in workload.compile_set() {
        denali
            .prepare_source(&source)
            .map_err(|e| format!("{name}: prepare failed: {e}"))?;
    }
    let (server, mut client) = client::start(workload::server_config(), workload::WORKERS)
        .map_err(|e| format!("server start failed: {e}"))?;
    // Warm-up: one small compile in-process and one round trip through
    // the server, so lazy initialization is done before timing starts.
    let figure2 = denali
        .compile_source(programs::FIGURE2)
        .map_err(|e| format!("figure2: {e}"))?;
    client.run_leg(&["\"type\":\"ping\"}".to_owned()], 1000.0, LEG_TIMEOUT)?;
    Ok(Setup {
        denali,
        server,
        client,
        figure2,
    })
}

fn close(setup: Setup) {
    setup.client.close();
    setup.server.join();
}

/// Runs [`SETUP_PROBES`] cold set-ups, each in a fresh process (this
/// program's `setup-probe` form), one after another, and returns the
/// CPU seconds each used from its process start to the moment it was
/// ready for the first timed operation (every thread, process start-up
/// and lazy initialization included), and the wall seconds from just
/// before its start to its `ready` line.
fn setup_probes(workload: Workload) -> Result<(Vec<f64>, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let mut cpu = Vec::with_capacity(SETUP_PROBES);
    let mut wall = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let start = Instant::now();
        let mut child = Command::new(&exe)
            .args(["setup-probe", "--workload", workload.name()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let elapsed = start.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("set-up probe lost: {e}"))?;
        let used = line
            .trim()
            .strip_prefix("ready ")
            .and_then(|s| s.parse::<f64>().ok());
        match used {
            Some(used) if status.success() && matches!(read, Some(Ok(_))) => {
                cpu.push(used);
                wall.push(elapsed);
            }
            _ => return Err(format!("set-up probe failed ({status}): {line}")),
        }
    }
    Ok((cpu, wall))
}

/// The `setup-probe` form: one set-up, then `ready` and the CPU seconds
/// the process has used on standard output.
///
/// # Errors
///
/// Fails when set-up fails.
pub fn setup_probe(workload: Workload) -> Result<(), String> {
    let built = setup(workload)?;
    println!("ready {}", speed::process_cpu_s());
    close(built);
    Ok(())
}

/// The compile request line for the protocol (after the client's id).
fn request_line(request: &Request) -> String {
    match request {
        Request::Stats => "\"type\":\"stats\"}".to_owned(),
        Request::Compile { source, engine, .. } => {
            let mut src = String::new();
            json::write_str(&mut src, source);
            format!(
                "\"type\":\"compile\",\"source\":{src},\"options\":{{\"engine\":\"{}\"}}}}",
                engine.as_str()
            )
        }
    }
}

/// One serve leg: its requests and what came back.
pub struct ServedLeg {
    /// The requests, in send order.
    pub requests: Vec<Request>,
    /// The responses.
    pub leg: Leg,
}

impl ServedLeg {
    /// Latencies with failed requests counted as missing any limit.
    pub fn latencies(&self) -> Vec<f64> {
        self.leg
            .latency_ms
            .iter()
            .zip(&self.leg.bodies)
            .map(|(ms, body)| {
                if body.starts_with("\"status\":\"ok\"") {
                    *ms
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// Whether the rung meets the limit: p99 within it, no request shed,
    /// and no growing backlog (the last fifth of the rung's requests
    /// also answered within the limit at the median).
    fn meets_limit(&self) -> bool {
        let latencies = self.latencies();
        let shed = self
            .leg
            .bodies
            .iter()
            .any(|b| b.contains("\"stage\":\"overload\""));
        let tail_ok =
            tail_quantile(&latencies, 0.99).is_some_and(|p99| p99 <= workload::LATENCY_LIMIT_MS);
        let last = &latencies[latencies.len() * 4 / 5..];
        !shed && tail_ok && median(last) <= workload::LATENCY_LIMIT_MS
    }
}

/// Runs the serve leg: the fixed-rate leg, then the ladder.
pub fn serve_leg(
    client: &mut Client,
    stream: &mut Stream,
    workload: Workload,
    seconds: u64,
) -> Result<Vec<ServedLeg>, String> {
    let mut legs = Vec::new();
    let plan = std::iter::once((workload::FIXED_RATE, workload.fixed_rate_rounds(seconds))).chain(
        workload
            .ladder()
            .iter()
            .map(|&rate| (rate, workload::RUNG_ROUNDS)),
    );
    for (rate, rounds) in plan {
        let requests: Vec<Request> = (0..rounds).flat_map(|_| stream.round()).collect();
        let lines: Vec<String> = requests.iter().map(request_line).collect();
        let leg = client.run_leg(&lines, rate, LEG_TIMEOUT)?;
        legs.push(ServedLeg { requests, leg });
    }
    Ok(legs)
}

/// What the compile leg produced.
pub struct CompileLeg {
    /// The first pass's results.
    pub results: Vec<CompileResult>,
    /// Wall seconds of each untraced pass.
    pub plain_s: Vec<f64>,
    /// CPU seconds of each untraced pass in reference seconds (see
    /// `speed.rs`), scaled by the calibration points on either side.
    pub reference_s: Vec<f64>,
    /// The calibration points taken between passes, CPU seconds.
    pub points: Vec<f64>,
    /// Wall seconds of each traced pass.
    pub traced_s: Vec<f64>,
}

/// Runs the compile leg: `passes` passes over the compile set through
/// `compile_source`, every other one traced when `traced_every_other`.
/// Later passes must reproduce the first exactly. A calibration point
/// is taken before the first pass, after the last, and between passes
/// at least every [`CALIBRATE_EVERY`].
pub fn compile_leg(
    denali: &Denali,
    workload: Workload,
    passes: usize,
    traced_every_other: bool,
    errors: &mut Vec<String>,
) -> Result<CompileLeg, String> {
    let set = workload.compile_set();
    let mut first: Option<Vec<CompileResult>> = None;
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut reference_s = Vec::new();
    let mut points = vec![speed::point()];
    let mut last_point = Instant::now();
    // CPU seconds of the untraced passes since the last point.
    let mut pending = Vec::new();
    for pass in 0..passes {
        let traced = traced_every_other && pass % 2 == 1;
        let pipeline = if traced {
            denali.with_tracer(denali_trace::Tracer::new())
        } else {
            denali.clone()
        };
        let start = Instant::now();
        let cpu_start = speed::process_cpu_s();
        let results = set
            .iter()
            .map(|(name, source)| {
                pipeline
                    .compile_source(source)
                    .map_err(|e| format!("{name}: compile failed: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let elapsed = start.elapsed().as_secs_f64();
        let cpu = speed::process_cpu_s() - cpu_start;
        if traced {
            traced_s.push(elapsed);
        } else {
            plain_s.push(elapsed);
            pending.push(cpu);
        }
        if pass + 1 == passes || last_point.elapsed() >= CALIBRATE_EVERY {
            let before = points[points.len() - 1];
            let after = speed::point();
            let loop_s = (before + after) / 2.0;
            reference_s.extend(pending.drain(..).map(|c| speed::scale(c, loop_s)));
            points.push(after);
            last_point = Instant::now();
        }
        match &first {
            None => first = Some(results),
            Some(reference) => {
                for (a, b) in reference.iter().zip(&results) {
                    if outputs_of(a) != outputs_of(b) {
                        errors.push(format!(
                            "pass {pass} of {} differs from the first pass (traced: {traced})",
                            a.main().gma.name
                        ));
                    }
                }
            }
        }
    }
    Ok(CompileLeg {
        results: first.unwrap_or_default(),
        plain_s,
        reference_s,
        points,
        traced_s,
    })
}

/// Cycles, certificate and listing of every GMA: what must not change
/// between passes, traced or not.
pub fn outputs_of(result: &CompileResult) -> Vec<(String, u32, bool, String)> {
    let width = denali_arch::Machine::ev6().issue_width();
    result
        .gmas
        .iter()
        .map(|g| {
            (
                g.gma.name.clone(),
                g.cycles,
                g.refuted_below,
                g.program.listing(width),
            )
        })
        .collect()
}

/// Checks the compile leg's programs and the paper's reported cycles.
fn check_compiles(
    workload: Workload,
    results: &[CompileResult],
    figure2: &CompileResult,
    seed: u64,
    errors: &mut Vec<String>,
) {
    let machine = denali_arch::Machine::ev6();
    for result in results.iter().chain(std::iter::once(figure2)) {
        for compiled in &result.gmas {
            if let Err(e) = check::check_program(&compiled.gma, &compiled.program, &machine, seed) {
                errors.push(e);
            }
            if let Err(e) =
                check::check_against_baseline(&compiled.gma, &compiled.program, &machine)
            {
                errors.push(e);
            }
        }
    }
    if figure2.main().cycles != 1 {
        errors.push(format!(
            "figure2: {} cycles, the paper reports 1",
            figure2.main().cycles
        ));
    }
    for ((name, _), result) in workload.compile_set().iter().zip(results) {
        if name == "byteswap4" && result.main().cycles != 5 {
            errors.push(format!(
                "byteswap4: {} cycles, the paper reports 5",
                result.main().cycles
            ));
        }
    }
}

/// Checks every served response; returns the number of compile
/// requests that failed. Only the two fixed requests with a
/// [`KnownFault`] may fail, each only in its known way; any other
/// failure is also an error.
fn check_served(denali: &Denali, legs: &[ServedLeg], seed: u64, errors: &mut Vec<String>) -> u64 {
    let machine = denali_arch::Machine::ev6();
    let mut failed = 0;
    // First body seen per (source, engine): every later answer to the
    // same request must be the same bytes (a hit replays the miss).
    let mut first_body: HashMap<(String, Engine), String> = HashMap::new();
    // How often each request was answered, for the over-claimed answer.
    let mut answered: HashMap<(String, Engine), u64> = HashMap::new();
    for served in legs {
        for (request, body) in served.requests.iter().zip(&served.leg.bodies) {
            let ok = body.starts_with("\"status\":\"ok\"");
            match request {
                Request::Stats => {
                    if !ok {
                        errors.push(format!("stats request failed: {body}"));
                    }
                }
                Request::Compile {
                    source,
                    engine,
                    known_fault,
                } => {
                    if !ok {
                        failed += 1;
                        if *known_fault != Some(KnownFault::DeclaredOp) {
                            errors.push(format!("compile failed ({}): {body}", engine.as_str()));
                        }
                        continue;
                    }
                    let key = (source.clone(), *engine);
                    *answered.entry(key.clone()).or_default() += 1;
                    match first_body.get(&key) {
                        Some(first) if first != body => errors.push(format!(
                            "two answers to the same request differ:\n{first}\n{body}"
                        )),
                        Some(_) => {}
                        None => {
                            first_body.insert(key, body.clone());
                        }
                    }
                }
            }
        }
    }
    // Each distinct answer once: simulate the listing, validate the
    // schedule, compare with the baseline and across engines.
    // SAT cycles and whether the answer claims the count below refuted.
    let mut sat_cycles: HashMap<(String, String), (u32, bool)> = HashMap::new();
    let mut stochastic_cycles: Vec<((String, String), u32)> = Vec::new();
    let mut answers: Vec<_> = first_body.iter().collect();
    answers.sort_by(|a, b| {
        a.0 .0
            .cmp(&b.0 .0)
            .then(a.0 .1.as_str().cmp(b.0 .1.as_str()))
    });
    for ((source, engine), body) in answers {
        let value = match json::parse(&format!("{{{body}")) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("response does not parse ({e}): {body}"));
                continue;
            }
        };
        if value.get("degraded").and_then(Json::as_bool) != Some(false) {
            errors.push(format!("degraded answer without a deadline: {body}"));
        }
        let prepared = match denali.prepare_source(source) {
            Ok(p) => p,
            Err(e) => {
                errors.push(format!("served source does not prepare: {e}"));
                continue;
            }
        };
        let gmas = value.get("gmas").and_then(Json::as_arr).unwrap_or(&[]);
        if gmas.len() != prepared.gmas.len() {
            errors.push(format!(
                "answer has {} GMAs, the source {}",
                gmas.len(),
                prepared.gmas.len()
            ));
            continue;
        }
        for (summary, gma) in gmas.iter().zip(&prepared.gmas) {
            let cycles = summary
                .get("cycles")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX) as u32;
            let instructions = summary
                .get("instructions")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX);
            let listing = summary.get("listing").and_then(Json::as_str).unwrap_or("");
            let program = match check::parse_listing(listing) {
                Ok(p) => p,
                Err(e) => {
                    errors.push(format!("{}: listing does not parse: {e}", gma.name));
                    continue;
                }
            };
            if program.cycles() > cycles || program.len() as u64 != instructions {
                errors.push(format!(
                    "{}: listing disagrees with its cycle or instruction count",
                    gma.name
                ));
            }
            if let Err(e) = check::check_program(gma, &program, &machine, seed) {
                errors.push(e);
            }
            if let Err(e) = check::check_against_baseline(gma, &program, &machine) {
                errors.push(e);
            }
            let key = (source.clone(), gma.name.clone());
            match engine {
                Engine::Sat => {
                    let refuted = summary.get("refuted_below").and_then(Json::as_bool);
                    sat_cycles.insert(key, (cycles, refuted == Some(true)));
                }
                Engine::Stochastic => stochastic_cycles.push((key, cycles)),
            }
        }
    }
    // Every cold stochastic source is also sent under SAT (the
    // declared-op request, once mended, has no SAT twin to compare).
    for (key, cycles) in stochastic_cycles {
        if let Some(&(optimum, certified)) = sat_cycles.get(&key) {
            if cycles < optimum && certified && key.0 == programs::OVERCLAIMED {
                // Every SAT answer to it is the same bytes, so each of
                // its requests met the fault.
                failed += answered[&(key.0.clone(), Engine::Sat)];
            } else if cycles < optimum {
                errors.push(format!(
                    "{}: stochastic answer ({cycles} cycles) beats the SAT optimum ({optimum})",
                    key.1
                ));
            }
        }
    }
    failed
}

/// The process's peak resident set, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The highest ladder rung meeting the limit, as its achieved rate
/// (requests answered per second of the rung); 1 when none does.
pub fn max_rate(legs: &[ServedLeg]) -> f64 {
    legs.iter()
        .filter(|l| l.meets_limit())
        .map(|l| l.leg.bodies.len() as f64 / l.leg.span_s)
        .fold(1.0, f64::max)
}

/// The commit the checkout was made from, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Fails when set-up fails or an operation cannot be carried out at
/// all (as opposed to producing a wrong output, which is reported in
/// [`Outcome::correct`]).
pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let workload = args.workload;
    let mut errors = Vec::new();
    let mut setup = setup(workload)?;
    let own_setup_s = process_start.elapsed().as_secs_f64();
    let before_probes = speed::point();
    let (setup_cpu, setup_wall) = setup_probes(workload)?;
    let probes_loop_s = (before_probes + speed::point()) / 2.0;
    let passes = workload.passes(args.seconds);
    let programs_per_pass = workload.compile_set().len() as u64;
    let CompileLeg {
        results,
        plain_s,
        reference_s,
        points,
        traced_s,
    } = compile_leg(&setup.denali, workload, passes, args.trace, &mut errors)?;
    // Read before the serve leg: the serve leg's peak depends on the
    // backlog the host's speed lets build up, which does not repeat.
    let compile_rss_mb = peak_rss_mb();
    let mut stream = Stream::new(args.seed);
    let before_serve = speed::point();
    let cpu_before = speed::process_cpu_s();
    let legs = serve_leg(&mut setup.client, &mut stream, workload, args.seconds)?;
    let serve_cpu = speed::process_cpu_s() - cpu_before;
    let serve_loop_s = (before_serve + speed::point()) / 2.0;
    let served: u64 = legs.iter().map(|l| l.requests.len() as u64).sum();
    let serve_cpu_us = speed::scale(serve_cpu, serve_loop_s) * 1e6 / served as f64;
    let mut attempted = passes as u64 * programs_per_pass + served;

    let mut metrics = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit })
    };
    if args.trace {
        let layer = layers::traced(
            &setup,
            workload,
            &results,
            &plain_s,
            &traced_s,
            &legs,
            &mut errors,
        )?;
        attempted += layer.operations;
        for (name, value, unit) in layer.metrics {
            push(name, value, unit);
        }
    } else {
        let gmas = results.iter().flat_map(|r| &r.gmas);
        push("setup_s", speed::scale(median(&setup_cpu), probes_loop_s), "s");
        push("compile_s", median(&reference_s), "s");
        push(
            "generated_cycles",
            gmas.clone().map(|g| f64::from(g.cycles)).sum(),
            "count",
        );
        push(
            "code_size",
            gmas.clone().map(|g| g.program.len() as f64).sum(),
            "instructions",
        );
        push(
            "certified_gmas",
            gmas.filter(|g| g.refuted_below).count() as f64,
            "count",
        );
        push("peak_rss_mb", compile_rss_mb, "MB");
        push("serve_cpu_us", serve_cpu_us, "us");
    }

    check_compiles(workload, &results, &setup.figure2, args.seed, &mut errors);
    let failed = check_served(&setup.denali, &legs, args.seed, &mut errors);
    let late: Vec<f64> = legs
        .iter()
        .flat_map(|l| l.leg.late_ms.iter().copied())
        .collect();
    let notes = vec![
        ("workload".to_owned(), workload.name().to_owned()),
        ("seed".to_owned(), args.seed.to_string()),
        ("trace".to_owned(), args.trace.to_string()),
        ("commit".to_owned(), commit()),
        (
            "nproc".to_owned(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "options".to_owned(),
            workload::describe_options(setup.denali.options()),
        ),
        ("passes".to_owned(), passes.to_string()),
        ("served_requests".to_owned(), served.to_string()),
        (
            "legs".to_owned(),
            legs.iter()
                .map(|l| {
                    format!(
                        "{}rps:n={},p50={:.3}ms,p99={:.3}ms,meets_limit={}",
                        l.leg.rate,
                        l.requests.len(),
                        median(&l.latencies()),
                        tail_quantile(&l.latencies(), 0.99).unwrap_or(f64::INFINITY),
                        l.meets_limit()
                    )
                })
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "generator_late_ms".to_owned(),
            format!(
                "p50={:.3} p99={:.3} max={:.3}",
                median(&late),
                tail_quantile(&late, 0.99).unwrap_or(f64::NAN),
                late.iter().copied().fold(0.0, f64::max)
            ),
        ),
        (
            "compile_pass_s".to_owned(),
            plain_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(","),
        ),
        (
            "compile_pass_reference_s".to_owned(),
            reference_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(","),
        ),
        (
            "calibration_s".to_owned(),
            format!(
                "reference={} probes={probes_loop_s:.5} serve={serve_loop_s:.5} compile={}",
                speed::REFERENCE_S,
                points
                    .iter()
                    .map(|s| format!("{s:.5}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("serve_cpu_s".to_owned(), format!("{serve_cpu:.4}")),
        ("own_setup_s".to_owned(), format!("{own_setup_s:.5}")),
        (
            "setup_cpu_s".to_owned(),
            setup_cpu
                .iter()
                .map(|s| format!("{s:.5}"))
                .collect::<Vec<_>>()
                .join(","),
        ),
        (
            "setup_wall_s".to_owned(),
            format!(
                "median={:.5} {}",
                median(&setup_wall),
                setup_wall
                    .iter()
                    .map(|s| format!("{s:.5}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        (
            "server_stats".to_owned(),
            setup
                .server
                .server
                .handle_line(r#"{"type":"stats","id":0}"#)
                .unwrap_or_default(),
        ),
    ];
    close(setup);
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
        notes,
    })
}
