//! The traced run's per-layer numbers.
//!
//! One pass over the compile set drives the layers one public call at
//! a time — `Denali::prepare_source` (lang), `matcher::match_gma_traced`
//! (saturate), `machine_terms::enumerate_with_misses` (enumerate) and
//! `search::search_traced` (search) — timing each call, and reads the
//! spans and events the program already records into the tracer it is
//! given. Its programs must equal `compile_source`'s. The stochastic
//! engine is driven on the serve stream's first stochastic programs,
//! and the server layer is read from its `stats` response.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use denali_core::{
    machine_terms, matcher, search, CompileResult, Denali, EngineChoice, SearchParams,
};
use denali_trace::json;
use denali_trace::{Record, Tracer, Value};

use crate::programs::{Engine, Request};
use crate::run::{outputs_of, ServedLeg, Setup};
use crate::stats::{median, tail_quantile};
use crate::workload::{self, Workload};

/// Stochastic programs driven in-process for the stoke layer.
const STOKE_PROGRAMS: usize = 8;

/// Direct `stats` calls timed for `serve.stats_ms`.
const STATS_CALLS: usize = 20;

/// The traced run's metrics and the operations it added.
pub struct Layered {
    /// (name, value, unit), as in `BENCHMARK.json`'s `per_layer`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations beyond the compile and serve legs.
    pub operations: u64,
}

#[derive(Default)]
struct Sums {
    pass_ms: f64,
    lang_ms: f64,
    saturate_ms: f64,
    enumerate_ms: f64,
    search_ms: f64,
    rounds: f64,
    full_rounds: f64,
    instances: f64,
    scanned: f64,
    skipped: f64,
    adds: f64,
    memo_hits: f64,
    unions: f64,
    congruence_unions: f64,
    folds: f64,
    rebuilds: f64,
    nodes: f64,
    classes: f64,
    bytes: f64,
    candidates: f64,
    probes: f64,
    encode_ms: f64,
    solve_ms: f64,
    conflicts: f64,
    decisions: f64,
    propagations: f64,
    vars_max: f64,
    clauses_max: f64,
}

fn number(value: &Value) -> f64 {
    match value {
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        Value::F64(v) => *v,
        _ => 0.0,
    }
}

/// Sum of a numeric field over the events named `name`.
fn event_sum(records: &[Record], name: &str, key: &str) -> f64 {
    records
        .iter()
        .filter(|r| matches!(r, Record::Event { name: n, .. } if n == name))
        .filter_map(|r| r.get(key))
        .map(number)
        .sum()
}

/// Total milliseconds inside spans named `name`.
fn span_ms(records: &[Record], name: &str) -> f64 {
    let mut open: HashMap<u64, u64> = HashMap::new();
    let mut total_us = 0u64;
    for record in records {
        match record {
            Record::Begin {
                id, name: n, t_us, ..
            } if n == name => {
                open.insert(*id, *t_us);
            }
            Record::End { id, t_us, .. } => {
                if let Some(start) = open.remove(id) {
                    total_us += t_us.saturating_sub(start);
                }
            }
            Record::Complete {
                name: n, dur_us, ..
            } if n == name => total_us += dur_us,
            _ => {}
        }
    }
    total_us as f64 / 1e3
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Drives the compile set layer by layer, checking the programs against
/// `reference` (the compile leg's `compile_source` results).
fn drive(
    denali: &Denali,
    workload: Workload,
    reference: &[CompileResult],
    tracer: &Tracer,
    errors: &mut Vec<String>,
) -> Sums {
    let options = denali.options();
    let machine = &options.machine;
    let width = machine.issue_width();
    let mut sums = Sums::default();
    let pass = Instant::now();
    for ((name, source), expected) in workload.compile_set().iter().zip(reference) {
        let start = Instant::now();
        let prepared = match denali.prepare_source(source) {
            Ok(p) => p,
            Err(e) => {
                errors.push(format!("{name}: prepare failed: {e}"));
                continue;
            }
        };
        sums.lang_ms += ms_since(start);
        let mut produced = Vec::new();
        for gma in &prepared.gmas {
            let start = Instant::now();
            let matched =
                match matcher::match_gma_traced(gma, &prepared.axioms, &options.saturation, tracer)
                {
                    Ok(m) => m,
                    Err(e) => {
                        errors.push(format!("{}: match failed: {e}", gma.name));
                        break;
                    }
                };
            sums.saturate_ms += ms_since(start);
            let report = &matched.report;
            sums.rounds += report.rounds.len() as f64;
            sums.full_rounds += report.rounds.iter().filter(|r| r.full).count() as f64;
            sums.instances += report.instances as f64;
            sums.scanned += report.scanned_candidates as f64;
            sums.skipped += report.skipped_candidates as f64;
            let ops = matched.egraph.op_counts();
            sums.adds += ops.adds as f64;
            sums.memo_hits += ops.hits as f64;
            sums.unions += ops.unions as f64;
            sums.congruence_unions += ops.congruence_unions as f64;
            sums.folds += ops.folds as f64;
            sums.rebuilds += ops.rebuilds as f64;
            let memory = matched.egraph.memory_stats();
            sums.nodes += matched.egraph.num_nodes() as f64;
            sums.classes += matched.egraph.num_classes() as f64;
            sums.bytes += memory.total_bytes as f64;

            let start = Instant::now();
            let candidates = match machine_terms::enumerate_with_misses(
                &matched,
                machine,
                &gma.inputs(),
                options.load_latency,
                &gma.miss_addrs,
                options.miss_latency,
            ) {
                Ok(c) => c,
                Err(e) => {
                    errors.push(format!("{}: enumerate failed: {e}", gma.name));
                    break;
                }
            };
            sums.enumerate_ms += ms_since(start);
            sums.candidates += candidates.list.len() as f64;

            let params = SearchParams {
                solver: options.solver,
                max_cycles: options.max_cycles,
                threads: options.threads,
                incremental: options.incremental,
                dump: None,
                portfolio: options.portfolio,
                cancel: None,
            };
            let start = Instant::now();
            let outcome = match search::search_traced(
                gma,
                &matched,
                &candidates,
                machine,
                &options.encode,
                &params,
                tracer,
            ) {
                Ok(o) => o,
                Err(e) => {
                    errors.push(format!("{}: search failed: {e}", gma.name));
                    break;
                }
            };
            sums.search_ms += ms_since(start);
            sums.probes += outcome.probes.len() as f64;
            for probe in &outcome.probes {
                sums.encode_ms += probe.encode_ms;
                sums.solve_ms += probe.solve_ms;
                sums.vars_max = sums.vars_max.max(probe.vars as f64);
                sums.clauses_max = sums.clauses_max.max(probe.clauses as f64);
                if let Some(s) = &probe.solver {
                    sums.conflicts += s.conflicts as f64;
                    sums.decisions += s.decisions as f64;
                    sums.propagations += s.propagations as f64;
                }
            }
            produced.push((
                gma.name.clone(),
                outcome.cycles,
                outcome.refuted_below,
                outcome.program.listing(width),
            ));
        }
        if produced != outputs_of(expected) {
            errors.push(format!(
                "{name}: the layer-by-layer drive differs from compile_source"
            ));
        }
    }
    sums.pass_ms = ms_since(pass);
    sums
}

/// The stochastic programs of the serve stream's first leg.
fn stochastic_sources(legs: &[ServedLeg]) -> Vec<String> {
    let mut seen = HashSet::new();
    legs[0]
        .requests
        .iter()
        .filter_map(|r| match r {
            Request::Compile {
                source,
                engine: Engine::Stochastic,
                known_fault: None,
            } if seen.insert(source.clone()) => Some(source.clone()),
            _ => None,
        })
        .take(STOKE_PROGRAMS)
        .collect()
}

/// The traced run: drives each layer and collects every per-layer
/// metric.
///
/// # Errors
///
/// Fails if the server's `stats` answer is malformed.
pub fn traced(
    setup: &Setup,
    workload: Workload,
    reference: &[CompileResult],
    plain_s: &[f64],
    traced_s: &[f64],
    legs: &[ServedLeg],
    errors: &mut Vec<String>,
) -> Result<Layered, String> {
    let tracer = Tracer::new();
    let sums = drive(&setup.denali, workload, reference, &tracer, errors);
    let records = tracer.take_records();
    let ematch_ms = event_sum(&records, "ematch.chunk", "match_us") / 1e3;
    let round_ms = span_ms(&records, "saturate.round");
    let matches = event_sum(&records, "ematch.axiom", "matches");
    let applied = event_sum(&records, "ematch.axiom", "applied");
    let decode_ms = span_ms(&records, "search.decode");

    // The stoke layer, on the serve stream's stochastic programs.
    let stochastic = Denali::new(denali_core::Options {
        engine: EngineChoice::Stochastic,
        ..workload::pinned_options()
    });
    let mut stoke = (0.0, 0.0, 0.0);
    let sources = stochastic_sources(legs);
    for source in &sources {
        let tracer = Tracer::new();
        if let Err(e) = stochastic
            .with_tracer(tracer.clone())
            .compile_source(source)
        {
            errors.push(format!("stochastic drive failed: {e}"));
        }
        let records = tracer.take_records();
        stoke.0 += span_ms(&records, "stoke");
        stoke.1 += event_sum(&records, "stoke.done", "proposals");
        stoke.2 += event_sum(&records, "stoke.done", "accepted");
    }

    // The serve layer, from the server's own stats.
    let server = &setup.server.server;
    let mut stats_ms = Vec::with_capacity(STATS_CALLS);
    let mut stats_body = String::new();
    for _ in 0..STATS_CALLS {
        let start = Instant::now();
        stats_body = server
            .handle_line(r#"{"type":"stats","id":0}"#)
            .ok_or("no stats response")?;
        stats_ms.push(ms_since(start));
    }
    let stats =
        json::parse(&stats_body).map_err(|e| format!("stats response does not parse: {e}"))?;
    let at = |path: &[&str]| -> Result<f64, String> {
        let mut node = &stats;
        for key in path {
            node = node
                .get(key)
                .ok_or_else(|| format!("stats has no {}", path.join(".")))?;
        }
        node.as_f64()
            .ok_or_else(|| format!("stats {} is not a number", path.join(".")))
    };
    let stage_p50_ms = |stage: &str| at(&["latency", "stages", stage, "p50_us"]).map(|us| us / 1e3);
    let compile_requests = legs
        .iter()
        .flat_map(|l| &l.requests)
        .filter(|r| matches!(r, Request::Compile { .. }))
        .count() as f64;
    let hits = at(&["cache", "hits"])?;
    let coalesced = at(&["coalesce", "coalesced"])?;
    let late_max = legs
        .iter()
        .flat_map(|l| l.leg.late_ms.iter().copied())
        .fold(0.0, f64::max);

    let fixed = legs[0].latencies();
    // Traced `compile_source` passes only: the layer-by-layer drive
    // makes other calls and walks `memory_stats()`, so it is no
    // like-for-like sample.
    let compile_plain = median(plain_s);
    let compile_traced = median(traced_s);
    let attributed_ms = sums.lang_ms + sums.saturate_ms + sums.enumerate_ms + sums.search_ms;
    let metrics = vec![
        ("lang.prepare_ms", sums.lang_ms, "ms"),
        ("saturate.ms", sums.saturate_ms, "ms"),
        ("saturate.rounds", sums.rounds, "count"),
        ("saturate.full_rounds", sums.full_rounds, "count"),
        ("saturate.instances", sums.instances, "count"),
        ("saturate.ematch_ms", ematch_ms, "ms"),
        ("saturate.apply_rebuild_ms", round_ms - ematch_ms, "ms"),
        ("ematch.scanned", sums.scanned, "count"),
        ("ematch.skipped", sums.skipped, "count"),
        ("ematch.matches", matches, "count"),
        ("ematch.applied", applied, "count"),
        (
            "ematch.applied_per_match",
            applied / matches.max(1.0),
            "ratio",
        ),
        ("egraph.adds", sums.adds, "count"),
        ("egraph.memo_hits", sums.memo_hits, "count"),
        ("egraph.unions", sums.unions, "count"),
        ("egraph.congruence_unions", sums.congruence_unions, "count"),
        ("egraph.folds", sums.folds, "count"),
        ("egraph.rebuilds", sums.rebuilds, "count"),
        ("egraph.nodes", sums.nodes, "count"),
        ("egraph.classes", sums.classes, "count"),
        ("egraph.bytes", sums.bytes, "bytes"),
        ("enumerate.ms", sums.enumerate_ms, "ms"),
        ("enumerate.candidates", sums.candidates, "count"),
        ("search.ms", sums.search_ms, "ms"),
        ("search.probes", sums.probes, "count"),
        ("encode.ms", sums.encode_ms, "ms"),
        ("solve.ms", sums.solve_ms, "ms"),
        ("decode.ms", decode_ms, "ms"),
        ("sat.conflicts", sums.conflicts, "count"),
        ("sat.decisions", sums.decisions, "count"),
        ("sat.propagations", sums.propagations, "count"),
        ("sat.vars.max", sums.vars_max, "count"),
        ("sat.clauses.max", sums.clauses_max, "count"),
        ("stoke.ms", stoke.0, "ms"),
        ("stoke.proposals", stoke.1, "count"),
        ("stoke.accepted", stoke.2, "count"),
        ("serve.queue_ms.p50", stage_p50_ms("queue")?, "ms"),
        ("serve.execute_ms.p50", stage_p50_ms("execute")?, "ms"),
        ("serve.total_ms.p50", stage_p50_ms("total")?, "ms"),
        ("serve.executions", at(&["executions"])?, "count"),
        ("serve.hits", hits, "count"),
        ("serve.coalesced", coalesced, "count"),
        (
            "serve.hit_ratio",
            (hits + coalesced) / compile_requests.max(1.0),
            "ratio",
        ),
        ("serve.stats_ms", median(&stats_ms), "ms"),
        ("serve.latency_ms.p50", median(&fixed), "ms"),
        (
            "serve.latency_ms.p99",
            tail_quantile(&fixed, 0.99).unwrap_or(f64::INFINITY),
            "ms",
        ),
        ("serve.max_rate_rps", crate::run::max_rate(legs), "1/s"),
        ("client.late_ms.max", late_max, "ms"),
        ("trace.compile_s", compile_traced, "s"),
        ("trace.overhead_s", compile_traced - compile_plain, "s"),
        ("trace.unattributed_ms", sums.pass_ms - attributed_ms, "ms"),
    ];
    Ok(Layered {
        metrics,
        operations: (workload.compile_set().len() + sources.len() + STATS_CALLS) as u64,
    })
}
