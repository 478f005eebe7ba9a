//! The four workloads and the pinned configuration they run under.

use denali_arch::Machine;
use denali_axioms::SaturationLimits;
use denali_core::encode::EncodeOptions;
use denali_core::{EngineChoice, Options, SolverChoice, StokeKnobs};
use denali_serve::ServerConfig;

use crate::programs;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// byteswap4 + byteswap5: e-graph rebuild dominates.
    RebuildHeavy,
    /// wordswap32 + lcp2: e-matching of the AC axioms dominates.
    MatchHeavy,
    /// checksum: the SAT probe ladder dominates.
    SearchHeavy,
    /// A mixed open-loop request stream against the server.
    ServeMixed,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::RebuildHeavy,
    Workload::MatchHeavy,
    Workload::SearchHeavy,
    Workload::ServeMixed,
];

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RebuildHeavy => "rebuild-heavy",
            Workload::MatchHeavy => "match-heavy",
            Workload::SearchHeavy => "search-heavy",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The programs one compile pass runs through `compile_source`, as
    /// (name, source).
    pub fn compile_set(self) -> Vec<(String, String)> {
        let fixed = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(n, s)| ((*n).to_owned(), (*s).to_owned()))
                .collect()
        };
        match self {
            Workload::RebuildHeavy => fixed(&[
                ("byteswap4", programs::BYTESWAP4),
                ("byteswap5", programs::BYTESWAP5),
            ]),
            Workload::MatchHeavy => fixed(&[
                ("wordswap32", programs::WORDSWAP32),
                ("lcp2", programs::LCP2),
            ]),
            Workload::SearchHeavy => fixed(&[("checksum", programs::CHECKSUM)]),
            Workload::ServeMixed => programs::serve_compile_set(),
        }
    }

    /// Seconds one compile pass takes on the reference host (a 2-CPU
    /// container, release build). Only used to turn `--seconds` into a
    /// fixed number of passes, so that every run attempts the same
    /// operations whatever the host's speed.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::RebuildHeavy => 5.5,
            Workload::MatchHeavy => 2.0,
            Workload::SearchHeavy => 2.0,
            Workload::ServeMixed => 0.013,
        }
    }

    /// Seconds of a run of `seconds` given to compile passes. Serve-mixed
    /// gives a quarter of the run to them; a compile workload gives them
    /// what the smallest serve leg ([`MIN_FIXED_ROUNDS`] rounds at the
    /// fixed rate) leaves.
    fn compile_budget_s(self, seconds: u64) -> f64 {
        match self {
            Workload::ServeMixed => seconds as f64 * 0.25,
            _ => seconds as f64 - min_serve_s(),
        }
    }

    /// Compile passes per run for a run of `seconds`.
    pub fn passes(self, seconds: u64) -> usize {
        let budget = self.compile_budget_s(seconds);
        ((budget / self.nominal_pass_s()).round().max(0.0) as usize).max(3)
    }

    /// Rounds of the serve stream sent at the fixed offered rate, whose
    /// latencies are the reported `latency_ms` percentiles: at least
    /// [`MIN_FIXED_ROUNDS`], and on serve-mixed whatever its three
    /// quarters of the run leave after the ladder.
    pub fn fixed_rate_rounds(self, seconds: u64) -> usize {
        let rounds = match self {
            Workload::ServeMixed => {
                let serve_s = seconds as f64 * 0.75 - self.ladder_s();
                (serve_s * FIXED_RATE / programs::ROUND as f64).floor() as usize
            }
            _ => 0,
        };
        rounds.max(MIN_FIXED_ROUNDS)
    }

    /// The rates of the ladder's rungs above the fixed rate (the
    /// fixed-rate leg is its first rung). Only serve-mixed climbs it;
    /// on the compile workloads the fixed-rate leg is the only rung.
    pub fn ladder(self) -> &'static [f64] {
        match self {
            Workload::ServeMixed => &LADDER,
            _ => &[],
        }
    }

    /// Seconds the ladder's rungs take to send.
    fn ladder_s(self) -> f64 {
        let rung = (RUNG_ROUNDS * programs::ROUND) as f64;
        self.ladder().iter().map(|rate| rung / rate).sum()
    }
}

/// The fewest rounds the fixed-rate leg sends: 1080 requests, so its
/// p99 has ten samples beyond it.
pub const MIN_FIXED_ROUNDS: usize = 9;

/// Seconds the smallest serve leg takes to send.
fn min_serve_s() -> f64 {
    (MIN_FIXED_ROUNDS * programs::ROUND) as f64 / FIXED_RATE
}

/// Offered rate of the fixed-rate leg, requests per second: the rate
/// of the repository's documented mixed serving traffic (`serve_load`).
pub const FIXED_RATE: f64 = 120.0;

/// The serve-mixed ladder above the fixed rate. Each rung sends
/// [`RUNG_ROUNDS`] rounds.
const LADDER: [f64; 1] = [240.0];

/// Rounds per ladder rung: 1080 requests, so its p99 has ten samples
/// beyond it.
pub const RUNG_ROUNDS: usize = 9;

/// The p99 latency limit a rung must meet, milliseconds.
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// Server worker threads.
pub const WORKERS: usize = 1;

/// Proposal budget of a stochastic-engine compile in the serve leg.
pub const STOKE_ITERATIONS: u64 = 500;

/// The pipeline options every compile runs under, with every field the
/// benchmark depends on set explicitly (`Options::default()` would read
/// `DENALI_THREADS`, `DENALI_ENGINE`, `DENALI_INCREMENTAL`,
/// `DENALI_PORTFOLIO`, `DENALI_TRACE`, `DENALI_DELTA_MATCH` and the
/// stochastic knobs from the environment).
#[allow(clippy::needless_update)]
pub fn pinned_options() -> Options {
    Options {
        machine: Machine::ev6(),
        saturation: SaturationLimits {
            max_iterations: 16,
            max_nodes: 20_000,
            max_instances_per_round: 10_000,
            max_structural_per_round: 1500,
            pow2_facts: true,
            max_structural_growth: 4000,
            threads: 1,
            delta_match: true,
            max_classes: u32::MAX as usize,
            ..SaturationLimits::default()
        },
        encode: EncodeOptions {
            speculate_loads: true,
            ..EncodeOptions::default()
        },
        solver: SolverChoice::Cdcl,
        max_cycles: 48,
        extra_axioms: Vec::new(),
        load_latency: None,
        miss_latency: 20,
        dump_dimacs: None,
        pipeline_loads: false,
        threads: 1,
        incremental: true,
        portfolio: 0,
        trace: false,
        cancel: None,
        engine: EngineChoice::Sat,
        stoke: StokeKnobs {
            seed: 0x5EED_CAFE_D15C_0B01,
            iterations: STOKE_ITERATIONS,
            auto_iterations: 6_000,
            ..StokeKnobs::default()
        },
        anytime: None,
        // Fields added after this benchmark was written keep their
        // defaults until the benchmark pins them.
        ..Options::default()
    }
}

/// The server configuration of the serve leg. The admission queue is
/// large enough that no request is ever shed: overload shows as a
/// growing backlog, never as a failed request.
#[allow(clippy::needless_update)]
pub fn server_config() -> ServerConfig {
    ServerConfig {
        base: pinned_options(),
        workers: WORKERS,
        queue: 1 << 14,
        cache_bytes: 64 << 20,
        cache_dir: None,
        coalesce: true,
        verbose: false,
        flight_capacity: 256,
        slow_ms: None,
        spool_dir: None,
        trace_sample: 0,
        ..ServerConfig::default()
    }
}

/// The effective options, one `key=value` per field the benchmark
/// pins, for the report.
pub fn describe_options(options: &Options) -> String {
    let s = &options.saturation;
    format!(
        "machine={} solver={:?} engine={} max_cycles={} threads={} incremental={} portfolio={} \
         trace={} delta_match={} max_iterations={} max_nodes={} max_instances_per_round={} \
         max_structural_per_round={} max_structural_growth={} pow2_facts={} \
         speculate_loads={} pipeline_loads={} miss_latency={} stoke_seed={:#x} \
         stoke_iterations={} workers={WORKERS} fixed_rate={FIXED_RATE} serve_mixed_ladder={LADDER:?} \
         limit_ms={LATENCY_LIMIT_MS}",
        options.machine.name(),
        options.solver,
        options.engine.as_str(),
        options.max_cycles,
        options.threads,
        options.incremental,
        options.portfolio,
        options.trace,
        s.delta_match,
        s.max_iterations,
        s.max_nodes,
        s.max_instances_per_round,
        s.max_structural_per_round,
        s.max_structural_growth,
        s.pow2_facts,
        options.encode.speculate_loads,
        options.pipeline_loads,
        options.miss_latency,
        options.stoke.seed,
        options.stoke.iterations,
    )
}
