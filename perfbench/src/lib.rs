//! The benchmark of the COM simulator and its service runtime.
//!
//! Three workloads — `sim_dispatch`, `sim_alloc` and `serve_closed` — each
//! run a fixed schedule drawn from a seed, check every answer, and report
//! end-to-end metrics from an untraced run; a traced run adds per-layer
//! metrics. The benchmark measures each layer only from outside: it times
//! its own calls into the layers' public functions and reads their public
//! counters. See `README.md` beside this crate for every metric.

#![forbid(unsafe_code)]

pub mod counters;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod rng;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;

use com_vm::Word;
use com_workloads::Workload;

use crate::json::Json;
use crate::metrics::Metrics;
use crate::stats::Pct;
use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Closed loop over the send-heavy programs.
    SimDispatch,
    /// Closed loop over the allocating programs under generational GC.
    SimAlloc,
    /// A fixed number of requests kept outstanding against a `Server`.
    ServeClosed,
}

impl Bench {
    /// Every workload, in report order.
    pub const ALL: [Bench; 3] = [Bench::SimDispatch, Bench::SimAlloc, Bench::ServeClosed];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Bench::SimDispatch => "sim_dispatch",
            Bench::SimAlloc => "sim_alloc",
            Bench::ServeClosed => "serve_closed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// How to run a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Seed of the schedule.
    pub seed: u64,
    /// Requested measured time; it sizes the fixed schedule.
    pub seconds: f64,
    /// Add the traced run and report per-layer metrics.
    pub trace: bool,
    /// Latency limit for goodput, milliseconds.
    pub limit_ms: f64,
}

/// Untraced passes over the schedule per run. Each runs the whole
/// schedule on a fresh session or server; their simulated totals must
/// match exactly, and the end-to-end metrics pool their measurements.
pub const PASSES: usize = 3;

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wrong answers and count mismatches; empty when the run is correct.
    pub problems: Vec<String>,
    /// Measured operations attempted (sends or submissions).
    pub attempted: u64,
    /// Those that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics, and per-layer ones when traced.
    pub metrics: Metrics,
    /// Sample counts, reported percentiles and schedule sizes.
    pub notes: Vec<(String, Json)>,
    /// The simulated totals of one pass over the schedule, which repeat
    /// exactly for one seed.
    pub fingerprint: String,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Whether every answer and every count check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a numeric note.
    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.push((key.to_string(), Json::Num(value)));
    }

    /// Records which percentile a metric reports and its sample count.
    pub fn note_pct(&mut self, metric: &str, p: Pct) {
        self.notes.push((
            metric.to_string(),
            Json::obj([
                ("percentile", Json::Num(p.pct)),
                ("samples", Json::Int(p.n as i64)),
                ("blocks", Json::Int(p.blocks as i64)),
            ]),
        ));
    }

    /// Records a list of numbers.
    pub fn note_all(&mut self, key: &str, values: &[f64]) {
        self.notes.push((key.to_string(), nums(values)));
    }
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Runs one workload.
pub fn run(bench: Bench, opts: &Opts) -> Outcome {
    let mut out = match bench {
        Bench::SimDispatch => sim::run(sim::SimKind::Dispatch, opts),
        Bench::SimAlloc => sim::run(sim::SimKind::Alloc, opts),
        Bench::ServeClosed => serve::run(opts),
    };
    if let Some(t) = &out.tracer {
        out.metrics.set("bench.spans", t.spans().len() as f64);
    }
    out
}

/// The programs' sources joined into one image's source.
pub fn joined_source(programs: &[Workload]) -> String {
    programs
        .iter()
        .map(|w| w.source)
        .collect::<Vec<_>>()
        .join("\n")
}

/// `Ok` if `got` is the program's expected answer.
pub fn check_answer(w: &Workload, got: Word) -> Result<(), String> {
    if got == Word::Int(w.expected) {
        Ok(())
    } else {
        Err(format!(
            "{} answered {got:?}, expected {}",
            w.name, w.expected
        ))
    }
}
