//! The closed-loop workloads: one client thread drives one session
//! through a seeded order of entry sends, each started only after the
//! previous one returned.

use std::time::Instant;

use com_core::{CycleStats, MachineConfig};
use com_vm::{Session, Word};
use com_workloads::{self as wl, Workload, MAX_STEPS};

use crate::counters::{add_cycles, Counters};
use crate::host::thread_cpu_s;
use crate::layers::{builder, itlb_probe_ns, setup_steps};
use crate::rng::rounds_schedule;
use crate::stats::{block_percentile, fastest, fastest_of_passes, median, quantile, ratio};
use crate::trace::Tracer;
use crate::{check_answer, joined_source, Opts, Outcome, PASSES};

/// The send-heavy programs: dispatch, the ITLB, the icache and the
/// context cache do nearly all the work.
pub const DISPATCH_MIX: [Workload; 6] = [
    wl::CALLS,
    wl::DISPATCH,
    wl::SCHEDULER,
    wl::ARITH,
    wl::SORT,
    wl::DNU_PROXY,
];

/// The allocating programs: GC, promotion, `rawGrow:` aliasing and
/// non-LIFO contexts.
pub const ALLOC_MIX: [Workload; 5] = [
    wl::TREES,
    wl::COLLECTIONS,
    wl::CHURN,
    wl::IMAGE,
    wl::CLOSURES,
];

/// Minor collections every this many steps in `sim_alloc` (the cadence of
/// the GC bench).
pub const MINOR_INTERVAL: u64 = 1009;

/// Full collections every `MINOR_INTERVAL * FULL_FACTOR` steps.
pub const FULL_FACTOR: u64 = 8;

/// Which closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// `sim_dispatch`: the send-heavy mix on the paper machine, no
    /// periodic GC.
    Dispatch,
    /// `sim_alloc`: the allocating mix under generational GC.
    Alloc,
}

impl SimKind {
    /// The programs this workload sends to.
    pub fn programs(self) -> &'static [Workload] {
        match self {
            SimKind::Dispatch => &DISPATCH_MIX,
            SimKind::Alloc => &ALLOC_MIX,
        }
    }

    /// The machine its session boots with.
    pub fn config(self) -> MachineConfig {
        match self {
            SimKind::Dispatch => MachineConfig::default(),
            SimKind::Alloc => MachineConfig::default()
                .with_generational_gc(MINOR_INTERVAL, MINOR_INTERVAL * FULL_FACTOR),
        }
    }

    /// Rounds (one send of every program each) scheduled per requested
    /// second, over all passes. Fixed, so a seed fixes the whole schedule;
    /// chosen so a run lasts about the requested time on a 2-core Xeon
    /// host.
    pub fn rounds_per_second(self) -> f64 {
        match self {
            SimKind::Dispatch => 120.0,
            SimKind::Alloc => 60.0,
        }
    }
}

/// Chunks a pass is cut into. The report notes every chunk's rate, so a
/// slow stretch of the host shows.
pub const CHUNKS: usize = 32;

/// The percentile of a program's send latencies taken as its floor (see
/// [`Floors`]): low enough to catch the host at full speed, high enough
/// that a 20 s run has over ten sends of each program below it.
pub const FLOOR_PCT: f64 = 1.0;

/// Most blocks a latency percentile is taken over (see
/// [`block_percentile`]).
pub const BLOCKS: usize = 32;

/// Set-ups per run: a set-up takes about a millisecond, so many are
/// cheap. They come in [`PASSES`]` + 1` equal groups, one before each pass
/// and one after the last, so they meet the host at several moments, and
/// the fastest is reported.
pub const SETUP_REPS: usize = 100;

/// Part of a measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Chunk {
    /// Host time.
    pub seconds: f64,
    /// Host CPU time of the client thread (its host time where that is not
    /// available, and on `serve_closed`).
    pub cpu_seconds: f64,
    /// Sends or requests answered or refused: the chunk's latency samples.
    pub sends: u64,
    /// Simulated instructions.
    pub instructions: u64,
    /// Sends or requests answered within the latency limit.
    pub within: u64,
}

impl Chunk {
    /// The chunks taken together.
    pub fn total(chunks: &[Chunk]) -> Chunk {
        chunks.iter().fold(Chunk::default(), |a, c| Chunk {
            seconds: a.seconds + c.seconds,
            cpu_seconds: a.cpu_seconds + c.cpu_seconds,
            sends: a.sends + c.sends,
            instructions: a.instructions + c.instructions,
            within: a.within + c.within,
        })
    }
}

/// One pass over a schedule.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host latency of every measured send, in milliseconds
    /// ([`FAILED_MS`](crate::serve::FAILED_MS) for a failed send).
    pub latencies_ms: Vec<f64>,
    /// Simulated instructions of every measured send, in the same order.
    pub instructions: Vec<u64>,
    /// Host time of the measured window.
    pub window_s: f64,
    /// The window cut into about [`CHUNKS`] runs of whole rounds.
    pub chunks: Vec<Chunk>,
    /// The session's counters over the measured window.
    pub counters: Counters,
    /// The sum of every send's `stats().since(before)` delta.
    pub send_sum: CycleStats,
    /// Sends that ended in a typed error.
    pub failed: u64,
    /// Wrong answers.
    pub problems: Vec<String>,
}

/// Runs one warm-up send of each program (checked, not measured), resets
/// the session's statistics, then sends `schedule` in order, checking
/// every answer. With a tracer each send gets a `vm.send_raw` span.
pub fn pass(
    mut session: Session,
    programs: &[Workload],
    schedule: &[usize],
    limit_ms: f64,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut out = Pass::default();
    for w in programs {
        match session.send_raw(w.entry, Word::Int(w.size), &[], MAX_STEPS) {
            Ok(r) => out.problems.extend(check_answer(w, r.result).err()),
            Err(e) => out
                .problems
                .push(format!("warm-up send of {} failed: {e}", w.name)),
        }
    }
    session.reset_stats();
    out.latencies_ms.reserve(schedule.len());
    let root = tracer.as_deref_mut().map(|t| t.enter("bench.pass", 0));
    let rounds = schedule.len() / programs.len().max(1);
    let chunk_len = programs.len() * (rounds / CHUNKS).max(1);
    let mut chunk = Chunk::default();
    let start = Instant::now();
    let mut chunk_start = (start, thread_cpu_s());
    for (i, &p) in schedule.iter().enumerate() {
        let w = &programs[p];
        let before = session.stats();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.enter("vm.send_raw", i as u64 + 1));
        let t = Instant::now();
        let result = session.send_raw(w.entry, Word::Int(w.size), &[], MAX_STEPS);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.exit(span);
        }
        match result {
            Ok(r) => {
                out.latencies_ms.push(ms);
                out.problems.extend(check_answer(w, r.result).err());
            }
            Err(_) => {
                // A failed send misses every latency limit.
                out.latencies_ms.push(crate::serve::FAILED_MS);
                out.failed += 1;
            }
        }
        let delta = session.stats().since(&before);
        add_cycles(&mut out.send_sum, &delta);
        out.instructions.push(delta.instructions);
        chunk.sends += 1;
        chunk.instructions += delta.instructions;
        chunk.within += u64::from(out.latencies_ms[i] <= limit_ms);
        if (i + 1) % chunk_len == 0 || i + 1 == schedule.len() {
            let now = (Instant::now(), thread_cpu_s());
            chunk.seconds = (now.0 - chunk_start.0).as_secs_f64();
            chunk.cpu_seconds = match (now.1, chunk_start.1) {
                (Some(b), Some(a)) => b - a,
                _ => chunk.seconds,
            };
            out.chunks.push(std::mem::take(&mut chunk));
            chunk_start = now;
        }
    }
    out.window_s = start.elapsed().as_secs_f64();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.exit(root);
    }
    out.counters = Counters::of(&session);
    out
}

/// `count(chunk) / seconds(chunk)` of every chunk.
pub fn chunk_rates(
    chunks: &[Chunk],
    count: impl Fn(&Chunk) -> u64,
    seconds: impl Fn(&Chunk) -> f64,
) -> Vec<f64> {
    chunks
        .iter()
        .map(|c| ratio(count(c) as f64, seconds(c)))
        .collect()
}

/// What each program's send takes with the host at full speed. Every send
/// of a program does the same simulated work, and other tenants of a
/// shared host only ever slow a send down, so a low percentile of a
/// program's latencies (its floor, [`FLOOR_PCT`]) is the steadiest figure
/// of the program's own speed, as the fastest repetition is for a timing
/// loop. Any stretch of a run at full speed reaches it; a rate taken over
/// a whole run, or over its fastest chunk, follows how long the host was
/// slow in that run.
#[derive(Debug, Clone, PartialEq)]
pub struct Floors {
    /// Each program's floor latency, milliseconds.
    pub ms: Vec<f64>,
    /// Each program's simulated instructions per send.
    pub instructions: Vec<f64>,
}

impl Floors {
    /// The floors of `programs` programs, from sends of `sent[i]` that
    /// took `latencies_ms[i]` and retired `instructions[i]`.
    pub fn of(
        programs: usize,
        sent: &[usize],
        latencies_ms: &[f64],
        instructions: &[u64],
    ) -> Floors {
        let mut latencies = vec![Vec::new(); programs];
        let mut retired = vec![(0u64, 0u64); programs];
        for ((&p, &ms), &n) in sent.iter().zip(latencies_ms).zip(instructions) {
            latencies[p].push(ms);
            retired[p].0 += n;
            retired[p].1 += 1;
        }
        Floors {
            ms: latencies
                .iter()
                .map(|l| quantile(l, FLOOR_PCT).unwrap_or(0.0))
                .collect(),
            instructions: retired
                .iter()
                .map(|&(n, k)| ratio(n as f64, k as f64))
                .collect(),
        }
    }

    /// The latencies of one pass (in schedule order, program `sent[i]`
    /// sent at `i`) as they would read with the host at full speed: the
    /// pass is cut into [`CHUNKS`] stretches of consecutive sends, and each
    /// stretch is divided by how much slower than their programs' floors
    /// its sends ran (the median of latency over floor). The host's slow
    /// phases last seconds, longer than a stretch, so this takes them out;
    /// a send that is slow for its own reasons, such as a full collection,
    /// stays slow against the others of its stretch.
    pub fn at_full_speed(&self, sent: &[usize], latencies_ms: &[f64]) -> Vec<f64> {
        let n = latencies_ms.len().min(sent.len());
        let stretches = CHUNKS.min(n).max(1);
        let mut out = Vec::with_capacity(n);
        for s in 0..stretches {
            let range = s * n / stretches..(s + 1) * n / stretches;
            let slowdown: Vec<f64> = range
                .clone()
                .map(|i| ratio(latencies_ms[i], self.ms[sent[i]]))
                .collect();
            let slowdown = median(&slowdown);
            out.extend(range.map(|i| ratio(latencies_ms[i], slowdown)));
        }
        out
    }

    /// Simulated instructions per second over one send of each program.
    pub fn minstr_per_s(&self) -> f64 {
        ratio(self.instructions.iter().sum(), self.round_s()) / 1e6
    }

    /// The median send latency: every program is sent equally often, so
    /// it is the median of the floors.
    pub fn p50_ms(&self) -> f64 {
        median(&self.ms)
    }

    /// Sends per second over one send of each program.
    pub fn sends_per_s(&self) -> f64 {
        ratio(self.ms.len() as f64, self.round_s())
    }

    fn round_s(&self) -> f64 {
        self.ms.iter().sum::<f64>() / 1e3
    }
}

/// Runs a closed-loop workload: set-up (repeated, median reported),
/// [`PASSES`] measured passes over one schedule, each on a fresh session,
/// and with `opts.trace` a traced pass plus the per-layer measurements.
pub fn run(kind: SimKind, opts: &Opts) -> Outcome {
    let programs = kind.programs();
    let source = joined_source(programs);
    let config = kind.config();

    let per_group = (SETUP_REPS / (PASSES + 1)).max(1);
    let mut setups = Vec::new();
    let mut set_up = || {
        let mut last = None;
        for _ in 0..per_group {
            let t = Instant::now();
            let vm = builder(&source, config, false)
                .build()
                .expect("shipped programs build");
            let session = vm.session().expect("sessions boot");
            setups.push(t.elapsed().as_secs_f64());
            last = Some((vm, session));
        }
        last.expect("at least one set-up")
    };

    let per_pass = opts.seconds / PASSES as f64;
    let rounds = ((per_pass * kind.rounds_per_second()).round() as usize).max(1);
    let schedule = rounds_schedule(opts.seed, programs.len(), rounds);
    let mut passes = Vec::new();
    let mut kept = None;
    for _ in 0..PASSES {
        let (vm, session) = set_up();
        passes.push(pass(session, programs, &schedule, opts.limit_ms, None));
        kept = Some(vm);
    }
    set_up();
    let vm = kept.expect("at least one pass");
    let first = &passes[0];

    let mut out = Outcome {
        attempted: (schedule.len() * passes.len()) as u64,
        ..Outcome::default()
    };
    for p in &passes {
        out.failed += p.failed;
        out.problems.extend(p.problems.iter().cloned());
        if p.send_sum != p.counters.cycles {
            out.problems
                .push("per-send stats deltas do not add up to the window's totals".into());
        }
    }
    if passes.iter().any(|p| p.counters != first.counters) {
        out.problems
            .push("a repeat pass's simulated totals differ from the first pass's".into());
    }
    let chunks: Vec<Chunk> = passes.iter().flat_map(|p| p.chunks.clone()).collect();
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.clone()).collect();
    let instructions: Vec<u64> = passes.iter().flat_map(|p| p.instructions.clone()).collect();
    let sent: Vec<usize> = passes.iter().flat_map(|_| schedule.clone()).collect();
    let floors = Floors::of(programs.len(), &sent, &latencies, &instructions);
    let minstr = floors.minstr_per_s();
    // The sends beyond the 99th percentile are few and uneven, such as
    // those that run a full collection; a floor would leave them out.
    let scaled: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| floors.at_full_speed(&schedule, &p.latencies_ms))
        .collect();
    let tail = fastest_of_passes(scaled.iter().map(Vec::as_slice));
    let p99 = block_percentile(&tail, 99.0, BLOCKS).expect("latencies were taken");
    let within = Chunk::total(&chunks).within;
    let m = &mut out.metrics;
    m.set("setup_s", fastest(&setups));
    m.set("peak_rss_mb", crate::host::peak_rss_mb());
    m.set(
        "ok_share",
        ratio((out.attempted - out.failed) as f64, out.attempted as f64),
    );
    m.set("sim_minstr_per_s", minstr);
    m.set("sim_cpi", first.counters.cpi());
    m.set("req_p50_ms", floors.p50_ms());
    m.set("req_p99_ms", p99.value);
    m.set(
        "goodput_rps",
        floors.sends_per_s() * ratio(within as f64, out.attempted as f64),
    );
    out.note_all("floor_ms", &floors.ms);
    out.note_pct("req_p99_ms", p99);
    out.note_all("setup_s", &setups);
    // Per CPU second of the client thread, so time the host takes the
    // thread off its CPU does not count against it.
    let minstr_rates: Vec<f64> = chunk_rates(&chunks, |c| c.instructions, |c| c.cpu_seconds)
        .into_iter()
        .map(|r| r / 1e6)
        .collect();
    out.note_all("chunk_minstr_per_s", &minstr_rates);
    out.note("rounds_per_pass", rounds as f64);
    out.note("passes", passes.len() as f64);
    out.note("sends", out.attempted as f64);
    out.note("window_s", passes.iter().map(|p| p.window_s).sum::<f64>());
    out.fingerprint = format!("{:?}", first.counters);

    if opts.trace {
        let mut tracer = Tracer::new();
        let session = vm.session().expect("sessions boot");
        let traced = pass(
            session,
            programs,
            &schedule,
            opts.limit_ms,
            Some(&mut tracer),
        );
        if traced.counters != first.counters || traced.problems != first.problems {
            out.problems
                .push("traced pass diverged from the untraced pass".into());
        }
        let m = &mut out.metrics;
        traced.counters.layer_metrics(m);
        let send_ns: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "vm.send_raw")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        m.set(
            "vm.send_ns_per_instr",
            ratio(send_ns as f64, traced.counters.cycles.instructions as f64),
        );
        // How many times slower the headline reads when traced.
        let traced_floors = Floors::of(
            programs.len(),
            &schedule,
            &traced.latencies_ms,
            &traced.instructions,
        );
        m.set(
            "bench.trace_overhead",
            ratio(minstr, traced_floors.minstr_per_s()),
        );
        m.set("bench.sends", schedule.len() as f64);
        setup_steps(&source, config, false, SETUP_REPS, &mut tracer, m);
        let (probe_ns, keys) = itlb_probe_ns(&vm, programs);
        m.set("obj.itlb_probe_ns", probe_ns);
        m.set("bench.capture_keys", keys as f64);
        out.tracer = Some(tracer);
    }
    out
}
