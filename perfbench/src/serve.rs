//! The server workload `serve_closed`: one generator thread keeps one
//! request per worker outstanding against a `Server` and submits the next
//! request of a seeded schedule each time one is answered.
//!
//! An open loop at fixed rates measures, on a shared virtual machine, how
//! long the host takes to wake an idle thread; so does a loop that keeps
//! a queue full, through the wait behind the request ahead. With one
//! request per worker each request's latency is its own path through the
//! server — admission, the worker's claim, its slices, the answer — and,
//! as on the closed loops over one session, each program's floor is taken
//! as its speed (see [`Floors`]).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use com_core::{CycleStats, MachineConfig};
use com_vm::server::{Request, Response, Server, ServerConfig, ServerStats, TenantConfig, Ticket};

use com_workloads::{self as wl, Workload};

use crate::counters::{add_cycles, Counters};
use crate::layers::{builder, itlb_probe_ns, setup_steps, timed};
use crate::rng::{request_schedule, Pick};
use crate::sim::{chunk_rates, Chunk, Floors, BLOCKS, CHUNKS};
use crate::stats::{block_percentile, fastest, fastest_of_passes, percentile, ratio};
use crate::trace::Tracer;
use crate::{check_answer, host, joined_source, Opts, Outcome, PASSES};

/// Tenants registered at set-up, each with its own session and heap.
pub const TENANTS: usize = 256;

/// What requests ask for: the send-heavy programs plus `trees`.
pub const SERVE_MIX: [Workload; 7] = [
    wl::CALLS,
    wl::DISPATCH,
    wl::SCHEDULER,
    wl::ARITH,
    wl::SORT,
    wl::DNU_PROXY,
    wl::TREES,
];

/// Set-ups per run: each boots every tenant, so fewer than the closed
/// loops over one session use. They come in [`PASSES`]` + 1` equal groups,
/// one before each pass and one after the last, so they meet the host at
/// several moments, and the fastest is reported. The last server of a
/// group before a pass serves that pass; the others are drained at once,
/// so only one server is alive at a time.
pub const SETUP_REPS: usize = 24;

/// Requests kept outstanding per server worker: a worker never has a
/// request waiting behind the one it runs.
pub const OUTSTANDING_PER_WORKER: usize = 1;

/// Server workers: one per core but one, which is left to the generator,
/// so the run never has more busy threads than cores. Each further busy
/// thread would be measuring the host's scheduler, not the server.
pub fn workers() -> usize {
    host::cores().saturating_sub(1).max(1)
}

/// Requests scheduled per requested second, over all passes. Fixed, so a
/// seed fixes the whole schedule; chosen so a run lasts about the
/// requested time on a 2-core Xeon host.
pub const REQUESTS_PER_SECOND: f64 = 300.0;

/// The latency a failed or refused request counts with: longer than any
/// limit, so it misses it.
pub const FAILED_MS: f64 = 60_000.0;

/// One request the generator is waiting on (beside its [`Ticket`]).
#[derive(Debug)]
struct Pending {
    request: u64,
    program: usize,
    queued_at: Instant,
    submitted: Instant,
    admitted: Instant,
}

/// What one pass over the schedule measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// Latency of every request (admission to response), in schedule
    /// order, in milliseconds ([`FAILED_MS`] for a failed or refused
    /// request).
    pub latencies_ms: Vec<f64>,
    /// Simulated instructions of every request, in schedule order.
    pub instructions: Vec<u64>,
    /// Requests answered or refused so far.
    pub done: u64,
    /// The pass cut into about [`CHUNKS`] runs of answered requests.
    pub chunks: Vec<Chunk>,
    /// Requests in the schedule.
    pub attempted: u64,
    /// Failed or refused requests.
    pub failed: u64,
    /// Admission refusals among the failures.
    pub refused: u64,
    /// Sum of every response's `stats`.
    pub cycles: CycleStats,
    /// Responses received.
    pub responses: u64,
    /// Sum of the responses' attempts.
    pub attempts: u64,
    /// Host time of each `Server::submit` (traced only), microseconds.
    pub submit_us: Vec<f64>,
    /// `Server::queued` before each submission (traced only).
    pub queued: Vec<f64>,
    /// Wrong answers.
    pub problems: Vec<String>,
}

impl Drive {
    /// Closes the current chunk after every `chunk_len` answered requests
    /// and after the last one.
    fn count(&mut self, chunk: &mut (Chunk, Instant), chunk_len: usize) {
        chunk.0.sends += 1;
        self.done += 1;
        if self.done.is_multiple_of(chunk_len as u64) || self.done == self.attempted {
            let now = Instant::now();
            chunk.0.seconds = (now - chunk.1).as_secs_f64();
            chunk.0.cpu_seconds = chunk.0.seconds;
            self.chunks.push(std::mem::take(&mut chunk.0));
            chunk.1 = now;
        }
    }

    fn settle(
        &mut self,
        p: Pending,
        resp: Response,
        limit_ms: f64,
        chunk: &mut (Chunk, Instant),
        chunk_len: usize,
        tracer: Option<&mut Tracer>,
    ) {
        let ms = resp.latency.as_secs_f64() * 1e3;
        let at = p.request as usize - 1;
        self.responses += 1;
        self.attempts += u64::from(resp.attempts);
        add_cycles(&mut self.cycles, &resp.stats);
        chunk.0.instructions += resp.stats.instructions;
        self.instructions[at] = resp.stats.instructions;
        match resp.outcome {
            Ok(word) => {
                self.latencies_ms[at] = ms;
                chunk.0.within += u64::from(ms <= limit_ms);
                self.problems
                    .extend(check_answer(&SERVE_MIX[p.program], word).err());
            }
            Err(_) => {
                self.latencies_ms[at] = FAILED_MS;
                self.failed += 1;
            }
        }
        if let Some(t) = tracer {
            let end = t.ns(p.submitted + resp.latency);
            let root = t.record("request", t.ns(p.queued_at), end, None, p.request);
            t.record(
                "server.queued",
                t.ns(p.queued_at),
                t.ns(p.submitted),
                Some(root),
                p.request,
            );
            t.record(
                "server.submit",
                t.ns(p.submitted),
                t.ns(p.admitted),
                Some(root),
                p.request,
            );
            let from = t.ns(p.admitted);
            t.record(
                "server.queue_and_run",
                from,
                end.max(from),
                Some(root),
                p.request,
            );
        }
        self.count(chunk, chunk_len);
    }
}

/// Sends `schedule` through `server`, keeping `outstanding` requests in
/// flight, and checks every answer. Request ids are schedule positions
/// plus one.
pub fn drive(
    server: &Server,
    schedule: &[Pick],
    names: &[String],
    limit_ms: f64,
    outstanding: usize,
    mut tracer: Option<&mut Tracer>,
) -> Drive {
    let mut out = Drive {
        attempted: schedule.len() as u64,
        latencies_ms: vec![FAILED_MS; schedule.len()],
        instructions: vec![0; schedule.len()],
        ..Drive::default()
    };
    let chunk_len = (schedule.len() / CHUNKS).max(1);
    let mut chunk = (Chunk::default(), Instant::now());
    let mut in_flight: VecDeque<(Ticket, Pending)> = VecDeque::new();
    let mut next = 0;
    loop {
        while in_flight.len() < outstanding.max(1) && next < schedule.len() {
            let pick = schedule[next];
            let w = &SERVE_MIX[pick.program];
            let queued_at = Instant::now();
            if tracer.is_some() {
                out.queued.push(server.queued() as f64);
            }
            let submitted = Instant::now();
            let result = server.submit(&names[pick.tenant], Request::new(w.entry, w.size));
            let admitted = Instant::now();
            if tracer.is_some() {
                out.submit_us
                    .push((admitted - submitted).as_secs_f64() * 1e6);
            }
            match result {
                Ok(ticket) => in_flight.push_back((
                    ticket,
                    Pending {
                        request: next as u64 + 1,
                        program: pick.program,
                        queued_at,
                        submitted,
                        admitted,
                    },
                )),
                Err(_) => {
                    out.failed += 1;
                    out.refused += 1;
                    out.count(&mut chunk, chunk_len);
                }
            }
            next += 1;
        }
        // Poll for the oldest request's answer, then take every other
        // answer that has already arrived. Polling keeps the generator on
        // its core: the next request is admitted within microseconds of an
        // answer, before the worker that gave it goes idle, so a request's
        // path holds no wake-up of a thread the host has descheduled.
        let Some((ticket, oldest)) = in_flight.pop_front() else {
            break;
        };
        let resp = loop {
            if let Some(resp) = ticket.try_wait() {
                break resp;
            }
            std::hint::spin_loop();
        };
        out.settle(
            oldest,
            resp,
            limit_ms,
            &mut chunk,
            chunk_len,
            tracer.as_deref_mut(),
        );
        let mut i = 0;
        while i < in_flight.len() {
            match in_flight[i].0.try_wait() {
                Some(resp) => {
                    let (_, p) = in_flight.remove(i).expect("index is in range");
                    out.settle(
                        p,
                        resp,
                        limit_ms,
                        &mut chunk,
                        chunk_len,
                        tracer.as_deref_mut(),
                    );
                }
                None => i += 1,
            }
        }
    }
    out
}

/// A started server with every tenant registered.
struct Setup {
    server: Server,
    seconds: f64,
    register_ms: f64,
}

/// Builds the image (with whole-image analysis for ITLB pre-seeding),
/// starts a server with [`workers`] workers and registers every tenant.
fn setup(source: &str, names: &[String], mut tracer: Option<&mut Tracer>) -> Setup {
    let t = Instant::now();
    let (vm, _) = timed(tracer.as_deref_mut(), "vm.build", || {
        builder(source, MachineConfig::default(), true)
            .build()
            .expect("shipped programs build")
    });
    let config = ServerConfig {
        workers: workers(),
        ..ServerConfig::default()
    };
    let (server, _) = timed(tracer.as_deref_mut(), "server.start", || {
        Server::start(vm, config)
    });
    let mut register_ms = 0.0;
    for name in names {
        let (r, ms) = timed(tracer.as_deref_mut(), "server.register", || {
            server.register(name, TenantConfig::default())
        });
        r.expect("tenants register");
        register_ms += ms;
    }
    Setup {
        server,
        seconds: t.elapsed().as_secs_f64(),
        register_ms,
    }
}

/// One pass on one server, then its drain.
#[derive(Debug)]
struct Served {
    drive: Drive,
    stats: ServerStats,
    drain_ms: f64,
    sessions: Counters,
}

impl Served {
    fn fingerprint(&self) -> String {
        format!("{:?} {:?}", self.drive.cycles, self.sessions)
    }

    /// Each program's floor over this pass.
    fn floors(&self, schedule: &[Pick]) -> Floors {
        let sent: Vec<usize> = schedule.iter().map(|p| p.program).collect();
        Floors::of(
            SERVE_MIX.len(),
            &sent,
            &self.drive.latencies_ms,
            &self.drive.instructions,
        )
    }
}

fn serve(
    server: Server,
    schedule: &[Pick],
    names: &[String],
    limit_ms: f64,
    mut tracer: Option<&mut Tracer>,
) -> Served {
    let outstanding = OUTSTANDING_PER_WORKER * workers();
    let drive = drive(
        &server,
        schedule,
        names,
        limit_ms,
        outstanding,
        tracer.as_deref_mut(),
    );
    let stats = server.stats();
    let (report, drain_ms) = timed(tracer, "server.drain", || server.drain(Duration::ZERO));
    let mut sessions = Counters::default();
    for (_, s) in &report.sessions {
        sessions.absorb(&Counters::of(s));
    }
    Served {
        drive,
        stats,
        drain_ms,
        sessions,
    }
}

/// Runs `serve_closed`: set-up (repeated, median reported), [`PASSES`]
/// measured passes over one schedule, each on a server of its own, and
/// with `opts.trace` a traced pass plus the per-layer measurements.
pub fn run(opts: &Opts) -> Outcome {
    let source = joined_source(&wl::all());
    let names: Vec<String> = (0..TENANTS).map(|i| format!("t{i:04}")).collect();
    let per_pass = opts.seconds / PASSES as f64;
    let count = ((per_pass * REQUESTS_PER_SECOND).round() as usize).max(1);
    let schedule = request_schedule(opts.seed, count, names.len(), SERVE_MIX.len());

    let per_group = (SETUP_REPS / (PASSES + 1)).max(1);
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    for group in 0..=PASSES {
        for i in 0..per_group {
            let s = setup(&source, &names, None);
            setups.push(s.seconds);
            if group < PASSES && i + 1 == per_group {
                passes.push(serve(s.server, &schedule, &names, opts.limit_ms, None));
            } else {
                s.server.drain(Duration::ZERO);
            }
        }
    }
    let first = &passes[0];

    let mut out = Outcome {
        attempted: (count * passes.len()) as u64,
        ..Outcome::default()
    };
    for p in &passes {
        let d = &p.drive;
        out.failed += d.failed;
        out.problems.extend(d.problems.iter().cloned());
        if d.failed == 0 && p.stats.retries == 0 && d.cycles != p.sessions.cycles {
            out.problems
                .push("responses' stats do not add up to the sessions' totals".into());
        }
    }
    if out.failed == 0
        && passes
            .iter()
            .any(|p| p.fingerprint() != first.fingerprint())
    {
        out.problems
            .push("a repeat pass's simulated totals differ from the first pass's".into());
    }
    let chunks: Vec<Chunk> = passes.iter().flat_map(|p| p.drive.chunks.clone()).collect();
    let sent: Vec<usize> = schedule.iter().map(|p| p.program).collect();
    let floors = Floors::of(
        SERVE_MIX.len(),
        &sent.repeat(passes.len()),
        &passes
            .iter()
            .flat_map(|p| p.drive.latencies_ms.clone())
            .collect::<Vec<_>>(),
        &passes
            .iter()
            .flat_map(|p| p.drive.instructions.clone())
            .collect::<Vec<_>>(),
    );
    let scaled: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| floors.at_full_speed(&sent, &p.drive.latencies_ms))
        .collect();
    let tail = fastest_of_passes(scaled.iter().map(Vec::as_slice));
    let p99 = block_percentile(&tail, 99.0, BLOCKS).expect("latencies were taken");
    let within = Chunk::total(&chunks).within;
    let goodput = floors.sends_per_s() * ratio(within as f64, out.attempted as f64);
    let minstr_rates: Vec<f64> = chunk_rates(&chunks, |c| c.instructions, |c| c.cpu_seconds)
        .into_iter()
        .map(|r| r / 1e6)
        .collect();
    let m = &mut out.metrics;
    m.set("setup_s", fastest(&setups));
    m.set("peak_rss_mb", host::peak_rss_mb());
    m.set(
        "ok_share",
        ratio((out.attempted - out.failed) as f64, out.attempted as f64),
    );
    m.set("sim_minstr_per_s", floors.minstr_per_s());
    m.set("sim_cpi", first.drive.cycles.cpi().unwrap_or(0.0));
    m.set("req_p50_ms", floors.p50_ms());
    m.set("req_p99_ms", p99.value);
    m.set("goodput_rps", goodput);
    out.note_all("floor_ms", &floors.ms);
    out.note_pct("req_p99_ms", p99);
    out.note_all("setup_s", &setups);
    out.note_all("chunk_minstr_per_s", &minstr_rates);
    out.note("requests_per_pass", count as f64);
    out.note("passes", passes.len() as f64);
    out.note("outstanding", (OUTSTANDING_PER_WORKER * workers()) as f64);
    out.note("tenants", names.len() as f64);
    out.note("workers", workers() as f64);
    out.note(
        "max_queued",
        passes.iter().map(|p| p.stats.max_queued).max().unwrap_or(0) as f64,
    );
    out.fingerprint = first.fingerprint();

    if opts.trace {
        let mut tracer = Tracer::new();
        let s = setup(&source, &names, Some(&mut tracer));
        let traced = serve(
            s.server,
            &schedule,
            &names,
            opts.limit_ms,
            Some(&mut tracer),
        );
        let t = &traced.drive;
        if out.failed == 0 && t.failed == 0 && traced.fingerprint() != first.fingerprint() {
            out.problems
                .push("traced run diverged from the untraced run".into());
        }
        let m = &mut out.metrics;
        traced.sessions.layer_metrics(m);
        let st = &traced.stats;
        let pct = |v: &[f64], p: f64| percentile(v, p).map_or(0.0, |p| p.value);
        m.set("server.register_ms", s.register_ms);
        m.set("server.submit_us_p50", pct(&t.submit_us, 50.0));
        m.set("server.submit_us_p99", pct(&t.submit_us, 99.0));
        m.set("server.queued_p50", pct(&t.queued, 50.0));
        m.set("server.queued_p99", pct(&t.queued, 99.0));
        m.set(
            "server.queued_max",
            t.queued.iter().copied().fold(0.0, f64::max),
        );
        m.set(
            "server.instr_per_request",
            ratio(t.cycles.instructions as f64, st.completed as f64),
        );
        m.set(
            "server.attempts_per_request",
            ratio(t.attempts as f64, t.responses as f64),
        );
        m.set("server.completed", st.completed as f64);
        m.set("server.failed", st.failed as f64);
        m.set("server.refused", t.refused as f64);
        m.set("server.shed", st.shed as f64);
        m.set("server.deadline_exceeded", st.deadline_exceeded as f64);
        m.set("server.retries", st.retries as f64);
        m.set("server.drain_ms", traced.drain_ms);
        // How many times slower requests are served when traced.
        m.set(
            "bench.trace_overhead",
            ratio(floors.sends_per_s(), traced.floors(&schedule).sends_per_s()),
        );
        m.set("bench.sends", t.attempted as f64);
        setup_steps(
            &source,
            MachineConfig::default(),
            true,
            SETUP_REPS,
            &mut tracer,
            m,
        );
        let vm = builder(&source, MachineConfig::default(), true)
            .build()
            .expect("shipped programs build");
        let (probe_ns, keys) = itlb_probe_ns(&vm, &SERVE_MIX);
        m.set("obj.itlb_probe_ns", probe_ns);
        m.set("bench.capture_keys", keys as f64);
        out.tracer = Some(tracer);
    }
    out
}
