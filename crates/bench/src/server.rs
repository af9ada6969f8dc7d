//! The service-runtime bench pipeline (`BENCH_server.json`).
//!
//! Measures what `com_vm::server::Server` promises under sustained
//! multi-tenant load: requests/second and p50/p99 service latency at
//! many concurrent tenants, **with and without injected faults** — the
//! robustness headline being that a 1% seeded fault rate (traps, stalls,
//! worker panics, fuel exhaustion via [`FaultPlan`]) must not blow up
//! tail latency for everyone else: `p99_faults ≤ 2 × p99_without`.
//!
//! Protocol: the shared [`paired_median`]. Each round runs the identical
//! tenant/request schedule twice back to back — once fault-free, once
//! under the seeded plan — on a fresh server each phase; the reported
//! round is the one with the median p99 ratio.
//! Latency is measured server-side per request (admission to terminal
//! response, queue wait included), so backpressure is part of the
//! number, not hidden by it.

use std::time::Duration;

use com_vm::server::{
    FaultPlan, Request, RetryPolicy, Server, ServerConfig, ServerStats, TenantConfig, Ticket,
};
use com_vm::{Vm, VmError};

use crate::protocol::{artifact, num, obj, paired_median, rows, text, Host};

/// Concurrent tenants: the runtime's headline scale.
pub const TENANTS: usize = 1000;

/// Requests each tenant submits per phase.
pub const REQUESTS_PER_TENANT: usize = 4;

/// Worker threads.
pub const WORKERS: usize = 4;

/// Paired (fault-free, faulted) rounds.
pub const ROUNDS: u32 = 5;

/// Admission-queue depth — deliberately far below the request count so
/// the bench exercises real backpressure, not an unbounded buffer.
pub const QUEUE_DEPTH: usize = 256;

/// Instructions per weight-1 scheduling turn.
pub const BASE_SLICE: u64 = 500;

/// Injected-fault rate for the faulted phase, in per-mille (10 = 1%).
pub const FAULT_PER_MILLE: u32 = 10;

/// Seed of the fault plan (fixed: the same requests fault every run).
pub const SEED: u64 = 0x5EED_5EED;

/// The bench program: small, self-checked arithmetic loops so the bench
/// measures the *service runtime* (admission, scheduling, retry, fault
/// paths), not raw interpreter throughput.
const PROGRAM: &str = r#"
    class SmallInteger
      method tri | acc |
        acc := 0. 1 to: self do: [ :i | acc := acc + i ]. ^acc
      end
    end
"#;

/// The workload tenant `t` sends as its request `r`: `tri(n)` with n in
/// 40..=102, so every request comfortably crosses the fault plan's step
/// range and runs a few hundred instructions.
fn workload(tenant: usize, request: usize) -> i64 {
    40 + ((tenant * 7 + request * 13) % 63) as i64
}

/// One measured phase (fault-free or faulted) of one round.
#[derive(Debug, Clone, Copy)]
pub struct PhaseRow {
    /// Whether this phase ran under the seeded fault plan.
    pub faults: bool,
    /// Wall nanoseconds from first submission to last response.
    pub wall_ns: u64,
    /// Terminal responses per second over the phase.
    pub req_per_s: f64,
    /// Median service latency (admission → response), microseconds.
    pub p50_us: f64,
    /// 99th-percentile service latency, microseconds.
    pub p99_us: f64,
    /// Requests that completed with a result.
    pub completed: u64,
    /// Requests that ended in a terminal typed error.
    pub failed: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Faults fired from the plan.
    pub faults_injected: u64,
    /// Admission-queue high-water mark.
    pub max_queued: usize,
}

/// The whole pipeline's output: the median round's two phases.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// The fault-free phase of the median round.
    pub without: PhaseRow,
    /// The faulted phase of the median round.
    pub with_faults: PhaseRow,
    /// Tenants per phase.
    pub tenants: usize,
    /// Worker threads.
    pub workers: usize,
    /// Paired rounds timed.
    pub rounds: u32,
}

impl ServerReport {
    /// `p99_faults / p99_without` — the robustness headline.
    pub fn p99_ratio(&self) -> f64 {
        self.with_faults.p99_us / self.without.p99_us.max(f64::MIN_POSITIVE)
    }

    /// Whether the ≤2× tail-latency bar is met. On a host with fewer
    /// cores than workers ([`Host::limited`]) wall-clock figures reflect
    /// time-slicing, but the p99 *ratio* is still meaningful (both phases
    /// are equally limited), which is why the bar is judged on it.
    pub fn target_met(&self) -> bool {
        self.p99_ratio() <= 2.0
    }
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}

/// Runs one phase: fresh server, the full tenant/request schedule,
/// latencies gathered from every terminal response.
fn phase(
    vm: &Vm,
    tenants: usize,
    workers: usize,
    plan: FaultPlan,
) -> Result<(PhaseRow, ServerStats), VmError> {
    let faulted = !plan.is_empty();
    let server = Server::with_faults(
        vm.clone(),
        ServerConfig {
            workers,
            queue_depth: QUEUE_DEPTH,
            base_slice: BASE_SLICE,
            retry: RetryPolicy {
                // Injected fuel faults exhaust tiny budgets (< 64); real
                // grants here are unlimited, so only injections retry.
                retry_fuel_limit: 64,
                ..RetryPolicy::default()
            },
        },
        plan,
    );
    for t in 0..tenants {
        server.register(&format!("t{t}"), TenantConfig::default())?;
    }
    let t0 = std::time::Instant::now();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(tenants * REQUESTS_PER_TENANT);
    for r in 0..REQUESTS_PER_TENANT {
        for t in 0..tenants {
            let req = Request::new("tri", workload(t, r)).idempotent(true);
            let ticket = server
                .submit_within(&format!("t{t}"), req, Duration::from_secs(120))
                .expect("blocking submit must admit within the bench budget");
            tickets.push(ticket);
        }
    }
    let mut latencies: Vec<Duration> = Vec::with_capacity(tickets.len());
    let mut completed = 0u64;
    for ticket in tickets {
        let resp = ticket.wait();
        if resp.is_ok() {
            completed += 1;
        }
        latencies.push(resp.latency);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let stats = server.stats();
    let report = server.drain(Duration::from_secs(30));
    assert_eq!(
        report.sessions.len(),
        tenants,
        "drain lost sessions (faulted: {faulted})"
    );
    assert_eq!(stats.completed, completed);
    latencies.sort_unstable();
    let total = latencies.len() as u64;
    Ok((
        PhaseRow {
            faults: faulted,
            wall_ns,
            req_per_s: total as f64 / (wall_ns.max(1) as f64 / 1e9),
            p50_us: percentile_us(&latencies, 0.50),
            p99_us: percentile_us(&latencies, 0.99),
            completed: stats.completed,
            failed: stats.failed,
            retries: stats.retries,
            faults_injected: stats.faults_injected,
            max_queued: stats.max_queued,
        },
        stats,
    ))
}

/// Runs the whole pipeline: `repeats` paired (fault-free, faulted)
/// rounds at `tenants` tenants × [`REQUESTS_PER_TENANT`] requests over
/// `workers` workers, keeping the round with the median p99 ratio.
///
/// # Errors
///
/// Propagates compile, boot, and registration errors.
///
/// # Panics
///
/// Panics if a phase loses a session on drain, sheds work (the blocking
/// submit path never outruns the queue), or fails to answer every
/// admitted request.
pub fn report(tenants: usize, workers: usize, repeats: u32) -> Result<ServerReport, VmError> {
    FaultPlan::silence_injected_panics();
    let vm = Vm::new(PROGRAM)?;
    let names: Vec<String> = (0..tenants).map(|t| format!("t{t}")).collect();
    let plan = FaultPlan::seeded(
        SEED,
        &names,
        REQUESTS_PER_TENANT as u64,
        FAULT_PER_MILLE,
        40,
    );

    // Warm-up: one small paired run (thread-spawn paths, allocator).
    let warm = tenants.min(16);
    let warm_plan = FaultPlan::seeded(SEED, &names[..warm], REQUESTS_PER_TENANT as u64, 50, 40);
    phase(&vm, warm, workers, FaultPlan::new())?;
    phase(&vm, warm, workers, warm_plan)?;

    let (without, with_faults) = paired_median(
        repeats,
        || {
            let (without, stats_a) = phase(&vm, tenants, workers, FaultPlan::new())?;
            assert_eq!(stats_a.failed, 0, "the fault-free phase must not fail");
            assert_eq!(stats_a.shed, 0, "blocking submits must not shed");
            let (with_faults, stats_b) = phase(&vm, tenants, workers, plan.clone())?;
            assert_eq!(
                stats_b.completed + stats_b.failed,
                (tenants * REQUESTS_PER_TENANT) as u64,
                "every admitted request must terminate"
            );
            Ok::<_, VmError>((without, with_faults))
        },
        |(without, with_faults)| with_faults.p99_us / without.p99_us.max(f64::MIN_POSITIVE),
    )?;
    Ok(ServerReport {
        without,
        with_faults,
        tenants,
        workers,
        rounds: repeats.max(1),
    })
}

/// Renders the report as the machine-readable `BENCH_server.json`.
pub fn to_json(r: &ServerReport, host: &Host) -> String {
    let row = |p: &PhaseRow| {
        obj(&[
            ("faults", &p.faults),
            ("wall_ns", &p.wall_ns),
            ("req_per_s", &num(p.req_per_s)),
            ("p50_us", &num(p.p50_us)),
            ("p99_us", &num(p.p99_us)),
            ("completed", &p.completed),
            ("failed", &p.failed),
            ("retries", &p.retries),
            ("faults_injected", &p.faults_injected),
            ("max_queued", &p.max_queued),
        ])
    };
    artifact(
        "server",
        host,
        &obj(&[
            ("tenants", &r.tenants),
            ("requests_per_tenant", &REQUESTS_PER_TENANT),
            ("workers", &r.workers),
            ("queue_depth", &QUEUE_DEPTH),
            ("base_slice", &BASE_SLICE),
            ("fault_per_mille", &FAULT_PER_MILLE),
            ("seed", &SEED),
            ("paired_rounds", &r.rounds),
            ("host_cores", &host.cores),
        ]),
        &obj(&[(
            "latency",
            &text("microseconds from admission to terminal response, queue wait included, measured server-side; paired fault-free/faulted phases per round, median p99-ratio round kept"),
        )]),
        &[
            ("rows", &rows([row(&r.without), row(&r.with_faults)])),
            (
                "summary",
                &obj(&[
                    ("req_per_s", &num(r.without.req_per_s)),
                    ("p99_ratio", &num(r.p99_ratio())),
                    ("target_2x_met", &r.target_met()),
                    ("host_cores", &host.cores),
                    ("host_limited", &host.limited(r.workers)),
                ]),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_paired_round_terminates_and_reports() {
        // A miniature version of the real pipeline: 12 tenants, 1 round.
        let r = report(12, 2, 1).unwrap();
        let total = (12 * REQUESTS_PER_TENANT) as u64;
        assert_eq!(r.without.completed, total);
        assert_eq!(r.without.failed, 0);
        assert_eq!(
            r.with_faults.completed + r.with_faults.failed,
            total,
            "every faulted-phase request must terminate"
        );
        assert!(r.without.p99_us >= r.without.p50_us);
        assert!(r.without.req_per_s > 0.0);
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let p = PhaseRow {
            faults: false,
            wall_ns: 5_000_000,
            req_per_s: 800.0,
            p50_us: 120.0,
            p99_us: 900.0,
            completed: 4000,
            failed: 0,
            retries: 0,
            faults_injected: 0,
            max_queued: 256,
        };
        let q = PhaseRow {
            faults: true,
            p99_us: 1500.0,
            failed: 25,
            retries: 12,
            faults_injected: 40,
            ..p
        };
        let r = ServerReport {
            without: p,
            with_faults: q,
            tenants: 1000,
            workers: 4,
            rounds: 5,
        };
        assert!((r.p99_ratio() - 1.666).abs() < 0.01);
        assert!(r.target_met());
        let host = Host {
            cores: 8,
            commit: "abc1234".to_string(),
        };
        let j = to_json(&r, &host);
        assert!(j.contains("\"bench\": \"server\""));
        assert!(j.contains("\"p99_ratio\": 1.667"));
        assert!(j.contains("\"target_2x_met\": true"));
        assert!(j.contains("\"host_cores\": 8"));
        assert!(j.contains("\"host_limited\": false"));
    }

    #[test]
    fn percentiles_index_from_the_sorted_tail() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile_us(&lat, 0.50), 50.0);
        assert_eq!(percentile_us(&lat, 0.99), 99.0);
        assert_eq!(percentile_us(&lat, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.99), 0.0);
    }
}
