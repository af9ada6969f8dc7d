//! The parallel-executor bench pipeline (`BENCH_parallel.json`).
//!
//! Measures the two claims the [`com_vm::ParallelExecutor`] makes:
//!
//! 1. **Fidelity** — draining N mixed tenants across a worker pool must
//!    leave every tenant's result *and* `CycleStats` bit-identical to
//!    solo execution, at every worker count. Isolation is architectural,
//!    so this is asserted exactly, not approximately — and it is what
//!    makes the throughput comparison meaningful: every configuration
//!    retires the *same* total instruction stream.
//! 2. **Scaling** — aggregate throughput (retired instructions per
//!    wall-second over the whole drain) at 4 workers must be ≥ 2× the
//!    1-worker figure. Wall-clock scaling needs real cores: the JSON
//!    records `host_cores` and flags `host_limited` when the host has
//!    fewer than 4 cores (a 1-core container caps the honest speedup at
//!    ~1×; 2 cores cap 4 workers at 2×), so a hardware cap is
//!    distinguishable from a missed target on capable hardware.
//!
//! Protocol: the shared [`paired_median`]. Each round boots and starts
//! the full tenant set per worker count and times only the drain, all
//! worker counts back to back; the reported round is the one with the
//! median 4-vs-1 speedup.

use std::time::Instant;

use com_vm::{ParallelExecutor, Session, VmError};
use com_workloads::{self as workloads, Workload};

use crate::protocol::{arr, artifact, num, obj, paired_median, ratio, rows, text, Host};
use crate::{solo_baselines, Solo};

/// Instruction slice per resume (same cadence as the sessions bench).
pub const SLICE_STEPS: u64 = 5_000;

/// Tenants per drain.
pub const TENANTS: usize = 32;

/// Worker counts measured, in order (1 must come first: it is the
/// denominator of every speedup; 4 is the headline).
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Paired wall-clock rounds.
pub const ROUNDS: u32 = 5;

/// The workload set tenants cycle through — varied instruction mixes:
/// call-heavy, pure arithmetic, megamorphic dispatch, allocation +
/// pointer chasing, polymorphic compare-and-swap sorting.
pub fn tenant_workloads() -> Vec<Workload> {
    vec![
        workloads::CALLS,
        workloads::ARITH,
        workloads::DISPATCH,
        workloads::TREES,
        workloads::SORT,
    ]
}

/// One worker-count configuration of the median round.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Wall nanoseconds to drain the whole tenant set.
    pub wall_ns: u64,
    /// Total instructions retired across tenants (identical at every
    /// worker count — asserted).
    pub instructions: u64,
    /// Aggregate throughput in retired instructions per microsecond.
    pub throughput: f64,
    /// Speedup over the same round's 1-worker drain.
    pub speedup_vs_1: f64,
}

/// The worker count the acceptance bar is judged at.
pub const HEADLINE_WORKERS: usize = 4;

/// The 4-worker speedup over 1 worker in a round.
///
/// # Panics
///
/// Panics if the round has no 4-worker row ([`WORKER_COUNTS`] has one).
pub fn headline_speedup(rows: &[ScalingRow]) -> f64 {
    rows.iter()
        .find(|r| r.workers == HEADLINE_WORKERS)
        .expect("every round measures 4 workers")
        .speedup_vs_1
}

/// Whether a round meets the ≥2× bar at 4 workers. A host with fewer
/// than 4 cores ([`Host::limited`]) caps the ideal 4-worker speedup at
/// its core count (1 core → ~1×; 2 cores → exactly 2× with zero
/// overhead, so the bar is unreachable in practice); there an unmet
/// target is a hardware cap, not a regression.
pub fn target_met(rows: &[ScalingRow]) -> bool {
    headline_speedup(rows) >= 2.0
}

/// Boots and starts the full tenant set, tenants cycling through the
/// workloads (outside the timed region: boot cost is the sessions
/// bench's subject, not this one's). Tenants share an image with the
/// other tenants of the same workload, as a server's would.
fn started_tenants(tenants: usize, solo: &[Solo]) -> Result<Vec<Session>, VmError> {
    (0..tenants)
        .map(|i| {
            let tenant = &solo[i % solo.len()];
            let mut s = tenant.vm.session()?;
            workloads::start_on(&tenant.workload, &mut s)?;
            Ok(s)
        })
        .collect()
}

/// One timed drain at one worker count; returns the row (speedup filled
/// in by the caller) after asserting every tenant against its baseline.
fn drain(workers: usize, tenants: usize, solo: &[Solo]) -> Result<ScalingRow, VmError> {
    let sessions = started_tenants(tenants, solo)?;
    let pool = ParallelExecutor::new(workers, SLICE_STEPS);
    let t0 = Instant::now();
    let runs = pool.run(sessions);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut instructions = 0u64;
    for (i, run) in runs.iter().enumerate() {
        let baseline = &solo[i % solo.len()];
        let w = &baseline.workload;
        assert!(
            run.error.is_none(),
            "{} (tenant {i}) trapped at {workers} workers: {:?}",
            w.name,
            run.error
        );
        assert_eq!(
            run.result,
            Some(baseline.result),
            "{} (tenant {i}) result diverged at {workers} workers",
            w.name
        );
        let stats = run
            .session
            .last_run()
            .unwrap_or_else(|| panic!("tenant {i} has no run"))
            .stats;
        assert_eq!(
            stats, baseline.stats,
            "{} (tenant {i}) CycleStats diverged at {workers} workers",
            w.name
        );
        instructions += stats.instructions;
    }
    Ok(ScalingRow {
        workers,
        wall_ns,
        instructions,
        throughput: instructions as f64 / (wall_ns.max(1) as f64 / 1_000.0),
        speedup_vs_1: 0.0,
    })
}

/// Runs the whole pipeline: [`ROUNDS`] paired rounds of [`TENANTS`]
/// tenants drained at every count in [`WORKER_COUNTS`], keeping the round
/// with the median 4-worker speedup.
///
/// # Errors
///
/// Propagates compile, boot, and machine errors.
///
/// # Panics
///
/// Panics if any tenant's result or `CycleStats` diverges from its solo
/// baseline — fidelity is the precondition of the throughput numbers.
pub fn report() -> Result<Vec<ScalingRow>, VmError> {
    let solo = solo_baselines(&tenant_workloads())?;

    // Warm up: one small drain per worker count (thread spawn paths,
    // allocator, lazy statics).
    for w in WORKER_COUNTS {
        drain(w, solo.len(), &solo)?;
    }

    paired_median(
        ROUNDS,
        || {
            let mut round = WORKER_COUNTS
                .iter()
                .map(|&w| drain(w, TENANTS, &solo))
                .collect::<Result<Vec<_>, _>>()?;
            let base_ns = round[0].wall_ns;
            for row in &mut round {
                row.speedup_vs_1 = ratio(base_ns, row.wall_ns);
            }
            // The instruction totals are the same work at every worker
            // count — the equivalence assertions in `drain` guarantee
            // it; double-check.
            for row in &round[1..] {
                assert_eq!(
                    row.instructions, round[0].instructions,
                    "worker counts retired different instruction totals"
                );
            }
            Ok::<_, VmError>(round)
        },
        |round| headline_speedup(round),
    )
}

/// Renders the median round as the machine-readable
/// `BENCH_parallel.json`. Every tenant matched its solo run: `drain`
/// panics on any divergence.
pub fn to_json(median: &[ScalingRow], host: &Host) -> String {
    let row = |row: &ScalingRow| {
        obj(&[
            ("workers", &row.workers),
            ("wall_ns", &row.wall_ns),
            ("instructions", &row.instructions),
            ("throughput", &num(row.throughput)),
            ("speedup_vs_1", &num(row.speedup_vs_1)),
        ])
    };
    artifact(
        "parallel",
        host,
        &obj(&[
            ("tenants", &TENANTS),
            ("slice_steps", &SLICE_STEPS),
            ("workloads", &arr(tenant_workloads().iter().map(|w| text(w.name)))),
            ("worker_counts", &arr(median.iter().map(|row| row.workers))),
            ("paired_rounds", &ROUNDS),
            ("host_cores", &host.cores),
        ]),
        &obj(&[(
            "throughput",
            &text("retired instructions per wall-microsecond, aggregate over the whole drain; speedups are within-round ratios, median round kept"),
        )]),
        &[
            ("rows", &rows(median.iter().map(row))),
            (
                "equivalence",
                &obj(&[
                    ("tenants", &TENANTS),
                    ("worker_counts_checked", &median.len()),
                    ("all_match", &true),
                ]),
            ),
            (
                "summary",
                &obj(&[
                    ("speedup_4w", &num(headline_speedup(median))),
                    ("target_2x_met", &target_met(median)),
                    ("host_cores", &host.cores),
                    ("host_limited", &host.limited(HEADLINE_WORKERS)),
                ]),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_drain_matches_baselines_at_every_worker_count() {
        // `drain` panics on any divergence, so running it IS the check.
        let solo = solo_baselines(&tenant_workloads()).unwrap();
        for workers in [1, 3] {
            let row = drain(workers, 7, &solo).unwrap();
            assert_eq!(row.workers, workers);
            assert!(row.instructions > 0);
            assert!(row.wall_ns > 0);
        }
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let rows = vec![
            ScalingRow {
                workers: 1,
                wall_ns: 8_000_000,
                instructions: 4_000_000,
                throughput: 500.0,
                speedup_vs_1: 1.0,
            },
            ScalingRow {
                workers: 4,
                wall_ns: 2_000_000,
                instructions: 4_000_000,
                throughput: 2000.0,
                speedup_vs_1: 4.0,
            },
        ];
        assert!(target_met(&rows));
        let host = Host {
            cores: 8,
            commit: "abc1234".to_string(),
        };
        let j = to_json(&rows, &host);
        assert!(j.contains("\"speedup_4w\": 4.000"));
        assert!(j.contains("\"target_2x_met\": true"));
        assert!(j.contains("\"all_match\": true"));
        assert!(j.contains("\"host_cores\": 8"));
        assert!(j.contains("\"host_limited\": false"));
    }
}
