//! The parallel-executor bench pipeline (`BENCH_parallel.json`).
//!
//! Measures the two claims the [`com_vm::ParallelExecutor`] makes:
//!
//! 1. **Fidelity** — draining N mixed tenants across a worker pool must
//!    leave every tenant's result *and* [`CycleStats`] bit-identical to
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
//!    distinguishable from a missed target on capable hardware. A run
//!    without a 4-worker row reports no headline speedup and no verdict
//!    (`null`), rather than another worker count's figure under the
//!    4-worker label.
//!
//! Protocol: paired rounds, like the other three pipelines. Each round
//! boots and starts the full tenant set per worker count and times only
//! the drain, all worker counts back to back; the reported round is the
//! one with the median 4-vs-1 speedup (or, without a 4-worker row, the
//! median speedup at the highest worker count).

use std::time::Instant;

use com_core::{CycleStats, MachineConfig, RunResult};
use com_mem::Word;
use com_stc::CompileOptions;
use com_vm::{ParallelExecutor, Session, Vm, VmError};
use com_workloads::{self as workloads, Workload};

use crate::json_num;

/// Instruction slice per resume (same cadence as the sessions bench).
pub const SLICE_STEPS: u64 = 5_000;

/// Default tenants per drain.
pub const TENANTS: usize = 32;

/// Default worker counts measured, in order (1 must come first: it is
/// the denominator of every speedup).
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

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
const HEADLINE_WORKERS: usize = 4;

/// The row the acceptance bar reads: the 4-worker row, if measured.
pub fn headline_row(rows: &[ScalingRow]) -> Option<&ScalingRow> {
    rows.iter().find(|r| r.workers == HEADLINE_WORKERS)
}

/// The whole pipeline's output.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Median round, one row per worker count.
    pub rows: Vec<ScalingRow>,
    /// Tenants per drain.
    pub tenants: usize,
    /// Paired rounds timed.
    pub rounds: u32,
    /// Cores the host exposes (`std::thread::available_parallelism`).
    pub host_cores: usize,
    /// Whether every tenant, at every worker count, matched its solo
    /// baseline bit-for-bit (result and `CycleStats`).
    pub all_match: bool,
}

impl ParallelReport {
    /// The 4-worker speedup over 1 worker; `None` when no 4-worker row
    /// was measured.
    pub fn headline_speedup(&self) -> Option<f64> {
        headline_row(&self.rows).map(|r| r.speedup_vs_1)
    }

    /// Whether the ≥2× bar at 4 workers is met; `None` when no 4-worker
    /// row was measured.
    pub fn target_met(&self) -> Option<bool> {
        self.headline_speedup().map(|s| s >= 2.0)
    }

    /// Whether the host cannot express the headline configuration's
    /// parallelism: fewer than 4 cores caps the ideal 4-worker speedup
    /// at `host_cores`× (1 core → ~1×; 2 cores → exactly 2× with zero
    /// overhead, so the ≥2× bar is unreachable in practice). On such
    /// hosts an unmet target is a hardware cap, not a regression.
    pub fn host_limited(&self) -> bool {
        self.host_cores < HEADLINE_WORKERS
    }
}

/// Per-tenant workload pick: tenants cycle through the mixed set.
fn pick(i: usize, set: &[Workload]) -> &Workload {
    &set[i % set.len()]
}

/// Boots one Vm per workload (separate images — tenants share an image
/// with the other tenants of the same workload, as a server would).
fn build_vms(set: &[Workload]) -> Vec<Vm> {
    set.iter()
        .map(|w| workloads::vm_for(w, MachineConfig::default(), CompileOptions::default()))
        .collect()
}

/// Solo reference outcomes, one per workload in the set.
fn solo_baselines(set: &[Workload], vms: &[Vm]) -> Result<Vec<(Word, CycleStats)>, VmError> {
    set.iter()
        .zip(vms)
        .map(|(w, vm)| {
            let mut s: Session = vm.session()?;
            let out: RunResult = workloads::run_on(w, &mut s, workloads::MAX_STEPS)?;
            assert_eq!(
                out.result,
                Word::Int(w.expected),
                "{} failed its self-check solo",
                w.name
            );
            Ok((out.result, out.stats))
        })
        .collect()
}

/// Boots and starts the full tenant set (outside the timed region: boot
/// cost is the sessions bench's subject, not this one's).
fn started_tenants(tenants: usize, set: &[Workload], vms: &[Vm]) -> Result<Vec<Session>, VmError> {
    (0..tenants)
        .map(|i| {
            let mut s = vms[i % set.len()].session()?;
            workloads::start_on(pick(i, set), &mut s)?;
            Ok(s)
        })
        .collect()
}

/// One timed drain at one worker count; returns the row (speedup filled
/// in by the caller) after asserting every tenant against its baseline.
fn drain(
    workers: usize,
    tenants: usize,
    set: &[Workload],
    vms: &[Vm],
    baselines: &[(Word, CycleStats)],
) -> Result<ScalingRow, VmError> {
    let sessions = started_tenants(tenants, set, vms)?;
    let pool = ParallelExecutor::new(workers, SLICE_STEPS);
    let t0 = Instant::now();
    let runs = pool.run(sessions);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut instructions = 0u64;
    for (i, run) in runs.iter().enumerate() {
        let (expected_result, expected_stats) = &baselines[i % set.len()];
        let w = pick(i, set);
        assert!(
            run.error.is_none(),
            "{} (tenant {i}) trapped at {workers} workers: {:?}",
            w.name,
            run.error
        );
        assert_eq!(
            run.result,
            Some(*expected_result),
            "{} (tenant {i}) result diverged at {workers} workers",
            w.name
        );
        let stats = run
            .session
            .last_run()
            .unwrap_or_else(|| panic!("tenant {i} has no run"))
            .stats;
        assert_eq!(
            &stats, expected_stats,
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

/// Runs the whole pipeline: `repeats` paired rounds over the given
/// worker counts, keeping the round with the median headline speedup
/// (the highest worker count's, when 4 workers were not measured).
///
/// # Errors
///
/// Propagates compile, boot, and machine errors.
///
/// # Panics
///
/// Panics if any tenant's result or `CycleStats` diverges from its solo
/// baseline — fidelity is the precondition of the throughput numbers.
pub fn report(
    tenants: usize,
    worker_counts: &[usize],
    repeats: u32,
) -> Result<ParallelReport, VmError> {
    assert_eq!(
        worker_counts.first(),
        Some(&1),
        "worker counts must start at 1 (the speedup denominator)"
    );
    let set = tenant_workloads();
    let vms = build_vms(&set);
    let baselines = solo_baselines(&set, &vms)?;

    // Warm up: one small drain per worker count (thread spawn paths,
    // allocator, lazy statics).
    for &w in worker_counts {
        drain(w, set.len().min(tenants), &set, &vms, &baselines)?;
    }

    let mut rounds: Vec<Vec<ScalingRow>> = Vec::new();
    for _ in 0..repeats.max(1) {
        let mut round = Vec::new();
        for &w in worker_counts {
            round.push(drain(w, tenants, &set, &vms, &baselines)?);
        }
        let base_ns = round[0].wall_ns.max(1) as f64;
        for row in &mut round {
            row.speedup_vs_1 = base_ns / row.wall_ns.max(1) as f64;
        }
        // The instruction totals are the same work at every worker count
        // — the equivalence assertions above guarantee it; double-check.
        for row in &round[1..] {
            assert_eq!(
                row.instructions, round[0].instructions,
                "worker counts retired different instruction totals"
            );
        }
        rounds.push(round);
    }
    let headline = |round: &[ScalingRow]| {
        headline_row(round)
            .or(round.last())
            .map_or(0.0, |r| r.speedup_vs_1)
    };
    rounds.sort_by(|a, b| {
        headline(a)
            .partial_cmp(&headline(b))
            .expect("finite speedups")
    });
    let median = rounds[rounds.len() / 2].clone();
    Ok(ParallelReport {
        rows: median,
        tenants,
        rounds: repeats.max(1),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        all_match: true, // divergence panics inside drain
    })
}

/// Renders the report as the machine-readable `BENCH_parallel.json`.
pub fn report_to_json(r: &ParallelReport) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"parallel\",\n  \"schema\": 1,\n");
    s.push_str(&format!(
        "  \"protocol\": {{\"tenants\": {}, \"slice_steps\": {}, \"workloads\": [{}], \"worker_counts\": [{}], \"paired_rounds\": {}, \"host_cores\": {}}},\n",
        r.tenants,
        SLICE_STEPS,
        tenant_workloads()
            .iter()
            .map(|w| format!("\"{}\"", w.name))
            .collect::<Vec<_>>()
            .join(", "),
        r.rows
            .iter()
            .map(|row| row.workers.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        r.rounds,
        r.host_cores,
    ));
    s.push_str("  \"unit\": {\"throughput\": \"retired instructions per wall-microsecond, aggregate over the whole drain; speedups are within-round ratios, median round kept\"},\n");
    s.push_str("  \"rows\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workers\": {}, \"wall_ns\": {}, \"instructions\": {}, \"throughput\": {}, \"speedup_vs_1\": {}}}{}",
            row.workers,
            row.wall_ns,
            row.instructions,
            json_num(row.throughput),
            json_num(row.speedup_vs_1),
            if i + 1 < r.rows.len() { ",\n" } else { "\n" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"equivalence\": {{\"tenants\": {}, \"worker_counts_checked\": {}, \"all_match\": {}}},\n",
        r.tenants,
        r.rows.len(),
        r.all_match,
    ));
    s.push_str(&format!(
        "  \"summary\": {{\"speedup_4w\": {}, \"target_2x_met\": {}, \"host_cores\": {}, \"host_limited\": {}}}\n}}\n",
        r.headline_speedup().map_or("null".to_string(), json_num),
        r.target_met().map_or("null".to_string(), |met| met.to_string()),
        r.host_cores,
        r.host_limited(),
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_drain_matches_baselines_at_every_worker_count() {
        // `drain` panics on any divergence, so running it IS the check.
        let set = tenant_workloads();
        let vms = build_vms(&set);
        let baselines = solo_baselines(&set, &vms).unwrap();
        for workers in [1, 3] {
            let row = drain(workers, 7, &set, &vms, &baselines).unwrap();
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
        let r = ParallelReport {
            rows,
            tenants: 32,
            rounds: 5,
            host_cores: 8,
            all_match: true,
        };
        assert_eq!(r.target_met(), Some(true));
        assert!(!r.host_limited());
        let j = report_to_json(&r);
        assert!(j.contains("\"speedup_4w\": 4.000"));
        assert!(j.contains("\"target_2x_met\": true"));
        assert!(j.contains("\"all_match\": true"));
        assert!(j.contains("\"host_cores\": 8"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());

        // A `--workers 1,2` run has no 4-worker row: no headline figure
        // and no verdict, and a 2-core host is still flagged as unable
        // to express 4 workers.
        let two = ScalingRow {
            workers: 2,
            speedup_vs_1: 1.9,
            ..r.rows[0]
        };
        let r = ParallelReport {
            rows: vec![r.rows[0], two],
            host_cores: 2,
            ..r
        };
        assert_eq!(r.target_met(), None);
        assert!(r.host_limited());
        let j = report_to_json(&r);
        assert!(j.contains("\"speedup_4w\": null"));
        assert!(j.contains("\"target_2x_met\": null"));
        assert!(j.contains("\"host_limited\": true"));
        assert!(j.contains("\"speedup_vs_1\": 1.900"));
    }
}
