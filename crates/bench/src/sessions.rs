//! The multi-tenant session bench pipeline (`BENCH_sessions.json`).
//!
//! Measures the two claims the `com-vm` facade makes:
//!
//! 1. **Spin-up** — spawning a tenant [`Session`] over a shared, immutable
//!    [`com_vm::LoadedImage`] must be ≥ 10× cheaper (wall clock) than the
//!    old one-tenant path, a fresh compile + load of the same program.
//!    Measured with the shared [`paired_median`] protocol: each round
//!    times both paths back to back, and the round with the median ratio
//!    is reported.
//! 2. **Round-robin fidelity** — a 16-session cooperative round-robin run
//!    (the [`com_vm::Scheduler`] interleaving tenants in fixed instruction
//!    slices) must complete every workload with results *and*
//!    [`com_core::CycleStats`] bit-identical to sequential execution.
//!    Isolation is architectural, so this is asserted exactly, not
//!    approximately.

use std::time::Instant;

use com_core::MachineConfig;
use com_mem::Word;
use com_stc::CompileOptions;
use com_vm::{Scheduler, Session, Vm, VmError};
use com_workloads::{self as workloads, Workload};

use crate::protocol::{arr, artifact, num, obj, paired_median, ratio, rows, text, Host};
use crate::solo_baselines;

/// Instruction slice each tenant receives per scheduler round.
pub const SLICE_STEPS: u64 = 5_000;

/// Tenants in the round-robin run.
pub const SESSIONS: usize = 16;

/// Paired wall-clock rounds for the spin-up and pre-seeding comparisons.
pub const ROUNDS: u32 = 5;

/// The workload set tenants cycle through (fast, varied instruction mixes).
pub fn tenant_workloads() -> Vec<Workload> {
    vec![
        workloads::CALLS,
        workloads::ARITH,
        workloads::DISPATCH,
        workloads::SORT,
    ]
}

/// Sessions spawned (and timed together) per paired round: per-session
/// spin-up is what a multi-tenant server pays at the margin, so each round
/// spawns a batch and reports the mean — single spawns are dominated by
/// the cache pollution of whatever ran before them.
pub const SPAWNS_PER_ROUND: u32 = 16;

/// Wall-clock numbers for the spin-up comparison (median paired round).
#[derive(Debug, Clone, Copy)]
pub struct SpinupMeasure {
    /// Nanoseconds for a fresh compile + load + ready-to-call machine.
    pub fresh_ns: u64,
    /// Nanoseconds per `vm.session()` on the shared image (mean of the
    /// round's batch of [`SPAWNS_PER_ROUND`]).
    pub session_ns: u64,
}

impl SpinupMeasure {
    /// How many times cheaper shared-image session spin-up is.
    pub fn speedup(&self) -> f64 {
        ratio(self.fresh_ns, self.session_ns)
    }
}

/// Wall-clock and lookup numbers for the ITLB pre-seeding comparison
/// (median paired round): the same workload's first call on a cold
/// session versus a session whose ITLB was pre-seeded at boot from the
/// whole-image analysis's monomorphic send sites.
#[derive(Debug, Clone, Copy)]
pub struct PreseedMeasure {
    /// Pre-seed keys extracted from the analysis (monomorphic sites).
    pub keys: usize,
    /// Full-association lookups the cold session's first call paid.
    pub cold_full_lookups: u64,
    /// Full-association lookups the pre-seeded session's first call paid.
    pub preseeded_full_lookups: u64,
    /// Nanoseconds for the cold session's first call.
    pub cold_first_call_ns: u64,
    /// Nanoseconds for the pre-seeded session's first call.
    pub preseeded_first_call_ns: u64,
}

impl PreseedMeasure {
    /// First-touch lookups the pre-seeding eliminated — the
    /// deterministic signal (wall-clock deltas are host-limited).
    pub fn lookups_avoided(&self) -> u64 {
        self.cold_full_lookups
            .saturating_sub(self.preseeded_full_lookups)
    }
}

/// One tenant's outcome in the round-robin comparison.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant index (spawn order).
    pub tenant: usize,
    /// Workload name.
    pub workload: &'static str,
    /// Result word of the interleaved run.
    pub result: Word,
    /// Instructions the tenant executed.
    pub instructions: u64,
    /// Scheduler slices the tenant consumed.
    pub slices: u64,
    /// Whether result and `CycleStats` matched sequential execution
    /// bit-for-bit.
    pub matches_sequential: bool,
}

/// The whole pipeline's output.
#[derive(Debug, Clone)]
pub struct SessionsReport {
    /// The spin-up comparison.
    pub spinup: SpinupMeasure,
    /// The ITLB pre-seeding comparison.
    pub preseed: PreseedMeasure,
    /// Per-tenant round-robin rows.
    pub tenants: Vec<TenantRow>,
    /// Scheduler rounds the interleaved run took.
    pub rounds: u64,
}

impl SessionsReport {
    /// Whether every tenant matched sequential execution.
    pub fn all_match(&self) -> bool {
        self.tenants.iter().all(|t| t.matches_sequential)
    }
}

/// Times one fresh compile + load + ready machine (the old embedding
/// path) for the joined tenant program.
fn time_fresh(source: &str, config: MachineConfig) -> Result<u64, VmError> {
    let t0 = Instant::now();
    // The pre-facade path: compile the program and boot a machine from the
    // raw image (per-machine lazy decode ahead of it).
    let image = com_stc::compile_com(source, CompileOptions::default())?;
    let mut m = com_core::Machine::new(config);
    m.load(&image)?;
    let ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&m);
    Ok(ns)
}

/// Times a batch of `vm.session()` spin-ups on the shared image,
/// returning the mean nanoseconds per session. The sessions stay alive
/// until after timing ends (their teardown is not spin-up).
fn time_session_batch(vm: &Vm, spawns: u32) -> Result<u64, VmError> {
    let mut live = Vec::with_capacity(spawns as usize);
    let t0 = Instant::now();
    for _ in 0..spawns.max(1) {
        live.push(vm.session()?);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&live);
    Ok(ns / u64::from(spawns.max(1)))
}

/// The paired-median spin-up comparison over [`ROUNDS`] rounds.
///
/// # Errors
///
/// Propagates compile and boot errors.
pub fn measure_spinup() -> Result<SpinupMeasure, VmError> {
    let source: String = tenant_workloads()
        .iter()
        .map(|w| w.source)
        .collect::<Vec<_>>()
        .join("\n");
    let config = MachineConfig::default();
    let vm = Vm::builder().source(&source).config(config).build()?;
    // Warm both paths once (allocator, lazy statics).
    time_fresh(&source, config)?;
    time_session_batch(&vm, SPAWNS_PER_ROUND)?;
    let (fresh_ns, session_ns) = paired_median(
        ROUNDS,
        || {
            let fresh = time_fresh(&source, config)?;
            let session = time_session_batch(&vm, SPAWNS_PER_ROUND)?;
            Ok::<_, VmError>((fresh, session))
        },
        |&(fresh, session)| ratio(fresh, session),
    )?;
    Ok(SpinupMeasure {
        fresh_ns,
        session_ns,
    })
}

/// The paired-median ITLB pre-seeding comparison over `repeats` rounds:
/// each round times one workload's first call on a freshly spawned cold
/// session, then on a freshly spawned pre-seeded session, and the round
/// with the median wall-clock ratio is reported. Results are asserted
/// identical — pre-seeding may only move cold-start lookup costs.
///
/// # Errors
///
/// Propagates compile and boot errors.
///
/// # Panics
///
/// Panics if either path fails the workload's self-check.
pub fn measure_preseed(repeats: u32) -> Result<PreseedMeasure, VmError> {
    let w = workloads::CALLS;
    let cold_vm = Vm::builder().source(w.source).build()?;
    let seeded_vm = Vm::builder().source(w.source).preseed_itlb(true).build()?;
    let keys = seeded_vm
        .facts()
        .map(|f| f.preseed_keys().len())
        .unwrap_or(0);
    let first_call = |vm: &Vm| -> Result<(u64, u64), VmError> {
        let mut s = vm.session()?;
        let t0 = Instant::now();
        let out = workloads::run_on(&w, &mut s, workloads::MAX_STEPS)?;
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(
            out.result,
            Word::Int(w.expected),
            "{} failed its self-check",
            w.name
        );
        Ok((ns, out.stats.full_lookups))
    };
    // Warm both paths once (lazy analysis, allocator).
    first_call(&cold_vm)?;
    first_call(&seeded_vm)?;
    let ((cold_ns, cold_lookups), (seeded_ns, seeded_lookups)) = paired_median(
        repeats,
        || Ok::<_, VmError>((first_call(&cold_vm)?, first_call(&seeded_vm)?)),
        |&((cold_ns, _), (seeded_ns, _))| ratio(cold_ns, seeded_ns),
    )?;
    Ok(PreseedMeasure {
        keys,
        cold_full_lookups: cold_lookups,
        preseeded_full_lookups: seeded_lookups,
        cold_first_call_ns: cold_ns,
        preseeded_first_call_ns: seeded_ns,
    })
}

/// Runs each workload once sequentially, then `sessions` tenants cycling
/// through the workloads under the round-robin scheduler, asserting
/// bit-identical results and statistics.
///
/// # Errors
///
/// Propagates machine errors.
///
/// # Panics
///
/// Panics if a workload fails its self-check or a tenant never finishes.
pub fn measure_roundrobin(sessions: usize) -> Result<(Vec<TenantRow>, u64), VmError> {
    let solo = solo_baselines(&tenant_workloads())?;

    // Interleaved run.
    let mut sched = Scheduler::new(SLICE_STEPS);
    let mut ids = Vec::new();
    for i in 0..sessions {
        let tenant = &solo[i % solo.len()];
        let mut s = tenant.vm.session()?;
        workloads::start_on(&tenant.workload, &mut s)?;
        ids.push(sched.spawn(s)?);
    }
    sched.run();

    let mut rows = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let run = sched
            .session(*id)
            .and_then(Session::last_run)
            .unwrap_or_else(|| panic!("tenant {i} never finished"))
            .clone();
        let baseline = &solo[i % solo.len()];
        rows.push(TenantRow {
            tenant: i,
            workload: baseline.workload.name,
            result: run.result,
            instructions: run.stats.instructions,
            slices: sched.slices(*id),
            matches_sequential: run.result == baseline.result && run.stats == baseline.stats,
        });
    }
    Ok((rows, sched.rounds()))
}

/// Runs the whole pipeline: [`ROUNDS`] paired rounds of each wall-clock
/// comparison and a [`SESSIONS`]-tenant round-robin run.
///
/// # Errors
///
/// Propagates machine errors.
pub fn report() -> Result<SessionsReport, VmError> {
    let spinup = measure_spinup()?;
    let preseed = measure_preseed(ROUNDS)?;
    let (tenants, rounds) = measure_roundrobin(SESSIONS)?;
    Ok(SessionsReport {
        spinup,
        preseed,
        tenants,
        rounds,
    })
}

/// Renders the report as the machine-readable `BENCH_sessions.json`.
pub fn to_json(r: &SessionsReport, host: &Host) -> String {
    let tenant = |t: &TenantRow| {
        obj(&[
            ("tenant", &t.tenant),
            ("workload", &text(t.workload)),
            ("result", &text(&t.result.to_string())),
            ("instructions", &t.instructions),
            ("slices", &t.slices),
            ("matches_sequential", &t.matches_sequential),
        ])
    };
    artifact(
        "sessions",
        host,
        &obj(&[
            ("sessions", &r.tenants.len()),
            ("slice_steps", &SLICE_STEPS),
            ("workloads", &arr(tenant_workloads().iter().map(|w| text(w.name)))),
            ("paired_rounds", &ROUNDS),
            ("spawns_per_round", &SPAWNS_PER_ROUND),
        ]),
        &obj(&[(
            "spinup_speedup",
            &text("fresh compile+load wall-ns over per-session shared-image session() wall-ns (mean of a spawns_per_round batch), median paired round"),
        )]),
        &[
            (
                "spinup",
                &obj(&[
                    ("fresh_ns", &r.spinup.fresh_ns),
                    ("session_ns", &r.spinup.session_ns),
                    ("speedup", &num(r.spinup.speedup())),
                    ("target_10x_met", &(r.spinup.speedup() >= 10.0)),
                ]),
            ),
            (
                "preseed",
                &obj(&[
                    ("keys", &r.preseed.keys),
                    ("cold_full_lookups", &r.preseed.cold_full_lookups),
                    ("preseeded_full_lookups", &r.preseed.preseeded_full_lookups),
                    ("lookups_avoided", &r.preseed.lookups_avoided()),
                    ("cold_first_call_ns", &r.preseed.cold_first_call_ns),
                    ("preseeded_first_call_ns", &r.preseed.preseeded_first_call_ns),
                    (
                        "note",
                        &text("wall-clock delta is host-limited; lookups_avoided is the deterministic signal"),
                    ),
                ]),
            ),
            (
                "roundrobin",
                &obj(&[
                    ("rounds", &r.rounds),
                    ("tenants", &rows(r.tenants.iter().map(tenant))),
                ]),
            ),
            (
                "summary",
                &obj(&[
                    ("spinup_speedup", &num(r.spinup.speedup())),
                    ("target_10x_met", &(r.spinup.speedup() >= 10.0)),
                    ("roundrobin_matches", &r.all_match()),
                    ("preseed_lookups_avoided", &r.preseed.lookups_avoided()),
                ]),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundrobin_four_tenants_matches_sequential() {
        let (rows, rounds) = measure_roundrobin(4).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rounds > 1, "workloads must outlast one slice");
        for row in &rows {
            assert!(row.matches_sequential, "{} diverged", row.workload);
        }
    }

    #[test]
    fn preseed_eliminates_first_touch_lookups_without_changing_results() {
        let m = measure_preseed(1).unwrap();
        assert!(m.keys > 0, "analysis must yield monomorphic sites");
        assert!(
            m.preseeded_full_lookups < m.cold_full_lookups,
            "pre-seeding must avoid lookups ({} vs {})",
            m.preseeded_full_lookups,
            m.cold_full_lookups
        );
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let r = SessionsReport {
            spinup: SpinupMeasure {
                fresh_ns: 1_000_000,
                session_ns: 10_000,
            },
            preseed: PreseedMeasure {
                keys: 200,
                cold_full_lookups: 50,
                preseeded_full_lookups: 10,
                cold_first_call_ns: 2_000,
                preseeded_first_call_ns: 1_500,
            },
            tenants: vec![TenantRow {
                tenant: 0,
                workload: "calls",
                result: Word::Int(610),
                instructions: 1234,
                slices: 5,
                matches_sequential: true,
            }],
            rounds: 6,
        };
        let host = Host {
            cores: 2,
            commit: "abc1234".to_string(),
        };
        let j = to_json(&r, &host);
        assert!(j.contains("\"speedup\": 100.000"));
        assert!(j.contains("\"target_10x_met\": true"));
        assert!(j.contains("\"roundrobin_matches\": true"));
    }
}
