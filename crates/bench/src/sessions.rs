//! The multi-tenant session bench pipeline (`BENCH_sessions.json`).
//!
//! Measures the two claims the `com-vm` facade makes:
//!
//! 1. **Spin-up** — spawning a tenant [`Session`] over a shared, immutable
//!    [`com_vm::LoadedImage`] must be ≥ 10× cheaper (wall clock) than the
//!    old one-tenant path, a fresh compile + load of the same program.
//!    Measured with the same paired-median protocol as the other bench
//!    pipelines: each round times both paths back to back, and the round
//!    with the median ratio is reported.
//! 2. **Round-robin fidelity** — a 16-session cooperative round-robin run
//!    (the [`com_vm::Scheduler`] interleaving tenants in fixed instruction
//!    slices) must complete every workload with results *and*
//!    [`CycleStats`] bit-identical to sequential execution. Isolation is
//!    architectural, so this is asserted exactly, not approximately.

use std::time::Instant;

use com_core::{CycleStats, MachineConfig, RunResult};
use com_mem::Word;
use com_stc::CompileOptions;
use com_vm::{Scheduler, Session, Vm, VmError};
use com_workloads::{self as workloads, Workload};

use crate::json_num;

/// Instruction slice each tenant receives per scheduler round.
pub const SLICE_STEPS: u64 = 5_000;

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
    /// Paired rounds timed.
    pub rounds: u32,
}

impl SpinupMeasure {
    /// How many times cheaper shared-image session spin-up is.
    pub fn speedup(&self) -> f64 {
        self.fresh_ns as f64 / self.session_ns.max(1) as f64
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
    /// Paired rounds timed.
    pub rounds: u32,
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
    /// Tenants in the round-robin run.
    pub sessions: usize,
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

/// The paired-median spin-up comparison over `repeats` rounds.
///
/// # Errors
///
/// Propagates compile and boot errors.
pub fn measure_spinup(repeats: u32) -> Result<SpinupMeasure, VmError> {
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
    let mut rounds: Vec<(u64, u64)> = Vec::new();
    for _ in 0..repeats.max(1) {
        let fresh = time_fresh(&source, config)?;
        let session = time_session_batch(&vm, SPAWNS_PER_ROUND)?;
        rounds.push((fresh, session));
    }
    rounds.sort_by(|a, b| {
        let ra = a.0 as f64 / a.1.max(1) as f64;
        let rb = b.0 as f64 / b.1.max(1) as f64;
        ra.partial_cmp(&rb).expect("finite ratios")
    });
    let (fresh_ns, session_ns) = rounds[rounds.len() / 2];
    Ok(SpinupMeasure {
        fresh_ns,
        session_ns,
        rounds: repeats.max(1),
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
    let mut rounds: Vec<((u64, u64), (u64, u64))> = Vec::new();
    for _ in 0..repeats.max(1) {
        let cold = first_call(&cold_vm)?;
        let seeded = first_call(&seeded_vm)?;
        rounds.push((cold, seeded));
    }
    rounds.sort_by(|a, b| {
        let ra = a.0 .0 as f64 / a.1 .0.max(1) as f64;
        let rb = b.0 .0 as f64 / b.1 .0.max(1) as f64;
        ra.partial_cmp(&rb).expect("finite ratios")
    });
    let ((cold_ns, cold_lookups), (seeded_ns, seeded_lookups)) = rounds[rounds.len() / 2];
    Ok(PreseedMeasure {
        keys,
        cold_full_lookups: cold_lookups,
        preseeded_full_lookups: seeded_lookups,
        cold_first_call_ns: cold_ns,
        preseeded_first_call_ns: seeded_ns,
        rounds: repeats.max(1),
    })
}

/// Runs `sessions` tenants sequentially, then the same tenants under the
/// round-robin scheduler, asserting bit-identical results and statistics.
///
/// # Errors
///
/// Propagates machine errors.
///
/// # Panics
///
/// Panics if a workload fails its self-check or a tenant never finishes.
pub fn measure_roundrobin(sessions: usize) -> Result<(Vec<TenantRow>, u64), VmError> {
    let picks = tenant_workloads();
    let vms: Vec<Vm> = picks
        .iter()
        .map(|w| workloads::vm_for(w, MachineConfig::default(), CompileOptions::default()))
        .collect();
    let tenant_vm = |i: usize| &vms[i % picks.len()];
    let tenant_w = |i: usize| &picks[i % picks.len()];

    // Sequential baselines.
    let mut baseline: Vec<(Word, CycleStats)> = Vec::new();
    for i in 0..sessions {
        let w = tenant_w(i);
        let mut s: Session = tenant_vm(i).session()?;
        let out: RunResult = workloads::run_on(w, &mut s, workloads::MAX_STEPS)?;
        assert_eq!(
            out.result,
            Word::Int(w.expected),
            "{} failed its self-check sequentially",
            w.name
        );
        baseline.push((out.result, out.stats));
    }

    // Interleaved run.
    let mut sched = Scheduler::new(SLICE_STEPS);
    let mut ids = Vec::new();
    for i in 0..sessions {
        let mut s = tenant_vm(i).session()?;
        workloads::start_on(tenant_w(i), &mut s)?;
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
        rows.push(TenantRow {
            tenant: i,
            workload: tenant_w(i).name,
            result: run.result,
            instructions: run.stats.instructions,
            slices: sched.slices(*id),
            matches_sequential: run.result == baseline[i].0 && run.stats == baseline[i].1,
        });
    }
    Ok((rows, sched.rounds()))
}

/// Runs the whole pipeline.
///
/// # Errors
///
/// Propagates machine errors.
pub fn report(sessions: usize, repeats: u32) -> Result<SessionsReport, VmError> {
    let spinup = measure_spinup(repeats)?;
    let preseed = measure_preseed(repeats)?;
    let (tenants, rounds) = measure_roundrobin(sessions)?;
    Ok(SessionsReport {
        spinup,
        preseed,
        sessions,
        tenants,
        rounds,
    })
}

/// Renders the report as the machine-readable `BENCH_sessions.json`.
pub fn report_to_json(r: &SessionsReport) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"sessions\",\n  \"schema\": 1,\n");
    s.push_str(&format!(
        "  \"protocol\": {{\"sessions\": {}, \"slice_steps\": {}, \"workloads\": [{}], \"paired_rounds\": {}, \"spawns_per_round\": {}}},\n",
        r.sessions,
        SLICE_STEPS,
        tenant_workloads()
            .iter()
            .map(|w| format!("\"{}\"", w.name))
            .collect::<Vec<_>>()
            .join(", "),
        r.spinup.rounds,
        SPAWNS_PER_ROUND,
    ));
    s.push_str("  \"unit\": {\"spinup_speedup\": \"fresh compile+load wall-ns over per-session shared-image session() wall-ns (mean of a spawns_per_round batch), median paired round\"},\n");
    s.push_str(&format!(
        "  \"spinup\": {{\"fresh_ns\": {}, \"session_ns\": {}, \"speedup\": {}, \"target_10x_met\": {}}},\n",
        r.spinup.fresh_ns,
        r.spinup.session_ns,
        json_num(r.spinup.speedup()),
        r.spinup.speedup() >= 10.0,
    ));
    s.push_str(&format!(
        "  \"preseed\": {{\"keys\": {}, \"cold_full_lookups\": {}, \"preseeded_full_lookups\": {}, \"lookups_avoided\": {}, \"cold_first_call_ns\": {}, \"preseeded_first_call_ns\": {}, \"note\": \"wall-clock delta is host-limited; lookups_avoided is the deterministic signal\"}},\n",
        r.preseed.keys,
        r.preseed.cold_full_lookups,
        r.preseed.preseeded_full_lookups,
        r.preseed.lookups_avoided(),
        r.preseed.cold_first_call_ns,
        r.preseed.preseeded_first_call_ns,
    ));
    s.push_str("  \"roundrobin\": {\n");
    s.push_str(&format!(
        "    \"rounds\": {},\n    \"tenants\": [\n",
        r.rounds
    ));
    for (i, t) in r.tenants.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"tenant\": {}, \"workload\": \"{}\", \"result\": \"{}\", \"instructions\": {}, \"slices\": {}, \"matches_sequential\": {}}}{}",
            t.tenant,
            t.workload,
            t.result,
            t.instructions,
            t.slices,
            t.matches_sequential,
            if i + 1 < r.tenants.len() { ",\n" } else { "\n" },
        ));
    }
    s.push_str("    ]\n  },\n");
    s.push_str(&format!(
        "  \"summary\": {{\"spinup_speedup\": {}, \"target_10x_met\": {}, \"roundrobin_matches\": {}, \"preseed_lookups_avoided\": {}}}\n}}\n",
        json_num(r.spinup.speedup()),
        r.spinup.speedup() >= 10.0,
        r.all_match(),
        r.preseed.lookups_avoided(),
    ));
    s
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
                rounds: 3,
            },
            preseed: PreseedMeasure {
                keys: 200,
                cold_full_lookups: 50,
                preseeded_full_lookups: 10,
                cold_first_call_ns: 2_000,
                preseeded_first_call_ns: 1_500,
                rounds: 3,
            },
            sessions: 2,
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
        let j = report_to_json(&r);
        assert!(j.contains("\"speedup\": 100.000"));
        assert!(j.contains("\"target_10x_met\": true"));
        assert!(j.contains("\"roundrobin_matches\": true"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
