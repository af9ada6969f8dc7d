//! The garbage-collection bench pipeline (`BENCH_gc.json`).
//!
//! Measures the §2.3 claim this repo's generational collector targets:
//! reclamation cost should be proportional to *garbage*, not to live-heap
//! size. The `churn` workload allocates a stream of short-lived scratch
//! arrays against a long-lived ballast whose size scales with the problem
//! size. Two machines run it at the same collection cadence:
//!
//! * **full** — every periodic collection is a full mark-sweep
//!   (`gc_full_interval = P`): each collection re-scans the whole live
//!   heap.
//! * **generational** — minor collections at the same cadence with an
//!   occasional full (`gc_minor_interval = P`, `gc_full_interval = 8P`):
//!   minor marks traverse only roots + pinned residents + remembered set
//!   + nursery.
//!
//! The headline metric is **words scanned per word reclaimed** — the
//! architectural cost of the collector per unit of useful work. The
//! acceptance bar: the generational configuration spends ≥2× fewer scanned
//! words per freed word, and its per-collection scan stays flat as the
//! live heap grows (sublinearity). Wall clock is reported with a
//! paired-median protocol: each round times both configurations back to
//! back, and the round with the median ratio is reported.
//!
//! Architectural integrity is asserted, not assumed: for every size the
//! generational configuration is run through both interpreter loops and
//! the full `CycleStats` must be bit-identical.

use std::time::Instant;

use com_core::{GcTotals, Machine, MachineConfig, MachineError, RunResult};
use com_mem::Word;
use com_stc::{compile_com, CompileOptions};
use com_workloads::{Workload, CHURN};

use crate::protocol::{self, artifact, num, obj, paired_median, ratio, text, Host};

/// The shared collection cadence (prime, so collections land mid-burst).
pub const MINOR_INTERVAL: u64 = 1009;
/// Generational full collections every `MINOR_INTERVAL * FULL_FACTOR`.
pub const FULL_FACTOR: u64 = 8;

/// Churn problem sizes measured: the live heap roughly doubles each step.
pub const SIZES: [i64; 3] = [120, 240, 480];

/// Paired wall-clock rounds per size.
pub const ROUNDS: u32 = 3;

/// One configuration's collector work plus its wall time.
#[derive(Debug, Clone, Copy)]
pub struct GcMeasure {
    /// Collections run (minor + full).
    pub collections: u64,
    /// Minor collections among them.
    pub minor_collections: u64,
    /// Words traversed by marking, both generations.
    pub words_scanned: u64,
    /// Words of storage reclaimed.
    pub words_freed: u64,
    /// Wall nanoseconds for the send (median paired round).
    pub wall_ns: u64,
}

impl GcMeasure {
    /// Words scanned per word reclaimed — the collector's unit cost.
    pub fn scanned_per_freed(&self) -> f64 {
        ratio(self.words_scanned, self.words_freed)
    }

    /// Words scanned per collection (the sublinearity probe).
    pub fn scanned_per_collection(&self) -> f64 {
        ratio(self.words_scanned, self.collections)
    }
}

/// Measurements for one churn problem size.
#[derive(Debug, Clone, Copy)]
pub struct GcRow {
    /// Problem size (iterations; ballast is `4 × size` words).
    pub size: i64,
    /// Live heap words at the end of the generational run.
    pub live_words: u64,
    /// Simulated instructions per send.
    pub instructions: u64,
    /// The full-collection-only configuration.
    pub full: GcMeasure,
    /// The generational configuration.
    pub generational: GcMeasure,
}

impl GcRow {
    /// How many times cheaper the generational collector's scanning is per
    /// reclaimed word (the ≥2× acceptance metric).
    pub fn scan_efficiency(&self) -> f64 {
        self.full.scanned_per_freed() / self.generational.scanned_per_freed().max(f64::MIN_POSITIVE)
    }
}

/// Closed-form expected answer of the churn workload for `n` iterations
/// (see the workload's doc comment).
pub fn churn_expected(n: i64) -> i64 {
    let acc_linear = n * (n + 1) / 2;
    let acc_cycle: i64 = (1..=n).map(|i| (i % 8) + 1).sum();
    let m = n / 10;
    let keep = 10 * m * (m + 1) / 2;
    acc_linear + acc_cycle + keep + n
}

/// The churn workload scaled to `size` iterations.
pub fn churn_at(size: i64) -> Workload {
    Workload {
        size,
        expected: churn_expected(size),
        ..CHURN
    }
}

fn full_config() -> MachineConfig {
    MachineConfig {
        gc_full_interval: Some(MINOR_INTERVAL),
        ..MachineConfig::default()
    }
}

fn generational_config() -> MachineConfig {
    MachineConfig::default().with_generational_gc(MINOR_INTERVAL, MINOR_INTERVAL * FULL_FACTOR)
}

/// Runs `w` once on a fresh machine, returning the result, the GC totals,
/// the final live-heap words and the wall time of the send.
fn run_once(
    w: &Workload,
    cfg: MachineConfig,
    stepwise: bool,
) -> Result<(RunResult, GcTotals, u64, u64), MachineError> {
    let image = compile_com(w.source, CompileOptions::default())
        .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.name));
    let mut m = Machine::new(cfg);
    m.load(&image)?;
    let sel = m
        .opcodes()
        .get(w.entry)
        .unwrap_or_else(|| panic!("entry {} not interned", w.entry));
    m.start_send(sel, Word::Int(w.size), &[])?;
    let t0 = Instant::now();
    let out = if stepwise {
        m.run_stepwise(com_workloads::MAX_STEPS)?
    } else {
        m.run(com_workloads::MAX_STEPS)?
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(
        out.result,
        Word::Int(w.expected),
        "{} self-check failed at size {}",
        w.name,
        w.size
    );
    let live = m.space().memory().buddy().allocated_words();
    Ok((out, m.gc_totals(), live, wall_ns))
}

/// Measures one churn size under both configurations with the
/// paired-median wall protocol, asserting the threaded and stepwise loops
/// stay bit-identical under the generational cadence.
///
/// # Errors
///
/// Propagates machine errors.
///
/// # Panics
///
/// Panics if the workload miscompiles, fails its self-check, never
/// collects, or diverges between interpreter loops.
pub fn measure_size(size: i64, repeats: u32) -> Result<GcRow, MachineError> {
    let w = churn_at(size);

    // Architectural integrity: both loops, bit-identical CycleStats.
    let (fast, gen_totals, live_words, _) = run_once(&w, generational_config(), false)?;
    let (slow, slow_totals, _, _) = run_once(&w, generational_config(), true)?;
    assert_eq!(
        fast.stats, slow.stats,
        "CycleStats diverged between run and run_stepwise under gc_minor_interval (size {size})"
    );
    assert_eq!(gen_totals, slow_totals, "GC totals diverged between loops");
    let (full_out, full_totals, _, _) = run_once(&w, full_config(), false)?;
    assert!(
        full_totals.full_collections > 0 && gen_totals.minor_collections > 0,
        "collections must actually run at size {size}"
    );

    // Paired wall rounds: time full then generational under the same
    // conditions.
    let (full_ns, gen_ns) = paired_median(
        repeats,
        || {
            let (_, _, _, full_ns) = run_once(&w, full_config(), false)?;
            let (_, _, _, gen_ns) = run_once(&w, generational_config(), false)?;
            Ok::<_, MachineError>((full_ns, gen_ns))
        },
        |&(full_ns, gen_ns)| ratio(full_ns, gen_ns),
    )?;

    Ok(GcRow {
        size,
        live_words,
        instructions: full_out.stats.instructions,
        full: GcMeasure {
            collections: full_totals.full_collections + full_totals.minor_collections,
            minor_collections: full_totals.minor_collections,
            words_scanned: full_totals.words_scanned(),
            words_freed: full_totals.words_freed(),
            wall_ns: full_ns,
        },
        generational: GcMeasure {
            collections: gen_totals.full_collections + gen_totals.minor_collections,
            minor_collections: gen_totals.minor_collections,
            words_scanned: gen_totals.words_scanned(),
            words_freed: gen_totals.words_freed(),
            wall_ns: gen_ns,
        },
    })
}

/// Runs the full pipeline: every size in [`SIZES`], [`ROUNDS`] paired
/// rounds each.
///
/// # Errors
///
/// Propagates machine errors.
pub fn report() -> Result<Vec<GcRow>, MachineError> {
    SIZES.iter().map(|s| measure_size(*s, ROUNDS)).collect()
}

/// Renders the rows as the machine-readable `BENCH_gc.json` document.
pub fn to_json(rows: &[GcRow], host: &Host) -> String {
    let measure = |m: &GcMeasure| {
        obj(&[
            ("collections", &m.collections),
            ("minor_collections", &m.minor_collections),
            ("words_scanned", &m.words_scanned),
            ("words_freed", &m.words_freed),
            ("scanned_per_freed", &num(m.scanned_per_freed())),
            ("scanned_per_collection", &num(m.scanned_per_collection())),
            ("wall_ns", &m.wall_ns),
        ])
    };
    let row = |r: &GcRow| {
        obj(&[
            ("size", &r.size),
            ("live_words", &r.live_words),
            ("instructions", &r.instructions),
            ("full", &measure(&r.full)),
            ("generational", &measure(&r.generational)),
            ("scan_efficiency", &num(r.scan_efficiency())),
        ])
    };
    // No rows: 0/0 is NaN, written as null.
    let geomean =
        (rows.iter().map(|r| r.scan_efficiency().ln()).sum::<f64>() / rows.len() as f64).exp();
    artifact(
        "gc",
        host,
        &obj(&[
            ("workload", &text(CHURN.name)),
            ("minor_interval", &MINOR_INTERVAL),
            ("full_factor", &FULL_FACTOR),
        ]),
        &obj(&[
            (
                "scanned_per_freed",
                &text("mark-phase words scanned per word of storage reclaimed"),
            ),
            (
                "scan_efficiency",
                &text("full scanned_per_freed over generational scanned_per_freed"),
            ),
        ]),
        &[
            ("rows", &protocol::rows(rows.iter().map(row))),
            (
                "summary",
                &obj(&[
                    ("geomean_scan_efficiency", &num(geomean)),
                    (
                        "target_2x_met",
                        &rows.iter().all(|r| r.scan_efficiency() >= 2.0),
                    ),
                ]),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_expected_matches_the_shipped_workload() {
        assert_eq!(churn_expected(CHURN.size), CHURN.expected);
        // Spot checks of the closed form.
        assert_eq!(churn_expected(10), 55 + 41 + 10 + 10);
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let m = GcMeasure {
            collections: 4,
            minor_collections: 0,
            words_scanned: 4000,
            words_freed: 400,
            wall_ns: 1000,
        };
        let g = GcMeasure {
            collections: 4,
            minor_collections: 4,
            words_scanned: 800,
            words_freed: 400,
            wall_ns: 900,
        };
        let rows = vec![GcRow {
            size: 40,
            live_words: 1234,
            instructions: 5678,
            full: m,
            generational: g,
        }];
        let host = Host {
            cores: 2,
            commit: "abc1234".to_string(),
        };
        let j = to_json(&rows, &host);
        assert!(j.contains("\"scan_efficiency\": 5.000"));
        assert!(j.contains("\"target_2x_met\": true"));
    }

    #[test]
    fn smoke_measure_tiny_size() {
        // End-to-end: collections run, loops agree, metrics are sane.
        let row = measure_size(60, 1).unwrap();
        assert!(row.generational.minor_collections > 0);
        assert!(row.full.words_freed > 0);
        assert!(row.generational.words_freed > 0);
    }
}
