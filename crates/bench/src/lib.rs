//! Experiment harness support: shared trace construction and report
//! formatting for the figure/table binaries (see `src/bin/`), and the
//! four wall-clock bench pipelines `bench_all` runs over one shared
//! [`protocol`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gc;
pub mod parallel;
pub mod protocol;
pub mod server;
pub mod sessions;

use com_core::{CycleStats, MachineConfig};
use com_mem::Word;
use com_stc::CompileOptions;
use com_trace::Trace;
use com_vm::{Vm, VmError};
use com_workloads::{self as workloads, Workload};

/// Builds the merged Fith trace of all portable workloads — the
/// reproduction's counterpart of the paper's "several traces … the longest
/// of which was about 20,000 instructions" (§5).
///
/// # Panics
///
/// Panics if any workload fails (they are self-checking).
pub fn merged_fith_trace() -> Trace {
    let mut merged = Trace::new();
    for w in workloads::portable() {
        let (t, out) = workloads::trace_fith(&w, workloads::MAX_STEPS)
            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        assert_eq!(
            out.result,
            com_mem::Word::Int(w.expected),
            "{} self-check failed",
            w.name
        );
        merged.extend(&t);
    }
    merged
}

/// Per-workload Fith traces with names.
///
/// # Panics
///
/// Panics if any workload fails.
pub fn per_workload_traces() -> Vec<(&'static str, Trace)> {
    workloads::portable()
        .iter()
        .map(|w| {
            let (t, _) = workloads::trace_fith(w, workloads::MAX_STEPS)
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            (w.name, t)
        })
        .collect()
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:w$} |", c, w = widths[i]));
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", line(&sep));
    for row in rows {
        println!("{}", line(row));
    }
}

/// A workload, its shared image, and its outcome when run alone on a
/// fresh session: the reference every tenant of a multi-tenant run is
/// compared with.
pub(crate) struct Solo {
    /// The workload.
    pub workload: Workload,
    /// The image tenants of this workload boot from.
    pub vm: Vm,
    /// The solo run's result word.
    pub result: Word,
    /// The solo run's statistics.
    pub stats: CycleStats,
}

/// Boots one image per workload in `set` and runs each workload alone.
///
/// # Panics
///
/// Panics if a workload fails its self-check.
pub(crate) fn solo_baselines(set: &[Workload]) -> Result<Vec<Solo>, VmError> {
    set.iter()
        .map(|w| {
            let vm = workloads::vm_for(w, MachineConfig::default(), CompileOptions::default());
            let out = workloads::run_on(w, &mut vm.session()?, workloads::MAX_STEPS)?;
            assert_eq!(
                out.result,
                Word::Int(w.expected),
                "{} failed its self-check solo",
                w.name
            );
            Ok(Solo {
                workload: *w,
                vm,
                result: out.result,
                stats: out.stats,
            })
        })
        .collect()
}

/// Formats an optional ratio as a percentage.
pub fn pct(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{:.2}%", v * 100.0),
        None => "—".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_trace_is_large() {
        let t = merged_fith_trace();
        assert!(t.len() > 100_000, "merged trace only {}", t.len());
    }
}
