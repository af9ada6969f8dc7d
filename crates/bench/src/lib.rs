//! The paper's experiments and the wall-clock bench pipelines.
//!
//! [`experiments`] computes every paper table and figure with its typed
//! claims; the `repro` binary prints them all and exits 1 if a claim
//! fails. The four wall-clock bench pipelines run from `bench_all` over
//! one shared [`protocol`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
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

/// Prints a markdown-style table under a `## title` heading.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(title, headers, rows));
}

/// Renders a markdown-style table under a `## title` heading.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    fn line<T: std::fmt::Display>(cells: impl IntoIterator<Item = T>, widths: &[usize]) -> String {
        let mut s = String::from("|");
        for (c, w) in cells.into_iter().zip(widths) {
            s += &format!(" {c:w$} |");
        }
        s + "\n"
    }
    let mut out = format!("\n## {title}\n\n") + &line(headers, &widths);
    out += &line(widths.iter().map(|w| "-".repeat(*w)), &widths);
    for row in rows {
        out += &line(row, &widths);
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_trace_is_large() {
        let t = merged_fith_trace();
        assert!(t.len() > 100_000, "merged trace only {}", t.len());
    }
}
