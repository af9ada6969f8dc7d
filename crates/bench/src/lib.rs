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

use std::time::Instant;

use com_core::CycleStats;
use com_mem::Word;
use com_trace::Trace;
use com_vm::server::{Request, Server, ServerConfig, TenantConfig, Ticket};
use com_vm::{Vm, VmError};
use com_workloads::{self as workloads, Workload};

/// Instructions per turn for every tenant [`serve`]s.
pub(crate) const SLICE_STEPS: u64 = 5_000;

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

/// A workload and its outcome when run alone on a fresh session of the
/// joined image its tenants are served from: the reference every tenant
/// of a multi-tenant run is compared with.
pub(crate) struct Solo {
    /// The workload.
    pub workload: Workload,
    /// The solo run's result word.
    pub result: Word,
    /// The solo run's statistics.
    pub stats: CycleStats,
}

/// Boots the joined image of `set` and runs each workload of `set` alone
/// on a fresh session of it. A workload's own image gives some workloads
/// other cycle counts than the joined one, so the baselines are taken on
/// the image [`serve`] serves.
///
/// # Errors
///
/// Propagates compile, boot and machine errors.
///
/// # Panics
///
/// Panics if a workload fails its self-check.
pub(crate) fn solo_baselines(set: &[Workload]) -> Result<(Vm, Vec<Solo>), VmError> {
    let sources: Vec<&str> = set.iter().map(|w| w.source).collect();
    let vm = Vm::builder().source(&sources.join("\n")).build()?;
    let solo = set
        .iter()
        .map(|w| {
            let out = workloads::run_on(w, &mut vm.session()?, workloads::MAX_STEPS)?;
            assert_eq!(
                out.result,
                Word::Int(w.expected),
                "{} failed its self-check solo",
                w.name
            );
            Ok(Solo {
                workload: *w,
                result: out.result,
                stats: out.stats,
            })
        })
        .collect::<Result<_, VmError>>()?;
    Ok((vm, solo))
}

/// One tenant's response from [`serve`], held against its solo run.
pub(crate) struct Served {
    /// The tenant's workload.
    pub workload: &'static str,
    /// The result word.
    pub result: Word,
    /// The request's statistics.
    pub stats: CycleStats,
    /// Whether result and statistics equal the solo run's, bit for bit.
    pub matches_solo: bool,
}

/// Serves `tenants` tenants over `vm` on a `workers`-worker [`Server`]
/// with [`SLICE_STEPS`]-instruction turns, tenant `i` sending the entry
/// of `solo[i % solo.len()]`'s workload once. Every tenant is registered
/// before the clock starts, and the clock runs from the first submit to
/// the last response. Returns the wall nanoseconds and each tenant's
/// response, compared with its solo run, in tenant order.
///
/// # Errors
///
/// Propagates boot errors.
///
/// # Panics
///
/// Panics if a request is refused or fails.
pub(crate) fn serve(
    vm: &Vm,
    solo: &[Solo],
    tenants: usize,
    workers: usize,
) -> Result<(u64, Vec<Served>), VmError> {
    let config = ServerConfig {
        workers,
        base_slice: SLICE_STEPS,
        ..ServerConfig::default()
    };
    let server = Server::start(vm.clone(), config);
    let names: Vec<String> = (0..tenants).map(|i| format!("t{i}")).collect();
    for name in &names {
        server.register(name, TenantConfig::default())?;
    }
    let t0 = Instant::now();
    let tickets: Vec<Ticket> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let w = &solo[i % solo.len()].workload;
            server
                .submit(name, Request::new(w.entry, w.size))
                .unwrap_or_else(|e| panic!("{} (tenant {i}) refused: {e}", w.name))
        })
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let served = responses
        .into_iter()
        .enumerate()
        .map(|(i, response)| {
            let baseline = &solo[i % solo.len()];
            let name = baseline.workload.name;
            let result = response
                .outcome
                .unwrap_or_else(|e| panic!("{name} (tenant {i}) failed at {workers} workers: {e}"));
            Served {
                workload: name,
                result,
                stats: response.stats,
                matches_solo: result == baseline.result && response.stats == baseline.stats,
            }
        })
        .collect();
    Ok((wall_ns, served))
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
