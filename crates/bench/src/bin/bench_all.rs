//! Every wall-clock bench pipeline in one run: writes `BENCH_gc.json`,
//! `BENCH_sessions.json`, `BENCH_parallel.json` and `BENCH_server.json`
//! into one output directory (default `.`).
//!
//! ```sh
//! cargo run --release --bin bench_all              # rewrites the shipped files
//! cargo run --release --bin bench_all -- out/      # writes them into out/
//! ```
//!
//! Each pipeline (see its module in `com_bench`) runs at one fixed
//! configuration under the shared protocol; the sessions round robin,
//! the parallel sweep and the server pipeline all serve their tenants on
//! a `com_vm::server::Server`. Every file starts with the same header:
//! `bench`, `schema`, `host` (cores and `git describe --always
//! --dirty`), `protocol` and `unit`. GC loop
//! identity and parallel fidelity are asserted while measuring; the
//! round-robin and server p99 bars after all four files are written, so
//! a missed bar still leaves every artifact behind.

use std::path::{Path, PathBuf};

use com_bench::protocol::Host;
use com_bench::sessions::SessionsReport;
use com_bench::{gc, parallel, print_table, server, sessions};

/// The output directory: the only argument, or `.` without one.
fn out_dir() -> PathBuf {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => PathBuf::from("."),
        [dir] if !dir.starts_with('-') => PathBuf::from(dir),
        _ => {
            eprintln!("usage: bench_all [OUTPUT_DIR]  (takes no flags; got {args:?})");
            std::process::exit(2);
        }
    }
}

/// Writes `BENCH_<bench>.json` into `dir`.
fn write(dir: &Path, bench: &str, json: &str) {
    let path = dir.join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

fn verdict(met: bool, bar: &str) -> String {
    format!("(target {bar}: {})", if met { "MET" } else { "MISSED" })
}

fn print_gc(rows: &[gc::GcRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.size),
                format!("{}", r.live_words),
                format!("{:.1}", r.full.scanned_per_freed()),
                format!("{:.1}", r.generational.scanned_per_freed()),
                format!("{:.0}", r.full.scanned_per_collection()),
                format!("{:.0}", r.generational.scanned_per_collection()),
                format!("{:.2}x", r.scan_efficiency()),
            ]
        })
        .collect();
    print_table(
        "GC scanning cost (full mark-sweep vs generational)",
        &[
            "size",
            "live words",
            "full scan/freed",
            "gen scan/freed",
            "full scan/gc",
            "gen scan/gc",
            "efficiency",
        ],
        &table,
    );
    for r in rows {
        let e = r.scan_efficiency();
        println!("size {}: {e:.2}x {}", r.size, verdict(e >= 2.0, "≥2x"));
    }
}

fn print_sessions(r: &SessionsReport) {
    println!(
        "\nspin-up: fresh compile+load {} ns, shared-image session() {} ns — {:.1}x {}",
        r.spinup.fresh_ns,
        r.spinup.session_ns,
        r.spinup.speedup(),
        verdict(r.spinup.speedup() >= 10.0, "≥10x"),
    );
    let table: Vec<Vec<String>> = r
        .tenants
        .iter()
        .map(|t| {
            vec![
                format!("{}", t.tenant),
                t.workload.to_string(),
                format!("{}", t.result),
                format!("{}", t.instructions),
                if t.matches_sequential { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "{}-session round-robin on a one-worker server vs sequential",
            r.tenants.len()
        ),
        &[
            "tenant",
            "workload",
            "result",
            "instructions",
            "bit-identical",
        ],
        &table,
    );
    println!(
        "\nround-robin fidelity: {}",
        if r.all_match() {
            "every tenant bit-identical to its sequential run"
        } else {
            "DIVERGENCE DETECTED"
        }
    );
}

fn print_parallel(rows: &[parallel::ScalingRow], host: &Host) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                format!("{}", row.workers),
                format!("{}", row.wall_ns),
                format!("{}", row.instructions),
                format!("{:.1}", row.throughput),
                format!("{:.2}x", row.speedup_vs_1),
            ]
        })
        .collect();
    print_table(
        "Aggregate drain throughput (median round)",
        &["workers", "wall ns", "instructions", "instr/us", "speedup"],
        &table,
    );
    println!(
        "\nfidelity: {} tenants x {} worker counts all bit-identical to solo: true",
        parallel::TENANTS,
        rows.len(),
    );
    println!(
        "scaling: {:.2}x at 4 workers on a {}-core host {}",
        parallel::headline_speedup(rows),
        host.cores,
        if parallel::target_met(rows) {
            "(target ≥2x: MET)"
        } else if host.limited(parallel::HEADLINE_WORKERS) {
            "(target ≥2x: HOST-LIMITED — fewer cores than workers caps wall-clock parallelism)"
        } else {
            "(target ≥2x: MISSED)"
        }
    );
}

fn print_server(r: &server::ServerReport, host: &Host) {
    let table: Vec<Vec<String>> = [&r.without, &r.with_faults]
        .iter()
        .map(|p| {
            vec![
                if p.faults { "1%" } else { "none" }.to_string(),
                format!("{:.0}", p.req_per_s),
                format!("{:.0}", p.p50_us),
                format!("{:.0}", p.p99_us),
                format!("{}", p.completed),
                format!("{}", p.failed),
                format!("{}", p.retries),
                format!("{}", p.faults_injected),
                format!("{}", p.max_queued),
            ]
        })
        .collect();
    print_table(
        "Sustained service latency (median round)",
        &[
            "faults",
            "req/s",
            "p50 us",
            "p99 us",
            "completed",
            "failed",
            "retries",
            "injected",
            "max queued",
        ],
        &table,
    );
    println!(
        "\ntail latency: p99 {:.0}us fault-free vs {:.0}us at 1% faults = {:.2}x on a {}-core host {}",
        r.without.p99_us,
        r.with_faults.p99_us,
        r.p99_ratio(),
        host.cores,
        verdict(r.target_met(), "≤2x"),
    );
    if host.limited(r.workers) {
        println!(
            "note: host has fewer cores than workers; absolute throughput is time-sliced, the p99 ratio remains comparable"
        );
    }
}

fn main() {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let host = Host::probe();
    println!(
        "bench_all — {}-core host, commit {}",
        host.cores, host.commit
    );

    println!(
        "\ngc bench — sizes {:?}, {} paired rounds, median kept",
        gc::SIZES,
        gc::ROUNDS
    );
    let gc_rows = gc::report().unwrap_or_else(|e| panic!("gc bench failed: {e}"));
    print_gc(&gc_rows);
    write(&dir, "gc", &gc::to_json(&gc_rows, &host));

    println!(
        "\nsessions bench — {} tenants, {} paired spin-up rounds, median kept",
        sessions::SESSIONS,
        sessions::ROUNDS
    );
    let sessions_report =
        sessions::report().unwrap_or_else(|e| panic!("sessions bench failed: {e}"));
    print_sessions(&sessions_report);
    write(
        &dir,
        "sessions",
        &sessions::to_json(&sessions_report, &host),
    );

    println!(
        "\nparallel bench — {} tenants over workers {:?}, {} paired rounds, median kept",
        parallel::TENANTS,
        parallel::WORKER_COUNTS,
        parallel::ROUNDS
    );
    let parallel_rows = parallel::report().unwrap_or_else(|e| panic!("parallel bench failed: {e}"));
    print_parallel(&parallel_rows, &host);
    write(&dir, "parallel", &parallel::to_json(&parallel_rows, &host));

    println!(
        "\nserver bench — {} tenants x {} requests over {} workers, {} paired rounds, median p99-ratio kept",
        server::TENANTS,
        server::REQUESTS_PER_TENANT,
        server::WORKERS,
        server::ROUNDS,
    );
    let server_report = server::report(server::TENANTS, server::WORKERS, server::ROUNDS)
        .unwrap_or_else(|e| panic!("server bench failed: {e}"));
    print_server(&server_report, &host);
    write(&dir, "server", &server::to_json(&server_report, &host));

    assert!(
        sessions_report.all_match(),
        "round-robin diverged from sequential"
    );
    assert!(
        server_report.target_met(),
        "acceptance: p99 with faults must stay within 2x of fault-free (got {:.2}x)",
        server_report.p99_ratio()
    );
}
