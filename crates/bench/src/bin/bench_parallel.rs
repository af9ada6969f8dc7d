//! Parallel-executor bench: emits `BENCH_parallel.json`.
//!
//! ```sh
//! cargo run --release --bin bench_parallel                 # writes BENCH_parallel.json
//! cargo run --release --bin bench_parallel -- out.json
//! cargo run --release --bin bench_parallel -- out.json --tenants 32 --workers 1,2,4,8 --repeats 5
//! ```
//!
//! Two measurements:
//!
//! * **Fidelity**: every tenant, at every worker count, must finish with
//!   a result and `CycleStats` bit-identical to solo execution (asserted
//!   exactly — a divergence aborts the bench).
//! * **Scaling**: aggregate drain throughput at 4 workers vs 1 worker,
//!   paired rounds, median kept. Acceptance bar: ≥ 2×. Wall-clock
//!   scaling requires real cores; the JSON records `host_cores` and
//!   flags `host_limited` on a host with fewer than 4 cores, so the bar
//!   is judged on capable hardware. Without 4 in `--workers` the
//!   headline speedup and its verdict are `null`.

use com_bench::parallel::{report, report_to_json};
use com_bench::print_table;

fn parse_args() -> (String, usize, Vec<usize>, u32) {
    let mut out = "BENCH_parallel.json".to_string();
    let mut tenants = com_bench::parallel::TENANTS;
    let mut workers: Vec<usize> = com_bench::parallel::WORKER_COUNTS.to_vec();
    let mut repeats = 5u32;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tenants" => {
                tenants = args
                    .next()
                    .expect("--tenants needs a count")
                    .parse()
                    .expect("tenants must be an integer");
            }
            "--workers" => {
                workers = args
                    .next()
                    .expect("--workers needs a comma-separated list")
                    .split(',')
                    .map(|w| w.parse().expect("worker counts must be integers"))
                    .collect();
            }
            "--repeats" => {
                repeats = args
                    .next()
                    .expect("--repeats needs a count")
                    .parse()
                    .expect("repeats must be an integer");
            }
            other if other.starts_with("--") => {
                panic!("unknown flag {other}; supported: --tenants n --workers a,b,c --repeats n")
            }
            other => out = other.to_string(),
        }
    }
    (out, tenants, workers, repeats)
}

fn main() {
    let (out_path, tenants, workers, repeats) = parse_args();
    println!(
        "parallel bench — {tenants} tenants over workers {workers:?}, {repeats} paired rounds, median kept"
    );

    let r =
        report(tenants, &workers, repeats).unwrap_or_else(|e| panic!("parallel bench failed: {e}"));

    let table: Vec<Vec<String>> = r
        .rows
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
        "\nfidelity: {} tenants x {} worker counts all bit-identical to solo: {}",
        r.tenants,
        r.rows.len(),
        r.all_match,
    );
    match r.headline_speedup() {
        Some(speedup) => println!(
            "scaling: {speedup:.2}x at 4 workers on a {}-core host {}",
            r.host_cores,
            if r.target_met() == Some(true) {
                "(target ≥2x: MET)"
            } else if r.host_limited() {
                "(target ≥2x: HOST-LIMITED — fewer cores than workers caps wall-clock parallelism)"
            } else {
                "(target ≥2x: MISSED)"
            }
        ),
        None => println!(
            "scaling: no 4-worker row, so no verdict on the ≥2x target ({}-core host)",
            r.host_cores
        ),
    }

    let json = report_to_json(&r);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
