//! Every experiment of the paper in one run: T1–T6, Figures 10 and 11,
//! and ablations A1–A3, each table followed by its claims.
//!
//! ```sh
//! cargo run --release --bin repro
//! ```
//!
//! Takes no arguments. Exits 1 if any claim fails (the failing claims are
//! repeated on stderr), 2 if given an argument.

use std::process::ExitCode;

use com_bench::experiments;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: repro  (takes no arguments)");
        return ExitCode::from(2);
    }
    let mut failures = Vec::new();
    for e in experiments::all() {
        e.print();
        failures.extend(e.failures());
    }
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("\n{} claim(s) failed:", failures.len());
    for f in &failures {
        eprintln!("{f}");
    }
    ExitCode::FAILURE
}
