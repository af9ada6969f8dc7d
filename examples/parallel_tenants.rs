//! Parallel tenants: eight sessions drained by a four-worker pool, with
//! results and statistics bit-identical to running each tenant alone.
//!
//! ```sh
//! cargo run --example parallel_tenants
//! ```

use com_machine::vm::{ParallelExecutor, Vm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        class SmallInteger
          method factorial | acc |
            acc := 1.
            1 to: self do: [ :i | acc := acc * i ].
            ^acc
          end
          method fib
            self < 2 ifTrue: [ ^self ].
            ^(self - 1) fib + (self - 2) fib
          end
        end
    "#;

    // Compile once; the image is immutable and Send + Sync.
    let vm = Vm::new(source)?;

    // Eight tenants, mixed workloads, each with a resumable call already
    // in flight. Session is Send: a call started here may finish on any
    // worker thread.
    let jobs: [(&str, i64); 8] = [
        ("fib", 18),
        ("factorial", 20),
        ("fib", 15),
        ("factorial", 12),
        ("fib", 19),
        ("factorial", 15),
        ("fib", 12),
        ("factorial", 18),
    ];
    let mut tenants = Vec::new();
    for (selector, n) in jobs {
        let mut s = vm.session()?;
        s.call_start(selector, n)?;
        tenants.push(s);
    }

    // Solo references for the fidelity check below.
    let mut solo = Vec::new();
    for (selector, n) in jobs {
        let mut s = vm.session()?;
        let _: i64 = s.call(selector, n)?;
        solo.push(s.last_run().expect("completed").clone());
    }

    // Drain all eight across four OS threads: each worker takes the next
    // tenant from a shared queue and drives it to completion in
    // 2000-instruction slices.
    let pool = ParallelExecutor::new(4, 2_000);
    let runs = pool.run(tenants);

    println!("tenant  call            result                slices  identical-to-solo");
    for (i, run) in runs.iter().enumerate() {
        let (selector, n) = jobs[i];
        let result: i64 = run.result_as()?.expect("completed");
        let stats = run.session.last_run().expect("completed").stats;
        let identical = stats == solo[i].stats && run.result == Some(solo[i].result);
        println!(
            "{i:<7} {:<15} {result:<21} {:<7} {identical}",
            format!("{selector}({n})"),
            run.slices,
        );
        assert!(identical, "parallel execution must not change semantics");
    }

    let total: u64 = runs
        .iter()
        .map(|r| r.session.last_run().expect("completed").stats.instructions)
        .sum();
    println!(
        "\n{} tenants, {} workers, {total} instructions retired — every tenant bit-identical to solo",
        runs.len(),
        pool.workers(),
    );
    Ok(())
}
