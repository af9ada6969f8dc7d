//! Tests of the benchmark's own helpers, and a miniature run of every
//! workload through the correctness gate.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use com_core::MachineConfig;
use com_vm::Word;
use com_workloads as wl;
use perfbench::json::Json;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::rng::{request_schedule, rounds_schedule};
use perfbench::sim::Floors;
use perfbench::stats::{
    block_percentile, fastest, fastest_of_passes, median, percentile, quantile,
};
use perfbench::trace::{self_times, Span, Tracer};
use perfbench::{run, Bench, Opts};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_is_the_highest_with_ten_samples_beyond_it() {
    // 1000 samples: exactly ten lie beyond the 99th.
    let p = percentile(&ramp(1000), 99.0).unwrap();
    assert_eq!((p.value, p.pct, p.n), (990.0, 99.0, 1000));
    // 999 samples leave only nine beyond the 99th: fall back to the 95th.
    let p = percentile(&ramp(999), 99.0).unwrap();
    assert_eq!((p.value, p.pct, p.n), (950.0, 95.0, 999));
    // Order does not matter.
    let mut shuffled = ramp(1000);
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 99.0).unwrap().value, 990.0);
    // Below twenty samples only the median is reported.
    let p = percentile(&ramp(15), 99.0).unwrap();
    assert_eq!((p.value, p.pct, p.n), (8.0, 50.0, 15));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn block_percentile_is_the_median_of_blocks_each_with_ten_beyond() {
    // Three blocks of 1000; one has a stall that lifts its tail.
    let mut samples = ramp(1000);
    samples.extend(ramp(1000).iter().map(|v| v + 1000.0));
    samples.extend(ramp(1000));
    let p = block_percentile(&samples, 99.0, 9).unwrap();
    assert_eq!((p.value, p.pct, p.n, p.blocks), (990.0, 99.0, 3000, 3));
    // Too few samples for two blocks: a plain percentile.
    let p = block_percentile(&ramp(1999), 99.0, 9).unwrap();
    assert_eq!((p.value, p.blocks), (1980.0, 1));
    // The block count is capped.
    assert_eq!(block_percentile(&ramp(10_000), 50.0, 9).unwrap().blocks, 9);
}

#[test]
fn median_fastest_and_nearest_rank_quantile() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
    assert_eq!(fastest(&[]), 0.0);
    // No minimum count beyond: the 1st percentile of 1000 is the tenth.
    assert_eq!(quantile(&ramp(1000), 1.0), Some(10.0));
    assert_eq!(quantile(&[5.0], 1.0), Some(5.0));
    assert_eq!(quantile(&[], 1.0), None);
}

#[test]
fn floors_are_each_programs_low_percentile_whatever_the_slow_sends() {
    // Program 0 takes 2 ms and program 1 takes 6 ms at full speed; a slow
    // host lifts most sends of both, and by a different amount over time.
    let mut sent = Vec::new();
    let mut latencies = Vec::new();
    let mut instructions = Vec::new();
    for i in 0..1000 {
        let slow = if i % 10 < 8 {
            1.5 + (i as f64) / 1000.0
        } else {
            1.0
        };
        for (p, ms, n) in [(0, 2.0, 100), (1, 6.0, 500)] {
            sent.push(p);
            latencies.push(ms * slow);
            instructions.push(n);
        }
    }
    let f = Floors::of(2, &sent, &latencies, &instructions);
    assert_eq!(f.ms, [2.0, 6.0]);
    assert_eq!(f.instructions, [100.0, 500.0]);
    // One send of each: 600 instructions and two sends in 8 ms.
    assert!((f.minstr_per_s() - 0.075).abs() < 1e-12);
    assert!((f.sends_per_s() - 250.0).abs() < 1e-9);
    assert_eq!(f.p50_ms(), 4.0);
}

#[test]
fn at_full_speed_takes_out_slow_stretches_but_not_slow_sends() {
    let f = Floors {
        ms: vec![2.0, 6.0],
        instructions: vec![100.0, 500.0],
    };
    // 64 sends alternating between the programs, two per stretch; the
    // host runs three times slower over the first half, and send 40 (of
    // program 0) takes five times its floor for its own reasons.
    let sent: Vec<usize> = (0..64).map(|i| i % 2).collect();
    let latencies: Vec<f64> = (0..64)
        .map(|i| {
            let slow = if i < 32 { 3.0 } else { 1.0 };
            let own = if i == 40 { 5.0 } else { 1.0 };
            f.ms[i % 2] * slow * own
        })
        .collect();
    let scaled = f.at_full_speed(&sent, &latencies);
    for (i, ms) in scaled.iter().enumerate() {
        let want = match i {
            // Its stretch's median slowdown is (5 + 1) / 2.
            40 => 10.0 / 3.0,
            41 => 6.0 / 3.0,
            _ => f.ms[i % 2],
        };
        assert!((ms - want).abs() < 1e-12, "send {i}: {ms} != {want}");
    }
}

#[test]
fn fastest_of_passes_is_each_positions_minimum() {
    let a = [3.0, 1.0, 5.0, 2.0];
    let b = [2.0, 4.0, 5.0];
    let c = [9.0, 0.5, 1.0, 7.0];
    assert_eq!(
        fastest_of_passes([&a[..], &b[..], &c[..]]),
        vec![2.0, 0.5, 1.0]
    );
    assert_eq!(fastest_of_passes([&a[..]]), a.to_vec());
    assert!(fastest_of_passes(std::iter::empty::<&[f64]>()).is_empty());
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(20, 50, Some(0)),
        span(60, 70, Some(0)),
        // A child reaching past its parent counts only inside it.
        span(95, 120, Some(0)),
        span(12, 18, Some(1)),
    ];
    // Parent: 100 minus [10,50) ∪ [60,70) ∪ [95,100) = 100 - 55.
    assert_eq!(self_times(&spans), vec![45, 14, 30, 10, 25, 6]);
}

#[test]
fn tracer_nests_spans_and_totals_self_time() {
    let mut t = Tracer::new();
    let outer = t.enter("outer", 7);
    let inner = t.enter("inner", 7);
    std::thread::sleep(Duration::from_millis(2));
    t.exit(inner);
    t.exit(outer);
    let spans = t.spans();
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].request, 7);
    let totals = t.totals();
    let (o, i) = (totals["outer"], totals["inner"]);
    assert!(i.total_ns >= 2_000_000);
    assert_eq!(o.self_ns, o.total_ns - i.total_ns);
}

#[test]
fn schedules_repeat_for_a_seed_and_differ_across_seeds() {
    let a = rounds_schedule(42, 6, 50);
    assert_eq!(a, rounds_schedule(42, 6, 50));
    assert_ne!(a, rounds_schedule(43, 6, 50));
    // Every round sends each program once.
    for round in a.chunks(6) {
        let mut r = round.to_vec();
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 3, 4, 5]);
    }

    let p = request_schedule(42, 1000, 16, 7);
    assert_eq!(p, request_schedule(42, 1000, 16, 7));
    assert_ne!(p, request_schedule(43, 1000, 16, 7));
    assert_eq!(p.len(), 1000);
    // Tenants and programs come in rounds.
    for round in p.chunks_exact(16) {
        let mut t: Vec<usize> = round.iter().map(|a| a.tenant).collect();
        t.sort_unstable();
        assert_eq!(t, (0..16).collect::<Vec<_>>());
    }
    for round in p.chunks_exact(7) {
        let mut r: Vec<usize> = round.iter().map(|a| a.program).collect();
        r.sort_unstable();
        assert_eq!(r, (0..7).collect::<Vec<_>>());
    }
}

#[test]
fn json_numbers_and_strings_render_exactly() {
    let j = Json::obj([
        ("a", Json::Num(1.2034)),
        ("b", Json::Num(2.0)),
        ("c", Json::Int(-3)),
        ("d", Json::str("q\"\\\n")),
        (
            "e",
            Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(f64::NAN)]),
        ),
    ]);
    assert_eq!(
        j.render(),
        r#"{"a":1.2034,"b":2.0,"c":-3,"d":"q\"\\\n","e":[null,true,null]}"#
    );
}

/// `Session::send_raw` returns the session's cumulative statistics in
/// `RunResult.stats`, not the call's own (whatever its documentation
/// says), which is why the benchmark derives per-send counts with
/// `Session::stats().since(before)`. If the engine starts returning
/// per-call statistics, this test fails and the benchmark can use them.
#[test]
fn send_raw_reports_cumulative_stats() {
    let w = wl::CALLS;
    let vm = com_vm::Vm::builder()
        .source(w.source)
        .config(MachineConfig::default())
        .build()
        .unwrap();
    let mut s = vm.session().unwrap();
    let first = s
        .send_raw(w.entry, Word::Int(w.size), &[], wl::MAX_STEPS)
        .unwrap();
    let before = s.stats();
    let second = s
        .send_raw(w.entry, Word::Int(w.size), &[], wl::MAX_STEPS)
        .unwrap();
    assert_eq!(second.result, Word::Int(w.expected));
    let own = s.stats().since(&before);
    assert!(own.instructions > 0);
    assert_eq!(second.stats, s.stats(), "RunResult.stats is cumulative");
    assert_ne!(second.stats, own);
    assert_eq!(
        second.stats.instructions,
        first.stats.instructions + own.instructions
    );
}

fn mini(trace: bool) -> Opts {
    Opts {
        seed: 9,
        seconds: 0.3,
        trace,
        limit_ms: 50.0,
    }
}

#[test]
fn miniature_runs_pass_the_correctness_gate() {
    for bench in Bench::ALL {
        let plain = run(bench, &mini(false));
        assert!(plain.correct(), "{}: {:?}", bench.name(), plain.problems);
        assert_eq!(plain.failed, 0, "{}", bench.name());
        assert!(plain.attempted > 0);
        assert!(plain.metrics.missing(&END_TO_END).is_empty());
        for (name, _) in END_TO_END {
            assert!(
                plain.metrics.get(name).unwrap() > 0.0,
                "{}: {name}",
                bench.name()
            );
        }

        // The repeat passes and the traced pass match the first pass
        // exactly (checked inside), and so does another run of the seed.
        let traced = run(bench, &mini(true));
        assert!(traced.correct(), "{}: {:?}", bench.name(), traced.problems);
        assert_eq!(traced.fingerprint, plain.fingerprint, "{}", bench.name());
        assert!(traced.tracer.is_some());
        let instructions = traced.metrics.get("core.instructions").unwrap();
        assert!(instructions > 0.0, "{}", bench.name());
        assert!(traced.metrics.get("obj.itlb_probe_ns").unwrap() > 0.0);
        assert!(traced.metrics.get("vm.boot_us_p50").unwrap() > 0.0);
        let layer = match bench {
            Bench::ServeClosed => "server.instr_per_request",
            _ => "vm.send_ns_per_instr",
        };
        assert!(traced.metrics.get(layer).unwrap() > 0.0, "{}", bench.name());
        // Every per-layer metric is either measured or known not to apply.
        assert!(traced.metrics.missing(&PER_LAYER).len() < PER_LAYER.len() / 2);
    }
}

#[test]
fn a_wrong_answer_fails_the_gate() {
    let mut w = wl::CALLS;
    assert!(perfbench::check_answer(&w, Word::Int(w.expected)).is_ok());
    w.expected += 1;
    assert!(perfbench::check_answer(&w, Word::Int(610)).is_err());
}
