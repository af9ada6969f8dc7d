//! The concurrency contract of the facade, end to end: the engine layer
//! is `Send`, sessions move freely across threads, and the `Server`'s
//! workers keep every tenant's result and `CycleStats` bit-identical to
//! a solo run at any worker count and any slice.

use std::time::Duration;

use com_core::CycleStats;
use com_mem::Word;
use com_vm::server::{
    FaultKind, FaultPlan, Request, Response, ServeError, Server, ServerConfig, TenantConfig, Ticket,
};
use com_vm::{Outcome, Session, Vm, VmError};
use com_workloads as workloads;

const PROGRAM: &str = r#"
    class SmallInteger
      method factorial | acc |
        acc := 1.
        1 to: self do: [ :i | acc := acc * i ].
        ^acc
      end
      method tri ^self * (self + 1) / 2 end
      method fib
        self < 2 ifTrue: [ ^self ].
        ^(self - 1) fib + (self - 2) fib
      end
      method boom ^1 / (self - self) end
    end
"#;

/// (selector, receiver, expected) — a mixed bag of instruction streams.
fn tenant_mix() -> Vec<(&'static str, i64, i64)> {
    vec![
        ("factorial", 12, 479_001_600),
        ("fib", 13, 233),
        ("tri", 10_000, 50_005_000),
        ("factorial", 20, 2_432_902_008_176_640_000),
        ("fib", 10, 55),
        ("tri", 3, 6),
    ]
}

/// The mix as (selector, receiver) calls.
fn mix_calls() -> Vec<(&'static str, i64)> {
    tenant_mix().iter().map(|(s, n, _)| (*s, *n)).collect()
}

/// Runs every tenant alone, uninterrupted: the reference outcome.
fn solo_baselines(vm: &Vm) -> Vec<(Word, CycleStats)> {
    tenant_mix()
        .iter()
        .map(|(sel, n, expected)| {
            let mut s = vm.session().unwrap();
            let got: i64 = s.call(sel, *n).unwrap();
            assert_eq!(got, *expected, "{sel}({n}) self-check");
            let run = s.last_run().unwrap();
            (run.result, run.stats)
        })
        .collect()
}

/// A server over `vm` with `workers` workers and `base_slice`-instruction
/// turns.
fn server(vm: &Vm, workers: usize, base_slice: u64, plan: FaultPlan) -> Server {
    let config = ServerConfig {
        workers,
        base_slice,
        ..ServerConfig::default()
    };
    Server::with_faults(vm.clone(), config, plan)
}

/// Registers tenant `t{i}` for each call, submits call `i` as its one
/// request, and returns the responses in tenant order.
fn serve(server: &Server, calls: &[(&str, i64)]) -> Vec<Response> {
    let tickets: Vec<Ticket> = calls
        .iter()
        .enumerate()
        .map(|(i, (selector, n))| {
            let name = format!("t{i}");
            server.register(&name, TenantConfig::default()).unwrap();
            server.submit(&name, Request::new(selector, *n)).unwrap()
        })
        .collect();
    tickets.into_iter().map(Ticket::wait).collect()
}

#[test]
fn facade_thread_contract_is_compile_time() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    // The contract the crate docs state: Vm shared freely, Session moved
    // freely, one Server submitted to from any thread. (Session: !Sync
    // is asserted by a compile_fail doctest on the crate root —
    // exclusive &mut-style driving is the design.)
    assert_send_sync::<Vm>();
    assert_send_sync::<com_vm::LoadedImage>();
    assert_send::<Session>();
    assert_send::<com_vm::Machine>();
    assert_send::<VmError>();
    assert_send_sync::<Server>();
    assert_send::<Ticket>();
}

#[test]
fn parallel_pool_is_bit_identical_to_solo_and_scheduler() {
    let vm = Vm::new(PROGRAM).unwrap();
    let solo = solo_baselines(&vm);
    let calls = mix_calls();

    // Single-threaded reference: one worker round-robins the tenants in
    // 701-instruction turns.
    let round_robin = serve(&server(&vm, 1, 701, FaultPlan::new()), &calls);

    for workers in [1, 2, 4, 8] {
        let responses = serve(&server(&vm, workers, 701, FaultPlan::new()), &calls);
        assert_eq!(responses.len(), solo.len());
        for (i, response) in responses.iter().enumerate() {
            assert_eq!(
                response.outcome,
                Ok(solo[i].0),
                "tenant {i} result diverged at {workers} workers"
            );
            assert_eq!(
                response.stats, solo[i].1,
                "tenant {i} CycleStats diverged from solo at {workers} workers"
            );
            assert_eq!(
                response.stats, round_robin[i].stats,
                "tenant {i} CycleStats diverged from the one-worker round robin at {workers} workers"
            );
            assert_eq!(response.attempts, 1, "tenant {i} was retried");
        }
    }
}

#[test]
fn pool_reports_per_tenant_traps_without_disturbing_others() {
    let vm = Vm::new(PROGRAM).unwrap();
    let solo = solo_baselines(&vm);
    // The mix, and a tenant that traps: its trap disturbs no sibling.
    let mut calls = mix_calls();
    calls.push(("boom", 3));

    for workers in [1, 2, 4, 8] {
        let responses = serve(&server(&vm, workers, 701, FaultPlan::new()), &calls);
        let (boom, mix) = responses.split_last().unwrap();
        assert!(
            matches!(boom.outcome, Err(ServeError::Vm(VmError::Trap(_)))),
            "the boom tenant must trap at {workers} workers, got {:?}",
            boom.outcome
        );
        for (i, response) in mix.iter().enumerate() {
            assert_eq!(
                response.outcome,
                Ok(solo[i].0),
                "tenant {i} result diverged at {workers} workers"
            );
            assert_eq!(
                response.stats, solo[i].1,
                "tenant {i} CycleStats diverged from solo at {workers} workers"
            );
        }
    }
}

#[test]
fn zero_base_slice_still_finishes_bit_identical() {
    // A zero base slice is clamped to one instruction a turn: every
    // tenant finishes, bit-identical to its solo run on the same image.
    let set = [
        workloads::CALLS,
        workloads::ARITH,
        workloads::DISPATCH,
        workloads::SORT,
    ];
    let source: Vec<&str> = set.iter().map(|w| w.source).collect();
    let vm = Vm::new(&source.join("\n")).unwrap();
    let calls: Vec<(&str, i64)> = set.iter().map(|w| (w.entry, w.size)).collect();
    let responses = serve(&server(&vm, 1, 0, FaultPlan::new()), &calls);
    for (w, response) in set.iter().zip(&responses) {
        let solo = workloads::run_on(w, &mut vm.session().unwrap(), workloads::MAX_STEPS).unwrap();
        assert_eq!(response.outcome, Ok(Word::Int(w.expected)), "{}", w.name);
        assert_eq!(response.stats, solo.stats, "{} diverged from solo", w.name);
    }
}

#[test]
fn session_resumed_on_another_thread_is_bit_identical() {
    let vm = Vm::new(PROGRAM).unwrap();

    // Reference: started and driven to completion on this thread.
    let mut same = vm.session().unwrap();
    same.call_start("fib", 16).unwrap();
    let expected = loop {
        match same.resume::<i64>(97).unwrap() {
            Outcome::Done(n) => break n,
            Outcome::Yielded => {}
        }
    };
    let solo = same.last_run().unwrap().clone();

    // Start the call HERE, resume it over THERE, finish it back here.
    let mut s = vm.session().unwrap();
    s.call_start("fib", 16).unwrap();
    assert_eq!(s.resume::<i64>(97).unwrap(), Outcome::Yielded);
    let mut s = std::thread::spawn(move || {
        for _ in 0..3 {
            match s.resume::<i64>(97).unwrap() {
                Outcome::Yielded => {}
                Outcome::Done(_) => panic!("finished too early for the test to move it back"),
            }
        }
        s
    })
    .join()
    .unwrap();
    let got = loop {
        match s.resume::<i64>(97).unwrap() {
            Outcome::Done(n) => break n,
            Outcome::Yielded => {}
        }
    };

    assert_eq!(got, expected);
    let run = s.last_run().unwrap();
    assert_eq!(run.result, solo.result);
    assert_eq!(
        run.stats, solo.stats,
        "crossing threads changed the architectural statistics"
    );
    assert_eq!(run.steps, solo.steps);
}

#[test]
fn whole_sessions_spawned_and_finished_on_worker_threads() {
    let vm = Vm::new(PROGRAM).unwrap();
    let solo = solo_baselines(&vm);
    let runs: Vec<(usize, Word, CycleStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenant_mix()
            .into_iter()
            .enumerate()
            .map(|(i, (sel, n, _))| {
                let vm = &vm;
                scope.spawn(move || {
                    let mut s = vm.session().unwrap();
                    let _: i64 = s.call(sel, n).unwrap();
                    let run = s.last_run().unwrap();
                    (i, run.result, run.stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, result, stats) in runs {
        assert_eq!(result, solo[i].0);
        assert_eq!(stats, solo[i].1, "tenant {i} diverged on its own thread");
    }
}

#[test]
fn stalled_tenants_can_be_cancelled_and_reused() {
    let vm = Vm::new(PROGRAM).unwrap();
    let mut s = vm.session().unwrap();
    s.call_start("factorial", 10).unwrap();
    // A zero-instruction resume yields without retiring anything.
    assert_eq!(s.resume::<i64>(0).unwrap(), Outcome::Yielded);
    assert_eq!(s.stats().instructions, 0);
    assert!(s.in_flight(), "a stalled call is still in flight");
    s.cancel();
    assert_eq!(s.call::<i64>("factorial", 5).unwrap(), 120);
}

#[test]
fn all_tenants_panicking_does_not_wedge_the_server() {
    FaultPlan::silence_injected_panics();
    let vm = Vm::new(PROGRAM).unwrap();
    // Every tenant's only request panics its worker mid-call: no lock is
    // poisoned, every request is answered, every session comes back.
    let mut plan = FaultPlan::new();
    for i in 0..6 {
        plan = plan.inject(&format!("t{i}"), 0, FaultKind::WorkerPanic, 25);
    }
    let server = server(&vm, 2, 25, plan);
    let responses = serve(&server, &[("fib", 20); 6]);
    for response in &responses {
        assert!(
            matches!(
                response.outcome,
                Err(ServeError::Vm(VmError::EnginePanic { .. }))
            ),
            "{}: {:?}",
            response.tenant,
            response.outcome
        );
    }
    let report = server.drain(Duration::from_secs(10));
    assert_eq!(report.stats.faults_injected, 6);
    assert_eq!(report.sessions.len(), 6, "a session was lost");
    for (name, mut session) in report.sessions {
        assert!(
            !session.in_flight(),
            "{name}: the panicked call stayed in flight"
        );
        assert_eq!(session.call::<i64>("tri", 4).unwrap(), 10, "{name}");
    }
}

#[test]
fn many_tenants_over_few_workers_all_finish() {
    let vm = Vm::new(PROGRAM).unwrap();
    let calls: Vec<(&str, i64)> = (0..48i64).map(|i| ("fib", 6 + (i % 11))).collect();
    let responses = serve(&server(&vm, 3, 211, FaultPlan::new()), &calls);
    for ((_, n), response) in calls.iter().zip(&responses) {
        assert_eq!(response.result_as::<i64>().unwrap(), fib(*n));
    }
}

fn fib(n: i64) -> i64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}
