//! Session fault isolation: a trap ends one call, not the session — and
//! never disturbs any other tenant.
//!
//! The contract under test (ISSUE 5):
//! * every trap kind leaves the session serving follow-up calls whose
//!   results and [`CycleStats`] deltas are bit-identical to a fresh
//!   session's;
//! * the trapped call graph is collectable — after a collection the
//!   trapped session's heap matches a fresh session's exactly;
//! * [`VmError::Trap`] carries the unwound call's partial statistics;
//! * a trapping tenant on a one-worker or a four-worker `Server` leaves
//!   every other tenant's results and statistics bit-identical to solo
//!   runs, and its own session keeps serving.

use std::time::Duration;

use com_core::CycleStats;
use com_vm::server::{Request, ServeError, Server, ServerConfig, TenantConfig, Ticket};
use com_vm::{Outcome, Session, Vm, VmError, Word};

const PROGRAM: &str = r#"
    class Other extends Object
      method foo ^11 end
    end
    class Catcher extends Object
      method doesNotUnderstand: msg ^39 + (msg rawAt: 1) end
    end
    class SmallInteger
      method tri | acc |
        acc := 0. 1 to: self do: [ :i | acc := acc + i ]. ^acc
      end
      method boom ^1 / (self - self) end
      method oops | t | ^t + 1 end
    end
"#;

fn vm() -> Vm {
    Vm::new(PROGRAM).unwrap()
}

/// Drives `trap` on a fresh session, asserts it produced the expected
/// error, then proves the session's next call is bit-identical to a
/// fresh session's first call — results, `CycleStats` delta, code
/// roots, and (after a collection) the live heap.
fn assert_reuse_matches_fresh(vm: &Vm, label: &str, trap: impl FnOnce(&mut Session)) {
    let mut fresh = vm.session().unwrap();
    let boot_roots = fresh.machine().code_root_count();
    let baseline = fresh.send_raw("tri", Word::Int(9), &[], u64::MAX).unwrap();

    let mut s = vm.session().unwrap();
    trap(&mut s);
    assert!(!s.in_flight(), "{label}: the failed call must be over");
    assert_eq!(
        s.machine().code_root_count(),
        boot_roots,
        "{label}: the failed call's entry method stayed rooted"
    );
    let before = s.stats();
    let out = s.send_raw("tri", Word::Int(9), &[], u64::MAX).unwrap();
    assert_eq!(out.result, baseline.result, "{label}: follow-up result");
    assert_eq!(
        out.stats.since(&before),
        baseline.stats,
        "{label}: follow-up call diverged from a fresh session's"
    );
    // The failed call graph must be garbage: collect both sessions and
    // compare live heaps word for word.
    s.machine_mut().collect_garbage().unwrap();
    fresh.machine_mut().collect_garbage().unwrap();
    assert_eq!(
        s.space().memory().buddy().allocated_words(),
        fresh.space().memory().buddy().allocated_words(),
        "{label}: the failed call graph stayed live across GC"
    );
}

#[test]
fn dnu_trap_then_reuse_matches_fresh_session() {
    let vm = vm();
    assert_reuse_matches_fresh(&vm, "dnu", |s| {
        // `foo` is interned (Other defines it) but integers do not
        // answer it, and no handler is installed on SmallInteger.
        match s.send_raw("foo", Word::Int(3), &[], u64::MAX) {
            Err(VmError::Trap(t)) => {
                assert!(matches!(
                    t.cause,
                    com_core::MachineError::DoesNotUnderstand { .. }
                ));
                assert!(t.stats.instructions > 0, "partial stats must be carried");
            }
            other => panic!("expected DNU trap, got {other:?}"),
        }
    });
}

#[test]
fn divide_by_zero_then_reuse_matches_fresh_session() {
    let vm = vm();
    assert_reuse_matches_fresh(&vm, "div0", |s| {
        match s.send_raw("boom", Word::Int(3), &[], u64::MAX) {
            Err(VmError::Trap(t)) => {
                assert!(matches!(
                    t.cause,
                    com_core::MachineError::BadOperands { .. }
                ));
            }
            other => panic!("expected BadOperands trap, got {other:?}"),
        }
    });
}

#[test]
fn uninit_operand_then_reuse_matches_fresh_session() {
    let vm = vm();
    assert_reuse_matches_fresh(&vm, "uninit", |s| {
        // An unwritten temporary flows into dispatch: the receiver
        // classes as UndefinedObject and the `+` fails lookup.
        match s.send_raw("oops", Word::Int(3), &[], u64::MAX) {
            Err(VmError::Trap(t)) => {
                assert!(matches!(
                    t.cause,
                    com_core::MachineError::DoesNotUnderstand { .. }
                ));
            }
            other => panic!("expected uninit-operand trap, got {other:?}"),
        }
    });
}

#[test]
fn out_of_fuel_then_reuse_matches_fresh_session() {
    let vm = vm();
    assert_reuse_matches_fresh(&vm, "fuel", |s| {
        match s.send_raw("tri", Word::Int(10_000), &[], 25) {
            Err(VmError::OutOfFuel { budget: 25 }) => {}
            other => panic!("expected OutOfFuel, got {other:?}"),
        }
    });
}

#[test]
fn budget_exhaustion_then_cancel_matches_fresh_session() {
    let vm = vm();
    assert_reuse_matches_fresh(&vm, "cancel", |s| {
        s.call_start("tri", 10_000i64).unwrap();
        assert!(matches!(
            s.resume::<i64>(25).unwrap(),
            Outcome::<i64>::Yielded
        ));
        s.cancel();
    });
}

#[test]
fn stalled_session_cancels_and_reuses_bit_identical_to_fresh() {
    let vm = vm();
    let mut fresh = vm.session().unwrap();
    let boot_roots = fresh.machine().code_root_count();
    let baseline = fresh.send_raw("tri", Word::Int(9), &[], u64::MAX).unwrap();

    // A zero-instruction resume can never make progress: it yields
    // without retiring anything.
    let mut s = vm.session().unwrap();
    s.call_start("tri", 10_000i64).unwrap();
    assert_eq!(s.resume::<i64>(0).unwrap(), Outcome::Yielded);
    // The stalled call is still in flight; cancel unwinds it and the
    // session serves again, bit-identical to a fresh one.
    assert!(
        s.in_flight(),
        "a stalled call stays in flight until cancelled"
    );
    s.cancel();
    assert_eq!(
        s.machine().code_root_count(),
        boot_roots,
        "cancel after a stall must un-root the abandoned entry method"
    );
    let before = s.stats();
    let out = s.send_raw("tri", Word::Int(9), &[], u64::MAX).unwrap();
    assert_eq!(out.result, baseline.result);
    assert_eq!(
        out.stats.since(&before),
        baseline.stats,
        "post-stall reuse diverged from a fresh session"
    );
    s.machine_mut().collect_garbage().unwrap();
    fresh.machine_mut().collect_garbage().unwrap();
    assert_eq!(
        s.space().memory().buddy().allocated_words(),
        fresh.space().memory().buddy().allocated_words(),
        "the stalled call graph stayed live across GC"
    );
}

#[test]
fn yield_then_drop_releases_the_in_flight_call() {
    let vm = vm();
    let mut fresh = vm.session().unwrap();
    let boot_roots = fresh.machine().code_root_count();
    fresh.machine_mut().collect_garbage().unwrap();
    let fresh_live = fresh.space().memory().buddy().allocated_words();

    let mut s = vm.session().unwrap();
    s.call_start("tri", 10_000i64).unwrap();
    assert!(matches!(
        s.resume::<i64>(25).unwrap(),
        Outcome::<i64>::Yielded
    ));
    assert!(
        s.machine().code_root_count() > boot_roots,
        "an in-flight call must hold its entry root"
    );
    // Cancel releases every code root; post-GC the heap matches a fresh
    // session word for word.
    s.cancel();
    assert_eq!(s.machine().code_root_count(), boot_roots);
    s.machine_mut().collect_garbage().unwrap();
    assert_eq!(
        s.space().memory().buddy().allocated_words(),
        fresh_live,
        "the abandoned call graph stayed live across GC"
    );
    // And dropping a session mid-resume takes the same path: no panic,
    // and the shared image serves the next session unperturbed.
    s.call_start("tri", 10_000i64).unwrap();
    assert!(matches!(
        s.resume::<i64>(25).unwrap(),
        Outcome::<i64>::Yielded
    ));
    assert!(s.in_flight());
    drop(s);
    let mut after = vm.session().unwrap();
    assert_eq!(after.call::<i64>("tri", 9).unwrap(), 45);
    assert_eq!(after.machine().code_root_count(), boot_roots);
}

#[test]
fn resumable_trap_surfaces_with_partial_stats_and_session_survives() {
    let vm = vm();
    let mut s = vm.session().unwrap();
    s.call_start("boom", 5i64).unwrap();
    let err = loop {
        match s.resume::<i64>(3) {
            Ok(Outcome::Yielded) => {}
            Ok(Outcome::Done(_)) => panic!("boom must trap"),
            Err(e) => break e,
        }
    };
    match err {
        VmError::Trap(t) => {
            assert!(matches!(
                t.cause,
                com_core::MachineError::BadOperands { .. }
            ));
            // Partial stats are the *call's* delta, not the session's
            // cumulative counters — and the faulting instruction counts.
            assert!(t.stats.instructions > 0);
            assert_eq!(t.stats.instructions, s.stats().instructions);
        }
        other => panic!("expected Trap, got {other:?}"),
    }
    assert!(!s.in_flight());
    assert_eq!(s.call::<i64>("tri", 4).unwrap(), 10);
}

#[test]
fn dnu_handler_answers_through_the_facade() {
    // The acceptance path: a handler installed on a class catches a
    // failed *entry* send (zero-format reification) and the program
    // continues to a self-checked answer.
    let vm = vm();
    let mut s = vm.session().unwrap();
    let catcher_class = vm.image().image().classes.by_name("Catcher").unwrap();
    let obj = s
        .machine_mut()
        .space_mut()
        .create(
            com_mem::TeamId(0),
            catcher_class,
            1,
            com_mem::AllocKind::Object,
        )
        .unwrap();
    // `foo` is interned; Catcher does not define it; the handler answers
    // 39 + the reified nargs (a no-argument entry send transmits only
    // the receiver: nargs = 1).
    let out = s.send_raw("foo", Word::Ptr(obj), &[], u64::MAX).unwrap();
    assert_eq!(out.result, Word::Int(40));
    assert_eq!(out.stats.soft_traps, 1);
    // With an argument the same handler sees nargs = 2.
    let out = s
        .send_raw("foo", Word::Ptr(obj), &[Word::Int(7)], u64::MAX)
        .unwrap();
    assert_eq!(out.result, Word::Int(41));
    // A plain `Other` still answers `foo` the ordinary way.
    let other_class = vm.image().image().classes.by_name("Other").unwrap();
    let other = s
        .machine_mut()
        .space_mut()
        .create(
            com_mem::TeamId(0),
            other_class,
            1,
            com_mem::AllocKind::Object,
        )
        .unwrap();
    assert_eq!(
        s.send_raw("foo", Word::Ptr(other), &[], u64::MAX)
            .unwrap()
            .result,
        Word::Int(11)
    );
}

/// Solo baselines: (result, per-call CycleStats) for `tri` tenants.
fn solo_baselines(vm: &Vm, sizes: &[i64]) -> Vec<(Word, CycleStats)> {
    sizes
        .iter()
        .map(|n| {
            let mut s = vm.session().unwrap();
            let _ = s.call::<i64>("tri", *n).unwrap();
            let run = s.last_run().unwrap();
            (run.result, run.stats)
        })
        .collect()
}

/// Serves a trapping `boom` tenant, submitted first so its trap lands
/// among its siblings' turns, and one `tri` tenant per size on a
/// `workers`-worker server with `base_slice`-instruction turns. The trap
/// carries partial statistics, every `tri` tenant answers bit-identical
/// to its solo run, and the trapped tenant's drained session keeps
/// serving.
fn assert_trap_leaves_siblings_bit_identical(workers: usize, base_slice: u64, sizes: &[i64]) {
    let vm = vm();
    let solos = solo_baselines(&vm, sizes);
    let config = ServerConfig {
        workers,
        base_slice,
        ..ServerConfig::default()
    };
    let server = Server::start(vm, config);
    server.register("bad", TenantConfig::default()).unwrap();
    let bad = server.submit("bad", Request::new("boom", 3i64)).unwrap();
    let tickets: Vec<Ticket> = sizes
        .iter()
        .map(|n| {
            let name = format!("t{n}");
            server.register(&name, TenantConfig::default()).unwrap();
            server.submit(&name, Request::new("tri", *n)).unwrap()
        })
        .collect();
    match bad.wait().outcome {
        Err(ServeError::Vm(VmError::Trap(t))) => assert!(t.stats.instructions > 0),
        other => panic!("expected the boom tenant to trap, got {other:?}"),
    }
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait();
        assert_eq!(response.outcome, Ok(solos[i].0));
        assert_eq!(
            response.stats, solos[i].1,
            "tenant {i}: a sibling's trap changed its statistics"
        );
    }
    // The trapped tenant's session comes back alive and keeps serving.
    let mut report = server.drain(Duration::from_secs(10));
    let (_, revived) = report
        .sessions
        .iter_mut()
        .find(|(name, _)| name == "bad")
        .unwrap();
    assert_eq!(revived.call::<i64>("tri", 4).unwrap(), 10);
}

#[test]
fn scheduler_tenant_trap_leaves_other_tenants_bit_identical() {
    assert_trap_leaves_siblings_bit_identical(1, 13, &[6, 11, 17, 23]);
}

#[test]
fn pool_tenant_trap_leaves_other_tenants_bit_identical() {
    assert_trap_leaves_siblings_bit_identical(4, 17, &[6, 11, 17, 23, 29, 35]);
}
