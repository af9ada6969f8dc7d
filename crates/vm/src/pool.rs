//! A parallel executor: drain any number of in-flight sessions across a
//! fixed set of OS threads.
//!
//! The pool exists because sessions are **architecturally isolated**:
//! each owns its object space, context cache and statistics, and shares
//! only the immutable pre-decoded image. A tenant's [`CycleStats`]
//! therefore depend solely on its own instruction stream — never on
//! which worker ran it or what ran beside it. That is what lets the
//! executor promise *bit-identical* results and statistics to solo (or
//! single-threaded [`Scheduler`](crate::Scheduler)) execution while
//! using every core: parallelism costs nothing in fidelity.
//!
//! Shape: the sessions wait in one shared queue; each worker takes the
//! next one and drives it to completion in `slice`-instruction resumes,
//! then takes another, until the queue is empty. A session stays on the
//! worker that took it, and workers share nothing but the queue. Every
//! slice is the [`Scheduler`](crate::Scheduler)'s panic-contained
//! [`TenantRun`] step. All of it is plain `std` (`Mutex`,
//! `thread::scope`); there is no dependency to vendor and no unsafe code.
//!
//! [`CycleStats`]: com_core::CycleStats

use std::sync::Mutex;

use crate::sched::SliceHook;
use crate::{Session, TenantRun};

/// A fixed pool of worker threads that drains in-flight resumable
/// sessions, preserving the cooperative [`Session::resume`] yield
/// cadence — so every tenant finishes with a result and `CycleStats`
/// bit-identical to running alone (asserted by the parallel pipeline of
/// `bench_all` and this module's tests).
///
/// ```
/// # fn main() -> Result<(), com_vm::VmError> {
/// let vm = com_vm::Vm::new(
///     "class SmallInteger method tri ^self * (self + 1) / 2 end end",
/// )?;
/// let mut tenants = Vec::new();
/// for n in [10i64, 100, 1000, 10000] {
///     let mut s = vm.session()?;
///     s.call_start("tri", n)?;
///     tenants.push(s);
/// }
/// let pool = com_vm::ParallelExecutor::new(4, 500);
/// let runs = pool.run(tenants);
/// assert_eq!(runs[3].result_as::<i64>()?, Some(50_005_000));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    workers: usize,
    slice: u64,
}

impl ParallelExecutor {
    /// A pool of `workers` threads granting `slice` instructions per
    /// resume. A zero `slice` cannot make progress; rather than spin,
    /// [`run`](Self::run) reports every tenant as
    /// [`VmError::Stalled`](crate::VmError::Stalled).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (nothing could ever run).
    pub fn new(workers: usize, slice: u64) -> ParallelExecutor {
        assert!(workers > 0, "a pool needs at least one worker");
        ParallelExecutor { workers, slice }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Instructions granted per resume slice.
    pub fn slice(&self) -> u64 {
        self.slice
    }

    /// Drains every session to completion (or trap) across the pool and
    /// returns them in spawn order. Sessions should have a resumable
    /// call in flight (see [`Session::call_start`]); one that does not
    /// comes straight back with
    /// [`VmError::NoCallInProgress`](crate::VmError::NoCallInProgress)
    /// as its [`TenantRun::error`]. Per-tenant conditions — traps,
    /// stalls, an idle session — are recorded per tenant, exactly like
    /// the single-threaded scheduler: one tenant's failure never
    /// disturbs another, and **no session is ever lost** — every one
    /// comes back in the returned runs.
    ///
    /// Even a **panic** while driving a tenant is contained to it: the
    /// tenant's call is cancelled and reported as
    /// [`VmError::EnginePanic`](crate::VmError::EnginePanic), and its
    /// worker goes on to the next session — one wedged tenant cannot
    /// poison the pool.
    pub fn run(&self, sessions: Vec<Session>) -> Vec<TenantRun> {
        self.run_inner(sessions, None)
    }

    /// [`run`](Self::run) with a fault hook invoked before every slice
    /// (see [`SliceHook`]) — the panic containment tests drive injected
    /// panics through it.
    #[cfg(test)]
    pub(crate) fn run_hooked(&self, sessions: Vec<Session>, hook: SliceHook<'_>) -> Vec<TenantRun> {
        self.run_inner(sessions, Some(hook))
    }

    fn run_inner(&self, sessions: Vec<Session>, hook: Option<SliceHook<'_>>) -> Vec<TenantRun> {
        let workers = self.workers.min(sessions.len());
        let queue = Mutex::new(sessions.into_iter().enumerate());
        let next = || queue.lock().expect("session queue lock").next();
        let mut runs: Vec<(usize, TenantRun)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut drained = Vec::new();
                        while let Some((index, session)) = next() {
                            let mut run = TenantRun::new(session);
                            while !run.finished() {
                                run.step(index, self.slice, hook);
                            }
                            drained.push((index, run));
                        }
                        drained
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("slices are panic-contained"))
                .collect()
        });
        runs.sort_by_key(|(index, _)| *index);
        runs.into_iter().map(|(_, run)| run).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FaultPlan;
    use crate::{Vm, VmError};

    const TRI: &str = r#"
        class SmallInteger
          method tri | acc |
            acc := 0. 1 to: self do: [ :i | acc := acc + i ]. ^acc
          end
        end
    "#;

    /// Satellite regression (ISSUE 6): a worker panic is contained to
    /// its tenant — the panicking tenant comes back with
    /// `VmError::EnginePanic` and a serviceable session, and every
    /// sibling drains bit-identically to solo.
    #[test]
    fn worker_panic_is_contained_per_tenant() {
        FaultPlan::silence_injected_panics();
        let vm = Vm::new(TRI).unwrap();
        let sizes = [9i64, 14, 21, 33, 47];
        let solos: Vec<_> = sizes
            .iter()
            .map(|n| {
                let mut s = vm.session().unwrap();
                let _ = s.call::<i64>("tri", *n).unwrap();
                let run = s.last_run().unwrap();
                (run.result, run.stats)
            })
            .collect();

        let mut sessions = Vec::new();
        for n in sizes {
            let mut s = vm.session().unwrap();
            s.call_start("tri", n).unwrap();
            sessions.push(s);
        }
        // The panicking tenant: a perfectly healthy call whose second
        // slice is interrupted by an injected worker panic.
        let mut bad = vm.session().unwrap();
        bad.call_start("tri", 10_000i64).unwrap();
        sessions.push(bad);
        let bad_index = sessions.len() - 1;

        let pool = ParallelExecutor::new(3, 17);
        let runs = pool.run_hooked(sessions, &move |index, slices| {
            if index == bad_index && slices == 2 {
                panic!("{}", crate::server::injector::INJECTED_PANIC);
            }
        });

        match &runs[bad_index].error {
            Some(VmError::EnginePanic { message }) => {
                assert!(message.contains("injected worker panic"));
            }
            other => panic!("expected EnginePanic, got {other:?}"),
        }
        assert_eq!(runs[bad_index].result, None);
        for (i, solo) in solos.iter().enumerate() {
            assert_eq!(runs[i].error, None, "sibling {i} disturbed");
            assert_eq!(runs[i].result, Some(solo.0));
            assert_eq!(
                runs[i].session.last_run().unwrap().stats,
                solo.1,
                "sibling {i}: a worker panic changed its statistics"
            );
        }
        // The panicked tenant's session is cancelled and re-callable.
        let mut revived = runs.into_iter().nth(bad_index).unwrap().session;
        assert!(!revived.in_flight());
        assert_eq!(revived.call::<i64>("tri", 4).unwrap(), 10);
    }

    /// Every tenant panicking at once still drains the pool: no lock is
    /// poisoned, every session comes back.
    #[test]
    fn all_tenants_panicking_does_not_wedge_the_pool() {
        FaultPlan::silence_injected_panics();
        let vm = Vm::new(TRI).unwrap();
        let mut sessions = Vec::new();
        for _ in 0..6 {
            let mut s = vm.session().unwrap();
            s.call_start("tri", 10_000i64).unwrap();
            sessions.push(s);
        }
        let pool = ParallelExecutor::new(2, 25);
        let runs = pool.run_hooked(sessions, &|_, _| {
            panic!("{}", crate::server::injector::INJECTED_PANIC);
        });
        assert_eq!(runs.len(), 6, "a session was lost");
        for run in runs {
            assert!(matches!(run.error, Some(VmError::EnginePanic { .. })));
        }
    }
}
