//! A cooperative round-robin scheduler over resumable sessions, and the
//! per-tenant slice step it shares with the
//! [`ParallelExecutor`](crate::ParallelExecutor).

use com_mem::Word;

use crate::{FromWord, Outcome, Session, VmError};

/// Handle to a task spawned on a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

/// A pre-slice hook for fault injection: called with (tenant index,
/// slices so far) before every resume; a panicking hook lands exactly
/// where an engine panic would. Tests use it to prove panic containment.
pub(crate) type SliceHook<'a> = &'a (dyn Fn(usize, u64) + Sync);

/// One tenant driven by a [`Scheduler`] or drained by
/// [`ParallelExecutor::run`](crate::ParallelExecutor::run), which returns
/// them in spawn order.
#[derive(Debug)]
pub struct TenantRun {
    /// The session, back from the executor: inspect
    /// [`last_run`](Session::last_run) and statistics on a completed
    /// tenant, or keep calling it — a trapped tenant's session is
    /// unwound and stays serviceable (its `last_run` is cleared; the
    /// trapped call's accounting is in [`error`](Self::error)).
    pub session: Session,
    /// The raw result word, if the call completed.
    pub result: Option<Word>,
    /// The error that ended the call, if it trapped (or stalled, or its
    /// slice panicked): [`VmError::Trap`](crate::VmError::Trap) carries
    /// the cause plus the unwound call's partial
    /// [`CycleStats`](com_core::CycleStats); a contained panic surfaces
    /// as [`VmError::EnginePanic`](crate::VmError::EnginePanic).
    /// A tenant's failure never disturbs a sibling — every other
    /// tenant's results and statistics stay bit-identical to solo runs.
    pub error: Option<VmError>,
    /// Resume slices the tenant consumed.
    pub slices: u64,
}

impl TenantRun {
    /// The completed result, converted.
    ///
    /// # Errors
    ///
    /// [`VmError::Type`] if the result does not convert.
    pub fn result_as<R: FromWord>(&self) -> Result<Option<R>, VmError> {
        match self.result {
            Some(w) => Ok(Some(R::from_word(w)?)),
            None => Ok(None),
        }
    }

    /// A tenant yet to be driven; one with nothing to resume is finished
    /// at once with [`VmError::NoCallInProgress`].
    pub(crate) fn new(session: Session) -> TenantRun {
        let error = (!session.in_flight()).then_some(VmError::NoCallInProgress);
        TenantRun {
            session,
            result: None,
            error,
            slices: 0,
        }
    }

    /// Whether the call has ended: completed, trapped, stalled or
    /// panicked.
    pub(crate) fn finished(&self) -> bool {
        self.result.is_some() || self.error.is_some()
    }

    /// Grants the tenant (spawn position `index`) one `slice`-instruction
    /// resume under [`Session::contained`], recording how the call ended
    /// if it did.
    pub(crate) fn step(&mut self, index: usize, slice: u64, hook: Option<SliceHook<'_>>) {
        self.slices += 1;
        let slices = self.slices;
        let outcome = self.session.contained(|s| {
            if let Some(h) = hook {
                h(index, slices);
            }
            s.resume_raw_guarded(slice)
        });
        match outcome {
            Ok(Outcome::Yielded) => {}
            Ok(Outcome::Done(w)) => self.result = Some(w),
            // Includes Stalled: a yield that retired nothing can never
            // finish, and rescheduling it would spin forever.
            Err(e) => self.error = Some(e),
        }
    }
}

/// Interleaves any number of in-flight [`Session`] calls on one thread by
/// giving each a fixed instruction budget per round, in spawn order.
///
/// Because sessions are fully isolated (each owns its object space,
/// caches and statistics) and [`Session::resume`] yields at consistent
/// machine states, interleaving N tenants produces, for every tenant,
/// results and [`com_core::CycleStats`] bit-identical to running it
/// alone — fairness costs nothing in fidelity. The sessions pipeline of
/// `bench_all` asserts exactly that.
///
/// ```
/// # fn main() -> Result<(), com_vm::VmError> {
/// let vm = com_vm::Vm::new(
///     "class SmallInteger method tri ^self * (self + 1) / 2 end end",
/// )?;
/// let mut sched = com_vm::Scheduler::new(500);
/// let mut ids = Vec::new();
/// for n in [10i64, 100, 1000] {
///     let mut s = vm.session()?;
///     s.call_start("tri", n)?;
///     ids.push(sched.spawn(s)?);
/// }
/// sched.run();
/// assert_eq!(sched.result_as::<i64>(ids[2])?, Some(500_500));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Scheduler {
    slice: u64,
    tasks: Vec<TenantRun>,
    rounds: u64,
}

impl Scheduler {
    /// A scheduler granting each task `slice` instructions per round.
    ///
    /// A zero slice can never make progress; rather than spin, a
    /// [`run`](Self::run) over it reports every unfinished task as
    /// [`VmError::Stalled`] (the progress check catches any other
    /// zero-progress state the same way).
    pub fn new(slice: u64) -> Scheduler {
        Scheduler {
            slice,
            tasks: Vec::new(),
            rounds: 0,
        }
    }

    /// Adds a session whose resumable call is in flight (see
    /// [`Session::call_start`]).
    ///
    /// # Errors
    ///
    /// [`VmError::NoCallInProgress`] if the session has nothing to resume.
    pub fn spawn(&mut self, session: Session) -> Result<TaskId, VmError> {
        if !session.in_flight() {
            return Err(VmError::NoCallInProgress);
        }
        let id = TaskId(self.tasks.len());
        self.tasks.push(TenantRun::new(session));
        Ok(id)
    }

    /// Runs one round-robin sweep: every unfinished task gets one slice.
    /// Returns `true` when every task has finished (or trapped). Per-task
    /// traps are recorded and reported by [`error`](Self::error) as
    /// [`VmError::Trap`] (cause + the unwound call's partial
    /// [`com_core::CycleStats`]) — a trapped task simply stops being
    /// scheduled, its session stays serviceable (reclaim it via
    /// [`into_sessions`](Self::into_sessions)), and every other tenant's
    /// results and statistics remain bit-identical to solo runs (the trap
    /// unwound inside that tenant's own machine; nothing is shared). A
    /// panic while driving a task is contained the same way: the task's
    /// call is cancelled and reported as [`VmError::EnginePanic`].
    pub fn tick(&mut self) -> bool {
        self.tick_hooked(None)
    }

    fn tick_hooked(&mut self, hook: Option<SliceHook<'_>>) -> bool {
        let mut all_done = true;
        for (index, task) in self.tasks.iter_mut().enumerate() {
            if !task.finished() {
                task.step(index, self.slice, hook);
                all_done &= task.finished();
            }
        }
        self.rounds += 1;
        all_done
    }

    /// Round-robins until every task finishes, traps, or stalls (a task
    /// that yields without retiring an instruction is reported as
    /// [`VmError::Stalled`] via [`error`](Self::error) instead of being
    /// rescheduled forever).
    pub fn run(&mut self) {
        while !self.tick() {}
    }

    /// [`run`](Self::run) with a fault hook invoked before every slice
    /// (see [`SliceHook`]).
    #[cfg(test)]
    fn run_hooked(&mut self, hook: SliceHook<'_>) {
        while !self.tick_hooked(Some(hook)) {}
    }

    /// Number of tasks spawned.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task was spawned.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Rounds swept so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// A finished task's raw result word.
    pub fn result(&self, id: TaskId) -> Option<Word> {
        self.tasks.get(id.0).and_then(|t| t.result)
    }

    /// A finished task's result, converted.
    ///
    /// # Errors
    ///
    /// [`VmError::Type`] if the result does not convert.
    pub fn result_as<R: FromWord>(&self, id: TaskId) -> Result<Option<R>, VmError> {
        self.tasks.get(id.0).map_or(Ok(None), TenantRun::result_as)
    }

    /// The trap that ended a task, if it trapped.
    pub fn error(&self, id: TaskId) -> Option<&VmError> {
        self.tasks.get(id.0).and_then(|t| t.error.as_ref())
    }

    /// Slices granted to a task so far (fairness observability).
    pub fn slices(&self, id: TaskId) -> u64 {
        self.tasks.get(id.0).map_or(0, |t| t.slices)
    }

    /// Borrow of a task's session (statistics inspection).
    pub fn session(&self, id: TaskId) -> Option<&Session> {
        self.tasks.get(id.0).map(|t| &t.session)
    }

    /// Tears the scheduler down into its sessions, in spawn order.
    pub fn into_sessions(self) -> Vec<Session> {
        self.tasks.into_iter().map(|t| t.session).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FaultPlan;
    use crate::Vm;

    const TRI: &str = r#"
        class SmallInteger
          method tri | acc |
            acc := 0. 1 to: self do: [ :i | acc := acc + i ]. ^acc
          end
        end
    "#;

    /// A panic while the scheduler drives one task comes back as that
    /// task's `VmError::EnginePanic` with a re-callable session; the
    /// sweep goes on, and every sibling finishes bit-identical to solo.
    #[test]
    fn task_panic_is_contained_per_tenant() {
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

        let mut sched = Scheduler::new(17);
        // The panicking task is spawned *first*, so every sibling still
        // has slices to run in the sweep its panic interrupts.
        let mut bad = vm.session().unwrap();
        bad.call_start("tri", 10_000i64).unwrap();
        let bad_id = sched.spawn(bad).unwrap();
        let mut ids = Vec::new();
        for n in sizes {
            let mut s = vm.session().unwrap();
            s.call_start("tri", n).unwrap();
            ids.push(sched.spawn(s).unwrap());
        }

        sched.run_hooked(&move |index, slices| {
            if index == bad_id.0 && slices == 2 {
                panic!("{}", crate::server::injector::INJECTED_PANIC);
            }
        });

        match sched.error(bad_id) {
            Some(VmError::EnginePanic { message }) => {
                assert!(message.contains("injected worker panic"));
            }
            other => panic!("expected EnginePanic, got {other:?}"),
        }
        assert_eq!(sched.result(bad_id), None);
        assert_eq!(sched.slices(bad_id), 2);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(sched.error(*id), None, "sibling {i} disturbed");
            let run = sched.session(*id).unwrap().last_run().unwrap();
            assert_eq!(run.result, solos[i].0);
            assert_eq!(
                run.stats, solos[i].1,
                "sibling {i}: a task panic changed its statistics"
            );
        }
        // The panicked task's session is cancelled and re-callable.
        let mut revived = sched.into_sessions().remove(bad_id.0);
        assert!(!revived.in_flight());
        assert_eq!(revived.call::<i64>("tri", 4).unwrap(), 10);
    }
}
