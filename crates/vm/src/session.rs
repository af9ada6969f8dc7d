//! Per-tenant sessions: one isolated executor over a shared image.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use com_core::{
    CtxCacheStats, CycleStats, GcTotals, LoadedImage, Machine, MachineConfig, RunOutcome, RunResult,
};
use com_mem::{ObjectSpace, Word};

use crate::error::panic_message;
use crate::{FromWord, ToWord, VmError};

/// The outcome of one [`Session::resume`] slice: the call finished with a
/// typed result, or the budget ran out and the call can be resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The call completed with this result.
    Done(T),
    /// The budget was exhausted; the call is still in flight and the next
    /// [`Session::resume`] continues it exactly where it stopped.
    Yielded,
}

impl<T> Outcome<T> {
    /// The completed result, if the call finished.
    pub fn done(self) -> Option<T> {
        match self {
            Outcome::Done(t) => Some(t),
            Outcome::Yielded => None,
        }
    }

    /// Whether the call is still in flight.
    pub fn is_yielded(&self) -> bool {
        matches!(self, Outcome::Yielded)
    }
}

/// One tenant's isolated executor: a private machine (object space,
/// context cache, statistics) booted from a shared [`LoadedImage`].
///
/// Sessions are cheap — spawning one stores the image's code words into a
/// fresh object space and binds the image's pre-decoded method bodies; no
/// compilation or decoding happens. Any number of sessions run over one
/// image; each owns all of its mutable state, so they are fully isolated
/// (and may run on different threads).
///
/// Two call styles:
///
/// * **One-shot**: [`call`](Self::call)/[`call_with`](Self::call_with)
///   run to completion within the session's [step
///   limit](Self::set_step_limit) and convert the result.
/// * **Resumable**: [`call_start`](Self::call_start) then
///   [`resume`](Self::resume) with an explicit budget, which returns
///   [`Outcome::Yielded`] instead of an error when the budget runs out —
///   the cooperative primitive the [`Scheduler`](crate::Scheduler)
///   round-robins over.
#[derive(Debug)]
pub struct Session {
    machine: Machine,
    image: Arc<LoadedImage>,
    step_limit: u64,
    in_flight: bool,
    last_run: Option<RunResult>,
    /// Cumulative machine stats at the start of the current (or most
    /// recent) call, so a trap can report the unwound call's *partial*
    /// stats as a delta.
    call_base: CycleStats,
}

impl Session {
    pub(crate) fn boot(image: Arc<LoadedImage>, config: MachineConfig) -> Result<Session, VmError> {
        let machine = Machine::boot(config, &image)?;
        Ok(Session {
            machine,
            image,
            step_limit: u64::MAX,
            in_flight: false,
            last_run: None,
            call_base: CycleStats::default(),
        })
    }

    /// Wraps a machine error from a *running* call as [`VmError::Trap`]
    /// with the unwound call's partial [`CycleStats`]. The engine's
    /// `run_for` already routed the trap exit through
    /// `Machine::abort_send`, so by the time this runs the session is
    /// re-callable and the trapped call graph is unrooted.
    fn wrap_trap(&self, cause: com_core::MachineError) -> VmError {
        VmError::trap(cause, self.machine.stats().since(&self.call_base))
    }

    // ------------------------------------------------------------------
    // One-shot typed calls
    // ------------------------------------------------------------------

    /// Sends `selector` to `receiver` and runs to completion, converting
    /// the result.
    ///
    /// ```
    /// # fn main() -> Result<(), com_vm::VmError> {
    /// let vm = com_vm::Vm::new(
    ///     "class SmallInteger method double ^self + self end end",
    /// )?;
    /// let mut session = vm.session()?;
    /// assert_eq!(session.call::<i64>("double", 21)?, 42);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`VmError::UnknownSelector`], any machine trap,
    /// [`VmError::OutOfFuel`] if the session's step limit runs out, or
    /// [`VmError::Type`] if the result does not convert to `R`.
    pub fn call<R: FromWord>(
        &mut self,
        selector: &str,
        receiver: impl ToWord,
    ) -> Result<R, VmError> {
        self.call_with(selector, receiver, &[])
    }

    /// [`call`](Self::call) with arguments (as words; lift Rust values
    /// with [`ToWord::to_word`]).
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call).
    pub fn call_with<R: FromWord>(
        &mut self,
        selector: &str,
        receiver: impl ToWord,
        args: &[Word],
    ) -> Result<R, VmError> {
        let out = self.send_raw(selector, receiver.to_word(), args, self.step_limit)?;
        R::from_word(out.result)
    }

    /// The untyped engine call: sends `selector` and returns the full
    /// [`RunResult`] (result word plus cycle accounting). This is what the
    /// workload harnesses drive.
    ///
    /// # Errors
    ///
    /// [`VmError::CallInProgress`] if a resumable call is in flight,
    /// [`VmError::UnknownSelector`], [`VmError::OutOfFuel`] on budget
    /// exhaustion, or [`VmError::Trap`] for any machine trap.
    ///
    /// Every error path leaves the session **clean**: the failed call's
    /// graph (entry method, contexts, result cell) is dropped from the
    /// engine's roots via `Machine::abort_send` — traps unwind inside the
    /// engine; budget exhaustion is unwound here before `OutOfFuel` is
    /// reported — so the memory is reclaimable by the next collection and
    /// the next call behaves exactly as on a fresh session (same result,
    /// same [`CycleStats`] delta, same heap after a collection).
    pub fn send_raw(
        &mut self,
        selector: &str,
        receiver: Word,
        args: &[Word],
        max_steps: u64,
    ) -> Result<RunResult, VmError> {
        if self.in_flight {
            return Err(VmError::CallInProgress);
        }
        self.start(selector, receiver, args)?;
        match self.machine.run_for(max_steps) {
            Ok(RunOutcome::Done(r)) => {
                self.last_run = Some(r.clone());
                Ok(r)
            }
            Ok(RunOutcome::OutOfBudget) => {
                // A one-shot call cannot be resumed: drop the half-run
                // call graph instead of leaving it rooted forever.
                self.machine.abort_send();
                self.last_run = None;
                Err(VmError::OutOfFuel { budget: max_steps })
            }
            Err(e) => {
                self.last_run = None;
                Err(self.wrap_trap(e))
            }
        }
    }

    // ------------------------------------------------------------------
    // Resumable calls
    // ------------------------------------------------------------------

    /// Prepares a resumable send without running any instruction. Drive it
    /// with [`resume`](Self::resume).
    ///
    /// # Errors
    ///
    /// [`VmError::CallInProgress`] if one is already in flight,
    /// [`VmError::UnknownSelector`], or allocation traps.
    pub fn call_start(&mut self, selector: &str, receiver: impl ToWord) -> Result<(), VmError> {
        self.call_start_with(selector, receiver, &[])
    }

    /// [`call_start`](Self::call_start) with arguments.
    ///
    /// # Errors
    ///
    /// As [`call_start`](Self::call_start).
    pub fn call_start_with(
        &mut self,
        selector: &str,
        receiver: impl ToWord,
        args: &[Word],
    ) -> Result<(), VmError> {
        if self.in_flight {
            return Err(VmError::CallInProgress);
        }
        self.start(selector, receiver.to_word(), args)?;
        self.in_flight = true;
        Ok(())
    }

    /// Runs the in-flight call for at most `budget` instructions.
    ///
    /// Exhaustion is a yield, not an error: machine state (including
    /// [`CycleStats`]) stays consistent at the boundary, and a program
    /// driven by many small budgets finishes with results and statistics
    /// bit-identical to one uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`VmError::NoCallInProgress`] without a
    /// [`call_start`](Self::call_start), [`VmError::Type`] on result
    /// conversion, or [`VmError::Trap`] for any machine trap. A trap ends
    /// the call **cleanly**: the engine unwinds through
    /// `Machine::abort_send` before the error surfaces, so the trapped
    /// call graph (entry method, context chain, cache-resident blocks,
    /// result cell) is already unrooted — reclaimable by the next
    /// collection — and the session's next call behaves exactly as on a
    /// fresh session.
    pub fn resume<R: FromWord>(&mut self, budget: u64) -> Result<Outcome<R>, VmError> {
        match self.resume_raw(budget)? {
            Outcome::Done(w) => Ok(Outcome::Done(R::from_word(w)?)),
            Outcome::Yielded => Ok(Outcome::Yielded),
        }
    }

    /// [`resume`](Self::resume) returning the raw result word.
    ///
    /// # Errors
    ///
    /// As [`resume`](Self::resume), minus the conversion.
    pub fn resume_raw(&mut self, budget: u64) -> Result<Outcome<Word>, VmError> {
        if !self.in_flight {
            return Err(VmError::NoCallInProgress);
        }
        match self.machine.run_for(budget) {
            Ok(RunOutcome::Done(r)) => {
                self.in_flight = false;
                let w = r.result;
                self.last_run = Some(r);
                Ok(Outcome::Done(w))
            }
            Ok(RunOutcome::OutOfBudget) => Ok(Outcome::Yielded),
            Err(e) => {
                // The engine already unwound (run_for routes trap exits
                // through abort_send); record the call as over and report
                // the trap with its partial stats. `last_run` is cleared
                // so a stale earlier result can never be mistaken for
                // the trapped call's.
                self.in_flight = false;
                self.last_run = None;
                Err(self.wrap_trap(e))
            }
        }
    }

    /// [`resume_raw`](Self::resume_raw) with the executors' shared
    /// progress guard: a yield that retired no instruction can never
    /// finish (a zero budget, or a wedged machine), so it surfaces as
    /// [`VmError::Stalled`] instead of letting a driving loop reschedule
    /// it forever. The engine retires ≥ 1 instruction per non-zero
    /// budget, so a live call never trips this.
    pub(crate) fn resume_raw_guarded(&mut self, budget: u64) -> Result<Outcome<Word>, VmError> {
        let before = self.machine.stats().instructions;
        match self.resume_raw(budget)? {
            Outcome::Yielded if self.machine.stats().instructions == before => {
                Err(VmError::Stalled { slice: budget })
            }
            outcome => Ok(outcome),
        }
    }

    /// Runs `step` on this session with its panics contained: the one
    /// place every executor drives a slice through (the
    /// [`Scheduler`](crate::Scheduler), the
    /// [`ParallelExecutor`](crate::ParallelExecutor) and the
    /// [`server`](crate::server) workers). A panic inside `step` — an
    /// engine invariant violation or an injected fault — must not unwind
    /// into the executor, where it would poison its locks or kill its
    /// worker: the interrupted call is cancelled so the session comes
    /// back re-callable, and the panic surfaces as
    /// [`VmError::EnginePanic`].
    pub(crate) fn contained<T>(
        &mut self,
        step: impl FnOnce(&mut Session) -> Result<T, VmError>,
    ) -> Result<T, VmError> {
        match catch_unwind(AssertUnwindSafe(|| step(self))) {
            Ok(result) => result,
            Err(payload) => {
                // If the machine is wedged enough that even the unwind
                // panics, the session still comes back.
                let _ = catch_unwind(AssertUnwindSafe(|| self.cancel()));
                Err(VmError::EnginePanic {
                    message: panic_message(&*payload),
                })
            }
        }
    }

    /// Whether a resumable call is currently in flight.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Abandons the in-flight call, if any: the engine drops the
    /// abandoned call graph (entry method, context chain, cache-resident
    /// blocks, result cell) from its GC roots, so the memory is
    /// reclaimable without waiting for the next call. The next call
    /// behaves exactly as on a fresh session — the same unwind traps take
    /// (`Machine::abort_send`).
    pub fn cancel(&mut self) {
        if self.in_flight {
            self.machine.abort_send();
            self.last_run = None;
        }
        self.in_flight = false;
    }

    fn start(&mut self, selector: &str, receiver: Word, args: &[Word]) -> Result<(), VmError> {
        let opcode = self.machine.selector(selector)?;
        self.call_base = self.machine.stats();
        if let Err(e) = self.machine.start_send(opcode, receiver, args) {
            // A failed start may have built part of the bootstrap call
            // graph; drop it rather than leave it rooted.
            self.machine.abort_send();
            return Err(e.into());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Defaults and inspection
    // ------------------------------------------------------------------

    /// Caps one-shot calls at `limit` instructions (default: effectively
    /// unlimited). Exhaustion surfaces as [`VmError::OutOfFuel`].
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// The shared image this session was booted from.
    pub fn image(&self) -> &Arc<LoadedImage> {
        &self.image
    }

    /// The [`RunResult`] of the last completed call, if any. `None`
    /// until a call completes — and again after a call is unwound (trap,
    /// [`cancel`](Self::cancel), one-shot fuel exhaustion) until the
    /// next completion, so a stale result can never be mistaken for an
    /// unwound call's.
    pub fn last_run(&self) -> Option<&RunResult> {
        self.last_run.as_ref()
    }

    /// The underlying engine (full inspection surface).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable engine access (test setup, manual GC, privileged mode).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Cycle statistics so far (cumulative across calls).
    pub fn stats(&self) -> CycleStats {
        self.machine.stats()
    }

    /// Aggregate garbage-collection work so far.
    pub fn gc_totals(&self) -> GcTotals {
        self.machine.gc_totals()
    }

    /// ITLB statistics, if an ITLB is configured.
    pub fn itlb_stats(&self) -> Option<com_cache::CacheStats> {
        self.machine.itlb_stats()
    }

    /// Instruction cache statistics, if configured.
    pub fn icache_stats(&self) -> Option<com_cache::CacheStats> {
        self.machine.icache_stats()
    }

    /// Context cache statistics, if configured.
    pub fn ctx_cache_stats(&self) -> Option<CtxCacheStats> {
        self.machine.ctx_cache_stats()
    }

    /// The session's private object space.
    pub fn space(&self) -> &ObjectSpace {
        self.machine.space()
    }

    /// Resets all statistics (warmup boundary); contents stay resident.
    pub fn reset_stats(&mut self) {
        self.machine.reset_stats();
    }
}
