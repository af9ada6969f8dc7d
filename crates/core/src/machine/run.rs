//! The two interpreter loops over the stage functions: [`Machine::step`]
//! and [`Machine::run_stepwise`], the instruction-at-a-time oracle, and
//! [`Machine::run_for`], the threaded loop.

use std::sync::Arc;

use com_isa::Instr;
use com_mem::Word;
use com_obj::{ItlbKey, Translation};

use super::fetch::{DecodedBody, LowInstr};
use super::Machine;
use crate::{CycleStats, MachineError};

/// The outcome of a bounded run ([`Machine::run_for`]): done, or out of
/// budget with the machine ready to resume.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The entry send returned; the machine halted with this result.
    Done(RunResult),
    /// The step budget was exhausted mid-program. Machine state (registers,
    /// caches, GC cadence, statistics) is consistent; call
    /// [`Machine::run_for`] again to continue.
    OutOfBudget,
}

/// The outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The value the entry send stored through its result pointer.
    pub result: Word,
    /// Cycle accounting for the run.
    pub stats: CycleStats,
    /// Instructions executed.
    pub steps: u64,
}

impl Machine {
    /// Executes one instruction: the instruction-at-a-time oracle for the
    /// threaded [`run`](Self::run) loop. It works on the same caches and
    /// memory, but fetches operands generically and re-derives hazards
    /// from machine state rather than from the decode-time lowered form.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Halted`] when the program returns from its
    /// entry send, or any trap raised during execution.
    pub fn step(&mut self) -> Result<(), MachineError> {
        if let Some(w) = self.halted {
            return Err(MachineError::Halted(w));
        }
        let (method_fpa, method_abs) = self.ip.ok_or(MachineError::NoContext)?;
        let Some(low) = self.decoded[self.cur_slab as usize]
            .body
            .low
            .get(self.pc as usize)
        else {
            return Err(MachineError::BadMethod(method_fpa));
        };
        let instr = low.instr;
        self.fetch(method_abs);
        self.stats.instructions += 1;
        self.stats.base_cycles += 2;
        self.steps += 1;

        // Hazard check (§3.6): the compiler must not read the previous
        // instruction's destination; when it does, the pipeline
        // interlocks for a cycle.
        if let Some(last) = self.last_dest {
            let hazard = instr
                .sources()
                .iter()
                .filter_map(|s| self.operand_abs(*s))
                .any(|loc| loc == last);
            if hazard {
                self.stats.interlock_cycles += 1;
            }
        }
        self.last_dest = None;

        // Step 2: operand fetch (values + class tags).
        let (b, c, key) = match instr {
            Instr::Three { op, b, c, .. } => {
                let bv = self.fetch_operand(b)?;
                let cv = self.fetch_operand(c)?;
                (bv, cv, ItlbKey::binary(op, bv.1, cv.1))
            }
            Instr::Zero { op, nargs, .. } => self.implicit_operands(op, nargs)?,
        };
        if self.observer.is_some() {
            self.observe_dispatch(key);
        }

        // Step 3: translate through the ITLB (or pay full lookup), then
        // steps 4-5: perform the operation / method call, store results.
        // A failed translation is offered to software trap dispatch
        // before it is allowed to kill the send.
        match self.resolve(key) {
            Ok(Translation::Primitive(p)) => self.exec_primitive(instr, p, b, c)?,
            Ok(Translation::Code(id)) => self.do_call(instr, id, b, c)?,
            Err(e) => self.trap_dispatch(instr, b, c, e)?,
        }

        if let Some(kind) = self.gc_due(self.steps) {
            self.collect_garbage_kind(kind)?;
        }
        self.maybe_copyback()?;
        if let Some(w) = self.halted {
            return Err(MachineError::Halted(w));
        }
        Ok(())
    }

    /// Runs until the entry send returns or `max_steps` is exhausted.
    ///
    /// Budget exhaustion surfaces as [`MachineError::StepLimit`]; callers
    /// that want to treat an exhausted budget as a resumable yield rather
    /// than an error should use [`run_for`](Self::run_for), which this
    /// delegates to.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::StepLimit`] on exhaustion or any trap.
    pub fn run(&mut self, max_steps: u64) -> Result<RunResult, MachineError> {
        match self.run_for(max_steps)? {
            RunOutcome::Done(r) => Ok(r),
            RunOutcome::OutOfBudget => Err(MachineError::StepLimit),
        }
    }

    /// Runs for at most `budget` instructions, returning
    /// [`RunOutcome::Done`] when the entry send completes and
    /// [`RunOutcome::OutOfBudget`] when the budget runs out mid-program.
    ///
    /// Exhaustion is **not** an error: every machine invariant (registers,
    /// caches, GC cadence, [`CycleStats`]) is consistent at the yield
    /// point, and a later `run_for` continues exactly where this one
    /// stopped — a program driven by many small budgets produces the same
    /// result and bit-identical statistics as one uninterrupted run. This
    /// is the engine primitive under the `com-vm` facade's resumable
    /// `Session::resume` and its cooperative scheduler.
    ///
    /// This is the *threaded* hot loop: the current decoded method is
    /// borrowed across the inner loop and re-fetched only on control
    /// transfers, operands execute from their decode-time lowered form,
    /// and the per-instruction counters are batched into loop-locals that
    /// flush at run end, trap, or transfer. Architectural behaviour and
    /// statistics are bit-identical to [`run_stepwise`](Self::run_stepwise)
    /// — only wall-clock differs.
    ///
    /// # Errors
    ///
    /// Any trap the program raises — and a trap exit **unwinds**: the
    /// statistics accrued up to the faulting instruction are flushed and
    /// kept, then the machine routes through
    /// [`abort_send`](Self::abort_send), so the trapped call graph is
    /// immediately collectable and the next
    /// [`start_send`](Self::start_send) is indistinguishable from one on
    /// a fresh machine. (Budget exhaustion is a yield, not a trap: the
    /// in-flight call survives and resumes.)
    pub fn run_for(&mut self, budget: u64) -> Result<RunOutcome, MachineError> {
        match self.run_for_inner(budget) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.abort_send();
                Err(e)
            }
        }
    }

    /// [`run_for`](Self::run_for) without the trap-exit unwind: the
    /// threaded loop itself.
    fn run_for_inner(&mut self, budget: u64) -> Result<RunOutcome, MachineError> {
        /// Why an inner threaded segment ended.
        enum SegEnd {
            /// The step budget ran out mid-method.
            Budget,
            /// Control transferred (call/return/xfer): re-fetch the method.
            Transfer,
            /// The program halted.
            Halt,
            /// The periodic garbage collection came due.
            GcDue,
            /// The program counter left the method body.
            BadPc,
            /// A trap unwound execution.
            Trap(MachineError),
        }

        let mut remaining = budget;
        // Counted handles on the bodies of the methods this run entered,
        // by slab slot: a body is cloned once per run, so a segment (the
        // instructions between two transfers) takes no refcount.
        let mut bodies: Vec<Option<Arc<DecodedBody>>> = Vec::new();
        loop {
            if remaining == 0 {
                return Ok(RunOutcome::OutOfBudget);
            }
            if let Some(result) = self.halted {
                return Ok(RunOutcome::Done(self.finished(result)));
            }
            let (method_fpa, method_abs) = self.ip.ok_or(MachineError::NoContext)?;
            let slot = self.cur_slab as usize;
            if bodies.len() <= slot {
                bodies.resize(slot + 1, None);
            }
            let body = bodies[slot].get_or_insert_with(|| Arc::clone(&self.decoded[slot].body));
            let gen = self.ip_gen;
            let gc_on =
                self.config.gc_minor_interval.is_some() || self.config.gc_full_interval.is_some();
            let steps_base = self.steps;
            // Instructions completed against `body`, not yet in the stats.
            let mut done: u64 = 0;
            let end = loop {
                if done == remaining {
                    break SegEnd::Budget;
                }
                let Some(low) = body.low.get(self.pc as usize) else {
                    break SegEnd::BadPc;
                };
                self.fetch(method_abs);
                // The instruction issues: it counts even if a later stage
                // traps, exactly as the stepwise loop counts it.
                done += 1;
                if let Err(e) = self.exec_low(low) {
                    break SegEnd::Trap(e);
                }
                if gc_on && self.gc_due(steps_base + done).is_some() {
                    break SegEnd::GcDue;
                }
                if self.ip_gen != gen || self.halted.is_some() {
                    // The stepwise loop runs the copyback check after
                    // every instruction; here it runs only after control
                    // transfers (and halts). The two are event-identical:
                    // the free-block count only *decreases* via context
                    // allocation and installation, which happen solely in
                    // call/return/xfer (all of which bump `ip_gen`) — so
                    // between transfers the low-water check cannot newly
                    // trip, and the skipped checks were no-ops.
                    if let Err(e) = self.maybe_copyback() {
                        break SegEnd::Trap(e);
                    }
                    break if self.halted.is_some() {
                        SegEnd::Halt
                    } else {
                        SegEnd::Transfer
                    };
                }
            };
            // Flush the batched counters before anything can observe them.
            self.stats.instructions += done;
            self.stats.base_cycles += 2 * done;
            self.steps += done;
            remaining -= done;
            match end {
                SegEnd::Budget | SegEnd::Transfer => {}
                SegEnd::Halt => {
                    let result = self.halted.expect("halt segment end");
                    return Ok(RunOutcome::Done(self.finished(result)));
                }
                SegEnd::GcDue => {
                    // Mirrors the stepwise loop's post-instruction
                    // sequence: collect, then copyback, then re-dispatch
                    // (the outer loop re-checks halt).
                    let kind = self.gc_due(self.steps).expect("a collection was due");
                    self.collect_garbage_kind(kind)?;
                    self.maybe_copyback()?;
                }
                SegEnd::BadPc => return Err(MachineError::BadMethod(method_fpa)),
                SegEnd::Trap(e) => return Err(e),
            }
        }
    }

    /// Executes one lowered instruction: hazard check, operand fetch,
    /// ITLB translation, then either the pure-data fast path (function
    /// unit straight to a context slot) or the shared generic paths.
    #[inline(always)]
    fn exec_low(&mut self, low: &LowInstr) -> Result<(), MachineError> {
        // Hazard check (§3.6): an O(1) compare of precomputed slots
        // against the previous instruction's destination.
        if let Some(last) = self.last_dest {
            let mut hazard = false;
            for (next, off) in low.hazards.into_iter().flatten() {
                let reg = if next { self.ncp } else { self.cp };
                if let Some(r) = reg {
                    if (r.abs, off) == last {
                        hazard = true;
                        break;
                    }
                }
            }
            if hazard {
                self.stats.interlock_cycles += 1;
            }
        }
        self.last_dest = None;

        // Step 2: operand fetch (values + class tags).
        let instr = low.instr;
        let (b, c, key) = match instr {
            Instr::Three { op, .. } => {
                let bv = self.read_low(low.b)?;
                let cv = self.read_low(low.c)?;
                (bv, cv, ItlbKey::binary(op, bv.1, cv.1))
            }
            Instr::Zero { op, nargs, .. } => self.implicit_operands(op, nargs)?,
        };
        if self.observer.is_some() {
            self.observe_dispatch(key);
        }

        // Step 3: translate through the ITLB (or pay full lookup). A
        // failed translation is offered to software trap dispatch (the
        // same shared path `step` uses) before it kills the send.
        let method = match self.resolve(key) {
            Ok(t) => t,
            Err(e) => return self.trap_dispatch(instr, b, c, e),
        };

        // Steps 4-5: perform the operation, store results.
        match method {
            Translation::Primitive(p) => {
                if instr.returns() && p.is_pure_data() && matches!(instr, Instr::Three { .. }) {
                    // Fast return: the function unit's result goes
                    // through the result pointer, read from its lowered
                    // A operand. An operand trap propagates directly:
                    // `trap_dispatch` refuses return-fused instructions
                    // before charging anything, so `?` here is exactly
                    // equivalent.
                    let v = crate::exec::data_op(p, instr.opcode(), b.0, c.0)?;
                    let class = self.class_of_word(&v)?;
                    let (ptr, _) = self.read_low(low.a)?;
                    return self.return_through(instr.opcode(), ptr, v, class);
                }
                if let Some((dnext, doff)) = low.dest {
                    if p.is_pure_data() {
                        // Fast path: function unit result into a context
                        // slot. Charges exactly what the generic
                        // `exec_primitive` + `write_result` pair charges
                        // for the same instruction: nothing beyond base.
                        // An operand trap takes the same software
                        // dispatch offer the generic path takes.
                        let v = match crate::exec::data_op(p, instr.opcode(), b.0, c.0) {
                            Ok(v) => v,
                            Err(e) => return self.trap_dispatch(instr, b, c, e),
                        };
                        let class = self.class_of_word(&v)?;
                        self.ctx_write_raw(dnext, doff, v, class)?;
                        let reg = if dnext { &self.ncp } else { &self.cp };
                        self.last_dest = reg.as_ref().map(|r| (r.abs, doff));
                        self.pc += 1;
                        return Ok(());
                    }
                }
                self.exec_primitive(instr, p, b, c)
            }
            Translation::Code(id) => self.do_call(instr, id, b, c),
        }
    }

    /// Runs via the single-step oracle: one [`step`](Self::step) per
    /// instruction, every invariant re-established from machine state each
    /// time. Results and architectural statistics must be bit-identical to
    /// [`run`](Self::run); the differential tests hold the threaded loop
    /// to that.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::StepLimit`] on exhaustion (the in-flight
    /// call survives and can be driven further, exactly like
    /// [`run_for`](Self::run_for)'s out-of-budget outcome) or any trap —
    /// and a trap exit unwinds through [`abort_send`](Self::abort_send)
    /// exactly as [`run_for`](Self::run_for)'s does, so the two loops
    /// leave bit-identical machines on every trap path.
    pub fn run_stepwise(&mut self, max_steps: u64) -> Result<RunResult, MachineError> {
        for _ in 0..max_steps {
            match self.step() {
                Ok(()) => {}
                Err(MachineError::Halted(result)) => return Ok(self.finished(result)),
                Err(e) => {
                    self.abort_send();
                    return Err(e);
                }
            }
        }
        Err(MachineError::StepLimit)
    }

    /// The outcome of a send that halted with `result`.
    fn finished(&self, result: Word) -> RunResult {
        RunResult {
            result,
            stats: self.stats,
            steps: self.steps,
        }
    }
}
