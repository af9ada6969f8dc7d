//! **com-vm** — the embedding facade over the COM engine: compile once,
//! serve many tenants.
//!
//! The engine crate (`com-core`) exposes a lab bench: one [`Machine`]
//! married to one image, raw [`Word`]s at the boundary, a step budget that
//! surfaces as an error. This crate is the API the machine was *built
//! for* — many concurrent object programs over shared program structure:
//!
//! * [`VmBuilder`] compiles sources **once** into a shared, immutable
//!   [`Arc<LoadedImage>`] — classes, atoms, selectors, and every method
//!   pre-decoded to the interpreter's lowered fast-path form.
//! * [`Vm::session`] spawns cheap, isolated [`Session`]s that own only
//!   mutable state (object space, context cache, statistics). Spinning a
//!   session up never re-compiles or re-decodes.
//! * Sessions expose **typed calls** ([`ToWord`]/[`FromWord`]):
//!   `session.call::<i64>("factorial", 12)?`, under one [`VmError`].
//! * Execution is **resumable**: [`Session::call_start`] +
//!   [`Session::resume`] return [`Outcome::Yielded`] when a budget runs
//!   out, instead of abusing a step-limit error — and the cooperative
//!   [`Scheduler`] round-robins any number of in-flight sessions with
//!   per-tenant results and statistics bit-identical to solo runs.
//! * Execution is **parallel**: the whole engine layer is `Send`, and
//!   the [`ParallelExecutor`] drains any number of in-flight sessions
//!   across a fixed pool of worker threads, each taking the next session
//!   from one shared queue — same yield cadence, same bit-identical
//!   per-tenant results and statistics, N tenants on M cores.
//! * Execution is **supervised**: the [`server`] module runs named
//!   sessions on its own long-lived worker threads — bounded admission
//!   with typed backpressure, per-request deadlines, per-tenant fuel
//!   budgets and weighted fair scheduling, retry with capped backoff,
//!   overload shedding, a drain that never loses a session, and a
//!   deterministic fault-injection harness ([`server::FaultPlan`]) to
//!   prove all of it.
//!
//! All three executors run every slice through one function that
//! contains panics, so a panic while driving a tenant surfaces as that
//! tenant's [`VmError::EnginePanic`] and never reaches its siblings.
//!
//! # Thread safety
//!
//! The exact contract, compile-time asserted in this crate's tests:
//!
//! * [`Vm`]`: Send + Sync` — one `Vm` (and its shared
//!   [`Arc<LoadedImage>`]) may be cloned and used from any number of
//!   threads at once.
//! * [`Session`]`: Send` but **not** `Sync` — a session may be *moved*
//!   between threads freely (start a call on one thread, resume it on
//!   another; results and [`CycleStats`] are unaffected), but may only
//!   be driven by one thread at a time. This is `&mut`-style exclusive
//!   ownership, enforced by the type system — no locks, no atomics on
//!   the hot path. Sharing a `&Session` across threads does not
//!   compile:
//!
//! ```compile_fail,E0277
//! fn assert_sync<T: Sync>() {}
//! assert_sync::<com_vm::Session>(); // Session is !Sync by design
//! ```
//!
//! ```
//! use com_vm::{Outcome, Vm};
//!
//! # fn main() -> Result<(), com_vm::VmError> {
//! // Compile once...
//! let vm = Vm::new(
//!     "class SmallInteger method factorial
//!        self < 2 ifTrue: [ ^1 ]. ^self * (self - 1) factorial
//!      end end",
//! )?;
//!
//! // ...serve many isolated tenants.
//! let mut alice = vm.session()?;
//! let mut bob = vm.session()?;
//! assert_eq!(alice.call::<i64>("factorial", 12)?, 479_001_600);
//!
//! // Resumable execution: run bob in 100-instruction slices.
//! bob.call_start("factorial", 20)?;
//! let answer = loop {
//!     match bob.resume::<i64>(100)? {
//!         Outcome::Done(n) => break n,
//!         Outcome::Yielded => { /* interleave other tenants here */ }
//!     }
//! };
//! assert_eq!(answer, 2_432_902_008_176_640_000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod convert;
mod error;
mod pool;
mod sched;
pub mod server;
mod session;

pub use convert::{FromWord, ToWord};
pub use error::{Trap, VmError};
pub use pool::ParallelExecutor;
pub use sched::{Scheduler, TaskId, TenantRun};
pub use session::{Outcome, Session};

// The engine types an embedder meets at this boundary.
pub use com_core::{
    CycleStats, GcTotals, LoadedImage, Machine, MachineConfig, ProgramImage, RunResult, SeededBoot,
};
pub use com_mem::Word;
pub use com_stc::CompileOptions;
pub use com_verify::ImageFacts;

use std::sync::{Arc, OnceLock};

/// Builds a [`Vm`]: gathers source text, compiles it once, pre-decodes
/// every method.
///
/// ```
/// # fn main() -> Result<(), com_vm::VmError> {
/// let vm = com_vm::Vm::builder()
///     .source("class SmallInteger method double ^self + self end end")
///     .source("class SmallInteger method quad ^self double double end end")
///     .build()?;
/// assert_eq!(vm.session()?.call::<i64>("quad", 4)?, 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VmBuilder {
    sources: Vec<String>,
    options: CompileOptions,
    config: MachineConfig,
    verify: bool,
    preseed: bool,
}

impl Default for VmBuilder {
    fn default() -> VmBuilder {
        VmBuilder::new()
    }
}

impl VmBuilder {
    /// An empty builder with default compile options and machine config.
    /// Static verification is **on** by default.
    pub fn new() -> VmBuilder {
        VmBuilder {
            sources: Vec::new(),
            options: CompileOptions::default(),
            config: MachineConfig::default(),
            verify: true,
            preseed: false,
        }
    }

    /// Appends source text (classes may be reopened across chunks; the
    /// standard library is prepended once at compile time). Compile
    /// errors report positions in the joined text — the same coordinate
    /// space `compile_com` already uses for its stdlib-prepended input —
    /// so a position from a later chunk is offset by the chunks before
    /// it.
    pub fn source(mut self, text: &str) -> VmBuilder {
        self.sources.push(text.to_string());
        self
    }

    /// Replaces the compile options (inlining ablations, stdlib).
    pub fn options(mut self, options: CompileOptions) -> VmBuilder {
        self.options = options;
        self
    }

    /// Replaces the machine configuration every session boots with.
    pub fn config(mut self, config: MachineConfig) -> VmBuilder {
        self.config = config;
        self
    }

    /// Toggles load-time static verification (on by default). Turning it
    /// off admits images the verifier would refuse; the engine still
    /// defends itself with typed runtime traps, never panics.
    pub fn verify(mut self, verify: bool) -> VmBuilder {
        self.verify = verify;
        self
    }

    /// Toggles boot-time ITLB pre-seeding (off by default). When on,
    /// each spawned session's translation buffer is warmed with the
    /// image's statically resolved monomorphic send sites (the
    /// whole-image analysis in [`Vm::facts`]) before the first
    /// instruction runs — those sites then hit the buffer instead of
    /// paying a first-touch full-association lookup. Every pre-seeded
    /// entry is exactly what the first real dispatch would have filled,
    /// so results and execution are unchanged; only cold-start lookup
    /// costs move. The analysis and the seeding run lazily, once per
    /// `Vm`: one machine is booted and seeded
    /// ([`Machine::preseed_itlb`]), and every session boots with a copy of
    /// its ITLB ([`SeededBoot`]), bit-identical to seeding its own.
    pub fn preseed_itlb(mut self, preseed: bool) -> VmBuilder {
        self.preseed = preseed;
        self
    }

    /// Compiles the gathered sources once, **verifies** the image (unless
    /// [`verify(false)`](VmBuilder::verify)), and prepares the shared
    /// image.
    ///
    /// # Errors
    ///
    /// [`VmError::Compile`] on any lexical, syntactic or semantic error;
    /// [`VmError::Verify`] if the compiled image fails static
    /// verification.
    pub fn build(self) -> Result<Vm, VmError> {
        let joined = self.sources.join("\n");
        let image = com_stc::compile_com(&joined, self.options)?;
        if self.verify {
            com_verify::verify_image(&image)?;
        }
        Ok(Vm::prepare(image, self.config, self.preseed))
    }
}

/// The lazily-computed whole-image analysis a `Vm` shares across its
/// sessions: the facts artifact, and for a pre-seeding `Vm` the boot state
/// of one machine seeded with the facts' keys.
#[derive(Debug)]
struct Analysis {
    facts: ImageFacts,
    seed: Option<SeededBoot>,
}

/// A compiled program ready to serve tenants: one shared, immutable
/// [`LoadedImage`] plus the [`MachineConfig`] sessions boot with.
///
/// `Vm` is cheap to clone (the image is behind an [`Arc`]) and is
/// `Send + Sync`; `Session` is `Send`, so sessions really may be
/// spawned and driven from any thread — including started on one and
/// resumed on another (see the [crate docs](crate#thread-safety) for
/// the full contract, and [`ParallelExecutor`] for the batteries-
/// included worker pool).
#[derive(Debug, Clone)]
pub struct Vm {
    image: Arc<LoadedImage>,
    config: MachineConfig,
    preseed: bool,
    analysis: Arc<OnceLock<Option<Analysis>>>,
}

impl Vm {
    /// Compiles `source` with default options into a ready `Vm` — the
    /// one-liner for the common case.
    ///
    /// # Errors
    ///
    /// [`VmError::Compile`] on any compile error.
    pub fn new(source: &str) -> Result<Vm, VmError> {
        Vm::builder().source(source).build()
    }

    /// Starts a builder.
    pub fn builder() -> VmBuilder {
        VmBuilder::new()
    }

    /// Wraps an already-compiled (or hand-assembled) [`ProgramImage`],
    /// refusing it with [`VmError::Verify`] if it fails static
    /// verification — a malformed image never reaches an engine.
    ///
    /// # Errors
    ///
    /// [`VmError::Verify`] with method/offset provenance for the first
    /// structural fault.
    pub fn from_image(image: ProgramImage, config: MachineConfig) -> Result<Vm, VmError> {
        com_verify::verify_image(&image)?;
        Ok(Vm::prepare(image, config, false))
    }

    /// A `Vm` serving `image`, whether or not it was verified.
    fn prepare(image: ProgramImage, config: MachineConfig, preseed: bool) -> Vm {
        Vm {
            image: Arc::new(LoadedImage::prepare_for(image, &config)),
            config,
            preseed,
            analysis: Arc::new(OnceLock::new()),
        }
    }

    /// Spawns a fresh, isolated tenant session over the shared image.
    ///
    /// This is the cheap path: no compilation, no decoding. The new
    /// session's machine clones the image's pre-stored object space and
    /// decoded slab, and shares the image's class, selector and atom
    /// tables and pre-decoded bodies; it copies a table only if it changes
    /// it. Its space, caches and statistics are its own. With
    /// [`preseed_itlb`](VmBuilder::preseed_itlb) on, it also starts with a
    /// copy of the ITLB one machine was seeded with, so no session
    /// repeats the seeding's lookups.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the boot, and
    /// [`MachineError::UndefinedClass`](com_core::MachineError) for an
    /// image admitted unverified that installs a method into a class it
    /// does not define.
    pub fn session(&self) -> Result<Session, VmError> {
        let seeded = self.preseed.then(|| self.analysis()).flatten();
        let machine = match seeded.and_then(|a| a.seed.as_ref()) {
            Some(seed) => Machine::boot_seeded(seed),
            None => Machine::boot(self.config, &self.image)?,
        };
        Ok(Session::new(machine, Arc::clone(&self.image)))
    }

    /// The whole-image analysis facts (class inference, send-site
    /// resolution, call graph, fuel bounds) for the compiled image,
    /// computed lazily on first use and shared by all clones of this
    /// `Vm`. `None` when the image was admitted with verification
    /// disabled and does not verify. An image beyond the analysis's class
    /// budget gets degraded facts: no resolved sites, no pre-seed keys.
    pub fn facts(&self) -> Option<&ImageFacts> {
        self.analysis().map(|a| &a.facts)
    }

    fn analysis(&self) -> Option<&Analysis> {
        self.analysis
            .get_or_init(|| {
                let facts = ImageFacts::analyze(self.image.image()).ok()?;
                let seed = self
                    .preseed
                    .then(|| SeededBoot::new(self.config, &self.image, &facts.preseed_keys()))
                    .and_then(Result::ok);
                Some(Analysis { facts, seed })
            })
            .as_ref()
    }

    /// The shared image.
    pub fn image(&self) -> &Arc<LoadedImage> {
        &self.image
    }

    /// The machine configuration sessions boot with.
    pub fn config(&self) -> MachineConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FACTORIAL: &str = r#"
        class SmallInteger
          method factorial | acc |
            acc := 1.
            1 to: self do: [ :i | acc := acc * i ].
            ^acc
          end
        end
    "#;

    #[test]
    fn typed_call_round_trip() {
        let vm = Vm::new(FACTORIAL).unwrap();
        let mut s = vm.session().unwrap();
        assert_eq!(s.call::<i64>("factorial", 12).unwrap(), 479_001_600);
        // Typed mismatch surfaces as a VmError::Type, not a panic.
        match s.call::<f64>("factorial", 3) {
            Err(VmError::Type {
                expected: "f64", ..
            }) => {}
            other => panic!("expected type error, got {other:?}"),
        }
    }

    #[test]
    fn sessions_share_one_image_and_are_isolated() {
        let vm = Vm::new(FACTORIAL).unwrap();
        assert_eq!(vm.image().predecoded(), vm.image().methods());
        let mut a = vm.session().unwrap();
        let mut b = vm.session().unwrap();
        assert!(Arc::ptr_eq(a.image(), b.image()));
        assert_eq!(a.call::<i64>("factorial", 10).unwrap(), 3_628_800);
        // b's statistics are untouched by a's work.
        assert_eq!(b.stats().instructions, 0);
        assert_eq!(b.call::<i64>("factorial", 5).unwrap(), 120);
    }

    #[test]
    fn unknown_selector_is_an_error() {
        let vm = Vm::new(FACTORIAL).unwrap();
        let mut s = vm.session().unwrap();
        match s.call::<i64>("frobnicate", 1) {
            Err(VmError::UnknownSelector(name)) => assert_eq!(name, "frobnicate"),
            other => panic!("expected UnknownSelector, got {other:?}"),
        }
        // The session survives the refused call.
        assert_eq!(s.call::<i64>("factorial", 3).unwrap(), 6);
    }

    #[test]
    fn out_of_fuel_is_an_error_only_for_one_shot_calls() {
        let vm = Vm::new(FACTORIAL).unwrap();
        let mut s = vm.session().unwrap();
        s.set_step_limit(10);
        match s.call::<i64>("factorial", 100) {
            Err(VmError::OutOfFuel { budget: 10 }) => {}
            other => panic!("expected OutOfFuel, got {other:?}"),
        }
        s.set_step_limit(u64::MAX);
        assert_eq!(s.call::<i64>("factorial", 5).unwrap(), 120);
    }

    #[test]
    fn resumable_call_yields_then_completes_bit_identically() {
        let vm = Vm::new(FACTORIAL).unwrap();
        let mut one_shot = vm.session().unwrap();
        let expected = one_shot.call::<i64>("factorial", 12).unwrap();
        let solo = one_shot.last_run().unwrap().clone();

        let mut sliced = vm.session().unwrap();
        sliced.call_start("factorial", 12).unwrap();
        assert!(sliced.in_flight());
        let mut yields = 0;
        let got = loop {
            match sliced.resume::<i64>(7).unwrap() {
                Outcome::Done(n) => break n,
                Outcome::Yielded => yields += 1,
            }
        };
        assert_eq!(got, expected);
        assert!(yields > 0, "a 7-step slice must yield at least once");
        assert!(!sliced.in_flight());
        let run = sliced.last_run().unwrap();
        assert_eq!(run.stats, solo.stats, "sliced run diverged from solo run");
        assert_eq!(run.steps, solo.steps);
    }

    #[test]
    fn resumable_protocol_misuse_is_reported() {
        let vm = Vm::new(FACTORIAL).unwrap();
        let mut s = vm.session().unwrap();
        assert_eq!(s.resume::<i64>(10), Err(VmError::NoCallInProgress));
        s.call_start("factorial", 50).unwrap();
        assert_eq!(s.call_start("factorial", 1), Err(VmError::CallInProgress));
        match s.call::<i64>("factorial", 1) {
            Err(VmError::CallInProgress) => {}
            other => panic!("expected CallInProgress, got {other:?}"),
        }
        s.cancel();
        assert_eq!(s.call::<i64>("factorial", 3).unwrap(), 6);
    }

    #[test]
    fn cancel_releases_the_abandoned_call_graph() {
        let vm = Vm::new(FACTORIAL).unwrap();
        let mut s = vm.session().unwrap();
        // Baseline: a completed call, heap collected.
        let _: i64 = s.call("factorial", 8).unwrap();
        let roots = s.machine().code_root_count();
        s.machine_mut().collect_garbage().unwrap();
        let live = s.space().memory().buddy().allocated_words();
        // Start a call, run a few slices, abandon it.
        s.call_start("factorial", 500).unwrap();
        assert_eq!(s.resume::<i64>(50).unwrap(), Outcome::Yielded);
        s.cancel();
        assert_eq!(
            s.machine().code_root_count(),
            roots,
            "cancel must un-root the abandoned entry method"
        );
        s.machine_mut().collect_garbage().unwrap();
        assert!(
            s.space().memory().buddy().allocated_words() <= live,
            "abandoned call graph must be collectable after cancel"
        );
        // The session still works.
        assert_eq!(s.call::<i64>("factorial", 3).unwrap(), 6);
    }

    #[test]
    fn scheduler_round_robins_fairly() {
        let vm = Vm::new(FACTORIAL).unwrap();
        let mut sched = Scheduler::new(50);
        let mut ids = Vec::new();
        for n in [5i64, 10, 15, 20] {
            let mut s = vm.session().unwrap();
            s.call_start("factorial", n).unwrap();
            ids.push(sched.spawn(s).unwrap());
        }
        sched.run();
        assert_eq!(sched.result_as::<i64>(ids[0]).unwrap(), Some(120));
        assert_eq!(
            sched.result_as::<i64>(ids[3]).unwrap(),
            Some(2_432_902_008_176_640_000)
        );
        // Fairness: the longest task got at least as many slices as the
        // shortest, and every task got at least one.
        assert!(sched.slices(ids[3]) >= sched.slices(ids[0]));
        assert!(sched.slices(ids[0]) >= 1);
        assert!(sched.rounds() >= sched.slices(ids[3]));
    }

    #[test]
    fn scheduler_interleaving_matches_solo_stats() {
        let vm = Vm::new(FACTORIAL).unwrap();
        // Solo baselines.
        let mut solos = Vec::new();
        for n in [6i64, 11, 17] {
            let mut s = vm.session().unwrap();
            let _ = s.call::<i64>("factorial", n).unwrap();
            solos.push(s.last_run().unwrap().clone());
        }
        // The same three workloads, interleaved in 13-step slices.
        let mut sched = Scheduler::new(13);
        let mut ids = Vec::new();
        for n in [6i64, 11, 17] {
            let mut s = vm.session().unwrap();
            s.call_start("factorial", n).unwrap();
            ids.push(sched.spawn(s).unwrap());
        }
        sched.run();
        for (i, id) in ids.iter().enumerate() {
            let run = sched.session(*id).unwrap().last_run().unwrap();
            assert_eq!(run.result, solos[i].result);
            assert_eq!(run.stats, solos[i].stats, "task {i} stats diverged");
        }
    }

    #[test]
    fn trapped_task_does_not_stall_the_scheduler() {
        let vm = Vm::new(
            "class SmallInteger
               method boom ^1 / (self - self) end
               method fine ^self + 1 end
             end",
        )
        .unwrap();
        let mut sched = Scheduler::new(100);
        let mut bad = vm.session().unwrap();
        bad.call_start("boom", 3).unwrap();
        let bad_id = sched.spawn(bad).unwrap();
        let mut good = vm.session().unwrap();
        good.call_start("fine", 3).unwrap();
        let good_id = sched.spawn(good).unwrap();
        sched.run();
        assert!(sched.error(bad_id).is_some());
        assert_eq!(sched.result_as::<i64>(good_id).unwrap(), Some(4));
    }

    #[test]
    fn from_image_supports_hand_assembled_programs() {
        use com_isa::{Assembler, Opcode, Operand};
        use com_mem::ClassId;
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("double").unwrap();
        let mut asm = Assembler::new("SmallInteger>>double", 1);
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(2),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(2),
            Operand::Cur(2),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        let vm = Vm::from_image(img, MachineConfig::default()).unwrap();
        assert_eq!(vm.session().unwrap().call::<i64>("double", 21).unwrap(), 42);
    }

    #[test]
    fn from_image_refuses_malformed_images_with_a_typed_error() {
        use com_isa::{Assembler, Opcode, Operand};
        use com_mem::ClassId;
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("wild").unwrap();
        let mut asm = Assembler::new("SmallInteger>>wild", 1);
        // Slot 63 encodes but lies beyond the context geometry.
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(63),
            Operand::Cur(63),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        match Vm::from_image(img, MachineConfig::default()) {
            Err(VmError::Verify(e)) => {
                assert_eq!(e.code(), "V003");
                assert!(e.to_string().contains("wild"), "{e}");
            }
            other => panic!("expected VmError::Verify, got {other:?}"),
        }
    }

    #[test]
    fn a_method_on_an_undefined_class_is_refused_not_a_panic() {
        use com_core::MachineError;
        use com_isa::{Assembler, Opcode, Operand};
        use com_mem::ClassId;
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("orphan").unwrap();
        let mut asm = Assembler::new("Ghost>>orphan", 1);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        img.add_method(ClassId(300), sel, asm.finish().unwrap());
        match Vm::from_image(img.clone(), MachineConfig::default()) {
            Err(VmError::Verify(e)) => assert_eq!(e.code(), "V008"),
            other => panic!("expected V008, got {other:?}"),
        }
        // What a build with verification off makes of it: no facts, and a
        // session boot the loader refuses.
        let vm = Vm::prepare(img, MachineConfig::default(), true);
        assert!(vm.facts().is_none());
        match vm.session() {
            Err(VmError::Machine(MachineError::UndefinedClass { method: 0, class })) => {
                assert_eq!(class, ClassId(300));
            }
            other => panic!("expected UndefinedClass, got {other:?}"),
        }
    }

    #[test]
    fn preseeded_sessions_pay_fewer_cold_lookups() {
        let plain = Vm::new(FACTORIAL).unwrap();
        let seeded = Vm::builder()
            .source(FACTORIAL)
            .preseed_itlb(true)
            .build()
            .unwrap();
        let facts = seeded.facts().expect("whole-image analysis");
        assert!(facts.summary.monomorphic > 0);
        let mut a = plain.session().unwrap();
        let mut b = seeded.session().unwrap();
        assert_eq!(a.call::<i64>("factorial", 10).unwrap(), 3_628_800);
        assert_eq!(b.call::<i64>("factorial", 10).unwrap(), 3_628_800);
        assert_eq!(
            a.stats().instructions,
            b.stats().instructions,
            "pre-seeding must not change execution"
        );
        assert!(
            b.stats().full_lookups < a.stats().full_lookups,
            "pre-seeded session must skip first-touch lookups ({} vs {})",
            b.stats().full_lookups,
            a.stats().full_lookups
        );
    }

    /// Compiles `source` through every entry point that takes source
    /// text: `Err` with the compile error's text, `Ok` if all accept it.
    fn compile_everywhere(source: &str, fith: bool) -> Result<(), String> {
        com_stc::compile_com(source, Default::default()).map_err(|e| e.to_string())?;
        if fith {
            com_stc::compile_fith(source, Default::default()).map_err(|e| e.to_string())?;
        }
        Vm::builder()
            .source(source)
            .build()
            .map(drop)
            .map_err(|e| e.to_string())
    }

    #[test]
    fn the_constant_table_limit_is_a_compile_error() {
        // `x := 0` and n distinct literals added to it: n + 1 constants in
        // one method, and the 7-bit field holds 128.
        let method = |n: i64| {
            let adds: String = (1..=n)
                .map(|k| format!("x := x + {}. ", 1000 + k))
                .collect();
            format!("class SmallInteger method many | x | x := 0. {adds}^x end end")
        };
        assert_eq!(compile_everywhere(&method(127), false), Ok(()));
        let image = com_stc::compile_com(&method(127), Default::default()).unwrap();
        let many = image.methods.last().expect("the user method is last");
        assert_eq!(many.code.consts.len(), 128, "at the limit");
        for n in [128, 200] {
            let e = compile_everywhere(&method(n), false).expect_err("past the limit");
            assert!(
                e.contains("operand k128 field overflow"),
                "{n} literals: {e}"
            );
        }
    }

    #[test]
    fn the_selector_space_limit_is_a_compile_error() {
        // A chain m0 … m(n-1) interns n user selectors; the 10-bit space
        // has room for what the standard library leaves free.
        let used = com_stc::compile_com("", Default::default())
            .unwrap()
            .opcodes
            .iter()
            .filter(|(op, _)| op.is_user())
            .count();
        let free = (com_isa::Opcode::MAX - com_isa::Opcode::USER_BASE + 1) as usize - used;
        let chain = |n: usize| {
            let methods: String = (0..n)
                .map(|i| format!("method m{i} ^self m{} end ", i + 1))
                .collect();
            format!("class SmallInteger {methods}method m{n} ^self end end")
        };
        assert_eq!(compile_everywhere(&chain(free - 1), true), Ok(()));
        let e = compile_everywhere(&chain(free), true).expect_err("one past the limit");
        assert!(e.contains("exceeds the 10-bit selector field"), "{e}");
    }

    #[test]
    fn builder_verification_can_be_disabled() {
        // The stdlib-backed compile verifies cleanly either way; the
        // toggle just must not change the result.
        let vm = Vm::builder()
            .source(FACTORIAL)
            .verify(false)
            .build()
            .unwrap();
        assert_eq!(
            vm.session().unwrap().call::<i64>("factorial", 6).unwrap(),
            720
        );
    }
}
