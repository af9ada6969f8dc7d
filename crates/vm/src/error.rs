//! The unified embedding error.

use com_core::{CycleStats, MachineError};
use com_mem::Word;
use com_stc::CompileError;
use com_verify::VerifyError;

/// A machine trap that unwound a call, with the call's accounting.
///
/// Produced by [`Session`](crate::Session) run paths
/// ([`send_raw`](crate::Session::send_raw),
/// [`resume`](crate::Session::resume)): the engine has already routed
/// through `Machine::abort_send`, so the session is re-callable and the
/// trapped call graph is collectable — this record is everything that
/// remains of the call.
#[derive(Debug, Clone, PartialEq)]
pub struct Trap {
    /// The trap that ended the call.
    pub cause: MachineError,
    /// The unwound call's **partial** [`CycleStats`]: the work the call
    /// performed from its start up to (and including) the faulting
    /// instruction, as a delta — not the session's cumulative counters.
    pub stats: CycleStats,
}

impl core::fmt::Display for Trap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} (after {} instructions of the unwound call)",
            self.cause, self.stats.instructions
        )
    }
}

impl std::error::Error for Trap {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// Everything that can go wrong at the embedding boundary, in one type:
/// compilation, machine traps, and the facade's own conditions (type
/// mismatches at the typed-call boundary, protocol misuse of the
/// resumable-call API).
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// Source text failed to compile.
    Compile(CompileError),
    /// The compiled (or hand-assembled) image failed static
    /// verification: a structural fault — unknown opcode, wild branch,
    /// out-of-geometry slot, unresolvable constant, wrong trap-handler
    /// arity — refused at load time, before any engine boots. The
    /// boxed [`VerifyError`] carries the method/offset provenance and a
    /// stable `V00x` code.
    Verify(Box<VerifyError>),
    /// The machine refused the call before it ran (boot/start errors:
    /// allocation failures, a malformed entry). Traps raised by a
    /// *running* call surface as [`VmError::Trap`] instead, which also
    /// carries the unwound call's partial statistics.
    Machine(MachineError),
    /// A running call trapped and was unwound. The session stays
    /// serviceable: the engine's `abort_send` cleanup already ran, so
    /// the next call behaves exactly as on a fresh session.
    Trap(Box<Trap>),
    /// A typed call's result did not convert to the requested Rust type.
    Type {
        /// What the caller asked for (e.g. `"i64"`).
        expected: &'static str,
        /// The word the program actually produced.
        got: Word,
    },
    /// A selector that no loaded source ever mentioned.
    UnknownSelector(String),
    /// The step budget of a one-shot [`call`](crate::Session::call) ran
    /// out before the program finished. Use
    /// [`call_start`](crate::Session::call_start) +
    /// [`resume`](crate::Session::resume) to treat exhaustion as a yield
    /// instead of an error.
    OutOfFuel {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// [`resume`](crate::Session::resume) was called with no call in
    /// flight.
    NoCallInProgress,
    /// [`call_start`](crate::Session::call_start) (or a one-shot call) was
    /// issued while an earlier resumable call was still in flight.
    CallInProgress,
    /// A resumable call yielded without retiring a single instruction, so
    /// driving it further could never finish it — a wedged machine, or a
    /// stall a [`FaultPlan`](crate::server::FaultPlan) injects. The
    /// [`server`](crate::server) reports this instead of spinning
    /// forever. Classified **retry-safe** by
    /// [`RetryPolicy`](crate::server::RetryPolicy): a fresh attempt gets
    /// a fresh slice and may well complete.
    Stalled {
        /// The per-resume instruction budget in force when progress
        /// stopped: for a server tenant, its turn of `base_slice × weight`
        /// instructions, at least 1.
        slice: u64,
    },
    /// A thread panicked while driving a slice of this tenant's call —
    /// an engine invariant violation or an injected fault
    /// ([`FaultPlan`](crate::server::FaultPlan)), never an ordinary
    /// program trap (those surface as [`VmError::Trap`]). The panic was
    /// **contained to the tenant**: the [`server`](crate::server) worker
    /// driving it caught it, cancelled the in-flight call, and both the
    /// session and every sibling tenant remain serviceable. Classified
    /// **retry-safe** by [`RetryPolicy`](crate::server::RetryPolicy) — a
    /// panic is transient by definition — though the server still
    /// refuses to retry non-idempotent in-flight calls.
    EnginePanic {
        /// The panic payload, rendered to text.
        message: String,
    },
}

/// Renders a caught panic payload for [`VmError::EnginePanic`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl From<CompileError> for VmError {
    fn from(e: CompileError) -> Self {
        VmError::Compile(e)
    }
}

impl From<VerifyError> for VmError {
    fn from(e: VerifyError) -> Self {
        VmError::Verify(Box::new(e))
    }
}

impl From<MachineError> for VmError {
    fn from(e: MachineError) -> Self {
        match e {
            MachineError::UnknownSelector(name) => VmError::UnknownSelector(name),
            other => VmError::Machine(other),
        }
    }
}

impl VmError {
    /// Wraps a trap that unwound a running call, capturing the call's
    /// partial statistics.
    pub(crate) fn trap(cause: MachineError, stats: CycleStats) -> VmError {
        match cause {
            // Unknown selectors are a refusal, not an unwound run.
            MachineError::UnknownSelector(name) => VmError::UnknownSelector(name),
            cause => VmError::Trap(Box::new(Trap { cause, stats })),
        }
    }

    /// The machine trap underlying this error, if any (either a
    /// pre-flight refusal or an unwound run).
    pub fn machine_cause(&self) -> Option<&MachineError> {
        match self {
            VmError::Machine(e) => Some(e),
            VmError::Trap(t) => Some(&t.cause),
            _ => None,
        }
    }
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::Compile(e) => write!(f, "compile error: {e}"),
            VmError::Verify(e) => write!(f, "image failed verification: {e}"),
            VmError::Machine(e) => write!(f, "machine refused the call: {e}"),
            VmError::Trap(t) => write!(f, "machine trap unwound the call: {t}"),
            VmError::Type { expected, got } => {
                write!(f, "result {got} does not convert to {expected}")
            }
            VmError::UnknownSelector(name) => {
                write!(
                    f,
                    "unknown selector {name:?} (never mentioned by any loaded source)"
                )
            }
            VmError::OutOfFuel { budget } => {
                write!(f, "call did not complete within its {budget}-step budget")
            }
            VmError::NoCallInProgress => write!(f, "resume with no call in progress"),
            VmError::CallInProgress => {
                write!(f, "a resumable call is already in progress on this session")
            }
            VmError::Stalled { slice } => {
                write!(
                    f,
                    "call stalled: a {slice}-instruction slice retired nothing and can never finish"
                )
            }
            VmError::EnginePanic { message } => {
                write!(f, "engine panic while driving the call: {message}")
            }
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Compile(e) => Some(e),
            VmError::Verify(e) => Some(e.as_ref()),
            VmError::Machine(e) => Some(e),
            VmError::Trap(t) => Some(&t.cause),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_unknown_selector_lifts_to_the_facade_variant() {
        let e: VmError = MachineError::UnknownSelector("foo".into()).into();
        assert_eq!(e, VmError::UnknownSelector("foo".into()));
        assert!(e.to_string().contains("foo"));
    }

    #[test]
    fn trap_wrap_carries_cause_and_partial_stats() {
        let stats = CycleStats {
            instructions: 7,
            base_cycles: 14,
            ..CycleStats::default()
        };
        let e = VmError::trap(
            MachineError::BadOperands {
                opcode: com_isa::Opcode::DIV,
                reason: "division by zero",
            },
            stats,
        );
        match &e {
            VmError::Trap(t) => {
                assert!(matches!(t.cause, MachineError::BadOperands { .. }));
                assert_eq!(t.stats.instructions, 7);
            }
            other => panic!("expected Trap, got {other:?}"),
        }
        assert!(e.to_string().contains("division by zero"));
        assert!(e.machine_cause().is_some());
        assert!(std::error::Error::source(&e).is_some());
        // An unknown selector never masquerades as an unwound run.
        let e = VmError::trap(MachineError::UnknownSelector("x".into()), stats);
        assert_eq!(e, VmError::UnknownSelector("x".into()));
    }

    #[test]
    fn display_is_specific() {
        let e = VmError::Type {
            expected: "i64",
            got: Word::Atom(com_mem::AtomId(1)),
        };
        assert!(e.to_string().contains("i64"));
        let e = VmError::OutOfFuel { budget: 100 };
        assert!(e.to_string().contains("100"));
    }

    /// The stable, matchable fragment each variant's `Display` text must
    /// contain. The match is exhaustive on purpose: adding a `VmError`
    /// variant without extending the Display contract (server logs and
    /// retry classification grep for these) fails to compile here.
    fn display_fragment(e: &VmError) -> &'static str {
        match e {
            VmError::Compile(_) => "compile error",
            VmError::Verify(_) => "image failed verification",
            VmError::Machine(_) => "machine refused the call",
            VmError::Trap(_) => "machine trap unwound the call",
            VmError::Type { .. } => "does not convert to",
            VmError::UnknownSelector(_) => "unknown selector",
            VmError::OutOfFuel { .. } => "did not complete within",
            VmError::NoCallInProgress => "no call in progress",
            VmError::CallInProgress => "already in progress",
            VmError::Stalled { .. } => "call stalled",
            VmError::EnginePanic { .. } => "engine panic",
        }
    }

    /// One constructed sample of every `VmError` variant.
    fn samples() -> Vec<VmError> {
        let compile = match com_stc::compile_com("class", com_stc::CompileOptions::default()) {
            Err(e) => e,
            Ok(_) => panic!("malformed source must not compile"),
        };
        let stats = CycleStats {
            instructions: 3,
            ..CycleStats::default()
        };
        let verify = com_verify::VerifyError {
            method: com_verify::Provenance {
                index: Some(0),
                name: "T ≫ bad".into(),
            },
            offset: Some(2),
            kind: com_verify::VerifyErrorKind::TooManyArgs { n_args: 31 },
        };
        vec![
            VmError::Compile(compile),
            VmError::Verify(Box::new(verify)),
            VmError::Machine(MachineError::NoContext),
            VmError::Trap(Box::new(Trap {
                cause: MachineError::BadOperands {
                    opcode: com_isa::Opcode::DIV,
                    reason: "division by zero",
                },
                stats,
            })),
            VmError::Type {
                expected: "i64",
                got: Word::Atom(com_mem::AtomId(1)),
            },
            VmError::UnknownSelector("frob".into()),
            VmError::OutOfFuel { budget: 7 },
            VmError::NoCallInProgress,
            VmError::CallInProgress,
            VmError::Stalled { slice: 9 },
            VmError::EnginePanic {
                message: "boom".into(),
            },
        ]
    }

    #[test]
    fn every_variant_displays_its_stable_fragment() {
        for e in samples() {
            let text = e.to_string();
            assert!(
                text.contains(display_fragment(&e)),
                "{e:?} renders {text:?} without its stable fragment"
            );
            // Display text is one line: log records stay grep-able.
            assert!(!text.contains('\n'), "{e:?} renders multiple lines");
        }
    }

    #[test]
    fn source_chains_reach_the_underlying_cause() {
        use std::error::Error;
        for e in samples() {
            match &e {
                // Wrapping variants expose the cause through source().
                VmError::Compile(_)
                | VmError::Verify(_)
                | VmError::Machine(_)
                | VmError::Trap(_) => {
                    assert!(e.source().is_some(), "{e:?} lost its source");
                }
                // Facade-originated conditions are the root cause.
                _ => assert!(e.source().is_none(), "{e:?} fabricated a source"),
            }
        }
        // Trap itself chains to the machine error, two levels deep.
        let trap = Trap {
            cause: MachineError::Mem(com_mem::MemError::UnknownTeam(com_mem::TeamId(1))),
            stats: CycleStats::default(),
        };
        assert!(trap.source().unwrap().source().is_some());
    }

    #[test]
    fn panic_payloads_render_to_text() {
        assert_eq!(panic_message(&"static str"), "static str");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&42_u32), "non-string panic payload");
    }
}
