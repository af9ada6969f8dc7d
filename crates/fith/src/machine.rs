//! The Fith Machine interpreter with tracing.

use std::collections::HashMap;
use std::sync::Arc;

use com_cache::CacheStats;
use com_core::{data_op, LOOKUP_COST, MEMORY_PENALTY};
use com_fpa::FpaFormat;
use com_isa::{Opcode, OpcodeTable, PrimOp};
use com_mem::{AllocKind, ClassId, MemError, ObjectSpace, TeamId, Word};
use com_obj::{AtomTable, ClassTable, Itlb, ItlbConfig, ItlbKey, MethodRef, Translation};
use com_trace::{Trace, TraceEvent};

use crate::{FithInstr, FithMethod};

/// A compiled Fith program: hierarchy, interning tables, methods.
#[derive(Debug, Clone)]
pub struct FithImage {
    /// The class hierarchy (primitive installs are translated into Fith
    /// dictionaries when the machine loads the image).
    pub classes: ClassTable,
    /// Interned atoms.
    pub atoms: AtomTable,
    /// Interned selectors.
    pub opcodes: OpcodeTable,
    /// Methods: (receiver class, selector, code).
    pub methods: Vec<(ClassId, Opcode, FithMethod)>,
}

impl FithImage {
    /// An empty image with standard primitives installed.
    pub fn empty() -> Self {
        let mut classes = ClassTable::new();
        com_obj::install_standard_primitives(&mut classes);
        FithImage {
            classes,
            atoms: AtomTable::new(),
            opcodes: OpcodeTable::new(),
            methods: Vec::new(),
        }
    }
}

/// Counters for one Fith run (experiment T3's stack-machine side).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FithStats {
    /// Instructions interpreted.
    pub instructions: u64,
    /// Sends executed (subset of instructions).
    pub sends: u64,
    /// Method calls (sends that resolved to defined methods).
    pub calls: u64,
    /// Total cycles: two per instruction (§5: executing a stack instruction
    /// "would take about the same amount of time" as a three-address one)
    /// plus lookup and memory stalls.
    pub cycles: u64,
    /// Full method lookups (ITLB misses).
    pub full_lookups: u64,
    /// Cycles spent in full lookup.
    pub lookup_cycles: u64,
    /// Peak operand stack depth.
    pub peak_stack: u64,
    /// Peak call depth.
    pub peak_frames: u64,
}

impl FithStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> Option<f64> {
        if self.instructions == 0 {
            None
        } else {
            Some(self.cycles as f64 / self.instructions as f64)
        }
    }
}

/// The result of a completed Fith run.
#[derive(Debug, Clone)]
pub struct FithResult {
    /// The value returned by the entry send.
    pub result: Word,
    /// Interpreter statistics.
    pub stats: FithStats,
}

/// One activation frame.
#[derive(Debug)]
struct Frame {
    method: Arc<FithMethod>,
    method_idx: usize,
    pc: usize,
    locals: Vec<(Word, ClassId)>,
}

/// The Fith Machine.
///
/// Uses the same [`ObjectSpace`] substrate and the same [`Itlb`] as the
/// COM — keyed by [`ItlbKey::unary`] on selector × receiver class, with a
/// defined method's translation naming its index in the method table —
/// but interprets a zero-address stack ISA.
#[derive(Debug)]
pub struct FithMachine {
    space: ObjectSpace,
    team: TeamId,
    classes: ClassTable,
    /// Defined-method dictionaries: class → selector → method index.
    dicts: HashMap<ClassId, HashMap<Opcode, usize>>,
    methods: Vec<Arc<FithMethod>>,
    itlb: Itlb,
    stack: Vec<(Word, ClassId)>,
    frames: Vec<Frame>,
    stats: FithStats,
    trace: Option<Trace>,
}

/// Errors surfaced by the Fith machine (reuses the COM's trap type; the
/// conditions are identical).
pub type FithError = com_core::MachineError;

impl FithMachine {
    /// Creates a machine and loads `image`, with the paper's 512×2-way
    /// ITLB.
    pub fn new(image: &FithImage) -> Self {
        let mut m = FithMachine {
            space: ObjectSpace::new(24, FpaFormat::COM),
            team: TeamId(0),
            classes: image.classes.clone(),
            dicts: HashMap::new(),
            methods: Vec::new(),
            itlb: Itlb::new(ItlbConfig::paper_default().expect("paper geometry is valid")),
            stack: Vec::new(),
            frames: Vec::new(),
            stats: FithStats::default(),
            trace: None,
        };
        for (class, sel, method) in &image.methods {
            let idx = m.methods.len();
            m.methods.push(Arc::new(method.clone()));
            m.dicts.entry(*class).or_default().insert(*sel, idx);
        }
        m
    }

    /// Starts recording a trace of every interpreted instruction.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::new());
    }

    /// Takes the recorded trace, leaving recording enabled with a fresh one.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.replace(Trace::new())
    }

    /// Interpreter statistics.
    pub fn stats(&self) -> FithStats {
        self.stats
    }

    /// ITLB statistics.
    pub fn itlb_stats(&self) -> CacheStats {
        self.itlb.stats()
    }

    /// The object space (for seeding workload data).
    pub fn space_mut(&mut self) -> &mut ObjectSpace {
        &mut self.space
    }

    /// The machine's team.
    pub fn team(&self) -> TeamId {
        self.team
    }

    fn class_of_word(&mut self, w: &Word) -> Result<ClassId, FithError> {
        match w.primitive_class() {
            Some(c) => Ok(c),
            None => Ok(self.space.class_of(self.team, w.as_ptr().expect("ptr"))?),
        }
    }

    fn push(&mut self, w: Word, c: ClassId) {
        self.stack.push((w, c));
        self.stats.peak_stack = self.stats.peak_stack.max(self.stack.len() as u64);
    }

    fn pop(&mut self) -> Result<(Word, ClassId), FithError> {
        self.stack.pop().ok_or(FithError::NoContext)
    }

    fn lookup(&mut self, op: Opcode, class: ClassId) -> Result<Translation, FithError> {
        let key = ItlbKey::unary(op, class);
        if let Some(t) = self.itlb.lookup(key) {
            return Ok(t);
        }
        // Full association: defined dictionaries first (overrides), then the
        // primitive installs, walking the superclass chain — charged by the
        // same cost model as the COM.
        self.stats.full_lookups += 1;
        let mut classes_visited = 0u32;
        let mut cur = Some(class);
        let mut found = None;
        while let Some(c) = cur {
            classes_visited += 1;
            if let Some(idx) = self.dicts.get(&c).and_then(|d| d.get(&op)) {
                found = Some(Translation::Code(*idx as u32));
                break;
            }
            if let Some(info) = self.classes.get(c) {
                if let (Some(MethodRef::Primitive(p)), _) = info.dict.lookup(op) {
                    found = Some(Translation::Primitive(p));
                    break;
                }
                cur = info.superclass;
            } else {
                break;
            }
        }
        let cost = classes_visited as u64 * LOOKUP_COST.per_class
            + classes_visited as u64 * LOOKUP_COST.per_probe;
        self.stats.lookup_cycles += cost;
        self.stats.cycles += cost;
        let t = found.ok_or(FithError::DoesNotUnderstand { opcode: op, class })?;
        self.itlb.fill(key, t);
        Ok(t)
    }

    /// Sends `selector` to `receiver` with `args`, running to completion.
    ///
    /// # Errors
    ///
    /// Returns [`FithError::UnknownSelector`] if `selector` was never
    /// interned in the image (no class could possibly answer it — the
    /// same refusal the COM engine gives, instead of a panic),
    /// [`FithError::StepLimit`] if the budget runs out, or any trap.
    pub fn send(
        &mut self,
        image: &FithImage,
        selector: &str,
        receiver: Word,
        args: &[Word],
        max_steps: u64,
    ) -> Result<FithResult, FithError> {
        let op = image
            .opcodes
            .get(selector)
            .ok_or_else(|| FithError::UnknownSelector(selector.to_string()))?;
        let rclass = self.class_of_word(&receiver)?;
        self.push(receiver, rclass);
        for a in args {
            let c = self.class_of_word(a)?;
            self.push(*a, c);
        }
        self.dispatch_send(op, args.len() as u8)?;
        let mut remaining = max_steps;
        while !self.frames.is_empty() {
            if remaining == 0 {
                return Err(FithError::StepLimit);
            }
            remaining -= 1;
            self.step()?;
        }
        let (result, _) = self.pop()?;
        Ok(FithResult {
            result,
            stats: self.stats,
        })
    }

    fn dispatch_send(&mut self, op: Opcode, nargs: u8) -> Result<(), FithError> {
        self.stats.sends += 1;
        let recv_pos = self
            .stack
            .len()
            .checked_sub(nargs as usize + 1)
            .ok_or(FithError::NoContext)?;
        let (recv, rclass) = self.stack[recv_pos];
        match self.lookup(op, rclass)? {
            Translation::Primitive(p) => self.exec_primitive(op, p, nargs),
            Translation::Code(idx) => {
                let idx = idx as usize;
                self.stats.calls += 1;
                let method = Arc::clone(&self.methods[idx]);
                let mut locals = vec![(Word::Uninit, ClassId::UNINIT); method.n_locals as usize];
                // Pop arguments (reverse order), then the receiver.
                for i in (0..nargs as usize).rev() {
                    locals[1 + i] = self.pop()?;
                }
                let r = self.pop()?;
                debug_assert_eq!(r.0, recv);
                locals[0] = (recv, rclass);
                self.frames.push(Frame {
                    method,
                    method_idx: idx,
                    pc: 0,
                    locals,
                });
                self.stats.peak_frames = self.stats.peak_frames.max(self.frames.len() as u64);
                Ok(())
            }
        }
    }

    fn exec_primitive(&mut self, op: Opcode, p: PrimOp, nargs: u8) -> Result<(), FithError> {
        match p {
            PrimOp::At => {
                self.stats.cycles += MEMORY_PENALTY;
                let (idx, _) = self.pop()?;
                let (ptr, _) = self.pop()?;
                let ptr = ptr.as_ptr().ok_or(FithError::BadOperands {
                    opcode: op,
                    reason: "at: requires an object pointer",
                })?;
                let i = idx.as_int().ok_or(FithError::BadOperands {
                    opcode: op,
                    reason: "at: requires an integer index",
                })? as u64;
                let addr = ptr.with_offset(ptr.offset() + i).map_err(MemError::from)?;
                let w = self.space.read(self.team, addr)?;
                let c = self.class_of_word(&w)?;
                self.push(w, c);
                Ok(())
            }
            PrimOp::AtPut => {
                self.stats.cycles += MEMORY_PENALTY;
                let (value, vclass) = self.pop()?;
                let (idx, _) = self.pop()?;
                let (ptr, _) = self.pop()?;
                let ptr = ptr.as_ptr().ok_or(FithError::BadOperands {
                    opcode: op,
                    reason: "at:put: requires an object pointer",
                })?;
                let i = idx.as_int().ok_or(FithError::BadOperands {
                    opcode: op,
                    reason: "at:put: requires an integer index",
                })? as u64;
                let addr = ptr.with_offset(ptr.offset() + i).map_err(MemError::from)?;
                self.space.write(self.team, addr, value)?;
                self.push(value, vclass);
                Ok(())
            }
            PrimOp::New => {
                self.stats.cycles += MEMORY_PENALTY;
                let (size, _) = self.pop()?;
                let (class_w, _) = self.pop()?;
                let class = ClassId(class_w.as_int().ok_or(FithError::BadOperands {
                    opcode: op,
                    reason: "new requires an integer class id",
                })? as u16);
                let words = size.as_int().ok_or(FithError::BadOperands {
                    opcode: op,
                    reason: "new requires an integer size",
                })?;
                let obj =
                    self.space
                        .create(self.team, class, words.max(0) as u64, AllocKind::Object)?;
                self.push(Word::Ptr(obj), class);
                Ok(())
            }
            PrimOp::Grow => {
                self.stats.cycles += MEMORY_PENALTY;
                let (size, _) = self.pop()?;
                let (ptr, _) = self.pop()?;
                let ptr = ptr.as_ptr().ok_or(FithError::BadOperands {
                    opcode: op,
                    reason: "grow requires an object pointer",
                })?;
                let words = size.as_int().ok_or(FithError::BadOperands {
                    opcode: op,
                    reason: "grow requires an integer size",
                })?;
                let new = self
                    .space
                    .grow(self.team, ptr.base(), words.max(0) as u64)?;
                let class = self.space.class_of(self.team, new)?;
                self.push(Word::Ptr(new), class);
                Ok(())
            }
            _ => {
                // Pure data operation: unary uses the receiver alone; binary
                // pops the argument.
                let (b, c) = if nargs == 0 {
                    let r = self.pop()?;
                    (r.0, r.0)
                } else {
                    let arg = self.pop()?;
                    let r = self.pop()?;
                    (r.0, arg.0)
                };
                let v = data_op(p, op, b, c)?;
                let class = self.class_of_word(&v)?;
                self.push(v, class);
                Ok(())
            }
        }
    }

    fn step(&mut self) -> Result<(), FithError> {
        let (instr, addr) = {
            let f = self.frames.last().ok_or(FithError::NoContext)?;
            if f.pc >= f.method.code.len() {
                return Err(FithError::BadMethod(
                    com_fpa::Fpa::from_raw(0, FpaFormat::COM).expect("zero fits"),
                ));
            }
            (
                f.method.code[f.pc],
                ((f.method_idx as u64) << 20) | f.pc as u64,
            )
        };
        if let Some(t) = &mut self.trace {
            let tos_class = self
                .stack
                .last()
                .map(|(_, c)| *c)
                .unwrap_or(ClassId::UNINIT);
            t.record(TraceEvent {
                addr,
                opcode: instr.trace_opcode(),
                tos_class,
            });
        }
        self.stats.instructions += 1;
        self.stats.cycles += 2;
        // Advance pc before execution; jumps are relative to the next
        // instruction, and sends resume after the send.
        self.frames.last_mut().expect("checked").pc += 1;
        match instr {
            FithInstr::PushConst(i) => {
                let f = self.frames.last().expect("checked");
                let w = *f
                    .method
                    .consts
                    .get(i as usize)
                    .ok_or(FithError::BadOperands {
                        opcode: Opcode::MOVE,
                        reason: "constant index out of range",
                    })?;
                let c = self.class_of_word(&w)?;
                self.push(w, c);
            }
            FithInstr::PushLocal(i) => {
                let f = self.frames.last().expect("checked");
                let v = *f.locals.get(i as usize).ok_or(FithError::BadOperands {
                    opcode: Opcode::MOVE,
                    reason: "local index out of range",
                })?;
                self.push(v.0, v.1);
            }
            FithInstr::StoreLocal(i) => {
                let v = self.pop()?;
                let f = self.frames.last_mut().expect("checked");
                *f.locals.get_mut(i as usize).ok_or(FithError::BadOperands {
                    opcode: Opcode::MOVE,
                    reason: "local index out of range",
                })? = v;
            }
            FithInstr::Dup => {
                let v = *self.stack.last().ok_or(FithError::NoContext)?;
                self.push(v.0, v.1);
            }
            FithInstr::Drop => {
                self.pop()?;
            }
            FithInstr::Send { op, nargs } => self.dispatch_send(op, nargs)?,
            FithInstr::Jump(d) => {
                let f = self.frames.last_mut().expect("checked");
                f.pc = (f.pc as i64 + d as i64) as usize;
            }
            FithInstr::JumpIfFalse(d) => {
                let (cond, _) = self.pop()?;
                let taken = match cond {
                    Word::Atom(a) => {
                        !AtomTable::truthiness(a).ok_or(FithError::BadBranchCondition(cond))?
                    }
                    Word::Int(i) => i == 0,
                    other => return Err(FithError::BadBranchCondition(other)),
                };
                if taken {
                    let f = self.frames.last_mut().expect("checked");
                    f.pc = (f.pc as i64 + d as i64) as usize;
                }
            }
            FithInstr::ReturnTop => {
                let v = self.pop()?;
                self.frames.pop();
                self.push(v.0, v.1);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same concurrency contract as the COM engine: method bodies are
    /// shared behind `Arc`, so a stack machine may move across threads.
    #[test]
    fn fith_machine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FithMachine>();
    }

    #[test]
    fn send_of_uninterned_selector_errors_instead_of_panicking() {
        // Mirrors the COM engine's refusal (PR 3): a selector no source
        // ever mentioned cannot be answered by any class, and must be an
        // error, not a panic.
        let img = sumto_image();
        let mut m = FithMachine::new(&img);
        match m.send(&img, "neverInterned:", Word::Int(1), &[], 100) {
            Err(FithError::UnknownSelector(name)) => assert_eq!(name, "neverInterned:"),
            other => panic!("expected UnknownSelector, got {other:?}"),
        }
        // The machine is still usable after the refused send.
        let out = m.send(&img, "sumto", Word::Int(10), &[], 10_000).unwrap();
        assert_eq!(out.result, Word::Int(55));
    }

    /// SmallInteger>>sumto compiled by hand for the stack machine.
    fn sumto_image() -> FithImage {
        let mut img = FithImage::empty();
        let sel = img.opcodes.intern("sumto").unwrap();
        // sumto: self <= 0 ifTrue: [^0]. ^self + (self - 1) sumto
        let code = vec![
            FithInstr::PushLocal(0),
            FithInstr::PushConst(0), // 0
            FithInstr::Send {
                op: Opcode::LE,
                nargs: 1,
            },
            FithInstr::JumpIfFalse(2),
            FithInstr::PushConst(0),
            FithInstr::ReturnTop,
            FithInstr::PushLocal(0),
            FithInstr::PushLocal(0),
            FithInstr::PushConst(1), // 1
            FithInstr::Send {
                op: Opcode::SUB,
                nargs: 1,
            },
            FithInstr::Send { op: sel, nargs: 0 },
            FithInstr::Send {
                op: Opcode::ADD,
                nargs: 1,
            },
            FithInstr::ReturnTop,
        ];
        img.methods.push((
            ClassId::SMALL_INT,
            sel,
            FithMethod {
                name: "SmallInteger>>sumto".into(),
                n_args: 0,
                n_locals: 1,
                code,
                consts: vec![Word::Int(0), Word::Int(1)],
            },
        ));
        img
    }

    #[test]
    fn recursive_sum_runs() {
        let img = sumto_image();
        let mut m = FithMachine::new(&img);
        let out = m
            .send(&img, "sumto", Word::Int(100), &[], 1_000_000)
            .unwrap();
        assert_eq!(out.result, Word::Int(5050));
        assert!(out.stats.calls >= 101);
        assert!(out.stats.peak_frames >= 100);
    }

    #[test]
    fn trace_records_all_instructions() {
        let img = sumto_image();
        let mut m = FithMachine::new(&img);
        m.enable_trace();
        m.send(&img, "sumto", Word::Int(10), &[], 100_000).unwrap();
        let t = m.take_trace().unwrap();
        assert_eq!(t.len() as u64, m.stats().instructions);
        // Sends appear with their real selector, pushes with pseudo-opcodes.
        assert!(t.events().iter().any(|e| e.opcode == Opcode::ADD.0));
        assert!(t.events().iter().any(|e| e.opcode == 0x401));
    }

    #[test]
    fn itlb_eliminates_lookups_on_fith_too() {
        let img = sumto_image();
        let mut m = FithMachine::new(&img);
        m.send(&img, "sumto", Word::Int(200), &[], 1_000_000)
            .unwrap();
        let s = m.stats();
        // Hundreds of sends, only a handful of distinct (op, class) keys.
        assert!(s.sends > 600);
        assert!(s.full_lookups < 10, "got {}", s.full_lookups);
        assert_eq!(m.itlb_stats().misses, s.full_lookups);
    }

    #[test]
    fn objects_work_through_the_shared_substrate() {
        let mut img = FithImage::empty();
        let sel = img.opcodes.intern("poke").unwrap();
        // poke: (arg1 at: 0 put: 42), then read it back.
        let code = vec![
            FithInstr::PushLocal(1),
            FithInstr::PushConst(0),
            FithInstr::PushConst(1),
            FithInstr::Send {
                op: Opcode::ATPUT,
                nargs: 2,
            },
            FithInstr::Drop,
            FithInstr::PushLocal(1),
            FithInstr::PushConst(0),
            FithInstr::Send {
                op: Opcode::AT,
                nargs: 1,
            },
            FithInstr::ReturnTop,
        ];
        img.methods.push((
            ClassId::SMALL_INT,
            sel,
            FithMethod {
                name: "poke".into(),
                n_args: 1,
                n_locals: 2,
                code,
                consts: vec![Word::Int(0), Word::Int(42)],
            },
        ));
        let cell_class = img
            .classes
            .define("Cell", Some(ClassTable::OBJECT), 1)
            .unwrap();
        let mut m = FithMachine::new(&img);
        let obj = m
            .space_mut()
            .create(TeamId(0), cell_class, 4, AllocKind::Object)
            .unwrap();
        let out = m
            .send(&img, "poke", Word::Int(0), &[Word::Ptr(obj)], 10_000)
            .unwrap();
        assert_eq!(out.result, Word::Int(42));
    }
}
