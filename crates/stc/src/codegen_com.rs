//! The COM backend: three-address code generation per §4.
//!
//! Context layout (operand space; two linkage words precede it):
//! slot 0 = arg0 (result pointer), slot 1 = self, slots 2.. = arguments,
//! then declared temporaries, then expression scratch. The paper's Figure 9
//! shows the same shape (`c0` result pointer, `c1` self).

use std::collections::HashMap;

use com_core::ProgramImage;
use com_isa::{Assembler, Instr, Opcode, Operand};
use com_mem::{AtomId, ClassId, Word};

use crate::analysis::{analyze, Analysis};
use crate::ast::{Block, Expr, MethodDef, Program, Stmt};
use crate::{CompileError, CompileOptions};

/// Operand slots available to a method (32-word context minus 2 linkage).
const MAX_SLOTS: u8 = 30;

/// Compiles an analysed program into a COM image.
///
/// # Errors
///
/// Returns semantic errors (unknown names, slot exhaustion, unsupported
/// constructs).
pub fn compile_com_program(
    program: &Program,
    options: CompileOptions,
) -> Result<ProgramImage, CompileError> {
    let mut analysis = analyze(program)?;
    let mut methods = Vec::new();
    let mut block_counter = 0usize;

    for class in &program.classes {
        let class_id = analysis.layout(&class.name)?.id;
        for m in &class.methods {
            let mut pending = vec![(class.name.clone(), class_id, m.clone(), None)];
            while let Some((cls_name, cls_id, method, outer)) = pending.pop() {
                let sel = analysis.selector(&method.selector)?;
                let mut g = MethodGen::new(
                    &mut analysis,
                    options,
                    cls_name.clone(),
                    &method,
                    outer,
                    &mut block_counter,
                )?;
                let code = g.run(&method)?;
                for extra in g.blocks_out {
                    pending.push(extra);
                }
                methods.push((cls_id, sel, code));
            }
        }
    }

    let mut image = ProgramImage::empty();
    image.classes = analysis.classes;
    image.atoms = analysis.atoms;
    image.opcodes = analysis.opcodes;
    for (class, sel, code) in methods {
        image.add_method(class, sel, code);
    }
    Ok(image)
}

/// How a name resolves inside the method being compiled.
#[derive(Debug, Clone, Copy)]
enum Binding {
    /// A context slot (parameter, temporary, or block parameter).
    Slot(u8),
    /// An instance variable of `self`.
    Ivar(u16),
    /// A slot of the *defining* method's context, reached through the block
    /// object's captured home pointer.
    OuterSlot(u8),
    /// An instance variable of the defining method's receiver, reached
    /// through the block object's captured outer self.
    OuterIvar(u16),
}

/// Environment captured by a block: outer slot map + outer class name.
#[derive(Debug, Clone)]
struct OuterEnv {
    slots: HashMap<String, u8>,
    class_name: String,
}

/// A value produced by expression compilation.
#[derive(Debug, Clone, Copy)]
struct Val {
    op: Operand,
    /// Scratch slot to free once consumed.
    owned: Option<u8>,
}

struct MethodGen<'a> {
    analysis: &'a mut Analysis,
    options: CompileOptions,
    class_name: String,
    asm: Assembler,
    names: HashMap<String, Binding>,
    scratch_base: u8,
    scratch_next: u8,
    /// Blocks hoisted into their own classes: (class name, id, method, env).
    blocks_out: Vec<(String, ClassId, MethodDef, Option<OuterEnv>)>,
    block_counter: &'a mut usize,
    /// Whether this method *is* a block body (affects name resolution).
    outer: Option<OuterEnv>,
    /// Slot holding the loaded home pointer, for block bodies.
    home_slot: Option<u8>,
    /// Slot holding the loaded outer self, for block bodies.
    outer_self_slot: Option<u8>,
}

impl<'a> MethodGen<'a> {
    fn new(
        analysis: &'a mut Analysis,
        options: CompileOptions,
        class_name: String,
        method: &MethodDef,
        outer: Option<OuterEnv>,
        block_counter: &'a mut usize,
    ) -> Result<Self, CompileError> {
        let mut names = HashMap::new();
        // slot 0 = arg0, slot 1 = self, params from slot 2.
        let mut next = 2u8;
        for p in &method.params {
            names.insert(p.clone(), Binding::Slot(next));
            next += 1;
        }
        for t in &method.temps {
            names.insert(t.clone(), Binding::Slot(next));
            next += 1;
        }
        // Instance variables of the defining class (not for block bodies —
        // those resolve through the outer environment instead).
        if outer.is_none() {
            let layout = analysis.layout(&class_name)?.clone();
            for (name, idx) in layout.ivars {
                names.entry(name).or_insert(Binding::Ivar(idx));
            }
        }
        let n_args = 1 + method.params.len() as u8;
        Ok(MethodGen {
            analysis,
            options,
            class_name: class_name.clone(),
            asm: Assembler::new(format!("{class_name}>>{}", method.selector), n_args),
            names,
            scratch_base: next,
            scratch_next: next,
            blocks_out: Vec::new(),
            block_counter,
            outer,
            home_slot: None,
            outer_self_slot: None,
        })
    }

    fn run(&mut self, method: &MethodDef) -> Result<com_isa::CodeObject, CompileError> {
        if self.outer.is_some() {
            // Block prologue: load the captured home pointer and outer self
            // from the block object (ivars 0 and 1 of `self`).
            let home = self.alloc_scratch()?;
            let k0 = self.asm.intern_const(Word::Int(0))?;
            self.emit(Instr::three(
                Opcode::RAWAT,
                Operand::Cur(home),
                Operand::Cur(1),
                Operand::Const(k0),
            ))?;
            let oself = self.alloc_scratch()?;
            let k1 = self.asm.intern_const(Word::Int(1))?;
            self.emit(Instr::three(
                Opcode::RAWAT,
                Operand::Cur(oself),
                Operand::Cur(1),
                Operand::Const(k1),
            ))?;
            self.home_slot = Some(home);
            self.outer_self_slot = Some(oself);
            // These scratches stay live for the whole body.
            self.scratch_base = self.scratch_next;
        }
        let n = method.body.len();
        for (i, stmt) in method.body.iter().enumerate() {
            match stmt {
                Stmt::Return(e) => {
                    if self.outer.is_some() {
                        return Err(CompileError::sem(
                            "non-local return (^) inside a block is not supported",
                        ));
                    }
                    let v = self.gen_expr(e)?;
                    self.emit_return(v)?;
                    self.free(v);
                }
                Stmt::Expr(e) => {
                    let v = self.gen_expr(e)?;
                    // A block's value is its last expression.
                    if self.outer.is_some() && i == n - 1 {
                        self.emit_return(v)?;
                    }
                    self.free(v);
                }
            }
            debug_assert_eq!(self.scratch_next, self.scratch_base, "scratch leak");
        }
        // Implicit return: ^self for methods, ^nil for empty blocks whose
        // last statement was a Return (unreachable) or which are empty.
        let needs_implicit = match method.body.last() {
            Some(Stmt::Return(_)) => false,
            Some(Stmt::Expr(_)) => self.outer.is_none(),
            None => true,
        };
        if needs_implicit {
            let v = if self.outer.is_none() {
                Val {
                    op: Operand::Cur(1),
                    owned: None,
                }
            } else {
                let k = self.asm.intern_const(Word::Atom(AtomId(2)))?;
                Val {
                    op: Operand::Const(k),
                    owned: None,
                }
            };
            self.emit_return(v)?;
        }
        std::mem::replace(&mut self.asm, Assembler::new("done", 0))
            .finish()
            .map_err(|e| CompileError::sem(format!("assembly failed: {e}")))
    }

    // ---------------- slot management ----------------

    fn alloc_scratch(&mut self) -> Result<u8, CompileError> {
        if self.scratch_next >= MAX_SLOTS {
            return Err(CompileError::sem(format!(
                "method too large: more than {MAX_SLOTS} context slots needed in {}",
                self.class_name
            )));
        }
        let s = self.scratch_next;
        self.scratch_next += 1;
        Ok(s)
    }

    fn free(&mut self, v: Val) {
        if let Some(s) = v.owned {
            // Stack discipline: scratch frees in reverse allocation order.
            debug_assert_eq!(s + 1, self.scratch_next, "scratch freed out of order");
            self.scratch_next = s;
        }
    }

    fn emit(&mut self, i: Result<Instr, com_isa::IsaError>) -> Result<(), CompileError> {
        self.asm.emit(i?);
        Ok(())
    }

    /// Ensures a value lives in a context slot (needed as a write target or
    /// a `Next` store source); constants get a MOVE into fresh scratch.
    fn materialize(&mut self, v: Val) -> Result<Val, CompileError> {
        match v.op {
            Operand::Cur(_) | Operand::Next(_) => Ok(v),
            Operand::Const(_) => {
                let s = self.alloc_scratch()?;
                self.emit(Instr::three(Opcode::MOVE, Operand::Cur(s), v.op, v.op))?;
                Ok(Val {
                    op: Operand::Cur(s),
                    owned: Some(s),
                })
            }
        }
    }

    fn const_val(&mut self, w: Word) -> Result<Val, CompileError> {
        let k = self.asm.intern_const(w)?;
        Ok(Val {
            op: Operand::Const(k),
            owned: None,
        })
    }

    fn emit_return(&mut self, v: Val) -> Result<(), CompileError> {
        self.emit(Instr::three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            v.op,
            v.op,
            true,
        ))
    }

    // ---------------- expressions ----------------

    fn gen_expr(&mut self, e: &Expr) -> Result<Val, CompileError> {
        match e {
            Expr::Int(i) => self.const_val(Word::Int(*i)),
            Expr::Float(x) => self.const_val(Word::Float(*x)),
            Expr::True => self.const_val(Word::from(true)),
            Expr::False => self.const_val(Word::from(false)),
            Expr::Nil => self.const_val(Word::Atom(AtomId(2))),
            Expr::Atom(name) => {
                let id = self.analysis.atoms.intern(name);
                self.const_val(Word::Atom(id))
            }
            Expr::SelfRef => {
                // Inside a block body, `self` is the *defining* method's
                // receiver (captured as the block object's second ivar and
                // loaded by the prologue), not the block object itself.
                let slot = self.outer_self_slot.unwrap_or(1);
                Ok(Val {
                    op: Operand::Cur(slot),
                    owned: None,
                })
            }
            Expr::ClassRef(name) => {
                let id = self.analysis.layout(name)?.id;
                self.const_val(Word::Int(id.0 as i64))
            }
            Expr::Var(name) => self.gen_var_read(name),
            Expr::Assign(name, value) => self.gen_assign(name, value),
            Expr::Send {
                recv,
                selector,
                args,
            } => self.gen_send(recv, selector, args),
            Expr::Block(b) => self.gen_block_object(b),
        }
    }

    fn binding(&self, name: &str) -> Result<Binding, CompileError> {
        if let Some(b) = self.names.get(name) {
            return Ok(*b);
        }
        if let Some(outer) = &self.outer {
            if let Some(slot) = outer.slots.get(name) {
                return Ok(Binding::OuterSlot(*slot));
            }
            if let Some(layout) = self.analysis.layouts.get(&outer.class_name) {
                if let Some(idx) = layout.ivars.get(name) {
                    return Ok(Binding::OuterIvar(*idx));
                }
            }
        }
        Err(CompileError::sem(format!(
            "unknown variable {name} in {}",
            self.class_name
        )))
    }

    fn gen_var_read(&mut self, name: &str) -> Result<Val, CompileError> {
        match self.binding(name)? {
            Binding::Slot(s) => Ok(Val {
                op: Operand::Cur(s),
                owned: None,
            }),
            Binding::Ivar(idx) => {
                let dest = self.alloc_scratch()?;
                let k = self.asm.intern_const(Word::Int(idx as i64))?;
                self.emit(Instr::three(
                    Opcode::RAWAT,
                    Operand::Cur(dest),
                    Operand::Cur(1),
                    Operand::Const(k),
                ))?;
                Ok(Val {
                    op: Operand::Cur(dest),
                    owned: Some(dest),
                })
            }
            Binding::OuterSlot(s) => {
                let home = self.home_slot.expect("block prologue ran");
                let dest = self.alloc_scratch()?;
                let k = self.asm.intern_const(Word::Int(s as i64))?;
                self.emit(Instr::three(
                    Opcode::RAWAT,
                    Operand::Cur(dest),
                    Operand::Cur(home),
                    Operand::Const(k),
                ))?;
                Ok(Val {
                    op: Operand::Cur(dest),
                    owned: Some(dest),
                })
            }
            Binding::OuterIvar(idx) => {
                let oself = self.outer_self_slot.expect("block prologue ran");
                let dest = self.alloc_scratch()?;
                let k = self.asm.intern_const(Word::Int(idx as i64))?;
                self.emit(Instr::three(
                    Opcode::RAWAT,
                    Operand::Cur(dest),
                    Operand::Cur(oself),
                    Operand::Const(k),
                ))?;
                Ok(Val {
                    op: Operand::Cur(dest),
                    owned: Some(dest),
                })
            }
        }
    }

    fn gen_assign(&mut self, name: &str, value: &Expr) -> Result<Val, CompileError> {
        let v = self.gen_expr(value)?;
        match self.binding(name)? {
            Binding::Slot(s) => {
                self.emit(Instr::three(Opcode::MOVE, Operand::Cur(s), v.op, v.op))?;
                self.free(v);
                Ok(Val {
                    op: Operand::Cur(s),
                    owned: None,
                })
            }
            Binding::Ivar(idx) => {
                // at:put: roles: A = value (read), B = object, C = index.
                let vm = self.materialize(v)?;
                let k = self.asm.intern_const(Word::Int(idx as i64))?;
                self.emit(Instr::three(
                    Opcode::RAWATPUT,
                    slot_of(vm.op)?,
                    Operand::Cur(1),
                    Operand::Const(k),
                ))?;
                Ok(vm)
            }
            Binding::OuterSlot(s) => {
                let home = self.home_slot.expect("block prologue ran");
                let vm = self.materialize(v)?;
                let k = self.asm.intern_const(Word::Int(s as i64))?;
                self.emit(Instr::three(
                    Opcode::RAWATPUT,
                    slot_of(vm.op)?,
                    Operand::Cur(home),
                    Operand::Const(k),
                ))?;
                Ok(vm)
            }
            Binding::OuterIvar(idx) => {
                let oself = self.outer_self_slot.expect("block prologue ran");
                let vm = self.materialize(v)?;
                let k = self.asm.intern_const(Word::Int(idx as i64))?;
                self.emit(Instr::three(
                    Opcode::RAWATPUT,
                    slot_of(vm.op)?,
                    Operand::Cur(oself),
                    Operand::Const(k),
                ))?;
                Ok(vm)
            }
        }
    }

    // ---------------- sends ----------------

    fn gen_send(
        &mut self,
        recv: &Expr,
        selector: &str,
        args: &[Expr],
    ) -> Result<Val, CompileError> {
        // Allocation intrinsics: `Class new` / `Class new: size`.
        if let Expr::ClassRef(name) = recv {
            if selector == "new" || selector == "new:" {
                return self.gen_new(name, args.first());
            }
        }
        // Control flow.
        match selector {
            "ifTrue:" | "ifFalse:" | "ifTrue:ifFalse:" | "and:" | "or:" => {
                return self.gen_conditional(recv, selector, args)
            }
            "whileTrue:" => {
                if let Some(cond) = recv.as_block() {
                    if let Some(body) = args[0].as_block() {
                        return self.gen_while(cond, body);
                    }
                }
                return Err(CompileError::sem(
                    "whileTrue: requires block receiver and block argument",
                ));
            }
            "timesRepeat:" => {
                if let Some(body) = args[0].as_block() {
                    return self.gen_times_repeat(recv, body);
                }
                return Err(CompileError::sem("timesRepeat: requires a block argument"));
            }
            "to:do:" => {
                if let Some(body) = args[1].as_block() {
                    return self.gen_to_do(recv, &args[0], body);
                }
                return Err(CompileError::sem("to:do: requires a block argument"));
            }
            _ => {}
        }

        // Ordinary send: evaluate receiver and arguments left-to-right.
        let rv = self.gen_expr(recv)?;
        let mut argvals = Vec::with_capacity(args.len());
        for a in args {
            argvals.push(self.gen_expr(a)?);
        }
        // Extra arguments (beyond the first) are written into the next
        // context before the send; the send instruction auto-copies the
        // result pointer, receiver and first argument (§3.5).
        for (j, av) in argvals.iter().enumerate().skip(1) {
            self.emit(Instr::three(
                Opcode::MOVE,
                Operand::Next(2 + j as u8),
                av.op,
                av.op,
            ))?;
        }
        let op = self.analysis.selector(selector)?;

        // Store instructions have inverted roles (§3.4): `a at: b put: c`
        // reads the value from A. The value also sits in next-context slot 3
        // (written above), so a *defined* at:put: override receives it as
        // its second parameter and its returned value lands back in A.
        if op == Opcode::ATPUT || op == Opcode::RAWATPUT {
            if argvals.len() != 2 {
                return Err(CompileError::sem(format!(
                    "{selector} expects exactly two arguments"
                )));
            }
            let made_copy = matches!(argvals[1].op, Operand::Const(_));
            let value = self.materialize(argvals[1])?;
            self.emit(Instr::three(op, slot_of(value.op)?, rv.op, argvals[0].op))?;
            // Free everything in reverse order, then hand the value back in
            // a fresh slot (the store already happened; the copy reads the
            // untouched value slot).
            let value_op = value.op;
            if made_copy {
                self.free(value);
            }
            self.free(argvals[1]);
            self.free(argvals[0]);
            self.free(rv);
            let dest = self.alloc_scratch()?;
            self.emit(Instr::three(
                Opcode::MOVE,
                Operand::Cur(dest),
                value_op,
                value_op,
            ))?;
            return Ok(Val {
                op: Operand::Cur(dest),
                owned: Some(dest),
            });
        }

        let dest = {
            // Free in reverse order before allocating the destination so
            // deep expressions reuse slots.
            for av in argvals.iter().rev() {
                self.free(*av);
            }
            self.free(rv);
            self.alloc_scratch()?
        };
        let first_arg = argvals.first().map(|v| v.op).unwrap_or(rv.op);
        self.emit(Instr::three(op, Operand::Cur(dest), rv.op, first_arg))?;
        Ok(Val {
            op: Operand::Cur(dest),
            owned: Some(dest),
        })
    }

    fn gen_new(&mut self, class_name: &str, size: Option<&Expr>) -> Result<Val, CompileError> {
        let layout = self.analysis.layout(class_name)?.clone();
        let cid = self.asm.intern_const(Word::Int(layout.id.0 as i64))?;
        let size_val = match size {
            None => self.const_val(Word::Int(layout.total_ivars as i64))?,
            Some(e) => {
                let v = self.gen_expr(e)?;
                if layout.total_ivars == 0 {
                    v
                } else {
                    let k = self
                        .asm
                        .intern_const(Word::Int(layout.total_ivars as i64))?;
                    self.free(v);
                    let s = self.alloc_scratch()?;
                    self.emit(Instr::three(
                        Opcode::ADD,
                        Operand::Cur(s),
                        v.op,
                        Operand::Const(k),
                    ))?;
                    Val {
                        op: Operand::Cur(s),
                        owned: Some(s),
                    }
                }
            }
        };
        self.free(size_val);
        let dest = self.alloc_scratch()?;
        self.emit(Instr::three(
            Opcode::NEW,
            Operand::Cur(dest),
            Operand::Const(cid),
            size_val.op,
        ))?;
        Ok(Val {
            op: Operand::Cur(dest),
            owned: Some(dest),
        })
    }

    /// Conditionals. Inlined (default): jumps around the arms. Non-inlined
    /// (ablation A3): every block arm becomes a real block object and the
    /// chosen arm receives `value`.
    fn gen_conditional(
        &mut self,
        recv: &Expr,
        selector: &str,
        args: &[Expr],
    ) -> Result<Val, CompileError> {
        let (then_arm, else_arm): (Option<&Block>, Option<&Block>) = match selector {
            "ifTrue:" | "and:" => (args[0].as_block(), None),
            "ifFalse:" | "or:" => (None, args[0].as_block()),
            "ifTrue:ifFalse:" => (args[0].as_block(), args[1].as_block()),
            _ => unreachable!("filtered by caller"),
        };
        if (selector.contains("True") || selector == "and:") && then_arm.is_none()
            || (selector.contains("False") || selector == "or:")
                && else_arm.is_none()
                && selector != "ifTrue:"
                && selector != "and:"
        {
            return Err(CompileError::sem(format!(
                "{selector} requires literal block arguments"
            )));
        }
        let cond = self.gen_expr(recv)?;
        let cond = self.materialize(cond)?;
        let result = self.alloc_scratch()?;

        let then_label = self.asm.label();
        let end_label = self.asm.label();
        self.asm.jump_if(cond.op, then_label);
        // Else arm (condition false).
        self.gen_arm(else_arm, selector, result)?;
        self.asm.jump(end_label)?;
        self.asm.bind(then_label);
        // Then arm (condition true). For or:, true means the result is the
        // condition itself (true); for and:, false means false.
        match selector {
            "or:" => {
                self.emit(Instr::three(
                    Opcode::MOVE,
                    Operand::Cur(result),
                    cond.op,
                    cond.op,
                ))?;
            }
            _ => self.gen_arm(then_arm, selector, result)?,
        }
        self.asm.bind(end_label);
        // Free in stack order: result was allocated after cond.
        self.scratch_next = result;
        if let Some(owned) = cond.owned {
            self.scratch_next = owned;
        }
        // Re-allocate result at the top of the scratch stack so it is the
        // expression's (owned) value.
        let dest = self.alloc_scratch()?;
        if dest != result {
            self.emit(Instr::three(
                Opcode::MOVE,
                Operand::Cur(dest),
                Operand::Cur(result),
                Operand::Cur(result),
            ))?;
        }
        Ok(Val {
            op: Operand::Cur(dest),
            owned: Some(dest),
        })
    }

    /// Compiles one conditional arm into `result`.
    fn gen_arm(
        &mut self,
        arm: Option<&Block>,
        selector: &str,
        result: u8,
    ) -> Result<(), CompileError> {
        match arm {
            None => {
                // Missing arm yields nil; and:/or: yield the boolean.
                let w = match selector {
                    "and:" => Word::from(false),
                    _ => Word::Atom(AtomId(2)),
                };
                let v = self.const_val(w)?;
                self.emit(Instr::three(Opcode::MOVE, Operand::Cur(result), v.op, v.op))?;
            }
            Some(block) => {
                // Arms containing `^` must stay inline even in the A3
                // ablation (a real block would need non-local return), and
                // conditionals already inside a block body stay inline too
                // (blocks do not nest in this dialect).
                if self.options.inline_control_flow
                    || self.outer.is_some()
                    || block_has_return(block)
                {
                    let v = self.gen_inline_block(block, &[])?;
                    self.emit(Instr::three(Opcode::MOVE, Operand::Cur(result), v.op, v.op))?;
                    self.free(v);
                } else {
                    // A3: real block object, sent `value`.
                    let b = self.gen_block_object(block)?;
                    let dest = self.alloc_scratch()?;
                    let op = self.analysis.selector("value")?;
                    self.emit(Instr::three(op, Operand::Cur(dest), b.op, b.op))?;
                    self.emit(Instr::three(
                        Opcode::MOVE,
                        Operand::Cur(result),
                        Operand::Cur(dest),
                        Operand::Cur(dest),
                    ))?;
                    self.scratch_next = dest;
                    self.free(b);
                }
            }
        }
        Ok(())
    }

    /// Compiles a block body inline (control-flow blocks): parameters bind
    /// to fresh scratch slots the caller must have assigned.
    fn gen_inline_block(&mut self, block: &Block, params: &[u8]) -> Result<Val, CompileError> {
        debug_assert_eq!(block.params.len(), params.len());
        let saved: Vec<(String, Option<Binding>)> = block
            .params
            .iter()
            .zip(params)
            .map(|(name, slot)| {
                let old = self.names.insert(name.clone(), Binding::Slot(*slot));
                (name.clone(), old)
            })
            .collect();
        let mut last: Option<Val> = None;
        let n = block.body.len();
        for (i, stmt) in block.body.iter().enumerate() {
            match stmt {
                Stmt::Return(e) => {
                    // ^ inside an inlined block returns from the enclosing
                    // method — correct Smalltalk semantics for inlined code.
                    let v = self.gen_expr(e)?;
                    self.emit_return(v)?;
                    self.free(v);
                }
                Stmt::Expr(e) => {
                    let v = self.gen_expr(e)?;
                    if i == n - 1 {
                        last = Some(v);
                    } else {
                        self.free(v);
                    }
                }
            }
        }
        for (name, old) in saved {
            match old {
                Some(b) => {
                    self.names.insert(name, b);
                }
                None => {
                    self.names.remove(&name);
                }
            }
        }
        Ok(last.unwrap_or(Val {
            op: Operand::Cur(1),
            owned: None,
        }))
    }

    fn gen_while(&mut self, cond: &Block, body: &Block) -> Result<Val, CompileError> {
        let top = self.asm.label();
        let body_label = self.asm.label();
        let end = self.asm.label();
        self.asm.bind(top);
        let c = self.gen_inline_block(cond, &[])?;
        let c = self.materialize(c)?;
        self.asm.jump_if(c.op, body_label);
        self.free(c);
        self.asm.jump(end)?;
        self.asm.bind(body_label);
        let v = self.gen_inline_block(body, &[])?;
        self.free(v);
        self.asm.jump(top)?;
        self.asm.bind(end);
        self.const_val(Word::Atom(AtomId(2)))
    }

    fn gen_times_repeat(&mut self, count: &Expr, body: &Block) -> Result<Val, CompileError> {
        let n = self.gen_expr(count)?;
        let n = self.materialize(n)?;
        let i = self.alloc_scratch()?;
        let k0 = self.asm.intern_const(Word::Int(0))?;
        let k1 = self.asm.intern_const(Word::Int(1))?;
        self.emit(Instr::three(
            Opcode::MOVE,
            Operand::Cur(i),
            Operand::Const(k0),
            Operand::Const(k0),
        ))?;
        let top = self.asm.label();
        let body_label = self.asm.label();
        let end = self.asm.label();
        self.asm.bind(top);
        let c = self.alloc_scratch()?;
        self.emit(Instr::three(
            Opcode::LT,
            Operand::Cur(c),
            Operand::Cur(i),
            n.op,
        ))?;
        self.asm.jump_if(Operand::Cur(c), body_label);
        self.scratch_next = c;
        self.asm.jump(end)?;
        self.asm.bind(body_label);
        let v = self.gen_inline_block(body, &[])?;
        self.free(v);
        self.emit(Instr::three(
            Opcode::ADD,
            Operand::Cur(i),
            Operand::Cur(i),
            Operand::Const(k1),
        ))?;
        self.asm.jump(top)?;
        self.asm.bind(end);
        self.scratch_next = i;
        self.free(n);
        self.const_val(Word::Atom(AtomId(2)))
    }

    fn gen_to_do(&mut self, from: &Expr, to: &Expr, body: &Block) -> Result<Val, CompileError> {
        if body.params.len() != 1 {
            return Err(CompileError::sem(
                "to:do: block takes exactly one parameter",
            ));
        }
        let k1 = self.asm.intern_const(Word::Int(1))?;
        let fv = self.gen_expr(from)?;
        let fv = self.materialize(fv)?;
        let limit = self.gen_expr(to)?;
        let limit = self.materialize(limit)?;
        // Loop variable: a dedicated scratch slot, bound to the block param.
        let i = self.alloc_scratch()?;
        self.emit(Instr::three(Opcode::MOVE, Operand::Cur(i), fv.op, fv.op))?;
        let top = self.asm.label();
        let body_label = self.asm.label();
        let end = self.asm.label();
        self.asm.bind(top);
        let c = self.alloc_scratch()?;
        self.emit(Instr::three(
            Opcode::LE,
            Operand::Cur(c),
            Operand::Cur(i),
            limit.op,
        ))?;
        self.asm.jump_if(Operand::Cur(c), body_label);
        self.scratch_next = c;
        self.asm.jump(end)?;
        self.asm.bind(body_label);
        let v = self.gen_inline_block(body, &[i])?;
        self.free(v);
        self.emit(Instr::three(
            Opcode::ADD,
            Operand::Cur(i),
            Operand::Cur(i),
            Operand::Const(k1),
        ))?;
        self.asm.jump(top)?;
        self.asm.bind(end);
        // Free i, limit, fv in reverse order.
        self.scratch_next = i;
        self.free(limit);
        self.free(fv);
        self.const_val(Word::Atom(AtomId(2)))
    }

    /// Compiles a block literal into a real block object: a fresh class
    /// with ivars `[home, outerSelf]` and a `value…` method holding the
    /// body. Creating the object stores the home context pointer into a
    /// heap object — the §2.3 non-LIFO escape.
    fn gen_block_object(&mut self, block: &Block) -> Result<Val, CompileError> {
        if self.outer.is_some() {
            return Err(CompileError::sem(
                "nested non-inlined blocks are not supported",
            ));
        }
        *self.block_counter += 1;
        let class_name = format!("Block{}", self.block_counter);
        let class_id = self
            .analysis
            .classes
            .define(&class_name, Some(com_obj::ClassTable::OBJECT), 2)
            .map_err(CompileError::sem)?;
        self.analysis.layouts.insert(
            class_name.clone(),
            crate::analysis::ClassLayout {
                id: class_id,
                ivars: HashMap::from([("home".into(), 0u16), ("outerSelf".into(), 1u16)]),
                total_ivars: 2,
            },
        );
        let value_sel = match block.params.len() {
            0 => "value".to_string(),
            n => "value:".repeat(n),
        };
        // The block body becomes a method of the block class.
        let method = MethodDef {
            selector: value_sel,
            params: block.params.clone(),
            temps: vec![],
            body: block.body.clone(),
        };
        let env = OuterEnv {
            slots: self
                .names
                .iter()
                .filter_map(|(k, v)| match v {
                    Binding::Slot(s) => Some((k.clone(), *s)),
                    _ => None,
                })
                .collect(),
            class_name: self.class_name.clone(),
        };
        self.blocks_out
            .push((class_name, class_id, method, Some(env)));

        // Construction: obj := NEW(class, 2); obj[0] := &arg0 (home);
        // obj[1] := self.
        let cid = self.asm.intern_const(Word::Int(class_id.0 as i64))?;
        let k2 = self.asm.intern_const(Word::Int(2))?;
        let obj = self.alloc_scratch()?;
        self.emit(Instr::three(
            Opcode::NEW,
            Operand::Cur(obj),
            Operand::Const(cid),
            Operand::Const(k2),
        ))?;
        let home = self.alloc_scratch()?;
        // movea: effective address of operand B — slot 0 (arg0), so the
        // home pointer indexes operand slots directly.
        self.emit(Instr::three(
            Opcode::MOVEA,
            Operand::Cur(home),
            Operand::Cur(0),
            Operand::Cur(0),
        ))?;
        let k0 = self.asm.intern_const(Word::Int(0))?;
        let k1 = self.asm.intern_const(Word::Int(1))?;
        self.emit(Instr::three(
            Opcode::RAWATPUT,
            Operand::Cur(home),
            Operand::Cur(obj),
            Operand::Const(k0),
        ))?;
        self.emit(Instr::three(
            Opcode::RAWATPUT,
            Operand::Cur(1),
            Operand::Cur(obj),
            Operand::Const(k1),
        ))?;
        self.scratch_next = home;
        Ok(Val {
            op: Operand::Cur(obj),
            owned: Some(obj),
        })
    }
}

/// Whether a block body contains a method return (`^`) anywhere, including
/// inside nested inlinable blocks.
fn block_has_return(b: &Block) -> bool {
    fn stmt_has(s: &Stmt) -> bool {
        match s {
            Stmt::Return(_) => true,
            Stmt::Expr(e) => expr_has(e),
        }
    }
    fn expr_has(e: &Expr) -> bool {
        match e {
            Expr::Assign(_, v) => expr_has(v),
            Expr::Send { recv, args, .. } => expr_has(recv) || args.iter().any(expr_has),
            Expr::Block(b) => b.body.iter().any(stmt_has),
            _ => false,
        }
    }
    b.body.iter().any(stmt_has)
}

fn slot_of(op: Operand) -> Result<Operand, CompileError> {
    match op {
        Operand::Cur(_) | Operand::Next(_) => Ok(op),
        Operand::Const(_) => Err(CompileError::sem(
            "internal: expected a materialized slot operand",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use com_core::{Machine, MachineConfig};

    fn run_com(src: &str, selector: &str, recv: Word, args: &[Word]) -> Word {
        let program = parse(src).unwrap();
        let image = compile_com_program(&program, CompileOptions::default()).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image).unwrap();
        m.send(selector, recv, args, 5_000_000).unwrap().result
    }

    #[test]
    fn arithmetic_method() {
        let src = "class SmallInteger method double ^self + self end end";
        assert_eq!(run_com(src, "double", Word::Int(21), &[]), Word::Int(42));
    }

    #[test]
    fn conditionals_and_comparison() {
        let src = r#"
            class SmallInteger
              method mymax: other
                self > other ifTrue: [ ^self ] ifFalse: [ ^other ]
              end
            end
        "#;
        assert_eq!(
            run_com(src, "mymax:", Word::Int(3), &[Word::Int(9)]),
            Word::Int(9)
        );
        assert_eq!(
            run_com(src, "mymax:", Word::Int(12), &[Word::Int(9)]),
            Word::Int(12)
        );
    }

    #[test]
    fn while_loop_with_temps() {
        let src = r#"
            class SmallInteger
              method sumto | acc i |
                acc := 0. i := 1.
                [ i <= self ] whileTrue: [ acc := acc + i. i := i + 1 ].
                ^acc
              end
            end
        "#;
        assert_eq!(run_com(src, "sumto", Word::Int(100), &[]), Word::Int(5050));
    }

    #[test]
    fn objects_ivars_and_keyword_sends() {
        let src = r#"
            class Point extends Object
              vars x y
              method setX: ax y: ay x := ax. y := ay. ^self end
              method x ^x end
              method y ^y end
              method manhattan: other
                ^(self x - other x) abs + (self y - other y) abs
              end
            end
            class SmallInteger
              method abs self < 0 ifTrue: [ ^0 - self ]. ^self end
            end
            class Driver extends Object
              method go | a b |
                a := Point new setX: 3 y: 4.
                b := Point new setX: 7 y: 1.
                ^a manhattan: b
              end
            end
        "#;
        let program = parse(src).unwrap();
        let image = compile_com_program(&program, CompileOptions::default()).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image).unwrap();
        let driver_class = image.classes.by_name("Driver").unwrap();
        let driver = m
            .space_mut()
            .create(
                com_mem::TeamId(0),
                driver_class,
                1,
                com_mem::AllocKind::Object,
            )
            .unwrap();
        let out = m.send("go", Word::Ptr(driver), &[], 5_000_000).unwrap();
        assert_eq!(out.result, Word::Int(7));
    }

    #[test]
    fn to_do_loops() {
        let src = r#"
            class SmallInteger
              method squaresum | acc |
                acc := 0.
                1 to: self do: [ :i | acc := acc + (i * i) ].
                ^acc
              end
            end
        "#;
        assert_eq!(
            run_com(src, "squaresum", Word::Int(10), &[]),
            Word::Int(385)
        );
    }

    #[test]
    fn real_blocks_capture_and_mutate_outer_variables() {
        let src = r#"
            class SmallInteger
              method viaBlock | acc blk |
                acc := 10.
                blk := [ :d | acc := acc + d ].
                blk value: 5.
                blk value: 27.
                ^acc
              end
            end
        "#;
        assert_eq!(run_com(src, "viaBlock", Word::Int(0), &[]), Word::Int(42));
    }

    #[test]
    fn polymorphic_dispatch_across_classes() {
        let src = r#"
            class Shape extends Object
              method area ^0 end
              method describe ^self area end
            end
            class Square extends Shape vars side
              method side: s side := s. ^self end
              method area ^side * side end
            end
        "#;
        let program = parse(src).unwrap();
        let image = compile_com_program(&program, CompileOptions::default()).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image).unwrap();
        let sq = image.classes.by_name("Square").unwrap();
        let obj = m
            .space_mut()
            .create(com_mem::TeamId(0), sq, 1, com_mem::AllocKind::Object)
            .unwrap();
        m.send("side:", Word::Ptr(obj), &[Word::Int(6)], 1_000_000)
            .unwrap();
        let out = m.send("describe", Word::Ptr(obj), &[], 1_000_000).unwrap();
        assert_eq!(out.result, Word::Int(36));
    }

    #[test]
    fn noninlined_conditionals_still_compute() {
        let src = "class SmallInteger method pick ^self > 0 ifTrue: [ 1 ] ifFalse: [ 2 ] end end";
        let program = parse(src).unwrap();
        let opts = CompileOptions {
            inline_control_flow: false,
        };
        let image = compile_com_program(&program, opts).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image).unwrap();
        assert_eq!(
            m.send("pick", Word::Int(5), &[], 1_000_000).unwrap().result,
            Word::Int(1)
        );
        let mut m2 = Machine::new(MachineConfig::default());
        m2.load(&image).unwrap();
        assert_eq!(
            m2.send("pick", Word::Int(-5), &[], 1_000_000)
                .unwrap()
                .result,
            Word::Int(2)
        );
        // Real blocks were created: home contexts escaped to the GC.
        assert!(m.stats().contexts_left_to_gc > 0);

        // Through the standard library's control-flow methods: a discarded
        // conditional's value, `timesRepeat:`, a negated condition, and an
        // assignment as an arm's last expression.
        for (src, selector, arg, expected) in [
            (
                "class SmallInteger method m1 | x | x := 0. self > 2 ifTrue: [ x := 10 ] ifFalse: [ x := 20 ]. ^x end end",
                "m1",
                5,
                10,
            ),
            (
                "class SmallInteger method m2 | x | x := 1. self timesRepeat: [ x := x + x ]. ^x end end",
                "m2",
                4,
                16,
            ),
            (
                "class SmallInteger method m3 | t | t := 0. (self = 1) not ifTrue: [ t := t + 7 ]. ^t end end",
                "m3",
                5,
                7,
            ),
            (
                "class P extends Object vars a method set: k a := k. ^self end method geta ^a end end
                 class SmallInteger method m4 | p | p := P new set: 0. self > 0 ifTrue: [ p set: 9 ]. ^p geta end end",
                "m4",
                3,
                9,
            ),
        ] {
            let image = crate::compile_com(src, opts).unwrap();
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image).unwrap();
            let out = m.send(selector, Word::Int(arg), &[], 10_000_000).unwrap();
            assert_eq!(out.result, Word::Int(expected), "{selector}({arg})");
        }
    }
}
