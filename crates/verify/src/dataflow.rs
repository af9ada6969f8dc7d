//! Reusable dataflow analyses over a method [`Cfg`]:
//! uninitialised slots, liveness, and constant-slot propagation.
//!
//! The analysis domain is the method's current-context operand slots
//! `0..=MAX_SLOT` (30 slots), compactly represented as a [`SlotSet`]
//! bitmask. Next-context slots (a callee frame under construction) are
//! outside the domain: writes there never define a current slot, reads
//! there never use one.

use com_core::{data_op, MachineError};
use com_isa::{CodeObject, Instr, Opcode, Operand, PrimOp};
use com_mem::{ClassId, Word};

use crate::cfg::Cfg;
use crate::check::MAX_SLOT;
use crate::solve::solve;

/// Number of slots in the analysis domain.
pub const N_SLOTS: usize = MAX_SLOT as usize + 1;

/// A set of current-context operand slots, bit `o` = slot `o`.
pub type SlotSet = u32;

/// The slots defined when a method activation begins: slot 0 is the
/// result pointer (arg0), slot 1 the receiver (arg1), and slots
/// `2..=n_args` any further declared arguments. The send microcode
/// always writes context words arg0..arg2 — even a unary send duplicates
/// the receiver into arg2 — so slots 0..=2 are entry-defined for every
/// method.
pub fn param_slots(n_args: u8) -> SlotSet {
    let top = n_args.clamp(2, MAX_SLOT);
    (1u32 << (top + 1)) - 1
}

/// The current-context slot this instruction writes, if any. Returning
/// instructions write the caller's frame through the result pointer, not
/// a current slot, so they define nothing here.
pub fn def_slot(instr: Instr) -> Option<u8> {
    if instr.returns() {
        return None;
    }
    match instr.destination() {
        Some(Operand::Cur(o)) if o <= MAX_SLOT => Some(o),
        _ => None,
    }
}

/// The current-context slots this instruction definitely reads: the B/C
/// sources, plus A for `at:put:` (the updated object) — the reads the
/// interpreter performs unconditionally, used for the use-before-def
/// lint.
pub fn use_slots(instr: Instr) -> SlotSet {
    let mut set = 0;
    let mut add = |op: Operand| {
        if let Operand::Cur(o) = op {
            if o <= MAX_SLOT {
                set |= 1 << o;
            }
        }
    };
    for s in instr.sources() {
        add(s);
    }
    if let Some([a, _, _]) = instr.operands() {
        if instr.opcode() == Opcode::ATPUT {
            add(a);
        }
    }
    set
}

/// Like [`use_slots`] but over-approximating for liveness: the A operand
/// also counts as a read whenever it is not the written destination (the
/// return bit's result pointer, a jump's placeholder, a store target).
/// More uses can only make more slots live, so the dead-store lint stays
/// conservative.
pub fn live_use_slots(instr: Instr) -> SlotSet {
    let mut set = use_slots(instr);
    if let Some([Operand::Cur(o), _, _]) = instr.operands() {
        if def_slot(instr) != Some(o) && o <= MAX_SLOT {
            set |= 1 << o;
        }
    }
    set
}

// ---------------------------------------------------------------------
// Uninitialised slots
// ---------------------------------------------------------------------

/// Which slots may still be uninitialised at each block entry: reaching
/// definitions restricted to the method entry's pseudo-definitions, one
/// bit per slot. A slot in the set at a use means some path reads it
/// before any write — exactly the interpreter's `UninitOperand` trap,
/// found statically. Parameter slots are never in the set (their entry
/// definition carries a value).
#[derive(Debug, Clone)]
pub struct UninitSlots {
    /// Per block: the slots some path from the entry leaves unwritten.
    pub uninit_in: Vec<SlotSet>,
}

impl UninitSlots {
    /// Runs the analysis over a verified method body.
    pub fn build(code: &CodeObject, cfg: &Cfg) -> UninitSlots {
        let nb = cfg.blocks.len();
        let defined: Vec<SlotSet> = cfg
            .blocks
            .iter()
            .map(|b| {
                (b.start..b.end)
                    .filter_map(|pc| def_slot(code.instrs[pc]))
                    .fold(0, |set, slot| set | 1 << slot)
            })
            .collect();
        let mut uninit_in = vec![0 as SlotSet; nb];
        if nb == 0 {
            return UninitSlots { uninit_in };
        }
        let all: SlotSet = (1 << N_SLOTS) - 1;
        uninit_in[0] = all & !param_slots(code.n_args);
        // Forward to the least fixed point; sets only grow.
        solve([0], |bi, work| {
            let out = uninit_in[bi] & !defined[bi];
            for &s in &cfg.blocks[bi].succs {
                if out & !uninit_in[s] != 0 {
                    uninit_in[s] |= out;
                    work.push(s);
                }
            }
        });
        UninitSlots { uninit_in }
    }

    /// Per-instruction set of slots that may be read uninitialised there.
    pub fn before(&self, code: &CodeObject, cfg: &Cfg) -> Vec<SlotSet> {
        let mut out = vec![0 as SlotSet; code.instrs.len()];
        for (bi, b) in cfg.blocks.iter().enumerate() {
            let mut uninit = self.uninit_in[bi];
            for (pc, slot_out) in out.iter_mut().enumerate().take(b.end).skip(b.start) {
                *slot_out = uninit;
                if let Some(slot) = def_slot(code.instrs[pc]) {
                    uninit &= !(1 << slot);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

/// Backward liveness over current-context slots.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Slots live at each block entry.
    pub live_in: Vec<SlotSet>,
    /// Slots live at each block exit.
    pub live_out: Vec<SlotSet>,
}

impl Liveness {
    /// Runs the analysis over a verified method body.
    pub fn build(code: &CodeObject, cfg: &Cfg) -> Liveness {
        let nb = cfg.blocks.len();
        let mut live_in = vec![0 as SlotSet; nb];
        let mut live_out = vec![0 as SlotSet; nb];
        // Liveness flows from the exits toward the entry, so the solver's
        // node `i` is block `nb - 1 - i`: each sweep runs backward.
        solve(0..nb, |i, work| {
            let bi = nb - 1 - i;
            let mut out = 0;
            for &s in &cfg.blocks[bi].succs {
                out |= live_in[s];
            }
            let mut live = out;
            for pc in (cfg.blocks[bi].start..cfg.blocks[bi].end).rev() {
                let instr = code.instrs[pc];
                if let Some(slot) = def_slot(instr) {
                    live &= !(1 << slot);
                }
                live |= live_use_slots(instr);
            }
            if live != live_in[bi] || out != live_out[bi] {
                live_in[bi] = live;
                live_out[bi] = out;
                for &p in &cfg.blocks[bi].preds {
                    work.push(nb - 1 - p);
                }
            }
        });
        Liveness { live_in, live_out }
    }

    /// Per-instruction liveness *after* the instruction executes.
    pub fn live_after(&self, code: &CodeObject, cfg: &Cfg) -> Vec<SlotSet> {
        let mut out = vec![0 as SlotSet; code.instrs.len()];
        for (bi, b) in cfg.blocks.iter().enumerate() {
            let mut live = self.live_out[bi];
            for pc in (b.start..b.end).rev() {
                out[pc] = live;
                let instr = code.instrs[pc];
                if let Some(slot) = def_slot(instr) {
                    live &= !(1 << slot);
                }
                live |= live_use_slots(instr);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Constant-slot propagation
// ---------------------------------------------------------------------

/// The per-slot constant lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstVal {
    /// Not yet visited (⊤).
    Unknown,
    /// Provably always this value at this point.
    Const(Word),
    /// Takes more than one value, or is not statically trackable (⊥).
    Varying,
}

impl ConstVal {
    fn meet(self, other: ConstVal) -> ConstVal {
        match (self, other) {
            (ConstVal::Unknown, x) | (x, ConstVal::Unknown) => x,
            (ConstVal::Const(a), ConstVal::Const(b)) if a == b => ConstVal::Const(a),
            _ => ConstVal::Varying,
        }
    }
}

/// Resolves the primitive a send will execute: given the receiver's class
/// and the selector, the [`PrimOp`] — or `None` when the send dispatches
/// to a defined method (or the resolution is unknown), which makes the
/// result untrackable. [`crate::lint_facts`] builds this from the image's
/// class table, treating any selector with a defined method anywhere in
/// the image as unresolvable (a conservative override check).
pub type PrimResolver<'a> = dyn Fn(ClassId, Opcode) -> Option<PrimOp> + 'a;

/// Constant-slot propagation, with always-trapping sends as a byproduct.
#[derive(Debug, Clone)]
pub struct ConstSlots {
    /// Per-instruction slot values *before* the instruction executes.
    pub before: Vec<[ConstVal; N_SLOTS]>,
    /// Pure-data sends whose operands are provably constant and whose
    /// evaluation provably traps, with the trap each will raise.
    pub trap_sites: Vec<(usize, MachineError)>,
}

impl ConstSlots {
    /// Runs the analysis. `resolve` decides which sends execute a
    /// primitive function unit (see [`PrimResolver`]).
    pub fn build(code: &CodeObject, cfg: &Cfg, resolve: &PrimResolver) -> ConstSlots {
        let nb = cfg.blocks.len();
        let mut block_in = vec![[ConstVal::Unknown; N_SLOTS]; nb];
        if nb > 0 {
            // Entry: every slot untracked (parameters are runtime values).
            block_in[0] = [ConstVal::Varying; N_SLOTS];
        }
        let mut block_out = vec![[ConstVal::Unknown; N_SLOTS]; nb];
        solve(0..nb, |bi, work| {
            let mut state = block_in[bi];
            for pc in cfg.blocks[bi].start..cfg.blocks[bi].end {
                Self::transfer(code, pc, &mut state, resolve, None);
            }
            if state != block_out[bi] {
                block_out[bi] = state;
                for &s in &cfg.blocks[bi].succs {
                    let mut met = block_in[s];
                    for (m, v) in met.iter_mut().zip(state.iter()) {
                        *m = m.meet(*v);
                    }
                    if met != block_in[s] {
                        block_in[s] = met;
                        work.push(s);
                    }
                }
            }
        });
        // Final pass: record per-instruction states and trap sites.
        let mut before = vec![[ConstVal::Varying; N_SLOTS]; code.instrs.len()];
        let mut trap_sites = Vec::new();
        for (bi, b) in cfg.blocks.iter().enumerate() {
            let mut state = block_in[bi];
            for (pc, slot_before) in before.iter_mut().enumerate().take(b.end).skip(b.start) {
                *slot_before = state;
                Self::transfer(code, pc, &mut state, resolve, Some(&mut trap_sites));
            }
        }
        ConstSlots { before, trap_sites }
    }

    fn operand_val(code: &CodeObject, state: &[ConstVal; N_SLOTS], op: Operand) -> ConstVal {
        match op {
            Operand::Const(k) => match code.consts.get(k as usize) {
                Some(w) => ConstVal::Const(*w),
                None => ConstVal::Varying,
            },
            Operand::Cur(o) if (o as usize) < N_SLOTS => state[o as usize],
            _ => ConstVal::Varying,
        }
    }

    /// One instruction's effect on the slot state. Anything that is not a
    /// pure three-address data operation (calls, memory operations,
    /// allocation) may run arbitrary code — a callee can reach this frame
    /// through passed pointers — so it havocs every slot.
    fn transfer(
        code: &CodeObject,
        pc: usize,
        state: &mut [ConstVal; N_SLOTS],
        resolve: &PrimResolver,
        mut traps: Option<&mut Vec<(usize, MachineError)>>,
    ) {
        let instr = code.instrs[pc];
        let pure = instr
            .operands()
            .and_then(|[_, b, _]| {
                // Receiver class decides dispatch; it must be a known
                // constant for the send to resolve statically.
                let ConstVal::Const(bw) = Self::operand_val(code, state, b) else {
                    return None;
                };
                let class = bw.primitive_class()?;
                let prim = resolve(class, instr.opcode())?;
                prim.is_pure_data().then_some((prim, bw))
            })
            .and_then(|(prim, bw)| {
                let [_, _, c] = instr.operands()?;
                let ConstVal::Const(cw) = Self::operand_val(code, state, c) else {
                    return None;
                };
                Some((prim, bw, cw))
            });
        match pure {
            Some((prim, bw, cw)) => {
                let result = data_op(prim, instr.opcode(), bw, cw);
                if let (Err(e), Some(traps)) = (&result, traps.as_mut()) {
                    traps.push((pc, e.clone()));
                }
                if let Some(slot) = def_slot(instr) {
                    state[slot as usize] = match result {
                        Ok(w) => ConstVal::Const(w),
                        Err(_) => ConstVal::Varying,
                    };
                }
            }
            None => {
                let havoc = match instr.operands() {
                    // Jumps transfer control and write nothing.
                    Some(_) if instr.is_jump() => false,
                    // A three-address op we could not resolve to a pure
                    // primitive: it may be a call or a memory op.
                    Some(_) => true,
                    // Zero-address sends always call.
                    None => true,
                };
                if havoc {
                    *state = [ConstVal::Varying; N_SLOTS];
                } else if let Some(slot) = def_slot(instr) {
                    state[slot as usize] = ConstVal::Varying;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::Assembler;
    use com_obj::{install_standard_primitives, ClassTable};

    fn resolver(classes: &ClassTable) -> impl Fn(ClassId, Opcode) -> Option<PrimOp> + '_ {
        move |class, op| match com_obj::lookup_method(classes, class, op).method {
            Some(com_obj::MethodRef::Primitive(p)) => Some(p),
            _ => None,
        }
    }

    fn classes() -> ClassTable {
        let mut t = ClassTable::new();
        install_standard_primitives(&mut t);
        t
    }

    #[test]
    fn params_and_defs_and_uses() {
        // arg0 (result pointer), arg1 (receiver) and arg2 are written by
        // the send microcode whatever the declared arity.
        assert_eq!(param_slots(0), 0b111);
        assert_eq!(param_slots(1), 0b111);
        assert_eq!(param_slots(2), 0b111);
        assert_eq!(param_slots(4), 0b11111);
        let add = Instr::three(
            Opcode::ADD,
            Operand::Cur(4),
            Operand::Cur(1),
            Operand::Cur(2),
        )
        .unwrap();
        assert_eq!(def_slot(add), Some(4));
        assert_eq!(use_slots(add), 0b110);
        let store = Instr::three(
            Opcode::ATPUT,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Cur(2),
        )
        .unwrap();
        assert_eq!(def_slot(store), None);
        assert_eq!(use_slots(store), 0b1110, "at:put: reads its A operand");
        let ret = Instr::three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(4),
            Operand::Cur(4),
            true,
        )
        .unwrap();
        assert_eq!(def_slot(ret), None, "returning instructions define nothing");
        assert_eq!(live_use_slots(ret) & 1, 1, "the result pointer stays live");
    }

    #[test]
    fn maybe_uninit_tracks_paths() {
        // if c1 { c4 := c1 }; use c4  — c4 may be uninit on the false path.
        let mut asm = Assembler::new("t", 2);
        let end = asm.label();
        asm.jump_if(Operand::Cur(1), end); // 0: skip the def when true
        asm.emit_three(
            Opcode::MOVE,
            Operand::Cur(4),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap(); // 1
        asm.bind(end);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(4),
            Operand::Cur(4),
        )
        .unwrap(); // 2
        let code = asm.finish().unwrap();
        let cfg = Cfg::build(&code);
        let uninit = UninitSlots::build(&code, &cfg).before(&code, &cfg);
        assert_ne!(uninit[2] & (1 << 4), 0, "slot 4 may be uninit at the use");
        // Parameters are never maybe-uninit.
        assert_eq!(uninit[2] & 0b11, 0);
        // After an unconditional def, the slot is definitely initialised.
        let mut asm = Assembler::new("t", 2);
        asm.emit_three(
            Opcode::MOVE,
            Operand::Cur(4),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(4),
            Operand::Cur(4),
        )
        .unwrap();
        let code = asm.finish().unwrap();
        let cfg = Cfg::build(&code);
        let uninit = UninitSlots::build(&code, &cfg).before(&code, &cfg);
        assert_eq!(uninit[1] & (1 << 4), 0);
    }

    #[test]
    fn liveness_sees_overwrites() {
        // c4 := c1; c4 := c2; ret c4 — the first store is dead.
        let mut asm = Assembler::new("t", 3);
        asm.emit_three(
            Opcode::MOVE,
            Operand::Cur(4),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        asm.emit_three(
            Opcode::MOVE,
            Operand::Cur(4),
            Operand::Cur(2),
            Operand::Cur(2),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(4),
            Operand::Cur(4),
        )
        .unwrap();
        let code = asm.finish().unwrap();
        let cfg = Cfg::build(&code);
        let live = Liveness::build(&code, &cfg).live_after(&code, &cfg);
        assert_eq!(live[0] & (1 << 4), 0, "first store is dead");
        assert_ne!(live[1] & (1 << 4), 0, "second store is read by the ret");
    }

    #[test]
    fn const_prop_folds_and_finds_traps() {
        // c4 := 6 * 7; c5 := 1 / 0  — the division provably traps.
        let mut asm = Assembler::new("t", 1);
        let k6 = asm.intern_const(Word::Int(6)).unwrap();
        let k7 = asm.intern_const(Word::Int(7)).unwrap();
        let k1 = asm.intern_const(Word::Int(1)).unwrap();
        let k0 = asm.intern_const(Word::Int(0)).unwrap();
        asm.emit_three(
            Opcode::MUL,
            Operand::Cur(4),
            Operand::Const(k6),
            Operand::Const(k7),
        )
        .unwrap();
        asm.emit_three(
            Opcode::DIV,
            Operand::Cur(5),
            Operand::Const(k1),
            Operand::Const(k0),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(4),
            Operand::Cur(4),
        )
        .unwrap();
        let code = asm.finish().unwrap();
        let cfg = Cfg::build(&code);
        let classes = classes();
        let r = resolver(&classes);
        let cs = ConstSlots::build(&code, &cfg, &r);
        assert_eq!(cs.before[1][4], ConstVal::Const(Word::Int(42)));
        assert_eq!(cs.trap_sites.len(), 1);
        assert_eq!(cs.trap_sites[0].0, 1);
        // A call havocs everything.
        let mut asm = Assembler::new("t", 1);
        let k6 = asm.intern_const(Word::Int(6)).unwrap();
        asm.emit_three(
            Opcode::MOVE,
            Operand::Cur(4),
            Operand::Const(k6),
            Operand::Const(k6),
        )
        .unwrap();
        asm.emit_zero(Opcode(100), 0, false).unwrap(); // user send
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(4),
            Operand::Cur(4),
        )
        .unwrap();
        let code = asm.finish().unwrap();
        let cfg = Cfg::build(&code);
        let cs = ConstSlots::build(&code, &cfg, &r);
        assert_eq!(cs.before[1][4], ConstVal::Const(Word::Int(6)));
        assert_eq!(cs.before[2][4], ConstVal::Varying);
    }
}
