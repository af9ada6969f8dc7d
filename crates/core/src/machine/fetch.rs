//! Step 1, instruction fetch: the instruction-cache probe and its miss
//! charge, and the decoded-method slab the fetched instructions come from
//! (decoding, the synthesized entry method, making a method current).

use std::collections::HashMap;
use std::sync::Arc;

use com_cache::FxBuildHasher;
use com_fpa::Fpa;
use com_isa::{CodeObject, Instr, Opcode, Operand};
use com_mem::{AbsAddr, AllocKind, ClassId, Word};

use super::Machine;
use crate::config::ICACHE_MISS_PENALTY;
use crate::{MachineError, OPERAND_BIAS};

/// An operand in its decode-time lowered form: context-mode operands carry
/// their final (bias-applied) context word offset, constant-mode operands
/// are pre-resolved to the value and class they will always produce. The
/// per-step translation work of [`Operand`] — mode match, bias add,
/// constant-table index — happens once, at decode.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LowOperand {
    /// Current-context slot (raw context word offset, bias applied).
    Cur(u64),
    /// Next-context slot (raw context word offset, bias applied).
    Next(u64),
    /// Constant, resolved against the method's constant table at decode.
    Imm(Word, ClassId),
    /// Constant index beyond the method's table (the index is carried for
    /// the trap). Kept as a lowered form — not a decode error — because
    /// the stepwise loop only traps this if the instruction actually
    /// executes.
    BadConst(u8),
}

/// A context-slot hazard source: (reads next context?, raw word offset).
type HazardSrc = Option<(bool, u64)>;

/// One instruction with its operands pre-lowered (§3.6 fast path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LowInstr {
    /// The original instruction (generic execution paths match on it).
    pub(super) instr: Instr,
    /// Lowered A operand (three-address form only) — the destination, or
    /// the result-pointer slot when the return bit is set.
    pub(super) a: LowOperand,
    /// Lowered B source (three-address form only).
    pub(super) b: LowOperand,
    /// Lowered C source (three-address form only).
    pub(super) c: LowOperand,
    /// Destination slot for the pure-data fast path: present when the
    /// instruction is three-address, does not return, and writes a
    /// context slot. `(next context?, raw word offset)`.
    pub(super) dest: Option<(bool, u64)>,
    /// The context-mode source slots, for the §3.6 read-after-write hazard
    /// check: an O(1) compare of precomputed slots against the previous
    /// instruction's destination.
    pub(super) hazards: [HazardSrc; 2],
}

impl LowInstr {
    fn lower_src(op: Operand, consts: &[(Word, ClassId)]) -> LowOperand {
        match op {
            Operand::Cur(o) => LowOperand::Cur(o as u64 + OPERAND_BIAS),
            Operand::Next(o) => LowOperand::Next(o as u64 + OPERAND_BIAS),
            Operand::Const(i) => match consts.get(i as usize) {
                Some((w, c)) => LowOperand::Imm(*w, *c),
                None => LowOperand::BadConst(i),
            },
        }
    }

    fn hazard_src(op: Operand) -> HazardSrc {
        match op {
            Operand::Cur(o) => Some((false, o as u64 + OPERAND_BIAS)),
            Operand::Next(o) => Some((true, o as u64 + OPERAND_BIAS)),
            Operand::Const(_) => None,
        }
    }

    fn lower(instr: Instr, consts: &[(Word, ClassId)]) -> LowInstr {
        match instr {
            Instr::Three { op, ret, a, b, c } => LowInstr {
                instr,
                a: Self::lower_src(a, consts),
                b: Self::lower_src(b, consts),
                c: Self::lower_src(c, consts),
                dest: if ret || op == Opcode::FJMP || op == Opcode::RJMP || op == Opcode::ATPUT {
                    None
                } else {
                    Self::hazard_src(a)
                },
                hazards: [Self::hazard_src(b), Self::hazard_src(c)],
            },
            Instr::Zero { nargs, .. } => LowInstr {
                instr,
                a: LowOperand::Imm(Word::Uninit, ClassId::NONE),
                b: LowOperand::Imm(Word::Uninit, ClassId::NONE),
                c: LowOperand::Imm(Word::Uninit, ClassId::NONE),
                dest: None,
                // Implicit operands arg1, arg2 of the next context.
                hazards: [
                    (nargs >= 1).then_some((true, 1 + OPERAND_BIAS)),
                    (nargs >= 2).then_some((true, 2 + OPERAND_BIAS)),
                ],
            },
        }
    }
}

/// The position-independent payload of a decoded method: the lowered
/// instruction stream and the pre-classed constant table. Bodies carry no
/// memory addresses, so one body can back the same method in any number of
/// machines — [`crate::LoadedImage`] pre-decodes every method once and
/// every [`Machine::boot`] binds the shared bodies to that machine's
/// stored code objects without re-decoding.
#[derive(Debug)]
pub(crate) struct DecodedBody {
    pub(crate) consts: Vec<(Word, ClassId)>,
    /// The instruction stream in decode-time lowered form; the original
    /// [`Instr`] rides along in each entry for the generic paths.
    pub(crate) low: Vec<LowInstr>,
}

impl DecodedBody {
    /// Decodes a [`CodeObject`] directly (no machine, no memory reads).
    /// Returns `None` when the method cannot be decoded
    /// position-independently — a constant without a primitive class
    /// (i.e. a pointer) needs the owning machine's space to classify, so
    /// such methods fall back to the per-machine lazy decode.
    pub(crate) fn from_code(code: &CodeObject) -> Option<DecodedBody> {
        let mut consts = Vec::with_capacity(code.consts.len());
        for w in &code.consts {
            consts.push((*w, w.primitive_class()?));
        }
        Some(DecodedBody::lower(&code.instrs, consts))
    }

    fn lower(instrs: &[Instr], consts: Vec<(Word, ClassId)>) -> DecodedBody {
        let low = instrs
            .iter()
            .map(|i| LowInstr::lower(*i, &consts))
            .collect();
        DecodedBody { consts, low }
    }
}

/// A decoded, resident method (simulator-side cache; the architectural
/// instruction cache is modelled separately for timing). Entries live in
/// the machine's decoded-method slab and are reached from an ITLB hit by
/// array index (the slot a [`com_obj::Translation::Code`] carries).
/// The per-machine part is just the binding — base capability and
/// absolute base of the stored code object; the body may be shared with
/// other machines through a [`crate::LoadedImage`].
#[derive(Debug, Clone)]
pub(crate) struct Decoded {
    /// Base capability of the stored code object.
    pub(crate) base: Fpa,
    /// Its absolute base (code objects are GC roots and the collector is
    /// non-moving, so this stays valid for the machine's lifetime).
    pub(crate) abs: AbsAddr,
    /// The decoded instruction stream and constants (possibly shared).
    pub(crate) body: Arc<DecodedBody>,
}

/// Appends `d` to a decoded-method slab, indexed by its code base, and
/// returns its slot.
pub(crate) fn push_decoded(
    slab: &mut Vec<Decoded>,
    index: &mut HashMap<u64, u32, FxBuildHasher>,
    d: Decoded,
) -> u32 {
    let id = u32::try_from(slab.len()).expect("slab outgrew u32");
    index.insert(d.base.raw(), id);
    slab.push(d);
    id
}

impl Machine {
    /// Step 1: fetches instruction `pc` of the method based at
    /// `method_abs` through the instruction cache; a miss fills the line
    /// and stalls [`ICACHE_MISS_PENALTY`] cycles.
    #[inline(always)]
    pub(super) fn fetch(&mut self, method_abs: AbsAddr) {
        let addr = method_abs.0 + CodeObject::HEADER_WORDS + self.pc;
        // The icache indexes by the low address bits: the address is both
        // the set hash and the tag.
        if self.icache.lookup(addr, addr).is_none() {
            self.icache.fill(addr, addr, ());
            self.stats.icache_miss_cycles += ICACHE_MISS_PENALTY;
        }
    }

    /// IP <- instruction `pc` of the method at slab slot `id`: the last
    /// step of a call, return or transfer, and of a send's start. A
    /// method switch copies two words and an index, takes no handle to
    /// the decoded body, and invalidates the threaded loop's borrowed
    /// decode.
    #[inline]
    pub(super) fn enter(&mut self, id: u32, pc: u64) {
        let d = &self.decoded[id as usize];
        self.ip = Some((d.base, d.abs));
        self.cur_slab = id;
        self.ip_gen = self.ip_gen.wrapping_add(1);
        self.pc = pc;
        self.last_dest = None;
    }

    /// Decodes `code` into the slab (or finds it already there) and returns
    /// its slot. The hash probe here is the *cold* path: dispatch caches
    /// the returned slot in the ITLB, so a warm send never reaches this.
    pub(super) fn ensure_decoded(&mut self, code: Fpa) -> Result<u32, MachineError> {
        let base = code.base();
        // Keyed on the virtual name, not the absolute base: a warm return
        // re-enters the caller's method without a translation.
        if let Some(&id) = self.decoded_index.get(&base.raw()) {
            return Ok(id);
        }
        let d = self.decode_from_memory(code)?;
        Ok(push_decoded(&mut self.decoded, &mut self.decoded_index, d))
    }

    /// Reads and decodes the code object at `code` from this machine's
    /// object space (the honest path — no shared body available).
    fn decode_from_memory(&mut self, code: Fpa) -> Result<Decoded, MachineError> {
        let base = code.base();
        let t = self.space.translate(self.team, base)?;
        // Header words come from memory, so a corrupted code object may
        // carry any Int here: negative or oversized counts are a malformed
        // method, not a cue to allocate unbounded buffers.
        let header = |m: &mut Self, off: u64| -> Result<i64, MachineError> {
            m.space
                .read_kind(m.team, base.with_offset(off)?, AllocKind::Code)?
                .as_int()
                .ok_or(MachineError::BadMethod(code))
        };
        let n_instrs =
            u64::try_from(header(self, 0)?).map_err(|_| MachineError::BadMethod(code))?;
        // The argument count is checked, though nothing keeps it.
        u8::try_from(header(self, 1)?).map_err(|_| MachineError::BadMethod(code))?;
        let n_consts =
            u64::try_from(header(self, 2)?).map_err(|_| MachineError::BadMethod(code))?;
        // Oversized (but non-negative) counts fail at the first
        // out-of-object read below; cap the pre-reservation so they cannot
        // abort on allocation first.
        let mut instrs = Vec::with_capacity(n_instrs.min(4096) as usize);
        for i in 0..n_instrs {
            let w = self.space.read_kind(
                self.team,
                base.with_offset(CodeObject::HEADER_WORDS + i)?,
                AllocKind::Code,
            )?;
            let payload = w.as_instr().ok_or(MachineError::ExecutingData(w))?;
            instrs.push(Instr::decode(payload)?);
        }
        let mut consts = Vec::with_capacity(n_consts.min(4096) as usize);
        for i in 0..n_consts {
            let w = self.space.read_kind(
                self.team,
                base.with_offset(CodeObject::HEADER_WORDS + n_instrs + i)?,
                AllocKind::Code,
            )?;
            let c = self.class_of_word(&w)?;
            consts.push((w, c));
        }
        Ok(Decoded {
            base,
            abs: t.abs,
            body: Arc::new(DecodedBody::lower(&instrs, consts)),
        })
    }

    /// Synthesizes and stores the entry method of a send of `selector`
    /// with `args`, rooted until the send ends:
    ///
    /// ```text
    /// 0: <selector>/n   (the send)
    /// 1: move/0 (ret)   (return-from-entry: halts the machine)
    /// ```
    pub(super) fn store_entry(
        &mut self,
        selector: Opcode,
        args: &[Word],
    ) -> Result<Fpa, MachineError> {
        let nargs = (1 + args.len()).min(2) as u8;
        let entry = CodeObject {
            name: format!("entry>>{selector}"),
            n_args: 1 + args.len() as u8,
            instrs: vec![
                Instr::zero(selector, nargs, false)?,
                Instr::zero(Opcode::MOVE, 0, true)?,
            ],
            consts: vec![],
        };
        let base = entry.store(&mut self.space, self.team)?;
        self.code_roots.push(base);
        self.entry_base = Some(base);
        Ok(base)
    }

    /// Decodes the stored entry method `code` into the machine's reusable
    /// entry slab slot (creating the slot on first use), so repeated sends
    /// do not grow the slab. Indexes it exactly as
    /// [`ensure_decoded`](Self::ensure_decoded) would.
    pub(super) fn install_entry(&mut self, code: Fpa) -> Result<u32, MachineError> {
        let d = self.decode_from_memory(code)?;
        let Some(slot) = self.entry_slab else {
            let id = push_decoded(&mut self.decoded, &mut self.decoded_index, d);
            self.entry_slab = Some(id);
            return Ok(id);
        };
        self.decoded[slot as usize] = d;
        self.decoded_index.insert(code.base().raw(), slot);
        Ok(slot)
    }

    /// Releases the previous send's synthesized entry method, if any: the
    /// code object loses its GC root (the collector may reclaim it) and
    /// the decode caches are purged so a later code object recycling the
    /// swept segment's name cannot hit the stale decode. Runs when a send
    /// halts and again defensively at the next
    /// [`start_send`](Machine::start_send) (covering sends that ended in
    /// a trap instead of a halt).
    pub(super) fn release_entry(&mut self) {
        if let Some(base) = self.entry_base.take() {
            if let Some(pos) = self.code_roots.iter().rposition(|f| *f == base) {
                self.code_roots.swap_remove(pos);
            }
            self.decoded_index.remove(&base.base().raw());
        }
    }
}
