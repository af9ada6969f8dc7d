//! Control-flow graph construction over verified method bodies.
//!
//! Blocks are maximal straight-line instruction runs; edges follow the
//! machine's actual control transfers — conditional jumps (with
//! statically decided conditions folded to a single edge), the return
//! bit, and fall-through. Built only on code that already passed
//! [`verify_code`](crate::verify_code), so every jump target is known to
//! land in-bounds on an instruction boundary.

use com_isa::{CodeObject, Instr, Operand};
use com_obj::AtomTable;

use crate::check::jump_target;

/// One basic block: the instruction range `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First instruction index of the block.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor block indices (within-method edges).
    pub succs: Vec<usize>,
    /// Predecessor block indices.
    pub preds: Vec<usize>,
    /// Whether the block can leave the method: its terminator returns, or
    /// execution falls off the end of the body (a typed trap at runtime).
    pub exits: bool,
}

/// A method's control-flow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// The blocks, ordered by `start`; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// The block index containing each instruction.
    pub block_of: Vec<usize>,
}

/// How the instruction at a given pc transfers control.
enum Flow {
    /// Fall through to `pc + 1`.
    Fall,
    /// Conditional jump; `cond` is the statically known condition, if any.
    Jump { target: usize, cond: Option<bool> },
    /// Return to the caller (the return bit).
    Ret,
}

fn flow(code: &CodeObject, pc: usize, instr: Instr) -> Flow {
    // The return bit dominates: a returning instruction leaves the method
    // whatever else it computed.
    if instr.returns() {
        return Flow::Ret;
    }
    match jump_target(code, pc, instr) {
        Some(target) => Flow::Jump {
            target,
            cond: static_cond(code, instr),
        },
        None => Flow::Fall,
    }
}

/// The statically known truth value of a jump's condition operand: a
/// constant integer (non-zero is true) or a boolean atom. The assembler
/// encodes unconditional jumps as conditional jumps on the constant
/// `true`, so folding these is what makes `ifTrue:`/loop lowerings
/// produce precise graphs.
fn static_cond(code: &CodeObject, instr: Instr) -> Option<bool> {
    let [_, b, _] = instr.operands()?;
    let Operand::Const(k) = b else { return None };
    match code.consts.get(k as usize)? {
        com_mem::Word::Int(i) => Some(*i != 0),
        com_mem::Word::Atom(a) => AtomTable::truthiness(*a),
        _ => None,
    }
}

impl Cfg {
    /// Builds the graph for a verified method body.
    pub fn build(code: &CodeObject) -> Cfg {
        let n = code.instrs.len();
        if n == 0 {
            return Cfg {
                blocks: Vec::new(),
                block_of: Vec::new(),
            };
        }
        // Leaders: entry, every jump target, every instruction after a
        // control transfer.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (pc, instr) in code.instrs.iter().enumerate() {
            match flow(code, pc, *instr) {
                Flow::Jump { target, .. } => {
                    leader[target] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Flow::Ret => {
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Flow::Fall => {}
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0;
        for (pc, &lead) in leader.iter().enumerate() {
            if pc > start && lead {
                blocks.push(Block {
                    start,
                    end: pc,
                    succs: Vec::new(),
                    preds: Vec::new(),
                    exits: false,
                });
                start = pc;
            }
        }
        blocks.push(Block {
            start,
            end: n,
            succs: Vec::new(),
            preds: Vec::new(),
            exits: false,
        });
        for (bi, b) in blocks.iter().enumerate() {
            for slot in &mut block_of[b.start..b.end] {
                *slot = bi;
            }
        }
        // Edges from each block's terminator.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (bi, b) in blocks.iter().enumerate() {
            let last = b.end - 1;
            match flow(code, last, code.instrs[last]) {
                Flow::Ret => {}
                Flow::Fall => {
                    if b.end < n {
                        edges.push((bi, block_of[b.end]));
                    }
                }
                Flow::Jump { target, cond } => {
                    if cond != Some(false) {
                        edges.push((bi, block_of[target]));
                    }
                    if cond != Some(true) && b.end < n {
                        edges.push((bi, block_of[b.end]));
                    }
                }
            }
        }
        for (from, to) in edges {
            if !blocks[from].succs.contains(&to) {
                blocks[from].succs.push(to);
                blocks[to].preds.push(from);
            }
        }
        // Exit classification: return terminators, and untaken
        // fall-through off the end of the body.
        for b in &mut blocks {
            let last = b.end - 1;
            b.exits = match flow(code, last, code.instrs[last]) {
                Flow::Ret => true,
                Flow::Fall => b.end == n,
                Flow::Jump { cond, .. } => cond != Some(true) && b.end == n,
            };
        }
        Cfg { blocks, block_of }
    }

    /// Which blocks are reachable from the entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        if self.blocks.is_empty() {
            return seen;
        }
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Whether the reachable part of the graph contains a cycle. Cyclic
    /// methods have no static fuel bound.
    pub fn has_cycle(&self) -> bool {
        self.longest_path(|_| 0).is_none()
    }

    /// The longest entry-to-exit path measured in instructions — the
    /// method's worst-case own-frame fuel (callee work excluded). `None`
    /// when the graph is cyclic (no static bound).
    pub fn fuel_bound(&self) -> Option<u64> {
        self.longest_path(|_| 1)
    }

    /// The heaviest entry-to-exit path when instruction `pc` weighs
    /// `weight(pc)`, or `None` when the reachable graph has a cycle. The
    /// call graph weighs each send by its worst callee.
    ///
    /// One iterative depth-first walk, so a method of any length takes
    /// constant host stack.
    pub(crate) fn longest_path(&self, weight: impl Fn(usize) -> u64) -> Option<u64> {
        if self.blocks.is_empty() {
            return Some(0);
        }
        // A block's path is known once all its successors' are; a
        // successor still on the walk's path closes a cycle.
        let mut longest: Vec<Option<u64>> = vec![None; self.blocks.len()];
        let mut on_path = vec![false; self.blocks.len()];
        // The walk's path: each block with the count of successors taken.
        let mut path = vec![(0usize, 0usize)];
        on_path[0] = true;
        while let Some((b, taken)) = path.last_mut() {
            let block = &self.blocks[*b];
            if let Some(&s) = block.succs.get(*taken) {
                *taken += 1;
                if on_path[s] {
                    return None;
                }
                if longest[s].is_none() {
                    on_path[s] = true;
                    path.push((s, 0));
                }
            } else {
                let own: u64 = (block.start..block.end).map(&weight).sum();
                let rest = block
                    .succs
                    .iter()
                    .map(|&s| longest[s].expect("successors finish first"))
                    .max()
                    .unwrap_or(0);
                longest[*b] = Some(own + rest);
                on_path[*b] = false;
                path.pop();
            }
        }
        longest[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::{Assembler, Opcode};
    use com_mem::Word;

    fn add(asm: &mut Assembler) {
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(3),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
    }

    fn ret(asm: &mut Assembler) {
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
    }

    #[test]
    fn straight_line_is_one_block() {
        let mut asm = Assembler::new("t", 1);
        add(&mut asm);
        add(&mut asm);
        ret(&mut asm);
        let cfg = Cfg::build(&asm.finish().unwrap());
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].exits);
        assert!(cfg.blocks[0].succs.is_empty());
        assert_eq!(cfg.fuel_bound(), Some(3));
    }

    #[test]
    fn diamond_joins_and_bounds() {
        // if c3 then [add] else [add add]; join; ret
        let mut asm = Assembler::new("t", 1);
        let then_l = asm.label();
        let end_l = asm.label();
        asm.jump_if(Operand::Cur(3), then_l); // 0
        add(&mut asm); // 1 (else)
        add(&mut asm); // 2
        asm.jump(end_l).unwrap(); // 3 (unconditional)
        asm.bind(then_l);
        add(&mut asm); // 4
        asm.bind(end_l);
        ret(&mut asm); // 5
        let code = asm.finish().unwrap();
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.blocks.len(), 4);
        // Entry branches both ways.
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        // The unconditional jump has exactly one successor: the fold of
        // the constant-true condition.
        let jb = cfg.block_of[3];
        assert_eq!(cfg.blocks[jb].succs, vec![cfg.block_of[5]]);
        assert!(!cfg.has_cycle());
        // Worst case: 0,1,2,3,5 = 5 instructions.
        assert_eq!(cfg.fuel_bound(), Some(5));
        assert!(cfg.reachable().iter().all(|r| *r));
    }

    #[test]
    fn loops_cycle_and_are_unbounded() {
        let mut asm = Assembler::new("t", 1);
        let top = asm.label();
        asm.bind(top);
        add(&mut asm);
        asm.jump_if(Operand::Cur(3), top);
        ret(&mut asm);
        let cfg = Cfg::build(&asm.finish().unwrap());
        assert!(cfg.has_cycle());
        assert_eq!(cfg.fuel_bound(), None);
    }

    #[test]
    fn code_after_unconditional_jump_is_unreachable() {
        let mut asm = Assembler::new("t", 1);
        let end = asm.label();
        asm.jump(end).unwrap(); // 0: unconditional
        add(&mut asm); // 1: dead
        asm.bind(end);
        ret(&mut asm); // 2
        let cfg = Cfg::build(&asm.finish().unwrap());
        let reach = cfg.reachable();
        assert!(!reach[cfg.block_of[1]]);
        assert!(reach[cfg.block_of[2]]);
    }

    #[test]
    fn fall_off_end_is_an_exit() {
        let mut asm = Assembler::new("t", 1);
        add(&mut asm);
        let code = asm.finish().unwrap();
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].exits);
    }

    #[test]
    fn empty_body_builds_an_empty_graph() {
        let code = Assembler::new("t", 1).finish().unwrap();
        let cfg = Cfg::build(&code);
        assert!(cfg.blocks.is_empty());
        assert_eq!(cfg.fuel_bound(), Some(0));
        assert!(!cfg.has_cycle());
    }

    #[test]
    fn integer_conditions_fold() {
        let mut asm = Assembler::new("t", 1);
        let end = asm.label();
        let k = asm.intern_const(Word::Int(0)).unwrap(); // constant false
        asm.jump_if(Operand::Const(k), end); // never taken
        add(&mut asm);
        asm.bind(end);
        ret(&mut asm);
        let code = asm.finish().unwrap();
        let cfg = Cfg::build(&code);
        // The jump folds to fall-through only.
        assert_eq!(cfg.blocks[0].succs, vec![cfg.block_of[1]]);
    }
}
