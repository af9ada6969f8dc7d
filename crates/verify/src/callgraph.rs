//! The whole-image call graph and its interprocedural consequences:
//! method reachability (the L006 lint's substrate) and worst-case
//! interprocedural fuel (I002 — the call-graph composition of the
//! per-method I001 bounds).
//!
//! Edges come from the inference's site table: a method calls every
//! defined method any of its sites may resolve to, every
//! `doesNotUnderstand:` handler an unresolvable site may fall back to,
//! and every `badOperands:` handler a trappable primitive site may
//! divert into. Trap handlers are additionally *roots* — the engine
//! invokes them without any send site naming them.

use com_core::ProgramImage;
use com_obj::TrapSelector;

use crate::cfg::Cfg;
use crate::infer::{Inference, SiteKind};
use crate::solve::solve;

/// A worst-case instruction budget, or the admission that none exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuelBound {
    /// Execution from this method's entry retires at most this many
    /// instructions, across all calls it makes.
    Bounded(u64),
    /// No static bound: a CFG cycle, call-graph recursion, or an
    /// unbounded callee.
    Unbounded,
}

/// The image's call graph over defined methods, with per-method
/// interprocedural fuel bounds.
#[derive(Debug)]
pub struct CallGraph {
    /// Per-method callee lists (defined methods and trap handlers),
    /// deduplicated.
    pub edges: Vec<Vec<usize>>,
    /// Per-method interprocedural fuel.
    pub fuel: Vec<FuelBound>,
    /// Methods that are trap handlers (engine-invoked roots).
    pub handler_roots: Vec<usize>,
    degraded: bool,
}

impl CallGraph {
    /// Builds the call graph from an image and its inference.
    pub fn build(image: &ProgramImage, inference: &Inference) -> CallGraph {
        let n = image.methods.len();
        // Trap handlers are engine-invoked: roots regardless of sites.
        let mut handler_roots = Vec::new();
        let trap_sels: Vec<_> = TrapSelector::ALL
            .iter()
            .filter_map(|t| image.opcodes.get(t.name()))
            .collect();
        for (i, m) in image.methods.iter().enumerate() {
            if trap_sels.contains(&m.selector) {
                handler_roots.push(i);
            }
        }
        if inference.degraded {
            return CallGraph {
                edges: vec![Vec::new(); n],
                fuel: vec![FuelBound::Unbounded; n],
                handler_roots,
                degraded: true,
            };
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        // Per-method, per-pc callee lists for the fuel computation.
        let mut site_callees: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n];
        for m in 0..n {
            let sites = inference.sites_of(m);
            let mut per_pc = Vec::with_capacity(sites.len());
            for site in sites {
                let mut callees: Vec<usize> = Vec::new();
                if site.kind != SiteKind::Dead {
                    for t in &site.methods {
                        if !callees.contains(t) {
                            callees.push(*t);
                        }
                    }
                    // A trappable primitive may divert into a
                    // `badOperands:` handler on the receiver's chain.
                    if !site.prims.is_empty() {
                        let bad = TrapSelector::BadOperands;
                        for h in inference.universe.handlers(&site.receivers, bad) {
                            if !callees.contains(&h) {
                                callees.push(h);
                            }
                        }
                    }
                }
                for c in &callees {
                    if !edges[m].contains(c) {
                        edges[m].push(*c);
                    }
                }
                per_pc.push(callees);
            }
            site_callees[m] = per_pc;
        }

        CallGraph {
            edges,
            fuel: interprocedural_fuel(image, &site_callees),
            handler_roots,
            degraded: false,
        }
    }

    /// Which methods are reachable from `roots` (always including the
    /// engine-invoked trap handlers). On a degraded inference everything
    /// is considered reachable — no false unreachability claims.
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<bool> {
        let n = self.edges.len();
        if self.degraded {
            return vec![true; n];
        }
        let mut seen = vec![false; n];
        let roots = roots.iter().chain(&self.handler_roots).copied();
        solve(roots.filter(|r| *r < n), |m, work| {
            seen[m] = true;
            for &c in &self.edges[m] {
                if !seen[c] {
                    work.push(c);
                }
            }
        });
        seen
    }
}

/// Every method's interprocedural fuel: a site costs 1 plus its worst
/// callee, and a method's fuel is its heaviest entry-to-exit path.
/// Call-graph recursion and CFG cycles are unbounded.
///
/// The descent into callees keeps its frames on a heap stack, so a call
/// chain of any length takes constant host stack.
fn interprocedural_fuel(image: &ProgramImage, site_callees: &[Vec<Vec<usize>>]) -> Vec<FuelBound> {
    let n = image.methods.len();
    let mut fuel: Vec<Option<FuelBound>> = vec![None; n];
    let mut on_stack = vec![false; n];
    let mut frames: Vec<FuelFrame> = Vec::new();
    for root in 0..n {
        if fuel[root].is_some() {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(m) = enter.take() {
                let cfg = Cfg::build(&image.methods[m].code);
                if cfg.has_cycle() {
                    fuel[m] = Some(FuelBound::Unbounded);
                } else {
                    on_stack[m] = true;
                    frames.push(FuelFrame {
                        m,
                        cfg,
                        costs: Vec::new(),
                        cost: 1,
                        callee: 0,
                    });
                }
            }
            let Some(frame) = frames.last_mut() else {
                break;
            };
            match frame.advance(&site_callees[frame.m], &fuel, &on_stack) {
                Err(callee) => enter = Some(callee),
                Ok(bound) => {
                    on_stack[frame.m] = false;
                    fuel[frame.m] = Some(bound);
                    frames.pop();
                }
            }
        }
    }
    fuel.into_iter()
        .map(|f| f.unwrap_or(FuelBound::Unbounded))
        .collect()
}

/// One method of the fuel walk's descent: its acyclic graph and the
/// costs of the sites before `costs.len()`.
struct FuelFrame {
    m: usize,
    cfg: Cfg,
    costs: Vec<u64>,
    /// The cost of the site being costed, over the callees before `callee`.
    cost: u64,
    callee: usize,
}

impl FuelFrame {
    /// Costs the remaining sites: `Ok` with the method's fuel, or `Err`
    /// with a callee whose fuel must be found first.
    fn advance(
        &mut self,
        site_callees: &[Vec<usize>],
        fuel: &[Option<FuelBound>],
        on_stack: &[bool],
    ) -> Result<FuelBound, usize> {
        while self.costs.len() < self.cfg.block_of.len() {
            let callees = site_callees
                .get(self.costs.len())
                .map_or(&[][..], Vec::as_slice);
            while let Some(&callee) = callees.get(self.callee) {
                match fuel[callee] {
                    Some(FuelBound::Bounded(f)) => self.cost = self.cost.max(1 + f),
                    Some(FuelBound::Unbounded) => return Ok(FuelBound::Unbounded),
                    // Call-graph recursion: no bound. (The callee's own
                    // frame finishes later, to the same answer.)
                    None if on_stack[callee] => return Ok(FuelBound::Unbounded),
                    None => return Err(callee),
                }
                self.callee += 1;
            }
            self.costs.push(self.cost);
            self.cost = 1;
            self.callee = 0;
        }
        let costs = &self.costs;
        let longest = self.cfg.longest_path(|pc| costs[pc]);
        Ok(FuelBound::Bounded(longest.expect("the graph is acyclic")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer_image;
    use com_isa::{Assembler, Opcode, Operand};
    use com_mem::ClassId;

    fn ret_move(asm: &mut Assembler, src: u8) {
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(src),
            Operand::Cur(src),
        )
        .unwrap();
    }

    fn leaf_and_caller() -> ProgramImage {
        let mut img = ProgramImage::empty();
        let leaf = img.opcodes.intern("leaf").unwrap();
        let caller = img.opcodes.intern("caller").unwrap();
        let mut asm = Assembler::new("SmallInteger ≫ leaf", 1);
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(2),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        ret_move(&mut asm, 2);
        img.add_method(ClassId::SMALL_INT, leaf, asm.finish().unwrap());
        let mut asm = Assembler::new("SmallInteger ≫ caller", 1);
        asm.emit_three(
            Opcode(leaf.0),
            Operand::Cur(2),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        ret_move(&mut asm, 2);
        img.add_method(ClassId::SMALL_INT, caller, asm.finish().unwrap());
        img
    }

    #[test]
    fn call_edges_and_composed_fuel() {
        let img = leaf_and_caller();
        let inf = infer_image(&img).unwrap();
        let cg = CallGraph::build(&img, &inf);
        assert_eq!(cg.edges[1], vec![0]);
        assert!(cg.edges[0].is_empty());
        // leaf: 2 instructions. caller: call (1 + 2) + ret (1) = 4.
        assert_eq!(cg.fuel[0], FuelBound::Bounded(2));
        assert_eq!(cg.fuel[1], FuelBound::Bounded(4));
    }

    #[test]
    fn recursion_is_unbounded() {
        let mut img = ProgramImage::empty();
        let looped = img.opcodes.intern("looped").unwrap();
        let mut asm = Assembler::new("SmallInteger ≫ looped", 1);
        asm.emit_three(
            Opcode(looped.0),
            Operand::Cur(2),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        ret_move(&mut asm, 2);
        img.add_method(ClassId::SMALL_INT, looped, asm.finish().unwrap());
        let inf = infer_image(&img).unwrap();
        let cg = CallGraph::build(&img, &inf);
        assert_eq!(cg.fuel[0], FuelBound::Unbounded);
    }

    #[test]
    fn reachability_from_entry_roots() {
        let img = leaf_and_caller();
        let inf = infer_image(&img).unwrap();
        let cg = CallGraph::build(&img, &inf);
        let from_caller = cg.reachable_from(&[1]);
        assert_eq!(from_caller, vec![true, true]);
        let from_leaf = cg.reachable_from(&[0]);
        assert_eq!(from_leaf, vec![true, false]);
    }

    #[test]
    fn trap_handlers_are_roots() {
        let mut img = leaf_and_caller();
        let dnu = img.opcodes.intern("doesNotUnderstand:").unwrap();
        let mut asm = Assembler::new("Object ≫ doesNotUnderstand:", 2);
        ret_move(&mut asm, 1);
        img.add_method(com_obj::ClassTable::OBJECT, dnu, asm.finish().unwrap());
        let inf = infer_image(&img).unwrap();
        let cg = CallGraph::build(&img, &inf);
        assert_eq!(cg.handler_roots, vec![2]);
        // Even with no explicit roots the handler stays reachable.
        let seen = cg.reachable_from(&[]);
        assert!(seen[2]);
    }
}
