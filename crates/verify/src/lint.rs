//! Dataflow lints with stable diagnostic codes, for the `vmlint` CLI.

use com_core::ProgramImage;
use com_isa::{CodeObject, Opcode, PrimOp};
use com_mem::ClassId;
use com_obj::{lookup_method, MethodRef, TrapSelector};
use std::collections::HashSet;

use crate::cfg::Cfg;
use crate::dataflow::{def_slot, use_slots, ConstSlots, Liveness, UninitSlots};
use crate::error::{Provenance, VerifyError};
use crate::facts::ImageFacts;

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: reported, never denied. Covers findings that are
    /// routine in compiler-generated code (scratch-slot churn, join-block
    /// scaffolding) and pure estimates.
    Info,
    /// A warning: `vmlint --deny` fails on these.
    Warning,
}

/// The stable lint codes. Verify errors use `V001`–`V007`
/// (see [`VerifyErrorKind::code`](crate::VerifyErrorKind::code)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagCode {
    /// `L001`: instructions no path from the method entry can reach.
    Unreachable,
    /// `L002`: a slot store overwritten on every path before any read.
    DeadStore,
    /// `L003`: a slot read that may happen before any write on some path
    /// (the interpreter's `UninitOperand` trap, found statically).
    UseBeforeDef,
    /// `L004`: a send with provably constant operands that provably traps
    /// every time it executes.
    AlwaysTraps,
    /// `I001`: the method's worst-case own-frame fuel (or unbounded).
    FuelBound,
    /// `L005`: a send whose inferred receiver set provably never
    /// understands the selector — every execution lands in
    /// `doesNotUnderstand:`, and no receiver class installs a handler.
    GuaranteedDnu,
    /// `L006`: a method no entry point (or engine-invoked trap handler)
    /// can reach through the call graph.
    UnreachableMethod,
    /// `I002`: the method's worst-case *interprocedural* fuel — the
    /// call-graph composition of the per-method I001 bounds.
    InterFuel,
}

impl DiagCode {
    /// The stable code string tools match on.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::Unreachable => "L001",
            DiagCode::DeadStore => "L002",
            DiagCode::UseBeforeDef => "L003",
            DiagCode::AlwaysTraps => "L004",
            DiagCode::GuaranteedDnu => "L005",
            DiagCode::UnreachableMethod => "L006",
            DiagCode::FuelBound => "I001",
            DiagCode::InterFuel => "I002",
        }
    }

    /// The default severity. Unreachable code and dead stores are
    /// informational: the inlining compiler routinely emits both
    /// (join-block scaffolding after arms that return, scratch slots
    /// reused across statements), so they describe codegen quality, not
    /// malformation. Unreachable *methods* likewise: a library image
    /// legitimately ships more than one entry uses.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::Unreachable
            | DiagCode::DeadStore
            | DiagCode::FuelBound
            | DiagCode::UnreachableMethod
            | DiagCode::InterFuel => Severity::Info,
            DiagCode::UseBeforeDef | DiagCode::AlwaysTraps | DiagCode::GuaranteedDnu => {
                Severity::Warning
            }
        }
    }

    /// One-line description for the CLI's diagnostics table.
    pub fn describe(self) -> &'static str {
        match self {
            DiagCode::Unreachable => "unreachable code: no path from the method entry",
            DiagCode::DeadStore => "dead store: overwritten on every path before any read",
            DiagCode::UseBeforeDef => "use of a context slot that may be uninitialised",
            DiagCode::AlwaysTraps => "send with constant operands that provably traps",
            DiagCode::GuaranteedDnu => "send guaranteed to hit doesNotUnderstand: (no handler)",
            DiagCode::UnreachableMethod => "method unreachable from any entry point",
            DiagCode::FuelBound => "worst-case own-frame fuel estimate",
            DiagCode::InterFuel => "worst-case interprocedural fuel estimate",
        }
    }

    /// Every lint code, for the CLI's table.
    pub const ALL: [DiagCode; 8] = [
        DiagCode::Unreachable,
        DiagCode::DeadStore,
        DiagCode::UseBeforeDef,
        DiagCode::AlwaysTraps,
        DiagCode::GuaranteedDnu,
        DiagCode::UnreachableMethod,
        DiagCode::FuelBound,
        DiagCode::InterFuel,
    ];
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: DiagCode,
    /// The method it fired in.
    pub method: Provenance,
    /// The instruction it anchors to (absent for method-level findings
    /// such as the fuel estimate).
    pub offset: Option<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// The finding's severity (the code's default).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl core::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let kind = match self.severity() {
            Severity::Warning => "warning",
            Severity::Info => "info",
        };
        write!(f, "{kind}[{}] {}", self.code.code(), self.method)?;
        if let Some(pc) = self.offset {
            write!(f, ", instruction {pc}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Verifies and analyses `image`, then runs every lint over every
/// method: [`lint_facts`] over [`ImageFacts::analyze`]. Every method is
/// an entry root, so L006 stays silent: a bare library image claims
/// nothing about which of its methods a client will use.
///
/// # Errors
///
/// The first [`VerifyError`] — lints only run on verified images.
pub fn lint_image(image: &ProgramImage) -> Result<Vec<Diagnostic>, VerifyError> {
    let facts = ImageFacts::analyze(image)?;
    Ok(lint_facts(image, &facts))
}

/// Runs every lint over every method of `image`, given its analysis
/// `facts` (from [`ImageFacts::analyze_with`] on the same image): the
/// intra-procedural tier plus the interprocedural lints (L004 sharpened
/// per receiver set, L005, L006, I002).
///
/// The `L004` always-traps lint is suppressed per site when every class
/// in the *inferred receiver set* reaches a `badOperands:` handler —
/// with a handler the trap is a routed feature (the trap workloads run
/// through theirs), not a latent fault. Only if inference is degraded
/// (an image beyond the class-set domain) does suppression fall back to
/// the image-wide rule: any `badOperands:` method silences it. Likewise
/// `L005` is suppressed when every never-understanding receiver class
/// has a `doesNotUnderstand:` handler (intentional proxying). `L006`
/// reports the methods `facts` found unreachable from its entries.
pub fn lint_facts(image: &ProgramImage, facts: &ImageFacts) -> Vec<Diagnostic> {
    let inference = &facts.inference;
    let sharp = (!inference.degraded)
        .then(|| crate::infer::StaticResolver::new(image, &inference.universe));
    // Selectors any image method defines: sends of these may dispatch to
    // the defined method instead of the primitive, so constant folding
    // must not claim to know their result (conservative, class-insensitive).
    let overridden: HashSet<Opcode> = image.methods.iter().map(|m| m.selector).collect();
    let resolve = |class: ClassId, op: Opcode| -> Option<PrimOp> {
        if overridden.contains(&op) {
            return None;
        }
        match lookup_method(&image.classes, class, op).method {
            Some(MethodRef::Primitive(p)) => Some(p),
            _ => None,
        }
    };
    let image_global_suppress = image
        .opcodes
        .get(TrapSelector::BadOperands.name())
        .is_some_and(|sel| image.methods.iter().any(|m| m.selector == sel));
    let mut out = Vec::new();
    for (index, m) in image.methods.iter().enumerate() {
        let prov = Provenance {
            index: Some(index),
            name: m.code.name.clone(),
        };
        out.extend(lint_code(&m.code, &prov));

        let cfg = Cfg::build(&m.code);
        let reachable = cfg.reachable();

        // L004 — provably always-trapping sends, suppressed only where
        // the inferred receiver set installs a badOperands: handler.
        let consts = ConstSlots::build(&m.code, &cfg, &resolve);
        for (pc, trap) in consts.trap_sites {
            if !reachable[cfg.block_of[pc]] {
                continue;
            }
            // A dead site has no receiver class, so `all` holds: it
            // never executes.
            let suppressed = match (&sharp, inference.site(index, pc)) {
                (Some(r), Some(site)) => inference
                    .universe
                    .classes_in(&site.receivers)
                    .all(|c| r.handler(c, TrapSelector::BadOperands).is_some()),
                _ => image_global_suppress,
            };
            if !suppressed {
                out.push(Diagnostic {
                    code: DiagCode::AlwaysTraps,
                    method: prov.clone(),
                    offset: Some(pc),
                    message: format!("this send traps every time it executes: {trap}"),
                });
            }
        }

        // L005 — sends the receiver set provably never understands.
        if let Some(r) = &sharp {
            for site in inference.sites_of(index) {
                if site.receivers.is_empty() {
                    continue;
                }
                let mut all_dnu = true;
                let mut all_handled = true;
                for c in inference.universe.classes_in(&site.receivers) {
                    match r.resolve(c, site.selector) {
                        crate::infer::Target::Dnu { handled } => {
                            if !handled {
                                all_handled = false;
                            }
                        }
                        _ => {
                            all_dnu = false;
                            break;
                        }
                    }
                }
                if all_dnu && !all_handled {
                    let name = image.opcodes.name(site.selector).unwrap_or("?");
                    out.push(Diagnostic {
                        code: DiagCode::GuaranteedDnu,
                        method: prov.clone(),
                        offset: Some(site.pc),
                        message: format!(
                            "no inferred receiver class understands `{name}` \
                             and none installs a doesNotUnderstand: handler"
                        ),
                    });
                }
            }
        }

        // I002 — interprocedural fuel (call-graph composition of I001).
        let fuel = match facts.callgraph.fuel[index] {
            crate::callgraph::FuelBound::Bounded(n) => {
                format!("worst-case interprocedural fuel: {n} instructions")
            }
            crate::callgraph::FuelBound::Unbounded => {
                "worst-case interprocedural fuel: unbounded (loops or recursion)".to_string()
            }
        };
        out.push(Diagnostic {
            code: DiagCode::InterFuel,
            method: prov,
            offset: None,
            message: fuel,
        });
    }

    // L006 — methods unreachable from the entry roots. Trap handlers
    // are engine-invoked and always count as roots.
    for (i, m) in image.methods.iter().enumerate() {
        if !facts.reachable[i] {
            out.push(Diagnostic {
                code: DiagCode::UnreachableMethod,
                method: Provenance {
                    index: Some(i),
                    name: m.code.name.clone(),
                },
                offset: None,
                message: format!(
                    "no entry point ({}) or trap handler reaches this method",
                    facts.entries.join(", ")
                ),
            });
        }
    }
    out
}

/// Runs the per-method lints over one verified code object: L001–L003
/// and I001. L004 needs the image's resolution and runs in
/// [`lint_facts`].
pub fn lint_code(code: &CodeObject, prov: &Provenance) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let cfg = Cfg::build(code);
    let diag = |code: DiagCode, offset: Option<usize>, message: String| Diagnostic {
        code,
        method: prov.clone(),
        offset,
        message,
    };

    // L001 — unreachable blocks.
    let reachable = cfg.reachable();
    for (bi, b) in cfg.blocks.iter().enumerate() {
        if !reachable[bi] {
            out.push(diag(
                DiagCode::Unreachable,
                Some(b.start),
                format!("instructions {}..{} are unreachable", b.start, b.end),
            ));
        }
    }

    // L002 — dead stores: the stored slot is not live after the store
    // *and* some later store kills it (stores merely unread at exit are
    // not reported: method results and scratch tails land there).
    let live_after = Liveness::build(code, &cfg).live_after(code, &cfg);
    let stored_later: Vec<u32> = {
        // For each instruction, the set of slots stored at any reachable
        // later point (flow-insensitive over the method; conservative).
        let mut later = vec![0u32; code.instrs.len() + 1];
        for pc in (0..code.instrs.len()).rev() {
            later[pc] = later[pc + 1]
                | def_slot(code.instrs[pc])
                    .map(|s| 1u32 << s)
                    .unwrap_or_default();
        }
        later
    };
    for (pc, instr) in code.instrs.iter().enumerate() {
        if !reachable[cfg.block_of[pc]] {
            continue;
        }
        if let Some(slot) = def_slot(*instr) {
            if live_after[pc] & (1 << slot) == 0 && stored_later[pc + 1] & (1 << slot) != 0 {
                out.push(diag(
                    DiagCode::DeadStore,
                    Some(pc),
                    format!("store to slot {slot} is overwritten before any read"),
                ));
            }
        }
    }

    // L003 — use of a maybe-uninitialised slot.
    let uninit = UninitSlots::build(code, &cfg).before(code, &cfg);
    for (pc, instr) in code.instrs.iter().enumerate() {
        if !reachable[cfg.block_of[pc]] {
            continue;
        }
        let bad = use_slots(*instr) & uninit[pc];
        for slot in 0..crate::dataflow::N_SLOTS {
            if bad & (1 << slot) != 0 {
                out.push(diag(
                    DiagCode::UseBeforeDef,
                    Some(pc),
                    format!("slot {slot} may be read before it is ever written"),
                ));
            }
        }
    }

    // I001 — fuel estimate.
    let fuel = match cfg.fuel_bound() {
        Some(n) => format!("worst-case own-frame fuel: {n} instructions"),
        None => "worst-case own-frame fuel: unbounded (contains loops)".to_string(),
    };
    out.push(diag(DiagCode::FuelBound, None, fuel));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::{Assembler, Operand};
    use com_mem::Word;

    fn image_with(code: CodeObject) -> ProgramImage {
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("probe").unwrap();
        img.add_method(ClassId::SMALL_INT, sel, code);
        img
    }

    fn warnings(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .collect()
    }

    #[test]
    fn clean_method_yields_only_the_fuel_info() {
        let mut asm = Assembler::new("t", 2);
        asm.emit_three(
            Opcode::ADD,
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
        let diags = lint_image(&image_with(asm.finish().unwrap())).unwrap();
        assert!(warnings(&diags).is_empty(), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == DiagCode::FuelBound));
    }

    #[test]
    fn use_before_def_warns() {
        let mut asm = Assembler::new("t", 1);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(9),
            Operand::Cur(9),
        )
        .unwrap();
        let diags = lint_image(&image_with(asm.finish().unwrap())).unwrap();
        let w = warnings(&diags);
        assert_eq!(w.len(), 1, "{diags:?}");
        assert_eq!(w[0].code, DiagCode::UseBeforeDef);
        assert_eq!(w[0].offset, Some(0));
        assert!(w[0].to_string().contains("L003"));
    }

    #[test]
    fn always_trapping_send_warns_unless_handled() {
        let mut asm = Assembler::new("t", 1);
        let k1 = asm.intern_const(Word::Int(1)).unwrap();
        let k0 = asm.intern_const(Word::Int(0)).unwrap();
        asm.emit_three(
            Opcode::DIV,
            Operand::Cur(4),
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
        let diags = lint_image(&image_with(code.clone())).unwrap();
        let w = warnings(&diags);
        assert_eq!(w.len(), 1, "{diags:?}");
        assert_eq!(w[0].code, DiagCode::AlwaysTraps);
        // With a badOperands: handler installed, the trap is a routed
        // feature, not a fault.
        let mut img = image_with(code);
        let bo = img
            .opcodes
            .intern(TrapSelector::BadOperands.name())
            .unwrap();
        let mut asm = Assembler::new("Int ≫ badOperands:", 2);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, bo, asm.finish().unwrap());
        let diags = lint_image(&img).unwrap();
        assert!(
            !diags.iter().any(|d| d.code == DiagCode::AlwaysTraps),
            "{diags:?}"
        );
    }

    #[test]
    fn unreachable_and_dead_store_are_informational() {
        // c4 := c1 (overwritten); jump over dead code; c4 := c1; ret.
        let mut asm = Assembler::new("t", 2);
        let end = asm.label();
        asm.emit_three(
            Opcode::MOVE,
            Operand::Cur(4),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap(); // 0: dead store
        asm.jump(end).unwrap(); // 1: unconditional
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(5),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap(); // 2: unreachable
        asm.bind(end);
        asm.emit_three(
            Opcode::MOVE,
            Operand::Cur(4),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap(); // 3
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(4),
            Operand::Cur(4),
        )
        .unwrap(); // 4
        let diags = lint_image(&image_with(asm.finish().unwrap())).unwrap();
        assert!(warnings(&diags).is_empty(), "{diags:?}");
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&DiagCode::Unreachable), "{diags:?}");
        assert!(codes.contains(&DiagCode::DeadStore), "{diags:?}");
    }

    #[test]
    fn codes_and_severities_are_stable() {
        assert_eq!(DiagCode::Unreachable.code(), "L001");
        assert_eq!(DiagCode::DeadStore.code(), "L002");
        assert_eq!(DiagCode::UseBeforeDef.code(), "L003");
        assert_eq!(DiagCode::AlwaysTraps.code(), "L004");
        assert_eq!(DiagCode::GuaranteedDnu.code(), "L005");
        assert_eq!(DiagCode::UnreachableMethod.code(), "L006");
        assert_eq!(DiagCode::FuelBound.code(), "I001");
        assert_eq!(DiagCode::InterFuel.code(), "I002");
        assert_eq!(DiagCode::GuaranteedDnu.severity(), Severity::Warning);
        assert_eq!(DiagCode::UnreachableMethod.severity(), Severity::Info);
        assert_eq!(DiagCode::InterFuel.severity(), Severity::Info);
        for c in DiagCode::ALL {
            assert!(!c.describe().is_empty());
        }
    }

    #[test]
    fn l004_suppression_is_per_receiver_not_image_global() {
        // A constant 1/0 on an Int receiver, in an image whose only
        // badOperands: handler lives on an unrelated class. PR 7's
        // image-global rule silenced this; the sharpened rule must not —
        // the Int chain has no handler.
        let mut asm = Assembler::new("t", 1);
        let k1 = asm.intern_const(Word::Int(1)).unwrap();
        let k0 = asm.intern_const(Word::Int(0)).unwrap();
        asm.emit_three(
            Opcode::DIV,
            Operand::Cur(4),
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
        let mut img = image_with(asm.finish().unwrap());
        let elsewhere = img
            .classes
            .define("Elsewhere", Some(com_obj::ClassTable::OBJECT), 0)
            .unwrap();
        let bo = img
            .opcodes
            .intern(TrapSelector::BadOperands.name())
            .unwrap();
        let mut asm = Assembler::new("Elsewhere ≫ badOperands:", 2);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        img.add_method(elsewhere, bo, asm.finish().unwrap());
        let diags = lint_image(&img).unwrap();
        assert!(
            diags.iter().any(|d| d.code == DiagCode::AlwaysTraps),
            "a handler on an unrelated class must not silence L004: {diags:?}"
        );
    }

    #[test]
    fn guaranteed_dnu_warns_unless_every_receiver_has_a_handler() {
        // `self ghost` where no class installs `ghost`.
        let mut img = ProgramImage::empty();
        let ghost = img.opcodes.intern("ghost").unwrap();
        let sel = img.opcodes.intern("haunt").unwrap();
        let mut asm = Assembler::new("SmallInteger ≫ haunt", 1);
        asm.emit_three(
            Opcode(ghost.0),
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
        let code = asm.finish().unwrap();
        img.add_method(ClassId::SMALL_INT, sel, code.clone());
        let diags = lint_image(&img).unwrap();
        let dnu: Vec<_> = diags
            .iter()
            .filter(|d| d.code == DiagCode::GuaranteedDnu)
            .collect();
        assert_eq!(dnu.len(), 1, "{diags:?}");
        assert_eq!(dnu[0].offset, Some(0));
        assert!(dnu[0].to_string().contains("ghost"));
        // With a doesNotUnderstand: handler on the receiver's chain the
        // send is intentional proxying (the dnu workload's pattern).
        let dnu_sel = img
            .opcodes
            .intern(TrapSelector::DoesNotUnderstand.name())
            .unwrap();
        let mut asm = Assembler::new("Object ≫ doesNotUnderstand:", 2);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        img.add_method(com_obj::ClassTable::OBJECT, dnu_sel, asm.finish().unwrap());
        let diags = lint_image(&img).unwrap();
        assert!(
            !diags.iter().any(|d| d.code == DiagCode::GuaranteedDnu),
            "{diags:?}"
        );
    }

    #[test]
    fn unreachable_method_needs_entries_and_spares_handlers() {
        let mut img = ProgramImage::empty();
        let main = img.opcodes.intern("mainEntry").unwrap();
        let orphan = img.opcodes.intern("orphan").unwrap();
        let dnu_sel = img
            .opcodes
            .intern(TrapSelector::DoesNotUnderstand.name())
            .unwrap();
        for (sel, name) in [
            (main, "SmallInteger ≫ mainEntry"),
            (orphan, "SmallInteger ≫ orphan"),
        ] {
            let mut asm = Assembler::new(name, 1);
            asm.emit_three_ret(
                Opcode::MOVE,
                Operand::Cur(0),
                Operand::Cur(1),
                Operand::Cur(1),
            )
            .unwrap();
            img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        }
        let mut asm = Assembler::new("Object ≫ doesNotUnderstand:", 2);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        img.add_method(com_obj::ClassTable::OBJECT, dnu_sel, asm.finish().unwrap());

        // No entries: no unreachability claims.
        let diags = lint_image(&img).unwrap();
        assert!(!diags.iter().any(|d| d.code == DiagCode::UnreachableMethod));

        // With an entry, only the orphan is flagged — the handler is an
        // engine-invoked root, never dead.
        let facts = ImageFacts::analyze_with(&img, &["mainEntry".to_string()]).unwrap();
        let diags = lint_facts(&img, &facts);
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.code == DiagCode::UnreachableMethod)
            .collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert_eq!(dead[0].method.index, Some(1));
    }

    #[test]
    fn interprocedural_fuel_is_reported_per_method() {
        let mut asm = Assembler::new("t", 1);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        let diags = lint_image(&image_with(asm.finish().unwrap())).unwrap();
        let inter: Vec<_> = diags
            .iter()
            .filter(|d| d.code == DiagCode::InterFuel)
            .collect();
        assert_eq!(inter.len(), 1, "{diags:?}");
        assert!(inter[0].message.contains("1 instructions"), "{inter:?}");
    }
}
