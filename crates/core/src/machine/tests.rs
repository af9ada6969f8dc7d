use super::*;
use com_isa::{Assembler, Operand};
use com_mem::gc::GcKind;

use crate::CONTEXT_WORDS;

/// The engine's concurrency contract: a machine owns all of its
/// mutable state (the decoded slab shares only immutable
/// [`DecodedBody`]s behind `Arc`), so it may be moved across threads.
/// Compile-time: regressing to a non-`Send` handle type (`Rc`, raw
/// pointers) fails this test at build, not at runtime.
#[test]
fn machine_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<RunResult>();
    assert_send::<MachineError>();
}

/// A one-method `SmallInteger` image.
fn image_with(selector: &str, build: impl FnOnce(&mut Assembler)) -> ProgramImage {
    let mut img = ProgramImage::empty();
    let sel = img.opcodes.intern(selector).unwrap();
    let mut asm = Assembler::new(format!("test>>{selector}"), 2);
    build(&mut asm);
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
    img
}

/// `SmallInteger>>plus: other` — c3 <- self + other; return c3.
fn plus_image() -> ProgramImage {
    image_with("plus:", |asm| {
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Cur(2),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
    })
}

/// `SmallInteger>>nop: other` — returns self at once.
fn nop_image() -> ProgramImage {
    image_with("nop:", |asm| {
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
    })
}

/// A paper machine with `img` loaded.
fn machine(img: &ProgramImage) -> Machine {
    let mut m = Machine::new(MachineConfig::default());
    m.load(img).unwrap();
    m
}

fn run(img: &ProgramImage, selector: &str, recv: Word, args: &[Word]) -> RunResult {
    machine(img).send(selector, recv, args, 100_000).unwrap()
}

#[test]
fn primitive_add_via_defined_wrapper() {
    let img = plus_image();
    let out = run(&img, "plus:", Word::Int(20), &[Word::Int(22)]);
    assert_eq!(out.result, Word::Int(42));
    assert!(out.stats.calls >= 1);
    assert!(out.stats.returns >= 1);
}

#[test]
fn constants_and_jumps() {
    // abs: return self < 0 ? self negated : self
    let img = image_with("abs", |asm| {
        let k0 = asm.intern_const(Word::Int(0)).unwrap();
        // c3 <- self < 0
        asm.emit_three(
            Opcode::LT,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Const(k0),
        )
        .unwrap();
        let neg = asm.label();
        asm.jump_if(Operand::Cur(3), neg);
        // return self
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        asm.bind(neg);
        // c4 <- self negated ; return c4
        asm.emit_three(
            Opcode::NEG,
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
    });
    assert_eq!(run(&img, "abs", Word::Int(-5), &[]).result, Word::Int(5));
    assert_eq!(run(&img, "abs", Word::Int(7), &[]).result, Word::Int(7));
}

#[test]
fn recursion_and_deep_calls() {
    // SmallInteger>>sumto — recursive sum 1..self.
    let mut img = ProgramImage::empty();
    let sel = img.opcodes.intern("sumto").unwrap();
    let mut asm = Assembler::new("SmallInteger>>sumto", 1);
    let k0 = asm.intern_const(Word::Int(0)).unwrap();
    let k1 = asm.intern_const(Word::Int(1)).unwrap();
    // c3 <- self <= 0
    asm.emit_three(
        Opcode::LE,
        Operand::Cur(3),
        Operand::Cur(1),
        Operand::Const(k0),
    )
    .unwrap();
    let base = asm.label();
    asm.jump_if(Operand::Cur(3), base);
    // c4 <- self - 1 ; c5 <- c4 sumto ; c6 <- self + c5 ; return c6
    asm.emit_three(
        Opcode::SUB,
        Operand::Cur(4),
        Operand::Cur(1),
        Operand::Const(k1),
    )
    .unwrap();
    asm.emit_three(
        Opcode(sel.0),
        Operand::Cur(5),
        Operand::Cur(4),
        Operand::Cur(4),
    )
    .unwrap();
    asm.emit_three(
        Opcode::ADD,
        Operand::Cur(6),
        Operand::Cur(1),
        Operand::Cur(5),
    )
    .unwrap();
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(6),
        Operand::Cur(6),
    )
    .unwrap();
    asm.bind(base);
    // B must be context mode; MOVE takes its value from C (= 0).
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(1),
        Operand::Const(k0),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());

    let out = run(&img, "sumto", Word::Int(100), &[]);
    assert_eq!(out.result, Word::Int(5050));
    // 100 recursive calls plus the entry send.
    assert!(out.stats.calls >= 101);
    // Every call returns, plus the entry method's own halt-return.
    assert_eq!(out.stats.returns, out.stats.calls + 1);
    // LIFO discipline: every level freed eagerly.
    assert!(out.stats.contexts_freed_lifo >= 100);
}

#[test]
fn call_cost_matches_paper() {
    // A method that immediately returns; called once via 3-operand form.
    let img = nop_image();
    let mut m = machine(&img);
    let out = m.send("nop:", Word::Int(1), &[Word::Int(2)], 1000).unwrap();
    // Entry send is zero-operand: call linkage 2 cycles, no copies.
    // §3.6: zero-operand call delays execution 4 cycles total (2 base +
    // 1 flush + 1 linkage).
    let s = out.stats;
    assert_eq!(s.calls, 1);
    assert_eq!(s.call_linkage_cycles, 2);
    assert_eq!(s.operand_copy_cycles, 0);
}

#[test]
fn captured_context_in_resident_slot_survives_minor_gc() {
    // The pinning-hole regression: a captured (nursery) context whose
    // only reference lives in a *cache-resident, dirty* slot of a
    // tenured context. The store went through the context cache's
    // directory-bypassing path, so no write barrier ran and the holder
    // is not in the remembered set; only pinning (and scanning) the
    // residents keeps the captured context alive through a minor
    // collection.
    let img = nop_image();
    let mut m = machine(&img);
    let sel = m.opcodes().get("nop:").unwrap();
    m.start_send(sel, Word::Int(1), &[Word::Int(2)]).unwrap();
    // A full collection promotes the bootstrap contexts to tenured.
    m.collect_garbage().unwrap();
    // A fresh captured context: nursery, reachable from nothing yet.
    let captured = m
        .space
        .create(m.team, m.context_class, CONTEXT_WORDS, AllocKind::Context)
        .unwrap();
    // Store its pointer into a slot of the (resident, tenured) current
    // context — the cache write path, no barrier.
    let ctx_class = m.context_class;
    m.ctx_write_raw(false, CTX_ARG1 + 4, Word::Ptr(captured), ctx_class)
        .unwrap();
    assert_eq!(
        m.space.barrier_stats().remembered_segments,
        0,
        "the resident-slot store must not have gone through the barrier"
    );
    m.collect_garbage_kind(GcKind::Minor).unwrap();
    assert!(
        m.space.read(m.team, captured).is_ok(),
        "captured context reachable only through a cache-resident slot was swept"
    );
    assert_eq!(m.gc_totals().minor_collections, 1);
}

#[test]
fn full_gc_pins_resident_contexts_instead_of_releasing_them() {
    // Every cache-resident context must keep its backing segment and
    // storage across a full collection — residents are part of the
    // machine state, not sweep-then-release fodder.
    let img = nop_image();
    let mut m = machine(&img);
    let sel = m.opcodes().get("nop:").unwrap();
    m.start_send(sel, Word::Int(1), &[Word::Int(2)]).unwrap();
    m.collect_garbage().unwrap();
    let residents = m.cc.as_ref().expect("cc on").resident();
    assert!(!residents.is_empty());
    for abs in residents {
        assert!(
            m.space.memory().block_words(abs).is_some(),
            "resident context at {abs} lost its storage across a full GC"
        );
        assert!(
            m.space.segment_at_base(abs).is_some(),
            "resident context at {abs} lost its segment across a full GC"
        );
    }
}

#[test]
fn send_of_uninterned_selector_errors_instead_of_panicking() {
    let img = ProgramImage::empty();
    let mut m = machine(&img);
    match m.send("neverInterned:", Word::Int(1), &[], 100) {
        Err(MachineError::UnknownSelector(name)) => {
            assert_eq!(name, "neverInterned:");
        }
        other => panic!("expected UnknownSelector, got {other:?}"),
    }
    // The machine is still usable after the refused send.
    let sel = m.intern_selector("stillFine").unwrap();
    assert!(m.opcodes().get("stillFine").is_some());
    let _ = sel;
}

#[test]
fn repeated_sends_do_not_leak_entry_roots_or_heap() {
    // The per-send leak: every `start_send` used to pin the synthesized
    // entry method in `code_roots` forever, so roots (and the live heap
    // under GC) grew linearly with sends.
    let img = plus_image();
    let mut m = machine(&img);
    // Warm up past the context cache's 32 blocks: cache-resident
    // contexts are pinned across collections (machine state), and each
    // can keep one dead entry-code object alive through its stale RIP
    // until its block is recycled — a *bounded* residual, saturated
    // after a few dozen sends. Anything growing past this warmup is a
    // real leak.
    for _ in 0..40 {
        m.send("plus:", Word::Int(1), &[Word::Int(2)], 10_000)
            .unwrap();
    }
    let roots = m.code_root_count();
    m.collect_garbage().unwrap();
    let live = m.space().memory().buddy().allocated_words();
    for i in 0..50 {
        let out = m
            .send("plus:", Word::Int(i), &[Word::Int(2)], 10_000)
            .unwrap();
        assert_eq!(out.result, Word::Int(i + 2));
        assert_eq!(
            m.code_root_count(),
            roots,
            "code roots grew across completed sends"
        );
    }
    m.collect_garbage().unwrap();
    assert_eq!(
        m.space().memory().buddy().allocated_words(),
        live,
        "live heap grew across 50 completed sends"
    );
}

/// The threaded loop's next collection step is the one `gc_due` rule
/// looked ahead: from every step up to a few hundred, `next_gc_due` names
/// the first later step `gc_due` fires on, for no cadence, minor only,
/// full only, both with common multiples, and zero intervals (due only at
/// step 0, so never after it).
#[test]
fn next_gc_due_is_the_first_later_step_gc_due_fires_on() {
    let cadences = [
        (None, None),
        (Some(7), None),
        (None, Some(11)),
        (Some(6), Some(9)),
        (Some(0), None),
        (Some(0), Some(5)),
    ];
    for (minor, full) in cadences {
        let m = Machine::new(MachineConfig {
            gc_minor_interval: minor,
            gc_full_interval: full,
            ..MachineConfig::default()
        });
        for step in 0..400 {
            let fires = (step + 1..=500).find(|&s| m.gc_due(s).is_some());
            assert_eq!(
                m.next_gc_due(step),
                fires,
                "minor {minor:?}, full {full:?}, after step {step}"
            );
        }
    }
}

#[test]
fn run_for_yields_and_resumes_bit_identically() {
    // Driving a program with many tiny budgets must reproduce the
    // one-shot run exactly: same result, same CycleStats, same steps.
    let img = plus_image();
    let one_shot = run(&img, "plus:", Word::Int(20), &[Word::Int(22)]);

    let mut m = machine(&img);
    let sel = m.opcodes().get("plus:").unwrap();
    m.start_send(sel, Word::Int(20), &[Word::Int(22)]).unwrap();
    let mut yields = 0u32;
    let sliced = loop {
        match m.run_for(1).unwrap() {
            RunOutcome::Done(r) => break r,
            RunOutcome::OutOfBudget => yields += 1,
        }
    };
    assert_eq!(sliced.result, Word::Int(42));
    assert_eq!(sliced.result, one_shot.result);
    assert_eq!(sliced.stats, one_shot.stats);
    assert_eq!(sliced.steps, one_shot.steps);
    assert!(
        yields >= sliced.steps as u32 - 1,
        "budget of 1 must yield per step"
    );
}

#[test]
fn boot_shares_decoded_bodies_and_matches_lazy_load() {
    // A LoadedImage-booted machine must share the image's decoded bodies
    // and behave (results + CycleStats) exactly like one that loaded the
    // raw image and decoded lazily: on the geometry the template was
    // prepared for, and on a smaller space, which stores method by method.
    let img = plus_image();
    let loaded = crate::LoadedImage::prepare(img.clone());
    assert_eq!(loaded.predecoded(), loaded.methods());

    let paper = MachineConfig::default();
    let small = MachineConfig {
        space_log2: paper.space_log2 - 2,
        ..paper
    };
    assert!(loaded
        .template_for(paper.format, paper.space_log2)
        .is_some());
    assert!(loaded
        .template_for(small.format, small.space_log2)
        .is_none());
    for config in [paper, small] {
        let mut shared = Machine::boot(config, &loaded).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            &shared.decoded[0].body,
            &loaded.body(0).unwrap()
        ));
        let mut lazy = Machine::new(config);
        lazy.load(&img).unwrap();
        for i in 0..10 {
            let a = shared
                .send("plus:", Word::Int(i), &[Word::Int(2)], 10_000)
                .unwrap();
            let b = lazy
                .send("plus:", Word::Int(i), &[Word::Int(2)], 10_000)
                .unwrap();
            assert_eq!(a.result, b.result);
            assert_eq!(
                a.stats, b.stats,
                "space 2^{}, send {i}: stats diverged",
                config.space_log2
            );
        }
    }
}

#[test]
fn does_not_understand_traps() {
    let img = ProgramImage::empty();
    let mut m = machine(&img);
    let sel = m.intern_selector("frobnicate").unwrap();
    m.start_send(sel, Word::Int(1), &[]).unwrap();
    match m.run(100) {
        Err(MachineError::DoesNotUnderstand { class, .. }) => {
            assert_eq!(class, ClassId::SMALL_INT);
        }
        other => panic!("expected DNU, got {other:?}"),
    }
}

/// An image where SmallInteger installs a `doesNotUnderstand:`
/// handler that answers the reified message's selector opcode (word
/// 0), and interns `frobnicate` without defining it anywhere.
fn dnu_handler_image() -> (ProgramImage, Opcode) {
    let mut img = ProgramImage::empty();
    let missing = img.opcodes.intern("frobnicate").unwrap();
    let dnu = img
        .opcodes
        .intern(com_obj::TrapSelector::DoesNotUnderstand.name())
        .unwrap();
    // doesNotUnderstand: msg — c3 <- msg at 0 ; return c3.
    let mut asm = Assembler::new("SmallInteger>>doesNotUnderstand:", 2);
    let k0 = asm.intern_const(Word::Int(0)).unwrap();
    asm.emit_three(
        Opcode::RAWAT,
        Operand::Cur(3),
        Operand::Cur(2),
        Operand::Const(k0),
    )
    .unwrap();
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(3),
        Operand::Cur(3),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, dnu, asm.finish().unwrap());
    (img, missing)
}

#[test]
fn dnu_handler_catches_failed_send_and_execution_continues() {
    // The entry send itself fails lookup; the handler's answer (the
    // reified selector opcode) becomes the program result — the
    // trapped-by-default condition ran to a halt instead.
    let (img, missing) = dnu_handler_image();
    let mut m = machine(&img);
    m.start_send(missing, Word::Int(9), &[]).unwrap();
    let out = m.run(10_000).unwrap();
    assert_eq!(out.result, Word::Int(missing.0 as i64));
    assert_eq!(out.stats.soft_traps, 1);
    // The stepwise loop dispatches identically.
    let mut s = machine(&img);
    s.start_send(missing, Word::Int(9), &[]).unwrap();
    let b = s.run_stepwise(10_000).unwrap();
    assert_eq!(b.result, out.result);
    assert_eq!(
        b.stats, out.stats,
        "handler dispatch diverged between loops"
    );
}

#[test]
fn bad_operands_handler_catches_divide_by_zero() {
    // div0: c3 <- self / 0 ; return c3 — with a badOperands: handler
    // on SmallInteger answering the reified argument (the zero).
    let mut img = ProgramImage::empty();
    let sel = img.opcodes.intern("div0").unwrap();
    let bad = img
        .opcodes
        .intern(com_obj::TrapSelector::BadOperands.name())
        .unwrap();
    let mut asm = Assembler::new("SmallInteger>>div0", 1);
    let k0 = asm.intern_const(Word::Int(0)).unwrap();
    asm.emit_three(
        Opcode::DIV,
        Operand::Cur(3),
        Operand::Cur(1),
        Operand::Const(k0),
    )
    .unwrap();
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(3),
        Operand::Cur(3),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
    // badOperands: msg — c3 <- 777 ; return c3 (a recovery value).
    let mut asm = Assembler::new("SmallInteger>>badOperands:", 2);
    let k = asm.intern_const(Word::Int(777)).unwrap();
    asm.emit_three(
        Opcode::MOVE,
        Operand::Cur(3),
        Operand::Cur(1),
        Operand::Const(k),
    )
    .unwrap();
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(3),
        Operand::Cur(3),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, bad, asm.finish().unwrap());

    let mut m = machine(&img);
    let out = m.send("div0", Word::Int(14), &[], 10_000).unwrap();
    assert_eq!(out.result, Word::Int(777));
    assert_eq!(out.stats.soft_traps, 1);
}

#[test]
fn trap_exit_unwinds_to_a_fresh_machine() {
    // The engine unwind contract: an unhandled trap routes through
    // abort_send, so the next start_send is indistinguishable from
    // one on a freshly booted machine — same answer, same CycleStats
    // delta, and (after a collection) the same live heap and roots.
    let img = plus_image();
    let mut fresh = machine(&img);
    let baseline = fresh
        .send("plus:", Word::Int(20), &[Word::Int(22)], 10_000)
        .unwrap();

    let mut m = machine(&img);
    // Trap: an interned selector nothing answers (atom receiver).
    let missing = m.intern_selector("zap:").unwrap();
    m.start_send(missing, Word::Atom(com_mem::AtomId(5)), &[Word::Int(1)])
        .unwrap();
    match m.run(10_000) {
        Err(MachineError::DoesNotUnderstand { .. }) => {}
        other => panic!("expected DNU, got {other:?}"),
    }
    // Unwound: registers and the trapped call graph are gone...
    assert_eq!(m.code_root_count(), fresh.code_root_count());
    // ...and the follow-up call is bit-identical to the fresh
    // machine's first call (warm-state leaks — ITLB, icache, context
    // pool — would show up here as cheaper lookups or fetches).
    let before = m.stats();
    let out = m
        .send("plus:", Word::Int(20), &[Word::Int(22)], 10_000)
        .unwrap();
    assert_eq!(out.result, baseline.result);
    assert_eq!(
        out.stats.since(&before),
        baseline.stats,
        "post-trap call diverged from a fresh machine's"
    );
    // After a full collection the trapped call left no live residue:
    // both machines hold exactly the same number of allocated words.
    m.collect_garbage().unwrap();
    fresh.collect_garbage().unwrap();
    assert_eq!(
        m.space().memory().buddy().allocated_words(),
        fresh.space().memory().buddy().allocated_words(),
        "the trapped call graph stayed live across GC"
    );
}

#[test]
fn works_without_itlb_and_without_context_cache() {
    let img = plus_image();
    for cfg in [
        MachineConfig::default().without_itlb(),
        MachineConfig::default().without_context_cache(),
        MachineConfig::default()
            .without_itlb()
            .without_context_cache(),
    ] {
        let mut m = Machine::new(cfg);
        m.load(&img).unwrap();
        let out = m
            .send("plus:", Word::Int(1), &[Word::Int(2)], 10_000)
            .unwrap();
        assert_eq!(out.result, Word::Int(3));
    }
}

#[test]
fn itlb_eliminates_repeat_lookups() {
    let img = plus_image();
    let mut m = machine(&img);
    m.send("plus:", Word::Int(1), &[Word::Int(2)], 10_000)
        .unwrap();
    let first = m.stats().full_lookups;
    m.send("plus:", Word::Int(3), &[Word::Int(4)], 10_000)
        .unwrap();
    let second = m.stats().full_lookups - first;
    assert!(
        second < first,
        "warm ITLB must avoid lookups: {second} vs {first}"
    );
}
