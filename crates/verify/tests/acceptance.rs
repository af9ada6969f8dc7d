//! Acceptance: the strict verifier admits every image the repo already
//! ships — all benchmark workloads and the standard library, unchanged —
//! and refuses every malformed-image class with a typed error at the
//! load boundary. Turning strict verification on must not perturb
//! execution: run and run_stepwise stay bit-identical over a verified
//! image.

use com_core::{Machine, MachineConfig, ProgramImage};
use com_isa::{Assembler, Instr, Opcode, Operand};
use com_mem::{ClassId, Word};
use com_stc::{compile_com, CompileOptions};
use com_verify::infer::MAX_CLASSES;
use com_verify::{lint_facts, lint_image, verify_image, FuelBound, ImageFacts, Severity};
use com_vm::{Vm, VmError};
use com_workloads as workloads;

#[test]
fn every_shipped_workload_verifies_unchanged() {
    for w in workloads::all() {
        let image = compile_com(w.source, CompileOptions::default())
            .unwrap_or_else(|e| panic!("workload {} does not compile: {e}", w.name));
        verify_image(&image)
            .unwrap_or_else(|e| panic!("workload {} fails verification: {e}", w.name));
    }
}

#[test]
fn the_standard_library_verifies_and_lints_warning_free() {
    let image = compile_com("", CompileOptions::default()).unwrap();
    assert!(!image.methods.is_empty());
    let diags = lint_image(&image).unwrap();
    let warnings: Vec<_> = diags
        .iter()
        .filter(|d| d.severity() == Severity::Warning)
        .collect();
    assert!(warnings.is_empty(), "stdlib warnings: {warnings:?}");
}

#[test]
fn every_workload_lints_warning_free() {
    for w in workloads::all() {
        let image = compile_com(w.source, CompileOptions::default()).unwrap();
        let diags = lint_image(&image).unwrap();
        let warnings: Vec<_> = diags
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .collect();
        assert!(warnings.is_empty(), "workload {}: {warnings:?}", w.name);
    }
}

/// Whole-image analysis and lint keep their walks on the heap, so a
/// method of any length takes constant host stack.
#[test]
fn a_long_method_is_analysed_on_a_small_stack() {
    // 2,000 sequential conditionals make one method of 6,000 blocks in a
    // chain. Both whole-image entry points walk it on a 256 KiB thread.
    let body = "self > 0 ifTrue: [ x := x + 1 ]. ".repeat(2_000);
    let source = format!("class SmallInteger method long | x | x := 0. {body}^x end end");
    let image = compile_com(&source, CompileOptions::default()).expect("compiles");
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || {
            let facts = ImageFacts::analyze(&image).expect("verifies");
            let long = facts.callgraph.fuel.last().expect("the long method");
            assert!(matches!(long, FuelBound::Bounded(_)), "{long:?}");
            lint_image(&image).expect("verifies");
        })
        .expect("spawn")
        .join()
        .expect("the analysis returns");
}

/// An image of more classes than the inference's class sets hold gets
/// degraded facts: no sites and no pre-seed keys. The lint falls back to
/// the image-wide L004 suppression and claims no L005 or L006, and a
/// `Vm` that pre-seeds its ITLB still runs.
#[test]
fn an_image_over_the_class_budget_degrades_soundly() {
    let classes: String = (0..MAX_CLASSES)
        .map(|i| format!("class K{i} extends Object vars v method get ^v end end\n"))
        .collect();
    // A constant division by zero (L004), a send nothing understands
    // (L005), and methods the entry does not reach (L006).
    let program = format!(
        "{classes}class SmallInteger method double ^self + self end \
         method trap ^1 / 0 end method haunt ^self ghost end end\n"
    );
    let lint = |source: &str| {
        let image = compile_com(source, CompileOptions::default()).expect("compiles");
        let facts = ImageFacts::analyze_with(&image, &["double".to_string()]).expect("verifies");
        let codes: Vec<&str> = lint_facts(&image, &facts)
            .iter()
            .map(|d| d.code.code())
            .collect();
        (facts, codes)
    };
    let (facts, codes) = lint(&program);
    assert!(facts.inference.degraded);
    assert!(facts.inference.sites.is_empty());
    assert!(facts.preseed_keys().is_empty());
    assert!(facts.to_json().contains("\"degraded\": true"));
    assert!(codes.contains(&"L004"), "no badOperands: method: {codes:?}");
    assert!(
        !codes.contains(&"L005") && !codes.contains(&"L006"),
        "{codes:?}"
    );
    // A badOperands: method on an unrelated class silences L004.
    let (_, codes) = lint(&format!(
        "{program}class K0 method badOperands: m ^0 end end\n"
    ));
    assert!(!codes.contains(&"L004"), "{codes:?}");

    let vm = Vm::builder()
        .source(&program)
        .preseed_itlb(true)
        .build()
        .expect("builds");
    assert!(vm.facts().is_some_and(|f| f.inference.degraded));
    let mut session = vm.session().expect("boots");
    assert_eq!(session.call::<i64>("double", 21).expect("runs"), 42);
}

/// One image per malformed-image class, all refused with the right code
/// at the `Vm::from_image` load boundary — typed, never a panic.
#[test]
fn every_malformed_class_is_refused_at_load_with_its_code() {
    fn image_with(code: com_isa::CodeObject) -> ProgramImage {
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("probe").unwrap();
        img.add_method(ClassId::SMALL_INT, sel, code);
        img
    }
    fn ret(asm: &mut Assembler) {
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
    }

    // V001 — un-interned opcode.
    let mut asm = Assembler::new("t", 1);
    ret(&mut asm);
    let mut code = asm.finish().unwrap();
    code.instrs[0] = Instr::three_ret(
        Opcode(40),
        Operand::Cur(0),
        Operand::Cur(1),
        Operand::Cur(1),
        true,
    )
    .unwrap();
    let bad_opcode = image_with(code);

    // V002 — wild branch off the end of the body.
    let mut asm = Assembler::new("t", 1);
    let k = asm.intern_const(Word::Int(99)).unwrap();
    asm.emit_three(
        Opcode::FJMP,
        Operand::Cur(0),
        Operand::Cur(1),
        Operand::Const(k),
    )
    .unwrap();
    ret(&mut asm);
    let wild_branch = image_with(asm.finish().unwrap());

    // V003 — slot beyond the context geometry.
    let mut asm = Assembler::new("t", 1);
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(63),
        Operand::Cur(63),
    )
    .unwrap();
    let wild_slot = image_with(asm.finish().unwrap());

    // V004 — constant index past the table.
    let mut asm = Assembler::new("t", 1);
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Const(9),
        Operand::Const(9),
    )
    .unwrap();
    let wild_const = image_with(asm.finish().unwrap());

    // V005 — trap handler with the wrong arity.
    let mut img = ProgramImage::empty();
    let dnu = img.opcodes.intern("doesNotUnderstand:").unwrap();
    let mut asm = Assembler::new("t", 1);
    ret(&mut asm);
    img.add_method(ClassId::SMALL_INT, dnu, asm.finish().unwrap());
    let bad_handler = img;

    for (image, want) in [
        (bad_opcode, "V001"),
        (wild_branch, "V002"),
        (wild_slot, "V003"),
        (wild_const, "V004"),
        (bad_handler, "V005"),
    ] {
        match Vm::from_image(image, MachineConfig::default()) {
            Err(VmError::Verify(e)) => assert_eq!(e.code(), want, "{e}"),
            other => panic!("expected {want} refusal, got {other:?}"),
        }
    }
}

/// Strict verification on the builder path changes nothing about
/// execution: run and run_stepwise remain bit-identical over every
/// verified workload — results, `CycleStats`, and the ITLB, icache and
/// context-cache counters — on the paper machine and under generational
/// GC, and results match the workload's calibrated expectation.
#[test]
fn verified_images_run_bit_identically_both_interpreters() {
    let configs = [
        MachineConfig::default(),
        // The benchmark's allocating workload cadence.
        MachineConfig::default().with_generational_gc(1009, 8 * 1009),
    ];
    for w in workloads::all() {
        let image = compile_com(w.source, CompileOptions::default()).unwrap();
        verify_image(&image).unwrap();
        for cfg in configs {
            let observe = |stepwise: bool| {
                let mut m = Machine::new(cfg);
                m.load(&image).unwrap();
                let sel = m.opcodes().get(w.entry).unwrap();
                m.start_send(sel, Word::Int(w.size), &[]).unwrap();
                let r = if stepwise {
                    m.run_stepwise(workloads::MAX_STEPS)
                } else {
                    m.run(workloads::MAX_STEPS)
                }
                .unwrap();
                (
                    (r.result, r.steps, m.stats()),
                    (m.itlb_stats(), m.icache_stats(), m.ctx_cache_stats()),
                )
            };
            let fast = observe(false);
            let slow = observe(true);
            assert_eq!(
                fast, slow,
                "{} diverged between interpreters under {cfg:?}",
                w.name
            );
            assert_eq!(fast.0 .0, Word::Int(w.expected), "{} result", w.name);
        }
    }
}
