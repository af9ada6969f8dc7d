//! Machine-level trap and accounting tests: the conditions §2.1 and §3
//! promise the hardware catches, plus cycle-accounting invariants.

use com_core::{Machine, MachineConfig, MachineError, ProgramImage};
use com_isa::{Assembler, Instr, Opcode, Operand};
use com_mem::{ClassId, Word};

fn image_with(selector: &str, n_args: u8, build: impl FnOnce(&mut Assembler)) -> ProgramImage {
    let mut img = ProgramImage::empty();
    let sel = img.opcodes.intern(selector).unwrap();
    let mut asm = Assembler::new(format!("SmallInteger>>{selector}"), n_args);
    build(&mut asm);
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
    img
}

fn machine(img: &ProgramImage) -> Machine {
    let mut m = Machine::new(MachineConfig::default());
    m.load(img).unwrap();
    m
}

#[test]
fn privileged_as_traps_in_user_mode_and_works_privileged() {
    // as: retags an Int as an Atom — capability forging unless privileged.
    let img = image_with("forge", 1, |asm| {
        let k3 = asm.intern_const(Word::Int(3)).unwrap(); // Atom tag code
        asm.emit_three(
            Opcode::AS,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Const(k3),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Cur(3),
        )
        .unwrap();
    });
    let mut m = machine(&img);
    assert!(matches!(
        m.send("forge", Word::Int(7), &[], 1000),
        Err(MachineError::Privileged)
    ));
    let mut m = machine(&img);
    m.set_privileged(true);
    let out = m.send("forge", Word::Int(7), &[], 1000).unwrap();
    assert_eq!(out.result, Word::Atom(com_mem::AtomId(7)));
}

#[test]
fn tag_instruction_reads_tags() {
    let img = image_with("tagOf:", 2, |asm| {
        asm.emit_three(
            Opcode::TAG,
            Operand::Cur(3),
            Operand::Cur(2),
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
    });
    let mut m = machine(&img);
    let out = m
        .send("tagOf:", Word::Int(0), &[Word::Float(2.5)], 1000)
        .unwrap();
    assert_eq!(out.result, Word::Int(com_mem::Tag::Float as i64));
    let mut m = machine(&img);
    let out = m
        .send("tagOf:", Word::Int(0), &[Word::Int(1)], 1000)
        .unwrap();
    assert_eq!(out.result, Word::Int(com_mem::Tag::Int as i64));
}

#[test]
fn dependent_pair_interlocks_one_cycle() {
    // c3 <- c1 + c1 ; c4 <- c3 + c1 — reads the previous destination.
    let img = image_with("hazard", 1, |asm| {
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(4),
            Operand::Cur(3),
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
    // A one-cycle interlock is charged and execution proceeds.
    let mut m = machine(&img);
    let out = m.send("hazard", Word::Int(5), &[], 1000).unwrap();
    assert_eq!(out.result, Word::Int(15));
    assert!(out.stats.interlock_cycles >= 1);
}

#[test]
fn taken_branches_charge_exactly_one_delay_cycle() {
    // A counted loop with a known number of taken branches.
    let img = image_with("spin", 1, |asm| {
        let k0 = asm.intern_const(Word::Int(0)).unwrap();
        let k1 = asm.intern_const(Word::Int(1)).unwrap();
        // c3 <- self
        asm.emit_three(
            Opcode::MOVE,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        let top = asm.label();
        let out_l = asm.label();
        asm.bind(top);
        // c4 <- c3 > 0 ; exit when false
        asm.emit_three(
            Opcode::GT,
            Operand::Cur(4),
            Operand::Cur(3),
            Operand::Const(k0),
        )
        .unwrap();
        let body = asm.label();
        asm.jump_if(Operand::Cur(4), body);
        asm.jump(out_l).unwrap();
        asm.bind(body);
        asm.emit_three(
            Opcode::SUB,
            Operand::Cur(3),
            Operand::Cur(3),
            Operand::Const(k1),
        )
        .unwrap();
        asm.jump(top).unwrap();
        asm.bind(out_l);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(3),
            Operand::Const(k0),
        )
        .unwrap();
    });
    let mut m = machine(&img);
    let n = 10i64;
    let out = m.send("spin", Word::Int(n), &[], 10_000).unwrap();
    assert_eq!(out.result, Word::Int(0));
    // Taken branches: n iterations × (cond-jump taken + back-jump) + final
    // exit jump = 2n + 1.
    assert_eq!(out.stats.taken_branches, 2 * n as u64 + 1);
    assert_eq!(out.stats.branch_delay_cycles, out.stats.taken_branches);
}

#[test]
fn executing_past_method_end_is_trapped() {
    // A method with no return: falls off the end.
    let img = image_with("felloff", 1, |asm| {
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
    });
    let mut m = machine(&img);
    assert!(matches!(
        m.send("felloff", Word::Int(1), &[], 1000),
        Err(MachineError::BadMethod(_))
    ));
}

#[test]
fn zero_format_data_op_without_return_is_rejected() {
    let mut img = ProgramImage::empty();
    let sel = img.opcodes.intern("weird").unwrap();
    let mut asm = Assembler::new("SmallInteger>>weird", 1);
    // ADD in zero format with no return bit: no destination exists.
    asm.emit(Instr::zero(Opcode::ADD, 2, false).unwrap());
    asm.emit_three_ret(
        Opcode::MOVE,
        Operand::Cur(0),
        Operand::Cur(1),
        Operand::Cur(1),
    )
    .unwrap();
    img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
    let mut m = machine(&img);
    // The implicit next-context operands are Uninit -> dispatch gives
    // UndefinedObject; either DNU or the no-destination trap is acceptable,
    // but it must not corrupt state or succeed.
    assert!(m.send("weird", Word::Int(1), &[], 1000).is_err());
}

#[test]
fn division_by_zero_surfaces_as_bad_operands() {
    let img = image_with("div:", 2, |asm| {
        asm.emit_three(
            Opcode::DIV,
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
    });
    let mut m = machine(&img);
    assert!(matches!(
        m.send("div:", Word::Int(1), &[Word::Int(0)], 1000),
        Err(MachineError::BadOperands { .. })
    ));
    let mut m = machine(&img);
    let out = m
        .send("div:", Word::Int(12), &[Word::Int(4)], 1000)
        .unwrap();
    assert_eq!(out.result, Word::Int(3));
}

#[test]
fn instruction_counts_balance_cycles() {
    // CPI identity: total cycles == sum of the breakdown categories, and
    // base cycles == 2 × instructions.
    let img = image_with("work", 1, |asm| {
        let k1 = asm.intern_const(Word::Int(1)).unwrap();
        for _ in 0..10 {
            asm.emit_three(
                Opcode::ADD,
                Operand::Cur(3),
                Operand::Cur(1),
                Operand::Const(k1),
            )
            .unwrap();
            asm.emit_three(
                Opcode::MUL,
                Operand::Cur(4),
                Operand::Cur(1),
                Operand::Const(k1),
            )
            .unwrap();
        }
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(4),
            Operand::Cur(4),
        )
        .unwrap();
    });
    let mut m = machine(&img);
    let out = m.send("work", Word::Int(3), &[], 10_000).unwrap();
    let s = out.stats;
    assert_eq!(s.base_cycles, 2 * s.instructions);
    let sum: u64 = s.breakdown().iter().map(|(_, c)| c).sum();
    assert_eq!(sum, s.total_cycles());
}

#[test]
fn out_of_geometry_slot_traps_typed_not_panicking() {
    // Operand offset 63 encodes but lies past the 32-word context: a
    // machine-integrity fault with the offending offset, not a panic
    // and not a soft-dispatchable badOperands:.
    let img = image_with("wild", 1, |asm| {
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(63),
            Operand::Cur(63),
        )
        .unwrap();
    });
    let mut m = machine(&img);
    match m.send("wild", Word::Int(7), &[], 1000) {
        Err(MachineError::SlotOutOfRange { offset }) => assert!(offset >= 32, "{offset}"),
        other => panic!("expected SlotOutOfRange, got {other:?}"),
    }
}

#[test]
fn out_of_range_constant_traps_typed_not_panicking() {
    // Constant index 9 with an empty table: the fetch must surface the
    // index in a typed trap instead of indexing past the table.
    let img = image_with("wildc", 1, |asm| {
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Const(9),
            Operand::Const(9),
        )
        .unwrap();
    });
    let mut m = machine(&img);
    match m.send("wildc", Word::Int(7), &[], 1000) {
        Err(MachineError::ConstOutOfRange { index: 9 }) => {}
        other => panic!("expected ConstOutOfRange, got {other:?}"),
    }
}

#[test]
fn negative_jump_displacement_traps_typed() {
    // A hand-built FJMP with a negative displacement constant must trap
    // as BadOperands (displacement magnitudes are non-negative by
    // construction), on both interpreters.
    let img = image_with("negj", 1, |asm| {
        let k = asm.intern_const(Word::Int(-3)).unwrap();
        asm.emit_three(
            Opcode::FJMP,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Const(k),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
    });
    for stepwise in [false, true] {
        let mut m = machine(&img);
        let sel = m.opcodes().get("negj").unwrap();
        m.start_send(sel, Word::Int(7), &[]).unwrap();
        let r = if stepwise {
            m.run_stepwise(1000)
        } else {
            m.run(1000)
        };
        match r {
            Err(MachineError::BadOperands { reason, .. }) => {
                assert!(reason.contains("non-negative"), "{reason}");
            }
            other => panic!("stepwise={stepwise}: expected BadOperands, got {other:?}"),
        }
    }
}
