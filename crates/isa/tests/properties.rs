//! Randomized instruction-encoding invariants, over instructions and
//! payloads drawn from the workspace's seeded generator.

use com_cache::Rng;
use com_isa::{Instr, IsaError, Opcode, Operand};

const CASES: u32 = 4096;

fn dst_operand(rng: &mut Rng) -> Operand {
    let slot = rng.below(64) as u8;
    match rng.below(2) {
        0 => Operand::Cur(slot),
        _ => Operand::Next(slot),
    }
}

fn src_operand(rng: &mut Rng) -> Operand {
    match rng.below(3) {
        0 => Operand::Const(rng.below(128) as u8),
        _ => dst_operand(rng),
    }
}

/// Every constructible three- and zero-address instruction round-trips
/// through its 36-bit encoding; a constant in the destination slot is
/// rejected for every opcode; and `sources()` / `destination()` agree with
/// the operand fields: sources are exactly B and C, and the destination is
/// A except for jumps and stores.
#[test]
fn instructions_roundtrip_and_keep_their_operand_contract() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let op = Opcode(rng.below(0x400) as u16);
        let ret = rng.below(2) == 0;
        let (a, b, c) = (
            dst_operand(&mut rng),
            src_operand(&mut rng),
            src_operand(&mut rng),
        );
        let i = Instr::three_ret(op, a, b, c, ret).expect("valid");
        assert!(i.encode() < (1 << 36), "payload exceeds 36 bits");
        assert_eq!(Instr::decode(i.encode()).expect("decodes"), i);

        let z = Instr::zero(op, rng.below(3) as u8, ret).expect("valid");
        assert_eq!(Instr::decode(z.encode()).expect("decodes"), z);

        let k = Operand::Const(rng.below(128) as u8);
        assert!(matches!(
            Instr::three(op, k, b, c),
            Err(IsaError::MisplacedConstant { position: 0 })
        ));

        assert_eq!(i.sources(), vec![b, c]);
        if op == Opcode::FJMP || op == Opcode::RJMP || op == Opcode::ATPUT {
            assert_eq!(i.destination(), None);
        } else {
            assert_eq!(i.destination(), Some(a));
        }
    }
}

/// Decoding never panics: over arbitrary 36-bit patterns, whatever decodes
/// re-encodes to the same bits (decode is a partial inverse of encode),
/// and every payload above 36 bits is rejected.
#[test]
fn decode_is_a_partial_inverse_of_encode() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let bits = rng.next_u64();
        let raw = bits & ((1 << 36) - 1);
        if let Ok(i) = Instr::decode(raw) {
            assert_eq!(i.encode(), raw);
        }
        let wide = bits | (1 << 36);
        assert!(matches!(Instr::decode(wide), Err(IsaError::BadEncoding(_))));
    }
}
