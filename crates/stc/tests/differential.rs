//! Differential testing: randomly generated arithmetic/control programs
//! must produce identical results on the COM (three-address) and the Fith
//! (stack) machine, and on every COM cache geometry — the two backends
//! cross-validate each other and both machines underneath. Programs are
//! drawn from the workspace's seeded generator, so a failure names a
//! reproducible source text.

use com_cache::Rng;
use com_core::{Machine, MachineConfig};
use com_fith::FithMachine;
use com_mem::Word;
use com_stc::{compile_com, compile_fith, CompileOptions};

/// Generated programs per run.
const PROGRAMS: usize = 1000;
const FUEL: u64 = 5_000_000;

/// Renders a random expression of at most `depth` nested operations as
/// COM Smalltalk source. Products reduce their operands modulo 997 and
/// modulo adds one to the absolute divisor, so no program overflows or
/// divides by zero.
fn expr(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(2) {
            0 => "self".to_string(),
            _ => match rng.below(19) as i64 - 9 {
                n if n < 0 => format!("(0 - {})", -n),
                n => n.to_string(),
            },
        };
    }
    let a = expr(rng, depth - 1);
    let b = expr(rng, depth - 1);
    match rng.below(6) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} - {b})"),
        2 => format!("(({a} \\\\ 997) * ({b} \\\\ 997))"),
        3 => format!("({a} \\\\ (({b}) abs + 1))"),
        4 => format!("({a} min: {b})"),
        _ => format!(
            "(({a}) > 0 ifTrue: [ {b} ] ifFalse: [ {} ])",
            expr(rng, depth - 1)
        ),
    }
}

/// COM, under the paper machine and each ablated cache geometry, agrees
/// with Fith on every generated program: equal results, or a trap on both.
#[test]
fn com_and_fith_agree_on_random_programs() {
    let configs = [
        MachineConfig::default(),
        MachineConfig::default().without_itlb(),
        MachineConfig::default().without_context_cache(),
        MachineConfig::default().with_ctx_blocks(4),
    ];
    let opts = CompileOptions::default();
    let mut rng = Rng::new(1985);
    for _ in 0..PROGRAMS {
        let src = format!(
            "class SmallInteger method probe ^{} end end",
            expr(&mut rng, 3)
        );
        let recv = Word::Int(rng.below(100) as i64 - 50);
        let com_image = compile_com(&src, opts).expect("COM compiles");
        let fith_image = compile_fith(&src, opts).expect("Fith compiles");
        let fith = FithMachine::new(&fith_image)
            .send(&fith_image, "probe", recv, &[], FUEL)
            .map(|r| r.result);
        for cfg in configs {
            let mut m = Machine::new(cfg);
            m.load(&com_image).expect("loads");
            let com = m.send("probe", recv, &[], FUEL).map(|r| r.result);
            match (&com, &fith) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{cfg:?} (self = {recv:?}): {src}"),
                (Err(_), Err(_)) => {}
                _ => panic!("divergent outcomes {com:?} vs {fith:?} under {cfg:?}: {src}"),
            }
        }
    }
}
