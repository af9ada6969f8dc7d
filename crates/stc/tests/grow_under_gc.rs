//! Machine-level regression for `rawGrow:` under generational collection:
//! an array is grown after promotion while its old name is held only by a
//! tenured holder, then a minor collection runs before the program reads
//! through that old name past its old length, which forwards to the new
//! name (§2.2).

use com_core::{Machine, MachineConfig};
use com_mem::Word;
use com_stc::{compile_com, CompileOptions};

/// Each `300 spin` retires about 1,500 instructions, so at the benchmark's
/// allocating cadence (a minor collection every 1,009 steps) the first
/// spin promotes the holder and the array, and the second collects after
/// the grow. No context keeps a name of the array across that collection:
/// no send ever receives it, `a := 0` drops the named copy, and the
/// integer sum reuses the scratch slots of the grow statement. The only
/// path left is holder -> old name -(forward)-> new name.
const PROGRAM: &str = r#"
class SmallInteger
  method spin | acc | acc := 0. 1 to: self do: [ :i | acc := acc + i ]. ^acc end
  method aliasProbe | h a |
    h := 1 newArray.
    a := 4 newArray.
    a rawAt: 1 put: self.
    h rawAt: 1 put: a.
    a := 0.
    300 spin.
    ((h rawAt: 1) rawGrow: 64) rawAt: 40 put: self + 1.
    a := (self + 1) + ((self + 2) + ((self + 3) + (self + 4))).
    300 spin.
    ^((h rawAt: 1) rawAt: 1) + ((h rawAt: 1) rawAt: 40)
  end
end
"#;

#[test]
fn grown_array_kept_only_by_a_tenured_alias_survives_minor_gc() {
    let image = compile_com(PROGRAM, CompileOptions::default()).unwrap();
    for cfg in [
        MachineConfig::default(),
        MachineConfig::default().without_context_cache(),
    ] {
        let cfg = cfg.with_generational_gc(1009, 8 * 1009);
        let observe = |stepwise: bool| {
            let mut m = Machine::new(cfg);
            m.load(&image).unwrap();
            let sel = m.selector("aliasProbe").unwrap();
            m.start_send(sel, Word::Int(42), &[]).unwrap();
            let r = if stepwise {
                m.run_stepwise(1_000_000)
            } else {
                m.run(1_000_000)
            };
            (r.map(|r| (r.result, r.steps)), m.stats())
        };
        let (fast, stats) = observe(false);
        assert_eq!(
            (fast.clone(), stats),
            observe(true),
            "loops diverged under {cfg:?}"
        );
        let (result, _) = fast.unwrap_or_else(|e| panic!("{e} under {cfg:?}"));
        assert_eq!(result, Word::Int(42 + 43), "under {cfg:?}");
        assert!(stats.gc_minor_runs >= 2, "both spins must collect");
    }
}
