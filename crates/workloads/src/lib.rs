//! Benchmark workloads: the reproduction's equivalent of the paper's
//! "traces of large Fith programs" (§5).
//!
//! Each workload is a COM Smalltalk program whose entry point is a method
//! on `SmallInteger` (the receiver is the problem size), with a known
//! expected answer so every run is self-checking. Workloads marked
//! [`Workload::com_only`] use real block objects and therefore run only on
//! the COM backend (the Fith stack backend supports inlinable blocks only).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use com_core::{MachineConfig, MachineError, RunResult};
use com_fith::{FithMachine, FithResult};
use com_mem::Word;
use com_stc::{compile_fith, CompileOptions};
use com_trace::Trace;
use com_vm::{Session, Vm, VmError};

/// One benchmark program.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Short name (report rows, bench ids).
    pub name: &'static str,
    /// What the workload exercises.
    pub description: &'static str,
    /// Program source (stdlib is prepended at compile time).
    pub source: &'static str,
    /// Entry selector (a method on `SmallInteger`).
    pub entry: &'static str,
    /// Receiver: the problem size.
    pub size: i64,
    /// Expected integer result (self-check).
    pub expected: i64,
    /// Uses real block objects — COM backend only.
    pub com_only: bool,
}

/// `sort` — the polymorphic quicksort of the paper's introduction: one
/// routine sorting a mixed array of integers and floats through late-bound
/// `<`.
pub const SORT: Workload = Workload {
    name: "sort",
    description: "polymorphic quicksort over mixed ints and floats",
    source: r#"
class SmallInteger
  method sortBench | a seed |
    a := self newArray.
    seed := 12345.
    1 to: self do: [ :i |
      seed := (seed * 1309 + 13849) \\ 65536.
      i even
        ifTrue: [ a at: i put: seed ]
        ifFalse: [ a at: i put: seed * 1.0 ] ].
    a sort.
    a isSorted ifTrue: [ ^1 ]. ^0
  end
end
"#,
    entry: "sortBench",
    size: 220,
    expected: 1,
    com_only: false,
};

/// `trees` — binary search tree build + traversal: allocation pressure,
/// deep recursion, pointer-chasing.
pub const TREES: Workload = Workload {
    name: "trees",
    description: "binary tree insertion and traversal",
    source: r#"
class TreeNode extends Object
  vars key left right
  method setKey: k key := k. left := 0. right := 0. ^self end
  method key ^key end
  method insert: k
    k < key
      ifTrue: [ left == 0
          ifTrue: [ left := TreeNode new setKey: k ]
          ifFalse: [ left insert: k ] ]
      ifFalse: [ right == 0
          ifTrue: [ right := TreeNode new setKey: k ]
          ifFalse: [ right insert: k ] ].
    ^self
  end
  method total | t |
    t := key.
    (left == 0) not ifTrue: [ t := t + left total ].
    (right == 0) not ifTrue: [ t := t + right total ].
    ^t
  end
  method depth | l r |
    l := 1. r := 1.
    (left == 0) not ifTrue: [ l := 1 + left depth ].
    (right == 0) not ifTrue: [ r := 1 + right depth ].
    ^l max: r
  end
end
class SmallInteger
  method treeBench | root seed total |
    seed := 7.
    root := TreeNode new setKey: 32768.
    total := 32768.
    1 to: self do: [ :i |
      seed := (seed * 1309 + 13849) \\ 65536.
      root insert: seed.
      total := total + seed ].
    (root total = total) ifTrue: [ ^root depth ]. ^0 - 1
  end
end
"#,
    entry: "treeBench",
    size: 230,
    expected: 14,
    com_only: false,
};

/// `dispatch` — megamorphic sends: eight shape classes answering the same
/// selectors, stressing the ITLB exactly where late binding is priced.
pub const DISPATCH: Workload = Workload {
    name: "dispatch",
    description: "megamorphic dispatch across eight classes",
    source: r#"
class Shape extends Object
  method area ^0 end
  method weight ^1 end
end
class Sq extends Shape vars s
  method s: v s := v. ^self end
  method area ^s * s end
end
class Rect extends Shape vars w h
  method w: a h: b w := a. h := b. ^self end
  method area ^w * h end
end
class Tri extends Shape vars b h
  method b: a h: c b := a. h := c. ^self end
  method area ^(b * h) / 2 end
end
class Circ extends Shape vars r
  method r: v r := v. ^self end
  method area ^(r * r * 355) / 113 end
end
class Line extends Shape
  method area ^0 end
  method weight ^2 end
end
class Dot extends Shape
  method area ^1 end
end
class Hex extends Shape vars s
  method s: v s := v. ^self end
  method area ^(s * s * 26) / 10 end
end
class SmallInteger
  method dispatchBench | shapes acc k |
    shapes := 8 newArray.
    shapes at: 1 put: (Sq new s: 3).
    shapes at: 2 put: (Rect new w: 4 h: 5).
    shapes at: 3 put: (Tri new b: 6 h: 7).
    shapes at: 4 put: (Circ new r: 2).
    shapes at: 5 put: Line new.
    shapes at: 6 put: Dot new.
    shapes at: 7 put: (Hex new s: 3).
    shapes at: 8 put: Shape new.
    acc := 0.
    1 to: self do: [ :i |
      k := (i \\ 8) + 1.
      acc := acc + (shapes at: k) area + (shapes at: k) weight ].
    ^acc
  end
end
"#,
    entry: "dispatchBench",
    size: 600,
    expected: 7125,
    com_only: false,
};

/// `arith` — numeric kernel: mixed integer/float arithmetic, gcd chains,
/// bit-field work; primitive-dominated instruction mix.
pub const ARITH: Workload = Workload {
    name: "arith",
    description: "mixed-mode arithmetic and bit-field kernel",
    source: r#"
class SmallInteger
  method arithBench | acc f g |
    acc := 0. f := 1.5.
    1 to: self do: [ :i |
      acc := acc + (i * i \\ 97).
      acc := acc bitXor: (i shift: 3).
      f := f * 1.000001.
      g := i gcd: 1071.
      acc := acc + g.
      (f > 2.0) ifTrue: [ f := f / 2.0 ] ].
    ^acc \\ 1000003
  end
end
"#,
    entry: "arithBench",
    size: 500,
    expected: 31428,
    com_only: false,
};

/// `collections` — OrderedCollection churn: repeated `add:` forcing
/// geometric growth through the §2.2 `rawGrow:` aliasing path.
pub const COLLECTIONS: Workload = Workload {
    name: "collections",
    description: "growable collection churn (floating point address growth)",
    source: r#"
class SmallInteger
  method collBench | c |
    c := OrderedCollection new init.
    1 to: self do: [ :i | c add: i * 3 ].
    c sort.
    ^c sum \\ 1000003
  end
end
"#,
    entry: "collBench",
    size: 260,
    expected: 101790,
    com_only: false,
};

/// `image` — the small-object-problem's *large* tail: a whole image as one
/// big segment, plus a box-blur pass allocating a second one (§2.2's image
/// processing motivation).
pub const IMAGE: Workload = Workload {
    name: "image",
    description: "large-segment image blur (big objects)",
    source: r#"
class SmallInteger
  method imageBench | w img out acc v p |
    w := self.
    img := (w * w) newArray.
    1 to: w * w do: [ :i | img at: i put: (i * 7 \\ 256) ].
    out := (w * w) newArray.
    out fill: 0.
    2 to: w - 1 do: [ :y |
      2 to: w - 1 do: [ :x |
        p := (y - 1) * w + x.
        v := (img at: p) + (img at: p - 1) + (img at: p + 1)
             + (img at: p - w) + (img at: p + w).
        out at: p put: v / 5 ] ].
    acc := out sum.
    ^acc \\ 1000003
  end
end
"#,
    entry: "imageBench",
    size: 28,
    expected: 85939,
    com_only: false,
};

/// `closures` — real block objects capturing and mutating their home
/// contexts: the §2.3 non-LIFO context source. COM only.
pub const CLOSURES: Workload = Workload {
    name: "closures",
    description: "escaping blocks mutating captured variables (non-LIFO contexts)",
    source: r#"
class SmallInteger
  method closureBench | acc addc mulc i |
    acc := 0.
    addc := [ :d | acc := acc + d ].
    mulc := [ :d | acc := acc * d ].
    i := 1.
    [ i <= self ] whileTrue: [
      addc value: i.
      (i \\ 7) = 0 ifTrue: [ mulc value: 2. acc := acc \\ 99991 ].
      i := i + 1 ].
    ^acc
  end
end
"#,
    entry: "closureBench",
    size: 400,
    expected: 96599,
    com_only: true,
};

/// `churn` — the generational-GC workload: a long-lived ballast array and
/// a growing survivor collection (the tenured generation) against a stream
/// of short-lived scratch arrays that die within one iteration (the
/// nursery). Under a minor-collection cadence, reclamation cost tracks the
/// per-iteration garbage; under full collections it tracks the whole live
/// heap. Self-checking closed form: for n iterations,
/// `acc = Σ i + Σ ((i mod 8)+1)`, `keep sum = Σ multiples of 10 ≤ n`, plus
/// the ballast probe `big at: n = n`.
pub const CHURN: Workload = Workload {
    name: "churn",
    description: "allocation churn against tenured ballast (generational GC)",
    source: r#"
class SmallInteger
  method churnBench | n big keep tmp acc |
    n := self.
    big := (n * 4) newArray.
    1 to: n * 4 do: [ :j | big at: j put: j ].
    keep := OrderedCollection new init.
    acc := 0.
    1 to: n do: [ :i |
      tmp := 8 newArray.
      1 to: 8 do: [ :j | tmp at: j put: i + j ].
      acc := acc + (tmp at: ((i \\ 8) + 1)).
      (i \\ 10) = 0 ifTrue: [ keep add: i ] ].
    ^acc + keep sum + (big at: n)
  end
end
"#,
    entry: "churnBench",
    size: 200,
    expected: 23300, // 20100 + 900 + 2100 + 200 (closed form above)
    com_only: false,
};

/// `dnu_proxy` — software trap dispatch: every `log:` send to the proxy
/// fails method lookup and re-dispatches through the proxy's
/// `doesNotUnderstand:` handler (which accumulates the reified
/// arguments), and one divide-by-zero routes through `SmallInteger`'s
/// `badOperands:` handler — the program runs *through* its traps to a
/// closed-form answer. COM only: the Fith backend has no software trap
/// dispatch, so its traps stay terminal.
///
/// Self-check for size n: the i-th failed `log:` returns the running sum
/// `T_i = i(i+1)/2`, so the loop accumulates `Σ T_i = n(n+1)(n+2)/6`;
/// `count` adds n; the handled divide-by-zero adds 1 000 000.
pub const DNU_PROXY: Workload = Workload {
    name: "dnu_proxy",
    description: "doesNotUnderstand:/badOperands: handlers carry the program through its traps",
    source: r#"
class Proxy extends Object
  vars count sum
  method initProxy count := 0. sum := 0. ^self end
  method count ^count end
  method doesNotUnderstand: msg
    count := count + 1.
    sum := sum + (msg rawAt: 2).
    ^sum
  end
end
class SmallInteger
  method badOperands: msg ^1000000 end
  method dnuBench | p acc |
    p := Proxy new initProxy.
    acc := 0.
    1 to: self do: [ :i | acc := acc + (p log: i) ].
    acc := acc + p count.
    acc := acc + (7 / (self - self)).
    ^acc
  end
end
"#,
    entry: "dnuBench",
    size: 60,
    expected: 1_037_880, // 60*61*62/6 + 60 + 1_000_000
    com_only: true,
};

/// `calls` — doubly recursive Fibonacci: maximal call/return density for
/// the context cache and call-cost experiments.
pub const CALLS: Workload = Workload {
    name: "calls",
    description: "doubly recursive fib (call/return density)",
    source: r#"
class SmallInteger
  method fib
    self < 2 ifTrue: [ ^self ].
    ^(self - 1) fib + (self - 2) fib
  end
end
"#,
    entry: "fib",
    size: 15,
    expected: 610,
    com_only: false,
};

/// `scheduler` — a Richards-style task scheduler: a ring of heterogeneous
/// task objects (idle, worker, handler) exchanging packets through
/// polymorphic `run:` sends; the canonical OO-machine workload shape.
pub const SCHEDULER: Workload = Workload {
    name: "scheduler",
    description: "Richards-style polymorphic task scheduler",
    source: r#"
class Packet extends Object
  vars kind datum
  method kind: k datum: d kind := k. datum := d. ^self end
  method kind ^kind end
  method datum ^datum end
end

class Task extends Object
  vars state work
  method initTask state := 0. work := 0. ^self end
  method work ^work end
  method run: p ^0 end
end

class IdleTask extends Task
  vars control
  method initIdle control := 1. ^self initTask end
  method run: p
    work := work + 1.
    control := (control * 53) \\ 79.
    ^control \\ 3
  end
end

class WorkerTask extends Task
  vars sum
  method initWorker sum := 0. ^self initTask end
  method run: p
    work := work + 1.
    sum := (sum + p datum) \\ 99991.
    ^sum \\ 3
  end
  method sum ^sum end
end

class HandlerTask extends Task
  vars queueLen
  method initHandler queueLen := 0. ^self initTask end
  method run: p
    work := work + 1.
    p kind = 1
      ifTrue: [ queueLen := queueLen + 1 ]
      ifFalse: [ queueLen := queueLen max: 1. queueLen := queueLen - 1 ].
    ^queueLen \\ 3
  end
end

class SmallInteger
  method schedBench | tasks packets t p pick seed total i |
    tasks := 6 newArray.
    tasks at: 1 put: IdleTask new initIdle.
    tasks at: 2 put: WorkerTask new initWorker.
    tasks at: 3 put: HandlerTask new initHandler.
    tasks at: 4 put: WorkerTask new initWorker.
    tasks at: 5 put: HandlerTask new initHandler.
    tasks at: 6 put: IdleTask new initIdle.
    packets := 4 newArray.
    packets at: 1 put: (Packet new kind: 1 datum: 7).
    packets at: 2 put: (Packet new kind: 2 datum: 11).
    packets at: 3 put: (Packet new kind: 1 datum: 13).
    packets at: 4 put: (Packet new kind: 2 datum: 17).
    seed := 5. i := 1.
    [ i <= self ] whileTrue: [
      seed := (seed * 1309 + 13849) \\ 65536.
      t := tasks at: (seed \\ 6) + 1.
      p := packets at: (seed \\ 4) + 1.
      pick := t run: p.
      pick = 0 ifTrue: [ t run: (packets at: 1) ].
      i := i + 1 ].
    total := 0.
    1 to: 6 do: [ :k | total := total + (tasks at: k) work ].
    ^total
  end
end
"#,
    entry: "schedBench",
    size: 300,
    expected: 475, // calibrated; both machines agree (differential test)
    com_only: false,
};

/// All workloads, in report order.
pub fn all() -> Vec<Workload> {
    vec![
        SORT,
        TREES,
        DISPATCH,
        ARITH,
        COLLECTIONS,
        IMAGE,
        CLOSURES,
        CHURN,
        DNU_PROXY,
        CALLS,
        SCHEDULER,
    ]
}

/// The workloads both backends run (for the T3 comparison).
pub fn portable() -> Vec<Workload> {
    all().into_iter().filter(|w| !w.com_only).collect()
}

/// Builds a [`Vm`] serving one workload's program — compile once, spawn
/// as many tenant sessions as the experiment needs.
///
/// # Panics
///
/// Panics if the workload fails to compile (workloads are shipped code).
pub fn vm_for(w: &Workload, config: MachineConfig, options: CompileOptions) -> Vm {
    Vm::builder()
        .source(w.source)
        .config(config)
        .options(options)
        .build()
        .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.name))
}

/// Runs a workload's entry send on an existing session.
///
/// # Errors
///
/// Propagates machine traps (including budget exhaustion).
pub fn run_on(w: &Workload, session: &mut Session, max_steps: u64) -> Result<RunResult, VmError> {
    session.send_raw(w.entry, Word::Int(w.size), &[], max_steps)
}

/// Starts a workload's entry send as a resumable call on an existing
/// session — the form the cooperative [`com_vm::Scheduler`] and the
/// [`com_vm::ParallelExecutor`] drain.
///
/// # Errors
///
/// Propagates [`com_vm::VmError::CallInProgress`] and allocation traps.
pub fn start_on(w: &Workload, session: &mut Session) -> Result<(), VmError> {
    session.call_start_with(w.entry, Word::Int(w.size), &[])
}

/// Compiles and runs a workload on the COM through the embedding facade,
/// returning the run and the session that performed it (statistics,
/// spaces and caches stay inspectable).
///
/// # Errors
///
/// Propagates machine errors; the self-check answer is returned for
/// callers to inspect.
///
/// # Panics
///
/// Panics if the workload fails to compile.
pub fn run_com(
    w: &Workload,
    config: MachineConfig,
    max_steps: u64,
) -> Result<(RunResult, Session), VmError> {
    run_com_with_options(w, config, CompileOptions::default(), max_steps)
}

/// Compiles and runs a workload on the COM with non-default compile
/// options (ablation A3).
///
/// # Errors
///
/// As [`run_com`].
///
/// # Panics
///
/// As [`run_com`].
pub fn run_com_with_options(
    w: &Workload,
    config: MachineConfig,
    options: CompileOptions,
    max_steps: u64,
) -> Result<(RunResult, Session), VmError> {
    let vm = vm_for(w, config, options);
    let mut session = vm.session()?;
    let out = run_on(w, &mut session, max_steps)?;
    Ok((out, session))
}

/// Compiles and runs a workload on the Fith stack machine.
///
/// # Errors
///
/// Propagates machine errors.
///
/// # Panics
///
/// Panics if the workload is COM-only or fails to compile.
pub fn run_fith(w: &Workload, max_steps: u64) -> Result<(FithResult, FithMachine), MachineError> {
    assert!(!w.com_only, "workload {} is COM-only", w.name);
    let image = compile_fith(w.source, CompileOptions::default())
        .unwrap_or_else(|e| panic!("workload {} failed to compile for fith: {e}", w.name));
    let mut m = FithMachine::new(&image);
    let out = m.send(&image, w.entry, Word::Int(w.size), &[], max_steps)?;
    Ok((out, m))
}

/// Runs a workload on the Fith machine with tracing enabled, returning the
/// trace (the §5 methodology's input).
///
/// # Errors
///
/// Propagates machine errors.
pub fn trace_fith(w: &Workload, max_steps: u64) -> Result<(Trace, FithResult), MachineError> {
    assert!(!w.com_only, "workload {} is COM-only", w.name);
    let image = compile_fith(w.source, CompileOptions::default())
        .unwrap_or_else(|e| panic!("workload {} failed to compile for fith: {e}", w.name));
    let mut m = FithMachine::new(&image);
    m.enable_trace();
    let out = m.send(&image, w.entry, Word::Int(w.size), &[], max_steps)?;
    let trace = m.take_trace().expect("tracing enabled");
    Ok((trace, out))
}

/// Default step budget generous enough for every stock workload.
pub const MAX_STEPS: u64 = 50_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_on_com_and_self_checks() {
        // With control-flow inlining on, and off as in the A3 ablation,
        // where conditionals and loops run as real blocks.
        let no_inline = CompileOptions {
            inline_control_flow: false,
            with_stdlib: true,
        };
        for w in all() {
            for options in [CompileOptions::default(), no_inline] {
                let (out, _) =
                    run_com_with_options(&w, MachineConfig::default(), options, MAX_STEPS)
                        .unwrap_or_else(|e| panic!("{} failed ({options:?}): {e}", w.name));
                assert_eq!(
                    out.result,
                    Word::Int(w.expected),
                    "{} produced wrong answer ({options:?})",
                    w.name
                );
            }
        }
    }

    #[test]
    fn portable_workloads_agree_between_machines() {
        for w in portable() {
            let (com, _) = run_com(&w, MachineConfig::default(), MAX_STEPS).unwrap();
            let (fith, _) = run_fith(&w, MAX_STEPS).unwrap();
            assert_eq!(com.result, fith.result, "{}: COM and Fith disagree", w.name);
        }
    }

    #[test]
    fn dnu_proxy_routes_traps_through_handlers_on_both_interpreter_loops() {
        // Threaded loop, via the facade.
        let (out, _) = run_com(&DNU_PROXY, MachineConfig::default(), MAX_STEPS).unwrap();
        assert_eq!(out.result, Word::Int(DNU_PROXY.expected));
        // Every log: send plus the divide-by-zero dispatched in software.
        assert_eq!(out.stats.soft_traps, DNU_PROXY.size as u64 + 1);
        // Reference loop: a fresh session over the same image, driven by
        // the single-step interpreter. Bit-identical or the two loops'
        // dispatch-handler behavior silently diverged.
        let vm = vm_for(
            &DNU_PROXY,
            MachineConfig::default(),
            CompileOptions::default(),
        );
        let mut s = vm.session().unwrap();
        let m = s.machine_mut();
        let sel = m.opcodes().get(DNU_PROXY.entry).unwrap();
        m.start_send(sel, Word::Int(DNU_PROXY.size), &[]).unwrap();
        let b = m.run_stepwise(MAX_STEPS).unwrap();
        assert_eq!(b.result, out.result);
        assert_eq!(
            b.stats, out.stats,
            "dnu_proxy diverged between run and run_stepwise"
        );
    }

    #[test]
    fn traces_are_substantial() {
        // The paper's longest trace was ~20k instructions; ours should be
        // in that ballpark or larger for the headline workloads.
        let (trace, _) = trace_fith(&SORT, MAX_STEPS).unwrap();
        assert!(
            trace.len() > 20_000,
            "sort trace only {} events",
            trace.len()
        );
    }
}
