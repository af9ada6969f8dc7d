//! The standard library: the "toolkits" of reusable late-bound code that
//! §2.1 argues late binding makes practical. Compiled into every program by
//! default; written to run on both the COM and the Fith backends (no
//! general blocks — only inlinable control flow).

/// Prelude source prepended to user programs.
pub const PRELUDE: &str = r#"
"=== COM Smalltalk standard library ==="

class Object
  method isNil ^false end
  method yourself ^self end
end

"Software trap handlers: defining 'method doesNotUnderstand: msg' (or
 'method badOperands: msg') on any class installs that class's handler —
 a failed send (or a function-unit operand trap, e.g. divide by zero)
 whose receiver is an instance re-dispatches to the handler instead of
 killing the program, and the handler's answer becomes the faulting
 operation's result. The reified message is a 3-word object read with
 the fixed-opcode rawAt: — 'msg rawAt: 0' is the failed selector's
 opcode, 'msg rawAt: 1' the send's nargs (receiver included), and
 'msg rawAt: 2' the transmitted argument. (Deliberately not wrapped in
 stdlib accessor methods: the prelude interns no selectors for this, so
 programs that never install a handler get byte-identical images.)"

class UndefinedObject
  method isNil ^true end
end

class Atom
  method not self ifTrue: [ ^false ]. ^true end
  method isNil ^self == nil end
end

class SmallInteger
  method abs self < 0 ifTrue: [ ^0 - self ]. ^self end
  method min: x self < x ifTrue: [ ^self ]. ^x end
  method max: x self > x ifTrue: [ ^self ]. ^x end
  method between: lo and: hi ^(self >= lo) and: [ self <= hi ] end
  method even ^(self \\ 2) = 0 end
  method odd ^(self \\ 2) = 1 end
  method sign self < 0 ifTrue: [ ^0 - 1 ]. self > 0 ifTrue: [ ^1 ]. ^0 end
  method squared ^self * self end
  method gcd: x | a b t |
    a := self abs. b := x abs.
    [ b > 0 ] whileTrue: [ t := a \\ b. a := b. b := t ].
    ^a
  end
  method newArray ^(Array new: self) setTally: self end
end

class Float
  method abs self < 0.0 ifTrue: [ ^0.0 - self ]. ^self end
  method min: x self < x ifTrue: [ ^self ]. ^x end
  method max: x self > x ifTrue: [ ^self ]. ^x end
  method squared ^self * self end
end

"Indexable storage. Word 0 holds the element count (tally); elements are
 1-based at words 1..tally, so rawAt: i addresses element i directly."
class Array extends Object
  vars tally
  method setTally: n tally := n. ^self end
  method size ^tally end
  method at: i ^self rawAt: i end
  method at: i put: v ^self rawAt: i put: v end
  method first ^self rawAt: 1 end
  method last ^self rawAt: tally end
  method fill: v 1 to: tally do: [ :i | self rawAt: i put: v ]. ^self end
  method sum | acc | acc := 0. 1 to: tally do: [ :i | acc := acc + (self rawAt: i) ]. ^acc end
  method maxElement | m |
    m := self rawAt: 1.
    2 to: tally do: [ :i | m := m max: (self rawAt: i) ].
    ^m
  end
  method swap: i with: j | t |
    t := self rawAt: i.
    self rawAt: i put: (self rawAt: j).
    self rawAt: j put: t.
    ^self
  end
  "Polymorphic quicksort: elements are compared with <, so one routine
   sorts integers, floats, or any class defining < — the reusable general
   sort the paper's introduction promises."
  method quicksortFrom: lo to: hi | i j pv |
    lo >= hi ifTrue: [ ^self ].
    i := lo. j := hi. pv := self rawAt: (lo + hi) / 2.
    [ i <= j ] whileTrue: [
      [ (self rawAt: i) < pv ] whileTrue: [ i := i + 1 ].
      [ pv < (self rawAt: j) ] whileTrue: [ j := j - 1 ].
      i <= j ifTrue: [ self swap: i with: j. i := i + 1. j := j - 1 ] ].
    self quicksortFrom: lo to: j.
    self quicksortFrom: i to: hi.
    ^self
  end
  method sort ^self quicksortFrom: 1 to: tally end
  method isSorted | ok |
    ok := true.
    2 to: tally do: [ :i |
      (self rawAt: i) < (self rawAt: i - 1) ifTrue: [ ok := false ] ].
    ^ok
  end
end

"Growable sequence backed by an Array; growth exercises the §2.2
 floating point address aliasing machinery through rawGrow:."
class OrderedCollection extends Object
  vars items count
  method init items := 4 newArray. count := 0. ^self end
  method size ^count end
  method capacity ^items size end
  method add: v
    count = items size ifTrue: [ self growTo: count * 2 + 4 ].
    count := count + 1.
    items rawAt: count put: v.
    ^v
  end
  method growTo: n
    items := items rawGrow: n + 1.
    items setTally: n.
    ^self
  end
  method at: i ^items rawAt: i end
  method at: i put: v ^items rawAt: i put: v end
  method first ^items rawAt: 1 end
  method last ^items rawAt: count end
  method sum | acc | acc := 0. 1 to: count do: [ :i | acc := acc + (items rawAt: i) ]. ^acc end
  method sort items quicksortFrom: 1 to: count. ^self end
  method isSorted | ok |
    ok := true.
    2 to: count do: [ :i |
      (items rawAt: i) < (items rawAt: i - 1) ifTrue: [ ok := false ] ].
    ^ok
  end
end
"#;

#[cfg(test)]
mod tests {
    use crate::{compile_com, compile_fith, CompileOptions};

    #[test]
    fn prelude_compiles_on_both_backends() {
        compile_com("", CompileOptions::default()).expect("COM prelude");
        compile_fith("").expect("Fith prelude");
    }
}
