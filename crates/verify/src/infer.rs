//! Whole-image class inference: the interprocedural tier.
//!
//! An abstract interpretation over verified images that computes, for
//! every instruction (every instruction is a send), the set of classes
//! its dispatch can ever key on. The domain is a lattice of class sets
//! per context slot — the closed world of [`ClassTable`] ids — seeded
//! from constants, `new` sites and the dispatch invariant itself
//! (a method only runs when lookup on the receiver's class lands on it),
//! and propagated through the existing CFG with conservative havoc only
//! at truly-unknown joins (context-escaping callees, privileged retags).
//!
//! The machine semantics the transfer function mirrors (see
//! `com-core`'s `Machine`):
//!
//! * **Three-address** sends key on the B operand's class (and C's);
//!   a call writes the callee's `arg0` = pointer to the A slot,
//!   `arg1` = B, `arg2` = C.
//! * **Zero-address** sends key on `next[1]` (and `next[2]` when
//!   `nargs >= 2`); the caller stages arguments into the next context
//!   itself, so a callee may receive *any* staged slot — the only
//!   entry-state guarantee is the dispatch invariant on slot 1.
//! * After **every** call returns, the caller's next context is fresh
//!   (recycled contexts are cleared), so staged state resets to
//!   "uninitialised".
//! * A callee writes its result through the pointer in its `arg0` —
//!   possibly never (no-result returns), hence result joins are weak.
//! * Context addresses escape via `movea` (block homes, result
//!   pointers); a callee that may write through a context pointer can
//!   mutate its caller's frame, so calls into such callees havoc the
//!   caller's slots. The `may_write_ctx` fact is computed transitively
//!   as part of the global fixpoint.
//!
//! Soundness contract (tested by the differential suite): for every
//! site, every receiver class the interpreter ever dispatches on is
//! contained in the inferred receiver set.

use std::collections::HashMap;

use com_core::ProgramImage;
use com_isa::{CodeObject, Instr, Opcode, Operand, PrimOp, ResultShape};
use com_mem::{ClassId, Word};
use com_obj::{ClassTable, MethodRef, TrapSelector};

use crate::cfg::Cfg;
use crate::check::verify_image;
use crate::dataflow::N_SLOTS;
use crate::error::VerifyError;

/// The most classes the dense bitset domain can represent. Images beyond
/// this (none shipped are within two orders of magnitude) get a
/// [`degraded`](Inference::degraded) inference: trivially sound, no
/// sites resolved.
pub const MAX_CLASSES: usize = 256;
const SET_WORDS: usize = MAX_CLASSES / 64;

/// A set of classes, dense over a [`ClassUniverse`]'s index space.
///
/// Bit *i* means "the class at universe index *i* may occur". All
/// operations are pure bit algebra; interpreting members needs the
/// universe ([`ClassUniverse::classes_in`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ClassSet {
    bits: [u64; SET_WORDS],
}

impl ClassSet {
    /// The empty set (⊥ of the lattice).
    pub const EMPTY: ClassSet = ClassSet {
        bits: [0; SET_WORDS],
    };

    fn insert(&mut self, index: usize) {
        self.bits[index / 64] |= 1 << (index % 64);
    }

    fn contains_index(&self, index: usize) -> bool {
        self.bits[index / 64] & (1 << (index % 64)) != 0
    }

    /// Unions `other` in; reports whether the set grew.
    pub fn union(&mut self, other: &ClassSet) -> bool {
        let mut grew = false;
        for (w, o) in self.bits.iter_mut().zip(other.bits.iter()) {
            let next = *w | *o;
            grew |= next != *w;
            *w = next;
        }
        grew
    }

    /// Whether no class is in the set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Number of classes in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `self` is a subset of `other`.
    pub fn subset_of(&self, other: &ClassSet) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .all(|(a, b)| a & !b == 0)
    }

    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..MAX_CLASSES).filter(move |i| self.contains_index(*i))
    }
}

impl core::fmt::Debug for ClassSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ClassSet{:?}", self.indices().collect::<Vec<_>>())
    }
}

/// The closed world the inference ranges over: every class the image
/// registers, plus the machine's `Context` class (defined at adoption
/// if the image does not carry one — mirrored here).
#[derive(Debug, Clone)]
pub struct ClassUniverse {
    /// The image's class table with `Context` guaranteed present.
    pub classes: ClassTable,
    /// The class the machine tags context pointers with.
    pub context: ClassId,
    ids: Vec<ClassId>,
    index: HashMap<ClassId, usize>,
    top: ClassSet,
}

impl ClassUniverse {
    /// Builds the universe for an image, or `None` if it exceeds
    /// [`MAX_CLASSES`].
    pub fn for_image(image: &ProgramImage) -> Option<ClassUniverse> {
        let mut classes = image.classes.clone();
        let context = match classes.by_name("Context") {
            Some(c) => c,
            None => classes
                .define("Context", Some(ClassTable::OBJECT), 0)
                .ok()?,
        };
        let ids = classes.ids();
        if ids.len() > MAX_CLASSES {
            return None;
        }
        let index: HashMap<ClassId, usize> = ids.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        let mut top = ClassSet::EMPTY;
        for i in 0..ids.len() {
            top.insert(i);
        }
        Some(ClassUniverse {
            classes,
            context,
            ids,
            index,
            top,
        })
    }

    /// Number of classes in the universe.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the universe is empty (never — primitives always exist).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// All class ids, in index order.
    pub fn ids(&self) -> &[ClassId] {
        &self.ids
    }

    /// The full set (⊤ of the lattice).
    pub fn top(&self) -> ClassSet {
        self.top
    }

    /// Whether `set` is ⊤.
    pub fn is_top(&self, set: &ClassSet) -> bool {
        *set == self.top
    }

    /// The singleton set for one class (empty for a foreign id).
    pub fn singleton(&self, class: ClassId) -> ClassSet {
        let mut s = ClassSet::EMPTY;
        if let Some(i) = self.index.get(&class) {
            s.insert(*i);
        }
        s
    }

    /// Whether `set` contains `class`.
    pub fn contains(&self, set: &ClassSet, class: ClassId) -> bool {
        self.index
            .get(&class)
            .is_some_and(|i| set.contains_index(*i))
    }

    /// The classes in `set`, in index order.
    pub fn classes_in<'a>(&'a self, set: &'a ClassSet) -> impl Iterator<Item = ClassId> + 'a {
        set.indices().filter_map(move |i| self.ids.get(i).copied())
    }

    /// The superclass chain starting at `class` (cycle-guarded).
    fn chain(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut cur = Some(class);
        while let Some(c) = cur {
            if out.contains(&c) || out.len() > self.ids.len() {
                break;
            }
            out.push(c);
            cur = self.classes.get(c).and_then(|i| i.superclass);
        }
        out
    }
}

/// What a (receiver class, selector) pair statically resolves to —
/// mirroring the machine's lookup with the image's defined methods
/// taking precedence over dictionary primitives at each class (the
/// load-time install overwrites the dictionary entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A primitive function-unit operation.
    Primitive(PrimOp),
    /// The image method at this index.
    Method(usize),
    /// No class on the chain answers: `doesNotUnderstand:`. `handled`
    /// records whether the chain installs a defined handler for it.
    Dnu {
        /// Whether a `doesNotUnderstand:` handler is on the chain.
        handled: bool,
    },
}

/// The static resolver: the image's method installs over the class
/// dictionaries, plus trap-handler lookups.
#[derive(Debug)]
pub struct StaticResolver<'a> {
    universe: &'a ClassUniverse,
    defined: HashMap<(ClassId, Opcode), usize>,
    dnu: Option<Opcode>,
    bad: Option<Opcode>,
}

impl<'a> StaticResolver<'a> {
    /// Builds the resolver for an image over its universe.
    pub fn new(image: &ProgramImage, universe: &'a ClassUniverse) -> StaticResolver<'a> {
        // Last install wins, exactly as `ClassTable::install` overwrites.
        let mut defined = HashMap::new();
        for (i, m) in image.methods.iter().enumerate() {
            defined.insert((m.class, m.selector), i);
        }
        StaticResolver {
            universe,
            defined,
            dnu: image.opcodes.get(TrapSelector::DoesNotUnderstand.name()),
            bad: image.opcodes.get(TrapSelector::BadOperands.name()),
        }
    }

    /// Resolves a selector against a receiver class, walking the chain.
    pub fn resolve(&self, class: ClassId, selector: Opcode) -> Target {
        for c in self.universe.chain(class) {
            if let Some(i) = self.defined.get(&(c, selector)) {
                return Target::Method(*i);
            }
            if let Some(info) = self.universe.classes.get(c) {
                match info.dict.lookup(selector).0 {
                    Some(MethodRef::Primitive(p)) => return Target::Primitive(p),
                    // A pre-installed defined method in a bare image
                    // dictionary has no method index; treat it as an
                    // unanalyzable (but understood) target.
                    Some(MethodRef::Defined(_)) => return Target::Dnu { handled: false },
                    None => {}
                }
            }
        }
        Target::Dnu {
            handled: self
                .handler(class, TrapSelector::DoesNotUnderstand)
                .is_some(),
        }
    }

    /// The defined handler method for `trap` on `class`'s chain, if any
    /// (the machine only dispatches traps to *defined* handlers).
    pub fn handler(&self, class: ClassId, trap: TrapSelector) -> Option<usize> {
        let sel = match trap {
            TrapSelector::DoesNotUnderstand => self.dnu?,
            TrapSelector::BadOperands => self.bad?,
        };
        self.universe
            .chain(class)
            .into_iter()
            .find_map(|c| self.defined.get(&(c, sel)).copied())
    }
}

/// How a send site resolved over its inferred receiver set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// Every receiver class reaches the same single target.
    Monomorphic,
    /// Multiple distinct targets, all understood.
    Polymorphic,
    /// Some receiver class does not understand the selector (with or
    /// without a handler), or the inference is degraded.
    Unresolvable,
    /// The inferred receiver set is empty: the site can never execute
    /// (unreachable code, or a method no dispatch reaches).
    Dead,
}

/// One send site — one instruction — with its inferred dispatch facts.
#[derive(Debug, Clone)]
pub struct Site {
    /// Index into `image.methods`.
    pub method: usize,
    /// Instruction index within the method.
    pub pc: usize,
    /// The selector dispatched.
    pub selector: Opcode,
    /// Inferred receiver classes (the ITLB key's first class).
    pub receivers: ClassSet,
    /// Inferred argument classes (the ITLB key's second class), absent
    /// for unary zero-address keys.
    pub arg: Option<ClassSet>,
    /// The resolution classification.
    pub kind: SiteKind,
    /// Distinct primitive targets over the receiver set.
    pub prims: Vec<PrimOp>,
    /// Distinct defined-method targets over the receiver set.
    pub methods: Vec<usize>,
    /// Some receiver class hits `doesNotUnderstand:` with a handler.
    pub dnu_handled: bool,
    /// Some receiver class hits `doesNotUnderstand:` with no handler.
    pub dnu_unhandled: bool,
}

/// A `new` site's escape fact: whether the freshly allocated object can
/// leave the allocating method.
#[derive(Debug, Clone)]
pub struct FreshFact {
    /// Index into `image.methods`.
    pub method: usize,
    /// The `new` instruction's index.
    pub pc: usize,
    /// The allocated class, when the class operand is constant.
    pub class: Option<ClassId>,
    /// Whether the object may escape (stored, passed, returned, or
    /// aliased); `false` is a proof it never leaves the method.
    pub escapes: bool,
}

/// The whole-image inference result.
#[derive(Debug)]
pub struct Inference {
    /// The closed world analyzed.
    pub universe: ClassUniverse,
    /// Every send site of every method, in (method, pc) order.
    pub sites: Vec<Site>,
    /// Per-method: classes of results the method may write through its
    /// result pointer.
    pub returns: Vec<ClassSet>,
    /// Per-method: whether the method (transitively) may write through
    /// a context pointer — mutating a caller's frame behind its back.
    pub may_write_ctx: Vec<bool>,
    /// Per-method: the receiver classes whose dispatch lands on it.
    pub install_sets: Vec<ClassSet>,
    /// Escape facts for every `new` site.
    pub fresh: Vec<FreshFact>,
    /// True when the image exceeded [`MAX_CLASSES`]: every set is ⊤,
    /// `sites` is empty, and consumers must fall back to their
    /// pre-inference behaviour.
    pub degraded: bool,
    site_base: Vec<usize>,
}

impl Inference {
    /// The sites of one method, indexed by pc.
    pub fn sites_of(&self, method: usize) -> &[Site] {
        let start = self.site_base[method];
        let end = self
            .site_base
            .get(method + 1)
            .copied()
            .unwrap_or(self.sites.len());
        &self.sites[start..end]
    }

    /// The site at (method, pc), if the inference is not degraded.
    pub fn site(&self, method: usize, pc: usize) -> Option<&Site> {
        self.sites_of(method).get(pc)
    }
}

// ---------------------------------------------------------------------
// The abstract state
// ---------------------------------------------------------------------

/// Abstract frame state: class sets for the current and next context's
/// operand slots, plus where the staged zero-address result pointer
/// (`next[0]`) points when it is a tracked `movea` of a current slot.
#[derive(Clone, PartialEq, Eq)]
struct State {
    cur: [ClassSet; N_SLOTS],
    next: [ClassSet; N_SLOTS],
    zero_dst: Option<u8>,
}

impl State {
    fn entry(install: ClassSet, top: ClassSet, uninit: ClassSet) -> State {
        // The only entry guarantee is the dispatch invariant: slot 1
        // holds the receiver, whose class resolution landed here. Every
        // other slot may have been staged arbitrarily by a zero-address
        // caller. The next context is freshly cleared.
        let mut cur = [top; N_SLOTS];
        cur[1] = install;
        State {
            cur,
            next: [uninit; N_SLOTS],
            zero_dst: None,
        }
    }

    fn join(&mut self, other: &State) -> bool {
        let mut grew = false;
        for (a, b) in self.cur.iter_mut().zip(other.cur.iter()) {
            grew |= a.union(b);
        }
        for (a, b) in self.next.iter_mut().zip(other.next.iter()) {
            grew |= a.union(b);
        }
        if self.zero_dst != other.zero_dst && self.zero_dst.is_some() {
            self.zero_dst = None;
            grew = true;
        }
        grew
    }
}

// ---------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------

struct Analyzer<'a> {
    image: &'a ProgramImage,
    universe: &'a ClassUniverse,
    resolver: &'a StaticResolver<'a>,
    install_sets: &'a [ClassSet],
    uninit: ClassSet,
    int: ClassSet,
    atom: ClassSet,
    context_set: ClassSet,
    // Cross-method summaries, grown monotonically to fixpoint.
    returns: Vec<ClassSet>,
    may_write_ctx: Vec<bool>,
    // Whether some reachable return of the method may *not* write a
    // result (a no-result return leaves the caller's slot untouched, so
    // call-result updates into such callees must be weak joins).
    may_skip_result: Vec<bool>,
    heap: Vec<ClassSet>,
    changed: bool,
}

impl<'a> Analyzer<'a> {
    fn new(
        image: &'a ProgramImage,
        universe: &'a ClassUniverse,
        resolver: &'a StaticResolver<'a>,
        install_sets: &'a [ClassSet],
    ) -> Analyzer<'a> {
        let mut heap = vec![ClassSet::EMPTY; universe.len()];
        // The engine reifies trap messages as 3-word objects of the root
        // class with arbitrary words inside; reads from an exactly-
        // `Object`-classed receiver must admit anything.
        if let Some(i) = universe.index.get(&ClassTable::OBJECT) {
            heap[*i] = universe.top();
        }
        Analyzer {
            image,
            universe,
            resolver,
            install_sets,
            uninit: universe.singleton(ClassId::UNINIT),
            int: universe.singleton(ClassId::SMALL_INT),
            atom: universe.singleton(ClassId::ATOM),
            context_set: universe.singleton(universe.context),
            returns: vec![ClassSet::EMPTY; image.methods.len()],
            may_write_ctx: vec![false; image.methods.len()],
            may_skip_result: vec![false; image.methods.len()],
            heap,
            changed: false,
        }
    }

    fn operand_classes(&self, code: &CodeObject, st: &State, op: Operand) -> ClassSet {
        match op {
            Operand::Cur(o) => st.cur[o as usize],
            Operand::Next(o) => st.next[o as usize],
            Operand::Const(k) => match code.consts.get(k as usize) {
                Some(w) => match w.primitive_class() {
                    Some(c) => self.universe.singleton(c),
                    // A pointer constant's class is unknowable here.
                    None => self.universe.top(),
                },
                None => self.universe.top(),
            },
        }
    }

    fn const_int(&self, code: &CodeObject, op: Operand) -> Option<i64> {
        match op {
            Operand::Const(k) => match code.consts.get(k as usize) {
                Some(Word::Int(i)) => Some(*i),
                _ => None,
            },
            _ => None,
        }
    }

    /// The result classes a *successful* primitive execution writes, or
    /// `None` when the primitive writes no data result.
    fn prim_result(
        &self,
        p: PrimOp,
        code: &CodeObject,
        instr: Instr,
        bset: &ClassSet,
        cset: &ClassSet,
    ) -> Option<ClassSet> {
        let u = self.universe;
        match p.result_shape() {
            ResultShape::Int => Some(self.int),
            ResultShape::Boolean => Some(self.atom),
            ResultShape::Numeric => {
                let fl = u.singleton(ClassId::FLOAT);
                let b_int = u.contains(bset, ClassId::SMALL_INT);
                let c_int = u.contains(cset, ClassId::SMALL_INT);
                let b_fl = u.contains(bset, ClassId::FLOAT);
                let c_fl = u.contains(cset, ClassId::FLOAT);
                let mut out = ClassSet::EMPTY;
                if b_int && c_int {
                    out.union(&self.int);
                }
                if b_fl || c_fl {
                    out.union(&fl);
                }
                if out.is_empty() {
                    // Non-numeric operands trap; no successful result.
                    out = self.int;
                }
                Some(out)
            }
            ResultShape::OfB => Some(*bset),
            ResultShape::OfC => Some(*cset),
            ResultShape::Pointer => match p {
                PrimOp::Movea => Some(self.context_set),
                PrimOp::New => {
                    let class = match instr {
                        Instr::Three { b, .. } => self
                            .const_int(code, b)
                            .map(|i| ClassId(i as u16))
                            .filter(|c| u.classes.get(*c).is_some()),
                        Instr::Zero { .. } => None,
                    };
                    Some(match class {
                        Some(c) => u.singleton(c),
                        None => u.top(),
                    })
                }
                _ => Some(u.top()),
            },
            ResultShape::None => None,
            ResultShape::Dynamic => match p {
                PrimOp::At => {
                    // Reading through a context pointer reaches any
                    // frame slot: ⊤. Otherwise the per-class heap
                    // summary plus never-written (uninit) words.
                    if u.contains(bset, u.context) {
                        return Some(u.top());
                    }
                    let mut out = self.uninit;
                    for c in u.classes_in(bset) {
                        if let Some(i) = u.index.get(&c) {
                            out.union(&self.heap[*i].clone());
                        }
                    }
                    Some(out)
                }
                _ => Some(u.top()),
            },
        }
    }

    /// Whether this primitive can raise an operand trap that software
    /// dispatch routes to a `badOperands:` handler. Only *pure data*
    /// function-unit failures are offered to trap dispatch; memory,
    /// control and privileged failures kill the engine outright (no
    /// handler state to model — the caller never resumes).
    fn prim_can_trap(&self, p: PrimOp) -> bool {
        p.is_pure_data() && !matches!(p, PrimOp::Move | PrimOp::Same | PrimOp::TagOf)
    }

    /// `badOperands:` handler methods over a receiver set.
    fn bad_handlers(&self, recv: &ClassSet) -> Vec<usize> {
        let mut out = Vec::new();
        for c in self.universe.classes_in(recv) {
            if let Some(m) = self.resolver.handler(c, TrapSelector::BadOperands) {
                if !out.contains(&m) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Applies the state effects of calling into `callees` (defined
    /// methods and/or trap handlers): havoc on context-writing callees,
    /// result join into the destination, next-context reset.
    ///
    /// The result update is *strong* (replaces the old slot value) when
    /// every callee provably writes a result on every normal return —
    /// otherwise a no-result return would leave the slot's previous
    /// value live, and only a weak join is sound.
    fn apply_call(
        &mut self,
        st: &mut State,
        dest: Option<Operand>,
        zero_result: bool,
        callees: &[usize],
        unresolved: bool,
    ) {
        let mut ret = ClassSet::EMPTY;
        let mut havoc = unresolved;
        let mut strong = !unresolved && !callees.is_empty();
        for m in callees {
            ret.union(&self.returns[*m].clone());
            havoc |= self.may_write_ctx[*m];
            strong &= !self.may_skip_result[*m];
        }
        if unresolved {
            ret = self.universe.top();
        }
        // Where does the callee's result-pointer write land? A
        // three-address call always passes a valid result pointer; a
        // zero-address call passes whatever the caller staged in
        // next[0] — the write only happens if that is a context
        // pointer, and only provably always-happens if it can be
        // nothing else.
        let zero_may_write =
            zero_result && self.universe.contains(&st.next[0], self.universe.context);
        let zero_definite = zero_may_write && st.next[0] == self.context_set;
        let zero_target = zero_may_write.then_some(st.zero_dst);
        if havoc {
            let top = self.universe.top();
            for s in st.cur.iter_mut() {
                *s = top;
            }
        }
        match dest {
            Some(Operand::Cur(o)) => {
                if strong {
                    st.cur[o as usize] = ret;
                } else {
                    st.cur[o as usize].union(&ret);
                }
            }
            // A result pointer into the next context targets the
            // callee's own recycled frame: nothing observable remains.
            Some(Operand::Next(_)) | Some(Operand::Const(_)) | None => {}
        }
        match zero_target {
            Some(Some(slot)) => {
                if strong && zero_definite {
                    st.cur[slot as usize] = ret;
                } else {
                    st.cur[slot as usize].union(&ret);
                }
            }
            Some(None) => {
                // next[0] may hold an untracked context pointer: the
                // result write could land in any caller slot.
                for s in st.cur.iter_mut() {
                    s.union(&ret);
                }
            }
            None => {}
        }
        // The next context is freshly allocated (cleared) after every
        // call returns.
        st.next = [self.uninit; N_SLOTS];
        st.zero_dst = None;
    }

    /// Executes one instruction over the abstract state. When `record`
    /// is given, also appends the site's dispatch facts.
    ///
    /// Returns the state to join into the *fall-through of a returning
    /// call* (the one control edge the CFG does not model: a return-bit
    /// send that resolves to a defined method pushes a continuation at
    /// pc+1).
    fn step(
        &mut self,
        mindex: usize,
        code: &CodeObject,
        pc: usize,
        st: &mut State,
        record: Option<&mut Vec<Site>>,
    ) -> Option<State> {
        let instr = code.instrs[pc];
        let selector = instr.opcode();
        let u_top = self.universe.top();

        // Dispatch key operand sets.
        let (bset, cset, arg, dest) = match instr {
            Instr::Three { b, c, a, .. } => {
                let bs = self.operand_classes(code, st, b);
                let cs = self.operand_classes(code, st, c);
                (bs, cs, Some(cs), Some(a))
            }
            Instr::Zero { nargs, .. } => {
                let bs = st.next[1];
                let cs = st.next[2];
                let arg = if nargs >= 2 { Some(cs) } else { None };
                (bs, cs, arg, None)
            }
        };

        // Resolve over the receiver set.
        let mut prims: Vec<PrimOp> = Vec::new();
        let mut methods: Vec<usize> = Vec::new();
        let mut dnu_handled = false;
        let mut dnu_unhandled = false;
        let receiver_classes: Vec<ClassId> = self.universe.classes_in(&bset).collect();
        for rc in &receiver_classes {
            match self.resolver.resolve(*rc, selector) {
                Target::Primitive(p) => {
                    if !prims.contains(&p) {
                        prims.push(p);
                    }
                }
                Target::Method(m) => {
                    if !methods.contains(&m) {
                        methods.push(m);
                    }
                }
                Target::Dnu { handled } => {
                    if handled {
                        dnu_handled = true;
                    } else {
                        dnu_unhandled = true;
                    }
                    if let Some(h) = self.resolver.handler(*rc, TrapSelector::DoesNotUnderstand) {
                        if !methods.contains(&h) {
                            methods.push(h);
                        }
                    }
                }
            }
        }

        if let Some(out) = record {
            let kind = if bset.is_empty() {
                SiteKind::Dead
            } else if dnu_handled || dnu_unhandled {
                SiteKind::Unresolvable
            } else if prims.len() + methods.len() == 1 {
                SiteKind::Monomorphic
            } else {
                SiteKind::Polymorphic
            };
            out.push(Site {
                method: mindex,
                pc,
                selector,
                receivers: bset,
                arg,
                kind,
                prims: prims.clone(),
                methods: methods.clone(),
                dnu_handled,
                dnu_unhandled,
            });
        }

        let returning = instr.returns();
        let zero_form = matches!(instr, Instr::Zero { .. });
        let mixed = !methods.is_empty() && !prims.is_empty();
        let mut ret_edge: Option<State> = None;

        // ---- defined-method / handler call effects -------------------
        if !methods.is_empty() {
            let callees = methods.clone();
            if returning {
                // The CFG treats a return-bit instruction as a block
                // exit, but a defined target turns it into a plain call
                // whose continuation is pc+1: model that edge.
                let mut post = st.clone();
                self.apply_call(&mut post, dest, false, &callees, false);
                ret_edge = Some(post);
            } else if mixed {
                // Some receivers call, some run a primitive: join the
                // called-path state into the straight-line one.
                let mut called = st.clone();
                self.apply_call(&mut called, dest, zero_form, &callees, false);
                st.join(&called);
            } else {
                self.apply_call(st, dest, zero_form, &callees, false);
            }
        }

        // ---- primitive effects ---------------------------------------
        if !prims.is_empty() && returning {
            // Results flow through the method's own result pointer into
            // the return summary. (An operand trap on a returning
            // instruction is refused by trap dispatch — the send dies —
            // so no handler effects here.)
            for p in prims.clone() {
                let writes = !zero_form
                    && !matches!(
                        p,
                        PrimOp::AtPut | PrimOp::Fjmp | PrimOp::Rjmp | PrimOp::Xfer
                    );
                match self.prim_result(p, code, instr, &bset, &cset) {
                    Some(r) if writes => {
                        self.changed |= self.returns[mindex].union(&r);
                    }
                    _ => {
                        // A no-result return: callers must weak-join.
                        if !self.may_skip_result[mindex] {
                            self.may_skip_result[mindex] = true;
                            self.changed = true;
                        }
                    }
                }
            }
        } else if !prims.is_empty() {
            // Side effects first.
            for p in prims.clone() {
                match p {
                    PrimOp::AtPut => {
                        // a at: b put: c — A holds the stored value.
                        if let Instr::Three { a, .. } = instr {
                            let vset = self.operand_classes(code, st, a);
                            if self.universe.contains(&bset, self.universe.context) {
                                // Writing through a context pointer:
                                // some frame, somewhere, mutates.
                                if !self.may_write_ctx[mindex] {
                                    self.may_write_ctx[mindex] = true;
                                    self.changed = true;
                                }
                            }
                            for rc in &receiver_classes {
                                if *rc == self.universe.context {
                                    continue;
                                }
                                if let Some(i) = self.universe.index.get(rc).copied() {
                                    self.changed |= self.heap[i].union(&vset);
                                }
                            }
                        }
                    }
                    PrimOp::Xfer => {
                        // Control surgery on the context graph: havoc
                        // everything and mark the method context-writing.
                        for s in st.cur.iter_mut() {
                            *s = u_top;
                        }
                        for s in st.next.iter_mut() {
                            *s = u_top;
                        }
                        st.zero_dst = None;
                        if !self.may_write_ctx[mindex] {
                            self.may_write_ctx[mindex] = true;
                            self.changed = true;
                        }
                    }
                    _ => {}
                }
            }
            // One destination write with the union of every primitive's
            // result (strong when no called path competes).
            let mut result: Option<ClassSet> = None;
            for p in prims.clone() {
                if let Some(r) = self.prim_result(p, code, instr, &bset, &cset) {
                    result = Some(match result {
                        Some(mut acc) => {
                            acc.union(&r);
                            acc
                        }
                        None => r,
                    });
                }
            }
            if let (Some(r), Some(a)) = (result, dest) {
                let is_movea = prims.contains(&PrimOp::Movea);
                match a {
                    Operand::Cur(o) => {
                        let o = o as usize;
                        if mixed {
                            st.cur[o].union(&r);
                        } else {
                            st.cur[o] = r;
                        }
                    }
                    Operand::Next(o) => {
                        let o = o as usize;
                        if mixed {
                            st.next[o].union(&r);
                        } else {
                            st.next[o] = r;
                        }
                        if o == 0 {
                            // Track the staged zero-address result
                            // pointer: `movea n0, cX`.
                            st.zero_dst = if is_movea && !mixed {
                                match instr {
                                    Instr::Three {
                                        b: Operand::Cur(x), ..
                                    } => Some(x),
                                    _ => None,
                                }
                            } else {
                                None
                            };
                        }
                    }
                    Operand::Const(_) => {}
                }
            }
            // Operand traps on pure data operations route to
            // `badOperands:` handlers, whose answer lands where the
            // primitive's result would have. Join the trapped path in.
            if prims.iter().any(|p| self.prim_can_trap(*p)) {
                let handlers = self.bad_handlers(&bset);
                if !handlers.is_empty() {
                    let mut trapped = st.clone();
                    self.apply_call(&mut trapped, dest, zero_form, &handlers, false);
                    st.join(&trapped);
                }
            }
        }

        // A receiver set that is ⊤ *and* includes classes we could not
        // enumerate never happens (the universe is closed); degradation
        // is handled before analysis starts. Nothing else to havoc.
        ret_edge
    }

    /// One full pass over a method: intra-method fixpoint with the
    /// current cross-method summaries. Records sites when asked.
    fn analyze_method(&mut self, mindex: usize, record: Option<&mut Vec<Site>>) {
        let code = &self.image.methods[mindex].code;
        if code.instrs.is_empty() {
            return;
        }
        let cfg = Cfg::build(code);
        let entry_state = State::entry(self.install_sets[mindex], self.universe.top(), self.uninit);
        let entry_block = cfg.block_of[0];
        let mut in_states: Vec<Option<State>> = vec![None; cfg.blocks.len()];
        in_states[entry_block] = Some(entry_state);
        let mut work: Vec<usize> = vec![entry_block];
        // Fixpoint without site recording.
        while let Some(bi) = work.pop() {
            let Some(mut st) = in_states[bi].clone() else {
                continue;
            };
            let block = &cfg.blocks[bi];
            let mut edges: Vec<(usize, State)> = Vec::new();
            for pc in block.start..block.end {
                if let Some(post) = self.step(mindex, code, pc, &mut st, None) {
                    if pc + 1 < code.instrs.len() {
                        edges.push((cfg.block_of[pc + 1], post));
                    }
                }
            }
            for succ in &cfg.blocks[bi].succs {
                edges.push((*succ, st.clone()));
            }
            for (target, state) in edges {
                let grew = match &mut in_states[target] {
                    Some(existing) => existing.join(&state),
                    slot @ None => {
                        *slot = Some(state);
                        true
                    }
                };
                if grew && !work.contains(&target) {
                    work.push(target);
                }
            }
        }
        // Site-recording replay over the converged block states.
        if let Some(out) = record {
            let mut sites: Vec<Option<Site>> = vec![None; code.instrs.len()];
            for (bi, block) in cfg.blocks.iter().enumerate() {
                let Some(mut st) = in_states[bi].clone() else {
                    // Unreachable block: dead sites.
                    for (pc, slot) in sites
                        .iter_mut()
                        .enumerate()
                        .take(block.end)
                        .skip(block.start)
                    {
                        *slot = Some(Site {
                            method: mindex,
                            pc,
                            selector: code.instrs[pc].opcode(),
                            receivers: ClassSet::EMPTY,
                            arg: None,
                            kind: SiteKind::Dead,
                            prims: Vec::new(),
                            methods: Vec::new(),
                            dnu_handled: false,
                            dnu_unhandled: false,
                        });
                    }
                    continue;
                };
                let mut rec = Vec::new();
                for pc in block.start..block.end {
                    let _ = self.step(mindex, code, pc, &mut st, Some(&mut rec));
                }
                for site in rec {
                    let pc = site.pc;
                    sites[pc] = Some(site);
                }
            }
            for (pc, s) in sites.into_iter().enumerate() {
                out.push(s.unwrap_or(Site {
                    method: mindex,
                    pc,
                    selector: code.instrs[pc].opcode(),
                    receivers: ClassSet::EMPTY,
                    arg: None,
                    kind: SiteKind::Dead,
                    prims: Vec::new(),
                    methods: Vec::new(),
                    dnu_handled: false,
                    dnu_unhandled: false,
                }));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Escape facts
// ---------------------------------------------------------------------

fn fresh_facts(image: &ProgramImage, sites: &[Site], site_base: &[usize]) -> Vec<FreshFact> {
    let mut out = Vec::new();
    for (mindex, m) in image.methods.iter().enumerate() {
        let code = &m.code;
        for (pc, instr) in code.instrs.iter().enumerate() {
            // A `new` site: the site's sole primitive target is New.
            let base = site_base[mindex];
            let Some(site) = sites.get(base + pc) else {
                continue;
            };
            if site.kind == SiteKind::Dead || !site.prims.contains(&PrimOp::New) {
                continue;
            }
            let (dest, class_op) = match instr {
                Instr::Three { a, b, .. } if !instr.returns() => (*a, *b),
                _ => {
                    // A returning `new` hands the object straight out.
                    out.push(FreshFact {
                        method: mindex,
                        pc,
                        class: None,
                        escapes: true,
                    });
                    continue;
                }
            };
            let class = match class_op {
                Operand::Const(k) => match code.consts.get(k as usize) {
                    Some(Word::Int(i)) => Some(ClassId(*i as u16)),
                    _ => None,
                },
                _ => None,
            };
            let Operand::Cur(slot) = dest else {
                // Staged into the next context: passed to a callee.
                out.push(FreshFact {
                    method: mindex,
                    pc,
                    class,
                    escapes: true,
                });
                continue;
            };
            // Flow-insensitive use scan: the object stays local iff the
            // slot is never redefined elsewhere and every use is as the
            // receiver of a primitive at:/at:put:.
            let mut escapes = false;
            for (qc, other) in code.instrs.iter().enumerate() {
                if qc == pc {
                    continue;
                }
                if crate::dataflow::def_slot(*other) == Some(slot) {
                    escapes = true; // rebinding: tracking ends
                    break;
                }
                let uses = crate::dataflow::use_slots(*other) & (1 << slot);
                if uses == 0 {
                    continue;
                }
                let osite = &sites[base + qc];
                let pure_indexing = osite.methods.is_empty()
                    && !osite.dnu_handled
                    && !osite.dnu_unhandled
                    && osite
                        .prims
                        .iter()
                        .all(|p| matches!(p, PrimOp::At | PrimOp::AtPut));
                let as_receiver_only = match other {
                    Instr::Three { a, b, c, .. } => {
                        *b == Operand::Cur(slot)
                            && *a != Operand::Cur(slot)
                            && *c != Operand::Cur(slot)
                    }
                    Instr::Zero { .. } => false,
                };
                if !(pure_indexing && as_receiver_only) || other.returns() {
                    escapes = true;
                    break;
                }
            }
            out.push(FreshFact {
                method: mindex,
                pc,
                class,
                escapes,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Runs the whole-image class inference. Verifies the image first —
/// the analysis only trusts verified code.
///
/// # Errors
///
/// The first [`VerifyError`], as [`verify_image`].
pub fn infer_image(image: &ProgramImage) -> Result<Inference, VerifyError> {
    verify_image(image)?;
    let Some(universe) = ClassUniverse::for_image(image) else {
        // Degraded: too many classes for the dense domain. Trivially
        // sound (no claims), no sites.
        let big = image.classes.clone();
        let context = big.by_name("Context").unwrap_or(ClassTable::OBJECT);
        return Ok(Inference {
            universe: ClassUniverse {
                classes: big,
                context,
                ids: Vec::new(),
                index: HashMap::new(),
                top: ClassSet::EMPTY,
            },
            sites: Vec::new(),
            returns: vec![ClassSet::EMPTY; image.methods.len()],
            may_write_ctx: vec![true; image.methods.len()],
            install_sets: vec![ClassSet::EMPTY; image.methods.len()],
            fresh: Vec::new(),
            degraded: true,
            site_base: vec![0; image.methods.len() + 1],
        });
    };

    let resolver = StaticResolver::new(image, &universe);
    // Install sets: for each class, where does each method's selector
    // land? (The dispatch invariant that seeds every entry state.)
    let mut install_sets = vec![ClassSet::EMPTY; image.methods.len()];
    for class in universe.ids().to_vec() {
        for (i, m) in image.methods.iter().enumerate() {
            if resolver.resolve(class, m.selector) == Target::Method(i) {
                install_sets[i].union(&universe.singleton(class));
            }
        }
    }

    let mut analyzer = Analyzer::new(image, &universe, &resolver, &install_sets);
    // Global fixpoint over the cross-method summaries (returns, heap,
    // may_write_ctx) — all monotone, so this terminates.
    loop {
        analyzer.changed = false;
        for m in 0..image.methods.len() {
            analyzer.analyze_method(m, None);
        }
        if !analyzer.changed {
            break;
        }
    }
    // Final collection pass with converged summaries.
    let mut sites = Vec::new();
    let mut site_base = Vec::with_capacity(image.methods.len() + 1);
    for m in 0..image.methods.len() {
        site_base.push(sites.len());
        analyzer.analyze_method(m, Some(&mut sites));
    }
    site_base.push(sites.len());

    let returns = analyzer.returns.clone();
    let may_write_ctx = analyzer.may_write_ctx.clone();
    let fresh = fresh_facts(image, &sites, &site_base);
    Ok(Inference {
        universe,
        sites,
        returns,
        may_write_ctx,
        install_sets,
        fresh,
        degraded: false,
        site_base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::Assembler;

    fn double_image() -> ProgramImage {
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("double").unwrap();
        let mut asm = Assembler::new("SmallInteger ≫ double", 1);
        asm.emit_three(
            Opcode::ADD,
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
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        img
    }

    #[test]
    fn install_set_seeds_the_receiver() {
        let img = double_image();
        let inf = infer_image(&img).unwrap();
        assert!(!inf.degraded);
        // `double` installs on SmallInteger with no subclasses: the
        // receiver of `self + self` is exactly SmallInteger.
        let site = inf.site(0, 0).unwrap();
        assert_eq!(site.selector, Opcode::ADD);
        assert_eq!(
            inf.universe.classes_in(&site.receivers).collect::<Vec<_>>(),
            vec![ClassId::SMALL_INT]
        );
        assert_eq!(site.kind, SiteKind::Monomorphic);
        assert_eq!(site.prims, vec![PrimOp::Add]);
        // The add's result is an integer; the return summary says so.
        assert_eq!(
            inf.universe.classes_in(&inf.returns[0]).collect::<Vec<_>>(),
            vec![ClassId::SMALL_INT]
        );
    }

    #[test]
    fn subclass_widens_the_install_set() {
        let mut img = double_image();
        // A subclass of SmallInteger inherits `double`; the receiver
        // set must include it.
        let sub = img
            .classes
            .define("CountedInt", Some(ClassId::SMALL_INT), 0)
            .unwrap();
        let inf = infer_image(&img).unwrap();
        let site = inf.site(0, 0).unwrap();
        assert!(inf.universe.contains(&site.receivers, ClassId::SMALL_INT));
        assert!(inf.universe.contains(&site.receivers, sub));
    }

    #[test]
    fn uninstalled_selector_is_guaranteed_dnu() {
        let mut img = double_image();
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
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        let inf = infer_image(&img).unwrap();
        let site = inf.site(1, 0).unwrap();
        assert_eq!(site.kind, SiteKind::Unresolvable);
        assert!(site.dnu_unhandled);
        assert!(!site.dnu_handled);
    }

    #[test]
    fn new_with_constant_class_is_tracked_and_local() {
        let mut img = ProgramImage::empty();
        let point = img
            .classes
            .define("Point", Some(ClassTable::OBJECT), 2)
            .unwrap();
        let sel = img.opcodes.intern("probe").unwrap();
        let mut asm = Assembler::new("SmallInteger ≫ probe", 1);
        let kc = asm.intern_const(Word::Int(point.0 as i64)).unwrap();
        let k2 = asm.intern_const(Word::Int(2)).unwrap();
        let k0 = asm.intern_const(Word::Int(0)).unwrap();
        // c2 := Point new 2; c2 at: 0 put: self; c3 := c2 at: 0; ^c3
        asm.emit_three(
            Opcode::NEW,
            Operand::Cur(2),
            Operand::Const(kc),
            Operand::Const(k2),
        )
        .unwrap();
        asm.emit_three(
            Opcode::RAWATPUT,
            Operand::Cur(1),
            Operand::Cur(2),
            Operand::Const(k0),
        )
        .unwrap();
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
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        let inf = infer_image(&img).unwrap();
        // The new site's result class is the constant Point.
        let at_site = inf.site(0, 2).unwrap();
        assert!(inf.universe.contains(&at_site.receivers, point));
        assert!(!inf.universe.is_top(&at_site.receivers));
        // The heap summary: reading Point[0] yields what was stored
        // (the SmallInteger receiver) or uninit.
        let read = inf.site(0, 3).unwrap();
        let ret_classes: Vec<_> = inf.universe.classes_in(&inf.returns[0]).collect();
        assert!(ret_classes.contains(&ClassId::SMALL_INT), "{ret_classes:?}");
        assert!(ret_classes.contains(&ClassId::UNINIT), "{ret_classes:?}");
        assert!(!inf.universe.is_top(&read.receivers));
        // The fresh Point never leaves the method.
        let fact = inf
            .fresh
            .iter()
            .find(|f| f.method == 0 && f.pc == 0)
            .unwrap();
        assert_eq!(fact.class, Some(point));
        assert!(!fact.escapes, "pure at:/at:put: uses must not escape");
    }

    #[test]
    fn defined_call_joins_callee_returns_and_resets_staging() {
        let mut img = ProgramImage::empty();
        let double = img.opcodes.intern("double").unwrap();
        let sel = img.opcodes.intern("quad").unwrap();
        let mut asm = Assembler::new("SmallInteger ≫ double", 1);
        asm.emit_three(
            Opcode::ADD,
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
        img.add_method(ClassId::SMALL_INT, double, asm.finish().unwrap());
        // quad: c2 := self double (three-address call), ^c2
        let mut asm = Assembler::new("SmallInteger ≫ quad", 1);
        asm.emit_three(
            Opcode(double.0),
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
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        let inf = infer_image(&img).unwrap();
        let call = inf.site(1, 0).unwrap();
        assert_eq!(call.kind, SiteKind::Monomorphic);
        assert_eq!(call.methods, vec![0]);
        // quad's return includes double's Int (weak join admits more).
        assert!(inf.universe.contains(&inf.returns[1], ClassId::SMALL_INT));
        assert!(!inf.may_write_ctx[0]);
        assert!(!inf.may_write_ctx[1]);
    }

    #[test]
    fn entry_state_trusts_only_the_dispatch_invariant() {
        // A method reading an argument slot (slot 2) must see ⊤ — any
        // zero-address caller can stage anything there.
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("first:").unwrap();
        let mut asm = Assembler::new("SmallInteger ≫ first:", 2);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(2),
            Operand::Cur(2),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        let inf = infer_image(&img).unwrap();
        assert!(inf.universe.is_top(&inf.returns[0]));
    }
}
