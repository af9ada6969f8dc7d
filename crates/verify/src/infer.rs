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
//! Dispatch itself is the machine's, not a model of it: each (class,
//! selector) pair is resolved once per image, by the machine's lookup
//! ([`lookup_method`]) over the class table com-core's loader builds
//! ([`install_image`]), into the table the inference, the call graph and
//! the lints all read ([`ClassUniverse::target`]). It is the static twin
//! of the ITLB, filled for every pair rather than on a miss.
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
//!   as part of the whole-image fixpoint.
//!
//! The fixpoint runs on the crate's one worklist solver twice over: each
//! method's analysis iterates its blocks, and the image iterates its
//! methods. A method is analysed again only when a cross-method summary
//! it read has grown since: a callee's result classes, context writes
//! or skipped results, or the heap classes of a class it read through
//! `at:`. The solver sweeps the methods in index order, so the analyses
//! that run are those of re-analysing every method round by round, less
//! the ones whose inputs had not changed. That order matters: the
//! transfer function is not monotone everywhere (a numeric send whose
//! operands hold no number answers `SmallInteger`), so another order can
//! reach another fixed point.
//!
//! Soundness contract (tested by the differential suite): for every
//! site, every receiver class the interpreter ever dispatches on is
//! contained in the inferred receiver set.

use std::collections::{BTreeSet, HashMap};

use com_core::{install_image, Fpa, FpaFormat, ProgramImage};
use com_isa::{CodeObject, Instr, Opcode, Operand, PrimOp, ResultShape};
use com_mem::{ClassId, Word};
use com_obj::{lookup_method, ClassTable, DefinedMethod, MethodRef, TrapSelector};

use crate::cfg::Cfg;
use crate::check::verify_image;
use crate::dataflow::N_SLOTS;
use crate::error::VerifyError;
use crate::solve::solve;

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

    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..MAX_CLASSES).filter(move |i| self.contains_index(*i))
    }
}

impl core::fmt::Debug for ClassSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ClassSet{:?}", self.indices().collect::<Vec<_>>())
    }
}

/// The closed world the inference ranges over, and what each dispatch in
/// it resolves to: the static twin of the ITLB.
///
/// The class table is the one a machine running the image dispatches
/// over, built by com-core's loader ([`install_image`]): every class the
/// image registers, `Context`, and the image's methods installed in image
/// order. Each (class, selector) pair is resolved once, when the universe
/// is built, by the machine's own lookup ([`lookup_method`]), so a query
/// is one array read.
#[derive(Debug, Clone)]
pub struct ClassUniverse {
    /// The class table a machine running the image dispatches over. The
    /// entry image method *i* installs carries *i* in
    /// [`DefinedMethod::slab`] and points at no code.
    pub classes: ClassTable,
    /// The class the machine tags context pointers with.
    pub context: ClassId,
    ids: Vec<ClassId>,
    index: HashMap<ClassId, usize>,
    top: ClassSet,
    /// Selectors per row of `targets`: the highest interned opcode, plus
    /// one.
    width: usize,
    /// What each pair resolves to, at row `class.0`, column `selector.0`.
    targets: Vec<Target>,
    /// Per row, the handlers in [`TrapSelector::ALL`] order.
    handlers: Vec<[Option<usize>; 2]>,
}

impl ClassUniverse {
    /// Builds the universe for an image and resolves every (class,
    /// interned selector) pair in it.
    ///
    /// An image with more than [`MAX_CLASSES`] classes gets an empty
    /// universe: no class sets, and resolutions only for the classes a
    /// constant can carry (the lints' constant folding reads those). So
    /// does an image no machine can load (a method on a class it does not
    /// define, which [`verify_image`] refuses), over its own class table.
    pub fn for_image(image: &ProgramImage) -> ClassUniverse {
        let nowhere = Fpa::from_raw(0, FpaFormat::COM).expect("name 0 is in every format");
        let installed = install_image(image, |i| {
            let n_args = image.methods[i].code.n_args;
            Ok(DefinedMethod::new(nowhere, n_args).resolved(i as u32))
        });
        let refused = installed.is_err();
        let (classes, context) =
            installed.unwrap_or_else(|_| (image.classes.clone(), ClassTable::OBJECT));
        let all = classes.ids();
        let degraded = refused || all.len() > MAX_CLASSES;
        let rows: Vec<ClassId> = all
            .iter()
            .copied()
            .filter(|c| !degraded || *c < ClassTable::OBJECT)
            .collect();
        let ids = if degraded { Vec::new() } else { all };
        let index: HashMap<ClassId, usize> = ids.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        let mut top = ClassSet::EMPTY;
        for i in 0..ids.len() {
            top.insert(i);
        }

        let selectors: Vec<Opcode> = image.opcodes.iter().map(|(op, _)| op).collect();
        let width = selectors.iter().map(|s| s.0 + 1).max().unwrap_or(0) as usize;
        let height = rows.iter().map(|c| c.0 as usize + 1).max().unwrap_or(0);
        let [dnu, bad] = TrapSelector::ALL.map(|t| image.opcodes.get(t.name()));
        let n = image.methods.len();
        let mut targets = vec![Target::Dnu { handler: None }; height * width];
        let mut handlers = vec![[None; 2]; height];
        for &class in &rows {
            let row = &mut targets[class.0 as usize * width..][..width];
            // The `doesNotUnderstand:` entry first: every selector the
            // class does not answer dispatches to it.
            let dnu_handler = dnu.and_then(|sel| {
                row[sel.0 as usize] = resolve(&classes, class, sel, None, n);
                row[sel.0 as usize].method()
            });
            for &sel in selectors.iter().filter(|s| Some(**s) != dnu) {
                row[sel.0 as usize] = resolve(&classes, class, sel, dnu_handler, n);
            }
            let bad_handler = bad.and_then(|sel| row[sel.0 as usize].method());
            handlers[class.0 as usize] = [dnu_handler, bad_handler];
        }
        ClassUniverse {
            classes,
            context,
            ids,
            index,
            top,
            width,
            targets,
            handlers,
        }
    }

    /// Number of classes in the universe.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the universe is empty: only for an image beyond
    /// [`MAX_CLASSES`], whose inference is degraded, or one no machine
    /// can load.
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

    /// What a receiver of `class` dispatching `selector` resolves to. A
    /// class the image does not register, or a selector it does not
    /// intern, is not understood.
    pub fn target(&self, class: ClassId, selector: Opcode) -> Target {
        let (row, col) = (class.0 as usize, selector.0 as usize);
        match self.targets.get(row * self.width + col) {
            Some(t) if col < self.width => *t,
            _ => Target::Dnu { handler: None },
        }
    }

    /// The image method the machine's trap dispatch runs for `trap` on a
    /// receiver of `class`, if any: the one
    /// [`lookup_trap_handler`](com_obj::lookup_trap_handler) finds.
    pub fn handler(&self, class: ClassId, trap: TrapSelector) -> Option<usize> {
        self.handlers.get(class.0 as usize)?[trap as usize]
    }

    /// The distinct [`handler`](Self::handler)s for `trap` over the
    /// classes in `set`, in class order.
    pub fn handlers(&self, set: &ClassSet, trap: TrapSelector) -> Vec<usize> {
        let mut out = Vec::new();
        for h in self.classes_in(set).filter_map(|c| self.handler(c, trap)) {
            if !out.contains(&h) {
                out.push(h);
            }
        }
        out
    }
}

/// The machine's lookup of `sel` for a receiver of `class`, read as a
/// [`Target`] over an image of `n` methods. A miss dispatches to `dnu`,
/// the class's `doesNotUnderstand:` handler.
fn resolve(
    classes: &ClassTable,
    class: ClassId,
    sel: Opcode,
    dnu: Option<usize>,
    n: usize,
) -> Target {
    let out = lookup_method(classes, class, sel);
    match out.method {
        Some(MethodRef::Primitive(p)) => Target::Primitive(p),
        Some(MethodRef::Defined(d)) if (d.slab as usize) < n => Target::Method(d.slab as usize),
        // An entry the image's class table carried rather than installed:
        // understood, but there is no code to analyse.
        Some(MethodRef::Defined(_)) => Target::Dnu { handler: None },
        // A superclass chain that loops traps as table corruption, and
        // no handler runs.
        None if out.cycle => Target::Dnu { handler: None },
        None => Target::Dnu { handler: dnu },
    }
}

/// What a (receiver class, selector) pair resolves to under the machine's
/// lookup over the loader's class table, as [`ClassUniverse::target`]
/// answers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A primitive function-unit operation.
    Primitive(PrimOp),
    /// The image method at this index.
    Method(usize),
    /// The send does not reach analysable code: no class on the chain
    /// answers (`doesNotUnderstand:`), the chain loops, or the entry found
    /// was not installed by the image.
    Dnu {
        /// The `doesNotUnderstand:` handler the machine runs instead, for
        /// a plain miss on a chain that installs one.
        handler: Option<usize>,
    },
}

impl Target {
    /// The image method, for a [`Target::Method`].
    fn method(self) -> Option<usize> {
        match self {
            Target::Method(i) => Some(i),
            _ => None,
        }
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
    install_sets: Vec<ClassSet>,
    cfgs: &'a [Cfg],
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
    // The summaries are numbered for the dependency log: method `m`'s
    // three are summary `m`, class index `i`'s heap is summary
    // `image.methods.len() + i`. `readers[s]` holds every method whose
    // analysis read summary `s`; `reads` and `grown` log the current
    // analysis.
    readers: Vec<BTreeSet<usize>>,
    reads: Vec<usize>,
    grown: Vec<usize>,
}

impl<'a> Analyzer<'a> {
    fn new(image: &'a ProgramImage, universe: &'a ClassUniverse, cfgs: &'a [Cfg]) -> Analyzer<'a> {
        // For each method, the receiver classes whose lookup of its
        // selector lands on it: the dispatch invariant that seeds every
        // entry state. One read per class and selector, not per method.
        let selectors: BTreeSet<Opcode> = image.methods.iter().map(|m| m.selector).collect();
        let mut install_sets = vec![ClassSet::EMPTY; image.methods.len()];
        for &class in universe.ids() {
            for &selector in &selectors {
                if let Target::Method(i) = universe.target(class, selector) {
                    install_sets[i].union(&universe.singleton(class));
                }
            }
        }
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
            install_sets,
            cfgs,
            uninit: universe.singleton(ClassId::UNINIT),
            int: universe.singleton(ClassId::SMALL_INT),
            atom: universe.singleton(ClassId::ATOM),
            context_set: universe.singleton(universe.context),
            returns: vec![ClassSet::EMPTY; image.methods.len()],
            may_write_ctx: vec![false; image.methods.len()],
            may_skip_result: vec![false; image.methods.len()],
            heap,
            readers: vec![BTreeSet::new(); image.methods.len() + universe.len()],
            reads: Vec::new(),
            grown: Vec::new(),
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
        &mut self,
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
                        if let Some(&i) = u.index.get(&c) {
                            out.union(&self.heap[i]);
                            self.reads.push(self.image.methods.len() + i);
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
    ) {
        let mut ret = ClassSet::EMPTY;
        let mut havoc = false;
        let mut strong = !callees.is_empty();
        for &m in callees {
            ret.union(&self.returns[m]);
            havoc |= self.may_write_ctx[m];
            strong &= !self.may_skip_result[m];
            self.reads.push(m);
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
            match self.universe.target(*rc, selector) {
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
                Target::Dnu { handler: Some(h) } => {
                    dnu_handled = true;
                    if !methods.contains(&h) {
                        methods.push(h);
                    }
                }
                Target::Dnu { handler: None } => dnu_unhandled = true,
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
            if returning {
                // The CFG treats a return-bit instruction as a block
                // exit, but a defined target turns it into a plain call
                // whose continuation is pc+1: model that edge.
                let mut post = st.clone();
                self.apply_call(&mut post, dest, false, &methods);
                ret_edge = Some(post);
            } else if mixed {
                // Some receivers call, some run a primitive: join the
                // called-path state into the straight-line one.
                let mut called = st.clone();
                self.apply_call(&mut called, dest, zero_form, &methods);
                st.join(&called);
            } else {
                self.apply_call(st, dest, zero_form, &methods);
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
                        if self.returns[mindex].union(&r) {
                            self.grown.push(mindex);
                        }
                    }
                    _ => {
                        // A no-result return: callers must weak-join.
                        if !self.may_skip_result[mindex] {
                            self.may_skip_result[mindex] = true;
                            self.grown.push(mindex);
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
                                    self.grown.push(mindex);
                                }
                            }
                            for rc in &receiver_classes {
                                if *rc == self.universe.context {
                                    continue;
                                }
                                if let Some(i) = self.universe.index.get(rc).copied() {
                                    if self.heap[i].union(&vset) {
                                        self.grown.push(self.image.methods.len() + i);
                                    }
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
                            self.grown.push(mindex);
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
                let handlers = self.universe.handlers(&bset, TrapSelector::BadOperands);
                if !handlers.is_empty() {
                    let mut trapped = st.clone();
                    self.apply_call(&mut trapped, dest, zero_form, &handlers);
                    st.join(&trapped);
                }
            }
        }

        // A receiver set that is ⊤ *and* includes classes we could not
        // enumerate never happens (the universe is closed); degradation
        // is handled before analysis starts. Nothing else to havoc.
        ret_edge
    }

    /// One analysis of a method: its block fixpoint under the current
    /// cross-method summaries, logging in `reads` the summaries it read
    /// and in `grown` the ones it grew. With `record`, a replay over the
    /// converged block states then appends one site per instruction.
    /// Returns the block visits.
    fn analyze_method(&mut self, mindex: usize, record: Option<&mut Vec<Site>>) -> usize {
        self.reads.clear();
        self.grown.clear();
        let code = &self.image.methods[mindex].code;
        let cfg = &self.cfgs[mindex];
        if code.instrs.is_empty() {
            return 0;
        }
        let entry_state = State::entry(self.install_sets[mindex], self.universe.top(), self.uninit);
        let mut in_states: Vec<Option<State>> = vec![None; cfg.blocks.len()];
        in_states[0] = Some(entry_state);
        let visits = solve([0], |bi, work| {
            let Some(mut st) = in_states[bi].clone() else {
                return;
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
            for succ in &block.succs {
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
                if grew {
                    work.push(target);
                }
            }
        });
        if let Some(out) = record {
            for (bi, block) in cfg.blocks.iter().enumerate() {
                let Some(mut st) = in_states[bi].clone() else {
                    // No path reaches the block: its sites are dead.
                    out.extend((block.start..block.end).map(|pc| Site {
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
                    continue;
                };
                for pc in block.start..block.end {
                    self.step(mindex, code, pc, &mut st, Some(&mut *out));
                }
            }
        }
        visits
    }

    /// Analyses every method until no summary grows, a method again only
    /// when a summary it read has grown since. Returns the method
    /// analyses.
    fn converge(&mut self) -> usize {
        let n = self.image.methods.len();
        solve(0..n, |m, work| {
            self.analyze_method(m, None);
            for &s in &self.reads {
                self.readers[s].insert(m);
            }
            for &s in &self.grown {
                for &r in &self.readers[s] {
                    work.push(r);
                }
            }
        })
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
    let universe = ClassUniverse::for_image(image);
    let n = image.methods.len();
    if universe.is_empty() {
        // Degraded: too many classes for the dense domain. Trivially
        // sound (no claims), no sites.
        return Ok(Inference {
            universe,
            sites: Vec::new(),
            returns: vec![ClassSet::EMPTY; n],
            may_write_ctx: vec![true; n],
            install_sets: vec![ClassSet::EMPTY; n],
            fresh: Vec::new(),
            degraded: true,
            site_base: vec![0; n + 1],
        });
    }

    let cfgs: Vec<Cfg> = image.methods.iter().map(|m| Cfg::build(&m.code)).collect();
    let mut analyzer = Analyzer::new(image, &universe, &cfgs);
    analyzer.converge();
    // Final collection pass with converged summaries.
    let mut sites = Vec::new();
    let mut site_base = Vec::with_capacity(n + 1);
    for m in 0..n {
        site_base.push(sites.len());
        analyzer.analyze_method(m, Some(&mut sites));
    }
    site_base.push(sites.len());

    let Analyzer {
        returns,
        may_write_ctx,
        install_sets,
        ..
    } = analyzer;
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
    use com_cache::Rng;
    use com_core::{Machine, MachineConfig, MachineError};
    use com_isa::Assembler;
    use com_obj::lookup_trap_handler;
    use com_stc::{compile_com, CompileOptions};
    use com_vm::{Vm, VmError};

    /// Converges `image` on a fresh analyzer and hands it to `check`
    /// with the method analyses the fixpoint took.
    fn with_converged<R>(image: &ProgramImage, check: impl FnOnce(&mut Analyzer, usize) -> R) -> R {
        let universe = ClassUniverse::for_image(image);
        assert!(!universe.is_empty(), "within the class budget");
        let cfgs: Vec<Cfg> = image.methods.iter().map(|m| Cfg::build(&m.code)).collect();
        let mut analyzer = Analyzer::new(image, &universe, &cfgs);
        let analyses = analyzer.converge();
        check(&mut analyzer, analyses)
    }

    fn compile(source: &str) -> ProgramImage {
        compile_com(source, CompileOptions::default()).unwrap_or_else(|e| panic!("{e}\n{source}"))
    }

    /// An expression over class `c`'s variables: a read, `self`, a
    /// number, an allocation of any class, or a send of one of the
    /// shared selectors (or `+`) to a smaller expression.
    fn random_expr(rng: &mut Rng, c: usize, classes: u64, selectors: u64, depth: u32) -> String {
        if depth > 0 && rng.below(2) == 0 {
            let receiver = random_expr(rng, c, classes, selectors, depth - 1);
            return match rng.below(4) {
                0 => format!(
                    "({receiver}) + {}",
                    random_expr(rng, c, classes, selectors, 0)
                ),
                _ => format!("({receiver}) s{}", rng.below(selectors)),
            };
        }
        match rng.below(6) {
            0 => format!("a{c}"),
            1 => format!("b{c}"),
            2 => "self".to_string(),
            3 => format!("G{} new", rng.below(classes)),
            4 => "2.5".to_string(),
            _ => "1".to_string(),
        }
    }

    /// A program of a few classes, some subclassing an earlier one, each
    /// answering most of a few shared selectors with methods that store
    /// to and read their variables, allocate, and send: so calls cycle,
    /// sends are polymorphic, and the heap summaries move.
    fn random_program(rng: &mut Rng) -> String {
        let classes = 2 + rng.below(4);
        let selectors = 3 + rng.below(5);
        let mut source = String::new();
        for c in 0..classes as usize {
            let parent = match rng.below(3) {
                0 if c > 0 => format!("G{}", rng.below(c as u64)),
                _ => "Object".to_string(),
            };
            source += &format!("class G{c} extends {parent} vars a{c} b{c}\n");
            for s in 0..selectors {
                if rng.below(4) == 0 {
                    continue;
                }
                source += &format!("  method s{s} ");
                for _ in 0..rng.below(4) {
                    let var = ["a", "b"][rng.below(2) as usize];
                    let value = random_expr(rng, c, classes, selectors, 2);
                    source += &format!("{var}{c} := {value}. ");
                }
                source += &format!("^{} end\n", random_expr(rng, c, classes, selectors, 2));
            }
            source += "end\n";
        }
        source
    }

    #[test]
    fn generated_images_reach_a_fixed_point_within_the_work_bound() {
        // Analysing every method once more under the converged summaries
        // grows none of them: the worklist stopped at a fixed point.
        let check = |image: &ProgramImage| {
            let n = image.methods.len();
            with_converged(image, |analyzer, analyses| {
                // The recording pass analyses every method once more.
                assert!(analyses + n <= 4 * n, "{analyses} analyses of {n} methods");
                for m in 0..n {
                    analyzer.analyze_method(m, None);
                    assert!(
                        analyzer.grown.is_empty(),
                        "method {m} grew {:?}",
                        analyzer.grown
                    );
                }
                let recursive = (0..n).filter(|&m| analyzer.readers[m].contains(&m)).count();
                let object = analyzer.universe.index[&ClassTable::OBJECT];
                let stored = (0..analyzer.heap.len())
                    .filter(|&i| i != object && !analyzer.heap[i].is_empty())
                    .count();
                (recursive, stored)
            })
        };
        let mut rng = Rng::new(0x00f1_c5ed);
        let (mut recursive, mut stored, mut polymorphic) = (0, 0, 0);
        for _ in 0..60 {
            let image = compile(&random_program(&mut rng));
            let (r, s) = check(&image);
            recursive += r;
            stored += s;
            let inference = infer_image(&image).expect("verifies");
            polymorphic += inference
                .sites
                .iter()
                .filter(|s| s.kind == SiteKind::Polymorphic)
                .count();
        }
        assert!(
            recursive > 0 && stored > 0 && polymorphic > 0,
            "{recursive} recursive methods, {stored} classes stored to, {polymorphic} polymorphic sites"
        );
        for w in com_workloads::all() {
            check(&compile(w.source));
        }
    }

    #[test]
    fn a_call_chain_takes_analyses_linear_in_its_length() {
        // Six classes, each a chain of 834 methods `m{i} ^self m{i+1}`:
        // 5,004 methods besides the standard library, within the 10-bit
        // selector field. A return set moves up the chain one caller per
        // sweep, and each sweep analyses only the callers whose callee
        // grew.
        let mut source = String::new();
        for c in 0..6 {
            source += &format!("class K{c} extends Object\n");
            for i in 0..834 {
                source += &format!("  method m{i} ^self m{} end\n", i + 1);
            }
            source += "end\n";
        }
        let image = compile(&source);
        let n = image.methods.len();
        assert!(n >= 5_000);
        let analyses = with_converged(&image, |_, analyses| analyses);
        assert!(analyses + n <= 4 * n, "{analyses} analyses of {n} methods");
    }

    #[test]
    fn a_long_method_takes_block_visits_linear_in_its_blocks() {
        // The 2,000 sequential conditionals of the acceptance suite's long
        // method: 6,000 blocks in a chain of diamonds.
        let body = "self > 0 ifTrue: [ x := x + 1 ]. ".repeat(2_000);
        let image = compile(&format!(
            "class SmallInteger method long | x | x := 0. {body}^x end end"
        ));
        let long = image.methods.len() - 1;
        with_converged(&image, |analyzer, _| {
            let blocks = analyzer.cfgs[long].blocks.len();
            let visits = analyzer.analyze_method(long, None);
            assert!(
                blocks >= 6_000 && visits <= 4 * blocks,
                "{visits} visits of {blocks} blocks"
            );
        });
    }

    #[test]
    fn the_joined_workload_image_takes_fewer_analyses_than_rounds_over_it() {
        // The image of every workload's source joined, which a server that
        // pre-seeds its ITLB analyses at start-up: 94 methods. Re-analysing
        // every method until a round changes nothing took three rounds and
        // the recording pass, 376 analyses.
        let sources: Vec<&str> = com_workloads::all().iter().map(|w| w.source).collect();
        let image = compile(&sources.join("\n"));
        let n = image.methods.len();
        assert_eq!(n, 94);
        let analyses = with_converged(&image, |_, analyses| analyses);
        assert!(analyses + n < 4 * n, "{analyses} analyses of {n} methods");
    }

    #[test]
    fn the_table_answers_what_a_loaded_machine_looks_up() {
        // Every (class, interned selector) pair against the lookup of a
        // machine that loaded the image, pairs no run dispatches included:
        // the soundness differential only sees the pairs a workload sends.
        let mut images = vec![compile("")];
        images.extend(com_workloads::all().iter().map(|w| compile(w.source)));
        let mut rng = Rng::new(0x7ab1_e5ed);
        images.extend((0..20).map(|_| compile(&random_program(&mut rng))));
        // `double` installed twice on SmallInteger (the second install
        // wins), and `+` overridden there.
        let mut image = double_image();
        let double = image.methods[0].clone();
        let mut asm = Assembler::new("SmallInteger ≫ +", 2);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(2),
            Operand::Cur(2),
        )
        .unwrap();
        image.add_method(ClassId::SMALL_INT, Opcode::ADD, asm.finish().unwrap());
        image.methods.push(double);
        images.push(image);

        for image in &images {
            let universe = ClassUniverse::for_image(image);
            let mut machine = Machine::new(MachineConfig::default());
            machine.load(image).expect("loads");
            let (classes, roots) = (machine.classes(), machine.code_roots());
            for &class in universe.ids() {
                for (sel, name) in image.opcodes.iter() {
                    match (
                        universe.target(class, sel),
                        lookup_method(classes, class, sel).method,
                    ) {
                        (Target::Primitive(p), Some(MethodRef::Primitive(q))) => assert_eq!(p, q),
                        (Target::Method(i), Some(MethodRef::Defined(d))) => {
                            assert_eq!(roots[i], d.code, "{class} {name}")
                        }
                        (Target::Dnu { .. }, None) => {}
                        (target, found) => {
                            panic!(
                                "{class} {name}: the table says {target:?}, the machine {found:?}"
                            )
                        }
                    }
                }
                for trap in TrapSelector::ALL {
                    let found = image
                        .opcodes
                        .get(trap.name())
                        .and_then(|sel| lookup_trap_handler(classes, class, sel).0);
                    let handler = universe.handler(class, trap).map(|i| roots[i]);
                    assert_eq!(handler, found.map(|d| d.code), "{class} {trap}");
                }
            }
        }
    }

    #[test]
    fn a_cyclic_superclass_chain_calls_no_handler() {
        // `Object`'s superclass looped back to `SmallInteger`: looking
        // `frobnicate` up from an integer traps as table corruption, and
        // the `doesNotUnderstand:` handler never runs.
        let mut image = compile(
            "class SmallInteger method probe ^self frobnicate end \
             method doesNotUnderstand: m ^7 end end",
        );
        image
            .classes
            .get_mut(ClassTable::OBJECT)
            .unwrap()
            .superclass = Some(ClassId::SMALL_INT);
        let vm = Vm::from_image(image.clone(), MachineConfig::default()).expect("verifies");
        match vm.session().expect("boots").call::<i64>("probe", 1) {
            Err(VmError::Trap(t)) => {
                assert!(
                    matches!(t.cause, MachineError::ClassChainCycle { .. }),
                    "{t}"
                );
                assert_eq!(t.stats.soft_traps, 0, "no handler ran");
            }
            other => panic!("expected a chain-cycle trap, got {other:?}"),
        }
        let probe = image.opcodes.get("probe").unwrap();
        let probe = image
            .methods
            .iter()
            .position(|m| m.selector == probe)
            .unwrap();
        let frobnicate = image.opcodes.get("frobnicate").unwrap();
        let inference = infer_image(&image).expect("verifies");
        let site = inference
            .sites_of(probe)
            .iter()
            .find(|s| s.selector == frobnicate)
            .unwrap();
        assert!(inference
            .universe
            .contains(&site.receivers, ClassId::SMALL_INT));
        assert!(site.methods.is_empty(), "{site:?}");
        assert!(!site.dnu_handled && site.dnu_unhandled, "{site:?}");
    }

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
