//! Randomized invariants of the object system: dictionary model
//! equivalence, lookup laws, ITLB transparency. Inputs come from the
//! workspace's seeded generator.

use std::collections::HashMap;

use com_cache::{CacheConfig, Rng};
use com_isa::{Opcode, PrimOp};
use com_mem::ClassId;
use com_obj::{
    install_standard_primitives, lookup_method, ClassTable, Itlb, ItlbConfig, ItlbKey,
    MessageDictionary, MethodRef, Translation,
};

const CASES: u32 = 256;

fn prim(i: u64) -> MethodRef {
    // A small rotating set of distinguishable method payloads.
    const PRIMS: [PrimOp; 5] = [
        PrimOp::Add,
        PrimOp::Sub,
        PrimOp::Mul,
        PrimOp::Div,
        PrimOp::Move,
    ];
    MethodRef::Primitive(PRIMS[i as usize % PRIMS.len()])
}

/// The open-addressing message dictionary behaves exactly like a HashMap
/// under arbitrary insert/lookup interleavings (model-based test), and
/// probe counts stay bounded by the occupancy.
#[test]
fn dictionary_matches_model() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let mut dict = MessageDictionary::new();
        let mut model: HashMap<u16, MethodRef> = HashMap::new();
        for _ in 0..1 + rng.below(300) {
            let sel = rng.below(200) as u16;
            let payload = prim(rng.below(5));
            if rng.below(2) == 0 {
                dict.insert(Opcode(sel), payload);
                model.insert(sel, payload);
            } else {
                let (got, probes) = dict.lookup(Opcode(sel));
                assert_eq!(got, model.get(&sel).copied());
                assert!(probes as usize <= dict.len() + 1);
            }
        }
        assert_eq!(dict.len(), model.len());
        // Every model binding is reachable through iter().
        let mut seen: Vec<u16> = dict.iter().map(|(s, _)| s.0).collect();
        seen.sort_unstable();
        let mut expect: Vec<u16> = model.keys().copied().collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }
}

/// Lookup through a class chain equals lookup in the class nearest the
/// leaf that binds the selector (shadowing law), at any chain depth.
#[test]
fn lookup_shadowing_law() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let mut t = ClassTable::new();
        let mut chain = vec![ClassTable::OBJECT];
        for i in 0..1 + rng.below(7) {
            let parent = *chain.last().expect("nonempty");
            chain.push(t.define(&format!("C{i}"), Some(parent), 0).expect("fresh"));
        }
        let sel = Opcode(64 + rng.below(36) as u16);
        // Bind the selector at random classes with distinct payloads.
        let bound: Vec<bool> = chain.iter().map(|_| rng.below(2) == 0).collect();
        for (i, class) in chain.iter().enumerate() {
            if bound[i] {
                t.install(*class, sel, prim(i as u64));
            }
        }
        let expected = (0..chain.len())
            .rev()
            .find(|&i| bound[i])
            .map(|i| prim(i as u64));
        let got = lookup_method(&t, *chain.last().expect("nonempty"), sel);
        assert_eq!(got.method, expected);
        assert!(got.classes_visited as usize <= chain.len());
    }
}

/// The ITLB is semantically transparent: for any access sequence, a
/// machine that consults the ITLB (fill-on-miss) always produces the same
/// resolution as one that does a full lookup every time.
#[test]
fn itlb_transparency() {
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        let mut t = ClassTable::new();
        install_standard_primitives(&mut t);
        // A few user classes with scattered methods.
        let mut classes = vec![
            ClassId::SMALL_INT,
            ClassId::FLOAT,
            ClassId::ATOM,
            ClassTable::OBJECT,
        ];
        for i in 0..2 {
            let c = t
                .define(&format!("U{i}"), Some(ClassTable::OBJECT), 0)
                .expect("fresh");
            t.install(c, Opcode(70 + i), prim(i as u64));
            classes.push(c);
        }
        let cfg = ItlbConfig {
            geometry: CacheConfig::new(1 << (1 + rng.below(6)), 2).expect("valid"),
        };
        let mut itlb = Itlb::new(cfg);
        for _ in 0..1 + rng.below(400) {
            let class = classes[rng.below(classes.len() as u64) as usize];
            let key = ItlbKey::unary(Opcode(rng.below(80) as u16), class);
            let truth = lookup_method(&t, class, key.opcode)
                .method
                .map(Translation::from);
            let via_itlb = match itlb.lookup(key) {
                Some(m) => Some(m),
                None => {
                    if let Some(m) = truth {
                        itlb.fill(key, m);
                    }
                    truth
                }
            };
            assert_eq!(via_itlb, truth, "ITLB diverged from full lookup");
        }
    }
}
