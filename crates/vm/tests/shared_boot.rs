//! Sessions share what they only read: a booted session shares the image's
//! class, selector and atom tables, and a pre-seeded one starts from a copy
//! of the ITLB one machine was seeded with. Both must be invisible: a
//! shared boot runs exactly as a session that seeds its own ITLB, and a
//! session that changes a table changes only its own.

use com_vm::{Session, Vm, Word};
use com_workloads::run_on;

/// Every workload's pre-seeded session boots and runs exactly as a plain
/// session of the same image that seeds its own ITLB with the facts' keys:
/// same ITLB counters at boot, and after the entry send the same result,
/// `CycleStats` and ITLB, icache and context-cache counters.
#[test]
fn a_shared_seeded_boot_matches_seeding_each_session() {
    for w in com_workloads::all() {
        let seeded = Vm::builder()
            .source(w.source)
            .preseed_itlb(true)
            .build()
            .expect("workloads compile");
        let plain = Vm::builder()
            .source(w.source)
            .build()
            .expect("workloads compile");
        let keys = seeded.facts().expect("workloads verify").preseed_keys();
        let mut shared = seeded.session().expect("boot");
        let mut own = plain.session().expect("boot");
        own.machine_mut().preseed_itlb(&keys);
        assert_eq!(shared.itlb_stats(), own.itlb_stats(), "{}: at boot", w.name);

        let a = run_on(&w, &mut shared, u64::MAX).expect("workloads run");
        let b = run_on(&w, &mut own, u64::MAX).expect("workloads run");
        assert_eq!(a.result, b.result, "{}", w.name);
        assert_eq!(a.stats, b.stats, "{}", w.name);
        assert_eq!(shared.itlb_stats(), own.itlb_stats(), "{}", w.name);
        assert_eq!(shared.icache_stats(), own.icache_stats(), "{}", w.name);
        assert_eq!(
            shared.ctx_cache_stats(),
            own.ctx_cache_stats(),
            "{}",
            w.name
        );
    }
}

const PROGRAM: &str = "class SmallInteger method double ^self + self end end";

const OTHER: &str = "
    class Other extends Object
      method tag ^#elsewhere end
    end
    class SmallInteger method other ^Other new tag end end";

/// Whether two sessions read the very same class, selector and atom tables.
fn same_tables(a: &Session, b: &Session) -> bool {
    let (a, b) = (a.machine(), b.machine());
    std::ptr::eq(a.classes(), b.classes())
        && std::ptr::eq(a.opcodes(), b.opcodes())
        && std::ptr::eq(a.atoms(), b.atoms())
}

/// A session that interns a selector, or loads another image, changes its
/// own tables only: its siblings and every later session keep reading the
/// image's, and run its program as before.
#[test]
fn a_session_that_changes_its_tables_leaves_the_others_alone() {
    let other = com_stc::compile_com(OTHER, Default::default()).expect("compiles");
    for preseed in [false, true] {
        let vm = Vm::builder()
            .source(PROGRAM)
            .preseed_itlb(preseed)
            .build()
            .expect("compiles");
        let mut a = vm.session().expect("boot");
        let mut b = vm.session().expect("boot");
        assert!(same_tables(&a, &b), "booted sessions share the tables");
        let double = a.machine_mut().intern_selector("double").expect("known");
        assert_eq!(b.machine().opcodes().get("double"), Some(double));
        assert!(same_tables(&a, &b), "a known name copies nothing");

        let fresh = a.machine_mut().intern_selector("fresh").expect("room");
        assert_eq!(a.machine().opcodes().get("fresh"), Some(fresh));
        let c = vm.session().expect("boot");
        a.machine_mut().load(&other).expect("loads");
        assert!(a.machine().classes().by_name("Other").is_some());
        let Ok(Word::Atom(tag)) = a.call::<Word>("other", 1) else {
            panic!("`other` answers an atom");
        };
        assert_eq!(a.machine().atoms().name(tag), Some("elsewhere"));

        let d = vm.session().expect("boot");
        for s in [&b, &c, &d] {
            assert!(
                same_tables(s, &b),
                "later sessions still share the image's tables"
            );
            assert!(!same_tables(s, &a));
            let m = s.machine();
            assert_eq!(m.opcodes().get("fresh"), None);
            assert_eq!(m.opcodes().get("other"), None);
            assert_eq!(m.classes().by_name("Other"), None);
            assert_ne!(m.atoms().name(tag), Some("elsewhere"));
        }
        assert_eq!(vm.image().image().opcodes.get("fresh"), None);
        assert_eq!(b.call::<i64>("double", 21), Ok(42));
    }
}
