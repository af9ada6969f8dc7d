//! Minor collection after a tenured object is grown (§2.2: "both the old
//! and the new pointers are set to point to the new segment"), when the
//! old name is held only by a tenured holder that the write barrier never
//! remembered. The grow must remember the forwarding alias, or the minor
//! collection sweeps the new name while it is still reachable.

use com_fpa::FpaFormat;
use com_mem::{gc, AllocKind, ClassId, ObjectSpace, TeamId, Word};

const TEAM: TeamId = TeamId(0);
const CLS: ClassId = ClassId(9);

#[test]
fn grown_tenured_object_survives_minor_gc_via_tenured_holder() {
    let mut s = ObjectSpace::new(22, FpaFormat::COM);
    let holder = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
    let obj = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
    s.write(TEAM, obj, Word::Int(7)).unwrap();
    // holder -> obj stored BEFORE promotion (both end up tenured, holder
    // never enters the remembered set).
    s.write(TEAM, holder, Word::Ptr(obj)).unwrap();
    gc::collect(&mut s, TEAM, &[holder], &[]).unwrap(); // promote both
    assert_eq!(s.barrier_stats().remembered_segments, 0);

    // Grow the tenured object: its storage moves to a fresh (nursery)
    // block under a new (nursery) name; `obj` becomes a forwarded alias.
    let new = s.grow(TEAM, obj, 64).unwrap();
    assert_eq!(s.read(TEAM, new).unwrap(), Word::Int(7));

    // Minor collection rooted at the tenured holder only.
    gc::collect_minor(&mut s, TEAM, &[holder], &[]).unwrap();

    // The object is fully reachable: holder -> obj -(forward)-> new.
    assert_eq!(s.read(TEAM, obj).unwrap(), Word::Int(7), "stale alias read");
    assert!(
        s.read(TEAM, new).is_ok(),
        "grown (new) name swept by minor GC while reachable via holder->obj->forward"
    );
}

#[test]
fn grown_tenured_matches_reference_full_sweep() {
    // Differential twin: reference = one full sweep; subject = minor then
    // full. Liveness must match.
    let build = |s: &mut ObjectSpace| {
        let holder = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        let obj = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
        s.write(TEAM, obj, Word::Int(7)).unwrap();
        s.write(TEAM, holder, Word::Ptr(obj)).unwrap();
        gc::collect(s, TEAM, &[holder], &[]).unwrap();
        let new = s.grow(TEAM, obj, 64).unwrap();
        (holder, obj, new)
    };
    let mut subject = ObjectSpace::new(22, FpaFormat::COM);
    let mut reference = ObjectSpace::new(22, FpaFormat::COM);
    let (h_s, o_s, n_s) = build(&mut subject);
    let (h_r, o_r, n_r) = build(&mut reference);

    gc::collect(&mut reference, TEAM, &[h_r], &[]).unwrap();
    gc::collect_minor(&mut subject, TEAM, &[h_s], &[]).unwrap();
    gc::collect(&mut subject, TEAM, &[h_s], &[]).unwrap();

    assert_eq!(
        subject.read(TEAM, o_s).is_ok(),
        reference.read(TEAM, o_r).is_ok(),
        "alias liveness diverged"
    );
    assert_eq!(
        subject.read(TEAM, n_s).is_ok(),
        reference.read(TEAM, n_r).is_ok(),
        "grown-name liveness diverged"
    );
}
