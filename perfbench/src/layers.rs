//! Traced-only measurements of single layers: the set-up path split into
//! its public steps, session boot, and an ITLB replay.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use com_core::{LoadedImage, MachineConfig};
use com_isa::PrimOp;
use com_obj::{Itlb, ItlbConfig, ItlbKey, MethodRef};
use com_stc::CompileOptions;
use com_verify::ImageFacts;
use com_vm::{Vm, VmBuilder, Word};
use com_workloads::{Workload, MAX_STEPS};

use crate::metrics::Metrics;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Session boots timed for the boot percentiles (enough for a p99 with
/// ten samples beyond it).
pub const BOOTS: usize = 1000;

/// Runs `f`, inside a span named `name` when traced, and returns its
/// result and its duration in milliseconds.
pub fn timed<R>(
    mut tracer: Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let span = tracer.as_deref_mut().map(|t| t.enter(name, 0));
    let t = Instant::now();
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let (Some(tracer), Some(span)) = (tracer, span) {
        tracer.exit(span);
    }
    (out, ms)
}

/// The builder every workload uses for `source` on `config`.
pub fn builder(source: &str, config: MachineConfig, preseed: bool) -> VmBuilder {
    Vm::builder()
        .source(source)
        .config(config)
        .preseed_itlb(preseed)
}

/// Times each public set-up step `reps` times (medians reported) and
/// [`BOOTS`] session boots: `stc.*`, `verify.*`, `core.prepare_ms`,
/// `vm.build_ms` and `vm.boot_us_*`.
pub fn setup_steps(
    source: &str,
    config: MachineConfig,
    preseed: bool,
    reps: usize,
    tracer: &mut Tracer,
    m: &mut Metrics,
) {
    let root = tracer.enter("bench.setup_steps", 0);
    let (mut compile, mut check, mut infer, mut prepare, mut build) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut vm = None;
    for _ in 0..reps.max(1) {
        let (image, ms) = timed(Some(&mut *tracer), "stc.compile_com", || {
            com_stc::compile_com(source, CompileOptions::default())
                .expect("shipped programs compile")
        });
        compile.push(ms);
        let code_words: u64 = image.methods.iter().map(|s| s.code.size_words()).sum();
        m.set("stc.code_words", code_words as f64);
        let ((), ms) = timed(Some(&mut *tracer), "verify.verify_image", || {
            com_verify::verify_image(&image).expect("shipped programs verify")
        });
        check.push(ms);
        let (facts, ms) = timed(Some(&mut *tracer), "verify.analyze", || {
            ImageFacts::analyze(&image).expect("shipped programs analyze")
        });
        infer.push(ms);
        let live = facts.summary.live_sites as f64;
        m.set("verify.live_sites", live);
        m.set(
            "verify.resolved_share",
            crate::stats::ratio(facts.summary.monomorphic as f64, live),
        );
        let (_, ms) = timed(Some(&mut *tracer), "core.prepare_for", || {
            LoadedImage::prepare_for(image, &config)
        });
        prepare.push(ms);
        let (built, ms) = timed(Some(&mut *tracer), "vm.build", || {
            builder(source, config, preseed)
                .build()
                .expect("shipped programs build")
        });
        build.push(ms);
        vm = Some(built);
    }
    m.set("stc.compile_ms", median(&compile));
    m.set("verify.check_ms", median(&check));
    m.set("verify.infer_ms", median(&infer));
    m.set("core.prepare_ms", median(&prepare));
    m.set("vm.build_ms", median(&build));
    let vm = vm.expect("at least one repetition");
    let boots: Vec<f64> = (0..BOOTS)
        .map(|_| {
            let (session, ms) = timed(Some(&mut *tracer), "vm.session", || vm.session());
            drop(session.expect("sessions boot"));
            ms * 1e3
        })
        .collect();
    let p50 = percentile(&boots, 50.0).expect("boots were timed");
    let p99 = percentile(&boots, 99.0).expect("boots were timed");
    m.set("vm.boot_us_p50", p50.value);
    m.set("vm.boot_us_p99", p99.value);
    tracer.exit(root);
}

/// Keys replayed per repetition at most.
const MAX_KEYS: usize = 4_000_000;

/// Replays of the key stream; the median per-lookup time is reported.
const REPLAYS: usize = 9;

/// Host time of one ITLB probe: records the dispatch key stream of one
/// send of each program (through `Machine::set_dispatch_observer`), then
/// replays it through a standalone paper-geometry [`Itlb`], filling on
/// every miss. Returns the median nanoseconds per lookup and the number
/// of keys replayed.
pub fn itlb_probe_ns(vm: &Vm, programs: &[Workload]) -> (f64, usize) {
    let keys: Arc<Mutex<Vec<ItlbKey>>> = Arc::default();
    let mut session = vm.session().expect("sessions boot");
    let sink = Arc::clone(&keys);
    session.machine_mut().set_dispatch_observer(move |e| {
        let mut keys = sink.lock().expect("key sink is never poisoned");
        if keys.len() < MAX_KEYS {
            keys.push(e.key);
        }
    });
    for w in programs {
        session
            .send_raw(w.entry, Word::Int(w.size), &[], MAX_STEPS)
            .expect("capture sends succeed");
    }
    session.machine_mut().clear_dispatch_observer();
    let keys = std::mem::take(&mut *keys.lock().expect("key sink is never poisoned"));
    let config = ItlbConfig::paper_default().expect("paper geometry is valid");
    let filler = MethodRef::Primitive(PrimOp::Add);
    let per_key: Vec<f64> = (0..REPLAYS)
        .map(|_| {
            let mut itlb = Itlb::new(config);
            let t = Instant::now();
            for &key in &keys {
                if black_box(itlb.lookup(black_box(key))).is_none() {
                    itlb.fill(key, filler);
                }
            }
            t.elapsed().as_nanos() as f64 / keys.len().max(1) as f64
        })
        .collect();
    (median(&per_key), keys.len())
}
