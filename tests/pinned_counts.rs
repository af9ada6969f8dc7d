//! Pinned simulation counts: every workload's `CycleStats`, its ITLB,
//! icache and context-cache counters and its collector totals, exactly as
//! recorded.
//!
//! The `run`-vs-`run_stepwise` differential cannot see a change to the
//! stage functions both loops share (`resolve`, `do_call`, `do_return`,
//! `trap_dispatch`), and perfbench's `sim_cpi` bound allows 1%. This test
//! holds the simulated machine to exact counts across commits: each of
//! the 11 workloads once on the paper machine, and the five allocating
//! programs again under generational GC at the perfbench `sim_alloc`
//! cadence. Under generational GC every `GcTotals` field is pinned too,
//! so a collector change that moved words scanned against segments swept
//! fails here even where `gc_cycles` sums the same. A change to the
//! modelled hardware updates the table on purpose; the failure message
//! prints the measured rows in table syntax.
//!
//! A fresh session per run never sends into a context cache that earlier
//! sends filled, so the repeated-send tables pin one session of the joined
//! image of all 11 workloads: two rounds of every entry send, the counts
//! read after each send, at 32 blocks with copyback and at 8 blocks
//! without. They hold which block the context cache evicts (its LRU
//! stamps) once residents outlive their send.

use com_machine::cache::CacheStats;
use com_machine::core::{CtxCacheStats, CycleStats, GcTotals, MachineConfig};
use com_machine::mem::Word;
use com_machine::vm::{Session, Vm};
use com_machine::workloads::{self, Workload};

/// One pinned run: every `CycleStats` field in declaration order, then
/// the ITLB and icache `[hits, misses, evictions, fills, invalidations]`,
/// then the context cache's eight counters and the nine `GcTotals` fields,
/// each in declaration order. The paper machine runs no collection, so its
/// rows hold `[0; 9]` there.
struct Pinned {
    workload: &'static str,
    cycles: [u64; 21],
    itlb: [u64; 5],
    icache: [u64; 5],
    ctx: [u64; 8],
    gc: [u64; 9],
}

fn cycles(s: CycleStats) -> [u64; 21] {
    // Exhaustive: a new field fails to compile here instead of going
    // unpinned.
    let CycleStats {
        instructions,
        base_cycles,
        branch_delay_cycles,
        call_linkage_cycles,
        operand_copy_cycles,
        lookup_cycles,
        icache_miss_cycles,
        ctx_fault_cycles,
        memory_op_cycles,
        interlock_cycles,
        gc_cycles,
        calls,
        returns,
        taken_branches,
        full_lookups,
        contexts_allocated,
        contexts_freed_lifo,
        contexts_left_to_gc,
        gc_runs,
        gc_minor_runs,
        soft_traps,
    } = s;
    [
        instructions,
        base_cycles,
        branch_delay_cycles,
        call_linkage_cycles,
        operand_copy_cycles,
        lookup_cycles,
        icache_miss_cycles,
        ctx_fault_cycles,
        memory_op_cycles,
        interlock_cycles,
        gc_cycles,
        calls,
        returns,
        taken_branches,
        full_lookups,
        contexts_allocated,
        contexts_freed_lifo,
        contexts_left_to_gc,
        gc_runs,
        gc_minor_runs,
        soft_traps,
    ]
}

fn cache(s: CacheStats) -> [u64; 5] {
    let CacheStats {
        hits,
        misses,
        evictions,
        fills,
        invalidations,
    } = s;
    [hits, misses, evictions, fills, invalidations]
}

fn ctx(s: CtxCacheStats) -> [u64; 8] {
    let CtxCacheStats {
        reads,
        writes,
        directory_lookups,
        directory_hits,
        faults,
        copybacks,
        clears,
        releases,
    } = s;
    [
        reads,
        writes,
        directory_lookups,
        directory_hits,
        faults,
        copybacks,
        clears,
        releases,
    ]
}

fn gc(t: GcTotals) -> [u64; 9] {
    let GcTotals {
        minor_collections,
        full_collections,
        minor_words_scanned,
        full_words_scanned,
        minor_words_freed,
        full_words_freed,
        minor_segments_swept,
        full_segments_swept,
        promoted_segments,
    } = t;
    [
        minor_collections,
        full_collections,
        minor_words_scanned,
        full_words_scanned,
        minor_words_freed,
        full_words_freed,
        minor_segments_swept,
        full_segments_swept,
        promoted_segments,
    ]
}

/// A session's counts in table form, with `cycles` for its `CycleStats`.
fn snapshot(workload: &'static str, cycles_of: CycleStats, session: &Session) -> Pinned {
    Pinned {
        workload,
        cycles: cycles(cycles_of),
        itlb: cache(session.itlb_stats().expect("paper machine has an ITLB")),
        icache: cache(session.icache_stats().expect("paper machine has an icache")),
        ctx: ctx(session
            .ctx_cache_stats()
            .expect("paper machine has a context cache")),
        gc: gc(session.gc_totals()),
    }
}

/// Runs `w` once on a fresh session and returns its counts in table form.
fn measure(w: &Workload, config: MachineConfig) -> Pinned {
    let (out, session) = workloads::run_com(w, config, workloads::MAX_STEPS)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    assert_eq!(
        out.result,
        Word::Int(w.expected),
        "{}: wrong answer",
        w.name
    );
    snapshot(w.name, out.stats, &session)
}

/// Boots one session of the joined image of every workload and sends
/// every workload's entry twice over, returning the session's cumulative
/// counts after each send.
fn repeated_sends(config: MachineConfig) -> Vec<Pinned> {
    let all = workloads::all();
    let sources: Vec<&str> = all.iter().map(|w| w.source).collect();
    let vm = Vm::builder()
        .source(&sources.join("\n"))
        .config(config)
        .build()
        .expect("the workloads compile");
    let mut session = vm.session().expect("boot");
    let mut rows = Vec::new();
    for _round in 0..2 {
        for w in &all {
            let out = workloads::run_on(w, &mut session, workloads::MAX_STEPS)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(
                out.result,
                Word::Int(w.expected),
                "{}: wrong answer",
                w.name
            );
            rows.push(snapshot(w.name, session.stats(), &session));
        }
    }
    rows
}

fn row(p: &Pinned) -> String {
    format!(
        "    Pinned {{\n        workload: {:?},\n        cycles: {:?},\n        itlb: {:?},\n        icache: {:?},\n        ctx: {:?},\n        gc: {:?},\n    }},\n",
        p.workload, p.cycles, p.itlb, p.icache, p.ctx, p.gc
    )
}

/// Compares measured rows against a pinned table, reporting every
/// divergent row and the full measured table on failure.
fn check(table: &str, expected: &[Pinned], measured: &[Pinned]) {
    let diverged: Vec<String> = measured
        .iter()
        .enumerate()
        .filter(|(i, m)| {
            expected.get(*i).is_none_or(|e| {
                (e.workload, e.cycles, e.itlb, e.icache, e.ctx, e.gc)
                    != (m.workload, m.cycles, m.itlb, m.icache, m.ctx, m.gc)
            })
        })
        .map(|(i, m)| format!("{i}: {}", m.workload))
        .collect();
    assert!(
        diverged.is_empty() && expected.len() == measured.len(),
        "{table}: counts diverged for {diverged:?}; measured:\n{}",
        measured.iter().map(row).collect::<String>()
    );
}

/// `sim_alloc`'s cadence: a minor collection every 1,009 steps, a full
/// one every 8,072.
fn generational() -> MachineConfig {
    MachineConfig::paper().with_generational_gc(1009, 8072)
}

#[test]
fn every_workload_repeats_its_pinned_counts_on_the_paper_machine() {
    let runs: Vec<_> = workloads::all()
        .iter()
        .map(|w| measure(w, MachineConfig::paper()))
        .collect();
    check("paper machine", PAPER, &runs);
}

#[test]
fn allocating_programs_repeat_their_pinned_counts_under_generational_gc() {
    let runs: Vec<_> = [
        workloads::TREES,
        workloads::COLLECTIONS,
        workloads::CHURN,
        workloads::IMAGE,
        workloads::CLOSURES,
    ]
    .iter()
    .map(|w| measure(w, generational()))
    .collect();
    check("generational GC", GENERATIONAL, &runs);
}

#[test]
fn repeated_sends_on_one_session_repeat_their_pinned_counts_at_32_blocks_with_copyback() {
    let rows = repeated_sends(generational());
    check("32 blocks, copyback", REPEATED_32_COPYBACK, &rows);
}

#[test]
fn repeated_sends_on_one_session_repeat_their_pinned_counts_at_8_blocks_without_copyback() {
    let mut config = generational().with_ctx_blocks(8);
    config.copyback = false;
    let rows = repeated_sends(config);
    check("8 blocks, no copyback", REPEATED_8_NO_COPYBACK, &rows);
}

const PAPER: &[Pinned] = &[
    Pinned {
        workload: "sort",
        cycles: [
            34196, 68392, 6815, 2590, 3882, 536, 1000, 0, 19652, 13404, 0, 1295, 1296, 6815, 32,
            1297, 1295, 0, 0, 0, 0,
        ],
        itlb: [34164, 32, 0, 32, 0],
        icache: [34071, 125, 0, 125, 0],
        ctx: [55777, 30893, 1294, 1294, 0, 0, 2592, 1295],
        gc: [0; 9],
    },
    Pinned {
        workload: "trees",
        cycles: [
            42381, 84762, 6005, 7162, 10740, 528, 1048, 0, 30940, 17080, 0, 3581, 3582, 6005, 25,
            3583, 3581, 0, 0, 0, 0,
        ],
        itlb: [42356, 25, 0, 25, 0],
        icache: [42250, 131, 0, 131, 0],
        ctx: [65777, 49965, 3580, 3580, 0, 0, 7164, 3581],
        gc: [0; 9],
    },
    Pinned {
        workload: "dispatch",
        cycles: [
            13600, 27200, 1201, 4832, 7245, 1400, 928, 0, 7900, 5344, 0, 2416, 2417, 1201, 57,
            2418, 2416, 0, 0, 0, 0,
        ],
        itlb: [13543, 57, 0, 57, 0],
        icache: [13484, 116, 0, 116, 0],
        ctx: [28036, 24460, 2415, 2415, 0, 0, 4834, 2416],
        gc: [0; 9],
    },
    Pinned {
        workload: "arith",
        cycles: [
            42396, 84792, 9111, 3002, 4500, 340, 400, 0, 0, 13114, 0, 1501, 1502, 9111, 19, 1503,
            1501, 0, 0, 0, 0,
        ],
        itlb: [42377, 19, 0, 19, 0],
        icache: [42346, 50, 0, 50, 0],
        ctx: [62064, 38787, 1500, 1500, 0, 0, 3004, 1501],
        gc: [0; 9],
    },
    Pinned {
        workload: "collections",
        cycles: [
            25157, 50314, 5515, 1870, 2802, 640, 1072, 0, 20584, 9757, 0, 935, 936, 5515, 33, 937,
            935, 0, 0, 0, 0,
        ],
        itlb: [25124, 33, 0, 33, 0],
        icache: [25023, 134, 0, 134, 0],
        ctx: [38668, 22732, 934, 934, 0, 0, 1872, 935],
        gc: [0; 9],
    },
    Pinned {
        workload: "image",
        cycles: [
            48521, 97042, 6138, 9694, 14538, 356, 816, 0, 25656, 18536, 0, 4847, 4848, 6138, 21,
            4849, 4847, 0, 0, 0, 0,
        ],
        itlb: [48500, 21, 0, 21, 0],
        icache: [48419, 102, 0, 102, 0],
        ctx: [97151, 64340, 4846, 4846, 0, 0, 9696, 4847],
        gc: [0; 9],
    },
    Pinned {
        workload: "closures",
        cycles: [
            7674, 15348, 1201, 916, 1371, 452, 352, 0, 7336, 2230, 0, 458, 459, 1201, 23, 460, 457,
            2, 0, 0, 0,
        ],
        itlb: [7651, 23, 0, 23, 0],
        icache: [7630, 44, 0, 44, 0],
        ctx: [11510, 8413, 1371, 1371, 0, 0, 917, 457],
        gc: [0; 9],
    },
    Pinned {
        workload: "churn",
        cycles: [
            34817, 69634, 5663, 6104, 9153, 580, 976, 0, 12884, 8808, 0, 3052, 3053, 5663, 28,
            3054, 3052, 0, 0, 0, 0,
        ],
        itlb: [34789, 28, 0, 28, 0],
        icache: [34695, 122, 0, 122, 0],
        ctx: [66513, 41363, 3051, 3051, 0, 0, 6106, 3052],
        gc: [0; 9],
    },
    Pinned {
        workload: "dnu_proxy",
        cycles: [
            987, 1974, 121, 128, 189, 3924, 328, 0, 1700, 309, 0, 64, 65, 121, 137, 66, 64, 0, 0,
            0, 61,
        ],
        itlb: [911, 76, 0, 16, 0],
        icache: [946, 41, 0, 41, 0],
        ctx: [1608, 1061, 63, 63, 0, 0, 130, 64],
        gc: [0; 9],
    },
    Pinned {
        workload: "calls",
        cycles: [
            13809, 27618, 1973, 3946, 5916, 184, 112, 0, 0, 4931, 0, 1973, 1974, 1973, 9, 1975,
            1973, 0, 0, 0, 0,
        ],
        itlb: [13800, 9, 0, 9, 0],
        icache: [13795, 14, 0, 14, 0],
        ctx: [23674, 20713, 1972, 1972, 0, 0, 3948, 1973],
        gc: [0; 9],
    },
    Pinned {
        workload: "scheduler",
        cycles: [
            15462, 30924, 1068, 3294, 4938, 1088, 1416, 0, 14264, 7581, 0, 1647, 1648, 1068, 46,
            1649, 1647, 0, 0, 0, 0,
        ],
        itlb: [15416, 46, 0, 46, 0],
        icache: [15285, 177, 0, 177, 0],
        ctx: [27534, 21512, 1646, 1646, 0, 0, 3296, 1647],
        gc: [0; 9],
    },
];

const GENERATIONAL: &[Pinned] = &[
    Pinned {
        workload: "trees",
        cycles: [
            42381, 84762, 6005, 7162, 10740, 528, 1048, 0, 30940, 17080, 23189, 3581, 3582, 6005,
            25, 3583, 3581, 0, 42, 37, 0,
        ],
        itlb: [42356, 25, 0, 25, 0],
        icache: [42250, 131, 0, 131, 0],
        ctx: [65777, 49965, 3821, 3821, 0, 0, 7164, 3581],
        gc: [37, 5, 13672, 9517, 0, 0, 0, 0, 301],
    },
    Pinned {
        workload: "collections",
        cycles: [
            25157, 50314, 5515, 1870, 2802, 640, 1072, 0, 20584, 9757, 12107, 935, 936, 5515, 33,
            937, 935, 0, 24, 21, 0,
        ],
        itlb: [25124, 33, 0, 33, 0],
        icache: [25023, 134, 0, 134, 0],
        ctx: [38668, 22732, 978, 978, 0, 0, 1872, 935],
        gc: [21, 3, 7444, 4603, 0, 0, 3, 3, 65],
    },
    Pinned {
        workload: "churn",
        cycles: [
            34817, 69634, 5663, 6104, 9153, 580, 976, 0, 12884, 8808, 13920, 3052, 3053, 5663, 28,
            3054, 3052, 0, 34, 30, 0,
        ],
        itlb: [34789, 28, 0, 28, 0],
        icache: [34695, 122, 0, 122, 0],
        ctx: [66513, 41363, 3062, 3062, 0, 0, 6106, 3052],
        gc: [30, 4, 5006, 6944, 2384, 736, 149, 48, 86],
    },
    Pinned {
        workload: "image",
        cycles: [
            48521, 97042, 6138, 9694, 14538, 356, 816, 0, 25656, 18536, 21071, 4847, 4848, 6138,
            21, 4849, 4847, 0, 48, 42, 0,
        ],
        itlb: [48500, 21, 0, 21, 0],
        icache: [48419, 102, 0, 102, 0],
        ctx: [97151, 64340, 4864, 4864, 0, 0, 9696, 4847],
        gc: [42, 6, 7072, 13999, 0, 0, 0, 0, 54],
    },
    Pinned {
        workload: "closures",
        cycles: [
            7674, 15348, 1201, 916, 1371, 452, 352, 0, 7336, 2230, 1465, 458, 459, 1201, 23, 460,
            457, 2, 7, 7, 0,
        ],
        itlb: [7651, 23, 0, 23, 0],
        icache: [7630, 44, 0, 44, 0],
        ctx: [11510, 8413, 1374, 1374, 0, 0, 917, 457],
        gc: [7, 0, 1465, 0, 0, 0, 0, 0, 55],
    },
];

const REPEATED_32_COPYBACK: &[Pinned] = &[
    Pinned {
        workload: "sort",
        cycles: [
            34196, 68392, 6815, 2590, 3882, 544, 1000, 0, 19652, 13404, 20839, 1295, 1296, 6815,
            32, 1297, 1295, 0, 33, 29, 0,
        ],
        itlb: [34164, 32, 0, 32, 0],
        icache: [34071, 125, 0, 125, 0],
        ctx: [55777, 30893, 1370, 1370, 0, 0, 2592, 1295],
        gc: [29, 4, 10747, 10092, 0, 0, 0, 0, 116],
    },
    Pinned {
        workload: "trees",
        cycles: [
            76577, 153154, 12820, 9752, 14622, 824, 2048, 0, 50592, 30484, 49541, 4876, 4878,
            12820, 45, 4880, 4876, 0, 75, 66, 0,
        ],
        itlb: [76532, 45, 0, 45, 0],
        icache: [76321, 256, 0, 256, 0],
        ctx: [121554, 80858, 5147, 5147, 0, 0, 9756, 4876],
        gc: [66, 9, 24147, 25374, 0, 257, 0, 2, 350],
    },
    Pinned {
        workload: "dispatch",
        cycles: [
            90177, 180354, 14021, 14584, 21867, 1976, 2896, 0, 58492, 35828, 59585, 7292, 7295,
            14021, 86, 7298, 7292, 0, 89, 78, 0,
        ],
        itlb: [90091, 86, 2, 86, 0],
        icache: [89815, 362, 0, 362, 0],
        ctx: [149590, 105318, 7569, 7569, 0, 0, 14590, 7292],
        gc: [78, 11, 27021, 30404, 0, 1110, 0, 216, 361],
    },
    Pinned {
        workload: "arith",
        cycles: [
            132573, 265146, 23132, 17586, 26367, 2084, 3296, 0, 58492, 48942, 83781, 8793, 8797,
            23132, 93, 8801, 8793, 0, 131, 115, 0,
        ],
        itlb: [132480, 93, 2, 93, 0],
        icache: [132161, 412, 0, 412, 0],
        ctx: [211654, 144105, 9103, 9103, 0, 0, 17594, 8793],
        gc: [115, 16, 38644, 42797, 0, 1169, 0, 234, 363],
    },
    Pinned {
        workload: "collections",
        cycles: [
            157730, 315460, 28647, 19456, 29169, 2336, 3880, 0, 79076, 58699, 104605, 9728, 9733,
            28647, 104, 9738, 9728, 0, 156, 137, 0,
        ],
        itlb: [157626, 104, 3, 104, 0],
        icache: [157245, 485, 0, 485, 0],
        ctx: [250322, 166837, 10081, 10081, 0, 0, 19466, 9728],
        gc: [137, 19, 50571, 51524, 0, 1210, 3, 248, 371],
    },
    Pinned {
        workload: "image",
        cycles: [
            206251, 412502, 34785, 29150, 43707, 2372, 4600, 0, 104732, 77235, 150955, 14575,
            14581, 34785, 107, 14587, 14575, 0, 204, 179, 0,
        ],
        itlb: [206144, 107, 3, 107, 0],
        icache: [205676, 575, 0, 575, 0],
        ctx: [347473, 231177, 14942, 14942, 0, 0, 29162, 14575],
        gc: [179, 25, 70260, 78165, 0, 1213, 3, 250, 375],
    },
    Pinned {
        workload: "closures",
        cycles: [
            213925, 427850, 35986, 30066, 45078, 2620, 4952, 0, 112068, 79465, 157463, 15033,
            15040, 35986, 119, 15047, 15032, 2, 212, 186, 0,
        ],
        itlb: [213806, 119, 3, 119, 0],
        icache: [213306, 619, 0, 619, 0],
        ctx: [358983, 239590, 16318, 16318, 0, 0, 30079, 15032],
        gc: [186, 26, 73727, 81176, 0, 3262, 3, 253, 379],
    },
    Pinned {
        workload: "churn",
        cycles: [
            248742, 497484, 41649, 36170, 54231, 2632, 5432, 0, 124952, 88273, 191385, 18085,
            18093, 41649, 120, 18101, 18084, 2, 246, 216, 0,
        ],
        itlb: [248622, 120, 3, 120, 0],
        icache: [248063, 679, 0, 679, 0],
        ctx: [425496, 280953, 19382, 19382, 0, 0, 36185, 18084],
        gc: [216, 30, 92399, 94496, 2384, 4430, 152, 297, 414],
    },
    Pinned {
        workload: "dnu_proxy",
        cycles: [
            249729, 499458, 41770, 36298, 54420, 4948, 5760, 0, 126652, 88582, 192379, 18149,
            18158, 41770, 248, 18167, 18148, 2, 247, 217, 61,
        ],
        itlb: [249542, 187, 5, 127, 0],
        icache: [249009, 720, 0, 720, 0],
        ctx: [427104, 282014, 19447, 19447, 0, 0, 36315, 18148],
        gc: [217, 30, 93083, 94496, 2532, 4430, 183, 297, 418],
    },
    Pinned {
        workload: "calls",
        cycles: [
            263538, 527076, 43743, 40244, 60336, 4972, 5872, 0, 126652, 93513, 207321, 20122,
            20132, 43743, 250, 20142, 20121, 2, 261, 229, 61,
        ],
        itlb: [263349, 189, 5, 129, 0],
        icache: [262804, 734, 0, 734, 0],
        ctx: [450778, 302727, 21503, 21503, 0, 7, 40263, 20121],
        gc: [229, 32, 101947, 100014, 2532, 5996, 183, 353, 435],
    },
    Pinned {
        workload: "scheduler",
        cycles: [
            279000, 558000, 44811, 43538, 65274, 5816, 7176, 0, 140916, 101094, 220214, 21769,
            21780, 44811, 278, 21791, 21768, 2, 276, 242, 61,
        ],
        itlb: [278783, 217, 11, 157, 0],
        icache: [278103, 897, 0, 897, 0],
        ctx: [478312, 324239, 23155, 23155, 0, 7, 43559, 21768],
        gc: [242, 34, 109224, 105620, 2532, 5997, 183, 354, 449],
    },
    Pinned {
        workload: "sort",
        cycles: [
            313196, 626392, 51626, 46128, 69156, 5828, 7192, 0, 160568, 114498, 252890, 23064,
            23076, 51626, 279, 23088, 23063, 2, 310, 272, 61,
        ],
        itlb: [312978, 218, 12, 158, 0],
        icache: [312297, 899, 0, 899, 0],
        ctx: [534089, 355132, 24519, 24519, 0, 13, 46151, 23063],
        gc: [272, 38, 129740, 117530, 2532, 6267, 183, 379, 458],
    },
    Pinned {
        workload: "trees",
        cycles: [
            355577, 711154, 57631, 53290, 79896, 5916, 7208, 0, 191508, 131578, 297800, 26645,
            26658, 57631, 282, 26671, 26644, 2, 352, 308, 61,
        ],
        itlb: [355356, 221, 15, 161, 0],
        icache: [354676, 901, 0, 901, 0],
        ctx: [599866, 405097, 28301, 28301, 0, 14, 53315, 26644],
        gc: [308, 44, 154371, 137779, 2532, 6556, 183, 382, 692],
    },
    Pinned {
        workload: "dispatch",
        cycles: [
            369177, 738354, 58832, 58122, 87141, 6180, 7224, 0, 199408, 136922, 309067, 29061,
            29075, 58832, 291, 29089, 29060, 2, 365, 320, 61,
        ],
        itlb: [368947, 230, 24, 170, 0],
        icache: [368274, 903, 0, 903, 0],
        ctx: [627902, 429557, 30720, 30720, 0, 14, 58149, 29060],
        gc: [320, 45, 160637, 140600, 2532, 7425, 183, 600, 703],
    },
    Pinned {
        workload: "arith",
        cycles: [
            411573, 823146, 67943, 61124, 91641, 6200, 7224, 0, 199408, 150036, 345773, 30562,
            30577, 67943, 292, 30592, 30561, 2, 407, 357, 61,
        ],
        itlb: [411342, 231, 25, 171, 0],
        icache: [410670, 903, 0, 903, 0],
        ctx: [689966, 468344, 32268, 32268, 0, 14, 61153, 30561],
        gc: [357, 50, 183268, 154445, 2532, 7504, 183, 623, 705],
    },
    Pinned {
        workload: "collections",
        cycles: [
            436730, 873460, 73458, 62994, 94443, 6236, 7240, 0, 219992, 159793, 376503, 31497,
            31513, 73458, 294, 31529, 31496, 2, 432, 378, 61,
        ],
        itlb: [436497, 233, 27, 173, 0],
        icache: [435825, 905, 0, 905, 0],
        ctx: [728634, 491076, 33255, 33255, 0, 15, 63025, 31496],
        gc: [378, 54, 201282, 167061, 2532, 7549, 185, 631, 714],
    },
    Pinned {
        workload: "image",
        cycles: [
            485251, 970502, 79596, 72688, 108981, 6236, 7240, 0, 245648, 178329, 435285, 36344,
            36361, 79596, 294, 36378, 36343, 2, 480, 420, 61,
        ],
        itlb: [485018, 233, 27, 173, 0],
        icache: [484346, 905, 0, 905, 0],
        ctx: [825785, 555416, 38117, 38117, 0, 15, 72721, 36343],
        gc: [420, 60, 231723, 195382, 2532, 7552, 185, 633, 718],
    },
    Pinned {
        workload: "closures",
        cycles: [
            492925, 985850, 80797, 73604, 110352, 6248, 7256, 0, 252984, 180559, 443769, 36802,
            36820, 80797, 295, 36838, 36800, 4, 488, 427, 61,
        ],
        itlb: [492691, 234, 28, 174, 0],
        icache: [492018, 907, 0, 907, 0],
        ctx: [837295, 563829, 39490, 39490, 0, 15, 73638, 36800],
        gc: [427, 61, 236886, 198673, 2532, 9601, 185, 636, 722],
    },
    Pinned {
        workload: "churn",
        cycles: [
            527742, 1055484, 86460, 79708, 119505, 6248, 7272, 0, 265868, 189367, 487467, 39854,
            39873, 86460, 295, 39892, 39852, 4, 523, 458, 61,
        ],
        itlb: [527508, 234, 28, 174, 0],
        icache: [526833, 909, 0, 909, 0],
        ctx: [903808, 605192, 42555, 42555, 0, 15, 79744, 39852],
        gc: [458, 65, 264137, 213130, 4964, 10817, 337, 683, 756],
    },
    Pinned {
        workload: "dnu_proxy",
        cycles: [
            528729, 1057458, 86581, 79836, 119694, 8444, 7288, 0, 267568, 189676, 488972, 39918,
            39938, 86581, 418, 39958, 39916, 4, 524, 459, 122,
        ],
        itlb: [528433, 296, 30, 176, 0],
        icache: [527818, 911, 0, 911, 0],
        ctx: [905416, 606253, 42619, 42619, 0, 15, 79874, 39916],
        gc: [459, 65, 265042, 213130, 5204, 10817, 397, 683, 759],
    },
    Pinned {
        workload: "calls",
        cycles: [
            542538, 1085076, 88554, 83782, 125610, 8444, 7304, 0, 267568, 194607, 503563, 41891,
            41912, 88554, 418, 41933, 41889, 4, 537, 470, 122,
        ],
        itlb: [542242, 296, 30, 176, 0],
        icache: [541625, 913, 0, 913, 0],
        ctx: [929090, 626966, 44687, 44687, 0, 30, 83822, 41889],
        gc: [470, 67, 273785, 218648, 5208, 12479, 398, 715, 776],
    },
    Pinned {
        workload: "scheduler",
        cycles: [
            558000, 1116000, 89622, 87076, 130548, 8640, 7304, 0, 281832, 202188, 517160, 43538,
            43560, 89622, 425, 43582, 43536, 4, 553, 484, 122,
        ],
        itlb: [557697, 303, 37, 183, 0],
        icache: [557087, 913, 0, 913, 0],
        ctx: [956624, 648478, 46345, 46345, 0, 30, 87118, 43536],
        gc: [484, 69, 281766, 224254, 5208, 12480, 398, 716, 790],
    },
];

const REPEATED_8_NO_COPYBACK: &[Pinned] = &[
    Pinned {
        workload: "sort",
        cycles: [
            34196, 68392, 6815, 2590, 3882, 544, 1000, 992, 19652, 13404, 16967, 1295, 1296, 6815,
            32, 1297, 1295, 0, 33, 29, 0,
        ],
        itlb: [34164, 32, 0, 32, 0],
        icache: [34071, 125, 0, 125, 0],
        ctx: [55777, 30863, 1370, 1309, 31, 0, 2592, 1295],
        gc: [29, 4, 6875, 10092, 0, 0, 0, 0, 116],
    },
    Pinned {
        workload: "trees",
        cycles: [
            76577, 153154, 12820, 9752, 14622, 824, 2048, 23456, 50592, 30484, 41989, 4876, 4878,
            12820, 45, 4880, 4876, 0, 75, 66, 0,
        ],
        itlb: [76532, 45, 0, 45, 0],
        icache: [76321, 256, 0, 256, 0],
        ctx: [121554, 80127, 5724, 4260, 733, 0, 9756, 4876],
        gc: [66, 9, 16915, 25024, 0, 329, 0, 5, 350],
    },
    Pinned {
        workload: "dispatch",
        cycles: [
            90177, 180354, 14021, 14584, 21867, 1976, 2896, 23456, 58492, 35828, 51125, 7292, 7295,
            14021, 86, 7298, 7292, 0, 89, 78, 0,
        ],
        itlb: [90091, 86, 2, 86, 0],
        icache: [89815, 362, 0, 362, 0],
        ctx: [149590, 104587, 8146, 6682, 733, 0, 14590, 7292],
        gc: [78, 11, 19021, 29914, 0, 1182, 0, 219, 361],
    },
    Pinned {
        workload: "arith",
        cycles: [
            132573, 265146, 23132, 17586, 26367, 2084, 3296, 23456, 58492, 48942, 71269, 8793,
            8797, 23132, 93, 8801, 8793, 0, 131, 115, 0,
        ],
        itlb: [132480, 93, 2, 93, 0],
        icache: [132161, 412, 0, 412, 0],
        ctx: [211654, 143374, 9680, 8216, 733, 0, 17594, 8793],
        gc: [115, 16, 27092, 41797, 0, 1273, 0, 238, 363],
    },
    Pinned {
        workload: "collections",
        cycles: [
            157730, 315460, 28647, 19456, 29169, 2336, 3880, 23744, 79076, 58699, 84811, 9728,
            9733, 28647, 104, 9738, 9728, 0, 156, 137, 0,
        ],
        itlb: [157626, 104, 3, 104, 0],
        icache: [157245, 485, 0, 485, 0],
        ctx: [250322, 166098, 10658, 9177, 742, 0, 19466, 9728],
        gc: [137, 19, 32427, 49754, 0, 1498, 3, 260, 371],
    },
    Pinned {
        workload: "image",
        cycles: [
            206251, 412502, 34785, 29150, 43707, 2372, 4600, 23744, 104732, 77235, 118729, 14575,
            14581, 34785, 107, 14587, 14575, 0, 204, 179, 0,
        ],
        itlb: [206144, 107, 3, 107, 0],
        icache: [205676, 575, 0, 575, 0],
        ctx: [347473, 230438, 15519, 14038, 742, 0, 29162, 14575],
        gc: [179, 25, 41364, 74715, 0, 1501, 3, 262, 375],
    },
    Pinned {
        workload: "closures",
        cycles: [
            213925, 427850, 35986, 30066, 45078, 2620, 4952, 23744, 112068, 79465, 123165, 15033,
            15040, 35986, 119, 15047, 15032, 2, 212, 186, 0,
        ],
        itlb: [213806, 119, 3, 119, 0],
        icache: [213306, 619, 0, 619, 0],
        ctx: [358983, 238851, 16895, 15414, 742, 0, 30079, 15032],
        gc: [186, 26, 43039, 77446, 0, 3550, 3, 265, 379],
    },
    Pinned {
        workload: "churn",
        cycles: [
            248742, 497484, 41649, 36170, 54231, 2632, 5432, 23744, 124952, 88273, 143140, 18085,
            18093, 41649, 120, 18101, 18084, 2, 246, 216, 0,
        ],
        itlb: [248622, 120, 3, 120, 0],
        icache: [248063, 679, 0, 679, 0],
        ctx: [425496, 280214, 19959, 18478, 742, 0, 36185, 18084],
        gc: [216, 30, 49455, 88975, 2384, 4899, 152, 319, 414],
    },
    Pinned {
        workload: "dnu_proxy",
        cycles: [
            249729, 499458, 41770, 36298, 54420, 4948, 5760, 23744, 126652, 88582, 143718, 18149,
            18158, 41770, 248, 18167, 18148, 2, 247, 217, 61,
        ],
        itlb: [249542, 187, 5, 127, 0],
        icache: [249009, 720, 0, 720, 0],
        ctx: [427104, 281275, 20024, 18543, 742, 0, 36315, 18148],
        gc: [217, 30, 49723, 88975, 2532, 4899, 183, 319, 418],
    },
    Pinned {
        workload: "calls",
        cycles: [
            263538, 527076, 43743, 40244, 60336, 4972, 5872, 26560, 126652, 93513, 151848, 20122,
            20132, 43743, 250, 20142, 20121, 2, 261, 229, 61,
        ],
        itlb: [263349, 189, 5, 129, 0],
        icache: [262804, 734, 0, 734, 0],
        ctx: [450778, 301901, 22113, 20457, 830, 0, 40263, 20121],
        gc: [229, 32, 52635, 93643, 2532, 6433, 183, 374, 435],
    },
    Pinned {
        workload: "scheduler",
        cycles: [
            279000, 558000, 44811, 43538, 65274, 5816, 7192, 26560, 140916, 101094, 158899, 21769,
            21780, 44811, 278, 21791, 21768, 2, 276, 242, 61,
        ],
        itlb: [278783, 217, 11, 157, 0],
        icache: [278101, 899, 2, 899, 0],
        ctx: [478312, 323413, 23765, 22109, 830, 0, 43559, 21768],
        gc: [242, 34, 54920, 98399, 2532, 6434, 183, 375, 449],
    },
    Pinned {
        workload: "sort",
        cycles: [
            313196, 626392, 51626, 46128, 69156, 5828, 7224, 27552, 160568, 114498, 175277, 23064,
            23076, 51626, 279, 23088, 23063, 2, 310, 272, 61,
        ],
        itlb: [312978, 218, 12, 158, 0],
        icache: [312293, 903, 4, 903, 0],
        ctx: [534089, 354276, 25130, 23413, 861, 0, 46151, 23063],
        gc: [272, 38, 60780, 108727, 2532, 6627, 183, 394, 458],
    },
    Pinned {
        workload: "trees",
        cycles: [
            355577, 711154, 57631, 53290, 79896, 5916, 7240, 50016, 191508, 131578, 203255, 26645,
            26658, 57631, 282, 26671, 26644, 2, 352, 308, 61,
        ],
        itlb: [355356, 221, 15, 161, 0],
        icache: [354672, 905, 4, 905, 0],
        ctx: [599866, 403540, 29500, 26380, 1563, 0, 53315, 26644],
        gc: [308, 44, 70915, 126520, 2532, 6956, 183, 399, 692],
    },
    Pinned {
        workload: "dispatch",
        cycles: [
            369177, 738354, 58832, 58122, 87141, 6180, 7256, 50016, 199408, 136922, 209910, 29061,
            29075, 58832, 291, 29089, 29060, 2, 365, 320, 61,
        ],
        itlb: [368947, 230, 24, 170, 0],
        icache: [368270, 907, 4, 907, 0],
        ctx: [627902, 428000, 31919, 28799, 1563, 0, 58149, 29060],
        gc: [320, 45, 72957, 128953, 2532, 7825, 183, 617, 703],
    },
    Pinned {
        workload: "arith",
        cycles: [
            411573, 823146, 67943, 61124, 91641, 6200, 7272, 50016, 199408, 150036, 230318, 30562,
            30577, 67943, 292, 30592, 30561, 2, 407, 357, 61,
        ],
        itlb: [411342, 231, 25, 171, 0],
        icache: [410664, 909, 4, 909, 0],
        ctx: [689966, 466787, 33467, 30347, 1563, 0, 61153, 30561],
        gc: [357, 50, 81380, 140698, 2532, 7936, 183, 641, 705],
    },
    Pinned {
        workload: "collections",
        cycles: [
            436730, 873460, 73458, 62994, 94443, 6236, 7288, 50304, 219992, 159793, 246772, 31497,
            31513, 73458, 294, 31529, 31496, 2, 432, 378, 61,
        ],
        itlb: [436497, 233, 27, 173, 0],
        icache: [435819, 911, 4, 911, 0],
        ctx: [728634, 489511, 34454, 31317, 1572, 0, 63025, 31496],
        gc: [378, 54, 87234, 151138, 2532, 8125, 185, 655, 714],
    },
    Pinned {
        workload: "image",
        cycles: [
            485251, 970502, 79596, 72688, 108981, 6236, 7304, 50304, 245648, 178329, 280690, 36344,
            36361, 79596, 294, 36378, 36343, 2, 480, 420, 61,
        ],
        itlb: [485018, 233, 27, 173, 0],
        icache: [484338, 913, 4, 913, 0],
        ctx: [825785, 553851, 39316, 36179, 1572, 0, 72721, 36343],
        gc: [420, 60, 96171, 176099, 2532, 8128, 185, 657, 718],
    },
    Pinned {
        workload: "closures",
        cycles: [
            492925, 985850, 80797, 73604, 110352, 6248, 7320, 50304, 252984, 180559, 285030, 36802,
            36820, 80797, 295, 36838, 36800, 4, 488, 427, 61,
        ],
        itlb: [492691, 234, 28, 174, 0],
        icache: [492010, 915, 4, 915, 0],
        ctx: [837295, 562264, 40689, 37552, 1572, 0, 73638, 36800],
        gc: [427, 61, 97750, 178830, 2532, 10177, 185, 660, 722],
    },
    Pinned {
        workload: "churn",
        cycles: [
            527742, 1055484, 86460, 79708, 119505, 6248, 7336, 50304, 265868, 189367, 305341,
            39854, 39873, 86460, 295, 39892, 39852, 4, 523, 458, 61,
        ],
        itlb: [527508, 234, 28, 174, 0],
        icache: [526825, 917, 4, 917, 0],
        ctx: [903808, 603627, 43754, 40617, 1572, 0, 79744, 39852],
        gc: [458, 65, 104425, 190376, 4964, 11574, 337, 717, 756],
    },
    Pinned {
        workload: "dnu_proxy",
        cycles: [
            528729, 1057458, 86581, 79836, 119694, 8444, 7352, 50304, 267568, 189676, 306174,
            39918, 39938, 86581, 418, 39958, 39916, 4, 524, 459, 122,
        ],
        itlb: [528433, 296, 30, 176, 0],
        icache: [527810, 919, 4, 919, 0],
        ctx: [905416, 604688, 43818, 40681, 1572, 0, 79874, 39916],
        gc: [459, 65, 104658, 190376, 5204, 11574, 397, 717, 759],
    },
    Pinned {
        workload: "calls",
        cycles: [
            542538, 1085076, 88554, 83782, 125610, 8444, 7352, 53120, 267568, 194607, 314537,
            41891, 41912, 88554, 418, 41933, 41889, 4, 537, 470, 122,
        ],
        itlb: [542242, 296, 30, 176, 0],
        icache: [541619, 919, 4, 919, 0],
        ctx: [929090, 625314, 45925, 42613, 1660, 0, 83822, 41889],
        gc: [470, 67, 108153, 195044, 5208, 12916, 398, 736, 776],
    },
    Pinned {
        workload: "scheduler",
        cycles: [
            558000, 1116000, 89622, 87076, 130548, 8640, 7352, 53120, 281832, 202188, 321908,
            43538, 43560, 89622, 425, 43582, 43536, 4, 553, 484, 122,
        ],
        itlb: [557697, 303, 37, 183, 0],
        icache: [557081, 919, 4, 919, 0],
        ctx: [956624, 646826, 47583, 44271, 1660, 0, 87118, 43536],
        gc: [484, 69, 110758, 199800, 5208, 12917, 398, 737, 790],
    },
];
