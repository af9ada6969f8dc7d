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

use com_machine::cache::CacheStats;
use com_machine::core::{CtxCacheStats, CycleStats, GcTotals, MachineConfig};
use com_machine::mem::Word;
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
    Pinned {
        workload: w.name,
        cycles: cycles(out.stats),
        itlb: cache(session.itlb_stats().expect("paper machine has an ITLB")),
        icache: cache(session.icache_stats().expect("paper machine has an icache")),
        ctx: ctx(session
            .ctx_cache_stats()
            .expect("paper machine has a context cache")),
        gc: gc(session.gc_totals()),
    }
}

fn row(p: &Pinned) -> String {
    format!(
        "    Pinned {{\n        workload: {:?},\n        cycles: {:?},\n        itlb: {:?},\n        icache: {:?},\n        ctx: {:?},\n        gc: {:?},\n    }},\n",
        p.workload, p.cycles, p.itlb, p.icache, p.ctx, p.gc
    )
}

/// Compares measured runs against a pinned table, reporting every
/// divergent run and the full measured table on failure.
fn check(table: &str, expected: &[Pinned], runs: &[(Workload, MachineConfig)]) {
    let measured: Vec<Pinned> = runs.iter().map(|(w, c)| measure(w, *c)).collect();
    let diverged: Vec<&str> = measured
        .iter()
        .enumerate()
        .filter(|(i, m)| {
            expected.get(*i).is_none_or(|e| {
                (e.workload, e.cycles, e.itlb, e.icache, e.ctx, e.gc)
                    != (m.workload, m.cycles, m.itlb, m.icache, m.ctx, m.gc)
            })
        })
        .map(|(_, m)| m.workload)
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
        .into_iter()
        .map(|w| (w, MachineConfig::paper()))
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
    .into_iter()
    .map(|w| (w, generational()))
    .collect();
    check("generational GC", GENERATIONAL, &runs);
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
