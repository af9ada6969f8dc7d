//! Every claim of the paper's experiments holds: one test per experiment,
//! asserting each claim `repro` prints. Figures 10 and 11 share one
//! merged trace, so their two sweeps run side by side.

use std::sync::OnceLock;

use com_bench::experiments::{self, Experiment};
use com_bench::merged_fith_trace;
use com_trace::Trace;

/// Asserts that `e` makes `claims` claims and that all of them hold.
fn assert_claims(e: Experiment, claims: usize) {
    let lines: Vec<String> = e.claims.iter().map(|c| e.line(c)).collect();
    assert_eq!(lines.len(), claims, "{}: {lines:#?}", e.id);
    let failures = e.failures();
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

fn trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(merged_fith_trace)
}

/// One `#[test]` per experiment: its name, the experiment, and how many
/// claims it makes.
macro_rules! claims_hold {
    ($($test:ident: $experiment:expr, $claims:expr;)*) => {$(
        #[test]
        fn $test() {
            assert_claims($experiment, $claims);
        }
    )*};
}

claims_hold! {
    t1_call_and_return_cost: experiments::t1(), 3;
    t2_context_cache_almost_never_misses: experiments::t2(), 1;
    t3_stack_machine_needs_about_twice_the_instructions: experiments::t3(), 1;
    t4_floating_point_addresses_name_small_and_large_objects: experiments::t4(), 3;
    t5_contexts_dominate_and_lifo_freeing_cuts_gc: experiments::t5(), 5;
    t6_base_rate_is_two_cycles_per_instruction: experiments::t6(), 1;
    fig10_itlb_hits_99_percent_at_512_entries: experiments::fig10(trace()), 1;
    fig11_icache_hits_99_percent_at_4096_entries: experiments::fig11(trace()), 1;
    a1_itlb_removes_lookup_overhead: experiments::a1(), 2;
    a2_context_cache_lowers_cpi: experiments::a2(), 1;
    a3_real_block_conditionals_cost_more: experiments::a3(), 1;
}
