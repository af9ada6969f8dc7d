//! The benchmark's metric names and units, and the set a run fills in.
//!
//! `README.md` beside this crate says which layer each metric measures
//! and which end-to-end metric it should move.

use crate::json::Json;

/// End-to-end metrics: every untraced run reports each of these.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("sim_cpi", "cycles/instr"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("goodput_rps", "req/s"),
];

/// Per-layer metrics: every traced run reports each of these, with 0 for
/// a layer the workload does not use.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("stc.compile_ms", "ms"),
    ("stc.code_words", "words"),
    ("verify.check_ms", "ms"),
    ("verify.infer_ms", "ms"),
    ("verify.resolved_share", "share"),
    ("verify.live_sites", "count"),
    ("core.prepare_ms", "ms"),
    ("vm.build_ms", "ms"),
    ("vm.boot_us_p50", "us"),
    ("vm.boot_us_p99", "us"),
    ("vm.send_ns_per_instr", "ns/instr"),
    ("core.instructions", "count"),
    ("core.calls", "count"),
    ("core.taken_branches", "count"),
    ("core.soft_traps", "count"),
    ("core.full_lookups", "count"),
    ("core.cycles.branch_delay", "cycles/instr"),
    ("core.cycles.call_linkage", "cycles/instr"),
    ("core.cycles.operand_copy", "cycles/instr"),
    ("core.cycles.lookup", "cycles/instr"),
    ("core.cycles.icache_miss", "cycles/instr"),
    ("core.cycles.ctx_fault", "cycles/instr"),
    ("core.cycles.memory_op", "cycles/instr"),
    ("core.cycles.interlock", "cycles/instr"),
    ("core.cycles.gc", "cycles/instr"),
    ("obj.itlb_lookups", "count"),
    ("obj.itlb_hit_ratio", "share"),
    ("obj.itlb_probe_ns", "ns"),
    ("cache.icache_accesses", "count"),
    ("cache.icache_hit_ratio", "share"),
    ("core.ctx_reads", "count"),
    ("core.ctx_writes", "count"),
    ("core.ctx_faults", "count"),
    ("core.ctx_copybacks", "count"),
    ("core.contexts_left_to_gc", "count"),
    ("mem.gc_minor", "count"),
    ("mem.gc_full", "count"),
    ("mem.words_scanned", "words"),
    ("mem.words_freed", "words"),
    ("mem.scanned_per_freed", "ratio"),
    ("mem.promoted_segments", "count"),
    ("server.register_ms", "ms"),
    ("server.submit_us_p50", "us"),
    ("server.submit_us_p99", "us"),
    ("server.queued_p50", "count"),
    ("server.queued_p99", "count"),
    ("server.queued_max", "count"),
    ("server.instr_per_request", "instr"),
    ("server.attempts_per_request", "count"),
    ("server.completed", "count"),
    ("server.failed", "count"),
    ("server.refused", "count"),
    ("server.shed", "count"),
    ("server.deadline_exceeded", "count"),
    ("server.retries", "count"),
    ("server.drain_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.capture_keys", "count"),
    ("bench.sends", "count"),
    ("bench.spans", "count"),
];

/// Named metric values, in the order they were set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every name in `list` as a `{"name": {"value", "unit"}}` object, in
    /// the list's order; a name never set reads 0. Names set but not in
    /// the list are left out.
    pub fn render(&self, list: &[(&str, &str)]) -> Json {
        Json::Obj(
            list.iter()
                .map(|&(name, unit)| {
                    let value = self.get(name).unwrap_or(0.0);
                    (
                        name.to_string(),
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The names in `list` this set leaves unset.
    pub fn missing<'a>(&self, list: &[(&'a str, &str)]) -> Vec<&'a str> {
        list.iter()
            .map(|&(n, _)| n)
            .filter(|n| self.get(n).is_none())
            .collect()
    }
}
