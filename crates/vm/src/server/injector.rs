//! Deterministic fault injection for the service runtime.
//!
//! A [`FaultPlan`] names, ahead of time, exactly which requests fail and
//! how: *this tenant's third request traps after 40 retired
//! instructions; that one's first request loses its worker to a panic at
//! step 12*. The supervisor consults the plan at the `resume(budget)`
//! cadence — it caps the slice so the victim lands **exactly** on the
//! chosen step count, then applies the fault — so a seeded plan replays
//! bit-identically run after run. Random plans draw from the workspace's
//! seeded xorshift64 generator ([`com_cache::Rng`]), so a soak run is
//! reproducible from its seed alone.
//!
//! Faults apply to the **first attempt** of a request only: a retry (see
//! [`RetryPolicy`](crate::server::RetryPolicy)) runs clean, which is
//! what lets a soak distinguish "retry recovered the request" from
//! "request failed terminally".

use std::collections::{BTreeMap, HashMap};

use com_cache::Rng;

/// The panic message used by injected worker panics (and matched by
/// [`FaultPlan::silence_injected_panics`]).
pub(crate) const INJECTED_PANIC: &str = "injected worker panic (FaultPlan)";

/// What an injected fault does to its victim request when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The call is unwound and reported as a machine trap
    /// ([`VmError::Trap`](crate::VmError::Trap) whose cause is
    /// `BadOperands` with the reason `"injected fault (FaultPlan)"`, and
    /// whose partial statistics are the victim's honest delta). Not
    /// retry-safe — like a real program trap, it would fail again.
    Trap,
    /// The call is unwound and reported as
    /// [`VmError::Stalled`](crate::VmError::Stalled) — the wedged-machine
    /// condition. Retry-safe.
    Stall,
    /// The call is unwound and reported as
    /// [`VmError::OutOfFuel`](crate::VmError::OutOfFuel) whose reported
    /// budget is the injected step count — a tenant whose fuel bucket
    /// ran dry. Retry-safe when the budget is below the policy's
    /// `retry_fuel_limit`.
    OutOfFuel,
    /// The worker thread driving the victim's slice panics. Contained
    /// exactly like an engine panic and reported as
    /// [`VmError::EnginePanic`](crate::VmError::EnginePanic); retry-safe
    /// (panics are transient), though non-idempotent in-flight calls are
    /// still never retried.
    WorkerPanic,
}

impl FaultKind {
    /// Short stable label (soak reports, retry statistics).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Trap => "trap",
            FaultKind::Stall => "stall",
            FaultKind::OutOfFuel => "out_of_fuel",
            FaultKind::WorkerPanic => "worker_panic",
        }
    }
}

/// One planned fault: fire `kind` on the victim request once its first
/// attempt has retired exactly `at_step` instructions.
///
/// If the request completes before reaching `at_step`, the fault never
/// fires — a plan is a set of tripwires, not a quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// What happens.
    pub kind: FaultKind,
    /// Retired-instruction count (within the attempt) at which it
    /// happens.
    pub at_step: u64,
}

/// A deterministic schedule of faults keyed by (tenant name, per-tenant
/// request sequence number).
///
/// Build one explicitly with [`inject`](Self::inject), or sample one
/// pseudo-randomly (seeded, reproducible) with [`seeded`](Self::seeded).
/// An empty plan injects nothing and costs one hash probe per slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// tenant → (request seq → fault).
    faults: HashMap<String, BTreeMap<u64, InjectedFault>>,
}

impl FaultPlan {
    /// An empty plan: no faults, zero overhead beyond a lookup.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds one fault: tenant `tenant`'s request number `request`
    /// (0-based, in per-tenant submission order) suffers `kind` at
    /// retired-instruction `at_step` of its first attempt. Replaces any
    /// fault already planned for that request.
    pub fn inject(
        mut self,
        tenant: &str,
        request: u64,
        kind: FaultKind,
        at_step: u64,
    ) -> FaultPlan {
        self.faults
            .entry(tenant.to_string())
            .or_default()
            .insert(request, InjectedFault { kind, at_step });
        self
    }

    /// Samples a plan with the seeded xorshift64 generator
    /// ([`com_cache::Rng`]): each of `requests` per tenant is faulted with
    /// probability `per_mille`/1000, with the fault kind cycled
    /// pseudo-randomly over all four kinds and `at_step` drawn from
    /// `1..=max_at_step`. The same inputs always produce the same plan.
    pub fn seeded(
        seed: u64,
        tenants: &[String],
        requests: u64,
        per_mille: u32,
        max_at_step: u64,
    ) -> FaultPlan {
        let mut rng = Rng::new(seed);
        let mut plan = FaultPlan::new();
        let kinds = [
            FaultKind::Trap,
            FaultKind::Stall,
            FaultKind::OutOfFuel,
            FaultKind::WorkerPanic,
        ];
        for tenant in tenants {
            for request in 0..requests {
                if rng.below(1000) < u64::from(per_mille) {
                    let kind = kinds[rng.below(4) as usize];
                    let at_step = 1 + rng.below(max_at_step.max(1));
                    plan = plan.inject(tenant, request, kind, at_step);
                }
            }
        }
        plan
    }

    /// The fault planned for (tenant, request), if any.
    pub fn fault_for(&self, tenant: &str, request: u64) -> Option<InjectedFault> {
        self.faults.get(tenant)?.get(&request).copied()
    }

    /// Total planned faults.
    pub fn len(&self) -> usize {
        self.faults.values().map(BTreeMap::len).sum()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Planned faults of one kind (soak accounting).
    pub fn count_of(&self, kind: FaultKind) -> usize {
        self.faults
            .values()
            .flat_map(BTreeMap::values)
            .filter(|f| f.kind == kind)
            .count()
    }

    /// Installs (once per process) a panic hook that swallows the
    /// reports of **injected** worker panics — whose message is private
    /// to this harness — and forwards every real panic to the previous
    /// hook untouched. Injected panics are expected, caught, and
    /// reported as typed per-request errors; their default-hook stderr
    /// spew would drown a soak log. Call it from any test, bench, or
    /// example that runs a plan containing
    /// [`FaultKind::WorkerPanic`].
    pub fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(INJECTED_PANIC))
                    || info
                        .payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.contains(INJECTED_PANIC));
                if !injected {
                    previous(info);
                }
            }));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plans_look_up_by_tenant_and_sequence() {
        let plan = FaultPlan::new()
            .inject("alice", 2, FaultKind::Trap, 40)
            .inject("bob", 0, FaultKind::Stall, 12);
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.fault_for("alice", 2),
            Some(InjectedFault {
                kind: FaultKind::Trap,
                at_step: 40
            })
        );
        assert_eq!(plan.fault_for("alice", 1), None);
        assert_eq!(plan.fault_for("carol", 0), None);
        // Re-injecting the same key replaces.
        let plan = plan.inject("alice", 2, FaultKind::OutOfFuel, 7);
        assert_eq!(
            plan.fault_for("alice", 2).unwrap().kind,
            FaultKind::OutOfFuel
        );
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_roughly_calibrated() {
        let tenants: Vec<String> = (0..100).map(|i| format!("t{i}")).collect();
        let a = FaultPlan::seeded(42, &tenants, 10, 100, 64);
        let b = FaultPlan::seeded(42, &tenants, 10, 100, 64);
        assert_eq!(a, b, "same seed must produce the same plan");
        let c = FaultPlan::seeded(43, &tenants, 10, 100, 64);
        assert_ne!(a, c, "different seeds should differ");
        // 1000 draws at 10% → expect ~100 faults; accept a wide band.
        assert!((40..=200).contains(&a.len()), "got {} faults", a.len());
        // All step counts in range, every kind eventually drawn.
        for m in a.faults.values() {
            for f in m.values() {
                assert!((1..=64).contains(&f.at_step));
            }
        }
        let total: usize = [
            FaultKind::Trap,
            FaultKind::Stall,
            FaultKind::OutOfFuel,
            FaultKind::WorkerPanic,
        ]
        .iter()
        .map(|k| a.count_of(*k))
        .sum();
        assert_eq!(total, a.len());
    }

    #[test]
    fn seeded_plans_are_pinned() {
        // The server bench's fault schedule (4 requests per tenant, at
        // most 40 steps) over its first 64 tenants, at its 10 per mille
        // and at its warm-up's 50, listed exactly. Draws go tenant by
        // tenant, so a plan over more tenants starts with these faults. A
        // change to the generator or to the order of its draws must not
        // move a soak's or a benchmark's faults silently.
        let tenants: Vec<String> = (0..64).map(|i| format!("t{i}")).collect();
        let listed = |per_mille| {
            let plan = FaultPlan::seeded(0x5EED_5EED, &tenants, 4, per_mille, 40);
            let mut faults = Vec::new();
            for tenant in &tenants {
                for request in 0..4 {
                    if let Some(f) = plan.fault_for(tenant, request) {
                        faults.push((tenant.as_str(), request, f.kind, f.at_step));
                    }
                }
            }
            faults
        };
        use FaultKind::*;
        assert_eq!(
            listed(10),
            [("t49", 3, OutOfFuel, 8), ("t50", 3, Stall, 28)]
        );
        assert_eq!(
            listed(50),
            [
                ("t3", 1, Stall, 16),
                ("t12", 3, Stall, 38),
                ("t26", 0, OutOfFuel, 8),
                ("t31", 2, WorkerPanic, 8),
                ("t33", 3, Trap, 7),
                ("t47", 1, OutOfFuel, 8),
                ("t48", 1, Stall, 28),
                ("t53", 3, Stall, 37),
                ("t54", 0, WorkerPanic, 37),
                ("t58", 1, Stall, 4),
                ("t62", 3, Trap, 19),
            ]
        );
    }

    #[test]
    fn zero_rate_plans_are_empty() {
        let tenants: Vec<String> = (0..50).map(|i| format!("t{i}")).collect();
        let plan = FaultPlan::seeded(7, &tenants, 10, 0, 64);
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }
}
