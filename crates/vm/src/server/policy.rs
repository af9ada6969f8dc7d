//! Retry classification, backoff, and per-tenant resource policy.

use std::time::Duration;

use crate::VmError;

/// When (and how hard) the server retries a failed request.
///
/// Classification is deliberately narrow. A retry is only ever issued
/// when **all** of these hold:
///
/// 1. the error is *retry-safe* (see [`retryable`](Self::retryable)):
///    [`VmError::Stalled`] (a fresh attempt gets a fresh slice),
///    [`VmError::EnginePanic`] (panics are transient by definition), or
///    [`VmError::OutOfFuel`] whose exhausted budget is below
///    [`retry_fuel_limit`](Self::retry_fuel_limit) — exhausting a
///    *small* budget is circumstantial, exhausting the tenant's full
///    fuel grant is deterministic and would only fail again;
/// 2. the request is [idempotent](crate::server::Request::idempotent),
///    **or** the failed attempt never retired an instruction — a
///    non-idempotent call that has started executing is never retried;
/// 3. fewer than [`max_attempts`](Self::max_attempts) attempts have run.
///
/// Everything else — traps, unknown selectors, type mismatches, machine
/// refusals — is deterministic and fails the request immediately.
///
/// Between attempts the request is gated by capped exponential backoff:
/// attempt *n*'s failure waits `base_backoff × 2^(n−1)`, clamped to
/// [`max_backoff`](Self::max_backoff), before the next attempt may be
/// scheduled. The tenant's other queued requests are **not** delayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, first try included. `1` disables
    /// retries entirely.
    pub max_attempts: u32,
    /// Backoff after the first failed attempt; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// [`VmError::OutOfFuel`] is retried only when the exhausted budget
    /// is strictly below this. `0` (the default) never retries fuel
    /// exhaustion.
    pub retry_fuel_limit: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(8),
            retry_fuel_limit: 0,
        }
    }
}

impl RetryPolicy {
    /// Whether `error` is retry-safe under this policy (condition 1 of
    /// the classification; idempotency and the attempt cap are judged
    /// separately by the supervisor).
    pub fn retryable(&self, error: &VmError) -> bool {
        match error {
            VmError::Stalled { .. } | VmError::EnginePanic { .. } => true,
            VmError::OutOfFuel { budget } => *budget < self.retry_fuel_limit,
            _ => false,
        }
    }

    /// The gate after `attempt` (1-based) failed: `base × 2^(attempt−1)`
    /// clamped to [`max_backoff`](Self::max_backoff).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        self.base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff)
    }
}

/// Per-tenant resource grants, set at [registration](crate::server::Server::register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Weighted-fair share: each scheduling turn drives the tenant for
    /// `base_slice × weight` instructions. Clamped to ≥ 1.
    pub weight: u32,
    /// Fuel budget per request (instructions across all of a request's
    /// slices within one attempt). Exhaustion surfaces as
    /// [`VmError::OutOfFuel`] with this budget. A per-request
    /// [`fuel`](crate::server::Request::fuel) override takes precedence.
    pub fuel_per_request: u64,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            weight: 1,
            fuel_per_request: u64::MAX,
        }
    }
}

impl TenantConfig {
    /// Default grants with an explicit fair-share weight.
    pub fn weighted(weight: u32) -> TenantConfig {
        TenantConfig {
            weight,
            ..TenantConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Trap;
    use com_core::CycleStats;

    #[test]
    fn classification_is_narrow() {
        let p = RetryPolicy {
            retry_fuel_limit: 100,
            ..RetryPolicy::default()
        };
        assert!(p.retryable(&VmError::Stalled { slice: 5 }));
        assert!(p.retryable(&VmError::EnginePanic {
            message: "x".into()
        }));
        assert!(p.retryable(&VmError::OutOfFuel { budget: 99 }));
        assert!(!p.retryable(&VmError::OutOfFuel { budget: 100 }));
        assert!(!p.retryable(&VmError::UnknownSelector("f".into())));
        assert!(!p.retryable(&VmError::Trap(Box::new(Trap {
            cause: com_core::MachineError::NoContext,
            stats: CycleStats::default(),
        }))));
        // Default limit of 0 means fuel exhaustion is never retried.
        assert!(!RetryPolicy::default().retryable(&VmError::OutOfFuel { budget: 1 }));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(6),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(4));
        assert_eq!(p.backoff(4), Duration::from_millis(6)); // capped
        assert_eq!(p.backoff(100), Duration::from_millis(6)); // no overflow
    }

    #[test]
    fn tenant_defaults_are_unweighted_and_unmetered() {
        let t = TenantConfig::default();
        assert_eq!(t.weight, 1);
        assert_eq!(t.fuel_per_request, u64::MAX);
        assert_eq!(TenantConfig::weighted(4).weight, 4);
    }
}
