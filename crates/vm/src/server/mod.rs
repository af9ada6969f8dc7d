//! The service runtime: a supervised, long-lived front door over the
//! multi-tenant engine.
//!
//! [`Vm`](crate::Vm)/[`Session`](crate::Session) make tenants cheap,
//! resumable calls let any thread drive a tenant in slices, and
//! recoverable traps make per-tenant failure survivable. This module
//! turns those pieces into something operable under sustained, hostile
//! load: a [`Server`] that runs its own long-lived worker threads (it
//! does not use the batch [`ParallelExecutor`](crate::ParallelExecutor)),
//! accepts an **unbounded stream** of typed requests against named
//! sessions, and enforces a service contract —
//!
//! * **Admission control** — a bounded queue with typed backpressure
//!   ([`SubmitError::QueueFull`]) and a blocking submit with deadline
//!   ([`Server::submit_within`]);
//! * **Deadlines and fuel** — per-request deadlines and per-tenant fuel
//!   budgets, enforced at the engine's `resume(budget)` cadence under
//!   weighted fair scheduling ([`TenantConfig::weight`]);
//! * **Retries** — [`RetryPolicy`]: capped exponential backoff for
//!   retry-safe failures only, never for non-idempotent in-flight
//!   calls;
//! * **Graceful degradation** — overload sheds the lowest-priority
//!   queued request ([`ServeError::Shed`]) instead of stalling every
//!   tenant; worker panics are contained per tenant
//!   ([`VmError::EnginePanic`](crate::VmError::EnginePanic)) by the
//!   same panic containment the [`Scheduler`](crate::Scheduler) and the
//!   executor use;
//! * **Drain** — [`Server::drain`] completes or cancels everything and
//!   returns every session: the executors' "no session lost" guarantee,
//!   extended to shutdown;
//! * **Deterministic fault injection** — [`FaultPlan`] fires chosen
//!   faults (traps, stalls, worker panics, fuel exhaustion) on chosen
//!   requests at chosen step counts, so robustness claims are tested by
//!   replayable soaks, not by luck. Because slice cadence never changes
//!   results or statistics, tenants a plan does *not* touch finish
//!   **bit-identical** to solo fault-free runs — the property
//!   `tests/server.rs` proves.

pub(crate) mod admission;
pub(crate) mod injector;
pub(crate) mod policy;
pub(crate) mod supervisor;

pub use admission::{Priority, Request, Response, ServeError, SubmitError, Ticket};
pub use injector::{FaultKind, FaultPlan, InjectedFault};
pub use policy::{RetryPolicy, TenantConfig};
pub use supervisor::{DrainReport, Server, ServerConfig, ServerStats};
