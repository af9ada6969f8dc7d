//! The supervisor: a long-lived worker pool serving an unbounded stream
//! of requests against named sessions.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use com_core::{CycleStats, MachineError};
use com_mem::Word;

use crate::server::admission::{Request, Response, ServeError, SubmitError, Ticket};
use crate::server::injector::{FaultKind, FaultPlan, InjectedFault, INJECTED_PANIC};
use crate::server::policy::{RetryPolicy, TenantConfig};
use crate::{Outcome, Session, Vm, VmError};

/// Sizing and policy for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads driving sessions. Defaults to the host's available
    /// parallelism.
    pub workers: usize,
    /// Admission-queue depth (queued requests across all tenants; the
    /// request each tenant is *currently running* does not count).
    /// Submissions beyond it shed lower-priority queued work or are
    /// refused with [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Instructions per scheduling turn for a weight-1 tenant; a
    /// tenant's turn is `base_slice ×`
    /// [`weight`](TenantConfig::weight). Deadlines, fuel budgets, and
    /// injected faults are all enforced at this cadence.
    pub base_slice: u64,
    /// Retry classification and backoff.
    pub retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(2, usize::from),
            queue_depth: 1024,
            base_slice: 1000,
            retry: RetryPolicy::default(),
        }
    }
}

/// Monotonic service counters, snapshot via [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted (a [`Ticket`] was issued).
    pub submitted: u64,
    /// Requests that completed with a result.
    pub completed: u64,
    /// Requests that ended in a terminal [`ServeError::Vm`].
    pub failed: u64,
    /// Requests evicted under overload ([`ServeError::Shed`]).
    pub shed: u64,
    /// Requests cancelled by shutdown ([`ServeError::Cancelled`]).
    pub cancelled: u64,
    /// Requests that missed their deadline.
    pub deadline_exceeded: u64,
    /// Retry attempts issued (beyond each request's first attempt).
    pub retries: u64,
    /// Faults fired from the [`FaultPlan`].
    pub faults_injected: u64,
    /// High-water mark of the admission queue.
    pub max_queued: usize,
}

/// What [`Server::drain`] hands back: every tenant's session — none
/// lost, whatever faults or cancellations occurred — plus the final
/// counters.
#[derive(Debug)]
pub struct DrainReport {
    /// Every registered tenant's session, sorted by name. Sessions keep
    /// their cumulative [`CycleStats`] and heap contents and are
    /// immediately re-callable.
    pub sessions: Vec<(String, Session)>,
    /// Final counters (including requests cancelled by the drain).
    pub stats: ServerStats,
}

/// One admitted request bound to its tenant.
#[derive(Debug)]
struct Job {
    tenant: String,
    seq: u64,
    req: Request,
    reply: mpsc::Sender<Response>,
    /// Attempts begun (1-based once running).
    attempts: u32,
    /// Instructions retired by the current attempt so far.
    steps_used: u64,
    /// Session stats at the current attempt's start (for honest deltas).
    attempt_base: CycleStats,
    submitted: Instant,
    deadline: Option<Instant>,
    /// Backoff gate: not schedulable before this.
    not_before: Option<Instant>,
    fault: Option<InjectedFault>,
}

#[derive(Debug)]
struct Tenant {
    cfg: TenantConfig,
    /// `None` while a worker is driving this tenant.
    session: Option<Session>,
    /// Admitted requests not yet started, FIFO.
    mailbox: VecDeque<Job>,
    /// The started (in-flight or backoff-gated) request, if any.
    current: Option<Job>,
    /// Whether the tenant is already in `run_queue`.
    enqueued: bool,
    next_seq: u64,
}

#[derive(Debug, Default)]
struct State {
    tenants: HashMap<String, Tenant>,
    /// Round-robin order of tenants with runnable work.
    run_queue: VecDeque<String>,
    /// Jobs sitting in mailboxes (the admission-queue depth).
    queued: usize,
    /// All unfinished jobs (queued + current).
    jobs: usize,
    /// Accepting new submissions.
    open: bool,
    /// Shutdown entered its cancellation phase.
    cancelling: bool,
    /// Workers should exit.
    stop: bool,
    stats: ServerStats,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Workers wait here for runnable tenants.
    work: Condvar,
    /// Blocking submitters wait here for queue space.
    space: Condvar,
    /// The drain waits here for `jobs == 0`.
    done: Condvar,
    config: ServerConfig,
    plan: FaultPlan,
    vm: Vm,
    faults_injected: AtomicU64,
}

/// A long-lived service runtime over the engine: register named tenants,
/// submit typed [`Request`]s, receive exactly one [`Response`] per
/// admitted request.
///
/// The supervisor provides, over plain std threads and channels:
///
/// * **Bounded admission** — a queue of configured depth with
///   [`SubmitError::QueueFull`] backpressure
///   ([`submit`](Self::submit)) or blocking-with-deadline submission
///   ([`submit_within`](Self::submit_within));
/// * **Weighted fair scheduling** — round-robin turns of
///   `base_slice × weight` instructions, enforced at the engine's
///   `resume(budget)` cadence, so slice interleaving never changes any
///   tenant's results or [`CycleStats`];
/// * **Deadlines and fuel** — per-request deadlines and per-tenant fuel
///   budgets checked at every slice boundary, surfacing as typed
///   rejections;
/// * **Retries** — capped exponential backoff for retry-safe failures
///   per [`RetryPolicy`], never for non-idempotent in-flight calls;
/// * **Graceful degradation** — overload sheds the lowest-priority
///   queued request ([`ServeError::Shed`]) instead of stalling
///   everyone; worker panics are contained to the faulting tenant
///   ([`VmError::EnginePanic`]);
/// * **Drain** — [`drain`](Self::drain) completes or cancels every
///   in-flight request and returns **every** session ([`DrainReport`]);
///   no session is ever lost.
///
/// ```
/// use com_vm::server::{Request, Server, ServerConfig, TenantConfig};
/// use com_vm::Vm;
///
/// # fn main() -> Result<(), com_vm::VmError> {
/// let vm = Vm::new(
///     "class SmallInteger method double ^self + self end end",
/// )?;
/// let server = Server::start(vm, ServerConfig::default());
/// server.register("alice", TenantConfig::default())?;
/// let ticket = server.submit("alice", Request::new("double", 21)).unwrap();
/// assert_eq!(ticket.wait().result_as::<i64>().unwrap(), 42);
/// let report = server.drain(std::time::Duration::from_secs(1));
/// assert_eq!(report.sessions.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool over `vm` with no fault injection.
    pub fn start(vm: Vm, config: ServerConfig) -> Server {
        Server::with_faults(vm, config, FaultPlan::new())
    }

    /// Starts the worker pool with a deterministic [`FaultPlan`]: the
    /// planned faults fire on the chosen requests at the chosen step
    /// counts, and everything else runs exactly as without the plan.
    pub fn with_faults(vm: Vm, config: ServerConfig, plan: FaultPlan) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                open: true,
                ..State::default()
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            done: Condvar::new(),
            config,
            plan,
            vm,
            faults_injected: AtomicU64::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("com-vm-server-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn server worker thread")
            })
            .collect();
        Server { shared, workers }
    }

    /// Registers (or re-configures) a named tenant, booting its session
    /// from the shared image. Registration is cheap — no compilation or
    /// decoding — and an existing tenant keeps its session and history;
    /// only its grants change.
    ///
    /// # Errors
    ///
    /// Boot errors from [`Vm::session`].
    pub fn register(&self, name: &str, cfg: TenantConfig) -> Result<(), VmError> {
        let session = self.shared.vm.session()?;
        let mut st = self.lock();
        match st.tenants.entry(name.to_string()) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().cfg = cfg,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Tenant {
                    cfg,
                    session: Some(session),
                    mailbox: VecDeque::new(),
                    current: None,
                    enqueued: false,
                    next_seq: 0,
                });
            }
        }
        Ok(())
    }

    /// Submits without blocking. When the admission queue is full, a
    /// strictly lower-priority queued request is shed to make room
    /// (rejected with [`ServeError::Shed`]); if nothing outranks, the
    /// submission is refused with [`SubmitError::QueueFull`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`], [`SubmitError::UnknownTenant`], or
    /// [`SubmitError::ShuttingDown`].
    pub fn submit(&self, tenant: &str, req: Request) -> Result<Ticket, SubmitError> {
        let mut st = self.lock();
        self.check_admissible(&st, tenant)?;
        if st.queued >= self.shared.config.queue_depth {
            match find_victim(&st, req.priority) {
                Some(victim) => shed(&mut st, victim, &self.shared.done),
                None => {
                    return Err(SubmitError::QueueFull {
                        depth: self.shared.config.queue_depth,
                    })
                }
            }
        }
        Ok(self.admit(&mut st, tenant, req))
    }

    /// Submits, waiting up to `wait` for admission-queue space — the
    /// backpressure-aware path. Sheds lower-priority queued work first,
    /// exactly as [`submit`](Self::submit).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Timeout`] when no space opened within `wait`;
    /// otherwise as [`submit`](Self::submit).
    pub fn submit_within(
        &self,
        tenant: &str,
        req: Request,
        wait: Duration,
    ) -> Result<Ticket, SubmitError> {
        let start = Instant::now();
        let deadline = start + wait;
        let mut st = self.lock();
        loop {
            self.check_admissible(&st, tenant)?;
            if st.queued < self.shared.config.queue_depth {
                return Ok(self.admit(&mut st, tenant, req));
            }
            if let Some(victim) = find_victim(&st, req.priority) {
                shed(&mut st, victim, &self.shared.done);
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SubmitError::Timeout {
                    waited: start.elapsed(),
                });
            }
            let (guard, _) = self
                .shared
                .space
                .wait_timeout(st, deadline - now)
                .expect("server state poisoned");
            st = guard;
        }
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.lock().stats;
        stats.faults_injected = self.shared.faults_injected.load(Ordering::Relaxed);
        stats
    }

    /// Requests currently sitting in the admission queue.
    pub fn queued(&self) -> usize {
        self.lock().queued
    }

    /// Stops admission, gives in-flight and queued work up to `grace` to
    /// complete, cancels whatever remains (each pending request receives
    /// [`ServeError::Cancelled`]; any in-flight call is unwound via
    /// [`Session::cancel`], leaving the session clean), joins every
    /// worker, and returns **all** sessions. No request is left without
    /// a response and no session is lost, whatever the plan injected.
    pub fn drain(mut self, grace: Duration) -> DrainReport {
        self.shutdown(grace);
        let mut st = self.lock();
        let mut sessions: Vec<(String, Session)> = st
            .tenants
            .drain()
            .filter_map(|(name, t)| t.session.map(|s| (name, s)))
            .collect();
        sessions.sort_by(|a, b| a.0.cmp(&b.0));
        let mut stats = st.stats;
        stats.faults_injected = self.shared.faults_injected.load(Ordering::Relaxed);
        drop(st);
        DrainReport { sessions, stats }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared.state.lock().expect("server state poisoned")
    }

    fn check_admissible(&self, st: &State, tenant: &str) -> Result<(), SubmitError> {
        if !st.open {
            return Err(SubmitError::ShuttingDown);
        }
        if !st.tenants.contains_key(tenant) {
            return Err(SubmitError::UnknownTenant(tenant.to_string()));
        }
        Ok(())
    }

    fn admit(&self, st: &mut State, tenant: &str, req: Request) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let deadline = req.deadline.map(|d| now + d);
        let t = st.tenants.get_mut(tenant).expect("tenant checked");
        let seq = t.next_seq;
        t.next_seq += 1;
        t.mailbox.push_back(Job {
            tenant: tenant.to_string(),
            seq,
            fault: self.shared.plan.fault_for(tenant, seq),
            req,
            reply: tx,
            attempts: 0,
            steps_used: 0,
            attempt_base: CycleStats::default(),
            submitted: now,
            deadline,
            not_before: None,
        });
        let enqueue = !t.enqueued && t.session.is_some();
        if enqueue {
            t.enqueued = true;
        }
        st.queued += 1;
        st.jobs += 1;
        st.stats.submitted += 1;
        st.stats.max_queued = st.stats.max_queued.max(st.queued);
        if enqueue {
            st.run_queue.push_back(tenant.to_string());
        }
        self.shared.work.notify_one();
        Ticket {
            rx,
            tenant: tenant.to_string(),
            request: seq,
        }
    }

    /// Close admission, give `grace` to finish, cancel the rest, join.
    fn shutdown(&mut self, grace: Duration) {
        if self.workers.is_empty() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        {
            let mut st = self.lock();
            st.open = false;
            shared.space.notify_all();
            let deadline = Instant::now() + grace;
            while st.jobs > 0 {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = shared
                    .done
                    .wait_timeout(st, deadline - now)
                    .expect("server state poisoned");
                st = guard;
            }
            if st.jobs > 0 {
                st.cancelling = true;
                // Cancel everything not currently held by a worker;
                // workers cancel what they hold at their next slice
                // boundary.
                let mut victims: Vec<Job> = Vec::new();
                let mut from_mailbox = 0usize;
                for t in st.tenants.values_mut() {
                    from_mailbox += t.mailbox.len();
                    victims.extend(t.mailbox.drain(..));
                    if let Some(s) = t.session.as_mut() {
                        if let Some(job) = t.current.take() {
                            let _ = s.contained(|s| {
                                s.cancel();
                                Ok(())
                            });
                            victims.push(job);
                        }
                    }
                }
                st.queued -= from_mailbox;
                st.jobs -= victims.len();
                st.stats.cancelled += victims.len() as u64;
                for job in victims {
                    deliver(job, Err(ServeError::Cancelled), CycleStats::default());
                }
                shared.work.notify_all();
                while st.jobs > 0 {
                    let (guard, _) = shared
                        .done
                        .wait_timeout(st, Duration::from_millis(50))
                        .expect("server state poisoned");
                    st = guard;
                }
            }
            st.stop = true;
        }
        shared.work.notify_all();
        shared.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Not drained explicitly: cancel everything and still deliver a
        // typed response to every pending ticket.
        self.shutdown(Duration::ZERO);
    }
}

/// Picks the queued request to evict for a `newcomer`-priority
/// submission: strictly lower priority only; among those, the lowest
/// class, most recently submitted (latest arrivals lose first).
fn find_victim(st: &State, newcomer: crate::server::Priority) -> Option<(String, usize)> {
    let mut best: Option<(crate::server::Priority, Instant, String, usize)> = None;
    for (name, t) in &st.tenants {
        for (i, job) in t.mailbox.iter().enumerate() {
            if job.req.priority >= newcomer {
                continue;
            }
            let beats = match &best {
                None => true,
                Some((p, at, _, _)) => {
                    job.req.priority < *p || (job.req.priority == *p && job.submitted > *at)
                }
            };
            if beats {
                best = Some((job.req.priority, job.submitted, name.clone(), i));
            }
        }
    }
    best.map(|(_, _, name, i)| (name, i))
}

fn shed(st: &mut State, (name, index): (String, usize), done: &Condvar) {
    let t = st.tenants.get_mut(&name).expect("victim tenant");
    let job = t.mailbox.remove(index).expect("victim job");
    let priority = job.req.priority;
    st.queued -= 1;
    st.jobs -= 1;
    st.stats.shed += 1;
    deliver(
        job,
        Err(ServeError::Shed { priority }),
        CycleStats::default(),
    );
    if st.jobs == 0 {
        done.notify_all();
    }
}

fn deliver(job: Job, outcome: Result<Word, ServeError>, stats: CycleStats) {
    let response = Response {
        tenant: job.tenant,
        request: job.seq,
        outcome,
        stats,
        attempts: job.attempts,
        latency: job.submitted.elapsed(),
    };
    // The ticket may have been dropped; delivery is best-effort.
    let _ = job.reply.send(response);
}

/// What one scheduling turn decided.
enum Turn {
    /// Still in flight: requeue as the tenant's current job.
    Yield,
    /// The attempt failed retryably: gate by this backoff, then restart.
    Retry(Duration),
    /// Terminal: deliver this response.
    Respond(Result<Word, ServeError>, CycleStats),
}

fn worker_loop(shared: &Shared) {
    while let Some((name, mut session, mut job, cfg)) = claim(shared) {
        let turn = drive_turn(shared, cfg, &mut session, &mut job);
        reintegrate(shared, &name, session, job, turn);
    }
}

/// Blocks until a tenant is runnable (claims it) or the server stops
/// (`None`). A claimed tenant's session and the job to drive are moved
/// out of the shared state (its `session` is `None` while a worker
/// drives it), so the slice runs without holding the lock.
fn claim(shared: &Shared) -> Option<(String, Session, Job, TenantConfig)> {
    let mut st = shared.state.lock().expect("server state poisoned");
    loop {
        if st.stop {
            return None;
        }
        let now = Instant::now();
        let mut gate: Option<Instant> = None;
        let mut chosen: Option<String> = None;
        for _ in 0..st.run_queue.len() {
            let Some(name) = st.run_queue.pop_front() else {
                break;
            };
            enum Readiness {
                Ready,
                Gated(Instant),
                Idle,
            }
            let readiness = {
                let t = st.tenants.get_mut(&name).expect("queued tenant");
                t.enqueued = false;
                if t.session.is_none() {
                    Readiness::Idle
                } else if let Some(job) = &t.current {
                    match job.not_before {
                        Some(nb) if nb > now => Readiness::Gated(nb),
                        _ => Readiness::Ready,
                    }
                } else if t.mailbox.is_empty() {
                    Readiness::Idle
                } else {
                    Readiness::Ready
                }
            };
            match readiness {
                Readiness::Ready => {
                    chosen = Some(name);
                    break;
                }
                Readiness::Gated(nb) => {
                    gate = Some(gate.map_or(nb, |g| g.min(nb)));
                    let t = st.tenants.get_mut(&name).expect("queued tenant");
                    t.enqueued = true;
                    st.run_queue.push_back(name);
                }
                Readiness::Idle => {}
            }
        }
        if let Some(name) = chosen {
            let (session, job, from_mailbox, cfg) = {
                let t = st.tenants.get_mut(&name).expect("chosen tenant");
                let session = t.session.take().expect("idle tenant holds its session");
                let (job, from_mailbox) = match t.current.take() {
                    Some(job) => (job, false),
                    None => (t.mailbox.pop_front().expect("ready tenant has work"), true),
                };
                (session, job, from_mailbox, t.cfg)
            };
            if from_mailbox {
                st.queued -= 1;
                shared.space.notify_one();
            }
            return Some((name, session, job, cfg));
        }
        st = match gate {
            Some(g) => {
                let wait = g.saturating_duration_since(Instant::now());
                shared
                    .work
                    .wait_timeout(st, wait)
                    .expect("server state poisoned")
                    .0
            }
            None => shared.work.wait(st).expect("server state poisoned"),
        };
    }
}

/// Drives one scheduling turn for a claimed tenant, outside the lock:
/// start the attempt if needed, run one weighted slice under the
/// deadline/fuel/fault tripwires, classify the outcome.
fn drive_turn(shared: &Shared, cfg: TenantConfig, session: &mut Session, job: &mut Job) -> Turn {
    let policy = shared.config.retry;
    if deadline_passed(job) {
        if session.in_flight() {
            session.cancel();
        }
        return deadline_turn(session, job);
    }
    if !session.in_flight() {
        // Fresh attempt (first, or a retry after the backoff gate).
        job.attempts += 1;
        job.steps_used = 0;
        job.attempt_base = session.stats();
        let started = session
            .contained(|s| s.call_start_with(&job.req.selector, job.req.receiver, &job.req.args));
        if let Err(error) = started {
            return settle(policy, job, session, error);
        }
    }
    // The fault tripwire arms on the first attempt only; retries run
    // clean.
    let fault = job.fault.filter(|_| job.attempts == 1);
    if let Some(f) = fault {
        if job.steps_used >= f.at_step {
            return apply_fault(shared, policy, job, session, f);
        }
    }
    let fuel = job.req.fuel.unwrap_or(cfg.fuel_per_request);
    let remaining_fuel = fuel.saturating_sub(job.steps_used);
    if remaining_fuel == 0 {
        session.cancel();
        return settle(policy, job, session, VmError::OutOfFuel { budget: fuel });
    }
    let mut slice = shared
        .config
        .base_slice
        .saturating_mul(u64::from(cfg.weight.max(1)))
        .max(1)
        .min(remaining_fuel);
    if let Some(f) = fault {
        // Land the attempt exactly on the tripwire step.
        slice = slice.min(f.at_step - job.steps_used);
    }
    let before = session.stats().instructions;
    match session.contained(|s| s.resume_raw_guarded(slice)) {
        Ok(Outcome::Done(word)) => {
            Turn::Respond(Ok(word), session.stats().since(&job.attempt_base))
        }
        Ok(Outcome::Yielded) => {
            job.steps_used += session.stats().instructions - before;
            if let Some(f) = fault {
                if job.steps_used >= f.at_step {
                    return apply_fault(shared, policy, job, session, f);
                }
            }
            if deadline_passed(job) {
                session.cancel();
                return deadline_turn(session, job);
            }
            if job.steps_used >= fuel {
                session.cancel();
                return settle(policy, job, session, VmError::OutOfFuel { budget: fuel });
            }
            Turn::Yield
        }
        Err(error) => settle(policy, job, session, error),
    }
}

fn deadline_passed(job: &Job) -> bool {
    job.deadline.is_some_and(|d| Instant::now() >= d)
}

fn deadline_turn(session: &Session, job: &Job) -> Turn {
    Turn::Respond(
        Err(ServeError::DeadlineExceeded {
            waited: job.submitted.elapsed(),
        }),
        session.stats().since(&job.attempt_base),
    )
}

/// Fires a planned fault on its victim: unwind the in-flight call and
/// surface the fault's typed error (with the attempt's honest partial
/// statistics), exactly as the organic failure would.
fn apply_fault(
    shared: &Shared,
    policy: RetryPolicy,
    job: &mut Job,
    session: &mut Session,
    fault: InjectedFault,
) -> Turn {
    shared.faults_injected.fetch_add(1, Ordering::Relaxed);
    let error = match fault.kind {
        FaultKind::Trap => {
            let cause = MachineError::BadOperands {
                opcode: com_isa::Opcode::DIV,
                reason: "injected fault (FaultPlan)",
            };
            VmError::trap(cause, session.stats().since(&job.attempt_base))
        }
        FaultKind::Stall => VmError::Stalled {
            slice: shared.config.base_slice,
        },
        FaultKind::OutOfFuel => VmError::OutOfFuel {
            budget: fault.at_step,
        },
        // A genuine panic-and-unwind on this worker thread, contained
        // (and the call cancelled) exactly where an organic engine panic
        // would be.
        FaultKind::WorkerPanic => session
            .contained(|_| -> Result<(), VmError> { panic!("{INJECTED_PANIC}") })
            .expect_err("the closure always panics"),
    };
    session.cancel();
    settle(policy, job, session, error)
}

/// Classifies a failed attempt: retry (gated by backoff) when the error
/// is retry-safe, attempts remain, and the request is idempotent or
/// never executed; terminal otherwise.
fn settle(policy: RetryPolicy, job: &mut Job, session: &Session, error: VmError) -> Turn {
    let may_retry = policy.retryable(&error)
        && job.attempts < policy.max_attempts
        && (job.req.idempotent || job.steps_used == 0);
    if may_retry {
        Turn::Retry(policy.backoff(job.attempts))
    } else {
        Turn::Respond(
            Err(ServeError::Vm(error)),
            session.stats().since(&job.attempt_base),
        )
    }
}

/// Puts a driven tenant back under the lock: restore the session, apply
/// the turn's decision, keep the run queue and counters coherent.
fn reintegrate(shared: &Shared, name: &str, mut session: Session, mut job: Job, turn: Turn) {
    let cancelled_delta = session.stats().since(&job.attempt_base);
    let mut st = shared.state.lock().expect("server state poisoned");
    let cancelling = st.cancelling;
    let mut finished = false;
    let keep: Option<Job> = match turn {
        Turn::Yield if !cancelling => Some(job),
        Turn::Yield => {
            session.cancel();
            st.jobs -= 1;
            st.stats.cancelled += 1;
            finished = true;
            deliver(job, Err(ServeError::Cancelled), cancelled_delta);
            None
        }
        Turn::Retry(gate) if !cancelling => {
            st.stats.retries += 1;
            job.not_before = Some(Instant::now() + gate);
            Some(job)
        }
        Turn::Retry(_) => {
            // The failed attempt is already unwound; shutdown wins.
            st.jobs -= 1;
            st.stats.cancelled += 1;
            finished = true;
            deliver(job, Err(ServeError::Cancelled), cancelled_delta);
            None
        }
        Turn::Respond(outcome, stats) => {
            match &outcome {
                Ok(_) => st.stats.completed += 1,
                Err(ServeError::DeadlineExceeded { .. }) => st.stats.deadline_exceeded += 1,
                Err(_) => st.stats.failed += 1,
            }
            st.jobs -= 1;
            finished = true;
            deliver(job, outcome, stats);
            None
        }
    };
    let requeue = {
        let t = st.tenants.get_mut(name).expect("driven tenant");
        t.session = Some(session);
        t.current = keep;
        let has_work = t.current.is_some() || !t.mailbox.is_empty();
        if has_work && !t.enqueued {
            t.enqueued = true;
            true
        } else {
            false
        }
    };
    if requeue {
        st.run_queue.push_back(name.to_string());
    }
    let all_done = finished && st.jobs == 0;
    drop(st);
    if requeue {
        shared.work.notify_one();
    }
    if all_done {
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = r#"
        class SmallInteger
          method factorial | acc |
            acc := 1.
            1 to: self do: [ :i | acc := acc * i ].
            ^acc
          end
          method spin | n |
            n := 0.
            1 to: self do: [ :i | n := n + i ].
            ^n
          end
        end
    "#;

    fn server(workers: usize, depth: usize) -> Server {
        Server::start(
            Vm::new(PROGRAM).unwrap(),
            ServerConfig {
                workers,
                queue_depth: depth,
                base_slice: 50,
                retry: RetryPolicy::default(),
            },
        )
    }

    #[test]
    fn serves_typed_calls_across_tenants() {
        let s = server(2, 64);
        for name in ["a", "b", "c"] {
            s.register(name, TenantConfig::default()).unwrap();
        }
        let t1 = s.submit("a", Request::new("factorial", 10i64)).unwrap();
        let t2 = s.submit("b", Request::new("factorial", 5i64)).unwrap();
        let t3 = s.submit("c", Request::new("spin", 100i64)).unwrap();
        assert_eq!(t1.wait().result_as::<i64>().unwrap(), 3_628_800);
        assert_eq!(t2.wait().result_as::<i64>().unwrap(), 120);
        assert_eq!(t3.wait().result_as::<i64>().unwrap(), 5050);
        let stats = s.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        let report = s.drain(Duration::from_secs(5));
        assert_eq!(report.sessions.len(), 3);
        assert_eq!(report.sessions[0].0, "a");
    }

    #[test]
    fn unknown_tenant_and_shutdown_are_refused_at_the_door() {
        let s = server(1, 4);
        s.register("a", TenantConfig::default()).unwrap();
        match s.submit("nobody", Request::new("factorial", 1i64)) {
            Err(SubmitError::UnknownTenant(name)) => assert_eq!(name, "nobody"),
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        let report = s.drain(Duration::from_secs(1));
        assert_eq!(report.stats.submitted, 0);
        assert_eq!(report.sessions.len(), 1);
    }

    #[test]
    fn per_request_sequence_numbers_count_up() {
        let s = server(1, 64);
        s.register("a", TenantConfig::default()).unwrap();
        let t0 = s.submit("a", Request::new("factorial", 3i64)).unwrap();
        let t1 = s.submit("a", Request::new("factorial", 4i64)).unwrap();
        assert_eq!((t0.tenant(), t0.request()), ("a", 0));
        assert_eq!(t1.request(), 1);
        assert_eq!(t0.wait().result_as::<i64>().unwrap(), 6);
        assert_eq!(t1.wait().result_as::<i64>().unwrap(), 24);
        drop(s);
    }

    #[test]
    fn dropping_the_server_still_answers_every_ticket() {
        let s = server(1, 64);
        s.register("a", TenantConfig::default()).unwrap();
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| s.submit("a", Request::new("spin", 2_000_000i64)).unwrap())
            .collect();
        drop(s); // no drain: immediate cancellation
        for t in tickets {
            let r = t.wait();
            assert!(
                r.is_ok() || r.outcome == Err(ServeError::Cancelled),
                "ticket must resolve to done-or-cancelled, got {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn deadline_rejects_slow_requests_but_not_fast_ones() {
        let s = server(1, 64);
        s.register("a", TenantConfig::default()).unwrap();
        // An effectively-infinite spin with an immediate deadline.
        let slow = s
            .submit(
                "a",
                Request::new("spin", i64::MAX).deadline(Duration::from_millis(1)),
            )
            .unwrap();
        match slow.wait().outcome {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The session is clean afterwards.
        let fast = s
            .submit(
                "a",
                Request::new("factorial", 5i64).deadline(Duration::from_secs(60)),
            )
            .unwrap();
        assert_eq!(fast.wait().result_as::<i64>().unwrap(), 120);
        assert_eq!(s.stats().deadline_exceeded, 1);
        drop(s);
    }

    #[test]
    fn fuel_budgets_bound_each_request() {
        let s = server(1, 64);
        s.register(
            "metered",
            TenantConfig {
                weight: 1,
                fuel_per_request: 200,
            },
        )
        .unwrap();
        let too_big = s
            .submit("metered", Request::new("spin", 1_000_000i64))
            .unwrap();
        match too_big.wait().outcome {
            Err(ServeError::Vm(VmError::OutOfFuel { budget: 200 })) => {}
            other => panic!("expected OutOfFuel, got {other:?}"),
        }
        // A request-level override can raise the grant.
        let raised = s
            .submit("metered", Request::new("factorial", 10i64).fuel(1_000_000))
            .unwrap();
        assert_eq!(raised.wait().result_as::<i64>().unwrap(), 3_628_800);
        drop(s);
    }
}
