//! The threaded serving engine: bounded per-model admission queues, a
//! dynamic micro-batcher that coalesces requests along N, and a worker
//! pool executing one simulated kernel per batch.
//!
//! Workers batch by the rule the simulator runs ([`pop_batch`]) on the
//! host-ns clock the breakers use, with no request cap: an idle worker
//! pops the oldest head at once with every queued request that fits,
//! or sleeps until a submit or stop. Requests that arrive while every
//! worker is busy ride together on the next free one.
//!
//! Built entirely on `std::sync` — no external runtime. Each request's
//! response carries its proportional share of the batch's simulated
//! cycles plus the real host time it spent queued, so the amortization
//! ledger stays per-request even when the device ran many at once.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dlmc::Matrix;
use gpu_sim::GpuSpec;
use jigsaw_core::fault::{self, points};
use jigsaw_core::{lock_recover, wait_recover, wait_timeout_recover, PoolStats, WorkspacePool};
use jigsaw_obs::{Span, TraceHandle};

use crate::batch::{
    pop_batch, split_columns, AdmitError, BatchLimits, QueuedRequest, RequestStats, SpmmResponse,
};
use crate::breaker::{BreakerAdmit, BreakerConfig, BreakerState, CircuitBreaker};
use crate::metrics::{count, ServeMetrics};
use crate::registry::ModelRegistry;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Simulated device.
    pub spec: GpuSpec,
    /// Maximum total B columns coalesced into one batch.
    pub max_batch_n: usize,
    /// Per-model admission queue capacity (backpressure bound).
    pub queue_cap: usize,
    /// Worker threads.
    pub workers: usize,
    /// Per-model circuit-breaker tuning (host-nanosecond clock).
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            spec: GpuSpec::a100(),
            max_batch_n: 256,
            queue_cap: 64,
            workers: 2,
            breaker: BreakerConfig::host_ns(),
        }
    }
}

/// Server-side failure delivered through a [`Ticket`] — the typed
/// terminal states an admitted request can reach besides completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The registry failed while fetching the model for a batch.
    Registry(String),
    /// Batch assembly or splitting hit a [`crate::batch::BatchError`]
    /// — admission should make this unreachable, so every member of
    /// the batch fails loudly instead of panicking the worker.
    Batch(String),
    /// The server stopped before the request could run.
    Canceled,
    /// The worker executing this request's batch panicked; the panic
    /// was isolated, the worker respawned, and every batch member got
    /// this terminal state instead of hanging.
    WorkerPanic,
    /// The request's deadline expired while it was still queued; it
    /// was shed before dispatch.
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Registry(e) => write!(f, "registry failure: {e}"),
            ServeError::Batch(e) => write!(f, "batch assembly failure: {e}"),
            ServeError::Canceled => write!(f, "request canceled by shutdown"),
            ServeError::WorkerPanic => write!(f, "worker panicked while executing the batch"),
            ServeError::DeadlineExceeded => write!(f, "deadline expired before dispatch"),
        }
    }
}

impl std::error::Error for ServeError {}

struct TicketState {
    done: Mutex<Option<Result<SpmmResponse, ServeError>>>,
    cv: Condvar,
}

/// Handle to one in-flight request; `wait` blocks until the worker
/// pool fulfills (or fails) it.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &lock_recover(&self.state.done).is_some())
            .finish()
    }
}

impl Ticket {
    /// Blocks until the response is ready.
    ///
    /// Never hangs: every admitted request reaches a terminal state —
    /// workers complete, fail, or shed their tickets even when a batch
    /// panics mid-execution (the unwind guard fulfills them with
    /// [`ServeError::WorkerPanic`]).
    pub fn wait(self) -> Result<SpmmResponse, ServeError> {
        let mut done = lock_recover(&self.state.done);
        while done.is_none() {
            done = wait_recover(&self.state.cv, done);
        }
        done.take().expect("checked above")
    }

    /// Waits up to `dur` for the response. `None` means the wait timed
    /// out — the request is still in flight and the ticket remains
    /// usable (wait again, or drop it and let the server finish the
    /// work unobserved).
    pub fn wait_timeout(&self, dur: Duration) -> Option<Result<SpmmResponse, ServeError>> {
        let deadline = Instant::now() + dur;
        let mut done = lock_recover(&self.state.done);
        loop {
            if done.is_some() {
                return done.take();
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (g, _) = wait_timeout_recover(&self.state.cv, done, remaining);
            done = g;
        }
    }
}

/// A request's live trace while it moves through the pipeline: the
/// root `serve.request` span, the open `queue` child, and the handle
/// the finished tree is drained from.
struct ReqTrace {
    root: Span,
    queue: Span,
    handle: TraceHandle,
}

struct Pending {
    b: Matrix,
    /// Admission instant, host ns since server start.
    arrival_ns: f64,
    /// Shed (with [`ServeError::DeadlineExceeded`]) if still queued
    /// past this instant, host ns since server start.
    deadline_ns: Option<f64>,
    ticket: Arc<TicketState>,
    trace: Option<ReqTrace>,
}

impl QueuedRequest for Pending {
    fn deadline(&self) -> Option<f64> {
        self.deadline_ns
    }

    fn width(&self) -> usize {
        self.b.cols
    }
}

/// Completes a ticket, first write wins. The `false` return (already
/// fulfilled) keeps the conservation ledger exact when the normal path
/// and the unwind guard race for the same ticket.
fn fulfill(ticket: &TicketState, result: Result<SpmmResponse, ServeError>) -> bool {
    let mut done = lock_recover(&ticket.done);
    if done.is_some() {
        return false;
    }
    *done = Some(result);
    drop(done);
    ticket.cv.notify_all();
    true
}

#[derive(Default)]
struct QueueMap {
    by_model: HashMap<String, VecDeque<Pending>>,
    depth: usize,
}

struct Shared {
    queues: Mutex<QueueMap>,
    cv: Condvar,
    stop: AtomicBool,
    metrics: Mutex<ServeMetrics>,
    /// Per-model circuit breakers on a host-nanosecond clock (measured
    /// from `epoch`). Lock order: never held together with `queues` or
    /// `metrics`.
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
    breaker_cfg: BreakerConfig,
    epoch: Instant,
    /// Batch C/scratch buffers, reused across batches and workers: a
    /// warm server performs zero per-request output allocations.
    pool: WorkspacePool,
}

impl Shared {
    /// The breaker clock: host nanoseconds since server start.
    fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    fn breaker_success(&self, model: &str) {
        if let Some(br) = lock_recover(&self.breakers).get_mut(model) {
            br.on_success();
        }
    }

    fn breaker_failure(&self, model: &str) {
        let now = self.now_ns();
        let cfg = self.breaker_cfg;
        lock_recover(&self.breakers)
            .entry(model.to_string())
            .or_insert_with(|| CircuitBreaker::new(cfg))
            .on_failure(now);
    }
}

/// The serving engine. Create with [`Server::start`]; submit requests
/// from any thread; call [`Server::shutdown`] to drain and join.
pub struct Server {
    registry: Arc<ModelRegistry>,
    cfg: ServeConfig,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawns the worker pool.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServeConfig) -> Server {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.max_batch_n >= 1, "max_batch_n must be positive");
        let shared = Arc::new(Shared {
            queues: Mutex::new(QueueMap::default()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            metrics: Mutex::new(ServeMetrics::default()),
            breakers: Mutex::new(HashMap::new()),
            breaker_cfg: cfg.breaker,
            epoch: Instant::now(),
            pool: WorkspacePool::new(),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = shared.clone();
                let registry = registry.clone();
                let cfg = cfg.clone();
                // Panic isolation: a panic anywhere in a batch unwinds
                // to here (tickets already terminally fulfilled by the
                // unwind guard), is counted, and the worker re-enters
                // its loop — the pool never shrinks, nothing hangs.
                std::thread::spawn(move || loop {
                    match catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, &registry, &cfg))) {
                        Ok(()) => return,
                        Err(_) => {
                            lock_recover(&shared.metrics).worker_panics += 1;
                            count("serve.worker_panics");
                        }
                    }
                })
            })
            .collect();
        Server {
            registry,
            cfg,
            shared,
            workers,
        }
    }

    /// Admission control: validates the request against the registry,
    /// the circuit breaker, and the queue bound, then enqueues it.
    /// Rejections are values — the caller sees *why* (backpressure vs.
    /// a malformed request vs. an open breaker).
    pub fn submit(&self, model: &str, b: Matrix) -> Result<Ticket, AdmitError> {
        self.submit_with_deadline(model, b, None)
    }

    /// [`Server::submit`] with a per-request deadline: if the request
    /// is still queued when the deadline elapses, it is shed before
    /// dispatch and its ticket resolves to
    /// [`ServeError::DeadlineExceeded`]. (A request already dispatched
    /// into a batch runs to completion — deadlines bound queue time,
    /// not device time.)
    pub fn submit_with_deadline(
        &self,
        model: &str,
        b: Matrix,
        deadline: Option<Duration>,
    ) -> Result<Ticket, AdmitError> {
        // Per-request trace: the root spans the request's whole life;
        // `admission` covers validation here, `queue` stays open until
        // a worker dispatches the batch. A rejected request's spans are
        // simply dropped with its handle.
        let trace = if jigsaw_obs::enabled() {
            let (root, handle) = Span::trace("serve.request");
            root.attr("model", model);
            root.attr("n", b.cols);
            Some((root, handle))
        } else {
            None
        };
        let admission = trace
            .as_ref()
            .map(|(root, _)| root.child("admission"))
            .unwrap_or_else(Span::disabled);
        let reject = |shared: &Shared, e: AdmitError| {
            lock_recover(&shared.metrics).rejected += 1;
            Err(e)
        };
        if self.shared.stop.load(Ordering::SeqCst) {
            return reject(&self.shared, AdmitError::ShuttingDown);
        }
        let Some(k) = self.registry.model_k(model) else {
            return reject(&self.shared, AdmitError::UnknownModel(model.to_string()));
        };
        // Circuit breaker: a model that keeps failing fast-rejects
        // instead of queuing more doomed work (scoped lock — never
        // held together with queues/metrics).
        {
            let now = self.shared.now_ns();
            let mut breakers = lock_recover(&self.shared.breakers);
            if let Some(br) = breakers.get_mut(model) {
                if let BreakerAdmit::Reject { retry_after } = br.admit(now) {
                    drop(breakers);
                    lock_recover(&self.shared.metrics).breaker_rejects += 1;
                    count("shard.breaker_rejects");
                    return reject(
                        &self.shared,
                        AdmitError::CircuitOpen {
                            model: model.to_string(),
                            retry_after: Duration::from_nanos(retry_after as u64),
                            shard: None,
                        },
                    );
                }
            }
        }
        if b.cols == 0 {
            return reject(&self.shared, AdmitError::EmptyRequest);
        }
        if b.rows != k {
            return reject(
                &self.shared,
                AdmitError::DimMismatch {
                    model: model.to_string(),
                    expected_k: k,
                    got: b.rows,
                },
            );
        }
        if b.cols > self.cfg.max_batch_n {
            return reject(
                &self.shared,
                AdmitError::TooWide {
                    n: b.cols,
                    max_batch_n: self.cfg.max_batch_n,
                },
            );
        }
        let state = Arc::new(TicketState {
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        {
            let mut queues = lock_recover(&self.shared.queues);
            let q = queues.by_model.entry(model.to_string()).or_default();
            if q.len() >= self.cfg.queue_cap {
                drop(queues);
                return reject(
                    &self.shared,
                    AdmitError::QueueFull {
                        model: model.to_string(),
                        cap: self.cfg.queue_cap,
                    },
                );
            }
            admission.finish();
            let trace = trace.map(|(root, handle)| {
                let queue = root.child("queue");
                ReqTrace {
                    root,
                    queue,
                    handle,
                }
            });
            let now = self.shared.now_ns();
            q.push_back(Pending {
                b,
                arrival_ns: now,
                deadline_ns: deadline.map(|d| now + d.as_nanos() as f64),
                ticket: state.clone(),
                trace,
            });
            queues.depth += 1;
            let depth = queues.depth;
            drop(queues);
            let mut m = lock_recover(&self.shared.metrics);
            m.submitted += 1;
            m.peak_queue_depth = m.peak_queue_depth.max(depth);
        }
        self.shared.cv.notify_one();
        Ok(Ticket { state })
    }

    /// Snapshot of the serving metrics so far, stitched with the live
    /// queue depth and open-breaker count.
    pub fn metrics(&self) -> ServeMetrics {
        let mut m = lock_recover(&self.shared.metrics).clone();
        m.queue_depth = lock_recover(&self.shared.queues).depth;
        let now = self.shared.now_ns();
        m.breakers_open = lock_recover(&self.shared.breakers)
            .values_mut()
            .map(|br| br.state(now))
            .filter(|s| *s != BreakerState::Closed)
            .count() as u64;
        m
    }

    /// Current total queue depth — one lock, no metric cloning. The
    /// shard router polls this per routing decision, so it must stay
    /// cheap.
    pub fn queue_depth(&self) -> usize {
        lock_recover(&self.shared.queues).depth
    }

    /// The named model's breaker state (`None` until its first
    /// failure creates a breaker).
    pub fn breaker_state(&self, model: &str) -> Option<BreakerState> {
        let now = self.shared.now_ns();
        lock_recover(&self.shared.breakers)
            .get_mut(model)
            .map(|br| br.state(now))
    }

    /// Workspace-pool accounting: in steady state `misses` stops
    /// growing — every batch's C/scratch buffers are reused.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// The shared registry.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Stops admission, drains every queued request, joins the
    /// workers, and returns the final metrics.
    pub fn shutdown(mut self) -> ServeMetrics {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let metrics = self.metrics();
        debug_assert_eq!(
            lock_recover(&self.shared.queues).depth,
            0,
            "shutdown drains every request"
        );
        metrics
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped (not shut down) server still drains, so no ticket
        // waits forever.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Picks the model whose head request has waited longest.
fn oldest_head(queues: &QueueMap) -> Option<String> {
    queues
        .by_model
        .iter()
        .filter_map(|(name, q)| q.front().map(|p| (name, p.arrival_ns)))
        .min_by(|(na, a), (nb, b)| a.total_cmp(b).then(na.cmp(nb)))
        .map(|(name, _)| name.clone())
}

fn worker_loop(shared: &Shared, registry: &ModelRegistry, cfg: &ServeConfig) {
    let limits = BatchLimits {
        max_batch_n: cfg.max_batch_n,
        max_batch_requests: usize::MAX,
    };
    loop {
        let batch = {
            let mut queues = lock_recover(&shared.queues);
            loop {
                let Some(model) = oldest_head(&queues) else {
                    if shared.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    // Every queue is empty: sleep until the next submit
                    // or stop.
                    queues = wait_recover(&shared.cv, queues);
                    continue;
                };
                // This worker is free: dispatch now.
                let now = shared.now_ns();
                let q = queues.by_model.get_mut(&model).expect("head exists");
                let mut shed = 0;
                let (members, _) = pop_batch(
                    q,
                    &limits,
                    now,
                    |_| false,
                    |p| {
                        fulfill(&p.ticket, Err(ServeError::DeadlineExceeded));
                        shed += 1;
                    },
                );
                queues.depth -= members.len() + shed;
                if shed > 0 {
                    // The one permitted nested order: queues → metrics.
                    lock_recover(&shared.metrics).shed_expired += shed as u64;
                }
                if !members.is_empty() {
                    break (model, members);
                }
            }
        };
        execute_batch(shared, registry, cfg, batch);
        // More work may remain; let a peer wake too.
        shared.cv.notify_one();
    }
}

/// Unwind guard for one batch: created before any fallible work, it
/// owns a handle to every member ticket. If the batch unwinds (an
/// injected `serve.worker_batch` panic, a kernel bug, anything), Drop
/// runs mid-unwind, completes every still-unfulfilled ticket with the
/// typed [`ServeError::WorkerPanic`], accounts them as failed, and
/// trips the model's breaker — no waiter ever hangs. The normal path
/// calls [`BatchGuard::disarm`] after the last fulfill.
struct BatchGuard<'a> {
    shared: &'a Shared,
    model: String,
    tickets: Vec<Arc<TicketState>>,
}

impl BatchGuard<'_> {
    fn disarm(mut self) {
        self.tickets.clear();
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        if self.tickets.is_empty() {
            return;
        }
        // Strike the breaker before waking any waiter: a client that
        // observes its failure must also observe the recorded strike
        // (an immediate retry after the threshold sees Open, and the
        // chaos suite's breaker assertions don't race the worker).
        self.shared.breaker_failure(&self.model);
        let mut failed = 0u64;
        for t in &self.tickets {
            if fulfill(t, Err(ServeError::WorkerPanic)) {
                failed += 1;
            }
        }
        lock_recover(&self.shared.metrics).failed += failed;
    }
}

/// Terminal path for batch-level failures before any member has been
/// fulfilled: every ticket gets `err`, the guard is disarmed, the
/// failures are accounted, and the model's breaker records one strike.
fn fail_batch(
    shared: &Shared,
    guard: BatchGuard<'_>,
    members: &[Pending],
    model: &str,
    err: ServeError,
) {
    // Same ordering as the guard's Drop: strike first, then wake.
    shared.breaker_failure(model);
    let mut failed = 0u64;
    for p in members {
        if fulfill(&p.ticket, Err(err.clone())) {
            failed += 1;
        }
    }
    guard.disarm();
    lock_recover(&shared.metrics).failed += failed;
}

fn execute_batch(
    shared: &Shared,
    registry: &ModelRegistry,
    cfg: &ServeConfig,
    (model, members): (String, Vec<Pending>),
) {
    let mut members = members;
    let dispatched = shared.now_ns();
    let guard = BatchGuard {
        shared,
        model: model.clone(),
        tickets: members.iter().map(|p| p.ticket.clone()).collect(),
    };
    // Injected worker faults land here, inside the guard's cover.
    fault::trip(points::WORKER_BATCH);
    // Close every member's queue span: the wait ends at dispatch.
    for p in &mut members {
        if let Some(t) = &mut p.trace {
            std::mem::replace(&mut t.queue, Span::disabled()).finish();
        }
    }
    // One batch subtree, shared by every member's trace: assembly
    // (the fetch, including cold plan phases), the kernel (panel
    // assembly plus the grid) with its simulated cycles, and the split
    // back into responses.
    let tracing = members.iter().any(|p| p.trace.is_some());
    let (batch_span, batch_handle) = if tracing {
        let (s, h) = Span::trace("batch");
        s.attr("model", model.as_str());
        s.attr("requests", members.len());
        (s, Some(h))
    } else {
        (Span::disabled(), None)
    };
    let assemble = batch_span.child("assemble");
    let (planned, fetch) = match registry.fetch_traced(&model, &assemble) {
        Ok(pair) => pair,
        Err(e) => {
            let err = ServeError::Registry(e.to_string());
            fail_batch(shared, guard, &members, &model, err);
            return;
        }
    };
    let parts: Vec<&Matrix> = members.iter().map(|p| &p.b).collect();
    let widths: Vec<usize> = parts.iter().map(|p| p.cols).collect();
    let total_n: usize = widths.iter().sum();
    assemble.finish();
    let kernel = batch_span.child("kernel");
    // Pooled batch execution: the batch's C and panel scratch come
    // from (and return to) the server-wide workspace pool, and the
    // parts are emitted straight into panel-major scratch inside this
    // call, so the assembly cost lands in the kernel span. Admission
    // validates K and rejects empty requests, so a BatchError here is
    // a server logic bug or an injected `serve.assemble` fault — fail
    // the batch as a typed error rather than unwinding the worker.
    let c = match planned.execute_batch_pooled(&parts, &shared.pool) {
        Ok((c, _)) => c,
        Err(e) => {
            let err = ServeError::Batch(e.to_string());
            fail_batch(shared, guard, &members, &model, err);
            return;
        }
    };
    let (stats, memo_hit) = planned.simulate_memoized(total_n, &cfg.spec);
    let batch_cycles = stats.duration_cycles;
    kernel.attr("sim_memo", if memo_hit { "hit" } else { "miss" });
    kernel.cycles(batch_cycles);
    kernel.finish();
    let split_span = batch_span.child("split");
    let splits = match split_columns(&c, planned.m(), &widths) {
        Ok(s) => s,
        Err(e) => {
            let err = ServeError::Batch(e.to_string());
            fail_batch(shared, guard, &members, &model, err);
            return;
        }
    };
    split_span.finish();
    drop(c);
    batch_span.attr("n", total_n);
    batch_span.finish();
    let batch_record = batch_handle.and_then(|h| h.take());

    let mut metrics = lock_recover(&shared.metrics);
    metrics.batches += 1;
    metrics.batch_requests_total += members.len() as u64;
    metrics.batch_n_total += total_n as u64;
    metrics.device_cycles += batch_cycles;
    let n_members = members.len();
    for (p, split) in members.into_iter().zip(splits) {
        let share = batch_cycles * p.b.cols as f64 / total_n as f64;
        let queue_host_ns = (dispatched - p.arrival_ns).max(0.0) as u64;
        metrics.completed += 1;
        metrics.latency_cycles.record(batch_cycles);
        metrics
            .latency_host_ns
            .record(shared.now_ns() - p.arrival_ns);
        // Graft the shared batch subtree into this request's trace,
        // close the root, and hand the finished tree back with the
        // response (plus a copy in the global trace ring).
        let trace = p.trace.and_then(|t| {
            if let Some(rec) = &batch_record {
                t.root.add_child_record(rec.clone());
            }
            t.root.finish();
            let rec = t.handle.take();
            if let Some(rec) = &rec {
                jigsaw_obs::global().record_trace(rec.clone());
            }
            rec
        });
        fulfill(
            &p.ticket,
            Ok(SpmmResponse {
                rows: planned.m(),
                cols: p.b.cols,
                c: split,
                stats: RequestStats {
                    device_cycles: share,
                    batch_cycles,
                    batch_requests: n_members,
                    batch_n: total_n,
                    cold: fetch.is_cold(),
                    plan_host_ns: if fetch.is_cold() {
                        planned.plan_host_ns
                    } else {
                        0
                    },
                    queue_host_ns,
                },
                trace,
            }),
        );
    }
    drop(metrics);
    guard.disarm();
    shared.breaker_success(&model);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use crate::zoo::default_zoo;
    use dlmc::{dense_rhs, ValueDist};

    fn small_registry() -> Arc<ModelRegistry> {
        let reg = ModelRegistry::new(RegistryConfig::default()).unwrap();
        for m in default_zoo(50).into_iter().take(2) {
            reg.register(&m.name, m.weights(), m.config);
        }
        Arc::new(reg)
    }

    #[test]
    fn serves_one_request_end_to_end() {
        let reg = small_registry();
        let server = Server::start(reg.clone(), ServeConfig::default());
        let planned = reg.get("attention-small").unwrap();
        let spec = ServeConfig::default().spec;
        // One request at a time: the first batch simulates, the second
        // reads the memo, and both charge exactly a memo-free run.
        for seed in 1..3 {
            let b = dense_rhs(256, 8, ValueDist::SmallInt, seed);
            let expect = planned.execute(&b);
            let resp = server.submit("attention-small", b).unwrap().wait().unwrap();
            assert_eq!(resp.c, expect, "served result is bit-identical to solo");
            assert_eq!((resp.rows, resp.cols), (256, 8));
            let fresh = planned.simulate(8, &spec).duration_cycles;
            assert_eq!(resp.stats.batch_cycles.to_bits(), fresh.to_bits());
            assert_eq!(resp.stats.device_cycles.to_bits(), fresh.to_bits());
        }
        assert_eq!((planned.sim_memo.misses(), planned.sim_memo.hits()), (1, 1));
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 2);
        assert_eq!(metrics.rejected, 0);
    }

    #[test]
    fn admission_rejects_are_typed() {
        let reg = small_registry();
        let server = Server::start(
            reg,
            ServeConfig {
                max_batch_n: 16,
                ..ServeConfig::default()
            },
        );
        let err = |r: Result<Ticket, AdmitError>| r.unwrap_err();
        assert_eq!(
            err(server.submit("nope", dense_rhs(256, 4, ValueDist::SmallInt, 1))),
            AdmitError::UnknownModel("nope".into())
        );
        assert!(matches!(
            err(server.submit("attention-small", dense_rhs(64, 4, ValueDist::SmallInt, 1))),
            AdmitError::DimMismatch {
                expected_k: 256,
                got: 64,
                ..
            }
        ));
        assert!(matches!(
            err(server.submit(
                "attention-small",
                dense_rhs(256, 17, ValueDist::SmallInt, 1)
            )),
            AdmitError::TooWide {
                n: 17,
                max_batch_n: 16
            }
        ));
        assert!(matches!(
            err(server.submit(
                "attention-small",
                Matrix {
                    rows: 256,
                    cols: 0,
                    data: vec![]
                }
            )),
            AdmitError::EmptyRequest
        ));
        assert_eq!(server.metrics().rejected, 4);
        server.shutdown();
    }

    #[test]
    fn served_request_trace_has_admission_to_kernel_chain() {
        jigsaw_obs::set_enabled(true);
        let reg = small_registry();
        let server = Server::start(reg, ServeConfig::default());
        let b = dense_rhs(256, 8, ValueDist::SmallInt, 7);
        let resp = server.submit("attention-small", b).unwrap().wait().unwrap();
        let trace = resp.trace.expect("tracing was enabled at submit");
        assert_eq!(trace.name, "serve.request");
        // The full admission → queue → batch → kernel chain is present.
        for stage in ["admission", "queue", "batch", "kernel"] {
            assert!(trace.find(stage).is_some(), "missing span {stage:?}");
        }
        assert!(trace.span_count() >= 5, "root + 4 nested stages");
        // The batch subtree carries assembly and split alongside the
        // kernel, and the kernel span is annotated with device cycles.
        let batch = trace.find("batch").unwrap();
        assert!(batch.find("assemble").is_some());
        assert!(batch.find("split").is_some());
        let kernel = batch.find("kernel").unwrap();
        assert_eq!(kernel.cycles, Some(resp.stats.batch_cycles));
        // A fresh model's first batch pays for its simulation.
        let miss = jigsaw_obs::AttrValue::Str("miss".into());
        assert_eq!(kernel.attr("sim_memo"), Some(&miss));
        // First touch of the model is a cold fetch: the plan's phase
        // spans (each with its own wall time) nest under assembly.
        let assemble = batch.find("assemble").unwrap();
        for phase in ["plan.block_reorder", "plan.tile_reorder", "plan.compress"] {
            assert!(assemble.find(phase).is_some(), "missing phase {phase:?}");
        }
        // The same trace is retrievable from the global ring.
        // (Other tests in this binary may record serve.request traces
        // concurrently, so only existence is asserted here.)
        let from_ring = jigsaw_obs::global()
            .latest_trace("serve.request")
            .expect("trace recorded globally");
        assert!(from_ring.span_count() >= 5);
        server.shutdown();
    }

    /// Every batch draws its C and panel scratch from the server's
    /// pool and assembles the parts straight into that scratch, so once
    /// the first batch has allocated both, identical shapes never
    /// allocate again.
    #[test]
    fn steady_state_serving_allocates_nothing_per_request() {
        let reg = small_registry();
        let server = Server::start(
            reg,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        // Warm-up: the first batch allocates its C and scratch buffers.
        let warm_up = |i| {
            let b = dense_rhs(256, 8, ValueDist::SmallInt, i);
            server.submit("attention-small", b).unwrap().wait().unwrap();
        };
        warm_up(0);
        let cold = server.pool_stats();
        assert!(cold.misses >= 2, "first batch allocates: {cold:?}");
        // Steady state: identical shapes — every acquisition must hit.
        for i in 1..6 {
            warm_up(i);
        }
        let steady = server.pool_stats();
        assert_eq!(
            steady.misses, cold.misses,
            "steady-state batches perform zero C/scratch allocations"
        );
        assert!(steady.hits >= cold.hits + 10, "5 batches x 2 buffers hit");
        server.shutdown();
    }
}
