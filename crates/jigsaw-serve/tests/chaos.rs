//! Chaos suite for the resilience layer (DESIGN.md §12): seeded fault
//! schedules driven through the threaded server, the model registry,
//! and the deterministic virtual-clock simulator, asserting the three
//! invariants the layer promises:
//!
//! 1. **No hung ticket** — every admitted request reaches a terminal
//!    state even when workers panic mid-batch.
//! 2. **Typed terminal states** — failures surface as `ServeError` /
//!    `RegistryError` values, never as a crashed process.
//! 3. **Conservation** — `submitted = completed + failed + shed`
//!    (`ServeMetrics::conserves`), with admission rejections counted
//!    separately.
//!
//! The fault registry is process-global, so every test serializes on
//! one mutex and disarms (`fault::reset`) before releasing it.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use dlmc::{dense_rhs, ValueDist};
use gpu_sim::GpuSpec;
use jigsaw_core::compiled::dispatch::{self, ALL_KERNELS};
use jigsaw_core::fault::{self, points, FaultKind, FaultSpec};
use jigsaw_core::{execute_fast, CompiledKernel, ExecOptions, KernelKind, KernelPolicy};
use jigsaw_serve::{
    default_zoo, generate_zipf_schedule, scaled_zoo, simulate_sharded, AdmitError, BreakerConfig,
    BreakerState, ForwardConfig, HealthConfig, HedgeConfig, ModelRegistry, RegistryConfig,
    RegistryError, ReplicationConfig, ServeConfig, ServeError, Server, ShardConfig, ShardRouter,
    ShardSimConfig, ShardSimReport, SimConfig, SimRequest, ZipfLoadSpec,
};
use proptest::prelude::*;
use std::sync::Arc;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes chaos tests and guarantees a disarmed registry on entry
/// (a previous test may have poisoned the mutex by panicking while
/// armed).
fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::reset();
    g
}

/// Seed for pinned chaos schedules. `JIGSAW_CHAOS_SEED` overrides the
/// per-test default, so CI can run the whole suite under a seed matrix
/// without touching the tests.
fn chaos_seed(default: u64) -> u64 {
    std::env::var("JIGSAW_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn registry(take: usize) -> Arc<ModelRegistry> {
    let reg = ModelRegistry::new(RegistryConfig::default()).unwrap();
    for m in default_zoo(77).into_iter().take(take) {
        reg.register(&m.name, m.weights(), m.config);
    }
    Arc::new(reg)
}

fn burst(model: &str, count: usize, n: usize, gap: f64) -> Vec<SimRequest> {
    (0..count)
        .map(|i| SimRequest {
            id: i,
            model: model.to_string(),
            arrival_cycle: i as f64 * gap,
            n,
            deadline_cycles: None,
        })
        .collect()
}

/// Bounded wait that proves the no-hang invariant: a test fails loudly
/// instead of deadlocking the suite.
fn wait_bounded(t: jigsaw_serve::Ticket) -> Result<jigsaw_serve::SpmmResponse, ServeError> {
    t.wait_timeout(Duration::from_secs(30))
        .expect("ticket reached a terminal state (no hang)")
}

// ---------------------------------------------------------------------
// Worker panic isolation (threaded server)
// ---------------------------------------------------------------------

/// Regression test for the ticket-hang bug: a worker dying mid-batch
/// must fail every waiter, not strand them.
#[test]
fn killed_worker_mid_batch_fails_all_waiters_and_respawns() {
    let _g = guard();
    fault::inject(FaultSpec::once(points::WORKER_BATCH, FaultKind::Panic));
    let server = Server::start(
        registry(2),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    // The idle worker dispatches the first request at once, so the
    // second lands in the panicking batch or the next one — either way
    // every ticket resolves.
    let t1 = server
        .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, 1))
        .unwrap();
    let t2 = server
        .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, 2))
        .unwrap();
    let (r1, r2) = (wait_bounded(t1), wait_bounded(t2));
    assert!(
        r1.is_err() || r2.is_err(),
        "the injected panic failed at least one request"
    );
    for r in [&r1, &r2] {
        if let Err(e) = r {
            assert_eq!(e, &ServeError::WorkerPanic, "typed terminal state");
        }
    }
    fault::reset();
    // The worker respawned: the server still serves.
    let resp = wait_bounded(
        server
            .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, 3))
            .unwrap(),
    )
    .expect("respawned worker serves");
    assert_eq!((resp.rows, resp.cols), (256, 4));
    let metrics = server.shutdown();
    assert!(metrics.worker_panics >= 1, "panic was counted");
    assert!(metrics.failed >= 1);
    assert!(metrics.conserves(), "admitted = completed + failed + shed");
}

/// A fault injected at the batch-assembly point (`serve.assemble`)
/// fails only its own batch: an injected error comes back to the
/// request as a typed `ServeError::Batch`, and an injected panic is
/// absorbed by the batch guard while the worker respawns. Neither
/// hangs a waiter, degrades the model or poisons a variant, and the
/// next batch is bit-identical to the warm-up.
#[test]
fn assembly_fault_fails_only_its_batch_without_hangs() {
    let _g = guard();
    dispatch::unpoison_all();
    let reg = registry(2);
    let server = Server::start(
        reg.clone(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let b = dense_rhs(256, 4, ValueDist::SmallInt, 9);
    let oracle =
        wait_bounded(server.submit("attention-small", b.clone()).unwrap()).expect("warm-up serves");
    for kind in [FaultKind::Error, FaultKind::Panic] {
        // Hit counters persist across `inject` calls, so clear them:
        // otherwise the second spec's `first_hit = 1` can never match.
        fault::reset();
        fault::inject(FaultSpec::once(points::SERVE_ASSEMBLE, kind));
        let err = wait_bounded(server.submit("attention-small", b.clone()).unwrap())
            .expect_err("an assembly fault fails its batch");
        match kind {
            FaultKind::Error => assert!(matches!(err, ServeError::Batch(_)), "{err:?}"),
            _ => assert_eq!(err, ServeError::WorkerPanic),
        }
        assert!(!reg.get("attention-small").unwrap().is_degraded());
        for kind in ALL_KERNELS {
            assert!(!dispatch::is_poisoned(kind), "{kind:?} stays unpoisoned");
        }
    }
    fault::reset();
    let resp = wait_bounded(server.submit("attention-small", b.clone()).unwrap())
        .expect("the next batch serves");
    assert_eq!(resp.c, oracle.c, "bit-identical to the warm-up");
    let metrics = server.shutdown();
    assert_eq!(metrics.failed, 2, "exactly the two faulted batches failed");
    assert!(metrics.worker_panics >= 1, "the panicking worker respawned");
    assert!(metrics.conserves());
}

/// A panic *inside* the batch (pool acquisition, after the registry
/// fetch) unwinds through the batch guard: same invariants.
#[test]
fn pool_fault_inside_batch_is_isolated() {
    let _g = guard();
    let server = Server::start(
        registry(2),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    // Warm the model first so the fault hits pool.acquire in the batch
    // path, not some allocation during planning.
    wait_bounded(
        server
            .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, 0))
            .unwrap(),
    )
    .expect("warm-up serves");
    fault::inject(FaultSpec::once(points::POOL_ACQUIRE, FaultKind::Error));
    let failed = wait_bounded(
        server
            .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, 1))
            .unwrap(),
    );
    assert_eq!(failed.unwrap_err(), ServeError::WorkerPanic);
    fault::reset();
    wait_bounded(
        server
            .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, 2))
            .unwrap(),
    )
    .expect("server recovered");
    let metrics = server.shutdown();
    assert!(metrics.conserves());
}

/// An injected latency spike delays but does not fail the batch.
#[test]
fn latency_spike_completes_late_not_never() {
    let _g = guard();
    fault::inject(FaultSpec::once(
        points::WORKER_BATCH,
        FaultKind::Latency { ns: 20_000_000 },
    ));
    let server = Server::start(registry(2), ServeConfig::default());
    let started = std::time::Instant::now();
    let resp = wait_bounded(
        server
            .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, 9))
            .unwrap(),
    )
    .expect("latency fault still completes");
    assert!(started.elapsed() >= Duration::from_millis(20));
    assert_eq!(resp.cols, 4);
    fault::reset();
    let metrics = server.shutdown();
    assert_eq!(metrics.failed, 0);
    assert!(metrics.conserves());
}

// ---------------------------------------------------------------------
// Deadlines and the circuit breaker (threaded server)
// ---------------------------------------------------------------------

/// Holds the single worker of `server` busy: arms a one-shot 200 ms
/// stall on `serve.worker_batch`, submits one request, and returns its
/// ticket once the worker has popped it. Everything submitted next
/// queues behind a busy worker, deterministically.
fn occupy_single_worker(server: &Server) -> jigsaw_serve::Ticket {
    fault::inject(FaultSpec::once(
        points::WORKER_BATCH,
        FaultKind::Latency { ns: 200_000_000 },
    ));
    let busy = server
        .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, 0))
        .unwrap();
    while server.queue_depth() > 0 {
        std::thread::sleep(Duration::from_micros(100));
    }
    busy
}

/// An idle worker dispatches a request the moment it arrives; requests
/// that queue while it is busy share its next batch.
#[test]
fn requests_queued_behind_a_busy_worker_share_one_batch() {
    let _g = guard();
    let server = Server::start(
        registry(2),
        ServeConfig {
            workers: 1,
            max_batch_n: 1024,
            ..ServeConfig::default()
        },
    );
    let busy = occupy_single_worker(&server);
    let tickets: Vec<_> = (1..5)
        .map(|i| {
            server
                .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, i))
                .unwrap()
        })
        .collect();
    let head = wait_bounded(busy).expect("the stalled batch completes");
    assert_eq!(head.stats.batch_requests, 1, "the idle worker did not wait");
    for t in tickets {
        let r = wait_bounded(t).expect("queued request served");
        assert_eq!(r.stats.batch_requests, 4, "queued requests rode together");
        assert_eq!(r.stats.batch_n, 16);
        assert!(r.stats.device_cycles <= r.stats.batch_cycles);
    }
    fault::reset();
    let metrics = server.shutdown();
    assert_eq!(metrics.batches, 2);
    assert!(metrics.conserves());
}

/// The queue bound rejects with a typed `QueueFull` once the requests
/// queued behind a busy worker reach the cap.
#[test]
fn backpressure_fills_and_rejects() {
    let _g = guard();
    let server = Server::start(
        registry(2),
        ServeConfig {
            workers: 1,
            queue_cap: 3,
            max_batch_n: 1024,
            ..ServeConfig::default()
        },
    );
    let busy = occupy_single_worker(&server);
    let mut tickets = vec![busy];
    let mut rejected = 0;
    for i in 1..11 {
        match server.submit("attention-small", dense_rhs(256, 2, ValueDist::SmallInt, i)) {
            Ok(t) => tickets.push(t),
            Err(AdmitError::QueueFull { cap: 3, .. }) => rejected += 1,
            Err(e) => panic!("unexpected rejection {e}"),
        }
    }
    assert_eq!(rejected, 7, "the queue bound produced backpressure");
    for t in tickets {
        wait_bounded(t).expect("admitted requests are served");
    }
    fault::reset();
    let metrics = server.shutdown();
    assert_eq!((metrics.completed, metrics.rejected), (4, 7));
    assert!(metrics.conserves());
}

/// Shutdown drains the requests queued behind a busy worker: each is
/// served, none canceled.
#[test]
fn shutdown_drains_pending_work() {
    let _g = guard();
    let server = Server::start(
        registry(2),
        ServeConfig {
            workers: 1,
            max_batch_n: 1024,
            ..ServeConfig::default()
        },
    );
    let busy = occupy_single_worker(&server);
    let tickets: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit("embedding-proj", dense_rhs(512, 4, ValueDist::SmallInt, i))
                .unwrap()
        })
        .collect();
    let handle = std::thread::spawn(move || server.shutdown());
    wait_bounded(busy).expect("the stalled batch completes");
    for t in tickets {
        assert!(wait_bounded(t).is_ok(), "drained, not canceled");
    }
    let metrics = handle.join().unwrap();
    fault::reset();
    assert_eq!(metrics.completed, 4);
    assert!(metrics.conserves());
}

/// An idle server dispatches a deadlined head the moment it arrives:
/// a 2 ms-deadline request is served, not shed.
#[test]
fn deadline_head_on_idle_server_is_served_immediately() {
    let _g = guard();
    let server = Server::start(
        registry(2),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let started = std::time::Instant::now();
    let t = server
        .submit_with_deadline(
            "attention-small",
            dense_rhs(256, 4, ValueDist::SmallInt, 1),
            Some(Duration::from_millis(2)),
        )
        .unwrap();
    let resp = wait_bounded(t).expect("served immediately, not shed");
    assert_eq!(resp.cols, 4);
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "dispatched on arrival"
    );
    let metrics = server.shutdown();
    assert_eq!(metrics.shed_expired, 0);
    assert_eq!(metrics.completed, 1);
    assert!(metrics.conserves());
}

/// A request whose deadline passes while the only worker is busy is
/// shed before dispatch, not run late.
#[test]
fn expired_deadline_sheds_before_dispatch() {
    let _g = guard();
    let server = Server::start(
        registry(2),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let busy = occupy_single_worker(&server);
    let t = server
        .submit_with_deadline(
            "attention-small",
            dense_rhs(256, 4, ValueDist::SmallInt, 2),
            Some(Duration::from_millis(2)),
        )
        .unwrap();
    assert_eq!(wait_bounded(t).unwrap_err(), ServeError::DeadlineExceeded);
    wait_bounded(busy).expect("the stalled batch still completes");
    fault::reset();
    let metrics = server.shutdown();
    assert_eq!(metrics.shed_expired, 1);
    assert_eq!(metrics.completed, 1);
    assert!(metrics.conserves());
}

#[test]
fn repeated_failures_open_the_breaker_and_fast_reject() {
    let _g = guard();
    fault::inject(FaultSpec::always(points::WORKER_BATCH, FaultKind::Panic));
    let server = Server::start(
        registry(2),
        ServeConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_window: 60e9, // 60 s: stays open for the test
                max_open_window: 60e9,
            },
            ..ServeConfig::default()
        },
    );
    for i in 0..2 {
        let r = wait_bounded(
            server
                .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, i))
                .unwrap(),
        );
        assert_eq!(r.unwrap_err(), ServeError::WorkerPanic);
    }
    assert_eq!(
        server.breaker_state("attention-small"),
        Some(BreakerState::Open),
        "two consecutive failures tripped the breaker"
    );
    let rejected = server
        .submit("attention-small", dense_rhs(256, 4, ValueDist::SmallInt, 9))
        .unwrap_err();
    assert!(
        matches!(rejected, jigsaw_serve::AdmitError::CircuitOpen { ref model, retry_after, shard }
            if model == "attention-small" && retry_after > Duration::ZERO && shard.is_none()),
        "open breaker fast-rejects with a retry hint: {rejected:?}"
    );
    // Another model is unaffected.
    fault::reset();
    wait_bounded(
        server
            .submit("embedding-proj", dense_rhs(512, 4, ValueDist::SmallInt, 1))
            .unwrap(),
    )
    .expect("healthy model keeps serving");
    let metrics = server.metrics();
    assert_eq!(metrics.breakers_open, 1);
    assert_eq!(metrics.rejected, 1);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Artifact tier: corruption, retry, recovery
// ---------------------------------------------------------------------

fn artifact_registry(dir: &std::path::Path) -> ModelRegistry {
    let reg = ModelRegistry::new(RegistryConfig {
        artifact_dir: Some(dir.to_path_buf()),
        ..RegistryConfig::default()
    })
    .unwrap();
    for m in default_zoo(77).into_iter().take(1) {
        reg.register(&m.name, m.weights(), m.config);
    }
    reg
}

#[test]
fn transient_artifact_corruption_recovers_via_retry() {
    let _g = guard();
    let dir = std::env::temp_dir().join(format!("jigsaw-chaos-retry-{}", std::process::id()));
    let reg = artifact_registry(&dir);
    let name = reg.model_names().remove(0);
    reg.warm_all().unwrap(); // plans + writes the artifact
    reg.drop_resident(); // next fetch must disk-load
    let retries_before = jigsaw_obs::global().counter("registry.load_retries").get();
    fault::set_seed(chaos_seed(0xC0FFEE));
    fault::inject(FaultSpec::once(
        points::ARTIFACT_LOAD,
        FaultKind::CorruptBytes,
    ));
    let (model, fetch) = reg.fetch(&name).expect("one corrupt read is retried");
    assert!(fetch.is_cold());
    assert_eq!(model.name, name);
    let retries_after = jigsaw_obs::global().counter("registry.load_retries").get();
    assert!(retries_after > retries_before, "the retry was counted");
    fault::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_artifact_corruption_is_a_typed_error_then_recovers() {
    let _g = guard();
    let dir = std::env::temp_dir().join(format!("jigsaw-chaos-corrupt-{}", std::process::id()));
    let reg = artifact_registry(&dir);
    let name = reg.model_names().remove(0);
    reg.warm_all().unwrap();
    reg.drop_resident();
    fault::set_seed(chaos_seed(0xBADCAB));
    fault::inject(FaultSpec::always(
        points::ARTIFACT_LOAD,
        FaultKind::CorruptBytes,
    ));
    match reg.fetch(&name) {
        Err(RegistryError::Io(_)) => {}
        other => panic!("expected a typed artifact error, got {other:?}"),
    }
    // Disarm: the same registry heals on the next fetch.
    fault::reset();
    let (_, fetch) = reg.fetch(&name).expect("clean read succeeds");
    assert!(fetch.is_cold());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Graceful degradation: compile failure and SIMD poisoning
// ---------------------------------------------------------------------

/// Parity satellite: a model degraded by compile failure serves
/// bit-identical results to both `execute_fast` and the compiled
/// scalar kernel.
#[test]
fn compile_failure_degrades_with_bit_identical_results() {
    let _g = guard();
    let fallbacks_before = jigsaw_obs::global().counter("degrade.fallbacks").get();
    fault::inject(FaultSpec::always(points::COMPILE, FaultKind::Error));
    let degraded_reg = registry(1);
    let name = degraded_reg.model_names().remove(0);
    let degraded = degraded_reg.get(&name).unwrap();
    assert!(degraded.is_degraded(), "compile fault forced the fallback");
    assert!(
        jigsaw_obs::global().counter("degrade.fallbacks").get() > fallbacks_before,
        "degradation was counted"
    );
    fault::reset();

    let healthy_reg = registry(1);
    let healthy = healthy_reg.get(&name).unwrap();
    assert!(!healthy.is_degraded());

    let b = dense_rhs(degraded.k(), 8, ValueDist::SmallInt, 42);
    let via_fallback = degraded.execute(&b);
    let via_fast = execute_fast(&degraded.format, &b);
    let via_scalar =
        CompiledKernel::compile(&healthy.format).execute_opts(&b, &ExecOptions::scalar());
    assert_eq!(via_fallback, via_fast, "fallback = execute_fast, bit-exact");
    assert_eq!(
        via_fallback, via_scalar,
        "fallback = compiled scalar kernel"
    );
    assert_eq!(
        via_fallback,
        healthy.execute(&b),
        "degradation is invisible"
    );
}

/// A SIMD-path panic poisons that rung in place; the scalar rung
/// recomputes the same batch and every later one. Under the auto
/// ladder and under every pinned SIMD variant this host runs alike,
/// the panic poisons exactly the variant that ran, process-wide, and
/// no other.
#[test]
fn simd_panic_poisons_to_scalar_with_correct_results() {
    let _g = guard();
    let m = &default_zoo(77)[0];
    let pinned = dispatch::available_kernels()
        .into_iter()
        .filter(|&k| k != KernelKind::Scalar)
        .map(KernelPolicy::Forced);
    for policy in std::iter::once(KernelPolicy::Auto).chain(pinned) {
        dispatch::unpoison_all();
        let opts = ExecOptions::from(policy);
        let ran = dispatch::selected_kind(&opts);
        let reg = ModelRegistry::new(RegistryConfig::default()).unwrap();
        reg.register_with_options(&m.name, m.weights(), m.config, opts);
        let model = reg.get(&m.name).unwrap();
        assert!(!model.is_degraded());
        let b = dense_rhs(model.k(), 8, ValueDist::SmallInt, 7);
        let expect = execute_fast(&model.format, &b);
        fault::inject(FaultSpec::once(points::EXECUTE, FaultKind::Panic));
        assert_eq!(
            model.execute(&b),
            expect,
            "{policy:?}: panicked run recomputed on scalar"
        );
        fault::reset();
        assert!(
            model.is_degraded(),
            "{policy:?}: SIMD rung is sticky-poisoned"
        );
        for kind in ALL_KERNELS.into_iter().filter(|&k| k != KernelKind::Scalar) {
            assert_eq!(
                dispatch::is_poisoned(kind),
                kind == ran,
                "{policy:?}: only {ran:?} is poisoned, not {kind:?}"
            );
        }
        assert_eq!(
            model.execute(&b),
            expect,
            "{policy:?}: later runs stay correct"
        );
    }
    dispatch::unpoison_all();
}

// ---------------------------------------------------------------------
// Shard router chaos (DESIGN.md §14): a dead shard stays a dead shard
// ---------------------------------------------------------------------

fn shard_router(
    shards: usize,
    replication: ReplicationConfig,
) -> (ShardRouter, Vec<jigsaw_serve::ZooModel>) {
    let zoo = scaled_zoo(8, 21);
    let router = ShardRouter::start(
        ShardConfig::new(shards)
            .with_replication(replication)
            .with_forwarding(ForwardConfig::threshold(8)),
        RegistryConfig::default(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    for m in &zoo {
        router.register(&m.name, m.weights(), m.config);
    }
    (router, zoo)
}

/// The tentpole isolation contract: killing one shard's worker stack
/// mid-traffic fails over replicated models, rejects unreplicated ones
/// with a typed error naming the dead shard, and strands no waiter.
#[test]
fn killed_shard_isolates_failure_without_hanging_waiters() {
    let _g = guard();
    let (router, zoo) = shard_router(4, ReplicationConfig::host_ns(4, 2, 60_000_000_000));
    // Promote one model past the threshold so it holds a replica.
    let hot = &zoo[0];
    for i in 0..8 {
        wait_bounded(
            router
                .submit(&hot.name, dense_rhs(hot.k(), 2, ValueDist::SmallInt, i))
                .unwrap(),
        )
        .expect("served before the kill");
    }
    assert!(router.is_hot(&hot.name), "replica exists before the kill");
    let home = router.home_shard(&hot.name);
    // A model that is NOT replicated and homes on the doomed shard.
    let pinned = zoo[1..]
        .iter()
        .find(|m| router.home_shard(&m.name) == home)
        .cloned();
    // In-flight work on the doomed shard must resolve, not hang: the
    // kill drains its queues into typed terminal states.
    let inflight: Vec<_> = (0..4)
        .filter_map(|i| {
            router
                .submit(
                    &hot.name,
                    dense_rhs(hot.k(), 2, ValueDist::SmallInt, 100 + i),
                )
                .ok()
        })
        .collect();
    let killed = router.kill_shard(home).expect("first kill wins");
    assert!(killed.conserves(), "drained shard ledger balances");
    for t in inflight {
        // Completed before the kill, or typed-failed by the drain —
        // either way `wait_bounded` proves no waiter hangs.
        let _ = wait_bounded(t);
    }
    // Replicated model keeps serving from the surviving replica.
    wait_bounded(
        router
            .submit(&hot.name, dense_rhs(hot.k(), 2, ValueDist::SmallInt, 999))
            .expect("replica admits"),
    )
    .expect("replica serves after the kill");
    // Unreplicated model homed on the dead shard rejects typed.
    if let Some(pinned) = pinned {
        let err = router
            .submit(
                &pinned.name,
                dense_rhs(pinned.k(), 2, ValueDist::SmallInt, 1),
            )
            .unwrap_err();
        assert_eq!(
            err,
            AdmitError::ShardUnavailable {
                model: pinned.name.clone(),
                shard: home,
            },
            "typed rejection names the dead shard"
        );
    }
    // Models homed elsewhere never notice.
    let survivor = zoo
        .iter()
        .find(|m| router.home_shard(&m.name) != home)
        .expect("four shards split eight models");
    wait_bounded(
        router
            .submit(
                &survivor.name,
                dense_rhs(survivor.k(), 2, ValueDist::SmallInt, 7),
            )
            .unwrap(),
    )
    .expect("isolation: surviving shard unaffected");
    let metrics = router.shutdown();
    for (s, m) in metrics.per_shard.iter().enumerate() {
        assert!(m.conserves(), "shard {s} ledger balances");
    }
}

/// An injected `shard.route` fault is a typed, counted router-level
/// rejection — no shard sees the request, and the router recovers the
/// moment the fault disarms.
#[test]
fn shard_route_fault_rejects_typed_then_recovers() {
    let _g = guard();
    let (router, zoo) = shard_router(2, ReplicationConfig::disabled());
    let m = &zoo[0];
    fault::inject(FaultSpec::once(points::SHARD_ROUTE, FaultKind::Error));
    let err = router
        .submit(&m.name, dense_rhs(m.k(), 2, ValueDist::SmallInt, 1))
        .unwrap_err();
    assert_eq!(
        err,
        AdmitError::ShardUnavailable {
            model: m.name.clone(),
            shard: router.home_shard(&m.name),
        },
        "route fault surfaces as a typed shard rejection"
    );
    fault::reset();
    wait_bounded(
        router
            .submit(&m.name, dense_rhs(m.k(), 2, ValueDist::SmallInt, 2))
            .unwrap(),
    )
    .expect("router recovered");
    let metrics = router.shutdown();
    assert_eq!(metrics.route_faults, 1, "route fault was counted");
    assert_eq!(
        metrics.per_shard.iter().map(|m| m.submitted).sum::<u64>(),
        1
    );
}

/// An armed `shard.forward` fault degrades the redirect: every request
/// still runs on its round-robin target, so the forwarded counter must
/// stay zero while traffic completes normally.
#[test]
fn shard_forward_fault_degrades_to_original_target() {
    let _g = guard();
    let (router, zoo) = shard_router(4, ReplicationConfig::host_ns(4, 2, 60_000_000_000));
    let hot = &zoo[0];
    fault::inject(FaultSpec::always(points::SHARD_FORWARD, FaultKind::Error));
    let tickets: Vec<_> = (0..24)
        .map(|i| {
            router
                .submit(&hot.name, dense_rhs(hot.k(), 2, ValueDist::SmallInt, i))
                .expect("forward fault never blocks admission")
        })
        .collect();
    for t in tickets {
        wait_bounded(t).expect("degraded routing still serves");
    }
    fault::reset();
    let metrics = router.shutdown();
    assert_eq!(
        metrics.forwarded, 0,
        "armed fault suppressed every redirect"
    );
    assert_eq!(
        metrics.per_shard.iter().map(|m| m.completed).sum::<u64>(),
        24
    );
}

/// A breaker tripped inside one shard fast-rejects with that shard's
/// id attached and the reject counted per shard — the caller can tell
/// *which* shard is refusing without a round trip.
#[test]
fn tripped_shard_breaker_reports_owning_shard() {
    let _g = guard();
    let zoo = scaled_zoo(8, 21);
    let router = ShardRouter::start(
        ShardConfig::new(2),
        RegistryConfig::default(),
        ServeConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_window: 60e9,
                max_open_window: 60e9,
            },
            ..ServeConfig::default()
        },
    );
    for m in &zoo {
        router.register(&m.name, m.weights(), m.config);
    }
    let victim = &zoo[0];
    let home = router.home_shard(&victim.name);
    fault::inject(FaultSpec::always(points::WORKER_BATCH, FaultKind::Panic));
    for i in 0..2 {
        let r = wait_bounded(
            router
                .submit(
                    &victim.name,
                    dense_rhs(victim.k(), 2, ValueDist::SmallInt, i),
                )
                .unwrap(),
        );
        assert_eq!(r.unwrap_err(), ServeError::WorkerPanic);
    }
    fault::reset();
    let rejected = router
        .submit(
            &victim.name,
            dense_rhs(victim.k(), 2, ValueDist::SmallInt, 9),
        )
        .unwrap_err();
    assert!(
        matches!(rejected, AdmitError::CircuitOpen { ref model, retry_after, shard }
            if model == &victim.name && retry_after > Duration::ZERO && shard == Some(home)),
        "fast-reject names the owning shard: {rejected:?}"
    );
    let metrics = router.shutdown();
    assert_eq!(
        metrics.per_shard[home].breaker_rejects, 1,
        "counted on the owner"
    );
    assert_eq!(metrics.breaker_rejects(), 1, "router-level sum agrees");
}

/// `revive_shard` is the exact inverse of `kill_shard`, and idempotent:
/// kill → typed rejection, revive → serves again, second revive → no-op
/// returning `false`. The revived shard's fresh ledger must balance.
#[test]
fn killed_shard_revives_and_serves_again() {
    let _g = guard();
    let (router, zoo) = shard_router(2, ReplicationConfig::disabled());
    let m = &zoo[0];
    let home = router.home_shard(&m.name);
    wait_bounded(
        router
            .submit(&m.name, dense_rhs(m.k(), 2, ValueDist::SmallInt, 1))
            .unwrap(),
    )
    .expect("serves before the kill");

    let killed = router.kill_shard(home).expect("first kill wins");
    assert!(killed.conserves(), "drained shard ledger balances");
    assert_eq!(
        router
            .submit(&m.name, dense_rhs(m.k(), 2, ValueDist::SmallInt, 2))
            .unwrap_err(),
        AdmitError::ShardUnavailable {
            model: m.name.clone(),
            shard: home,
        },
        "dead shard rejects typed"
    );

    // Reviving a live shard is a no-op; reviving the dead one works once.
    assert!(!router.revive_shard(1 - home), "live shard: nothing to do");
    assert!(router.revive_shard(home), "dead shard comes back");
    assert!(!router.revive_shard(home), "second revive is a no-op");
    wait_bounded(
        router
            .submit(&m.name, dense_rhs(m.k(), 2, ValueDist::SmallInt, 3))
            .expect("revived shard admits"),
    )
    .expect("revived shard serves");

    let metrics = router.shutdown();
    assert_eq!(metrics.revived, 1, "exactly one revival counted");
    for (s, m) in metrics.per_shard.iter().enumerate() {
        assert!(m.conserves(), "shard {s} ledger balances");
    }
}

/// An armed `shard.slow` fault stalls the routed request but never
/// fails it: the submit completes late with the right answer and the
/// ledger stays balanced.
#[test]
fn shard_slow_fault_delays_but_serves() {
    let _g = guard();
    let (router, zoo) = shard_router(2, ReplicationConfig::disabled());
    let m = &zoo[0];
    fault::inject(FaultSpec::once(
        points::SHARD_SLOW,
        FaultKind::Latency { ns: 20_000_000 },
    ));
    let t0 = std::time::Instant::now();
    let resp = wait_bounded(
        router
            .submit(&m.name, dense_rhs(m.k(), 2, ValueDist::SmallInt, 1))
            .unwrap(),
    )
    .expect("slow is not dead");
    fault::reset();
    assert!(
        t0.elapsed() >= Duration::from_millis(20),
        "injected stall was observed: {:?}",
        t0.elapsed()
    );
    assert_eq!(resp.rows, m.m());
    let metrics = router.shutdown();
    assert_eq!(
        metrics.per_shard.iter().map(|m| m.completed).sum::<u64>(),
        1
    );
}

// ---------------------------------------------------------------------
// Tail tolerance: stragglers, hedging, health ejection (DESIGN.md §17)
// ---------------------------------------------------------------------

/// Builds a warm registry over the scaled zoo for straggler sims.
fn straggler_registry(seed: u64) -> (ModelRegistry, Vec<SimRequest>) {
    let zoo = scaled_zoo(8, 33);
    let reg = ModelRegistry::new(RegistryConfig {
        budget_bytes: 1 << 30,
        ..RegistryConfig::default()
    })
    .unwrap();
    for m in &zoo {
        reg.register(&m.name, m.weights(), m.config);
    }
    reg.warm_all().unwrap();
    let schedule = generate_zipf_schedule(
        &zoo,
        &ZipfLoadSpec {
            requests: 1200,
            seed,
            mean_gap_cycles: 300.0,
            ..ZipfLoadSpec::default()
        },
    )
    .into_iter()
    .map(|z| z.req)
    .collect();
    (reg, schedule)
}

/// The ISSUE's acceptance bar, asserted end to end: with one shard a
/// 10× straggler, turning on health scoring + hedged requests bounds
/// the tail (hedged p99 ≤ 0.5× unhedged p99 at identical offered load)
/// while the retry budget keeps total executed work within 1 + budget
/// fraction of the unhedged run.
#[test]
fn hedging_bounds_p99_under_straggler_within_work_budget() {
    let _g = guard();
    let (reg, schedule) = straggler_registry(chaos_seed(47));
    let base = |cfg: ShardConfig| {
        ShardSimConfig::new(
            cfg.with_replication(ReplicationConfig::cycles(32, 2, 500_000.0))
                .with_forwarding(ForwardConfig::threshold(8)),
            SimConfig::batched(GpuSpec::a100(), 128),
        )
        .with_straggler(0, 10.0)
    };
    let unprotected = simulate_sharded(&reg, &schedule, &base(ShardConfig::new(4)));
    let protected = simulate_sharded(
        &reg,
        &schedule,
        &base(ShardConfig::new(4))
            .with_health(HealthConfig::cycles())
            .with_hedge(HedgeConfig::cycles()),
    );
    assert!(unprotected.totals.conserves() && protected.totals.conserves());
    assert!(
        protected.hedges > 0 || protected.health_ejections > 0,
        "tail tolerance engaged against the straggler"
    );
    let (up99, pp99) = (
        unprotected.latency_cycles.percentile(99.0),
        protected.latency_cycles.percentile(99.0),
    );
    assert!(
        pp99 <= 0.5 * up99,
        "hedged p99 {pp99:.0} vs unhedged p99 {up99:.0}: tail not bounded"
    );
    let work = |r: &ShardSimReport| r.lanes.iter().map(|l| l.busy_cycles).sum::<f64>();
    assert!(
        work(&protected) <= 1.1 * work(&unprotected),
        "work amplification {:.3} exceeds the retry budget",
        work(&protected) / work(&unprotected)
    );
}

/// A `shard.slow` fault in the virtual-clock sharded sim is
/// deterministic chaos: the armed run visibly stretches the makespan
/// versus the clean run, two identically-armed runs replay bit-exactly,
/// and the ledger conserves throughout.
#[test]
fn shard_slow_sim_fault_is_deterministic_and_visible() {
    let _g = guard();
    let (reg, schedule) = straggler_registry(chaos_seed(0x51_0C0DE));
    let cfg = || {
        ShardSimConfig::new(
            ShardConfig::new(2).with_forwarding(ForwardConfig::disabled()),
            SimConfig::batched(GpuSpec::a100(), 128),
        )
    };
    let clean = simulate_sharded(&reg, &schedule, &cfg());

    let slow = |seed: u64| {
        fault::reset();
        fault::set_seed(seed);
        fault::inject(
            FaultSpec::at(points::SHARD_SLOW, FaultKind::Latency { ns: 2_000_000 }, 1).times(8),
        );
        let r = simulate_sharded(&reg, &schedule, &cfg());
        fault::reset();
        r
    };
    let a = slow(chaos_seed(0xD15C));
    let b = slow(chaos_seed(0xD15C));
    assert!(clean.totals.conserves() && a.totals.conserves());
    assert!(
        a.makespan_cycles > clean.makespan_cycles,
        "injected stalls stretch the makespan: {} vs {}",
        a.makespan_cycles,
        clean.makespan_cycles
    );
    assert_eq!(
        a.makespan_cycles.to_bits(),
        b.makespan_cycles.to_bits(),
        "armed runs replay bit-exactly"
    );
    assert_eq!(
        a.latency_cycles.percentile(99.0).to_bits(),
        b.latency_cycles.percentile(99.0).to_bits()
    );
}

// ---------------------------------------------------------------------
// Virtual-clock chaos: pinned seeds, then randomized schedules
// ---------------------------------------------------------------------

fn sim_registry() -> ModelRegistry {
    let reg = ModelRegistry::new(RegistryConfig::default()).unwrap();
    for m in default_zoo(77).into_iter().take(2) {
        reg.register(&m.name, m.weights(), m.config);
    }
    reg
}

/// One batched A100 shard: the single-device simulator.
fn simulate_one_shard(reg: &ModelRegistry, schedule: &[SimRequest]) -> ShardSimReport {
    let cfg = ShardSimConfig::new(ShardConfig::new(1), SimConfig::batched(GpuSpec::a100(), 64));
    simulate_sharded(reg, schedule, &cfg)
}

/// Pinned fault schedules through the simulator: plan errors, plan
/// panics, and deadline pressure — every request terminal, every
/// failure typed, the ledger conserved.
#[test]
fn pinned_sim_fault_schedules_conserve_requests() {
    let _g = guard();
    let cases: [(u64, FaultKind); 2] = [(0xC0FFEE, FaultKind::Error), (0xBADCAB, FaultKind::Panic)];
    for (seed, kind) in cases {
        fault::reset();
        fault::set_seed(chaos_seed(seed));
        // The two models' first (cold) fetches fail; the re-fetches
        // behind them succeed.
        fault::inject(FaultSpec::at(points::PLAN, kind, 1).times(2));
        let reg = sim_registry();
        let mut schedule = burst("attention-small", 8, 8, 40_000.0);
        schedule.extend(
            burst("embedding-proj", 8, 8, 40_000.0)
                .into_iter()
                .map(|mut r| {
                    r.id += 100;
                    r.arrival_cycle += 5_000.0;
                    r
                }),
        );
        let report = simulate_one_shard(&reg, &schedule);
        fault::reset();
        assert!(report.totals.failed > 0, "seed {seed:#x}: faults fired");
        assert!(report.totals.completed > 0, "seed {seed:#x}: recovered");
        assert!(report.totals.conserves(), "seed {seed:#x}: conservation");
        assert_eq!(
            report.completions.len() + report.failures.len() + report.rejected_ids.len(),
            schedule.len(),
            "seed {seed:#x}: every request reached a terminal state"
        );
        for f in &report.failures {
            match (&f.error, kind) {
                (ServeError::Registry(_), FaultKind::Error) => {}
                (ServeError::WorkerPanic, FaultKind::Panic) => {}
                (e, k) => panic!("seed {seed:#x}: fault {k:?} surfaced as {e:?}"),
            }
        }
        if kind == FaultKind::Panic {
            assert!(report.totals.worker_panics > 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized fault schedules over the deterministic simulator:
    /// whatever fires, wherever it fires, the invariants hold.
    #[test]
    fn random_fault_schedules_keep_the_invariants(
        seed in any::<u64>(),
        requests in 4usize..16,
        kind_sel in 0u8..4,
        first_hit in 1u64..4,
        count in 1u64..3,
        deadline_every in 0usize..4,
    ) {
        let _g = guard();
        fault::set_seed(seed);
        match kind_sel {
            1 => fault::inject(FaultSpec::at(points::PLAN, FaultKind::Error, first_hit).times(count)),
            2 => fault::inject(FaultSpec::at(points::PLAN, FaultKind::Panic, first_hit).times(count)),
            3 => fault::inject(FaultSpec::at(points::COMPILE, FaultKind::Error, first_hit).times(count)),
            _ => {}
        }
        let reg = sim_registry();
        let mut schedule = burst("attention-small", requests, 8, 30_000.0);
        if deadline_every > 0 {
            for r in schedule.iter_mut().filter(|r| r.id % deadline_every == 0) {
                r.deadline_cycles = Some(20_000.0);
            }
        }
        let report = simulate_one_shard(&reg, &schedule);
        fault::reset();
        prop_assert!(report.totals.conserves(), "conservation: {:?}", report.totals);
        prop_assert_eq!(
            report.completions.len() + report.failures.len() + report.rejected_ids.len(),
            schedule.len()
        );
        for f in &report.failures {
            prop_assert!(
                matches!(
                    f.error,
                    ServeError::Registry(_) | ServeError::WorkerPanic | ServeError::DeadlineExceeded
                ),
                "untyped terminal state {:?}",
                f.error
            );
        }
        // A compile fault degrades, never fails: the model still serves.
        if kind_sel == 3 {
            prop_assert_eq!(report.totals.failed, 0, "compile faults degrade, not fail");
        }
    }
}
