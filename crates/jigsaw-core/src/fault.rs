//! Deterministic fault injection for the whole stack.
//!
//! A process-global registry of **named injection points** threaded
//! through planning, kernel compilation, execution, pool allocation,
//! artifact loading, and the serve worker pool (the [`points`] module
//! names them all). Tests and chaos harnesses arm faults with
//! [`inject`]; production code crosses a point with [`hit`] (fallible
//! call sites), [`trip`] (infallible call sites, where an injected
//! error becomes a panic for the isolation layer above to catch), or
//! [`fire`] (callers that interpret the fault themselves, e.g. to
//! corrupt bytes or charge virtual latency).
//!
//! Disarmed cost is **one relaxed atomic load** per point — the same
//! contract as `jigsaw_obs::enabled` — so the points stay compiled into
//! release builds. Armed behavior is deterministic: each point keeps a
//! hit counter and a spec fires on an exact hit range
//! (`first_hit .. first_hit + count`), and byte corruption derives its
//! RNG stream from `(seed, point, hit)` alone, so a seeded fault
//! schedule replays identically across runs.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// The named injection points of the workspace, one constant per
/// instrumented seam. Points are plain strings so layers above
/// `jigsaw-core` (the serve worker pool) share the same registry.
pub mod points {
    /// Start of `JigsawSpmm::plan_traced` (reorder + compress).
    pub const PLAN: &str = "core.plan";
    /// Start of `CompiledKernel::try_compile`.
    pub const COMPILE: &str = "exec.compile";
    /// Start of a compiled execution on a SIMD variant (the hot path).
    pub const EXECUTE: &str = "exec.execute";
    /// `WorkspacePool::acquire`.
    pub const POOL_ACQUIRE: &str = "pool.acquire";
    /// One disk-artifact load attempt in the serve model registry.
    pub const ARTIFACT_LOAD: &str = "registry.artifact_load";
    /// Start of one serve worker batch execution.
    pub const WORKER_BATCH: &str = "serve.worker_batch";
    /// One fused batched-B panel-major assembly in the serve batch
    /// path (before the prepaneled execute). A fault here fails that
    /// batch only: an error as a typed batch error, a panic through the
    /// worker's batch guard. It never degrades the model.
    pub const SERVE_ASSEMBLE: &str = "serve.assemble";
    /// One shard-router routing decision (before the request reaches
    /// its home shard's admission).
    pub const SHARD_ROUTE: &str = "shard.route";
    /// One shard-router forward to a replica shard.
    pub const SHARD_FORWARD: &str = "shard.forward";
    /// One shard dispatch that a chaos harness may turn into a
    /// straggler. Callers interpret the fault themselves via
    /// [`fire`](super::fire): the threaded router charges a
    /// `Latency` fault as host sleep; the virtual-clock shard sim
    /// reads the same spec and stretches the dispatch's device
    /// cycles instead, so straggler schedules stay
    /// bit-deterministic.
    pub const SHARD_SLOW: &str = "shard.slow";
}

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The point reports a typed error ([`FaultError`]). At infallible
    /// points ([`trip`]) this becomes a panic.
    Error,
    /// The point panics (message prefixed `injected fault:`).
    Panic,
    /// The point sleeps for the given nanoseconds, then proceeds.
    Latency {
        /// Injected delay, nanoseconds of host time.
        ns: u64,
    },
    /// The point proceeds, but callers that load bytes through it
    /// ([`fire`] + [`scramble`]) deterministically corrupt them.
    CorruptBytes,
}

/// One armed fault: fire `count` times starting at the `first_hit`-th
/// crossing (1-based) of `point`.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Injection point this spec watches.
    pub point: String,
    /// Behavior when it fires.
    pub kind: FaultKind,
    /// First hit (1-based) at which the fault fires.
    pub first_hit: u64,
    /// Consecutive hits that fire (`u64::MAX` = forever).
    pub count: u64,
}

impl FaultSpec {
    /// Fires on exactly the first crossing of `point`.
    pub fn once(point: &str, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            point: point.to_string(),
            kind,
            first_hit: 1,
            count: 1,
        }
    }

    /// Fires on every crossing of `point`.
    pub fn always(point: &str, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            count: u64::MAX,
            ..FaultSpec::once(point, kind)
        }
    }

    /// Fires once, on the `first_hit`-th crossing (1-based).
    pub fn at(point: &str, kind: FaultKind, first_hit: u64) -> FaultSpec {
        FaultSpec {
            first_hit,
            ..FaultSpec::once(point, kind)
        }
    }

    /// Widens the spec to fire on `count` consecutive hits.
    pub fn times(mut self, count: u64) -> FaultSpec {
        self.count = count;
        self
    }
}

/// The typed error an injected [`FaultKind::Error`] surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// The injection point that fired.
    pub point: &'static str,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}", self.point)
    }
}

impl std::error::Error for FaultError {}

/// A fired fault: its kind plus a deterministic token derived from
/// `(seed, point, hit)` — the RNG key for [`scramble`].
#[derive(Clone, Copy, Debug)]
pub struct Fired {
    /// What to do.
    pub kind: FaultKind,
    /// Deterministic corruption/latency token for this firing.
    pub token: u64,
}

#[derive(Default)]
struct Inner {
    seed: u64,
    specs: Vec<FaultSpec>,
    hits: HashMap<String, u64>,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Inner> {
    static REG: OnceLock<Mutex<Inner>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Inner::default()))
}

/// Whether any fault is armed. One relaxed atomic load — the entire
/// overhead of a disarmed injection point.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Seeds the deterministic corruption stream (default 0).
pub fn set_seed(seed: u64) {
    crate::sync::lock_recover(registry()).seed = seed;
}

/// Arms a fault. Points are armed cumulatively until [`reset`].
pub fn inject(spec: FaultSpec) {
    crate::sync::lock_recover(registry()).specs.push(spec);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms everything and zeroes all hit counters and the seed.
pub fn reset() {
    ARMED.store(false, Ordering::SeqCst);
    let mut inner = crate::sync::lock_recover(registry());
    inner.specs.clear();
    inner.hits.clear();
    inner.seed = 0;
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Crosses `point`: advances its hit counter and returns the fault
/// that fires on this hit, if any. The low-level primitive — most call
/// sites want [`hit`] or [`trip`], which also *apply* the fault.
pub fn fire(point: &str) -> Option<Fired> {
    if !armed() {
        return None;
    }
    let mut inner = crate::sync::lock_recover(registry());
    let hit = inner
        .hits
        .entry(point.to_string())
        .and_modify(|h| *h += 1)
        .or_insert(1);
    let hit = *hit;
    let kind = inner
        .specs
        .iter()
        .find(|s| s.point == point && hit >= s.first_hit && hit - s.first_hit < s.count)
        .map(|s| s.kind)?;
    let token = splitmix(inner.seed ^ splitmix(hash_point(point)) ^ hit);
    if jigsaw_obs::enabled() {
        jigsaw_obs::global().counter("fault.fired").inc();
    }
    Some(Fired { kind, token })
}

fn hash_point(point: &str) -> u64 {
    point.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Crosses a fallible `point`: [`FaultKind::Error`] comes back as
/// `Err`, panic faults panic, latency faults sleep, corruption is a
/// no-op (it only affects byte loaders using [`fire`] + [`scramble`]).
pub fn hit(point: &'static str) -> Result<(), FaultError> {
    match fire(point) {
        None
        | Some(Fired {
            kind: FaultKind::CorruptBytes,
            ..
        }) => Ok(()),
        Some(Fired {
            kind: FaultKind::Error,
            ..
        }) => Err(FaultError { point }),
        Some(Fired {
            kind: FaultKind::Panic,
            ..
        }) => panic!("injected fault: panic at {point}"),
        Some(Fired {
            kind: FaultKind::Latency { ns },
            ..
        }) => {
            std::thread::sleep(Duration::from_nanos(ns));
            Ok(())
        }
    }
}

/// Crosses an infallible `point`: like [`hit`], but an injected
/// [`FaultKind::Error`] also panics — the isolation layer above
/// (worker `catch_unwind`, kernel degradation) turns it back into a
/// typed outcome.
pub fn trip(point: &'static str) {
    if let Err(e) = hit(point) {
        panic!("injected fault: {e}");
    }
}

/// Deterministically corrupts `bytes` from a [`Fired::token`]: flips a
/// spread of bits across the buffer *and* always mangles the first
/// byte, so length-prefixed formats with a magic header fail to decode
/// rather than silently parsing flipped values.
pub fn scramble(token: u64, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    bytes[0] ^= 0xFF;
    let flips = (bytes.len() / 64).clamp(1, 64);
    let mut x = token | 1;
    for _ in 0..flips {
        x = splitmix(x);
        let idx = (x as usize) % bytes.len();
        bytes[idx] ^= (1 << (x >> 60)) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault tests share the process-global registry; serialize them.
    /// (Specs here only target `test.*` points, so concurrently running
    /// non-fault tests never see them fire.)
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_points_are_free_and_silent() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        assert!(!armed());
        assert!(fire("test.anything").is_none());
        assert!(hit("test.anything").is_ok());
        trip("test.anything");
    }

    #[test]
    fn specs_fire_on_exact_hit_ranges() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        inject(FaultSpec::at("test.range", FaultKind::Error, 2).times(2));
        assert!(hit("test.range").is_ok(), "hit 1 passes");
        assert_eq!(
            hit("test.range"),
            Err(FaultError {
                point: "test.range"
            }),
            "hit 2 fires"
        );
        assert!(hit("test.range").is_err(), "hit 3 fires");
        assert!(hit("test.range").is_ok(), "hit 4 passes");
        reset();
    }

    #[test]
    fn once_fires_exactly_once_and_only_at_its_point() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        inject(FaultSpec::once("test.once", FaultKind::Error));
        assert!(hit("test.other").is_ok(), "other points untouched");
        assert!(hit("test.once").is_err());
        assert!(hit("test.once").is_ok());
        reset();
    }

    #[test]
    fn panic_kind_panics_with_marker() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        inject(FaultSpec::once("test.panic", FaultKind::Panic));
        let err = std::panic::catch_unwind(|| trip("test.panic")).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
        reset();
    }

    #[test]
    fn scramble_is_seed_deterministic_and_breaks_headers() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_seed(7);
        inject(FaultSpec::always("test.bytes", FaultKind::CorruptBytes));
        let fired = fire("test.bytes").expect("armed");
        let original = vec![0xAAu8; 256];
        let mut a = original.clone();
        let mut b = original.clone();
        scramble(fired.token, &mut a);
        scramble(fired.token, &mut b);
        assert_eq!(a, b, "same token, same corruption");
        assert_ne!(a, original);
        assert_ne!(a[0], original[0], "header byte always mangled");
        // A later hit corrupts differently (token depends on the hit).
        let fired2 = fire("test.bytes").expect("armed");
        let mut c = original.clone();
        scramble(fired2.token, &mut c);
        assert_ne!(c, a, "hit-dependent corruption stream");
        reset();
    }

    #[test]
    fn latency_kind_sleeps_then_proceeds() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        inject(FaultSpec::once(
            "test.slow",
            FaultKind::Latency { ns: 2_000_000 },
        ));
        let started = std::time::Instant::now();
        assert!(hit("test.slow").is_ok());
        assert!(started.elapsed() >= Duration::from_millis(2));
        reset();
    }
}
