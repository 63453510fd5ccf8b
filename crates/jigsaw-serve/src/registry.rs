//! Model registry: plan each stationary weight matrix **once** per
//! (matrix, config) — the paper's amortization argument (§3.1) applied
//! to a multi-tenant server — and cache the result.
//!
//! Two storage tiers:
//!
//! * **resident** — the in-memory planned format, LRU-evicted to honor
//!   a byte budget (accounted at the serialized artifact size),
//! * **artifact** — the serialized format on disk (optional), so an
//!   evicted or restarted model reloads without re-running the reorder.
//!
//! Every fetch is classified hit / planned / disk-loaded and counted,
//! which is what the serving experiment's warm-vs-cold axis reads.
//!
//! A resident [`PlannedModel`] has one execution path,
//! [`PlannedModel::execute_batch_pooled`]: the batch's parts are
//! assembled straight into the kernel's panel-major layout and run on
//! the model's SIMD → scalar degradation ladder (DESIGN.md §12).

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dlmc::Matrix;
use gpu_sim::{GpuSpec, KernelStats};
use jigsaw_core::compiled::dispatch;
use jigsaw_core::fault::{self, points, FaultKind};
use jigsaw_core::serialize;
use jigsaw_core::{
    execute_fast, lock_recover, simulate_plan, CompiledKernel, ExecOptions, JigsawConfig,
    JigsawFormat, JigsawSpmm, PanelizedB, PlanError, PoolBuf, ReorderStats, SimMemo, WorkspacePool,
};
use jigsaw_obs::{Counter, Span};

use crate::batch::{assemble_panels, concat_columns, BatchError};

/// Artifact-load retry policy: total attempts and the base backoff
/// (doubled per retry). Kept small — the disk tier is local, so a
/// transient fault either clears immediately or is not transient.
const ARTIFACT_LOAD_ATTEMPTS: u32 = 3;
const ARTIFACT_RETRY_BASE: Duration = Duration::from_micros(100);

/// Registry configuration.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Byte budget for resident planned models, accounted at the
    /// serialized artifact size. The most recently fetched model is
    /// always kept resident, even if it alone exceeds the budget.
    pub budget_bytes: usize,
    /// Directory for serialized artifacts; `None` disables the disk
    /// tier (cold fetches then always re-plan).
    pub artifact_dir: Option<PathBuf>,
    /// Default microkernel selection for models registered without
    /// per-model options ([`ModelRegistry::register_with_options`]
    /// overrides it per model).
    pub exec_options: ExecOptions,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            budget_bytes: 64 << 20,
            artifact_dir: None,
            exec_options: ExecOptions::default(),
        }
    }
}

/// A planned model resident in the registry. Holds exactly what
/// execution needs — the compressed format and kernel config — so a
/// model restored from its artifact is indistinguishable at run time
/// from a freshly planned one.
#[derive(Clone, Debug)]
pub struct PlannedModel {
    /// Registry name.
    pub name: String,
    /// The compressed reorder-aware format.
    pub format: JigsawFormat,
    /// Kernel configuration the plan was built for.
    pub config: JigsawConfig,
    /// Reorder quality statistics — `None` when restored from an
    /// artifact (the artifact stores the format, not the plan).
    pub reorder_stats: Option<ReorderStats>,
    /// Serialized artifact size, the cache-accounting unit.
    pub artifact_bytes: usize,
    /// Host nanoseconds spent producing this resident copy (planning
    /// or disk load, including kernel compilation).
    pub plan_host_ns: u64,
    /// How this model executes — the top rung of the degradation
    /// ladder it currently sits on (DESIGN.md §12).
    pub exec: ExecPlan,
    /// Per-model microkernel selection threaded into every execution
    /// (DESIGN.md §13): which dispatch variant runs.
    pub exec_options: ExecOptions,
    /// The registration's simulation memo (DESIGN.md §19): it outlives
    /// eviction and disk reload of this resident copy.
    pub sim_memo: Arc<SimMemo>,
}

/// How one resident model executes. A compiled model runs a two-rung
/// ladder, compiled SIMD → compiled scalar; a model whose compilation
/// failed runs [`execute_fast`] on the format instead. Every path
/// computes the same product bit for bit (DESIGN.md §13), so degrading
/// is invisible to callers except in latency and the `degrade.*`
/// counters.
#[derive(Clone, Debug)]
pub enum ExecPlan {
    /// The compiled kernel is available. `simd_poisoned` goes sticky
    /// after a caught SIMD-path panic; later runs go straight to the
    /// compiled scalar microkernel.
    Compiled {
        /// The ahead-of-time-resolved execution plan.
        kernel: Arc<CompiledKernel>,
        /// Set after the SIMD path panicked once (injected or real).
        simd_poisoned: Arc<AtomicBool>,
    },
    /// Kernel compilation itself failed — execute straight off the
    /// compressed format via [`execute_fast`].
    FormatFallback,
}

/// Bumps the degradation counters (always — they are cheap atomics and
/// chaos tests read them without enabling tracing).
fn count_degrade(rung: &'static str) {
    let reg = jigsaw_obs::global();
    reg.counter("degrade.fallbacks").inc();
    reg.counter(rung).inc();
}

impl PlannedModel {
    /// Output dimension (rows of C).
    pub fn m(&self) -> usize {
        self.format.m
    }

    /// Reduction dimension (required B height).
    pub fn k(&self) -> usize {
        self.format.k
    }

    /// True when this model is executing below the full-speed compiled
    /// SIMD rung.
    pub fn is_degraded(&self) -> bool {
        match &self.exec {
            ExecPlan::Compiled { simd_poisoned, .. } => simd_poisoned.load(Ordering::Relaxed),
            ExecPlan::FormatFallback => true,
        }
    }

    /// Marks this model's full-speed rung unusable and poisons the
    /// dispatch variant that was executing, so the resilience ladder
    /// retires a single bad microkernel process-wide while this model
    /// drops to its bit-exact scalar rung.
    fn poison_after_panic(&self, simd_poisoned: &AtomicBool) {
        simd_poisoned.store(true, Ordering::Relaxed);
        dispatch::poison(dispatch::selected_kind(&self.exec_options));
        count_degrade("degrade.exec");
    }

    /// Computes `C = W × b` (row-major f32): the one-part case of
    /// [`PlannedModel::execute_batch_pooled`] on a fresh pool.
    ///
    /// # Panics
    ///
    /// If `b` is not a `k`-row matrix with at least one column.
    pub fn execute(&self, b: &Matrix) -> Vec<f32> {
        let pool = WorkspacePool::new();
        let (c, _) = self
            .execute_batch_pooled(&[b], &pool)
            .expect("B has the model's K rows and at least one column");
        c.into_vec()
    }

    /// Computes the batch product `C = W × [b₀ | … | bⱼ]` with buffers
    /// drawn from `pool` — the one serve execution path. The parts'
    /// F16 columns are emitted straight into panel-major scratch
    /// ([`assemble_panels`]) and executed through the prepaneled entry
    /// point, so the dense operand is touched once, in the layout the
    /// kernel consumes. A panic out of the SIMD rung poisons it
    /// ([`ExecPlan`]) and the scalar rung reruns over the same panels;
    /// the rerun overwrites every element of C, so a partial write the
    /// panic left behind never shows. A
    /// typed assembly error, an injected `serve.assemble` error
    /// included, comes back as a [`BatchError`]; an assembly panic
    /// unwinds to the caller's batch guard. Returns the product plus
    /// whether the full-speed SIMD rung produced it.
    pub fn execute_batch_pooled<'p>(
        &self,
        parts: &[&Matrix],
        pool: &'p WorkspacePool,
    ) -> Result<(PoolBuf<'p>, bool), BatchError> {
        let ExecPlan::Compiled {
            kernel,
            simd_poisoned,
        } = &self.exec
        else {
            let b = concat_columns(parts)?;
            let mut c = pool.acquire(self.m() * b.cols);
            c.copy_from_slice(&execute_fast(&self.format, &b));
            return Ok((c, false));
        };
        let total_n: usize = parts.iter().map(|p| p.cols).sum();
        let mut c = pool.acquire(self.m() * total_n);
        let mut scratch = pool.acquire(self.k() * total_n);
        let (k, n) = assemble_panels(parts, &mut scratch)?;
        let b = PanelizedB::new(k, n, &scratch)?;
        if !simd_poisoned.load(Ordering::Relaxed) {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                kernel.execute_prepaneled_into_opts(&b, &mut c, &self.exec_options)
            }));
            match ran {
                Ok(done) => {
                    done?;
                    return Ok((c, true));
                }
                Err(_) => self.poison_after_panic(simd_poisoned),
            }
        }
        kernel.execute_prepaneled_into_opts(&b, &mut c, &ExecOptions::scalar())?;
        Ok((c, false))
    }

    /// Simulates one kernel at output width `n`, afresh on every call.
    pub fn simulate(&self, n: usize, spec: &GpuSpec) -> KernelStats {
        simulate_plan(&self.format, &self.config, n, spec)
    }

    /// [`PlannedModel::simulate`] through the registration's memo, once
    /// per `(n, spec)`; the flag says whether the memo answered.
    pub fn simulate_memoized(&self, n: usize, spec: &GpuSpec) -> (KernelStats, bool) {
        self.sim_memo
            .get_or_simulate(n, spec, || self.simulate(n, spec))
    }
}

/// Compiles the execution plan for a freshly planned / loaded format,
/// degrading to [`ExecPlan::FormatFallback`] when compilation fails
/// (injected `exec.compile` faults or a real stream overflow) instead
/// of surfacing the error — the model still serves, slower.
fn build_exec_plan(format: &JigsawFormat, parent: &Span) -> ExecPlan {
    match catch_unwind(AssertUnwindSafe(|| {
        CompiledKernel::try_compile_traced(format, parent)
    })) {
        Ok(Ok(kernel)) => ExecPlan::Compiled {
            kernel: Arc::new(kernel),
            simd_poisoned: Arc::new(AtomicBool::new(false)),
        },
        Ok(Err(_)) | Err(_) => {
            count_degrade("degrade.compile");
            ExecPlan::FormatFallback
        }
    }
}

/// How a fetch was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fetch {
    /// Already resident.
    Hit,
    /// Planned from the registered weights (reorder + compress).
    Planned,
    /// Restored from the on-disk artifact.
    DiskLoaded,
}

impl Fetch {
    /// True for anything other than a resident hit.
    pub fn is_cold(self) -> bool {
        self != Fetch::Hit
    }
}

/// Cache accounting counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fetches served from resident memory.
    pub hits: u64,
    /// Fetches that found nothing resident.
    pub misses: u64,
    /// Misses satisfied by deserializing the artifact.
    pub disk_loads: u64,
    /// Misses satisfied by planning from weights.
    pub plans: u64,
    /// Models evicted to honor the byte budget.
    pub evictions: u64,
    /// Bytes currently resident (artifact-size accounting).
    pub resident_bytes: usize,
    /// Models currently resident.
    pub resident_models: usize,
    /// Total host nanoseconds spent planning or disk-loading.
    pub cold_host_ns: u64,
}

impl CacheStats {
    /// Hit fraction of all fetches (0 when nothing was fetched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Registry failure.
#[derive(Debug)]
pub enum RegistryError {
    /// The named model was never registered.
    UnknownModel(String),
    /// The artifact tier failed (I/O or a corrupt artifact).
    Io(io::Error),
    /// Planning the registered weights failed (bad config or
    /// off-grid weights) — the typed error from `jigsaw-core`.
    Plan(PlanError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            RegistryError::Io(e) => write!(f, "artifact error: {e}"),
            RegistryError::Plan(e) => write!(f, "planning failed: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            RegistryError::Plan(e) => Some(e),
            RegistryError::UnknownModel(_) => None,
        }
    }
}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<PlanError> for RegistryError {
    fn from(e: PlanError) -> Self {
        RegistryError::Plan(e)
    }
}

/// One attempt at reading the artifact bytes, crossing the
/// `registry.artifact_load` fault point: injected errors and latency
/// surface here; injected corruption deterministically scrambles the
/// bytes (the hardened decoder then rejects them downstream).
fn read_artifact_once(path: &Path) -> io::Result<Vec<u8>> {
    match fault::fire(points::ARTIFACT_LOAD) {
        Some(f) => match f.kind {
            FaultKind::Error => Err(io::Error::other(fault::FaultError {
                point: points::ARTIFACT_LOAD,
            })),
            FaultKind::Panic => panic!("injected fault: panic at {}", points::ARTIFACT_LOAD),
            FaultKind::Latency { ns } => {
                std::thread::sleep(Duration::from_nanos(ns));
                std::fs::read(path)
            }
            FaultKind::CorruptBytes => {
                let mut bytes = std::fs::read(path)?;
                fault::scramble(f.token, &mut bytes);
                Ok(bytes)
            }
        },
        None => std::fs::read(path),
    }
}

/// Loads and decodes an artifact with bounded exponential-backoff
/// retries: a transient fault (injected error, one corrupt read)
/// recovers on a later attempt; a persistent one surfaces its final
/// error. Retries are counted on `registry.load_retries`.
fn load_artifact(path: &Path) -> io::Result<(JigsawFormat, usize)> {
    let mut delay = ARTIFACT_RETRY_BASE;
    let mut attempt = 0;
    loop {
        attempt += 1;
        let result = read_artifact_once(path).and_then(|bytes| {
            let format = serialize::from_bytes(&bytes)?;
            Ok((format, bytes.len()))
        });
        match result {
            Ok(ok) => return Ok(ok),
            Err(e) => {
                if attempt >= ARTIFACT_LOAD_ATTEMPTS {
                    return Err(e);
                }
                jigsaw_obs::global().counter("registry.load_retries").inc();
                std::thread::sleep(delay);
                delay *= 2;
            }
        }
    }
}

struct Source {
    weights: Matrix,
    config: JigsawConfig,
    exec_options: ExecOptions,
    /// Shared by every resident copy; a new registration starts afresh.
    sim_memo: Arc<SimMemo>,
}

struct Resident {
    model: Arc<PlannedModel>,
    last_use: u64,
}

/// The registry's event counters, on the shared observability counter
/// type ([`jigsaw_obs::Counter`]): lock-free to read, and snapshotted
/// into [`CacheStats`] by [`ModelRegistry::stats`]. Per-registry (not
/// global names) so independent registries — one per eviction policy in
/// the serving experiment — keep independent counts.
#[derive(Default)]
struct CacheCounters {
    hits: Counter,
    misses: Counter,
    disk_loads: Counter,
    plans: Counter,
    evictions: Counter,
    cold_host_ns: Counter,
}

struct Inner {
    sources: HashMap<String, Source>,
    resident: HashMap<String, Resident>,
    tick: u64,
    /// Non-monotonic occupancy accounting (rises and falls with
    /// eviction) — stays under the lock rather than on counters.
    resident_bytes: usize,
}

/// The multi-tenant model cache. All methods take `&self`; the registry
/// is shared across worker threads behind an `Arc`.
pub struct ModelRegistry {
    cfg: RegistryConfig,
    counters: CacheCounters,
    inner: Mutex<Inner>,
}

impl ModelRegistry {
    /// Creates a registry (and the artifact directory, if configured).
    pub fn new(cfg: RegistryConfig) -> io::Result<ModelRegistry> {
        if let Some(dir) = &cfg.artifact_dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(ModelRegistry {
            cfg,
            counters: CacheCounters::default(),
            inner: Mutex::new(Inner {
                sources: HashMap::new(),
                resident: HashMap::new(),
                tick: 0,
                resident_bytes: 0,
            }),
        })
    }

    /// Registers a model's weights with the registry-default
    /// microkernel selection. Planning is deferred to the first fetch;
    /// re-registering a name replaces the source, drops any resident
    /// plan and starts a fresh simulation memo.
    pub fn register(&self, name: &str, weights: Matrix, config: JigsawConfig) {
        self.register_with_options(name, weights, config, self.cfg.exec_options);
    }

    /// [`ModelRegistry::register`] with per-model microkernel
    /// selection: this model's executions use the given kernel policy
    /// (DESIGN.md §13) instead of the registry default.
    pub fn register_with_options(
        &self,
        name: &str,
        weights: Matrix,
        config: JigsawConfig,
        exec_options: ExecOptions,
    ) {
        let mut inner = lock_recover(&self.inner);
        if let Some(old) = inner.resident.remove(name) {
            inner.resident_bytes -= old.model.artifact_bytes;
        }
        inner.sources.insert(
            name.to_string(),
            Source {
                weights,
                config,
                exec_options,
                sim_memo: Arc::default(),
            },
        );
    }

    /// The registered model's reduction dimension, if known.
    pub fn model_k(&self, name: &str) -> Option<usize> {
        let inner = lock_recover(&self.inner);
        inner.sources.get(name).map(|s| s.weights.cols)
    }

    /// Registered model names, sorted.
    pub fn model_names(&self) -> Vec<String> {
        let inner = lock_recover(&self.inner);
        let mut names: Vec<String> = inner.sources.keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_recover(&self.inner);
        CacheStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            disk_loads: self.counters.disk_loads.get(),
            plans: self.counters.plans.get(),
            evictions: self.counters.evictions.get(),
            resident_bytes: inner.resident_bytes,
            resident_models: inner.resident.len(),
            cold_host_ns: self.counters.cold_host_ns.get(),
        }
    }

    /// Fetches a planned model, reporting how the fetch was satisfied.
    ///
    /// Cold fetches plan (or disk-load) while holding the registry
    /// lock: concurrent workers serialize on planning, which also
    /// guarantees a model is never planned twice.
    pub fn fetch(&self, name: &str) -> Result<(Arc<PlannedModel>, Fetch), RegistryError> {
        self.fetch_traced(name, &Span::disabled())
    }

    /// [`ModelRegistry::fetch`] with the cold-path plan spans attached
    /// to `parent` — how a cold fetch's reorder phases land inside a
    /// serving request's trace.
    pub fn fetch_traced(
        &self,
        name: &str,
        parent: &Span,
    ) -> Result<(Arc<PlannedModel>, Fetch), RegistryError> {
        let mut inner = lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let hit = inner.resident.get_mut(name).map(|r| {
            r.last_use = tick;
            r.model.clone()
        });
        if let Some(model) = hit {
            self.counters.hits.inc();
            parent.attr("fetch", "hit");
            return Ok((model, Fetch::Hit));
        }
        if !inner.sources.contains_key(name) {
            return Err(RegistryError::UnknownModel(name.to_string()));
        }
        self.counters.misses.inc();

        let started = Instant::now();
        let artifact_path = self
            .cfg
            .artifact_dir
            .as_ref()
            .map(|d| d.join(format!("{name}.jgsw")));
        let on_disk = artifact_path.as_ref().is_some_and(|p| p.exists());

        let source = inner.sources.get(name).expect("checked above");
        let (format, reorder_stats, artifact_bytes, kind) = if on_disk {
            parent.attr("fetch", "disk_load");
            let path = artifact_path.as_ref().expect("checked above");
            // Retrying loader: transient faults recover; persistent
            // corruption surfaces as a typed error, never a crash.
            let (format, artifact_bytes) = load_artifact(path)?;
            self.counters.disk_loads.inc();
            (format, None, artifact_bytes, Fetch::DiskLoaded)
        } else {
            parent.attr("fetch", "planned");
            let planned = JigsawSpmm::plan_traced(&source.weights, source.config, parent)?;
            let bytes = serialize::to_bytes(&planned.format);
            if let Some(path) = &artifact_path {
                std::fs::write(path, &bytes)?;
            }
            self.counters.plans.inc();
            let stats = Some(planned.reorder_stats);
            (planned.format, stats, bytes.len(), Fetch::Planned)
        };
        let model = Arc::new(PlannedModel {
            name: name.to_string(),
            exec: build_exec_plan(&format, parent),
            format,
            config: source.config,
            reorder_stats,
            artifact_bytes,
            plan_host_ns: started.elapsed().as_nanos() as u64,
            exec_options: source.exec_options,
            sim_memo: source.sim_memo.clone(),
        });
        self.counters.cold_host_ns.add(model.plan_host_ns);
        inner.resident_bytes += model.artifact_bytes;
        inner.resident.insert(
            name.to_string(),
            Resident {
                model: model.clone(),
                last_use: tick,
            },
        );
        self.evict_over_budget(&mut inner, name);
        Ok((model, kind))
    }

    /// Fetches a planned model (plain form of [`ModelRegistry::fetch`]).
    pub fn get(&self, name: &str) -> Result<Arc<PlannedModel>, RegistryError> {
        self.fetch(name).map(|(m, _)| m)
    }

    /// Pre-plans every registered model (sorted order), warming the
    /// cache. Returns the number of cold fetches performed.
    pub fn warm_all(&self) -> Result<usize, RegistryError> {
        let mut cold = 0;
        for name in self.model_names() {
            if self.fetch(&name)?.1.is_cold() {
                cold += 1;
            }
        }
        Ok(cold)
    }

    /// Drops every resident plan (artifacts remain on disk), as if the
    /// server restarted with a cold cache.
    pub fn drop_resident(&self) {
        let mut inner = lock_recover(&self.inner);
        let n = inner.resident.len() as u64;
        inner.resident.clear();
        self.counters.evictions.add(n);
        inner.resident_bytes = 0;
    }

    /// Evicts least-recently-used residents (never `keep`) until the
    /// byte budget is honored.
    fn evict_over_budget(&self, inner: &mut Inner, keep: &str) {
        while inner.resident_bytes > self.cfg.budget_bytes {
            let victim = inner
                .resident
                .iter()
                .filter(|(name, _)| name.as_str() != keep)
                .min_by(|a, b| (a.1.last_use, a.0).cmp(&(b.1.last_use, b.0)))
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else {
                // Only `keep` remains; it stays resident even over
                // budget so a fetch always returns a usable model.
                break;
            };
            let evicted = inner.resident.remove(&victim).expect("victim exists");
            inner.resident_bytes -= evicted.model.artifact_bytes;
            self.counters.evictions.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::default_zoo;

    fn registry_with_zoo(budget: usize, dir: Option<PathBuf>) -> ModelRegistry {
        let reg = ModelRegistry::new(RegistryConfig {
            budget_bytes: budget,
            artifact_dir: dir,
            exec_options: ExecOptions::default(),
        })
        .unwrap();
        for m in default_zoo(40).into_iter().take(2) {
            reg.register(&m.name, m.weights(), m.config);
        }
        reg
    }

    #[test]
    fn fetch_plans_once_then_hits() {
        let reg = registry_with_zoo(usize::MAX, None);
        let (m1, k1) = reg.fetch("attention-small").unwrap();
        assert_eq!(k1, Fetch::Planned);
        let (m2, k2) = reg.fetch("attention-small").unwrap();
        assert_eq!(k2, Fetch::Hit);
        assert!(Arc::ptr_eq(&m1, &m2), "hit returns the same plan");
        let s = reg.stats();
        assert_eq!((s.hits, s.misses, s.plans), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn invalid_model_config_is_a_typed_plan_error() {
        let reg = registry_with_zoo(usize::MAX, None);
        let m = &default_zoo(40)[0];
        // 40 is not a multiple of MMA_TILE, so planning must fail —
        // surfaced as RegistryError::Plan, never a panic.
        reg.register("broken", m.weights(), jigsaw_core::JigsawConfig::v4(40));
        match reg.fetch("broken") {
            Err(RegistryError::Plan(PlanError::Config(_))) => {}
            other => panic!("expected Plan(Config(_)), got {other:?}"),
        }
    }

    #[test]
    fn unknown_model_is_an_error() {
        let reg = registry_with_zoo(usize::MAX, None);
        assert!(matches!(
            reg.fetch("nope"),
            Err(RegistryError::UnknownModel(_))
        ));
    }

    #[test]
    fn eviction_honors_byte_budget() {
        let reg = registry_with_zoo(usize::MAX, None);
        let a = reg.get("attention-small").unwrap();
        let b = reg.get("embedding-proj").unwrap();
        let budget = a.artifact_bytes.max(b.artifact_bytes);

        // Re-run with a budget that fits only one model at a time.
        let reg = registry_with_zoo(budget, None);
        reg.get("attention-small").unwrap();
        reg.get("embedding-proj").unwrap();
        let s = reg.stats();
        assert!(s.resident_bytes <= budget, "budget respected");
        assert_eq!(s.resident_models, 1);
        assert_eq!(s.evictions, 1);
        // The evicted model re-plans on next touch.
        let (_, kind) = reg.fetch("attention-small").unwrap();
        assert_eq!(kind, Fetch::Planned);
    }

    #[test]
    fn artifacts_make_cold_fetches_disk_loads() {
        let dir = std::env::temp_dir().join("jigsaw-serve-registry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let reg = registry_with_zoo(usize::MAX, Some(dir.clone()));
        let spec = GpuSpec::a100();
        let first = reg.get("attention-small").unwrap();
        let (sim, _) = first.simulate_memoized(48, &spec);
        assert!(dir.join("attention-small.jgsw").exists());
        reg.drop_resident();
        let (m, kind) = reg.fetch("attention-small").unwrap();
        assert_eq!(kind, Fetch::DiskLoaded);
        assert!(m.reorder_stats.is_none(), "artifact stores no plan stats");
        let s = reg.stats();
        assert_eq!(s.disk_loads, 1);
        // The simulation memo outlives eviction and disk reload: a hit,
        // no new miss, the same bits.
        let (again, hit) = m.simulate_memoized(48, &spec);
        assert!(hit && m.sim_memo.misses() == 1);
        assert_eq!(format!("{again:?}"), format!("{sim:?}"));

        // Loaded format computes the same product as a fresh plan.
        let fresh = registry_with_zoo(usize::MAX, None);
        let f = fresh.get("attention-small").unwrap();
        let b = dlmc::dense_rhs(m.k(), 8, dlmc::ValueDist::SmallInt, 77);
        assert_eq!(m.execute(&b), f.execute(&b));
        // Re-registering the name starts a fresh memo.
        let z = &default_zoo(40)[0];
        reg.register(&z.name, z.weights(), z.config);
        assert!(reg.get("attention-small").unwrap().sim_memo.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_model_kernel_selection_is_honored() {
        use jigsaw_core::{KernelKind, KernelPolicy};
        let reg = ModelRegistry::new(RegistryConfig::default()).unwrap();
        let m = &default_zoo(40)[0];
        reg.register_with_options(
            "pinned-scalar",
            m.weights(),
            m.config,
            ExecOptions::from(KernelPolicy::Forced(KernelKind::Scalar)),
        );
        let model = reg.get("pinned-scalar").unwrap();
        assert_eq!(model.exec_options.forced_kernel(), Some(KernelKind::Scalar));
        assert!(!model.is_degraded(), "a forced variant is not degraded");
        // Forced scalar goes through the dispatch layer and stays
        // bit-identical to the format-walk oracle, floats included.
        let b = dlmc::dense_rhs(model.k(), 8, dlmc::ValueDist::Uniform, 3);
        assert_eq!(model.execute(&b), execute_fast(&model.format, &b));
    }

    #[test]
    fn corrupt_artifact_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join("jigsaw-serve-corrupt-test");
        let _ = std::fs::remove_dir_all(&dir);
        let reg = registry_with_zoo(usize::MAX, Some(dir.clone()));
        reg.get("attention-small").unwrap();
        reg.drop_resident();
        // Truncate the artifact mid-file.
        let path = dir.join("attention-small.jgsw");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            reg.fetch("attention-small"),
            Err(RegistryError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
