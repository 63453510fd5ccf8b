//! Serving-layer experiment: the same seeded open-loop workload run
//! under {batched, unbatched} × {warm, cold} policies on the
//! virtual-clock scheduler. Quantifies the two amortization effects
//! the serving layer stacks on top of the kernel: micro-batching
//! (simulated SpMM cost is sublinear in N — paper Fig 10) and plan
//! caching (the §3.1 one-time reorder, charged only on cold starts).

use std::time::Instant;

use dlmc::{dense_rhs, Matrix, ValueDist};
use gpu_sim::GpuSpec;
use serde::{Deserialize, Serialize};

use jigsaw_core::panelize_into;
use jigsaw_serve::{
    assemble_panels, concat_columns, default_zoo, generate_schedule, generate_zipf_schedule,
    scaled_zoo, simulate_sharded, ForwardConfig, HealthConfig, HedgeConfig, LoadSpec,
    ModelRegistry, RegistryConfig, ReplicationConfig, ShardConfig, ShardSimConfig, SimConfig,
    SimRequest, ZipfLoadSpec,
};

use crate::runner::render_table;

/// One serving configuration's outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Row {
    /// Policy label (`batched+warm`, `unbatched+cold`, …).
    pub policy: String,
    /// Requests completed.
    pub completed: u64,
    /// Kernel launches (batches).
    pub batches: u64,
    /// Mean requests coalesced per batch.
    pub avg_occupancy: f64,
    /// Virtual-time makespan, cycles.
    pub makespan_cycles: f64,
    /// Completed requests per 10⁹ cycles of elapsed virtual time.
    pub requests_per_gcycle: f64,
    /// p50 request latency, cycles.
    pub p50_latency_cycles: f64,
    /// p95 request latency, cycles.
    pub p95_latency_cycles: f64,
    /// p99 request latency, cycles.
    pub p99_latency_cycles: f64,
    /// Registry hits over the run.
    pub cache_hits: u64,
    /// Registry misses over the run.
    pub cache_misses: u64,
    /// Admitted requests that terminated with a typed error.
    pub failed: u64,
    /// Admitted requests shed on deadline expiry before dispatch.
    pub shed_expired: u64,
    /// Queue depth at end of run (0 once drained).
    pub queue_depth: usize,
    /// Models whose circuit breaker was not Closed at end of run.
    pub breakers_open: u64,
}

/// One shard count's outcome under the shared zipf workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardRow {
    /// Shards in the ring.
    pub shards: usize,
    /// Requests completed across all shards.
    pub completed: u64,
    /// Requests redirected to a less-loaded replica at admission.
    pub forwarded: u64,
    /// Breaker fast-rejects summed over shards.
    pub breaker_rejects: u64,
    /// Requests shed on deadline expiry.
    pub shed_expired: u64,
    /// Requests that terminated with a typed error.
    pub failed: u64,
    /// Hot-model promotions over the run.
    pub promotions: u64,
    /// Hot-model demotions over the run.
    pub demotions: u64,
    /// Cluster-wide p50 request latency, cycles.
    pub p50_latency_cycles: f64,
    /// Cluster-wide p95 request latency, cycles.
    pub p95_latency_cycles: f64,
    /// Cluster-wide p99 request latency, cycles.
    pub p99_latency_cycles: f64,
    /// Virtual-time makespan, cycles.
    pub makespan_cycles: f64,
    /// Completed requests per 10⁹ cycles of elapsed virtual time.
    pub requests_per_gcycle: f64,
    /// Per-shard submitted counts (routing balance).
    pub per_shard_submitted: Vec<u64>,
    /// Per-shard completed counts.
    pub per_shard_completed: Vec<u64>,
    /// Per-shard p99 latency, cycles (0 for an idle shard).
    pub per_shard_p99_latency_cycles: Vec<f64>,
}

/// One batch size's host-side assembly comparison: the fused
/// panel-major emit (`assemble_panels`, one touch of every F16 column)
/// against the two-touch oracle (`concat_columns` into one `Matrix`,
/// then phase-1 panelization). Both paths are timed on the host clock
/// over identical parts and asserted bit-exact before timing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FusionRow {
    /// Parts coalesced into the batch.
    pub batch: usize,
    /// Reduction dimension (rows of every part).
    pub k: usize,
    /// Columns per part.
    pub n_per_part: usize,
    /// Total batch width, columns.
    pub total_n: usize,
    /// Best-of-k wall time of the fused panel-major emit, nanoseconds.
    pub fused_assemble_ns: f64,
    /// Best-of-k wall time of concat + panelize, nanoseconds.
    pub unfused_assemble_ns: f64,
    /// `unfused_assemble_ns / fused_assemble_ns` — the host-copy work
    /// the fused path removes. CI floors this at 1.0 for batch ≥ 4.
    pub speedup: f64,
}

/// One tail-tolerance policy's outcome under the straggler workload
/// (DESIGN.md §17): the same zipf schedule on the same ring with one
/// shard degraded to a 10× straggler, hedging + health scoring off
/// (`unhedged`) versus on (`hedged`). CI floors the hedged p99 at
/// ≤ 1.0× the unhedged p99 and the work amplification at
/// `1 + budget_fraction`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HedgeRow {
    /// Policy label (`unhedged` or `hedged`).
    pub policy: String,
    /// Shards in the ring.
    pub shards: usize,
    /// Shard degraded into the straggler.
    pub straggler_shard: usize,
    /// Straggler service-time multiplier.
    pub straggler_factor: f64,
    /// Requests completed.
    pub completed: u64,
    /// Hedged duplicates launched.
    pub hedges: u64,
    /// Hedges whose duplicate finished first.
    pub hedge_wins: u64,
    /// Hedge losers cancelled before execution.
    pub hedge_cancels: u64,
    /// Straggler ejections by the health scorer.
    pub health_ejections: u64,
    /// Cluster-wide p50 request latency, cycles.
    pub p50_latency_cycles: f64,
    /// Cluster-wide p95 request latency, cycles.
    pub p95_latency_cycles: f64,
    /// Cluster-wide p99 request latency, cycles.
    pub p99_latency_cycles: f64,
    /// Total executed work: busy cycles summed over shards.
    pub busy_cycles: f64,
    /// `busy_cycles / unhedged busy_cycles` — executed-work
    /// amplification the retry budget must bound (1.0 on the
    /// unhedged row by construction).
    pub work_amplification: f64,
    /// Retry-budget accrual fraction the bound derives from.
    pub budget_fraction: f64,
}

/// One offered load's outcome: the policy zoo's workload at one mean
/// inter-arrival gap on a single warm shard. The sweep runs from idle
/// past saturation, so its rows show how the batching rule trades
/// latency for throughput as load rises.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadRow {
    /// Mean inter-arrival gap, cycles (lower is more offered load).
    pub mean_gap_cycles: f64,
    /// Requests completed.
    pub completed: u64,
    /// Kernel launches (batches).
    pub batches: u64,
    /// Mean requests coalesced per batch.
    pub avg_occupancy: f64,
    /// Completed requests per 10⁹ cycles of elapsed virtual time.
    pub requests_per_gcycle: f64,
    /// p50 request latency, cycles.
    pub p50_latency_cycles: f64,
    /// p99 request latency, cycles.
    pub p99_latency_cycles: f64,
}

/// Workload shape for the sharded sweep. The same schedule (same
/// offered load) runs at every shard count, so rows compare scaling,
/// not workload drift.
#[derive(Clone, Debug)]
pub struct ShardSweepSpec {
    /// Requests in the zipf workload.
    pub requests: usize,
    /// Distinct models in the scaled zoo.
    pub models: usize,
    /// Simulated user population.
    pub users: usize,
    /// Workload seed.
    pub seed: u64,
    /// Shard counts to sweep.
    pub shard_counts: Vec<usize>,
    /// Mean inter-arrival gap, cycles — sized to saturate one shard so
    /// the sweep shows queueing relief, not idle devices.
    pub mean_gap_cycles: f64,
}

impl Default for ShardSweepSpec {
    fn default() -> Self {
        ShardSweepSpec {
            requests: 20_000,
            models: 24,
            users: 1_000_000,
            seed: 0x51AB,
            shard_counts: vec![1, 2, 4, 8],
            mean_gap_cycles: 600.0,
        }
    }
}

/// The serving experiment result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Serving {
    /// Requests in the workload.
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
    /// One row per policy.
    pub rows: Vec<Row>,
    /// Requests in the sharded zipf workload.
    pub shard_requests: usize,
    /// Simulated user population behind the zipf workload.
    pub users: usize,
    /// Zipf workload seed.
    pub zipf_seed: u64,
    /// One row per shard count, same offered load.
    pub shard_rows: Vec<ShardRow>,
    /// One row per batch size: fused vs two-touch batch assembly,
    /// host-timed over identical parts.
    pub fusion_rows: Vec<FusionRow>,
    /// Unhedged-vs-hedged pair under an injected 10× straggler shard,
    /// same schedule and ring (DESIGN.md §17).
    pub hedge_rows: Vec<HedgeRow>,
    /// One row per offered load, lightest first, on one warm shard.
    pub load_rows: Vec<LoadRow>,
}

/// Maximum batch width, columns.
const MAX_BATCH_N: usize = 256;

/// Zoo seed behind the policy rows' models and schedule.
const POLICY_ZOO_SEED: u64 = 90;
/// Arrival seed of the policy rows' schedule.
pub const POLICY_SEED: u64 = 0xBEEF;

/// The seeded open-loop workload every policy row replays.
pub fn policy_schedule(requests: usize) -> Vec<SimRequest> {
    policy_schedule_at(requests, 2_000.0)
}

/// The policy workload at a given mean inter-arrival gap, cycles.
fn policy_schedule_at(requests: usize, mean_gap_cycles: f64) -> Vec<SimRequest> {
    let load = LoadSpec {
        requests,
        seed: POLICY_SEED,
        n_choices: vec![8, 16, 32],
        mean_gap_cycles,
    };
    generate_schedule(&default_zoo(POLICY_ZOO_SEED), &load)
}

/// A fresh registry of the policy zoo, planned up front when `warm`.
fn policy_registry(warm: bool) -> ModelRegistry {
    let registry = ModelRegistry::new(RegistryConfig::default()).expect("no artifact dir");
    for m in default_zoo(POLICY_ZOO_SEED) {
        registry.register(&m.name, m.weights(), m.config);
    }
    if warm {
        registry.warm_all().expect("zoo models plan");
    }
    registry
}

/// Runs one `{batched, unbatched} × {warm, cold}` policy over
/// `schedule` on a fresh registry of the default zoo.
pub fn run_policy(
    label: &str,
    batched: bool,
    warm: bool,
    schedule: &[SimRequest],
    spec: &GpuSpec,
) -> Row {
    // A fresh registry per policy so "cold" truly re-plans.
    let registry = policy_registry(warm);
    let cfg = if batched {
        SimConfig::batched(spec.clone(), MAX_BATCH_N)
    } else {
        SimConfig::unbatched(spec.clone())
    };
    let cfg = ShardSimConfig::new(ShardConfig::new(1), cfg);
    let report = simulate_sharded(&registry, schedule, &cfg);
    let m = &report.totals;
    assert!(m.conserves(), "serving run conserves requests");
    let stats = registry.stats();
    Row {
        policy: label.to_string(),
        completed: m.completed,
        batches: m.batches,
        avg_occupancy: m.avg_batch_occupancy(),
        makespan_cycles: report.makespan_cycles,
        requests_per_gcycle: report.requests_per_gcycle(),
        p50_latency_cycles: report.latency_cycles.percentile(50.0),
        p95_latency_cycles: report.latency_cycles.percentile(95.0),
        p99_latency_cycles: report.latency_cycles.percentile(99.0),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        failed: m.failed,
        shed_expired: m.shed_expired,
        queue_depth: m.queue_depth,
        breakers_open: m.breakers_open,
    }
}

/// Runs the zipf workload at each shard count. One warm registry and
/// one schedule serve every row, so differences are pure topology.
pub fn run_shard_sweep(spec: &GpuSpec, sweep: &ShardSweepSpec) -> Vec<ShardRow> {
    let zoo = scaled_zoo(sweep.models, 90);
    let registry = ModelRegistry::new(RegistryConfig {
        // The scaled zoo must stay fully resident: an eviction mid-run
        // would surface as a cold fetch the sharded sim rejects.
        budget_bytes: 1 << 30,
        ..RegistryConfig::default()
    })
    .expect("no artifact dir");
    for m in &zoo {
        registry.register(&m.name, m.weights(), m.config);
    }
    registry.warm_all().expect("zoo models plan");
    let schedule: Vec<SimRequest> = generate_zipf_schedule(
        &zoo,
        &ZipfLoadSpec {
            requests: sweep.requests,
            users: sweep.users,
            seed: sweep.seed,
            mean_gap_cycles: sweep.mean_gap_cycles,
            ..ZipfLoadSpec::default()
        },
    )
    .into_iter()
    .map(|z| z.req)
    .collect();
    sweep
        .shard_counts
        .iter()
        .map(|&shards| {
            let cfg = ShardSimConfig::new(
                ShardConfig::new(shards)
                    .with_replication(ReplicationConfig::cycles(48, 2, 1_000_000.0))
                    .with_forwarding(ForwardConfig::threshold(16)),
                SimConfig::batched(spec.clone(), MAX_BATCH_N),
            );
            let report = simulate_sharded(&registry, &schedule, &cfg);
            assert!(report.totals.conserves(), "sharded run conserves requests");
            ShardRow {
                shards,
                completed: report.totals.completed,
                forwarded: report.forwarded,
                breaker_rejects: report.totals.breaker_rejects,
                shed_expired: report.totals.shed_expired,
                failed: report.totals.failed,
                promotions: report.promotions,
                demotions: report.demotions,
                p50_latency_cycles: report.latency_cycles.percentile(50.0),
                p95_latency_cycles: report.latency_cycles.percentile(95.0),
                p99_latency_cycles: report.latency_cycles.percentile(99.0),
                makespan_cycles: report.makespan_cycles,
                requests_per_gcycle: report.requests_per_gcycle(),
                per_shard_submitted: report.lanes.iter().map(|l| l.metrics.submitted).collect(),
                per_shard_completed: report.lanes.iter().map(|l| l.metrics.completed).collect(),
                per_shard_p99_latency_cycles: report
                    .lanes
                    .iter()
                    .map(|l| l.metrics.latency_cycles.percentile(99.0))
                    .collect(),
            }
        })
        .collect()
}

/// Mean inter-arrival gaps of the load sweep, cycles: from a mostly
/// idle device to well past one shard's saturation (≈250 cycles).
const LOAD_GAPS: [f64; 9] = [
    8_000.0, 4_000.0, 2_000.0, 1_000.0, 500.0, 250.0, 125.0, 60.0, 30.0,
];
/// Requests per load-sweep row.
const LOAD_REQUESTS: usize = 2_000;

/// Runs the policy workload at each offered load on one warm shard.
/// Every row replays the same arrival seed, so rows differ only in
/// load. Suite-size independent and bit-deterministic.
pub fn run_load_sweep(spec: &GpuSpec) -> Vec<LoadRow> {
    let registry = policy_registry(true);
    let cfg = ShardSimConfig::new(
        ShardConfig::new(1),
        SimConfig::batched(spec.clone(), MAX_BATCH_N),
    );
    LOAD_GAPS
        .iter()
        .map(|&gap| {
            let schedule = policy_schedule_at(LOAD_REQUESTS, gap);
            let report = simulate_sharded(&registry, &schedule, &cfg);
            let m = &report.totals;
            assert!(m.conserves(), "load sweep conserves requests");
            LoadRow {
                mean_gap_cycles: gap,
                completed: m.completed,
                batches: m.batches,
                avg_occupancy: m.avg_batch_occupancy(),
                requests_per_gcycle: report.requests_per_gcycle(),
                p50_latency_cycles: report.latency_cycles.percentile(50.0),
                p99_latency_cycles: report.latency_cycles.percentile(99.0),
            }
        })
        .collect()
}

/// Straggler service-time multiplier in the hedge sweep.
const STRAGGLER_FACTOR: f64 = 10.0;
/// Shard degraded into the straggler.
const STRAGGLER_SHARD: usize = 0;
/// Shards in the hedge sweep's ring.
const HEDGE_SHARDS: usize = 4;

/// Runs the straggler workload twice on the same ring — tail
/// tolerance off, then on — and reports both as [`HedgeRow`]s with
/// the work amplification normalized to the unhedged run.
pub fn run_hedge_sweep(spec: &GpuSpec) -> Vec<HedgeRow> {
    let zoo = scaled_zoo(8, 33);
    let registry = ModelRegistry::new(RegistryConfig {
        budget_bytes: 1 << 30,
        ..RegistryConfig::default()
    })
    .expect("no artifact dir");
    for m in &zoo {
        registry.register(&m.name, m.weights(), m.config);
    }
    registry.warm_all().expect("zoo models plan");
    let schedule: Vec<SimRequest> = generate_zipf_schedule(
        &zoo,
        &ZipfLoadSpec {
            requests: 1_200,
            seed: 47,
            mean_gap_cycles: 300.0,
            ..ZipfLoadSpec::default()
        },
    )
    .into_iter()
    .map(|z| z.req)
    .collect();
    let hedge = HedgeConfig::cycles();
    let budget_fraction = hedge.budget_fraction;
    let cfg = |tolerant: bool| {
        let shard = ShardConfig::new(HEDGE_SHARDS)
            .with_replication(ReplicationConfig::cycles(32, 2, 500_000.0))
            .with_forwarding(ForwardConfig::threshold(8));
        let cfg = ShardSimConfig::new(shard, SimConfig::batched(spec.clone(), 128))
            .with_straggler(STRAGGLER_SHARD, STRAGGLER_FACTOR);
        if tolerant {
            cfg.with_health(HealthConfig::cycles()).with_hedge(hedge)
        } else {
            cfg
        }
    };
    let unhedged = simulate_sharded(&registry, &schedule, &cfg(false));
    let hedged = simulate_sharded(&registry, &schedule, &cfg(true));
    assert!(unhedged.totals.conserves(), "unhedged run conserves");
    assert!(hedged.totals.conserves(), "hedged run conserves");
    let busy =
        |r: &jigsaw_serve::ShardSimReport| r.lanes.iter().map(|l| l.busy_cycles).sum::<f64>();
    let base_busy = busy(&unhedged);
    let row = |policy: &str, r: &jigsaw_serve::ShardSimReport| HedgeRow {
        policy: policy.to_string(),
        shards: HEDGE_SHARDS,
        straggler_shard: STRAGGLER_SHARD,
        straggler_factor: STRAGGLER_FACTOR,
        completed: r.totals.completed,
        hedges: r.hedges,
        hedge_wins: r.hedge_wins,
        hedge_cancels: r.hedge_cancels,
        health_ejections: r.health_ejections,
        p50_latency_cycles: r.latency_cycles.percentile(50.0),
        p95_latency_cycles: r.latency_cycles.percentile(95.0),
        p99_latency_cycles: r.latency_cycles.percentile(99.0),
        busy_cycles: busy(r),
        work_amplification: busy(r) / base_busy,
        budget_fraction,
    };
    vec![row("unhedged", &unhedged), row("hedged", &hedged)]
}

/// Reduction dimension of the fusion sweep's parts — deep enough that
/// assembly moves real bytes (`k × total_n` F16 reads per batch).
const FUSION_K: usize = 2048;
/// Columns per request in the fusion sweep (a typical skinny RHS).
const FUSION_N_PER_PART: usize = 8;

fn time_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Times fused vs two-touch batch assembly at each batch size. The
/// fused emit (`assemble_panels`) converts each part's F16 columns
/// directly into panel-major f32 scratch; the two-touch oracle copies
/// once into a concatenated `Matrix` and again through phase-1
/// panelization. Bit-exactness is asserted before anything is timed.
/// The two paths are measured **interleaved** (fused, unfused, fused,
/// …) with best-of-`reps` each, so a transient stall — a page fault,
/// a scheduler hiccup — cannot land on one side only and
/// flip the ratio at these ~100 µs scales.
fn run_fusion_sweep(batch_sizes: &[usize], reps: usize) -> Vec<FusionRow> {
    batch_sizes
        .iter()
        .map(|&batch| {
            let parts: Vec<Matrix> = (0..batch)
                .map(|i| {
                    dense_rhs(
                        FUSION_K,
                        FUSION_N_PER_PART,
                        ValueDist::Uniform,
                        0xF00D + i as u64,
                    )
                })
                .collect();
            let refs: Vec<&Matrix> = parts.iter().collect();
            let total_n = batch * FUSION_N_PER_PART;
            let mut fused = vec![0.0f32; FUSION_K * total_n];
            let mut oracle = vec![0.0f32; FUSION_K * total_n];
            assemble_panels(&refs, &mut fused).expect("fused emit");
            let cat = concat_columns(&refs).expect("oracle concat");
            panelize_into(&cat, &mut oracle).expect("oracle panelize");
            assert_eq!(fused, oracle, "fused emit is bit-exact at batch {batch}");
            let mut fused_assemble_ns = f64::INFINITY;
            let mut unfused_assemble_ns = f64::INFINITY;
            for _ in 0..reps {
                fused_assemble_ns = fused_assemble_ns.min(time_ns(|| {
                    assemble_panels(&refs, &mut fused).expect("fused emit");
                }));
                unfused_assemble_ns = unfused_assemble_ns.min(time_ns(|| {
                    let cat = concat_columns(&refs).expect("oracle concat");
                    panelize_into(&cat, &mut oracle).expect("oracle panelize");
                }));
            }
            FusionRow {
                batch,
                k: FUSION_K,
                n_per_part: FUSION_N_PER_PART,
                total_n,
                fused_assemble_ns,
                unfused_assemble_ns,
                speedup: unfused_assemble_ns / fused_assemble_ns,
            }
        })
        .collect()
}

/// Runs all four policies over one seeded workload, then the sharded
/// zipf sweep over the same device spec.
pub fn run(spec: &GpuSpec, requests: usize, sweep: &ShardSweepSpec) -> Serving {
    let schedule = policy_schedule(requests);
    let rows = vec![
        run_policy("batched+warm", true, true, &schedule, spec),
        run_policy("batched+cold", true, false, &schedule, spec),
        run_policy("unbatched+warm", false, true, &schedule, spec),
        run_policy("unbatched+cold", false, false, &schedule, spec),
    ];
    let shard_rows = run_shard_sweep(spec, sweep);
    let fusion_rows = run_fusion_sweep(&[1, 2, 4, 8, 16], 25);
    let hedge_rows = run_hedge_sweep(spec);
    let load_rows = run_load_sweep(spec);
    Serving {
        requests,
        seed: POLICY_SEED,
        rows,
        shard_requests: sweep.requests,
        users: sweep.users,
        zipf_seed: sweep.seed,
        shard_rows,
        fusion_rows,
        hedge_rows,
        load_rows,
    }
}

impl Serving {
    /// Throughput of a policy.
    pub fn throughput(&self, policy: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.policy == policy)
            .map(|r| r.requests_per_gcycle)
    }

    /// Renders the table.
    pub fn to_text(&self) -> String {
        let header: Vec<String> = [
            "policy",
            "req/Gcycle",
            "batches",
            "occupancy",
            "p50 lat",
            "p99 lat",
            "cache hit/miss",
            "failed/shed",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    format!("{:.1}", r.requests_per_gcycle),
                    r.batches.to_string(),
                    format!("{:.2}", r.avg_occupancy),
                    format!("{:.0}", r.p50_latency_cycles),
                    format!("{:.0}", r.p99_latency_cycles),
                    format!("{}/{}", r.cache_hits, r.cache_misses),
                    format!("{}/{}", r.failed, r.shed_expired),
                ]
            })
            .collect();
        let shard_header: Vec<String> = [
            "shards",
            "completed",
            "p50 lat",
            "p99 lat",
            "fwd",
            "brk/shed/failed",
            "req/Gcycle",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let shard_rows: Vec<Vec<String>> = self
            .shard_rows
            .iter()
            .map(|r| {
                vec![
                    r.shards.to_string(),
                    r.completed.to_string(),
                    format!("{:.0}", r.p50_latency_cycles),
                    format!("{:.0}", r.p99_latency_cycles),
                    r.forwarded.to_string(),
                    format!("{}/{}/{}", r.breaker_rejects, r.shed_expired, r.failed),
                    format!("{:.1}", r.requests_per_gcycle),
                ]
            })
            .collect();
        let fusion_header: Vec<String> =
            ["batch", "total N", "fused µs", "two-touch µs", "speedup"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let fusion_rows: Vec<Vec<String>> = self
            .fusion_rows
            .iter()
            .map(|r| {
                vec![
                    r.batch.to_string(),
                    r.total_n.to_string(),
                    format!("{:.1}", r.fused_assemble_ns / 1e3),
                    format!("{:.1}", r.unfused_assemble_ns / 1e3),
                    format!("{:.2}x", r.speedup),
                ]
            })
            .collect();
        let hedge_header: Vec<String> = [
            "policy",
            "p50 lat",
            "p95 lat",
            "p99 lat",
            "hedges (wins/cancels)",
            "ejections",
            "work amp",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let hedge_rows: Vec<Vec<String>> = self
            .hedge_rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    format!("{:.0}", r.p50_latency_cycles),
                    format!("{:.0}", r.p95_latency_cycles),
                    format!("{:.0}", r.p99_latency_cycles),
                    format!("{} ({}/{})", r.hedges, r.hedge_wins, r.hedge_cancels),
                    r.health_ejections.to_string(),
                    format!("{:.3}x", r.work_amplification),
                ]
            })
            .collect();
        let load_header: Vec<String> = [
            "mean gap",
            "completed",
            "batches",
            "occupancy",
            "req/Gcycle",
            "p50 lat",
            "p99 lat",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let load_rows: Vec<Vec<String>> = self
            .load_rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.mean_gap_cycles),
                    r.completed.to_string(),
                    r.batches.to_string(),
                    format!("{:.2}", r.avg_occupancy),
                    format!("{:.1}", r.requests_per_gcycle),
                    format!("{:.0}", r.p50_latency_cycles),
                    format!("{:.0}", r.p99_latency_cycles),
                ]
            })
            .collect();
        format!(
            "Serving — {} requests, seed {:#x}; work-conserving batching,\n\
             max batch {} columns (virtual-clock scheduler, A100 spec)\n{}\n\
             Sharded — {} zipf requests from {} users, seed {:#x};\n\
             consistent-hash ring, hot-model replication, forwarding\n{}\n\
             Fused assembly — panel-major emit vs concat+panelize,\n\
             k={}, {} columns/part (host-timed, bit-exact asserted)\n{}\n\
             Tail tolerance — {} shards, shard {} a {:.0}× straggler;\n\
             hedge past rolling p95, retry budget {:.0}% (DESIGN.md §17)\n{}\n\
             Offered load — {} requests per row on one warm shard,\n\
             policy workload from idle past saturation\n{}",
            self.requests,
            self.seed,
            MAX_BATCH_N,
            render_table(&header, &rows),
            self.shard_requests,
            self.users,
            self.zipf_seed,
            render_table(&shard_header, &shard_rows),
            FUSION_K,
            FUSION_N_PER_PART,
            render_table(&fusion_header, &fusion_rows),
            HEDGE_SHARDS,
            STRAGGLER_SHARD,
            STRAGGLER_FACTOR,
            self.hedge_rows
                .first()
                .map(|r| r.budget_fraction * 100.0)
                .unwrap_or(0.0),
            render_table(&hedge_header, &hedge_rows),
            LOAD_REQUESTS,
            render_table(&load_header, &load_rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep shape small enough for debug-mode CI: 8 models, two
    /// shard counts, a load that still queues on one shard.
    fn tiny_sweep() -> ShardSweepSpec {
        ShardSweepSpec {
            requests: 600,
            models: 8,
            users: 10_000,
            seed: 0x51AB,
            shard_counts: vec![1, 4],
            mean_gap_cycles: 300.0,
        }
    }

    #[test]
    fn batched_warm_beats_unbatched_cold() {
        let result = run(&GpuSpec::a100(), 48, &tiny_sweep());
        assert_eq!(result.rows.len(), 4);
        for r in &result.rows {
            assert_eq!(r.completed, 48, "{} completed all", r.policy);
            assert!(r.requests_per_gcycle > 0.0);
            assert_eq!(r.failed, 0, "{} healthy run has no failures", r.policy);
            assert_eq!(r.shed_expired, 0);
            assert_eq!(r.queue_depth, 0, "queues drained");
            assert_eq!(r.breakers_open, 0);
        }
        let best = result.throughput("batched+warm").unwrap();
        let worst = result.throughput("unbatched+cold").unwrap();
        assert!(
            best > worst,
            "batched+warm ({best:.1}) must beat unbatched+cold ({worst:.1})"
        );
        // Batching is the dominant axis: warm-vs-cold only shifts the
        // one-time planning charge.
        let batched_cold = result.throughput("batched+cold").unwrap();
        let unbatched_warm = result.throughput("unbatched+warm").unwrap();
        assert!(best >= batched_cold);
        assert!(unbatched_warm > worst);
        let warm_row = result
            .rows
            .iter()
            .find(|r| r.policy == "batched+warm")
            .unwrap();
        assert_eq!(warm_row.cache_misses, 4, "only the warm-up plans");
        assert!(warm_row.cache_hits >= warm_row.batches);
        assert!(warm_row.avg_occupancy > 1.0, "requests were coalesced");
        let text = result.to_text();
        assert!(text.contains("batched+warm") && text.contains("req/Gcycle"));
        assert!(text.contains("Sharded") && text.contains("fwd"));
        assert!(text.contains("Fused assembly") && text.contains("two-touch µs"));
        assert!(text.contains("Tail tolerance") && text.contains("work amp"));
        assert!(text.contains("Offered load") && text.contains("mean gap"));
        assert_eq!(result.load_rows.len(), LOAD_GAPS.len());
        for r in &result.load_rows {
            assert_eq!(
                r.completed, LOAD_REQUESTS as u64,
                "gap {}",
                r.mean_gap_cycles
            );
        }
    }

    /// The fusion sweep covers every requested batch size, its widths
    /// fold up, and both paths stay bit-exact (asserted inside the
    /// sweep itself — reaching the rows at all proves it held).
    #[test]
    fn fusion_sweep_rows_are_well_formed() {
        let rows = run_fusion_sweep(&[1, 4, 16], 3);
        assert_eq!(rows.len(), 3);
        for (row, &batch) in rows.iter().zip(&[1usize, 4, 16]) {
            assert_eq!(row.batch, batch);
            assert_eq!(row.total_n, batch * row.n_per_part);
            assert!(row.fused_assemble_ns > 0.0);
            assert!(row.unfused_assemble_ns > 0.0);
            assert!(row.speedup > 0.0);
        }
    }

    /// The hedge sweep's two rows carry the §17 acceptance shape:
    /// hedged p99 at or below the unhedged p99, work amplification
    /// within the retry budget, and the tolerance machinery visibly
    /// engaged against the straggler.
    #[test]
    fn hedge_sweep_bounds_tail_within_budget() {
        let rows = run_hedge_sweep(&GpuSpec::a100());
        assert_eq!(rows.len(), 2);
        let (unhedged, hedged) = (&rows[0], &rows[1]);
        assert_eq!(unhedged.policy, "unhedged");
        assert_eq!(hedged.policy, "hedged");
        assert_eq!(unhedged.completed, hedged.completed, "same offered load");
        assert_eq!(unhedged.hedges, 0);
        assert_eq!(unhedged.work_amplification, 1.0);
        assert!(
            hedged.hedges > 0 || hedged.health_ejections > 0,
            "tail tolerance engaged"
        );
        assert!(
            hedged.p99_latency_cycles <= 0.5 * unhedged.p99_latency_cycles,
            "hedged p99 {:.0} vs unhedged {:.0}",
            hedged.p99_latency_cycles,
            unhedged.p99_latency_cycles
        );
        assert!(
            hedged.work_amplification <= 1.0 + hedged.budget_fraction,
            "work amplification {:.3} over budget",
            hedged.work_amplification
        );
    }

    #[test]
    fn shard_sweep_scales_tail_latency() {
        let result = run(&GpuSpec::a100(), 16, &tiny_sweep());
        assert_eq!(result.shard_rows.len(), 2);
        let one = &result.shard_rows[0];
        let four = &result.shard_rows[1];
        assert_eq!(one.shards, 1);
        assert_eq!(four.shards, 4);
        for row in &result.shard_rows {
            assert_eq!(row.completed, 600, "no drops at this load");
            assert_eq!(row.per_shard_submitted.len(), row.shards);
            assert_eq!(
                row.per_shard_completed.iter().sum::<u64>(),
                row.completed,
                "lane counts fold to the total"
            );
        }
        assert!(
            four.p99_latency_cycles < one.p99_latency_cycles,
            "4-shard p99 {} must beat 1-shard p99 {} at the same offered load",
            four.p99_latency_cycles,
            one.p99_latency_cycles
        );
        assert!(four.promotions > 0, "zipf head went hot");
    }
}
