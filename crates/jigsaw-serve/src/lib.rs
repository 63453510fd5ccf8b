//! # jigsaw-serve — a batching, cache-backed SpMM inference service
//!
//! The serving layer the paper's amortization argument implies (§3.1:
//! the reorder is one-time preprocessing amortized over inferences) but
//! never builds: a multi-tenant front-end over `jigsaw-core` where
//!
//! 1. a **model registry** ([`registry`]) plans each weight matrix
//!    once, caches the plan under an LRU byte budget, and persists the
//!    serialized artifact so cold starts disk-load instead of
//!    re-running the reorder,
//! 2. an **admission + micro-batching** layer ([`server`], [`batch`])
//!    bounds per-model queues (rejections are typed values, not
//!    panics) and coalesces concurrent requests along N — exact,
//!    because SpMM output columns are independent, and nearly free,
//!    because simulated cost is sublinear in N (paper Fig 10),
//! 3. a **worker pool** ([`server`]) executes one simulated kernel per
//!    batch, charging each request its proportional cycle share, and
//! 4. a **metrics** layer ([`metrics`]) reports throughput, batch
//!    occupancy, cache hit rates, and p50/p95/p99 latency in the same
//!    text style as `gpu_sim`'s kernel reports.
//!
//! A deterministic virtual-clock twin of the policy
//! ([`shard::simulate_sharded`], whose one-shard case is a single
//! device; [`sim`] holds its per-device policy and per-request records)
//! plus a seeded load generator ([`loadgen`], [`zoo`]) make serving
//! experiments reproducible end to end.
//!
//! Above the single-server stack, the [`shard`] subsystem scales out:
//! a consistent-hash [`shard::ShardRouter`] spreads model ids over N
//! independent server shards (each with its own registry LRU, worker
//! pool, and breakers), replicates hot models onto ring neighbors,
//! forwards arrivals off overloaded shards, and isolates shard
//! failures behind typed errors (DESIGN.md §14); a killed shard can be
//! revived. A tail-tolerance layer (DESIGN.md §17) adds per-shard
//! health scoring with outlier ejection and hedged requests under a
//! token-bucket retry budget to the simulator, so gray failures (one
//! slow shard) don't set the fleet's p99.

#![warn(missing_docs)]

pub mod batch;
pub mod breaker;
pub mod loadgen;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod shard;
pub mod sim;
pub mod zoo;

pub use batch::{
    assemble_panels, concat_columns, split_columns, AdmitError, BatchError, RequestStats,
    SpmmResponse,
};
pub use breaker::{BreakerAdmit, BreakerConfig, BreakerState, CircuitBreaker};
pub use loadgen::{
    generate_schedule, generate_zipf_schedule, rhs_for, run_closed_loop, LoadSpec, ZipfLoadSpec,
    ZipfRequest,
};
pub use metrics::{Histogram, ServeMetrics};
pub use registry::{
    CacheStats, ExecPlan, Fetch, ModelRegistry, PlannedModel, RegistryConfig, RegistryError,
};
pub use server::{ServeConfig, ServeError, Server, Ticket};
pub use shard::{
    simulate_sharded, ForwardConfig, HashRing, HealthConfig, HealthState, HedgeConfig, HedgePolicy,
    HotTracker, ReplicationConfig, RetryBudget, RouterMetrics, ShardConfig, ShardHealth, ShardLane,
    ShardRouter, ShardSimConfig, ShardSimReport,
};
pub use sim::{SimCompletion, SimConfig, SimFailure, SimRequest};
pub use zoo::{default_zoo, scaled_zoo, ZooModel};
