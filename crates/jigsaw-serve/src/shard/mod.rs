//! Sharded serving: a consistent-hash router in front of N independent
//! server shards, with hot-model replication and queue-depth forwarding.
//!
//! One [`crate::server::Server`] owns one registry, one worker pool,
//! and one queue — a single-shard ceiling. This module scales that
//! stack out (DESIGN.md §14):
//!
//! * [`ring`] — the consistent-hash ring placing model ids on shards;
//! * [`replicate`] — windowed popularity tracking that promotes hot
//!   models onto their ring neighbors and demotes them on cooldown;
//! * [`forward`] — the queue-depth policy that forwards arrivals to
//!   the least-loaded replica, the only rule that moves load;
//! * [`health`] — per-shard EWMA health scoring with outlier ejection
//!   and probed re-admission, for gray failures a breaker can't see;
//! * [`hedge`] — hedged requests past a p95-derived delay, bounded by
//!   a token-bucket retry budget (DESIGN.md §17);
//! * `place` — the one placement rule over those policies, which both
//!   the router and the simulator call;
//! * [`router`] — the threaded [`router::ShardRouter`] wrapping N full
//!   server stacks (own registry LRU, workers, breakers, deadlines,
//!   degrade ladder) with failure isolation across shards: it routes,
//!   forwards, fails over, kills and revives;
//! * [`sim`] — the deterministic multi-shard virtual-clock simulator
//!   behind `results/BENCH_serving.json`, and the only runtime of the
//!   tail policies: health ejection and hedging are
//!   [`sim::ShardSimConfig`] fields.
//!
//! The failure-isolation contract: a shard-local failure (worker
//! panic, open breaker, or the whole shard killed) never crosses a
//! shard boundary. Requests for models replicated elsewhere fail over;
//! requests with no live replica fail with a typed
//! [`crate::batch::AdmitError::ShardUnavailable`], never a hang.

pub mod forward;
pub mod health;
pub mod hedge;
mod place;
pub mod replicate;
pub mod ring;
pub mod router;
pub mod sim;

pub use forward::{least_loaded, should_forward, ForwardConfig};
pub use health::{HealthConfig, HealthState, ShardHealth};
pub use hedge::{HedgeConfig, HedgePolicy, RetryBudget};
pub use replicate::{HotEvent, HotTracker, ReplicationConfig};
pub use ring::{fnv1a64, HashRing};
pub use router::{RouterMetrics, ShardRouter};
pub use sim::{simulate_sharded, ShardLane, ShardSimConfig, ShardSimReport};

/// Topology + placement policy for one sharded deployment, shared by
/// the threaded router and the simulator.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of shards.
    pub shards: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Hot-model replication policy.
    pub replication: ReplicationConfig,
    /// Forwarding policy.
    pub forwarding: ForwardConfig,
}

impl ShardConfig {
    /// `shards` shards with the module defaults: 64 vnodes, no
    /// replication, no forwarding (`queue_threshold` = `usize::MAX`).
    /// Policies opt in via the builders.
    pub fn new(shards: usize) -> ShardConfig {
        ShardConfig {
            shards: shards.max(1),
            vnodes: 64,
            replication: ReplicationConfig::disabled(),
            forwarding: ForwardConfig::disabled(),
        }
    }

    /// Enables hot-model replication with the given policy.
    pub fn with_replication(mut self, replication: ReplicationConfig) -> ShardConfig {
        self.replication = replication;
        self
    }

    /// Enables forwarding with the given policy.
    pub fn with_forwarding(mut self, forwarding: ForwardConfig) -> ShardConfig {
        self.forwarding = forwarding;
        self
    }
}
