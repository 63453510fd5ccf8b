//! Shard placement (DESIGN.md §14, §17): the one rule that picks the
//! shard of every request and forward, for both the threaded
//! [`crate::shard::router::ShardRouter`] and the virtual-clock
//! [`crate::shard::sim::simulate_sharded`]. What differs between the
//! two comes in as arguments: the clock value `now`, which shards are
//! live, and each shard's queue depth. The tail policies (health
//! ejection, and the hedge window, budget and target) run in the
//! simulator only: the router builds its placement with both off.

use std::collections::BTreeMap;

use crate::metrics::count;
use crate::shard::forward::{least_loaded, should_forward, ForwardConfig};
use crate::shard::health::{fleet_baseline, HealthConfig, HealthState, ShardHealth};
use crate::shard::hedge::{HedgeConfig, HedgePolicy};
use crate::shard::replicate::{HotEvent, HotTracker, ReplicationConfig};
use crate::shard::ring::HashRing;
use crate::shard::ShardConfig;

/// One arrival's placement, as [`Placement::route`] decided it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Route {
    /// The round-robin pick among `candidates`.
    pub target: usize,
    /// A less-loaded candidate, when [`should_forward`] holds.
    pub forward: Option<usize>,
    /// The shards the request may run on, in failover order.
    pub candidates: Vec<usize>,
    /// What the arrival did to the model's popularity.
    pub event: HotEvent,
}

/// All placement state of one sharded deployment. Not internally
/// synchronized: the router keeps it behind one lock.
#[derive(Debug)]
pub(crate) struct Placement {
    ring: HashRing,
    hot: HotTracker,
    /// Per-model round-robin cursor over the model's candidates.
    cursors: BTreeMap<String, usize>,
    /// One health scorer per shard, on the caller's clock.
    health: Vec<ShardHealth>,
    health_enabled: bool,
    /// The hedge window and retry budget.
    pub hedge: HedgePolicy,
    forwarding: ForwardConfig,
}

impl Placement {
    /// Fresh state: every shard admitted, no model hot. The replica
    /// count is clamped to the shard count; a clamped count below 2
    /// has nowhere to put a replica, so it turns replication off.
    pub fn new(cfg: &ShardConfig, health: HealthConfig, hedge: HedgeConfig) -> Placement {
        let mut replication = cfg.replication.clone();
        replication.replicas = replication.replicas.min(cfg.shards);
        if replication.replicas < 2 {
            replication = ReplicationConfig::disabled();
        }
        Placement {
            ring: HashRing::new(cfg.shards, cfg.vnodes),
            hot: HotTracker::new(replication),
            cursors: BTreeMap::new(),
            health: (0..cfg.shards).map(|_| ShardHealth::new(health)).collect(),
            health_enabled: health.enabled,
            hedge: HedgePolicy::new(hedge),
            forwarding: cfg.forwarding,
        }
    }

    /// The home shard the ring assigns to `model`.
    pub fn home(&self, model: &str) -> usize {
        self.ring.shard_for(model)
    }

    /// Whether `model` currently holds replicas.
    pub fn is_hot(&self, model: &str) -> bool {
        self.hot.is_hot(model)
    }

    /// The shards `model` may be served from: its ring replica set
    /// while hot, else its home shard alone. Home shard first.
    pub fn replica_set(&self, model: &str) -> Vec<usize> {
        if self.is_hot(model) {
            self.ring.replica_set(model, self.hot.config().replicas)
        } else {
            vec![self.home(model)]
        }
    }

    /// Lifetime `(promotions, demotions)` of the popularity tracker.
    pub fn stats(&self) -> (u64, u64) {
        self.hot.stats()
    }

    /// Places one arrival: records it on the popularity tracker, keeps
    /// the live replicas (`None` if there are none) and drops ejected
    /// ones. If every live replica is ejected it falls back to every
    /// live non-ejected shard (each shard's registry holds every model;
    /// counted on `health.reroutes`), and if the whole fleet is ejected
    /// it ignores health rather than strand traffic. The model's cursor
    /// then picks the round-robin target.
    pub fn route(
        &mut self,
        model: &str,
        now: f64,
        is_live: impl Fn(usize) -> bool,
        depth: impl Fn(usize) -> usize,
    ) -> Option<Route> {
        let event = self.hot.record(model, now);
        match event {
            HotEvent::Promoted => count("shard.promotions"),
            HotEvent::Demoted => count("shard.demotions"),
            HotEvent::None => {}
        }
        let mut live = self.replica_set(model);
        live.retain(|&s| is_live(s));
        if live.is_empty() {
            return None;
        }
        let admitted = |s: &usize| self.admitted(*s, now);
        let mut candidates: Vec<usize> = live.iter().copied().filter(admitted).collect();
        if candidates.is_empty() {
            let fleet = (0..self.health.len()).filter(|&s| is_live(s) && admitted(&s));
            candidates = fleet.collect();
            if candidates.is_empty() {
                candidates = live;
            } else {
                count("health.reroutes");
            }
        }
        let cursor = self.cursors.entry(model.to_string()).or_insert(0);
        *cursor = cursor.wrapping_add(1);
        let target = candidates[*cursor % candidates.len()];
        let forward = if candidates.len() > 1 {
            let target_depth = depth(target);
            least_loaded(&candidates, &depth).filter(|&best| {
                best != target && should_forward(&self.forwarding, target_depth, depth(best))
            })
        } else {
            None
        };
        Some(Route {
            target,
            forward,
            candidates,
            event,
        })
    }

    /// Where a hedged duplicate goes: the least-loaded live, non-ejected
    /// shard other than `primary`, from the replica set while the model
    /// is hot (warm plans), else from the whole fleet.
    pub fn hedge_target(
        &self,
        model: &str,
        primary: usize,
        now: f64,
        is_live: impl Fn(usize) -> bool,
        depth: impl Fn(usize) -> usize,
    ) -> Option<usize> {
        let pick = |mut pool: Vec<usize>| {
            pool.retain(|&s| s != primary && is_live(s) && self.admitted(s, now));
            least_loaded(&pool, &depth)
        };
        let preferred = self.is_hot(model).then(|| self.replica_set(model));
        pick(preferred.unwrap_or_default()).or_else(|| pick((0..self.health.len()).collect()))
    }

    /// Hands `shard` one request; a probing shard's probe slot is spent.
    pub fn admit(&mut self, shard: usize, now: f64) {
        self.health[shard].admit(now);
    }

    /// Feeds one outcome (`Some(latency)` or a failure) to the shard's
    /// health scorer and the hedge window; 1 if it ejected the shard.
    pub fn record(&mut self, shard: usize, now: f64, outcome: Option<f64>) -> u64 {
        if let Some(latency) = outcome {
            self.hedge.record(latency);
        }
        self.health[shard].record(now, outcome)
    }

    /// Tells every scorer the fleet baseline ([`fleet_baseline`]). A
    /// no-op with health scoring off.
    pub fn refresh_baseline(&mut self) {
        if !self.health_enabled {
            return;
        }
        let ewmas: Vec<f64> = self.health.iter().map(|h| h.ewma_latency()).collect();
        let baseline = fleet_baseline(&ewmas);
        for h in &mut self.health {
            h.observe_baseline(baseline);
        }
    }

    fn admitted(&self, shard: usize, now: f64) -> bool {
        self.health[shard].state(now) != HealthState::Ejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 shards; a model goes hot on its 2nd request and then spans 2
    /// shards; forwarding past 4 queued; health ejects after 2 samples
    /// (α = 1, so the EWMA is the last sample) and probes after 1000.
    fn placement() -> Placement {
        Placement::new(
            &ShardConfig::new(4)
                .with_replication(ReplicationConfig::cycles(2, 2, 1e12))
                .with_forwarding(ForwardConfig::threshold(4)),
            HealthConfig {
                enabled: true,
                alpha: 1.0,
                min_samples: 2,
                latency_factor: 3.0,
                failure_rate: 0.5,
                probe_window: 1_000.0,
            },
            HedgeConfig::disabled(),
        )
    }

    /// A model homed on `home`.
    fn homed_on(p: &Placement, home: usize) -> String {
        (0..)
            .map(|i| format!("model-{i}"))
            .find(|m| p.home(m) == home)
            .expect("some key homes on every shard")
    }

    /// A hot model homed on shard 0, and its second replica.
    fn hot_model(p: &mut Placement) -> (String, usize) {
        let model = homed_on(p, 0);
        let events: Vec<HotEvent> = (0..2)
            .map(|_| p.route(&model, 0.0, |_| true, |_| 0).expect("live").event)
            .collect();
        assert_eq!(events, [HotEvent::None, HotEvent::Promoted]);
        let set = p.replica_set(&model);
        assert_eq!(set.len(), 2, "promoted onto two shards");
        (model, set[1])
    }

    /// Ejects `shard` for the probe window: two completions at 100×
    /// its baseline.
    fn eject(p: &mut Placement, shard: usize) {
        p.health[shard].observe_baseline(10.0);
        p.record(shard, 0.0, Some(1_000.0));
        assert_eq!(p.record(shard, 0.0, Some(1_000.0)), 1, "ejected");
    }

    #[test]
    fn ejected_replica_is_never_the_target() {
        let mut p = placement();
        let (model, replica) = hot_model(&mut p);
        eject(&mut p, replica);
        for t in 1..9 {
            let r = p.route(&model, t as f64, |_| true, |_| 0).expect("live");
            assert_eq!(r.candidates, vec![0]);
            assert_eq!(r.target, 0, "the healthy replica takes every arrival");
        }
    }

    #[test]
    fn all_replicas_ejected_falls_back_to_the_fleet() {
        jigsaw_obs::set_enabled(true);
        let reroutes = || jigsaw_obs::global().counter("health.reroutes").get();
        let mut p = placement();
        let (model, replica) = hot_model(&mut p);
        eject(&mut p, 0);
        eject(&mut p, replica);
        let before = reroutes();
        let r = p.route(&model, 1.0, |_| true, |_| 0).expect("live");
        let fleet: Vec<usize> = (0..4).filter(|&s| s != 0 && s != replica).collect();
        assert_eq!(r.candidates, fleet, "every live non-ejected shard");
        assert!(fleet.contains(&r.target));
        // Other tests may count reroutes concurrently: at least ours.
        assert!(reroutes() > before, "the reroute was counted");
    }

    #[test]
    fn whole_fleet_ejected_uses_the_live_replicas() {
        let mut p = placement();
        let (model, replica) = hot_model(&mut p);
        for s in 0..4 {
            // A failure storm ejects without any baseline.
            p.record(s, 0.0, None);
            assert_eq!(p.record(s, 0.0, None), 1, "shard {s} ejected");
        }
        let r = p.route(&model, 1.0, |_| true, |_| 0).expect("live");
        assert_eq!(r.candidates, vec![0, replica], "health ignored");
        let r = p.route(&model, 1.0, |s| s != replica, |_| 0).expect("live");
        assert_eq!(r.candidates, vec![0], "dead replica still excluded");
    }

    #[test]
    fn dead_shards_are_never_returned() {
        let mut p = placement();
        let (model, replica) = hot_model(&mut p);
        let live = |s: usize| s != 0;
        for t in 0..4 {
            let r = p
                .route(&model, t as f64, live, |s| 10 * usize::from(s == replica))
                .expect("the replica is live");
            assert_eq!((r.target, r.forward), (replica, None));
            let h = p.hedge_target(&model, replica, t as f64, live, |_| 0);
            assert!(h.is_some_and(|h| h != 0 && h != replica), "hedge {h:?}");
        }
        let none_live = |s: usize| s != 0 && s != replica;
        assert_eq!(p.route(&model, 5.0, none_live, |_| 0), None);
        let cold = homed_on(&p, 2);
        assert_eq!(p.route(&cold, 5.0, |s| s != 2, |_| 0), None);
    }

    #[test]
    fn forwards_only_when_should_forward_holds() {
        let mut p = placement();
        let (model, replica) = hot_model(&mut p);
        // (home depth, replica depth) around the threshold of 4.
        for (home, rep) in [(3, 0), (4, 0), (4, 4), (9, 8), (0, 5)] {
            let depth = |s: usize| if s == 0 { home } else { rep };
            // The cursor alternates, so both shards get to be target.
            for _ in 0..2 {
                let r = p.route(&model, 1.0, |_| true, depth).expect("live");
                let other = if r.target == 0 { replica } else { 0 };
                let (td, od) = (depth(r.target), depth(other));
                let want = (td >= 4 && od < td).then_some(other);
                assert_eq!(r.forward, want, "depths {home}/{rep}, target {}", r.target);
            }
        }
        let mut off = Placement::new(
            &ShardConfig::new(4).with_replication(ReplicationConfig::cycles(2, 2, 1e12)),
            HealthConfig::disabled(),
            HedgeConfig::disabled(),
        );
        let (model, _) = hot_model(&mut off);
        for _ in 0..2 {
            let r = off.route(&model, 1.0, |_| true, |s| 100 * usize::from(s == 0));
            assert_eq!(r.expect("live").forward, None, "forwarding off");
        }
    }

    #[test]
    fn a_replica_count_below_two_never_promotes() {
        // One shard has nowhere to put a replica, and `replicas: 1`
        // asks for none: both clamp below 2, so no model ever goes hot.
        for (shards, replicas) in [(1, 2), (4, 1)] {
            let mut p = Placement::new(
                &ShardConfig::new(shards)
                    .with_replication(ReplicationConfig::cycles(2, replicas, 1e12)),
                HealthConfig::disabled(),
                HedgeConfig::disabled(),
            );
            let model = homed_on(&p, 0);
            for t in 0..8 {
                let r = p.route(&model, t as f64, |_| true, |_| 0).expect("live");
                assert_eq!(
                    r.event,
                    HotEvent::None,
                    "{shards} shards, {replicas} replicas"
                );
            }
            assert_eq!(p.replica_set(&model), vec![0]);
            assert_eq!(p.stats(), (0, 0));
        }
    }

    #[test]
    fn cold_model_hedges_to_the_least_loaded_healthy_fleet_shard() {
        let mut p = placement();
        let cold = homed_on(&p, 1);
        eject(&mut p, 3);
        let depth = |s: usize| [1, 9, 5, 0][s];
        // A primary off the home shard hedges across the fleet, not
        // back to `[home]`; the idle shard 3 is ejected.
        assert_eq!(p.hedge_target(&cold, 0, 1.0, |_| true, depth), Some(2));
        assert_eq!(p.hedge_target(&cold, 1, 1.0, |_| true, depth), Some(0));
    }
}
