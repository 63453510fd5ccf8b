//! The threaded shard router: N independent [`Server`] stacks behind
//! the placement rule it shares with the simulator (DESIGN.md §14),
//! with shard-down failover and a kill→revive shard lifecycle. Health
//! ejection and hedging run in the simulator only (DESIGN.md §17).
//!
//! Each shard owns a full server stack — its own registry LRU byte
//! budget, worker pool, per-model circuit breakers, deadlines, and
//! degrade ladder — so a shard-local failure never crosses a shard
//! boundary. The router only *routes*: its one piece of model state is
//! the placement state, behind one lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use dlmc::Matrix;
use jigsaw_core::fault;
use jigsaw_core::sync::lock_recover;
use jigsaw_core::JigsawConfig;

use crate::batch::AdmitError;
use crate::metrics::{count, ServeMetrics};
use crate::registry::{ModelRegistry, RegistryConfig};
use crate::server::{ServeConfig, Server, Ticket};
use crate::shard::place::Placement;
use crate::shard::{HealthConfig, HedgeConfig, ShardConfig};

/// Aggregated router metrics: per-shard server snapshots plus the
/// router's own routing counters.
#[derive(Clone, Debug)]
pub struct RouterMetrics {
    /// One [`Server::metrics`] snapshot per shard (dead shards report
    /// their final drained metrics).
    pub per_shard: Vec<ServeMetrics>,
    /// Requests redirected off their round-robin target to a
    /// less-loaded replica.
    pub forwarded: u64,
    /// Requests that fell over to another replica after their target
    /// shard refused admission (shutting down / killed).
    pub failovers: u64,
    /// Hot-model promotions the popularity tracker performed.
    pub promotions: u64,
    /// Hot-model demotions (cooldown at a window roll).
    pub demotions: u64,
    /// Requests rejected by an injected `shard.route` fault.
    pub route_faults: u64,
    /// Shards brought back by [`ShardRouter::revive_shard`].
    pub revived: u64,
}

impl RouterMetrics {
    /// Sum of breaker fast-rejects across shards.
    pub fn breaker_rejects(&self) -> u64 {
        self.per_shard.iter().map(|m| m.breaker_rejects).sum()
    }
}

struct Lane {
    /// `None` after [`ShardRouter::kill_shard`] — the shard is down.
    server: RwLock<Option<Server>>,
    registry: Arc<ModelRegistry>,
    /// Final metrics captured when the shard was killed.
    last_metrics: Mutex<ServeMetrics>,
}

/// The shard router. Create with [`ShardRouter::start`], register
/// models (they land on every shard's registry; residency follows
/// traffic), submit from any thread, and [`ShardRouter::shutdown`] to
/// drain.
pub struct ShardRouter {
    /// Kept so [`ShardRouter::revive_shard`] can restart a killed
    /// shard's server stack with the original serving policy.
    serve_cfg: ServeConfig,
    lanes: Vec<Lane>,
    /// Every placement decision, on the host-nanosecond clock, with
    /// health scoring and hedging off. Never held across a shard submit
    /// or the `shard.slow` sleep: a submit can block behind a shard's
    /// cold fetch, and holding this lock there would serialize the
    /// shards.
    placement: Mutex<Placement>,
    epoch: Instant,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    route_faults: AtomicU64,
    revived: AtomicU64,
}

impl ShardRouter {
    /// Spawns `config.shards` independent server stacks. Every shard
    /// gets its own registry built from `registry_cfg` (share an
    /// `artifact_dir` to let one shard's plan warm the others from
    /// disk) and its own worker pool from `serve_cfg`.
    pub fn start(
        config: ShardConfig,
        registry_cfg: RegistryConfig,
        serve_cfg: ServeConfig,
    ) -> ShardRouter {
        let lanes = (0..config.shards)
            .map(|_| {
                let registry = Arc::new(
                    ModelRegistry::new(registry_cfg.clone()).expect("registry artifact dir"),
                );
                Lane {
                    server: RwLock::new(Some(Server::start(registry.clone(), serve_cfg.clone()))),
                    registry,
                    last_metrics: Mutex::new(ServeMetrics::default()),
                }
            })
            .collect();
        ShardRouter {
            placement: Mutex::new(Placement::new(
                &config,
                HealthConfig::disabled(),
                HedgeConfig::disabled(),
            )),
            serve_cfg,
            lanes,
            epoch: Instant::now(),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            route_faults: AtomicU64::new(0),
            revived: AtomicU64::new(0),
        }
    }

    /// Registers a model on **every** shard's registry. Registration
    /// is metadata-only (planning is lazy), so the cost of N-way
    /// registration is one weights clone per shard; each shard's LRU
    /// only ever plans the models its traffic actually touches.
    pub fn register(&self, name: &str, weights: Matrix, config: JigsawConfig) {
        for lane in &self.lanes {
            lane.registry.register(name, weights.clone(), config);
        }
    }

    /// The home shard the ring assigns to `model`.
    pub fn home_shard(&self, model: &str) -> usize {
        lock_recover(&self.placement).home(model)
    }

    /// Whether `model` currently holds replicas.
    pub fn is_hot(&self, model: &str) -> bool {
        lock_recover(&self.placement).is_hot(model)
    }

    /// The shard ids `model` may be served from right now (home shard
    /// first; grows to the ring-neighbor replica set while hot).
    pub fn replica_set(&self, model: &str) -> Vec<usize> {
        lock_recover(&self.placement).replica_set(model)
    }

    /// Kills one shard: takes its server out of service and drains it
    /// (queued requests resolve with typed errors — no waiter hangs).
    /// Requests homed there fail over to live replicas; models with no
    /// replica reject with [`AdmitError::ShardUnavailable`]. Returns
    /// the shard's final metrics, or `None` if already down.
    pub fn kill_shard(&self, shard: usize) -> Option<ServeMetrics> {
        let server = lock_recover_write(&self.lanes[shard].server).take()?;
        let metrics = server.shutdown();
        *lock_recover(&self.lanes[shard].last_metrics) = metrics.clone();
        count("shard.killed");
        Some(metrics)
    }

    /// Revives a killed shard: restarts a fresh server stack on the
    /// shard's retained registry (plans persisted to the artifact dir
    /// rewarm from disk), routable immediately. The pre-kill metrics stay
    /// available through [`ShardRouter::metrics`] until the new stack's
    /// first snapshot replaces them. Idempotent: returns `false` if the
    /// shard is already live.
    pub fn revive_shard(&self, shard: usize) -> bool {
        {
            let mut guard = lock_recover_write(&self.lanes[shard].server);
            if guard.is_some() {
                return false;
            }
            *guard = Some(Server::start(
                self.lanes[shard].registry.clone(),
                self.serve_cfg.clone(),
            ));
        }
        self.revived.fetch_add(1, Ordering::Relaxed);
        count("shard.revived");
        true
    }

    /// Routes and submits one request: the shared placement rule
    /// (`Placement::route`, DESIGN.md §14) picks the target and any
    /// forward among the model's live replicas; a shard that refuses
    /// because it is down fails over to the next candidate.
    pub fn submit(&self, model: &str, b: Matrix) -> Result<Ticket, AdmitError> {
        self.submit_with_deadline(model, b, None)
    }

    /// [`ShardRouter::submit`] with a per-request dispatch deadline
    /// (bounds queue time on whichever shard admits the request).
    pub fn submit_with_deadline(
        &self,
        model: &str,
        b: Matrix,
        deadline: Option<Duration>,
    ) -> Result<Ticket, AdmitError> {
        let unavailable = || AdmitError::ShardUnavailable {
            model: model.to_string(),
            shard: self.home_shard(model),
        };
        // Injected routing fault: the router rejects before touching
        // any shard — typed, counted, isolated.
        if fault::armed() && fault::hit(fault::points::SHARD_ROUTE).is_err() {
            self.route_faults.fetch_add(1, Ordering::Relaxed);
            count("shard.route_faults");
            return Err(unavailable());
        }
        let route = lock_recover(&self.placement).route(
            model,
            self.epoch.elapsed().as_nanos() as f64,
            |s| self.is_live(s),
            |s| self.queue_depth(s),
        );
        let Some(route) = route else {
            return Err(unavailable());
        };
        let mut target = route.target;
        // An injected `shard.forward` fault degrades to the original
        // target — the request still runs, the redirect just doesn't
        // happen.
        if let Some(best) = route.forward {
            if fault::armed() && fault::hit(fault::points::SHARD_FORWARD).is_err() {
                count("shard.forward_faults");
            } else {
                target = best;
                self.forwarded.fetch_add(1, Ordering::Relaxed);
                count("shard.forwarded");
            }
        }

        // Injected straggler latency: a `shard.slow` fault stalls the
        // submit path (host sleep) and so the request's latency. The
        // simulator reads the same fault as a per-batch cycle stretch.
        if fault::armed() {
            if let Some(fired) = fault::fire(fault::points::SHARD_SLOW) {
                if let fault::FaultKind::Latency { ns } = fired.kind {
                    std::thread::sleep(Duration::from_nanos(ns));
                }
            }
        }

        // Submit, failing over across the remaining candidates if a
        // shard shut down between the liveness check and admission.
        let rest = route.candidates.into_iter().filter(|&s| s != target);
        for (attempt, shard) in std::iter::once(target).chain(rest).enumerate() {
            if attempt > 0 {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                count("shard.failovers");
            }
            let guard = lock_recover_read(&self.lanes[shard].server);
            let Some(server) = guard.as_ref() else {
                continue;
            };
            match server.submit_with_deadline(model, b.clone(), deadline) {
                Ok(ticket) => return Ok(ticket),
                // The shard died under us: try the next replica.
                Err(AdmitError::ShuttingDown) => continue,
                // Attribute the tripped breaker to its owning shard.
                Err(AdmitError::CircuitOpen {
                    model, retry_after, ..
                }) => {
                    return Err(AdmitError::CircuitOpen {
                        model,
                        retry_after,
                        shard: Some(shard),
                    })
                }
                Err(e) => return Err(e),
            }
        }
        Err(unavailable())
    }

    fn is_live(&self, shard: usize) -> bool {
        lock_recover_read(&self.lanes[shard].server).is_some()
    }

    /// `shard`'s queued requests; a dead shard reads as full.
    fn queue_depth(&self, shard: usize) -> usize {
        lock_recover_read(&self.lanes[shard].server)
            .as_ref()
            .map_or(usize::MAX, |srv| srv.queue_depth())
    }

    /// Snapshot of per-shard and router metrics.
    pub fn metrics(&self) -> RouterMetrics {
        let per_shard = self
            .lanes
            .iter()
            .map(|lane| match lock_recover_read(&lane.server).as_ref() {
                Some(server) => server.metrics(),
                None => lock_recover(&lane.last_metrics).clone(),
            })
            .collect();
        self.router_metrics(per_shard)
    }

    /// Drains and joins every live shard; returns the final metrics.
    pub fn shutdown(self) -> RouterMetrics {
        let mut per_shard = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let final_metrics = match lock_recover_write(&lane.server).take() {
                Some(server) => server.shutdown(),
                None => lock_recover(&lane.last_metrics).clone(),
            };
            per_shard.push(final_metrics);
        }
        self.router_metrics(per_shard)
    }

    fn router_metrics(&self, per_shard: Vec<ServeMetrics>) -> RouterMetrics {
        let (promotions, demotions) = lock_recover(&self.placement).stats();
        RouterMetrics {
            per_shard,
            forwarded: self.forwarded.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            promotions,
            demotions,
            route_faults: self.route_faults.load(Ordering::Relaxed),
            revived: self.revived.load(Ordering::Relaxed),
        }
    }
}

fn lock_recover_read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn lock_recover_write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::forward::ForwardConfig;
    use crate::shard::replicate::ReplicationConfig;
    use crate::zoo::scaled_zoo;
    use dlmc::{dense_rhs, ValueDist};

    fn router(
        shards: usize,
        replication: ReplicationConfig,
    ) -> (ShardRouter, Vec<crate::zoo::ZooModel>) {
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

    #[test]
    fn routes_serve_and_results_match_reference() {
        let (router, zoo) = router(4, ReplicationConfig::disabled());
        let mut tickets = Vec::new();
        for (i, m) in zoo.iter().enumerate() {
            let b = dense_rhs(m.k(), 4, ValueDist::SmallInt, i as u64);
            tickets.push((m, b.clone(), router.submit(&m.name, b).unwrap()));
        }
        for (m, b, t) in tickets {
            let r = t.wait().expect("request served");
            assert_eq!(r.rows, m.m());
            assert_eq!(r.c, m.weights().matmul_reference(&b), "routed result exact");
        }
        let metrics = router.shutdown();
        let total: u64 = metrics.per_shard.iter().map(|m| m.completed).sum();
        assert_eq!(total, zoo.len() as u64);
        assert!(
            metrics.per_shard.iter().filter(|m| m.submitted > 0).count() > 1,
            "traffic spread over shards"
        );
    }

    #[test]
    fn routing_is_stable_per_model() {
        let (router, zoo) = router(4, ReplicationConfig::disabled());
        for m in &zoo {
            let home = router.home_shard(&m.name);
            for _ in 0..3 {
                assert_eq!(router.home_shard(&m.name), home);
            }
            assert_eq!(router.replica_set(&m.name), vec![home]);
        }
        router.shutdown();
    }

    #[test]
    fn hot_model_gains_replicas_and_round_robins() {
        let (router, zoo) = router(4, ReplicationConfig::host_ns(8, 2, 60_000_000_000));
        let hot = &zoo[0];
        let mut tickets = Vec::new();
        for i in 0..32 {
            let b = dense_rhs(hot.k(), 2, ValueDist::SmallInt, i);
            tickets.push(router.submit(&hot.name, b).unwrap());
        }
        for t in tickets {
            t.wait().expect("served");
        }
        assert!(router.is_hot(&hot.name), "threshold crossed");
        let set = router.replica_set(&hot.name);
        assert_eq!(set.len(), 2, "hot model spans two shards");
        let metrics = router.shutdown();
        assert_eq!(metrics.promotions, 1);
        let served: Vec<u64> = set
            .iter()
            .map(|&s| metrics.per_shard[s].submitted)
            .collect();
        assert!(
            served.iter().all(|&c| c > 0),
            "round-robin hit both replicas: {served:?}"
        );
    }

    #[test]
    fn killed_shard_fails_over_for_replicated_models() {
        let (router, zoo) = router(4, ReplicationConfig::host_ns(4, 2, 60_000_000_000));
        let hot = &zoo[0];
        for i in 0..8 {
            router
                .submit(&hot.name, dense_rhs(hot.k(), 2, ValueDist::SmallInt, i))
                .unwrap()
                .wait()
                .expect("served before kill");
        }
        assert!(router.is_hot(&hot.name));
        let home = router.home_shard(&hot.name);
        assert!(router.kill_shard(home).is_some());
        assert!(router.kill_shard(home).is_none(), "idempotent");
        // The dead home shard no longer serves, but the replica does.
        let t = router
            .submit(&hot.name, dense_rhs(hot.k(), 2, ValueDist::SmallInt, 99))
            .expect("replica admits");
        t.wait().expect("replica serves");
        let metrics = router.shutdown();
        assert!(metrics.per_shard[home].conserves(), "dead shard drained");
    }

    #[test]
    fn revive_restores_service_on_a_dead_shard() {
        let (router, zoo) = router(2, ReplicationConfig::disabled());
        let victim = &zoo[0];
        let home = router.home_shard(&victim.name);
        assert!(router.kill_shard(home).is_some());
        assert!(!router.revive_shard(1 - home), "live shard is a no-op");
        assert!(router.revive_shard(home), "revive restarts the stack");
        assert!(!router.revive_shard(home), "idempotent");
        router
            .submit(
                &victim.name,
                dense_rhs(victim.k(), 2, ValueDist::SmallInt, 7),
            )
            .expect("revived shard admits")
            .wait()
            .expect("revived shard serves");
        let metrics = router.shutdown();
        assert_eq!(metrics.revived, 1);
    }

    #[test]
    fn unreplicated_model_on_dead_shard_rejects_typed() {
        let (router, zoo) = router(2, ReplicationConfig::disabled());
        let victim = &zoo[0];
        let home = router.home_shard(&victim.name);
        router.kill_shard(home);
        let err = router
            .submit(
                &victim.name,
                dense_rhs(victim.k(), 2, ValueDist::SmallInt, 1),
            )
            .unwrap_err();
        assert_eq!(
            err,
            AdmitError::ShardUnavailable {
                model: victim.name.clone(),
                shard: home,
            }
        );
        // Models homed on the surviving shard still serve.
        let survivor = zoo
            .iter()
            .find(|m| router.home_shard(&m.name) != home)
            .expect("two shards split eight models");
        router
            .submit(
                &survivor.name,
                dense_rhs(survivor.k(), 2, ValueDist::SmallInt, 2),
            )
            .unwrap()
            .wait()
            .expect("isolation: surviving shard unaffected");
        router.shutdown();
    }
}
