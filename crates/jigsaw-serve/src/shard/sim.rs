//! Deterministic multi-shard virtual-clock simulation: N simulated
//! devices behind the consistent-hash ring, with hot-model
//! replication, queue-depth forwarding, health ejection and hedged
//! requests — the policy engine behind `results/BENCH_serving.json`.
//!
//! The only virtual-clock serving event loop: a single device is a
//! one-shard [`ShardConfig`], and every shard batches by the
//! work-conserving rule in [`crate::batch`] the server also runs: a
//! shard dispatches its oldest queued head the cycle its device is
//! free, taking every queued request that fits. It is also the only
//! runtime of the tail policies (DESIGN.md §17): the threaded router
//! routes, fails over, kills and revives, but neither scores health
//! nor hedges.
//!
//! Determinism contract: the only clock is the cycle counter; shard
//! state lives in `BTreeMap`s; every tie (event time, head age,
//! forward or hedge target) breaks by id/name; and kernel costs come
//! through each model's simulation memo. Same `(schedule, config, warm registry)` ⇒
//! bit-identical report (a cold fetch charges measured host time).
//!
//! Scale: requests only carry `(model, arrival, n)` — no operand
//! bytes — and each model's memo collapses repeated batch widths into
//! one simulation, so driving a ~10⁶-user zipf population through
//! hundreds of thousands of requests stays cheap.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use jigsaw_core::fault;

use crate::batch::{pop_batch, BatchLimits, QueuedRequest};
use crate::breaker::{BreakerAdmit, BreakerState, CircuitBreaker};
use crate::metrics::{count, Histogram, ServeMetrics};
use crate::registry::ModelRegistry;
use crate::server::ServeError;
use crate::shard::place::Placement;
use crate::shard::{HealthConfig, HedgeConfig, ShardConfig};
use crate::sim::{SimCompletion, SimConfig, SimFailure, SimRequest};

/// Multi-shard simulation config: the shard topology/policies, the
/// tail policies, and the per-shard serving policy (batch caps,
/// breaker, device spec).
#[derive(Clone, Debug)]
pub struct ShardSimConfig {
    /// Topology and replication/forwarding policies. The replication
    /// window and thresholds are on the **cycle** clock here.
    pub shard: ShardConfig,
    /// Per-shard serving policy; every shard gets an identical device.
    pub sim: SimConfig,
    /// Per-shard health scoring / outlier-ejection policy, in cycles.
    pub health: HealthConfig,
    /// Hedged-request policy with its token-bucket retry budget, in
    /// cycles.
    pub hedge: HedgeConfig,
    /// Straggler injection: per-shard device-cycle cost multipliers
    /// (shard → factor). Config-driven rather than wall-clock-driven —
    /// `FaultKind::Latency` sleeps host time, which would break the
    /// virtual clock — so straggler schedules replay bit-identically.
    pub stragglers: BTreeMap<usize, f64>,
}

impl ShardSimConfig {
    /// A sharded sim with no health ejection, no hedging and no
    /// stragglers injected.
    pub fn new(shard: ShardConfig, sim: SimConfig) -> ShardSimConfig {
        ShardSimConfig {
            shard,
            sim,
            health: HealthConfig::disabled(),
            hedge: HedgeConfig::disabled(),
            stragglers: BTreeMap::new(),
        }
    }

    /// Enables health scoring / outlier ejection with the given policy.
    pub fn with_health(mut self, health: HealthConfig) -> ShardSimConfig {
        self.health = health;
        self
    }

    /// Enables hedged requests with the given policy.
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> ShardSimConfig {
        self.hedge = hedge;
        self
    }

    /// Injects `shard` as a straggler: every batch it executes costs
    /// `factor`× the modeled device cycles.
    pub fn with_straggler(mut self, shard: usize, factor: f64) -> ShardSimConfig {
        self.stragglers.insert(shard, factor.max(0.0));
        self
    }
}

/// Per-shard outcome of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardLane {
    /// Shard id (ring position owner).
    pub shard: usize,
    /// This shard's serving metrics (its own breakers, queues, device).
    pub metrics: ServeMetrics,
    /// Arrivals redirected *to another shard* because this home/target
    /// was over the queue threshold.
    pub forwarded_out: u64,
    /// Cycles this shard's device spent busy.
    pub busy_cycles: f64,
}

/// Result of a sharded virtual-clock run.
#[derive(Clone, Debug)]
pub struct ShardSimReport {
    /// One lane per shard.
    pub lanes: Vec<ShardLane>,
    /// Cluster-wide latency across all completed requests, cycles.
    pub latency_cycles: Histogram,
    /// Total completed / failed / shed / rejected over all shards.
    pub totals: ServeMetrics,
    /// Requests forwarded at admission (sender-initiated).
    pub forwarded: u64,
    /// Hot-model promotions / demotions.
    pub promotions: u64,
    /// Demotions at window rolls.
    pub demotions: u64,
    /// Hedged duplicates launched (each funded by one retry-budget
    /// token).
    pub hedges: u64,
    /// Hedged requests whose duplicate completed before the primary.
    pub hedge_wins: u64,
    /// Hedged copies cancelled unexecuted at dispatch because the
    /// other copy already resolved — cancellation costs zero cycles.
    pub hedge_cancels: u64,
    /// Hedged copies that executed after the other copy had already
    /// resolved: the bounded waste the retry budget paid for.
    pub hedge_wasted: u64,
    /// Health-scorer ejection events across all shards.
    pub health_ejections: u64,
    /// Finish time of the last batch anywhere, cycles.
    pub makespan_cycles: f64,
    /// Per-request completions, in completion order (one per request
    /// id — a hedged id's losing copy records nothing).
    pub completions: Vec<SimCompletion>,
    /// Admitted requests that did not complete (shed or failed), in
    /// terminal order.
    pub failures: Vec<SimFailure>,
    /// Ids rejected at admission by an open circuit breaker.
    pub rejected_ids: Vec<usize>,
}

impl ShardSimReport {
    /// Completed requests per 10⁹ cycles of elapsed virtual time.
    pub fn requests_per_gcycle(&self) -> f64 {
        if self.makespan_cycles <= 0.0 {
            0.0
        } else {
            self.totals.completed as f64 / (self.makespan_cycles / 1e9)
        }
    }
}

#[derive(Clone, Copy)]
struct Queued<'a> {
    req: &'a SimRequest,
    /// `true` for a hedged duplicate: it never carries ledger counts
    /// (submitted/completed accounting stays with the request id, not
    /// the copy) and is dropped at dispatch if the id already resolved.
    dup: bool,
}

impl QueuedRequest for Queued<'_> {
    fn deadline(&self) -> Option<f64> {
        self.req.deadline_cycles.map(|d| self.req.arrival_cycle + d)
    }

    fn width(&self) -> usize {
        self.req.n
    }
}

/// One shard's mutable state.
struct Shard<'a> {
    queues: BTreeMap<String, VecDeque<Queued<'a>>>,
    breakers: BTreeMap<String, CircuitBreaker>,
    free_at: f64,
    metrics: ServeMetrics,
    forwarded_out: u64,
}

impl<'a> Shard<'a> {
    fn depth(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }
}

/// The dispatch one shard would take at time `now`: the model whose
/// head has waited longest, dispatched as soon as the device is free.
fn decide(shard: &Shard<'_>, now: f64) -> Option<(String, f64)> {
    let (model, _) =
        shard
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .min_by(|(na, qa), (nb, qb)| {
                let (a, b) = (
                    qa.front().expect("non-empty"),
                    qb.front().expect("non-empty"),
                );
                a.req
                    .arrival_cycle
                    .partial_cmp(&b.req.arrival_cycle)
                    .expect("finite arrivals")
                    .then(a.req.id.cmp(&b.req.id))
                    .then(na.cmp(nb))
            })?;
    Some((model.clone(), now.max(shard.free_at)))
}

/// Runs a schedule across `cfg.shard.shards` simulated shards.
///
/// Every arrival is placed by the placement rule the threaded router
/// also runs (`Placement`, DESIGN.md §14), with every simulated shard
/// live; the same state picks every hedge target (§17). Forwarding at
/// admission is the only rule that moves load: a queued request runs
/// on the shard that admitted it. Every shard runs the same batching
/// rule ([`pop_batch`]) and per-model breakers.
///
/// Infallible by construction: registry errors and panics raised at
/// dispatch (e.g. injected via [`jigsaw_core::fault`]) fail that
/// batch's members with a typed [`SimFailure`] instead of aborting the
/// run, expired queue entries are shed, and an open per-model circuit
/// breaker fast-rejects at admission — so every request in the
/// schedule reaches exactly one terminal state.
pub fn simulate_sharded(
    registry: &ModelRegistry,
    schedule: &[SimRequest],
    cfg: &ShardSimConfig,
) -> ShardSimReport {
    assert!(cfg.sim.max_batch_n >= 1 && cfg.sim.max_batch_requests >= 1);
    let limits = BatchLimits {
        max_batch_n: cfg.sim.max_batch_n,
        max_batch_requests: cfg.sim.max_batch_requests,
    };
    let n_shards = cfg.shard.shards;
    let mut order: Vec<&SimRequest> = schedule.iter().collect();
    order.sort_by(|a, b| {
        a.arrival_cycle
            .partial_cmp(&b.arrival_cycle)
            .expect("finite arrivals")
            .then(a.id.cmp(&b.id))
    });

    let mut shards: Vec<Shard<'_>> = (0..n_shards)
        .map(|_| Shard {
            queues: BTreeMap::new(),
            breakers: BTreeMap::new(),
            free_at: 0.0,
            metrics: ServeMetrics::default(),
            forwarded_out: 0,
        })
        .collect();
    let mut placement = Placement::new(&cfg.shard, cfg.health, cfg.hedge);
    let mut latency = Histogram::default();
    let mut forwarded = 0u64;
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut makespan = 0.0f64;
    let mut completions: Vec<SimCompletion> = Vec::with_capacity(order.len());
    let mut failures: Vec<SimFailure> = Vec::new();
    let mut rejected_ids: Vec<usize> = Vec::new();

    // Hedge bookkeeping (DESIGN.md §17); inert while hedging is off.
    // Ids whose hedge decision is spent (launched, suppressed for lack
    // of budget, or no eligible target) — each id is decided once.
    let mut hedged: BTreeSet<usize> = BTreeSet::new();
    // Hedged ids whose ledger event (complete/fail/shed) has fired; the
    // surviving copy of a resolved id is dropped unexecuted at dispatch.
    let mut resolved: BTreeSet<usize> = BTreeSet::new();
    // Which shard's ledger holds each hedged id's `submitted` count:
    // the primary's, until `resolve` moves it to the resolving shard.
    let mut origin: BTreeMap<usize, usize> = BTreeMap::new();
    let mut hedges = 0u64;
    let mut hedge_wins = 0u64;
    let mut hedge_cancels = 0u64;
    let mut hedge_wasted = 0u64;
    let mut health_ejections = 0u64;

    loop {
        // --- Admit + route every arrival at or before `now`. ---
        while next_arrival < order.len() && order[next_arrival].arrival_cycle <= now {
            let req = order[next_arrival];
            next_arrival += 1;
            // Every simulated shard is live. `now == arrival_cycle`
            // here, bar a first batch that precedes any health event.
            let depth = |s: usize| shards[s].depth();
            let route = placement.route(&req.model, req.arrival_cycle, |_| true, depth);
            let route = route.expect("a simulated shard is always live");
            let mut target = route.target;
            // Sender-initiated forwarding off an over-threshold target.
            if let Some(best) = route.forward {
                shards[target].forwarded_out += 1;
                forwarded += 1;
                count("shard.forwarded");
                target = best;
            }
            // Routing one arrival to a probing shard consumes its probe
            // slot: followers see it ejected until the probe reports.
            placement.admit(target, now);
            let lane = &mut shards[target];
            if let Some(br) = lane.breakers.get_mut(&req.model) {
                if let BreakerAdmit::Reject { .. } = br.admit(now) {
                    lane.metrics.rejected += 1;
                    lane.metrics.breaker_rejects += 1;
                    rejected_ids.push(req.id);
                    count("shard.breaker_rejects");
                    continue;
                }
            }
            lane.queues
                .entry(req.model.clone())
                .or_default()
                .push_back(Queued { req, dup: false });
            lane.metrics.submitted += 1;
            placement.hedge.on_primary();
            let depth = lane.depth();
            lane.metrics.peak_queue_depth = lane.metrics.peak_queue_depth.max(depth);
        }

        // --- Launch due hedges: a primary that has waited past the
        // p95-derived delay gets a duplicate on another healthy shard,
        // funded by one retry-budget token. The duplicate carries the
        // request itself — original arrival, original deadline — so
        // deadline checks anchor at the original submission, never a
        // fresh window. One decision per id; denial (no budget, no
        // target) is final so the scan always makes progress. ---
        let hedge_delay = placement.hedge.hedge_delay();
        if let Some(delay) = hedge_delay {
            loop {
                let mut due: Option<(usize, String, &SimRequest)> = None;
                'scan: for (s, lane) in shards.iter().enumerate() {
                    for (model, q) in &lane.queues {
                        for qd in q {
                            if qd.dup
                                || hedged.contains(&qd.req.id)
                                || now - qd.req.arrival_cycle < delay
                            {
                                continue;
                            }
                            due = Some((s, model.clone(), qd.req));
                            break 'scan;
                        }
                    }
                }
                let Some((s, model, req)) = due else { break };
                hedged.insert(req.id);
                let Some(target) =
                    placement.hedge_target(&model, s, now, |_| true, |t| shards[t].depth())
                else {
                    continue;
                };
                if !placement.hedge.try_hedge() {
                    count("hedge.suppressed");
                    continue;
                }
                origin.insert(req.id, s);
                hedges += 1;
                count("hedge.launched");
                let lane = &mut shards[target];
                lane.queues
                    .entry(model)
                    .or_default()
                    .push_back(Queued { req, dup: true });
                let depth = lane.depth();
                lane.metrics.peak_queue_depth = lane.metrics.peak_queue_depth.max(depth);
            }
        }

        // --- Pick the next event: earliest shard dispatch vs arrival. ---
        let next_dispatch: Option<(f64, usize, String)> = shards
            .iter()
            .enumerate()
            .filter_map(|(s, lane)| decide(lane, now).map(|(m, at)| (at, s, m)))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite dispatch times")
                    .then(a.1.cmp(&b.1))
            });
        // The earliest future instant a queued primary crosses the
        // hedge delay — hedge launches are events too, or a straggler's
        // victim would wait for the next dispatch to get its duplicate.
        let next_hedge_at: Option<f64> = hedge_delay.and_then(|delay| {
            shards
                .iter()
                .flat_map(|lane| lane.queues.values().flatten())
                .filter(|qd| !qd.dup && !hedged.contains(&qd.req.id))
                .map(|qd| qd.req.arrival_cycle + delay)
                .filter(|&t| t > now)
                .min_by(|a, b| a.partial_cmp(b).expect("finite hedge times"))
        });

        let Some((dispatch_at, s, model)) = next_dispatch else {
            // Nothing queued anywhere: jump to the next arrival or end.
            match order.get(next_arrival) {
                Some(req) => {
                    now = now.max(req.arrival_cycle);
                    continue;
                }
                None => break,
            }
        };
        // An arrival or a hedge instant before the dispatch may join a
        // batch or change routing — advance to it and re-decide.
        if let Some(next) = order.get(next_arrival) {
            if next.arrival_cycle <= dispatch_at {
                let t = next.arrival_cycle;
                now = next_hedge_at.filter(|&h| h < t).unwrap_or(t);
                continue;
            }
        }
        if let Some(h) = next_hedge_at {
            if h < dispatch_at {
                now = h;
                continue;
            }
        }

        // --- Execute the dispatch on shard `s`, plus §17
        // cancellation: a copy whose request id already resolved
        // elsewhere pops for free. ---
        let failure = |qd: &Queued<'_>, error| SimFailure {
            id: qd.req.id,
            model: model.clone(),
            arrival_cycle: qd.req.arrival_cycle,
            cycle: dispatch_at,
            error,
        };
        let mut shed: Vec<Queued<'_>> = Vec::new();
        let (members, total_n) = {
            let lane = &mut shards[s];
            let q = lane.queues.get_mut(&model).expect("decided above");
            let popped = pop_batch(
                q,
                &limits,
                dispatch_at,
                |qd| {
                    // First-completion-wins: the other copy already
                    // resolved, so this one cancels unexecuted.
                    let cancelled = resolved.contains(&qd.req.id);
                    if cancelled {
                        hedge_cancels += 1;
                        count("hedge.cancels");
                    }
                    cancelled
                },
                |qd| shed.push(qd),
            );
            if q.is_empty() {
                lane.queues.remove(&model);
            }
            popped
        };
        for qd in shed {
            let id = qd.req.id;
            if !resolve(&mut shards, &origin, &mut resolved, id, s) {
                // Both copies expired in this pop: the second one
                // cancels against the first's resolution.
                hedge_cancels += 1;
                count("hedge.cancels");
                continue;
            }
            shards[s].metrics.shed_expired += 1;
            failures.push(failure(&qd, ServeError::DeadlineExceeded));
        }
        if members.is_empty() {
            // Everything reached had expired or was cancelled;
            // re-decide at the shedding instant.
            now = dispatch_at;
            continue;
        }

        // A fetch failure (or a panic escaping it — injected faults
        // included) fails the whole batch with a typed terminal state
        // and strikes this shard's breaker once — the failure stays
        // inside the shard.
        let fetched = catch_unwind(AssertUnwindSafe(|| registry.fetch(&model)));
        let (planned, fetch) = match fetched {
            Ok(Ok(pair)) => pair,
            other => {
                let error = match other {
                    Ok(Err(e)) => ServeError::Registry(e.to_string()),
                    _ => {
                        shards[s].metrics.worker_panics += 1;
                        ServeError::WorkerPanic
                    }
                };
                // Resolved copies cancel silently, live ones fail
                // (once per id).
                for qd in &members {
                    let id = qd.req.id;
                    if !resolve(&mut shards, &origin, &mut resolved, id, s) {
                        hedge_cancels += 1;
                        continue;
                    }
                    shards[s].metrics.failed += 1;
                    failures.push(failure(qd, error.clone()));
                }
                shards[s]
                    .breakers
                    .entry(model.clone())
                    .or_insert_with(|| CircuitBreaker::new(cfg.sim.breaker))
                    .on_failure(dispatch_at);
                health_ejections += placement.record(s, dispatch_at, None);
                now = dispatch_at;
                makespan = makespan.max(dispatch_at);
                continue;
            }
        };
        // Kernel cost through the model's memo. Straggler injection: a
        // configured per-shard cost multiplier, plus any `shard.slow`
        // fault (deterministic — the sim is single-threaded, so the
        // point's hit counter replays; the fault's nanoseconds are read
        // as cycles on the virtual clock).
        let (stats, _) = planned.simulate_memoized(total_n, &cfg.sim.spec);
        let mut batch_cycles = stats.duration_cycles;
        if let Some(factor) = cfg.stragglers.get(&s) {
            batch_cycles *= factor;
        }
        if fault::armed() {
            if let Some(fired) = fault::fire(fault::points::SHARD_SLOW) {
                if let fault::FaultKind::Latency { ns } = fired.kind {
                    batch_cycles += ns as f64;
                }
            }
        }
        // A cold fetch's planning time (ns → cycles at the device
        // clock) stalls this shard's timeline — the end-to-end cost a
        // cold-start batch actually pays.
        if fetch.is_cold() {
            batch_cycles += planned.plan_host_ns as f64 * cfg.sim.spec.clock_ghz;
        }
        let finish = dispatch_at + batch_cycles;
        makespan = makespan.max(finish);
        {
            let lane = &mut shards[s];
            lane.free_at = finish;
            lane.metrics.batches += 1;
            lane.metrics.batch_requests_total += members.len() as u64;
            lane.metrics.batch_n_total += total_n as u64;
            lane.metrics.device_cycles += batch_cycles;
        }
        for qd in &members {
            let id = qd.req.id;
            if !resolve(&mut shards, &origin, &mut resolved, id, s) {
                // Both copies ran: this one's cycles are the waste the
                // retry budget bounded.
                hedge_wasted += 1;
                count("hedge.wasted");
                continue;
            }
            if qd.dup {
                hedge_wins += 1;
                count("hedge.wins");
            }
            let l = finish - qd.req.arrival_cycle;
            shards[s].metrics.completed += 1;
            shards[s].metrics.latency_cycles.record(l);
            latency.record(l);
            completions.push(SimCompletion {
                id,
                model: model.clone(),
                arrival_cycle: qd.req.arrival_cycle,
                dispatch_cycle: dispatch_at,
                finish_cycle: finish,
                batch_requests: members.len(),
                batch_n: total_n,
                charged_cycles: batch_cycles * qd.req.n as f64 / total_n as f64,
                cold: fetch.is_cold(),
            });
            health_ejections += placement.record(s, finish, Some(l));
        }
        placement.refresh_baseline();
        if let Some(br) = shards[s].breakers.get_mut(&model) {
            br.on_success();
        }
        now = dispatch_at;
    }

    // --- Fold lanes into the report. ---
    let mut totals = ServeMetrics::default();
    let lanes: Vec<ShardLane> = shards
        .into_iter()
        .enumerate()
        .map(|(shard, mut lane)| {
            lane.metrics.breakers_open = lane
                .breakers
                .values_mut()
                .map(|b| b.state(makespan))
                .filter(|st| *st != BreakerState::Closed)
                .count() as u64;
            totals.submitted += lane.metrics.submitted;
            totals.completed += lane.metrics.completed;
            totals.rejected += lane.metrics.rejected;
            totals.breaker_rejects += lane.metrics.breaker_rejects;
            totals.failed += lane.metrics.failed;
            totals.shed_expired += lane.metrics.shed_expired;
            totals.worker_panics += lane.metrics.worker_panics;
            totals.breakers_open += lane.metrics.breakers_open;
            totals.batches += lane.metrics.batches;
            totals.batch_requests_total += lane.metrics.batch_requests_total;
            totals.batch_n_total += lane.metrics.batch_n_total;
            totals.peak_queue_depth = totals.peak_queue_depth.max(lane.metrics.peak_queue_depth);
            totals.device_cycles += lane.metrics.device_cycles;
            ShardLane {
                shard,
                busy_cycles: lane.metrics.device_cycles,
                forwarded_out: lane.forwarded_out,
                metrics: lane.metrics,
            }
        })
        .collect();
    let (promotions, demotions) = placement.stats();
    ShardSimReport {
        lanes,
        latency_cycles: latency,
        totals,
        forwarded,
        promotions,
        demotions,
        hedges,
        hedge_wins,
        hedge_cancels,
        hedge_wasted,
        health_ejections,
        makespan_cycles: makespan,
        completions,
        failures,
        rejected_ids,
    }
}

/// Resolves request `id` on shard `s`. A hedged id resolves once:
/// its `submitted` count moves to `s`, and every later copy gets
/// `false` (cancelled or wasted). Unhedged ids always resolve.
fn resolve(
    shards: &mut [Shard<'_>],
    origin: &BTreeMap<usize, usize>,
    resolved: &mut BTreeSet<usize>,
    id: usize,
    s: usize,
) -> bool {
    let Some(&o) = origin.get(&id) else {
        return true;
    };
    if !resolved.insert(id) {
        return false;
    }
    if o != s {
        shards[o].metrics.submitted -= 1;
        shards[s].metrics.submitted += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate_zipf_schedule, ZipfLoadSpec};
    use crate::registry::{ModelRegistry, RegistryConfig};
    use crate::shard::forward::ForwardConfig;
    use crate::shard::replicate::ReplicationConfig;
    use crate::shard::ring::HashRing;
    use crate::zoo::scaled_zoo;
    use gpu_sim::GpuSpec;

    fn warm_registry(models: usize) -> (ModelRegistry, Vec<crate::zoo::ZooModel>) {
        let zoo = scaled_zoo(models, 33);
        let reg = ModelRegistry::new(RegistryConfig {
            budget_bytes: 1 << 30,
            ..RegistryConfig::default()
        })
        .unwrap();
        for m in &zoo {
            reg.register(&m.name, m.weights(), m.config);
        }
        reg.warm_all().unwrap();
        (reg, zoo)
    }

    fn sharded_cfg(shards: usize) -> ShardSimConfig {
        ShardSimConfig::new(
            ShardConfig::new(shards)
                .with_replication(ReplicationConfig::cycles(32, 2, 500_000.0))
                .with_forwarding(ForwardConfig::threshold(8)),
            SimConfig::batched(GpuSpec::a100(), 128),
        )
    }

    fn zipf(requests: usize, seed: u64, zoo: &[crate::zoo::ZooModel]) -> Vec<SimRequest> {
        generate_zipf_schedule(
            zoo,
            &ZipfLoadSpec {
                requests,
                seed,
                mean_gap_cycles: 300.0,
                ..ZipfLoadSpec::default()
            },
        )
        .into_iter()
        .map(|z| z.req)
        .collect()
    }

    #[test]
    fn sharded_sim_conserves_and_spreads_load() {
        let (reg, zoo) = warm_registry(8);
        let schedule = zipf(1500, 11, &zoo);
        let report = simulate_sharded(&reg, &schedule, &sharded_cfg(4));
        assert_eq!(
            report.totals.completed + report.totals.failed + report.totals.shed_expired,
            report.totals.submitted,
            "conservation across shards"
        );
        assert_eq!(
            report.totals.submitted + report.totals.rejected,
            schedule.len() as u64,
            "every request admitted or rejected"
        );
        assert!(
            report
                .lanes
                .iter()
                .filter(|l| l.metrics.submitted > 0)
                .count()
                >= 2,
            "traffic spread over shards"
        );
        assert!(report.promotions > 0, "zipf head went hot");
    }

    #[test]
    fn sharded_sim_is_bit_deterministic() {
        let (reg, zoo) = warm_registry(8);
        let schedule = zipf(1000, 17, &zoo);
        let cfg = sharded_cfg(4);
        let a = simulate_sharded(&reg, &schedule, &cfg);
        let b = simulate_sharded(&reg, &schedule, &cfg);
        assert_eq!(a.makespan_cycles.to_bits(), b.makespan_cycles.to_bits());
        assert_eq!(
            a.latency_cycles.percentile(99.0).to_bits(),
            b.latency_cycles.percentile(99.0).to_bits()
        );
        assert_eq!(a.forwarded, b.forwarded);
        assert_eq!(a.promotions, b.promotions);
        for (la, lb) in a.lanes.iter().zip(&b.lanes) {
            assert_eq!(la.metrics.submitted, lb.metrics.submitted);
            assert_eq!(la.metrics.completed, lb.metrics.completed);
            assert_eq!(la.busy_cycles.to_bits(), lb.busy_cycles.to_bits());
        }
    }

    #[test]
    fn more_shards_cut_tail_latency_under_saturating_load() {
        let (reg, zoo) = warm_registry(8);
        let schedule = zipf(1200, 29, &zoo);
        let one = simulate_sharded(&reg, &schedule, &sharded_cfg(1));
        let four = simulate_sharded(&reg, &schedule, &sharded_cfg(4));
        assert!(
            four.latency_cycles.percentile(99.0) < one.latency_cycles.percentile(99.0),
            "4-shard p99 {} vs 1-shard p99 {}",
            four.latency_cycles.percentile(99.0),
            one.latency_cycles.percentile(99.0)
        );
        assert!(four.makespan_cycles < one.makespan_cycles);
    }

    #[test]
    fn forwarding_fires_under_skew() {
        let (reg, zoo) = warm_registry(8);
        // Heavy skew + tight arrivals: the hot model's home shard
        // saturates, so replicas absorb forwarded work.
        let schedule: Vec<SimRequest> = generate_zipf_schedule(
            &zoo,
            &ZipfLoadSpec {
                requests: 1500,
                seed: 31,
                exponent: 1.6,
                mean_gap_cycles: 120.0,
                ..ZipfLoadSpec::default()
            },
        )
        .into_iter()
        .map(|z| z.req)
        .collect();
        let report = simulate_sharded(&reg, &schedule, &sharded_cfg(4));
        assert!(report.promotions > 0, "hot model promoted");
        assert!(report.forwarded > 0, "load moved off the hot shard");
        assert_eq!(
            report.totals.completed + report.totals.failed + report.totals.shed_expired,
            report.totals.submitted
        );
    }

    #[test]
    fn hedging_and_health_bound_p99_under_a_straggler() {
        // The §17 acceptance scenario: identical offered load, one
        // shard degraded to a 10× straggler. With health ejection +
        // hedging on, the fleet's p99 must stay within half of the
        // unprotected run's, and the protection must not blow the
        // retry budget's work-amplification bound.
        let (reg, zoo) = warm_registry(8);
        let schedule = zipf(1200, 47, &zoo);
        let cfg = |tail: bool| {
            let shard = ShardConfig::new(4)
                .with_replication(ReplicationConfig::cycles(32, 2, 500_000.0))
                .with_forwarding(ForwardConfig::threshold(8));
            let cfg = ShardSimConfig::new(shard, SimConfig::batched(GpuSpec::a100(), 128))
                .with_straggler(0, 10.0);
            if tail {
                cfg.with_health(HealthConfig::cycles())
                    .with_hedge(HedgeConfig::cycles())
            } else {
                cfg
            }
        };
        let unprotected = simulate_sharded(&reg, &schedule, &cfg(false));
        let protected = simulate_sharded(&reg, &schedule, &cfg(true));
        let conserves = |r: &ShardSimReport| {
            r.totals.completed + r.totals.failed + r.totals.shed_expired == r.totals.submitted
        };
        assert!(conserves(&unprotected) && conserves(&protected));
        assert!(
            protected.hedges > 0 || protected.health_ejections > 0,
            "tail tolerance engaged (hedges {} ejections {})",
            protected.hedges,
            protected.health_ejections
        );
        let (up99, pp99) = (
            unprotected.latency_cycles.percentile(99.0),
            protected.latency_cycles.percentile(99.0),
        );
        assert!(
            pp99 <= 0.5 * up99,
            "hedged p99 {pp99} vs unhedged p99 {up99}: not within 0.5×"
        );
        // Executed work: hedging may only add the budget fraction (10%)
        // on top of the unprotected run — and steering work off the 10×
        // shard usually lands it well below even that.
        let work = |r: &ShardSimReport| r.lanes.iter().map(|l| l.busy_cycles).sum::<f64>();
        assert!(
            work(&protected) <= 1.1 * work(&unprotected),
            "work amplification {} vs budget bound 1.1",
            work(&protected) / work(&unprotected)
        );
    }

    #[test]
    fn tail_tolerant_run_is_bit_deterministic() {
        let (reg, zoo) = warm_registry(8);
        let schedule = zipf(800, 53, &zoo);
        let cfg = ShardSimConfig::new(
            ShardConfig::new(4)
                .with_replication(ReplicationConfig::cycles(32, 2, 500_000.0))
                .with_forwarding(ForwardConfig::threshold(8)),
            SimConfig::batched(GpuSpec::a100(), 128),
        )
        .with_health(HealthConfig::cycles())
        .with_hedge(HedgeConfig::cycles())
        .with_straggler(1, 10.0);
        let a = simulate_sharded(&reg, &schedule, &cfg);
        let b = simulate_sharded(&reg, &schedule, &cfg);
        assert_eq!(a.makespan_cycles.to_bits(), b.makespan_cycles.to_bits());
        assert_eq!(
            a.latency_cycles.percentile(99.0).to_bits(),
            b.latency_cycles.percentile(99.0).to_bits()
        );
        assert_eq!(a.hedges, b.hedges);
        assert_eq!(a.hedge_wins, b.hedge_wins);
        assert_eq!(a.hedge_cancels, b.hedge_cancels);
        assert_eq!(a.health_ejections, b.health_ejections);
    }

    #[test]
    fn hedged_duplicates_carry_the_original_deadline() {
        // Deadline propagation (§17): the hedged duplicate inherits the
        // original submitter's deadline, never a fresh window. (A
        // forwarded request queues the request itself — same `req`,
        // original arrival, original deadline — so the only
        // place a fresh window could sneak in is the duplicate, which
        // is created later.) Construction: shard 0's device is pinned
        // by a huge straggler batch, a deadlined probe queues behind
        // it, and the hedge-delay floor exceeds the probe's deadline —
        // so the duplicate is born on the healthy shard already past
        // the ORIGINAL deadline. Propagation ⇒ the duplicate sheds and
        // the request never completes; a fresh window would have served
        // it.
        let (reg, zoo) = warm_registry(8);
        let ring = HashRing::new(2, 64);
        let mut on0 = zoo.iter().filter(|m| ring.shard_for(&m.name) == 0);
        let blocker = on0.next().expect("a model homed on shard 0").name.clone();
        let probed = on0
            .next()
            .expect("two models homed on shard 0")
            .name
            .clone();
        let warm = zoo
            .iter()
            .find(|m| ring.shard_for(&m.name) == 1)
            .expect("a model homed on shard 1")
            .name
            .clone();

        let mut schedule: Vec<SimRequest> = Vec::new();
        // Pins shard 0's device for ~10_000× one batch's cycles.
        schedule.push(SimRequest {
            id: 1,
            model: blocker,
            arrival_cycle: 0.0,
            n: 8,
            deadline_cycles: None,
        });
        // Warm traffic on shard 1 arms the hedge latency window. 24
        // fast samples alongside the blocker's one enormous latency
        // keep the nearest-rank p95 at a fast sample, so the delay
        // stays at the 60k floor rather than the blocker's millions.
        for i in 0..24 {
            schedule.push(SimRequest {
                id: 10 + i,
                model: warm.clone(),
                arrival_cycle: 50.0 * i as f64,
                n: 8,
                deadline_cycles: None,
            });
        }
        // The probe: its 40k-cycle deadline expires before the 60k
        // hedge-delay floor can fire.
        schedule.push(SimRequest {
            id: 99,
            model: probed,
            arrival_cycle: 400_000.0,
            n: 8,
            deadline_cycles: Some(40_000.0),
        });

        let hedge = HedgeConfig {
            enabled: true,
            percentile: 0.95,
            min_delay: 60_000.0,
            budget_fraction: 1.0,
            burst: 8.0,
            min_samples: 4,
        };
        let cfg = ShardSimConfig::new(
            ShardConfig::new(2),
            SimConfig::batched(GpuSpec::a100(), 128),
        )
        .with_hedge(hedge)
        .with_straggler(0, 10_000.0);
        let report = simulate_sharded(&reg, &schedule, &cfg);
        assert_eq!(
            report.totals.completed + report.totals.failed + report.totals.shed_expired,
            report.totals.submitted
        );
        assert_eq!(report.hedges, 1, "the stuck probe hedged exactly once");
        assert_eq!(
            report.totals.shed_expired, 1,
            "the duplicate shed against the original deadline"
        );
        assert_eq!(
            report.totals.completed,
            schedule.len() as u64 - 1,
            "everything but the expired probe served"
        );
        assert!(
            report.hedge_cancels >= 1,
            "the stuck primary cancelled unexecuted once the id resolved"
        );
    }

    #[test]
    fn unknown_model_fails_inside_its_shard_only() {
        let (reg, zoo) = warm_registry(4);
        let mut schedule = zipf(200, 41, &zoo);
        // Interleave traffic for a model no registry knows.
        for i in 0..40 {
            schedule.push(SimRequest {
                id: 10_000 + i,
                model: "ghost-model".to_string(),
                arrival_cycle: (i as f64) * 400.0,
                n: 8,
                deadline_cycles: None,
            });
        }
        // No replication: a failing model must stay pinned to its home
        // shard for the isolation assertion to be meaningful.
        let cfg = ShardSimConfig::new(
            ShardConfig::new(2),
            SimConfig::batched(GpuSpec::a100(), 128),
        );
        let report = simulate_sharded(&reg, &schedule, &cfg);
        assert!(report.totals.failed > 0, "ghost batches failed typed");
        assert!(report.totals.completed > 0, "real traffic kept serving");
        let ghost_shard = HashRing::new(2, 64).shard_for("ghost-model");
        assert!(
            report.lanes[ghost_shard].metrics.failed > 0,
            "failures stayed on the ghost's home shard"
        );
        assert_eq!(
            report.lanes[1 - ghost_shard].metrics.failed,
            0,
            "other shard saw no failures"
        );
    }
}
