//! Deterministic discrete-event serving simulation: the same
//! admission/batching policy as the threaded [`crate::server`], but on
//! a virtual cycle clock with a single simulated device. Two runs over
//! the same schedule produce identical reports — this is what the
//! `serving` experiment sweeps, so its batched-vs-unbatched and
//! warm-vs-cold comparisons are reproducible.
//!
//! Cold fetches (planning or artifact loads) charge their measured
//! host time to the virtual timeline, converted at the device clock —
//! the end-to-end cost a cold-start request actually pays.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gpu_sim::GpuSpec;

use crate::breaker::{BreakerAdmit, BreakerConfig, BreakerState, CircuitBreaker};
use crate::metrics::ServeMetrics;
use crate::registry::ModelRegistry;
use crate::server::ServeError;

/// Virtual-clock serving policy knobs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Simulated device.
    pub spec: GpuSpec,
    /// Maximum total B columns per batch.
    pub max_batch_n: usize,
    /// Maximum requests per batch (`1` disables batching).
    pub max_batch_requests: usize,
    /// Cycles a batch head may wait for co-riders.
    pub max_wait_cycles: f64,
    /// Charge cold-fetch host time (ns → cycles at the device clock)
    /// to the virtual timeline.
    pub charge_cold_fetch: bool,
    /// Per-model circuit breaker, on the cycle clock.
    pub breaker: BreakerConfig,
}

impl SimConfig {
    /// The batched policy at a given window.
    pub fn batched(spec: GpuSpec, max_batch_n: usize, max_wait_cycles: f64) -> SimConfig {
        SimConfig {
            spec,
            max_batch_n,
            max_batch_requests: usize::MAX,
            max_wait_cycles,
            charge_cold_fetch: true,
            breaker: BreakerConfig::cycles(),
        }
    }

    /// One request per kernel, no batching window.
    pub fn unbatched(spec: GpuSpec) -> SimConfig {
        SimConfig {
            spec,
            max_batch_n: usize::MAX,
            max_batch_requests: 1,
            max_wait_cycles: 0.0,
            charge_cold_fetch: true,
            breaker: BreakerConfig::cycles(),
        }
    }
}

/// One request in a virtual-clock schedule.
#[derive(Clone, Debug)]
pub struct SimRequest {
    /// Stable id (ties broken by it; keep unique).
    pub id: usize,
    /// Target model.
    pub model: String,
    /// Arrival time, cycles.
    pub arrival_cycle: f64,
    /// Requested output width (B columns).
    pub n: usize,
    /// Cycles after arrival by which the request must *dispatch*; a
    /// still-queued request past this budget is shed with
    /// [`ServeError::DeadlineExceeded`] instead of executed. `None`
    /// waits forever.
    pub deadline_cycles: Option<f64>,
}

/// Completion record for one simulated request.
#[derive(Clone, Debug)]
pub struct SimCompletion {
    /// Request id.
    pub id: usize,
    /// Target model.
    pub model: String,
    /// Arrival time, cycles.
    pub arrival_cycle: f64,
    /// Batch dispatch time, cycles.
    pub dispatch_cycle: f64,
    /// Completion time, cycles.
    pub finish_cycle: f64,
    /// Requests in this request's batch.
    pub batch_requests: usize,
    /// Total columns of the batch.
    pub batch_n: usize,
    /// Proportional share of the batch's cycles charged here.
    pub charged_cycles: f64,
    /// Whether the batch paid a cold fetch.
    pub cold: bool,
}

/// Terminal non-success record for one *admitted* simulated request:
/// shed on deadline expiry, failed by a registry error, or failed by a
/// panic caught at dispatch.
#[derive(Clone, Debug)]
pub struct SimFailure {
    /// Request id.
    pub id: usize,
    /// Target model.
    pub model: String,
    /// Arrival time, cycles.
    pub arrival_cycle: f64,
    /// Cycle at which the request reached its terminal state.
    pub cycle: f64,
    /// Why it did not complete.
    pub error: ServeError,
}

/// Result of a virtual-clock run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-request completions, in completion order.
    pub completions: Vec<SimCompletion>,
    /// Admitted requests that did not complete (shed or failed), in
    /// terminal order. Every admitted request appears in exactly one of
    /// `completions` / `failures` — `metrics.conserves()` checks this.
    pub failures: Vec<SimFailure>,
    /// Ids rejected at admission by an open circuit breaker (never
    /// admitted, so outside the conservation sum).
    pub rejected_ids: Vec<usize>,
    /// Aggregated metrics (`latency_host_ns` stays empty — there is no
    /// host time on a virtual clock).
    pub metrics: ServeMetrics,
    /// Cycles the device spent busy (kernels + charged cold fetches).
    pub busy_cycles: f64,
    /// Finish time of the last batch, cycles.
    pub makespan_cycles: f64,
}

impl SimReport {
    /// Completed requests per 10⁹ cycles of *elapsed* virtual time —
    /// the experiment's headline throughput (uses the makespan, so idle
    /// gaps and cold stalls count against it).
    pub fn requests_per_gcycle(&self) -> f64 {
        if self.makespan_cycles <= 0.0 {
            0.0
        } else {
            self.completions.len() as f64 / (self.makespan_cycles / 1e9)
        }
    }
}

/// Runs the schedule to completion on the virtual clock.
///
/// Deterministic: queues iterate in model-name order, ties in arrival
/// order break by request id, and the only clock is the cycle counter.
/// (Cold-fetch charges use measured host time, so *magnitudes* vary
/// run to run when `charge_cold_fetch` is set and the registry is
/// cold; the schedule itself does not.)
///
/// Infallible by construction: registry errors and panics raised at
/// dispatch (e.g. injected via [`jigsaw_core::fault`]) fail that
/// batch's members with a typed [`SimFailure`] instead of aborting the
/// run, expired queue entries are shed, and an open per-model circuit
/// breaker fast-rejects at admission — so every request in the
/// schedule reaches exactly one terminal state.
///
/// Assembly-mode neutral: the registry's per-model `ExecOptions`
/// (including the fused-assembly opt-in) ride along untouched, but the
/// virtual clock charges only simulated device cycles — host-side
/// assembly cost is a real-`Server` (and `exp serving`) concern, so a
/// schedule simulates identically under either assembly mode.
pub fn simulate_schedule(
    registry: &ModelRegistry,
    schedule: &[SimRequest],
    cfg: &SimConfig,
) -> SimReport {
    assert!(cfg.max_batch_n >= 1 && cfg.max_batch_requests >= 1);
    let mut order: Vec<&SimRequest> = schedule.iter().collect();
    order.sort_by(|a, b| {
        a.arrival_cycle
            .partial_cmp(&b.arrival_cycle)
            .expect("finite arrivals")
            .then(a.id.cmp(&b.id))
    });

    let mut queues: BTreeMap<String, VecDeque<&SimRequest>> = BTreeMap::new();
    let mut breakers: BTreeMap<String, CircuitBreaker> = BTreeMap::new();
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut free_at = 0.0f64;
    let mut busy_cycles = 0.0f64;
    let mut makespan = 0.0f64;
    let mut metrics = ServeMetrics::default();
    let mut completions = Vec::with_capacity(order.len());
    let mut failures: Vec<SimFailure> = Vec::new();
    let mut rejected_ids: Vec<usize> = Vec::new();

    loop {
        // Admit everything that has arrived by `now`. A model whose
        // breaker is open fast-rejects instead of queuing behind a
        // failing backend.
        while next_arrival < order.len() && order[next_arrival].arrival_cycle <= now {
            let req = order[next_arrival];
            next_arrival += 1;
            if let Some(br) = breakers.get_mut(&req.model) {
                if let BreakerAdmit::Reject { .. } = br.admit(now) {
                    metrics.rejected += 1;
                    metrics.breaker_rejects += 1;
                    rejected_ids.push(req.id);
                    continue;
                }
            }
            queues.entry(req.model.clone()).or_default().push_back(req);
            metrics.submitted += 1;
        }
        let depth: usize = queues.values().map(|q| q.len()).sum();
        metrics.peak_queue_depth = metrics.peak_queue_depth.max(depth);

        // Nothing queued: jump to the next arrival, or finish.
        if depth == 0 {
            match order.get(next_arrival) {
                Some(req) => {
                    now = now.max(req.arrival_cycle);
                    continue;
                }
                None => break,
            }
        }

        // Oldest head goes first (model name breaks exact ties).
        let model = queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .min_by(|(na, qa), (nb, qb)| {
                let (a, b) = (
                    qa.front().expect("non-empty"),
                    qb.front().expect("non-empty"),
                );
                a.arrival_cycle
                    .partial_cmp(&b.arrival_cycle)
                    .expect("finite arrivals")
                    .then(a.id.cmp(&b.id))
                    .then(na.cmp(nb))
            })
            .map(|(name, _)| name.clone())
            .expect("depth > 0");
        let q = queues.get_mut(&model).expect("chosen above");

        // Is the batch already full from what is queued?
        let mut queued_n = 0usize;
        let mut queued_reqs = 0usize;
        for p in q.iter() {
            if queued_reqs + 1 > cfg.max_batch_requests
                || (queued_reqs > 0 && queued_n + p.n > cfg.max_batch_n)
            {
                break;
            }
            queued_reqs += 1;
            queued_n += p.n;
        }
        let full = queued_reqs >= cfg.max_batch_requests
            || queued_n >= cfg.max_batch_n
            || queued_reqs == q.len() && next_arrival >= order.len();
        let head = *q.front().expect("non-empty");
        // The batching window never outlives the head's deadline: close
        // it early so a deadline-carrying head dispatches just in time
        // rather than being shed while waiting for co-riders.
        let head_deadline = head
            .deadline_cycles
            .map_or(f64::INFINITY, |d| head.arrival_cycle + d);
        let window_closes = (head.arrival_cycle + cfg.max_wait_cycles).min(head_deadline);
        let dispatch_at = if full {
            now.max(free_at)
        } else {
            now.max(free_at).max(window_closes)
        };

        // A future arrival before the dispatch instant may join (or
        // overfill) the batch — advance the clock and re-decide.
        if let Some(next) = order.get(next_arrival) {
            if next.arrival_cycle <= dispatch_at {
                now = next.arrival_cycle;
                continue;
            }
        }

        // Dispatch: shed expired entries, then pop whole requests
        // while they fit. Expiry is strict (`dispatch_at > deadline`):
        // a head whose window was clamped to its deadline dispatches
        // exactly at the edge and is served.
        let mut members = Vec::new();
        let mut total_n = 0usize;
        while let Some(front) = q.front() {
            let expired = front
                .deadline_cycles
                .is_some_and(|d| dispatch_at > front.arrival_cycle + d);
            if expired {
                let req = q.pop_front().expect("front exists");
                metrics.shed_expired += 1;
                failures.push(SimFailure {
                    id: req.id,
                    model: model.clone(),
                    arrival_cycle: req.arrival_cycle,
                    cycle: dispatch_at,
                    error: ServeError::DeadlineExceeded,
                });
                continue;
            }
            if members.len() + 1 > cfg.max_batch_requests
                || (!members.is_empty() && total_n + front.n > cfg.max_batch_n)
            {
                break;
            }
            total_n += front.n;
            members.push(q.pop_front().expect("front exists"));
        }
        if q.is_empty() {
            queues.remove(&model);
        }
        if members.is_empty() {
            // Everything at the head had expired; re-decide at the
            // shedding instant.
            now = dispatch_at;
            continue;
        }

        // A fetch failure (or a panic escaping it — injected faults
        // included) fails the whole batch with a typed terminal state,
        // trips the model's breaker once, and keeps the run alive.
        let fetched = catch_unwind(AssertUnwindSafe(|| registry.fetch(&model)));
        let (planned, fetch) = match fetched {
            Ok(Ok(pair)) => pair,
            other => {
                let error = match other {
                    Ok(Err(e)) => ServeError::Registry(e.to_string()),
                    _ => ServeError::WorkerPanic,
                };
                if matches!(error, ServeError::WorkerPanic) {
                    metrics.worker_panics += 1;
                }
                for req in members {
                    metrics.failed += 1;
                    failures.push(SimFailure {
                        id: req.id,
                        model: model.clone(),
                        arrival_cycle: req.arrival_cycle,
                        cycle: dispatch_at,
                        error: error.clone(),
                    });
                }
                breakers
                    .entry(model.clone())
                    .or_insert_with(|| CircuitBreaker::new(cfg.breaker))
                    .on_failure(dispatch_at);
                now = dispatch_at;
                makespan = makespan.max(dispatch_at);
                continue;
            }
        };
        let cold_cycles = if cfg.charge_cold_fetch && fetch.is_cold() {
            planned.plan_host_ns as f64 * cfg.spec.clock_ghz
        } else {
            0.0
        };
        let (kernel, _) = planned.simulate_memoized(total_n, &cfg.spec);
        let batch_cycles = cold_cycles + kernel.duration_cycles;
        let finish = dispatch_at + batch_cycles;
        free_at = finish;
        now = dispatch_at;
        busy_cycles += batch_cycles;
        makespan = makespan.max(finish);

        metrics.batches += 1;
        metrics.batch_requests_total += members.len() as u64;
        metrics.batch_n_total += total_n as u64;
        metrics.device_cycles += batch_cycles;
        for req in members.iter() {
            let share = batch_cycles * req.n as f64 / total_n as f64;
            metrics.completed += 1;
            metrics.latency_cycles.record(finish - req.arrival_cycle);
            completions.push(SimCompletion {
                id: req.id,
                model: model.clone(),
                arrival_cycle: req.arrival_cycle,
                dispatch_cycle: dispatch_at,
                finish_cycle: finish,
                batch_requests: members.len(),
                batch_n: total_n,
                charged_cycles: share,
                cold: fetch.is_cold(),
            });
        }
        if let Some(br) = breakers.get_mut(&model) {
            br.on_success();
        }
    }

    metrics.breakers_open = breakers
        .values_mut()
        .map(|b| b.state(makespan))
        .filter(|s| *s != BreakerState::Closed)
        .count() as u64;
    SimReport {
        completions,
        failures,
        rejected_ids,
        metrics,
        busy_cycles,
        makespan_cycles: makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, RegistryConfig};
    use crate::zoo::default_zoo;

    fn registry() -> ModelRegistry {
        let reg = ModelRegistry::new(RegistryConfig::default()).unwrap();
        for m in default_zoo(60).into_iter().take(2) {
            reg.register(&m.name, m.weights(), m.config);
        }
        reg
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

    #[test]
    fn batched_coalesces_and_beats_unbatched() {
        let reg = registry();
        reg.warm_all().unwrap();
        let schedule = burst("attention-small", 16, 16, 100.0);
        let spec = GpuSpec::a100();
        let batched = simulate_schedule(
            &reg,
            &schedule,
            &SimConfig::batched(spec.clone(), 256, 50_000.0),
        );
        let unbatched = simulate_schedule(&reg, &schedule, &SimConfig::unbatched(spec));
        assert_eq!(batched.completions.len(), 16);
        assert_eq!(unbatched.completions.len(), 16);
        assert!(unbatched.metrics.batches == 16, "one kernel per request");
        assert!(batched.metrics.batches < 16, "requests were coalesced");
        assert!(
            batched.makespan_cycles < unbatched.makespan_cycles,
            "batched {} vs unbatched {}",
            batched.makespan_cycles,
            unbatched.makespan_cycles
        );
        assert!(batched.requests_per_gcycle() > unbatched.requests_per_gcycle());
    }

    #[test]
    fn schedule_is_deterministic() {
        let reg = registry();
        reg.warm_all().unwrap();
        let mut schedule = burst("attention-small", 8, 8, 5_000.0);
        schedule.extend(
            burst("embedding-proj", 8, 8, 7_000.0)
                .into_iter()
                .map(|mut r| {
                    r.id += 100;
                    r
                }),
        );
        let cfg = SimConfig::batched(GpuSpec::a100(), 64, 20_000.0);
        let a = simulate_schedule(&reg, &schedule, &cfg);
        let b = simulate_schedule(&reg, &schedule, &cfg);
        let key = |r: &SimReport| -> Vec<(usize, u64, u64)> {
            r.completions
                .iter()
                .map(|c| (c.id, c.dispatch_cycle.to_bits(), c.finish_cycle.to_bits()))
                .collect()
        };
        assert_eq!(key(&a), key(&b), "bit-identical schedules");
        assert_eq!(a.makespan_cycles.to_bits(), b.makespan_cycles.to_bits());
    }

    #[test]
    fn cold_fetch_charges_the_timeline() {
        let schedule = burst("attention-small", 4, 8, 1_000.0);
        let cfg = SimConfig::batched(GpuSpec::a100(), 64, 10_000.0);

        let cold_reg = registry();
        let cold = simulate_schedule(&cold_reg, &schedule, &cfg);
        let warm_reg = registry();
        warm_reg.warm_all().unwrap();
        let warm = simulate_schedule(&warm_reg, &schedule, &cfg);
        assert!(cold.completions.iter().any(|c| c.cold));
        assert!(warm.completions.iter().all(|c| !c.cold));
        assert!(
            cold.makespan_cycles > warm.makespan_cycles,
            "cold start stalls the timeline"
        );
    }

    #[test]
    fn window_delays_dispatch_until_full_or_expired() {
        let reg = registry();
        reg.warm_all().unwrap();
        // Two requests 1000 cycles apart, window 5000: one batch.
        let schedule = burst("attention-small", 2, 8, 1_000.0);
        let joined = simulate_schedule(
            &reg,
            &schedule,
            &SimConfig::batched(GpuSpec::a100(), 64, 5_000.0),
        );
        assert_eq!(joined.metrics.batches, 1);
        // Window 10 cycles: the second request misses the batch.
        let split = simulate_schedule(
            &reg,
            &schedule,
            &SimConfig::batched(GpuSpec::a100(), 64, 10.0),
        );
        assert_eq!(split.metrics.batches, 2);
    }

    #[test]
    fn expired_requests_are_shed_and_conserved() {
        let reg = registry();
        reg.warm_all().unwrap();
        // Back-to-back arrivals: the first batch occupies the device
        // long enough that tight-deadline stragglers expire in queue.
        let mut schedule = burst("attention-small", 6, 32, 10.0);
        for r in schedule.iter_mut().skip(2) {
            r.deadline_cycles = Some(50.0);
        }
        let report = simulate_schedule(
            &reg,
            &schedule,
            &SimConfig::batched(GpuSpec::a100(), 32, 0.0),
        );
        assert!(report.metrics.shed_expired > 0, "stragglers were shed");
        assert!(report
            .failures
            .iter()
            .all(|f| f.error == ServeError::DeadlineExceeded));
        assert!(
            report.metrics.conserves(),
            "admitted = done + failed + shed"
        );
        assert_eq!(
            report.completions.len() + report.failures.len(),
            schedule.len(),
            "every request reached a terminal state"
        );
    }

    #[test]
    fn unknown_model_fails_batch_and_opens_breaker() {
        let reg = registry();
        let schedule = burst("no-such-model", 12, 8, 10_000.0);
        let report = simulate_schedule(&reg, &schedule, &SimConfig::unbatched(GpuSpec::a100()));
        assert_eq!(report.completions.len(), 0);
        assert!(report.metrics.failed > 0, "typed failures, no abort");
        assert!(
            report.metrics.rejected > 0,
            "breaker opened and fast-rejected later arrivals"
        );
        assert!(report
            .failures
            .iter()
            .all(|f| matches!(f.error, ServeError::Registry(_))));
        assert!(report.metrics.conserves());
        assert_eq!(
            report.completions.len() + report.failures.len() + report.rejected_ids.len(),
            schedule.len()
        );
    }
}
