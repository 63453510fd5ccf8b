//! Per-device policy and per-request records of the deterministic
//! virtual-clock serving simulation. Two runs over the same schedule
//! produce identical reports — this is what the `serving` experiment
//! sweeps, so its batched-vs-unbatched and warm-vs-cold comparisons are
//! reproducible.
//!
//! There is one serving event loop, [`crate::shard::simulate_sharded`];
//! a single device is its one-shard case (`ShardConfig::new(1)`). It
//! batches with the same work-conserving rule the threaded
//! [`crate::server`] calls ([`crate::batch::pop_batch`]): a free device
//! dispatches the oldest queued head at once and takes every queued
//! request that fits.
//!
//! Cold fetches (planning or artifact loads) always charge their
//! measured host time to the virtual timeline, converted at the device
//! clock — the end-to-end cost a cold-start request actually pays.

use gpu_sim::GpuSpec;

use crate::breaker::BreakerConfig;
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
    /// Per-model circuit breaker, on the cycle clock.
    pub breaker: BreakerConfig,
}

impl SimConfig {
    /// The batched policy: up to `max_batch_n` columns per batch.
    pub fn batched(spec: GpuSpec, max_batch_n: usize) -> SimConfig {
        SimConfig {
            spec,
            max_batch_n,
            max_batch_requests: usize::MAX,
            breaker: BreakerConfig::cycles(),
        }
    }

    /// One request per kernel.
    pub fn unbatched(spec: GpuSpec) -> SimConfig {
        SimConfig {
            spec,
            max_batch_n: usize::MAX,
            max_batch_requests: 1,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate_schedule, LoadSpec};
    use crate::metrics::ServeMetrics;
    use crate::registry::{ModelRegistry, RegistryConfig};
    use crate::shard::{simulate_sharded, ShardConfig, ShardSimConfig, ShardSimReport};
    use crate::zoo::default_zoo;

    /// One simulated device: the one-shard case of [`simulate_sharded`].
    fn simulate(reg: &ModelRegistry, schedule: &[SimRequest], cfg: &SimConfig) -> ShardSimReport {
        let cfg = ShardSimConfig::new(ShardConfig::new(1), cfg.clone());
        simulate_sharded(reg, schedule, &cfg)
    }

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
        let batched = simulate(&reg, &schedule, &SimConfig::batched(spec.clone(), 256));
        let unbatched = simulate(&reg, &schedule, &SimConfig::unbatched(spec));
        assert_eq!(batched.completions.len(), 16);
        assert_eq!(unbatched.completions.len(), 16);
        assert!(unbatched.totals.batches == 16, "one kernel per request");
        assert!(batched.totals.batches < 16, "requests were coalesced");
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
        let cfg = SimConfig::batched(GpuSpec::a100(), 64);
        let a = simulate(&reg, &schedule, &cfg);
        let b = simulate(&reg, &schedule, &cfg);
        let key = |r: &ShardSimReport| -> Vec<(usize, u64, u64)> {
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
        let cfg = SimConfig::batched(GpuSpec::a100(), 64);

        let cold_reg = registry();
        let cold = simulate(&cold_reg, &schedule, &cfg);
        let warm_reg = registry();
        warm_reg.warm_all().unwrap();
        let warm = simulate(&warm_reg, &schedule, &cfg);
        assert!(cold.completions.iter().any(|c| c.cold));
        assert!(warm.completions.iter().all(|c| !c.cold));
        assert!(
            cold.makespan_cycles > warm.makespan_cycles,
            "cold start stalls the timeline"
        );
    }

    #[test]
    fn idle_device_dispatches_at_arrival_and_busy_device_coalesces() {
        let reg = registry();
        reg.warm_all().unwrap();
        let cfg = SimConfig::batched(GpuSpec::a100(), 64);
        // Two requests far apart: each finds the device idle and
        // dispatches the cycle it arrives, alone.
        let apart = burst("attention-small", 2, 8, 1e7);
        let report = simulate(&reg, &apart, &cfg);
        for (c, r) in report.completions.iter().zip(&apart) {
            assert_eq!((c.dispatch_cycle, c.batch_requests), (r.arrival_cycle, 1));
        }
        // Four requests 100 cycles apart: the first dispatches at once,
        // and the three that arrive while its kernel runs share the
        // next batch, dispatched the cycle the device frees up.
        let schedule = burst("attention-small", 4, 8, 100.0);
        let report = simulate(&reg, &schedule, &cfg);
        assert_eq!(report.totals.batches, 2);
        let (head, rest) = report.completions.split_first().unwrap();
        assert_eq!((head.dispatch_cycle, head.batch_requests), (0.0, 1));
        for c in rest {
            assert_eq!(c.dispatch_cycle, head.finish_cycle, "dispatched when free");
            assert_eq!(c.batch_requests, 3, "queued requests rode together");
        }
    }

    /// Work conservation: over seeded schedules at light, heavy and
    /// saturating load, every batch dispatches at the later of the
    /// previous batch's finish and its oldest member's arrival — the
    /// device never idles while a request waits — and the ledger
    /// conserves.
    #[test]
    fn device_never_idles_while_a_request_waits() {
        let reg = registry();
        reg.warm_all().unwrap();
        let zoo: Vec<_> = default_zoo(60).into_iter().take(2).collect();
        let cfg = SimConfig::batched(GpuSpec::a100(), 64);
        for seed in [1, 7, 42] {
            for gap in [20_000.0, 2_000.0, 200.0] {
                let load = LoadSpec {
                    requests: 120,
                    seed,
                    n_choices: vec![8, 16, 32],
                    mean_gap_cycles: gap,
                };
                let schedule = generate_schedule(&zoo, &load);
                let report = simulate(&reg, &schedule, &cfg);
                assert!(report.totals.conserves(), "seed {seed} gap {gap}");
                assert_eq!(report.completions.len(), schedule.len());
                // On one device, dispatch instants are distinct: group
                // completions into batches by them, in dispatch order.
                let mut batches: Vec<(f64, f64, f64)> = Vec::new();
                for c in &report.completions {
                    match batches.last_mut() {
                        Some(b) if b.0 == c.dispatch_cycle => b.2 = b.2.min(c.arrival_cycle),
                        _ => batches.push((c.dispatch_cycle, c.finish_cycle, c.arrival_cycle)),
                    }
                }
                assert_eq!(batches.len() as u64, report.totals.batches);
                let mut free_at = 0.0f64;
                for &(dispatch, finish, oldest) in &batches {
                    assert_eq!(
                        dispatch,
                        free_at.max(oldest),
                        "seed {seed} gap {gap}: device idled while a request waited"
                    );
                    free_at = finish;
                }
            }
        }
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
        let report = simulate(&reg, &schedule, &SimConfig::batched(GpuSpec::a100(), 32));
        assert!(report.totals.shed_expired > 0, "stragglers were shed");
        assert!(report
            .failures
            .iter()
            .all(|f| f.error == ServeError::DeadlineExceeded));
        assert!(report.totals.conserves(), "admitted = done + failed + shed");
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
        let report = simulate(&reg, &schedule, &SimConfig::unbatched(GpuSpec::a100()));
        assert_eq!(report.completions.len(), 0);
        assert!(report.totals.failed > 0, "typed failures, no abort");
        assert!(
            report.totals.rejected > 0,
            "breaker opened and fast-rejected later arrivals"
        );
        assert!(report
            .failures
            .iter()
            .all(|f| matches!(f.error, ServeError::Registry(_))));
        assert!(report.totals.conserves());
        assert_eq!(
            report.completions.len() + report.failures.len() + report.rejected_ids.len(),
            schedule.len()
        );
    }

    /// A one-shard run's totals are its single lane's counters, and its
    /// cluster histogram holds one latency sample per completion — so a
    /// single-device caller may read either.
    #[test]
    fn one_shard_totals_match_its_lane() {
        let reg = registry();
        reg.warm_all().unwrap();
        // Served, shed (tight deadlines behind a long batch) and failed
        // plus breaker-rejected (an unknown model) requests, so every
        // counter below moves.
        let mut schedule = burst("attention-small", 12, 32, 10.0);
        for r in schedule.iter_mut().skip(2).step_by(3) {
            r.deadline_cycles = Some(50.0);
        }
        schedule.extend(
            burst("no-such-model", 12, 8, 10_000.0)
                .into_iter()
                .map(|mut r| {
                    r.id += 100;
                    r
                }),
        );
        let report = simulate(&reg, &schedule, &SimConfig::batched(GpuSpec::a100(), 64));
        let [lane] = &report.lanes[..] else {
            panic!("one lane per shard");
        };
        let counters = |m: &ServeMetrics| {
            [
                m.submitted,
                m.completed,
                m.rejected,
                m.breaker_rejects,
                m.failed,
                m.shed_expired,
                m.worker_panics,
                m.breakers_open,
                m.batches,
                m.batch_requests_total,
                m.batch_n_total,
                m.peak_queue_depth as u64,
                m.queue_depth as u64,
                m.device_cycles.to_bits(),
            ]
        };
        assert_eq!(counters(&report.totals), counters(&lane.metrics));
        assert_eq!(
            lane.busy_cycles.to_bits(),
            report.totals.device_cycles.to_bits()
        );
        let m = &report.totals;
        assert!(m.completed > 0 && m.shed_expired > 0 && m.failed > 0 && m.rejected > 0);
        let done = report.completions.len();
        assert_eq!(done as u64, m.completed);
        assert_eq!(
            report.latency_cycles.len(),
            done,
            "one sample per completion"
        );
        assert_eq!(lane.metrics.latency_cycles.len(), done);
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(
                report.latency_cycles.percentile(p).to_bits(),
                lane.metrics.latency_cycles.percentile(p).to_bits()
            );
        }
    }
}
