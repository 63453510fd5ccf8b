//! Serving metrics: counters, exact-percentile latency histograms, and
//! a text report in the style of `gpu_sim`'s Nsight-like sections.

use std::fmt::Write as _;

use crate::registry::CacheStats;

/// Bumps the named global obs counter when recording is on.
pub(crate) fn count(name: &str) {
    if jigsaw_obs::enabled() {
        jigsaw_obs::global().counter(name).inc();
    }
}

/// Nearest-rank quantile of the ascending, non-empty `sorted`, `q` in
/// [0, 1]: the sample at rank `⌈q·len⌉`, clamped to `[1, len]`.
pub(crate) fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact-percentile sample store. Serving runs are bounded (thousands
/// of requests), so keeping every sample and computing nearest-rank
/// percentiles exactly is cheaper than being clever.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank percentile, `p` in [0, 100]. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        nearest_rank(&sorted, p / 100.0)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }
}

/// Aggregated serving metrics for one run.
#[derive(Clone, Debug, Default)]
pub struct ServeMetrics {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected at admission (backpressure, bad dims, open
    /// breaker, …) — never admitted, so outside the conservation sum.
    pub rejected: u64,
    /// Admitted requests that terminated with an error (registry
    /// failure, worker panic).
    pub failed: u64,
    /// Admitted requests shed from the queue because their deadline
    /// expired before dispatch.
    pub shed_expired: u64,
    /// Worker panics caught and recovered (the worker re-entered its
    /// loop; every in-flight ticket was failed, not hung).
    pub worker_panics: u64,
    /// Queue depth at snapshot time (filled by `Server::metrics`;
    /// stays 0 inside the worker-held copy and in final reports, where
    /// the queues have drained).
    pub queue_depth: usize,
    /// Models whose circuit breaker is not Closed at snapshot time
    /// (filled by `Server::metrics` / the simulator).
    pub breakers_open: u64,
    /// Requests fast-rejected at admission because a circuit breaker
    /// was open (a subset of `rejected`). The shard router attributes
    /// these to the owning shard.
    pub breaker_rejects: u64,
    /// Batches executed.
    pub batches: u64,
    /// Σ requests over all batches (occupancy numerator).
    pub batch_requests_total: u64,
    /// Σ B columns over all batches.
    pub batch_n_total: u64,
    /// Largest total queue depth observed at admission.
    pub peak_queue_depth: usize,
    /// Total simulated device cycles spent executing batches
    /// (including cold planning charged to the device timeline, when
    /// the caller does so).
    pub device_cycles: f64,
    /// Per-request end-to-end latency in simulated cycles.
    pub latency_cycles: Histogram,
    /// Per-request end-to-end latency in host nanoseconds (threaded
    /// server only; empty in the virtual-clock simulator).
    pub latency_host_ns: Histogram,
}

impl ServeMetrics {
    /// The resilience conservation invariant: every admitted request
    /// reaches exactly one terminal state, so
    /// `submitted = completed + failed + shed_expired`.
    pub fn conserves(&self) -> bool {
        self.submitted == self.completed + self.failed + self.shed_expired
    }

    /// Mean requests coalesced per batch.
    pub fn avg_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_requests_total as f64 / self.batches as f64
        }
    }

    /// Mean B columns per batch.
    pub fn avg_batch_n(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_n_total as f64 / self.batches as f64
        }
    }

    /// Completed requests per 10⁹ simulated device cycles — the
    /// serving experiment's headline throughput number.
    pub fn requests_per_gcycle(&self) -> f64 {
        if self.device_cycles <= 0.0 {
            0.0
        } else {
            self.completed as f64 / (self.device_cycles / 1e9)
        }
    }

    /// Renders the text report, `gpu_sim::ncu_style_report` style.
    pub fn report(&self, name: &str, cache: &CacheStats) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {name} ==");
        out.push_str("  Section: Serving Throughput\n");
        let _ = writeln!(
            out,
            "    Requests admitted           {:>12}",
            self.submitted
        );
        let _ = writeln!(
            out,
            "    Requests completed          {:>12}",
            self.completed
        );
        let _ = writeln!(out, "    Requests rejected           {:>12}", self.rejected);
        let _ = writeln!(
            out,
            "    Device cycles               {:>12.0}",
            self.device_cycles
        );
        let _ = writeln!(
            out,
            "    Throughput                  {:>12.1} req/Gcycle",
            self.requests_per_gcycle()
        );
        out.push_str("  Section: Resilience\n");
        let _ = writeln!(out, "    Requests failed             {:>12}", self.failed);
        let _ = writeln!(
            out,
            "    Requests shed (expired)     {:>12}",
            self.shed_expired
        );
        let _ = writeln!(
            out,
            "    Worker panics recovered     {:>12}",
            self.worker_panics
        );
        let _ = writeln!(
            out,
            "    Queue depth / breakers open {:>12} / {}",
            self.queue_depth, self.breakers_open
        );
        let _ = writeln!(
            out,
            "    Breaker fast-rejects        {:>12}",
            self.breaker_rejects
        );
        out.push_str("  Section: Batching\n");
        let _ = writeln!(out, "    Batches executed            {:>12}", self.batches);
        let _ = writeln!(
            out,
            "    Avg requests per batch      {:>12.2}",
            self.avg_batch_occupancy()
        );
        let _ = writeln!(
            out,
            "    Avg batch N                 {:>12.1}",
            self.avg_batch_n()
        );
        let _ = writeln!(
            out,
            "    Peak queue depth            {:>12}",
            self.peak_queue_depth
        );
        out.push_str("  Section: Latency (simulated cycles)\n");
        let _ = writeln!(
            out,
            "    p50 / p95 / p99             {:>12.0} / {:.0} / {:.0}",
            self.latency_cycles.percentile(50.0),
            self.latency_cycles.percentile(95.0),
            self.latency_cycles.percentile(99.0)
        );
        let _ = writeln!(
            out,
            "    mean / max                  {:>12.0} / {:.0}",
            self.latency_cycles.mean(),
            self.latency_cycles.max()
        );
        if !self.latency_host_ns.is_empty() {
            out.push_str("  Section: Latency (host time)\n");
            let _ = writeln!(
                out,
                "    p50 / p95 / p99             {:>12.1} / {:.1} / {:.1} us",
                self.latency_host_ns.percentile(50.0) / 1e3,
                self.latency_host_ns.percentile(95.0) / 1e3,
                self.latency_host_ns.percentile(99.0) / 1e3
            );
        }
        out.push_str("  Section: Model Cache\n");
        let _ = writeln!(
            out,
            "    Hits / misses               {:>12} / {}",
            cache.hits, cache.misses
        );
        let _ = writeln!(
            out,
            "    Hit rate                    {:>12.1} %",
            100.0 * cache.hit_rate()
        );
        let _ = writeln!(
            out,
            "    Plans / disk loads          {:>12} / {}",
            cache.plans, cache.disk_loads
        );
        let _ = writeln!(
            out,
            "    Evictions                   {:>12}",
            cache.evictions
        );
        let _ = writeln!(
            out,
            "    Resident                    {:>12} models, {} bytes",
            cache.resident_models, cache.resident_bytes
        );
        let _ = writeln!(
            out,
            "    Cold host time              {:>12.2} ms",
            cache.cold_host_ns as f64 / 1e6
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(95.0), 95.0);
        assert_eq!(h.percentile(99.0), 99.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn report_contains_all_sections() {
        let mut m = ServeMetrics {
            submitted: 10,
            completed: 9,
            rejected: 1,
            batches: 3,
            batch_requests_total: 9,
            batch_n_total: 72,
            device_cycles: 1e6,
            ..ServeMetrics::default()
        };
        m.latency_cycles.record(1000.0);
        m.latency_host_ns.record(5_000.0);
        let report = m.report("serve_test", &CacheStats::default());
        for needle in [
            "Serving Throughput",
            "Resilience",
            "Requests shed (expired)",
            "Worker panics recovered",
            "Batching",
            "Latency (simulated cycles)",
            "Latency (host time)",
            "Model Cache",
            "req/Gcycle",
            "Hit rate",
        ] {
            assert!(report.contains(needle), "missing {needle}:\n{report}");
        }
        assert!((m.avg_batch_occupancy() - 3.0).abs() < 1e-9);
        assert!((m.requests_per_gcycle() - 9000.0).abs() < 1e-6);
    }
}
