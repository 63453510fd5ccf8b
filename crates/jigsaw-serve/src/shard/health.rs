//! Per-shard health scoring with outlier ejection and probed
//! re-admission.
//!
//! [`crate::breaker::CircuitBreaker`] answers "is this *model* failing
//! outright"; this module answers "is this *shard* degrading" — the
//! gray-failure case where a shard still completes work but slower (or
//! flakier) than its peers, quietly setting the fleet's p99. Each shard
//! keeps a [`ShardHealth`] fed by completion/failure events; when its
//! EWMA latency or failure rate crosses the configured bounds it is
//! **ejected** and placement steers traffic to other live replicas.
//! Ejection decays on a probe window: after `probe_window` clock units
//! one request is admitted as a probe, and a healthy-looking completion
//! re-admits the shard (DESIGN.md §17).
//!
//! Health scoring runs in the virtual-clock [`crate::shard::sim`] only,
//! which feeds it cycles through its placement state; the threaded
//! router builds its placement with scoring off. Like the breaker, the
//! clock is an abstract `f64` and nothing here reads a clock of its
//! own. Not internally synchronized.

use crate::metrics::count;

/// Health-scoring policy, in the simulator's cycles.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Master switch. Disabled scorers admit everything and record
    /// nothing, so a run without health scoring places every request
    /// as if the scorers did not exist.
    pub enabled: bool,
    /// EWMA smoothing factor for latency and failure rate, in (0, 1].
    /// Higher reacts faster; lower rides out noise.
    pub alpha: f64,
    /// Completions to observe before the scorer may eject — a cold
    /// shard's first slow request is not an outlier.
    pub min_samples: u64,
    /// Eject when EWMA latency exceeds this multiple of the fleet
    /// baseline latency the placement state reports via
    /// [`ShardHealth::observe_baseline`].
    pub latency_factor: f64,
    /// Eject when the EWMA failure rate (failures weighted 1.0,
    /// successes 0.0) exceeds this fraction.
    pub failure_rate: f64,
    /// Clock units an ejected shard sits out before one probe request
    /// is re-admitted.
    pub probe_window: f64,
}

impl HealthConfig {
    /// Scoring disabled: every shard always admits.
    pub fn disabled() -> HealthConfig {
        HealthConfig {
            enabled: false,
            alpha: 0.2,
            min_samples: 16,
            latency_factor: 3.0,
            failure_rate: 0.5,
            probe_window: 1.0,
        }
    }

    /// Defaults for the device-cycle clock: α=0.2, 16 warmup samples,
    /// eject at 3× fleet latency or 50% failures, probe after 500k
    /// cycles.
    pub fn cycles() -> HealthConfig {
        HealthConfig {
            enabled: true,
            alpha: 0.2,
            min_samples: 16,
            latency_factor: 3.0,
            failure_rate: 0.5,
            probe_window: 500_000.0,
        }
    }
}

/// Routing decision for one shard at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Healthy (or still warming up): route normally.
    Admitted,
    /// Ejected and inside the probe window: steer traffic away.
    Ejected,
    /// Probe window elapsed: admit exactly one request as a probe.
    Probing,
}

/// One shard's health scorer.
#[derive(Clone, Debug)]
pub struct ShardHealth {
    cfg: HealthConfig,
    /// EWMA of completion latency, caller clock units. NaN until the
    /// first completion.
    ewma_latency: f64,
    /// EWMA of the failure indicator (1.0 = failed, 0.0 = completed).
    ewma_failures: f64,
    /// Latest fleet-baseline latency the placement state reported.
    baseline: f64,
    samples: u64,
    ejected: bool,
    /// When the current ejection admits a probe.
    probe_at: f64,
    /// A probe is in flight; stay ejected until it reports.
    probing: bool,
    ejections: u64,
}

impl ShardHealth {
    /// A fresh, admitted scorer.
    pub fn new(cfg: HealthConfig) -> ShardHealth {
        ShardHealth {
            cfg,
            ewma_latency: f64::NAN,
            ewma_failures: 0.0,
            baseline: f64::NAN,
            samples: 0,
            ejected: false,
            probe_at: 0.0,
            probing: false,
            ejections: 0,
        }
    }

    /// EWMA completion latency in caller clock units (NaN before the
    /// first completion).
    pub fn ewma_latency(&self) -> f64 {
        self.ewma_latency
    }

    /// How many times this shard has been ejected so far.
    #[cfg(test)]
    pub fn ejections(&self) -> u64 {
        self.ejections
    }

    /// Tells the scorer the fleet's current baseline latency (e.g. the
    /// median of peer EWMAs). Ejection compares against this, so a
    /// uniformly slow fleet ejects nobody.
    pub fn observe_baseline(&mut self, baseline: f64) {
        if baseline.is_finite() && baseline > 0.0 {
            self.baseline = baseline;
        }
    }

    /// Routing state at `now`, advancing Ejected → Probing once the
    /// probe window elapses.
    pub fn state(&self, now: f64) -> HealthState {
        if !self.cfg.enabled || !self.ejected {
            return HealthState::Admitted;
        }
        if !self.probing && now >= self.probe_at {
            return HealthState::Probing;
        }
        HealthState::Ejected
    }

    /// Whether placement should send this shard traffic at `now`. A
    /// `true` from the Probing state consumes the probe slot —
    /// followers see `Ejected` until the probe reports back through
    /// [`on_success`](ShardHealth::on_success) /
    /// [`on_failure`](ShardHealth::on_failure).
    pub fn admit(&mut self, now: f64) -> bool {
        match self.state(now) {
            HealthState::Admitted => true,
            HealthState::Probing => {
                self.probing = true;
                true
            }
            HealthState::Ejected => false,
        }
    }

    /// Records a completion with the given latency at `now`. Returns
    /// `true` if this event changed the ejection status (either way).
    pub fn on_success(&mut self, now: f64, latency: f64) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        self.fold(latency.max(0.0), 0.0);
        self.settle(now)
    }

    /// Records a failure at `now`. Failures carry no latency sample —
    /// only the failure-rate EWMA moves. Returns `true` if the
    /// ejection status changed.
    pub fn on_failure(&mut self, now: f64) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        self.fold(f64::NAN, 1.0);
        self.settle(now)
    }

    /// Records one outcome at `now` — `Some(latency)` for a success,
    /// `None` for a failure — and counts the status change it causes
    /// on `health.ejections` / `health.readmissions`. Returns 1 if the
    /// outcome ejected the shard, else 0.
    pub(crate) fn record(&mut self, now: f64, latency: Option<f64>) -> u64 {
        let before = self.ejections;
        let changed = match latency {
            Some(l) => self.on_success(now, l),
            None => self.on_failure(now),
        };
        if !changed {
            return 0;
        }
        let ejected = self.ejections > before;
        count(if ejected {
            "health.ejections"
        } else {
            "health.readmissions"
        });
        u64::from(ejected)
    }

    fn fold(&mut self, latency: f64, failed: f64) {
        let a = self.cfg.alpha;
        if latency.is_finite() {
            self.ewma_latency = if self.ewma_latency.is_nan() {
                latency
            } else {
                (1.0 - a) * self.ewma_latency + a * latency
            };
        }
        self.ewma_failures = (1.0 - a) * self.ewma_failures + a * failed;
        self.samples = self.samples.saturating_add(1);
    }

    /// Re-evaluates ejection after an event folded in.
    fn settle(&mut self, now: f64) -> bool {
        let was = self.ejected;
        let outlier = self.is_outlier();
        if self.ejected {
            // Any event here is the probe (or a straggler completion)
            // reporting back: re-admit only if the EWMAs have recovered.
            self.probing = false;
            if outlier {
                self.probe_at = now + self.cfg.probe_window;
            } else {
                self.ejected = false;
            }
        } else if self.samples >= self.cfg.min_samples && outlier {
            self.ejected = true;
            self.probing = false;
            self.probe_at = now + self.cfg.probe_window;
            self.ejections += 1;
        }
        self.ejected != was
    }

    fn is_outlier(&self) -> bool {
        if self.ewma_failures > self.cfg.failure_rate {
            return true;
        }
        self.baseline.is_finite()
            && self.ewma_latency.is_finite()
            && self.ewma_latency > self.cfg.latency_factor * self.baseline
    }
}

/// The fleet baseline fed back into each scorer: the median of the
/// finite per-shard EWMA latencies. Median (not mean) so one straggler
/// cannot drag the baseline up and mask itself.
pub fn fleet_baseline(ewmas: &[f64]) -> f64 {
    let mut finite: Vec<f64> = ewmas.iter().copied().filter(|l| l.is_finite()).collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    finite.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies compare"));
    finite[finite.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            enabled: true,
            alpha: 0.5,
            min_samples: 4,
            latency_factor: 3.0,
            failure_rate: 0.5,
            probe_window: 100.0,
        }
    }

    #[test]
    fn disabled_scorer_never_ejects() {
        let mut h = ShardHealth::new(HealthConfig::disabled());
        h.observe_baseline(10.0);
        for t in 0..64 {
            h.on_success(t as f64, 1_000_000.0);
        }
        assert!(h.admit(64.0));
        assert_eq!(h.ejections(), 0);
    }

    #[test]
    fn slow_outlier_is_ejected_after_warmup() {
        let mut h = ShardHealth::new(cfg());
        h.observe_baseline(10.0);
        // Below min_samples nothing happens, however slow.
        for t in 0..3 {
            assert!(!h.on_success(t as f64, 500.0));
            assert!(h.admit(t as f64));
        }
        // The 4th slow completion crosses min_samples and ejects.
        assert!(h.on_success(3.0, 500.0));
        assert!(!h.admit(4.0), "ejected shard refuses traffic");
        assert_eq!(h.ejections(), 1);
    }

    #[test]
    fn uniformly_slow_fleet_ejects_nobody() {
        let mut h = ShardHealth::new(cfg());
        // No baseline observed: latency alone can't eject.
        for t in 0..32 {
            h.on_success(t as f64, 1_000_000.0);
        }
        assert!(h.admit(32.0));
    }

    #[test]
    fn failure_storm_ejects_without_latency_samples() {
        let mut h = ShardHealth::new(cfg());
        for t in 0..3 {
            h.on_failure(t as f64);
        }
        assert!(h.on_failure(3.0), "4th failure crosses min_samples");
        assert!(!h.admit(4.0));
    }

    #[test]
    fn probe_readmits_a_recovered_shard() {
        let mut h = ShardHealth::new(cfg());
        h.observe_baseline(10.0);
        for t in 0..4 {
            h.on_success(t as f64, 500.0);
        }
        assert!(!h.admit(5.0));
        // Probe window not yet elapsed.
        assert!(!h.admit(50.0));
        // Window elapsed: exactly one probe is admitted; followers
        // stay ejected until it reports.
        assert!(h.admit(104.0));
        assert!(!h.admit(105.0));
        // Fast probe completions pull the EWMA back under 3× baseline
        // (α=0.5 halves the gap per sample); the shard re-admits once
        // recovered.
        let mut now = 106.0;
        while !h.on_success(now, 10.0) {
            now += h.cfg.probe_window;
            assert!(h.admit(now), "next probe admitted after the window");
            now += 1.0;
        }
        assert!(h.admit(now), "recovered shard admits traffic");
    }

    #[test]
    fn failed_probe_extends_the_ejection() {
        let mut h = ShardHealth::new(cfg());
        h.observe_baseline(10.0);
        for t in 0..4 {
            h.on_success(t as f64, 500.0);
        }
        assert!(h.admit(104.0), "probe admitted");
        // The probe itself straggles: stay ejected, window re-arms.
        h.on_success(105.0, 500.0);
        assert!(!h.admit(106.0));
        assert!(!h.admit(204.0), "window re-anchored at the failed probe");
        assert!(h.admit(206.0), "next probe after the fresh window");
    }

    #[test]
    fn fleet_baseline_is_the_median() {
        assert!(fleet_baseline(&[]).is_nan());
        assert!(fleet_baseline(&[f64::NAN]).is_nan());
        let b = fleet_baseline(&[10.0, f64::NAN, 5_000.0, 12.0]);
        assert!((b - 12.0).abs() < 1e-9);
    }
}
