//! Hedged requests with a token-bucket retry budget.
//!
//! The tail-at-scale move (DESIGN.md §17): when a request has waited
//! past a delay derived from the fleet's recent p95 latency, submit a
//! speculative duplicate to a different replica shard and take
//! whichever completes first. Hedging converts one straggler's latency
//! into a little extra work — so the extra work must be bounded. The
//! [`RetryBudget`] token bucket accrues `budget_fraction` tokens per
//! primary submission (capped at `burst`) and every hedge spends one
//! whole token, which caps amplification at `1 + budget_fraction` of
//! the offered load no matter how hard the tail misbehaves. No tokens,
//! no hedge, no retry storm.
//!
//! Hedging runs in the virtual-clock [`crate::shard::sim`] only: the
//! threaded router builds its placement with hedging off. Latencies
//! and delays are plain `f64` cycles, and the policy contains no clock
//! reads of its own, so the simulator replays hedge decisions
//! bit-identically. Not internally synchronized.

use std::collections::VecDeque;

use crate::metrics::nearest_rank;

/// Hedging policy, in the simulator's cycles.
#[derive(Clone, Copy, Debug)]
pub struct HedgeConfig {
    /// Master switch. Disabled policies never arm a hedge, so a run
    /// without hedging launches no duplicate and spends no token.
    pub enabled: bool,
    /// Latency percentile (0, 1) that sets the hedge delay: a request
    /// older than this quantile of recent completions is hedged.
    pub percentile: f64,
    /// Floor on the hedge delay, so a fast fleet doesn't hedge
    /// everything the moment jitter moves the quantile.
    pub min_delay: f64,
    /// Retry-budget accrual per primary submission (0.1 = hedges may
    /// add at most 10% extra executed work).
    pub budget_fraction: f64,
    /// Token-bucket cap: the largest hedge burst the budget can fund.
    pub burst: f64,
    /// Completion samples required before hedging arms — the quantile
    /// of an empty window is noise, not a signal.
    pub min_samples: usize,
}

impl HedgeConfig {
    /// Hedging disabled.
    pub fn disabled() -> HedgeConfig {
        HedgeConfig {
            enabled: false,
            percentile: 0.95,
            min_delay: 0.0,
            budget_fraction: 0.1,
            burst: 16.0,
            min_samples: 16,
        }
    }

    /// Defaults for the device-cycle clock: hedge past the rolling p95
    /// (≥ 10k cycles), budget 10% extra load, burst 16.
    pub fn cycles() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            percentile: 0.95,
            min_delay: 10_000.0,
            budget_fraction: 0.1,
            burst: 16.0,
            min_samples: 16,
        }
    }
}

/// Token bucket bounding retry/hedge amplification. Accrues
/// `fraction` tokens per primary request, capped at `burst`; a hedge
/// costs one whole token.
#[derive(Clone, Debug)]
pub struct RetryBudget {
    fraction: f64,
    burst: f64,
    tokens: f64,
}

impl RetryBudget {
    /// An empty bucket with the given accrual rate and cap.
    pub fn new(fraction: f64, burst: f64) -> RetryBudget {
        RetryBudget {
            fraction: fraction.max(0.0),
            burst: burst.max(0.0),
            tokens: 0.0,
        }
    }

    /// Tokens currently available.
    #[cfg(test)]
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Accounts one primary submission: the budget grows by the
    /// configured fraction, up to the burst cap.
    pub fn on_primary(&mut self) {
        self.tokens = (self.tokens + self.fraction).min(self.burst);
    }

    /// Tries to fund one hedge. `true` spends a token; `false` leaves
    /// the bucket untouched (the hedge must not happen).
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Bounded window of recent completion latencies; the hedge delay is
/// its nearest-rank percentile.
const LATENCY_WINDOW: usize = 256;

/// One deployment's hedging state: the rolling latency window plus the
/// retry budget, owned by the deployment's placement state.
#[derive(Clone, Debug)]
pub struct HedgePolicy {
    cfg: HedgeConfig,
    window: VecDeque<f64>,
    budget: RetryBudget,
}

impl HedgePolicy {
    /// A fresh policy with an empty window and an empty budget.
    pub fn new(cfg: HedgeConfig) -> HedgePolicy {
        HedgePolicy {
            cfg,
            window: VecDeque::with_capacity(LATENCY_WINDOW.min(1024)),
            budget: RetryBudget::new(cfg.budget_fraction, cfg.burst),
        }
    }

    /// Accounts one primary submission (accrues budget).
    pub fn on_primary(&mut self) {
        if self.cfg.enabled {
            self.budget.on_primary();
        }
    }

    /// Folds one completion latency into the rolling window.
    pub fn record(&mut self, latency: f64) {
        if !self.cfg.enabled || !latency.is_finite() || latency < 0.0 {
            return;
        }
        if self.window.len() == LATENCY_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(latency);
    }

    /// The current hedge delay: the configured percentile of the
    /// rolling window, floored at `min_delay`. `None` while hedging is
    /// disarmed (disabled, or the window is still below `min_samples`).
    pub fn hedge_delay(&self) -> Option<f64> {
        if !self.cfg.enabled || self.window.len() < self.cfg.min_samples.max(1) {
            return None;
        }
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies compare"));
        Some(nearest_rank(&sorted, self.cfg.percentile).max(self.cfg.min_delay))
    }

    /// Tries to fund one hedge from the retry budget. `true` spends a
    /// token.
    pub fn try_hedge(&mut self) -> bool {
        self.cfg.enabled && self.budget.try_spend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            percentile: 0.95,
            min_delay: 5.0,
            budget_fraction: 0.5,
            burst: 2.0,
            min_samples: 4,
        }
    }

    #[test]
    fn budget_caps_amplification() {
        let mut b = RetryBudget::new(0.1, 3.0);
        assert!(!b.try_spend(), "empty bucket funds nothing");
        for _ in 0..100 {
            b.on_primary();
        }
        // 100 primaries × 0.1 = 10 tokens, capped at the burst of 3.
        assert!((b.tokens() - 3.0).abs() < 1e-9);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "burst exhausted");
    }

    #[test]
    fn delay_tracks_the_p95_with_a_floor() {
        let mut h = HedgePolicy::new(cfg());
        assert_eq!(h.hedge_delay(), None, "no samples, no hedging");
        for l in [10.0, 20.0, 30.0] {
            h.record(l);
        }
        assert_eq!(h.hedge_delay(), None, "below min_samples");
        h.record(40.0);
        // p95 nearest-rank of {10,20,30,40} is the 4th value.
        assert!((h.hedge_delay().unwrap() - 40.0).abs() < 1e-9);
        // A uniformly fast window hits the floor instead.
        let mut fast = HedgePolicy::new(cfg());
        for _ in 0..8 {
            fast.record(1.0);
        }
        assert!((fast.hedge_delay().unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn window_is_bounded_and_rolling() {
        let mut h = HedgePolicy::new(cfg());
        for _ in 0..LATENCY_WINDOW {
            h.record(1_000.0);
        }
        // A full window of fresh fast samples displaces the slow past.
        for _ in 0..LATENCY_WINDOW {
            h.record(1.0);
        }
        assert!((h.hedge_delay().unwrap() - 5.0).abs() < 1e-9, "floor");
    }

    #[test]
    fn disabled_policy_never_hedges() {
        let mut h = HedgePolicy::new(HedgeConfig::disabled());
        for _ in 0..64 {
            h.on_primary();
            h.record(100.0);
        }
        assert_eq!(h.hedge_delay(), None);
        assert!(!h.try_hedge());
    }

    #[test]
    fn hedges_spend_the_accrued_budget() {
        let mut h = HedgePolicy::new(cfg());
        assert!(!h.try_hedge(), "no budget yet");
        h.on_primary();
        h.on_primary();
        assert!(h.try_hedge(), "2 × 0.5 = 1 token");
        assert!(!h.try_hedge(), "spent");
    }
}
