//! Work-steal / forward policy: when a shard's queue backs up past a
//! threshold, traffic moves to the least-loaded replica shard.
//!
//! Two mechanisms share this policy:
//! * **forwarding** (sender-initiated, router + sim): a new request
//!   whose home shard is over the queue threshold is admitted on the
//!   least-loaded live replica instead;
//! * **stealing** (receiver-initiated, sim only): an idle shard whose
//!   device is free pulls queued work for a model it replicates from
//!   the deepest over-threshold peer.

/// Steal/forward policy.
#[derive(Clone, Copy, Debug)]
pub struct StealConfig {
    /// Queue depth at which a shard starts shedding new arrivals to
    /// replicas, and above which peers may steal from it. `usize::MAX`
    /// turns both off: requests stay on their round-robin target (or
    /// its failover replica if that shard is down).
    pub queue_threshold: usize,
}

impl StealConfig {
    /// Forwarding/stealing on, with the given queue-depth trigger.
    pub fn threshold(queue_threshold: usize) -> StealConfig {
        StealConfig {
            queue_threshold: queue_threshold.max(1),
        }
    }

    /// Policy switched off: a threshold no queue reaches.
    pub fn disabled() -> StealConfig {
        StealConfig {
            queue_threshold: usize::MAX,
        }
    }
}

/// Picks the least-loaded shard out of `candidates` given per-shard
/// queue depths; ties break toward the lowest shard id so the choice
/// is deterministic. Returns `None` when `candidates` is empty.
pub fn least_loaded(candidates: &[usize], depth_of: impl Fn(usize) -> usize) -> Option<usize> {
    candidates.iter().copied().min_by_key(|&s| (depth_of(s), s))
}

/// Whether a request homed on a shard with `home_depth` queued entries
/// should be forwarded under `config`. The forward target must still
/// be strictly less loaded to be worth it — `least_loaded` plus this
/// check together prevent ping-ponging between two saturated shards.
pub fn should_forward(config: &StealConfig, home_depth: usize, target_depth: usize) -> bool {
    home_depth >= config.queue_threshold && target_depth < home_depth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_breaks_ties_low() {
        let depths = [5usize, 2, 2, 7];
        assert_eq!(least_loaded(&[0, 1, 2, 3], |s| depths[s]), Some(1));
        assert_eq!(least_loaded(&[3, 2], |s| depths[s]), Some(2));
        assert_eq!(least_loaded(&[], |_| 0), None);
    }

    #[test]
    fn forward_requires_threshold_and_strict_improvement() {
        let c = StealConfig::threshold(4);
        assert!(!should_forward(&c, 3, 0), "below threshold stays home");
        assert!(should_forward(&c, 4, 0));
        assert!(should_forward(&c, 10, 9));
        assert!(!should_forward(&c, 10, 10), "equal load: no ping-pong");
        assert!(!should_forward(&StealConfig::disabled(), 100, 0));
    }
}
