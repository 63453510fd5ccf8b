//! Forwarding policy: when a request's target shard has a queue backed
//! up past a threshold, the request is admitted on the least-loaded
//! live replica instead. Sender-initiated and decided once, at
//! admission, by the one placement rule the router and the simulator
//! share; it is the only rule that moves load between shards.

/// Forwarding policy.
#[derive(Clone, Copy, Debug)]
pub struct ForwardConfig {
    /// Queue depth at which a shard starts shedding new arrivals to
    /// replicas. `usize::MAX` turns forwarding off: requests stay on
    /// their round-robin target (or its failover replica if that shard
    /// is down).
    pub queue_threshold: usize,
}

impl ForwardConfig {
    /// Forwarding on, with the given queue-depth trigger.
    pub fn threshold(queue_threshold: usize) -> ForwardConfig {
        ForwardConfig {
            queue_threshold: queue_threshold.max(1),
        }
    }

    /// Policy switched off: a threshold no queue reaches.
    pub fn disabled() -> ForwardConfig {
        ForwardConfig {
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
pub fn should_forward(config: &ForwardConfig, home_depth: usize, target_depth: usize) -> bool {
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
        let c = ForwardConfig::threshold(4);
        assert!(!should_forward(&c, 3, 0), "below threshold stays home");
        assert!(should_forward(&c, 4, 0));
        assert!(should_forward(&c, 10, 9));
        assert!(!should_forward(&c, 10, 10), "equal load: no ping-pong");
        assert!(!should_forward(&ForwardConfig::disabled(), 100, 0));
    }
}
