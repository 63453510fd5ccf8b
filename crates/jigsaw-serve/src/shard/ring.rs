//! Consistent-hash ring: maps model ids onto shard ids through a ring
//! of virtual nodes, so adding or removing a shard remaps only ~1/N of
//! the key space instead of reshuffling everything.
//!
//! Deterministic by construction: FNV-1a over stable strings, no
//! RandomState anywhere, so the same `(shards, vnodes)` pair always
//! builds the identical ring and every routing decision replays.

/// The ring's only hash: 64-bit FNV-1a finalized with a splitmix64
/// mix. Plain FNV-1a disperses short, similar keys (`model-17`,
/// `shard/3/vnode/9`) poorly in the high bits that ring ordering
/// compares, so the finalizer avalanches them. Stable across platforms
/// and processes (no seed), which is what lets the virtual-clock sim
/// and the threaded router agree on placement.
pub fn fnv1a64(key: &str) -> u64 {
    let mut x = key.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring over `shards` shards, each owning `vnodes`
/// points on the u64 circle.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(ring position, shard id)`, sorted by position.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring. `shards` and `vnodes` must both be ≥ 1.
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        assert!(shards >= 1, "need at least one shard");
        assert!(vnodes >= 1, "need at least one virtual node per shard");
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                points.push((fnv1a64(&format!("shard/{shard}/vnode/{v}")), shard));
            }
        }
        // Position ties (vanishingly rare) break by shard id so the
        // ring is a pure function of (shards, vnodes).
        points.sort();
        HashRing { points, shards }
    }

    /// The shard owning `key`: the first virtual node at or clockwise
    /// of the key's ring position (wrapping).
    pub fn shard_for(&self, key: &str) -> usize {
        let h = fnv1a64(key);
        let idx = self.points.partition_point(|(pos, _)| *pos < h);
        self.points[idx % self.points.len()].1
    }

    /// The first `replicas` *distinct* shards clockwise of `key` —
    /// the home shard first, then its ring neighbors. Capped at the
    /// shard count; always non-empty and deduplicated.
    pub fn replica_set(&self, key: &str, replicas: usize) -> Vec<usize> {
        let want = replicas.clamp(1, self.shards);
        let h = fnv1a64(key);
        let start = self.points.partition_point(|(pos, _)| *pos < h);
        let mut out = Vec::with_capacity(want);
        for i in 0..self.points.len() {
            let shard = self.points[(start + i) % self.points.len()].1;
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        let keys: Vec<String> = (0..256).map(|i| format!("model-{i}")).collect();
        let mut seen = [false; 4];
        for k in &keys {
            assert_eq!(a.shard_for(k), b.shard_for(k), "same ring, same placement");
            seen[a.shard_for(k)] = true;
        }
        assert!(seen.iter().all(|s| *s), "every shard owns some keys");
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let ring = HashRing::new(8, 64);
        let mut counts = [0usize; 8];
        for i in 0..4096 {
            counts[ring.shard_for(&format!("model-{i}"))] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // 64 vnodes keep the spread well under 3x on 4096 keys.
        assert!(max < min * 3, "imbalanced ring: {counts:?}");
    }

    #[test]
    fn replica_sets_are_distinct_and_start_at_home() {
        let ring = HashRing::new(4, 32);
        for i in 0..64 {
            let key = format!("model-{i}");
            let set = ring.replica_set(&key, 2);
            assert_eq!(set.len(), 2);
            assert_eq!(set[0], ring.shard_for(&key), "home shard leads");
            assert_ne!(set[0], set[1], "replicas are distinct shards");
        }
        // Requests for more replicas than shards cap at the shard count.
        let all = ring.replica_set("model-0", 99);
        assert_eq!(all.len(), 4);
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn adding_a_shard_remaps_only_a_fraction_of_keys() {
        let before = HashRing::new(4, 64);
        let after = HashRing::new(5, 64);
        let moved = (0..2048)
            .filter(|i| {
                let k = format!("model-{i}");
                before.shard_for(&k) != after.shard_for(&k)
            })
            .count();
        // Consistent hashing moves ~1/5 of keys; a plain `hash % n`
        // would move ~4/5. Allow generous slack.
        assert!(moved < 2048 / 2, "{moved} of 2048 keys moved");
    }

    #[test]
    fn single_shard_ring_routes_everything_home() {
        let ring = HashRing::new(1, 16);
        for i in 0..32 {
            assert_eq!(ring.shard_for(&format!("m{i}")), 0);
            assert_eq!(ring.replica_set(&format!("m{i}"), 3), vec![0]);
        }
    }
}
