//! Simulate each `(plan, N, spec)` once.
//!
//! `gpu_sim::simulate_kernel` is a pure, bit-deterministic function of
//! the format, the kernel config, the output width N and the device
//! spec, and a plan's format and config never change after planning.
//! So the simulated cost of a plan at a given N on a given device is as
//! stationary as its weights (the paper's §3.1 amortization argument,
//! applied to the timing model). [`SimMemo`] keeps it: the first call at
//! `(n, spec)` simulates, every later one returns the same stats.
//!
//! [`simulate_plan`] is the uncached primitive the memo fills from; the
//! paper experiments and differential tests call it (through
//! [`crate::JigsawSpmm::simulate`]) directly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use gpu_sim::{simulate_kernel, GpuSpec, KernelStats};
use jigsaw_obs::Counter;

use crate::config::JigsawConfig;
use crate::format::JigsawFormat;
use crate::kernel::build_launch;
use crate::sync::lock_recover;

/// Entries one memo keeps: the server's default `max_batch_n`, so every
/// batch width of a default server fits, while memory stays bounded for
/// any caller. The oldest entry goes first once the memo is full.
pub const SIM_MEMO_CAP: usize = 256;

/// Simulates the Jigsaw kernel of one plan at output width `n`.
/// Uncached: every call lowers the launch and runs the timing model.
pub fn simulate_plan(
    format: &JigsawFormat,
    config: &JigsawConfig,
    n: usize,
    spec: &GpuSpec,
) -> KernelStats {
    simulate_kernel(&build_launch(format, n, config), spec)
}

/// A bounded memo of one plan's [`KernelStats`], keyed by `(n, spec)`.
///
/// The owner guarantees every lookup simulates the same plan. The lock
/// is never held across a simulation: two threads racing on the same
/// miss may both simulate, which is harmless because the result is
/// bit-identical. Lookups count on the `sim.memo.hits` /
/// `sim.memo.misses` obs counters and on the memo's own
/// [`SimMemo::hits`] / [`SimMemo::misses`].
#[derive(Debug, Default)]
pub struct SimMemo {
    entries: Mutex<VecDeque<(usize, GpuSpec, KernelStats)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SimMemo {
    /// The stats at `(n, spec)`, running `simulate` only on a miss.
    /// Returns the stats and whether they came from the memo.
    pub fn get_or_simulate(
        &self,
        n: usize,
        spec: &GpuSpec,
        simulate: impl FnOnce() -> KernelStats,
    ) -> (KernelStats, bool) {
        let (hits, misses) = memo_counters();
        if let Some(stats) = self.lookup(n, spec) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hits.inc();
            return (stats, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        misses.inc();
        let stats = simulate();
        let mut entries = lock_recover(&self.entries);
        if !entries.iter().any(|(en, es, _)| *en == n && es == spec) {
            if entries.len() == SIM_MEMO_CAP {
                entries.pop_front();
            }
            entries.push_back((n, spec.clone(), stats.clone()));
        }
        (stats, false)
    }

    fn lookup(&self, n: usize, spec: &GpuSpec) -> Option<KernelStats> {
        lock_recover(&self.entries)
            .iter()
            .find(|(en, es, _)| *en == n && es == spec)
            .map(|(_, _, stats)| stats.clone())
    }

    /// Entries currently held (at most [`SIM_MEMO_CAP`]).
    pub fn len(&self) -> usize {
        lock_recover(&self.entries).len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to simulate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Cached handles to the process-wide `sim.memo.{hits,misses}`
/// counters. Always on, like the `degrade.*` counters: two relaxed
/// atomic adds per lookup.
fn memo_counters() -> &'static (Counter, Counter) {
    static COUNTERS: OnceLock<(Counter, Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = jigsaw_obs::global();
        (reg.counter("sim.memo.hits"), reg.counter("sim.memo.misses"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JigsawSpmm;
    use dlmc::VectorSparseSpec;
    use proptest::prelude::*;

    fn planned() -> JigsawSpmm {
        let a = VectorSparseSpec::new(64, 128, 0.9, 4, 11).generate();
        JigsawSpmm::plan(&a, JigsawConfig::v4(32)).unwrap()
    }

    /// Bit-level identity: `Debug` prints every float in its shortest
    /// round-trip form, so equal strings mean equal bits.
    fn bits(stats: &KernelStats) -> String {
        format!("{stats:?}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn memoized_stats_equal_fresh_simulation_bit_for_bit(
            n in 1usize..300,
            caches in any::<bool>(),
        ) {
            let spmm = planned();
            let spec = if caches { GpuSpec::a100_with_caches() } else { GpuSpec::a100() };
            let fresh = spmm.simulate(n, &spec);
            let (first, hit) = spmm.sim_memo().get_or_simulate(n, &spec, || spmm.simulate(n, &spec));
            prop_assert!(!hit);
            let (memoized, hit) = spmm.simulate_memoized(n, &spec);
            prop_assert!(hit);
            prop_assert_eq!(bits(&first), bits(&fresh));
            prop_assert_eq!(bits(&memoized), bits(&fresh));
            prop_assert_eq!(memoized.cache.is_some(), caches);
            prop_assert_eq!((spmm.sim_memo().hits(), spmm.sim_memo().misses()), (1, 1));
        }
    }

    #[test]
    fn a_different_spec_misses() {
        let spmm = planned();
        let memo = spmm.sim_memo();
        spmm.simulate_memoized(64, &GpuSpec::a100());
        spmm.simulate_memoized(64, &GpuSpec::a100());
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        let (off, _) = spmm.simulate_memoized(64, &GpuSpec::a100());
        let (on, hit) = spmm.simulate_memoized(64, &GpuSpec::a100_with_caches());
        assert!(!hit);
        assert_eq!(
            (memo.hits(), memo.misses()),
            (2, 2),
            "cache model on is a new key"
        );
        assert!(off.cache.is_none() && on.cache.is_some());
        let slower = GpuSpec {
            clock_ghz: 1.0,
            ..GpuSpec::a100()
        };
        spmm.simulate_memoized(64, &slower);
        spmm.simulate_memoized(65, &GpuSpec::a100());
        assert_eq!(
            (memo.hits(), memo.misses()),
            (2, 4),
            "any spec field or n is a new key"
        );
        assert_eq!(memo.len(), 4);
    }

    #[test]
    fn memo_stays_at_its_cap() {
        let memo = SimMemo::default();
        let spec = GpuSpec::a100();
        let stats = KernelStats::default();
        for n in 0..10_000 {
            memo.get_or_simulate(n, &spec, || stats.clone());
            assert!(memo.len() <= SIM_MEMO_CAP);
        }
        assert_eq!(memo.len(), SIM_MEMO_CAP);
        assert_eq!(memo.misses(), 10_000);
        // The newest entries survive; the oldest went first.
        assert!(memo.get_or_simulate(9_999, &spec, || unreachable!()).1);
        assert!(!memo.get_or_simulate(0, &spec, || stats.clone()).1);
    }

    #[test]
    fn clones_of_a_plan_share_its_memo() {
        let spmm = planned();
        spmm.simulate_memoized(32, &GpuSpec::a100());
        let copy = spmm.clone();
        assert!(copy.simulate_memoized(32, &GpuSpec::a100()).1);
        assert_eq!((spmm.sim_memo().hits(), spmm.sim_memo().misses()), (1, 1));
    }
}
