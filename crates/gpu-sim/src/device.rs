//! Device-level model: occupancy, wave scheduling of thread blocks onto
//! SMs, and the DRAM roofline bound.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::arch::GpuSpec;
use crate::cache::SlicedCache;
use crate::engine::{simulate_block_traced, BlockSim, EngineConfig};
use crate::instr::{BlockTrace, KernelLaunch, WarpInstr};
use crate::stats::{BlockStats, CacheHierarchyStats, CacheStats, KernelStats};

/// Resident blocks per SM for a block with the given footprint.
///
/// Limited by shared memory, the warp-slot budget, and the hard block
/// cap — the three limits §2.1 of the paper describes.
pub fn occupancy(spec: &GpuSpec, smem_bytes: usize, warps_per_block: usize) -> usize {
    let by_smem = spec
        .smem_per_sm_bytes
        .checked_div(smem_bytes)
        .unwrap_or(spec.max_blocks_per_sm);
    let by_warps = spec
        .max_warps_per_sm
        .checked_div(warps_per_block)
        .unwrap_or(spec.max_blocks_per_sm);
    by_smem.min(by_warps).min(spec.max_blocks_per_sm).max(1)
}

/// Structural signature of a block trace; identical blocks simulate once.
fn signature(block: &BlockTrace) -> u64 {
    let mut h = DefaultHasher::new();
    block.smem_bytes.hash(&mut h);
    block.warps.len().hash(&mut h);
    for w in &block.warps {
        w.len().hash(&mut h);
        for i in w {
            instr_hash(i, &mut h);
        }
    }
    // Address annotations change cache behavior, so they split dedup
    // groups; with the model off they are empty everywhere and hash to
    // the same value, leaving the grouping untouched.
    block.gmem.hash(&mut h);
    h.finish()
}

fn instr_hash(i: &WarpInstr, h: &mut DefaultHasher) {
    std::mem::discriminant(i).hash(h);
    match i {
        WarpInstr::CpAsync {
            bytes,
            group,
            consumes,
        } => {
            bytes.hash(h);
            group.hash(h);
            consumes.hash(h);
        }
        WarpInstr::CommitGroup { group } => group.hash(h),
        WarpInstr::WaitGroup { pending_allowed } => pending_allowed.hash(h),
        WarpInstr::LdGlobal {
            bytes,
            transactions,
            produces,
            l2_hit,
            consumes,
        } => {
            bytes.hash(h);
            transactions.hash(h);
            produces.hash(h);
            l2_hit.hash(h);
            consumes.hash(h);
        }
        WarpInstr::LdShared {
            conflict_ways,
            produces,
            consumes,
        } => {
            conflict_ways.hash(h);
            produces.hash(h);
            consumes.hash(h);
        }
        WarpInstr::StShared {
            conflict_ways,
            consumes,
        } => {
            conflict_ways.hash(h);
            consumes.hash(h);
        }
        WarpInstr::Ldmatrix {
            phases,
            total_ways,
            produces,
            consumes,
        } => {
            phases.hash(h);
            total_ways.hash(h);
            produces.hash(h);
            consumes.hash(h);
        }
        WarpInstr::Mma {
            op,
            consumes,
            produces,
        } => {
            std::mem::discriminant(op).hash(h);
            consumes.hash(h);
            produces.hash(h);
        }
        WarpInstr::CudaOp {
            cycles,
            consumes,
            produces,
        } => {
            cycles.hash(h);
            consumes.hash(h);
            produces.hash(h);
        }
        WarpInstr::Barrier => {}
        WarpInstr::StGlobal { bytes, consumes } => {
            bytes.hash(h);
            consumes.hash(h);
        }
    }
}

/// Simulates a whole kernel launch and reports its duration and
/// Nsight-style counters.
pub fn simulate_kernel(launch: &KernelLaunch, spec: &GpuSpec) -> KernelStats {
    if launch.blocks.is_empty() {
        return KernelStats::default().finish();
    }
    let warps_per_block = launch
        .blocks
        .iter()
        .map(|b| b.warps.len())
        .max()
        .unwrap_or(1);
    let smem = launch
        .blocks
        .iter()
        .map(|b| b.smem_bytes)
        .max()
        .unwrap_or(0);
    let occ = occupancy(spec, smem, warps_per_block);
    // Per-block latency is estimated at the full per-SM bandwidth
    // share; contention between co-resident blocks is captured by the
    // wave model's busy-sum and the device-wide L2/DRAM rooflines —
    // splitting the share here as well would double-count it.
    let resident = 1;

    // Deduplicate structurally identical blocks. Arc-shared replicas
    // (the common case: one trace per strip, repeated per N-tile) are
    // recognized by pointer before falling back to hashing the trace.
    let mut unique: Vec<&BlockTrace> = Vec::new();
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let mut by_ptr: HashMap<*const BlockTrace, usize> = HashMap::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut block_kind: Vec<usize> = Vec::with_capacity(launch.blocks.len());
    for b in &launch.blocks {
        let ptr = std::sync::Arc::as_ptr(b);
        let idx = match by_ptr.get(&ptr) {
            Some(&i) => i,
            None => {
                let b: &BlockTrace = b;
                let sig = signature(b);
                let i = *index_of.entry(sig).or_insert_with(|| {
                    unique.push(b);
                    counts.push(0);
                    unique.len() - 1
                });
                by_ptr.insert(ptr, i);
                i
            }
        };
        counts[idx] += 1;
        block_kind.push(idx);
    }

    let cfg = EngineConfig {
        spec: spec.clone(),
        resident_blocks: resident,
    };
    let per_unique: Vec<BlockSim> = unique
        .iter()
        .map(|b| simulate_block_traced(b, &cfg))
        .collect();

    // Wave scheduling with throughput serialization: each SM hosts up
    // to `occ` blocks at once, but its pipes are shared — a wave of
    // co-resident blocks takes `max(longest latency-bound duration,
    // sum of throughput footprints)`. Blocks deal round-robin to SMs
    // in launch order (the hardware's rasterization), waves accumulate
    // per SM, makespan = slowest SM.
    let sms = spec.num_sms.min(launch.blocks.len()).max(1);
    let mut sm_blocks: Vec<Vec<(usize, usize)>> = vec![Vec::new(); sms];
    for (i, &kind) in block_kind.iter().enumerate() {
        sm_blocks[i % sms].push((i, kind));
    }
    let makespan = sm_blocks
        .iter()
        .map(|kinds| {
            kinds
                .chunks(occ.max(1))
                .map(|wave| {
                    let latency = wave
                        .iter()
                        .map(|&(_, k)| per_unique[k].stats.cycles)
                        .max()
                        .unwrap_or(0);
                    let busy: u64 = wave
                        .iter()
                        .map(|&(_, k)| per_unique[k].stats.busy_cycles)
                        .sum();
                    latency.max(busy).max(1)
                })
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);

    // Aggregate counters over all blocks.
    let mut totals = BlockStats::default();
    for (sim, &count) in per_unique.iter().zip(counts.iter()) {
        totals.add_scaled(&sim.stats, count);
    }

    // Shared-L2 replay (cache model on): feed every block's L1 fills
    // through the sliced L2 wave by wave in launch order — the order
    // the wave scheduler retires them. Block starts are staggered far
    // enough apart on real hardware that a later block re-reading a
    // sector another block already filled sees a resident line, so
    // `now` advances past the fill latency between blocks: cross-block
    // reuse is modeled as L2 hits, while simultaneous-miss coalescing
    // lives in the per-block L1 MSHR. `scaled` fills get the block's
    // bias; synthetic ones are rebased per launch index so replicated
    // unannotated blocks cannot fake reuse.
    let cache = spec.caches.as_ref().map(|h| {
        let mut l1_total = CacheStats::default();
        for (sim, &count) in per_unique.iter().zip(counts.iter()) {
            if let Some(l1) = &sim.l1 {
                l1_total.add_scaled(l1, count);
            }
        }
        let mut l2 = SlicedCache::new(h.l2, h.l2_slices);
        let sector_bytes = h.l2.sector_bytes as u32;
        let wave_count = sm_blocks
            .iter()
            .map(|k| k.len().div_ceil(occ.max(1)))
            .max()
            .unwrap_or(0);
        let mut seq = 0u64;
        for wave in 0..wave_count {
            for kinds in &sm_blocks {
                let Some(chunk) = kinds.chunks(occ.max(1)).nth(wave) else {
                    continue;
                };
                for &(launch_idx, kind) in chunk {
                    let now = seq * (spec.gmem_latency + 1);
                    seq += 1;
                    let bias = launch.bias_of(launch_idx);
                    for fill in &per_unique[kind].l1_fills {
                        let mut addr = fill.addr;
                        if fill.scaled {
                            addr += bias;
                        }
                        if fill.synthetic {
                            addr += (launch_idx as u64) << 32;
                        }
                        l2.access(addr, sector_bytes, now, spec.gmem_latency);
                    }
                }
            }
        }
        CacheHierarchyStats {
            l1: l1_total,
            l2: l2.stats(),
        }
    });

    // Device-wide memory rooflines. Without the cache model: every
    // staged byte crosses L2 once and the declared compulsory working
    // set crosses DRAM once. With it: the measured traffic replaces
    // both — L1 fills cross L2, L2 fills cross DRAM.
    let (l2_cycles, dram_cycles) = match &cache {
        None => (
            totals.gmem_bytes as f64 / spec.l2_bytes_per_cycle,
            launch.dram_bytes as f64 / spec.dram_bytes_per_cycle,
        ),
        Some(c) => {
            let sector = spec.caches.as_ref().map_or(32, |h| h.l2.sector_bytes) as f64;
            (
                c.l1.sector_reads as f64 * sector / spec.l2_bytes_per_cycle,
                c.l2.sector_reads as f64 * sector / spec.dram_bytes_per_cycle,
            )
        }
    };
    let compute_cycles = makespan as f64;
    let dram_bound = dram_cycles.max(l2_cycles) > compute_cycles;
    let duration_cycles =
        compute_cycles.max(dram_cycles).max(l2_cycles) + spec.kernel_fixed_overhead as f64;

    let waves = launch.blocks.len().div_ceil((spec.num_sms * occ).max(1));
    let stats = KernelStats {
        duration_cycles,
        duration_us: spec.cycles_to_us(duration_cycles),
        blocks: launch.blocks.len(),
        blocks_per_sm: occ,
        waves,
        dram_bound,
        totals,
        long_scoreboard_per_instr: 0.0,
        short_scoreboard_per_instr: 0.0,
        cache,
    }
    .finish();
    if jigsaw_obs::enabled() {
        sim_counters().record(&stats);
    }
    stats
}

/// Cached handles to the simulator's global observability counters, so
/// the per-kernel bump is a handful of relaxed atomic adds.
struct SimCounters {
    kernels: jigsaw_obs::Counter,
    waves: jigsaw_obs::Counter,
    bank_conflicts: jigsaw_obs::Counter,
    long_scoreboard: jigsaw_obs::Counter,
    short_scoreboard: jigsaw_obs::Counter,
    l1: LevelCounters,
    l2: LevelCounters,
    mshr_merges: jigsaw_obs::Counter,
}

/// The per-level cache counters (`sim.l1.*` / `sim.l2.*`).
struct LevelCounters {
    hits: jigsaw_obs::Counter,
    misses: jigsaw_obs::Counter,
    sector_reads: jigsaw_obs::Counter,
    evictions: jigsaw_obs::Counter,
}

impl LevelCounters {
    fn new(reg: &jigsaw_obs::ObsRegistry, level: &str) -> LevelCounters {
        LevelCounters {
            hits: reg.counter(&format!("sim.{level}.hits")),
            misses: reg.counter(&format!("sim.{level}.misses")),
            sector_reads: reg.counter(&format!("sim.{level}.sector_reads")),
            evictions: reg.counter(&format!("sim.{level}.evictions")),
        }
    }

    fn record(&self, s: &CacheStats) {
        self.hits.add(s.hits);
        self.misses.add(s.misses);
        self.sector_reads.add(s.sector_reads);
        self.evictions.add(s.evictions);
    }
}

impl SimCounters {
    fn record(&self, stats: &KernelStats) {
        self.kernels.inc();
        self.waves.add(stats.waves as u64);
        self.bank_conflicts.add(stats.totals.smem_bank_conflicts);
        self.long_scoreboard
            .add(stats.totals.long_scoreboard_cycles);
        self.short_scoreboard
            .add(stats.totals.short_scoreboard_cycles);
        // Cache counters move only when the model ran: the cache-off
        // path leaves the whole sim.l1/l2/mshr surface frozen.
        if let Some(cache) = &stats.cache {
            self.l1.record(&cache.l1);
            self.l2.record(&cache.l2);
            self.mshr_merges
                .add(cache.l1.mshr_merges + cache.l2.mshr_merges);
        }
    }
}

fn sim_counters() -> &'static SimCounters {
    static COUNTERS: std::sync::OnceLock<SimCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = jigsaw_obs::global();
        SimCounters {
            kernels: reg.counter("sim.kernels"),
            waves: reg.counter("sim.waves"),
            bank_conflicts: reg.counter("sim.smem_bank_conflicts"),
            long_scoreboard: reg.counter("sim.long_scoreboard_cycles"),
            short_scoreboard: reg.counter("sim.short_scoreboard_cycles"),
            l1: LevelCounters::new(reg, "l1"),
            l2: LevelCounters::new(reg, "l2"),
            mshr_merges: reg.counter("sim.mshr.merges"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::MmaOp;

    fn mma_block(n: usize) -> BlockTrace {
        BlockTrace {
            warps: vec![(0..n)
                .map(|_| WarpInstr::Mma {
                    op: MmaOp::SparseM16N8K32,
                    consumes: vec![],
                    produces: None,
                })
                .collect()],
            smem_bytes: 24 * 1024,
            gmem: Vec::new(),
        }
    }

    #[test]
    fn occupancy_limits() {
        let spec = GpuSpec::a100();
        // 164 KiB / 24 KiB -> 6 blocks by smem.
        assert_eq!(occupancy(&spec, 24 * 1024, 4), 6);
        // Warp-limited: 64 / 16 = 4.
        assert_eq!(occupancy(&spec, 1024, 16), 4);
        // Hard cap.
        assert_eq!(occupancy(&spec, 0, 1), 32);
        // Never zero.
        assert_eq!(occupancy(&spec, 200 * 1024, 1), 1);
    }

    #[test]
    fn identical_blocks_dedup_and_scale() {
        let spec = GpuSpec::a100();
        // Distinct allocations with identical content: exercises the
        // signature-based dedup (not the Arc pointer shortcut).
        let launch = KernelLaunch::from_blocks(vec![mma_block(64); 540], 0);
        let stats = simulate_kernel(&launch, &spec);
        assert_eq!(stats.blocks, 540);
        assert_eq!(stats.totals.mma_instructions, 540 * 64);
    }

    #[test]
    fn more_blocks_than_slots_means_waves() {
        let spec = GpuSpec::a100();
        let one_wave = simulate_kernel(&KernelLaunch::replicated(mma_block(2048), 108, 0), &spec);
        let six_waves_worth = simulate_kernel(
            &KernelLaunch::replicated(mma_block(2048), 108 * 6 * 6, 0),
            &spec,
        );
        // 6 blocks fit per SM (24KiB smem), so 6*6 waves of work takes
        // about 6x one full-SM wave.
        assert!(six_waves_worth.duration_cycles > one_wave.duration_cycles * 3.0);
        assert!(six_waves_worth.waves >= 6);
    }

    #[test]
    fn dram_roofline_binds_memory_heavy_kernels() {
        let spec = GpuSpec::a100();
        let launch = KernelLaunch::replicated(mma_block(1), 10, 10 * 1024 * 1024 * 1024); // 10 GiB
        let stats = simulate_kernel(&launch, &spec);
        assert!(stats.dram_bound);
        // 10 GiB / 1103 B/cycle ≈ 9.7 Mcycles.
        assert!(stats.duration_cycles > 9.0e6);
    }

    #[test]
    fn empty_launch() {
        let stats = simulate_kernel(&KernelLaunch::default(), &GpuSpec::a100());
        assert_eq!(stats.duration_cycles, 0.0);
        assert_eq!(stats.blocks, 0);
    }

    #[test]
    fn per_kernel_counters_feed_the_obs_registry() {
        let reg = jigsaw_obs::global();
        let launch = KernelLaunch::replicated(mma_block(8), 4, 1024);
        // Flag starts (and stays) false everywhere else in this test
        // binary: a disabled run must record nothing.
        let frozen = reg.counter("sim.kernels").get();
        let _ = simulate_kernel(&launch, &GpuSpec::a100());
        assert_eq!(reg.counter("sim.kernels").get(), frozen);

        jigsaw_obs::set_enabled(true);
        let kernels_before = reg.counter("sim.kernels").get();
        let waves_before = reg.counter("sim.waves").get();
        let stats = simulate_kernel(&launch, &GpuSpec::a100());
        assert!(reg.counter("sim.kernels").get() > kernels_before);
        assert!(reg.counter("sim.waves").get() >= waves_before + stats.waves as u64);
        jigsaw_obs::set_enabled(false);
    }
}
