//! Differential pinning for the cache-off simulator path.
//!
//! The sectored L1/L2 model (DESIGN.md §18) is opt-in via
//! `GpuSpec::caches`; with the knob off (`None` — the default, and the
//! setting every committed baseline was produced under) the simulator
//! must be **bit-identical** to the pre-cache engine. These tests pin
//! `simulate_kernel` outputs for a fixed plan/baseline set to committed
//! constants captured from the pre-cache code, so any accidental timing
//! or counter drift on the default path fails CI on any host.
//!
//! Durations are pinned as exact `f64` bit patterns (no tolerance).
//! To regenerate after an *intentional* semantic change to the
//! simulator, run:
//!
//! ```text
//! JIGSAW_GOLDEN_PRINT=1 cargo test -p bench-harness --test sim_differential -- --nocapture
//! ```
//!
//! and paste the printed rows over `EXPECTED`.

use baselines::{CublasGemm, SpmmKernel, Sputnik};
use dlmc::{ValueDist, VectorSparseSpec};
use gpu_sim::{simulate_kernel, GpuSpec, KernelStats};
use jigsaw_core::{build_launch, JigsawConfig, JigsawFormat, ReorderPlan};

/// Serializes the tests: the `sim.*` counters are process-global, so a
/// kernel simulated by one test while the other has observability on
/// would land in its counter deltas.
static SIM_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One pinned simulation: kernel id, N, and the exact outputs.
struct Pinned {
    name: &'static str,
    n: usize,
    /// `duration_cycles.to_bits()` — exact, no tolerance.
    duration_bits: u64,
    instructions: u64,
    gmem_bytes: u64,
    smem_bank_conflicts: u64,
    long_scoreboard_cycles: u64,
    short_scoreboard_cycles: u64,
    barrier_cycles: u64,
    blocks: usize,
    waves: usize,
}

const SEED: u64 = 33;
const SPARSITY: f64 = 0.95;
const V: usize = 8;
const ROWS: usize = 256;
const COLS: usize = 512;

fn matrix() -> dlmc::Matrix {
    VectorSparseSpec {
        rows: ROWS,
        cols: COLS,
        sparsity: SPARSITY,
        v: V,
        dist: ValueDist::Uniform,
        seed: SEED,
    }
    .generate()
}

fn jigsaw_stats(config: &JigsawConfig, n: usize) -> KernelStats {
    let a = matrix();
    let plan = ReorderPlan::build(&a, config);
    let format = JigsawFormat::build(&a, &plan, config.metadata_interleave);
    simulate_kernel(&build_launch(&format, n, config), &GpuSpec::a100())
}

/// Every (kernel, N) pair the fixture pins, in a fixed order.
fn run_all() -> Vec<(&'static str, usize, KernelStats)> {
    let mut out = Vec::new();
    for &(name, ref config) in &[
        ("jigsaw_v0", JigsawConfig::v0()),
        ("jigsaw_v2", JigsawConfig::v2()),
        ("jigsaw_v4", JigsawConfig::v4(32)),
    ] {
        for &n in &[64usize, 256] {
            out.push((name, n, jigsaw_stats(config, n)));
        }
    }
    let a = matrix();
    let spec = GpuSpec::a100();
    let cublas = CublasGemm::plan(&a);
    out.push(("cublas", 256, cublas.simulate(256, &spec)));
    let sputnik = Sputnik::plan(&a);
    out.push(("sputnik", 256, sputnik.simulate(256, &spec)));
    out
}

const EXPECTED: &[Pinned] = &[
    Pinned {
        name: "jigsaw_v0",
        n: 64,
        duration_bits: 0x40c5738000000000,
        instructions: 3712,
        gmem_bytes: 189440,
        smem_bank_conflicts: 21504,
        long_scoreboard_cycles: 42760,
        short_scoreboard_cycles: 98772,
        barrier_cycles: 19188,
        blocks: 4,
        waves: 1,
    },
    Pinned {
        name: "jigsaw_v0",
        n: 256,
        duration_bits: 0x40c5738000000000,
        instructions: 14848,
        gmem_bytes: 757760,
        smem_bank_conflicts: 86016,
        long_scoreboard_cycles: 171040,
        short_scoreboard_cycles: 395088,
        barrier_cycles: 76752,
        blocks: 16,
        waves: 1,
    },
    Pinned {
        name: "jigsaw_v2",
        n: 64,
        duration_bits: 0x40b1400000000000,
        instructions: 4032,
        gmem_bytes: 201216,
        smem_bank_conflicts: 0,
        long_scoreboard_cycles: 18232,
        short_scoreboard_cycles: 18568,
        barrier_cycles: 8540,
        blocks: 4,
        waves: 1,
    },
    Pinned {
        name: "jigsaw_v2",
        n: 256,
        duration_bits: 0x40b1400000000000,
        instructions: 16128,
        gmem_bytes: 804864,
        smem_bank_conflicts: 0,
        long_scoreboard_cycles: 72928,
        short_scoreboard_cycles: 74272,
        barrier_cycles: 34160,
        blocks: 16,
        waves: 1,
    },
    Pinned {
        name: "jigsaw_v4",
        n: 64,
        duration_bits: 0x40a9700000000000,
        instructions: 2268,
        gmem_bytes: 202496,
        smem_bank_conflicts: 32,
        long_scoreboard_cycles: 26461,
        short_scoreboard_cycles: 17083,
        barrier_cycles: 4227,
        blocks: 8,
        waves: 1,
    },
    Pinned {
        name: "jigsaw_v4",
        n: 256,
        duration_bits: 0x40a9700000000000,
        instructions: 9072,
        gmem_bytes: 809984,
        smem_bank_conflicts: 128,
        long_scoreboard_cycles: 105844,
        short_scoreboard_cycles: 68332,
        barrier_cycles: 16908,
        blocks: 32,
        waves: 1,
    },
    Pinned {
        name: "cublas",
        n: 256,
        duration_bits: 0x40bc880000000000,
        instructions: 28736,
        gmem_bytes: 2359296,
        smem_bank_conflicts: 0,
        long_scoreboard_cycles: 198896,
        short_scoreboard_cycles: 1392,
        barrier_cycles: 58592,
        blocks: 16,
        waves: 1,
    },
    Pinned {
        name: "sputnik",
        n: 256,
        duration_bits: 0x40c4920000000000,
        instructions: 13312,
        gmem_bytes: 2392064,
        smem_bank_conflicts: 0,
        long_scoreboard_cycles: 1139904,
        short_scoreboard_cycles: 0,
        barrier_cycles: 0,
        blocks: 32,
        waves: 1,
    },
];

#[test]
fn cache_off_replays_pre_cache_baselines_bit_identically() {
    let _serial = SIM_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let got = run_all();
    if std::env::var_os("JIGSAW_GOLDEN_PRINT").is_some() {
        for (name, n, s) in &got {
            println!(
                "    Pinned {{ name: {:?}, n: {}, duration_bits: 0x{:016x}, instructions: {}, \
                 gmem_bytes: {}, smem_bank_conflicts: {}, long_scoreboard_cycles: {}, \
                 short_scoreboard_cycles: {}, barrier_cycles: {}, blocks: {}, waves: {} }},",
                name,
                n,
                s.duration_cycles.to_bits(),
                s.totals.instructions,
                s.totals.gmem_bytes,
                s.totals.smem_bank_conflicts,
                s.totals.long_scoreboard_cycles,
                s.totals.short_scoreboard_cycles,
                s.totals.barrier_cycles,
                s.blocks,
                s.waves,
            );
        }
        return;
    }
    assert_eq!(got.len(), EXPECTED.len(), "fixture row count drifted");
    for ((name, n, s), e) in got.iter().zip(EXPECTED) {
        let id = format!("{name}/N={n}");
        assert_eq!(*name, e.name, "{id}: row order");
        assert_eq!(*n, e.n, "{id}: row order");
        assert_eq!(
            s.duration_cycles.to_bits(),
            e.duration_bits,
            "{id}: duration drifted ({} vs pinned {})",
            s.duration_cycles,
            f64::from_bits(e.duration_bits)
        );
        assert_eq!(s.totals.instructions, e.instructions, "{id}: instructions");
        assert_eq!(s.totals.gmem_bytes, e.gmem_bytes, "{id}: gmem_bytes");
        assert_eq!(
            s.totals.smem_bank_conflicts, e.smem_bank_conflicts,
            "{id}: bank conflicts"
        );
        assert_eq!(
            s.totals.long_scoreboard_cycles, e.long_scoreboard_cycles,
            "{id}: long scoreboard"
        );
        assert_eq!(
            s.totals.short_scoreboard_cycles, e.short_scoreboard_cycles,
            "{id}: short scoreboard"
        );
        assert_eq!(s.totals.barrier_cycles, e.barrier_cycles, "{id}: barriers");
        assert_eq!(s.blocks, e.blocks, "{id}: blocks");
        assert_eq!(s.waves, e.waves, "{id}: waves");
        assert!(
            s.cache.is_none(),
            "{id}: cache stats must be absent when off"
        );
    }
}

/// The `sim.*` observability counters are derived from the same stats;
/// with caches off the per-kernel deltas must equal the stats fields
/// exactly, and no `sim.l1.*` / `sim.l2.*` counter may move.
#[test]
fn cache_off_sim_counters_match_stats_exactly() {
    let _serial = SIM_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let reg = jigsaw_obs::global();
    let config = JigsawConfig::v4(32);
    let a = matrix();
    let plan = ReorderPlan::build(&a, &config);
    let format = JigsawFormat::build(&a, &plan, config.metadata_interleave);
    let launch = build_launch(&format, 128, &config);

    jigsaw_obs::set_enabled(true);
    let kernels0 = reg.counter("sim.kernels").get();
    let waves0 = reg.counter("sim.waves").get();
    let conflicts0 = reg.counter("sim.smem_bank_conflicts").get();
    let long0 = reg.counter("sim.long_scoreboard_cycles").get();
    let short0 = reg.counter("sim.short_scoreboard_cycles").get();
    let l1_hits0 = reg.counter("sim.l1.hits").get();
    let l2_hits0 = reg.counter("sim.l2.hits").get();
    let merges0 = reg.counter("sim.mshr.merges").get();
    let stats = simulate_kernel(&launch, &GpuSpec::a100());
    jigsaw_obs::set_enabled(false);

    assert_eq!(reg.counter("sim.kernels").get() - kernels0, 1);
    assert_eq!(reg.counter("sim.waves").get() - waves0, stats.waves as u64);
    assert_eq!(
        reg.counter("sim.smem_bank_conflicts").get() - conflicts0,
        stats.totals.smem_bank_conflicts
    );
    assert_eq!(
        reg.counter("sim.long_scoreboard_cycles").get() - long0,
        stats.totals.long_scoreboard_cycles
    );
    assert_eq!(
        reg.counter("sim.short_scoreboard_cycles").get() - short0,
        stats.totals.short_scoreboard_cycles
    );
    assert_eq!(
        reg.counter("sim.l1.hits").get(),
        l1_hits0,
        "cache-off must not touch sim.l1.*"
    );
    assert_eq!(
        reg.counter("sim.l2.hits").get(),
        l2_hits0,
        "cache-off must not touch sim.l2.*"
    );
    assert_eq!(
        reg.counter("sim.mshr.merges").get(),
        merges0,
        "cache-off must not touch MSHR"
    );
}
