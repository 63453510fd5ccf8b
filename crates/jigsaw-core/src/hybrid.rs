//! Hybrid execution — the paper's §4.7 future-work extension.
//!
//! Below ~80% sparsity the pure-SpTC Jigsaw loses ground: windows that
//! cannot be 2:4-reordered trigger eviction retries that *grow* K, and
//! at the other extreme nearly-empty windows waste a full `mma.sp` on
//! a handful of nonzeros. §4.7 sketches the fix: route each data tile
//! to the execution unit that suits its density —
//!
//! * **dense tensor cores** for tiles too dense to reorder (no
//!   metadata, no eviction, `mma.m16n8k16` straight over the window),
//! * **SpTC** for tiles the reorder handles (the base Jigsaw path),
//! * **CUDA cores** for nearly-empty tiles where any tensor-core
//!   instruction would run mostly on zeros.
//!
//! This module implements that router on top of the existing reorder
//! machinery: windows are classified per strip, and the three routes
//! coexist in one kernel launch.

use dlmc::Matrix;
use gpu_sim::{
    simulate_kernel, BlockTrace, GpuSpec, KernelLaunch, KernelStats, MmaOp, TokenAlloc, WarpInstr,
};
use serde::{Deserialize, Serialize};

use crate::config::{JigsawConfig, MMA_TILE};
use crate::reorder::strip::{live_columns, window_masks, PAD};
use crate::reorder::tile::{reorder_tile, TileReorder, DEFAULT_WORK_LIMIT};

/// Routing thresholds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HybridConfig {
    /// Base kernel configuration (tiling, pipeline flags).
    pub base: JigsawConfig,
    /// Windows with at most this many live columns go to the CUDA
    /// cores (a tensor instruction would be mostly idle).
    pub cuda_max_live: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            base: JigsawConfig::v4(32),
            cuda_max_live: 2,
        }
    }
}

/// Which unit executes a window.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Route {
    /// SpTC with the per-tile reorders of the base path.
    Sparse(Vec<TileReorder>),
    /// Dense tensor core in original window order (no 2:4 needed).
    Dense,
    /// CUDA-core FMAs over the window's nonzeros.
    Cuda,
}

/// One strip's routed windows.
#[derive(Clone, Debug)]
pub struct HybridStrip {
    /// First row.
    pub row0: usize,
    /// Strip height.
    pub height: usize,
    /// Original column per slot, `windows * 16` entries, [`PAD`]-padded.
    pub col_order: Vec<u32>,
    /// Route per window.
    pub routes: Vec<Route>,
    /// All-zero columns skipped.
    pub zero_cols: usize,
    /// Nonzeros in the strip (drives the CUDA-route cost model).
    pub nnz: usize,
}

impl HybridStrip {
    /// Number of windows.
    pub fn windows(&self) -> usize {
        self.routes.len()
    }
}

/// The routed plan for a whole matrix.
#[derive(Clone, Debug)]
pub struct HybridPlan {
    /// Matrix height.
    pub m: usize,
    /// Matrix width.
    pub k: usize,
    /// Thresholds used.
    pub config: HybridConfig,
    /// Per-strip routing.
    pub strips: Vec<HybridStrip>,
}

/// Routing census.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HybridStats {
    /// Windows on the SpTC route.
    pub sparse_windows: usize,
    /// Windows on the dense-tensor route.
    pub dense_windows: usize,
    /// Windows on the CUDA route.
    pub cuda_windows: usize,
}

impl HybridPlan {
    /// Builds the routed plan. Unlike the base reorder there is no
    /// eviction retry: a window that cannot satisfy 2:4 simply takes
    /// the dense route, so K never grows.
    pub fn build(a: &Matrix, config: HybridConfig) -> HybridPlan {
        assert_eq!(a.rows % MMA_TILE, 0);
        let bt = config.base.block_tile_m;
        let bank_aware = config.base.bank_conflict_elimination;
        let strip_starts: Vec<usize> = (0..a.rows).step_by(bt).collect();
        let strips: Vec<HybridStrip> = strip_starts
            .iter()
            .map(|&row0| {
                let height = bt.min(a.rows - row0);
                build_strip(a, row0, height, bank_aware, config.cuda_max_live)
            })
            .collect();
        HybridPlan {
            m: a.rows,
            k: a.cols,
            config,
            strips,
        }
    }

    /// Routing census.
    pub fn stats(&self) -> HybridStats {
        let mut s = HybridStats::default();
        for strip in &self.strips {
            for r in &strip.routes {
                match r {
                    Route::Sparse(_) => s.sparse_windows += 1,
                    Route::Dense => s.dense_windows += 1,
                    Route::Cuda => s.cuda_windows += 1,
                }
            }
        }
        s
    }

    /// Functional execution: `C = A × B` honoring the routes (all
    /// routes compute the same math; this validates coverage).
    pub fn execute(&self, a: &Matrix, b: &Matrix) -> Vec<f32> {
        assert_eq!(self.k, b.rows);
        let n = b.cols;
        let mut c = vec![0.0f32; self.m * n];
        for strip in &self.strips {
            for w in 0..strip.windows() {
                for slot in 0..MMA_TILE {
                    let col = strip.col_order[w * MMA_TILE + slot];
                    if col == PAD {
                        continue;
                    }
                    let col = col as usize;
                    for r in strip.row0..strip.row0 + strip.height {
                        let v = a.get(r, col);
                        if v.is_zero() {
                            continue;
                        }
                        let vf = v.to_f32();
                        let b_row = b.row(col);
                        let c_row = &mut c[r * n..(r + 1) * n];
                        for (acc, bv) in c_row.iter_mut().zip(b_row) {
                            *acc += vf * bv.to_f32();
                        }
                    }
                }
            }
        }
        c
    }

    /// Builds the timing launch.
    pub fn build_launch(&self, n: usize, spec: &GpuSpec) -> KernelLaunch {
        let cfg = &self.config.base;
        let n_blocks = n.div_ceil(cfg.block_tile_n);
        let mut blocks = Vec::with_capacity(self.strips.len() * n_blocks);
        for strip in &self.strips {
            // One trace per strip, shared across its N-tiles.
            let block = std::sync::Arc::new(build_block(strip, cfg, spec));
            blocks.extend(std::iter::repeat_n(block, n_blocks));
        }
        let stats = self.stats();
        let stored = (stats.sparse_windows + stats.dense_windows) * MMA_TILE * 16 * 2
            + stats.cuda_windows * 64;
        KernelLaunch {
            blocks,
            dram_bytes: (stored + self.k * n * 2 + self.m * n * 2) as u64,
            block_bias: Vec::new(),
        }
    }

    /// Simulates the hybrid kernel.
    pub fn simulate(&self, n: usize, spec: &GpuSpec) -> KernelStats {
        simulate_kernel(&self.build_launch(n, spec), spec)
    }
}

fn build_strip(
    a: &Matrix,
    row0: usize,
    height: usize,
    bank_aware: bool,
    cuda_max_live: usize,
) -> HybridStrip {
    let tile_rows = height / MMA_TILE;
    let (live, zero_cols) = live_columns(a, row0, height);
    let nnz = (row0..row0 + height)
        .map(|r| a.row(r).iter().filter(|v| !v.is_zero()).count())
        .sum();

    let mut col_order = Vec::new();
    let mut routes = Vec::new();
    for chunk in live.chunks(MMA_TILE) {
        let mut slots = [PAD; MMA_TILE];
        slots[..chunk.len()].copy_from_slice(chunk);
        if chunk.len() <= cuda_max_live {
            routes.push(Route::Cuda);
        } else {
            // Try the 2:4 reorder for every 16-row tile in the strip;
            // any failure sends the whole window to the dense route.
            let mut tiles = Vec::with_capacity(tile_rows);
            let mut ok = true;
            for tr in 0..tile_rows {
                let masks = window_masks(a, row0 + tr * MMA_TILE, &slots);
                match reorder_tile(&masks, bank_aware, DEFAULT_WORK_LIMIT) {
                    Some(t) => tiles.push(t),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            routes.push(if ok {
                Route::Sparse(tiles)
            } else {
                Route::Dense
            });
        }
        col_order.extend_from_slice(&slots);
    }

    HybridStrip {
        row0,
        height,
        col_order,
        routes,
        zero_cols,
        nnz,
    }
}

fn build_block(strip: &HybridStrip, cfg: &JigsawConfig, spec: &GpuSpec) -> BlockTrace {
    let warps = cfg.warps_per_block();
    let mmas_per_step = cfg.mmas_per_warp_per_step();
    let fma_per_cycle = spec.cuda_fp16_fma_per_cycle_per_scheduler as u32;

    // Partition windows by route.
    let sparse: Vec<&Route> = strip
        .routes
        .iter()
        .filter(|r| matches!(r, Route::Sparse(_)))
        .collect();
    let dense = strip
        .routes
        .iter()
        .filter(|r| matches!(r, Route::Dense))
        .count();
    let cuda = strip
        .routes
        .iter()
        .filter(|r| matches!(r, Route::Cuda))
        .count();

    let sparse_pairs = sparse.len().div_ceil(2);
    let b_slab = (32 * (cfg.block_tile_n + 8) * 2 / warps) as u32;
    let a_slab = ((cfg.block_tile_m * 16 * 2 + (cfg.block_tile_m / 16) * 64) / warps) as u32;

    let trace_for = |_wi: usize| {
        let mut t = TokenAlloc::new();
        let mut trace: Vec<WarpInstr> = Vec::new();
        trace.push(WarpInstr::CudaOp {
            cycles: 20,
            consumes: vec![],
            produces: None,
        });
        let mut acc: Vec<Option<u32>> = vec![None; mmas_per_step];

        // SpTC route: the base Jigsaw inner loop (condensed: deep
        // pipeline + interleaved metadata, conflict-free B).
        for p in 0..sparse_pairs {
            trace.push(WarpInstr::CpAsync {
                bytes: b_slab,
                group: 0,
                consumes: vec![],
            });
            trace.push(WarpInstr::CpAsync {
                bytes: a_slab,
                group: 0,
                consumes: vec![],
            });
            trace.push(WarpInstr::CommitGroup { group: 0 });
            trace.push(WarpInstr::WaitGroup {
                pending_allowed: u8::from(p + 1 < sparse_pairs),
            });
            trace.push(WarpInstr::Barrier);
            let m_tok = t.fresh();
            if p % 2 == 0 {
                trace.push(WarpInstr::Ldmatrix {
                    phases: 1,
                    total_ways: 1,
                    produces: Some(m_tok),
                    consumes: vec![],
                });
            }
            let a_tok = t.fresh();
            trace.push(WarpInstr::Ldmatrix {
                phases: 4,
                total_ways: 4,
                produces: Some(a_tok),
                consumes: vec![],
            });
            for slot in acc.iter_mut() {
                let b_tok = t.fresh();
                trace.push(WarpInstr::Ldmatrix {
                    phases: 4,
                    total_ways: 4,
                    produces: Some(b_tok),
                    consumes: vec![],
                });
                let d = t.fresh();
                let mut consumes = vec![a_tok, b_tok, m_tok];
                if let Some(prev) = slot {
                    consumes.push(*prev);
                }
                trace.push(WarpInstr::Mma {
                    op: MmaOp::SparseM16N8K32,
                    consumes,
                    produces: Some(d),
                });
                *slot = Some(d);
            }
        }

        // Dense route: one k16 window per dense mma batch — twice the
        // tensor work per window, but no metadata and no eviction.
        // Double-buffered like the sparse route.
        if dense > 0 {
            trace.push(WarpInstr::CpAsync {
                bytes: b_slab / 2,
                group: 0,
                consumes: vec![],
            });
            trace.push(WarpInstr::CommitGroup { group: 0 });
        }
        for d in 0..dense {
            if d + 1 < dense {
                trace.push(WarpInstr::CpAsync {
                    bytes: b_slab / 2,
                    group: 0,
                    consumes: vec![],
                });
                trace.push(WarpInstr::CommitGroup { group: 0 });
            }
            trace.push(WarpInstr::WaitGroup {
                pending_allowed: u8::from(d + 1 < dense),
            });
            trace.push(WarpInstr::Barrier);
            let a_tok = t.fresh();
            trace.push(WarpInstr::Ldmatrix {
                phases: 4,
                total_ways: 4,
                produces: Some(a_tok),
                consumes: vec![],
            });
            for slot in acc.iter_mut() {
                let b_tok = t.fresh();
                trace.push(WarpInstr::Ldmatrix {
                    phases: 2,
                    total_ways: 2,
                    produces: Some(b_tok),
                    consumes: vec![],
                });
                let d = t.fresh();
                let mut consumes = vec![a_tok, b_tok];
                if let Some(prev) = slot {
                    consumes.push(*prev);
                }
                trace.push(WarpInstr::Mma {
                    op: MmaOp::DenseM16N8K16,
                    consumes,
                    produces: Some(d),
                });
                *slot = Some(d);
            }
        }

        // CUDA route: gather + FMA over the few live columns.
        if cuda > 0 {
            let nnz_share = (strip.nnz / warps).max(1) as u32;
            let useful = nnz_share * (cfg.warp_tile_n as u32);
            let g = t.fresh();
            trace.push(WarpInstr::LdGlobal {
                bytes: cuda as u32 * 64,
                transactions: cuda as u32,
                produces: Some(g),
                l2_hit: true,
                consumes: vec![],
            });
            trace.push(WarpInstr::CudaOp {
                cycles: (useful / fma_per_cycle).max(1),
                consumes: vec![g],
                produces: None,
            });
        }

        trace.push(WarpInstr::StGlobal {
            bytes: (cfg.warp_tile_m * cfg.warp_tile_n * 2) as u32,
            consumes: acc.into_iter().flatten().collect(),
        });
        trace
    };

    BlockTrace {
        warps: (0..warps).map(trace_for).collect(),
        smem_bytes: cfg.smem_bytes(),
        gmem: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlmc::{dense_rhs, ValueDist, VectorSparseSpec};

    fn gen(sparsity: f64, v: usize, seed: u64) -> Matrix {
        VectorSparseSpec {
            rows: 64,
            cols: 128,
            sparsity,
            v,
            dist: ValueDist::SmallInt,
            seed,
        }
        .generate()
    }

    #[test]
    fn execution_matches_reference_at_all_densities() {
        for sparsity in [0.3, 0.5, 0.7, 0.9] {
            let a = gen(sparsity, 2, 8);
            let b = dense_rhs(128, 24, ValueDist::SmallInt, 9);
            let plan = HybridPlan::build(&a, HybridConfig::default());
            assert_eq!(
                plan.execute(&a, &b),
                a.matmul_reference(&b),
                "sparsity {sparsity}"
            );
        }
    }

    #[test]
    fn dense_input_routes_to_dense_tensor_cores() {
        let a = Matrix::from_f32(32, 64, &[1.0; 32 * 64]);
        let plan = HybridPlan::build(&a, HybridConfig::default());
        let stats = plan.stats();
        assert!(stats.dense_windows > 0);
        assert_eq!(stats.sparse_windows, 0, "dense windows cannot be 2:4");
        // Crucially, K never grows: windows == ceil(live/16).
        let windows: usize = plan.strips.iter().map(|s| s.windows()).sum();
        assert_eq!(windows, (64usize.div_ceil(16)) * plan.strips.len());
    }

    #[test]
    fn sparse_input_routes_to_sptc() {
        let a = gen(0.95, 8, 10);
        let plan = HybridPlan::build(&a, HybridConfig::default());
        let stats = plan.stats();
        assert!(stats.sparse_windows > 0);
        assert_eq!(stats.dense_windows, 0);
    }

    #[test]
    fn nearly_empty_strips_route_to_cuda() {
        let mut a = Matrix::zeros(32, 64);
        a.set(3, 10, sptc::F16::ONE);
        a.set(20, 11, sptc::F16::ONE);
        let plan = HybridPlan::build(&a, HybridConfig::default());
        let stats = plan.stats();
        assert_eq!(stats.cuda_windows, plan.strips.len());
        assert_eq!(stats.sparse_windows + stats.dense_windows, 0);
    }

    #[test]
    fn hybrid_competitive_below_80_percent_without_retry() {
        // §4.7's dense fallback: at moderate sparsity the eviction-based
        // retry of the pure-SpTC path pads windows down to ~8 live
        // columns — throughput-equivalent to the dense-tensor route —
        // so the hybrid must stay competitive (here: within 30%) while
        // eliminating the reorder-retry search entirely.
        let spec = GpuSpec::a100();
        let a = VectorSparseSpec {
            rows: 512,
            cols: 512,
            sparsity: 0.55,
            v: 2,
            dist: ValueDist::Uniform,
            seed: 11,
        }
        .generate();
        let base_plan = crate::ReorderPlan::build(&a, &JigsawConfig::v4(32));
        assert!(
            base_plan.stats().evictions > 0,
            "55% sparsity must trigger the base path's retries"
        );
        let base = crate::JigsawSpmm::plan(&a, JigsawConfig::v4(32))
            .unwrap()
            .simulate(256, &spec)
            .duration_cycles;
        let plan = HybridPlan::build(&a, HybridConfig::default());
        let hybrid = plan.simulate(256, &spec).duration_cycles;
        assert!(plan.stats().dense_windows > 0, "dense fallback engaged");
        assert!(
            hybrid < base * 1.3,
            "hybrid {hybrid} should stay within 30% of base {base}"
        );
        // And K never grows: window count stays at ceil(live/16).
        for strip in &plan.strips {
            assert!(strip.windows() * 16 <= a.cols + 15);
        }
    }

    #[test]
    fn hybrid_wins_on_scrappy_tiles() {
        // A matrix of nearly-empty strips: the CUDA route beats paying
        // a full mma.sp pipeline per two nonzero columns.
        let mut a = Matrix::zeros(512, 512);
        for strip in 0..512 / 32 {
            a.set(strip * 32 + 3, (strip * 7) % 512, sptc::F16::ONE);
            a.set(strip * 32 + 17, (strip * 13) % 512, sptc::F16::ONE);
        }
        let spec = GpuSpec::a100();
        let base = crate::JigsawSpmm::plan(&a, JigsawConfig::v4(32))
            .unwrap()
            .simulate(256, &spec)
            .duration_cycles;
        let plan = HybridPlan::build(&a, HybridConfig::default());
        assert!(plan.stats().cuda_windows > 0);
        let hybrid = plan.simulate(256, &spec).duration_cycles;
        assert!(
            hybrid <= base,
            "hybrid {hybrid} should not lose to base {base} on scrappy tiles"
        );
    }

    #[test]
    fn hybrid_tracks_base_at_high_sparsity() {
        let spec = GpuSpec::a100();
        let a = gen(0.95, 8, 12);
        let base = crate::JigsawSpmm::plan(&a, JigsawConfig::v4(32))
            .unwrap()
            .simulate(64, &spec)
            .duration_cycles;
        let hybrid = HybridPlan::build(&a, HybridConfig::default())
            .simulate(64, &spec)
            .duration_cycles;
        // Same route for nearly everything -> within 2x of each other.
        assert!(hybrid < base * 2.0 && base < hybrid * 2.0);
    }
}
