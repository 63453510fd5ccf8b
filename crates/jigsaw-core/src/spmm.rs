//! Public API: plan once, run many — matching the paper's observation
//! that the weight matrix is stationary during inference, so the
//! reorder is a one-time preprocessing whose cost amortizes.

use std::sync::{Arc, OnceLock};

use dlmc::Matrix;
use gpu_sim::{GpuSpec, KernelStats};
use serde::{Deserialize, Serialize};

use jigsaw_obs::Span;

use crate::compiled::CompiledKernel;
use crate::config::{JigsawConfig, MMA_TILE};
use crate::errors::PlanError;
use crate::exec::execute_via_fragments;
use crate::format::JigsawFormat;
use crate::reorder::{ReorderPlan, ReorderStats};
use crate::sim_memo::{simulate_plan, SimMemo};

/// A planned (reordered + compressed) sparse matrix, ready to multiply
/// against any B.
#[derive(Clone, Debug)]
pub struct JigsawSpmm {
    /// The kernel configuration the plan was built for.
    pub config: JigsawConfig,
    /// The compressed reorder-aware format.
    pub format: JigsawFormat,
    /// Reorder quality statistics (Figure 11's signals).
    pub reorder_stats: ReorderStats,
    /// Lazily compiled execution plan (built on first run, shared by
    /// clones made after that point).
    compiled: OnceLock<Arc<CompiledKernel>>,
    /// Simulated stats per `(n, spec)`, shared by every clone. Like
    /// `compiled`, it assumes `format` and `config` keep their planned
    /// values.
    sim_memo: Arc<SimMemo>,
}

/// Result of a timed SpMM: the product and the simulated kernel report.
#[derive(Clone, Debug)]
pub struct SpmmRun {
    /// Row-major `M × N` output in f32 (the accumulator precision).
    pub c: Vec<f32>,
    /// Simulated execution report.
    pub stats: KernelStats,
}

/// Summary of a v4 autotuning decision.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TuneReport {
    /// Chosen `BLOCK_TILE_M`.
    pub block_tile_m: usize,
    /// Simulated duration of each candidate, cycles.
    pub candidate_cycles: Vec<(usize, f64)>,
}

impl JigsawSpmm {
    /// Plans the sparse matrix: multi-granularity reorder + compression.
    ///
    /// Returns a typed [`PlanError`] (never panics) when the config's
    /// tiling is invalid or the matrix height is not a multiple of
    /// `MMA_TILE`. When tracing is enabled (`jigsaw_obs::set_enabled`)
    /// the phases are recorded as a `plan` root span in the global
    /// registry.
    pub fn plan(a: &Matrix, config: JigsawConfig) -> Result<JigsawSpmm, PlanError> {
        let root = Span::root("plan");
        Self::plan_traced(a, config, &root)
    }

    /// [`JigsawSpmm::plan`] with the per-phase spans
    /// (`plan.block_reorder`, `plan.tile_reorder`, `plan.compress`)
    /// attached to a caller-provided parent — how a serving layer pulls
    /// planning into a request trace.
    pub fn plan_traced(
        a: &Matrix,
        config: JigsawConfig,
        parent: &Span,
    ) -> Result<JigsawSpmm, PlanError> {
        crate::fault::hit(crate::fault::points::PLAN)?;
        config.validate()?;
        if !a.rows.is_multiple_of(MMA_TILE) {
            return Err(PlanError::RowsNotTileAligned {
                rows: a.rows,
                tile: MMA_TILE,
            });
        }
        parent.attr("block_tile_m", config.block_tile_m);
        let plan = ReorderPlan::build_traced(a, &config, parent);
        let reorder_stats = plan.stats();
        let compress = parent.child("plan.compress");
        let format = JigsawFormat::build(a, &plan, config.metadata_interleave);
        if compress.is_recording() {
            compress.attr("windows", reorder_stats.total_windows);
        }
        compress.finish();
        Ok(JigsawSpmm {
            config,
            format,
            reorder_stats,
            compiled: OnceLock::new(),
            sim_memo: Arc::default(),
        })
    }

    /// Plans with v4 autotuning: builds the plan at every candidate
    /// `BLOCK_TILE_M`, simulates a kernel at the given `n`, keeps the
    /// fastest (paper §4.1 "we empirically tune the size of
    /// BLOCK_TILE").
    pub fn plan_tuned(
        a: &Matrix,
        n: usize,
        spec: &GpuSpec,
    ) -> Result<(JigsawSpmm, TuneReport), PlanError> {
        Self::plan_tuned_over(a, n, spec, &JigsawConfig::BLOCK_TILE_CANDIDATES)
    }

    /// [`JigsawSpmm::plan_tuned`] over a caller-chosen candidate set.
    /// An empty set is [`PlanError::NoCandidates`]; an invalid
    /// candidate tiling fails the whole tune with its own error rather
    /// than being silently skipped. Each candidate gets a
    /// `plan.candidate` span carrying its simulated cycles.
    pub fn plan_tuned_over(
        a: &Matrix,
        n: usize,
        spec: &GpuSpec,
        block_tile_candidates: &[usize],
    ) -> Result<(JigsawSpmm, TuneReport), PlanError> {
        let root = Span::root("plan_tuned");
        let mut best: Option<(JigsawSpmm, f64)> = None;
        let mut candidates = Vec::new();
        for &bt in block_tile_candidates {
            let span = root.child("plan.candidate");
            span.attr("block_tile_m", bt);
            let planned = JigsawSpmm::plan_traced(a, JigsawConfig::v4(bt), &span)?;
            let cycles = planned.simulate_memoized(n, spec).0.duration_cycles;
            span.cycles(cycles);
            span.finish();
            candidates.push((bt, cycles));
            if best.as_ref().is_none_or(|(_, c)| cycles < *c) {
                best = Some((planned, cycles));
            }
        }
        let (planned, _) = best.ok_or(PlanError::NoCandidates)?;
        root.attr("chosen_block_tile_m", planned.config.block_tile_m);
        let report = TuneReport {
            block_tile_m: planned.config.block_tile_m,
            candidate_cycles: candidates,
        };
        Ok((planned, report))
    }

    /// The compiled execution plan of this format, built on first use
    /// and cached for every later run (see [`CompiledKernel`]).
    pub fn compiled(&self) -> &Arc<CompiledKernel> {
        self.compiled
            .get_or_init(|| Arc::new(CompiledKernel::compile(&self.format)))
    }

    /// Computes `C = A × B` and reports the kernel's simulated
    /// execution (memoized per `(n, spec)`, see
    /// [`JigsawSpmm::simulate_memoized`]).
    ///
    /// Values come from the compiled plan through the microkernel
    /// dispatch layer's auto selection, the widest un-poisoned ISA the
    /// host has (forced selection goes through
    /// [`CompiledKernel::execute_opts`]).
    pub fn run(&self, b: &Matrix, spec: &GpuSpec) -> SpmmRun {
        let c = self.compiled().execute(b);
        let (stats, _) = self.simulate_memoized(b.cols, spec);
        SpmmRun { c, stats }
    }

    /// Timing only (no values computed), simulated afresh on every call
    /// — what the benchmark sweeps and differential tests use.
    pub fn simulate(&self, n: usize, spec: &GpuSpec) -> KernelStats {
        simulate_plan(&self.format, &self.config, n, spec)
    }

    /// [`JigsawSpmm::simulate`] through this plan's memo: the first
    /// call at `(n, spec)` simulates, later ones return bit-identical
    /// stats without running the timing model. The flag says whether
    /// the memo answered.
    pub fn simulate_memoized(&self, n: usize, spec: &GpuSpec) -> (KernelStats, bool) {
        self.sim_memo
            .get_or_simulate(n, spec, || self.simulate(n, spec))
    }

    /// This plan's simulation memo (shared by its clones).
    pub fn sim_memo(&self) -> &SimMemo {
        &self.sim_memo
    }

    /// Computes the product through the full SpTC fragment emulation
    /// (slow; bit-faithful to the hardware data path).
    pub fn run_via_fragments(&self, b: &Matrix) -> Vec<f32> {
        execute_via_fragments(&self.format, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlmc::{dense_rhs, ValueDist, VectorSparseSpec};

    fn workload(sparsity: f64, v: usize) -> (Matrix, Matrix) {
        let a = VectorSparseSpec {
            rows: 128,
            cols: 256,
            sparsity,
            v,
            dist: ValueDist::SmallInt,
            seed: 50,
        }
        .generate();
        let b = dense_rhs(256, 64, ValueDist::SmallInt, 51);
        (a, b)
    }

    #[test]
    fn plan_and_run_end_to_end() {
        let (a, b) = workload(0.9, 4);
        let spmm = JigsawSpmm::plan(&a, JigsawConfig::v4(32)).unwrap();
        assert!(spmm.reorder_stats.success);
        let run = spmm.run(&b, &GpuSpec::a100());
        assert_eq!(run.c, a.matmul_reference(&b));
        assert!(run.stats.duration_cycles > 0.0);
        assert!(run.stats.totals.mma_instructions > 0);
    }

    #[test]
    fn tuned_plan_picks_a_candidate() {
        let (a, _) = workload(0.95, 8);
        let (spmm, report) = JigsawSpmm::plan_tuned(&a, 256, &GpuSpec::a100()).unwrap();
        assert_eq!(report.candidate_cycles.len(), 3);
        assert_eq!(spmm.config.block_tile_m, report.block_tile_m);
        let best = report
            .candidate_cycles
            .iter()
            .map(|&(_, c)| c)
            .fold(f64::INFINITY, f64::min);
        let chosen = report
            .candidate_cycles
            .iter()
            .find(|&&(bt, _)| bt == report.block_tile_m)
            .unwrap()
            .1;
        assert_eq!(best, chosen);
    }

    #[test]
    fn fragment_path_agrees_with_fast_path() {
        let (a, b) = workload(0.85, 2);
        let spmm = JigsawSpmm::plan(&a, JigsawConfig::v4(16)).unwrap();
        assert_eq!(spmm.run_via_fragments(&b), a.matmul_reference(&b));
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        use crate::errors::{ConfigError, PlanError};
        let (a, _) = workload(0.9, 4);
        // Off-grid BLOCK_TILE_M from v4 surfaces at plan time.
        assert_eq!(
            JigsawSpmm::plan(&a, JigsawConfig::v4(40)).unwrap_err(),
            PlanError::Config(ConfigError::BlockTileNotMmaAligned { block_tile_m: 40 })
        );
        // Rows not divisible by MMA_TILE.
        let short = VectorSparseSpec {
            rows: 24,
            cols: 64,
            sparsity: 0.9,
            v: 4,
            dist: ValueDist::SmallInt,
            seed: 9,
        }
        .generate();
        assert_eq!(
            JigsawSpmm::plan(&short, JigsawConfig::v4(16)).unwrap_err(),
            PlanError::RowsNotTileAligned { rows: 24, tile: 16 }
        );
        // Empty autotune candidate set.
        assert_eq!(
            JigsawSpmm::plan_tuned_over(&a, 64, &GpuSpec::a100(), &[]).unwrap_err(),
            PlanError::NoCandidates
        );
    }

    /// Serializes tests that toggle the global tracing flag.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn plan_phases_are_traced_with_wall_time() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        jigsaw_obs::set_enabled(true);
        let (a, _) = workload(0.9, 4);
        let (root, handle) = jigsaw_obs::Span::trace("test.plan");
        JigsawSpmm::plan_traced(&a, JigsawConfig::v4(32), &root).unwrap();
        root.finish();
        jigsaw_obs::set_enabled(false);
        let rec = handle.take().expect("trace recorded");
        for phase in ["plan.block_reorder", "plan.tile_reorder", "plan.compress"] {
            let span = rec.find(phase).unwrap_or_else(|| panic!("{phase} missing"));
            // Wall time is captured per phase (may be 0ns on a coarse
            // clock, but the field is populated by construction).
            assert!(span.wall_ns < 10_000_000_000, "{phase} sane wall time");
        }
        assert!(rec
            .find("plan.tile_reorder")
            .unwrap()
            .attr("evictions")
            .is_some());
    }

    #[test]
    fn tuned_candidates_are_traced_with_cycles() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        jigsaw_obs::set_enabled(true);
        jigsaw_obs::global().reset();
        let (a, _) = workload(0.95, 8);
        let _ = JigsawSpmm::plan_tuned(&a, 128, &GpuSpec::a100()).unwrap();
        jigsaw_obs::set_enabled(false);
        let rec = jigsaw_obs::global()
            .latest_trace("plan_tuned")
            .expect("root span recorded");
        let candidates: Vec<_> = rec
            .children
            .iter()
            .filter(|c| c.name == "plan.candidate")
            .collect();
        assert_eq!(candidates.len(), 3);
        for c in &candidates {
            assert!(c.cycles.unwrap() > 0.0);
            assert!(c.find("plan.tile_reorder").is_some());
        }
    }
}
