//! Figure 12: ablation of the kernel optimizations — v0 (baseline,
//! no bank-conflict elimination) through v4 (BLOCK_TILE tuning) at 95%
//! sparsity, v = 8, with the Nsight-style counters the paper quotes.

use gpu_sim::GpuSpec;
use jigsaw_core::{JigsawConfig, JigsawSpmm};
use serde::{Deserialize, Serialize};

use baselines::{CublasGemm, SpmmKernel};

use crate::runner::render_table;
use crate::suite::{geomean, shapes};

/// The paper's measured average speedups for v0..v4 (vs cuBLAS).
pub const PAPER_FIG12: [f64; 5] = [0.89, 1.20, 1.23, 1.40, 1.82];

/// Per-version measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VersionResult {
    /// Version label (`v0`..`v4`).
    pub version: String,
    /// Geomean speedup vs cuBLAS over the suite.
    pub speedup_vs_cublas: f64,
    /// Shared-memory bank conflicts per smem instruction.
    pub conflicts_per_smem_instr: f64,
    /// Long-scoreboard stall cycles per issued instruction.
    pub long_scoreboard_per_instr: f64,
    /// Short-scoreboard stall cycles per issued instruction.
    pub short_scoreboard_per_instr: f64,
    /// Shared-memory instructions issued (normalized per mma).
    pub smem_instr_per_mma: f64,
}

/// Figure 12 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig12 {
    /// v0..v4 in order.
    pub versions: Vec<VersionResult>,
}

/// Evaluation point (paper: 95% sparsity, v = 8).
pub const SPARSITY: f64 = 0.95;
/// Vector width.
pub const V: usize = 8;
/// Output width used for the counters discussion (§4.4 uses 512).
pub const N: usize = 512;

/// Per-version sample: (speedup, conflicts/smem, long-sb, short-sb,
/// smem/mma, duration).
type VersionSample = (f64, f64, f64, f64, f64, f64);

/// Runs the ablation.
pub fn run(spec: &GpuSpec) -> Fig12 {
    // Per shape: cuBLAS reference + all versions.
    let shape_results: Vec<Vec<VersionSample>> = shapes()
        .iter()
        .map(|shape| {
            let a = dlmc::VectorSparseSpec {
                rows: shape.m,
                cols: shape.k,
                sparsity: SPARSITY,
                v: V,
                dist: dlmc::ValueDist::Ones,
                seed: 4_400 + shape.m as u64,
            }
            .generate();
            let cublas = CublasGemm::plan(&a).simulate(N, spec).duration_cycles;

            let mut per_version = Vec::new();
            let configs = [
                JigsawConfig::v0(),
                JigsawConfig::v1(),
                JigsawConfig::v2(),
                JigsawConfig::v3(),
            ];
            for config in configs {
                let spmm = JigsawSpmm::plan(&a, config).expect("preset tiling is valid");
                let stats = spmm.simulate(N, spec);
                per_version.push((
                    cublas / stats.duration_cycles,
                    stats.totals.smem_bank_conflicts as f64
                        / stats.totals.smem_instructions.max(1) as f64,
                    stats.long_scoreboard_per_instr,
                    stats.short_scoreboard_per_instr,
                    stats.totals.smem_instructions as f64
                        / stats.totals.mma_instructions.max(1) as f64,
                    stats.duration_cycles,
                ));
            }
            // v4: BLOCK_TILE-tuned.
            let (spmm, _) =
                JigsawSpmm::plan_tuned(&a, N, spec).expect("candidate set is non-empty");
            let stats = spmm.simulate(N, spec);
            per_version.push((
                cublas / stats.duration_cycles,
                stats.totals.smem_bank_conflicts as f64
                    / stats.totals.smem_instructions.max(1) as f64,
                stats.long_scoreboard_per_instr,
                stats.short_scoreboard_per_instr,
                stats.totals.smem_instructions as f64 / stats.totals.mma_instructions.max(1) as f64,
                stats.duration_cycles,
            ));
            per_version
        })
        .collect();

    let versions = (0..5)
        .map(|vi| {
            let speedups: Vec<f64> = shape_results.iter().map(|s| s[vi].0).collect();
            let mean = |f: fn(&VersionSample) -> f64| {
                shape_results.iter().map(|s| f(&s[vi])).sum::<f64>() / shape_results.len() as f64
            };
            VersionResult {
                version: format!("v{vi}"),
                speedup_vs_cublas: geomean(&speedups),
                conflicts_per_smem_instr: mean(|t| t.1),
                long_scoreboard_per_instr: mean(|t| t.2),
                short_scoreboard_per_instr: mean(|t| t.3),
                smem_instr_per_mma: mean(|t| t.4),
            }
        })
        .collect();
    Fig12 { versions }
}

impl Fig12 {
    /// Renders the table.
    pub fn to_text(&self) -> String {
        let header: Vec<String> = [
            "version",
            "speedup vs cuBLAS",
            "paper",
            "bank conf/smem",
            "long sb/instr",
            "short sb/instr",
            "smem instr/mma",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let rows: Vec<Vec<String>> = self
            .versions
            .iter()
            .enumerate()
            .map(|(i, v)| {
                vec![
                    v.version.clone(),
                    format!("{:.2}", v.speedup_vs_cublas),
                    format!("{:.2}", PAPER_FIG12[i]),
                    format!("{:.3}", v.conflicts_per_smem_instr),
                    format!("{:.2}", v.long_scoreboard_per_instr),
                    format!("{:.2}", v.short_scoreboard_per_instr),
                    format!("{:.2}", v.smem_instr_per_mma),
                ]
            })
            .collect();
        format!(
            "Figure 12 — ablation at {:.0}% sparsity, v={} (geomean vs cuBLAS)\n{}",
            SPARSITY * 100.0,
            V,
            render_table(&header, &rows)
        )
    }
}
