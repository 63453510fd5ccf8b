//! Table 3: Jigsaw vs VENOM and cuSparseLt on matrices already pruned
//! to VENOM's V:N:M pattern (no reordering needed) — paper §4.5.

use gpu_sim::GpuSpec;
use jigsaw_core::JigsawSpmm;
use serde::{Deserialize, Serialize};

use baselines::{CuSparseLt, SpmmKernel, Venom};
use dlmc::{venom_two_level, ValueDist};

use crate::runner::render_table;
use crate::suite::geomean;

/// VENOM vector lengths evaluated (the paper's columns).
pub const V_VALUES: &[usize] = &[32, 64, 128];

/// `(sparsity, m_blk)` pairs: VENOM's two levels keep 2-of-`m_blk`
/// vector columns and 2:4 scalars inside, so sparsity =
/// `1 - (2/m_blk)/2 = 1 - 1/m_blk`.
pub const SPARSITY_MBLK: &[(f64, usize)] = &[(0.80, 5), (0.90, 10), (0.95, 20), (0.98, 50)];

/// The paper's Table 3 `(sparsity, v, method, avg_speedup)`.
pub const PAPER_TABLE3: &[(f64, usize, &str, f64)] = &[
    (0.80, 32, "VENOM", 1.91),
    (0.80, 64, "VENOM", 1.63),
    (0.80, 128, "VENOM", 1.50),
    (0.90, 32, "VENOM", 1.53),
    (0.90, 64, "VENOM", 1.37),
    (0.90, 128, "VENOM", 1.33),
    (0.95, 32, "VENOM", 1.32),
    (0.95, 64, "VENOM", 1.22),
    (0.95, 128, "VENOM", 1.21),
    (0.98, 32, "VENOM", 1.22),
    (0.98, 64, "VENOM", 1.14),
    (0.98, 128, "VENOM", 1.15),
    (0.80, 32, "cuSparseLt", 2.10),
    (0.80, 64, "cuSparseLt", 2.12),
    (0.80, 128, "cuSparseLt", 2.01),
    (0.90, 32, "cuSparseLt", 2.16),
    (0.90, 64, "cuSparseLt", 2.19),
    (0.90, 128, "cuSparseLt", 2.08),
    (0.95, 32, "cuSparseLt", 2.19),
    (0.95, 64, "cuSparseLt", 2.21),
    (0.95, 128, "cuSparseLt", 2.15),
    (0.98, 32, "cuSparseLt", 2.31),
    (0.98, 64, "cuSparseLt", 2.32),
    (0.98, 128, "cuSparseLt", 2.28),
];

/// One Table 3 cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cell {
    /// Sparsity level.
    pub sparsity: f64,
    /// VENOM vector length V.
    pub v: usize,
    /// Baseline name.
    pub method: String,
    /// Average Jigsaw speedup.
    pub avg: f64,
}

/// Table 3 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table3 {
    /// All cells.
    pub cells: Vec<Cell>,
}

/// Shapes evaluated (rows divide by V up to 128; K divides by every
/// m_blk and keeps the compacted width a multiple of 4).
const SHAPES: &[(usize, usize)] = &[(1024, 1000), (2048, 2000)];
/// Output width.
const N: usize = 512;

/// Runs the experiment.
pub fn run(spec: &GpuSpec) -> Table3 {
    let grid: Vec<(f64, usize, usize)> = SPARSITY_MBLK
        .iter()
        .flat_map(|&(s, m_blk)| V_VALUES.iter().map(move |&v| (s, m_blk, v)))
        .collect();
    let cells: Vec<Vec<Cell>> = grid
        .iter()
        .map(|&(sparsity, m_blk, v)| {
            let mut venom_speedups = Vec::new();
            let mut lt_speedups = Vec::new();
            for &(rows, cols) in SHAPES {
                let (full, compact) = venom_two_level(
                    rows,
                    cols,
                    v,
                    2,
                    m_blk,
                    ValueDist::Ones,
                    5_500 + v as u64 + m_blk as u64,
                );
                // Jigsaw consumes the full layout directly (reorder
                // skips the pruned columns); VENOM's kernel runs its
                // native format; cuSparseLt takes the compacted
                // kept-column matrix, which is plain 2:4.
                let (jig, _) =
                    JigsawSpmm::plan_tuned(&full, N, spec).expect("candidate set is non-empty");
                let tj = jig.simulate(N, spec).duration_cycles;
                let tv = Venom::plan(&full, v, 2, m_blk)
                    .simulate(N, spec)
                    .duration_cycles;
                let tl = CuSparseLt::plan(&compact)
                    .expect("compacted VENOM matrix is 2:4")
                    .simulate(N, spec)
                    .duration_cycles;
                venom_speedups.push(tv / tj);
                lt_speedups.push(tl / tj);
            }
            vec![
                Cell {
                    sparsity,
                    v,
                    method: "VENOM".to_string(),
                    avg: geomean(&venom_speedups),
                },
                Cell {
                    sparsity,
                    v,
                    method: "cuSparseLt".to_string(),
                    avg: geomean(&lt_speedups),
                },
            ]
        })
        .collect();
    Table3 {
        cells: cells.into_iter().flatten().collect(),
    }
}

impl Table3 {
    /// Cell lookup.
    pub fn cell(&self, sparsity: f64, v: usize, method: &str) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| (c.sparsity - sparsity).abs() < 1e-9 && c.v == v && c.method == method)
    }

    /// Renders the paper-style table.
    pub fn to_text(&self) -> String {
        let mut header = vec!["Sparsity".to_string()];
        for m in ["VENOM", "cuSparseLt"] {
            for v in V_VALUES {
                header.push(format!("{m} V={v}"));
            }
        }
        let rows: Vec<Vec<String>> = SPARSITY_MBLK
            .iter()
            .map(|&(s, _)| {
                let mut row = vec![format!("{:.0}%", s * 100.0)];
                for m in ["VENOM", "cuSparseLt"] {
                    for &v in V_VALUES {
                        row.push(match self.cell(s, v, m) {
                            Some(c) => format!("{:.2}x", c.avg),
                            None => "-".to_string(),
                        });
                    }
                }
                row
            })
            .collect();
        format!(
            "Table 3 — Jigsaw speedup on VENOM-pruned matrices\n{}",
            render_table(&header, &rows)
        )
    }
}
