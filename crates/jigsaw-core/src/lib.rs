//! # jigsaw-core — the paper's primary contribution
//!
//! Reproduction of *"Jigsaw: Accelerating SpMM with Vector Sparsity on
//! Sparse Tensor Core"* (ICPP 2024): a vector-sparse `C = A × B` SpMM
//! that runs unstructured 1-D-pruned weight matrices on the 2:4-only
//! Sparse Tensor Core by
//!
//! 1. **multi-granularity sparsity reorder** ([`reorder`]) — zero
//!    columns move to the end of each `BLOCK_TILE` row strip and are
//!    skipped; each 16×16 `MMA_TILE` is column-reordered into the 2:4
//!    pattern (Algorithm 1, with reorder-retry eviction),
//! 2. **reorder-aware storage format** ([`format`]) — `col_idx_array` /
//!    `block_col_idx_array` / SpTC metadata plus Z-swizzled compressed
//!    values, and
//! 3. **kernel optimizations** ([`kernel`]) — bank-conflict
//!    elimination, the deepened async-copy pipeline, and the
//!    interleaved metadata loading pattern.
//!
//! The SpTC itself and the A100 are emulated by the [`sptc`] and
//! [`gpu_sim`] substrate crates (see DESIGN.md §2).
//!
//! ```
//! use dlmc::{dense_rhs, ValueDist, VectorSparseSpec};
//! use jigsaw_core::{JigsawConfig, JigsawSpmm};
//!
//! let a = VectorSparseSpec::new(128, 256, 0.9, 4, 7).generate();
//! let b = dense_rhs(256, 64, ValueDist::Uniform, 8);
//! let spmm = JigsawSpmm::plan(&a, JigsawConfig::v4(32)).expect("valid plan");
//! let run = spmm.run(&b, &gpu_sim::GpuSpec::a100());
//! assert_eq!(run.c.len(), 128 * 64);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod compiled;
pub mod config;
pub mod errors;
pub mod exec;
pub mod fault;
pub mod format;
pub mod hybrid;
pub mod kernel;
pub mod pool;
pub mod reorder;
pub mod serialize;
pub mod session;
pub mod sim_memo;
pub mod spmm;
pub mod swizzle;
pub mod sync;

pub use analysis::{forecast, jigsaw_expected_win, strip_census, ReorderForecast, StripCensus};
pub use compiled::{
    panel_cuts, panel_width, panelize_into, panelize_parts_into, CompiledKernel, ExecOptions,
    KernelKind, KernelPolicy, PanelizedB, PANEL_TARGET_BYTES,
};
pub use config::{ConfigBuilder, JigsawConfig, MMA_N, MMA_TILE};
pub use errors::{CompileError, ConfigError, ExecError, PlanError};
pub use exec::{execute_fast, execute_via_fragments, max_relative_error};
pub use fault::{FaultError, FaultKind, FaultSpec};
pub use format::{format_source_column, JigsawFormat};
pub use hybrid::{HybridConfig, HybridPlan, HybridStats, Route};
pub use kernel::build_launch;
pub use pool::{PoolBuf, PoolStats, WorkspacePool};
pub use reorder::{ReorderPlan, ReorderStats};
pub use session::{ForwardReport, Layer, Session, SessionError};
pub use sim_memo::{simulate_plan, SimMemo, SIM_MEMO_CAP};
pub use spmm::{JigsawSpmm, SpmmRun, TuneReport};
pub use sync::{lock_recover, wait_recover, wait_timeout_recover};
