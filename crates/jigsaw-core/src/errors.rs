//! Typed errors for the public planning API.
//!
//! The error-type map (DESIGN.md §10): [`ConfigError`] describes an
//! invalid tiling, [`PlanError`] wraps it plus everything else that can
//! stop [`crate::JigsawSpmm::plan`], and the layers above add their own
//! wrappers — `SessionError::Plan` in [`crate::session`] and
//! `RegistryError::Plan` in `jigsaw-serve`. Nothing on these paths
//! panics; malformed configs and inputs always come back as values.

use std::fmt;

use crate::config::{MMA_N, MMA_TILE};
use crate::fault::FaultError;

/// Why a [`crate::JigsawConfig`] tiling is invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Some tile dimension is zero.
    ZeroTile,
    /// The block tile is not a whole number of warp tiles.
    BlockNotWarpAligned {
        /// `(block_tile_m, block_tile_n)`.
        block_tile: (usize, usize),
        /// `(warp_tile_m, warp_tile_n)`.
        warp_tile: (usize, usize),
    },
    /// The warp tile is not a whole number of `mma.sp` tiles.
    WarpNotMmaAligned {
        /// `(warp_tile_m, warp_tile_n)`.
        warp_tile: (usize, usize),
    },
    /// `BLOCK_TILE_M` is not a multiple of `MMA_TILE`, so row strips
    /// cannot be cut into 16-row reorder tiles.
    BlockTileNotMmaAligned {
        /// The offending `block_tile_m`.
        block_tile_m: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroTile => write!(f, "tile dimensions must be nonzero"),
            ConfigError::BlockNotWarpAligned {
                block_tile,
                warp_tile,
            } => write!(
                f,
                "block tile {}x{} must be a multiple of the warp tile {}x{}",
                block_tile.0, block_tile.1, warp_tile.0, warp_tile.1
            ),
            ConfigError::WarpNotMmaAligned { warp_tile } => write!(
                f,
                "warp tile {}x{} must be a multiple of the mma tile {MMA_TILE}x{MMA_N}",
                warp_tile.0, warp_tile.1
            ),
            ConfigError::BlockTileNotMmaAligned { block_tile_m } => write!(
                f,
                "BLOCK_TILE_M {block_tile_m} must be a multiple of MMA_TILE ({MMA_TILE})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why [`crate::JigsawSpmm::plan`] / `plan_tuned` could not produce a
/// plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The kernel configuration is invalid.
    Config(ConfigError),
    /// The matrix height is not a multiple of the 16-row reorder tile,
    /// so it cannot be cut into `MMA_TILE` strips. (Pad A to a multiple
    /// of 16 rows before planning.)
    RowsNotTileAligned {
        /// Matrix rows.
        rows: usize,
        /// Required row granularity (`MMA_TILE`).
        tile: usize,
    },
    /// Autotuning was asked to choose among zero candidates.
    NoCandidates,
    /// An armed [`crate::fault`] injection point fired during planning.
    Fault(FaultError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Config(e) => write!(f, "invalid configuration: {e}"),
            PlanError::RowsNotTileAligned { rows, tile } => {
                write!(f, "matrix rows {rows} must be a multiple of {tile}")
            }
            PlanError::NoCandidates => write!(f, "autotune candidate list is empty"),
            PlanError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Config(e) => Some(e),
            PlanError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for PlanError {
    fn from(e: ConfigError) -> PlanError {
        PlanError::Config(e)
    }
}

impl From<FaultError> for PlanError {
    fn from(e: FaultError) -> PlanError {
        PlanError::Fault(e)
    }
}

/// Why a compiled-kernel execution could not run over the buffers it
/// was handed — the typed edges of
/// `CompiledKernel::execute_prepaneled_into_opts`, `PanelizedB::new`
/// and the panel-major assembly helpers (`panelize_into` /
/// `panelize_parts_into`). `CompiledKernel::execute_opts` and
/// `execute_pooled` size their own buffers and panic on these misuse
/// cases (a B of the wrong height); resilient callers — the serve
/// registry's batch path — use the fallible entry points and fail the
/// batch on an `Err`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// B's height (or a batch part's height) does not match the
    /// kernel's reduction dimension, or is below the rows the kernel's
    /// compiled stream reads.
    BRowsMismatch {
        /// The expected reduction dimension (the kernel's K, or the
        /// height of part 0 when assembling a batch).
        expected_k: usize,
        /// The offending height.
        got: usize,
    },
    /// The output buffer does not hold exactly `m × n` elements.
    OutputSizeMismatch {
        /// Required `m × n` element count.
        expected: usize,
        /// Elements in the buffer handed in.
        got: usize,
    },
    /// The scratch buffer cannot hold the `k × n` panel-major f32
    /// image of B.
    ScratchTooSmall {
        /// Required `k × n` element count.
        needed: usize,
        /// Elements in the buffer handed in.
        got: usize,
    },
    /// A [`crate::PanelizedB`]'s layout disagrees with the kernel it
    /// was handed to (its K is not the kernel's K), so its panel cuts
    /// cannot line up with the execution grid.
    PanelLayoutMismatch {
        /// The kernel's reduction dimension.
        expected_k: usize,
        /// The prepaneled buffer's K.
        got_k: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BRowsMismatch { expected_k, got } => {
                write!(f, "B has {got} rows, the kernel reduces over {expected_k}")
            }
            ExecError::OutputSizeMismatch { expected, got } => {
                write!(f, "output buffer holds {got} elements, m*n is {expected}")
            }
            ExecError::ScratchTooSmall { needed, got } => {
                write!(
                    f,
                    "scratch holds {got} f32, the k*n panel image needs {needed}"
                )
            }
            ExecError::PanelLayoutMismatch { expected_k, got_k } => write!(
                f,
                "prepaneled B was cut for k={got_k}, the kernel reduces over k={expected_k}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Why [`crate::CompiledKernel::try_compile`] could not lower a plan to
/// an executable kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The plan's nonzero stream does not fit the kernel's `u32` column
    /// indices.
    StreamOverflow {
        /// Number of nonzeros in the plan.
        nnz: usize,
    },
    /// A kept nonzero names a source column outside the format's `k`
    /// (a corrupt or mismatched format); the grid would read past B.
    ColumnOutOfRange {
        /// The offending source column.
        col: usize,
        /// The format's reduction dimension.
        k: usize,
    },
    /// An armed [`crate::fault`] injection point fired during
    /// compilation.
    Fault(FaultError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::StreamOverflow { nnz } => {
                write!(f, "nonzero stream of {nnz} elements overflows u32 indices")
            }
            CompileError::ColumnOutOfRange { col, k } => {
                write!(f, "source column {col} is outside k={k}")
            }
            CompileError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultError> for CompileError {
    fn from(e: FaultError) -> CompileError {
        CompileError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = PlanError::from(ConfigError::BlockTileNotMmaAligned { block_tile_m: 40 });
        assert!(e.to_string().contains("40"));
        assert!(e.to_string().contains("invalid configuration"));
        let e = PlanError::RowsNotTileAligned {
            rows: 100,
            tile: 16,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn config_error_is_the_source() {
        use std::error::Error;
        let e = PlanError::from(ConfigError::ZeroTile);
        assert!(e.source().is_some());
        assert!(PlanError::NoCandidates.source().is_none());
    }
}
