//! # sptc — functional Sparse Tensor Core emulation
//!
//! Bit-faithful software model of the NVIDIA Ampere Sparse Tensor Core
//! (SpTC) data path used by the Jigsaw SpMM kernel:
//!
//! * [`f16`] — software IEEE binary16 with round-to-nearest-even
//!   conversions (the operand precision Jigsaw targets),
//! * [`shape`] — the `mma`/`mma.sp` shape tables (paper Table 1),
//! * [`compress`] — 2:4 structured-sparsity checks and row compression
//!   (paper Figure 3),
//! * [`metadata`] — the E operand: 2-bit positional metadata packing,
//!   the F selector's lane mapping, and Jigsaw's interleaved layout that
//!   feeds two `mma.sp` ops from one `ldmatrix` (paper Figure 9),
//! * [`fragment`] — warp register-fragment layouts for every operand,
//! * [`mma`] — functional execution of `mma.m16n8k16` and
//!   `mma.sp.m16n8k32` through the fragments,
//! * [`ldmatrix`] — `ldmatrix.x{1,2,4}` semantics plus the 32-bank
//!   shared-memory conflict model (paper Figure 7).
//!
//! This crate is *functional*: it computes exactly what the hardware
//! computes and counts the architectural events (bank conflicts, phases)
//! that the companion `gpu-sim` crate turns into time.

#![warn(missing_docs)]

pub mod compress;
pub mod f16;
pub mod fragment;
pub mod ldmatrix;
pub mod metadata;
pub mod mma;
pub mod shape;

pub use compress::{
    compress_group_2_4, compress_row_2_4, compress_tile_2_4, decompress_row_2_4,
    matrix_satisfies_2_4, row_satisfies_2_4, CompressedRow,
};
pub use f16::F16;
pub use fragment::{AccFragment, F16Fragment, FragKind};
pub use ldmatrix::{bank_of, conflict_ways, ldmatrix, LdmatrixResult, NUM_BANKS};
pub use metadata::{interleave_two_ops, pack_tile_metadata};
pub use mma::{
    dense_tile_reference, mma_m16n8k16, mma_sp_m16n8k16_tile, mma_sp_m16n8k32, mma_sp_tile,
};
pub use shape::{sparse_shapes_for, MmaShape, Precision, AMPERE_SPARSE_SHAPES};
