//! Sparse Tensor Core instruction shapes (paper Table 1).
//!
//! The Ampere SpTC exposes `mma.sp` at fixed `MxNxK` shapes per element
//! precision. Jigsaw uses `f16` `m16n8k32` because, per the
//! microbenchmarks of Sun et al. (TPDS'23) cited by the paper, it matches
//! the latency/throughput of the dense `m16n8k16` HMMA while covering
//! twice the K extent.

use std::fmt;

/// Operand element precision of a tensor-core instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Precision {
    /// TensorFloat-32 (19-bit significand path).
    Tf32,
    /// IEEE binary16.
    F16,
    /// bfloat16.
    Bf16,
    /// 8-bit integers (signed or unsigned).
    Int8,
    /// 4-bit integers (signed or unsigned).
    Int4,
}

/// An `MxNxK` tensor-core tile shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MmaShape {
    /// Rows of the A/C tiles.
    pub m: usize,
    /// Columns of the B/C tiles.
    pub n: usize,
    /// Reduction extent (columns of A, rows of B) *before* 2:4 compression.
    pub k: usize,
}

impl MmaShape {
    /// The shape Jigsaw uses: sparse `m16n8k32`, f16.
    pub const M16N8K32: MmaShape = MmaShape { m: 16, n: 8, k: 32 };
    /// The smaller f16 sparse shape (lower throughput; not used by Jigsaw).
    pub const M16N8K16: MmaShape = MmaShape { m: 16, n: 8, k: 16 };
    /// Dense HMMA shape used by CLASP (`mma.m8n8k16` heritage).
    pub const M8N8K16: MmaShape = MmaShape { m: 8, n: 8, k: 16 };

    /// Floating-point operations performed by one dense instruction of
    /// this shape (multiply + add counted separately).
    pub fn flops(&self) -> usize {
        2 * self.m * self.n * self.k
    }
}

impl fmt::Display for MmaShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}n{}k{}", self.m, self.n, self.k)
    }
}

/// One row of paper Table 1: the sparse shapes a precision supports.
#[derive(Clone, Copy, Debug)]
pub struct SparseSupport {
    /// Element precision.
    pub precision: Precision,
    /// The two `mma.sp` shapes Ampere offers for that precision.
    pub shapes: [MmaShape; 2],
}

/// Paper Table 1: Ampere `mma.sp` support matrix.
pub const AMPERE_SPARSE_SHAPES: [SparseSupport; 4] = [
    SparseSupport {
        precision: Precision::Tf32,
        shapes: [
            MmaShape { m: 16, n: 8, k: 16 },
            MmaShape { m: 16, n: 8, k: 8 },
        ],
    },
    SparseSupport {
        precision: Precision::F16,
        shapes: [
            MmaShape { m: 16, n: 8, k: 16 },
            MmaShape { m: 16, n: 8, k: 32 },
        ],
    },
    SparseSupport {
        precision: Precision::Int8,
        shapes: [
            MmaShape { m: 16, n: 8, k: 32 },
            MmaShape { m: 16, n: 8, k: 64 },
        ],
    },
    SparseSupport {
        precision: Precision::Int4,
        shapes: [
            MmaShape { m: 16, n: 8, k: 64 },
            MmaShape {
                m: 16,
                n: 8,
                k: 128,
            },
        ],
    },
];

/// Looks up the sparse shapes supported for `precision` (Table 1; `Bf16`
/// shares the `F16` row).
pub fn sparse_shapes_for(precision: Precision) -> Option<[MmaShape; 2]> {
    let lookup = match precision {
        Precision::Bf16 => Precision::F16,
        p => p,
    };
    AMPERE_SPARSE_SHAPES
        .iter()
        .find(|s| s.precision == lookup)
        .map(|s| s.shapes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_f16_row() {
        let shapes = sparse_shapes_for(Precision::F16).unwrap();
        assert!(shapes.contains(&MmaShape::M16N8K16));
        assert!(shapes.contains(&MmaShape::M16N8K32));
    }

    #[test]
    fn bf16_shares_f16_row() {
        assert_eq!(
            sparse_shapes_for(Precision::Bf16),
            sparse_shapes_for(Precision::F16)
        );
    }

    #[test]
    fn int4_supports_k128() {
        let shapes = sparse_shapes_for(Precision::Int4).unwrap();
        assert!(shapes.iter().any(|s| s.k == 128));
    }

    #[test]
    fn flop_counts() {
        assert_eq!(MmaShape::M16N8K32.flops(), 8192);
        assert_eq!(MmaShape::M16N8K16.flops(), 4096);
        assert_eq!(MmaShape::M8N8K16.flops(), 2048);
    }
}
