//! Bit-identity pins for the planning pipeline: the reorder plan, the
//! compressed format and the compiled stream of a fixed grid of
//! matrices hash to checked-in digests.
//!
//! Planning is pure preprocessing, so any speed-up to
//! `ReorderPlan::build`, `JigsawFormat::build` or
//! `CompiledKernel::compile` must leave every digest unchanged. The
//! grid covers v ∈ {1, 2, 4, 8} × s ∈ {0.8, 0.9, 0.95} ×
//! `BLOCK_TILE_M` ∈ {16, 32, 64} with metadata interleave on and off,
//! plus dense inputs where Algorithm 1 fails and windows evict (and the
//! hybrid planner sends windows to the dense route). On a mismatch the
//! test prints the digests it computed; paste them over `EXPECTED` only
//! after an *intentional* change to what planning produces.

use dlmc::{Matrix, ValueDist, VectorSparseSpec};
use jigsaw_core::hybrid::HybridStrip;
use jigsaw_core::reorder::ReorderPlan;
use jigsaw_core::{CompiledKernel, HybridConfig, HybridPlan, JigsawConfig, JigsawFormat, Route};

/// 64-bit FNV-1a: a fixed, dependency-free hash, stable across
/// toolchains (unlike `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }
}

/// The digests of one run over the whole grid.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    plan: u64,
    format: u64,
    compiled: u64,
    hybrid: u64,
}

const EXPECTED: Digests = Digests {
    plan: 0xf43d_14fb_ff1a_9775,
    format: 0x2058_c737_d7db_4d4c,
    compiled: 0xbf23_468d_a78b_b041,
    hybrid: 0xd117_4ed0_ea02_4e2f,
};

fn hash_plan(h: &mut Fnv, plan: &ReorderPlan) {
    h.usize(plan.strips.len());
    for s in &plan.strips {
        h.usize(s.row0);
        h.usize(s.height);
        h.usize(s.zero_cols);
        h.usize(s.evictions);
        h.usize(s.col_order.len());
        s.col_order.iter().for_each(|&c| h.u32(c));
        h.usize(s.tiles.len());
        for t in &s.tiles {
            h.bytes(&t.perm);
            h.u32(t.conflict_pairs);
        }
    }
}

fn hash_format(h: &mut Fnv, f: &JigsawFormat) {
    h.usize(f.strips.len());
    for s in &f.strips {
        h.usize(s.windows);
        h.usize(s.values.len());
        s.values
            .iter()
            .for_each(|v| h.bytes(&v.to_bits().to_le_bytes()));
        h.usize(s.metadata.len());
        s.metadata.iter().for_each(|&w| h.u32(w));
        h.bytes(&s.block_col_idx);
        s.col_idx.iter().for_each(|&c| h.u32(c));
    }
}

fn hash_compiled(h: &mut Fnv, k: &CompiledKernel) {
    h.usize(k.nnz());
    for row in 0..k.m {
        for (v, c) in k.row_stream(row) {
            h.u32(v.to_bits());
            h.usize(c);
        }
        // Row boundary, so moving a nonzero between rows changes the hash.
        h.u32(u32::MAX);
    }
}

fn hash_hybrid_strip(h: &mut Fnv, s: &HybridStrip) {
    h.usize(s.row0);
    h.usize(s.height);
    h.usize(s.zero_cols);
    h.usize(s.nnz);
    s.col_order.iter().for_each(|&c| h.u32(c));
    for r in &s.routes {
        match r {
            Route::Sparse(tiles) => {
                h.u32(0);
                for t in tiles {
                    h.bytes(&t.perm);
                    h.u32(t.conflict_pairs);
                }
            }
            Route::Dense => h.u32(1),
            Route::Cuda => h.u32(2),
        }
    }
}

/// Hashes everything planning produces for `a` at `BLOCK_TILE_M = bt`.
fn digest_case(d: &mut [Fnv; 4], a: &Matrix, bt: usize) {
    let plan = ReorderPlan::build(a, &JigsawConfig::v4(bt));
    hash_plan(&mut d[0], &plan);
    for interleaved in [false, true] {
        let format = JigsawFormat::build(a, &plan, interleaved);
        hash_format(&mut d[1], &format);
        hash_compiled(&mut d[2], &CompiledKernel::compile(&format));
    }
    let mut cfg = HybridConfig::default();
    cfg.base.block_tile_m = bt;
    for s in &HybridPlan::build(a, cfg).strips {
        hash_hybrid_strip(&mut d[3], s);
    }
}

fn grid_digests() -> Digests {
    let mut d = [Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new()];
    let mut seed = 0u64;
    for v in [1usize, 2, 4, 8] {
        for sparsity in [0.8f64, 0.9, 0.95] {
            for bt in [16usize, 32, 64] {
                seed += 1;
                // 96 rows leave a short last strip at BLOCK_TILE_M = 64;
                // 200 columns leave a partly padded last window.
                let a = VectorSparseSpec {
                    rows: 96,
                    cols: 200,
                    sparsity,
                    v,
                    dist: ValueDist::Uniform,
                    seed,
                }
                .generate();
                digest_case(&mut d, &a, bt);
            }
        }
    }
    // Dense fallback: most tiles are infeasible, so windows evict
    // columns (and the hybrid planner routes them dense).
    let dense = Matrix::from_f32(
        48,
        56,
        &(0..48 * 56)
            .map(|i| ((i % 7) as f32) - 3.0)
            .collect::<Vec<_>>(),
    );
    let half = VectorSparseSpec {
        rows: 64,
        cols: 96,
        sparsity: 0.5,
        v: 1,
        dist: ValueDist::Uniform,
        seed: 99,
    }
    .generate();
    for bt in [16usize, 32] {
        digest_case(&mut d, &dense, bt);
        digest_case(&mut d, &half, bt);
    }
    Digests {
        plan: d[0].0,
        format: d[1].0,
        compiled: d[2].0,
        hybrid: d[3].0,
    }
}

#[test]
fn planning_output_matches_pinned_digests() {
    let got = grid_digests();
    assert_eq!(
        got, EXPECTED,
        "planning output changed; computed digests:\n{got:#x?}"
    );
}
