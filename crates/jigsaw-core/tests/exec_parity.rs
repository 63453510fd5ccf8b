//! Bit-identity pins for compiled execution: every execute entry point
//! over a fixed grid of products hashes to checked-in digests.
//!
//! Each digest folds the `to_bits` of every output element over the
//! whole grid, one digest per entry point and variant:
//!
//! * `opts.<variant>`: [`CompiledKernel::execute_opts`] with the
//!   variant forced,
//! * `prepaneled.<variant>`: [`CompiledKernel::execute_prepaneled_into_opts`]
//!   over a B image written by [`panelize_into`],
//! * `parts.<variant>`: the same over [`panelize_parts_into`] fed ragged
//!   column parts of B,
//! * `pooled.<variant>`: [`CompiledKernel::execute_pooled`], named by
//!   the variant `Auto` selects on the host,
//! * `execute_fast`: the differential oracle.
//!
//! The grid is M ∈ {144, 272} × K ∈ {96, 4096} × v ∈ {1, 4, 8} ×
//! N ∈ {1, 13, 64, 256}. Each matrix's rows are rotated by two, so
//! vector-row groups start off the 4-row grid and run across row 128;
//! at K = 4096 and N = 256 B spans four 64-wide panels. Operands are
//! f16, so every product is exact in f32 and a fused multiply-add
//! rounds like a multiply then an add: all variants agree bit for bit
//! and their digests coincide. Each is still pinned under its own name,
//! so a change to one path shows by name.
//!
//! A variant the host cannot run is skipped with a log line, and a
//! computed digest with no pin is logged, not failed. On a mismatch the
//! test prints every digest it computed; paste them over `EXPECTED`
//! only after an *intentional* change to what execution produces.

use dlmc::{dense_rhs, Matrix, ValueDist, VectorSparseSpec};
use jigsaw_core::compiled::dispatch::{self, ALL_KERNELS};
use jigsaw_core::{
    execute_fast, panelize_into, panelize_parts_into, CompiledKernel, ExecOptions, JigsawConfig,
    JigsawFormat, KernelKind, KernelPolicy, PanelizedB, ReorderPlan, WorkspacePool,
};

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

    fn product(&mut self, c: &[f32]) {
        self.bytes(&(c.len() as u64).to_le_bytes());
        for v in c {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Digests taken on an x86-64 host running scalar, avx2_fma and
/// avx512f, while the grid still ran as a task list over 128-row
/// blocks. `pooled.avx2_fma` and `pooled.scalar`, the names on hosts
/// whose `Auto` picks those variants, carry the `opts` digest of the
/// same variant: the pooled path runs the same product.
const EXPECTED: &[(&str, u64)] = &[
    ("execute_fast", 0x4f98_e5a5_9a42_4f95),
    ("pooled.avx512f", 0x4f98_e5a5_9a42_4f95),
    ("pooled.avx2_fma", 0x4f98_e5a5_9a42_4f95),
    ("pooled.scalar", 0x4f98_e5a5_9a42_4f95),
    ("opts.avx512f", 0x4f98_e5a5_9a42_4f95),
    ("prepaneled.avx512f", 0x4f98_e5a5_9a42_4f95),
    ("parts.avx512f", 0x4f98_e5a5_9a42_4f95),
    ("opts.avx2_fma", 0x4f98_e5a5_9a42_4f95),
    ("prepaneled.avx2_fma", 0x4f98_e5a5_9a42_4f95),
    ("parts.avx2_fma", 0x4f98_e5a5_9a42_4f95),
    ("opts.scalar", 0x4f98_e5a5_9a42_4f95),
    ("prepaneled.scalar", 0x4f98_e5a5_9a42_4f95),
    ("parts.scalar", 0x4f98_e5a5_9a42_4f95),
];

const MS: [usize; 2] = [144, 272];
const KS: [usize; 2] = [96, 4096];
const VS: [usize; 3] = [1, 4, 8];
const NS: [usize; 4] = [1, 13, 64, 256];

/// A vector-sparse `m × k` matrix whose rows are rotated by two, so
/// its `v`-row vectors sit off the 4-row grid.
fn shifted_matrix(m: usize, k: usize, v: usize, seed: u64) -> Matrix {
    let a = VectorSparseSpec {
        rows: m,
        cols: k,
        sparsity: 0.95,
        v,
        dist: ValueDist::Uniform,
        seed,
    }
    .generate();
    let mut out = Matrix::zeros(m, k);
    for r in 0..m {
        out.data[r * k..(r + 1) * k].copy_from_slice(a.row((r + 2) % m));
    }
    out
}

/// B cut along N into ragged parts (widths cycling 5, 1, 17, 9).
fn ragged_parts(b: &Matrix) -> Vec<Matrix> {
    let mut parts = Vec::new();
    let mut col0 = 0;
    for &w in [5usize, 1, 17, 9].iter().cycle() {
        if col0 == b.cols {
            break;
        }
        let w = w.min(b.cols - col0);
        let mut part = Matrix::zeros(b.rows, w);
        for r in 0..b.rows {
            part.data[r * w..(r + 1) * w].copy_from_slice(&b.row(r)[col0..col0 + w]);
        }
        parts.push(part);
        col0 += w;
    }
    parts
}

/// Runs `kernel` over `image` (a panel-major `k × n` f32 B) with `opts`.
fn prepaneled(
    kernel: &CompiledKernel,
    k: usize,
    n: usize,
    image: &[f32],
    opts: &ExecOptions,
) -> Vec<f32> {
    let b = PanelizedB::new(k, n, image).expect("image holds k*n");
    let mut c = vec![0.0f32; kernel.m * n];
    kernel
        .execute_prepaneled_into_opts(&b, &mut c, opts)
        .expect("shapes agree");
    c
}

fn grid_digests(variants: &[KernelKind]) -> Vec<(String, u64)> {
    let auto = dispatch::selected_kind(&ExecOptions::default());
    let mut names = vec![
        "execute_fast".to_string(),
        format!("pooled.{}", auto.name()),
    ];
    for kind in variants {
        for path in ["opts", "prepaneled", "parts"] {
            names.push(format!("{path}.{}", kind.name()));
        }
    }
    let mut hashes: Vec<Fnv> = names.iter().map(|_| Fnv::new()).collect();
    let pool = WorkspacePool::new();
    let mut seed = 0xE7EC;
    for m in MS {
        for k in KS {
            for v in VS {
                seed += 1;
                let a = shifted_matrix(m, k, v, seed);
                let plan = ReorderPlan::build(&a, &JigsawConfig::v4(16));
                let format = JigsawFormat::build(&a, &plan, true);
                let kernel = CompiledKernel::compile(&format);
                for n in NS {
                    let b = dense_rhs(k, n, ValueDist::Uniform, seed ^ n as u64);
                    let mut image = vec![0.0f32; k * n];
                    panelize_into(&b, &mut image).expect("image holds k*n");
                    let parts = ragged_parts(&b);
                    let part_refs: Vec<&Matrix> = parts.iter().collect();
                    let mut parts_image = vec![0.0f32; k * n];
                    let shape = panelize_parts_into(&part_refs, &mut parts_image);
                    assert_eq!(shape, Ok((k, n)));

                    hashes[0].product(&execute_fast(&format, &b));
                    hashes[1].product(&kernel.execute_pooled(&b, &pool));
                    for (i, &kind) in variants.iter().enumerate() {
                        let opts = ExecOptions::from(KernelPolicy::Forced(kind));
                        let h = &mut hashes[2 + 3 * i..];
                        h[0].product(&kernel.execute_opts(&b, &opts));
                        h[1].product(&prepaneled(&kernel, k, n, &image, &opts));
                        h[2].product(&prepaneled(&kernel, k, n, &parts_image, &opts));
                    }
                }
            }
        }
    }
    names.into_iter().zip(hashes.iter().map(|h| h.0)).collect()
}

#[test]
fn execution_output_matches_pinned_digests() {
    dispatch::unpoison_all();
    let mut variants = Vec::new();
    for kind in ALL_KERNELS {
        if kind.available() {
            variants.push(kind);
        } else {
            eprintln!(
                "exec_parity: SKIP variant {} — ISA not available on this host",
                kind.name()
            );
        }
    }
    let got = grid_digests(&variants);
    let printed: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    let mut wrong = Vec::new();
    for (name, h) in &got {
        match EXPECTED.iter().find(|(n, _)| n == name) {
            Some(&(_, want)) if want == *h => {}
            Some(&(_, want)) => wrong.push(format!("{name}: got {h:#018x}, pinned {want:#018x}")),
            None => eprintln!("exec_parity: UNPINNED {name} = {h:#018x}"),
        }
    }
    assert!(
        wrong.is_empty(),
        "execution digests moved:\n{}\ncomputed:\n{printed}",
        wrong.join("\n")
    );
}

/// Bit patterns a reused pool buffer may hold: a quiet NaN, and all
/// ones (a negative NaN with every payload bit set).
const STALE: [u32; 2] = [0x7FC0_0000, 0xFFFF_FFFF];

/// Fills the shelved buffers the next `execute_pooled` takes with
/// `bits`: acquiring C's and the scratch's lengths in the order it
/// does makes best-fit hand out the same buffers, which go back on the
/// shelf dirty.
fn dirty(pool: &WorkspacePool, lens: [usize; 2], bits: u32) {
    let misses = pool.stats().misses;
    let mut held: Vec<_> = lens.iter().map(|&len| pool.acquire(len)).collect();
    for buf in &mut held {
        buf.fill(f32::from_bits(bits));
    }
    drop(held);
    assert_eq!(pool.stats().misses, misses, "dirtied the shelved buffers");
}

/// `execute_pooled` over reused buffers full of NaN or all-ones bits
/// returns what a fresh buffer does, bit for bit: the grid stores every
/// element of C and panelization writes every scratch float. Covers a
/// row with no nonzeros, an all-zero A and K = 0.
#[test]
fn stale_pool_buffers_change_no_output() {
    dispatch::unpoison_all();
    let mut empty_row = shifted_matrix(144, 96, 4, 0x57A1E);
    empty_row.data[3 * 96..4 * 96].fill(sptc::F16::ZERO);
    for a in [empty_row, Matrix::zeros(144, 96), Matrix::zeros(32, 0)] {
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(16));
        let format = JigsawFormat::build(&a, &plan, true);
        let kernel = CompiledKernel::compile(&format);
        for n in [1, 13, 64] {
            let b = dense_rhs(a.cols, n, ValueDist::Uniform, n as u64);
            let fresh = kernel.execute_opts(&b, &ExecOptions::default());
            assert_eq!(fresh, execute_fast(&format, &b), "fresh buffers");
            let pool = WorkspacePool::new();
            drop(kernel.execute_pooled(&b, &pool));
            for bits in STALE {
                dirty(&pool, [a.rows * n, a.cols * n], bits);
                let got = kernel.execute_pooled(&b, &pool);
                let label = format!("{}x{} n={n} stale {bits:#x}", a.rows, a.cols);
                assert_eq!(bit_image(&got), bit_image(&fresh), "{label}");
            }
            assert_eq!(pool.stats().misses, 2, "only the warm-up allocated");
        }
    }
}

fn bit_image(c: &[f32]) -> Vec<u32> {
    c.iter().map(|x| x.to_bits()).collect()
}
