//! x86-64 microkernels of the dispatch registry: the register-blocked
//! vector-row group kernels (16-lane AVX-512F and 8-lane AVX2+FMA).
//! Each holds a block of every row of the group in accumulators across
//! the group's whole shared stream, so each B vector loaded feeds `h`
//! fused multiply-adds and C is loaded and stored once per block. Block
//! widths are sized by the group height so a block runs at least eight
//! independent FMA chains wherever the panel is that wide. Both keep
//! the per-row `(window, slot)` accumulation order of the scalar
//! reference; only the rounding of each step changes (fused
//! multiply-adds — exact on integer-valued data, ≤ 1 ulp per step
//! otherwise).
#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::dispatch::{assert_group_args, GroupC};

/// ZMM accumulators per row of an AVX-512 register block for an
/// `h`-row group: `16 / h` (16, 8, 5, 4), so every block runs 15 or 16
/// FMA chains and, with its B vectors and the value broadcast, stays
/// inside the 32 ZMM registers.
fn vecs_per_row_512(h: usize) -> usize {
    16 / h
}

/// YMM accumulators per row of an AVX2 register block for an `h`-row
/// group: 12 for a single row (whose B loads fold into the FMAs as
/// memory operands), else `⌈8 / h⌉` (4, 3, 2) — 8 to 12 FMA chains per
/// block, with the block's B vectors and the value broadcast inside the
/// 16 YMM registers.
fn vecs_per_row_avx2(h: usize) -> usize {
    if h == 1 {
        12
    } else {
        8usize.div_ceil(h)
    }
}

/// AVX-512F group microkernel: safe wrapper around the
/// `target_feature` inner function — the dispatch layer only returns it
/// after runtime feature detection
/// ([`super::dispatch::KernelKind::available`]).
pub fn axpy_group_avx512(mut c: GroupC<'_>, vals: &[f32], cols: &[u32], slab: &[f32]) {
    assert_group_args(&c, vals, cols, slab);
    // SAFETY: avx512f was verified by the dispatch layer; the slice
    // invariants are asserted above and the C extent by `GroupC`.
    // Monomorphizing on the group height keeps the accumulator array
    // in registers instead of spilling behind a runtime index.
    unsafe {
        match c.rows() {
            1 => rows_avx512::<1>(row_ptrs(&mut c), vals, cols, slab, c.width()),
            2 => rows_avx512::<2>(row_ptrs(&mut c), vals, cols, slab, c.width()),
            3 => rows_avx512::<3>(row_ptrs(&mut c), vals, cols, slab, c.width()),
            4 => rows_avx512::<4>(row_ptrs(&mut c), vals, cols, slab, c.width()),
            _ => unreachable!("GroupC holds 1..=GROUP_ROWS rows"),
        }
    }
}

/// Column 0 of each of the group's `H` rows (`H == c.rows()`).
fn row_ptrs<const H: usize>(c: &mut GroupC<'_>) -> [*mut f32; H] {
    std::array::from_fn(|r| c.row_ptr(r, 0))
}

/// Walks the group's `w` columns in register blocks of
/// [`vecs_per_row_512`] vectors; the sub-16 tail rides in the last
/// vector's AVX-512 mask, so no scalar cleanup loop is needed.
///
/// # Safety
///
/// Requires avx512f and the entry assertions of [`axpy_group_avx512`];
/// `rows` are the group's `H` rows, each `w` floats wide.
#[target_feature(enable = "avx512f")]
unsafe fn rows_avx512<const H: usize>(
    rows: [*mut f32; H],
    vals: &[f32],
    cols: &[u32],
    slab: &[f32],
    w: usize,
) {
    let block = 16 * vecs_per_row_512(H);
    let mut start = 0;
    while start < w {
        let bw = (w - start).min(block);
        let vecs = bw.div_ceil(16);
        let lanes = bw - 16 * (vecs - 1);
        let mask = (u32::MAX >> (32 - lanes)) as __mmask16;
        match vecs {
            1 => block_avx512::<H, 1>(rows, vals, cols, slab, w, start, mask),
            2 => block_avx512::<H, 2>(rows, vals, cols, slab, w, start, mask),
            3 => block_avx512::<H, 3>(rows, vals, cols, slab, w, start, mask),
            4 => block_avx512::<H, 4>(rows, vals, cols, slab, w, start, mask),
            5 => block_avx512::<H, 5>(rows, vals, cols, slab, w, start, mask),
            6 => block_avx512::<H, 6>(rows, vals, cols, slab, w, start, mask),
            7 => block_avx512::<H, 7>(rows, vals, cols, slab, w, start, mask),
            8 => block_avx512::<H, 8>(rows, vals, cols, slab, w, start, mask),
            9 => block_avx512::<H, 9>(rows, vals, cols, slab, w, start, mask),
            10 => block_avx512::<H, 10>(rows, vals, cols, slab, w, start, mask),
            11 => block_avx512::<H, 11>(rows, vals, cols, slab, w, start, mask),
            12 => block_avx512::<H, 12>(rows, vals, cols, slab, w, start, mask),
            13 => block_avx512::<H, 13>(rows, vals, cols, slab, w, start, mask),
            14 => block_avx512::<H, 14>(rows, vals, cols, slab, w, start, mask),
            15 => block_avx512::<H, 15>(rows, vals, cols, slab, w, start, mask),
            16 => block_avx512::<H, 16>(rows, vals, cols, slab, w, start, mask),
            _ => unreachable!("AVX-512 blocks are at most 16 vectors wide"),
        }
        start += bw;
    }
}

/// One register block: `H` rows × `V` ZMM accumulators over columns
/// `start .. start + 16·(V−1) + lanes`, loaded from C once, fed by the
/// group's entire stream (one B load per vector per nonzero, reused by
/// all `H` rows), stored once. The last vector is masked (`mask` is
/// all-set when it is full); masked-off lanes are never stored.
///
/// # Safety
///
/// Requires avx512f; `rows` are the group's rows, and the block
/// geometry stays inside `w` columns.
#[target_feature(enable = "avx512f")]
unsafe fn block_avx512<const H: usize, const V: usize>(
    rows: [*mut f32; H],
    vals: &[f32],
    cols: &[u32],
    slab: &[f32],
    w: usize,
    start: usize,
    mask: __mmask16,
) {
    let lane_mask = |t: usize| if t == V - 1 { mask } else { !0 };
    let mut acc = [[_mm512_setzero_ps(); V]; H];
    for (a, &row) in acc.iter_mut().zip(&rows) {
        for (t, at) in a.iter_mut().enumerate() {
            *at = _mm512_maskz_loadu_ps(lane_mask(t), row.add(start + 16 * t));
        }
    }
    let slab_ptr = slab.as_ptr();
    for (vs, &col) in vals.chunks_exact(H).zip(cols) {
        let b_ptr = slab_ptr.add(col as usize * w + start);
        let mut b = [_mm512_setzero_ps(); V];
        for (t, bt) in b.iter_mut().enumerate() {
            *bt = _mm512_maskz_loadu_ps(lane_mask(t), b_ptr.add(16 * t));
        }
        for (a, &v) in acc.iter_mut().zip(vs) {
            let s = _mm512_set1_ps(v);
            for (at, &bt) in a.iter_mut().zip(&b) {
                *at = _mm512_fmadd_ps(s, bt, *at);
            }
        }
    }
    for (a, &row) in acc.iter().zip(&rows) {
        for (t, &at) in a.iter().enumerate() {
            _mm512_mask_storeu_ps(row.add(start + 16 * t), lane_mask(t), at);
        }
    }
}

/// AVX2+FMA group microkernel: safe wrapper around the
/// `target_feature` inner function — the dispatch layer only returns it
/// after runtime feature detection.
pub fn axpy_group_avx2(mut c: GroupC<'_>, vals: &[f32], cols: &[u32], slab: &[f32]) {
    assert_group_args(&c, vals, cols, slab);
    let (h, w, vals) = (c.rows(), c.width(), vals.as_ptr());
    // SAFETY: avx2+fma were verified by the dispatch layer; the slice
    // invariants are asserted above (row `r`'s values are `vals[i·h +
    // r]`) and the C extent by `GroupC`.
    unsafe {
        match h {
            1 => rows_avx2::<1>(row_ptrs(&mut c), vals, h, cols, slab, w),
            2 => rows_avx2::<2>(row_ptrs(&mut c), vals, h, cols, slab, w),
            3 => rows_avx2::<3>(row_ptrs(&mut c), vals, h, cols, slab, w),
            4 => rows_avx2::<4>(row_ptrs(&mut c), vals, h, cols, slab, w),
            _ => unreachable!("GroupC holds 1..=GROUP_ROWS rows"),
        }
    }
}

/// Walks `w` columns of `H` rows in register blocks of
/// [`vecs_per_row_avx2`] vectors; the last vector of each block is
/// masked, so the sub-8 tail needs no scalar cleanup loop.
///
/// # Safety
///
/// Requires avx2 and fma. `rows` are `H` disjoint rows of `w` writable
/// floats; every `cols[i] as usize * w + w <= slab.len()`; and row
/// `r`'s value for nonzero `i`, `*vals.add(i·stride + r)`, is readable
/// for every `i < cols.len()` and `r < H`.
#[target_feature(enable = "avx2,fma")]
unsafe fn rows_avx2<const H: usize>(
    rows: [*mut f32; H],
    vals: *const f32,
    stride: usize,
    cols: &[u32],
    slab: &[f32],
    w: usize,
) {
    let block = 8 * vecs_per_row_avx2(H);
    let mut start = 0;
    while start < w {
        let bw = (w - start).min(block);
        let vecs = bw.div_ceil(8);
        let lanes = bw - 8 * (vecs - 1);
        let geom = (w, start, lanes);
        match vecs {
            1 => block_avx2::<H, 1>(rows, vals, stride, cols, slab, geom),
            2 => block_avx2::<H, 2>(rows, vals, stride, cols, slab, geom),
            3 => block_avx2::<H, 3>(rows, vals, stride, cols, slab, geom),
            4 => block_avx2::<H, 4>(rows, vals, stride, cols, slab, geom),
            5 => block_avx2::<H, 5>(rows, vals, stride, cols, slab, geom),
            6 => block_avx2::<H, 6>(rows, vals, stride, cols, slab, geom),
            7 => block_avx2::<H, 7>(rows, vals, stride, cols, slab, geom),
            8 => block_avx2::<H, 8>(rows, vals, stride, cols, slab, geom),
            9 => block_avx2::<H, 9>(rows, vals, stride, cols, slab, geom),
            10 => block_avx2::<H, 10>(rows, vals, stride, cols, slab, geom),
            11 => block_avx2::<H, 11>(rows, vals, stride, cols, slab, geom),
            12 => block_avx2::<H, 12>(rows, vals, stride, cols, slab, geom),
            _ => unreachable!("AVX2 blocks are at most 12 vectors wide"),
        }
        start += bw;
    }
}

/// One register block: `H` rows × `V` YMM accumulators over columns
/// `start .. start + 8·(V−1) + lanes` (`geom = (w, start, lanes)`),
/// loaded from C once, fed by the stream (each B vector reused by all
/// `H` rows), stored once. The last vector always goes through AVX2
/// masked load/store (a full one selects the all-set mask).
///
/// # Safety
///
/// As [`rows_avx2`], with the block inside `w` columns.
#[target_feature(enable = "avx2,fma")]
unsafe fn block_avx2<const H: usize, const V: usize>(
    rows: [*mut f32; H],
    vals: *const f32,
    stride: usize,
    cols: &[u32],
    slab: &[f32],
    (w, start, lanes): (usize, usize, usize),
) {
    let last = V - 1;
    let mask = _mm256_loadu_si256(TAIL_MASKS[lanes].as_ptr() as *const __m256i);
    let load = |p: *const f32, t: usize| {
        if t == last {
            _mm256_maskload_ps(p, mask)
        } else {
            _mm256_loadu_ps(p)
        }
    };
    let mut acc = [[_mm256_setzero_ps(); V]; H];
    for (a, &row) in acc.iter_mut().zip(&rows) {
        for (t, at) in a.iter_mut().enumerate() {
            *at = load(row.add(start + 8 * t), t);
        }
    }
    let slab_ptr = slab.as_ptr();
    for (i, &col) in cols.iter().enumerate() {
        let b_ptr = slab_ptr.add(col as usize * w + start);
        let mut b = [_mm256_setzero_ps(); V];
        for (t, bt) in b.iter_mut().enumerate() {
            *bt = load(b_ptr.add(8 * t), t);
        }
        let vs = vals.add(i * stride);
        for (r, a) in acc.iter_mut().enumerate() {
            let s = _mm256_set1_ps(*vs.add(r));
            for (at, &bt) in a.iter_mut().zip(&b) {
                *at = _mm256_fmadd_ps(s, bt, *at);
            }
        }
    }
    for (a, &row) in acc.iter().zip(&rows) {
        for (t, &at) in a.iter().enumerate() {
            let p = row.add(start + 8 * t);
            if t == last {
                _mm256_maskstore_ps(p, mask, at);
            } else {
                _mm256_storeu_ps(p, at);
            }
        }
    }
}

/// Per-lane-count AVX2 mask rows for `_mm256_maskload_ps` /
/// `_mm256_maskstore_ps`: row `l` activates the first `l` lanes.
static TAIL_MASKS: [[i32; 8]; 9] = [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0],
    [-1, -1, 0, 0, 0, 0, 0, 0],
    [-1, -1, -1, 0, 0, 0, 0, 0],
    [-1, -1, -1, -1, 0, 0, 0, 0],
    [-1, -1, -1, -1, -1, 0, 0, 0],
    [-1, -1, -1, -1, -1, -1, 0, 0],
    [-1, -1, -1, -1, -1, -1, -1, 0],
    [-1, -1, -1, -1, -1, -1, -1, -1],
];
