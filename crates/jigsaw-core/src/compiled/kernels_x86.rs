//! x86-64 microkernels of the dispatch registry: the register-blocked
//! vector-row group kernels (16-lane AVX-512F and 8-lane AVX2+FMA).
//! Each holds a block of every row of the group in accumulators across
//! the group's whole shared stream, so each B vector loaded feeds `h`
//! fused multiply-adds. The accumulators start at zero and are stored
//! once per block, so C is written once and never read. Block widths
//! are sized by the group height so a block runs at least eight
//! independent FMA chains wherever the panel is that wide. A panel one
//! vector wide has room for only `h` chains per group, so there the
//! kernels run two groups' rows in one block. Every row keeps the
//! per-row `(window, slot)` accumulation order of the scalar reference,
//! and a fused multiply-add of two f16 values rounds like the scalar
//! multiply then add (the product is exact in f32), so every variant
//! is bit-identical to the scalar one (DESIGN.md §13).
#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use super::dispatch::{assert_group_args, Group, GroupC, Slab};

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

/// Calls `$f::<H0, H1>($args)` for the runtime group heights `$h =
/// (h0, h1)`, each in `1..=GROUP_ROWS`: monomorphizing on both keeps
/// both accumulator arrays of [`pair_avx512`] in registers.
macro_rules! by_heights {
    ($h:expr, $f:ident($($arg:expr),*)) => {
        match $h {
            (1, 1) => $f::<1, 1>($($arg),*),
            (1, 2) => $f::<1, 2>($($arg),*),
            (1, 3) => $f::<1, 3>($($arg),*),
            (1, 4) => $f::<1, 4>($($arg),*),
            (2, 1) => $f::<2, 1>($($arg),*),
            (2, 2) => $f::<2, 2>($($arg),*),
            (2, 3) => $f::<2, 3>($($arg),*),
            (2, 4) => $f::<2, 4>($($arg),*),
            (3, 1) => $f::<3, 1>($($arg),*),
            (3, 2) => $f::<3, 2>($($arg),*),
            (3, 3) => $f::<3, 3>($($arg),*),
            (3, 4) => $f::<3, 4>($($arg),*),
            (4, 1) => $f::<4, 1>($($arg),*),
            (4, 2) => $f::<4, 2>($($arg),*),
            (4, 3) => $f::<4, 3>($($arg),*),
            (4, 4) => $f::<4, 4>($($arg),*),
            _ => unreachable!("GroupC holds 1..=GROUP_ROWS rows"),
        }
    };
}

/// AVX-512F microkernel: a pair of groups on a panel at most one
/// vector wide shares one register block; otherwise each group runs
/// alone.
///
/// # Safety
///
/// avx512f must be present: the dispatch layer only returns this
/// kernel after runtime feature detection
/// ([`super::dispatch::KernelKind::available`]). Every stream column is
/// below `slab.k`, the [`super::dispatch::AxpyFn`] contract.
pub unsafe fn axpy_group_avx512(first: Group<'_>, second: Option<Group<'_>>, slab: Slab<'_>) {
    match second {
        Some(second) if (1..=16).contains(&slab.w) => {
            assert_group_args(&first, &slab);
            assert_group_args(&second, &slab);
            let heights = (first.c.rows(), second.c.rows());
            // SAFETY: the ISA and every column below `k` are this
            // function's contract; the slab is `1..=16` wide (matched
            // above), both groups passed `assert_group_args`, and
            // `by_heights!` passes their heights as `H0` and `H1`.
            unsafe { by_heights!(heights, pair_avx512(first, second, slab)) }
        }
        second => {
            for g in std::iter::once(first).chain(second) {
                // SAFETY: this function's own contract.
                unsafe { group_avx512(g, slab) }
            }
        }
    }
}

/// One group alone through [`rows_avx512`].
///
/// # Safety
///
/// As [`axpy_group_avx512`].
unsafe fn group_avx512(mut g: Group<'_>, slab: Slab<'_>) {
    assert_group_args(&g, &slab);
    let (vals, cols, w) = (g.vals, g.cols, slab.w);
    let slab = slab.data;
    // SAFETY: avx512f and every column below `k` are this function's
    // contract; the slab holding `k` rows of `w` and `h` values per
    // column are asserted above, and the C extent by `GroupC`.
    // Monomorphizing on the group height keeps the accumulator array
    // in registers instead of spilling behind a runtime index.
    unsafe {
        match g.c.rows() {
            1 => rows_avx512::<1>(row_ptrs(&mut g.c), vals, cols, slab, w),
            2 => rows_avx512::<2>(row_ptrs(&mut g.c), vals, cols, slab, w),
            3 => rows_avx512::<3>(row_ptrs(&mut g.c), vals, cols, slab, w),
            4 => rows_avx512::<4>(row_ptrs(&mut g.c), vals, cols, slab, w),
            _ => unreachable!("GroupC holds 1..=GROUP_ROWS rows"),
        }
    }
}

/// Two groups in one register block on a panel one ZMM wide: `H0 +
/// H1` accumulators, zeroed, each fed by its own group's stream in
/// order — the groups step together while both have nonzeros, then the
/// longer stream finishes alone — and stored once through the panel's
/// lane mask.
///
/// # Safety
///
/// Requires avx512f; `H0` and `H1` are the groups' heights, the slab is
/// `1..=16` floats wide, and the entry assertions of
/// [`axpy_group_avx512`] hold for both groups.
#[target_feature(enable = "avx512f")]
unsafe fn pair_avx512<const H0: usize, const H1: usize>(
    mut g0: Group<'_>,
    mut g1: Group<'_>,
    slab: Slab<'_>,
) {
    let (rows0, rows1) = (row_ptrs::<H0>(&mut g0.c), row_ptrs::<H1>(&mut g1.c));
    let w = slab.w;
    let mask = (u32::MAX >> (32 - w)) as __mmask16;
    let slab = slab.data.as_ptr();
    let load = |col: u32| _mm512_maskz_loadu_ps(mask, slab.add(col as usize * w));
    let mut acc0 = [_mm512_setzero_ps(); H0];
    let mut acc1 = [_mm512_setzero_ps(); H1];
    let both = g0.cols.len().min(g1.cols.len());
    let (cols0, tail0) = g0.cols.split_at(both);
    let (cols1, tail1) = g1.cols.split_at(both);
    let (vals0, tail_vals0) = g0.vals.split_at(both * H0);
    let (vals1, tail_vals1) = g1.vals.split_at(both * H1);
    let steps0 = vals0.chunks_exact(H0).zip(cols0);
    let steps1 = vals1.chunks_exact(H1).zip(cols1);
    for ((vs0, &col0), (vs1, &col1)) in steps0.zip(steps1) {
        let (b0, b1) = (load(col0), load(col1));
        for (a, &v) in acc0.iter_mut().zip(vs0) {
            *a = _mm512_fmadd_ps(_mm512_set1_ps(v), b0, *a);
        }
        for (a, &v) in acc1.iter_mut().zip(vs1) {
            *a = _mm512_fmadd_ps(_mm512_set1_ps(v), b1, *a);
        }
    }
    for (vs, &col) in tail_vals0.chunks_exact(H0).zip(tail0) {
        let b = load(col);
        for (a, &v) in acc0.iter_mut().zip(vs) {
            *a = _mm512_fmadd_ps(_mm512_set1_ps(v), b, *a);
        }
    }
    for (vs, &col) in tail_vals1.chunks_exact(H1).zip(tail1) {
        let b = load(col);
        for (a, &v) in acc1.iter_mut().zip(vs) {
            *a = _mm512_fmadd_ps(_mm512_set1_ps(v), b, *a);
        }
    }
    for (a, &row) in acc0.iter().zip(&rows0).chain(acc1.iter().zip(&rows1)) {
        _mm512_mask_storeu_ps(row, mask, *a);
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
/// Requires avx512f and the entry assertions of [`axpy_group_avx512`]
/// (every `cols[i] < k` and `slab.len() >= k·w`); `rows` are the
/// group's `H` rows, each `w` floats wide.
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
/// `start .. start + 16·(V−1) + lanes`, zeroed, fed by the group's
/// entire stream (one B load per vector per nonzero, reused by all `H`
/// rows), stored once. The last vector is masked (`mask` is
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

/// AVX2+FMA microkernel: runs the two groups one after the other.
///
/// # Safety
///
/// avx2 and fma must be present: the dispatch layer only returns this
/// kernel after runtime feature detection. Every stream column is below
/// `slab.k`, the [`super::dispatch::AxpyFn`] contract.
pub unsafe fn axpy_group_avx2(first: Group<'_>, second: Option<Group<'_>>, slab: Slab<'_>) {
    for g in std::iter::once(first).chain(second) {
        // SAFETY: this function's own contract.
        unsafe { group_avx2(g, slab) }
    }
}

/// One group alone through [`rows_avx2`].
///
/// # Safety
///
/// As [`axpy_group_avx2`].
unsafe fn group_avx2(mut g: Group<'_>, slab: Slab<'_>) {
    assert_group_args(&g, &slab);
    let (h, w, vals, cols) = (g.c.rows(), slab.w, g.vals.as_ptr(), g.cols);
    let slab = slab.data;
    // SAFETY: avx2+fma and every column below `k` are this function's
    // contract; the slab holding `k` rows of `w` and `h` values per
    // column (row `r`'s values are `vals[i·h + r]`) are asserted above,
    // and the C extent by `GroupC`.
    unsafe {
        match h {
            1 => rows_avx2::<1>(row_ptrs(&mut g.c), vals, h, cols, slab, w),
            2 => rows_avx2::<2>(row_ptrs(&mut g.c), vals, h, cols, slab, w),
            3 => rows_avx2::<3>(row_ptrs(&mut g.c), vals, h, cols, slab, w),
            4 => rows_avx2::<4>(row_ptrs(&mut g.c), vals, h, cols, slab, w),
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
/// floats; every `cols[i] as usize * w + w <= slab.len()` (columns
/// below `k` by the [`super::dispatch::AxpyFn`] contract, `slab.len()
/// >= k·w` asserted by the caller); and row
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
/// zeroed, fed by the stream (each B vector reused by all `H` rows),
/// stored once. The last vector always goes through AVX2
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
