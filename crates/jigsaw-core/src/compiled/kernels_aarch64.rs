//! aarch64 NEON microkernel of the dispatch registry: 4×f32x4 (16
//! floats per pass over the C segment), fused multiply-adds via
//! `vfmaq_n_f32`, applying a vector-row group row by row. Keeps the
//! per-row `(window, slot)` accumulation order of the scalar
//! reference; only per-step rounding changes (exact on integer-valued
//! data, ≤ 1 ulp per step otherwise).
#![cfg(target_arch = "aarch64")]

use super::dispatch::{assert_group_args, GroupC};

/// NEON microkernel: safe wrapper around the `target_feature` inner
/// function — the dispatch layer only returns it after runtime
/// feature detection ([`super::dispatch::KernelKind::available`]).
pub fn axpy_group_neon(mut c: GroupC<'_>, vals: &[f32], cols: &[u32], slab: &[f32]) {
    assert_group_args(&c, vals, cols, slab);
    let h = c.rows();
    for r in 0..h {
        // SAFETY: neon was verified by the dispatch layer; the slice
        // invariants the inner kernel relies on are asserted above.
        unsafe { axpy_row_neon(c.row(r), vals, cols, slab, h, r) }
    }
}

/// Row `r` of an `h`-row group: four f32x4 vectors per pass (16
/// lanes), one nonzero broadcast per `vfmaq_n_f32`, scalar `mul_add`
/// cleanup under 4 lanes.
///
/// # Safety
///
/// Requires neon. The caller has asserted `vals.len() == h ·
/// cols.len()` and every `cols[i] as usize * w + w <= slab.len()`,
/// with `w == c_row.len()`.
#[target_feature(enable = "neon")]
unsafe fn axpy_row_neon(
    c_row: &mut [f32],
    vals: &[f32],
    cols: &[u32],
    slab: &[f32],
    h: usize,
    r: usize,
) {
    use std::arch::aarch64::*;
    let w = c_row.len();
    let c_ptr = c_row.as_mut_ptr();
    let slab_ptr = slab.as_ptr();
    for (vs, &col) in vals.chunks_exact(h).zip(cols) {
        let bi = slab_ptr.add(col as usize * w);
        let v = vs[r];
        let mut j = 0;
        // 4×f32x4: four independent accumulator vectors per pass keep
        // the FMA pipeline full without reassociating across lanes.
        while j + 16 <= w {
            let mut a0 = vld1q_f32(c_ptr.add(j));
            let mut a1 = vld1q_f32(c_ptr.add(j + 4));
            let mut a2 = vld1q_f32(c_ptr.add(j + 8));
            let mut a3 = vld1q_f32(c_ptr.add(j + 12));
            a0 = vfmaq_n_f32(a0, vld1q_f32(bi.add(j)), v);
            a1 = vfmaq_n_f32(a1, vld1q_f32(bi.add(j + 4)), v);
            a2 = vfmaq_n_f32(a2, vld1q_f32(bi.add(j + 8)), v);
            a3 = vfmaq_n_f32(a3, vld1q_f32(bi.add(j + 12)), v);
            vst1q_f32(c_ptr.add(j), a0);
            vst1q_f32(c_ptr.add(j + 4), a1);
            vst1q_f32(c_ptr.add(j + 8), a2);
            vst1q_f32(c_ptr.add(j + 12), a3);
            j += 16;
        }
        while j + 4 <= w {
            let acc = vfmaq_n_f32(vld1q_f32(c_ptr.add(j)), vld1q_f32(bi.add(j)), v);
            vst1q_f32(c_ptr.add(j), acc);
            j += 4;
        }
        while j < w {
            *c_ptr.add(j) = v.mul_add(*bi.add(j), *c_ptr.add(j));
            j += 1;
        }
    }
}
