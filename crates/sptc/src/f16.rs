//! Software IEEE 754 binary16 ("half") arithmetic.
//!
//! The Sparse Tensor Core operates on FP16 operands with FP32 accumulation
//! (HMMA semantics). The `half` crate is not part of this workspace's
//! dependency allowance, so we implement the conversions ourselves.
//! Conversions use round-to-nearest-even, matching both x86 `vcvtps2ph`
//! and the GPU's conversion behaviour.
//!
//! Dense operands cross f16↔f32 on every call, so whole slices convert
//! through [`f16_to_f32_slice`] / [`f32_to_f16_slice`], and strided
//! blocks of rows through [`f16_to_f32_rows`]. On x86-64 with
//! F16C (detected at run time) they run 8 lanes per instruction;
//! everywhere else they loop over [`F16::to_f32`] / [`F16::from_f32`],
//! which stay the reference. Both paths are bit-identical on every
//! input, NaN payloads included (tests below check every f16 and, when
//! run with `--ignored`, every f32).

use std::cmp::Ordering;
use std::fmt;

/// An IEEE 754 binary16 value stored as its bit pattern.
///
/// Arithmetic is performed by widening to `f32`, which is exact: every
/// product of two finite f16 values is exactly representable in f32, so
/// `a.to_f32() * b.to_f32()` reproduces the tensor core's exact
/// multiply-into-f32 step.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
#[repr(transparent)]
pub struct F16(pub u16);

const EXP_MASK: u16 = 0x7C00;
const FRAC_MASK: u16 = 0x03FF;
const SIGN_MASK: u16 = 0x8000;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN. Preserve the NaN payload's top bit so signalling
            // NaNs stay NaN after truncation.
            let nan_bits = if frac != 0 {
                (frac >> 13) as u16 | 0x0200
            } else {
                0
            };
            return F16(sign | EXP_MASK | nan_bits);
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity (RNE rounds everything >= 65520 up).
            return F16(sign | EXP_MASK);
        }
        if unbiased >= -14 {
            // Normal range. 23 -> 10 fraction bits: shift out 13 bits with
            // round-to-nearest-even on the removed bits.
            let half_exp = (unbiased + 15) as u32;
            let mantissa = frac;
            let combined = (half_exp << 10) | (mantissa >> 13);
            let round_bits = mantissa & 0x1FFF;
            let mut out = combined;
            if round_bits > 0x1000 || (round_bits == 0x1000 && (out & 1) == 1) {
                out += 1; // May carry into the exponent; that is correct RNE.
            }
            return F16(sign | out as u16);
        }
        if unbiased >= -25 {
            // Subnormal range: make the implicit leading 1 explicit, then
            // shift right far enough that the result exponent field is 0.
            // unbiased = -15 needs one extra shift beyond the normal 13,
            // unbiased = -25 needs eleven extra (rounds to 0 or MIN subnormal).
            let mantissa = frac | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13; // total right shift, 14..=24
            let kept = mantissa >> shift;
            let rem = mantissa & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut out = kept as u16;
            if rem > halfway || (rem == halfway && (out & 1) == 1) {
                out += 1;
            }
            return F16(sign | out);
        }
        // Underflow to (signed) zero.
        F16(sign)
    }

    /// Converts to `f32` exactly (every f16 is representable in f32).
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & SIGN_MASK) << 16;
        let exp = (self.0 & EXP_MASK) >> 10;
        let frac = u32::from(self.0 & FRAC_MASK);

        let bits = match exp {
            0 => {
                if frac == 0 {
                    sign // signed zero
                } else {
                    // Subnormal: value = frac * 2^-24. Normalize so the top
                    // set bit (position p = 31 - lz) becomes the implicit 1:
                    // exponent = p - 24, i.e. biased 127 + p - 24 = 134 - lz.
                    let lz = frac.leading_zeros(); // 22..=31
                    let exp32 = 134 - lz;
                    let frac32 = (frac << (lz - 8)) & 0x007F_FFFF;
                    sign | (exp32 << 23) | frac32
                }
            }
            0x1F => {
                if frac == 0 {
                    sign | 0x7F80_0000
                } else {
                    sign | 0x7F80_0000 | (frac << 13) | 0x0040_0000
                }
            }
            _ => {
                let exp32 = u32::from(exp) + 127 - 15;
                sign | (exp32 << 23) | (frac << 13)
            }
        };
        f32::from_bits(bits)
    }

    /// Raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// True when the value is exactly zero (either sign).
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 & !SIGN_MASK == 0
    }

    /// True for NaN bit patterns.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) != 0
    }

    /// True for finite values.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// Convenience constructor from an integer; exact for |i| <= 2048.
    pub fn from_i32(i: i32) -> F16 {
        F16::from_f32(i as f32)
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

/// Packs two f16 values into one `u32` register, low half first — the
/// layout tensor-core fragment registers use (`.f16x2`).
#[inline]
pub fn pack_f16x2(lo: F16, hi: F16) -> u32 {
    u32::from(lo.0) | (u32::from(hi.0) << 16)
}

/// Unpacks a `.f16x2` register into (low, high) halves.
#[inline]
pub fn unpack_f16x2(reg: u32) -> (F16, F16) {
    (F16((reg & 0xFFFF) as u16), F16((reg >> 16) as u16))
}

/// Widens every element of `src` into `dst`, bit-identical to
/// [`F16::to_f32`] per element.
///
/// # Panics
/// When the slices differ in length.
pub fn f16_to_f32_slice(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "f16_to_f32_slice: length mismatch");
    widen(std::iter::once((src, dst)));
}

/// Widens a strided block of `rows` rows of `width` elements, exactly
/// as [`f16_to_f32_slice`] would row by row: row `r` reads
/// `src[r * src_stride..][..width]` and writes
/// `dst[r * dst_stride..][..width]`; the elements between rows are not
/// touched. One call converts a column strip of a row-major matrix into
/// another layout, so a narrow strip does not pay a call and a CPU
/// feature check per row.
///
/// # Panics
/// When `width` exceeds either stride, or the last row reaches past
/// either slice.
pub fn f16_to_f32_rows(
    src: &[F16],
    src_stride: usize,
    dst: &mut [f32],
    dst_stride: usize,
    width: usize,
    rows: usize,
) {
    if rows == 0 || width == 0 {
        return;
    }
    assert!(
        width <= src_stride && width <= dst_stride,
        "f16_to_f32_rows: width {width} exceeds a stride ({src_stride}, {dst_stride})"
    );
    assert!(
        (rows - 1) * src_stride + width <= src.len()
            && (rows - 1) * dst_stride + width <= dst.len(),
        "f16_to_f32_rows: {rows} rows reach past a slice"
    );
    widen(
        src.chunks(src_stride)
            .zip(dst.chunks_mut(dst_stride))
            .take(rows)
            .map(|(s, d)| (&s[..width], &mut d[..width])),
    );
}

/// Widens each `(src, dst)` pair of equal-length rows.
fn widen<'a>(rows: impl Iterator<Item = (&'a [F16], &'a mut [f32])>) {
    #[cfg(target_arch = "x86_64")]
    if f16c::detected() {
        // SAFETY: F16C and AVX were detected just above.
        unsafe { f16c::to_f32(rows) };
        return;
    }
    for (src, dst) in rows {
        to_f32_portable(src, dst);
    }
}

/// Rounds every element of `src` into `dst` with round-to-nearest-even,
/// bit-identical to [`F16::from_f32`] per element.
///
/// # Panics
/// When the slices differ in length.
pub fn f32_to_f16_slice(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "f32_to_f16_slice: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c::detected() {
        // SAFETY: F16C and AVX were detected just above.
        unsafe { f16c::to_f16(src, dst) };
        return;
    }
    to_f16_portable(src, dst);
}

fn to_f32_portable(src: &[F16], dst: &mut [f32]) {
    for (o, &h) in dst.iter_mut().zip(src) {
        *o = h.to_f32();
    }
}

fn to_f16_portable(src: &[f32], dst: &mut [F16]) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = F16::from_f32(v);
    }
}

/// F16C loops: 8 lanes per `vcvtph2ps` / `vcvtps2ph`, with the ragged
/// tail on the portable loop.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use super::F16;
    use std::arch::x86_64::*;

    /// Whether this CPU runs the loops below (the 256-bit loads and
    /// stores are AVX instructions).
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("avx") && is_x86_feature_detected!("f16c")
    }

    /// # Safety
    /// The CPU must support F16C and AVX.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn to_f32<'a>(rows: impl Iterator<Item = (&'a [F16], &'a mut [f32])>) {
        for (src, dst) in rows {
            let (s8, mut d8) = (src.chunks_exact(8), dst.chunks_exact_mut(8));
            let s_tail = s8.remainder();
            for (s, d) in s8.zip(&mut d8) {
                // SAFETY: both chunks hold exactly 8 elements; `F16` is
                // a `repr(transparent)` u16, so `s` is 16 bytes of
                // packed halves. The load and store are unaligned.
                unsafe {
                    let h = _mm_loadu_si128(s.as_ptr().cast());
                    _mm256_storeu_ps(d.as_mut_ptr(), _mm256_cvtph_ps(h));
                }
            }
            super::to_f32_portable(s_tail, d8.into_remainder());
        }
    }

    /// # Safety
    /// The CPU must support F16C and AVX.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn to_f16(src: &[f32], dst: &mut [F16]) {
        let (s8, mut d8) = (src.chunks_exact(8), dst.chunks_exact_mut(8));
        let s_tail = s8.remainder();
        for (s, d) in s8.zip(&mut d8) {
            // SAFETY: both chunks hold exactly 8 elements; `F16` is a
            // `repr(transparent)` u16, so `d` is 16 bytes of packed
            // halves. The rounding mode is the immediate RNE, never
            // MXCSR's, so the result matches `F16::from_f32`.
            unsafe {
                let v = _mm256_loadu_ps(s.as_ptr());
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
                _mm_storeu_si128(d.as_mut_ptr().cast(), h);
            }
        }
        super::to_f16_portable(s_tail, d8.into_remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_one_constants() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::from_f32(1.0), F16::ONE);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
    }

    #[test]
    fn small_integers_roundtrip_exactly() {
        for i in -2048..=2048 {
            let h = F16::from_i32(i);
            assert_eq!(h.to_f32(), i as f32, "i={i}");
        }
    }

    #[test]
    fn powers_of_two_roundtrip() {
        for e in -14..=15 {
            let v = (2.0f32).powi(e);
            assert_eq!(F16::from_f32(v).to_f32(), v);
        }
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest subnormal is 2^-24.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        assert_eq!(F16::from_f32(tiny / 2.0).to_f32(), 0.0); // RNE ties-to-even -> 0
        let sub = 3.0 * (2.0f32).powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(F16::from_f32(1.0e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1.0e6), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
    }

    #[test]
    fn round_to_nearest_even() {
        // 2049 is exactly halfway between 2048 and 2050 in f16; ties-to-even
        // picks 2048.
        assert_eq!(F16::from_f32(2049.0).to_f32(), 2048.0);
        // 2051 is halfway between 2050 and 2052; even mantissa is 2052.
        assert_eq!(F16::from_f32(2051.0).to_f32(), 2052.0);
    }

    #[test]
    fn signed_zero_preserved() {
        let nz = F16::from_f32(-0.0);
        assert!(nz.is_zero());
        assert_eq!(nz.to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(-3.25);
        let reg = pack_f16x2(a, b);
        assert_eq!(unpack_f16x2(reg), (a, b));
    }

    #[test]
    fn conversion_matches_reference_on_all_bit_patterns() {
        // Round-trip every f16 bit pattern through f32 and back; this is a
        // full-domain exactness check (NaNs compare by is_nan).
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back.0, h.0, "bits={bits:#06x}");
            }
        }
        // The slice converter, on the dispatched and the portable path,
        // widens every pattern exactly as `to_f32`, NaN payloads included.
        let all: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        for convert in [f16_to_f32_slice as fn(&[F16], &mut [f32]), to_f32_portable] {
            let wide = convert_ragged(&all, convert);
            for (h, w) in all.iter().zip(&wide) {
                assert_eq!(w.to_bits(), h.to_f32().to_bits(), "bits={:#06x}", h.0);
            }
        }
    }

    /// Runs `convert` over `src` in consecutive chunks of 1, 2, …, 33
    /// elements (cycling), so every tail length of the 8-lane loops runs.
    fn convert_ragged<S, D: Copy + Default>(src: &[S], convert: fn(&[S], &mut [D])) -> Vec<D> {
        let mut out = vec![D::default(); src.len()];
        let (mut at, mut len) = (0, 1);
        while at < src.len() {
            let end = (at + len).min(src.len());
            convert(&src[at..end], &mut out[at..end]);
            at = end;
            len = len % 33 + 1;
        }
        out
    }

    #[test]
    fn f16_to_f32_rows_widens_each_row_and_skips_the_gaps() {
        let all: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        for width in 1..=33 {
            let (src_stride, dst_stride) = (width + 3, width + 5);
            let rows = all.len() / src_stride;
            let mut dst = vec![f32::from_bits(0xDEAD_BEEF); (rows - 1) * dst_stride + width];
            f16_to_f32_rows(&all, src_stride, &mut dst, dst_stride, width, rows);
            for (i, d) in dst.iter().enumerate() {
                let (r, c) = (i / dst_stride, i % dst_stride);
                let want = if c < width {
                    all[r * src_stride + c].to_f32().to_bits()
                } else {
                    0xDEAD_BEEF
                };
                assert_eq!(d.to_bits(), want, "width={width} row={r} col={c}");
            }
        }
    }

    #[test]
    fn f32_to_f16_slice_matches_reference_on_rounding_boundaries() {
        // Every f16 value's f32 image, nudged by 0 and 1 ulp, by one ulp
        // either side of the halfway point (0x1000 ulps is half an f16
        // ulp in the normal range) and onto it.
        let mut inputs = Vec::new();
        for bits in 0..=u16::MAX {
            let image = F16::from_bits(bits).to_f32().to_bits();
            for d in [0u32, 1, 0x0FFF, 0x1000, 0x1001] {
                inputs.push(f32::from_bits(image.wrapping_add(d)));
                inputs.push(f32::from_bits(image.wrapping_sub(d)));
            }
        }
        // Quiet and signalling NaN payloads of both signs.
        for nan in [
            0x7FC0_0000u32,
            0x7FC0_0001,
            0x7FFF_FFFF,
            0x7F80_0001,
            0x7F80_2000,
            0x7FA0_0000,
            0x7FBF_FFFF,
        ] {
            inputs.push(f32::from_bits(nan));
            inputs.push(f32::from_bits(nan | 0x8000_0000));
        }
        let tiny = 2f32.powi(-25); // half the smallest f16 subnormal
        for v in [
            f32::INFINITY,
            65_504.0,
            65_520.0, // the first value that rounds to infinity
            f32::from_bits(65_520f32.to_bits() - 1),
            f32::MAX,
            0.0,
            tiny,
            f32::from_bits(tiny.to_bits() - 1),
            f32::from_bits(tiny.to_bits() + 1),
            3.0 * tiny,
            F16::from_bits(0x03FF).to_f32(), // largest f16 subnormal
            2f32.powi(-14),                  // smallest f16 normal
            f32::from_bits(2f32.powi(-14).to_bits() - 1),
            f32::from_bits(1), // smallest f32 subnormal
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
        ] {
            inputs.extend([v, -v]);
        }
        for convert in [f32_to_f16_slice as fn(&[f32], &mut [F16]), to_f16_portable] {
            let narrow = convert_ragged(&inputs, convert);
            for (v, h) in inputs.iter().zip(&narrow) {
                let want = F16::from_f32(*v).0;
                assert_eq!(h.0, want, "f32 bits={:#010x}", v.to_bits());
            }
        }
    }

    #[test]
    #[ignore = "exhaustive over 2^32 inputs: cargo test --release -p sptc -- --ignored"]
    fn f32_to_f16_slice_matches_reference_on_every_f32() {
        let mut src = vec![0f32; 1 << 16];
        let mut dst = vec![F16::ZERO; 1 << 16];
        for hi in 0..=u32::from(u16::MAX) {
            for (lo, v) in (0u32..).zip(src.iter_mut()) {
                *v = f32::from_bits(hi << 16 | lo);
            }
            f32_to_f16_slice(&src, &mut dst);
            for (v, h) in src.iter().zip(&dst) {
                assert_eq!(h.0, F16::from_f32(*v).0, "f32 bits={:#010x}", v.to_bits());
            }
        }
    }
}
