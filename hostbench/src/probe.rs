//! Roofline probes run in the same process as `kernel_sweep`: a
//! STREAM-triad bandwidth probe and a single-core FMA-peak probe.

use std::hint::black_box;
use std::time::Instant;

/// Each of the three triad arrays. 64 MiB keeps the probe's footprint
/// (192 MiB) small on a shared host; it is compared against the LLC
/// size the OS reports, and a roofline fraction is only meaningful
/// when the arrays reach 4x the LLC.
pub const TRIAD_ARRAY_BYTES: usize = 64 << 20;

/// Last-level cache size in bytes, as the OS reports it (0 if unknown).
pub fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level: u32 = std::fs::read_to_string(format!("{dir}/level"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let bytes = if let Some(k) = size.strip_suffix('K') {
                k.parse::<usize>().ok()? << 10
            } else if let Some(m) = size.strip_suffix('M') {
                m.parse::<usize>().ok()? << 20
            } else {
                size.parse().ok()?
            };
            Some((level, bytes))
        })
        .max()
        .map_or(0, |(_, bytes)| bytes)
}

/// Whether the triad arrays are large enough (4x LLC) to measure DRAM
/// bandwidth rather than cache bandwidth.
pub fn triad_reaches_dram(llc: usize) -> bool {
    llc > 0 && TRIAD_ARRAY_BYTES >= 4 * llc
}

/// STREAM triad `a = b + s·c` over f32 arrays; best of 5 timed passes
/// after one warm pass, counting 3 arrays moved per pass (STREAM's
/// convention, write-allocate traffic not counted). GB/s.
pub fn triad_gbs() -> f64 {
    let len = TRIAD_ARRAY_BYTES / 4;
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let mut a = vec![0.0f32; len];
    let s = black_box(3.0f32);
    let mut best = f64::INFINITY;
    for pass in 0..6 {
        let started = Instant::now();
        for ((a, &b), &c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        if pass > 0 {
            best = best.min(started.elapsed().as_secs_f64());
        }
    }
    assert_eq!(a[len - 1], 7.0, "triad computed");
    (3 * TRIAD_ARRAY_BYTES) as f64 / best / 1e9
}

/// Single-core f32 FMA peak on the widest vector ISA the library's auto
/// kernel selection would use: GFLOP/s (2 flops per lane per FMA).
pub fn fma_gflops() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut best = f64::INFINITY;
    let mut flops_per_iter = 0.0;
    for _ in 0..3 {
        let started = Instant::now();
        let (sum, per_iter) = fma_kernel(black_box(ITERS));
        black_box(sum);
        best = best.min(started.elapsed().as_secs_f64());
        flops_per_iter = per_iter;
    }
    ITERS as f64 * flops_per_iter / best / 1e9
}

/// Runs `iters` rounds of independent FMA chains; returns a checksum
/// and the flops one round performs.
fn fma_kernel(iters: u64) -> (f32, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F (checked above).
            return (unsafe { x86::fma_avx512(iters) }, (16 * 16 * 2) as f64);
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the CPU supports AVX2 and FMA (checked above).
            return (unsafe { x86::fma_avx2(iters) }, (12 * 8 * 2) as f64);
        }
    }
    let mut acc = [0.0f32; 8];
    for _ in 0..iters {
        for a in &mut acc {
            *a = *a * 0.999_999 + 1e-7;
        }
    }
    (acc.iter().sum(), (8 * 2) as f64)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// 16 independent zmm FMA chains (enough to cover FMA latency on
    /// both ports).
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma_avx512(iters: u64) -> f32 {
        let x = _mm512_set1_ps(0.999_999);
        let y = _mm512_set1_ps(1e-7);
        let mut acc = [_mm512_setzero_ps(); 16];
        for _ in 0..iters {
            for a in &mut acc {
                *a = _mm512_fmadd_ps(*a, x, y);
            }
        }
        // Fold every chain into the checksum so none is dead code.
        let total = acc
            .iter()
            .fold(_mm512_setzero_ps(), |t, &a| _mm512_add_ps(t, a));
        let mut out = [0.0f32; 16];
        // SAFETY: `out` holds 16 f32, one zmm register's worth.
        unsafe { _mm512_storeu_ps(out.as_mut_ptr(), total) };
        out.iter().sum()
    }

    /// 12 independent ymm FMA chains.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma_avx2(iters: u64) -> f32 {
        let x = _mm256_set1_ps(0.999_999);
        let y = _mm256_set1_ps(1e-7);
        let mut acc = [_mm256_setzero_ps(); 12];
        for _ in 0..iters {
            for a in &mut acc {
                *a = _mm256_fmadd_ps(*a, x, y);
            }
        }
        let total = acc
            .iter()
            .fold(_mm256_setzero_ps(), |t, &a| _mm256_add_ps(t, a));
        let mut out = [0.0f32; 8];
        // SAFETY: `out` holds 8 f32, one ymm register's worth.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), total) };
        out.iter().sum()
    }
}
