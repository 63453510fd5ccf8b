//! Cross-ISA differential parity suite for the microkernel dispatch
//! registry (`jigsaw_core::compiled::dispatch`).
//!
//! Contract under test (DESIGN.md §13): one numeric contract for every
//! variant.
//!
//! * the `scalar` variant is **bit-identical** to [`execute_fast`] —
//!   the differential oracle — on every input,
//! * every other variant (`avx2_fma`, `avx512f`, `neon`) is
//!   bit-identical to `scalar`. Each keeps every row's accumulation
//!   order, and a fused multiply-add of two f16 values rounds exactly
//!   like a multiply then an add (their product is exact in f32), so
//!   fusion changes no bit. That holds whether a row is grouped with
//!   its vector-row neighbours or not (DESIGN.md §20), and whether its
//!   group shares a register block with the next group or not,
//! * `KernelPolicy::Forced(kind)` selects each runnable variant, and a
//!   forced-but-absent ISA falls back cleanly to a correct product —
//!   never a panic.
//!
//! Variants whose ISA the host lacks are **skipped with a log line**
//! (not silently passed) so CI output shows exactly what ran.

use proptest::prelude::*;
use rand::prelude::*;

use dlmc::{dense_rhs, Matrix, ValueDist, VectorSparseSpec};
use jigsaw_core::compiled::dispatch::{self, ALL_KERNELS};
use jigsaw_core::{
    execute_fast, panel_cuts, CompiledKernel, ExecOptions, JigsawConfig, JigsawFormat, KernelKind,
    KernelPolicy, ReorderPlan,
};
use sptc::F16;

/// Options pinning one variant through the typed policy API.
fn forced(kind: KernelKind) -> ExecOptions {
    ExecOptions::from(KernelPolicy::Forced(kind))
}

fn compile(a: &Matrix, interleaved: bool) -> (JigsawFormat, CompiledKernel) {
    let bt = if a.rows.is_multiple_of(32) { 32 } else { 16 };
    let plan = ReorderPlan::build(a, &JigsawConfig::v4(bt));
    let format = JigsawFormat::build(a, &plan, interleaved);
    let kernel = CompiledKernel::compile(&format);
    (format, kernel)
}

/// Logs and returns the variants this host can actually execute.
/// Skipping is loud by design: a parity suite that silently passes on
/// a host without the ISA is indistinguishable from one that ran.
fn runnable_variants() -> Vec<KernelKind> {
    let mut out = Vec::new();
    for kind in ALL_KERNELS {
        if kind.available() {
            out.push(kind);
        } else {
            eprintln!(
                "kernel_parity: SKIP variant {:?} ({}) — ISA not available on this host",
                kind,
                kind.name()
            );
        }
    }
    out
}

/// A kind that no single host can run: x86-64 lacks NEON, aarch64
/// lacks AVX-512F, and other architectures lack both.
fn absent_kind() -> KernelKind {
    if KernelKind::Neon.available() {
        KernelKind::Avx512f
    } else {
        KernelKind::Neon
    }
}

/// Strategy: a small vector-sparse matrix spec, including very sparse
/// configurations that leave whole strips empty.
fn arb_matrix(dist: ValueDist) -> impl Strategy<Value = Matrix> {
    (
        1usize..=4,   // strips of 16 rows
        1usize..=6,   // column blocks of 16
        0.5f64..0.99, // sparsity
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        any::<u64>(),
    )
        .prop_map(move |(mr, kc, sparsity, v, seed)| {
            VectorSparseSpec {
                rows: mr * 16,
                cols: kc * 16,
                sparsity,
                v,
                dist,
                seed,
            }
            .generate()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The forced scalar variant is bit-identical to `execute_fast` on
    /// arbitrary (non-integer) values, layouts, and odd N.
    #[test]
    fn scalar_is_bit_identical_to_execute_fast(
        a in arb_matrix(ValueDist::Uniform),
        n in 1usize..=24,
        interleaved in any::<bool>(),
    ) {
        let b = dense_rhs(a.cols, n, ValueDist::Uniform, 17);
        let (format, kernel) = compile(&a, interleaved);
        prop_assert_eq!(
            kernel.execute_opts(&b, &ExecOptions::scalar()),
            execute_fast(&format, &b)
        );
    }

    /// On integer-valued data every product and partial sum is exactly
    /// representable, so fused rounding vanishes: every runnable
    /// variant must be bit-identical to the oracle.
    #[test]
    fn all_variants_are_bit_exact_on_integer_data(
        a in arb_matrix(ValueDist::SmallInt),
        n in 1usize..=24,
        interleaved in any::<bool>(),
    ) {
        let b = dense_rhs(a.cols, n, ValueDist::SmallInt, 23);
        let (format, kernel) = compile(&a, interleaved);
        let oracle = execute_fast(&format, &b);
        for &kind in available_for_proptest() {
            prop_assert_eq!(
                &kernel.execute_opts(&b, &forced(kind)),
                &oracle,
                "variant {}",
                kind.name()
            );
        }
    }

    /// The prepaneled entry point is bit-identical to the two-phase
    /// path for **every** runnable variant: handing the kernel a
    /// `PanelizedB` built by `panelize_into` (the extracted phase 1)
    /// runs the same grid over the same bits, so skipping phase 1
    /// cannot perturb a single output bit — on any values, not just
    /// integers.
    #[test]
    fn prepaneled_execute_is_bit_identical_to_two_phase(
        a in arb_matrix(ValueDist::Uniform),
        n in 1usize..=24,
        interleaved in any::<bool>(),
    ) {
        let b = dense_rhs(a.cols, n, ValueDist::Uniform, 37);
        let (_, kernel) = compile(&a, interleaved);
        let mut panels = vec![0.0f32; a.cols * n];
        jigsaw_core::panelize_into(&b, &mut panels).unwrap();
        let pb = jigsaw_core::PanelizedB::new(a.cols, n, &panels).unwrap();
        for &kind in available_for_proptest() {
            let two_phase = kernel.execute_opts(&b, &forced(kind));
            let mut c = vec![0.0f32; kernel.m * n];
            kernel
                .execute_prepaneled_into_opts(&pb, &mut c, &forced(kind))
                .unwrap();
            prop_assert_eq!(&c, &two_phase, "variant {}", kind.name());
        }
    }

    /// On arbitrary values every variant equals the scalar oracle bit
    /// for bit — over v ∈ {1, 2, 4, 8} (group heights 1..=4 and split
    /// v=8 runs), one-vector panels (N ≤ 16, where avx512f pairs
    /// groups) and widths that reach every register-block tail.
    #[test]
    fn every_variant_equals_the_scalar_oracle_bit_for_bit(
        a in arb_matrix(ValueDist::Uniform),
        n in prop_oneof![1usize..=16, arb_width()],
        interleaved in any::<bool>(),
    ) {
        let b = dense_rhs(a.cols, n, ValueDist::Uniform, 29);
        let (_, kernel) = compile(&a, interleaved);
        let oracle = bits(&kernel.execute_opts(&b, &ExecOptions::scalar()));
        for &kind in available_for_proptest() {
            let got = bits(&kernel.execute_opts(&b, &forced(kind)));
            prop_assert_eq!(&got, &oracle, "variant {} n={}", kind.name(), n);
        }
    }

    /// Adjacent groups of unequal heights and unequal stream lengths,
    /// empty streams among them: runs of 1..=6 rows share one random
    /// column set, so the compiled stream cuts them into groups of 1..=4
    /// rows whose neighbours differ in height and length. At N ≤ 16
    /// avx512f runs such pairs in one register block; every variant
    /// must still equal the scalar oracle bit for bit.
    #[test]
    fn paired_groups_of_unequal_shapes_equal_the_scalar_oracle(
        a in arb_row_runs(),
        n in prop_oneof![1usize..=16, 17usize..=40],
    ) {
        let b = dense_rhs(a.cols, n, ValueDist::Uniform, 41);
        let (format, kernel) = compile(&a, true);
        let oracle = bits(&kernel.execute_opts(&b, &ExecOptions::scalar()));
        prop_assert_eq!(&oracle, &bits(&execute_fast(&format, &b)));
        for &kind in available_for_proptest() {
            let got = bits(&kernel.execute_opts(&b, &forced(kind)));
            prop_assert_eq!(&got, &oracle, "variant {} n={}", kind.name(), n);
        }
    }
}

/// Strategy: a 16·(1..=4) × 16·(1..=4) matrix of runs of 1..=6
/// consecutive rows, each run sharing one random set of 0..=12 columns
/// with its own uniform values.
fn arb_row_runs() -> impl Strategy<Value = Matrix> {
    (1usize..=4, 1usize..=4, any::<u64>()).prop_map(|(mr, kc, seed)| {
        let (m, k) = (16 * mr, 16 * kc);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = vec![0.0f32; m * k];
        let mut row = 0;
        while row < m {
            let run = rng.gen_range(1usize..=6).min(m - row);
            let cols: Vec<usize> = (0..rng.gen_range(0..=12))
                .map(|_| rng.gen_range(0..k))
                .collect();
            for r in row..row + run {
                for &c in &cols {
                    let mag = rng.gen_range(0.25f32..2.0);
                    data[r * k + c] = if rng.gen_bool(0.5) { -mag } else { mag };
                }
            }
            row += run;
        }
        Matrix::from_f32(m, k, &data)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Panelization widens every F16 bit pattern (signed zeros,
    /// subnormals, ±inf, quiet and signalling NaN payloads) exactly as
    /// `F16::to_f32` does, element by element: whole
    /// (`panelize_into`) and split into ragged parts
    /// (`panelize_parts_into`). Widths 1..=33 make every row segment
    /// reach the 8-lane converter's body and its tail. K = 16,400
    /// forces 32-column panels, so n = 33 also leaves a 1-column panel.
    #[test]
    fn panel_images_widen_every_f16_pattern_like_to_f32(
        k in prop_oneof![1usize..=40, Just(16_400usize)],
        n in 1usize..=33,
        cuts in proptest::collection::vec(1usize..=32, 0..4),
        seed in any::<u64>(),
    ) {
        let b = random_bit_patterns(k, n, seed);
        let oracle = per_element_panel_image(&b);

        let mut whole = vec![0.0f32; k * n];
        jigsaw_core::panelize_into(&b, &mut whole).unwrap();
        prop_assert_eq!(bits(&whole), bits(&oracle));

        let parts = split_columns(&b, &cuts);
        let refs: Vec<&Matrix> = parts.iter().collect();
        let mut fused = vec![0.0f32; k * n];
        prop_assert_eq!(
            jigsaw_core::panelize_parts_into(&refs, &mut fused).unwrap(),
            (k, n)
        );
        prop_assert_eq!(bits(&fused), bits(&oracle));
    }
}

/// A `k × n` B of raw F16 bit patterns: one element in four is a
/// special value, the rest are drawn from all 65,536 patterns.
fn random_bit_patterns(k: usize, n: usize, seed: u64) -> Matrix {
    const SPECIALS: [u16; 12] = [
        0x0000, 0x8000, // ±0
        0x0001, 0x83FF, // smallest and largest subnormal
        0x0400, 0xFBFF, // smallest normal, -MAX
        0x7C00, 0xFC00, // ±inf
        0x7E00, 0xFE01, // quiet NaNs
        0x7C01, 0xFDFF, // signalling NaNs
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..k * n)
        .map(|_| {
            let bits = if rng.gen_bool(0.25) {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen::<u16>()
            };
            F16::from_bits(bits)
        })
        .collect();
    Matrix {
        rows: k,
        cols: n,
        data,
    }
}

/// The panel-major image of `b`, one `F16::to_f32` per element: element
/// `(r, c)` of panel `(col0, w)` sits at `k·col0 + r·w + (c − col0)`.
fn per_element_panel_image(b: &Matrix) -> Vec<f32> {
    let k = b.rows;
    let mut image = vec![0.0f32; k * b.cols];
    for (col0, w) in panel_cuts(k, b.cols) {
        for r in 0..k {
            for c in col0..col0 + w {
                image[k * col0 + r * w + (c - col0)] = b.row(r)[c].to_f32();
            }
        }
    }
    image
}

/// Splits `b` into consecutive column parts at the distinct cut points
/// `cuts` (taken modulo the width), so part widths are ragged.
fn split_columns(b: &Matrix, cuts: &[usize]) -> Vec<Matrix> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % b.cols).filter(|&c| c > 0).collect();
    at.extend([0, b.cols]);
    at.sort_unstable();
    at.dedup();
    at.windows(2)
        .map(|w| {
            let (lo, hi) = (w[0], w[1]);
            Matrix {
                rows: b.rows,
                cols: hi - lo,
                data: (0..b.rows)
                    .flat_map(|r| b.row(r)[lo..hi].to_vec())
                    .collect(),
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Output widths that reach every register-block tail: N=1, every
/// width up to one full single-row AVX-512 block (16 ZMM, 256 columns)
/// plus a ragged second block, and a second panel a few columns wide
/// (panels are 512 wide at these K).
fn arb_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), 2usize..=280, 513usize..=530]
}

/// `runnable_variants` would flood proptest output with one skip line
/// per case; log once per process instead.
fn available_for_proptest() -> &'static [KernelKind] {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<Vec<KernelKind>> = OnceLock::new();
    AVAILABLE.get_or_init(runnable_variants)
}

/// Fixed config exercising the edge shapes the proptest strategies
/// only sometimes reach: an entirely empty strip, an empty leading
/// strip, and N not divisible by any lane width. Each variant is
/// pinned through `KernelPolicy::Forced`, which must select it; the
/// inputs include an ISA this host lacks, whose force must fall back
/// to a runnable kernel — never a panic. Every product is bit-exact.
#[test]
fn every_variant_handles_empty_strips_and_odd_n() {
    // Rows 16..32 (the second of three strips) are all zero.
    let mut data = vec![0.0f32; 48 * 64];
    for r in (0..48).filter(|r| !(16..32).contains(r)) {
        for c in 0..64 {
            if (r * 31 + c * 7) % 5 == 0 {
                data[r * 64 + c] = ((r + c) % 7) as f32 - 3.0;
            }
        }
    }
    let a = Matrix::from_f32(48, 64, &data);
    for n in [1, 13, 17] {
        let b = dense_rhs(64, n, ValueDist::SmallInt, 31);
        let (format, kernel) = compile(&a, true);
        let oracle = execute_fast(&format, &b);
        assert_eq!(oracle, a.matmul_reference(&b), "oracle sanity, n={n}");
        for kind in runnable_variants().into_iter().chain([absent_kind()]) {
            let picked = dispatch::selected_kind(&forced(kind));
            if kind.available() {
                assert_eq!(picked, kind, "Forced({kind:?}) selects it");
            } else {
                assert!(picked.available(), "absent {kind:?} falls back");
            }
            assert_eq!(
                kernel.execute_opts(&b, &forced(kind)),
                oracle,
                "variant {} n={n}",
                kind.name()
            );
        }
    }
}

/// `v[start..start + len]`, where `start` lies `byte_offset` bytes past
/// the first 64-byte boundary inside `v`.
fn at_line_offset(v: &mut [f32], byte_offset: usize, len: usize) -> &mut [f32] {
    let lead = (64 - v.as_ptr() as usize % 64) % 64 / 4;
    let start = lead + byte_offset / 4;
    let out = &mut v[start..start + len];
    assert_eq!(out.as_ptr() as usize % 64, byte_offset);
    out
}

/// Alignment is a speed property only: the grid over the same panel
/// image and C, placed 0/16/32/48 bytes past a cache line, writes
/// bit-identical products for every variant — on non-integer values,
/// widths on and off the 16-float grid, and (at K = 8192, 32-wide
/// panels) several panels with a ragged last one.
#[test]
fn prepaneled_output_is_independent_of_panel_alignment() {
    for (rows, k, widths) in [
        (64, 96, &[13usize, 16, 40, 64][..]),
        (32, 8192, &[70usize, 80][..]),
    ] {
        let a = VectorSparseSpec {
            rows,
            cols: k,
            sparsity: 0.9,
            v: 4,
            dist: ValueDist::Uniform,
            seed: 53,
        }
        .generate();
        let (_, kernel) = compile(&a, true);
        for &n in widths {
            let b = dense_rhs(k, n, ValueDist::Uniform, 59);
            let mut image = vec![0.0f32; k * n];
            jigsaw_core::panelize_into(&b, &mut image).unwrap();
            for &kind in available_for_proptest() {
                let mut outputs = Vec::new();
                for byte_offset in [0, 16, 32, 48] {
                    let mut b_store = vec![0.0f32; k * n + 32];
                    let panels = at_line_offset(&mut b_store, byte_offset, k * n);
                    panels.copy_from_slice(&image);
                    let pb = jigsaw_core::PanelizedB::new(k, n, panels).unwrap();
                    let mut c_store = vec![0.0f32; rows * n + 32];
                    let c = at_line_offset(&mut c_store, byte_offset, rows * n);
                    kernel
                        .execute_prepaneled_into_opts(&pb, c, &forced(kind))
                        .unwrap();
                    outputs.push(bits(c));
                }
                for (i, out) in outputs.iter().enumerate() {
                    assert_eq!(
                        out,
                        &outputs[0],
                        "variant {} k={k} n={n} offset {}",
                        kind.name(),
                        16 * i
                    );
                }
            }
        }
    }
}
