//! Differential suite for fused batched-B assembly (`assemble_panels`
//! + the registry's batch path, the one serve execution path).
//!
//! Contract under test (DESIGN.md §16): emitting each part's F16
//! columns directly into panel-major f32 scratch is **bit-exact** with
//! the two-touch oracle — `concat_columns` into one `Matrix`, then the
//! kernel's phase-1 panelization — across ragged part widths, odd
//! total N, narrow panels (multi-panel batches), and every part count;
//! and the registry's batch execution returns the oracle's product on
//! every rung of the degradation ladder while reporting which rung ran.

use std::sync::{Arc, Mutex, MutexGuard};

use proptest::prelude::*;

use dlmc::{dense_rhs, Matrix, ValueDist, VectorSparseSpec};
use jigsaw_core::compiled::dispatch;
use jigsaw_core::fault::{self, points, FaultKind, FaultSpec};
use jigsaw_core::{
    execute_fast, panel_cuts, panel_width, panelize_into, CompiledKernel, ExecOptions,
    JigsawConfig, KernelKind, WorkspacePool,
};
use jigsaw_serve::{
    assemble_panels, concat_columns, BatchError, ExecPlan, ModelRegistry, PlannedModel,
    RegistryConfig,
};

/// The two assembly paths over the same parts, compared bit-for-bit.
fn assert_fused_matches_two_touch(parts: &[&Matrix]) {
    let k = parts[0].rows;
    let total: usize = parts.iter().map(|p| p.cols).sum();
    let mut fused = vec![0.0f32; k * total];
    assert_eq!(assemble_panels(parts, &mut fused), Ok((k, total)));
    let cat = concat_columns(parts).expect("oracle concat");
    let mut oracle = vec![0.0f32; k * total];
    panelize_into(&cat, &mut oracle).expect("oracle panelize");
    assert_eq!(fused, oracle, "fused emit differs from two-touch oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ragged widths, odd N, arbitrary values: the fused emit is
    /// bit-exact with concat + phase-1 panelization.
    #[test]
    fn fused_emit_is_bit_exact_across_ragged_widths(
        k_blocks in 1usize..=6,
        widths in proptest::collection::vec(1usize..=13, 1..=5),
        seed in any::<u64>(),
    ) {
        let k = k_blocks * 16;
        let parts: Vec<Matrix> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| dense_rhs(k, w, ValueDist::Uniform, seed ^ (i as u64 + 1)))
            .collect();
        let refs: Vec<&Matrix> = parts.iter().collect();
        assert_fused_matches_two_touch(&refs);
    }
}

/// Narrow panels: a reduction dimension large enough that
/// `panel_width` bottoms out at its 32-column clamp, so a modest batch
/// spans several panels and parts straddle panel boundaries.
#[test]
fn fused_emit_handles_multi_panel_batches() {
    let k = 16 * 1024; // panel_width(16384, ·) = 32
    let total = 77; // 3 panels: 32 + 32 + 13
    assert_eq!(panel_width(k, total), 32);
    assert_eq!(panel_cuts(k, total), vec![(0, 32), (32, 32), (64, 13)]);
    // Widths chosen so part boundaries and panel boundaries interleave
    // (parts at 0, 30, 47, 59; panels at 0, 32, 64).
    let widths = [30usize, 17, 12, 18];
    assert_eq!(widths.iter().sum::<usize>(), total);
    let parts: Vec<Matrix> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| dense_rhs(k, w, ValueDist::Uniform, 90 + i as u64))
        .collect();
    let refs: Vec<&Matrix> = parts.iter().collect();
    assert_fused_matches_two_touch(&refs);
}

/// A single part is also a valid "batch": the fused emit then *is*
/// phase-1 panelization of that part.
#[test]
fn fused_emit_of_one_part_is_plain_panelization() {
    let b = dense_rhs(64, 19, ValueDist::Uniform, 7);
    let mut fused = vec![0.0f32; 64 * 19];
    assert_eq!(assemble_panels(&[&b], &mut fused), Ok((64, 19)));
    let mut oracle = vec![0.0f32; 64 * 19];
    panelize_into(&b, &mut oracle).unwrap();
    assert_eq!(fused, oracle);
}

/// The fused path's typed edges: an empty batch and an undersized
/// scratch come back as values, never panics.
#[test]
fn fused_emit_rejects_empty_batches_and_short_scratch() {
    let mut scratch = vec![0.0f32; 16];
    assert_eq!(
        assemble_panels(&[], &mut scratch),
        Err(BatchError::EmptyBatch)
    );
    let b = dense_rhs(8, 5, ValueDist::Uniform, 3);
    assert_eq!(
        assemble_panels(&[&b], &mut scratch),
        Err(BatchError::ScratchTooSmall {
            needed: 40,
            got: 16
        })
    );
}

/// Serializes the registry tests below: the fault registry and the
/// variant poison flags are process-global.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::reset();
    dispatch::unpoison_all();
    g
}

/// A fresh registry's one model, registered with `opts` and fetched.
fn model(opts: ExecOptions) -> Arc<PlannedModel> {
    model_of(weights(), opts)
}

/// The 64 × 96 weights of [`model`].
fn weights() -> Matrix {
    VectorSparseSpec {
        rows: 64,
        cols: 96,
        sparsity: 0.9,
        v: 4,
        dist: ValueDist::Uniform,
        seed: 11,
    }
    .generate()
}

/// A fresh registry's one model of `weights`, registered with `opts`
/// and fetched.
fn model_of(weights: Matrix, opts: ExecOptions) -> Arc<PlannedModel> {
    let reg = ModelRegistry::new(RegistryConfig::default()).unwrap();
    reg.register_with_options("m", weights, JigsawConfig::v4(32), opts);
    reg.get("m").unwrap()
}

/// `count` ragged parts of one batch (widths 3, 5, 7, …).
fn ragged_parts(count: usize) -> Vec<Matrix> {
    ragged_parts_of(96, count)
}

/// `count` ragged `k`-row parts of one batch (widths 3, 5, 7, …).
fn ragged_parts_of(k: usize, count: usize) -> Vec<Matrix> {
    (0..count)
        .map(|i| dense_rhs(k, 3 + 2 * i, ValueDist::Uniform, 40 + i as u64))
        .collect()
}

/// End to end through the registry: the batch path (parts assembled
/// straight into panel-major scratch, then the prepaneled grid) is
/// bit-identical to the unfused oracle, `concat_columns` followed by
/// the two-phase `execute_opts` under the same options, on the
/// full-speed rung and on the scalar one (which also equals
/// `execute_fast`).
#[test]
fn registry_fused_batch_matches_unfused_bit_exactly() {
    let _g = lock();
    let parts = ragged_parts(4);
    let refs: Vec<&Matrix> = parts.iter().collect();
    let cat = concat_columns(&refs).unwrap();
    let pool = WorkspacePool::new();
    for opts in [ExecOptions::default(), ExecOptions::scalar()] {
        let model = model(opts);
        let (c, simd) = model.execute_batch_pooled(&refs, &pool).unwrap();
        assert!(simd, "{opts:?}: a healthy model runs its top rung");
        let kernel = CompiledKernel::compile(&model.format);
        assert_eq!(&c[..], &kernel.execute_opts(&cat, &opts)[..], "{opts:?}");
        if opts == ExecOptions::scalar() {
            assert_eq!(&c[..], &execute_fast(&model.format, &cat)[..]);
        }
    }
}

/// A panic out of the SIMD rung mid-batch: the batch is recomputed on
/// the scalar rung over the same panels, so a ragged 3-part batch
/// still returns the `execute_fast`-on-concat product bit for bit,
/// flagged as not produced by the SIMD rung, and the model stays
/// degraded.
#[test]
fn simd_panic_mid_batch_reruns_the_same_panels_on_scalar() {
    let _g = lock();
    if dispatch::selected_kind(&ExecOptions::default()) == KernelKind::Scalar {
        return; // No SIMD rung on this host: nothing to poison.
    }
    let model = model(ExecOptions::default());
    let parts = ragged_parts(3);
    let refs: Vec<&Matrix> = parts.iter().collect();
    let expect = execute_fast(&model.format, &concat_columns(&refs).unwrap());
    let pool = WorkspacePool::new();
    // Every SIMD execution panics while armed, so the batch only
    // completes if the rerun really is pinned to scalar.
    fault::inject(FaultSpec::always(points::EXECUTE, FaultKind::Panic));
    let (c, simd) = model.execute_batch_pooled(&refs, &pool).unwrap();
    fault::reset();
    assert!(!simd, "the scalar rung produced the batch");
    assert_eq!(&c[..], &expect[..], "bit-exact with execute_fast on concat");
    assert!(model.is_degraded(), "the SIMD rung stays poisoned");
    dispatch::unpoison_all();
}

/// A model whose compilation failed (`ExecPlan::FormatFallback`)
/// serves the same ragged batch bit for bit, off the format.
#[test]
fn compile_failure_serves_the_batch_bit_exactly() {
    let _g = lock();
    fault::inject(FaultSpec::always(points::COMPILE, FaultKind::Error));
    let model = model(ExecOptions::default());
    fault::reset();
    assert!(matches!(model.exec, ExecPlan::FormatFallback));
    assert!(model.is_degraded());
    let parts = ragged_parts(3);
    let refs: Vec<&Matrix> = parts.iter().collect();
    let expect = execute_fast(&model.format, &concat_columns(&refs).unwrap());
    let pool = WorkspacePool::new();
    let (c, simd) = model.execute_batch_pooled(&refs, &pool).unwrap();
    assert!(!simd);
    assert_eq!(&c[..], &expect[..]);
}

/// Bit patterns a reused pool buffer may hold: a quiet NaN, and all
/// ones (a negative NaN with every payload bit set).
const STALE: [u32; 2] = [0x7FC0_0000, 0xFFFF_FFFF];

/// Fills the shelved buffers the next batch takes with `bits`:
/// acquiring C's and the scratch's lengths in the order the batch path
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

fn bit_image(c: &[f32]) -> Vec<u32> {
    c.iter().map(|x| x.to_bits()).collect()
}

/// Both rungs of the batch ladder over reused buffers full of NaN or
/// all-ones bits return the `execute_fast`-on-concat product bit for
/// bit: the SIMD rung, and the scalar rerun after an injected
/// `exec.execute` panic (which fires before the grid writes anything,
/// so the rerun starts from a C of nothing but stale bits). Models
/// with a row of no nonzeros, an all-zero weight and K = 0.
#[test]
fn stale_pool_buffers_change_no_batch_output() {
    let _g = lock();
    let simd_host = dispatch::selected_kind(&ExecOptions::default()) != KernelKind::Scalar;
    let mut empty_row = weights();
    empty_row.data[7 * 96..8 * 96].fill(sptc::F16::ZERO);
    for w in [empty_row, Matrix::zeros(64, 96), Matrix::zeros(32, 0)] {
        let (m, k) = (w.rows, w.cols);
        let parts = ragged_parts_of(k, 3);
        let refs: Vec<&Matrix> = parts.iter().collect();
        let n: usize = parts.iter().map(|p| p.cols).sum();
        let model = model_of(w.clone(), ExecOptions::default());
        let expect = bit_image(&execute_fast(
            &model.format,
            &concat_columns(&refs).unwrap(),
        ));
        let pool = WorkspacePool::new();
        drop(model.execute_batch_pooled(&refs, &pool).unwrap());
        for bits in STALE {
            dirty(&pool, [m * n, k * n], bits);
            let (c, simd) = model.execute_batch_pooled(&refs, &pool).unwrap();
            assert!(simd, "a healthy model runs its top rung");
            assert_eq!(bit_image(&c), expect, "{m}x{k} SIMD rung, stale {bits:#x}");
        }
        if !simd_host {
            continue; // No SIMD rung to panic out of.
        }
        for bits in STALE {
            let model = model_of(w.clone(), ExecOptions::default());
            dirty(&pool, [m * n, k * n], bits);
            fault::inject(FaultSpec::always(points::EXECUTE, FaultKind::Panic));
            let (c, simd) = model.execute_batch_pooled(&refs, &pool).unwrap();
            fault::reset();
            dispatch::unpoison_all();
            assert!(!simd, "the scalar rung produced the batch");
            assert_eq!(
                bit_image(&c),
                expect,
                "{m}x{k} scalar rerun, stale {bits:#x}"
            );
        }
        assert_eq!(pool.stats().misses, 2, "only the warm-up allocated");
    }
}
