//! Differential suite for fused batched-B assembly (`assemble_panels`
//! + the registry's fused batch path).
//!
//! Contract under test (DESIGN.md §16): emitting each part's F16
//! columns directly into panel-major f32 scratch is **bit-exact** with
//! the two-touch oracle — `concat_columns` into one `Matrix`, then the
//! kernel's phase-1 panelization — across ragged part widths, odd
//! total N, narrow panels (multi-panel batches), and every part count;
//! and the registry's fused batch execution returns bit-identical
//! products to the unfused path while reporting which path ran.

use proptest::prelude::*;

use dlmc::{dense_rhs, Matrix, ValueDist, VectorSparseSpec};
use jigsaw_core::{panel_cuts, panel_width, panelize_into, ExecOptions, JigsawConfig};
use jigsaw_serve::{assemble_panels, concat_columns, BatchError, ModelRegistry, RegistryConfig};

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

/// End to end through the registry: a model registered with the
/// fused-assembly opt-in produces a bit-identical batch product to the
/// same model running the two-touch path, and each run reports which
/// path produced it.
#[test]
fn registry_fused_batch_matches_unfused_bit_exactly() {
    let weights = VectorSparseSpec {
        rows: 64,
        cols: 96,
        sparsity: 0.9,
        v: 4,
        dist: ValueDist::Uniform,
        seed: 11,
    }
    .generate();
    let fused_opts = ExecOptions::default().with_fused_assembly(true);
    let reg = ModelRegistry::new(RegistryConfig::default()).unwrap();
    reg.register_with_options("fused", weights.clone(), JigsawConfig::v4(32), fused_opts);
    reg.register("unfused", weights, JigsawConfig::v4(32));

    let parts: Vec<Matrix> = (0..4)
        .map(|i| dense_rhs(96, 3 + 2 * i, ValueDist::Uniform, 40 + i as u64))
        .collect();
    let refs: Vec<&Matrix> = parts.iter().collect();
    let pool = jigsaw_core::WorkspacePool::new();

    let (fused_model, _) = reg.fetch("fused").unwrap();
    let (unfused_model, _) = reg.fetch("unfused").unwrap();
    let (c_fused, ran_fused) = fused_model.execute_batch_pooled(&refs, &pool).unwrap();
    let (c_unfused, ran_unfused) = unfused_model.execute_batch_pooled(&refs, &pool).unwrap();
    assert!(ran_fused, "fused opt-in takes the fused path");
    assert!(!ran_unfused, "default options take the two-touch path");
    assert_eq!(&c_fused[..], &c_unfused[..], "products are bit-identical");
}
