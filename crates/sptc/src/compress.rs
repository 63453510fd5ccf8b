//! 2:4 structured-sparsity checking and row compression.
//!
//! The SpTC requires the LHS operand to have at most two nonzero elements
//! in every aligned group of four consecutive row elements. Compression
//! removes the zeros: an `M x K` tile becomes `M x K/2` values plus 2-bit
//! positional metadata per kept element (paper Figure 3).

use crate::f16::F16;

/// Number of elements per 2:4 group.
pub const GROUP: usize = 4;
/// Nonzeros kept per group after compression.
pub const KEPT_PER_GROUP: usize = 2;

/// Returns true when every aligned group of 4 elements in `row` contains
/// at most 2 nonzeros. `row.len()` must be a multiple of 4.
pub fn row_satisfies_2_4(row: &[F16]) -> bool {
    debug_assert_eq!(row.len() % GROUP, 0);
    row.chunks_exact(GROUP)
        .all(|g| g.iter().filter(|v| !v.is_zero()).count() <= KEPT_PER_GROUP)
}

/// Returns true when the whole row-major `m x k` matrix satisfies 2:4.
pub fn matrix_satisfies_2_4(values: &[F16], k: usize) -> bool {
    debug_assert_eq!(values.len() % k, 0);
    debug_assert_eq!(k % GROUP, 0);
    values.chunks_exact(k).all(row_satisfies_2_4)
}

/// A compressed 2:4 row: `k/2` kept values and their 2-bit in-group
/// positions, in group order.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedRow {
    /// The kept values, two per original group of four.
    pub values: Vec<F16>,
    /// For each kept value, its position (0..=3) inside its group.
    pub indices: Vec<u8>,
}

/// The keep-and-pad rule for one group of four whose nonzero positions
/// are the set bits of `nonzeros` (at most two): the kept positions are
/// the nonzeros in position order, then the lowest unused positions.
///
/// Groups with fewer than two nonzeros are padded because the hardware
/// always keeps exactly two elements per group, using index positions
/// for the padded slots that point at (zero) elements. We follow
/// cuSPARSELt's convention of padding with the lowest unused position
/// in the group, so decompression is always well-defined.
const fn kept_positions(nonzeros: u8) -> [u8; KEPT_PER_GROUP] {
    let mut kept = [0u8; KEPT_PER_GROUP];
    let mut k = 0;
    let mut pos = 0;
    while pos < GROUP {
        if nonzeros & (1 << pos) != 0 && k < KEPT_PER_GROUP {
            kept[k] = pos as u8;
            k += 1;
        }
        pos += 1;
    }
    let mut used = nonzeros;
    while k < KEPT_PER_GROUP {
        let pad = (!used).trailing_zeros() as u8;
        kept[k] = pad;
        used |= 1 << pad;
        k += 1;
    }
    kept
}

/// [`kept_positions`] for every nonzero pattern of a group.
const KEPT_POSITIONS: [[u8; KEPT_PER_GROUP]; 1 << GROUP] = {
    let mut table = [[0u8; KEPT_PER_GROUP]; 1 << GROUP];
    let mut nonzeros = 0;
    while nonzeros < 1 << GROUP {
        table[nonzeros] = kept_positions(nonzeros as u8);
        nonzeros += 1;
    }
    table
};

/// Compresses one aligned group of four: its (at most two) nonzeros in
/// position order, then explicit zeros up to two kept elements (see
/// [`kept_positions`]).
///
/// Returns the kept values and their in-group positions, or `None` if
/// the group has more than two nonzeros. This is the one keep-and-pad
/// rule: [`compress_row_2_4`] applies it group by group, and format
/// builders that compress into fixed arrays call it directly. It is a
/// table lookup rather than a branch per element, since which elements
/// are zero is data-dependent and unpredictable.
#[inline]
pub fn compress_group_2_4(
    group: &[F16; GROUP],
) -> Option<([F16; KEPT_PER_GROUP], [u8; KEPT_PER_GROUP])> {
    let nonzeros = group
        .iter()
        .enumerate()
        .fold(0u8, |m, (pos, v)| m | (u8::from(!v.is_zero()) << pos));
    let count = nonzeros.count_ones() as usize;
    if count > KEPT_PER_GROUP {
        return None;
    }
    let indices = KEPT_POSITIONS[usize::from(nonzeros)];
    // Padded slots hold an explicit +0, whatever zero the group held.
    let values = std::array::from_fn(|k| {
        if k < count {
            group[usize::from(indices[k])]
        } else {
            F16::ZERO
        }
    });
    Some((values, indices))
}

/// Compresses one 2:4-satisfying row, group by group with
/// [`compress_group_2_4`].
///
/// Returns `None` if some group has more than two nonzeros.
pub fn compress_row_2_4(row: &[F16]) -> Option<CompressedRow> {
    debug_assert_eq!(row.len() % GROUP, 0);
    let mut values = Vec::with_capacity(row.len() / 2);
    let mut indices = Vec::with_capacity(row.len() / 2);
    for group in row.chunks_exact(GROUP) {
        let (v, i) = compress_group_2_4(group.try_into().expect("chunks of GROUP"))?;
        values.extend_from_slice(&v);
        indices.extend_from_slice(&i);
    }
    Some(CompressedRow { values, indices })
}

/// Expands a compressed row back to its dense `k`-element form.
pub fn decompress_row_2_4(compressed: &CompressedRow, k: usize) -> Vec<F16> {
    debug_assert_eq!(compressed.values.len(), k / 2);
    let mut out = vec![F16::ZERO; k];
    for (slot, (&v, &idx)) in compressed
        .values
        .iter()
        .zip(compressed.indices.iter())
        .enumerate()
    {
        let group = slot / KEPT_PER_GROUP;
        out[group * GROUP + idx as usize] = v;
    }
    out
}

/// Compresses a row-major `m x k` tile. Returns `None` if any row violates
/// 2:4. Output rows are concatenated (`m * k/2` values / indices).
pub fn compress_tile_2_4(values: &[F16], k: usize) -> Option<(Vec<F16>, Vec<u8>)> {
    debug_assert_eq!(values.len() % k, 0);
    let m = values.len() / k;
    let mut out_vals = Vec::with_capacity(m * k / 2);
    let mut out_idx = Vec::with_capacity(m * k / 2);
    for row in values.chunks_exact(k) {
        let c = compress_row_2_4(row)?;
        out_vals.extend_from_slice(&c.values);
        out_idx.extend_from_slice(&c.indices);
    }
    Some((out_vals, out_idx))
}

/// Fraction of `groups` in a row-major matrix that satisfy 2:4. Useful for
/// the SparTA-style decomposition (how much of a matrix the SpTC can take).
pub fn fraction_of_compatible_groups(values: &[F16], k: usize) -> f64 {
    debug_assert_eq!(k % GROUP, 0);
    let mut ok = 0usize;
    let mut total = 0usize;
    for row in values.chunks_exact(k) {
        for g in row.chunks_exact(GROUP) {
            total += 1;
            if g.iter().filter(|v| !v.is_zero()).count() <= KEPT_PER_GROUP {
                ok += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        ok as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(v: f32) -> F16 {
        F16::from_f32(v)
    }

    #[test]
    fn detects_2_4_satisfaction() {
        assert!(row_satisfies_2_4(&[h(1.0), h(0.0), h(2.0), h(0.0)]));
        assert!(row_satisfies_2_4(&[h(0.0); 4]));
        assert!(!row_satisfies_2_4(&[h(1.0), h(1.0), h(2.0), h(0.0)]));
    }

    #[test]
    fn alignment_matters() {
        // Three nonzeros split across two groups is fine...
        assert!(row_satisfies_2_4(&[
            h(0.0),
            h(0.0),
            h(1.0),
            h(1.0),
            h(1.0),
            h(0.0),
            h(0.0),
            h(0.0)
        ]));
        // ...but three in one aligned group is not.
        assert!(!row_satisfies_2_4(&[
            h(0.0),
            h(1.0),
            h(1.0),
            h(1.0),
            h(1.0),
            h(0.0),
            h(0.0),
            h(0.0)
        ]));
    }

    #[test]
    fn compress_roundtrip_exact_pattern() {
        // Paper Figure 3's first-row example: nonzeros at positions (0,3)
        // and (1,2) of two consecutive groups.
        let row = [
            h(1.0),
            h(0.0),
            h(0.0),
            h(2.0),
            h(0.0),
            h(3.0),
            h(4.0),
            h(0.0),
        ];
        let c = compress_row_2_4(&row).unwrap();
        assert_eq!(c.indices, vec![0, 3, 1, 2]);
        assert_eq!(c.values, vec![h(1.0), h(2.0), h(3.0), h(4.0)]);
        assert_eq!(decompress_row_2_4(&c, 8), row.to_vec());
    }

    #[test]
    fn compress_pads_sparse_groups() {
        let row = [h(0.0), h(0.0), h(0.0), h(5.0)];
        let c = compress_row_2_4(&row).unwrap();
        assert_eq!(c.values.len(), 2);
        assert_eq!(c.values[0], h(5.0));
        assert!(c.values[1].is_zero());
        assert_eq!(c.indices[0], 3);
        assert_ne!(c.indices[1], 3, "pad slot must not collide");
        assert_eq!(decompress_row_2_4(&c, 4), row.to_vec());
    }

    #[test]
    fn group_pads_after_the_kept_nonzeros() {
        // One nonzero at position 0: the pad takes position 1.
        let (v, i) = compress_group_2_4(&[h(5.0), h(0.0), h(0.0), h(0.0)]).unwrap();
        assert_eq!((v, i), ([h(5.0), F16::ZERO], [0, 1]));
        // One nonzero at position 3: the pad takes position 0, after it.
        let (v, i) = compress_group_2_4(&[h(0.0), h(0.0), h(0.0), h(5.0)]).unwrap();
        assert_eq!((v, i), ([h(5.0), F16::ZERO], [3, 0]));
        // An empty group keeps positions 0 and 1.
        let (v, i) = compress_group_2_4(&[h(0.0); 4]).unwrap();
        assert_eq!((v, i), ([F16::ZERO; 2], [0, 1]));
        assert!(compress_group_2_4(&[h(1.0), h(0.0), h(1.0), h(1.0)]).is_none());
    }

    /// The element-by-element keep-and-pad loop the lookup table
    /// replaced.
    fn compress_group_by_loop(group: &[F16; GROUP]) -> Option<(Vec<F16>, Vec<u8>)> {
        let (mut values, mut indices) = (Vec::new(), Vec::new());
        let mut used = [false; GROUP];
        for (pos, v) in group.iter().enumerate() {
            if !v.is_zero() {
                if values.len() == KEPT_PER_GROUP {
                    return None;
                }
                values.push(*v);
                indices.push(pos as u8);
                used[pos] = true;
            }
        }
        let mut pos = 0usize;
        while values.len() < KEPT_PER_GROUP {
            while used[pos] {
                pos += 1;
            }
            values.push(F16::ZERO);
            indices.push(pos as u8);
            used[pos] = true;
        }
        Some((values, indices))
    }

    #[test]
    fn group_table_matches_the_loop_on_every_pattern() {
        // Each element is +0, -0 or a nonzero: 3^4 groups.
        let choices = [h(0.0), h(-0.0), h(1.5)];
        for code in 0..81usize {
            let group: [F16; GROUP] =
                std::array::from_fn(|p| choices[code / 3usize.pow(p as u32) % 3]);
            let got = compress_group_2_4(&group).map(|(v, i)| (v.to_vec(), i.to_vec()));
            let want = compress_group_by_loop(&group);
            let bits = |r: &Option<(Vec<F16>, Vec<u8>)>| {
                r.as_ref()
                    .map(|(v, i)| (v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), i.clone()))
            };
            assert_eq!(bits(&got), bits(&want), "group {group:?}");
        }
    }

    #[test]
    fn compress_rejects_violation() {
        let row = [h(1.0), h(1.0), h(1.0), h(0.0)];
        assert!(compress_row_2_4(&row).is_none());
    }

    #[test]
    fn all_zero_row_compresses() {
        let row = [h(0.0); 8];
        let c = compress_row_2_4(&row).unwrap();
        assert!(c.values.iter().all(|v| v.is_zero()));
        assert_eq!(decompress_row_2_4(&c, 8), row.to_vec());
    }

    #[test]
    fn tile_compression_shapes() {
        let tile: Vec<F16> = (0..16 * 32)
            .map(|i| if i % 4 < 2 { h(1.0) } else { h(0.0) })
            .collect();
        let (vals, idx) = compress_tile_2_4(&tile, 32).unwrap();
        assert_eq!(vals.len(), 16 * 16);
        assert_eq!(idx.len(), 16 * 16);
    }

    #[test]
    fn compatible_group_fraction() {
        let m = [
            h(1.0),
            h(1.0),
            h(1.0),
            h(0.0), // bad group
            h(1.0),
            h(0.0),
            h(0.0),
            h(0.0), // good group
        ];
        assert_eq!(fraction_of_compatible_groups(&m, 8), 0.5);
    }
}
