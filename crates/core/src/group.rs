//! Frame-major SoA multi-frame decoding: the `FrameGroup` layout.
//!
//! The lane-major engine of PR 2 vectorises across the `z` rows of one layer
//! of **one** frame; at small `z` (WiFi modes go down to `z = 27`, WiMAX to
//! `z = 24`) the vectors run half-empty. A *frame group* adds a second vector
//! axis: `F` frames of the same code are interleaved **frame-innermost**, so
//! every per-message buffer grows by a factor of `F` and element `(i, f)` —
//! message slot `i` of frame `f` — lives at `buf[i · F + f]`:
//!
//! ```text
//!            slot 0          slot 1          slot 2
//!         ┌───────────┐   ┌───────────┐   ┌───────────┐
//!  app =  │f0 f1 … fF₋₁│  │f0 f1 … fF₋₁│  │f0 f1 … fF₋₁│ …
//!         └───────────┘   └───────────┘   └───────────┘
//! ```
//!
//! Because the interleave is innermost, every stride-1 span of the
//! single-frame layout stays a stride-1 span, just `F×` longer: the two-span
//! rotation gather/scatter contract of
//! [`CompiledCode`](ldpc_codes::CompiledCode) holds with all offsets
//! multiplied by `F`, and the [`LaneKernel`](crate::arith::LaneKernel) slice
//! kernels run unchanged over `z · F`-lane panels — full vectors even for
//! `z = 24`, with zero extra kernel code.
//!
//! **Per-frame early termination.** Frames of a group converge at different
//! iterations. Every kernel operation is element-wise per lane, so each
//! frame's message evolution is exactly what sequential
//! [`decode_into`](crate::engine::Decoder::decode_into) would produce — and a
//! converged frame can therefore be *compacted out* of the group (its columns
//! removed, the stride shrunk) without perturbing the bit-identity of the
//! others, while genuinely skipping its share of all remaining-iteration
//! work. `compact_columns` implements that in-place repack.
//!
//! See [`Decoder::decode_group_into`](crate::engine::Decoder::decode_group_into)
//! for the engine entry point and
//! [`group_width_for`] for how `F` is chosen.

/// Panel-width target of the group heuristic, in lanes. Wide enough that the
/// compute passes dwarf the per-panel loop overhead and small-`z` modes fill
/// the vector units; small enough that the per-layer working set
/// (≈ `(2·degree + 3) · z · F` messages for the deepest kernel) stays in L1.
pub const TARGET_PANEL_LANES: usize = 128;

/// Most frames ever packed into one group. Caps the APP/Λ working-set growth
/// (`F ×` the single-frame footprint) and the repack cost per convergence.
pub const MAX_GROUP_WIDTH: usize = 16;

/// The group width `F` the engine prefers for a code with lifting factor `z`:
/// enough frames to bring the `z · F` panels up to [`TARGET_PANEL_LANES`],
/// clamped to `1..=`[`MAX_GROUP_WIDTH`]. Large-`z` codes already fill the
/// vectors and get small groups; `z = 24` WiFi/WiMAX modes get wide ones.
#[must_use]
pub fn group_width_for(z: usize) -> usize {
    if z == 0 {
        return 1;
    }
    TARGET_PANEL_LANES.div_ceil(z).clamp(1, MAX_GROUP_WIDTH)
}

/// In-place column compaction of a frame-major buffer: keeps only the packed
/// columns listed in `keep` (strictly increasing old column indices), shrinks
/// the stride from `old_width` to `keep.len()` and truncates the buffer to
/// `rows · keep.len()`.
///
/// Both the read and write cursors move strictly forward and the write never
/// overtakes the read, so the repack is safe in place and allocation-free.
///
/// # Panics
///
/// Debug-asserts that `buf` holds `rows · old_width` elements and that `keep`
/// is a strictly increasing subset of `0..old_width`.
pub(crate) fn compact_columns<M: Copy>(
    buf: &mut Vec<M>,
    rows: usize,
    old_width: usize,
    keep: &[u32],
) {
    debug_assert_eq!(buf.len(), rows * old_width);
    debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(keep.iter().all(|&s| (s as usize) < old_width));
    let new_width = keep.len();
    if new_width == old_width {
        return;
    }
    for row in 0..rows {
        for (a, &s) in keep.iter().enumerate() {
            buf[row * new_width + a] = buf[row * old_width + s as usize];
        }
    }
    buf.truncate(rows * new_width);
}

/// Copies packed column `col` of a frame-major buffer with stride `width`
/// into `out` (cleared first): the de-interleaved single-frame view used to
/// finish a converged frame's output.
pub(crate) fn extract_column<M: Copy>(buf: &[M], width: usize, col: usize, out: &mut Vec<M>) {
    debug_assert!(col < width && buf.len().is_multiple_of(width.max(1)));
    out.clear();
    out.extend(buf.iter().skip(col).step_by(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_heuristic_fills_panels_and_clamps() {
        assert_eq!(group_width_for(0), 1);
        assert_eq!(group_width_for(24), 6, "z=24 WiFi mode gets wide groups");
        assert_eq!(group_width_for(27), 5);
        assert_eq!(group_width_for(96), 2);
        assert_eq!(group_width_for(128), 1);
        assert_eq!(group_width_for(512), 1);
        assert_eq!(group_width_for(1), MAX_GROUP_WIDTH, "capped");
        for z in 1..600 {
            let f = group_width_for(z);
            assert!((1..=MAX_GROUP_WIDTH).contains(&f));
        }
    }

    #[test]
    fn compact_columns_repacks_in_place() {
        // 3 rows × width 4, element (row, col) encoded as 10·row + col.
        let mut buf: Vec<i32> = (0..3)
            .flat_map(|r| (0..4).map(move |c| 10 * r + c))
            .collect();
        compact_columns(&mut buf, 3, 4, &[0, 2, 3]);
        assert_eq!(buf, vec![0, 2, 3, 10, 12, 13, 20, 22, 23]);
        compact_columns(&mut buf, 3, 3, &[1]);
        assert_eq!(buf, vec![2, 12, 22]);
        // Keeping everything is a no-op.
        let mut same = vec![1, 2, 3, 4];
        compact_columns(&mut same, 2, 2, &[0, 1]);
        assert_eq!(same, vec![1, 2, 3, 4]);
        // Dropping every column empties the buffer.
        compact_columns(&mut same, 2, 2, &[]);
        assert!(same.is_empty());
    }

    #[test]
    fn extract_column_deinterleaves() {
        let buf = vec![0, 100, 1, 101, 2, 102];
        let mut out = Vec::new();
        extract_column(&buf, 2, 0, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        extract_column(&buf, 2, 1, &mut out);
        assert_eq!(out, vec![100, 101, 102]);
        extract_column(&buf, 1, 0, &mut out);
        assert_eq!(out, buf);
    }
}
