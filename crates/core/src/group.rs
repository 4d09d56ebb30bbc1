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

/// Evaluates `$body` with `$w` bound to the group width `$width`: as a
/// `const` for every width up to [`MAX_GROUP_WIDTH`], as a plain `usize`
/// beyond it. A strided loop over frame-major rows inlined into `$body` then
/// sees a compile-time row length, and its gathers and scatters vectorise
/// (a runtime stride leaves them element by element).
macro_rules! const_width {
    ($width:expr, $w:ident => $body:expr) => {
        $crate::group::const_width!(@arms $width, $w, $body; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
    (@arms $width:expr, $w:ident, $body:expr; $($n:literal)*) => {
        match $width {
            $($n => {
                const $w: usize = $n;
                $body
            })*
            width => {
                #[allow(non_snake_case)]
                let $w: usize = width;
                $body
            }
        }
    };
}
pub(crate) use const_width;

// The literal arms of `const_width!` cover exactly the group widths.
const _: () = assert!(MAX_GROUP_WIDTH == 16);

/// In-place column compaction of a frame-major buffer: keeps only the packed
/// columns listed in `keep` (strictly increasing old column indices), shrinks
/// the stride from `old_width` to `keep.len()` and truncates the buffer to
/// `rows · keep.len()`.
///
/// Both the read and write cursors move strictly forward and the write never
/// overtakes the read, so the repack is safe in place and allocation-free.
/// Only the first few rows, while the write cursor still overlaps the row
/// being read, go element by element; after that the write cursor trails the
/// read cursor by at least a row, and every run of rows that fits in the gap
/// is gathered from a disjoint tail slice by [`gather_columns`] (the gap, and
/// so the run length, grows geometrically).
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
    if new_width == 0 {
        buf.clear();
        return;
    }
    let mut row = 0;
    while row < rows {
        let read = row * old_width;
        // Rows `row..end` write `[row · new_width, end · new_width)`, which
        // ends at or before `read`, where this row's reads begin.
        let end = (read / new_width).min(rows);
        if end <= row {
            for (a, &s) in keep.iter().enumerate() {
                buf[row * new_width + a] = buf[read + s as usize];
            }
            row += 1;
            continue;
        }
        let (written, unread) = buf.split_at_mut(read);
        gather_columns(
            &mut written[row * new_width..end * new_width],
            &unread[..(end - row) * old_width],
            old_width,
            keep,
        );
        row = end;
    }
    buf.truncate(rows * new_width);
}

/// `dst` row `r` ← the `keep` columns of `src` row `r`, for frame-major
/// buffers of stride `keep.len()` and `old_width`: the disjoint-slice body of
/// [`compact_columns`]. A single kept column is a plain strided gather.
fn gather_columns<M: Copy>(dst: &mut [M], src: &[M], old_width: usize, keep: &[u32]) {
    const_width!(old_width, W => gather_rows(dst, src, W, keep));
}

/// [`gather_columns`] for one row length; inlined into each
/// [`const_width!`] arm.
#[inline(always)]
fn gather_rows<M: Copy>(dst: &mut [M], src: &[M], old_width: usize, keep: &[u32]) {
    assert!(keep.iter().all(|&k| (k as usize) < old_width));
    if let [k] = *keep {
        let k = k as usize;
        for (d, s) in dst.iter_mut().zip(src.chunks_exact(old_width)) {
            *d = s[k];
        }
        return;
    }
    for (d, s) in dst
        .chunks_exact_mut(keep.len())
        .zip(src.chunks_exact(old_width))
    {
        for (d, &k) in d.iter_mut().zip(keep) {
            *d = s[k as usize];
        }
    }
}

/// Packed column `col` of a frame-major buffer with stride `width`:
/// `buf[i · width + col]` for every row `i`, in order, read in place. Consume
/// it inside a [`const_width!`] arm for a vectorised read.
#[inline(always)]
pub(crate) fn column<M: Copy>(
    buf: &[M],
    width: usize,
    col: usize,
) -> impl ExactSizeIterator<Item = M> + '_ {
    assert!(col < width);
    buf.chunks_exact(width).map(move |row| row[col])
}

/// `buf[i · width + col] = column[i]`: writes one frame into packed column
/// `col` of a frame-major buffer with stride `width` (the interleave of the
/// driver's ingest).
pub(crate) fn fill_column<M: Copy>(buf: &mut [M], width: usize, col: usize, column: &[M]) {
    assert!(col < width);
    debug_assert_eq!(buf.len(), column.len() * width);
    const_width!(width, W => {
        for (row, &m) in buf.chunks_exact_mut(W).zip(column) {
            row[col] = m;
        }
    });
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
        assert_eq!(column(&buf, 2, 0).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(column(&buf, 2, 1).collect::<Vec<_>>(), vec![100, 101, 102]);
        assert_eq!(column(&buf, 1, 0).collect::<Vec<_>>(), buf);
        assert_eq!(column(&buf, 3, 2).len(), 2);
    }

    /// The per-element repack `compact_columns` replaced: the reference the
    /// blocked version is swept against.
    fn compact_columns_naive<M: Copy>(
        buf: &[M],
        rows: usize,
        old_width: usize,
        keep: &[u32],
    ) -> Vec<M> {
        (0..rows)
            .flat_map(|row| keep.iter().map(move |&s| buf[row * old_width + s as usize]))
            .collect()
    }

    fn sweep_compaction<M: Copy + PartialEq + std::fmt::Debug>(value: impl Fn(usize) -> M) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0117AC7);
        // Every `const_width!` arm, and the runtime arm past the last one.
        for old_width in 1..=MAX_GROUP_WIDTH + 3 {
            for rows in [0usize, 1, 2, 3, 17, 96, 301] {
                let buf: Vec<M> = (0..rows * old_width).map(&value).collect();
                // `fill_column` runs the same arms; `column` reads it back.
                let mut packed = buf.clone();
                for col in 0..old_width {
                    let naive: Vec<M> = (0..rows).map(|r| buf[r * old_width + col]).collect();
                    assert_eq!(column(&buf, old_width, col).collect::<Vec<_>>(), naive);
                    let shifted: Vec<M> = (0..rows).map(|r| value(r + col + 1)).collect();
                    fill_column(&mut packed, old_width, col, &shifted);
                    assert_eq!(column(&packed, old_width, col).collect::<Vec<_>>(), shifted);
                }
                let mut keeps: Vec<Vec<u32>> = vec![Vec::new(), (0..old_width as u32).collect()];
                for _ in 0..8 {
                    keeps.push(
                        (0..old_width as u32)
                            .filter(|_| rng.gen_range(0..2u8) == 1)
                            .collect(),
                    );
                }
                keeps.extend((0..old_width as u32).map(|s| vec![s]));
                for keep in keeps {
                    let mut got = buf.clone();
                    compact_columns(&mut got, rows, old_width, &keep);
                    assert_eq!(
                        got,
                        compact_columns_naive(&buf, rows, old_width, &keep),
                        "old_width {old_width}, rows {rows}, keep {keep:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn compact_columns_matches_the_per_element_repack() {
        // Plus `column` and `fill_column` against their one-line forms.
        sweep_compaction(|i| (i as i16).wrapping_mul(37) ^ 0x55);
        sweep_compaction(|i| (i * 7 + 3) as u8);
    }
}
