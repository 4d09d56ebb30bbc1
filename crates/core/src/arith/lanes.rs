//! Lane-parallel SISO kernels: slice operations over the `z` rows of a layer.
//!
//! The paper's architecture reaches its throughput by running `z` identical
//! SISO units over the `z` independent rows of one layer in lock-step. The
//! software analogue is *lane-major* processing: instead of walking the rows
//! one at a time through scalar [`DecoderArithmetic`] calls, the layered
//! engine lays the layer's messages out slot-major/lane-contiguous
//! (`lanes[slot · z + r]` is the message of block-column slot `slot`, row `r`)
//! and the arithmetic back-end processes whole `z`-length slices at once.
//!
//! [`LaneKernel`] is that extension of [`DecoderArithmetic`]. Every method has
//! a provided scalar fallback (bit-identical by construction, so float
//! back-ends keep working unchanged); the fixed-point back-ends override
//! [`LaneKernel::check_node_update_lanes`] with hand-written slice kernels
//! whose inner loops are stride-1 over the lanes — the
//! autovectorisation-friendly shape — and which run out of [`LaneScratch`]
//! instead of allocating per row (the scalar forward/backward and Min-Sum
//! updates allocate transient row buffers on every call; the lane kernels
//! allocate nothing in steady state).
//!
//! One level up, [`LaneKernel::layer_update_lanes`] is a whole layered
//! sub-iteration in place on the APP and Λ memory, the one call the decode
//! driver makes per layer. Its provided body, [`layer_update_unfused`],
//! composes the slice kernels through slot-major [`LaneScratch`] panels;
//! the fixed-point BP default overrides it with one fused pass that keeps
//! `λ` and the row state in registers.
//!
//! Underneath the slice kernels sits a third tier: the fixed-point
//! overrides dispatch their panel passes through
//! [`crate::arith::simd`] — explicit AVX2/SSE4.1 intrinsics on 16-bit
//! panels (with `pshufb` LUT lookups and fused ⊞/⊟) selected once per
//! process at runtime, with scalar panel loops as the universal,
//! bit-identical fallback (`LDPC_FORCE_SCALAR=1` pins it). The row-serial fallback in
//! this module remains the reference above both.
//!
//! Layout invariant: `lanes_in` and `lanes_out` hold `degree · z` messages,
//! slot-major. Lane `r` of the layer is the strided row
//! `lanes[r], lanes[z + r], …, lanes[(degree−1)·z + r]`, and the kernel must
//! produce, for every lane, exactly what
//! [`DecoderArithmetic::check_node_update`] produces for that row — the
//! engine's lane path is required to stay bit-identical to the row-serial
//! reference for every back-end.

use ldpc_codes::LaneLayer;

use super::DecoderArithmetic;

/// Reusable scratch for [`LaneKernel`] implementations, owned by the decode
/// workspace so lane kernels are allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct LaneScratch<M> {
    /// Row gather buffer `λ` of the scalar fallback, the row-serial
    /// reference and the flooding schedule (capacity = degree).
    pub(crate) row_in: Vec<M>,
    /// Row output buffer `Λ′` of the same three (capacity = degree).
    pub(crate) row_out: Vec<M>,
    /// Lane workspace of the vector kernels (capacity ≥ `lane_factor · z`,
    /// see [`LaneScratch::reserve`]).
    pub(crate) lanes: Vec<M>,
    /// Slot-major `λ` panels of one layer (`degree · z`), gathered by
    /// [`layer_update_unfused`] for [`LaneKernel::check_node_update_lanes`].
    pub(crate) lane_in: Vec<M>,
    /// Slot-major `Λ′` panels of one layer (`degree · z`).
    pub(crate) lane_out: Vec<M>,
}

impl<M: Copy> LaneScratch<M> {
    /// How many `z`-length lanes of scratch the provided kernels may ask for,
    /// as a function of the maximum check-node degree: the forward/backward
    /// fixed-BP kernel needs `2 · degree` lanes (prefix and suffix ⊞ sums)
    /// plus 3 transient panels for the branch-free ⊞ decomposition
    /// (min/sum/diff magnitudes feeding the LUT lookup); the argmin-excluded
    /// fixed-BP kernel needs 7 (S, S', minimum, argmin and the same 3) for
    /// degree ≥ 2, and the Min-Sum kernel 4 (min1/min2/argmin/parity), both
    /// covered by the same bound.
    #[must_use]
    pub fn lane_factor(max_degree: usize) -> usize {
        2 * max_degree + 3
    }

    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        LaneScratch {
            row_in: Vec::new(),
            row_out: Vec::new(),
            lanes: Vec::new(),
            lane_in: Vec::new(),
            lane_out: Vec::new(),
        }
    }

    /// Grows the buffers to what a code with `max_degree`-row layers of `z`
    /// lanes needs, so subsequent kernel calls are allocation-free.
    pub fn reserve(&mut self, max_degree: usize, z: usize) {
        reserve_to(&mut self.row_in, max_degree);
        reserve_to(&mut self.row_out, max_degree);
        reserve_to(&mut self.lanes, Self::lane_factor(max_degree) * z);
        reserve_to(&mut self.lane_in, max_degree * z);
        reserve_to(&mut self.lane_out, max_degree * z);
    }

    /// Whether [`LaneScratch::reserve`] with these parameters would allocate.
    #[must_use]
    pub fn is_ready(&self, max_degree: usize, z: usize) -> bool {
        self.row_in.capacity() >= max_degree
            && self.row_out.capacity() >= max_degree
            && self.lanes.capacity() >= Self::lane_factor(max_degree) * z
            && self.lane_in.capacity() >= max_degree * z
            && self.lane_out.capacity() >= max_degree * z
    }

    /// Pointer/capacity fingerprint (see
    /// [`DecodeWorkspace::allocation_fingerprint`](crate::workspace::DecodeWorkspace::allocation_fingerprint)).
    #[must_use]
    pub fn fingerprint(&self) -> [(usize, usize); 5] {
        [
            &self.row_in,
            &self.row_out,
            &self.lanes,
            &self.lane_in,
            &self.lane_out,
        ]
        .map(|buf| (buf.as_ptr() as usize, buf.capacity()))
    }

    /// A zero-copy `len`-element view of the lane workspace, filled with
    /// `fill`. Resizing within the reserved capacity never reallocates.
    pub(crate) fn lanes_mut(&mut self, len: usize, fill: M) -> &mut [M] {
        self.lanes.clear();
        self.lanes.resize(len, fill);
        &mut self.lanes
    }
}

fn reserve_to<T>(buf: &mut Vec<T>, capacity: usize) {
    if buf.capacity() < capacity {
        buf.reserve_exact(capacity - buf.len());
    }
}

/// Lane-parallel extension of [`DecoderArithmetic`]: the same message algebra
/// applied to whole `z`-length slices (one element per SISO lane).
///
/// All methods have scalar fallbacks that apply the element operations
/// lane-by-lane, so implementing the marker `impl LaneKernel for T {}` is
/// enough for correctness; back-ends override methods with vector kernels
/// where it pays. **Contract:** every override must be bit-identical to its
/// fallback (the engine's lane path is tested against the row-serial
/// reference for every back-end).
///
/// # Frame-major panels
///
/// Nothing in the contract ties the lane count to one code's `z`: every
/// method is element-wise per lane, so the frame-major multi-frame engine
/// (see [`crate::group`]) calls the same kernels with `z · F` lanes — the
/// `z` rows of a layer across `F` interleaved frames, one contiguous panel.
/// Kernels written against this trait vectorise across both axes for free.
pub trait LaneKernel: DecoderArithmetic {
    /// Whether the batch engine should pack frames of this back-end into
    /// frame-major groups (see
    /// [`Decoder::decode_group_into`](crate::engine::Decoder::decode_group_into)).
    /// `true` for back-ends whose vector kernels get faster with wider
    /// panels (the fixed-point back-ends); the float back-ends use the
    /// scalar fallback kernels, for which grouping only adds interleaving
    /// overhead, and stay frame-serial.
    fn prefers_frame_groups(&self) -> bool {
        false
    }

    /// Element-wise `λ = L − Λ` over lanes: `out[i] = sub(app[i], lambda[i])`.
    ///
    /// # Panics
    ///
    /// May panic if the three slices differ in length.
    fn sub_lanes(&self, app: &[Self::Msg], lambda: &[Self::Msg], out: &mut [Self::Msg]) {
        debug_assert!(app.len() == lambda.len() && lambda.len() == out.len());
        for ((o, &a), &b) in out.iter_mut().zip(app).zip(lambda) {
            *o = self.sub(a, b);
        }
    }

    /// Element-wise `L = λ + Λ′` over lanes: `out[i] = add(lam[i], upd[i])`.
    ///
    /// # Panics
    ///
    /// May panic if the three slices differ in length.
    fn add_lanes(&self, lam: &[Self::Msg], upd: &[Self::Msg], out: &mut [Self::Msg]) {
        debug_assert!(lam.len() == upd.len() && upd.len() == out.len());
        for ((o, &a), &b) in out.iter_mut().zip(lam).zip(upd) {
            *o = self.add(a, b);
        }
    }

    /// Check-node update of all `z` lanes of one layer at once.
    ///
    /// `lanes_in` and `lanes_out` hold `degree · z` messages, slot-major
    /// (`lanes[slot · z + r]`); for every lane `r` the strided row across the
    /// slots is updated exactly as [`DecoderArithmetic::check_node_update`]
    /// would update it. `scratch` provides all transient storage, so the call
    /// is allocation-free once the scratch is sized for the code.
    ///
    /// # Panics
    ///
    /// May panic if `lanes_in.len() != lanes_out.len()`, or if the lengths are
    /// not a multiple of `z`.
    fn check_node_update_lanes(
        &self,
        z: usize,
        lanes_in: &[Self::Msg],
        lanes_out: &mut [Self::Msg],
        scratch: &mut LaneScratch<Self::Msg>,
    ) {
        debug_assert_eq!(lanes_in.len(), lanes_out.len());
        debug_assert!(z > 0 && lanes_in.len().is_multiple_of(z));
        let degree = lanes_in.len() / z;
        for r in 0..z {
            scratch.row_in.clear();
            scratch
                .row_in
                .extend((0..degree).map(|slot| lanes_in[slot * z + r]));
            self.check_node_update(&scratch.row_in, &mut scratch.row_out);
            for (slot, &m) in scratch.row_out.iter().enumerate() {
                lanes_out[slot * z + r] = m;
            }
        }
    }

    /// One whole layered sub-iteration over a `width`-frame group: for every
    /// row of `layer` in every packed frame, `λ = L − Λ`, the check-node
    /// update and the write-back of `Λ′` and `L′ = λ + Λ′`, in place in the
    /// group's APP memory `app` and Λ memory `lambda` (the frame-innermost
    /// layout of [`crate::group`]: every single-frame span scales by
    /// `width`, so each block column is one `z · width`-lane panel).
    ///
    /// The provided body is [`layer_update_unfused`]: gather `λ` into
    /// [`LaneScratch`] panels with [`LaneKernel::sub_lanes`], run
    /// [`LaneKernel::check_node_update_lanes`], scatter with
    /// [`LaneKernel::add_lanes`]. A back-end may override it with a pass
    /// that keeps `λ` and the row state in registers; the override must be
    /// bit-identical to that body. Lanes are independent and the slots of a
    /// layer address pairwise disjoint block columns, which is what lets an
    /// override update `app` chunk by chunk in place.
    ///
    /// # Panics
    ///
    /// May panic if a slot's block column or Λ span lies outside `app` or
    /// `lambda`, or if a shift is not below `z`.
    fn layer_update_lanes(
        &self,
        layer: &LaneLayer<'_>,
        z: usize,
        width: usize,
        app: &mut [Self::Msg],
        lambda: &mut [Self::Msg],
        scratch: &mut LaneScratch<Self::Msg>,
    ) {
        layer_update_unfused(self, layer, z, width, app, lambda, scratch);
    }
}

/// The three-call layer update, the provided body of
/// [`LaneKernel::layer_update_lanes`] (and what a back-end's override falls
/// back to for shapes it does not fuse):
///
/// 1. **Read**: gather `λ = L − Λ` for all `z · width` lanes of each block
///    column with [`LaneKernel::sub_lanes`]. Lane `r` of a slot with shift
///    `s` reads `L` at `col_base + ((r + s) mod z)`, so the lanes split into
///    two contiguous spans of the column; Λ is lane-contiguous.
/// 2. **Decode**: [`LaneKernel::check_node_update_lanes`] across all lanes.
/// 3. **Write back**: `Λ ← Λ′` is a straight copy; `L ← λ + Λ′` scatters
///    through the same two spans with [`LaneKernel::add_lanes`].
///
/// The slot-major `λ`/`Λ′` panels live in `scratch`, grown to
/// `degree · z · width` on first use (allocation-free once
/// [`LaneScratch::reserve`] covered the shape).
pub fn layer_update_unfused<K: LaneKernel + ?Sized>(
    arith: &K,
    layer: &LaneLayer<'_>,
    z: usize,
    width: usize,
    app: &mut [K::Msg],
    lambda: &mut [K::Msg],
    scratch: &mut LaneScratch<K::Msg>,
) {
    let zw = z * width;
    let degree = layer.degree();
    let len = degree * zw;
    // The panels leave the scratch while it is lent to the check-node
    // update, and go back afterwards (pointer moves, no allocation).
    let mut gathered = std::mem::take(&mut scratch.lane_in);
    let mut updated = std::mem::take(&mut scratch.lane_out);
    for panel in [&mut gathered, &mut updated] {
        if panel.len() < len {
            panel.resize(len, arith.zero());
        }
    }
    let (lane_in, lane_out) = (&mut gathered[..len], &mut updated[..len]);
    // Slot `s` as (Λ span, lanes before the rotation split, L span start).
    let span = |slot: usize| {
        let split = (z - layer.shift[slot] as usize) * width;
        let cb = layer.col_base[slot] as usize * width;
        (layer.edge_base[slot] as usize * width, split, cb)
    };

    for (slot, lam) in lane_in.chunks_exact_mut(zw).enumerate() {
        let (eb, split, cb) = span(slot);
        let lambda = &lambda[eb..eb + zw];
        arith.sub_lanes(
            &app[cb + zw - split..cb + zw],
            &lambda[..split],
            &mut lam[..split],
        );
        arith.sub_lanes(
            &app[cb..cb + zw - split],
            &lambda[split..],
            &mut lam[split..],
        );
    }

    arith.check_node_update_lanes(zw, lane_in, lane_out, scratch);

    for (slot, (lam, upd)) in lane_in
        .chunks_exact(zw)
        .zip(lane_out.chunks_exact(zw))
        .enumerate()
    {
        let (eb, split, cb) = span(slot);
        lambda[eb..eb + zw].copy_from_slice(upd);
        arith.add_lanes(
            &lam[..split],
            &upd[..split],
            &mut app[cb + zw - split..cb + zw],
        );
        arith.add_lanes(&lam[split..], &upd[split..], &mut app[cb..cb + zw - split]);
    }
    scratch.lane_in = gathered;
    scratch.lane_out = updated;
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Asserts the lane methods of `arith` are bit-identical to the scalar
    /// fallback semantics on a deterministic slot-major message block.
    pub(crate) fn check_lane_axioms<A, F>(arith: &A, z: usize, degree: usize, msg_at: F)
    where
        A: LaneKernel,
        F: Fn(usize) -> A::Msg,
    {
        let lanes_in: Vec<A::Msg> = (0..degree * z).map(&msg_at).collect();
        // Reference: row-serial scalar updates on the strided rows.
        let mut expected = vec![arith.zero(); degree * z];
        let mut row_out = Vec::new();
        for r in 0..z {
            let row: Vec<A::Msg> = (0..degree).map(|s| lanes_in[s * z + r]).collect();
            arith.check_node_update(&row, &mut row_out);
            assert_eq!(row_out.len(), degree);
            for (s, &m) in row_out.iter().enumerate() {
                expected[s * z + r] = m;
            }
        }
        // Lane path, scratch deliberately undersized to prove it grows.
        let mut scratch = LaneScratch::new();
        scratch.reserve(degree, z);
        let mut lanes_out = vec![arith.zero(); degree * z];
        arith.check_node_update_lanes(z, &lanes_in, &mut lanes_out, &mut scratch);
        assert_eq!(lanes_out, expected, "lane kernel diverged from scalar");

        // add/sub lanes agree with the element operations.
        let a: Vec<A::Msg> = (0..z).map(&msg_at).collect();
        let b: Vec<A::Msg> = (0..z).map(|i| msg_at(i + z)).collect();
        let mut out = vec![arith.zero(); z];
        arith.sub_lanes(&a, &b, &mut out);
        for i in 0..z {
            assert_eq!(out[i], arith.sub(a[i], b[i]));
        }
        arith.add_lanes(&a, &b, &mut out);
        for i in 0..z {
            assert_eq!(out[i], arith.add(a[i], b[i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_reserve_and_fingerprint() {
        let mut s = LaneScratch::<i32>::new();
        assert!(!s.is_ready(7, 96));
        s.reserve(7, 96);
        assert!(s.is_ready(7, 96));
        assert!(s.is_ready(3, 24));
        let fp = s.fingerprint();
        s.reserve(7, 96);
        let _ = s.lanes_mut(LaneScratch::<i32>::lane_factor(7) * 96, 0);
        assert_eq!(fp, s.fingerprint(), "sized scratch must not reallocate");
    }

    #[test]
    fn lane_factor_covers_min_sum_and_fwd_bwd() {
        // Every provided kernel fits: fwd/bwd needs 2d + 3 panels, bare
        // sum-extract needs 4 (total + min/sum/diff), argmin-excluded
        // sum-extract 7 from degree 2 on, min-sum 4.
        assert_eq!(LaneScratch::<i32>::lane_factor(1), 5);
        assert_eq!(LaneScratch::<i32>::lane_factor(2), 7);
        assert_eq!(LaneScratch::<i32>::lane_factor(7), 17);
        assert!((1..=24).all(|d| LaneScratch::<i32>::lane_factor(d) >= 4));
        assert!((2..=24).all(|d| LaneScratch::<i32>::lane_factor(d) >= 7));
    }
}
