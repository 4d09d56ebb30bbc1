//! Message arithmetic back-ends for the layered decoder.
//!
//! The layered decoder ([`crate::decoder::LayeredDecoder`]) is generic over a
//! [`DecoderArithmetic`]: the message representation (floating point or the
//! hardware's 8-bit fixed point) together with the check-node update rule
//! (full BP via ⊞/⊟ as in the paper, or the Min-Sum baseline the paper argues
//! against). This keeps a single scheduling/control implementation — matching
//! the fact that the ASIC datapath is the only thing that changes between
//! algorithm variants.
//!
//! [`LaneKernel`] extends the scalar algebra to lane-parallel slice kernels:
//! the layered engine processes all `z` rows of a layer at once, the way the
//! hardware's `z`-wide SISO array does, and the fixed-point back-ends provide
//! hand-written stride-1 kernels for it.

mod fixed_bp;
mod float_bp;
mod lanes;
mod min_sum;
// The explicit-SIMD kernel tier is the one module in the crate allowed to
// use `unsafe` (std::arch intrinsics + bounded raw-pointer panel loops);
// the crate-level lint is `deny(unsafe_code)`, relaxed here alone. See the
// module docs for the per-block safety arguments.
#[allow(unsafe_code)]
pub mod simd;

pub use fixed_bp::{CheckNodeMode, FixedBpArithmetic};
pub use float_bp::FloatBpArithmetic;
pub use lanes::{layer_update_unfused, LaneKernel, LaneScratch};
pub use min_sum::{FixedMinSumArithmetic, FloatMinSumArithmetic};
pub use simd::SimdLevel;

use std::fmt::Debug;

use ldpc_codes::CompiledCode;

/// A message representation plus the check-node update rule operating on it.
pub trait DecoderArithmetic {
    /// The message type carried through the decoder (e.g. `f64` or a
    /// fixed-point code).
    type Msg: Copy + Debug + PartialEq + Send + Sync + 'static;

    /// Converts a channel LLR into the message domain (the `L_n = 2y/σ²`
    /// initialisation of Algorithm 1, possibly quantised).
    // The receiver is the arithmetic back-end, not the value being converted,
    // so the `from_` self-convention lint does not apply.
    #[allow(clippy::wrong_self_convention)]
    fn from_channel(&self, llr: f64) -> Self::Msg;

    /// [`DecoderArithmetic::from_channel`] over a slice:
    /// `out[i] = from_channel(llrs[i])`. Returns whether every LLR was
    /// finite (`|l| < ∞`; ±∞ and NaN are not), tested in the same pass, so
    /// the decode drivers refuse a frame without a second scan. The
    /// fixed-point back-ends override it with one kernel-tier quantisation
    /// pass.
    ///
    /// # Panics
    ///
    /// May panic if the slices differ in length.
    #[allow(clippy::wrong_self_convention)]
    fn from_channel_slice(&self, llrs: &[f64], out: &mut [Self::Msg]) -> bool {
        debug_assert_eq!(llrs.len(), out.len());
        let mut finite = true;
        for (o, &l) in out.iter_mut().zip(llrs) {
            *o = self.from_channel(l);
            finite &= l.abs() < f64::INFINITY;
        }
        finite
    }

    /// Converts a message back into an LLR value (for thresholds, reporting
    /// and hard decisions).
    fn to_llr(&self, m: Self::Msg) -> f64;

    /// The additive zero of the message domain (used to initialise Λ).
    fn zero(&self) -> Self::Msg;

    /// Saturating addition `L = λ + Λ`, saturating to the *APP* range.
    ///
    /// The a-posteriori memory is wider than the check-message datapath
    /// (2 extra integer bits in the fixed-point back-ends): if `L` and `Λ`
    /// saturated at the same level, `λ = L − Λ` would collapse to zero once
    /// the decoder converges and the iteration would diverge again.
    fn add(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg;

    /// Saturating subtraction `λ = L − Λ`, saturating to the *message* range
    /// (the result feeds the 8-bit SISO datapath).
    fn sub(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg;

    /// Hard decision with the paper's sign convention: `L ≥ 0 ⇒ 0`.
    fn hard_bit(&self, m: Self::Msg) -> u8 {
        u8::from(self.to_llr(m) < 0.0)
    }

    /// Absolute LLR value of a message.
    fn magnitude(&self, m: Self::Msg) -> f64 {
        self.to_llr(m).abs()
    }

    /// An early-termination LLR threshold converted once into the message
    /// domain: the value `t` for which [`DecoderArithmetic::exceeds`]`(m, t)`
    /// holds exactly when `magnitude(m) > threshold`, for every message `m`.
    /// Only called with thresholds below `+∞` (a larger or NaN threshold can
    /// never be exceeded, and the decode drivers skip the test).
    fn termination_threshold(&self, threshold: f64) -> Self::Msg;

    /// The early-termination magnitude test `magnitude(m) > threshold`, in
    /// the message domain (`t` from
    /// [`DecoderArithmetic::termination_threshold`]). A NaN message passes,
    /// as it never lowers the minimum `|LLR|` the rule compares.
    fn exceeds(&self, m: Self::Msg, t: Self::Msg) -> bool;

    /// The parity verdict of every frame of a `width`-frame group: on
    /// return `failed[slot]` is 0 exactly when the hard decisions of packed
    /// column `slot` of the APP memory `app` (`app[i · width + slot]`, see
    /// [`crate::group`]) satisfy every parity check of `compiled`, and 1
    /// otherwise. A verdict depends on its own frame's column alone, never
    /// on the width, the slot or the other frames. The decode drivers run
    /// it once per iteration for the zero-syndrome stop, and its verdict is
    /// the `parity_satisfied` of every finished frame.
    ///
    /// The provided body XORs [`DecoderArithmetic::hard_bit`]s along the
    /// rotation contract of [`CompiledCode`]; the fixed-point back-ends
    /// override it with the vector pass [`simd::parity_verdicts`].
    ///
    /// # Panics
    ///
    /// Panics if `app.len() != compiled.n() · width` or `failed.len() !=
    /// width`.
    fn parity_verdicts(
        &self,
        compiled: &CompiledCode,
        width: usize,
        app: &[Self::Msg],
        failed: &mut [u8],
    ) {
        assert_eq!(
            app.len(),
            compiled.n() * width,
            "APP memory of another shape"
        );
        assert_eq!(failed.len(), width, "one verdict per frame");
        parity_verdicts_by(compiled, width, app, failed, |m| self.hard_bit(m));
    }

    /// Check-node update (Eq. 1 of the paper for BP): given the incoming
    /// variable-to-check messages `λ_mj` of one check row, computes the
    /// outgoing check-to-variable messages `Λ_mn` for every position.
    ///
    /// `out` is cleared and filled with `lambdas.len()` messages.
    fn check_node_update(&self, lambdas: &[Self::Msg], out: &mut Vec<Self::Msg>);

    /// Short human-readable name used in reports ("full-BP fixed 8-bit", …).
    fn name(&self) -> &'static str;
}

/// [`DecoderArithmetic::parity_verdicts`] with `bit` as the hard decision:
/// per layer, the rows' parities are XORed into a stack panel of up to 256
/// lanes, each block column read as its two stride-1 rotated spans, then
/// folded into the verdicts of their frames (lane `i` belongs to frame
/// `i mod width`). Stops after the first layer by which every frame has
/// failed. The scalar form of every parity pass.
pub(crate) fn parity_verdicts_by<M: Copy>(
    compiled: &CompiledCode,
    width: usize,
    app: &[M],
    failed: &mut [u8],
    bit: impl Fn(M) -> u8,
) {
    /// Lanes per stack parity panel.
    const PANEL: usize = 256;
    let zw = compiled.z() * width;
    failed.fill(0);
    let mut panel = [0u8; PANEL];
    for layer in 0..compiled.block_rows() {
        let lanes = compiled.layer_lanes(layer);
        for start in (0..zw).step_by(PANEL) {
            let parity = &mut panel[..PANEL.min(zw - start)];
            parity.fill(0);
            for (&col, &shift) in lanes.col_base.iter().zip(lanes.shift) {
                // Lane `i` reads `block[(i + shift · width) mod zw]`.
                let block = &app[col as usize * width..][..zw];
                let first = (start + shift as usize * width) % zw;
                let (head, tail) = parity.split_at_mut(parity.len().min(zw - first));
                for (p, &m) in head.iter_mut().zip(&block[first..]) {
                    *p ^= bit(m);
                }
                for (p, &m) in tail.iter_mut().zip(block) {
                    *p ^= bit(m);
                }
            }
            let mut frame = start % width;
            for &p in parity.iter() {
                failed[frame] |= p;
                frame = if frame + 1 == width { 0 } else { frame + 1 };
            }
        }
        if failed.iter().all(|&f| f != 0) {
            return;
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::DecoderArithmetic;

    /// Exhaustive sanity checks every arithmetic back-end must satisfy.
    pub(crate) fn check_basic_axioms<A: DecoderArithmetic>(arith: &A) {
        let a = arith.from_channel(3.0);
        let b = arith.from_channel(-1.5);
        let zero = arith.zero();
        // Additive identity and hard decisions.
        assert_eq!(arith.add(a, zero), a);
        assert_eq!(arith.sub(a, zero), a);
        assert_eq!(arith.hard_bit(a), 0);
        assert_eq!(arith.hard_bit(b), 1);
        assert!(arith.magnitude(a) > 0.0);
        // add/sub are inverses for in-range values.
        let sum = arith.add(a, b);
        let back = arith.sub(sum, b);
        assert!((arith.to_llr(back) - arith.to_llr(a)).abs() < 0.26);
        // Check-node update preserves arity and is sign-correct for a
        // two-message row: each output equals the *other* input.
        let mut out = Vec::new();
        arith.check_node_update(&[a, b], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(arith.hard_bit(out[0]), arith.hard_bit(b));
        assert_eq!(arith.hard_bit(out[1]), arith.hard_bit(a));
        // The message-domain threshold test agrees with the LLR-domain one.
        for threshold in [0.0, 1.0, 2.9, 3.0, 3.1] {
            let t = arith.termination_threshold(threshold);
            for m in [a, b, zero, sum] {
                assert_eq!(arith.exceeds(m, t), arith.magnitude(m) > threshold);
            }
        }
        // The slice conversion matches the element conversion.
        let llrs = [3.0, -1.5, 0.0, -0.0, 0.01, -40.0, f64::NAN];
        let mut slice = vec![zero; llrs.len()];
        arith.from_channel_slice(&llrs, &mut slice);
        for (&l, &m) in llrs.iter().zip(&slice) {
            // Debug formatting compares NaN messages equal.
            assert_eq!(
                format!("{m:?}"),
                format!("{:?}", arith.from_channel(l)),
                "{l}"
            );
        }
    }
}
