//! Min-Sum baseline arithmetic.
//!
//! The paper explicitly chooses *not* to use the "sub-optimal Min-Sum
//! algorithm" and instead implements full BP with the ⊞/⊟ recursions. To make
//! that comparison reproducible, this module implements the standard layered
//! normalized Min-Sum check-node update (the algorithm used, e.g., by the
//! WiMax decoder of reference [3]):
//!
//! ```text
//! Λ_mn = α · Π_{j≠n} sign(λ_mj) · min_{j≠n} |λ_mj|
//! ```
//!
//! with normalization factor `α` (default 0.75, realised as `x − x/4` in
//! hardware).

use super::lanes::{LaneKernel, LaneScratch};
use super::simd::{self, SimdLevel};
use super::DecoderArithmetic;
use crate::boxplus::FLOAT_CLAMP;
use crate::fixedpoint::FixedFormat;
use ldpc_codes::CompiledCode;

/// Computes, for each position, the minimum magnitude of the *other* entries
/// and the product of the *other* signs, using the two-minima trick.
fn min_sum_core<T, FAbs, FNeg>(lambdas: &[T], abs: FAbs, is_neg: FNeg) -> (Vec<(f64, bool)>, usize)
where
    T: Copy,
    FAbs: Fn(T) -> f64,
    FNeg: Fn(T) -> bool,
{
    let mut min1 = f64::INFINITY;
    let mut min2 = f64::INFINITY;
    let mut argmin = 0usize;
    let mut neg_parity = false;
    for (i, &l) in lambdas.iter().enumerate() {
        let a = abs(l);
        if a < min1 {
            min2 = min1;
            min1 = a;
            argmin = i;
        } else if a < min2 {
            min2 = a;
        }
        if is_neg(l) {
            neg_parity = !neg_parity;
        }
    }
    let out = lambdas
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            let magnitude = if i == argmin { min2 } else { min1 };
            let sign_neg = neg_parity ^ is_neg(l);
            (magnitude, sign_neg)
        })
        .collect();
    (out, argmin)
}

/// Floating-point normalized Min-Sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatMinSumArithmetic {
    alpha: f64,
    clamp: f64,
    app_clamp: f64,
}

impl Default for FloatMinSumArithmetic {
    /// Normalization factor 0.75, the common hardware choice.
    fn default() -> Self {
        FloatMinSumArithmetic {
            alpha: 0.75,
            clamp: FLOAT_CLAMP,
            app_clamp: 4.0 * FLOAT_CLAMP,
        }
    }
}

impl FloatMinSumArithmetic {
    /// Creates a normalized Min-Sum arithmetic with scaling factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha ≤ 1`.
    #[must_use]
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        FloatMinSumArithmetic {
            alpha,
            clamp: FLOAT_CLAMP,
            app_clamp: 4.0 * FLOAT_CLAMP,
        }
    }

    /// The normalization factor α.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl DecoderArithmetic for FloatMinSumArithmetic {
    type Msg = f64;

    fn from_channel(&self, llr: f64) -> f64 {
        llr.clamp(-self.clamp, self.clamp)
    }

    fn to_llr(&self, m: f64) -> f64 {
        m
    }

    fn termination_threshold(&self, threshold: f64) -> f64 {
        threshold
    }

    fn exceeds(&self, m: f64, t: f64) -> bool {
        m.abs() > t || m.is_nan()
    }

    fn zero(&self) -> f64 {
        0.0
    }

    fn add(&self, a: f64, b: f64) -> f64 {
        (a + b).clamp(-self.app_clamp, self.app_clamp)
    }

    fn sub(&self, a: f64, b: f64) -> f64 {
        (a - b).clamp(-self.clamp, self.clamp)
    }

    fn check_node_update(&self, lambdas: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if lambdas.is_empty() {
            return;
        }
        let (core, _) = min_sum_core(lambdas, f64::abs, |x| x < 0.0);
        out.extend(core.into_iter().map(|(mag, neg)| {
            let v = (self.alpha * mag).min(self.clamp);
            if neg {
                -v
            } else {
                v
            }
        }));
    }

    fn name(&self) -> &'static str {
        "normalized Min-Sum float64"
    }
}

/// Scalar-fallback lane kernels (the float baseline stays unchanged).
impl LaneKernel for FloatMinSumArithmetic {}

/// Fixed-point normalized Min-Sum (the hardware baseline the paper compares
/// against, e.g. reference \[3\]). The normalization `α = 0.75` is realised as
/// `x − (x >> 2)`, exactly as a shift-and-subtract datapath would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedMinSumArithmetic {
    format: FixedFormat,
    /// Wider a-posteriori format (2 extra integer bits), see
    /// [`FixedBpArithmetic`](super::FixedBpArithmetic).
    app_format: FixedFormat,
    /// Kernel-tier pin for the panel kernels: `None` follows the
    /// process-wide [`simd::active_level`]. Outputs are identical either
    /// way.
    simd: Option<SimdLevel>,
}

impl Default for FixedMinSumArithmetic {
    fn default() -> Self {
        FixedMinSumArithmetic::new(FixedFormat::default())
    }
}

impl FixedMinSumArithmetic {
    /// Creates the arithmetic for a given message format.
    ///
    /// # Panics
    ///
    /// Panics if `format` is wider than
    /// [`MAX_MESSAGE_BITS`](crate::fixedpoint::MAX_MESSAGE_BITS) (14) bits:
    /// the decoder carries messages and the two-bit-wider APP values in
    /// `i16` panels.
    #[must_use]
    pub fn new(format: FixedFormat) -> Self {
        FixedMinSumArithmetic {
            format,
            app_format: super::fixed_bp::app_format_for(format),
            simd: None,
        }
    }

    /// Pins this instance's panel kernels to an explicit SIMD tier (clamped
    /// to the detected CPU capability) instead of the process-wide
    /// [`simd::active_level`]. Decode outputs are bit-identical across
    /// tiers; this exists for A/B benchmarking and the bit-identity sweeps.
    #[must_use]
    pub fn with_simd_level(mut self, level: SimdLevel) -> Self {
        self.simd = Some(level);
        self
    }

    /// The kernel tier this instance's panel kernels dispatch to.
    #[must_use]
    pub fn simd_level(&self) -> SimdLevel {
        self.simd.unwrap_or_else(simd::active_level)
    }

    /// The check-message format.
    #[must_use]
    pub fn format(&self) -> FixedFormat {
        self.format
    }

    /// The (wider) a-posteriori memory format.
    #[must_use]
    pub fn app_format(&self) -> FixedFormat {
        self.app_format
    }

    fn normalize(&self, magnitude: i32) -> i32 {
        // α = 0.75 as shift-and-subtract. The panel kernels inline this
        // exact formula (`simd::min_sum_emit` and its vector twins); keep
        // them in lock-step if the normalisation ever changes.
        magnitude - (magnitude >> 2)
    }
}

impl DecoderArithmetic for FixedMinSumArithmetic {
    type Msg = i16;

    fn from_channel(&self, llr: f64) -> i16 {
        self.format.quantize(llr) as i16
    }

    /// One kernel-tier quantisation pass, bit-identical to
    /// [`DecoderArithmetic::from_channel`] per element.
    fn from_channel_slice(&self, llrs: &[f64], out: &mut [i16]) -> bool {
        let max = self.format.max_code() as i16;
        simd::quantize_codes(
            self.simd_level(),
            self.format.scale(),
            max,
            false,
            llrs,
            out,
        )
    }

    fn to_llr(&self, m: i16) -> f64 {
        self.format.dequantize(i32::from(m))
    }

    fn zero(&self) -> i16 {
        0
    }

    fn add(&self, a: i16, b: i16) -> i16 {
        self.app_format.add(i32::from(a), i32::from(b)) as i16
    }

    fn sub(&self, a: i16, b: i16) -> i16 {
        self.format.sub(i32::from(a), i32::from(b)) as i16
    }

    fn hard_bit(&self, m: i16) -> u8 {
        u8::from(m < 0)
    }

    fn termination_threshold(&self, threshold: f64) -> i16 {
        self.format.threshold_code(threshold)
    }

    fn exceeds(&self, m: i16, t: i16) -> bool {
        m.saturating_abs() > t
    }

    /// One vector parity pass per group at the instance's kernel tier.
    fn parity_verdicts(
        &self,
        compiled: &CompiledCode,
        width: usize,
        app: &[i16],
        failed: &mut [u8],
    ) {
        simd::parity_verdicts(self.simd_level(), compiled, width, app, failed);
    }

    fn check_node_update(&self, lambdas: &[i16], out: &mut Vec<i16>) {
        out.clear();
        if lambdas.is_empty() {
            return;
        }
        let (core, _) = min_sum_core(lambdas, |x: i16| f64::from(x).abs(), |x| x < 0);
        out.extend(core.into_iter().map(|(mag, neg)| {
            let mag = self.normalize(self.format.saturate(mag as i64)) as i16;
            if neg {
                -mag
            } else {
                mag
            }
        }));
    }

    fn name(&self) -> &'static str {
        "normalized Min-Sum fixed 8-bit"
    }
}

/// Hand-written lane kernel for the fixed-point Min-Sum datapath: the
/// two-minima trick tracked per lane in four `i16` scratch lanes
/// (min1/min2/argmin-slot/sign-parity), every inner loop a stride-1 sweep of
/// the `z` lanes (the frame-major engine passes `z · F` lanes per panel).
/// The minima updates are written in *select* form — `min`/conditional moves
/// instead of the scalar path's `if a < m1 { … } else if a < m2 { … }`
/// branches, which mispredict heavily on noisy messages — so the whole sweep
/// is branch-free and vectorises. Bit-identical to the scalar `min_sum_core`
/// path — the magnitudes are small non-negative integers, on which the scalar
/// path's `f64` comparisons are exact, and the `i16::MAX` sentinel saturates
/// to `max_code` exactly as the scalar path's `f64::INFINITY` does — while
/// allocating nothing (the scalar path builds a transient row `Vec` per
/// check row).
impl LaneKernel for FixedMinSumArithmetic {
    fn prefers_frame_groups(&self) -> bool {
        true
    }

    /// `λ = L − Λ` over a panel in `i16`: the subtraction saturates (a
    /// 16-bit APP code minus a message can leave `i16`) before the clamp to
    /// the message range, which reproduces the scalar path's widened
    /// saturate — dispatched to the instance's kernel tier.
    fn sub_lanes(&self, app: &[i16], lambda: &[i16], out: &mut [i16]) {
        let hi = self.format.max_code() as i16;
        simd::sub_lanes_clamp(self.simd_level(), -hi, hi, app, lambda, out);
    }

    /// `L = λ + Λ′` over a panel (saturating add, clamped to the APP range).
    fn add_lanes(&self, lam: &[i16], upd: &[i16], out: &mut [i16]) {
        let hi = self.app_format.max_code() as i16;
        simd::add_lanes_clamp(self.simd_level(), -hi, hi, lam, upd, out);
    }

    fn check_node_update_lanes(
        &self,
        z: usize,
        lanes_in: &[i16],
        lanes_out: &mut [i16],
        scratch: &mut LaneScratch<i16>,
    ) {
        debug_assert_eq!(lanes_in.len(), lanes_out.len());
        debug_assert!(z > 0 && lanes_in.len().is_multiple_of(z));
        let degree = lanes_in.len() / z;
        if degree == 0 {
            return;
        }
        let level = self.simd_level();
        let buf = scratch.lanes_mut(4 * z, 0);
        let (min1, rest) = buf.split_at_mut(z);
        let (min2, rest) = rest.split_at_mut(z);
        let (argmin, parity) = rest.split_at_mut(z);
        min1.fill(i16::MAX);
        min2.fill(i16::MAX);
        argmin.fill(0);
        parity.fill(0);
        // Select form of: if a < m1 { m2 = m1; m1 = a; am = slot }
        // else if a < m2 { m2 = a } — same first-wins tie semantics
        // (a == m1 keeps the earlier argmin), no branches; one
        // tier-dispatched panel sweep per slot.
        for (slot, inc) in lanes_in.chunks_exact(z).enumerate() {
            simd::min_sum_track(level, slot as i16, inc, min1, min2, argmin, parity);
        }
        // Output pass: second minimum at the argmin, first elsewhere. The
        // magnitudes are non-negative (abs codes or the MAX sentinel), so
        // the scalar path's i64 saturate reduces to a min, and the α = 0.75
        // normalisation is the hardware shift-and-subtract.
        for (slot, (out, inc)) in lanes_out
            .chunks_exact_mut(z)
            .zip(lanes_in.chunks_exact(z))
            .enumerate()
        {
            simd::min_sum_emit(
                level,
                slot as i16,
                self.format.max_code() as i16,
                inc,
                min1,
                min2,
                argmin,
                parity,
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::test_support::check_basic_axioms;

    #[test]
    fn float_min_sum_satisfies_axioms() {
        check_basic_axioms(&FloatMinSumArithmetic::default());
    }

    #[test]
    fn fixed_min_sum_satisfies_axioms() {
        check_basic_axioms(&FixedMinSumArithmetic::default());
    }

    #[test]
    fn min_sum_uses_second_minimum_at_the_argmin() {
        let arith = FloatMinSumArithmetic::with_alpha(1.0);
        let lambdas = [5.0, -1.0, 3.0, 4.0];
        let mut out = Vec::new();
        arith.check_node_update(&lambdas, &mut out);
        // argmin is position 1 (|−1| = 1): its output uses min2 = 3.
        assert!((out[1].abs() - 3.0).abs() < 1e-12);
        // every other output uses min1 = 1.
        for (i, &v) in out.iter().enumerate() {
            if i != 1 {
                assert!((v.abs() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn min_sum_sign_is_product_of_other_signs() {
        let arith = FloatMinSumArithmetic::default();
        let lambdas = [2.0, -3.0, -4.0, 5.0];
        let mut out = Vec::new();
        arith.check_node_update(&lambdas, &mut out);
        // Signs of others: pos0: (-)(-)(+) = +, pos1: (+)(-)(+) = -, etc.
        assert!(out[0] > 0.0);
        assert!(out[1] < 0.0);
        assert!(out[2] < 0.0);
        assert!(out[3] > 0.0);
    }

    #[test]
    fn normalization_shrinks_magnitudes() {
        let plain = FloatMinSumArithmetic::with_alpha(1.0);
        let scaled = FloatMinSumArithmetic::default();
        assert!((scaled.alpha() - 0.75).abs() < 1e-12);
        let lambdas = [4.0, 8.0, -6.0];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plain.check_node_update(&lambdas, &mut a);
        scaled.check_node_update(&lambdas, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((y.abs() - 0.75 * x.abs()).abs() < 1e-12);
        }
    }

    #[test]
    fn fixed_normalization_is_shift_and_subtract() {
        let arith = FixedMinSumArithmetic::default();
        assert_eq!(arith.normalize(8), 6);
        assert_eq!(arith.normalize(7), 6); // 7 - 1
        assert_eq!(arith.normalize(4), 3);
        assert_eq!(arith.normalize(0), 0);
    }

    #[test]
    fn min_sum_overestimates_bp() {
        // Min-Sum (α = 1) magnitudes upper-bound the exact BP magnitudes: this
        // is precisely why normalization is needed and why BP outperforms it.
        use crate::arith::FloatBpArithmetic;
        let ms = FloatMinSumArithmetic::with_alpha(1.0);
        let bp = FloatBpArithmetic::default();
        let lambdas = [1.5, -2.0, 3.0, 0.8, -4.2];
        let (mut out_ms, mut out_bp) = (Vec::new(), Vec::new());
        ms.check_node_update(&lambdas, &mut out_ms);
        bp.check_node_update(&lambdas, &mut out_bp);
        for (m, b) in out_ms.iter().zip(&out_bp) {
            assert_eq!(m.is_sign_negative(), b.is_sign_negative());
            assert!(m.abs() >= b.abs() - 1e-9, "min-sum {m} vs bp {b}");
        }
    }

    #[test]
    fn fixed_min_sum_lane_kernel_matches_scalar_rows() {
        // Includes ties in magnitude (the argmin must keep first-wins
        // semantics) and saturated codes.
        let msg = |i: usize| {
            let v = ((i as i16 * 29) % 255) - 127;
            if i.is_multiple_of(11) {
                v.signum().max(1) * 127
            } else {
                v
            }
        };
        let arith = FixedMinSumArithmetic::default();
        for (z, degree) in [(1usize, 4usize), (3, 1), (27, 2), (96, 7), (24, 20)] {
            crate::arith::lanes::test_support::check_lane_axioms(&arith, z, degree, msg);
        }
        // All-equal magnitudes: every position is a tie.
        crate::arith::lanes::test_support::check_lane_axioms(&arith, 8, 5, |i| {
            if i % 2 == 0 {
                12
            } else {
                -12
            }
        });
    }

    #[test]
    #[should_panic(expected = "wider than 14 bits")]
    fn fixed_min_sum_rejects_message_formats_wider_than_14_bits() {
        let _ = FixedMinSumArithmetic::new(FixedFormat::new(16, 2));
    }

    #[test]
    fn float_min_sum_lane_fallback_matches_scalar_rows() {
        let arith = FloatMinSumArithmetic::default();
        crate::arith::lanes::test_support::check_lane_axioms(&arith, 27, 7, |i| {
            ((i * 41 % 19) as f64 - 9.0) * 0.6 + 0.3
        });
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = FloatMinSumArithmetic::with_alpha(0.0);
    }

    #[test]
    fn fixed_min_sum_matches_float_min_sum_on_exact_codes() {
        let fx = FixedMinSumArithmetic::default();
        let fmt = fx.format();
        let fl = FloatMinSumArithmetic::default();
        let row_f = [2.0, -3.0, 1.0, 4.0];
        let row_c: Vec<i16> = row_f.iter().map(|&x| fmt.quantize(x) as i16).collect();
        let (mut out_c, mut out_f) = (Vec::new(), Vec::new());
        fx.check_node_update(&row_c, &mut out_c);
        fl.check_node_update(&row_f, &mut out_f);
        for (c, f) in out_c.iter().zip(&out_f) {
            // α = 0.75 on exact multiples of 0.25 stays exact unless the
            // shift-and-subtract rounding differs by one LSB.
            assert!((fmt.dequantize(i32::from(*c)) - f).abs() <= 0.25 + 1e-12);
        }
    }
}
