//! Bit-accurate fixed-point full-BP arithmetic (the ASIC datapath).
//!
//! Messages are 8-bit two's-complement codes (Fig. 3) and the non-linear
//! correction terms of Eq. (2) come from 3-bit lookup tables. This back-end is
//! the bit-accurate software model of the hardware SISO datapath: the R2/R4
//! SISO decoder models in [`crate::siso`] produce identical messages. The
//! codes travel through the decoder as `i16` (messages of up to 14 bits, the
//! APP memory two bits wider), 16 lanes per AVX2 operation; the fused layer
//! pass runs the 8-bit check node itself in `i8` lanes, 32 per operation.

use super::lanes::{layer_update_unfused, LaneKernel, LaneScratch};
use super::simd::{self, SimdLevel};
use super::DecoderArithmetic;
use crate::fixedpoint::{FixedFormat, MAX_MESSAGE_BITS};
use crate::lut::{CorrectionKind, CorrectionLut};
use ldpc_codes::{CompiledCode, LaneLayer};

/// How the fixed-point check-node update extracts the extrinsic messages.
///
/// The paper's SISO datapath (Fig. 3) forms the total row sum `S_m` with the
/// `f(·)` recursion and then *extracts* each extrinsic message with the `g(·)`
/// unit, `Λ_mn = S_m ⊟ λ_mn` (Eq. 1). At the 8-bit / 3-bit-LUT operating
/// point that extraction fails for exactly one edge per row: the weakest
/// one. Its exact extrinsic message is at least the row's second minimum,
/// but `S_m ⊟ λ_min` has to recover it from the small difference
/// `|λ_min| − |S_m|`, which the coarse quantisation destroys; it comes back
/// near `|λ_min|`, so the least reliable bit is told that it is the least
/// reliable and stays wrong. The default mode therefore keeps a second
/// running sum in the same `f(·)` pass — the ⊞ of every edge except the
/// current argmin — and hands that to the weakest edge (one more `f(·)`
/// unit, a magnitude compare and an index register per SISO). That datapath
/// decodes as well as the forward/backward recursion at the same 8-bit
/// precision; bare ⊟ extraction is kept only as the ablation row that shows
/// the failure (`ablation_fixedpoint`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckNodeMode {
    /// The paper's ⊟ extraction with argmin exclusion (the default). While
    /// folding slot `s`, a strictly weaker `|λ_s|` than the running minimum
    /// sets `S' ← S` and `argmin ← s`; otherwise `S' ← S' ⊞ λ_s`; either
    /// way `S ← S ⊞ λ_s` (ties keep the first argmin). Output:
    /// `Λ_argmin = S'`, `Λ_n = S ⊟ λ_n` elsewhere; a degree-1 row outputs
    /// the saturated positive code.
    #[default]
    SumExtractArgmin,
    /// Bare Fig. 3: total ⊞ sum followed by ⊟ extraction of every edge.
    /// **Fails at 8 bits** (FER ≈ 0.97 on WiMAX-2304 at 2/4/6 dB, where the
    /// default mode reaches ≈ 0.01); kept only as an ablation row.
    SumExtract,
    /// Forward/backward partial ⊞ sums (no ⊟). Same message format; needs a
    /// second `f(·)` unit instead of the `g(·)` unit and a reversing buffer
    /// in hardware.
    ForwardBackward,
}

/// Full-BP check-node arithmetic on fixed-point codes with LUT corrections.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedBpArithmetic {
    format: FixedFormat,
    /// The a-posteriori (L) memory format: two extra integer bits of headroom
    /// over the message datapath, so that `λ = L − Λ` never collapses when
    /// both would otherwise saturate at the same level.
    app_format: FixedFormat,
    mode: CheckNodeMode,
    lut_plus: CorrectionLut,
    lut_minus: CorrectionLut,
    /// Kernel-tier pin for the panel kernels: `None` follows the
    /// process-wide [`simd::active_level`]; `Some` forces a tier for this
    /// instance (A/B benches, bit-identity sweeps). Outputs are identical
    /// either way.
    simd: Option<SimdLevel>,
}

impl Default for FixedBpArithmetic {
    /// The paper's datapath: 8-bit messages, 3-bit correction LUTs, ⊟
    /// extraction with argmin exclusion.
    fn default() -> Self {
        FixedBpArithmetic::new(FixedFormat::default(), 3)
    }
}

impl FixedBpArithmetic {
    /// Creates the arithmetic for an arbitrary message format and LUT size,
    /// using the default ([`CheckNodeMode::SumExtractArgmin`]) check-node
    /// mode.
    #[must_use]
    pub fn new(format: FixedFormat, lut_address_bits: u32) -> Self {
        Self::with_mode(format, lut_address_bits, CheckNodeMode::default())
    }

    /// Creates the arithmetic with an explicit check-node mode.
    ///
    /// # Panics
    ///
    /// Panics if `format` is wider than [`MAX_MESSAGE_BITS`] (14) bits — the
    /// decoder carries messages and the two-bit-wider APP values in `i16`
    /// panels — or if a correction table has an entry outside `i16` (only
    /// reachable with 13 fractional bits and 7+ address bits). Panics as
    /// [`CorrectionLut::new`] does for a bad `lut_address_bits`.
    #[must_use]
    pub fn with_mode(format: FixedFormat, lut_address_bits: u32, mode: CheckNodeMode) -> Self {
        let app_format = app_format_for(format);
        let lut_plus = CorrectionLut::new(CorrectionKind::Plus, format, lut_address_bits);
        let lut_minus = CorrectionLut::new(CorrectionKind::Minus, format, lut_address_bits);
        assert!(
            !lut_plus.dense_table().is_empty() && !lut_minus.dense_table().is_empty(),
            "{format} with {lut_address_bits}-bit LUTs has corrections outside i16"
        );
        FixedBpArithmetic {
            format,
            app_format,
            mode,
            lut_plus,
            lut_minus,
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

    /// The 8-bit datapath with the forward/backward check-node mode.
    #[must_use]
    pub fn forward_backward() -> Self {
        Self::with_mode(FixedFormat::default(), 3, CheckNodeMode::ForwardBackward)
    }

    /// The configured check-node mode.
    #[must_use]
    pub fn mode(&self) -> CheckNodeMode {
        self.mode
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

    /// The `f(·)` LUT (`log(1+e^{-x})`).
    #[must_use]
    pub fn lut_plus(&self) -> &CorrectionLut {
        &self.lut_plus
    }

    /// The `g(·)` LUT (`−log(1−e^{-x})`).
    #[must_use]
    pub fn lut_minus(&self) -> &CorrectionLut {
        &self.lut_minus
    }

    /// Hardware ⊞: `f(a, b)` on codes, Eq. (2) with LUT corrections.
    ///
    /// The magnitude is floored at one LSB: the SISO datapath is
    /// sign-magnitude, so the recursion always carries a valid sign even when
    /// the magnitude rounds to zero. Without this floor a single low-magnitude
    /// message would erase the whole check row (the ⊞ identity-absorbing
    /// property of an exact zero), which exact-arithmetic decoders never hit.
    #[must_use]
    pub fn boxplus_codes(&self, a: i32, b: i32) -> i32 {
        let sign_negative = (a < 0) ^ (b < 0);
        let (aa, ab) = (a.abs(), b.abs());
        let min = aa.min(ab);
        let sum = self.format.saturate(aa as i64 + ab as i64);
        let diff = (aa - ab).abs();
        let magnitude = min + self.lut_plus.lookup(sum) - self.lut_plus.lookup(diff);
        let magnitude = magnitude.max(1);
        let value = if sign_negative { -magnitude } else { magnitude };
        self.format.saturate(value as i64)
    }

    /// Hardware ⊟: `g(a, b)` on codes, Eq. (2) with LUT corrections.
    #[must_use]
    pub fn boxminus_codes(&self, a: i32, b: i32) -> i32 {
        let sign_negative = (a < 0) ^ (b < 0);
        let (aa, ab) = (a.abs(), b.abs());
        let min = aa.min(ab);
        let sum = self.format.saturate(aa as i64 + ab as i64);
        let diff = (aa - ab).abs();
        // g adds the (large) correction of the small difference and removes
        // the (small) correction of the sum; the result saturates upwards.
        let magnitude = min - self.lut_minus.lookup(sum) + self.lut_minus.lookup(diff);
        let magnitude = magnitude.max(0);
        let value = if sign_negative { -magnitude } else { magnitude };
        self.format.saturate(value as i64)
    }
}

/// The APP format of a message format (two extra integer bits), after
/// checking the message format fits the `i16` panels.
pub(super) fn app_format_for(format: FixedFormat) -> FixedFormat {
    assert!(
        format.word_bits() <= MAX_MESSAGE_BITS,
        "message format {format} is wider than {MAX_MESSAGE_BITS} bits (the decoder's i16 panels)"
    );
    FixedFormat::new(format.word_bits() + 2, format.frac_bits())
}

impl DecoderArithmetic for FixedBpArithmetic {
    type Msg = i16;

    /// Channel LLRs are quantised to the message format; the all-zero code is
    /// remapped to ±1 LSB so the sign survives (sign-magnitude datapath — an
    /// exact zero would otherwise erase its check rows in the ⊞ recursion).
    fn from_channel(&self, llr: f64) -> i16 {
        let q = self.format.quantize(llr);
        if q != 0 {
            q as i16
        } else if llr < 0.0 {
            -1
        } else {
            1
        }
    }

    /// One kernel-tier quantisation pass, bit-identical to
    /// [`DecoderArithmetic::from_channel`] per element.
    fn from_channel_slice(&self, llrs: &[f64], out: &mut [i16]) -> bool {
        let max = self.format.max_code() as i16;
        simd::quantize_codes(self.simd_level(), self.format.scale(), max, true, llrs, out)
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

    /// `λ = L − Λ`, saturated to the message format, with the zero code
    /// remapped to ±1 LSB (sign of the unsaturated difference, or of `L` when
    /// the difference is exactly zero).
    fn sub(&self, a: i16, b: i16) -> i16 {
        let (a, b) = (i32::from(a), i32::from(b));
        let r = self.format.sub(a, b);
        if r != 0 {
            return r as i16;
        }
        let raw = a - b;
        if raw < 0 || (raw == 0 && a < 0) {
            -1
        } else {
            1
        }
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
        let plus = |a: i32, b: i16| self.boxplus_codes(a, i32::from(b));
        match self.mode {
            CheckNodeMode::SumExtractArgmin => {
                if lambdas.len() == 1 {
                    out.push(self.format.max_code() as i16);
                    return;
                }
                // One f(·) pass carries S (every edge) and S' (every edge
                // but the weakest so far) …
                let mut total = i32::from(lambdas[0]);
                let (mut excluded, mut min, mut argmin) = (0, lambdas[0].unsigned_abs(), 0);
                for (slot, &l) in lambdas.iter().enumerate().skip(1) {
                    if l.unsigned_abs() < min {
                        (excluded, min, argmin) = (total, l.unsigned_abs(), slot);
                    } else if slot == 1 {
                        excluded = i32::from(l);
                    } else {
                        excluded = plus(excluded, l);
                    }
                    total = plus(total, l);
                }
                // … the weakest edge gets S', every other edge S ⊟ λ.
                out.extend(lambdas.iter().enumerate().map(|(slot, &l)| {
                    if slot == argmin {
                        excluded as i16
                    } else {
                        self.boxminus_codes(total, i32::from(l)) as i16
                    }
                }));
            }
            CheckNodeMode::SumExtract => {
                // Serial f(·) recursion to form S_m …
                let total = lambdas[1..]
                    .iter()
                    .fold(i32::from(lambdas[0]), |t, &l| plus(t, l));
                // … then g(·) extraction of each Λ_mn (Eq. 1).
                out.extend(
                    lambdas
                        .iter()
                        .map(|&l| self.boxminus_codes(total, i32::from(l)) as i16),
                );
            }
            CheckNodeMode::ForwardBackward => {
                let d = lambdas.len();
                if d == 1 {
                    out.push(self.format.max_code() as i16);
                    return;
                }
                let mut fwd = vec![0i32; d];
                let mut bwd = vec![0i32; d];
                fwd[0] = i32::from(lambdas[0]);
                for i in 1..d {
                    fwd[i] = plus(fwd[i - 1], lambdas[i]);
                }
                bwd[d - 1] = i32::from(lambdas[d - 1]);
                for i in (0..d - 1).rev() {
                    bwd[i] = plus(bwd[i + 1], lambdas[i]);
                }
                for i in 0..d {
                    let m = if i == 0 {
                        bwd[1]
                    } else if i == d - 1 {
                        fwd[d - 2]
                    } else {
                        self.boxplus_codes(fwd[i - 1], bwd[i + 1])
                    };
                    out.push(m as i16);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.mode {
            CheckNodeMode::SumExtractArgmin => {
                "full-BP fixed 8-bit (3-bit LUT, ⊟ extraction, argmin excluded)"
            }
            CheckNodeMode::SumExtract => "full-BP fixed 8-bit (3-bit LUT, bare ⊟ extraction)",
            CheckNodeMode::ForwardBackward => "full-BP fixed 8-bit (3-bit LUT, fwd/bwd)",
        }
    }
}

/// Hand-written lane kernels for the fixed-point BP datapath.
///
/// Every check-node mode runs the *same recursion in the same order* as the
/// scalar [`DecoderArithmetic::check_node_update`], but with the slot loop
/// outside and the lane loop inside, so every inner loop is a stride-1 sweep
/// of independent `i16` codes (one per SISO lane; the frame-major engine
/// passes `z · F` lanes per panel). Each ⊞/⊟ step over a panel is one
/// [`simd::boxplus_panel`] / [`simd::boxminus_panel`] call (for the
/// argmin-excluded mode, one [`simd::boxplus_dual_panel`] per slot for the
/// two running sums and one [`simd::boxminus_select_panel`] per slot for
/// the extraction), dispatched to
/// the instance's kernel tier ([`FixedBpArithmetic::simd_level`]): on the
/// SIMD tiers, when the correction table fits 16 bytes (the paper's 3-bit
/// tables do), the whole operator runs as a single fused register-resident
/// pass with `pshufb` LUT lookups; otherwise it runs three branch-free
/// passes — magnitude decomposition, the clamped-index [`CorrectionLut`]
/// lookup and the sign/saturate combine — through the scratch panels. The
/// scalar operators ([`FixedBpArithmetic::boxplus_codes`]) remain the
/// bit-identity reference. Unlike the scalar forward/backward update, which
/// allocates two transient row buffers per check row, the lane kernel runs
/// entirely out of the caller's [`LaneScratch`].
impl LaneKernel for FixedBpArithmetic {
    fn prefers_frame_groups(&self) -> bool {
        true
    }

    /// `λ = L − Λ` over a panel in `i16`, with the zero code remapped to
    /// ±1 LSB in select form. A 16-bit APP code minus a 14-bit message can
    /// leave `i16`, so the subtraction saturates (never wraps) before the
    /// clamp to the message range; the result is zero only when the exact
    /// difference is zero — where the scalar rule falls back to the sign of
    /// `L`. Branch-free, bit-identical to [`DecoderArithmetic::sub`] per
    /// element; dispatched to the instance's kernel tier.
    fn sub_lanes(&self, app: &[i16], lambda: &[i16], out: &mut [i16]) {
        let hi = self.format.max_code() as i16;
        simd::sub_lanes_remap(self.simd_level(), -hi, hi, app, lambda, out);
    }

    /// `L = λ + Λ′` over a panel (clamped to the wider APP format),
    /// dispatched to the instance's kernel tier.
    fn add_lanes(&self, lam: &[i16], upd: &[i16], out: &mut [i16]) {
        let hi = self.app_format.max_code() as i16;
        simd::add_lanes_clamp(self.simd_level(), -hi, hi, lam, upd, out);
    }

    /// The argmin-excluded mode with both tables in `pshufb` form and
    /// messages of at most 8 bits (the paper's Q6.2 3-bit datapath) runs
    /// the whole layer as one fused pass, [`simd::layer_update_argmin`], at
    /// every kernel tier: L and Λ are read and written once per lane-edge,
    /// and on the SIMD tiers `λ` and the row state stay in registers, the
    /// check node in `i8` lanes. Every other mode and format, and layers of
    /// degree 1 or above [`simd::MAX_FUSED_DEGREE`], take the three-call
    /// body.
    fn layer_update_lanes(
        &self,
        layer: &LaneLayer<'_>,
        z: usize,
        width: usize,
        app: &mut [i16],
        lambda: &mut [i16],
        scratch: &mut LaneScratch<i16>,
    ) {
        let max_code = self.format.max_code() as i16;
        let fused = (2..=simd::MAX_FUSED_DEGREE).contains(&layer.degree());
        match (
            self.mode,
            self.lut_plus.shuffle_table(),
            self.lut_minus.shuffle_table(),
        ) {
            (CheckNodeMode::SumExtractArgmin, Some(plus), Some(minus))
                if fused && simd::fits_byte_lanes(max_code, plus, minus) =>
            {
                simd::layer_update_argmin(
                    self.simd_level(),
                    plus,
                    minus,
                    max_code,
                    self.app_format.max_code() as i16,
                    layer,
                    z,
                    width,
                    app,
                    lambda,
                );
            }
            _ => layer_update_unfused(self, layer, z, width, app, lambda, scratch),
        }
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
        let max_code = self.format.max_code() as i16;
        let level = self.simd_level();
        match self.mode {
            CheckNodeMode::SumExtractArgmin => {
                if degree == 1 {
                    lanes_out[..z].fill(max_code);
                    return;
                }
                // State panels S, S', |min|, argmin, then the three-pass
                // ⊞/⊟ scratch (unused by the fused tiers): 7 ≤ 2d + 3.
                let buf = scratch.lanes_mut(7 * z, 0);
                let (total, rest) = buf.split_at_mut(z);
                let (excl, rest) = rest.split_at_mut(z);
                let (min, rest) = rest.split_at_mut(z);
                let (argmin, rest) = rest.split_at_mut(z);
                let (mins, rest) = rest.split_at_mut(z);
                let (sums, diffs) = rest.split_at_mut(z);
                total.copy_from_slice(&lanes_in[..z]);
                for (slot, inc) in lanes_in.chunks_exact(z).enumerate().skip(1) {
                    simd::boxplus_dual_panel(
                        level,
                        &self.lut_plus,
                        max_code,
                        slot as i16,
                        inc,
                        total,
                        excl,
                        min,
                        argmin,
                        mins,
                        sums,
                        diffs,
                    );
                }
                for (slot, (out, inc)) in lanes_out
                    .chunks_exact_mut(z)
                    .zip(lanes_in.chunks_exact(z))
                    .enumerate()
                {
                    simd::boxminus_select_panel(
                        level,
                        &self.lut_minus,
                        max_code,
                        slot as i16,
                        total,
                        excl,
                        argmin,
                        inc,
                        out,
                        mins,
                        sums,
                        diffs,
                    );
                }
            }
            CheckNodeMode::SumExtract => {
                // Serial f(·) recursion across slots to form the lane of total
                // sums S_m — one ⊞ panel step per slot (fused on the SIMD
                // tiers for 16-byte tables, three branch-free passes
                // otherwise) …
                let buf = scratch.lanes_mut(4 * z, 0);
                let (total, rest) = buf.split_at_mut(z);
                let (mins, rest) = rest.split_at_mut(z);
                let (sums, diffs) = rest.split_at_mut(z);
                total.copy_from_slice(&lanes_in[..z]);
                for slot in 1..degree {
                    let inc = &lanes_in[slot * z..(slot + 1) * z];
                    simd::boxplus_assign_panel(
                        level,
                        &self.lut_plus,
                        max_code,
                        total,
                        inc,
                        mins,
                        sums,
                        diffs,
                    );
                }
                // … then the g(·) extraction of every slot (Eq. 1), same
                // panel shape through the ⊟ LUT.
                for (out, inc) in lanes_out.chunks_exact_mut(z).zip(lanes_in.chunks_exact(z)) {
                    simd::boxminus_panel(
                        level,
                        &self.lut_minus,
                        max_code,
                        total,
                        inc,
                        out,
                        mins,
                        sums,
                        diffs,
                    );
                }
            }
            CheckNodeMode::ForwardBackward => {
                if degree == 1 {
                    lanes_out[..z].fill(max_code);
                    return;
                }
                // fwd[s] = λ_0 ⊞ … ⊞ λ_s, bwd[s] = λ_s ⊞ … ⊞ λ_{d−1}, both
                // slot-major in the scratch; every ⊞ is one panel step.
                let buf = scratch.lanes_mut((2 * degree + 3) * z, 0);
                let (fwd, rest) = buf.split_at_mut(degree * z);
                let (bwd, rest) = rest.split_at_mut(degree * z);
                let (mins, rest) = rest.split_at_mut(z);
                let (sums, diffs) = rest.split_at_mut(z);
                fwd[..z].copy_from_slice(&lanes_in[..z]);
                for slot in 1..degree {
                    let (prev, cur) = fwd[(slot - 1) * z..(slot + 1) * z].split_at_mut(z);
                    let inc = &lanes_in[slot * z..(slot + 1) * z];
                    simd::boxplus_panel(
                        level,
                        &self.lut_plus,
                        max_code,
                        prev,
                        inc,
                        cur,
                        mins,
                        sums,
                        diffs,
                    );
                }
                bwd[(degree - 1) * z..].copy_from_slice(&lanes_in[(degree - 1) * z..]);
                for slot in (0..degree - 1).rev() {
                    let (cur, next) = bwd[slot * z..(slot + 2) * z].split_at_mut(z);
                    let inc = &lanes_in[slot * z..(slot + 1) * z];
                    simd::boxplus_panel(
                        level,
                        &self.lut_plus,
                        max_code,
                        next,
                        inc,
                        cur,
                        mins,
                        sums,
                        diffs,
                    );
                }
                for (slot, out) in lanes_out.chunks_exact_mut(z).enumerate() {
                    if slot == 0 {
                        out.copy_from_slice(&bwd[z..2 * z]);
                    } else if slot == degree - 1 {
                        out.copy_from_slice(&fwd[(degree - 2) * z..(degree - 1) * z]);
                    } else {
                        let f = &fwd[(slot - 1) * z..slot * z];
                        let b = &bwd[(slot + 1) * z..(slot + 2) * z];
                        simd::boxplus_panel(
                            level,
                            &self.lut_plus,
                            max_code,
                            f,
                            b,
                            out,
                            mins,
                            sums,
                            diffs,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::test_support::check_basic_axioms;
    use crate::arith::FloatBpArithmetic;

    #[test]
    fn satisfies_basic_axioms() {
        check_basic_axioms(&FixedBpArithmetic::default());
    }

    #[test]
    fn boxplus_codes_track_float_reference() {
        let fx = FixedBpArithmetic::default();
        let fmt = fx.format();
        let mut worst: f64 = 0.0;
        for a in (-40..=40).step_by(5) {
            for b in (-40..=40).step_by(7) {
                let exact = crate::boxplus::boxplus(fmt.dequantize(a), fmt.dequantize(b));
                let approx = fmt.dequantize(fx.boxplus_codes(a, b));
                worst = worst.max((exact - approx).abs());
            }
        }
        // Two 3-bit LUT lookups plus quantisation: below ~1 LLR unit of error.
        assert!(worst < 1.0, "worst-case boxplus error {worst}");
    }

    #[test]
    fn boxminus_approximately_inverts_boxplus() {
        // Recovery is only possible when the removed message does not dominate
        // the aggregate, i.e. |a| ≲ |b|; hardware saturation loses the rest.
        let fx = FixedBpArithmetic::default();
        for a in [-20, -12, -4, 6, 18] {
            for b in [-25, -21, 22, 27] {
                let s = fx.boxplus_codes(a, b);
                let recovered = fx.boxminus_codes(s, b);
                // Low-magnitude aggregates lose precision; allow a few LSBs.
                assert!(
                    (recovered - a).abs() <= 6,
                    "g(f({a},{b}),{b}) = {recovered}"
                );
            }
        }
    }

    #[test]
    fn zero_input_behaviour() {
        let fx = FixedBpArithmetic::default();
        // ⊞ with a (near-)zero message keeps only the sign: the magnitude is
        // floored at one LSB so the recursion never collapses to an exact
        // zero (which would erase the whole check row).
        for b in [1, 15, 20] {
            assert_eq!(fx.boxplus_codes(0, b), 1);
            assert_eq!(fx.boxplus_codes(0, -b), -1);
        }
        // The decoder never produces a zero λ: quantisation and subtraction
        // remap it to ±1 LSB, preserving the sign.
        assert_eq!(fx.from_channel(0.05), 1);
        assert_eq!(fx.from_channel(-0.05), -1);
        assert_eq!(fx.sub(10, 10), 1);
        assert_eq!(fx.sub(-10, -10), -1);
        assert_eq!(fx.sub(5, 6), -1);
        assert_eq!(fx.sub(6, 5), 1);
    }

    #[test]
    fn check_node_update_matches_float_reference_in_sign_and_scale() {
        let fx = FixedBpArithmetic::default();
        let fl = FloatBpArithmetic::default();
        let fmt = fx.format();
        let rows: [&[f64]; 3] = [
            &[2.0, -3.5, 1.25, 4.0],
            &[6.0, 5.5, -7.25, 0.75, -2.0],
            &[1.0, 1.0, -1.0],
        ];
        for row in rows {
            let codes: Vec<i16> = row.iter().map(|&x| fmt.quantize(x) as i16).collect();
            let mut fixed_out = Vec::new();
            let mut float_out = Vec::new();
            fx.check_node_update(&codes, &mut fixed_out);
            fl.check_node_update(row, &mut float_out);
            for (i, (&fo, &flo)) in fixed_out.iter().zip(&float_out).enumerate() {
                let fo = fmt.dequantize(i32::from(fo));
                assert_eq!(
                    fo < 0.0,
                    flo < 0.0,
                    "sign mismatch at {i} for row {row:?}: {fo} vs {flo}"
                );
                assert!(
                    (fo - flo).abs() < 1.6,
                    "magnitude mismatch at {i} for row {row:?}: {fo} vs {flo}"
                );
            }
        }
    }

    #[test]
    fn saturation_is_respected_everywhere() {
        let fx = FixedBpArithmetic::default();
        let max = fx.format().max_code() as i16;
        let app_max = fx.app_format().max_code() as i16;
        // g of equal magnitudes saturates instead of overflowing.
        let v = fx.boxminus_codes(20, 20);
        assert!(v <= i32::from(max) && v > 20);
        // The APP adder has two extra integer bits of headroom.
        assert_eq!(fx.add(max, max), 2 * max);
        assert_eq!(fx.add(app_max, max), app_max);
        // λ = L − Λ saturates back to the message range.
        assert_eq!(fx.sub(app_max, -max), max);
        assert_eq!(fx.from_channel(1e9), max);
        assert_eq!(fx.from_channel(-1e9), -max);
    }

    #[test]
    fn forward_backward_mode_matches_float_reference_closely() {
        let fx = FixedBpArithmetic::forward_backward();
        assert_eq!(fx.mode(), CheckNodeMode::ForwardBackward);
        let fl = FloatBpArithmetic::default();
        let fmt = fx.format();
        let rows: [&[f64]; 3] = [
            &[2.0, -3.5, 1.25, 4.0],
            &[6.0, 5.5, -7.25, 0.75, -2.0],
            &[1.0, 1.0, -1.0, 2.5],
        ];
        for row in rows {
            let codes: Vec<i16> = row.iter().map(|&x| fmt.quantize(x) as i16).collect();
            let (mut out_fx, mut out_fl) = (Vec::new(), Vec::new());
            fx.check_node_update(&codes, &mut out_fx);
            fl.check_node_update(row, &mut out_fl);
            assert_eq!(out_fx.len(), row.len());
            for (c, f) in out_fx.iter().zip(&out_fl) {
                let v = fmt.dequantize(i32::from(*c));
                assert_eq!(v < 0.0, *f < 0.0, "sign mismatch: {v} vs {f}");
                assert!((v - f).abs() < 1.0, "fwd/bwd drifted: {v} vs {f}");
            }
        }
        // Degree-1 row: the single output carries no extrinsic information
        // and saturates positive (parity trivially satisfiable).
        let mut out = Vec::new();
        fx.check_node_update(&[7], &mut out);
        assert_eq!(out, vec![fmt.max_code() as i16]);
    }

    #[test]
    fn modes_agree_on_well_conditioned_rows() {
        // Away from the quantisation-fragile regions the two check-node modes
        // produce similar messages.
        let se = FixedBpArithmetic::default();
        let fb = FixedBpArithmetic::forward_backward();
        let row = [24, -16, 32, -40, 20];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        se.check_node_update(&row, &mut a);
        fb.check_node_update(&row, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(*x < 0, *y < 0);
            assert!((x - y).abs() <= 6, "modes diverged: {x} vs {y}");
        }
    }

    #[test]
    fn lane_kernels_match_scalar_rows_in_both_modes() {
        // Messages covering saturation, near-zero codes and sign changes.
        let msg = |i: usize| ((i as i16 * 37) % 255) - 127;
        for arith in [
            FixedBpArithmetic::default(),
            FixedBpArithmetic::with_mode(FixedFormat::default(), 3, CheckNodeMode::SumExtract),
            FixedBpArithmetic::forward_backward(),
        ] {
            for (z, degree) in [(1usize, 3usize), (4, 1), (27, 2), (96, 7), (24, 20)] {
                crate::arith::lanes::test_support::check_lane_axioms(&arith, z, degree, msg);
            }
        }
    }

    #[test]
    fn lane_kernel_degree_one_saturates_like_scalar() {
        for fx in [
            FixedBpArithmetic::forward_backward(),
            FixedBpArithmetic::default(),
        ] {
            let max = fx.format().max_code() as i16;
            let mut scratch = crate::arith::LaneScratch::new();
            scratch.reserve(1, 4);
            let mut out = [0i16; 4];
            fx.check_node_update_lanes(4, &[7, -3, 1, 127], &mut out, &mut scratch);
            assert_eq!(out, [max; 4]);
            let mut row = Vec::new();
            fx.check_node_update(&[-9], &mut row);
            assert_eq!(row, vec![max]);
        }
    }

    #[test]
    fn argmin_edge_receives_the_boxplus_of_the_other_edges() {
        let fx = FixedBpArithmetic::default();
        assert_eq!(fx.mode(), CheckNodeMode::SumExtractArgmin);
        let bare =
            FixedBpArithmetic::with_mode(FixedFormat::default(), 3, CheckNodeMode::SumExtract);
        let plus = |a: i32, b: i32| fx.boxplus_codes(a, b);
        // The weakest edge is slot 1 (|−6|); a tie later (slot 4) must not
        // move the argmin.
        let row = [24i16, -6, 32, -40, 6];
        let (mut out, mut reference) = (Vec::new(), Vec::new());
        fx.check_node_update(&row, &mut out);
        bare.check_node_update(&row, &mut reference);
        let others = [24, 32, -40, 6].into_iter().reduce(plus).unwrap();
        assert_eq!(i32::from(out[1]), others);
        for slot in [0, 2, 3, 4] {
            assert_eq!(out[slot], reference[slot], "slot {slot} keeps S ⊟ λ");
        }
        // Bare ⊟ hands the weakest edge roughly its own magnitude back,
        // far below the true extrinsic (≥ the second minimum, 6).
        assert!(out[1].abs() > reference[1].abs());
        // A new minimum in slot 1 seeds S' with λ_0.
        fx.check_node_update(&[20, -3], &mut out);
        assert_eq!(out[1], 20);
        fx.check_node_update(&[3, -20], &mut out);
        assert_eq!(out[0], -20);
    }

    #[test]
    #[should_panic(expected = "wider than 14 bits")]
    fn rejects_message_formats_wider_than_the_i16_panels() {
        let _ = FixedBpArithmetic::new(FixedFormat::new(15, 4), 3);
    }

    #[test]
    fn accepts_every_message_width_up_to_14_bits() {
        for w in 2..=14 {
            let fx = FixedBpArithmetic::new(FixedFormat::new(w, w / 3), 3);
            assert_eq!(fx.app_format().word_bits(), w + 2);
        }
    }

    #[test]
    fn narrower_datapath_degrades_gracefully() {
        // A 5-bit datapath still produces sign-correct check messages.
        let fx = FixedBpArithmetic::new(FixedFormat::new(5, 1), 3);
        let mut out = Vec::new();
        fx.check_node_update(&[10, -7, 4], &mut out);
        assert_eq!(out.len(), 3);
        assert!(out[0] < 0);
        assert!(out[1] > 0);
        assert!(out[2] < 0);
    }
}
