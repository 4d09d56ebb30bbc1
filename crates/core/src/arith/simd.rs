//! Explicit-SIMD panel kernels with once-per-process runtime dispatch.
//!
//! The fixed-point [`LaneKernel`](super::LaneKernel) slice kernels process
//! `z · F`-lane panels of **`i16` codes** (every message format up to
//! 14 bits, and its 16-bit APP memory, fits). This module is the tier below:
//! hand-written `std::arch` intrinsics for the panel hot loops, selected
//! **once per process** by [`active_level`] (runtime CPU feature detection
//! on stable Rust — no nightly, no compile-time `-C target-cpu`
//! requirement) and always bit-identical to the scalar panel reference:
//!
//! * **AVX2** — 16-lane `epi16` vectors. When a correction table's dense
//!   form fits in 16 bytes (the paper's Q6.2/3-bit tables have 9 entries)
//!   the LUT fetch is one `vpshufb` ([`_mm256_shuffle_epi8`]) per vector,
//!   so the whole ⊞ operator *fuses* into a single register-resident
//!   pass ([`boxplus_panel`]): magnitude split, both table lookups and the
//!   sign/saturate combine with no round-trips through the `LaneScratch`
//!   panels. Channel quantisation
//!   ([`quantize_codes`]) runs four `f64` lanes at a time.
//!   The argmin-excluded check-node update fuses the same way: one pass per
//!   slot updates the running total `S`, the argmin-excluded sum `S'`, the
//!   minimum magnitude and the argmin together ([`boxplus_dual_panel`]),
//!   and extraction is one ⊟ pass blended with `S'` at the argmin
//!   ([`boxminus_select_panel`]).
//!   [`layer_update_argmin`] fuses the whole layer update around them: per
//!   pair of vectors of lanes it reads `L` (through the rotation) and `Λ` of
//!   every slot once, forms `λ = L − Λ`, and runs the paper's 8-bit check
//!   node in **`i8` lanes**, 32 rows per vector: `λ` packs into bytes
//!   exactly, the fold of `|S|`, `|S'|`, `|min|` and the argmin runs on
//!   unsigned byte magnitudes with the signs carried apart as one XOR
//!   parity, and `Λ′` and `λ` widen back to `i16` for the one write of `Λ′`
//!   and `L′ = λ + Λ′`. `λ` of the chunk's slots is the only thing that may
//!   spill, to a stack array. The byte lanes need messages of at most
//!   8 bits and corrections of at most 128 ([`fits_byte_lanes`]); wider
//!   formats take the unfused panels.
//! * **SSE4.1** — the same kernels on 8-lane `epi16` vectors (16-lane
//!   `epi8` vectors in the fused check node); `pshufb`
//!   ([`_mm_shuffle_epi8`]) is available here too, so this tier fuses as
//!   well.
//! * **Scalar** — the universal fallback: branch-free loops that mirror
//!   the vector instructions lane by lane (kept in [`mod@self`] as the
//!   bit-identity reference), used on non-x86 targets, on CPUs without
//!   SSE4.1, and whenever `LDPC_FORCE_SCALAR` is set. The fused layer
//!   update has a scalar twin that runs the same passes a chunk of lanes
//!   at a time through these loops, in `i16` (the reference the byte lanes
//!   are pinned against); the vector tiers hand it the lanes past their
//!   last whole vector.
//!
//! Formats whose dense table is larger than 16 entries (and the scalar
//! tier) keep the three-pass structure: magnitude split, clamped-index
//! lookup through the dense `i16` table, sign/saturate combine — branch-free
//! scalar loops the compiler vectorises around the lookup.
//!
//! # Dispatch
//!
//! [`detected_level`] probes the CPU once (cached) via
//! `is_x86_feature_detected!`; [`active_level`] additionally honours the
//! `LDPC_FORCE_SCALAR` environment variable (read once per process, like
//! `LDPC_DECODE_THREADS`) as an escape hatch for A/B measurement and for
//! pinning CI legs to the fallback path. Every public kernel takes an
//! explicit [`SimdLevel`] so tests and benches can pin a tier per call; the
//! level is clamped to the detected capability
//! ([`SimdLevel::effective`]), which is what makes these functions *safe*:
//! an intrinsic path can only be reached on a CPU that reported the feature.
//!
//! # Safety
//!
//! This is the only module in the crate allowed to use `unsafe` (the crate
//! lint is `deny(unsafe_code)`, relaxed for this module alone). Every
//! `unsafe` block is one of exactly two shapes, each individually justified
//! at the block:
//!
//! 1. **Feature-gated intrinsic calls** — `#[target_feature]` functions are
//!    only invoked after [`SimdLevel::effective`] capped the requested level
//!    at [`detected_level`], so the ISA extension is guaranteed present.
//! 2. **Raw-pointer panel loads/stores** — every kernel asserts all its
//!    slices share one length `n` on entry, and every pointer access is at
//!    offset `i + WIDTH ≤ n`: a ragged end is covered by one overlapping
//!    vector at `n − WIDTH`, and panels shorter than one vector go to the
//!    safe scalar reference. The 16-byte shuffle table is a `&[u8; 16]`, so
//!    its one load is in-bounds by type. The fused layer update addresses
//!    the APP and Λ memory at rotated offsets instead: on entry it asserts,
//!    for every slot, `cb + zw ≤ app.len()` and `eb + zw ≤ lambda.len()`
//!    (`cb`, `eb` the slot's block-column and Λ bases, `zw = z · width`)
//!    and `shift < z`, and every access is then at `cb + o` or `eb + i`
//!    with `o + WIDTH ≤ zw` and `i + WIDTH ≤ zw`. A vector the rotation
//!    splits is read and written through a `2 · WIDTH` stack window over
//!    the column's last and first `WIDTH` lanes (the vector path runs only
//!    when `zw ≥ 2 · WIDTH`, so the two are disjoint), and lanes past the
//!    last whole vector go to the safe scalar twin. A last single vector of
//!    the byte pass is packed with itself and stored once.
//!
//! `pshufb` never reads memory: each lane's shuffle index is clamped with
//! an **unsigned** 16-bit min against 15 and its high byte forced to `0x80`
//! (which zeroes the high result byte), so every lane selects a table byte
//! `0..=15` — mirroring the scalar `table[min(x as u16, 15)]` (the table is
//! padded with its saturation entry, so this equals
//! `dense[min(x, dense.len() − 1)]`). Inside the fused ⊞/⊟ core the two
//! lookups skip the `0x80` byte: each then carries the same `table[0] << 8`
//! in its high byte, and only their wrapping difference is used, where it
//! cancels. In the byte lanes every index is `min(·, 15)` of an unsigned
//! byte, so its high bit is clear and it selects a table byte directly.
//!
//! # Bit-identity contract
//!
//! Every kernel here produces, for every lane, exactly the bytes the scalar
//! panel reference produces: the scalar loops use the lane semantics of the
//! vector instructions (wrapping adds, saturating `L − Λ`, unsigned index
//! clamps, the same first-wins tie rule in the minima tracking). On the
//! decoder's domain (message codes up to 14 bits, APP codes up to 16) they
//! also equal the `i32` row-serial arithmetic.
//!
//! The byte lanes of the fused check node are exact where they are used
//! (messages of at most 8 bits, so `|λ| ≤ max ≤ 127`, and corrections of at
//! most 128, asserted on entry): the saturating pack of `L − Λ` clamps to
//! `±max` exactly like the `i16` clamp and keeps the sign of `L` for the
//! zero remap; in ⊞, `min + c_sum ≤ 127 + 128` fits a `u8`, and the
//! saturating subtraction of `c_diff` followed by the `[1, max]` clamp
//! equals the `i16` clamp; in ⊟, `min + c_diff ≤ 255` never saturates and
//! the subtraction of `c_sum` floors at 0 exactly like `clamp(·, 0, max)`.
//! Every ⊞ magnitude is ≥ 1 and every `λ` ≠ 0 (the zero remap), so the sign
//! of `S` is the XOR of all `λ` signs and that of `S'` is that XOR with the
//! argmin's sign; a ⊟ magnitude of 0 stays 0 under the sign.
//!
//! The contract is pinned by the
//! unit tests below (including every pair of codes of every ≤ 8-bit format
//! through the byte ⊞/⊟), by `tests/integration_simd.rs` (an exhaustive sweep of
//! the code domain per format, boundary/saturation sweeps, ragged tails,
//! full-decoder bit-identity across levels) and by the
//! `LDPC_FORCE_SCALAR=1` CI leg running the whole suite on the fallback
//! path.
//!
//! [`_mm256_shuffle_epi8`]: core::arch::x86_64::_mm256_shuffle_epi8
//! [`_mm_shuffle_epi8`]: core::arch::x86_64::_mm_shuffle_epi8

#![allow(clippy::too_many_arguments)]

use crate::lut::CorrectionLut;
use ldpc_codes::{CompiledCode, LaneLayer};
use std::sync::OnceLock;

/// A kernel tier: which instruction-set extension the panel kernels run on.
///
/// Ordered by capability: `Scalar < Sse41 < Avx2`. Requesting a level the
/// CPU does not support silently degrades to the best supported one
/// ([`SimdLevel::effective`]), so any `SimdLevel` value is safe to pass
/// anywhere; on non-x86 targets every level degrades to `Scalar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The branch-free scalar panel loops (auto-vectorised by the compiler).
    Scalar,
    /// 8-lane `i16` SSE4.1 kernels with `pshufb` LUT lookups.
    Sse41,
    /// 16-lane `i16` AVX2 kernels with `vpshufb` LUT lookups.
    Avx2,
}

impl SimdLevel {
    /// Short lower-case tier name, as printed by CI headers and baselines:
    /// `"avx2"`, `"sse4.1"` or `"scalar"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Sse41 => "sse4.1",
            SimdLevel::Scalar => "scalar",
        }
    }

    /// This level clamped to what the running CPU actually supports — the
    /// level whose kernels will really execute. Idempotent.
    #[must_use]
    pub fn effective(self) -> SimdLevel {
        self.min(detected_level())
    }
}

/// The best kernel tier the running CPU supports, probed once per process
/// (cached) via `is_x86_feature_detected!`. Ignores `LDPC_FORCE_SCALAR`;
/// see [`active_level`] for the tier the decode engine actually uses.
#[must_use]
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse4.1") {
                return SimdLevel::Sse41;
            }
        }
        SimdLevel::Scalar
    })
}

/// The kernel tier the decode engine dispatches to: [`detected_level`]
/// unless the `LDPC_FORCE_SCALAR` environment variable pins the scalar
/// fallback. Read once per process and cached — changing the variable after
/// the first decode has no effect.
#[must_use]
pub fn active_level() -> SimdLevel {
    static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if crate::env::flag("LDPC_FORCE_SCALAR") {
            SimdLevel::Scalar
        } else {
            detected_level()
        }
    })
}

/// Asserts that every slice passed to a panel kernel shares one length.
/// Hard (release-mode) asserts: the intrinsic kernels turn these lengths
/// into raw-pointer bounds, so a mismatch must never reach them.
macro_rules! assert_same_len {
    ($first:expr $(, $rest:expr)+ $(,)?) => {
        let n = $first.len();
        $(assert_eq!($rest.len(), n, "panel kernel slice length mismatch");)+
    };
}

/// `pred(0.5)`: adding it with the operand's sign and truncating rounds to
/// the nearest integer with ties away from zero (`f64::round`) for every
/// `|x| < 2^52`, without a libm call.
const HALF_DOWN: f64 = 0.499_999_999_999_999_94;

/// The most slots [`layer_update_argmin`] handles: per chunk of lanes, `λ`
/// of every slot stays in a fixed-size stack array between the fold and the
/// write-back. Wider layers take the unfused path.
pub const MAX_FUSED_DEGREE: usize = 32;

/// Where one slot of a layer lives in a `zw = z · width`-lane group: its
/// block column starts at `app` in the APP memory, its Λ panel at `lambda`,
/// and lane `i` reads and writes the APP value at
/// `app + ((i + rot) mod zw)`.
#[derive(Debug, Clone, Copy, Default)]
struct SlotSpan {
    app: usize,
    lambda: usize,
    rot: usize,
}

impl SlotSpan {
    /// Lane `i`'s offset within the block column (`i, rot < zw`).
    #[inline(always)]
    fn rotated(&self, i: usize, zw: usize) -> usize {
        let o = i + self.rot;
        if o >= zw {
            o - zw
        } else {
            o
        }
    }

    /// The APP ranges of lanes `i..i + w` (`w ≤ zw`): up to the end of the
    /// block column, then (when the rotation wraps) from its start.
    fn app_ranges(&self, i: usize, w: usize, zw: usize) -> [std::ops::Range<usize>; 2] {
        let o = self.rotated(i, zw);
        let k = w.min(zw - o);
        [self.app + o..self.app + o + k, self.app..self.app + w - k]
    }
}

/// The slot spans of one layer, bounds-checked once on construction. Every
/// APP and Λ access of the fused layer kernels is at a lane offset below
/// `zw` from one of these bases, so the asserts here are what make their
/// raw-pointer loads and stores in-bounds.
struct LayerSpans {
    slots: [SlotSpan; MAX_FUSED_DEGREE],
    degree: usize,
    zw: usize,
}

impl LayerSpans {
    /// # Panics
    ///
    /// Panics unless the degree is in `2..=MAX_FUSED_DEGREE`, every shift
    /// is below `z`, and for every slot `app + zw ≤ app_len` and
    /// `lambda + zw ≤ lambda_len`.
    fn new(
        layer: &LaneLayer<'_>,
        z: usize,
        width: usize,
        app_len: usize,
        lambda_len: usize,
    ) -> Self {
        let degree = layer.degree();
        assert!(
            (2..=MAX_FUSED_DEGREE).contains(&degree),
            "fused layer update of degree {degree} (needs 2..={MAX_FUSED_DEGREE})"
        );
        let zw = z.checked_mul(width).expect("group panel size overflows");
        // The start of a `zw`-lane span at `base · width`, if it ends by `len`.
        let start = |base: u32, len: usize| {
            let start = (base as usize).checked_mul(width)?;
            (start.checked_add(zw)? <= len).then_some(start)
        };
        let mut slots = [SlotSpan::default(); MAX_FUSED_DEGREE];
        for (s, span) in slots[..degree].iter_mut().enumerate() {
            let shift = layer.shift[s] as usize;
            assert!(shift < z, "circulant shift {shift} not below z = {z}");
            let (Some(app), Some(lambda)) = (
                start(layer.col_base[s], app_len),
                start(layer.edge_base[s], lambda_len),
            ) else {
                panic!("layer slot {s} lies outside the APP or Λ memory");
            };
            *span = SlotSpan {
                app,
                lambda,
                rot: shift * width,
            };
        }
        LayerSpans { slots, degree, zw }
    }

    fn slots(&self) -> &[SlotSpan] {
        &self.slots[..self.degree]
    }
}

// ---------------------------------------------------------------------------
// Scalar reference implementations
// ---------------------------------------------------------------------------

/// The branch-free scalar panel loops — the bit-identity reference every
/// vector kernel is pinned against, and the universal dispatch fallback.
/// Each loop applies, per lane, the lane semantics of the vector
/// instructions the SIMD tiers use.
pub(crate) mod scalar {
    use super::{LayerSpans, HALF_DOWN, MAX_FUSED_DEGREE};
    use ldpc_codes::{CompiledCode, LaneLayer};
    use std::ops::Range;

    /// The fused ⊞/⊟ core of one lane: `lut` maps a magnitude to its
    /// correction. `MINUS` selects ⊟ (corrections swapped, floor 0, the
    /// correction difference added with saturation).
    #[inline(always)]
    pub(super) fn box_lane<const MINUS: bool>(
        max_code: i16,
        a: i16,
        b: i16,
        lut: impl Fn(i16) -> i16,
    ) -> i16 {
        let (aa, ab) = (a.wrapping_abs(), b.wrapping_abs());
        let mn = aa.min(ab);
        let sm = aa.wrapping_add(ab).min(max_code);
        let df = aa.wrapping_sub(ab).wrapping_abs();
        let (cs, cd) = (lut(sm), lut(df));
        let mag = if MINUS {
            mn.saturating_add(cd.wrapping_sub(cs)).clamp(0, max_code)
        } else {
            mn.wrapping_add(cs).wrapping_sub(cd).clamp(1, max_code)
        };
        if (a ^ b) < 0 {
            -mag
        } else {
            mag
        }
    }

    /// Pass 1 of the ⊞/⊟ decomposition: per lane, the minimum, the
    /// format-saturated sum and the absolute difference of the two input
    /// magnitudes.
    pub(crate) fn magnitude_split(
        max_code: i16,
        a: &[i16],
        b: &[i16],
        mins: &mut [i16],
        sums: &mut [i16],
        diffs: &mut [i16],
    ) {
        for ((((&a, &b), mn), sm), df) in a
            .iter()
            .zip(b)
            .zip(mins.iter_mut())
            .zip(sums.iter_mut())
            .zip(diffs.iter_mut())
        {
            let (aa, ab) = (a.wrapping_abs(), b.wrapping_abs());
            *mn = aa.min(ab);
            *sm = aa.wrapping_add(ab).min(max_code);
            *df = aa.wrapping_sub(ab).wrapping_abs();
        }
    }

    /// Pass 3 of the ⊞: combines the min lane with the LUT-corrected
    /// sum/diff lanes, magnitude floored at one LSB, sign of `a ^ b`.
    pub(crate) fn combine_plus(
        max_code: i16,
        a: &[i16],
        b: &[i16],
        mins: &[i16],
        corr_sums: &[i16],
        corr_diffs: &[i16],
        out: &mut [i16],
    ) {
        for (((((&a, &b), &mn), &cs), &cd), o) in a
            .iter()
            .zip(b)
            .zip(mins)
            .zip(corr_sums)
            .zip(corr_diffs)
            .zip(out.iter_mut())
        {
            let mag = mn.wrapping_add(cs).wrapping_sub(cd).clamp(1, max_code);
            *o = if (a ^ b) < 0 { -mag } else { mag };
        }
    }

    /// In-place [`combine_plus`] for the running ⊞ accumulator
    /// (`acc = acc ⊞ b`; the sign still reads the pre-update `acc`).
    pub(crate) fn combine_plus_assign(
        max_code: i16,
        acc: &mut [i16],
        b: &[i16],
        mins: &[i16],
        corr_sums: &[i16],
        corr_diffs: &[i16],
    ) {
        for ((((acc, &b), &mn), &cs), &cd) in acc
            .iter_mut()
            .zip(b)
            .zip(mins)
            .zip(corr_sums)
            .zip(corr_diffs)
        {
            let mag = mn.wrapping_add(cs).wrapping_sub(cd).clamp(1, max_code);
            *acc = if (*acc ^ b) < 0 { -mag } else { mag };
        }
    }

    /// Pass 3 of the ⊟: magnitude floored at 0, and the correction
    /// difference `cd − cs` (non-negative for the monotone tables) added
    /// with saturation, so a 16-bit correction never wraps the sum.
    pub(crate) fn combine_minus(
        max_code: i16,
        a: &[i16],
        b: &[i16],
        mins: &[i16],
        corr_sums: &[i16],
        corr_diffs: &[i16],
        out: &mut [i16],
    ) {
        for (((((&a, &b), &mn), &cs), &cd), o) in a
            .iter()
            .zip(b)
            .zip(mins)
            .zip(corr_sums)
            .zip(corr_diffs)
            .zip(out.iter_mut())
        {
            let mag = mn.saturating_add(cd.wrapping_sub(cs)).clamp(0, max_code);
            *o = if (a ^ b) < 0 { -mag } else { mag };
        }
    }

    /// Dense-table lookup in place: `xs[i] = dense[min(xs[i] as u16, last)]`
    /// (index clamp in unsigned space).
    pub(crate) fn lut_map_dense(dense: &[i16], xs: &mut [i16]) {
        let last = dense.len() - 1;
        for x in xs.iter_mut() {
            *x = dense[usize::from(*x as u16).min(last)];
        }
    }

    /// One lane of the 16-byte shuffle-table lookup.
    #[inline(always)]
    pub(super) fn shuffle_lane(table: &[u8; 16], x: i16) -> i16 {
        i16::from(table[usize::from((x as u16).min(15))])
    }

    /// Shuffle-table lookup in place: `xs[i] = table[min(xs[i] as u16, 15)]`.
    pub(crate) fn lut_shuffle_map(table: &[u8; 16], xs: &mut [i16]) {
        for x in xs.iter_mut() {
            *x = shuffle_lane(table, *x);
        }
    }

    /// Fused shuffle-table ⊞ over a panel — the scalar twin of the vector
    /// kernel, used for panels shorter than one vector.
    pub(crate) fn boxplus_shuffle(
        table: &[u8; 16],
        max_code: i16,
        a: &[i16],
        b: &[i16],
        out: &mut [i16],
    ) {
        for ((&a, &b), o) in a.iter().zip(b).zip(out.iter_mut()) {
            *o = box_lane::<false>(max_code, a, b, |x| shuffle_lane(table, x));
        }
    }

    /// The select half of one argmin-tracking slot, per lane: `kept` is the
    /// lane's `S' ⊞ λ` (or `λ` itself on the seed slot 1, where `total`
    /// still holds `λ_0` and the state lanes are write-only). A strictly
    /// weaker `λ` displaces the argmin and takes the old total as `S'`.
    #[inline(always)]
    fn dual_select_lane(
        slot: i16,
        l: i16,
        kept: i16,
        total: i16,
        excl: &mut i16,
        min: &mut i16,
        argmin: &mut i16,
    ) {
        let (m, am) = if slot == 1 {
            (total.wrapping_abs(), 0)
        } else {
            (*min, *argmin)
        };
        let a = l.wrapping_abs();
        let displaces = a < m;
        *excl = if displaces { total } else { kept };
        *argmin = if displaces { slot } else { am };
        *min = a.min(m);
    }

    /// [`dual_select_lane`] over a panel whose `excl` already holds
    /// `S' ⊞ λ` (three-pass fallback; ignored on slot 1). `total` is the
    /// pre-update `S`.
    pub(crate) fn dual_select(
        slot: i16,
        inc: &[i16],
        total: &[i16],
        excl: &mut [i16],
        min: &mut [i16],
        argmin: &mut [i16],
    ) {
        for ((((&l, &s), e), m), am) in inc
            .iter()
            .zip(total)
            .zip(excl.iter_mut())
            .zip(min.iter_mut())
            .zip(argmin.iter_mut())
        {
            let kept = if slot == 1 { l } else { *e };
            dual_select_lane(slot, l, kept, s, e, m, am);
        }
    }

    /// One fused argmin-tracking slot over a shuffle table: `S' ⊞ λ`, the
    /// select, and `S = S ⊞ λ` per lane — the scalar twin of the vector
    /// kernel.
    pub(crate) fn boxplus_dual_shuffle(
        table: &[u8; 16],
        max_code: i16,
        slot: i16,
        inc: &[i16],
        total: &mut [i16],
        excl: &mut [i16],
        min: &mut [i16],
        argmin: &mut [i16],
    ) {
        let lut = |x| shuffle_lane(table, x);
        for ((((&l, s), e), m), am) in inc
            .iter()
            .zip(total.iter_mut())
            .zip(excl.iter_mut())
            .zip(min.iter_mut())
            .zip(argmin.iter_mut())
        {
            let kept = if slot == 1 {
                l
            } else {
                box_lane::<false>(max_code, *e, l, lut)
            };
            dual_select_lane(slot, l, kept, *s, e, m, am);
            *s = box_lane::<false>(max_code, *s, l, lut);
        }
    }

    /// Replaces `out` with `excl` on the lanes whose argmin is `slot`.
    pub(crate) fn select_slot(slot: i16, excl: &[i16], argmin: &[i16], out: &mut [i16]) {
        for ((o, &e), &am) in out.iter_mut().zip(excl).zip(argmin) {
            if am == slot {
                *o = e;
            }
        }
    }

    /// Fused shuffle-table argmin-excluded extraction of one slot:
    /// `S'` where the argmin is `slot`, `S ⊟ λ` elsewhere.
    pub(crate) fn boxminus_select_shuffle(
        table: &[u8; 16],
        max_code: i16,
        slot: i16,
        total: &[i16],
        excl: &[i16],
        argmin: &[i16],
        inc: &[i16],
        out: &mut [i16],
    ) {
        for ((((o, &s), &e), &am), &l) in out.iter_mut().zip(total).zip(excl).zip(argmin).zip(inc) {
            *o = if am == slot {
                e
            } else {
                box_lane::<true>(max_code, s, l, |x| shuffle_lane(table, x))
            };
        }
    }

    /// One lane of [`sub_lanes_remap`].
    #[inline(always)]
    fn sub_remap_lane(lo: i16, hi: i16, a: i16, b: i16) -> i16 {
        let r = a.saturating_sub(b).clamp(lo, hi);
        let zero_remap = (a >> 15) | 1;
        if r == 0 {
            zero_remap
        } else {
            r
        }
    }

    /// `λ = L − Λ` with saturating subtraction (a 16-bit APP code minus a
    /// message code can leave `i16`), clamped to `[lo, hi]`, with the
    /// fixed-BP ±1-LSB zero remap in select form.
    pub(crate) fn sub_lanes_remap(lo: i16, hi: i16, app: &[i16], lambda: &[i16], out: &mut [i16]) {
        for ((o, &a), &b) in out.iter_mut().zip(app).zip(lambda) {
            *o = sub_remap_lane(lo, hi, a, b);
        }
    }

    /// The fused argmin-excluded layer update over all lanes (see
    /// [`super::layer_update_argmin`]).
    pub(crate) fn layer_update_argmin(
        plus: &[u8; 16],
        minus: &[u8; 16],
        max_code: i16,
        app_max: i16,
        layer: &LaneLayer<'_>,
        z: usize,
        width: usize,
        app: &mut [i16],
        lambda: &mut [i16],
    ) {
        let spans = LayerSpans::new(layer, z, width, app.len(), lambda.len());
        let lanes = 0..spans.zw;
        layer_update_argmin_lanes(plus, minus, max_code, app_max, &spans, lanes, app, lambda);
    }

    /// Lanes per step of [`layer_update_argmin_lanes`].
    const CHUNK: usize = 64;

    /// The magnitude split and both shuffle-table lookups of a ⊞/⊟ over
    /// one chunk, into `split` = (min, corrected sum, corrected difference).
    fn split_chunk(
        table: &[u8; 16],
        max_code: i16,
        a: &[i16],
        b: &[i16],
        split: &mut [[i16; CHUNK]; 3],
    ) {
        let [mins, sums, diffs] = split.each_mut().map(|x| &mut x[..a.len()]);
        magnitude_split(max_code, a, b, mins, sums, diffs);
        lut_shuffle_map(table, sums);
        lut_shuffle_map(table, diffs);
    }

    /// `acc = acc ⊞ b` over one chunk in the three-pass form (the split
    /// and combine loops vectorise; the lookups are scalar loads).
    fn boxplus_assign_chunk(
        table: &[u8; 16],
        max_code: i16,
        acc: &mut [i16],
        b: &[i16],
        split: &mut [[i16; CHUNK]; 3],
    ) {
        split_chunk(table, max_code, acc, b, split);
        let [mins, sums, diffs] = split.each_ref().map(|x| &x[..acc.len()]);
        combine_plus_assign(max_code, acc, b, mins, sums, diffs);
    }

    /// The fused layer update of `lanes` — the scalar twin of the vector
    /// kernel, lane for lane, which also hands it the lanes past its last
    /// whole vector. Per lane: `λ_s = L − Λ` of every slot, the
    /// argmin-tracking ⊞ fold of `S`, `S'`, `|min|` and the argmin, then
    /// `Λ′_s = S'` at the argmin and `S ⊟ λ_s` elsewhere, and
    /// `L′_s = clamp(λ_s + Λ′_s)` to the APP range. A lane touches only its
    /// own APP and Λ addresses. The lanes go [`CHUNK`] at a time through
    /// the panel loops of this module, slot-outer like the vector kernel,
    /// with every `λ` and the fold state on the stack.
    pub(super) fn layer_update_argmin_lanes(
        plus: &[u8; 16],
        minus: &[u8; 16],
        max_code: i16,
        app_max: i16,
        spans: &LayerSpans,
        lanes: Range<usize>,
        app: &mut [i16],
        lambda: &mut [i16],
    ) {
        if lanes.is_empty() {
            return;
        }
        let (slots, zw) = (spans.slots(), spans.zw);
        let mut lam = [[0i16; CHUNK]; MAX_FUSED_DEGREE];
        let mut state = [[0i16; CHUNK]; 5];
        let mut split = [[0i16; CHUNK]; 3];
        let mut start = lanes.start;
        while start < lanes.end {
            let w = CHUNK.min(lanes.end - start);
            let [total, excl, min, argmin, upd] = state.each_mut().map(|x| &mut x[..w]);
            let lam = &mut lam[..slots.len()];
            for (l, span) in lam.iter_mut().zip(slots) {
                let (l, edges) = (&mut l[..w], &lambda[span.lambda + start..][..w]);
                let [head, tail] = span.app_ranges(start, w, zw);
                let k = head.len();
                sub_lanes_remap(-max_code, max_code, &app[head], &edges[..k], &mut l[..k]);
                sub_lanes_remap(-max_code, max_code, &app[tail], &edges[k..], &mut l[k..]);
            }
            total.copy_from_slice(&lam[0][..w]);
            for (slot, l) in lam.iter().enumerate().skip(1) {
                let l = &l[..w];
                if slot != 1 {
                    boxplus_assign_chunk(plus, max_code, excl, l, &mut split);
                }
                dual_select(slot as i16, l, total, excl, min, argmin);
                boxplus_assign_chunk(plus, max_code, total, l, &mut split);
            }
            for (slot, (l, span)) in lam.iter().zip(slots).enumerate() {
                let l = &l[..w];
                split_chunk(minus, max_code, total, l, &mut split);
                let [mins, sums, diffs] = split.each_ref().map(|x| &x[..w]);
                combine_minus(max_code, total, l, mins, sums, diffs, upd);
                select_slot(slot as i16, excl, argmin, upd);
                lambda[span.lambda + start..][..w].copy_from_slice(upd);
                let [head, tail] = span.app_ranges(start, w, zw);
                let k = head.len();
                add_lanes_clamp(-app_max, app_max, &l[..k], &upd[..k], &mut app[head]);
                add_lanes_clamp(-app_max, app_max, &l[k..], &upd[k..], &mut app[tail]);
            }
            start += w;
        }
    }

    /// The parity verdicts of a group (see [`super::parity_verdicts`]):
    /// the sign bit of an `i16` code is its hard decision.
    pub(crate) fn parity_verdicts(
        compiled: &CompiledCode,
        width: usize,
        app: &[i16],
        failed: &mut [u8],
    ) {
        crate::arith::parity_verdicts_by(compiled, width, app, failed, |m: i16| u8::from(m < 0));
    }

    /// Plain saturating `λ = L − Λ` clamp (fixed Min-Sum).
    pub(crate) fn sub_lanes_clamp(lo: i16, hi: i16, app: &[i16], lambda: &[i16], out: &mut [i16]) {
        for ((o, &a), &b) in out.iter_mut().zip(app).zip(lambda) {
            *o = a.saturating_sub(b).clamp(lo, hi);
        }
    }

    /// Saturating `L = λ + Λ′` clamp to the (wider) APP range.
    pub(crate) fn add_lanes_clamp(lo: i16, hi: i16, lam: &[i16], upd: &[i16], out: &mut [i16]) {
        for ((o, &a), &b) in out.iter_mut().zip(lam).zip(upd) {
            *o = a.saturating_add(b).clamp(lo, hi);
        }
    }

    /// `i32` add-clamp (`out = clamp(a + b, lo, hi)`, wrapping add) — the
    /// HARQ combiner's saturate-on-read pass.
    pub(crate) fn add_lanes_clamp_i32(lo: i32, hi: i32, lam: &[i32], upd: &[i32], out: &mut [i32]) {
        for ((o, &a), &b) in out.iter_mut().zip(lam).zip(upd) {
            *o = a.wrapping_add(b).clamp(lo, hi);
        }
    }

    /// One slot of the two-minima tracking pass, in select form: same
    /// first-wins tie semantics as the row-serial reference (`a == m1`
    /// keeps the earlier argmin), no branches.
    pub(crate) fn min_sum_track(
        slot: i16,
        inc: &[i16],
        min1: &mut [i16],
        min2: &mut [i16],
        argmin: &mut [i16],
        parity: &mut [i16],
    ) {
        for ((((&l, m1), m2), am), p) in inc
            .iter()
            .zip(min1.iter_mut())
            .zip(min2.iter_mut())
            .zip(argmin.iter_mut())
            .zip(parity.iter_mut())
        {
            let a = l.wrapping_abs();
            let displaces = a < *m1;
            *m2 = if displaces { *m1 } else { a.min(*m2) };
            *am = if displaces { slot } else { *am };
            *m1 = a.min(*m1);
            *p ^= i16::from(l < 0);
        }
    }

    /// One slot of the Min-Sum output pass: second minimum at the argmin,
    /// first minimum elsewhere, saturated, normalised with the hardware
    /// `α = 0.75` shift-and-subtract (`x − (x >> 2)`, matching
    /// `FixedMinSumArithmetic::normalize`), sign = row parity ⊕ own sign.
    pub(crate) fn min_sum_emit(
        slot: i16,
        max_code: i16,
        inc: &[i16],
        min1: &[i16],
        min2: &[i16],
        argmin: &[i16],
        parity: &[i16],
        out: &mut [i16],
    ) {
        for (((((o, &l), &m1), &m2), &am), &p) in out
            .iter_mut()
            .zip(inc)
            .zip(min1)
            .zip(min2)
            .zip(argmin)
            .zip(parity)
        {
            let raw = if am == slot { m2 } else { m1 };
            let mag0 = raw.min(max_code);
            let mag = mag0 - (mag0 >> 2);
            *o = if (p ^ i16::from(l < 0)) != 0 {
                -mag
            } else {
                mag
            };
        }
    }

    /// One channel LLR to a code, exactly `FixedFormat::quantize` (ties away
    /// from zero, saturation, NaN → 0) followed, when `remap_zero` is set,
    /// by the fixed-BP zero remap (code 0 → −1 for negative LLRs, +1
    /// otherwise). `x · 2^F` equals the reference's `x / 2^-F` bit for bit.
    #[inline(always)]
    pub(crate) fn quantize_one(scale: f64, max_code: i16, remap_zero: bool, llr: f64) -> i16 {
        let x = llr * scale;
        // `as` truncates toward zero, saturates ±∞ and huge values and maps
        // NaN to 0; the rounding trick is exact below 2^52 and leaves the
        // integers above it unchanged.
        let max = i32::from(max_code);
        let q = ((x + HALF_DOWN.copysign(x)) as i32).clamp(-max, max) as i16;
        if q == 0 && remap_zero {
            if llr < 0.0 {
                -1
            } else {
                1
            }
        } else {
            q
        }
    }

    /// [`quantize_one`] over a slice; returns whether every LLR was finite
    /// (`|l| < ∞`, which NaN fails too).
    pub(crate) fn quantize_codes(
        scale: f64,
        max_code: i16,
        remap_zero: bool,
        llrs: &[f64],
        out: &mut [i16],
    ) -> bool {
        let mut finite = true;
        for (o, &l) in out.iter_mut().zip(llrs) {
            *o = quantize_one(scale, max_code, remap_zero, l);
            finite &= l.abs() < f64::INFINITY;
        }
        finite
    }
}

// ---------------------------------------------------------------------------
// x86 intrinsic kernels (AVX2 + SSE4.1, one macro instantiation per width)
// ---------------------------------------------------------------------------

/// Stamps out one width-specific x86 kernel module. Every function carries
/// `#[target_feature(enable = …)]` and is `unsafe` with the single safety
/// requirement *"the CPU supports this feature"*: all slice lengths are
/// hard-asserted equal on entry and every raw-pointer access is bounded by
/// `i + WIDTH ≤ n`. Panels shorter than one vector go through the safe
/// scalar reference; a ragged end is covered by one last vector at
/// `n − WIDTH`, overlapping the previous one. That vector is computed from
/// the inputs *before* the main loop runs and stored after it, so it is
/// exact for the in-place kernels too (every lane depends only on its own
/// inputs, and the overlapped lanes get the same values twice).
#[cfg(target_arch = "x86_64")]
macro_rules! x86_panel_kernels {
    (
        $modname:ident, $feature:literal, $vec:ty, $width:expr,
        $loadu:ident, $storeu:ident, $set1:ident, $setzero:ident,
        $abs:ident, $min:ident, $max:ident, $minu:ident,
        $add:ident, $sub:ident, $adds:ident, $subs:ident,
        $xor:ident, $or:ident, $srli:ident, $srai:ident,
        $cmpeq:ident, $cmpgt:ident, $blendv:ident, $sign:ident, $shuffle:ident,
        $table:expr,
        $set1_32:ident, $add32:ident, $min32:ident, $max32:ident,
        $movemask:ident, $and:ident,
        $set1_8:ident, $abs8:ident, $minu8:ident, $maxu8:ident,
        $min8:ident, $max8:ident, $addsu8:ident, $subsu8:ident,
        $cmpeq8:ident, $cmpgt8:ident, $sign8:ident,
        $packs:ident, $unpacklo8:ident, $unpackhi8:ident
    ) => {
        mod $modname {
            use super::{scalar, LayerSpans, SlotSpan, MAX_FUSED_DEGREE};
            use core::arch::x86_64::*;
            use ldpc_codes::{CompiledCode, LaneLayer};

            pub(super) const WIDTH: usize = $width;
            const WIDTH32: usize = $width / 2;

            /// Unaligned vector load of `s[i..i + WIDTH]` (16-bit lanes) or
            /// `s[i..i + WIDTH32]` (32-bit lanes).
            ///
            /// # Safety
            /// The span must be in-bounds and the CPU must support the
            /// module's target feature.
            #[target_feature(enable = $feature)]
            unsafe fn ld<T>(s: &[T], i: usize) -> $vec {
                $loadu(s.as_ptr().add(i).cast())
            }

            /// Unaligned vector store to `s[i..]`.
            ///
            /// # Safety
            /// As [`ld`].
            #[target_feature(enable = $feature)]
            unsafe fn st<T>(s: &mut [T], i: usize, v: $vec) {
                $storeu(s.as_mut_ptr().add(i).cast(), v)
            }

            /// The 16-byte table in every 128-bit lane.
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            unsafe fn load_table(table: &[u8; 16]) -> $vec {
                // SAFETY: `table` is exactly 16 readable bytes.
                let t = _mm_loadu_si128(table.as_ptr().cast());
                $table(t)
            }

            /// `table[min(x as u16, 15)]` per 16-bit lane: the unsigned min
            /// bounds the index byte, and the `0x80` high control byte
            /// zeroes the high result byte.
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            unsafe fn lookup(table: $vec, x: $vec) -> $vec {
                let idx = $minu(x, $set1(15));
                $shuffle(table, $or(idx, $set1(i16::MIN)))
            }

            /// The fused ⊞/⊟ core on loaded vectors (lane-for-lane the
            /// scalar `box_lane`).
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            unsafe fn box_core<const MINUS: bool>(
                table: $vec,
                vmax: $vec,
                va: $vec,
                vb: $vec,
            ) -> $vec {
                let vone = $set1(1);
                let aa = $abs(va);
                let ab = $abs(vb);
                let mn = $min(aa, ab);
                let sm = $min($add(aa, ab), vmax);
                let df = $abs($sub(aa, ab));
                // Both lookups skip the `0x80` high control byte, so each
                // lane carries `table[0] << 8` on top of its entry. Only the
                // wrapping difference `cs − cd` is used, where the two
                // offsets cancel exactly.
                let fifteen = $set1(15);
                let cs = $shuffle(table, $minu(sm, fifteen));
                let cd = $shuffle(table, $minu(df, fifteen));
                let mag = if MINUS {
                    $max($min($adds(mn, $sub(cd, cs)), vmax), $setzero())
                } else {
                    $max($min($sub($add(mn, cs), cd), vmax), vone)
                };
                // `(a ^ b) | 1` is never zero and carries the sign of `a ^ b`.
                $sign(mag, $or($xor(va, vb), vone))
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn boxplus_shuffle(
                table: &[u8; 16],
                max_code: i16,
                a: &[i16],
                b: &[i16],
                out: &mut [i16],
            ) {
                assert_same_len!(a, b, out);
                let n = a.len();
                if n < WIDTH {
                    return scalar::boxplus_shuffle(table, max_code, a, b, out);
                }
                let (t, vmax) = (load_table(table), $set1(max_code));
                // SAFETY (all accesses): every offset is ≤ n − WIDTH.
                let op = |i| box_core::<false>(t, vmax, ld(a, i), ld(b, i));
                let tail = op(n - WIDTH);
                let mut i = 0;
                while i + WIDTH <= n {
                    st(out, i, op(i));
                    i += WIDTH;
                }
                st(out, n - WIDTH, tail);
            }

            /// `λ = L − Λ` clamped to `[vlo, vhi]` with the ±1-LSB zero
            /// remap, on loaded vectors (lane-for-lane the scalar
            /// `sub_remap_lane`).
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            unsafe fn sub_remap(va: $vec, vb: $vec, vlo: $vec, vhi: $vec) -> $vec {
                let r = $min($max($subs(va, vb), vlo), vhi);
                let zero_remap = $or($srai::<15>(va), $set1(1));
                $blendv(r, zero_remap, $cmpeq(r, $setzero()))
            }

            /// The slot loop of [`boxplus_dual_shuffle`]; `SEED` is slot 1,
            /// where `total` still holds `λ_0` and the other state panels
            /// are write-only. Lane-for-lane the scalar `dual_select_lane`
            /// around two `box_lane` ⊞s.
            ///
            /// # Safety
            /// The CPU must support the module's target feature, and every
            /// slice must have the same length `n ≥ WIDTH`.
            #[target_feature(enable = $feature)]
            unsafe fn boxplus_dual_pass<const SEED: bool>(
                t: $vec,
                vmax: $vec,
                slot: i16,
                inc: &[i16],
                total: &mut [i16],
                excl: &mut [i16],
                min: &mut [i16],
                argmin: &mut [i16],
            ) {
                let n = inc.len();
                let vslot = $set1(slot);
                // SAFETY (all accesses): every offset is ≤ n − WIDTH; each
                // span of the state is loaded before it is stored.
                let op = |s: &[i16], e: &[i16], m: &[i16], am: &[i16], i| {
                    let (l, vs) = (ld(inc, i), ld(s, i));
                    let a = $abs(l);
                    let (vm, vam, kept) = if SEED {
                        ($abs(vs), $setzero(), l)
                    } else {
                        (ld(m, i), ld(am, i), box_core::<false>(t, vmax, ld(e, i), l))
                    };
                    // `a < m`: a strictly weaker λ displaces the argmin (ties
                    // keep the earlier one) and takes the old S as S'.
                    let displaces = $cmpgt(vm, a);
                    (
                        box_core::<false>(t, vmax, vs, l),
                        $blendv(kept, vs, displaces),
                        $min(a, vm),
                        $blendv(vam, vslot, displaces),
                    )
                };
                let tail = op(total, excl, min, argmin, n - WIDTH);
                let mut i = 0;
                while i + WIDTH <= n {
                    let r = op(total, excl, min, argmin, i);
                    st(total, i, r.0);
                    st(excl, i, r.1);
                    st(min, i, r.2);
                    st(argmin, i, r.3);
                    i += WIDTH;
                }
                st(total, n - WIDTH, tail.0);
                st(excl, n - WIDTH, tail.1);
                st(min, n - WIDTH, tail.2);
                st(argmin, n - WIDTH, tail.3);
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn boxplus_dual_shuffle(
                table: &[u8; 16],
                max_code: i16,
                slot: i16,
                inc: &[i16],
                total: &mut [i16],
                excl: &mut [i16],
                min: &mut [i16],
                argmin: &mut [i16],
            ) {
                assert_same_len!(inc, total, excl, min, argmin);
                if inc.len() < WIDTH {
                    return scalar::boxplus_dual_shuffle(
                        table, max_code, slot, inc, total, excl, min, argmin,
                    );
                }
                let (t, vmax) = (load_table(table), $set1(max_code));
                if slot == 1 {
                    boxplus_dual_pass::<true>(t, vmax, slot, inc, total, excl, min, argmin)
                } else {
                    boxplus_dual_pass::<false>(t, vmax, slot, inc, total, excl, min, argmin)
                }
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn boxminus_select_shuffle(
                table: &[u8; 16],
                max_code: i16,
                slot: i16,
                total: &[i16],
                excl: &[i16],
                argmin: &[i16],
                inc: &[i16],
                out: &mut [i16],
            ) {
                assert_same_len!(total, excl, argmin, inc, out);
                let n = inc.len();
                if n < WIDTH {
                    return scalar::boxminus_select_shuffle(
                        table, max_code, slot, total, excl, argmin, inc, out,
                    );
                }
                let (t, vmax, vslot) = (load_table(table), $set1(max_code), $set1(slot));
                // SAFETY (all accesses): every offset is ≤ n − WIDTH.
                let op = |i| {
                    let r = box_core::<true>(t, vmax, ld(total, i), ld(inc, i));
                    $blendv(r, ld(excl, i), $cmpeq(ld(argmin, i), vslot))
                };
                let tail = op(n - WIDTH);
                let mut i = 0;
                while i + WIDTH <= n {
                    st(out, i, op(i));
                    i += WIDTH;
                }
                st(out, n - WIDTH, tail);
            }

            /// Lanes `i..i + WIDTH` of one slot's rotated APP view. Where
            /// the rotation wraps inside the vector, the column's last and
            /// first `WIDTH` lanes are stored side by side on the stack and
            /// the vector is read across the seam.
            ///
            /// # Safety
            /// The CPU must support the module's target feature; `span`
            /// addresses a `zw`-lane block column inside `app` (as a
            /// [`LayerSpans`] built for `app` does), `rot < zw`, and
            /// `i + WIDTH ≤ zw`.
            #[target_feature(enable = $feature)]
            unsafe fn ld_rotated(app: &[i16], span: &SlotSpan, zw: usize, i: usize) -> $vec {
                let o = span.rotated(i, zw);
                // SAFETY (all accesses): every APP vector lies in
                // `span.app..span.app + zw`, inside `app` by
                // `LayerSpans::new`; the seam vector starts at
                // `o + WIDTH − zw`, in `1..WIDTH`, of the `2·WIDTH`-lane
                // stack window.
                if o + WIDTH <= zw {
                    return ld(app, span.app + o);
                }
                let mut seam = [0i16; 2 * WIDTH];
                st(&mut seam, 0, ld(app, span.app + zw - WIDTH));
                st(&mut seam, WIDTH, ld(app, span.app));
                ld(&seam, o + WIDTH - zw)
            }

            /// Stores `x` to lanes `i..i + WIDTH` of one slot's rotated APP
            /// view (the inverse of [`ld_rotated`]). Across the seam, the
            /// column's last and first `WIDTH` lanes are read, patched on
            /// the stack and written back whole; the lanes around `x` get
            /// their own values back.
            ///
            /// # Safety
            /// As [`ld_rotated`], and `zw ≥ 2 · WIDTH`, which keeps the two
            /// windows disjoint.
            #[target_feature(enable = $feature)]
            unsafe fn st_rotated(app: &mut [i16], span: &SlotSpan, zw: usize, i: usize, x: $vec) {
                let o = span.rotated(i, zw);
                // SAFETY (all accesses): as in `ld_rotated`.
                if o + WIDTH <= zw {
                    return st(app, span.app + o, x);
                }
                let (last, first) = (span.app + zw - WIDTH, span.app);
                let mut seam = [0i16; 2 * WIDTH];
                st(&mut seam, 0, ld(app, last));
                st(&mut seam, WIDTH, ld(app, first));
                st(&mut seam, o + WIDTH - zw, x);
                st(app, last, ld(&seam, 0));
                st(app, first, ld(&seam, WIDTH));
            }

            /// Lanes of one byte vector: two `i16` vectors packed.
            const BYTES: usize = 2 * WIDTH;

            /// The ⊞ (`MINUS`: ⊟) magnitude core in unsigned byte lanes:
            /// lane-for-lane the magnitude of the scalar `box_lane` on
            /// operands of magnitudes `x`, `y ≤ max`, for `max ≤ 127` and
            /// table entries ≤ 128. `mn + c ≤ 127 + 128` fits a byte, so
            /// the saturating subtraction of the other correction floors at
            /// 0 exactly where the `i16` difference goes negative, and the
            /// clamp to `[1, max]` (⊟: `[0, max]`) then agrees with the
            /// `i16` one. The lookup indices are `min(·, 15)`: in-table,
            /// high bit clear.
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            unsafe fn box_mag<const MINUS: bool>(
                table: $vec,
                vmax: $vec,
                x: $vec,
                y: $vec,
            ) -> $vec {
                let mn = $minu8(x, y);
                let df = $subsu8($maxu8(x, y), mn);
                // The sum's index `min(min(x + y, max), 15)` in one min.
                let cap = $minu8(vmax, $set1_8(15));
                let cs = $shuffle(table, $minu8($addsu8(x, y), cap));
                let cd = $shuffle(table, $minu8(df, $set1_8(15)));
                if MINUS {
                    $minu8($subsu8($addsu8(mn, cd), cs), vmax)
                } else {
                    $maxu8($minu8($subsu8($addsu8(mn, cs), cd), vmax), $set1_8(1))
                }
            }

            /// `x ⊞ y` (`MINUS`: `x ⊟ y`) over byte panels in the byte
            /// lanes of the fused pass: [`box_mag`] of the magnitudes, with
            /// the sign of `x ^ y`. Whole vectors only; the unit tests pin
            /// it against the scalar `box_lane`.
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[cfg(test)]
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn box_bytes<const MINUS: bool>(
                table: &[u8; 16],
                max_code: i8,
                x: &[i8],
                y: &[i8],
                out: &mut [i8],
            ) {
                assert_same_len!(x, y, out);
                assert!(x.len().is_multiple_of(BYTES), "whole byte vectors only");
                let (t, vmax, one) = (load_table(table), $set1_8(max_code), $set1_8(1));
                for i in (0..x.len()).step_by(BYTES) {
                    // SAFETY: `i + BYTES ≤ len` for every slice.
                    let (a, b) = (ld(x, i), ld(y, i));
                    let mag = box_mag::<MINUS>(t, vmax, $abs8(a), $abs8(b));
                    st(out, i, $sign8(mag, $or($xor(a, b), one)));
                }
            }

            /// Sign-extends the `i8` lanes of a `packs_epi16(lo, hi)`
            /// result back to the `i16` vector `lo` (`HIGH`: `hi`), undoing
            /// the pack's lane order.
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            unsafe fn widen<const HIGH: bool>(x: $vec) -> $vec {
                let pairs = if HIGH {
                    $unpackhi8(x, x)
                } else {
                    $unpacklo8(x, x)
                };
                $srai::<8>(pairs)
            }

            /// The fused argmin-excluded layer update (see
            /// [`super::layer_update_argmin`]), `BYTES` lanes at a time with
            /// the check node in `i8` lanes. Per chunk, every slot's
            /// `L − Λ` of two `i16` vectors (saturating) is packed to bytes
            /// with saturation and clamped to `±max` there, which equals the
            /// `i16` clamp for `max ≤ 127`; the zero remap reads the sign of
            /// `L` from its own saturating pack. The fold runs on unsigned
            /// magnitudes (`|S|`, `|S'|`, `|min|`, argmin); the signs travel
            /// apart as the XOR parity `P` of every `λ`. Every ⊞ magnitude
            /// is ≥ 1 and every `λ` ≠ 0, so `sign(S) = P` and
            /// `sign(S') = P ⊕ sign(λ_argmin)`, and
            /// `Λ′_s = sign(P ⊕ λ_s) · (s = argmin ? |S'| : |S ⊟ λ_s|)` —
            /// a ⊟ magnitude of 0 stays 0 under the sign. `Λ′` and `λ` are
            /// widened back to `i16` for the stores of `Λ′` and
            /// `L′ = clamp(λ + Λ′)`.
            ///
            /// A last single `i16` vector is a half chunk, packed with
            /// itself; lanes past the last whole vector go to the scalar
            /// twin (all lanes when `zw < 2 · WIDTH`). Chunks are disjoint
            /// and each reads all of its inputs before it writes, so the
            /// in-place update needs no overlapping tail vector.
            ///
            /// The format must fit the byte lanes
            /// ([`super::fits_byte_lanes`], asserted by the dispatch
            /// wrapper).
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn layer_update_argmin(
                plus: &[u8; 16],
                minus: &[u8; 16],
                max_code: i16,
                app_max: i16,
                layer: &LaneLayer<'_>,
                z: usize,
                width: usize,
                app: &mut [i16],
                lambda: &mut [i16],
            ) {
                let spans = LayerSpans::new(layer, z, width, app.len(), lambda.len());
                let (slots, zw) = (spans.slots(), spans.zw);
                let vectors = if zw < 2 * WIDTH { 0 } else { zw - zw % WIDTH };
                let (tp, tm) = (load_table(plus), load_table(minus));
                let (vapp_max, vapp_min) = ($set1(app_max), $set1(-app_max));
                let (zero, one) = ($setzero(), $set1_8(1));
                let (bmax, bmin) = ($set1_8(max_code as i8), $set1_8(-max_code as i8));
                let mut lam = [zero; MAX_FUSED_DEGREE];
                let lam = &mut lam[..slots.len()];
                // `L − Λ` (saturating) and `L` of lanes `lo` and `hi`,
                // each packed to bytes with saturation.
                //
                // SAFETY (all accesses): every vector is at `i` or
                // `i + WIDTH` with its end ≤ vectors ≤ zw, and every slot's
                // APP block column and Λ panel hold zw lanes
                // (`LayerSpans::new`).
                let pair = |app: &[i16], lambda: &[i16], span: &SlotSpan, lo, hi| {
                    let (l0, l1) = (ld_rotated(app, span, zw, lo), ld_rotated(app, span, zw, hi));
                    let d0 = $subs(l0, ld(lambda, span.lambda + lo));
                    let d1 = $subs(l1, ld(lambda, span.lambda + hi));
                    ($packs(d0, d1), $packs(l0, l1))
                };
                let mut i = 0;
                while i < vectors {
                    let half = i + BYTES > vectors;
                    // Pass 1: λ of every slot in bytes — the saturating
                    // pack keeps the clamp to ±max and the sign of L exact,
                    // and the zero remap is ±1 by that sign — and their
                    // sign parity, then the magnitude fold.
                    let mut parity = zero;
                    for (l, span) in lam.iter_mut().zip(slots) {
                        let (d, big) = pair(app, lambda, span, i, if half { i } else { i + WIDTH });
                        let r = $min8($max8(d, bmin), bmax);
                        let remap = $or($cmpgt8(zero, big), one);
                        *l = $blendv(r, remap, $cmpeq8(r, zero));
                        parity = $xor(parity, *l);
                    }
                    // Slot 1 seeds the fold: S' is whichever of |λ_0|,
                    // |λ_1| is not the minimum (ties keep slot 0).
                    let (a0, a1) = ($abs8(lam[0]), $abs8(lam[1]));
                    let displaces = $cmpgt8(a0, a1);
                    let mut s = box_mag::<false>(tp, bmax, a0, a1);
                    let mut e = $blendv(a1, a0, displaces);
                    let mut m = $minu8(a0, a1);
                    let mut am = $blendv(zero, one, displaces);
                    let mut vslot = one;
                    for &l in &lam[2..] {
                        vslot = $addsu8(vslot, one);
                        let a = $abs8(l);
                        // `a < m`: a strictly weaker λ displaces the argmin
                        // and takes the old |S| as |S'|.
                        let displaces = $cmpgt8(m, a);
                        e = $blendv(box_mag::<false>(tp, bmax, e, a), s, displaces);
                        am = $blendv(am, vslot, displaces);
                        m = $minu8(a, m);
                        s = box_mag::<false>(tp, bmax, s, a);
                    }
                    // Pass 2: Λ′ with its sign, back to i16, and
                    // L′ = λ + Λ′ clamped to the APP range.
                    vslot = zero;
                    for (&l, span) in lam.iter().zip(slots) {
                        let r = box_mag::<true>(tm, bmax, s, $abs8(l));
                        let mag = $blendv(r, e, $cmpeq8(am, vslot));
                        vslot = $addsu8(vslot, one);
                        let upd = $sign8(mag, $or($xor(parity, l), one));
                        let mut put = |at, lam, upd| {
                            st(lambda, span.lambda + at, upd);
                            let sum = $min($max($adds(lam, upd), vapp_min), vapp_max);
                            st_rotated(app, span, zw, at, sum);
                        };
                        put(i, widen::<false>(l), widen::<false>(upd));
                        if !half {
                            put(i + WIDTH, widen::<true>(l), widen::<true>(upd));
                        }
                    }
                    i += BYTES;
                }
                scalar::layer_update_argmin_lanes(
                    plus,
                    minus,
                    max_code,
                    app_max,
                    &spans,
                    vectors..zw,
                    app,
                    lambda,
                );
            }

            /// `panel[dst..dst + src.len()] ^= src` (`COPY`: `=`), a
            /// vector at a time. A piece shorter than a vector goes lane by
            /// lane. Otherwise a ragged end is one last vector ending at the
            /// piece's end: a copy may overlap (it writes the same values
            /// again), an XOR may not, so its already-XORed lanes are masked
            /// to zero first (`MASK[rem..rem + WIDTH]` keeps the last `rem`).
            ///
            /// # Safety
            /// The CPU must support the module's target feature, and
            /// `dst + src.len() ≤ panel.len()`.
            #[target_feature(enable = $feature)]
            unsafe fn xor_piece<const COPY: bool>(panel: &mut [i16], dst: usize, src: &[i16]) {
                const MASK: [i16; 2 * WIDTH] = {
                    let mut mask = [0i16; 2 * WIDTH];
                    let mut j = WIDTH;
                    while j < 2 * WIDTH {
                        mask[j] = -1;
                        j += 1;
                    }
                    mask
                };
                let len = src.len();
                assert!(dst + len <= panel.len());
                if len < WIDTH {
                    for (p, &x) in panel[dst..dst + len].iter_mut().zip(src) {
                        *p = if COPY { x } else { *p ^ x };
                    }
                    return;
                }
                // SAFETY (all accesses): every vector is at `k ≤ len − WIDTH`
                // of `src` and at `dst + k` of `panel` (asserted above); the
                // mask load is at `rem ∈ 1..WIDTH` of the `2·WIDTH` table.
                let mut op = |k: usize, x: $vec| {
                    let v = if COPY { x } else { $xor(ld(panel, dst + k), x) };
                    st(panel, dst + k, v);
                };
                let mut k = 0;
                while k + WIDTH <= len {
                    op(k, ld(src, k));
                    k += WIDTH;
                }
                let rem = len - k;
                if rem > 0 {
                    let x = ld(src, len - WIDTH);
                    op(len - WIDTH, if COPY { x } else { $and(x, ld(&MASK, rem)) });
                }
            }

            /// `panel[i] ^= block[(i + rot) mod zw]` for every lane `i`
            /// (`COPY`: `=`), with `zw = block.len() = panel.len()` and
            /// `rot < zw`: the two stride-1 pieces of the rotation. When
            /// one piece is shorter than a vector (and `zw ≥ 2 · WIDTH`),
            /// the vector across the seam comes from a `2 · WIDTH` stack
            /// window over the block's last and first `WIDTH` lanes, and
            /// the other piece covers the remaining `zw − WIDTH` lanes.
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            unsafe fn xor_rotated<const COPY: bool>(panel: &mut [i16], block: &[i16], rot: usize) {
                let zw = block.len();
                assert!(panel.len() == zw && rot < zw);
                let seam = |o: usize| {
                    let mut window = [0i16; 2 * WIDTH];
                    // SAFETY: `zw ≥ 2 · WIDTH` (checked by the callers'
                    // branches), so both block vectors are in-bounds, and
                    // `o < WIDTH` keeps the window load inside the window.
                    st(&mut window, 0, ld(block, zw - WIDTH));
                    st(&mut window, WIDTH, ld(block, 0));
                    ld(&window, o)
                };
                // SAFETY (the panel vectors): at `0` or `zw − WIDTH`, with
                // `zw ≥ 2 · WIDTH`.
                let put = |panel: &mut [i16], i: usize, x: $vec| {
                    let v = if COPY { x } else { $xor(ld(panel, i), x) };
                    st(panel, i, v);
                };
                let (wrapped, head) = block.split_at(rot);
                if rot != 0 && rot < WIDTH && zw >= 2 * WIDTH {
                    xor_piece::<COPY>(panel, 0, &head[..zw - WIDTH]);
                    put(panel, zw - WIDTH, seam(rot));
                } else if rot != 0 && zw - rot < WIDTH && zw >= 2 * WIDTH {
                    put(panel, 0, seam(rot + WIDTH - zw));
                    xor_piece::<COPY>(panel, WIDTH, &wrapped[WIDTH - (zw - rot)..]);
                } else {
                    xor_piece::<COPY>(panel, 0, head);
                    xor_piece::<COPY>(panel, zw - rot, wrapped);
                }
            }

            /// The parity verdicts of a `width`-frame group (see
            /// [`super::parity_verdicts`]). Per layer, the rotated block
            /// column of every slot is XORed into a stack panel of the
            /// layer's `zw = z · width` lanes, as its two stride-1 pieces
            /// (the first slot is copied). The sign bit of a panel lane is
            /// then its row's parity. The verdicts fold out of the panel's
            /// sign bits once per layer, and the pass ends after the first
            /// layer by which every frame has failed.
            ///
            /// The fold reads vectors at multiples of `width` (the step is
            /// the largest multiple of `width` up to `WIDTH`), so lane `j`
            /// of each belongs to frame `j mod width`; lanes two vectors
            /// share are ORed twice, which changes nothing. One last vector
            /// ends at the panel's end, with its own lane-to-frame map.
            /// Groups wider than `WIDTH` and panels narrower than a vector
            /// or wider than the stack panel take the scalar form.
            ///
            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn parity_verdicts(
                compiled: &CompiledCode,
                width: usize,
                app: &[i16],
                failed: &mut [u8],
            ) {
                /// Lanes of the stack panel: every heuristic group width
                /// of every standard mode fits with room to spare.
                const PANEL: usize = 1024;
                let (z, zw) = (compiled.z(), compiled.z() * width);
                if width > WIDTH || !(WIDTH..=PANEL).contains(&zw) {
                    return scalar::parity_verdicts(compiled, width, app, failed);
                }
                let step = WIDTH - WIDTH % width;
                let last = zw - WIDTH;
                // Movemask bit `2j + 1` is the sign of lane `j` (bit `2j`
                // is the low byte's top bit, not a sign). `head[f]` selects
                // frame `f`'s lanes in a vector that starts at a multiple of
                // `width`, `tail[f]` in the last vector.
                let mut head = [0u32; WIDTH];
                let mut tail = [0u32; WIDTH];
                for j in 0..WIDTH {
                    head[j % width] |= 2 << (2 * j);
                    tail[(last + j) % width] |= 2 << (2 * j);
                }
                let every = (1u32 << width) - 1;
                let mut failing = 0u32;
                let mut panel = [0i16; PANEL];
                let panel = &mut panel[..zw];
                for layer in 0..compiled.block_rows() {
                    let lanes = compiled.layer_lanes(layer);
                    for (slot, (&col, &shift)) in lanes.col_base.iter().zip(lanes.shift).enumerate()
                    {
                        assert!(
                            (shift as usize) < z,
                            "circulant shift {shift} not below z = {z}"
                        );
                        let block = &app[col as usize * width..][..zw];
                        let rot = shift as usize * width;
                        if slot == 0 {
                            xor_rotated::<true>(panel, block, rot);
                        } else {
                            xor_rotated::<false>(panel, block, rot);
                        }
                    }
                    if lanes.degree() == 0 {
                        continue;
                    }
                    // SAFETY (all accesses): every vector is at `i ≤ last =
                    // zw − WIDTH` of the `zw`-lane panel.
                    let mut acc = $setzero();
                    let mut i = 0;
                    while i < last {
                        acc = $or(acc, ld(panel, i));
                        i += step;
                    }
                    let h = $movemask(acc) as u32;
                    let t = $movemask(ld(panel, last)) as u32;
                    for f in 0..width {
                        if (h & head[f]) | (t & tail[f]) != 0 {
                            failing |= 1 << f;
                        }
                    }
                    if failing == every {
                        break;
                    }
                }
                for (f, verdict) in failed.iter_mut().enumerate() {
                    *verdict = u8::from(failing >> f & 1 != 0);
                }
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn lut_shuffle_map(table: &[u8; 16], xs: &mut [i16]) {
                let n = xs.len();
                if n < WIDTH {
                    return scalar::lut_shuffle_map(table, xs);
                }
                let t = load_table(table);
                // SAFETY (all accesses): every offset is ≤ n − WIDTH; each
                // span is loaded before it is stored.
                let tail = lookup(t, ld(xs, n - WIDTH));
                let mut i = 0;
                while i + WIDTH <= n {
                    let r = lookup(t, ld(xs, i));
                    st(xs, i, r);
                    i += WIDTH;
                }
                st(xs, n - WIDTH, tail);
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn sub_lanes_remap(
                lo: i16,
                hi: i16,
                app: &[i16],
                lambda: &[i16],
                out: &mut [i16],
            ) {
                assert_same_len!(app, lambda, out);
                let n = app.len();
                if n < WIDTH {
                    return scalar::sub_lanes_remap(lo, hi, app, lambda, out);
                }
                let (vlo, vhi) = ($set1(lo), $set1(hi));
                // SAFETY (all accesses): every offset is ≤ n − WIDTH.
                let op = |i| sub_remap(ld(app, i), ld(lambda, i), vlo, vhi);
                let tail = op(n - WIDTH);
                let mut i = 0;
                while i + WIDTH <= n {
                    st(out, i, op(i));
                    i += WIDTH;
                }
                st(out, n - WIDTH, tail);
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn sub_lanes_clamp(
                lo: i16,
                hi: i16,
                app: &[i16],
                lambda: &[i16],
                out: &mut [i16],
            ) {
                assert_same_len!(app, lambda, out);
                let n = app.len();
                if n < WIDTH {
                    return scalar::sub_lanes_clamp(lo, hi, app, lambda, out);
                }
                let (vlo, vhi) = ($set1(lo), $set1(hi));
                // SAFETY (all accesses): every offset is ≤ n − WIDTH.
                let op = |i| $min($max($subs(ld(app, i), ld(lambda, i)), vlo), vhi);
                let tail = op(n - WIDTH);
                let mut i = 0;
                while i + WIDTH <= n {
                    st(out, i, op(i));
                    i += WIDTH;
                }
                st(out, n - WIDTH, tail);
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn add_lanes_clamp(
                lo: i16,
                hi: i16,
                lam: &[i16],
                upd: &[i16],
                out: &mut [i16],
            ) {
                assert_same_len!(lam, upd, out);
                let n = lam.len();
                if n < WIDTH {
                    return scalar::add_lanes_clamp(lo, hi, lam, upd, out);
                }
                let (vlo, vhi) = ($set1(lo), $set1(hi));
                // SAFETY (all accesses): every offset is ≤ n − WIDTH.
                let op = |i| $min($max($adds(ld(lam, i), ld(upd, i)), vlo), vhi);
                let tail = op(n - WIDTH);
                let mut i = 0;
                while i + WIDTH <= n {
                    st(out, i, op(i));
                    i += WIDTH;
                }
                st(out, n - WIDTH, tail);
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn add_lanes_clamp_i32(
                lo: i32,
                hi: i32,
                lam: &[i32],
                upd: &[i32],
                out: &mut [i32],
            ) {
                assert_same_len!(lam, upd, out);
                let n = lam.len();
                if n < WIDTH32 {
                    return scalar::add_lanes_clamp_i32(lo, hi, lam, upd, out);
                }
                let (vlo, vhi) = ($set1_32(lo), $set1_32(hi));
                // SAFETY (all accesses): every offset is ≤ n − WIDTH32.
                let op = |i| $min32($max32($add32(ld(lam, i), ld(upd, i)), vlo), vhi);
                let tail = op(n - WIDTH32);
                let mut i = 0;
                while i + WIDTH32 <= n {
                    st(out, i, op(i));
                    i += WIDTH32;
                }
                st(out, n - WIDTH32, tail);
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn min_sum_track(
                slot: i16,
                inc: &[i16],
                min1: &mut [i16],
                min2: &mut [i16],
                argmin: &mut [i16],
                parity: &mut [i16],
            ) {
                assert_same_len!(inc, min1, min2, argmin, parity);
                let n = inc.len();
                if n < WIDTH {
                    return scalar::min_sum_track(slot, inc, min1, min2, argmin, parity);
                }
                let vslot = $set1(slot);
                // SAFETY (all accesses): every offset is ≤ n − WIDTH; each
                // span of the state is loaded before it is stored.
                let op = |m1: &[i16], m2: &[i16], am: &[i16], p: &[i16], i| {
                    let l = ld(inc, i);
                    let a = $abs(l);
                    let m1 = ld(m1, i);
                    // `a < m1` in select form; ties keep the earlier argmin,
                    // exactly like the scalar reference.
                    let displaces = $cmpgt(m1, a);
                    (
                        $min(a, m1),
                        $blendv($min(a, ld(m2, i)), m1, displaces),
                        $blendv(ld(am, i), vslot, displaces),
                        $xor(ld(p, i), $srli::<15>(l)),
                    )
                };
                let tail = op(min1, min2, argmin, parity, n - WIDTH);
                let mut i = 0;
                while i + WIDTH <= n {
                    let r = op(min1, min2, argmin, parity, i);
                    st(min1, i, r.0);
                    st(min2, i, r.1);
                    st(argmin, i, r.2);
                    st(parity, i, r.3);
                    i += WIDTH;
                }
                st(min1, n - WIDTH, tail.0);
                st(min2, n - WIDTH, tail.1);
                st(argmin, n - WIDTH, tail.2);
                st(parity, n - WIDTH, tail.3);
            }

            /// # Safety
            /// The CPU must support the module's target feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn min_sum_emit(
                slot: i16,
                max_code: i16,
                inc: &[i16],
                min1: &[i16],
                min2: &[i16],
                argmin: &[i16],
                parity: &[i16],
                out: &mut [i16],
            ) {
                assert_same_len!(inc, min1, min2, argmin, parity, out);
                let n = inc.len();
                if n < WIDTH {
                    return scalar::min_sum_emit(
                        slot, max_code, inc, min1, min2, argmin, parity, out,
                    );
                }
                let (vslot, vmax, vzero) = ($set1(slot), $set1(max_code), $setzero());
                // SAFETY (all accesses): every offset is ≤ n − WIDTH.
                let op = |i| {
                    let l = ld(inc, i);
                    let raw = $blendv(ld(min1, i), ld(min2, i), $cmpeq(ld(argmin, i), vslot));
                    // Saturate then normalise `x − (x >> 2)`; the magnitude
                    // is non-negative so the arithmetic shift is exact.
                    let sat = $min(raw, vmax);
                    let mag = $sub(sat, $srai::<2>(sat));
                    // Negate where parity ⊕ own-sign is 1.
                    let neg = $cmpgt($xor(ld(parity, i), $srli::<15>(l)), vzero);
                    $blendv(mag, $sub(vzero, mag), neg)
                };
                let tail = op(n - WIDTH);
                let mut i = 0;
                while i + WIDTH <= n {
                    st(out, i, op(i));
                    i += WIDTH;
                }
                st(out, n - WIDTH, tail);
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
x86_panel_kernels!(
    avx2,
    "avx2",
    __m256i,
    16,
    _mm256_loadu_si256,
    _mm256_storeu_si256,
    _mm256_set1_epi16,
    _mm256_setzero_si256,
    _mm256_abs_epi16,
    _mm256_min_epi16,
    _mm256_max_epi16,
    _mm256_min_epu16,
    _mm256_add_epi16,
    _mm256_sub_epi16,
    _mm256_adds_epi16,
    _mm256_subs_epi16,
    _mm256_xor_si256,
    _mm256_or_si256,
    _mm256_srli_epi16,
    _mm256_srai_epi16,
    _mm256_cmpeq_epi16,
    _mm256_cmpgt_epi16,
    _mm256_blendv_epi8,
    _mm256_sign_epi16,
    _mm256_shuffle_epi8,
    _mm256_broadcastsi128_si256,
    _mm256_set1_epi32,
    _mm256_add_epi32,
    _mm256_min_epi32,
    _mm256_max_epi32,
    _mm256_movemask_epi8,
    _mm256_and_si256,
    _mm256_set1_epi8,
    _mm256_abs_epi8,
    _mm256_min_epu8,
    _mm256_max_epu8,
    _mm256_min_epi8,
    _mm256_max_epi8,
    _mm256_adds_epu8,
    _mm256_subs_epu8,
    _mm256_cmpeq_epi8,
    _mm256_cmpgt_epi8,
    _mm256_sign_epi8,
    _mm256_packs_epi16,
    _mm256_unpacklo_epi8,
    _mm256_unpackhi_epi8
);

#[cfg(target_arch = "x86_64")]
x86_panel_kernels!(
    sse41,
    "sse4.1",
    __m128i,
    8,
    _mm_loadu_si128,
    _mm_storeu_si128,
    _mm_set1_epi16,
    _mm_setzero_si128,
    _mm_abs_epi16,
    _mm_min_epi16,
    _mm_max_epi16,
    _mm_min_epu16,
    _mm_add_epi16,
    _mm_sub_epi16,
    _mm_adds_epi16,
    _mm_subs_epi16,
    _mm_xor_si128,
    _mm_or_si128,
    _mm_srli_epi16,
    _mm_srai_epi16,
    _mm_cmpeq_epi16,
    _mm_cmpgt_epi16,
    _mm_blendv_epi8,
    _mm_sign_epi16,
    _mm_shuffle_epi8,
    core::convert::identity,
    _mm_set1_epi32,
    _mm_add_epi32,
    _mm_min_epi32,
    _mm_max_epi32,
    _mm_movemask_epi8,
    _mm_and_si128,
    _mm_set1_epi8,
    _mm_abs_epi8,
    _mm_min_epu8,
    _mm_max_epu8,
    _mm_min_epi8,
    _mm_max_epi8,
    _mm_adds_epu8,
    _mm_subs_epu8,
    _mm_cmpeq_epi8,
    _mm_cmpgt_epi8,
    _mm_sign_epi8,
    _mm_packs_epi16,
    _mm_unpacklo_epi8,
    _mm_unpackhi_epi8
);

/// AVX2 channel quantisation: four `f64` LLRs per step, lane-for-lane
/// [`scalar::quantize_one`]. (The SSE4.1 tier runs the scalar loop, which
/// needs no libm call either.)
#[cfg(target_arch = "x86_64")]
mod avx2_quantize {
    use super::{scalar, HALF_DOWN};
    use core::arch::x86_64::*;

    /// Four LLRs to four clamped `i32` codes (plus the zero remap).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn quad(l: __m256d, scale: f64, max_code: i16, remap_zero: bool) -> __m128i {
        let lim = f64::from(max_code) + 1.0;
        let x = _mm256_mul_pd(l, _mm256_set1_pd(scale));
        // NaN → 0.0 (the reference's NaN → code 0), then clamp.
        let x = _mm256_and_pd(x, _mm256_cmp_pd::<_CMP_ORD_Q>(x, x));
        let x = _mm256_min_pd(_mm256_max_pd(x, _mm256_set1_pd(-lim)), _mm256_set1_pd(lim));
        // x + copysign(HALF_DOWN, x), truncated: round half away from zero.
        let half = _mm256_or_pd(
            _mm256_and_pd(x, _mm256_set1_pd(-0.0)),
            _mm256_set1_pd(HALF_DOWN),
        );
        let max = i32::from(max_code);
        let q = _mm_min_epi32(
            _mm_max_epi32(
                _mm256_cvttpd_epi32(_mm256_add_pd(x, half)),
                _mm_set1_epi32(-max),
            ),
            _mm_set1_epi32(max),
        );
        if !remap_zero {
            return q;
        }
        let negative = _mm256_cmp_pd::<_CMP_LT_OQ>(l, _mm256_setzero_pd());
        let remap = _mm256_cvttpd_epi32(_mm256_blendv_pd(
            _mm256_set1_pd(1.0),
            _mm256_set1_pd(-1.0),
            negative,
        ));
        _mm_blendv_epi8(q, remap, _mm_cmpeq_epi32(q, _mm_setzero_si128()))
    }

    /// Quantises `llrs` into `out`, and returns whether every LLR was
    /// finite: the ordered compare `|l| < ∞` (false for ±∞ and NaN) is
    /// AND-accumulated per lane, and one movemask reads it at the end.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_codes(
        scale: f64,
        max_code: i16,
        remap_zero: bool,
        llrs: &[f64],
        out: &mut [i16],
    ) -> bool {
        assert_same_len!(llrs, out);
        let n = llrs.len();
        let (sign, inf) = (_mm256_set1_pd(-0.0), _mm256_set1_pd(f64::INFINITY));
        let finite = |l: __m256d| _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, l), inf);
        let mut all_finite = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 ≤ n and both slices have length n.
            let (l0, l1) = (
                _mm256_loadu_pd(llrs.as_ptr().add(i)),
                _mm256_loadu_pd(llrs.as_ptr().add(i + 4)),
            );
            all_finite = _mm256_and_pd(all_finite, _mm256_and_pd(finite(l0), finite(l1)));
            let lo = quad(l0, scale, max_code, remap_zero);
            let hi = quad(l1, scale, max_code, remap_zero);
            _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm_packs_epi32(lo, hi));
            i += 8;
        }
        let tail = scalar::quantize_codes(scale, max_code, remap_zero, &llrs[i..], &mut out[i..]);
        _mm256_movemask_pd(all_finite) == 0xF && tail
    }
}

// ---------------------------------------------------------------------------
// Safe dispatch wrappers
// ---------------------------------------------------------------------------

/// Dispatches one op to the requested tier (clamped to the detected CPU
/// capability) with the scalar reference as the universal `_` arm.
macro_rules! dispatch {
    ($level:expr, $op:ident ( $($arg:expr),* $(,)? )) => {{
        match $level.effective() {
            // SAFETY: `effective()` caps the level at `detected_level()`,
            // so this arm is only reached on a CPU that reported AVX2.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { avx2::$op($($arg),*) },
            // SAFETY: as above, for SSE4.1.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse41 => unsafe { sse41::$op($($arg),*) },
            _ => scalar::$op($($arg),*),
        }
    }};
}

/// 16-byte table lookup over a panel, in place:
/// `xs[i] = table[min(xs[i] as u16, 15)]` — one `pshufb` per vector on the
/// SIMD tiers.
pub(crate) fn lut_shuffle_map(level: SimdLevel, table: &[u8; 16], xs: &mut [i16]) {
    dispatch!(level, lut_shuffle_map(table, xs))
}

/// The shuffle table the fused panels ([`boxplus_panel`] and the
/// argmin-tracking pair) run through at this level: `Some` on a SIMD tier when the table fits one `pshufb`.
fn fused_table(level: SimdLevel, lut: &CorrectionLut) -> Option<&[u8; 16]> {
    lut.shuffle_table()
        .filter(|_| level.effective() > SimdLevel::Scalar)
}

/// One full ⊞ step over a panel: `out = a ⊞ b` with `lut`'s corrections,
/// bit-identical to the three-pass scalar decomposition (magnitude split →
/// LUT lookup → sign/saturate combine). On a SIMD tier with a 16-byte
/// table the whole operator fuses into one register-resident pass with two
/// `pshufb` lookups and never touches `mins`/`sums`/`diffs`; otherwise the
/// three passes run through that scratch.
///
/// # Panics
///
/// Panics if the slices differ in length or `lut` has no dense table.
pub fn boxplus_panel(
    level: SimdLevel,
    lut: &CorrectionLut,
    max_code: i16,
    a: &[i16],
    b: &[i16],
    out: &mut [i16],
    mins: &mut [i16],
    sums: &mut [i16],
    diffs: &mut [i16],
) {
    match fused_table(level, lut) {
        Some(table) => {
            dispatch!(level, boxplus_shuffle(table, max_code, a, b, out))
        }
        _ => {
            scalar::magnitude_split(max_code, a, b, mins, sums, diffs);
            lut.map_slice_with(level, sums);
            lut.map_slice_with(level, diffs);
            scalar::combine_plus(max_code, a, b, mins, sums, diffs, out);
        }
    }
}

/// One full in-place ⊞ accumulator step over a panel: `acc = acc ⊞ b`.
/// Always the three passes through `mins`/`sums`/`diffs`, with only the
/// LUT lookup tiered: its one caller, the bare-⊟ ablation mode
/// ([`CheckNodeMode::SumExtract`](crate::arith::CheckNodeMode::SumExtract)),
/// is not a hot path.
///
/// # Panics
///
/// Panics if the slices differ in length or `lut` has no dense table.
pub fn boxplus_assign_panel(
    level: SimdLevel,
    lut: &CorrectionLut,
    max_code: i16,
    acc: &mut [i16],
    b: &[i16],
    mins: &mut [i16],
    sums: &mut [i16],
    diffs: &mut [i16],
) {
    scalar::magnitude_split(max_code, acc, b, mins, sums, diffs);
    lut.map_slice_with(level, sums);
    lut.map_slice_with(level, diffs);
    scalar::combine_plus_assign(max_code, acc, b, mins, sums, diffs);
}

/// One full ⊟ step over a panel: `out = a ⊟ b` with `lut`'s corrections.
/// Same three passes as [`boxplus_assign_panel`], for the same reason.
///
/// # Panics
///
/// Panics if the slices differ in length or `lut` has no dense table.
pub fn boxminus_panel(
    level: SimdLevel,
    lut: &CorrectionLut,
    max_code: i16,
    a: &[i16],
    b: &[i16],
    out: &mut [i16],
    mins: &mut [i16],
    sums: &mut [i16],
    diffs: &mut [i16],
) {
    scalar::magnitude_split(max_code, a, b, mins, sums, diffs);
    lut.map_slice_with(level, sums);
    lut.map_slice_with(level, diffs);
    scalar::combine_minus(max_code, a, b, mins, sums, diffs, out);
}

/// One slot of the argmin-tracking ⊞ recursion over a panel. Per lane,
/// with `λ = inc`: a strictly weaker `|λ|` than `min` sets `S' ← S`
/// (`excl`), `min ← |λ|` and `argmin ← slot`; otherwise `S' ← S' ⊞ λ`.
/// Either way `S ← S ⊞ λ` (`total`). Slot 1 is the seed: `total` must hold
/// `λ_0`, the other state panels are write-only and `S'` starts as `λ_0`
/// or `λ_1`. On a SIMD tier with a 16-byte table this is one
/// register-resident pass with two fused ⊞ cores; otherwise two three-pass
/// ⊞ steps through `mins`/`sums`/`diffs` around a select pass.
///
/// # Panics
///
/// Panics if the slices differ in length or `lut` has no dense table.
pub fn boxplus_dual_panel(
    level: SimdLevel,
    lut: &CorrectionLut,
    max_code: i16,
    slot: i16,
    inc: &[i16],
    total: &mut [i16],
    excl: &mut [i16],
    min: &mut [i16],
    argmin: &mut [i16],
    mins: &mut [i16],
    sums: &mut [i16],
    diffs: &mut [i16],
) {
    assert_same_len!(inc, total, excl, min, argmin);
    match fused_table(level, lut) {
        Some(table) => dispatch!(
            level,
            boxplus_dual_shuffle(table, max_code, slot, inc, total, excl, min, argmin)
        ),
        _ => {
            if slot != 1 {
                boxplus_assign_panel(level, lut, max_code, excl, inc, mins, sums, diffs);
            }
            scalar::dual_select(slot, inc, total, excl, min, argmin);
            boxplus_assign_panel(level, lut, max_code, total, inc, mins, sums, diffs);
        }
    }
}

/// Argmin-excluded extraction of one slot over a panel: `out = S'` on the
/// lanes whose `argmin` is `slot`, `out = S ⊟ λ` elsewhere. Same tiering
/// as [`boxplus_panel`], the select fused into the ⊟ pass.
///
/// # Panics
///
/// Panics if the slices differ in length or `lut` has no dense table.
pub fn boxminus_select_panel(
    level: SimdLevel,
    lut: &CorrectionLut,
    max_code: i16,
    slot: i16,
    total: &[i16],
    excl: &[i16],
    argmin: &[i16],
    inc: &[i16],
    out: &mut [i16],
    mins: &mut [i16],
    sums: &mut [i16],
    diffs: &mut [i16],
) {
    assert_same_len!(total, excl, argmin, inc, out);
    match fused_table(level, lut) {
        Some(table) => dispatch!(
            level,
            boxminus_select_shuffle(table, max_code, slot, total, excl, argmin, inc, out)
        ),
        _ => {
            boxminus_panel(level, lut, max_code, total, inc, out, mins, sums, diffs);
            scalar::select_slot(slot, excl, argmin, out);
        }
    }
}

/// One whole argmin-excluded layer update in a single fused pass, in place:
/// for every lane `i` of the `z · width`-lane group and every slot `s` of
/// `layer` (APP block column at `col_base[s] · width`, rotated by
/// `shift[s] · width` lanes; Λ panel at `edge_base[s] · width`), reads
/// `λ_s = L − Λ` (clamped to `±max_code`, zero remapped to ±1 LSB), folds
/// the argmin-tracking ⊞ recursion of [`boxplus_dual_panel`], and writes
/// `Λ′_s` as [`boxminus_select_panel`] would and `L′_s = λ_s + Λ′_s` clamped
/// to `±app_max`. Bit-identical to the three-call layer update built from
/// [`sub_lanes_remap`], those two panels and [`add_lanes_clamp`]; `plus` and
/// `minus` are the 16-byte `pshufb` forms of the ⊞ and ⊟ tables, and the
/// format must fit the byte lanes ([`fits_byte_lanes`]). On a SIMD tier each
/// pair of `i16` vectors of lanes reads its L and Λ once and writes them
/// once, with the check node in `i8` lanes (32 rows per AVX2 vector); the
/// scalar tier and the lanes past the last whole vector run the
/// lane-for-lane `i16` scalar twin. The slots must address pairwise distinct
/// block columns (one circulant per block column per layer).
///
/// # Panics
///
/// Panics unless the format fits the byte lanes, the layer degree is in
/// `2..=`[`MAX_FUSED_DEGREE`], every shift is below `z`, and every slot's
/// block column and Λ panel lie inside `app` and `lambda`.
pub fn layer_update_argmin(
    level: SimdLevel,
    plus: &[u8; 16],
    minus: &[u8; 16],
    max_code: i16,
    app_max: i16,
    layer: &LaneLayer<'_>,
    z: usize,
    width: usize,
    app: &mut [i16],
    lambda: &mut [i16],
) {
    assert!(
        fits_byte_lanes(max_code, plus, minus),
        "fused layer update needs messages of at most 8 bits and corrections ≤ 128"
    );
    dispatch!(
        level,
        layer_update_argmin(plus, minus, max_code, app_max, layer, z, width, app, lambda)
    )
}

/// Whether a message format fits the byte lanes of [`layer_update_argmin`]:
/// messages of at most 8 bits (`max_code ≤ 127`, so every `λ` packs into an
/// `i8` exactly) and every correction of both tables at most 128 (so a
/// magnitude plus a correction fits a `u8`). The paper's Q6.2 3-bit tables
/// fit; every format with a wider message takes the three-call body.
#[must_use]
pub fn fits_byte_lanes(max_code: i16, plus: &[u8; 16], minus: &[u8; 16]) -> bool {
    (1..=127).contains(&max_code) && plus.iter().chain(minus).all(|&c| c <= 128)
}

/// The parity verdict of every frame of a `width`-frame group of `i16`
/// APP codes: `failed[slot]` is 0 exactly when the hard decisions (the
/// signs) of packed column `slot` of `app` (`app[i · width + slot]`)
/// satisfy every parity check of `compiled`, and 1 otherwise. For `i16`
/// codes the sign bit of an XOR is the parity of the operands' signs, so a
/// row's parity is the sign of the XOR of its codes: the SIMD tiers XOR
/// whole vectors of rows, read through the rotation like
/// [`layer_update_argmin`], and stop at the first layer by which every
/// frame has failed. A verdict depends on its own frame's column alone.
///
/// # Panics
///
/// Panics if `app.len() != compiled.n() · width` or `failed.len() !=
/// width`.
pub fn parity_verdicts(
    level: SimdLevel,
    compiled: &CompiledCode,
    width: usize,
    app: &[i16],
    failed: &mut [u8],
) {
    assert_eq!(
        app.len(),
        compiled.n() * width,
        "APP memory of another shape"
    );
    assert_eq!(failed.len(), width, "one verdict per frame");
    dispatch!(level, parity_verdicts(compiled, width, app, failed))
}

/// `λ = L − Λ` over a panel with the fixed-BP ±1-LSB zero remap
/// (`out = clamp(a − b, lo, hi)` with a saturating subtraction, zeros
/// remapped to `sign(a)·1`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sub_lanes_remap(
    level: SimdLevel,
    lo: i16,
    hi: i16,
    app: &[i16],
    lambda: &[i16],
    out: &mut [i16],
) {
    assert_same_len!(app, lambda, out);
    dispatch!(level, sub_lanes_remap(lo, hi, app, lambda, out))
}

/// Plain saturating `λ = L − Λ` clamp over a panel (fixed Min-Sum).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sub_lanes_clamp(
    level: SimdLevel,
    lo: i16,
    hi: i16,
    app: &[i16],
    lambda: &[i16],
    out: &mut [i16],
) {
    assert_same_len!(app, lambda, out);
    dispatch!(level, sub_lanes_clamp(lo, hi, app, lambda, out))
}

/// `L = λ + Λ′` over a panel (saturating add), clamped to the (wider) APP
/// range.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_lanes_clamp(
    level: SimdLevel,
    lo: i16,
    hi: i16,
    lam: &[i16],
    upd: &[i16],
    out: &mut [i16],
) {
    assert_same_len!(lam, upd, out);
    dispatch!(level, add_lanes_clamp(lo, hi, lam, upd, out))
}

/// `out = clamp(a + b, lo, hi)` over `i32` lanes (wrapping add) — the HARQ
/// combiner's saturate-on-read pass over the wide accumulator.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_lanes_clamp_i32(
    level: SimdLevel,
    lo: i32,
    hi: i32,
    a: &[i32],
    b: &[i32],
    out: &mut [i32],
) {
    assert_same_len!(a, b, out);
    dispatch!(level, add_lanes_clamp_i32(lo, hi, a, b, out))
}

/// One slot of the Min-Sum two-minima tracking pass over a panel, in select
/// form with first-wins tie semantics.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn min_sum_track(
    level: SimdLevel,
    slot: i16,
    inc: &[i16],
    min1: &mut [i16],
    min2: &mut [i16],
    argmin: &mut [i16],
    parity: &mut [i16],
) {
    assert_same_len!(inc, min1, min2, argmin, parity);
    dispatch!(level, min_sum_track(slot, inc, min1, min2, argmin, parity))
}

/// One slot of the Min-Sum output pass over a panel: second minimum at the
/// argmin, first minimum elsewhere, saturated and `α = 0.75`-normalised,
/// sign = row parity ⊕ own sign.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn min_sum_emit(
    level: SimdLevel,
    slot: i16,
    max_code: i16,
    inc: &[i16],
    min1: &[i16],
    min2: &[i16],
    argmin: &[i16],
    parity: &[i16],
    out: &mut [i16],
) {
    assert_same_len!(inc, min1, min2, argmin, parity, out);
    dispatch!(
        level,
        min_sum_emit(slot, max_code, inc, min1, min2, argmin, parity, out)
    )
}

/// Quantises channel LLRs to `i16` codes in one pass:
/// `out[i] = FixedFormat::quantize(llrs[i])` for the format with `2^F =
/// scale` and `max_code`, plus — when `remap_zero` is set — the fixed-BP
/// remap of code 0 to ±1 (−1 for negative LLRs, +1 otherwise, NaN
/// included). Ties round away from zero; no libm call at any tier; four
/// lanes per step on AVX2. Returns whether every LLR was finite, tested in
/// the same pass (the codes of ±∞ and NaN are defined but meaningless).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn quantize_codes(
    level: SimdLevel,
    scale: f64,
    max_code: i16,
    remap_zero: bool,
    llrs: &[f64],
    out: &mut [i16],
) -> bool {
    assert_same_len!(llrs, out);
    match level.effective() {
        // SAFETY: `effective()` caps the level at `detected_level()`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe {
            avx2_quantize::quantize_codes(scale, max_code, remap_zero, llrs, out)
        },
        _ => scalar::quantize_codes(scale, max_code, remap_zero, llrs, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::FixedFormat;
    use crate::lut::CorrectionKind;

    #[test]
    fn force_scalar_parses_like_a_boolean_knob() {
        for &(raw, want) in crate::env::FLAG_SPELLINGS {
            assert_eq!(
                crate::env::parse_flag("LDPC_FORCE_SCALAR", raw),
                want,
                "{raw:?}"
            );
        }
    }

    #[test]
    fn effective_never_exceeds_detected_and_is_idempotent() {
        let det = detected_level();
        for lvl in [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2] {
            let eff = lvl.effective();
            assert!(eff <= det);
            assert!(eff <= lvl);
            assert_eq!(eff.effective(), eff);
        }
        assert_eq!(SimdLevel::Scalar.effective(), SimdLevel::Scalar);
        assert!(active_level() <= det);
    }

    #[test]
    fn level_names_are_the_ci_spellings() {
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Sse41.name(), "sse4.1");
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
    }

    /// Deterministic panel covering saturation, zeros and sign changes.
    fn panel(n: usize, seed: usize) -> Vec<i16> {
        (0..n)
            .map(|i| {
                let v = ((i.wrapping_mul(2654435761).wrapping_add(seed * 97)) % 255) as i16 - 127;
                if i % 17 == 0 {
                    v.signum() * 127
                } else {
                    v
                }
            })
            .collect()
    }

    /// Every level must match the scalar reference on every op, including
    /// ragged tails (lengths straddling both vector widths).
    #[test]
    fn all_levels_match_scalar_on_every_op() {
        let max_code = 127;
        let (lo, hi) = (-127, 127);
        let lut = CorrectionLut::new(CorrectionKind::Plus, FixedFormat::default(), 3);
        let table = lut.shuffle_table().expect("Q6.2 3-bit table fits pshufb");
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 23, 31, 33, 96, 101] {
            let a = panel(n, 1);
            let b = panel(n, 2);
            let mags: Vec<i16> = a.iter().map(|x| x.abs()).collect();
            for level in [SimdLevel::Sse41, SimdLevel::Avx2] {
                let (mut o1, mut o2) = (vec![0; n], vec![0; n]);
                let (mut m1, mut s1, mut d1) = (vec![0; n], vec![0; n], vec![0; n]);
                let (mut acc1, mut acc2) = (a.clone(), a.clone());

                // LUT lookups
                let (mut x1, mut x2) = (mags.clone(), mags.clone());
                scalar::lut_shuffle_map(table, &mut x1);
                lut_shuffle_map(level, table, &mut x2);
                assert_eq!(x1, x2, "lut_shuffle {level:?} n={n}");

                // Fused box panels vs the three-pass scalar reference.
                let mut scratch = (vec![0; n], vec![0; n], vec![0; n]);
                scalar::magnitude_split(max_code, &a, &b, &mut m1, &mut s1, &mut d1);
                scalar::lut_map_dense(lut.dense_table(), &mut s1);
                scalar::lut_map_dense(lut.dense_table(), &mut d1);
                scalar::combine_plus(max_code, &a, &b, &m1, &s1, &d1, &mut o1);
                boxplus_panel(
                    level,
                    &lut,
                    max_code,
                    &a,
                    &b,
                    &mut o2,
                    &mut scratch.0,
                    &mut scratch.1,
                    &mut scratch.2,
                );
                assert_eq!(o1, o2, "boxplus_panel {level:?} n={n}");
                scalar::magnitude_split(max_code, &a, &b, &mut m1, &mut s1, &mut d1);
                scalar::lut_map_dense(lut.dense_table(), &mut s1);
                scalar::lut_map_dense(lut.dense_table(), &mut d1);
                scalar::combine_minus(max_code, &a, &b, &m1, &s1, &d1, &mut o1);
                boxminus_panel(
                    level,
                    &lut,
                    max_code,
                    &a,
                    &b,
                    &mut o2,
                    &mut scratch.0,
                    &mut scratch.1,
                    &mut scratch.2,
                );
                assert_eq!(o1, o2, "boxminus_panel {level:?} n={n}");
                acc1.copy_from_slice(&a);
                acc2.copy_from_slice(&a);
                scalar::magnitude_split(max_code, &acc1, &b, &mut m1, &mut s1, &mut d1);
                scalar::lut_map_dense(lut.dense_table(), &mut s1);
                scalar::lut_map_dense(lut.dense_table(), &mut d1);
                scalar::combine_plus_assign(max_code, &mut acc1, &b, &m1, &s1, &d1);
                boxplus_assign_panel(
                    level,
                    &lut,
                    max_code,
                    &mut acc2,
                    &b,
                    &mut scratch.0,
                    &mut scratch.1,
                    &mut scratch.2,
                );
                assert_eq!(acc1, acc2, "boxplus_assign_panel {level:?} n={n}");

                // Argmin-tracking dual ⊞ over four slots (seed included),
                // then the selecting ⊟ of every slot: fused (or the scalar
                // twin below one vector) vs the scalar-tier three-pass path.
                let slots = [&a, &b, &mags, &b];
                let mut dual1 = [a.clone(), vec![0; n], vec![0; n], vec![0; n]];
                let mut dual2 = dual1.clone();
                for (slot, inc) in slots.iter().enumerate().skip(1) {
                    for (lvl, [total, excl, min, argmin]) in
                        [(SimdLevel::Scalar, &mut dual1), (level, &mut dual2)]
                    {
                        boxplus_dual_panel(
                            lvl,
                            &lut,
                            max_code,
                            slot as i16,
                            inc,
                            total,
                            excl,
                            min,
                            argmin,
                            &mut scratch.0,
                            &mut scratch.1,
                            &mut scratch.2,
                        );
                    }
                    assert_eq!(dual1, dual2, "boxplus_dual slot {slot} {level:?} n={n}");
                }
                for (slot, inc) in slots.iter().enumerate() {
                    for (lvl, out) in [(SimdLevel::Scalar, &mut o1), (level, &mut o2)] {
                        boxminus_select_panel(
                            lvl,
                            &lut,
                            max_code,
                            slot as i16,
                            &dual1[0],
                            &dual1[1],
                            &dual1[3],
                            inc,
                            out,
                            &mut scratch.0,
                            &mut scratch.1,
                            &mut scratch.2,
                        );
                    }
                    assert_eq!(o1, o2, "boxminus_select slot {slot} {level:?} n={n}");
                }

                // sub/add lanes
                scalar::sub_lanes_remap(lo, hi, &a, &b, &mut o1);
                sub_lanes_remap(level, lo, hi, &a, &b, &mut o2);
                assert_eq!(o1, o2, "sub_remap {level:?} n={n}");
                scalar::sub_lanes_clamp(lo, hi, &a, &b, &mut o1);
                sub_lanes_clamp(level, lo, hi, &a, &b, &mut o2);
                assert_eq!(o1, o2, "sub_clamp {level:?} n={n}");
                scalar::add_lanes_clamp(4 * lo, 4 * hi, &a, &b, &mut o1);
                add_lanes_clamp(level, 4 * lo, 4 * hi, &a, &b, &mut o2);
                assert_eq!(o1, o2, "add_clamp {level:?} n={n}");
                let (wa, wb): (Vec<i32>, Vec<i32>) = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| (i32::from(x) * 300, i32::from(y)))
                    .unzip();
                let (mut w1, mut w2) = (vec![0; n], vec![0; n]);
                scalar::add_lanes_clamp_i32(-127, 127, &wa, &wb, &mut w1);
                add_lanes_clamp_i32(level, -127, 127, &wa, &wb, &mut w2);
                assert_eq!(w1, w2, "add_clamp_i32 {level:?} n={n}");

                // min-sum track + emit across three slots (covers ties,
                // displacement and the sentinel).
                let mut st1 = (vec![i16::MAX; n], vec![i16::MAX; n], vec![0; n], vec![0; n]);
                let mut st2 = st1.clone();
                for (slot, inc) in [&a, &b, &mags].into_iter().enumerate() {
                    scalar::min_sum_track(
                        slot as i16,
                        inc,
                        &mut st1.0,
                        &mut st1.1,
                        &mut st1.2,
                        &mut st1.3,
                    );
                    min_sum_track(
                        level,
                        slot as i16,
                        inc,
                        &mut st2.0,
                        &mut st2.1,
                        &mut st2.2,
                        &mut st2.3,
                    );
                    assert_eq!(st1, st2, "min_sum_track slot {slot} {level:?} n={n}");
                }
                for (slot, inc) in [&a, &b, &mags].into_iter().enumerate() {
                    scalar::min_sum_emit(
                        slot as i16,
                        max_code,
                        inc,
                        &st1.0,
                        &st1.1,
                        &st1.2,
                        &st1.3,
                        &mut o1,
                    );
                    min_sum_emit(
                        level,
                        slot as i16,
                        max_code,
                        inc,
                        &st2.0,
                        &st2.1,
                        &st2.2,
                        &st2.3,
                        &mut o2,
                    );
                    assert_eq!(o1, o2, "min_sum_emit slot {slot} {level:?} n={n}");
                }
            }
        }
    }

    /// The byte lanes of the fused layer pass, exhaustively: for every
    /// message format of 3 to 8 bits (every fractional width, 1- to 3-bit
    /// tables) whose tables fit one `pshufb` and the byte lanes, the byte
    /// ⊞ and ⊟ of every pair of codes in `[−max, max]²` equal the scalar
    /// `box_lane` in magnitude and sign, at SSE4.1 and AVX2.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn byte_lane_box_ops_match_the_scalar_lane_for_every_small_format() {
        let mut checked = 0;
        for w in 3..=8 {
            for f in 0..w {
                for bits in 1..=3 {
                    let format = FixedFormat::new(w, f);
                    let [plus, minus] = [CorrectionKind::Plus, CorrectionKind::Minus]
                        .map(|kind| CorrectionLut::new(kind, format, bits));
                    let (Some(tp), Some(tm)) = (plus.shuffle_table(), minus.shuffle_table()) else {
                        continue;
                    };
                    let max = format.max_code() as i16;
                    if !fits_byte_lanes(max, tp, tm) {
                        continue;
                    }
                    checked += 1;
                    let (mut a, mut b): (Vec<i16>, Vec<i16>) = (-max..=max)
                        .flat_map(|x| (-max..=max).map(move |y| (x, y)))
                        .unzip();
                    // Whole byte vectors at either tier; the padding pairs
                    // (0, 0) are in the domain too.
                    let n = a.len().next_multiple_of(32);
                    a.resize(n, 0);
                    b.resize(n, 0);
                    let (x, y): (Vec<i8>, Vec<i8>) =
                        a.iter().zip(&b).map(|(&p, &q)| (p as i8, q as i8)).unzip();
                    for (minus, table) in [(false, tp), (true, tm)] {
                        let lut = |v| scalar::shuffle_lane(table, v);
                        let want: Vec<i8> = a
                            .iter()
                            .zip(&b)
                            .map(|(&p, &q)| {
                                let r = if minus {
                                    scalar::box_lane::<true>(max, p, q, lut)
                                } else {
                                    scalar::box_lane::<false>(max, p, q, lut)
                                };
                                r as i8
                            })
                            .collect();
                        for level in [SimdLevel::Sse41, SimdLevel::Avx2] {
                            if level.effective() != level {
                                continue;
                            }
                            let mut got = vec![0i8; n];
                            let m = max as i8;
                            // SAFETY: the level is one the CPU reported.
                            unsafe {
                                match (level, minus) {
                                    (SimdLevel::Avx2, false) => {
                                        avx2::box_bytes::<false>(table, m, &x, &y, &mut got)
                                    }
                                    (SimdLevel::Avx2, true) => {
                                        avx2::box_bytes::<true>(table, m, &x, &y, &mut got)
                                    }
                                    (_, false) => {
                                        sse41::box_bytes::<false>(table, m, &x, &y, &mut got)
                                    }
                                    (_, true) => {
                                        sse41::box_bytes::<true>(table, m, &x, &y, &mut got)
                                    }
                                }
                            }
                            let at = format!("{format} {bits}-bit minus={minus} {level:?}");
                            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                                assert_eq!(g, w, "{at}: ({}, {})", a[k], b[k]);
                            }
                        }
                    }
                }
            }
        }
        // The paper's Q6.2 3-bit datapath is among the formats checked.
        let paper = CorrectionLut::new(CorrectionKind::Plus, FixedFormat::default(), 3);
        let minus = CorrectionLut::new(CorrectionKind::Minus, FixedFormat::default(), 3);
        assert!(fits_byte_lanes(
            127,
            paper.shuffle_table().unwrap(),
            minus.shuffle_table().unwrap()
        ));
        assert!(checked >= 20, "only {checked} formats fit the byte lanes");
    }

    /// Formats wider than 8 bits never fit the byte lanes.
    #[test]
    fn wide_messages_do_not_fit_the_byte_lanes() {
        let format = FixedFormat::new(10, 2);
        let [plus, minus] = [CorrectionKind::Plus, CorrectionKind::Minus]
            .map(|kind| CorrectionLut::new(kind, format, 3));
        let (tp, tm) = (
            plus.shuffle_table().unwrap(),
            minus.shuffle_table().unwrap(),
        );
        assert!(fits_byte_lanes(127, tp, tm));
        assert!(!fits_byte_lanes(format.max_code() as i16, tp, tm));
        assert!(!fits_byte_lanes(127, tp, &[129; 16]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrappers_reject_mismatched_lengths() {
        let mut out = vec![0; 4];
        sub_lanes_clamp(SimdLevel::Scalar, -10, 10, &[1, 2, 3], &[1, 2, 3], &mut out);
    }
}
