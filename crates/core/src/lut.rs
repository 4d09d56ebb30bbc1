//! 3-bit lookup tables for the non-linear correction terms.
//!
//! In hardware the correction terms `log(1 + e^{-x})` and `log(1 − e^{-x})` of
//! Eq. (2) are approximated with small lookup tables — the paper uses 3-bit
//! (8-entry) LUTs following Hu et al. \[9\]. [`CorrectionLut`] reproduces that
//! approximation bit-accurately: the input magnitude (a fixed-point code) is
//! mapped to one of `2^address_bits` regions and each region returns a
//! pre-quantised correction code.

use crate::arith::simd::{self, SimdLevel};
use crate::fixedpoint::FixedFormat;

/// Which correction term the table approximates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrectionKind {
    /// `log(1 + e^{-x})`, used by the `f(·)` (⊞) unit.
    Plus,
    /// `−log(1 − e^{-x})` (stored as a non-negative magnitude), used by the
    /// `g(·)` (⊟) unit.
    Minus,
}

/// A small lookup table approximating one correction term in the fixed-point
/// code domain.
///
/// Besides the branchy scalar [`CorrectionLut::lookup`] (kept as the
/// bit-identity reference), the table carries branch-free derived forms
/// used by the panel kernels:
///
/// * `extended` — the region table with the saturation entry appended, so a
///   lookup becomes `extended[min(x / region_width, extended.len() − 1)]`:
///   a clamped, saturating index instead of a per-element region branch;
/// * `dense` — when the covered input range is small and every entry fits
///   `i16` (true of the 3-bit tables of every message format up to 14 bits:
///   `2^address_bits · region_width + 1` codes, 9 entries for the paper's
///   Q6.2 operating point), the table expanded to one `i16` entry *per
///   input code*, so the lookup is `dense[min(x, dense.len() − 1)]` with no
///   division at all;
/// * `shuffle` — when the dense table fits in 16 bytes (at most 16 entries,
///   each in `0..=255`), the same table as a byte-shuffle operand: the SIMD
///   tiers look 8/16 lanes up at once with one `pshufb`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectionLut {
    kind: CorrectionKind,
    format: FixedFormat,
    address_bits: u32,
    /// Input codes `>= cutoff` return the saturation entry (last table value).
    region_width: i32,
    table: Vec<i32>,
    /// `table` plus the saturation entry: region lookups clamp into this.
    extended: Vec<i32>,
    /// Per-input-code expansion of the whole table (empty above
    /// [`CorrectionLut::DENSE_LIMIT`] or when an entry does not fit `i16`);
    /// index clamps to the last entry.
    dense: Vec<i16>,
    /// `dense` as a 16-byte shuffle table (padded with the last entry), when
    /// it fits.
    shuffle: Option<[u8; 16]>,
}

impl CorrectionLut {
    /// Builds a LUT with `address_bits` address bits (the paper uses 3) for
    /// the given message format.
    ///
    /// The input range `[0, x_max)` covered by the table is chosen so that the
    /// correction term has decayed below half an LSB at `x_max`; beyond the
    /// table the `Plus` correction returns 0 and the `Minus` correction
    /// returns its last (smallest) entry.
    ///
    /// # Panics
    ///
    /// Panics if `address_bits` is 0 or greater than 8.
    #[must_use]
    pub fn new(kind: CorrectionKind, format: FixedFormat, address_bits: u32) -> Self {
        assert!(
            (1..=8).contains(&address_bits),
            "address_bits must be in 1..=8"
        );
        let entries = 1usize << address_bits;
        // Cover x in [0, 2.0): beyond 2.0 both corrections are below 0.13,
        // i.e. at or below one LSB of the default Q6.2 format.
        let covered_range = 2.0;
        let region_width_real = covered_range / entries as f64;
        // Region width in codes (at least one code per region).
        let region_width = ((region_width_real / format.step()).round() as i32).max(1);
        let table = (0..entries)
            .map(|i| {
                let value = match kind {
                    // Evaluate log(1+e^-x) at the centre of each region
                    // (minimises the absolute approximation error).
                    CorrectionKind::Plus => {
                        let x = (i as f64 + 0.5) * region_width as f64 * format.step();
                        crate::boxplus::correction_plus(x)
                    }
                    // Evaluate −log(1−e^-x) at the *end* of each region: the
                    // function diverges at 0, and over-estimating it would
                    // inject over-confident extrinsic messages exactly at the
                    // weakest bit positions (where the ⊟ extraction sees a
                    // near-zero |S|−|λ| difference). Under-estimation merely
                    // slows convergence, so the conservative edge is used.
                    CorrectionKind::Minus => {
                        let x = (i as f64 + 1.0) * region_width as f64 * format.step();
                        crate::boxplus::correction_minus(x)
                    }
                };
                format.quantize(value)
            })
            .collect::<Vec<i32>>();
        let saturation = match kind {
            CorrectionKind::Plus => 0,
            CorrectionKind::Minus => *table.last().expect("table is non-empty"),
        };
        let mut extended = table.clone();
        extended.push(saturation);
        // Expand to one entry per input code when the covered range is small:
        // index `min(x, len − 1)` then reproduces `lookup` for every x ≥ 0
        // (all codes at or beyond the cutoff share the saturation entry).
        let cutoff = region_width as usize * entries;
        let fits_i16 = extended.iter().all(|&e| i16::try_from(e).is_ok());
        let dense: Vec<i16> = if cutoff < Self::DENSE_LIMIT && fits_i16 {
            (0..=cutoff)
                .map(|x| extended[(x / region_width as usize).min(entries)] as i16)
                .collect()
        } else {
            Vec::new()
        };
        let shuffle = (!dense.is_empty()
            && dense.len() <= 16
            && dense.iter().all(|&e| (0..=255).contains(&e)))
        .then(|| {
            let mut bytes = [0u8; 16];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = dense[i.min(dense.len() - 1)] as u8;
            }
            bytes
        });
        CorrectionLut {
            kind,
            format,
            address_bits,
            region_width,
            table,
            extended,
            dense,
            shuffle,
        }
    }

    /// The standard pair of 3-bit LUTs used by the paper's SISO decoder for a
    /// given message format: `(plus, minus)`.
    #[must_use]
    pub fn standard_pair(format: FixedFormat) -> (CorrectionLut, CorrectionLut) {
        (
            CorrectionLut::new(CorrectionKind::Plus, format, 3),
            CorrectionLut::new(CorrectionKind::Minus, format, 3),
        )
    }

    /// Which correction term this table approximates.
    #[must_use]
    pub fn kind(&self) -> CorrectionKind {
        self.kind
    }

    /// Number of address bits.
    #[must_use]
    pub fn address_bits(&self) -> u32 {
        self.address_bits
    }

    /// Number of table entries, `2^address_bits`.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// The raw table contents (correction codes).
    #[must_use]
    pub fn table(&self) -> &[i32] {
        &self.table
    }

    /// Looks up the correction code for a non-negative input code.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `x_code` is negative.
    #[must_use]
    pub fn lookup(&self, x_code: i32) -> i32 {
        debug_assert!(x_code >= 0, "LUT input must be a magnitude");
        let region = (x_code / self.region_width) as usize;
        if region < self.table.len() {
            self.table[region]
        } else {
            match self.kind {
                CorrectionKind::Plus => 0,
                // The Minus correction saturates to its smallest table entry;
                // it never reaches exactly zero for finite inputs.
                CorrectionKind::Minus => *self.table.last().expect("table is non-empty"),
            }
        }
    }

    /// Expanded-table budget for the dense (division-free) form. Any format
    /// with a per-code region resolution up to this many covered codes gets
    /// the dense table (if its entries fit `i16`); coarser-than-usual formats
    /// (very many fractional bits) keep only the divide-then-clamp form.
    pub const DENSE_LIMIT: usize = 1 << 16;

    /// The per-input-code dense expansion of the table (empty for formats
    /// past [`CorrectionLut::DENSE_LIMIT`] or with entries outside `i16`).
    /// This is the array the 16-bit panel kernels look up through
    /// (`dense[min(x, last)]`, index clamp in unsigned space); exposed so
    /// kernels and tests can address it directly.
    #[must_use]
    pub fn dense_table(&self) -> &[i16] {
        &self.dense
    }

    /// The dense table as a 16-byte `pshufb` operand (entry `i` at byte `i`,
    /// padded with the saturation entry), or `None` when the dense table has
    /// more than 16 entries or an entry outside `0..=255`. The paper's Q6.2
    /// and Q5.1 3-bit tables fit.
    #[must_use]
    pub fn shuffle_table(&self) -> Option<&[u8; 16]> {
        self.shuffle.as_ref()
    }

    /// Branch-free slice lookup over `i32` codes of any format:
    /// `out[i] = lookup(xs[i])` for non-negative input codes, computed as a
    /// clamped saturating index (no per-element region branch) —
    /// `dense[min(x, last)]` when the dense expansion exists,
    /// `extended[min(x / region_width, last)]` otherwise.
    /// [`CorrectionLut::lookup`] is the scalar bit-identity reference.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length; debug-asserts every input is a
    /// non-negative magnitude.
    pub fn lookup_slice(&self, xs: &[i32], out: &mut [i32]) {
        assert_eq!(xs.len(), out.len(), "lookup_slice length mismatch");
        out.copy_from_slice(xs);
        self.map_slice(out);
    }

    /// In-place [`CorrectionLut::lookup_slice`]: `xs[i] = lookup(xs[i])`.
    ///
    /// # Panics
    ///
    /// Debug-asserts every input is a non-negative magnitude.
    pub fn map_slice(&self, xs: &mut [i32]) {
        debug_assert!(xs.iter().all(|&x| x >= 0), "LUT input must be a magnitude");
        if self.dense.is_empty() {
            let last = self.extended.len() - 1;
            let width = self.region_width;
            for x in xs.iter_mut() {
                *x = self.extended[((*x / width) as usize).min(last)];
            }
        } else {
            let last = self.dense.len() - 1;
            for x in xs.iter_mut() {
                *x = i32::from(self.dense[(*x as usize).min(last)]);
            }
        }
    }

    /// The 16-bit panel lookup: `out[i] = lookup(xs[i])` over `i16`
    /// magnitudes, dispatched to `level` (clamped to the detected CPU
    /// capability): one `pshufb` per vector on the SIMD tiers when the table
    /// has a [`CorrectionLut::shuffle_table`], the scalar clamped-index loop
    /// through [`CorrectionLut::dense_table`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the table has no dense form;
    /// debug-asserts every input is a non-negative magnitude.
    pub fn lookup_slice_with(&self, level: SimdLevel, xs: &[i16], out: &mut [i16]) {
        assert_eq!(xs.len(), out.len(), "lookup_slice length mismatch");
        out.copy_from_slice(xs);
        self.map_slice_with(level, out);
    }

    /// In-place [`CorrectionLut::lookup_slice_with`].
    ///
    /// # Panics
    ///
    /// Panics if the table has no dense form; debug-asserts every input is a
    /// non-negative magnitude.
    pub fn map_slice_with(&self, level: SimdLevel, xs: &mut [i16]) {
        debug_assert!(xs.iter().all(|&x| x >= 0), "LUT input must be a magnitude");
        assert!(
            !self.dense.is_empty(),
            "16-bit panel lookup needs a dense table"
        );
        match &self.shuffle {
            Some(table) => simd::lut_shuffle_map(level, table, xs),
            None => simd::scalar::lut_map_dense(&self.dense, xs),
        }
    }

    /// The exact (unquantised) correction this table approximates, for
    /// accuracy analysis.
    #[must_use]
    pub fn exact(&self, x: f64) -> f64 {
        match self.kind {
            CorrectionKind::Plus => crate::boxplus::correction_plus(x),
            CorrectionKind::Minus => crate::boxplus::correction_minus(x),
        }
    }

    /// Worst-case absolute approximation error (in LLR units) over the covered
    /// input range, sampled at every representable input code.
    #[must_use]
    pub fn max_error(&self) -> f64 {
        let max_input = self.region_width * self.table.len() as i32 * 2;
        (1..=max_input)
            .map(|code| {
                let x = self.format.dequantize(code);
                (self.exact(x) - self.format.dequantize(self.lookup(code))).abs()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_pair_is_3_bit() {
        let (plus, minus) = CorrectionLut::standard_pair(FixedFormat::default());
        assert_eq!(plus.address_bits(), 3);
        assert_eq!(minus.address_bits(), 3);
        assert_eq!(plus.entries(), 8);
        assert_eq!(minus.entries(), 8);
        assert_eq!(plus.kind(), CorrectionKind::Plus);
        assert_eq!(minus.kind(), CorrectionKind::Minus);
    }

    #[test]
    fn plus_table_is_monotone_non_increasing_and_ends_near_zero() {
        let (plus, _) = CorrectionLut::standard_pair(FixedFormat::default());
        let t = plus.table();
        assert!(t.windows(2).all(|w| w[0] >= w[1]));
        assert!(t[0] >= 2, "log(2) ≈ 0.69 is roughly 3 LSBs in Q6.2");
        assert!(*t.last().unwrap() <= 1);
        // Beyond the covered range the correction is zero.
        assert_eq!(plus.lookup(1000), 0);
    }

    #[test]
    fn minus_table_is_monotone_and_saturates() {
        let (_, minus) = CorrectionLut::standard_pair(FixedFormat::default());
        let t = minus.table();
        assert!(t.windows(2).all(|w| w[0] >= w[1]));
        assert!(t[0] > t[t.len() - 1]);
        // Far inputs return the last entry, not zero: g keeps a small bias.
        assert_eq!(minus.lookup(1000), *t.last().unwrap());
    }

    #[test]
    fn lookup_matches_exact_value_within_tolerance() {
        let format = FixedFormat::default();
        let (plus, minus) = CorrectionLut::standard_pair(format);
        // Within the covered range the 3-bit LUT should be within ~0.4 of the
        // exact correction (coarse but sufficient, per Hu et al.).
        assert!(plus.max_error() < 0.45, "plus error {}", plus.max_error());
        // The minus correction diverges at 0, so measure from 0.5 onwards.
        for code in 2..16 {
            let x = format.dequantize(code);
            let err = (minus.exact(x) - format.dequantize(minus.lookup(code))).abs();
            assert!(err < 0.8, "minus error {err} at x={x}");
        }
    }

    #[test]
    fn more_address_bits_reduce_error() {
        let format = FixedFormat::new(10, 4);
        let coarse = CorrectionLut::new(CorrectionKind::Plus, format, 2);
        let fine = CorrectionLut::new(CorrectionKind::Plus, format, 5);
        assert!(fine.max_error() <= coarse.max_error());
    }

    #[test]
    #[should_panic(expected = "address_bits")]
    fn rejects_zero_address_bits() {
        let _ = CorrectionLut::new(CorrectionKind::Plus, FixedFormat::default(), 0);
    }

    #[test]
    fn lookup_slice_matches_scalar_lookup_everywhere() {
        // The branch-free clamped-index forms must be bit-identical to the
        // branchy scalar reference over the whole non-negative input range
        // (far past the cutoff), for both kinds and several formats.
        for format in [
            FixedFormat::default(),
            FixedFormat::new(6, 1),
            FixedFormat::new(10, 4),
        ] {
            for kind in [CorrectionKind::Plus, CorrectionKind::Minus] {
                let lut = CorrectionLut::new(kind, format, 3);
                assert!(!lut.dense.is_empty(), "practical formats go dense");
                let xs: Vec<i32> = (0..format.max_code().min(4096)).collect();
                let mut out = vec![0i32; xs.len()];
                lut.lookup_slice(&xs, &mut out);
                let mut inplace = xs.clone();
                lut.map_slice(&mut inplace);
                let panel: Vec<i16> = xs.iter().map(|&x| x as i16).collect();
                let mut panel_out = vec![0i16; xs.len()];
                lut.lookup_slice_with(SimdLevel::Scalar, &panel, &mut panel_out);
                for (i, &x) in xs.iter().enumerate() {
                    assert_eq!(out[i], lut.lookup(x), "{kind:?} {format} at {x}");
                    assert_eq!(inplace[i], lut.lookup(x));
                    assert_eq!(i32::from(panel_out[i]), lut.lookup(x));
                }
            }
        }
    }

    #[test]
    fn oversized_formats_fall_back_to_the_divide_form() {
        // frac_bits 14 → region width ≈ 4096 codes → cutoff 32769 ≤ limit;
        // frac_bits 16 → cutoff ≈ 131072 > limit → no dense table. Both paths
        // must agree with the scalar reference.
        let format = FixedFormat::new(24, 16);
        let lut = CorrectionLut::new(CorrectionKind::Plus, format, 3);
        assert!(lut.dense.is_empty(), "past the dense budget");
        let xs: Vec<i32> = (0..200_000).step_by(977).collect();
        let mut out = vec![0i32; xs.len()];
        lut.lookup_slice(&xs, &mut out);
        for (&x, &o) in xs.iter().zip(&out) {
            assert_eq!(o, lut.lookup(x), "divide form diverged at {x}");
        }
    }

    #[test]
    fn shuffle_table_exists_exactly_for_small_dense_tables() {
        for (w, f, bits, fits) in [
            (8, 2, 3, true),
            (5, 1, 3, true),
            (6, 1, 3, true),
            (8, 2, 4, false),
            (10, 4, 3, false),
        ] {
            let format = FixedFormat::new(w, f);
            for kind in [CorrectionKind::Plus, CorrectionKind::Minus] {
                let lut = CorrectionLut::new(kind, format, bits);
                assert_eq!(
                    lut.shuffle_table().is_some(),
                    fits,
                    "{kind:?} {format} {bits}"
                );
                if let Some(table) = lut.shuffle_table() {
                    for (x, &entry) in table.iter().enumerate() {
                        assert_eq!(
                            i32::from(entry),
                            lut.lookup(x as i32),
                            "{kind:?} {format} at {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn region_width_scales_with_format() {
        let lo = CorrectionLut::new(CorrectionKind::Plus, FixedFormat::new(8, 2), 3);
        let hi = CorrectionLut::new(CorrectionKind::Plus, FixedFormat::new(10, 4), 3);
        // Finer resolution => more codes per region.
        assert!(hi.region_width >= lo.region_width);
    }
}
