//! Fixed-point message format of the hardware datapath.
//!
//! The SISO datapath of the paper carries 8-bit two's-complement messages
//! (Fig. 3 shows 8-bit buses). [`FixedFormat`] describes such a format — total
//! word width `W` and fractional bits `F` — and provides the saturating
//! integer-code arithmetic the decoder and the SISO models share. A code `c`
//! represents the LLR value `c · 2^-F`. The scalar helpers here work on `i32`
//! codes (formats up to 24 bits); the fixed-point decoder back-ends carry
//! their messages as `i16` codes in 16-bit panels, which holds every message
//! format up to 14 bits plus the two headroom bits of the APP memory (see
//! [`crate::arith::FixedBpArithmetic`]). The representable range is symmetric,
//! `[-(2^{W-1}-1), 2^{W-1}-1]`, which is the customary choice for LLR
//! datapaths (the most negative code is unused).

use std::fmt;

/// Widest message format the fixed-point decoder back-ends accept: a
/// 14-bit message plus the APP memory's two headroom bits is exactly the
/// `i16` panel word.
pub const MAX_MESSAGE_BITS: u32 = 14;

/// A fixed-point format: `W` total bits, `F` fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedFormat {
    word_bits: u32,
    frac_bits: u32,
}

impl Default for FixedFormat {
    /// The paper's message format: 8-bit words, 2 fractional bits
    /// (resolution 0.25, range ±31.75).
    fn default() -> Self {
        FixedFormat::new(8, 2)
    }
}

impl FixedFormat {
    /// Creates a format with `word_bits` total bits and `frac_bits` fractional
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ word_bits ≤ 24` and `frac_bits < word_bits`.
    #[must_use]
    pub fn new(word_bits: u32, frac_bits: u32) -> Self {
        assert!(
            (2..=24).contains(&word_bits) && frac_bits < word_bits,
            "invalid fixed-point format W={word_bits}, F={frac_bits}"
        );
        FixedFormat {
            word_bits,
            frac_bits,
        }
    }

    /// Total word width in bits.
    #[must_use]
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Number of fractional bits.
    #[must_use]
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The value of one least-significant bit, `2^-F`, built directly from
    /// its IEEE-754 exponent (exact, and no `powi` call on the hot paths that
    /// convert codes to LLRs).
    #[must_use]
    pub fn step(&self) -> f64 {
        f64::from_bits(u64::from(1023 - self.frac_bits) << 52)
    }

    /// The reciprocal of [`FixedFormat::step`], `2^F` (exact).
    #[must_use]
    pub fn scale(&self) -> f64 {
        f64::from_bits(u64::from(1023 + self.frac_bits) << 52)
    }

    /// Largest representable code, `2^{W-1} − 1`.
    #[must_use]
    pub fn max_code(&self) -> i32 {
        (1i32 << (self.word_bits - 1)) - 1
    }

    /// Smallest representable code, `−(2^{W-1} − 1)` (symmetric range).
    #[must_use]
    pub fn min_code(&self) -> i32 {
        -self.max_code()
    }

    /// Largest representable LLR magnitude.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.max_code() as f64 * self.step()
    }

    /// Saturates an arbitrary integer to the representable code range.
    #[must_use]
    pub fn saturate(&self, code: i64) -> i32 {
        code.clamp(self.min_code() as i64, self.max_code() as i64) as i32
    }

    /// Saturating addition of two codes.
    #[must_use]
    pub fn add(&self, a: i32, b: i32) -> i32 {
        self.saturate(a as i64 + b as i64)
    }

    /// Saturating subtraction of two codes.
    #[must_use]
    pub fn sub(&self, a: i32, b: i32) -> i32 {
        self.saturate(a as i64 - b as i64)
    }

    /// Saturating negation of a code.
    #[must_use]
    pub fn neg(&self, a: i32) -> i32 {
        self.saturate(-(a as i64))
    }

    /// Converts a real LLR to the nearest representable code (saturating).
    #[must_use]
    pub fn quantize(&self, value: f64) -> i32 {
        if value.is_nan() {
            return 0;
        }
        let scaled = (value / self.step()).round();
        self.saturate(scaled as i64)
    }

    /// Converts a code back to its real value.
    #[must_use]
    pub fn dequantize(&self, code: i32) -> f64 {
        code as f64 * self.step()
    }

    /// The early-termination threshold as a code: the `t` for which
    /// `|c| > t ⇔ dequantize(|c|) > threshold` for every code `c`, i.e.
    /// `⌊threshold · 2^F⌋` (exact: the scaling is by a power of two),
    /// clamped to `[-1, i16::MAX]` so it compares against any `i16`
    /// magnitude (`-1`: every magnitude passes; `i16::MAX`: none does).
    #[must_use]
    pub(crate) fn threshold_code(&self, threshold: f64) -> i16 {
        let t = (threshold * self.scale()).floor();
        if t >= f64::from(i16::MAX) || t.is_nan() {
            i16::MAX
        } else if t < -1.0 {
            -1
        } else {
            t as i16
        }
    }

    /// Whether `code` is inside the representable range.
    #[must_use]
    pub fn in_range(&self, code: i32) -> bool {
        code >= self.min_code() && code <= self.max_code()
    }
}

impl fmt::Display for FixedFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.word_bits - self.frac_bits, self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_format_matches_paper_datapath() {
        let f = FixedFormat::default();
        assert_eq!(f.word_bits(), 8);
        assert_eq!(f.frac_bits(), 2);
        assert_eq!(f.max_code(), 127);
        assert_eq!(f.min_code(), -127);
        assert!((f.step() - 0.25).abs() < 1e-12);
        assert!((f.max_value() - 31.75).abs() < 1e-12);
        assert_eq!(f.to_string(), "Q6.2");
    }

    #[test]
    fn saturation_behaviour() {
        let f = FixedFormat::default();
        assert_eq!(f.saturate(1_000), 127);
        assert_eq!(f.saturate(-1_000), -127);
        assert_eq!(f.saturate(100), 100);
        assert_eq!(f.add(100, 100), 127);
        assert_eq!(f.add(-100, -100), -127);
        assert_eq!(f.sub(-100, 100), -127);
        assert_eq!(f.sub(100, -100), 127);
        assert_eq!(f.neg(-127), 127);
        assert_eq!(f.add(3, 4), 7);
    }

    #[test]
    fn quantize_round_trip_and_saturation() {
        let f = FixedFormat::default();
        assert_eq!(f.quantize(0.25), 1);
        assert_eq!(f.quantize(-0.25), -1);
        assert_eq!(f.quantize(1000.0), 127);
        assert_eq!(f.quantize(-1000.0), -127);
        assert_eq!(f.quantize(f64::NAN), 0);
        for code in [-127, -3, 0, 5, 127] {
            assert_eq!(f.quantize(f.dequantize(code)), code);
        }
    }

    #[test]
    fn step_is_the_exact_power_of_two_for_every_legal_format() {
        for w in 2..=24u32 {
            for f in 0..w {
                let fmt = FixedFormat::new(w, f);
                assert_eq!(fmt.step(), 0.5f64.powi(f as i32), "{fmt}");
                assert_eq!(fmt.scale(), 2.0f64.powi(f as i32), "{fmt}");
                assert_eq!(fmt.step() * fmt.scale(), 1.0);
            }
        }
    }

    #[test]
    fn threshold_code_matches_the_llr_comparison() {
        for fmt in [
            FixedFormat::default(),
            FixedFormat::new(5, 1),
            FixedFormat::new(14, 6),
        ] {
            for threshold in [-3.0, -0.0, 0.0, 0.1, 0.25, 3.99, 4.0, 4.01, 31.75, 1e9] {
                let t = fmt.threshold_code(threshold);
                for code in 0..=fmt.max_code() {
                    assert_eq!(
                        i32::from(t) < code,
                        fmt.dequantize(code) > threshold,
                        "{fmt} threshold {threshold} code {code}"
                    );
                }
            }
        }
        assert_eq!(FixedFormat::default().threshold_code(4.0), 16);
    }

    #[test]
    fn range_checks() {
        let f = FixedFormat::new(6, 1);
        assert_eq!(f.max_code(), 31);
        assert!(f.in_range(31));
        assert!(f.in_range(-31));
        assert!(!f.in_range(32));
        assert!(!f.in_range(-32));
    }

    #[test]
    #[should_panic(expected = "invalid fixed-point format")]
    fn rejects_bad_format() {
        let _ = FixedFormat::new(8, 8);
    }

    #[test]
    fn narrower_formats_saturate_earlier() {
        let narrow = FixedFormat::new(5, 2);
        let wide = FixedFormat::new(8, 2);
        assert!(narrow.max_value() < wide.max_value());
        assert_eq!(narrow.quantize(10.0), narrow.max_code());
        assert_ne!(wide.quantize(10.0), wide.max_code());
    }
}
