//! Saturating fixed-point LLR combining for HARQ chase / incremental
//! redundancy.
//!
//! Every retransmission of a frame adds channel information: under BPSK/AWGN
//! the optimal combine is simply LLR addition, position by position (chase
//! combining when transmissions repeat the same bits, incremental redundancy
//! when a rate-compatible puncture pattern rotates which bits each
//! redundancy version observes — punctured positions arrive as erasure LLRs
//! of `0.0` and add nothing).
//!
//! The kernel operates in the quantiser's **integer code space** and splits
//! the combine into two deliberately separate steps:
//!
//! 1. **Wide accumulation** ([`HarqCombiner::accumulate`]): incoming 8-bit
//!    codes add into an `i32` accumulator per position, *without* clamping.
//!    Integer addition is exact, commutative and associative, so the
//!    accumulated soft buffer is **bit-identical whatever order
//!    retransmissions arrive in** — the property the serving tier's
//!    property tests pin. (An `i32` holds > 16 million max-magnitude 8-bit
//!    codes; real HARQ stops after a handful, and the adds saturate at the
//!    `i32` rails rather than wrapping should something pathological loop.)
//! 2. **Saturation on read** ([`HarqCombiner::saturate_into`] /
//!    [`HarqCombiner::combine_saturated`]): only when a decode needs the
//!    combined LLRs is the wide accumulator clamped to the quantiser's
//!    symmetric code range — one clamp of the exact sum, reusing the lane
//!    kernels' clamped-add panel op ([`crate::arith::simd::add_lanes_clamp_i32`],
//!    so the pass runs on the same AVX2/SSE4.1/scalar dispatch tier as the
//!    decoder hot loops). Clamping once at the end is what keeps saturation
//!    from breaking order independence: per-step saturating adds are *not*
//!    associative at the rails, a single saturation of the exact sum is.
//!
//! The kernel is deliberately quantiser-agnostic plumbing: it takes the
//! integer code range and leaves float↔code conversion to
//! `ldpc_channel::quantize::LlrQuantizer`, whose AGC ingest path the serving
//! layer already routes every frame through.

use crate::arith::simd::{self, SimdLevel};

/// Fixed-point HARQ LLR combiner over a symmetric integer code range
/// `[-max_code, +max_code]` (the range of the serving quantiser, e.g. ±127
/// for the paper's 8-bit datapath).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarqCombiner {
    max_code: i32,
    level: SimdLevel,
}

impl HarqCombiner {
    /// A combiner saturating to `[-max_code, +max_code]`, running on the
    /// process-wide active SIMD tier.
    ///
    /// # Panics
    ///
    /// Panics unless `max_code > 0`.
    #[must_use]
    pub fn new(max_code: i32) -> Self {
        Self::with_level(max_code, simd::active_level())
    }

    /// As [`new`](HarqCombiner::new) with an explicit kernel tier (the tiers
    /// are bit-identical; this exists for tests and benchmarks).
    #[must_use]
    pub fn with_level(max_code: i32, level: SimdLevel) -> Self {
        assert!(max_code > 0, "combiner needs a positive code range");
        HarqCombiner { max_code, level }
    }

    /// Largest code magnitude the saturated output can carry.
    #[must_use]
    pub fn max_code(&self) -> i32 {
        self.max_code
    }

    /// Adds one transmission's quantised codes into the wide accumulator,
    /// element-wise and without clamping (exact, so order-independent).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn accumulate(&self, acc: &mut [i32], incoming: &[i32]) {
        assert_eq!(acc.len(), incoming.len(), "combine length mismatch");
        for (a, &c) in acc.iter_mut().zip(incoming) {
            *a = a.saturating_add(c);
        }
    }

    /// Writes the saturated form of the wide accumulator into `out`:
    /// `out[i] = clamp(acc[i], -max_code, max_code)` — the codes a
    /// fixed-point decode consumes.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn saturate_into(&self, acc: &[i32], out: &mut [i32]) {
        // clamp(a + 0) panel op: the zero summand makes the lane kernels'
        // fused add-clamp a pure saturation pass on the SIMD tier.
        self.combine_saturated(acc, &vec![0; acc.len()], out);
    }

    /// Fused combine-and-read: `out[i] = clamp(acc[i] + incoming[i])`
    /// without touching `acc` — the decode-facing view of "the stored buffer
    /// plus this retransmission", produced in one clamped-add panel pass.
    /// Callers that keep the buffer also call
    /// [`accumulate`](HarqCombiner::accumulate); callers probing a
    /// hypothetical combine (or evicted state) need only this.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn combine_saturated(&self, acc: &[i32], incoming: &[i32], out: &mut [i32]) {
        simd::add_lanes_clamp_i32(
            self.level,
            -self.max_code,
            self.max_code,
            acc,
            incoming,
            out,
        );
    }

    /// Offline reference combine: accumulates every transmission's codes and
    /// returns the saturated result — exactly what a serving-layer soft
    /// buffer holds after the same transmissions, in any order.
    ///
    /// # Panics
    ///
    /// Panics if the transmissions differ in length or none are given.
    #[must_use]
    pub fn combine_all(&self, transmissions: &[&[i32]]) -> Vec<i32> {
        let first = transmissions.first().expect("at least one transmission");
        let mut acc = vec![0i32; first.len()];
        for tx in transmissions {
            self.accumulate(&mut acc, tx);
        }
        let mut out = vec![0i32; acc.len()];
        self.saturate_into(&acc, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(pattern: &[i32], len: usize) -> Vec<i32> {
        (0..len).map(|i| pattern[i % pattern.len()]).collect()
    }

    #[test]
    fn accumulation_is_exact_and_order_independent() {
        let combiner = HarqCombiner::new(127);
        let a = tx(&[100, -100, 3, 127, -127], 64);
        let b = tx(&[60, -80, 1, 127, -5], 64);
        let c = tx(&[-90, 50, -4, 127, 127], 64);
        let orders: [[&[i32]; 3]; 3] = [[&a, &b, &c], [&c, &b, &a], [&b, &c, &a]];
        let reference = combiner.combine_all(&orders[0]);
        for order in &orders[1..] {
            assert_eq!(combiner.combine_all(order), reference);
        }
        // The exact sum saturates once: 127+127+127 → 127, -127-127 partial
        // sums never distort non-saturating final values.
        assert_eq!(reference[3], 127);
    }

    #[test]
    fn single_saturation_beats_stepwise_clamping_at_the_rails() {
        // The canonical associativity failure of per-step clamping:
        // clamp(clamp(120 + 10) - 10) = 117 but the exact sum is 120.
        let combiner = HarqCombiner::new(127);
        let mut acc = vec![120i32];
        combiner.accumulate(&mut acc, &[10]);
        combiner.accumulate(&mut acc, &[-10]);
        let mut out = vec![0i32];
        combiner.saturate_into(&acc, &mut out);
        assert_eq!(out, vec![120]);
    }

    #[test]
    fn combine_saturated_matches_accumulate_then_saturate() {
        let combiner = HarqCombiner::new(127);
        let stored = tx(&[90, -120, 7, 0, -31], 48);
        let incoming = tx(&[50, -50, -7, 127, 2], 48);
        let mut fused = vec![0i32; 48];
        combiner.combine_saturated(&stored, &incoming, &mut fused);
        let mut acc = stored.clone();
        combiner.accumulate(&mut acc, &incoming);
        let mut stepped = vec![0i32; 48];
        combiner.saturate_into(&acc, &mut stepped);
        assert_eq!(fused, stepped);
        assert!(fused.iter().all(|&c| c.abs() <= 127));
    }

    #[test]
    fn erasures_add_nothing() {
        let combiner = HarqCombiner::new(127);
        let stored = tx(&[13, -90, 127], 24);
        let erasures = vec![0i32; 24];
        let mut out = vec![0i32; 24];
        combiner.combine_saturated(&stored, &erasures, &mut out);
        assert_eq!(out, stored, "an all-erasure retransmission is a no-op");
    }

    #[test]
    fn kernel_tiers_are_bit_identical() {
        let acc = tx(&[250, -4000, 127, -1, 90], 100);
        let inc = tx(&[-120, 90, 127, 1, -3], 100);
        let reference = {
            let mut out = vec![0i32; 100];
            HarqCombiner::with_level(127, SimdLevel::Scalar)
                .combine_saturated(&acc, &inc, &mut out);
            out
        };
        let mut out = vec![0i32; 100];
        HarqCombiner::new(127).combine_saturated(&acc, &inc, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "positive code range")]
    fn zero_range_is_rejected() {
        let _ = HarqCombiner::new(0);
    }
}
