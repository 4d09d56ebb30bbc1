//! Floating-point full-BP arithmetic (algorithmic reference).
//!
//! This back-end evaluates the ⊞/⊟ recursions exactly (up to `f64` rounding)
//! and serves as the golden reference the fixed-point datapath is compared
//! against.

use super::DecoderArithmetic;
use crate::boxplus::{boxminus, boxplus, FLOAT_CLAMP};

/// Full belief-propagation check-node update in double precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatBpArithmetic {
    clamp: f64,
    app_clamp: f64,
}

impl Default for FloatBpArithmetic {
    fn default() -> Self {
        FloatBpArithmetic {
            clamp: FLOAT_CLAMP,
            app_clamp: 4.0 * FLOAT_CLAMP,
        }
    }
}

impl FloatBpArithmetic {
    /// Creates the reference arithmetic with a custom LLR clamp for the
    /// check messages; the a-posteriori values get 4× that headroom.
    ///
    /// # Panics
    ///
    /// Panics if `clamp` is not strictly positive.
    #[must_use]
    pub fn with_clamp(clamp: f64) -> Self {
        assert!(clamp > 0.0, "clamp must be positive");
        FloatBpArithmetic {
            clamp,
            app_clamp: 4.0 * clamp,
        }
    }

    /// The LLR magnitude clamp of the check-message datapath.
    #[must_use]
    pub fn clamp(&self) -> f64 {
        self.clamp
    }

    /// The (wider) LLR magnitude clamp of the a-posteriori values.
    #[must_use]
    pub fn app_clamp(&self) -> f64 {
        self.app_clamp
    }
}

impl DecoderArithmetic for FloatBpArithmetic {
    type Msg = f64;

    /// An exactly-zero channel LLR (possible when the input was pre-quantised)
    /// is nudged to a vanishingly small positive value: an exact zero is the
    /// absorbing element of ⊞ and would erase every check row it touches.
    fn from_channel(&self, llr: f64) -> f64 {
        let v = llr.clamp(-self.clamp, self.clamp);
        if v == 0.0 {
            1e-9
        } else {
            v
        }
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
        // Total ⊞ sum S_m, accumulated serially like the f(·) recursion of the
        // R2-SISO core (Fig. 4, "decoding stage 1") …
        let mut total = lambdas[0];
        for &l in &lambdas[1..] {
            total = boxplus(total, l);
        }
        // … then extraction of each extrinsic message with the g(·) unit
        // ("decoding stage 2"), Eq. (1): Λ_mn = S_m ⊟ λ_mn.
        out.extend(
            lambdas
                .iter()
                .map(|&l| boxminus(total, l).clamp(-self.clamp, self.clamp)),
        );
    }

    fn name(&self) -> &'static str {
        "full-BP float64"
    }
}

/// Scalar-fallback lane kernels: the reference back-end keeps working
/// unchanged on the lane-major engine path (the fallback walks the lanes
/// row-serially, so it is bit-identical by construction).
impl super::lanes::LaneKernel for FloatBpArithmetic {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::test_support::check_basic_axioms;
    use crate::boxplus::reference_check_node;

    #[test]
    fn satisfies_basic_axioms() {
        check_basic_axioms(&FloatBpArithmetic::default());
    }

    #[test]
    fn check_node_matches_psi_reference() {
        let arith = FloatBpArithmetic::default();
        let lambdas = [1.3, -2.4, 0.8, 3.1, -0.2];
        let mut out = Vec::new();
        arith.check_node_update(&lambdas, &mut out);
        for (i, &v) in out.iter().enumerate() {
            let reference = reference_check_node(&lambdas, i);
            assert!((v - reference).abs() < 1e-5, "pos {i}: {v} vs {reference}");
        }
    }

    #[test]
    fn degree_two_row_swaps_messages() {
        let arith = FloatBpArithmetic::default();
        let mut out = Vec::new();
        arith.check_node_update(&[2.0, -3.0], &mut out);
        assert!((out[0] - (-3.0)).abs() < 1e-6);
        assert!((out[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn channel_values_are_clamped() {
        let arith = FloatBpArithmetic::with_clamp(10.0);
        assert_eq!(arith.from_channel(100.0), 10.0);
        assert_eq!(arith.from_channel(-100.0), -10.0);
        // λ = L − Λ saturates at the message clamp …
        assert_eq!(arith.sub(100.0, -100.0), 10.0);
        // … while the APP update gets 4× headroom.
        assert_eq!(arith.add(30.0, 30.0), 40.0);
        assert_eq!(arith.clamp(), 10.0);
        assert_eq!(arith.app_clamp(), 40.0);
    }

    #[test]
    fn empty_row_is_a_noop() {
        let arith = FloatBpArithmetic::default();
        let mut out = vec![1.0];
        arith.check_node_update(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn output_magnitudes_are_extrinsic() {
        // For a row whose messages all agree in sign, every output is positive
        // and no output exceeds the smallest *other* input magnitude... plus
        // correction; allow a small tolerance.
        let arith = FloatBpArithmetic::default();
        let lambdas = [4.0, 2.0, 3.0, 5.0];
        let mut out = Vec::new();
        arith.check_node_update(&lambdas, &mut out);
        for (i, &v) in out.iter().enumerate() {
            assert!(v > 0.0);
            let min_other = lambdas
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &x)| x)
                .fold(f64::INFINITY, f64::min);
            assert!(v <= min_other + 0.7, "pos {i}: {v} > min_other {min_other}");
        }
    }

    #[test]
    fn name_mentions_bp() {
        assert!(FloatBpArithmetic::default().name().contains("BP"));
    }
}
