//! Behavioural models of the Radix-2 and Radix-4 SISO decoder cores
//! (Fig. 3 – Fig. 6 of the paper).
//!
//! A SISO (soft-input soft-output) core processes one check row serially:
//! during the first `d_m` cycles the incoming variable messages `λ_mn` stream
//! through the `f(·)` recursion to form the total sum `S_m`; during the next
//! `d_m` cycles the `g(·)` unit extracts the outgoing messages
//! `Λ_mn = S_m ⊟ λ_mn` (the λ values are replayed from a FIFO). The Radix-4
//! core applies a one-level look-ahead transform to the `f(·)` recursion so
//! that two messages are absorbed (and two extracted) per cycle, doubling the
//! throughput at the cost of roughly twice the combinational area (Table 2).
//!
//! With argmin-excluded extraction ([`CheckNodeMode::SumExtractArgmin`],
//! the default of [`FixedBpArithmetic`]) the `f(·)` stage carries a second
//! running sum `S'` — the ⊞ of every edge except the weakest so far — in a
//! second `f(·)` unit, and the `g(·)` stage hands that to the weakest edge
//! instead of `S_m ⊟ λ_min` (one magnitude compare and an index register
//! on top).
//!
//! These models are *functionally* bit-accurate (they reuse the same ⊞/⊟
//! arithmetic as the layered decoder) and *cycle-annotated* (they report how
//! many clock cycles each stage of the row computation occupies), which is
//! what the architecture-level pipeline model consumes.

use crate::arith::{CheckNodeMode, DecoderArithmetic, FixedBpArithmetic, FloatBpArithmetic};

/// Check-recursion arithmetic: the pairwise ⊞/⊟ operators a SISO core is
/// built from. Implemented by the full-BP back-ends (the paper's SISO decoder
/// is a BP engine; Min-Sum does not use this structure).
pub trait BoxArithmetic: DecoderArithmetic {
    /// Pairwise ⊞ (`f` unit).
    fn box_plus(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg;
    /// Pairwise ⊟ (`g` unit).
    fn box_minus(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg;
    /// `Some(saturation)` when the `g(·)` stage is argmin-excluded: the
    /// row's weakest edge (strict minimum magnitude, first wins) receives
    /// `S'`, the ⊞ of the other edges, and `saturation` is the output of a
    /// degree-1 row. `None` (the default) extracts every edge as `S ⊟ λ`.
    fn argmin_exclusion(&self) -> Option<Self::Msg> {
        None
    }
}

impl BoxArithmetic for FloatBpArithmetic {
    fn box_plus(&self, a: f64, b: f64) -> f64 {
        crate::boxplus::boxplus(a, b)
    }

    fn box_minus(&self, a: f64, b: f64) -> f64 {
        crate::boxplus::boxminus(a, b)
    }
}

impl BoxArithmetic for FixedBpArithmetic {
    fn box_plus(&self, a: i16, b: i16) -> i16 {
        self.boxplus_codes(i32::from(a), i32::from(b)) as i16
    }

    fn box_minus(&self, a: i16, b: i16) -> i16 {
        self.boxminus_codes(i32::from(a), i32::from(b)) as i16
    }

    fn argmin_exclusion(&self) -> Option<i16> {
        (self.mode() == CheckNodeMode::SumExtractArgmin).then(|| self.format().max_code() as i16)
    }
}

/// The `f(·)` stage state: the running total `S` and, for argmin-excluded
/// extraction, `S'` with the weakest edge's magnitude and slot.
struct FoldState<M> {
    total: Option<M>,
    excluded: Option<M>,
    min: f64,
    argmin: usize,
}

impl<M: Copy> FoldState<M> {
    fn new() -> Self {
        FoldState {
            total: None,
            excluded: None,
            min: f64::INFINITY,
            argmin: 0,
        }
    }

    /// `acc ⊞ x`, with an empty accumulator as the identity.
    fn plus<A: BoxArithmetic<Msg = M>>(arith: &A, acc: Option<M>, x: M) -> M {
        acc.map_or(x, |acc| arith.box_plus(acc, x))
    }

    /// Argmin bookkeeping for one absorbed group of edges whose weakest is
    /// `weak` at `slot`: a strict new minimum sets `S'` to `displaced` (the
    /// old total ⊞ the group's other edges); otherwise `kept` (the whole
    /// group) is folded into `S'`. Runs before `S` absorbs the group.
    fn track<A: BoxArithmetic<Msg = M>>(
        &mut self,
        arith: &A,
        slot: usize,
        weak: M,
        displaced: Option<M>,
        kept: M,
    ) {
        let magnitude = arith.magnitude(weak);
        if magnitude < self.min {
            (self.excluded, self.min, self.argmin) = (displaced, magnitude, slot);
        } else {
            self.excluded = Some(Self::plus(arith, self.excluded, kept));
        }
    }

    /// Stage 2: the `g(·)` extraction of every edge.
    fn extract<A: BoxArithmetic<Msg = M>>(&self, arith: &A, lambdas: &[M], out: &mut Vec<M>) {
        let Some(total) = self.total else {
            return;
        };
        let saturation = arith.argmin_exclusion();
        out.extend(
            lambdas
                .iter()
                .enumerate()
                .map(|(slot, &l)| match saturation {
                    Some(sat) if slot == self.argmin => self.excluded.unwrap_or(sat),
                    _ => arith.box_minus(total, l),
                }),
        );
    }
}

/// Result of running one check row through a SISO core.
#[derive(Debug, Clone, PartialEq)]
pub struct SisoRowResult<M> {
    /// Outgoing check messages `Λ_mn`, in input order.
    pub check_messages: Vec<M>,
    /// Cycles spent in the `f(·)` accumulation stage.
    pub stage1_cycles: usize,
    /// Cycles spent in the `g(·)` extraction stage.
    pub stage2_cycles: usize,
}

impl<M> SisoRowResult<M> {
    /// Total latency of the row through the core (both stages, no pipelining).
    #[must_use]
    pub fn latency_cycles(&self) -> usize {
        self.stage1_cycles + self.stage2_cycles
    }

    /// Sustained per-row occupancy when consecutive rows are pipelined: the
    /// two stages overlap, so a new row can start every
    /// `max(stage1, stage2)` cycles.
    #[must_use]
    pub fn pipelined_cycles(&self) -> usize {
        self.stage1_cycles.max(self.stage2_cycles)
    }
}

/// The decoding radix of a SISO core: how many messages are absorbed and
/// produced per clock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SisoRadix {
    /// One message per cycle (Fig. 3).
    Radix2,
    /// Two messages per cycle via the look-ahead transform (Fig. 5/6).
    Radix4,
}

impl SisoRadix {
    /// Messages absorbed per cycle.
    #[must_use]
    pub fn messages_per_cycle(self) -> usize {
        match self {
            SisoRadix::Radix2 => 1,
            SisoRadix::Radix4 => 2,
        }
    }

    /// Number of cycles one stage needs for a row of degree `degree`.
    #[must_use]
    pub fn stage_cycles(self, degree: usize) -> usize {
        degree.div_ceil(self.messages_per_cycle())
    }
}

/// Radix-2 SISO core: one `f(·)` unit followed by one `g(·)` unit (Fig. 3).
#[derive(Debug, Clone)]
pub struct R2Siso<A: BoxArithmetic> {
    arith: A,
}

impl<A: BoxArithmetic> R2Siso<A> {
    /// Creates a Radix-2 core from a ⊞/⊟ arithmetic.
    #[must_use]
    pub fn new(arith: A) -> Self {
        R2Siso { arith }
    }

    /// The arithmetic back-end.
    #[must_use]
    pub fn arithmetic(&self) -> &A {
        &self.arith
    }

    /// Processes one check row: `d_m` cycles of `f(·)` accumulation followed
    /// by `d_m` cycles of `g(·)` extraction.
    #[must_use]
    pub fn process_row(&self, lambdas: &[A::Msg]) -> SisoRowResult<A::Msg> {
        let degree = lambdas.len();
        let mut check_messages = Vec::with_capacity(degree);
        // Stage 1: serial f(·) recursion, one λ per cycle (with argmin
        // exclusion, the second f(·) unit folds S' in the same cycle).
        let mut state = FoldState::new();
        let tracks = self.arith.argmin_exclusion().is_some();
        for (slot, &l) in lambdas.iter().enumerate() {
            if tracks {
                state.track(&self.arith, slot, l, state.total, l);
            }
            state.total = Some(FoldState::plus(&self.arith, state.total, l));
        }
        // Stage 2: serial g(·) extraction, one Λ per cycle.
        state.extract(&self.arith, lambdas, &mut check_messages);
        SisoRowResult {
            check_messages,
            stage1_cycles: SisoRadix::Radix2.stage_cycles(degree),
            stage2_cycles: SisoRadix::Radix2.stage_cycles(degree),
        }
    }
}

/// Radix-4 SISO core: the one-level look-ahead transform lets each cycle
/// absorb two λ messages (two cascaded `f(·)` units) and emit two Λ messages
/// (two parallel `g(·)` units), Fig. 5/6.
#[derive(Debug, Clone)]
pub struct R4Siso<A: BoxArithmetic> {
    arith: A,
}

impl<A: BoxArithmetic> R4Siso<A> {
    /// Creates a Radix-4 core from a ⊞/⊟ arithmetic.
    #[must_use]
    pub fn new(arith: A) -> Self {
        R4Siso { arith }
    }

    /// The arithmetic back-end.
    #[must_use]
    pub fn arithmetic(&self) -> &A {
        &self.arith
    }

    /// Processes one check row with two messages per cycle.
    #[must_use]
    pub fn process_row(&self, lambdas: &[A::Msg]) -> SisoRowResult<A::Msg> {
        let degree = lambdas.len();
        let mut check_messages = Vec::with_capacity(degree);
        // Stage 1: look-ahead f(·) recursion, two λ per cycle:
        // S ← f(S, f(λ_{2n}, λ_{2n+1})). With argmin exclusion the third
        // f(·) unit updates S' ← f(S', f(λ_{2n}, λ_{2n+1})), or
        // S' ← f(S, partner) when the pair's weaker λ is a new minimum.
        let mut state = FoldState::new();
        let tracks = self.arith.argmin_exclusion().is_some();
        let mut chunks = lambdas.chunks_exact(2);
        for (pair_index, pair) in (&mut chunks).enumerate() {
            let combined = self.arith.box_plus(pair[0], pair[1]);
            if tracks {
                let second_weaker = self.arith.magnitude(pair[1]) < self.arith.magnitude(pair[0]);
                let (weak, partner) = if second_weaker { (1, 0) } else { (0, 1) };
                let displaced = FoldState::plus(&self.arith, state.total, pair[partner]);
                state.track(
                    &self.arith,
                    2 * pair_index + weak,
                    pair[weak],
                    Some(displaced),
                    combined,
                );
            }
            state.total = Some(FoldState::plus(&self.arith, state.total, combined));
        }
        if let Some(&last) = chunks.remainder().first() {
            if tracks {
                state.track(&self.arith, degree - 1, last, state.total, last);
            }
            state.total = Some(FoldState::plus(&self.arith, state.total, last));
        }
        // Stage 2: two g(·) units extract two Λ per cycle; functionally
        // identical to the Radix-2 extraction.
        state.extract(&self.arith, lambdas, &mut check_messages);
        SisoRowResult {
            check_messages,
            stage1_cycles: SisoRadix::Radix4.stage_cycles(degree),
            stage2_cycles: SisoRadix::Radix4.stage_cycles(degree),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::FixedFormat;

    #[test]
    fn radix_stage_cycles() {
        assert_eq!(SisoRadix::Radix2.stage_cycles(7), 7);
        assert_eq!(SisoRadix::Radix4.stage_cycles(7), 4);
        assert_eq!(SisoRadix::Radix4.stage_cycles(8), 4);
        assert_eq!(SisoRadix::Radix2.messages_per_cycle(), 1);
        assert_eq!(SisoRadix::Radix4.messages_per_cycle(), 2);
    }

    #[test]
    fn r2_float_matches_layered_check_node_update() {
        let arith = FloatBpArithmetic::default();
        let siso = R2Siso::new(arith);
        let lambdas = [1.2, -0.8, 2.5, -3.0, 0.4, 1.9, -2.2];
        let result = siso.process_row(&lambdas);
        let mut reference = Vec::new();
        arith.check_node_update(&lambdas, &mut reference);
        assert_eq!(result.check_messages, reference);
        assert_eq!(result.stage1_cycles, 7);
        assert_eq!(result.stage2_cycles, 7);
        assert_eq!(result.latency_cycles(), 14);
        assert_eq!(result.pipelined_cycles(), 7);
    }

    #[test]
    fn r2_fixed_is_bit_identical_to_layered_datapath() {
        let arith = FixedBpArithmetic::default();
        let siso = R2Siso::new(arith.clone());
        let lambdas = [5, -13, 22, -7, 3, 19, -28, 1];
        let result = siso.process_row(&lambdas);
        let mut reference = Vec::new();
        arith.check_node_update(&lambdas, &mut reference);
        assert_eq!(result.check_messages, reference);
    }

    #[test]
    fn r2_fixed_is_bit_identical_in_every_sum_extract_mode() {
        for mode in [CheckNodeMode::SumExtract, CheckNodeMode::SumExtractArgmin] {
            let arith = FixedBpArithmetic::with_mode(FixedFormat::default(), 3, mode);
            let siso = R2Siso::new(arith.clone());
            for lambdas in [
                &[5, -13, 22, -7, 3, 19, -28, 1][..],
                &[-2, 9, -2, 40],
                &[7, -3],
                &[-3, 7],
                &[11],
            ] {
                let mut reference = Vec::new();
                arith.check_node_update(lambdas, &mut reference);
                assert_eq!(
                    siso.process_row(lambdas).check_messages,
                    reference,
                    "{mode:?} {lambdas:?}"
                );
            }
        }
    }

    #[test]
    fn r4_argmin_exclusion_tracks_r2_wherever_the_minimum_sits() {
        let arith = FixedBpArithmetic::default();
        let (r2, r4) = (R2Siso::new(arith.clone()), R4Siso::new(arith.clone()));
        // The weakest edge first or second in a pair, tied across pairs,
        // and in the odd leftover slot.
        for lambdas in [
            vec![3, -20, 24, 18, -30, 15, 22],
            vec![-20, 3, 24, 18, -30, 15, 22],
            vec![20, 24, -4, 18, 4, -15],
            vec![20, 24, -14, 18, 30, -15, 2],
        ] {
            let out2 = r2.process_row(&lambdas).check_messages;
            let out4 = r4.process_row(&lambdas).check_messages;
            for (a, b) in out2.iter().zip(&out4) {
                assert!(
                    (a - b).abs() <= 4,
                    "{lambdas:?}: R2 {out2:?} vs R4 {out4:?}"
                );
            }
        }
        let sat = arith.format().max_code() as i16;
        assert_eq!(r4.process_row(&[-9]).check_messages, vec![sat]);
        // Degree 2: the weaker edge receives the other one exactly.
        let pair = r4.process_row(&[9, -4]).check_messages;
        assert_eq!(pair[1], 9);
        assert_eq!(pair, r2.process_row(&[9, -4]).check_messages);
    }

    #[test]
    fn r4_float_matches_r2_closely() {
        let arith = FloatBpArithmetic::default();
        let r2 = R2Siso::new(arith);
        let r4 = R4Siso::new(arith);
        for lambdas in [
            vec![1.5, -2.0, 0.7, 3.2, -1.1, 0.9],
            vec![4.0, -3.0, 2.0, -1.0, 0.5],
            vec![2.0, -2.0],
        ] {
            let out2 = r2.process_row(&lambdas);
            let out4 = r4.process_row(&lambdas);
            for (a, b) in out2.check_messages.iter().zip(&out4.check_messages) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "R4 must be functionally equivalent: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn r4_fixed_stays_within_quantization_of_r2() {
        let arith = FixedBpArithmetic::default();
        let r2 = R2Siso::new(arith.clone());
        let r4 = R4Siso::new(arith);
        let lambdas = [9, -14, 21, 6, -3, 30, -11, 4, 17];
        let out2 = r2.process_row(&lambdas);
        let out4 = r4.process_row(&lambdas);
        for (a, b) in out2.check_messages.iter().zip(&out4.check_messages) {
            // The look-ahead transform changes the association order of the
            // LUT-quantised f(·) recursion; a few LSBs of drift are expected.
            assert!((a - b).abs() <= 4, "R4 fixed drifted too far: {a} vs {b}");
        }
    }

    #[test]
    fn r4_halves_the_stage_cycles() {
        let arith = FloatBpArithmetic::default();
        let r2 = R2Siso::new(arith);
        let r4 = R4Siso::new(arith);
        let lambdas = vec![1.0; 20];
        let out2 = r2.process_row(&lambdas);
        let out4 = r4.process_row(&lambdas);
        assert_eq!(out2.pipelined_cycles(), 20);
        assert_eq!(out4.pipelined_cycles(), 10);
        assert_eq!(out2.latency_cycles(), 2 * out4.latency_cycles());
    }

    #[test]
    fn empty_row_takes_no_cycles() {
        let arith = FloatBpArithmetic::default();
        let out = R2Siso::new(arith).process_row(&[]);
        assert!(out.check_messages.is_empty());
        assert_eq!(out.latency_cycles(), 0);
        let out = R4Siso::new(arith).process_row(&[]);
        assert!(out.check_messages.is_empty());
        assert_eq!(out.latency_cycles(), 0);
    }

    #[test]
    fn odd_degree_r4_handles_the_leftover_message() {
        let arith = FixedBpArithmetic::new(FixedFormat::new(8, 2), 3);
        let r4 = R4Siso::new(arith);
        let lambdas = [10, -20, 30];
        let out = r4.process_row(&lambdas);
        assert_eq!(out.check_messages.len(), 3);
        assert_eq!(out.stage1_cycles, 2);
        // Sign structure of a 3-message row: each output sign is the product
        // of the other two.
        assert!(out.check_messages[0] < 0);
        assert!(out.check_messages[1] > 0);
        assert!(out.check_messages[2] < 0);
    }

    #[test]
    fn accessors_expose_arithmetic() {
        let r2 = R2Siso::new(FloatBpArithmetic::default());
        assert!(r2.arithmetic().name().contains("BP"));
        let r4 = R4Siso::new(FloatBpArithmetic::default());
        assert!(r4.arithmetic().name().contains("BP"));
    }
}
