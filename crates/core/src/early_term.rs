//! Early-termination rule (§IV of the paper).
//!
//! To save power the decoder stops iterating when both of the following hold:
//!
//! 1. the hard decisions of the *information* bits have not changed over two
//!    successive iterations, and
//! 2. the minimum absolute LLR of the information bits exceeds a pre-defined
//!    threshold.
//!
//! At good channel conditions this terminates most frames after a couple of
//! iterations and yields the up-to-65 % power reduction of Fig. 9(a).
//!
//! The decode drivers evaluate the rule in the message domain: the threshold
//! is converted once to a message value, and one pass per group compares,
//! records and tests the decisions in place.

use crate::arith::DecoderArithmetic;

/// Configuration of the early-termination rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyTermination {
    /// Minimum absolute information-bit LLR required to allow termination.
    pub threshold: f64,
}

impl Default for EarlyTermination {
    /// A threshold of 4.0 LLR units (16 LSBs of the Q6.2 datapath).
    fn default() -> Self {
        EarlyTermination { threshold: 4.0 }
    }
}

impl EarlyTermination {
    /// Creates a rule with the given LLR threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is negative.
    #[must_use]
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        EarlyTermination { threshold }
    }
}

/// Tracks hard decisions across iterations and evaluates the termination rule
/// on LLR values (the form the architecture model feeds it).
#[derive(Debug, Clone, PartialEq)]
pub struct TerminationTracker {
    rule: EarlyTermination,
    /// The previous iteration's decisions, `None` before the first one.
    previous: Option<Vec<u8>>,
}

impl TerminationTracker {
    /// Creates a tracker for one frame.
    #[must_use]
    pub fn new(rule: EarlyTermination) -> Self {
        TerminationTracker {
            rule,
            previous: None,
        }
    }

    /// Feeds the information-bit hard decisions and LLR magnitudes of the
    /// iteration that just finished; returns `true` if decoding may stop.
    pub fn should_terminate(&mut self, info_decisions: &[u8], min_abs_info_llr: f64) -> bool {
        let stable = self.previous.as_deref() == Some(info_decisions);
        let previous = self.previous.get_or_insert_with(Vec::new);
        previous.clear();
        previous.extend_from_slice(info_decisions);
        stable && min_abs_info_llr > self.rule.threshold
    }

    /// Resets the tracker for a new frame.
    pub fn reset(&mut self) {
        self.previous = None;
    }
}

/// Decision value that matches no hard bit: a frame's decision record starts
/// filled with it, so the first check of a frame never reports stability.
pub(crate) const NO_DECISION: u8 = 2;

/// The rule's threshold in `arith`'s message domain, converted once per
/// decode; `None` when no check can ever fire (no rule, or a threshold that
/// no finite magnitude exceeds: `+∞` or NaN).
pub(crate) fn message_threshold<A: DecoderArithmetic>(
    arith: &A,
    rule: Option<&EarlyTermination>,
) -> Option<A::Msg> {
    rule.filter(|r| r.threshold < f64::INFINITY)
        .map(|r| arith.termination_threshold(r.threshold))
}

/// Flags accumulated per stride-1 run in [`check_frames`] before the fold
/// into per-frame verdicts (rounded to a multiple of the group width).
const VERDICT_LANES: usize = 64;

/// The early-termination check (§IV) of every frame of a `width`-frame group
/// at once, in one stride-1 in-place pass over the interleaved
/// information-bit APP messages (`app[i · width + slot]`, see
/// [`crate::group`]): each hard decision is compared with the previous
/// iteration's (`decisions`, same layout) and recorded in its place, and
/// every magnitude is tested against the message-domain threshold `t` (from
/// [`message_threshold`]). On return `verdicts[slot]` is 0 exactly when frame
/// `slot`'s decisions were stable *and* every magnitude exceeds the
/// threshold — the rule's "min |L| above the threshold". Serves the
/// single-frame and flooding drivers (`width = 1`) and the group driver.
///
/// The per-element flags are OR-ed into a run of `width · ⌊64 / width⌋`
/// accumulators (position `j` collects frame `j mod width`), so the pass
/// vectorises whatever the width.
pub(crate) fn check_frames<A: DecoderArithmetic>(
    arith: &A,
    t: A::Msg,
    app: &[A::Msg],
    decisions: &mut [u8],
    width: usize,
    verdicts: &mut Vec<u8>,
) {
    debug_assert_eq!(app.len(), decisions.len());
    debug_assert!(app.len().is_multiple_of(width));
    let lanes = width * (VERDICT_LANES / width).max(1);
    verdicts.clear();
    verdicts.resize(lanes, 0);
    let mut check = |ms: &[A::Msg], ds: &mut [u8]| {
        for ((v, d), &m) in verdicts.iter_mut().zip(ds).zip(ms) {
            let bit = arith.hard_bit(m);
            *v |= (*d ^ bit) | u8::from(!arith.exceeds(m, t));
            *d = bit;
        }
    };
    // Whole runs first (a fixed trip count that vectorises), then the tail.
    let mut ms = app.chunks_exact(lanes);
    let mut ds = decisions.chunks_exact_mut(lanes);
    for (m, d) in (&mut ms).zip(&mut ds) {
        check(m, d);
    }
    check(ms.remainder(), ds.into_remainder());
    for j in width..lanes {
        verdicts[j % width] |= verdicts[j];
    }
    verdicts.truncate(width);
}

/// Capacity [`check_frames`] needs for its verdicts of a `width`-frame group.
pub(crate) fn verdict_capacity(width: usize) -> usize {
    VERDICT_LANES.max(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_is_positive() {
        assert!(EarlyTermination::default().threshold > 0.0);
    }

    #[test]
    fn never_terminates_on_first_iteration() {
        let mut t = TerminationTracker::new(EarlyTermination::default());
        assert!(!t.should_terminate(&[0, 1, 0], 100.0));
    }

    #[test]
    fn terminates_when_stable_and_confident() {
        let mut t = TerminationTracker::new(EarlyTermination::with_threshold(4.0));
        assert!(!t.should_terminate(&[0, 1, 0], 10.0));
        assert!(t.should_terminate(&[0, 1, 0], 10.0));
    }

    #[test]
    fn does_not_terminate_when_decisions_change() {
        let mut t = TerminationTracker::new(EarlyTermination::with_threshold(4.0));
        assert!(!t.should_terminate(&[0, 1, 0], 10.0));
        assert!(!t.should_terminate(&[0, 1, 1], 10.0));
        // Now stable again but only for one pair of iterations.
        assert!(t.should_terminate(&[0, 1, 1], 10.0));
    }

    #[test]
    fn does_not_terminate_below_threshold() {
        let mut t = TerminationTracker::new(EarlyTermination::with_threshold(4.0));
        assert!(!t.should_terminate(&[1, 1], 3.0));
        assert!(!t.should_terminate(&[1, 1], 3.9));
        assert!(
            !t.should_terminate(&[1, 1], 4.0),
            "strictly larger required"
        );
        assert!(t.should_terminate(&[1, 1], 4.1));
    }

    #[test]
    fn reset_clears_history() {
        let mut t = TerminationTracker::new(EarlyTermination::with_threshold(1.0));
        assert!(!t.should_terminate(&[0], 5.0));
        t.reset();
        assert!(!t.should_terminate(&[0], 5.0));
        assert!(t.should_terminate(&[0], 5.0));
    }

    #[test]
    fn message_domain_check_matches_the_llr_rule() {
        use crate::arith::{FixedBpArithmetic, FloatBpArithmetic};
        let fx = FixedBpArithmetic::default();
        let rule = EarlyTermination::with_threshold(4.0);
        let t = message_threshold(&fx, Some(&rule)).unwrap();
        // Interleaved two-frame layout: frame 1 sits in odd positions and
        // holds a magnitude of exactly 16 codes = 4.0, which is not above.
        let app: Vec<i16> = vec![17, -40, -18, 16, 30, 90];
        let mut decisions = vec![NO_DECISION; 6];
        let mut verdicts = Vec::new();
        check_frames(&fx, t, &app, &mut decisions, 2, &mut verdicts);
        assert!(verdicts.iter().all(|&v| v != 0), "first check never stable");
        assert_eq!(decisions, [0, 1, 1, 0, 0, 0]);
        check_frames(&fx, t, &app, &mut decisions, 2, &mut verdicts);
        assert_eq!(verdicts[0], 0, "frame 0: stable and confident");
        assert_ne!(verdicts[1], 0, "frame 1: 16 codes is not above 4.0");
        // A flipped decision breaks stability of its frame only.
        let flipped: Vec<i16> = vec![-17, -40, -18, 16, 30, 90];
        check_frames(&fx, t, &flipped, &mut decisions, 2, &mut verdicts);
        assert_ne!(verdicts[0], 0);
        // Widths that do not divide the accumulator run fold correctly.
        for width in [1usize, 3, 5, 7, 64, 100] {
            let app: Vec<i16> = (0..width * 50).map(|i| 20 + (i % 9) as i16).collect();
            let mut decisions = vec![NO_DECISION; app.len()];
            check_frames(&fx, t, &app, &mut decisions, width, &mut verdicts);
            check_frames(&fx, t, &app, &mut decisions, width, &mut verdicts);
            assert_eq!(verdicts, vec![0; width], "width {width}");
        }
        // Thresholds no magnitude exceeds disable the check entirely.
        let fl = FloatBpArithmetic::default();
        for threshold in [f64::INFINITY, f64::NAN] {
            let rule = EarlyTermination { threshold };
            assert!(message_threshold(&fl, Some(&rule)).is_none());
        }
        assert!(message_threshold(&fl, None).is_none());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_negative_threshold() {
        let _ = EarlyTermination::with_threshold(-1.0);
    }
}
