//! Serving policies: the per-mode [`ShardPolicy`], the per-frame
//! [`SubmitOptions`], and the [`DecoderPolicy`] trait behind the uniform
//! [`DecodeService::builder`](crate::DecodeService::builder) path.
//!
//! A [`ShardPolicy`] describes *how a mode wants to be served* — its latency
//! SLO, its priority class against other modes, how long the dispatcher may
//! hold frames to grow a batch, and whether frames that can no longer meet
//! their deadline should be shed up front instead of decoded late. The
//! default policy reproduces the greedy pre-policy behaviour exactly:
//! dispatch as soon as a worker is free, coalesce whatever is queued, never
//! shed.
//!
//! A [`DecoderPolicy`] describes *what decodes*: anything that can stamp out
//! the decoder instance a service template-clones into its shards. Every
//! serving decoder is its own policy (so `DecodeService::builder(decoder)`
//! keeps working verbatim), and the cascade's budgets, [`CascadeConfig`],
//! are just one more implementation — not a special-cased constructor.

use std::time::{Duration, Instant};

use ldpc_core::arith::DecoderArithmetic;
use ldpc_core::cascade::{CascadeConfig, CascadeDecoder};
use ldpc_core::decoder::LayeredDecoder;
use ldpc_core::Decoder;

/// Dispatch priority class of a shard or frame. Ordered by urgency:
/// [`Priority::High`] sorts (and is served) first.
///
/// Priorities compose at two levels. A shard's [`ShardPolicy::priority`]
/// decides which mode a free dispatch worker serves when several shards are
/// ready at once; a frame's [`SubmitOptions::priority`] reorders that frame
/// within its shard's queue (ahead of every lower class, behind earlier
/// frames of its own class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Served before every other class.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when no higher class is ready.
    Low,
}

/// Per-mode serving policy: how one shard batches, prioritises and sheds.
///
/// Registered per mode through
/// [`DecodeServiceBuilder::register_with_policy`](crate::DecodeServiceBuilder::register_with_policy);
/// plain `register` uses [`ShardPolicy::default`], which is today's greedy
/// behaviour (dispatch immediately, never hold, never shed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardPolicy {
    /// Target completion latency for this mode's frames. When set, frames
    /// submitted without an explicit deadline get `arrival + slo` as their
    /// effective deadline, and the micro-batch hold timer defaults to half
    /// the SLO (see [`ShardPolicy::max_hold`]).
    pub slo: Option<Duration>,
    /// The shard's dispatch class against other shards; see [`Priority`].
    pub priority: Priority,
    /// Longest time the dispatcher may hold this shard's frames waiting for
    /// a fuller batch. A frame becomes dispatchable at
    /// `arrival + min(max_hold, deadline_slack)` — or immediately once the
    /// shard has a full batch queued. `None` defaults to `slo / 2` when an
    /// SLO is set, or zero (greedy dispatch) otherwise.
    pub max_hold: Option<Duration>,
    /// Queue-depth-based admission control: when `true`, a frame whose
    /// effective deadline cannot be met — at admission, given the queue
    /// ahead of it, or at dispatch, given the batch being formed — resolves
    /// as [`DecodeOutcome::Shed`](crate::DecodeOutcome::Shed) instead of
    /// being decoded late. Requires an observed (or seeded) decode-cost
    /// estimate; a shard that has never decoded sheds nothing.
    pub shed: bool,
    /// Seed for the shard's per-frame decode-cost estimate, which the
    /// dispatcher otherwise learns as an EWMA of observed batch times. Set
    /// it to make shedding decisions deterministic from the first frame
    /// (tests, or deployments with known mode costs).
    pub expected_frame_cost: Option<Duration>,
    /// Graceful-degradation ladder: under sustained queue pressure the
    /// dispatcher first cheapens the shard decoder's cascade effort
    /// (level by level, up to [`DegradationPolicy::max_level`]) and only
    /// sheds frames once the ladder is exhausted. `None` (the default)
    /// keeps the PR-8 behaviour: shed as soon as a deadline is unmeetable.
    pub degradation: Option<DegradationPolicy>,
}

impl ShardPolicy {
    /// The greedy default policy: dispatch as soon as a worker is free,
    /// never hold, never shed. Identical to what plain
    /// [`register`](crate::DecodeServiceBuilder::register) applies.
    #[must_use]
    pub fn greedy() -> Self {
        ShardPolicy::default()
    }

    /// An SLO-driven policy: frames target completion within `slo` of
    /// arrival, the micro-batch timer holds up to `slo / 2`, and frames that
    /// can no longer make the target are shed instead of decoded late.
    #[must_use]
    pub fn with_slo(slo: Duration) -> Self {
        ShardPolicy {
            slo: Some(slo),
            shed: true,
            ..ShardPolicy::default()
        }
    }

    /// Sets the shard's dispatch [`Priority`].
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the micro-batch hold ceiling; see [`ShardPolicy::max_hold`].
    #[must_use]
    pub fn max_hold(mut self, max_hold: Duration) -> Self {
        self.max_hold = Some(max_hold);
        self
    }

    /// Enables or disables load shedding; see [`ShardPolicy::shed`].
    #[must_use]
    pub fn shed(mut self, shed: bool) -> Self {
        self.shed = shed;
        self
    }

    /// Seeds the decode-cost estimate; see
    /// [`ShardPolicy::expected_frame_cost`].
    #[must_use]
    pub fn expected_frame_cost(mut self, cost: Duration) -> Self {
        self.expected_frame_cost = Some(cost);
        self
    }

    /// Enables the graceful-degradation ladder; see
    /// [`ShardPolicy::degradation`].
    #[must_use]
    pub fn degradation(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = Some(degradation);
        self
    }

    /// The effective micro-batch hold ceiling.
    pub(crate) fn hold_limit(&self) -> Duration {
        self.max_hold.unwrap_or_else(|| {
            self.slo
                .map_or(Duration::ZERO, |slo| slo.checked_div(2).unwrap_or(slo))
        })
    }

    /// Whether this shard micro-batches (holds frames) at all; greedy shards
    /// keep the pre-policy take-everything drain behaviour, including ragged
    /// batch tails.
    pub(crate) fn micro_batching(&self) -> bool {
        !self.hold_limit().is_zero()
    }
}

/// Graceful-degradation ladder: trade coding effort for throughput *before*
/// dropping frames.
///
/// The dispatcher watches the shard's queue fill (depth ÷ capacity, in
/// percent) at every dispatch. At or above
/// [`high_watermark_pct`](DegradationPolicy::high_watermark_pct) it steps
/// the shard's degradation level up (cheapening the decoder's cascade via
/// [`Decoder::set_effort_level`]); at or below
/// [`low_watermark_pct`](DegradationPolicy::low_watermark_pct) it steps back
/// down toward full effort. While the ladder still has rungs left
/// (level < [`max_level`](DegradationPolicy::max_level)), admission-control
/// shedding is suppressed — a degraded decode beats a dropped frame; only a
/// fully degraded shard falls back to shedding.
///
/// The watermarks are integer percents (hysteresis gap between them prevents
/// level flapping). For the built-in cascade decoder the rungs are:
/// level 1 drops the float-BP rescue stage, level 2 additionally halves the
/// fixed-BP stage's iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Queue fill (percent of capacity) at which the level steps up.
    pub high_watermark_pct: u8,
    /// Queue fill (percent of capacity) at or below which the level steps
    /// back down. Must be below the high watermark for hysteresis.
    pub low_watermark_pct: u8,
    /// Deepest degradation level the dispatcher may request. The built-in
    /// cascade understands levels 1 and 2; higher values are clamped by the
    /// decoder itself.
    pub max_level: u8,
}

impl Default for DegradationPolicy {
    /// Step down effort at 60% queue fill, recover below 20%, two rungs.
    fn default() -> Self {
        DegradationPolicy {
            high_watermark_pct: 60,
            low_watermark_pct: 20,
            max_level: 2,
        }
    }
}

/// Backoff schedule for
/// [`DecodeService::submit_with_retry`](crate::DecodeService::submit_with_retry):
/// bounded, jittered exponential backoff around transient
/// [`SubmitError::QueueFull`](crate::SubmitError::QueueFull) refusals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total submission attempts (the first try counts; 1 = no retries).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter (each sleep is scaled into
    /// [50%, 100%] of its nominal value so colliding submitters spread out).
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Eight attempts, 200 µs initial backoff, 20 ms cap.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `attempt` (0-based), already
    /// exponentiated and capped. Deterministic in (`seed`, `attempt`).
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let nominal = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.max_backoff);
        // Scale into [50%, 100%] using splitmix64 as the jitter source.
        let jitter = splitmix64(self.seed ^ u64::from(attempt));
        nominal / 2 + nominal.mul_f64(0.5 * (jitter as f64 / u64::MAX as f64))
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mix. The serving layer
/// uses it wherever it needs deterministic pseudo-randomness without a
/// stateful RNG — retry jitter here, fault-plan frame selection in the chaos
/// harness (`splitmix64(seed ^ seq)` gives every sequence number an
/// independent uniform draw).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-frame submission options for
/// [`DecodeService::submit`](crate::DecodeService::submit), the one
/// submission entry point: deadline, blocking behaviour and priority are all
/// set here.
///
/// `submit` takes `impl Into<SubmitOptions>`, so the common cases stay terse:
///
/// * `()` — blocking, no deadline;
/// * an [`Instant`] — blocking with that deadline;
/// * a [`Priority`] — blocking, no deadline, in that class;
/// * a full `SubmitOptions` for everything else, e.g.
///   `SubmitOptions::new().deadline(t).non_blocking()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Completion deadline. A frame still queued past it completes as
    /// [`DecodeOutcome::Expired`](crate::DecodeOutcome::Expired); with
    /// [`ShardPolicy::shed`] it may resolve as
    /// [`DecodeOutcome::Shed`](crate::DecodeOutcome::Shed) earlier. `None`
    /// falls back to the shard's SLO (when set) as an implicit
    /// `arrival + slo` deadline.
    pub deadline: Option<Instant>,
    /// Whether a full shard queue parks the caller (`true`, the default) or
    /// refuses with
    /// [`SubmitError::QueueFull`](crate::SubmitError::QueueFull) handing the
    /// frame back (`false`).
    pub blocking: bool,
    /// The frame's [`Priority`] within its shard queue.
    pub priority: Priority,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            deadline: None,
            blocking: true,
            priority: Priority::Normal,
        }
    }
}

impl SubmitOptions {
    /// Blocking submission, no deadline, normal priority — the defaults.
    #[must_use]
    pub fn new() -> Self {
        SubmitOptions::default()
    }

    /// Sets the completion deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Makes the submission non-blocking: a full queue refuses the frame
    /// instead of parking the caller.
    #[must_use]
    pub fn non_blocking(mut self) -> Self {
        self.blocking = false;
        self
    }

    /// Sets the frame's [`Priority`].
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

impl From<()> for SubmitOptions {
    fn from((): ()) -> Self {
        SubmitOptions::default()
    }
}

impl From<Instant> for SubmitOptions {
    fn from(deadline: Instant) -> Self {
        SubmitOptions::default().deadline(deadline)
    }
}

impl From<Priority> for SubmitOptions {
    fn from(priority: Priority) -> Self {
        SubmitOptions::default().priority(priority)
    }
}

/// What decodes in a service's shards: a factory for the decoder instance
/// the service template-clones (via
/// [`Decoder::detached_clone`]) into every shard.
///
/// This is the uniform parameter of
/// [`DecodeService::builder`](crate::DecodeService::builder). The serving
/// decoders ([`LayeredDecoder`], [`CascadeDecoder`]) implement it as their
/// own factory — `builder(decoder)` call sites from the pre-policy API
/// compile unchanged — and [`CascadeConfig`] implements it by building the
/// cascade it describes.
pub trait DecoderPolicy {
    /// The decoder type this policy builds.
    type Decoder: Decoder + Clone + Send + Sync + 'static;

    /// Builds the service's template decoder instance.
    fn build_decoder(&self) -> Self::Decoder;

    /// Human-readable label of what decodes (for reports and harnesses),
    /// e.g. `"layered/float-bp"` or `"cascade"`.
    fn label(&self) -> String;
}

impl<A: DecoderArithmetic> DecoderPolicy for LayeredDecoder<A>
where
    LayeredDecoder<A>: Decoder + Clone + Send + Sync + 'static,
{
    type Decoder = Self;

    fn build_decoder(&self) -> Self {
        self.clone()
    }

    fn label(&self) -> String {
        format!("{}/{}", self.schedule_name(), self.arithmetic().name())
    }
}

impl DecoderPolicy for CascadeDecoder {
    type Decoder = Self;

    fn build_decoder(&self) -> Self {
        self.clone()
    }

    fn label(&self) -> String {
        "cascade".to_string()
    }
}

impl DecoderPolicy for CascadeConfig {
    type Decoder = CascadeDecoder;

    fn build_decoder(&self) -> CascadeDecoder {
        self.decoder()
    }

    fn label(&self) -> String {
        "cascade".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_core::{DecoderConfig, FloatBpArithmetic};

    #[test]
    fn priority_orders_high_first() {
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn default_policy_is_greedy() {
        let p = ShardPolicy::default();
        assert_eq!(p, ShardPolicy::greedy());
        assert_eq!(p.hold_limit(), Duration::ZERO);
        assert!(!p.micro_batching());
        assert!(!p.shed);
    }

    #[test]
    fn slo_policy_holds_half_the_slo_and_sheds() {
        let p = ShardPolicy::with_slo(Duration::from_millis(10));
        assert_eq!(p.hold_limit(), Duration::from_millis(5));
        assert!(p.micro_batching());
        assert!(p.shed);
        let capped = p.max_hold(Duration::from_millis(2));
        assert_eq!(capped.hold_limit(), Duration::from_millis(2));
    }

    #[test]
    fn submit_options_conversions_cover_the_old_matrix() {
        let plain: SubmitOptions = ().into();
        assert_eq!(plain, SubmitOptions::new());
        assert!(plain.blocking);
        assert!(plain.deadline.is_none());

        let t = Instant::now();
        let deadlined: SubmitOptions = t.into();
        assert_eq!(deadlined.deadline, Some(t));
        assert!(deadlined.blocking);

        let urgent: SubmitOptions = Priority::High.into();
        assert_eq!(urgent.priority, Priority::High);

        let full = SubmitOptions::new().deadline(t).non_blocking();
        assert!(!full.blocking);
        assert_eq!(full.deadline, Some(t));
    }

    #[test]
    fn degradation_policy_defaults_keep_hysteresis() {
        let d = DegradationPolicy::default();
        assert!(d.low_watermark_pct < d.high_watermark_pct);
        assert!(d.max_level >= 1);
        let p = ShardPolicy::with_slo(Duration::from_millis(10)).degradation(d);
        assert_eq!(p.degradation, Some(d));
        assert_eq!(ShardPolicy::default().degradation, None);
    }

    #[test]
    fn retry_backoff_is_exponential_capped_and_deterministic() {
        let policy = RetryPolicy::default();
        let first = policy.backoff(0);
        // Jitter keeps every sleep within [50%, 100%] of nominal.
        assert!(first >= policy.base_backoff / 2 && first <= policy.base_backoff);
        assert!(policy.backoff(3) > policy.backoff(0) / 2 * 4);
        assert!(policy.backoff(40) <= policy.max_backoff, "capped");
        assert_eq!(policy.backoff(2), policy.backoff(2), "deterministic");
        let reseeded = RetryPolicy {
            seed: 1234,
            ..policy
        };
        assert_ne!(reseeded.backoff(2), policy.backoff(2), "seed moves jitter");
    }

    #[test]
    fn splitmix_spreads_consecutive_inputs() {
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff, b & 0xffff, "low bits differ too");
    }

    #[test]
    fn decoder_policies_label_and_build() {
        let layered =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        assert!(DecoderPolicy::label(&layered).starts_with("layered/"));
        let _ = layered.build_decoder();

        let policy = CascadeConfig::default();
        assert_eq!(DecoderPolicy::label(&policy), "cascade");
        let cascade = policy.build_decoder();
        assert_eq!(DecoderPolicy::label(&cascade), "cascade");
    }
}
