//! Per-shard serving counters, the latency histogram, and their public
//! snapshot forms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ldpc_codes::CodeId;

use crate::harq::SoftBufferStats;
use crate::policy::{Priority, ShardPolicy};

/// Log-bucketed latency histogram: power-of-two octaves split into
/// `2^SUB_BITS` linear sub-buckets, so relative resolution is a constant
/// ~`1/2^SUB_BITS` across the whole nanosecond-to-minutes range. Recording
/// is one relaxed `fetch_add`; percentile extraction walks the cumulative
/// counts and reports the matched bucket's upper bound (conservative:
/// percentiles read slightly high, never low — the right bias for SLO
/// gating).
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    max_nanos: AtomicU64,
}

const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for every `u64` nanosecond value (index ≤ (64-3+1)·8).
const BUCKETS: usize = ((64 - SUB_BITS as usize + 1) + 1) * SUB as usize;

fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB {
        return nanos as usize;
    }
    let msb = 63 - u64::from(nanos.leading_zeros());
    let shift = msb - u64::from(SUB_BITS);
    let sub = (nanos >> shift) - SUB;
    ((shift + 1) * SUB + sub) as usize
}

/// Largest value mapping to `index` — what percentiles report.
fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let shift = index / SUB - 1;
    let sub = index % SUB;
    let low = (SUB + sub) << shift;
    low + ((1u64 << shift) - 1)
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    pub(crate) fn record(&self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> LatencyStats {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let max_nanos = self.max_nanos.load(Ordering::Relaxed);
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // 1-based rank of the order statistic the quantile asks for.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper_bound(i).min(max_nanos);
                }
            }
            max_nanos
        };
        LatencyStats {
            count,
            p50_nanos: percentile(0.50),
            p99_nanos: percentile(0.99),
            p999_nanos: percentile(0.999),
            max_nanos,
        }
    }
}

/// Completion-latency percentiles of one shard's decoded frames, measured
/// from frame arrival (submission accept) to outcome completion.
///
/// Extracted from a log-bucketed histogram with ~12% relative resolution;
/// each percentile reports its bucket's upper bound, so values read
/// slightly high, never low. Only *decoded* frames record latency — shed,
/// expired and failed frames are accounted in their own counters instead of
/// polluting the distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct LatencyStats {
    /// Decoded frames measured.
    pub count: u64,
    /// Median completion latency, in nanoseconds.
    pub p50_nanos: u64,
    /// 99th-percentile completion latency, in nanoseconds.
    pub p99_nanos: u64,
    /// 99.9th-percentile completion latency, in nanoseconds.
    pub p999_nanos: u64,
    /// Worst observed completion latency, in nanoseconds.
    pub max_nanos: u64,
}

impl LatencyStats {
    /// Median completion latency.
    #[must_use]
    pub fn p50(&self) -> Duration {
        Duration::from_nanos(self.p50_nanos)
    }

    /// 99th-percentile completion latency.
    #[must_use]
    pub fn p99(&self) -> Duration {
        Duration::from_nanos(self.p99_nanos)
    }

    /// 99.9th-percentile completion latency.
    #[must_use]
    pub fn p999(&self) -> Duration {
        Duration::from_nanos(self.p999_nanos)
    }

    /// Worst observed completion latency.
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }
}

/// Live counters one shard's submit paths and dispatch workers update.
/// Reads are relaxed snapshots — consistent enough for monitoring and for
/// quiescent assertions (after `shutdown`, all counters are final).
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Frames accepted into the ingest queue (or shed at admission).
    pub accepted: AtomicU64,
    /// Non-blocking refusals due to a full queue (backpressure events).
    pub rejected_full: AtomicU64,
    /// Submissions refused for a non-finite LLR.
    pub rejected_non_finite: AtomicU64,
    /// Frames decoded and completed with an output.
    pub decoded: AtomicU64,
    /// Frames completed as expired (deadline passed before decoding).
    pub expired: AtomicU64,
    /// Frames shed by admission control (deadline unmeetable; see
    /// [`crate::DecodeOutcome::Shed`]).
    pub shed: AtomicU64,
    /// Frames completed with a decode-engine error.
    pub failed: AtomicU64,
    /// Coalesced `decode_batch` calls issued.
    pub batches: AtomicU64,
    /// Largest number of frames coalesced into one batch.
    pub max_coalesced: AtomicU64,
    /// EWMA of the observed per-frame decode cost, in nanoseconds; zero
    /// until the first batch unless seeded from
    /// [`ShardPolicy::expected_frame_cost`]. Drives shedding decisions.
    pub est_frame_nanos: AtomicU64,
    /// Service-wide dispatch sequence number of this shard's first decoded
    /// batch, plus one (zero = never dispatched). Makes cross-shard dispatch
    /// order — the observable effect of [`Priority`] — testable.
    pub first_dispatch_seq: AtomicU64,
    /// Completion-latency histogram of decoded frames.
    pub latency: LatencyHistogram,
    /// Cascade escalation events (stage ≥ 2 entries), mirrored from the
    /// shard decoder's [`ldpc_core::CascadeStats`] after every batch; zero
    /// for non-cascade decoders.
    pub cascade_escalations: AtomicU64,
    /// Frames decoded per cascade stage, mirrored like
    /// [`ShardCounters::cascade_escalations`].
    pub cascade_stage_frames: [AtomicU64; 3],
    /// Frames resolved as [`crate::DecodeOutcome::Abandoned`] by their
    /// completion-on-drop guard — only possible when a dispatch worker
    /// panicked while holding them. Counted by the guard itself, so the
    /// books balance even across a crash.
    pub abandoned: AtomicU64,
    /// Frames isolated by quarantine bisection as the cause of a batch
    /// panic and resolved as [`crate::DecodeOutcome::Poisoned`].
    pub quarantined: AtomicU64,
    /// Dispatch-worker panics attributed to this shard (the supervisor
    /// restarted the worker loop each time).
    pub worker_restarts: AtomicU64,
    /// Batches decoded while the shard's degradation ladder was engaged
    /// (level > 0), i.e. at reduced cascade effort.
    pub degraded_batches: AtomicU64,
    /// Current degradation level (gauge, not a counter): 0 = full effort;
    /// higher levels progressively cheapen the shard decoder's cascade.
    pub degradation_level: AtomicU64,
    /// When the most recent dispatch *finished*, in nanoseconds since the
    /// service epoch, clamped ≥ 1 (zero = never dispatched).
    pub last_dispatch_nanos: AtomicU64,
    /// When the dispatch currently decoding *started*, same clock as
    /// [`ShardCounters::last_dispatch_nanos`]; zero = no dispatch in
    /// progress. The watchdog's stall detection compares its age against
    /// the EWMA cost estimate.
    pub dispatch_started_nanos: AtomicU64,
    /// Frame count of the in-progress (or most recent) dispatch — the
    /// multiplier for the stall budget.
    pub dispatch_frames: AtomicU64,
    /// HARQ combine operations performed by this shard's `submit_harq`
    /// path (each folds one transmission into a soft buffer).
    pub harq_combines: AtomicU64,
    /// HARQ frames whose soft buffer was parked for a retransmission
    /// (decode failed, expired, shed, poisoned, or abandoned).
    pub harq_parked: AtomicU64,
    /// HARQ frames whose soft buffer was released by a parity-satisfied
    /// decode.
    pub harq_released: AtomicU64,
    /// Soft buffers this shard stored that the store later evicted
    /// (budget LRU, TTL, or chaos-forced).
    pub harq_evictions: AtomicU64,
    /// HARQ retransmissions that found no stored buffer (evicted
    /// mid-HARQ) and restarted accumulation from fresh LLRs.
    pub harq_evicted_restarts: AtomicU64,
}

impl ShardCounters {
    pub(crate) fn snapshot(
        &self,
        code: CodeId,
        queue_depth: usize,
        pool_workspaces_created: usize,
        policy: &ShardPolicy,
        effective_max_batch: usize,
    ) -> ShardStats {
        let first_dispatch_seq = self.first_dispatch_seq.load(Ordering::Relaxed);
        ShardStats {
            code,
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_non_finite: self.rejected_non_finite.load(Ordering::Relaxed),
            decoded: self.decoded.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_coalesced: self.max_coalesced.load(Ordering::Relaxed),
            est_frame_nanos: self.est_frame_nanos.load(Ordering::Relaxed),
            first_dispatch_order: first_dispatch_seq.checked_sub(1),
            latency: self.latency.snapshot(),
            cascade_escalations: self.cascade_escalations.load(Ordering::Relaxed),
            cascade_stage_frames: [
                self.cascade_stage_frames[0].load(Ordering::Relaxed),
                self.cascade_stage_frames[1].load(Ordering::Relaxed),
                self.cascade_stage_frames[2].load(Ordering::Relaxed),
            ],
            abandoned: self.abandoned.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            degradation_level: u8::try_from(self.degradation_level.load(Ordering::Relaxed))
                .unwrap_or(u8::MAX),
            harq_combines: self.harq_combines.load(Ordering::Relaxed),
            harq_parked: self.harq_parked.load(Ordering::Relaxed),
            harq_released: self.harq_released.load(Ordering::Relaxed),
            harq_evictions: self.harq_evictions.load(Ordering::Relaxed),
            harq_evicted_restarts: self.harq_evicted_restarts.load(Ordering::Relaxed),
            queue_depth,
            pool_workspaces_created,
            priority: policy.priority,
            slo: policy.slo,
            effective_max_batch,
        }
    }

    /// Folds one observed batch into the per-frame cost EWMA
    /// (`new = (3·old + observed) / 4`; the first observation seeds it).
    pub(crate) fn observe_batch_cost(&self, elapsed: Duration, frames: usize) {
        if frames == 0 {
            return;
        }
        let per_frame = u64::try_from(elapsed.as_nanos() / frames as u128).unwrap_or(u64::MAX);
        let old = self.est_frame_nanos.load(Ordering::Relaxed);
        let new = if old == 0 {
            per_frame
        } else {
            (3 * (old / 4)).saturating_add(per_frame / 4).max(1)
        };
        self.est_frame_nanos.store(new, Ordering::Relaxed);
    }

    /// Stamps the shard's first dispatch with the service-wide sequence
    /// number `seq` (0-based); later dispatches leave it untouched.
    pub(crate) fn stamp_dispatch(&self, seq: u64) {
        let _ = self.first_dispatch_seq.compare_exchange(
            0,
            seq + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Mirrors a cascade decoder's live stage counters into the shard
    /// counters (stores, not adds: each shard owns a detached decoder
    /// clone, so the decoder's totals *are* the shard's totals).
    pub(crate) fn mirror_cascade(&self, stats: ldpc_core::CascadeStats) {
        self.cascade_escalations
            .store(stats.escalations, Ordering::Relaxed);
        for (counter, frames) in self.cascade_stage_frames.iter().zip(stats.stage_frames) {
            counter.store(frames, Ordering::Relaxed);
        }
    }

    /// Marks a dispatch of `frames` frames as decoding right now.
    /// `now_nanos` is nanoseconds since the service epoch, clamped ≥ 1 so
    /// zero keeps meaning "none".
    pub(crate) fn begin_dispatch(&self, now_nanos: u64, frames: usize) {
        self.dispatch_frames.store(frames as u64, Ordering::Relaxed);
        self.dispatch_started_nanos
            .store(now_nanos.max(1), Ordering::Relaxed);
    }

    /// Marks the in-progress dispatch finished at `now_nanos`.
    pub(crate) fn end_dispatch(&self, now_nanos: u64) {
        self.dispatch_started_nanos.store(0, Ordering::Relaxed);
        self.last_dispatch_nanos
            .store(now_nanos.max(1), Ordering::Relaxed);
    }

    /// Health view of this shard at `now_nanos` (service-epoch clock).
    /// Queue facts come from the caller's queue snapshot.
    pub(crate) fn health(
        &self,
        code: CodeId,
        queue_depth: usize,
        oldest_frame_age: Option<Duration>,
        now_nanos: u64,
    ) -> ShardHealth {
        let started = self.dispatch_started_nanos.load(Ordering::Relaxed);
        let last = self.last_dispatch_nanos.load(Ordering::Relaxed);
        let dispatch_in_progress = started != 0;
        let stalled = dispatch_in_progress && {
            let frames = self.dispatch_frames.load(Ordering::Relaxed).max(1);
            let est = self.est_frame_nanos.load(Ordering::Relaxed);
            let budget = est
                .saturating_mul(frames)
                .saturating_mul(STALL_COST_MULTIPLIER)
                .max(STALL_FLOOR_NANOS);
            now_nanos.saturating_sub(started) > budget
        };
        ShardHealth {
            code,
            queue_depth,
            oldest_frame_age,
            last_dispatch_age: (last != 0)
                .then(|| Duration::from_nanos(now_nanos.saturating_sub(last))),
            dispatch_in_progress,
            stalled,
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            degradation_level: u8::try_from(self.degradation_level.load(Ordering::Relaxed))
                .unwrap_or(u8::MAX),
        }
    }
}

/// A dispatch is flagged stalled once its age exceeds this multiple of the
/// EWMA-estimated batch cost (floored at [`STALL_FLOOR_NANOS`] so fast
/// shards aren't flagged by scheduling noise).
pub(crate) const STALL_COST_MULTIPLIER: u64 = 8;
/// Minimum in-progress dispatch age (50 ms) before a stall can be flagged.
pub(crate) const STALL_FLOOR_NANOS: u64 = 50_000_000;

/// Snapshot of one shard's serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardStats {
    /// The mode this shard serves.
    pub code: CodeId,
    /// Frames accepted (including frames admission control then shed —
    /// a shed frame is accounted, never silently dropped).
    pub accepted: u64,
    /// Non-blocking submission refusals due to a full queue (backpressure
    /// events).
    pub rejected_full: u64,
    /// Submissions refused with
    /// [`SubmitError::NonFiniteLlr`](crate::SubmitError::NonFiniteLlr)
    /// (plain and HARQ paths).
    pub rejected_non_finite: u64,
    /// Frames decoded and completed with an output.
    pub decoded: u64,
    /// Frames completed as expired (deadline passed before decoding).
    pub expired: u64,
    /// Frames shed by admission control: their deadline was still ahead but
    /// unmeetable given the shard's queue depth and observed decode cost,
    /// so they resolved as [`crate::DecodeOutcome::Shed`] without decoder
    /// time. Zero unless the shard's [`ShardPolicy::shed`] is enabled.
    pub shed: u64,
    /// Frames completed with a decode-engine error.
    pub failed: u64,
    /// Coalesced `decode_batch` calls the shard's dispatches issued.
    pub batches: u64,
    /// Largest number of frames coalesced into one batch.
    pub max_coalesced: u64,
    /// EWMA of the observed per-frame decode cost, in nanoseconds (zero
    /// until the first batch unless seeded through
    /// [`ShardPolicy::expected_frame_cost`]). This is the estimate the
    /// dispatcher's shedding and micro-batch timing decisions use.
    pub est_frame_nanos: u64,
    /// Service-wide sequence number (0-based) of this shard's first decoded
    /// batch; `None` if the shard never dispatched. Later-served shards
    /// carry larger numbers — the observable form of [`Priority`] ordering.
    pub first_dispatch_order: Option<u64>,
    /// Completion-latency percentiles of decoded frames.
    pub latency: LatencyStats,
    /// Cascade escalation events: frames this shard's decoder re-decoded at
    /// stage ≥ 2 of its ladder. Zero for non-cascade decoders. A rising
    /// escalation *rate* (escalations ÷ decoded) under fixed traffic is the
    /// serving-layer signal that channel conditions — or a decoder
    /// regression — are pushing frames off the cheap path.
    pub cascade_escalations: u64,
    /// Frames decoded per cascade stage (stage 1 counts every frame its
    /// groups entered with; stages 2/3 count escalated survivors). All zero
    /// for non-cascade decoders.
    pub cascade_stage_frames: [u64; 3],
    /// Frames resolved as [`crate::DecodeOutcome::Abandoned`]: a dispatch
    /// worker panicked while holding them and their completion-on-drop
    /// guard resolved (and counted) them. Nonzero only after a worker crash
    /// that quarantine could not attribute to a single frame.
    pub abandoned: u64,
    /// Frames isolated by quarantine bisection as the cause of a batch
    /// panic, resolved as [`crate::DecodeOutcome::Poisoned`] while their
    /// batch-mates decoded normally.
    pub quarantined: u64,
    /// Dispatch-worker panics attributed to this shard; each one was
    /// followed by a supervised restart of the worker loop.
    pub worker_restarts: u64,
    /// Batches decoded while the degradation ladder was engaged (level > 0).
    pub degraded_batches: u64,
    /// Current degradation level (a gauge): 0 = full cascade effort; each
    /// higher level cheapens the shard decoder's cascade before admission
    /// control is allowed to shed (see
    /// [`DegradationPolicy`](crate::DegradationPolicy)).
    pub degradation_level: u8,
    /// HARQ combine operations performed by this shard's
    /// [`submit_harq`](crate::DecodeService::submit_harq) path.
    pub harq_combines: u64,
    /// HARQ frames whose soft buffer was parked for a retransmission (any
    /// non-success outcome keeps the accumulated state).
    pub harq_parked: u64,
    /// HARQ frames whose soft buffer was released by a parity-satisfied
    /// decode.
    pub harq_released: u64,
    /// Soft buffers this shard stored that the store evicted (budget LRU,
    /// TTL, or chaos-forced) — attributed to the storing shard even when
    /// another shard's insert displaced them.
    pub harq_evictions: u64,
    /// HARQ retransmissions that found their buffer evicted and restarted
    /// accumulation from fresh LLRs (decoded normally, never wedged).
    pub harq_evicted_restarts: u64,
    /// Frames queued but not yet claimed by a dispatch worker at snapshot
    /// time.
    pub queue_depth: usize,
    /// Workspaces ever built by the decoder's workspace pool. The pool is
    /// shared by all shards of one service (shelves are keyed per mode), so
    /// this value is service-global; it being stable across snapshots is the
    /// observable form of "steady-state serving allocates no decoder state".
    pub pool_workspaces_created: usize,
    /// The shard's dispatch priority class, echoed from its policy.
    pub priority: Priority,
    /// The shard's latency SLO, echoed from its policy.
    pub slo: Option<Duration>,
    /// The shard's batch ceiling after group-width snapping of
    /// [`crate::ServiceConfig::max_batch`].
    pub effective_max_batch: usize,
}

impl ShardStats {
    /// Frames resolved so far
    /// (decoded + expired + shed + failed + quarantined + abandoned).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.decoded + self.expired + self.shed + self.failed + self.quarantined + self.abandoned
    }

    /// Accepted frames not yet resolved. Saturating: the counters are
    /// relaxed-atomic snapshots, so a racing reader could otherwise observe
    /// a completion fractionally ahead of another shard event.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.accepted.saturating_sub(self.completed())
    }
}

/// Health view of one shard — the watchdog-facing subset of its state,
/// focused on "is this shard making progress right now" rather than
/// lifetime totals (see [`ShardStats`](crate::ShardStats) for those).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardHealth {
    /// The mode this shard serves.
    pub code: CodeId,
    /// Frames queued but not yet claimed by a dispatch worker.
    pub queue_depth: usize,
    /// Age of the oldest queued frame (time since its submission was
    /// accepted); `None` when the queue is empty. A growing value with a
    /// recent dispatch means the shard is falling behind; a growing value
    /// with *no* recent dispatch means it is starved or stuck.
    pub oldest_frame_age: Option<Duration>,
    /// Time since the shard's most recent dispatch finished; `None` if it
    /// never dispatched.
    pub last_dispatch_age: Option<Duration>,
    /// Whether a dispatch worker is decoding a batch of this shard right
    /// now.
    pub dispatch_in_progress: bool,
    /// Stall flag: a dispatch is in progress and has been running longer
    /// than 8× the EWMA-estimated cost of its batch (floored at 50 ms).
    /// A stalled shard is either hitting pathological decode behaviour or a
    /// stuck worker — either way it needs attention before its queue backs
    /// up into shedding.
    pub stalled: bool,
    /// Dispatch-worker panics attributed to this shard.
    pub worker_restarts: u64,
    /// Frames quarantined as poisoned by this shard.
    pub quarantined: u64,
    /// Frames abandoned by a crashing worker on this shard.
    pub abandoned: u64,
    /// Current degradation-ladder level (0 = full effort).
    pub degradation_level: u8,
}

/// Point-in-time health snapshot of the whole service: every shard's
/// [`ShardHealth`] plus the decode pool's worker census. Obtained from
/// [`DecodeService::health`](crate::DecodeService::health); cheap enough to
/// poll from a watchdog loop.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceHealth {
    /// Per-shard health, in the service's shard order.
    pub shards: Vec<ShardHealth>,
    /// Decode pool workers at full strength.
    pub pool_workers: usize,
    /// Decode pool workers currently alive. Transiently below
    /// [`pool_workers`](ServiceHealth::pool_workers) between a worker death
    /// and its supervised respawn; persistently below means respawn failed.
    pub pool_live_workers: usize,
    /// Decode pool workers ever respawned after a death.
    pub pool_worker_restarts: u64,
    /// Frames shed by admission control, summed across shards — so the
    /// watchdog view is self-contained and a sudden shed ramp is visible
    /// without also pulling [`ShardStats`](crate::ShardStats).
    pub shed: u64,
    /// Frames quarantined as poisoned, summed across shards.
    pub quarantined: u64,
    /// Frames abandoned by crashing workers, summed across shards.
    pub abandoned: u64,
    /// Occupancy and audit counters of the HARQ soft-buffer store (zeros
    /// when HARQ is unused).
    pub harq: SoftBufferStats,
}

impl ServiceHealth {
    /// Whether the service looks able to make progress: the decode pool is
    /// at full strength and no shard's dispatch is flagged as stalled.
    /// Restart/quarantine *counts* don't fail health — they are history,
    /// and the whole point of supervision is that history stays history.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.pool_live_workers >= self.pool_workers && self.shards.iter().all(|s| !s.stalled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{CodeRate, Standard};

    #[test]
    fn snapshot_carries_all_counters() {
        let counters = ShardCounters::default();
        counters.accepted.store(15, Ordering::Relaxed);
        counters.decoded.store(6, Ordering::Relaxed);
        counters.expired.store(2, Ordering::Relaxed);
        counters.shed.store(2, Ordering::Relaxed);
        counters.failed.store(1, Ordering::Relaxed);
        counters.rejected_full.store(3, Ordering::Relaxed);
        counters.batches.store(4, Ordering::Relaxed);
        counters.max_coalesced.store(5, Ordering::Relaxed);
        counters.stamp_dispatch(7);
        counters.stamp_dispatch(9); // later dispatches do not overwrite
        counters.mirror_cascade(ldpc_core::CascadeStats {
            stage_frames: [10, 7, 2],
            escalations: 9,
        });
        counters.abandoned.store(1, Ordering::Relaxed);
        counters.quarantined.store(2, Ordering::Relaxed);
        counters.worker_restarts.store(3, Ordering::Relaxed);
        counters.degraded_batches.store(2, Ordering::Relaxed);
        counters.degradation_level.store(1, Ordering::Relaxed);
        counters.harq_combines.store(11, Ordering::Relaxed);
        counters.harq_parked.store(4, Ordering::Relaxed);
        counters.harq_released.store(6, Ordering::Relaxed);
        counters.harq_evictions.store(2, Ordering::Relaxed);
        counters.harq_evicted_restarts.store(1, Ordering::Relaxed);
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
        let policy = ShardPolicy::with_slo(Duration::from_millis(8)).priority(Priority::High);
        let stats = counters.snapshot(code, 1, 2, &policy, 30);
        assert_eq!(stats.code, code);
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.quarantined, 2);
        assert_eq!(stats.worker_restarts, 3);
        assert_eq!(stats.degraded_batches, 2);
        assert_eq!(stats.degradation_level, 1);
        assert_eq!(
            stats.completed(),
            14,
            "quarantined and abandoned count as resolved"
        );
        assert_eq!(stats.in_flight(), 1);
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.rejected_full, 3);
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.max_coalesced, 5);
        assert_eq!(stats.first_dispatch_order, Some(7));
        assert_eq!(stats.cascade_escalations, 9);
        assert_eq!(stats.cascade_stage_frames, [10, 7, 2]);
        assert_eq!(stats.queue_depth, 1);
        assert_eq!(stats.pool_workspaces_created, 2);
        assert_eq!(stats.priority, Priority::High);
        assert_eq!(stats.slo, Some(Duration::from_millis(8)));
        assert_eq!(stats.effective_max_batch, 30);
        assert_eq!(stats.harq_combines, 11);
        assert_eq!(stats.harq_parked, 4);
        assert_eq!(stats.harq_released, 6);
        assert_eq!(stats.harq_evictions, 2);
        assert_eq!(stats.harq_evicted_restarts, 1);
    }

    #[test]
    fn never_dispatched_shards_have_no_dispatch_order() {
        let counters = ShardCounters::default();
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
        let stats = counters.snapshot(code, 0, 0, &ShardPolicy::default(), 32);
        assert_eq!(stats.first_dispatch_order, None);
    }

    #[test]
    fn mirror_cascade_stores_rather_than_adds() {
        let counters = ShardCounters::default();
        for total in [3u64, 8, 21] {
            counters.mirror_cascade(ldpc_core::CascadeStats {
                stage_frames: [total, total / 2, 0],
                escalations: total / 2,
            });
        }
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
        let stats = counters.snapshot(code, 0, 0, &ShardPolicy::default(), 32);
        assert_eq!(stats.cascade_stage_frames, [21, 10, 0]);
        assert_eq!(stats.cascade_escalations, 10);
    }

    #[test]
    fn cost_ewma_seeds_then_smooths() {
        let counters = ShardCounters::default();
        counters.observe_batch_cost(Duration::from_micros(40), 4);
        assert_eq!(counters.est_frame_nanos.load(Ordering::Relaxed), 10_000);
        counters.observe_batch_cost(Duration::from_micros(80), 4);
        let est = counters.est_frame_nanos.load(Ordering::Relaxed);
        assert!(
            est > 10_000 && est < 20_000,
            "EWMA moves toward the new observation: {est}"
        );
        counters.observe_batch_cost(Duration::from_secs(1), 0); // no-op
        assert_eq!(counters.est_frame_nanos.load(Ordering::Relaxed), est);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_bounded() {
        let mut last = 0usize;
        for nanos in [0u64, 1, 7, 8, 9, 100, 1_000, 1_000_000, u64::MAX] {
            let idx = bucket_index(nanos);
            assert!(idx >= last, "bucket index must be monotone in the value");
            assert!(idx < BUCKETS);
            assert!(
                bucket_upper_bound(idx) >= nanos,
                "upper bound must cover the value: {nanos}"
            );
            last = idx;
        }
    }

    #[test]
    fn latency_percentiles_read_conservatively_high() {
        let hist = LatencyHistogram::default();
        for ms in 1..=100u64 {
            hist.record(Duration::from_millis(ms));
        }
        let stats = hist.snapshot();
        assert_eq!(stats.count, 100);
        // Exact order statistics: p50 = 50 ms, p99 = 99 ms, p999/max = 100 ms.
        // Bucketing may round up by one sub-bucket width (~12%), never down.
        let ms = |nanos: u64| nanos as f64 / 1e6;
        assert!((50.0..60.0).contains(&ms(stats.p50_nanos)), "{stats:?}");
        assert!((99.0..115.0).contains(&ms(stats.p99_nanos)), "{stats:?}");
        assert!(stats.p999_nanos <= stats.max_nanos);
        assert_eq!(stats.max(), Duration::from_millis(100));
        assert!(stats.p50() <= stats.p99() && stats.p99() <= stats.p999());
    }

    #[test]
    fn empty_histogram_snapshots_to_zeroes() {
        let stats = LatencyHistogram::default().snapshot();
        assert_eq!(stats, LatencyStats::default());
    }

    #[test]
    fn stall_detection_compares_dispatch_age_against_the_cost_estimate() {
        let counters = ShardCounters::default();
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);

        // Never dispatched: nothing in progress, nothing stalled.
        let idle = counters.health(code, 0, None, 1_000);
        assert!(!idle.dispatch_in_progress && !idle.stalled);
        assert_eq!(idle.last_dispatch_age, None);

        // In progress but young: not yet a stall (floor is 50 ms).
        counters.est_frame_nanos.store(1_000_000, Ordering::Relaxed);
        counters.begin_dispatch(1_000_000, 4);
        let young = counters.health(code, 3, Some(Duration::from_millis(1)), 2_000_000);
        assert!(young.dispatch_in_progress && !young.stalled);
        assert_eq!(young.queue_depth, 3);
        assert_eq!(young.oldest_frame_age, Some(Duration::from_millis(1)));

        // 4 frames × 1 ms estimate × multiplier 8 = 32 ms budget, floored
        // at 50 ms: a dispatch 60 ms old is stalled.
        let stalled = counters.health(code, 3, None, 1_000_000 + 60_000_000);
        assert!(stalled.stalled);

        // Finishing the dispatch clears the flag and stamps the timestamp.
        counters.end_dispatch(70_000_000);
        let done = counters.health(code, 0, None, 75_000_000);
        assert!(!done.dispatch_in_progress && !done.stalled);
        assert_eq!(done.last_dispatch_age, Some(Duration::from_millis(5)));
    }

    #[test]
    fn service_health_requires_full_pool_and_no_stalls() {
        let counters = ShardCounters::default();
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
        let shard = counters.health(code, 0, None, 1_000);
        let healthy = ServiceHealth {
            shards: vec![shard],
            pool_workers: 4,
            pool_live_workers: 4,
            pool_worker_restarts: 2,
            shed: 5,
            quarantined: 1,
            abandoned: 1,
            harq: SoftBufferStats::default(),
        };
        assert!(healthy.healthy(), "restart history alone is not unhealthy");
        let short_pool = ServiceHealth {
            pool_live_workers: 3,
            ..healthy.clone()
        };
        assert!(!short_pool.healthy());
        let mut stalled_shard = shard;
        stalled_shard.stalled = true;
        let stalled = ServiceHealth {
            shards: vec![shard, stalled_shard],
            ..healthy
        };
        assert!(!stalled.healthy());
    }
}
