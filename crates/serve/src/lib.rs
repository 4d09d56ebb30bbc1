//! # ldpc-serve — the SLO-driven multi-code decode service
//!
//! The paper's decoder is multi-mode by construction: one hardware fabric
//! serves every WiMax/WiFi/DMB-T code mode by switching a compiled mode ROM
//! while frames stream through the `z`-wide SISO array. This crate is the
//! serving-layer analogue of that fabric, built on the batched zero-alloc
//! engine of `ldpc-core`:
//!
//! ```text
//!                           ┌───────────────── DecodeService ─────────────────┐
//!  submit(code, llrs, opts)─▶ route by CodeId                                 │
//!                           │   ├─▶ shard[WiMax 576]  queue + ShardPolicy ◀─┐ │
//!                           │   ├─▶ shard[WiFi 648]   queue + ShardPolicy ◀─┤ │
//!                           │   └─▶ shard[WiMax 1152] queue + ShardPolicy ◀─┤ │
//!                           │        (bounded, priority-ordered)            │ │
//!                           │                                     scheduler │ │
//!                           │   dispatch workers ◀── claim ready shard ─────┘ │
//!                           │     coalesce ▷ decode_batch ▷ complete frames   │
//!                           │     (workspaces from the shared WorkspacePool)  │
//!                           └─────────────────────────────────────────────────┘
//!                                          │
//!  FrameHandle::wait() ◀─── DecodeOutcome ─┘  (Decoded / Expired / Shed / Failed /
//!                                              Poisoned / Abandoned)
//! ```
//!
//! * **Sharding** — one shard per registered [`ldpc_codes::CodeId`]: an
//!   `Arc<CompiledCode>` (the software mode ROM), a bounded ingest queue and
//!   a [`ShardPolicy`]. Frames route by mode at submission; a pool of
//!   dispatch workers claims whichever shard is *ready* next (at most one
//!   worker per shard at a time, so per-mode results stay deterministic).
//! * **SLO scheduling** — [`ShardPolicy`] gives each mode a latency SLO
//!   target and a [`Priority`] class. A shard with an SLO micro-batches: it
//!   holds frames to coalesce bigger batches and dispatches at
//!   [`ServiceConfig::max_batch`] *or* deadline slack, whichever comes
//!   first, with batch sizes snapped to the mode's preferred group width.
//!   Greedy shards (the [`ShardPolicy::greedy`] default) dispatch as soon
//!   as a worker is free, exactly like the pre-policy service.
//! * **Admission control** — when [`ShardPolicy::shed`] is on, frames whose
//!   deadline cannot be met (based on queue depth × the shard's observed
//!   per-frame decode cost) resolve as [`DecodeOutcome::Shed`] instead of
//!   being decoded late; shed frames are counted in
//!   [`ShardStats::shed`], never silently dropped.
//! * **Backpressure** — the queue bound is the service's limit: a
//!   non-blocking [`SubmitOptions`] refuses with the frame handed back, a
//!   blocking submission parks the producer.
//! * **Deadlines** — a frame whose deadline passes while queued completes as
//!   [`DecodeOutcome::Expired`] without spending decoder time.
//! * **Latency accounting** — every decoded frame's queue-to-completion
//!   latency lands in a lock-free histogram; [`ShardStats::latency`] reports
//!   p50/p99/p999/max per mode for SLO verification.
//! * **Drain guarantee** — [`DecodeService::shutdown`] (and plain drop)
//!   closes intake, lets workers finish every accepted frame, and joins
//!   them: a successful submission always resolves.
//! * **Fault tolerance** — dispatch workers run under a supervisor that
//!   restarts them after a panic; a batch whose decode panics is
//!   bisect-retried until the offending frame is isolated as
//!   [`DecodeOutcome::Poisoned`] while its batch-mates decode normally;
//!   [`DecodeService::health`] reports per-shard progress (queue depth,
//!   oldest-frame age, stall detection) plus the decode pool's worker
//!   census; and a [`DegradationPolicy`] trades cascade effort for
//!   throughput under pressure before any frame is shed.
//! * **HARQ retransmissions** — [`DecodeService::submit_harq`] soft-combines
//!   rate-compatible retransmissions (full codewords or punctured
//!   redundancy versions) into a bounded, LRU/TTL-evicting
//!   [`harq::SoftBufferStore`] keyed by [`HarqKey`]; failed decodes park
//!   the combined energy for the next attempt, successes release it, and
//!   evicted processes restart cleanly from fresh LLRs — counted, never
//!   wedged. [`ServiceHealth::harq`] reports the store's ledger.
//! * **Zero steady-state decoder allocation** — workers draw their
//!   workspaces from the decoder's shared
//!   [`ldpc_core::WorkspacePool`]; once every shard is warm,
//!   [`DecodeService::pool_workspaces_created`] stops growing.
//!
//! Results are **bit-identical** to calling `decode_batch` directly on the
//! same frames, whatever the submission interleaving or scheduling policy —
//! decoding is per-frame deterministic and shards are independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod handle;
pub mod harq;
mod policy;
mod queue;
mod service;
mod stats;

pub use error::{ServeError, SubmitError};
#[cfg(feature = "fault-injection")]
pub use fault::FaultPlan;
pub use handle::{DecodeOutcome, FrameHandle};
pub use harq::{HarqKey, SoftBufferStats, SoftBufferStore};
/// The cascade's budgets under the name the `perfbench` harness imports.
pub use ldpc_core::CascadeConfig as CascadePolicy;
pub use policy::{
    DecoderPolicy, DegradationPolicy, Priority, RetryPolicy, ShardPolicy, SubmitOptions,
};
pub use service::{DecodeService, DecodeServiceBuilder, ServiceConfig};
pub use stats::{LatencyStats, ServiceHealth, ShardHealth, ShardStats};
