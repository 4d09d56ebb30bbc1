//! The policy-driven sharded decode service.
//!
//! A [`DecodeService`] owns one **shard** per registered mode — the software
//! analogue of the paper's mode-ROM fabric, where one hardware array serves
//! every WiMax/WiFi code by switching compiled control state. Each shard
//! holds the mode's shared [`CompiledCode`], a bounded priority ingest
//! [`FrameQueue`](crate::queue::FrameQueue), a [`ShardPolicy`] (SLO,
//! priority class, micro-batch hold, load shedding) and a detached decoder
//! clone. A pool of **dispatch workers** serves every shard: the scheduler
//! picks, among the shards whose batch is full or whose micro-batch hold has
//! released, the highest-priority one, and the claiming worker drains a
//! group-width-snapped batch into one `decode_batch` call.
//!
//! Frames are routed by [`CodeId`] at submission, validated (known mode,
//! exact LLR count), and accepted into the shard queue; the returned
//! [`FrameHandle`] resolves to a [`DecodeOutcome`] — bit-identical to a
//! direct `decode_batch` call, `Expired` if the frame's effective deadline
//! passed before a worker reached it, `Shed` if admission control proved the
//! deadline unmeetable first. [`DecodeService::shutdown`] closes every
//! queue, lets the workers drain, and joins them: every accepted frame is
//! completed, none silently dropped.
//!
//! # Threading
//!
//! The service spawns [`ServiceConfig::dispatch_workers`] dispatch threads
//! (one per shard by default). A shard is decoded by at most one worker at a
//! time (a claim flag serialises it), so outputs and per-shard counters
//! behave exactly as under the old one-worker-per-shard scheme — but a hot
//! mode no longer idles the workers of quiet modes. Decode parallelism
//! *inside* a batch comes from [`ServiceConfig::decode_threads`], routed
//! onto the process-wide persistent decode pool
//! ([`ldpc_core::DecodePool`]) via `decode_batch_into_threads`. Because the
//! pool is shared rather than partitioned per shard, cross-shard stealing is
//! structural: an idle mode reserves no threads, and a saturated pool never
//! delays a shard — the claiming worker always decodes alongside the pool
//! and cancels any fan-out it outran, so `decode_threads > 1` is a
//! speed-only knob with bit-identical outputs.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldpc_channel::quantize::LlrQuantizer;
use ldpc_codes::{CodeId, CompiledCode, PuncturePattern};
use ldpc_core::{DecodeError, DecodeOutput, DecodePool, Decoder, HarqCombiner, LlrBatch};

use crate::error::{ServeError, SubmitError};
#[cfg(feature = "fault-injection")]
use crate::fault::FaultPlan;
use crate::handle::{DecodeOutcome, FrameHandle, Slot};
use crate::harq::{HarqCompletion, HarqKey, SoftBufferStats, SoftBufferStore};
use crate::policy::{DecoderPolicy, Priority, RetryPolicy, ShardPolicy, SubmitOptions};
use crate::queue::{CompletionGuard, FrameQueue, PendingFrame, PushError};
use crate::stats::{ServiceHealth, ShardCounters, ShardStats};

/// Tuning knobs of a [`DecodeService`], set through the builder and
/// validated at [`DecodeServiceBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Ingest-queue bound per shard; the backpressure limit. Must be ≥ 1.
    pub queue_capacity: usize,
    /// Most frames coalesced into one `decode_batch` call. Must be ≥ 1.
    /// Per shard, this is snapped *down* to a multiple of the mode's
    /// preferred group width when possible (see
    /// [`ShardStats::effective_max_batch`]), so coalesced batches waste no
    /// frame-major packing.
    pub max_batch: usize,
    /// Worker threads *inside* one shard's `decode_batch` call (frame-level
    /// parallelism), drawn from the process-wide persistent decode pool —
    /// not spawned per shard, so idle modes cost nothing and a hot mode's
    /// chunks are stolen by whatever pool capacity is free (see the
    /// module-level *Threading* notes). The default of 1 keeps each batch on
    /// its dispatch worker and scales across shards instead. Outputs are
    /// bit-identical for every value. Must be ≥ 1.
    pub decode_threads: usize,
    /// Dispatch worker threads serving all shards; `None` (the default)
    /// spawns one per registered mode — the old one-worker-per-shard
    /// parallelism, minus the idle threads. Must be ≥ 1 when set.
    pub dispatch_workers: Option<usize>,
    /// When set, every submitted frame is gain-normalised and quantised into
    /// this quantiser's range at submission
    /// ([`LlrQuantizer::normalize_in_place`]) — the AGC stage that makes
    /// high-SNR traffic decodable by the 8-bit fixed-point back-ends, whose
    /// formats raw channel LLRs would otherwise saturate flat. Leave `None`
    /// (the default) to pass raw LLRs through, e.g. for float decoders.
    pub ingest_quantizer: Option<LlrQuantizer>,
    /// Hard global memory budget of the HARQ soft-buffer store, in bytes
    /// (see [`crate::harq`]). Occupancy never exceeds it — inserts evict
    /// least-recently-touched buffers first. Zero means *stateless HARQ*:
    /// [`DecodeService::submit_harq`] still works but every transmission
    /// decodes from its own LLRs alone. Default 64 MiB.
    pub harq_buffer_bytes: usize,
    /// Optional idle TTL of stored soft buffers: a buffer untouched for
    /// this long is reaped on the next store operation (counted as a TTL
    /// eviction). `None` (the default) keeps buffers until budget pressure
    /// or shutdown.
    pub harq_ttl: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            max_batch: 32,
            decode_threads: 1,
            dispatch_workers: None,
            ingest_quantizer: None,
            harq_buffer_bytes: 64 << 20,
            harq_ttl: None,
        }
    }
}

impl ServiceConfig {
    fn validate(&self) -> Result<(), ServeError> {
        let reject = |reason: &str| {
            Err(ServeError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.queue_capacity == 0 {
            return reject("queue_capacity must be at least 1");
        }
        if self.max_batch == 0 {
            return reject("max_batch must be at least 1 (a zero batch can never dispatch)");
        }
        if self.decode_threads == 0 {
            return reject("decode_threads must be at least 1");
        }
        if self.dispatch_workers == Some(0) {
            return reject("dispatch_workers must be at least 1");
        }
        Ok(())
    }
}

/// Start gate for dispatch workers: closed while the service is paused,
/// opened by `resume` (and unconditionally by shutdown, so draining never
/// stalls).
#[derive(Debug, Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn new(open: bool) -> Self {
        Gate {
            open: Mutex::new(open),
            opened: Condvar::new(),
        }
    }

    fn wait_open(&self) {
        let mut open = self.open.lock().expect("gate poisoned");
        while !*open {
            open = self.opened.wait(open).expect("gate poisoned");
        }
    }

    fn open(&self) {
        *self.open.lock().expect("gate poisoned") = true;
        self.opened.notify_all();
    }
}

/// The dispatch workers' shared rendezvous: per-shard claim flags plus the
/// condvar producers kick after every push.
#[derive(Debug)]
struct Scheduler {
    busy: Mutex<Vec<bool>>,
    ready: Condvar,
}

/// One mode's serving state.
#[derive(Debug)]
struct ShardState<D> {
    code: CodeId,
    compiled: Arc<CompiledCode>,
    policy: ShardPolicy,
    /// The decoder's preferred frame-group width for this mode.
    group_width: usize,
    /// [`ServiceConfig::max_batch`] snapped down to a `group_width`
    /// multiple (when ≥ one group).
    effective_batch: usize,
    queue: FrameQueue,
    /// Shared with every frame's completion guard, so abandonments are
    /// accounted even when the accounting thread is mid-unwind.
    counters: Arc<ShardCounters>,
    /// Detached clone: shares the template's workspace pools, keeps private
    /// stage counters. The claim flag serialises access per shard.
    decoder: D,
    /// Rate-compatible puncturing pattern for HARQ transmissions, when
    /// registered via
    /// [`DecodeServiceBuilder::harq_puncture`]; `None` accepts only
    /// full-length transmissions.
    puncture: Option<PuncturePattern>,
}

/// Ingest validation shared by the plain and HARQ submit paths: refuses (and
/// counts) a frame holding a non-finite LLR, naming its first position.
fn check_finite<D>(shard: &ShardState<D>, code: CodeId, llrs: &[f64]) -> Result<(), SubmitError> {
    match llrs.iter().position(|l| !l.is_finite()) {
        None => Ok(()),
        Some(index) => {
            shard
                .counters
                .rejected_non_finite
                .fetch_add(1, Ordering::Relaxed);
            Err(SubmitError::NonFiniteLlr { code, index })
        }
    }
}

/// Everything the dispatch workers share with the service front end.
#[derive(Debug)]
struct ServiceCore<D> {
    shards: Vec<ShardState<D>>,
    sched: Scheduler,
    gate: Gate,
    config: ServiceConfig,
    /// Service-wide dispatch sequence, stamping each shard's first batch so
    /// priority ordering is observable (see
    /// [`ShardStats::first_dispatch_order`]).
    dispatch_clock: AtomicU64,
    /// Service-wide ingest sequence: every frame passing validation consumes
    /// one, stamped into [`PendingFrame::seq`]. The chaos harness keys its
    /// fault predicates on it.
    ingest_seq: AtomicU64,
    /// Every `serve_shard` entry consumes one — the domain of the
    /// kill-dispatch fault predicate, deliberately *before* any frame is
    /// claimed so an injected worker crash abandons nothing.
    dispatch_attempts: AtomicU64,
    /// The service's birth instant; health timestamps are nanoseconds since
    /// this epoch.
    epoch: Instant,
    /// Kept for pool introspection: the shard decoders share this
    /// template's workspace pool.
    template: D,
    /// The HARQ soft-buffer store, shared with every in-flight HARQ frame's
    /// completion hook (see [`crate::harq`]).
    harq: Arc<SoftBufferStore>,
    /// Quantizer of the HARQ code space: the configured ingest quantizer,
    /// or the paper's 8-bit W8F2 default when none is set. Soft buffers
    /// accumulate in this quantizer's integer codes.
    harq_quantizer: LlrQuantizer,
    /// The saturating combine kernel over `harq_quantizer`'s code range.
    harq_combiner: HarqCombiner,
    /// The installed chaos plan, if any (see [`crate::fault`]).
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<FaultPlan>,
}

impl<D> ServiceCore<D> {
    /// Wakes every waiting dispatch worker. The empty lock section orders
    /// the notify against a worker that has scanned but not yet parked: the
    /// producer cannot pass the lock until the worker's `wait` releases it,
    /// so the notification is never lost.
    fn kick(&self) {
        drop(self.sched.busy.lock().expect("scheduler poisoned"));
        self.sched.ready.notify_all();
    }

    /// Claims the next shard to serve, blocking until one is ready: a shard
    /// is **ready** when it is unclaimed, non-empty, and either holds a full
    /// effective batch, or its earliest micro-batch hold has released, or
    /// its queue is closed (draining). Among ready shards the highest
    /// [`Priority`] wins, ties broken by earliest release then registration
    /// order. Returns `None` only when every queue is closed and drained —
    /// the workers' exit condition.
    fn claim_next(&self) -> Option<usize> {
        let mut busy = self.sched.busy.lock().expect("scheduler poisoned");
        loop {
            let now = Instant::now();
            let mut best: Option<(Priority, Instant, usize)> = None;
            let mut next_wake: Option<Instant> = None;
            let mut all_done = true;
            for (idx, shard) in self.shards.iter().enumerate() {
                let view = shard.queue.view();
                if !(view.closed && view.len == 0) {
                    all_done = false;
                }
                if busy[idx] || view.len == 0 {
                    continue;
                }
                let release = view.earliest_dispatch_by.unwrap_or(now);
                if view.closed || view.len >= shard.effective_batch || release <= now {
                    let key = (shard.policy.priority, release, idx);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                } else {
                    next_wake = Some(next_wake.map_or(release, |w| w.min(release)));
                }
            }
            if let Some((_, _, idx)) = best {
                busy[idx] = true;
                return Some(idx);
            }
            if all_done {
                return None;
            }
            busy = match next_wake {
                Some(wake) => {
                    let timeout = wake.saturating_duration_since(Instant::now());
                    self.sched
                        .ready
                        .wait_timeout(busy, timeout)
                        .expect("scheduler poisoned")
                        .0
                }
                None => self.sched.ready.wait(busy).expect("scheduler poisoned"),
            };
        }
    }

    fn release(&self, idx: usize) {
        let mut busy = self.sched.busy.lock().expect("scheduler poisoned");
        busy[idx] = false;
        drop(busy);
        self.sched.ready.notify_all();
    }

    /// `now` on the service-epoch nanosecond clock the health timestamps
    /// use.
    fn now_nanos(&self, now: Instant) -> u64 {
        u64::try_from(now.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Releases the claimed shard even if serving it panics, so the remaining
/// workers can still drain its queue (the panicking worker's in-hand frames
/// resolve as `Abandoned` through their completion guards).
struct Claim<'a, D> {
    core: &'a ServiceCore<D>,
    idx: usize,
}

impl<D> Drop for Claim<'_, D> {
    fn drop(&mut self) {
        self.core.release(self.idx);
    }
}

/// Builder for [`DecodeService`]; see [`DecodeService::builder`].
#[derive(Debug)]
pub struct DecodeServiceBuilder<D> {
    decoder: D,
    label: String,
    config: ServiceConfig,
    start_paused: bool,
    codes: Vec<(Arc<CompiledCode>, ShardPolicy)>,
    harq_tx_bits: Vec<(CodeId, usize)>,
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<FaultPlan>,
}

impl<D> DecodeServiceBuilder<D>
where
    D: Decoder + Clone + Send + Sync + 'static,
{
    fn new(decoder: D, label: String) -> Self {
        DecodeServiceBuilder {
            decoder,
            label,
            config: ServiceConfig::default(),
            start_paused: false,
            codes: Vec::new(),
            harq_tx_bits: Vec::new(),
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }

    /// Sets the per-shard ingest queue bound (backpressure limit).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the most frames coalesced into one `decode_batch` call (snapped
    /// per shard to the mode's group width; see
    /// [`ServiceConfig::max_batch`]).
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Sets the worker-thread count inside each shard's `decode_batch` call
    /// (routed onto the shared persistent decode pool; bit-identical outputs
    /// for every value — see [`ServiceConfig::decode_threads`]).
    #[must_use]
    pub fn decode_threads(mut self, threads: usize) -> Self {
        self.config.decode_threads = threads;
        self
    }

    /// Sets the dispatch-worker count serving all shards; the default is
    /// one per registered mode (see [`ServiceConfig::dispatch_workers`]).
    #[must_use]
    pub fn dispatch_workers(mut self, workers: usize) -> Self {
        self.config.dispatch_workers = Some(workers);
        self
    }

    /// Routes every submitted frame through `quantizer` at submission:
    /// frames whose peak |LLR| exceeds the representable range are
    /// gain-normalised into it (one common gain per frame, preserving the
    /// reliability ordering), then rounded to representable values. Required
    /// for serving fixed-point back-ends under high-SNR traffic, whose raw
    /// LLRs would otherwise clip flat at the 8-bit saturation code; see
    /// [`LlrQuantizer::normalize_in_place`].
    #[must_use]
    pub fn quantize_ingest(mut self, quantizer: LlrQuantizer) -> Self {
        self.config.ingest_quantizer = Some(quantizer);
        self
    }

    /// Builds the service with its workers parked: frames can be submitted
    /// (and queues can fill, exercising backpressure deterministically) but
    /// nothing decodes until [`DecodeService::resume`]. Shutdown still drains.
    #[must_use]
    pub fn start_paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Sets the HARQ soft-buffer store's hard memory budget (see
    /// [`ServiceConfig::harq_buffer_bytes`]; zero = stateless HARQ).
    #[must_use]
    pub fn harq_buffer_bytes(mut self, bytes: usize) -> Self {
        self.config.harq_buffer_bytes = bytes;
        self
    }

    /// Sets the idle TTL of stored soft buffers (see
    /// [`ServiceConfig::harq_ttl`]).
    #[must_use]
    pub fn harq_ttl(mut self, ttl: Duration) -> Self {
        self.config.harq_ttl = Some(ttl);
        self
    }

    /// Registers a rate-compatible puncturing pattern for `code`'s shard:
    /// [`DecodeService::submit_harq`] then also accepts transmissions of
    /// `tx_bits` LLRs, expanded to mother length with erasure LLRs at the
    /// punctured positions of the frame's redundancy version (see
    /// [`PuncturePattern`]). Full-length transmissions stay accepted either
    /// way. Validated against the compiled code at
    /// [`build`](DecodeServiceBuilder::build).
    #[must_use]
    pub fn harq_puncture(mut self, code: CodeId, tx_bits: usize) -> Self {
        self.harq_tx_bits.push((code, tx_bits));
        self
    }

    /// Installs a seeded chaos plan: the dispatch path panics, stalls and
    /// crashes exactly where the plan's deterministic predicates say (see
    /// [`crate::fault`]). Only compiled under the `fault-injection`
    /// feature — production builds have neither this method nor the checks.
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Registers a mode under the greedy default policy
    /// ([`ShardPolicy::greedy`]): builds and compiles its code, creating one
    /// shard.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Code`] if the mode is unsupported and
    /// [`ServeError::DuplicateCode`] if it is already registered.
    pub fn register(self, id: CodeId) -> Result<Self, ServeError> {
        self.register_with_policy(id, ShardPolicy::default())
    }

    /// Registers a mode under `policy` — SLO target, priority class,
    /// micro-batch hold and shedding; see [`ShardPolicy`].
    ///
    /// # Errors
    ///
    /// As [`register`](DecodeServiceBuilder::register).
    pub fn register_with_policy(self, id: CodeId, policy: ShardPolicy) -> Result<Self, ServeError> {
        let compiled = id.build()?.compile();
        self.register_compiled_with_policy(compiled, policy)
    }

    /// Registers a mode from an already-compiled code (no rebuild) under the
    /// greedy default policy, creating one shard.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateCode`] if the mode is already
    /// registered.
    pub fn register_compiled(self, compiled: CompiledCode) -> Result<Self, ServeError> {
        self.register_compiled_with_policy(compiled, ShardPolicy::default())
    }

    /// Registers a mode from an already-compiled code under `policy`.
    ///
    /// # Errors
    ///
    /// As [`register_compiled`](DecodeServiceBuilder::register_compiled).
    pub fn register_compiled_with_policy(
        mut self,
        compiled: CompiledCode,
        policy: ShardPolicy,
    ) -> Result<Self, ServeError> {
        let id = compiled.spec().id();
        if self.codes.iter().any(|(c, _)| c.spec().id() == id) {
            return Err(ServeError::DuplicateCode { code: id });
        }
        self.codes.push((Arc::new(compiled), policy));
        Ok(self)
    }

    /// Spawns the dispatch workers and returns the running service.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NoCodes`] if no mode was registered and
    /// [`ServeError::InvalidConfig`] for a zero `queue_capacity`,
    /// `max_batch`, `decode_threads` or `dispatch_workers`.
    pub fn build(self) -> Result<DecodeService<D>, ServeError> {
        self.config.validate()?;
        if self.codes.is_empty() {
            return Err(ServeError::NoCodes);
        }
        let config = self.config;
        let mut shards = Vec::with_capacity(self.codes.len());
        let mut index = HashMap::with_capacity(self.codes.len());
        let mut order = Vec::with_capacity(self.codes.len());
        for &(code, _) in &self.harq_tx_bits {
            if !self.codes.iter().any(|(c, _)| c.spec().id() == code) {
                return Err(ServeError::InvalidConfig {
                    reason: format!("harq_puncture for unregistered code {code}"),
                });
            }
        }
        for (compiled, policy) in self.codes {
            let id = compiled.spec().id();
            // Last registration wins, matching builder-override convention.
            let puncture = self
                .harq_tx_bits
                .iter()
                .rev()
                .find(|(code, _)| *code == id)
                .map(|&(_, tx_bits)| compiled.puncture_pattern(tx_bits))
                .transpose()?;
            // Detached: shards share the decoder's workspace pools but keep
            // private stage counters, so per-shard cascade stats never
            // aggregate across shards.
            let decoder = self.decoder.detached_clone();
            let group_width = decoder.preferred_group_width(&compiled).max(1);
            // Snapped down to whole groups; the value in force is exported
            // as `ShardStats::effective_max_batch`.
            let mut effective_batch = config.max_batch;
            if group_width > 1 && config.max_batch >= group_width {
                effective_batch = (config.max_batch / group_width) * group_width;
            }
            let counters = Arc::new(ShardCounters::default());
            if let Some(cost) = policy.expected_frame_cost {
                let nanos = u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX);
                counters.est_frame_nanos.store(nanos, Ordering::Relaxed);
            }
            index.insert(id, shards.len());
            order.push(id);
            shards.push(ShardState {
                code: id,
                compiled,
                policy,
                group_width,
                effective_batch,
                queue: FrameQueue::new(config.queue_capacity),
                counters,
                decoder,
                puncture,
            });
        }
        let worker_count = config.dispatch_workers.unwrap_or(shards.len()).max(1);
        let harq_quantizer = config.ingest_quantizer.unwrap_or_default();
        let harq_combiner = HarqCombiner::new(harq_quantizer.max_code());
        let core = Arc::new(ServiceCore {
            sched: Scheduler {
                busy: Mutex::new(vec![false; shards.len()]),
                ready: Condvar::new(),
            },
            shards,
            gate: Gate::new(!self.start_paused),
            config,
            dispatch_clock: AtomicU64::new(0),
            ingest_seq: AtomicU64::new(0),
            dispatch_attempts: AtomicU64::new(0),
            epoch: Instant::now(),
            template: self.decoder,
            harq: Arc::new(SoftBufferStore::new(
                config.harq_buffer_bytes,
                config.harq_ttl,
            )),
            harq_quantizer,
            harq_combiner,
            #[cfg(feature = "fault-injection")]
            fault_plan: self.fault_plan,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("ldpc-dispatch-{i}"))
                    .spawn(move || supervise_dispatcher(&core))
                    .expect("cannot spawn dispatch worker")
            })
            .collect();
        Ok(DecodeService {
            core,
            index,
            order,
            workers,
            label: self.label,
        })
    }
}

/// A multi-code decode service: per-mode policy-scheduled shards served by a
/// pool of batch-coalescing dispatch workers, routed by [`CodeId`].
///
/// ```
/// use ldpc_codes::{CodeId, CodeRate, Standard};
/// use ldpc_core::{DecoderConfig, FloatBpArithmetic, LayeredDecoder};
/// use ldpc_serve::DecodeService;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let wimax = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
/// let decoder = LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default())?;
/// let service = DecodeService::builder(decoder).register(wimax)?.build()?;
///
/// // A trivially clean frame: strong positive LLRs = all-zero codeword.
/// let handle = service.submit(wimax, vec![8.0; wimax.n], ())?;
/// let output = handle.wait().into_output().expect("decoded");
/// assert!(output.parity_satisfied);
///
/// let report = service.shutdown();
/// assert_eq!(report.iter().map(|s| s.decoded).sum::<u64>(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DecodeService<D> {
    core: Arc<ServiceCore<D>>,
    index: HashMap<CodeId, usize>,
    order: Vec<CodeId>,
    workers: Vec<JoinHandle<()>>,
    label: String,
}

impl<D> DecodeService<D>
where
    D: Decoder + Clone + Send + Sync + 'static,
{
    /// Starts building a service from a [`DecoderPolicy`] — the uniform
    /// entry point for *what decodes*. Every provided decoder is its own
    /// policy, so passing a decoder instance directly keeps working; passing
    /// a [`CascadeConfig`](ldpc_core::CascadeConfig) builds a cascade service
    /// the same way.
    #[must_use]
    pub fn builder<P>(policy: P) -> DecodeServiceBuilder<D>
    where
        P: DecoderPolicy<Decoder = D>,
    {
        DecodeServiceBuilder::new(policy.build_decoder(), policy.label())
    }

    /// The registered modes, in registration order.
    #[must_use]
    pub fn codes(&self) -> &[CodeId] {
        &self.order
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.core.config
    }

    /// Human-readable label of what decodes, from the
    /// [`DecoderPolicy`] the service was built with (e.g.
    /// `"layered/float-bp"`, `"cascade"`).
    #[must_use]
    pub fn decoder_label(&self) -> &str {
        &self.label
    }

    /// The policy a mode's shard is serving under, if registered.
    #[must_use]
    pub fn shard_policy(&self, code: CodeId) -> Option<ShardPolicy> {
        self.index.get(&code).map(|&i| self.core.shards[i].policy)
    }

    /// Opens the worker gate of a service built with `start_paused`. A no-op
    /// when already running.
    pub fn resume(&self) {
        self.core.gate.open();
    }

    /// Submits a frame. `options` is anything [`Into<SubmitOptions>`]:
    /// `()` for the blocking no-deadline default, an [`Instant`] for a
    /// blocking deadline, a [`Priority`], or a full [`SubmitOptions`].
    ///
    /// Blocking submissions park the caller while the shard queue is full;
    /// non-blocking ones refuse with [`SubmitError::QueueFull`], handing the
    /// LLRs back. A frame whose effective deadline (explicit, or
    /// `arrival + slo` on SLO shards) passes while queued completes as
    /// [`DecodeOutcome::Expired`]; on shedding shards an unmeetable deadline
    /// resolves it as [`DecodeOutcome::Shed`] without decoder time.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownCode`] / [`SubmitError::FrameLength`] on
    /// validation failure, [`SubmitError::QueueFull`] on non-blocking
    /// backpressure, [`SubmitError::ShutDown`] once shutdown started.
    pub fn submit(
        &self,
        code: CodeId,
        llrs: Vec<f64>,
        options: impl Into<SubmitOptions>,
    ) -> Result<FrameHandle, SubmitError> {
        self.submit_inner(code, llrs, options.into())
    }

    fn submit_inner(
        &self,
        code: CodeId,
        llrs: Vec<f64>,
        options: SubmitOptions,
    ) -> Result<FrameHandle, SubmitError> {
        self.submit_framed(code, llrs, options, None)
            .map_err(|(e, _)| e)
    }

    /// The shared tail of every submission path. `harq` is the soft-buffer
    /// hook of a [`submit_harq`](DecodeService::submit_harq) frame; refusals
    /// hand it back alongside the error so a retry loop can re-attach it to
    /// the next attempt instead of re-combining the transmission.
    fn submit_framed(
        &self,
        code: CodeId,
        mut llrs: Vec<f64>,
        options: SubmitOptions,
        mut harq: Option<HarqCompletion>,
    ) -> Result<FrameHandle, (SubmitError, Option<HarqCompletion>)> {
        let Some(&idx) = self.index.get(&code) else {
            return Err((SubmitError::UnknownCode { code }, harq));
        };
        let shard = &self.core.shards[idx];
        let expected = shard.compiled.n();
        if llrs.len() != expected {
            return Err((
                SubmitError::FrameLength {
                    code,
                    expected,
                    actual: llrs.len(),
                },
                harq,
            ));
        }
        if let Err(e) = check_finite(shard, code, &llrs) {
            return Err((e, harq));
        }
        // Quantized ingest (when configured): gain-normalise the frame into
        // the fixed-point range at submission, so the dispatch workers — and
        // the caller, should the frame be handed back — see the exact LLRs
        // the decoder will consume.
        if let Some(quantizer) = &self.core.config.ingest_quantizer {
            quantizer.normalize_in_place(&mut llrs);
        }
        let arrival = Instant::now();
        // Every validated frame consumes one ingest sequence number — even
        // one shed at admission — so a single-threaded submitter can predict
        // the seq of each submission (what the chaos harness keys on).
        let seq = self.core.ingest_seq.fetch_add(1, Ordering::Relaxed);
        let deadline = options
            .deadline
            .or_else(|| shard.policy.slo.map(|slo| arrival + slo));
        let est = Duration::from_nanos(shard.counters.est_frame_nanos.load(Ordering::Relaxed));

        // While a degradation ladder still has rungs left, shedding is
        // suppressed: the shard gives up coding effort before it gives up
        // frames.
        let ladder_absorbing = shard.policy.degradation.is_some_and(|ladder| {
            shard.counters.degradation_level.load(Ordering::Relaxed) < u64::from(ladder.max_level)
        });

        // Queue-depth admission control: shed up front when the work already
        // queued ahead of this frame is projected to consume its entire
        // deadline budget. Shed frames are accounted (accepted + shed) and
        // their handles resolve immediately — never a silent drop.
        if shard.policy.shed && !ladder_absorbing && !est.is_zero() {
            if let Some(deadline) = deadline {
                let queue_ahead = est.saturating_mul(shard.queue.len() as u32);
                if !queue_ahead.is_zero() && arrival + queue_ahead > deadline {
                    shard.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    shard.counters.shed.fetch_add(1, Ordering::Relaxed);
                    // A shed HARQ frame parks its soft buffer: the
                    // transmission's information is banked for the retry.
                    if let Some(harq) = harq.take() {
                        harq.resolve(false);
                    }
                    let slot = Arc::new(Slot::default());
                    slot.complete(DecodeOutcome::Shed);
                    return Ok(FrameHandle::new(code, slot));
                }
            }
        }

        // Micro-batch hold: the frame may wait for a fuller batch until the
        // policy's hold ceiling — or until its deadline slack (less one
        // estimated frame cost) runs out, whichever is sooner. Greedy shards
        // hold nothing: dispatch_by = arrival reproduces the old behaviour.
        let mut dispatch_by = arrival + shard.policy.hold_limit();
        if let Some(deadline) = deadline {
            let latest = deadline.checked_sub(est).unwrap_or(arrival).max(arrival);
            dispatch_by = dispatch_by.min(latest);
        }

        let slot = Arc::new(Slot::default());
        let frame = PendingFrame {
            seq,
            llrs,
            deadline,
            priority: options.priority,
            arrival,
            dispatch_by,
            slot: CompletionGuard::new(Arc::clone(&slot), Arc::clone(&shard.counters)),
            harq,
        };
        // Count the acceptance *before* the push: once pushed, the frame is
        // visible to the workers, and a completion must never be observable
        // ahead of its acceptance. Refusals roll the count back.
        shard.counters.accepted.fetch_add(1, Ordering::Relaxed);
        let refused = |counters: &ShardCounters| {
            counters.accepted.fetch_sub(1, Ordering::Relaxed);
        };
        // Refusals reclaim the LLRs and HARQ hook from the handed-back frame
        // and disarm its slot guard: the caller never received a handle, so
        // the drop must not resolve (and count) the frame as abandoned.
        let reclaim = |mut frame: PendingFrame| {
            frame.slot.disarm();
            (std::mem::take(&mut frame.llrs), frame.harq.take())
        };
        if options.blocking {
            shard.queue.push_blocking(frame).map_err(|frame| {
                refused(&shard.counters);
                let (llrs, harq) = reclaim(frame);
                (SubmitError::ShutDown { llrs }, harq)
            })?;
        } else {
            shard.queue.try_push(frame).map_err(|e| {
                refused(&shard.counters);
                match e {
                    PushError::Full(frame) => {
                        shard.counters.rejected_full.fetch_add(1, Ordering::Relaxed);
                        let (llrs, harq) = reclaim(frame);
                        (SubmitError::QueueFull { llrs }, harq)
                    }
                    PushError::Closed(frame) => {
                        let (llrs, harq) = reclaim(frame);
                        (SubmitError::ShutDown { llrs }, harq)
                    }
                }
            })?;
        }
        self.core.kick();
        Ok(FrameHandle::new(code, slot))
    }

    /// Non-blocking submission with bounded, jittered exponential backoff
    /// around transient [`SubmitError::QueueFull`] refusals — the polite way
    /// for a bursty producer to ride out short queue spikes without parking
    /// indefinitely like a blocking submit would.
    ///
    /// `options.blocking` is forced off (the whole point is retrying the
    /// non-blocking path). The retry loop is deadline-aware: when the frame
    /// carries a deadline and the next backoff sleep would land past it, the
    /// loop gives up immediately instead of sleeping into certain expiry.
    ///
    /// # Errors
    ///
    /// As [`submit`](DecodeService::submit); [`SubmitError::QueueFull`]
    /// (with the LLRs handed back) once `retry.max_attempts` submissions
    /// have been refused or the deadline pre-empts the next sleep.
    pub fn submit_with_retry(
        &self,
        code: CodeId,
        llrs: Vec<f64>,
        options: impl Into<SubmitOptions>,
        retry: RetryPolicy,
    ) -> Result<FrameHandle, SubmitError> {
        let options = options.into().non_blocking();
        let mut llrs = llrs;
        let mut attempt = 0u32;
        loop {
            match self.submit_inner(code, llrs, options) {
                Err(SubmitError::QueueFull { llrs: returned }) => {
                    attempt += 1;
                    if attempt >= retry.max_attempts.max(1) {
                        return Err(SubmitError::QueueFull { llrs: returned });
                    }
                    let backoff = retry.backoff(attempt - 1);
                    if let Some(deadline) = options.deadline {
                        if Instant::now() + backoff >= deadline {
                            return Err(SubmitError::QueueFull { llrs: returned });
                        }
                    }
                    std::thread::sleep(backoff);
                    llrs = returned;
                }
                other => return other,
            }
        }
    }

    /// Combines transmission `rv` of HARQ process `key` into its stored soft
    /// buffer and submits the combined frame for decoding.
    ///
    /// `llrs` is either a full codeword (`n` LLRs) or, when the code was
    /// registered with [`harq_puncture`](DecodeServiceBuilder::harq_puncture),
    /// the punctured transmission (`tx_bits` LLRs) of redundancy version
    /// `rv` — punctured positions enter the combiner as erasures (LLR 0).
    /// The frame is gain-normalised, quantized with the service's HARQ
    /// quantizer, and accumulated into the soft buffer stored under `key`
    /// (creating one when absent, within the
    /// [`harq_buffer_bytes`](ServiceConfig::harq_buffer_bytes) budget); the
    /// *combined* LLRs are what the decoder sees. Combining is
    /// order-independent: any permutation of the same transmissions yields
    /// bit-identical combined frames.
    ///
    /// The soft buffer's lifecycle follows the decode outcome: a
    /// parity-satisfied decode releases it, any other resolution (decode
    /// failure, expiry, shed, poison, abandonment) parks it for the next
    /// retransmission. A key whose buffer was evicted under budget pressure
    /// restarts cleanly from this transmission alone (counted in
    /// [`ShardStats::harq_evicted_restarts`]) — degraded, never wedged.
    ///
    /// # Errors
    ///
    /// As [`submit`](DecodeService::submit); [`SubmitError::FrameLength`]
    /// reports the nearest expected length (codeword, or `tx_bits` when a
    /// puncture pattern is registered and `llrs` is not a full codeword).
    /// On refusal the transmission's energy is already banked in the parked
    /// soft buffer — resubmitting the same LLRs would double-count them, so
    /// retry via [`submit_harq_with_retry`](DecodeService::submit_harq_with_retry)
    /// or treat the refusal as a dropped transmission and send the next `rv`.
    pub fn submit_harq(
        &self,
        code: CodeId,
        key: HarqKey,
        rv: u8,
        llrs: Vec<f64>,
        options: impl Into<SubmitOptions>,
    ) -> Result<FrameHandle, SubmitError> {
        let (combined, completion) = self.prepare_harq(code, key, rv, llrs)?;
        self.submit_framed(code, combined, options.into(), Some(completion))
            .map_err(|(err, harq)| {
                // The refused transmission is banked: dropping the completion
                // parks the soft buffer for the caller's next attempt.
                drop(harq);
                err
            })
    }

    /// [`submit_harq`](DecodeService::submit_harq) with the bounded retry
    /// loop of [`submit_with_retry`](DecodeService::submit_with_retry).
    ///
    /// The transmission is combined into the soft buffer exactly once, up
    /// front; refused attempts re-submit the already-combined frame, so a
    /// retry never double-counts the transmission's energy. `options.blocking`
    /// is forced off; the loop is deadline-aware like `submit_with_retry`.
    ///
    /// # Errors
    ///
    /// As [`submit_harq`](DecodeService::submit_harq);
    /// [`SubmitError::QueueFull`] once `retry.max_attempts` submissions were
    /// refused (the combined energy stays parked under `key`).
    pub fn submit_harq_with_retry(
        &self,
        code: CodeId,
        key: HarqKey,
        rv: u8,
        llrs: Vec<f64>,
        options: impl Into<SubmitOptions>,
        retry: RetryPolicy,
    ) -> Result<FrameHandle, SubmitError> {
        let options = options.into().non_blocking();
        let (mut llrs, mut completion) = self.prepare_harq(code, key, rv, llrs)?;
        let mut attempt = 0u32;
        loop {
            match self.submit_framed(code, llrs, options, Some(completion)) {
                Err((SubmitError::QueueFull { llrs: returned }, harq)) => {
                    attempt += 1;
                    let give_up = attempt >= retry.max_attempts.max(1);
                    let backoff = retry.backoff(attempt.saturating_sub(1));
                    let past_deadline = options
                        .deadline
                        .is_some_and(|deadline| Instant::now() + backoff >= deadline);
                    if give_up || past_deadline {
                        // Dropping the reclaimed completion parks the buffer.
                        drop(harq);
                        return Err(SubmitError::QueueFull { llrs: returned });
                    }
                    std::thread::sleep(backoff);
                    llrs = returned;
                    completion = harq.expect("refused HARQ frame hands its completion back");
                }
                Err((err, harq)) => {
                    drop(harq);
                    return Err(err);
                }
                Ok(handle) => return Ok(handle),
            }
        }
    }

    /// Validates, expands, quantizes and soft-combines one HARQ transmission,
    /// returning the combined frame (as LLRs ready for `submit_framed`) and
    /// the completion hook that releases or parks the stored buffer when the
    /// frame resolves.
    fn prepare_harq(
        &self,
        code: CodeId,
        key: HarqKey,
        rv: u8,
        llrs: Vec<f64>,
    ) -> Result<(Vec<f64>, HarqCompletion), SubmitError> {
        let Some(&idx) = self.index.get(&code) else {
            return Err(SubmitError::UnknownCode { code });
        };
        let shard = &self.core.shards[idx];
        check_finite(shard, code, &llrs)?;
        let n = shard.compiled.n();
        let mut full = if llrs.len() == n {
            llrs
        } else if let Some(pattern) = shard
            .puncture
            .as_ref()
            .filter(|p| p.tx_bits() == llrs.len())
        {
            pattern.expand(rv, &llrs)
        } else {
            return Err(SubmitError::FrameLength {
                code,
                // Report the transmission length when one is registered and
                // the caller clearly wasn't sending a full codeword.
                expected: shard.puncture.as_ref().map_or(n, |p| p.tx_bits()),
                actual: llrs.len(),
            });
        };
        let quantizer = &self.core.harq_quantizer;
        quantizer.normalize_in_place(&mut full);
        let incoming = quantizer.quantize_all_to_codes(&full);
        let combine_seq = self.core.harq.next_combine_seq();
        #[cfg(feature = "fault-injection")]
        let force_evict = self
            .core
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.evicts(combine_seq));
        #[cfg(not(feature = "fault-injection"))]
        let force_evict = false;
        let _ = combine_seq;
        let mut combined = vec![0i32; n];
        let disposition = self.core.harq.combine_into(
            key,
            code,
            rv,
            &incoming,
            &self.core.harq_combiner,
            force_evict,
            &shard.counters,
            &mut combined,
        );
        shard.counters.harq_combines.fetch_add(1, Ordering::Relaxed);
        if disposition.restarted {
            shard
                .counters
                .harq_evicted_restarts
                .fetch_add(1, Ordering::Relaxed);
        }
        let combined_llrs: Vec<f64> = combined.iter().map(|&c| quantizer.dequantize(c)).collect();
        let completion = HarqCompletion::new(
            key,
            Arc::clone(&self.core.harq),
            Arc::clone(&shard.counters),
        );
        Ok((combined_llrs, completion))
    }

    /// Point-in-time snapshot of the HARQ soft-buffer store: occupancy
    /// against budget, peak, and the insert/release/evict/drain ledger.
    /// Also carried by [`health`](DecodeService::health) as
    /// [`ServiceHealth::harq`].
    #[must_use]
    pub fn harq_stats(&self) -> SoftBufferStats {
        self.core.harq.stats()
    }

    /// A shared handle on the soft-buffer store, so a harness can read the
    /// final [`SoftBufferStats`] ledger (post-drain occupancy, leak count)
    /// after [`shutdown`](DecodeService::shutdown) has consumed the service.
    #[must_use]
    pub fn harq_store(&self) -> Arc<crate::harq::SoftBufferStore> {
        Arc::clone(&self.core.harq)
    }

    /// Point-in-time health snapshot: every shard's queue depth,
    /// oldest-frame age, dispatch recency and stall flag, restart and
    /// quarantine counts, plus the decode pool's worker census. Cheap
    /// enough to poll from a watchdog loop; see [`ServiceHealth::healthy`]
    /// for the headline verdict.
    #[must_use]
    pub fn health(&self) -> ServiceHealth {
        let now = Instant::now();
        let now_nanos = self.core.now_nanos(now);
        let shards = self
            .core
            .shards
            .iter()
            .map(|shard| {
                let view = shard.queue.view();
                shard.counters.health(
                    shard.code,
                    view.len,
                    view.oldest_arrival
                        .map(|arrival| now.saturating_duration_since(arrival)),
                    now_nanos,
                )
            })
            .collect();
        let pool = DecodePool::global();
        // Service-wide loss totals, summed across shards so a watchdog reads
        // one number per failure class instead of folding the shard vec.
        let total = |field: fn(&ShardCounters) -> &AtomicU64| {
            self.core
                .shards
                .iter()
                .map(|shard| field(&shard.counters).load(Ordering::Relaxed))
                .sum()
        };
        ServiceHealth {
            shed: total(|c| &c.shed),
            quarantined: total(|c| &c.quarantined),
            abandoned: total(|c| &c.abandoned),
            harq: self.core.harq.stats(),
            shards,
            pool_workers: pool.workers(),
            pool_live_workers: pool.live_workers(),
            pool_worker_restarts: pool.worker_restarts(),
        }
    }

    /// Snapshot of one shard's counters.
    #[must_use]
    pub fn shard_stats(&self, code: CodeId) -> Option<ShardStats> {
        let &idx = self.index.get(&code)?;
        let shard = &self.core.shards[idx];
        Some(shard.counters.snapshot(
            code,
            shard.queue.len(),
            self.pool_workspaces_created(),
            &shard.policy,
            shard.effective_batch,
        ))
    }

    /// Snapshots of every shard, in registration order.
    #[must_use]
    pub fn stats(&self) -> Vec<ShardStats> {
        self.order
            .iter()
            .filter_map(|&code| self.shard_stats(code))
            .collect()
    }

    /// Workspaces ever built by the (service-wide, per-mode-shelved)
    /// workspace pool; stable across snapshots once every shard is warm.
    #[must_use]
    pub fn pool_workspaces_created(&self) -> usize {
        self.core
            .template
            .workspace_pool()
            .map_or(0, |pool| pool.workspaces_created())
    }

    /// Closes every shard's intake without stopping the workers: frames
    /// already accepted still decode, new submissions fail with
    /// [`SubmitError::ShutDown`]. The first half of
    /// [`shutdown`](DecodeService::shutdown), usable on a shared reference to
    /// initiate a graceful drain while other threads still hold handles.
    pub fn close_intake(&self) {
        for shard in &self.core.shards {
            shard.queue.close();
        }
        self.core.kick();
    }

    /// Drains and stops the service: closes every ingest queue (new
    /// submissions fail with [`SubmitError::ShutDown`]), opens the worker
    /// gate, lets the workers decode, expire or shed what was accepted,
    /// joins them, and returns the final per-shard statistics. On return,
    /// every accepted frame's handle is resolved.
    pub fn shutdown(mut self) -> Vec<ShardStats> {
        self.finish();
        self.stats()
    }
}

impl<D> DecodeService<D> {
    // Bound-free so `Drop` (no `D` bounds) can share it with `shutdown`.
    fn finish(&mut self) {
        for shard in &self.core.shards {
            shard.queue.close();
        }
        // Open the gate *after* closing the queues so paused services drain
        // exactly the accepted set.
        self.core.gate.open();
        self.core.kick();
        for worker in self.workers.drain(..) {
            // Supervised workers absorb their own panics and only exit
            // normally; an Err here means the supervisor itself died.
            let _ = worker.join();
        }
        // Defensive final sweep: resolve anything still queued. Each dropped
        // frame's completion guard resolves its handle as `Abandoned` and
        // counts it in `ShardStats::abandoned`, so the books balance without
        // any side-channel tally. Under supervision the workers drain every
        // queue before exiting, so this loop normally finds nothing.
        for shard in &self.core.shards {
            while let Some(frame) = shard.queue.pop_blocking() {
                drop(frame);
            }
        }
        // With every frame resolved (each parking or releasing its soft
        // buffer through its completion), drain the HARQ store: whatever is
        // still held belongs to processes mid-retransmission, and counting
        // it out here is what keeps `SoftBufferStats::leaked` at zero.
        self.core.harq.drain();
    }
}

impl<D> Drop for DecodeService<D> {
    fn drop(&mut self) {
        // After `shutdown` this is a no-op (workers already joined); a plain
        // drop performs the same drain so accepted frames never dangle.
        self.finish();
    }
}

/// Supervises one dispatch worker: runs [`run_dispatcher`] under
/// `catch_unwind` and re-enters it after a panic, so the service never
/// loses dispatch capacity to a crashing batch.
///
/// Unwinding through `run_dispatcher` is already safe by construction: the
/// [`Claim`] drop-guard releases the shard's busy flag, and any frames the
/// worker held resolve as [`DecodeOutcome::Abandoned`] through their
/// completion guards (the quarantine path in [`decode_segment`] catches
/// decode panics *before* they reach this supervisor, so in practice only
/// bookkeeping bugs unwind this far). The restart is attributed to the
/// shard that was being served via `ShardStats::worker_restarts`, and the
/// re-entered loop rebuilds its scratch buffers from scratch — no state
/// crosses the panic.
fn supervise_dispatcher<D>(core: &ServiceCore<D>)
where
    D: Decoder + Sync,
{
    // Which shard the worker currently holds a claim on; `usize::MAX` means
    // none. Written by the worker loop, read here after a panic.
    let current = AtomicUsize::new(usize::MAX);
    loop {
        match catch_unwind(AssertUnwindSafe(|| run_dispatcher(core, &current))) {
            Ok(()) => break,
            Err(_) => {
                let idx = current.swap(usize::MAX, Ordering::Relaxed);
                if let Some(shard) = core.shards.get(idx) {
                    shard
                        .counters
                        .worker_restarts
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// One dispatch worker's loop: wait for the gate, claim the best ready
/// shard, serve it, release, repeat — until every queue is closed and
/// drained. `current` mirrors the held claim for the supervisor.
fn run_dispatcher<D>(core: &ServiceCore<D>, current: &AtomicUsize)
where
    D: Decoder + Sync,
{
    let mut pending: Vec<PendingFrame> = Vec::with_capacity(core.config.max_batch);
    let mut live: Vec<PendingFrame> = Vec::with_capacity(core.config.max_batch);
    let mut llr_buf: Vec<f64> = Vec::new();
    let mut outputs: Vec<DecodeOutput> = Vec::new();
    let mut finished: Vec<(PendingFrame, DecodeOutcome)> = Vec::new();
    loop {
        core.gate.wait_open();
        let Some(idx) = core.claim_next() else {
            // Closed and fully drained: every accepted frame was completed.
            break;
        };
        current.store(idx, Ordering::Relaxed);
        let claim = Claim { core, idx };
        serve_shard(
            core,
            &core.shards[idx],
            &mut pending,
            &mut live,
            &mut llr_buf,
            &mut outputs,
            &mut finished,
        );
        drop(claim);
        current.store(usize::MAX, Ordering::Relaxed);
    }
}

/// Serves one claimed shard: drain a group-width-snapped batch, expire and
/// shed what cannot make its deadline, decode the rest (with quarantine
/// bisection if the decode panics), fold the observed cost into the
/// shard's estimate, stamp the end of the dispatch and only then complete
/// the handles.
fn serve_shard<D>(
    core: &ServiceCore<D>,
    shard: &ShardState<D>,
    pending: &mut Vec<PendingFrame>,
    live: &mut Vec<PendingFrame>,
    llr_buf: &mut Vec<f64>,
    outputs: &mut Vec<DecodeOutput>,
    finished: &mut Vec<(PendingFrame, DecodeOutcome)>,
) where
    D: Decoder + Sync,
{
    // Chaos hook: a killed dispatch panics *before* draining the queue, so
    // no frame is in hand — the supervisor restarts the worker and the
    // untouched batch is served by the next claim. This is the injection
    // point the chaos gate uses to prove restarts don't lose frames.
    let _attempt = core.dispatch_attempts.fetch_add(1, Ordering::Relaxed);
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = &core.fault_plan {
        if plan.kills_dispatch(_attempt) {
            panic!("fault-injection: killing dispatch attempt {_attempt}");
        }
    }

    pending.clear();
    shard.queue.drain_batch(
        pending,
        shard.effective_batch,
        shard.group_width,
        shard.policy.micro_batching(),
    );

    // Degradation ladder: judge pressure by the queue fill *left behind*
    // after taking this batch. Stepping up trades cascade effort (skip the
    // float-BP stage, then halve fixed-BP iterations) for throughput;
    // stepping down restores full effort once the backlog clears. While the
    // ladder still has headroom, admission shedding is suppressed — degrade
    // first, shed only once maximally degraded.
    let mut ladder_absorbing = false;
    if let Some(ladder) = shard.policy.degradation {
        let fill =
            (shard.queue.len().saturating_mul(100) / core.config.queue_capacity.max(1)) as u64;
        let level = shard.counters.degradation_level.load(Ordering::Relaxed);
        let stepped = if fill >= u64::from(ladder.high_watermark_pct)
            && level < u64::from(ladder.max_level)
        {
            level + 1
        } else if fill <= u64::from(ladder.low_watermark_pct) && level > 0 {
            level - 1
        } else {
            level
        };
        if stepped != level {
            shard
                .counters
                .degradation_level
                .store(stepped, Ordering::Relaxed);
            // Decoders without an effort ladder (plain layered back-ends)
            // refuse the hint; the gauge still records the intent.
            let _ = shard
                .decoder
                .set_effort_level(u8::try_from(stepped).unwrap_or(u8::MAX));
        }
        ladder_absorbing = stepped < u64::from(ladder.max_level);
    }

    if pending.is_empty() {
        return;
    }

    // Per-batch deadline triage, at the moment the batch is taken: overdue
    // frames expire; frames whose deadline cannot survive the batch's
    // estimated decode time are shed (shedding shards only, and only once
    // the degradation ladder is out of headroom).
    let effective_shed = shard.policy.shed && !ladder_absorbing;
    let now = Instant::now();
    let est = Duration::from_nanos(shard.counters.est_frame_nanos.load(Ordering::Relaxed));
    let batch_cost = est.saturating_mul(pending.len() as u32);
    live.clear();
    for frame in pending.drain(..) {
        match frame.deadline {
            Some(deadline) if deadline <= now => {
                shard.counters.expired.fetch_add(1, Ordering::Relaxed);
                frame.complete(DecodeOutcome::Expired);
            }
            Some(deadline) if effective_shed && !est.is_zero() && deadline < now + batch_cost => {
                shard.counters.shed.fetch_add(1, Ordering::Relaxed);
                frame.complete(DecodeOutcome::Shed);
            }
            _ => live.push(frame),
        }
    }
    if live.is_empty() {
        return;
    }

    let seq = core.dispatch_clock.fetch_add(1, Ordering::Relaxed);
    shard.counters.stamp_dispatch(seq);
    shard.counters.batches.fetch_add(1, Ordering::Relaxed);
    shard
        .counters
        .max_coalesced
        .fetch_max(live.len() as u64, Ordering::Relaxed);
    if shard.counters.degradation_level.load(Ordering::Relaxed) > 0 {
        shard
            .counters
            .degraded_batches
            .fetch_add(1, Ordering::Relaxed);
    }
    shard
        .counters
        .begin_dispatch(core.now_nanos(Instant::now()), live.len());
    // Chaos hook: a stalled dispatch sleeps before decoding — after
    // `begin_dispatch`, so the watchdog's dispatch-age stall detector sees
    // the in-progress dispatch age out.
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = &core.fault_plan {
        if live.iter().any(|frame| plan.stalls(frame.seq)) {
            std::thread::sleep(plan.stall_for);
        }
    }
    decode_segment(core, shard, live, llr_buf, outputs, finished);
    // The dispatch ends before any handle of the batch resolves, so a
    // caller woken by its frame always sees the shard's recency stamped.
    shard.counters.end_dispatch(core.now_nanos(Instant::now()));
    // Mirror stage-ladder counters (cascade decoders only) into the shard
    // counters so snapshots taken between batches see the decoder's exact
    // totals — the claim flag gives this batch exclusive shard access.
    if let Some(stats) = shard.decoder.cascade_stats() {
        shard.counters.mirror_cascade(stats);
    }
    for (frame, outcome) in finished.drain(..) {
        frame.complete(outcome);
    }
}

/// Decodes one segment of a dispatched batch, moving every frame in it to
/// `finished` with its outcome (the caller completes them).
///
/// On a clean decode the frames resolve as `Decoded`/`Failed` exactly as
/// before. If the decode **panics**, the segment is bisected and each half
/// retried independently; recursion bottoms out at a single frame, which is
/// quarantined as [`DecodeOutcome::Poisoned`]. Innocent batch-mates thus
/// decode normally (per-frame determinism makes the retried halves
/// bit-identical to the original batch), and the poisoned frame's handle
/// resolves instead of dangling. The frames stay owned by this function
/// across `catch_unwind`, so an injected panic never triggers their
/// abandonment guards.
fn decode_segment<D>(
    core: &ServiceCore<D>,
    shard: &ShardState<D>,
    frames: &mut Vec<PendingFrame>,
    llr_buf: &mut Vec<f64>,
    outputs: &mut Vec<DecodeOutput>,
    finished: &mut Vec<(PendingFrame, DecodeOutcome)>,
) where
    D: Decoder + Sync,
{
    if frames.is_empty() {
        return;
    }
    llr_buf.clear();
    for frame in frames.iter() {
        llr_buf.extend_from_slice(&frame.llrs);
    }
    outputs.resize_with(frames.len(), DecodeOutput::empty);
    let started = Instant::now();
    match protected_decode(core, shard, frames, llr_buf, outputs) {
        Ok(Ok(())) => {
            let done = Instant::now();
            shard
                .counters
                .observe_batch_cost(done.saturating_duration_since(started), frames.len());
            for (frame, out) in frames.drain(..).zip(outputs.iter_mut()) {
                let out = std::mem::replace(out, DecodeOutput::empty());
                shard.counters.decoded.fetch_add(1, Ordering::Relaxed);
                shard
                    .counters
                    .latency
                    .record(done.saturating_duration_since(frame.arrival));
                finished.push((frame, DecodeOutcome::Decoded(out)));
            }
        }
        Ok(Err(e)) => {
            for frame in frames.drain(..) {
                shard.counters.failed.fetch_add(1, Ordering::Relaxed);
                finished.push((frame, DecodeOutcome::Failed(e.clone())));
            }
        }
        Err(()) => {
            if frames.len() == 1 {
                let frame = frames.pop().expect("length checked above");
                shard.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                finished.push((frame, DecodeOutcome::Poisoned));
            } else {
                // Quarantine bisection: split and retry each half. The
                // split allocates only on this (exceptional) path.
                let mut back = frames.split_off(frames.len() / 2);
                decode_segment(core, shard, frames, llr_buf, outputs, finished);
                decode_segment(core, shard, &mut back, llr_buf, outputs, finished);
            }
        }
    }
}

/// Runs one `decode_batch` call under `catch_unwind`.
///
/// `Err(())` means the decode panicked; the caller owns the frames and
/// decides (bisect or quarantine). The decoder's workspaces are pool-owned
/// and rebuilt per batch, and the claim flag keeps the shard exclusive, so
/// unwinding mid-decode leaves no shared state half-written — the
/// `AssertUnwindSafe` is sound.
fn protected_decode<D>(
    core: &ServiceCore<D>,
    shard: &ShardState<D>,
    #[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
    frames: &[PendingFrame],
    llr_buf: &[f64],
    outputs: &mut [DecodeOutput],
) -> Result<Result<(), DecodeError>, ()>
where
    D: Decoder + Sync,
{
    catch_unwind(AssertUnwindSafe(|| {
        // Chaos hook: a poisoned frame panics the whole decode call, exactly
        // like a decoder bug tripping on one frame's input would.
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &core.fault_plan {
            if let Some(frame) = frames.iter().find(|frame| plan.poisons(frame.seq)) {
                panic!("fault-injection: poisoning frame seq {}", frame.seq);
            }
        }
        let batch = LlrBatch::new(llr_buf, shard.compiled.n())
            .expect("coalesced buffer holds whole frames");
        shard.decoder.decode_batch_into_threads(
            &shard.compiled,
            batch,
            outputs,
            core.config.decode_threads,
        )
    }))
    .map_err(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{CodeRate, Standard};
    use ldpc_core::decoder::{DecoderConfig, LayeredDecoder};
    use ldpc_core::{CascadeConfig, FixedBpArithmetic, FloatBpArithmetic};

    fn wimax576() -> CodeId {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
    }

    fn decoder() -> LayeredDecoder<FloatBpArithmetic> {
        LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap()
    }

    #[test]
    fn builder_validates_registration() {
        let err = DecodeService::builder(decoder()).build().unwrap_err();
        assert_eq!(err, ServeError::NoCodes);

        let unsupported = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 100);
        let err = DecodeService::builder(decoder())
            .register(unsupported)
            .unwrap_err();
        assert!(matches!(err, ServeError::Code(_)));

        let err = DecodeService::builder(decoder())
            .register(wimax576())
            .unwrap()
            .register(wimax576())
            .unwrap_err();
        assert!(matches!(err, ServeError::DuplicateCode { .. }));
    }

    #[test]
    fn zero_config_knobs_are_rejected_at_build() {
        for (build, what) in [
            (
                DecodeService::builder(decoder()).queue_capacity(0),
                "queue_capacity",
            ),
            (DecodeService::builder(decoder()).max_batch(0), "max_batch"),
            (
                DecodeService::builder(decoder()).decode_threads(0),
                "decode_threads",
            ),
            (
                DecodeService::builder(decoder()).dispatch_workers(0),
                "dispatch_workers",
            ),
        ] {
            let err = build.register(wimax576()).unwrap().build().unwrap_err();
            match err {
                ServeError::InvalidConfig { reason } => {
                    assert!(reason.contains(what), "{what}: {reason}");
                }
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn misaligned_max_batch_snaps_to_the_group_width() {
        // Fixed-point back-ends prefer frame groups (width 6 at z = 24); a
        // max_batch of 8 wastes the packing, so build snaps it down to 6.
        let fixed = LayeredDecoder::new(
            FixedBpArithmetic::forward_backward(),
            DecoderConfig::default(),
        )
        .unwrap();
        let service = DecodeService::builder(fixed)
            .max_batch(8)
            .register(wimax576())
            .unwrap()
            .build()
            .unwrap();
        let stats = service.shard_stats(wimax576()).unwrap();
        assert_eq!(stats.effective_max_batch, 6);
        assert_eq!(service.config().max_batch, 8, "the config echoes the ask");

        // Float back-ends are frame-serial (width 1): nothing snaps.
        let service = DecodeService::builder(decoder())
            .max_batch(8)
            .register(wimax576())
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(
            service.shard_stats(wimax576()).unwrap().effective_max_batch,
            8
        );
    }

    #[test]
    fn submission_is_validated_before_queueing() {
        let service = DecodeService::builder(decoder())
            .register(wimax576())
            .unwrap()
            .build()
            .unwrap();
        let unknown = CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648);
        assert!(matches!(
            service.submit(unknown, vec![1.0; 648], ()),
            Err(SubmitError::UnknownCode { .. })
        ));
        assert!(matches!(
            service.submit(wimax576(), vec![1.0; 100], ()),
            Err(SubmitError::FrameLength {
                expected: 576,
                actual: 100,
                ..
            })
        ));
        let stats = service.shutdown();
        assert_eq!(stats[0].accepted, 0, "invalid frames were never accepted");
    }

    #[test]
    fn clean_frames_decode_and_stats_add_up() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let handles: Vec<_> = (0..6)
            .map(|_| service.submit(code, vec![7.5; code.n], ()).unwrap())
            .collect();
        for handle in handles {
            assert_eq!(handle.code(), code);
            let out = handle.wait().into_output().expect("decoded");
            assert!(out.parity_satisfied);
            assert!(out.hard_bits.iter().all(|&b| b == 0));
        }
        let stats = service.shutdown();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].decoded, 6);
        assert_eq!(stats[0].accepted, 6);
        assert_eq!(stats[0].in_flight(), 0);
        assert!(stats[0].batches >= 1);
        assert!(stats[0].pool_workspaces_created >= 1);
        assert_eq!(stats[0].latency.count, 6, "decoded frames record latency");
        assert!(stats[0].est_frame_nanos > 0, "cost estimate learned");
        assert_eq!(stats[0].first_dispatch_order, Some(0));
    }

    #[test]
    fn closed_intake_refuses_new_frames_but_drains_accepted_ones() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let accepted = service.submit(code, vec![6.0; code.n], ()).unwrap();
        service.close_intake();
        let err = service.submit(code, vec![6.0; code.n], ()).unwrap_err();
        let llrs = match err {
            SubmitError::ShutDown { llrs } => llrs,
            other => panic!("expected ShutDown, got {other:?}"),
        };
        assert_eq!(llrs.len(), code.n, "frame handed back intact");
        assert!(matches!(
            service.submit(code, llrs, SubmitOptions::new().non_blocking()),
            Err(SubmitError::ShutDown { .. })
        ));
        service.resume();
        assert!(accepted.wait().is_decoded());
        let stats = service.shutdown();
        assert_eq!(stats[0].accepted, 1);
        assert_eq!(stats[0].decoded, 1);
    }

    #[test]
    fn paused_service_queues_without_decoding_until_resume() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let handle = service.submit(code, vec![6.0; code.n], ()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!handle.is_complete(), "paused workers must not decode");
        assert_eq!(service.shard_stats(code).unwrap().queue_depth, 1);
        service.resume();
        assert!(handle.wait().is_decoded());
        service.shutdown();
    }

    #[test]
    fn paused_service_exposes_deterministic_backpressure() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .queue_capacity(2)
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let try_opts = SubmitOptions::new().non_blocking();
        let h1 = service.submit(code, vec![6.0; code.n], try_opts).unwrap();
        let h2 = service.submit(code, vec![6.0; code.n], try_opts).unwrap();
        let err = service
            .submit(code, vec![6.0; code.n], try_opts)
            .unwrap_err();
        let llrs = match err {
            SubmitError::QueueFull { llrs } => llrs,
            other => panic!("expected QueueFull, got {other:?}"),
        };
        assert_eq!(llrs.len(), code.n, "frame handed back for retry");
        let stats = service.shard_stats(code).unwrap();
        assert_eq!(stats.rejected_full, 1);
        assert_eq!(stats.accepted, 2);
        service.resume();
        assert!(h1.wait().is_decoded());
        assert!(h2.wait().is_decoded());
        service.shutdown();
    }

    #[test]
    fn shutdown_completes_every_accepted_frame_even_when_paused() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let handles: Vec<_> = (0..5)
            .map(|_| service.submit(code, vec![6.5; code.n], ()).unwrap())
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats[0].decoded, 5, "drain decodes everything accepted");
        for handle in handles {
            assert!(handle.wait().is_decoded());
        }
    }

    #[test]
    fn dropping_the_service_also_drains() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let handle = service.submit(code, vec![6.0; code.n], ()).unwrap();
        drop(service);
        assert!(handle.wait().is_decoded(), "drop drains like shutdown");
    }

    #[test]
    fn hot_shard_fanout_is_bit_identical_with_an_idle_shard_registered() {
        // Cross-shard stealing sanity: one hot mode, one idle mode, with the
        // hot shard fanning each coalesced batch across the shared decode
        // pool. Outputs must match a direct single-threaded decode_batch
        // frame for frame, and the idle shard must see no traffic.
        use ldpc_core::Decoder;
        let hot = wimax576();
        let idle = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 1152);
        let service = DecodeService::builder(decoder())
            .start_paused()
            .queue_capacity(64)
            .max_batch(32)
            .decode_threads(4)
            .register(hot)
            .unwrap()
            .register(idle)
            .unwrap()
            .build()
            .unwrap();
        let frames = 24;
        let llrs: Vec<f64> = (0..frames * hot.n)
            .map(|i| if (i * 2654435761) % 89 < 6 { -1.2 } else { 3.5 })
            .collect();
        let handles: Vec<_> = llrs
            .chunks_exact(hot.n)
            .map(|frame| service.submit(hot, frame.to_vec(), ()).unwrap())
            .collect();
        service.resume();

        let compiled = hot.build().unwrap().compile();
        let reference = decoder()
            .decode_batch(&compiled, ldpc_core::LlrBatch::new(&llrs, hot.n).unwrap())
            .unwrap();
        for (i, handle) in handles.into_iter().enumerate() {
            let out = handle.wait().into_output().expect("decoded");
            assert_eq!(out, reference[i], "frame {i}");
        }
        let stats = service.shutdown();
        assert_eq!(stats[0].decoded, frames as u64);
        assert_eq!(stats[1].decoded, 0, "idle shard saw no frames");
    }

    #[test]
    fn cascade_policy_builds_through_the_uniform_builder() {
        // One clean frame stays at stage 1; heavily corrupted frames under a
        // one-iteration stage-1 budget must escalate. The shard's mirrored
        // counters must show exactly the decoder's ladder traffic.
        let code = wimax576();
        let policy = CascadeConfig {
            min_sum_iterations: 1,
            ..CascadeConfig::default()
        };
        let service = DecodeService::builder(policy)
            .start_paused()
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(service.decoder_label(), "cascade");

        let clean = service.submit(code, vec![8.0; code.n], ()).unwrap();
        let noisy: Vec<f64> = (0..code.n)
            .map(|i| {
                let sign = if (i * 2654435761) % 21 < 5 { -1.0 } else { 1.0 };
                sign * (0.8 + (i % 11) as f64 * 0.5)
            })
            .collect();
        let hard = service.submit(code, noisy, ()).unwrap();
        service.resume();
        assert!(clean.wait().is_decoded());
        assert!(hard.wait().is_decoded());

        let stats = service.shutdown();
        assert_eq!(stats[0].decoded, 2);
        assert_eq!(stats[0].cascade_stage_frames[0], 2);
        assert_eq!(
            stats[0].cascade_stage_frames[1], 1,
            "only the noisy frame escalates"
        );
        assert_eq!(stats[0].cascade_escalations, 1);
    }

    #[test]
    fn expired_frames_skip_the_decoder() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        let expired = service.submit(code, vec![6.0; code.n], past).unwrap();
        let future = Instant::now() + Duration::from_secs(3600);
        let fresh = service
            .submit(
                code,
                vec![6.0; code.n],
                SubmitOptions::new().deadline(future).non_blocking(),
            )
            .unwrap();
        service.resume();
        assert_eq!(expired.wait(), DecodeOutcome::Expired);
        assert!(fresh.wait().is_decoded());
        let stats = service.shutdown();
        assert_eq!(stats[0].expired, 1);
        assert_eq!(stats[0].decoded, 1);
    }

    #[test]
    fn micro_batch_timer_waits_for_a_full_batch_then_dispatches() {
        // An SLO shard with a huge hold ceiling must sit on a lone frame —
        // and dispatch the moment the batch fills, well before the timer.
        let code = wimax576();
        let policy = ShardPolicy::with_slo(Duration::from_secs(3600)).shed(false);
        let service = DecodeService::builder(decoder())
            .max_batch(2)
            .register_with_policy(code, policy)
            .unwrap()
            .build()
            .unwrap();
        let first = service.submit(code, vec![6.0; code.n], ()).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            !first.is_complete(),
            "one queued frame of a two-frame batch must be held"
        );
        let second = service.submit(code, vec![6.0; code.n], ()).unwrap();
        assert!(first.wait().is_decoded());
        assert!(second.wait().is_decoded());
        let stats = service.shutdown();
        assert_eq!(stats[0].batches, 1, "size-triggered single dispatch");
        assert_eq!(stats[0].max_coalesced, 2);
    }

    #[test]
    fn micro_batch_timer_fires_on_deadline_slack_without_a_full_batch() {
        // A lone frame on an SLO shard dispatches when the hold releases
        // (slo/2), not at the deadline and not never.
        let code = wimax576();
        let policy = ShardPolicy::with_slo(Duration::from_millis(50)).shed(false);
        let service = DecodeService::builder(decoder())
            .max_batch(32)
            .register_with_policy(code, policy)
            .unwrap()
            .build()
            .unwrap();
        let submitted = Instant::now();
        let handle = service.submit(code, vec![6.0; code.n], ()).unwrap();
        assert!(handle.wait().is_decoded());
        let held = submitted.elapsed();
        assert!(
            held >= Duration::from_millis(20),
            "dispatch must wait out the 25 ms hold, not fire greedily ({held:?})"
        );
        let stats = service.shutdown();
        assert_eq!(stats[0].decoded, 1);
        assert_eq!(stats[0].batches, 1);
    }

    #[test]
    fn high_priority_shard_dispatches_first_on_a_single_worker() {
        let low_mode = wimax576();
        let high_mode = CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648);
        // Register the low-priority mode first so priority — not
        // registration order — must explain the dispatch order.
        let service = DecodeService::builder(decoder())
            .start_paused()
            .dispatch_workers(1)
            .register_with_policy(low_mode, ShardPolicy::default().priority(Priority::Low))
            .unwrap()
            .register_with_policy(high_mode, ShardPolicy::default().priority(Priority::High))
            .unwrap()
            .build()
            .unwrap();
        let low = service.submit(low_mode, vec![6.0; low_mode.n], ()).unwrap();
        let high = service
            .submit(high_mode, vec![6.0; high_mode.n], ())
            .unwrap();
        let stats = service.shutdown();
        assert!(low.wait().is_decoded());
        assert!(high.wait().is_decoded());
        let order_of = |code: CodeId| {
            stats
                .iter()
                .find(|s| s.code == code)
                .and_then(|s| s.first_dispatch_order)
                .expect("dispatched")
        };
        assert!(
            order_of(high_mode) < order_of(low_mode),
            "the high-priority shard must be served first: {stats:?}"
        );
    }

    #[test]
    fn unmeetable_deadlines_are_shed_at_admission_and_dispatch() {
        // Seeded 10 s/frame cost estimate, no SLO (so only explicit
        // deadlines are judged). Frame 1 (6 s budget, empty queue) passes
        // admission but is shed at dispatch (batch cost ≥ 20 s). Frame 2
        // (5 s budget, one frame queued ahead = 10 s projected wait) is shed
        // at admission, resolving immediately while the service is paused.
        // Frame 3 has no deadline and must decode.
        let code = wimax576();
        let policy = ShardPolicy::default()
            .shed(true)
            .expected_frame_cost(Duration::from_secs(10));
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register_with_policy(code, policy)
            .unwrap()
            .build()
            .unwrap();
        let f1 = service
            .submit(
                code,
                vec![6.0; code.n],
                Instant::now() + Duration::from_secs(6),
            )
            .unwrap();
        let f2 = service
            .submit(
                code,
                vec![6.0; code.n],
                Instant::now() + Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(f2.wait(), DecodeOutcome::Shed, "admission-time shed");
        let f3 = service.submit(code, vec![6.0; code.n], ()).unwrap();
        assert_eq!(service.shard_stats(code).unwrap().shed, 1);
        service.resume();
        assert_eq!(f1.wait(), DecodeOutcome::Shed, "dispatch-time shed");
        assert!(f3.wait().is_decoded(), "undeadlined frames never shed");
        let stats = service.shutdown();
        assert_eq!(stats[0].accepted, 3);
        assert_eq!(stats[0].shed, 2);
        assert_eq!(stats[0].decoded, 1);
        assert_eq!(stats[0].in_flight(), 0, "shed frames are accounted");
    }

    #[test]
    fn slo_scheduled_output_is_bit_identical_to_direct_decode_batch() {
        let code = wimax576();
        let policy = ShardPolicy::with_slo(Duration::from_secs(3600))
            .shed(false)
            .max_hold(Duration::from_millis(5));
        let service = DecodeService::builder(decoder())
            .max_batch(8)
            .register_with_policy(code, policy)
            .unwrap()
            .build()
            .unwrap();
        let frames = 20;
        let llrs: Vec<f64> = (0..frames * code.n)
            .map(|i| if (i * 2654435761) % 97 < 7 { -1.4 } else { 3.1 })
            .collect();
        let handles: Vec<_> = llrs
            .chunks_exact(code.n)
            .map(|frame| service.submit(code, frame.to_vec(), ()).unwrap())
            .collect();
        let compiled = code.build().unwrap().compile();
        let reference = decoder()
            .decode_batch(&compiled, LlrBatch::new(&llrs, code.n).unwrap())
            .unwrap();
        for (i, handle) in handles.into_iter().enumerate() {
            let out = handle.wait().into_output().expect("decoded");
            assert_eq!(out, reference[i], "frame {i}");
        }
        let stats = service.shutdown();
        assert_eq!(stats[0].decoded, frames as u64);
        assert_eq!(stats[0].shed, 0);
        assert_eq!(stats[0].expired, 0);
    }

    #[test]
    fn health_reports_queue_depth_oldest_age_and_pool_census() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let before = Instant::now();
        let h1 = service.submit(code, vec![6.0; code.n], ()).unwrap();
        let h2 = service.submit(code, vec![6.0; code.n], ()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let health = service.health();
        assert_eq!(health.shards.len(), 1);
        let shard = &health.shards[0];
        assert_eq!(shard.code, code);
        assert_eq!(shard.queue_depth, 2);
        let age = shard.oldest_frame_age.expect("frames are queued");
        assert!(age >= Duration::from_millis(5) && age <= before.elapsed());
        assert!(!shard.dispatch_in_progress, "paused: nothing dispatched");
        assert!(shard.last_dispatch_age.is_none(), "no dispatch yet");
        assert!(!shard.stalled);
        assert_eq!(shard.worker_restarts, 0);
        assert_eq!(shard.quarantined, 0);
        assert!(health.pool_workers >= 1);
        // Freshly spawned pool workers register themselves asynchronously;
        // wait for the census to converge before judging healthiness.
        let deadline = Instant::now() + Duration::from_secs(10);
        let health = loop {
            let health = service.health();
            if health.pool_live_workers >= health.pool_workers {
                break health;
            }
            assert!(Instant::now() < deadline, "pool workers never registered");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(health.pool_live_workers, health.pool_workers);
        assert!(health.healthy(), "paused-but-responsive is healthy");

        service.resume();
        assert!(h1.wait().is_decoded());
        assert!(h2.wait().is_decoded());
        let drained = service.health();
        assert_eq!(drained.shards[0].queue_depth, 0);
        // The dispatch is stamped finished before its handles resolve.
        assert!(
            drained.shards[0].last_dispatch_age.is_some(),
            "a completed dispatch stamps recency"
        );
        service.shutdown();
    }

    #[test]
    fn submit_with_retry_rides_out_transient_queue_pressure() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .queue_capacity(1)
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let parked = service.submit(code, vec![6.0; code.n], ()).unwrap();

        // Paused + full queue: a no-retry policy refuses immediately...
        let once = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        assert!(matches!(
            service.submit_with_retry(code, vec![6.0; code.n], (), once),
            Err(SubmitError::QueueFull { .. })
        ));
        // ...and a deadline inside the first backoff gives up without
        // sleeping into certain expiry.
        let tight = RetryPolicy {
            base_backoff: Duration::from_secs(3600),
            ..RetryPolicy::default()
        };
        assert!(matches!(
            service.submit_with_retry(
                code,
                vec![6.0; code.n],
                Instant::now() + Duration::from_millis(1),
                tight,
            ),
            Err(SubmitError::QueueFull { .. })
        ));

        // With the service resumed mid-backoff, the retry loop lands the
        // frame once capacity frees.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                service.resume();
            });
            let retry = RetryPolicy {
                max_attempts: 200,
                base_backoff: Duration::from_millis(2),
                ..RetryPolicy::default()
            };
            let handle = service
                .submit_with_retry(code, vec![6.0; code.n], (), retry)
                .expect("capacity frees after resume");
            assert!(handle.wait().is_decoded());
        });
        assert!(parked.wait().is_decoded());
        let stats = service.shutdown();
        assert_eq!(stats[0].decoded, 2);
        assert!(stats[0].rejected_full >= 2, "refusals were counted");
    }

    #[test]
    fn degradation_ladder_suppresses_shedding_while_it_has_headroom() {
        // Same setup as the shed test (10 s/frame seeded cost, unmeetable
        // deadlines) but with a degradation ladder attached: as long as the
        // ladder has headroom, frames decode at reduced effort instead of
        // being shed at admission or dispatch.
        let code = wimax576();
        let policy = ShardPolicy::default()
            .shed(true)
            .expected_frame_cost(Duration::from_secs(10))
            .degradation(crate::policy::DegradationPolicy::default());
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register_with_policy(code, policy)
            .unwrap()
            .build()
            .unwrap();
        let f1 = service
            .submit(
                code,
                vec![6.0; code.n],
                Instant::now() + Duration::from_secs(6),
            )
            .unwrap();
        let f2 = service
            .submit(
                code,
                vec![6.0; code.n],
                Instant::now() + Duration::from_secs(5),
            )
            .unwrap();
        assert!(
            !f2.is_complete(),
            "admission shed is suppressed while the ladder absorbs"
        );
        service.resume();
        assert!(f1.wait().is_decoded(), "degrade-first beats shedding");
        assert!(f2.wait().is_decoded());
        let stats = service.shutdown();
        assert_eq!(stats[0].shed, 0);
        assert_eq!(stats[0].decoded, 2);
    }

    #[test]
    fn degradation_level_steps_up_under_backlog_and_recovers() {
        // Paused service, capacity 10, single-frame batches: after the first
        // dispatch 9 frames remain (90% fill ≥ the 60% watermark), so the
        // level must climb, and the drained tail must bring it back to 0.
        let code = wimax576();
        let policy = ShardPolicy::default()
            .shed(false)
            .degradation(crate::policy::DegradationPolicy::default());
        let service = DecodeService::builder(decoder())
            .start_paused()
            .queue_capacity(10)
            .max_batch(1)
            .register_with_policy(code, policy)
            .unwrap()
            .build()
            .unwrap();
        let handles: Vec<_> = (0..10)
            .map(|_| service.submit(code, vec![6.5; code.n], ()).unwrap())
            .collect();
        service.resume();
        for handle in handles {
            assert!(handle.wait().is_decoded());
        }
        let stats = service.shutdown();
        assert_eq!(stats[0].decoded, 10);
        assert!(
            stats[0].degraded_batches >= 1,
            "backlogged batches ran degraded: {stats:?}"
        );
        assert_eq!(
            stats[0].degradation_level, 0,
            "drained queue steps the ladder back down"
        );
    }

    #[test]
    fn harq_parks_failed_attempts_and_releases_successes() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let key = HarqKey::new(7, 0);

        // First transmission carries a deadline that is already gone: the
        // frame expires at dispatch — a non-success that must *park* the
        // soft buffer, banking the transmission for the retry.
        let first = service
            .submit_harq(code, key, 0, vec![6.0; code.n], Instant::now())
            .unwrap();
        service.resume();
        assert!(matches!(first.wait(), DecodeOutcome::Expired));
        let stats = service.harq_stats();
        assert_eq!(stats.entries, 1, "failed attempt parks the buffer");
        assert!(stats.occupancy_bytes > 0);
        let shard = service.shard_stats(code).unwrap();
        assert_eq!(shard.harq_combines, 1);
        assert_eq!(shard.harq_parked, 1);
        assert_eq!(shard.harq_released, 0);

        // Retransmission combines with the banked energy and decodes: a
        // parity-satisfied outcome releases the buffer.
        let second = service
            .submit_harq(code, key, 1, vec![6.0; code.n], ())
            .unwrap();
        let out = second.wait().into_output().expect("combined frame decodes");
        assert!(out.parity_satisfied);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
        let health = service.health();
        assert_eq!(health.harq.entries, 0, "success releases the buffer");
        assert_eq!(health.harq.releases, 1);
        assert_eq!(health.shed, 0);
        assert_eq!(health.quarantined, 0);
        assert_eq!(health.abandoned, 0);
        let shard = service.shard_stats(code).unwrap();
        assert_eq!(shard.harq_combines, 2);
        assert_eq!(shard.harq_released, 1);
        let stats = service.harq_stats();
        assert_eq!(stats.leaked(), 0, "the ledger stays balanced");
        service.shutdown();
    }

    #[test]
    fn harq_punctured_redundancy_versions_combine_to_a_full_codeword() {
        // tx_bits 288 over n = 576, z = 24: rv0 covers bits [0, 288) and
        // rv2 covers [288, 576) — complementary halves of the codeword.
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .harq_puncture(code, 288)
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let key = HarqKey::new(11, 3);

        // A transmission that is neither a full codeword nor tx_bits long is
        // refused, quoting the registered transmission length.
        assert!(matches!(
            service.submit_harq(code, key, 0, vec![6.0; 100], ()),
            Err(SubmitError::FrameLength {
                expected: 288,
                actual: 100,
                ..
            })
        ));

        // rv0 alone is half a codeword (the rest erased); expire it so the
        // energy parks rather than asserting on a borderline decode.
        let first = service
            .submit_harq(code, key, 0, vec![6.0; 288], Instant::now())
            .unwrap();
        service.resume();
        assert!(matches!(first.wait(), DecodeOutcome::Expired));

        // rv2 fills in the other half: the combined frame has full-strength
        // LLRs at every position and decodes cleanly.
        let second = service
            .submit_harq(code, key, 2, vec![6.0; 288], ())
            .unwrap();
        let out = second.wait().into_output().expect("combined halves decode");
        assert!(out.parity_satisfied);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
        assert_eq!(service.harq_stats().entries, 0);
        service.shutdown();
    }

    #[test]
    fn harq_builder_rejects_bad_puncture_registrations() {
        let code = wimax576();
        let other = CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648);
        let err = DecodeService::builder(decoder())
            .harq_puncture(other, 324)
            .register(code)
            .unwrap()
            .build()
            .unwrap_err();
        match err {
            ServeError::InvalidConfig { reason } => {
                assert!(reason.contains("harq_puncture"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }

        // tx_bits not divisible by z is a code-layer parameter error.
        let err = DecodeService::builder(decoder())
            .harq_puncture(code, 100)
            .register(code)
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, ServeError::Code(_)), "{err:?}");
    }

    #[test]
    fn harq_refusals_bank_energy_and_retries_reattach_it() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .start_paused()
            .queue_capacity(1)
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let parked = service.submit(code, vec![6.0; code.n], ()).unwrap();
        let key = HarqKey::new(42, 1);

        // Paused + full queue: the HARQ submission is refused, but the
        // transmission was already combined — its energy stays banked in the
        // parked buffer, and no phantom abandonment is counted.
        assert!(matches!(
            service.submit_harq(
                code,
                key,
                0,
                vec![6.0; code.n],
                SubmitOptions::new().non_blocking()
            ),
            Err(SubmitError::QueueFull { .. })
        ));
        let stats = service.harq_stats();
        assert_eq!(stats.entries, 1, "refused transmission stays banked");
        assert_eq!(stats.combines, 1);
        let shard = service.shard_stats(code).unwrap();
        assert_eq!(shard.harq_parked, 1);
        assert_eq!(shard.abandoned, 0, "refusal must not count as abandoned");

        // The retry loop re-attaches the completion to each attempt without
        // re-combining; once capacity frees, the frame decodes and releases.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                service.resume();
            });
            let retry = RetryPolicy {
                max_attempts: 200,
                base_backoff: Duration::from_millis(2),
                ..RetryPolicy::default()
            };
            let handle = service
                .submit_harq_with_retry(code, key, 1, vec![6.0; code.n], (), retry)
                .expect("capacity frees after resume");
            assert!(handle.wait().is_decoded());
        });
        assert!(parked.wait().is_decoded());
        let stats = service.harq_stats();
        assert_eq!(stats.combines, 2, "retries never re-combine");
        assert_eq!(stats.releases, 1);
        assert_eq!(stats.leaked(), 0);
        let shard_stats = service.shutdown();
        assert_eq!(shard_stats[0].abandoned, 0);
        assert_eq!(shard_stats[0].harq_released, 1);
    }

    #[test]
    fn zero_harq_budget_serves_stateless() {
        let code = wimax576();
        let service = DecodeService::builder(decoder())
            .harq_buffer_bytes(0)
            .register(code)
            .unwrap()
            .build()
            .unwrap();
        let key = HarqKey::new(1, 0);
        let handle = service
            .submit_harq(code, key, 0, vec![6.5; code.n], ())
            .unwrap();
        assert!(handle.wait().is_decoded());
        let stats = service.harq_stats();
        assert_eq!(stats.entries, 0, "nothing fits a zero budget");
        assert_eq!(stats.occupancy_bytes, 0);
        assert!(stats.oversize >= 1, "stateless fallback is counted");
        assert_eq!(stats.leaked(), 0);
        service.shutdown();
    }
}
