//! The batched decode engine: a common [`Decoder`] trait over the layered and
//! flooding schedules, zero-allocation group decoding via
//! [`Decoder::decode_group_into`] (with [`Decoder::decode_into`] as a group
//! of one), and frame-parallel [`Decoder::decode_batch`].
//!
//! The paper's architecture reaches 1 Gbps by keeping `z` SISO decoders busy
//! on independent rows while the control ROM supplies a precompiled schedule.
//! The software analogues are:
//!
//! * [`ldpc_codes::CompiledCode`] — the schedule, compiled once per code;
//! * [`crate::workspace::DecodeWorkspace`] — the L/Λ memories, allocated once
//!   and reused for every frame;
//! * [`Decoder::decode_batch`] — frame-level parallelism across OS threads,
//!   the software stand-in for the parallel SISO array. Batches fan out onto
//!   the process-wide persistent [`crate::threadpool::DecodePool`] (spawned
//!   once, parked when idle — no per-call thread spawn): the batch is cut
//!   into chunks of whole frame-major groups (multiples of
//!   [`Decoder::preferred_group_width`], so partitioning never strands
//!   ragged sub-group tails inside a worker) and the participating threads —
//!   the calling thread plus up to `threads − 1` pool workers — claim chunks
//!   dynamically off a shared cursor. The environment variable
//!   `LDPC_DECODE_THREADS` overrides the worker count; by default it follows
//!   `std::thread::available_parallelism`. `LDPC_PIN_THREADS` additionally
//!   pins the pool workers to cores (see [`crate::threadpool`]).
//!
//! Below the engine, the fixed-point panel kernels dispatch once per
//! process to the best kernel tier the CPU supports (AVX2 → SSE4.1 →
//! scalar; see [`crate::arith::simd`]). [`kernel_tier`] reports the active
//! tier, and setting `LDPC_FORCE_SCALAR=1` pins the scalar fallback for
//! the whole process — outputs are bit-identical either way, so the knob
//! only trades speed.
//!
//! ```
//! use ldpc_codes::{CodeId, CodeRate, Standard};
//! use ldpc_core::{Decoder, DecoderConfig, FloatBpArithmetic, LayeredDecoder, LlrBatch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576).build()?;
//! let compiled = code.compile();
//! let decoder = LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default())?;
//!
//! // Four clean frames, flattened into one buffer.
//! let llrs = vec![8.0; 4 * compiled.n()];
//! let outputs = decoder.decode_batch(&compiled, LlrBatch::new(&llrs, compiled.n())?)?;
//! assert_eq!(outputs.len(), 4);
//! assert!(outputs.iter().all(|o| o.parity_satisfied));
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use ldpc_codes::{CompiledCode, QcCode};

use crate::arith::DecoderArithmetic;
use crate::decoder::DecoderConfig;
use crate::error::DecodeError;
use crate::pool::WorkspacePool;
use crate::result::DecodeOutput;
use crate::threadpool::DecodePool;
use crate::workspace::DecodeWorkspace;

/// Checks that `llrs` holds exactly one frame of `compiled`.
pub(crate) fn check_frame_len(compiled: &CompiledCode, llrs: &[f64]) -> Result<(), DecodeError> {
    if llrs.len() == compiled.n() {
        Ok(())
    } else {
        Err(DecodeError::LlrLengthMismatch {
            expected: compiled.n(),
            actual: llrs.len(),
        })
    }
}

/// Checks that `llrs` holds exactly `frames` frames of `compiled`.
pub(crate) fn check_group_shape(
    compiled: &CompiledCode,
    llrs: &[f64],
    frames: usize,
) -> Result<(), DecodeError> {
    let n = compiled.n();
    if llrs.len() == frames * n {
        Ok(())
    } else {
        Err(DecodeError::BatchShape {
            reason: format!(
                "group of {frames} outputs needs {} LLRs, got {}",
                frames * n,
                llrs.len()
            ),
        })
    }
}

/// Refuses frame `frame` of a group if it holds a NaN or infinite LLR,
/// naming the first one. The flooding schedule checks every frame this way
/// before it decodes any; the layered driver tests finiteness inside its
/// quantisation pass and calls [`non_finite_llr`] only on refusal.
///
/// The scan is branch-free and vectorises: `l · 0` is `±0` for a finite `l`
/// and NaN for ±∞ or NaN, and NaN survives every sum, so eight lane
/// accumulators of `l · 0` stay finite exactly when every LLR is.
pub(crate) fn check_frame_finite(frame: usize, llrs: &[f64]) -> Result<(), DecodeError> {
    let mut lanes = [0.0f64; 8];
    let chunks = llrs.chunks_exact(lanes.len());
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &l) in lanes.iter_mut().zip(chunk) {
            *lane += l * 0.0;
        }
    }
    if lanes.iter().chain(tail).all(|v| v.is_finite()) {
        return Ok(());
    }
    Err(non_finite_llr(frame, llrs))
}

/// The refusal of frame `frame`, known to hold a NaN or infinite LLR:
/// searches `llrs` for the first one.
pub(crate) fn non_finite_llr(frame: usize, llrs: &[f64]) -> DecodeError {
    let index = llrs
        .iter()
        .position(|l| !l.is_finite())
        .expect("the frame holds a non-finite LLR");
    DecodeError::NonFiniteLlr { frame, index }
}

/// Fills `out` from packed column `slot` of the final `width`-frame APP
/// memory `app` (`app[i · width + slot]`, see [`crate::group`]): hard bits
/// and posterior LLRs, read in place with no de-interleaved copy, the stop
/// flag and the parity verdict the driver's one parity pass produced for
/// this iteration. Shared by both schedules.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_output<A: DecoderArithmetic>(
    arith: &A,
    compiled: &CompiledCode,
    app: &[A::Msg],
    width: usize,
    slot: usize,
    out: &mut DecodeOutput,
    iterations: usize,
    early_terminated: bool,
    parity_satisfied: bool,
) {
    debug_assert_eq!(app.len(), width * compiled.n());
    out.posterior_llrs.clear();
    out.hard_bits.clear();
    crate::group::const_width!(width, W => {
        let column = crate::group::column(app, W, slot);
        out.posterior_llrs.extend(column.map(|m| arith.to_llr(m)));
        let column = crate::group::column(app, W, slot);
        out.hard_bits.extend(column.map(|m| arith.hard_bit(m)));
    });
    out.parity_satisfied = parity_satisfied;
    out.iterations = iterations;
    out.early_terminated = early_terminated;
    out.stats = crate::decoder::group_frame_stats(compiled, iterations);
}

/// Message type of a decoder's arithmetic back-end.
pub type MsgOf<D> = <<D as Decoder>::Arith as DecoderArithmetic>::Msg;

/// A flat batch of channel-LLR frames (`frames · frame_len` values).
///
/// Produced naturally by `ldpc_channel`'s block workload generation; borrowed,
/// so batches can be sliced out of any contiguous buffer without copying.
#[derive(Debug, Clone, Copy)]
pub struct LlrBatch<'a> {
    llrs: &'a [f64],
    frame_len: usize,
}

impl<'a> LlrBatch<'a> {
    /// Wraps a flat buffer holding a whole number of `frame_len`-sized frames.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BatchShape`] if `frame_len` is zero or does not
    /// divide the buffer length.
    pub fn new(llrs: &'a [f64], frame_len: usize) -> Result<Self, DecodeError> {
        if frame_len == 0 || !llrs.len().is_multiple_of(frame_len) {
            return Err(DecodeError::BatchShape {
                reason: format!(
                    "buffer of {} LLRs is not a whole number of {frame_len}-bit frames",
                    llrs.len()
                ),
            });
        }
        Ok(LlrBatch { llrs, frame_len })
    }

    /// Number of frames in the batch.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.llrs.len() / self.frame_len
    }

    /// LLRs per frame (the code length `n`).
    #[must_use]
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// The LLRs of one frame.
    ///
    /// # Panics
    ///
    /// Panics if `index >= frames()`.
    #[must_use]
    pub fn frame(&self, index: usize) -> &'a [f64] {
        &self.llrs[index * self.frame_len..(index + 1) * self.frame_len]
    }

    /// The LLRs of `count` consecutive frames starting at `start`, as one
    /// flat slice — the shape
    /// [`Decoder::decode_group_into`] consumes.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > frames()`.
    #[must_use]
    pub fn frames_slice(&self, start: usize, count: usize) -> &'a [f64] {
        &self.llrs[start * self.frame_len..(start + count) * self.frame_len]
    }

    /// Iterates over the frames in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f64]> {
        self.llrs.chunks_exact(self.frame_len)
    }
}

/// The kernel tier every decode in this process dispatches to
/// (`"avx2"` / `"sse4.1"` / `"scalar"`): the best level the CPU supports,
/// unless `LDPC_FORCE_SCALAR` pinned the fallback. CI headers and bench
/// baselines print this so recorded numbers are attributable to a tier.
#[must_use]
pub fn kernel_tier() -> &'static str {
    crate::arith::simd::active_level().name()
}

/// Number of worker threads `decode_batch` uses for `frames` frames.
///
/// A valid `LDPC_DECODE_THREADS` (a positive integer, surrounding whitespace
/// allowed) wins; a malformed or zero value is diagnosed on stderr and
/// ignored. Otherwise the machine's available parallelism. Read once per
/// process. Never more threads than frames, never zero.
#[must_use]
pub fn batch_threads(frames: usize) -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    let hw = *THREADS.get_or_init(|| {
        crate::env::count("LDPC_DECODE_THREADS").unwrap_or_else(crate::threadpool::detected_cores)
    });
    hw.min(frames).max(1)
}

/// Common interface of the layered and flooding decode schedules.
///
/// The one required decode method is the allocation-free group kernel
/// [`decode_group_into`](Decoder::decode_group_into). Every other entry point
/// is built on it: [`decode_into`](Decoder::decode_into) is a group of one,
/// compatibility single-frame [`decode`](Decoder::decode) compiles the
/// schedule on the fly, and the batched, thread-parallel
/// [`decode_batch`](Decoder::decode_batch) cuts the batch into groups.
pub trait Decoder {
    /// The arithmetic back-end (message format + check-node update rule).
    type Arith: DecoderArithmetic;

    /// The arithmetic back-end instance.
    fn arithmetic(&self) -> &Self::Arith;

    /// The decoder configuration.
    fn config(&self) -> &DecoderConfig;

    /// Human-readable schedule name ("layered" / "flooding").
    fn schedule_name(&self) -> &'static str;

    /// Decodes one frame into `out`, reusing `ws` for all intermediate state:
    /// a [`decode_group_into`](Decoder::decode_group_into) of one frame.
    ///
    /// Steady state (a workspace already sized for `compiled`, an output from
    /// a previous frame of the same code) performs **zero heap allocations**;
    /// debug builds assert this via the workspace allocation fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LlrLengthMismatch`] if `llrs.len() != n` and
    /// [`DecodeError::NonFiniteLlr`] if an LLR is NaN or infinite.
    fn decode_into(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<MsgOf<Self>>,
        out: &mut DecodeOutput,
    ) -> Result<(), DecodeError> {
        check_frame_len(compiled, llrs)?;
        self.decode_group_into(compiled, llrs, ws, std::slice::from_mut(out))
    }

    /// A workspace pre-sized for single frames of `compiled`, so the first
    /// layered or cascade `decode_into` is already allocation-free (the
    /// flooding schedule sizes its two extra buffers on its first frame).
    fn workspace_for(&self, compiled: &CompiledCode) -> DecodeWorkspace<MsgOf<Self>> {
        DecodeWorkspace::for_code(compiled)
    }

    /// The decoder's workspace pool, if it keeps one. When present,
    /// [`decode_batch`](Decoder::decode_batch) workers check their workspaces
    /// out of it and back in, so repeated batches of the same mode allocate
    /// nothing at all; the provided decoders ([`crate::LayeredDecoder`],
    /// [`crate::FloodingDecoder`]) all pool.
    fn workspace_pool(&self) -> Option<&WorkspacePool<MsgOf<Self>>> {
        None
    }

    /// A workspace for one batch worker, sized for groups of
    /// [`preferred_group_width`](Decoder::preferred_group_width): pooled when
    /// the decoder keeps a [`workspace_pool`](Decoder::workspace_pool),
    /// freshly built otherwise. Return it with
    /// [`finish_worker_workspace`](Decoder::finish_worker_workspace).
    fn worker_workspace(&self, compiled: &CompiledCode) -> DecodeWorkspace<MsgOf<Self>> {
        let mut ws = match self.workspace_pool() {
            Some(pool) => pool.checkout(compiled),
            None => self.workspace_for(compiled),
        };
        ws.reserve_for(compiled, self.preferred_group_width(compiled).max(1));
        ws
    }

    /// Returns a batch worker's workspace to the pool (a no-op for decoders
    /// without one).
    fn finish_worker_workspace(&self, compiled: &CompiledCode, ws: DecodeWorkspace<MsgOf<Self>>) {
        if let Some(pool) = self.workspace_pool() {
            pool.checkin(compiled, ws);
        }
    }

    /// How many frames of `compiled` the batch engine should pack into one
    /// frame-major group (see [`crate::group`]) before calling
    /// [`decode_group_into`](Decoder::decode_group_into). The default of 1
    /// keeps decoding frame-serial; [`crate::LayeredDecoder`] returns the
    /// [`crate::group::group_width_for`] heuristic for back-ends whose
    /// kernels profit from wider panels (the fixed-point arithmetics).
    fn preferred_group_width(&self, _compiled: &CompiledCode) -> usize {
        1
    }

    /// Decodes `outs.len()` consecutive frames (`llrs` holds them flattened,
    /// `outs.len() · n` values) as one group, reusing `ws` for all
    /// intermediate state. Frame `i` of the result is **bit-identical** to
    /// decoding `llrs[i·n..(i+1)·n]` as a group of one — the group width is
    /// purely an execution-shape change. [`crate::LayeredDecoder`] runs its
    /// one frame-major driver here for every width, a single frame included;
    /// [`crate::FloodingDecoder`] decodes the frames one after another.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BatchShape`] if `llrs` does not hold exactly
    /// `outs.len()` frames of the code length, and
    /// [`DecodeError::NonFiniteLlr`] (frame index within the group) if an
    /// LLR is NaN or infinite.
    fn decode_group_into(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<MsgOf<Self>>,
        outs: &mut [DecodeOutput],
    ) -> Result<(), DecodeError>;

    /// Per-stage work counters, for decoders that run a stage ladder
    /// ([`crate::cascade::CascadeDecoder`] returns its live snapshot; plain
    /// single-schedule decoders return `None`). The serving layer polls this
    /// to export per-shard escalation counters.
    fn cascade_stats(&self) -> Option<crate::cascade::CascadeStats> {
        None
    }

    /// Requests a degraded effort level: 0 is full effort, each higher
    /// level trades error-correction work for throughput (a cascade drops
    /// its rescue stages, caps iteration budgets, …). Returns whether the
    /// decoder honours effort levels at all — the default implementation
    /// ignores the request and returns `false`, which is correct for
    /// single-schedule decoders with no cheaper mode to fall back to.
    ///
    /// The serving layer's graceful-degradation ladder drives this under
    /// queue pressure; decoders must treat any `u8` as valid by clamping to
    /// their deepest real level.
    fn set_effort_level(&self, _level: u8) -> bool {
        false
    }

    /// The effort level currently in force (0 = full effort; always 0 for
    /// decoders that don't honour [`set_effort_level`](Decoder::set_effort_level)).
    fn effort_level(&self) -> u8 {
        0
    }

    /// A clone with *private counters* but shared workspace pools: what a
    /// serving shard wants, so per-shard statistics do not aggregate across
    /// shards. For decoders without counters this is a plain clone.
    fn detached_clone(&self) -> Self
    where
        Self: Clone + Sized,
    {
        self.clone()
    }

    /// Decodes one frame against a precompiled schedule, allocating a fresh
    /// workspace and output.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LlrLengthMismatch`] if `llrs.len() != n`.
    fn decode_compiled(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
    ) -> Result<DecodeOutput, DecodeError> {
        let mut ws = self.workspace_for(compiled);
        let mut out = DecodeOutput::empty();
        self.decode_into(compiled, llrs, &mut ws, &mut out)?;
        Ok(out)
    }

    /// Single-frame compatibility entry point: compiles `code` and decodes.
    /// Prefer [`decode_compiled`](Decoder::decode_compiled) /
    /// [`decode_into`](Decoder::decode_into) in loops — compiling per frame
    /// re-derives the whole schedule.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LlrLengthMismatch`] if `llrs.len() != n`.
    fn decode(&self, code: &QcCode, llrs: &[f64]) -> Result<DecodeOutput, DecodeError> {
        self.decode_compiled(&code.compile(), llrs)
    }

    /// Decodes every frame of `batch` in parallel across worker threads,
    /// each with its own reused workspace. Frame `i` of the result is
    /// bit-identical to `decode_compiled(compiled, batch.frame(i))`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BatchShape`] if the batch frame length does not
    /// match the code, and [`DecodeError::NonFiniteLlr`] (frame index within
    /// the batch) if an LLR is NaN or infinite.
    fn decode_batch(
        &self,
        compiled: &CompiledCode,
        batch: LlrBatch<'_>,
    ) -> Result<Vec<DecodeOutput>, DecodeError>
    where
        Self: Sync,
    {
        let mut outputs: Vec<DecodeOutput> = std::iter::repeat_with(DecodeOutput::empty)
            .take(batch.frames())
            .collect();
        self.decode_batch_into(compiled, batch, &mut outputs)?;
        Ok(outputs)
    }

    /// Like [`decode_batch`](Decoder::decode_batch), but reuses caller-owned
    /// outputs. Together with the workspace pool this makes steady-state
    /// serving loops (same mode, reused output vector) allocate nothing at
    /// all once the pool is warm.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BatchShape`] on frame-length or output-length
    /// mismatch.
    fn decode_batch_into(
        &self,
        compiled: &CompiledCode,
        batch: LlrBatch<'_>,
        outputs: &mut [DecodeOutput],
    ) -> Result<(), DecodeError>
    where
        Self: Sync,
    {
        self.decode_batch_into_threads(compiled, batch, outputs, batch_threads(outputs.len()))
    }

    /// Like [`decode_batch_into`](Decoder::decode_batch_into) with an explicit
    /// worker count (ignoring `LDPC_DECODE_THREADS` and the machine's
    /// parallelism). The result is independent of `threads`.
    ///
    /// `threads` bounds *concurrency*, not thread creation: the work runs on
    /// the calling thread plus up to `threads − 1` workers of the shared
    /// [`DecodePool`]. The batch is cut into chunks of whole frame-major
    /// groups and every participating thread claims
    /// chunks off a shared cursor, so frames that converge early (early
    /// termination) never strand one thread with all the slow chunks. Because
    /// each chunk boundary is a multiple of the group width, the grouping —
    /// and hence the bit-exact result — is identical for every `threads`
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BatchShape`] on frame-length or output-length
    /// mismatch.
    fn decode_batch_into_threads(
        &self,
        compiled: &CompiledCode,
        batch: LlrBatch<'_>,
        outputs: &mut [DecodeOutput],
        threads: usize,
    ) -> Result<(), DecodeError>
    where
        Self: Sync,
    {
        if batch.frame_len() != compiled.n() {
            return Err(DecodeError::BatchShape {
                reason: format!(
                    "batch frames have {} LLRs but the code length is {}",
                    batch.frame_len(),
                    compiled.n()
                ),
            });
        }
        if outputs.len() != batch.frames() {
            return Err(DecodeError::BatchShape {
                reason: format!(
                    "batch holds {} frames but {} outputs were supplied",
                    batch.frames(),
                    outputs.len()
                ),
            });
        }
        if outputs.is_empty() {
            return Ok(());
        }

        let threads = threads.clamp(1, outputs.len());
        let width = self.preferred_group_width(compiled).max(1);
        if threads == 1 {
            let mut ws = self.worker_workspace(compiled);
            let result = decode_chunk_grouped(self, compiled, batch, outputs, 0, width, &mut ws);
            self.finish_worker_workspace(compiled, ws);
            return result;
        }

        let chunk_frames = chunk_frames_for(outputs.len(), threads, width);
        let chunk_slots: Vec<ChunkSlot<'_>> = outputs
            .chunks_mut(chunk_frames)
            .enumerate()
            .map(|(ci, chunk)| Mutex::new(Some((ci * chunk_frames, chunk))))
            .collect();
        let cursor = AtomicUsize::new(0);
        let first_error: Mutex<Option<DecodeError>> = Mutex::new(None);

        let work = || {
            let mut ws = None;
            loop {
                let ci = cursor.fetch_add(1, Ordering::Relaxed);
                if ci >= chunk_slots.len() {
                    break;
                }
                let claimed = chunk_slots[ci]
                    .lock()
                    .expect("decode chunk slot poisoned")
                    .take();
                let Some((first_frame, chunk)) = claimed else {
                    continue;
                };
                // Workspaces are checked out lazily, on the first chunk a
                // thread actually claims: pool workers that never get a
                // chunk (small batch, or the caller outran them) cost no
                // workspace at all.
                let ws = ws.get_or_insert_with(|| self.worker_workspace(compiled));
                if let Err(e) =
                    decode_chunk_grouped(self, compiled, batch, chunk, first_frame, width, ws)
                {
                    let mut slot = first_error.lock().expect("decode error slot poisoned");
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    break;
                }
            }
            if let Some(ws) = ws.take() {
                self.finish_worker_workspace(compiled, ws);
            }
        };
        DecodePool::global().run_scoped(threads - 1, &work);

        match first_error
            .into_inner()
            .expect("decode error slot poisoned")
        {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// One claimable chunk of the output batch: its first frame index plus the
/// output slots, consumed (`take`n) by whichever thread claims it.
type ChunkSlot<'a> = Mutex<Option<(usize, &'a mut [DecodeOutput])>>;

/// How many chunks the batch engine aims to hand each participating thread.
/// Over-partitioning (rather than one chunk per thread) keeps the dynamic
/// cursor meaningful: threads that draw fast-converging frames claim more
/// chunks instead of idling while a slow chunk finishes elsewhere.
const CHUNKS_PER_THREAD: usize = 4;

/// Frames per batch chunk for `frames` frames across `threads` threads with
/// frame-major groups of `width`: always a multiple of `width` (so chunk
/// boundaries never cut a group — the only ragged group is the true batch
/// tail), at least one group, and small enough to give each thread roughly
/// [`CHUNKS_PER_THREAD`] chunks to claim.
fn chunk_frames_for(frames: usize, threads: usize, width: usize) -> usize {
    let total_groups = frames.div_ceil(width);
    let chunk_groups = total_groups
        .div_ceil(threads.max(1) * CHUNKS_PER_THREAD)
        .max(1);
    chunk_groups * width
}

/// One batch worker's loop: regroups its chunk of consecutive frames into
/// frame-major groups of at most `width` frames (the tail group is ragged)
/// and decodes each through [`Decoder::decode_group_into`]. With `width == 1`
/// this is exactly the former frame-serial worker loop.
fn decode_chunk_grouped<D: Decoder + ?Sized>(
    decoder: &D,
    compiled: &CompiledCode,
    batch: LlrBatch<'_>,
    outs: &mut [DecodeOutput],
    first_frame: usize,
    width: usize,
    ws: &mut DecodeWorkspace<MsgOf<D>>,
) -> Result<(), DecodeError> {
    let mut start = 0;
    while start < outs.len() {
        let group = width.min(outs.len() - start);
        let llrs = batch.frames_slice(first_frame + start, group);
        decoder
            .decode_group_into(compiled, llrs, ws, &mut outs[start..start + group])
            .map_err(|e| match e {
                // Report the offending frame by its index in the batch.
                DecodeError::NonFiniteLlr { frame, index } => DecodeError::NonFiniteLlr {
                    frame: first_frame + start + frame,
                    index,
                },
                e => e,
            })?;
        start += group;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{FixedBpArithmetic, FloatBpArithmetic};
    use crate::decoder::LayeredDecoder;
    use crate::flooding::FloodingDecoder;
    use ldpc_codes::{CodeId, CodeRate, Standard};

    #[test]
    fn thread_override_accepts_positive_integers_only() {
        for &(raw, want) in crate::env::COUNT_SPELLINGS {
            assert_eq!(
                crate::env::parse_count("LDPC_DECODE_THREADS", raw),
                want,
                "{raw:?}"
            );
        }
    }

    fn compiled() -> CompiledCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap()
            .compile()
    }

    #[test]
    fn llr_batch_shape_checks() {
        let buf = vec![0.0; 12];
        assert!(LlrBatch::new(&buf, 0).is_err());
        assert!(LlrBatch::new(&buf, 5).is_err());
        let batch = LlrBatch::new(&buf, 4).unwrap();
        assert_eq!(batch.frames(), 3);
        assert_eq!(batch.frame_len(), 4);
        assert_eq!(batch.frame(2), &buf[8..12]);
        assert_eq!(batch.iter().count(), 3);
    }

    #[test]
    fn batch_threads_is_bounded() {
        assert_eq!(batch_threads(0), 1);
        assert_eq!(batch_threads(1), 1);
        assert!(batch_threads(1024) >= 1);
    }

    #[test]
    fn batch_workspaces_are_pooled_across_calls() {
        let compiled = compiled();
        let decoder =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        let pool = decoder.workspace_pool().expect("layered decoder pools");
        assert_eq!(pool.workspaces_created(), 0);

        let llrs = vec![6.0; 8 * compiled.n()];
        let batch = LlrBatch::new(&llrs, compiled.n()).unwrap();
        let mut outputs = vec![DecodeOutput::empty(); 8];
        // Sequential path: exactly one workspace, built once, reused forever.
        for round in 0..3 {
            decoder
                .decode_batch_into_threads(&compiled, batch, &mut outputs, 1)
                .unwrap();
            assert_eq!(
                pool.workspaces_created(),
                1,
                "round {round}: repeated same-mode batches must reuse the \
                 pooled workspace instead of building new ones"
            );
            assert_eq!(pool.pooled(compiled.spec()), 1);
        }
        // Threaded path: workers draw from the same pool. Scheduling decides
        // whether two workers ever overlap, so the creation count is bounded
        // by the worker count rather than exact — but it must never grow per
        // round (without pooling it would grow by up to two every round).
        for _ in 0..3 {
            decoder
                .decode_batch_into_threads(&compiled, batch, &mut outputs, 2)
                .unwrap();
            let created = pool.workspaces_created();
            assert!(created <= 2, "at most one workspace per worker: {created}");
            assert_eq!(pool.pooled(compiled.spec()), created, "all checked in");
        }
    }

    #[test]
    fn cloned_decoders_share_one_pool() {
        let compiled = compiled();
        let decoder =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        let clone = decoder.clone();
        let llrs = vec![5.0; compiled.n()];
        let batch = LlrBatch::new(&llrs, compiled.n()).unwrap();
        let mut outputs = vec![DecodeOutput::empty(); 1];
        decoder
            .decode_batch_into_threads(&compiled, batch, &mut outputs, 1)
            .unwrap();
        clone
            .decode_batch_into_threads(&compiled, batch, &mut outputs, 1)
            .unwrap();
        assert_eq!(decoder.workspace_pool().unwrap().workspaces_created(), 1);
    }

    #[test]
    fn decode_batch_matches_single_frame_decoding() {
        let compiled = compiled();
        let decoder =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        // Mildly noisy deterministic LLRs, different per frame.
        let frames = 5;
        let llrs: Vec<f64> = (0..frames * compiled.n())
            .map(|i| {
                let sign = if (i * 2654435761) % 97 < 6 { -1.0 } else { 1.0 };
                sign * (1.0 + (i % 13) as f64 * 0.35)
            })
            .collect();
        let batch = LlrBatch::new(&llrs, compiled.n()).unwrap();
        let outputs = decoder.decode_batch(&compiled, batch).unwrap();
        assert_eq!(outputs.len(), frames);
        for (i, out) in outputs.iter().enumerate() {
            let single = decoder.decode_compiled(&compiled, batch.frame(i)).unwrap();
            assert_eq!(out, &single, "frame {i}");
        }
    }

    #[test]
    fn decode_batch_rejects_bad_shapes() {
        let compiled = compiled();
        let decoder =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        let llrs = vec![1.0; 2 * compiled.n()];
        let batch = LlrBatch::new(&llrs, compiled.n()).unwrap();
        let mut too_few = vec![DecodeOutput::empty(); 1];
        assert!(matches!(
            decoder.decode_batch_into(&compiled, batch, &mut too_few),
            Err(DecodeError::BatchShape { .. })
        ));
        let wrong_len = LlrBatch::new(&llrs[..compiled.n()], compiled.n() / 2).unwrap();
        assert!(matches!(
            decoder.decode_batch(&compiled, wrong_len),
            Err(DecodeError::BatchShape { .. })
        ));
    }

    #[test]
    fn steady_state_decode_into_does_not_reallocate() {
        let compiled = compiled();
        let decoder =
            LayeredDecoder::new(FixedBpArithmetic::default(), DecoderConfig::default()).unwrap();
        let mut ws = decoder.workspace_for(&compiled);
        let mut out = DecodeOutput::empty();
        let llrs: Vec<f64> = (0..compiled.n())
            .map(|i| if i % 29 == 3 { -2.0 } else { 5.0 })
            .collect();
        decoder
            .decode_into(&compiled, &llrs, &mut ws, &mut out)
            .unwrap();
        let fingerprint = ws.allocation_fingerprint();
        for _ in 0..4 {
            decoder
                .decode_into(&compiled, &llrs, &mut ws, &mut out)
                .unwrap();
        }
        assert_eq!(
            fingerprint,
            ws.allocation_fingerprint(),
            "steady-state decoding must not touch the allocator"
        );
    }

    #[test]
    fn flooding_implements_the_same_trait() {
        let compiled = compiled();
        let decoder =
            FloodingDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        assert_eq!(decoder.schedule_name(), "flooding");
        let llrs = vec![7.0; 2 * compiled.n()];
        let outputs = decoder
            .decode_batch(&compiled, LlrBatch::new(&llrs, compiled.n()).unwrap())
            .unwrap();
        assert!(outputs.iter().all(|o| o.parity_satisfied));
    }

    #[test]
    fn chunk_partitioning_hands_out_whole_groups() {
        // Every chunk boundary must be a multiple of the group width (the old
        // even split could strand ragged sub-group tails on every thread),
        // chunks must cover the batch exactly, and over-partitioning must
        // leave the dynamic cursor something to balance with.
        for frames in [1usize, 2, 5, 13, 64, 257, 1024] {
            for threads in [1usize, 2, 3, 4, 7, 64] {
                for width in [1usize, 2, 4, 6, 16] {
                    let chunk = chunk_frames_for(frames, threads, width);
                    assert!(chunk >= width, "at least one group per chunk");
                    assert_eq!(chunk % width, 0, "chunks are whole groups");
                    let chunks = frames.div_ceil(chunk);
                    assert_eq!(
                        (chunks - 1) * chunk + (frames - (chunks - 1) * chunk),
                        frames,
                        "chunks cover the batch"
                    );
                    // Only the final chunk may hold the batch's ragged tail
                    // group; every interior boundary sits on a group edge.
                    assert_eq!(
                        (0..chunks - 1)
                            .filter(|ci| !(ci * chunk).is_multiple_of(width))
                            .count(),
                        0,
                        "frames={frames} threads={threads} width={width}"
                    );
                    if frames / width >= threads * CHUNKS_PER_THREAD {
                        assert!(
                            chunks >= threads,
                            "large batches must out-partition the thread count \
                             (frames={frames} threads={threads} width={width})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forced_multithreading_matches_sequential() {
        // The box running CI may have a single core; force explicit worker
        // counts so the pool fan-out path is exercised everywhere.
        let compiled = compiled();
        let decoder =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        let frames = 6;
        let llrs: Vec<f64> = (0..frames * compiled.n())
            .map(|i| if (i * 7919) % 101 < 7 { -1.5 } else { 3.0 })
            .collect();
        let batch = LlrBatch::new(&llrs, compiled.n()).unwrap();

        let mut sequential: Vec<DecodeOutput> = vec![DecodeOutput::empty(); frames];
        decoder
            .decode_batch_into_threads(&compiled, batch, &mut sequential, 1)
            .unwrap();
        for threads in [2usize, 3, 64] {
            let mut parallel: Vec<DecodeOutput> = vec![DecodeOutput::empty(); frames];
            decoder
                .decode_batch_into_threads(&compiled, batch, &mut parallel, threads)
                .unwrap();
            assert_eq!(parallel, sequential, "{threads} workers");
        }
    }
}
