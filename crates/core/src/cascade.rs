//! SNR-adaptive decoder cascade: cheap-first Min-Sum with BP escalation.
//!
//! At realistic operating SNRs most frames are easy — a few Min-Sum
//! iterations decode them — and only a tail needs the heavier fixed-BP (or
//! float-BP) machinery. A [`CascadeDecoder`] runs a stage ladder, set by
//! its per-stage iteration budgets ([`CascadeConfig`]), over every
//! frame-major group the batch engine hands it:
//!
//! ```text
//!   stage 1: fixed Min-Sum, small fixed budget      (all frames)
//!      │  syndrome clean ──────────────► done (bit-identical to Min-Sum)
//!      ▼  syndrome failed
//!   stage 2: fixed BP (forward/backward), syndrome stop (survivors only)
//!      │  syndrome clean ──────────────► done (bit-identical to fixed BP)
//!      ▼  syndrome failed
//!   stage 3: float BP (optional last resort)        (survivors only)
//! ```
//!
//! Stage 1 decodes the whole group (it *is* [`LayeredDecoder`] with a fixed
//! iteration budget); frames whose hard decisions satisfy every parity
//! check keep their Min-Sum output. Only the surviving failures
//! re-enter stage 2 as a fresh, narrower group, re-ingesting **the same
//! quantized LLRs** stage 1 decoded: the handoff values are
//! `dequantize(quantize(llr))`, which round-trip to the identical quantized
//! codes in stage 2's format, so an escalated frame's output is
//! bit-identical to running the stage-2 decoder directly on those LLRs.
//!
//! Why the default stage 1 runs a *fixed* 4-iteration budget instead of the
//! early-termination rule: under the explicit-SIMD kernel tier a decode
//! iteration is cheap enough that the per-iteration scalar convergence scan
//! (decision history + min-|LLR| reduction) costs as much as the iteration
//! it might save. The cascade sidesteps the scan entirely — the parity
//! verdict every finished frame carries (one parity pass over the group
//! at the last iteration) doubles as the escalation test, so easy frames pay four SIMD
//! Min-Sum iterations and *zero* convergence bookkeeping. Hard frames pay
//! one wasted stage-1 budget and then the full stage-2 decoder; at realistic
//! SNR mixes the easy majority dominates (see the `cascade_throughput`
//! bench and `BENCH_cascade.json`).
//!
//! The cascade implements [`Decoder`], so `decode_batch`,
//! `decode_batch_into_threads`, the persistent decode pool and the serving
//! layer all work unchanged; per-stage frame counts and escalations are
//! observable through [`CascadeDecoder::stats`].

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use ldpc_codes::CompiledCode;

use crate::arith::{
    DecoderArithmetic, FixedBpArithmetic, FixedMinSumArithmetic, FloatBpArithmetic,
};
use crate::decoder::{DecoderConfig, LayeredDecoder};
use crate::engine::Decoder;
use crate::error::DecodeError;
use crate::pool::WorkspacePool;
use crate::result::DecodeOutput;
use crate::workspace::DecodeWorkspace;

/// Per-stage iteration budgets of a [`CascadeDecoder`] ladder — its only
/// settings. The stage shapes are fixed (see [`CascadeDecoder::new`]); the
/// default ladder is fixed Min-Sum for 4 iterations (no convergence scan) →
/// fixed forward/backward BP for up to 10 iterations, stopped at the first
/// codeword ([`DecoderConfig::default`]), with no float stage. Budgets
/// below 1 run as 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeConfig {
    /// Stage-1 fixed Min-Sum iteration budget, run without a convergence
    /// scan: the syndrome check decides escalation.
    pub min_sum_iterations: usize,
    /// Stage-2 fixed-BP iteration ceiling (zero-syndrome stop enabled).
    pub fixed_bp_iterations: usize,
    /// Iteration ceiling of the optional float-BP last resort; `None` ends
    /// the ladder at stage 2.
    pub float_bp_iterations: Option<usize>,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            min_sum_iterations: 4,
            fixed_bp_iterations: 10,
            float_bp_iterations: None,
        }
    }
}

impl CascadeConfig {
    /// A [`CascadeDecoder`] running this ladder.
    #[must_use]
    pub fn decoder(&self) -> CascadeDecoder {
        CascadeDecoder::new(*self)
    }
}

/// Snapshot of a cascade's per-stage work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Frames decoded by each stage (stage 1 counts every frame; stages 2
    /// and 3 count only the failures escalated to them).
    pub stage_frames: [u64; 3],
    /// Total escalation events (frames re-entering a later stage; equals
    /// `stage_frames[1] + stage_frames[2]`).
    pub escalations: u64,
}

impl CascadeStats {
    /// Fraction of stage-1 frames that escalated to stage 2 (0 when the
    /// cascade has decoded nothing yet).
    #[must_use]
    pub fn escalation_rate(&self) -> f64 {
        if self.stage_frames[0] == 0 {
            0.0
        } else {
            self.stage_frames[1] as f64 / self.stage_frames[0] as f64
        }
    }
}

/// Live cascade counters, shared by clones of one decoder (fresh per
/// [`Decoder::detached_clone`]); relaxed atomics, exact once the decoder
/// is quiescent.
#[derive(Debug, Default)]
struct CascadeCounters {
    stage_frames: [AtomicU64; 3],
    escalations: AtomicU64,
}

impl CascadeCounters {
    fn snapshot(&self) -> CascadeStats {
        CascadeStats {
            stage_frames: [
                self.stage_frames[0].load(Ordering::Relaxed),
                self.stage_frames[1].load(Ordering::Relaxed),
                self.stage_frames[2].load(Ordering::Relaxed),
            ],
            escalations: self.escalations.load(Ordering::Relaxed),
        }
    }

    fn count_stage(&self, stage: usize, frames: usize) {
        self.stage_frames[stage].fetch_add(frames as u64, Ordering::Relaxed);
        if stage > 0 {
            self.escalations.fetch_add(frames as u64, Ordering::Relaxed);
        }
    }
}

/// The SNR-adaptive stage-ladder decoder (see the module docs).
///
/// Implements [`Decoder`] with the stage-1 Min-Sum arithmetic as its
/// nominal back-end: the fixed-point stages share one `i16` workspace
/// (and one workspace pool), while the optional float stage checks its `f64`
/// workspace out of its own pool only when a frame actually reaches it.
/// Clones share stage workspace pools *and* counters;
/// [`Decoder::detached_clone`] gives a clone with fresh counters for
/// per-shard accounting.
#[derive(Debug, Clone)]
pub struct CascadeDecoder {
    stage1: LayeredDecoder<FixedMinSumArithmetic>,
    stage2: LayeredDecoder<FixedBpArithmetic>,
    /// Stage 2 with half the iteration budget, pre-built so the effort
    /// ladder switches decoders without allocating. Decodes through the
    /// caller's workspace exactly like [`CascadeDecoder::stage2`], so
    /// engaging it changes no buffer shapes.
    degraded_stage2: LayeredDecoder<FixedBpArithmetic>,
    stage3: Option<LayeredDecoder<FloatBpArithmetic>>,
    counters: Arc<CascadeCounters>,
    /// Effort ladder level (see [`Decoder::set_effort_level`]): 0 = the
    /// full configured ladder, 1 = skip stage 3, 2 = skip stage 3 *and*
    /// halve stage 2's iteration budget. Shared by plain clones (one
    /// serving shard degrades as a unit); fresh per
    /// [`Decoder::detached_clone`].
    effort: Arc<AtomicU8>,
}

impl CascadeDecoder {
    /// Builds the ladder from its budgets (each clamped to at least one
    /// iteration). Stage 1 runs [`FixedMinSumArithmetic`] with
    /// [`DecoderConfig::fixed_iterations`]; stage 2
    /// [`FixedBpArithmetic::forward_backward`] (the mode whose waterfall
    /// tracks the float reference) and stage 3, when configured,
    /// [`FloatBpArithmetic`] both run [`DecoderConfig::default`] with their
    /// budget. The degraded stage 2 runs half the stage-2 budget.
    #[must_use]
    pub fn new(config: CascadeConfig) -> Self {
        /// One stage: `shape` with a budget of `iterations`, clamped to at
        /// least one (the only place cascade budgets are clamped), drawing
        /// batch workspaces from `pool`.
        fn stage<A: DecoderArithmetic>(
            arith: A,
            shape: DecoderConfig,
            iterations: usize,
            pool: &Arc<WorkspacePool<A::Msg>>,
        ) -> LayeredDecoder<A> {
            let config = DecoderConfig {
                max_iterations: iterations.max(1),
                ..shape
            };
            LayeredDecoder::with_pool(arith, config, Arc::clone(pool))
                .expect("a clamped budget is valid")
        }
        // Stages 1 and 2 decode through the caller's one `i16` workspace,
        // so they share one pool; the float stage has its own.
        let fixed = Arc::new(WorkspacePool::new());
        let fixed_bp = FixedBpArithmetic::forward_backward;
        let bp = DecoderConfig::default();
        CascadeDecoder {
            stage1: stage(
                FixedMinSumArithmetic::default(),
                DecoderConfig::fixed_iterations(1),
                config.min_sum_iterations,
                &fixed,
            ),
            stage2: stage(fixed_bp(), bp, config.fixed_bp_iterations, &fixed),
            degraded_stage2: stage(fixed_bp(), bp, config.fixed_bp_iterations / 2, &fixed),
            stage3: config.float_bp_iterations.map(|iterations| {
                let pool = Arc::new(WorkspacePool::new());
                stage(FloatBpArithmetic::default(), bp, iterations, &pool)
            }),
            counters: Arc::new(CascadeCounters::default()),
            effort: Arc::new(AtomicU8::new(0)),
        }
    }

    /// The stage-1 Min-Sum decoder (the ladder's cheap front).
    #[must_use]
    pub fn stage1(&self) -> &LayeredDecoder<FixedMinSumArithmetic> {
        &self.stage1
    }

    /// The stage-2 forward/backward fixed-BP decoder.
    #[must_use]
    pub fn stage2(&self) -> &LayeredDecoder<FixedBpArithmetic> {
        &self.stage2
    }

    /// The optional stage-3 float-BP decoder.
    #[must_use]
    pub fn stage3(&self) -> Option<&LayeredDecoder<FloatBpArithmetic>> {
        self.stage3.as_ref()
    }

    /// Snapshot of the per-stage work counters accumulated so far (shared
    /// by plain clones; see [`Decoder::detached_clone`]).
    #[must_use]
    pub fn stats(&self) -> CascadeStats {
        self.counters.snapshot()
    }

    /// The exact LLR value a stage ≥ 2 re-ingests for a channel LLR `raw`:
    /// the dequantized form of stage 1's quantization, which round-trips to
    /// the identical quantized code. Public so tests and benches can build
    /// the reference "straight fixed BP on the same quantized LLRs" input.
    #[must_use]
    pub fn handoff_llr(&self, raw: f64) -> f64 {
        let arith = self.stage1.arithmetic();
        arith.to_llr(arith.from_channel(raw))
    }

    /// Packs the handoff LLRs of the surviving frames listed in `pending`
    /// into `buf`, frame-contiguous.
    fn pack_handoff(&self, llrs: &[f64], n: usize, pending: &[u32], buf: &mut Vec<f64>) {
        buf.clear();
        for &f in pending {
            let frame = &llrs[f as usize * n..(f as usize + 1) * n];
            buf.extend(frame.iter().map(|&l| self.handoff_llr(l)));
        }
    }

    /// Stages 2 and 3: re-decode the surviving failures as fresh, narrower
    /// groups on the handoff LLRs, swapping each improved output back into
    /// the caller's slot. `scratch` holds the workspace's cascade buffers,
    /// temporarily owned by the caller.
    fn escalate(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<i16>,
        outs: &mut [DecodeOutput],
        scratch: EscalationScratch<'_>,
    ) -> Result<(), DecodeError> {
        let EscalationScratch {
            pending,
            llrs: stage_llrs,
            outs: stage_outs,
        } = scratch;
        let n = compiled.n();
        let effort = self.effort.load(Ordering::Relaxed);
        self.pack_handoff(llrs, n, pending, stage_llrs);
        self.counters.count_stage(1, pending.len());
        let stage2 = if effort >= 2 {
            &self.degraded_stage2
        } else {
            &self.stage2
        };
        stage2.decode_group_into(compiled, stage_llrs, ws, &mut stage_outs[..pending.len()])?;
        for (slot, &f) in pending.iter().enumerate() {
            std::mem::swap(&mut outs[f as usize], &mut stage_outs[slot]);
        }

        // Effort level ≥ 1 drops the float-BP rescue stage: the expensive
        // tail is exactly what a pressured shard cannot afford.
        if effort >= 1 {
            return Ok(());
        }
        let Some(stage3) = &self.stage3 else {
            return Ok(());
        };
        pending.retain(|&f| !outs[f as usize].parity_satisfied);
        if pending.is_empty() {
            return Ok(());
        }
        self.pack_handoff(llrs, n, pending, stage_llrs);
        self.counters.count_stage(2, pending.len());
        let mut ws3 = stage3.worker_workspace(compiled);
        let result = stage3.decode_group_into(
            compiled,
            stage_llrs,
            &mut ws3,
            &mut stage_outs[..pending.len()],
        );
        stage3.finish_worker_workspace(compiled, ws3);
        result?;
        for (slot, &f) in pending.iter().enumerate() {
            std::mem::swap(&mut outs[f as usize], &mut stage_outs[slot]);
        }
        Ok(())
    }
}

/// The workspace's cascade scratch buffers, taken out of the
/// [`DecodeWorkspace`] for the duration of an escalation so stage ≥ 2 can
/// borrow the workspace itself.
struct EscalationScratch<'a> {
    pending: &'a mut Vec<u32>,
    llrs: &'a mut Vec<f64>,
    outs: &'a mut [DecodeOutput],
}

impl Default for CascadeDecoder {
    fn default() -> Self {
        CascadeConfig::default().decoder()
    }
}

impl Decoder for CascadeDecoder {
    type Arith = FixedMinSumArithmetic;

    fn arithmetic(&self) -> &FixedMinSumArithmetic {
        self.stage1.arithmetic()
    }

    fn config(&self) -> &DecoderConfig {
        self.stage1.config()
    }

    fn schedule_name(&self) -> &'static str {
        "cascade"
    }

    fn workspace_pool(&self) -> Option<&WorkspacePool<i16>> {
        Decoder::workspace_pool(&self.stage1)
    }

    fn preferred_group_width(&self, compiled: &CompiledCode) -> usize {
        Decoder::preferred_group_width(&self.stage1, compiled)
    }

    fn cascade_stats(&self) -> Option<CascadeStats> {
        Some(self.stats())
    }

    fn detached_clone(&self) -> Self {
        CascadeDecoder {
            counters: Arc::new(CascadeCounters::default()),
            effort: Arc::new(AtomicU8::new(0)),
            ..self.clone()
        }
    }

    fn set_effort_level(&self, level: u8) -> bool {
        // Level 2 is the deepest real rung; anything above degrades the same.
        self.effort.store(level.min(2), Ordering::Relaxed);
        true
    }

    fn effort_level(&self) -> u8 {
        self.effort.load(Ordering::Relaxed)
    }

    fn decode_group_into(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<i16>,
        outs: &mut [DecodeOutput],
    ) -> Result<(), DecodeError> {
        let frames = outs.len();
        #[cfg(debug_assertions)]
        let steady_fingerprint = ws
            .is_ready_for(compiled, frames)
            .then(|| ws.allocation_fingerprint());
        ws.reserve_for(compiled, frames);

        // Stage 1: the whole group through the cheap Min-Sum pass, which
        // also checks the group's shape and LLRs. Each output's syndrome
        // (the verdict every finished frame carries anyway) is the
        // escalation test — no extra convergence scan.
        self.stage1.decode_group_into(compiled, llrs, ws, outs)?;
        self.counters.count_stage(0, frames);

        // The surviving failures, by original frame index. The cascade
        // buffers are swapped out of the workspace while stage ≥ 2 borrows
        // it, and unconditionally put back (they are plain scratch: on error
        // their contents are dead, only their allocations are kept).
        let mut pending = std::mem::take(&mut ws.cascade_pending);
        pending.clear();
        pending.extend(
            outs.iter()
                .enumerate()
                .filter(|(_, out)| !out.parity_satisfied)
                .map(|(f, _)| f as u32),
        );
        let result = if pending.is_empty() {
            Ok(())
        } else {
            let mut stage_llrs = std::mem::take(&mut ws.cascade_llrs);
            let mut stage_outs = std::mem::take(&mut ws.cascade_outs);
            let result = self.escalate(
                compiled,
                llrs,
                ws,
                outs,
                EscalationScratch {
                    pending: &mut pending,
                    llrs: &mut stage_llrs,
                    outs: &mut stage_outs,
                },
            );
            ws.cascade_llrs = stage_llrs;
            ws.cascade_outs = stage_outs;
            result
        };
        ws.cascade_pending = pending;

        #[cfg(debug_assertions)]
        if let Some(fingerprint) = steady_fingerprint {
            debug_assert_eq!(
                fingerprint,
                ws.allocation_fingerprint(),
                "steady-state cascade decode must not reallocate workspace buffers"
            );
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LlrBatch;
    use ldpc_codes::{CodeId, CodeRate, Standard};

    fn compiled() -> CompiledCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap()
            .compile()
    }

    /// Deterministic mildly-noisy LLRs: mostly-confident positives (the
    /// all-zero codeword) with a sprinkle of flipped, weak values.
    fn noisy_llrs(frames: usize, n: usize, flip_mod: usize) -> Vec<f64> {
        (0..frames * n)
            .map(|i| {
                let sign = if (i * 2654435761) % flip_mod < 5 {
                    -1.0
                } else {
                    1.0
                };
                sign * (0.8 + (i % 11) as f64 * 0.5)
            })
            .collect()
    }

    /// A ladder with the given budgets.
    fn ladder(min_sum: usize, fixed_bp: usize, float_bp: Option<usize>) -> CascadeDecoder {
        CascadeConfig {
            min_sum_iterations: min_sum,
            fixed_bp_iterations: fixed_bp,
            float_bp_iterations: float_bp,
        }
        .decoder()
    }

    #[test]
    fn default_ladder_shape() {
        let cascade = CascadeDecoder::default();
        let stage1 = cascade.stage1().config();
        assert_eq!(stage1.max_iterations, 4);
        assert!(stage1.early_termination.is_none());
        let stage2 = cascade.stage2().config();
        assert_eq!(stage2.max_iterations, 10);
        assert!(stage2.early_termination.is_none() && stage2.stop_on_zero_syndrome);
        assert!(cascade.stage3().is_none());
        assert_eq!(cascade.schedule_name(), "cascade");
    }

    #[test]
    fn fixed_point_stages_share_one_workspace_pool() {
        let cascade = ladder(4, 10, Some(10));
        let pool = |d: &LayeredDecoder<FixedBpArithmetic>| {
            std::ptr::from_ref(Decoder::workspace_pool(d).unwrap())
        };
        let stage1 = std::ptr::from_ref(Decoder::workspace_pool(&cascade).unwrap());
        assert_eq!(pool(cascade.stage2()), stage1);
        assert_eq!(pool(&cascade.degraded_stage2), stage1);
    }

    #[test]
    fn budgets_clamp_to_one_and_build_stage3() {
        let cascade = ladder(0, 0, Some(0));
        assert_eq!(cascade.stage1().config().max_iterations, 1);
        assert_eq!(cascade.stage2().config().max_iterations, 1);
        assert_eq!(cascade.degraded_stage2.config().max_iterations, 1);
        let stage3 = cascade.stage3().expect("float stage configured");
        assert_eq!(stage3.config().max_iterations, 1);
    }

    #[test]
    fn clean_frames_never_escalate() {
        let compiled = compiled();
        let cascade = CascadeDecoder::default();
        let llrs = vec![8.0; 4 * compiled.n()];
        let outs = cascade
            .decode_batch(&compiled, LlrBatch::new(&llrs, compiled.n()).unwrap())
            .unwrap();
        assert!(outs.iter().all(|o| o.parity_satisfied));
        let stats = cascade.stats();
        assert_eq!(stats.stage_frames, [4, 0, 0]);
        assert_eq!(stats.escalations, 0);
        assert_eq!(stats.escalation_rate(), 0.0);
    }

    #[test]
    fn hopeless_frames_escalate_through_every_stage() {
        // A one-iteration Min-Sum budget on heavily corrupted LLRs fails its
        // syndrome, forcing escalation; a one-iteration stage 2 fails too,
        // reaching the float stage.
        let compiled = compiled();
        let cascade = ladder(1, 1, Some(1));
        let llrs = noisy_llrs(3, compiled.n(), 7);
        let outs = cascade
            .decode_batch(&compiled, LlrBatch::new(&llrs, compiled.n()).unwrap())
            .unwrap();
        assert_eq!(outs.len(), 3);
        let stats = cascade.stats();
        assert_eq!(stats.stage_frames[0], 3);
        assert!(stats.stage_frames[1] > 0, "corrupted frames must escalate");
        assert_eq!(
            stats.escalations,
            stats.stage_frames[1] + stats.stage_frames[2]
        );
    }

    #[test]
    fn converged_frames_match_plain_min_sum_and_escalated_match_fixed_bp() {
        let compiled = compiled();
        let cascade = CascadeDecoder::default();
        let min_sum =
            LayeredDecoder::new(FixedMinSumArithmetic::default(), *cascade.stage1().config())
                .unwrap();
        let fixed_bp = LayeredDecoder::new(
            FixedBpArithmetic::forward_backward(),
            *cascade.stage2().config(),
        )
        .unwrap();

        // Three clean frames (stay at stage 1) interleaved with three heavily
        // corrupted ones (escalate).
        let frames = 6;
        let n = compiled.n();
        let hard = noisy_llrs(3, n, 21);
        let mut llrs = Vec::with_capacity(frames * n);
        for f in 0..3 {
            llrs.extend(std::iter::repeat_n(8.0, n));
            llrs.extend_from_slice(&hard[f * n..(f + 1) * n]);
        }
        let batch = LlrBatch::new(&llrs, compiled.n()).unwrap();
        let outs = cascade.decode_batch(&compiled, batch).unwrap();
        let mut saw_converged = false;
        let mut saw_escalated = false;
        for (f, out) in outs.iter().enumerate() {
            let stage1 = min_sum.decode_compiled(&compiled, batch.frame(f)).unwrap();
            if stage1.parity_satisfied {
                saw_converged = true;
                assert_eq!(out, &stage1, "frame {f}: stage-1 convergence");
            } else {
                saw_escalated = true;
                let handoff: Vec<f64> = batch
                    .frame(f)
                    .iter()
                    .map(|&l| cascade.handoff_llr(l))
                    .collect();
                let stage2 = fixed_bp.decode_compiled(&compiled, &handoff).unwrap();
                assert_eq!(out, &stage2, "frame {f}: escalated to stage 2");
            }
        }
        assert!(
            saw_converged && saw_escalated,
            "test vector must exercise both paths"
        );
    }

    #[test]
    fn single_frame_decode_into_matches_batch() {
        let compiled = compiled();
        let cascade = CascadeDecoder::default();
        let llrs = noisy_llrs(1, compiled.n(), 41);
        let batch_out = cascade
            .decode_batch(&compiled, LlrBatch::new(&llrs, compiled.n()).unwrap())
            .unwrap();
        let single = cascade.decode_compiled(&compiled, &llrs).unwrap();
        assert_eq!(single, batch_out[0]);
    }

    #[test]
    fn handoff_llrs_round_trip_to_identical_quantized_codes() {
        let cascade = CascadeDecoder::default();
        let arith = Decoder::arithmetic(&cascade);
        for raw in [-40.0, -3.7, -0.06, 0.0, 0.06, 1.234, 31.74, 40.0] {
            let handoff = cascade.handoff_llr(raw);
            assert_eq!(
                arith.from_channel(handoff),
                arith.from_channel(raw),
                "handoff of {raw} must requantize identically"
            );
            assert_eq!(cascade.handoff_llr(handoff), handoff, "idempotent");
        }
    }

    #[test]
    fn detached_clone_counts_independently_but_shares_pools() {
        let compiled = compiled();
        let cascade = CascadeDecoder::default();
        let detached = cascade.detached_clone();
        let llrs = vec![8.0; compiled.n()];
        let batch = LlrBatch::new(&llrs, compiled.n()).unwrap();
        cascade.decode_batch(&compiled, batch).unwrap();
        assert_eq!(cascade.stats().stage_frames[0], 1);
        assert_eq!(detached.stats().stage_frames[0], 0, "fresh counters");
        let plain = cascade.clone();
        detached.decode_batch(&compiled, batch).unwrap();
        assert_eq!(detached.stats().stage_frames[0], 1);
        assert_eq!(cascade.stats().stage_frames[0], 1);
        assert_eq!(
            plain.stats().stage_frames[0],
            1,
            "plain clones share counters"
        );
        // Workspace pools are shared by both clone flavours.
        assert_eq!(
            Decoder::workspace_pool(&cascade)
                .unwrap()
                .workspaces_created(),
            Decoder::workspace_pool(&detached)
                .unwrap()
                .workspaces_created()
        );
    }

    #[test]
    fn steady_state_cascade_reuses_buffers() {
        let compiled = compiled();
        let cascade = ladder(1, 2, None);
        let mut ws = cascade.workspace_for(&compiled);
        let frames = 3;
        let llrs = noisy_llrs(frames, compiled.n(), 7);
        let mut outs = vec![DecodeOutput::empty(); frames];
        // Warm-up decode sizes every buffer (including the escalation path);
        // afterwards the workspace must be cascade-ready and stable.
        cascade
            .decode_group_into(&compiled, &llrs, &mut ws, &mut outs)
            .unwrap();
        assert!(ws.is_ready_for(&compiled, frames));
        let fingerprint = ws.allocation_fingerprint();
        for _ in 0..3 {
            cascade
                .decode_group_into(&compiled, &llrs, &mut ws, &mut outs)
                .unwrap();
        }
        assert_eq!(fingerprint, ws.allocation_fingerprint());
    }

    #[test]
    fn effort_ladder_skips_stage3_then_halves_stage2() {
        let compiled = compiled();
        let cascade = ladder(1, 8, Some(2));
        assert_eq!(cascade.effort_level(), 0);
        assert!(cascade.set_effort_level(1));
        assert_eq!(cascade.effort_level(), 1);
        assert!(cascade.set_effort_level(200), "over-deep requests clamp");
        assert_eq!(cascade.effort_level(), 2);

        // At level 1 the float stage never runs: hopeless frames stop at
        // stage 2.
        cascade.set_effort_level(1);
        let llrs = noisy_llrs(3, compiled.n(), 7);
        let batch = LlrBatch::new(&llrs, compiled.n()).unwrap();
        cascade.decode_batch(&compiled, batch).unwrap();
        let stats = cascade.stats();
        assert!(stats.stage_frames[1] > 0, "vector must escalate");
        assert_eq!(stats.stage_frames[2], 0, "level 1 drops the float stage");

        // At level 2 the escalated output matches a half-budget stage-2
        // decoder run directly on the handoff LLRs.
        cascade.set_effort_level(2);
        let outs = cascade.decode_batch(&compiled, batch).unwrap();
        let half_bp = LayeredDecoder::new(
            FixedBpArithmetic::forward_backward(),
            DecoderConfig {
                max_iterations: 4,
                ..*cascade.stage2().config()
            },
        )
        .unwrap();
        let handoff: Vec<f64> = batch
            .frame(0)
            .iter()
            .map(|&l| cascade.handoff_llr(l))
            .collect();
        let min_sum_out = cascade
            .stage1()
            .decode_compiled(&compiled, batch.frame(0))
            .unwrap();
        if !min_sum_out.parity_satisfied {
            let expect = half_bp.decode_compiled(&compiled, &handoff).unwrap();
            assert_eq!(outs[0], expect, "level 2 runs the half-budget stage 2");
        }

        // Restoring level 0 restores the full ladder.
        cascade.set_effort_level(0);
        assert_eq!(cascade.effort_level(), 0);
        let detached = cascade.detached_clone();
        cascade.set_effort_level(2);
        assert_eq!(detached.effort_level(), 0, "detached clones degrade alone");
        let plain = cascade.clone();
        assert_eq!(plain.effort_level(), 2, "plain clones share the level");
    }

    #[test]
    fn group_shape_is_validated() {
        let compiled = compiled();
        let cascade = CascadeDecoder::default();
        let mut ws = cascade.workspace_for(&compiled);
        let llrs = vec![1.0; compiled.n()];
        let mut outs = vec![DecodeOutput::empty(); 2];
        assert!(matches!(
            cascade.decode_group_into(&compiled, &llrs, &mut ws, &mut outs),
            Err(DecodeError::BatchShape { .. })
        ));
    }
}
