//! The layered belief-propagation decoder (Algorithm 1 of the paper).
//!
//! [`LayeredDecoder`] implements the layered schedule generically over a
//! [`DecoderArithmetic`]: full BP in floating point (reference), full BP in
//! 8-bit fixed point with 3-bit LUTs (the ASIC datapath) or the Min-Sum
//! baseline. One full iteration is divided into `j` sub-iterations; within a
//! sub-iteration the `z` rows of the layer are independent (they are processed
//! by `z` parallel SISO decoders in hardware) and are processed here in a
//! simple loop, producing bit-identical results.
//!
//! The per-row processing follows Algorithm 1 exactly:
//!
//! 1. **Read**: `λ_mn = L_n − Λ_mn` for every `n ∈ N(m)`,
//! 2. **Decode**: `Λ'_mn` from the check-node update (Eq. 1), then
//!    `L'_n = λ_mn + Λ'_mn`,
//! 3. **Write back** `L'_n` and `Λ'_mn`.
//!
//! The hot loop is *lane-major*: the `z` independent rows of a layer are the
//! lanes, and each sub-iteration processes all of them at once through
//! [`LaneKernel::layer_update_lanes`] — `λ` for every lane of a block column
//! read as two stride-1 spans (the rotation contract of [`CompiledCode`]'s
//! lane layout), the check-node update across the whole layer, `Λ'` and `L'`
//! written back through the same spans. The fixed-point default datapath
//! fuses all of it into one register-resident pass per chunk of lanes. This
//! is the software shape of the paper's `z`-wide parallel SISO array and is
//! bit-identical to row-serial processing (kept as
//! [`LayeredDecoder::decode_into_reference`]) because the lanes of a layer
//! touch pairwise disjoint L-memory addresses.
//!
//! There is one driver for the layered schedule. It decodes a frame-major
//! group of any width (see [`crate::group`]), and `decode_into` is a group
//! of one. The driver is generic over its per-layer update: the lane-major
//! kernel for every [`Decoder`] entry point, the row-serial kernel for
//! [`LayeredDecoder::decode_into_reference`]. Both therefore share one
//! initialisation, one iteration and termination loop and one source of
//! [`DecodeStats`].
//!
//! The hot path runs against a [`CompiledCode`] (flattened schedule +
//! circulant index tables + lane-major SoA layout) and a reusable
//! [`DecodeWorkspace`], so steady-state decoding allocates nothing; see
//! [`crate::engine::Decoder`] for the batched entry points.

use ldpc_codes::{CompiledCode, QcCode};

use crate::arith::{DecoderArithmetic, LaneKernel, LaneScratch};
use crate::early_term::{check_frames, message_threshold, EarlyTermination};
use crate::engine::{finish_output, Decoder};
use crate::error::DecodeError;
use crate::pool::WorkspacePool;
use crate::result::{DecodeOutput, DecodeStats};
use crate::schedule::LayerOrderPolicy;
use crate::workspace::DecodeWorkspace;

/// Decoder configuration.
///
/// The default stops each frame at the first iteration whose hard
/// decisions satisfy every parity check (a codeword), within 10
/// iterations. The paper's early-termination rule (§IV: information-bit
/// decisions stable over two iterations and min |L| above a threshold) is
/// the configuration behind its Fig. 9(a) power figures,
/// [`DecoderConfig::paper_early_termination`]; it is cheaper to evaluate
/// per iteration but stops some frames on wrong words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderConfig {
    /// Maximum number of full iterations `I` (the paper uses 10).
    pub max_iterations: usize,
    /// The paper's early-termination rule (§IV); `None` by default. When
    /// set, it is tested before the syndrome stop, and a frame it ends
    /// reports `early_terminated`.
    pub early_termination: Option<EarlyTermination>,
    /// Stop as soon as the hard decisions satisfy every parity check: the
    /// exact "is a codeword" test, on by default.
    pub stop_on_zero_syndrome: bool,
    /// Layer visiting order.
    pub layer_order: LayerOrderPolicy,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig {
            max_iterations: 10,
            early_termination: None,
            stop_on_zero_syndrome: true,
            layer_order: LayerOrderPolicy::Natural,
        }
    }
}

impl DecoderConfig {
    /// The paper's stopping rule alone (§IV, Fig. 9(a)): up to 10
    /// iterations, ended early by [`EarlyTermination::default`] and never
    /// by the syndrome.
    #[must_use]
    pub fn paper_early_termination() -> Self {
        DecoderConfig {
            early_termination: Some(EarlyTermination::default()),
            stop_on_zero_syndrome: false,
            ..DecoderConfig::default()
        }
    }

    /// A configuration that always runs the maximum number of iterations
    /// (no early termination, no syndrome stopping).
    #[must_use]
    pub fn fixed_iterations(max_iterations: usize) -> Self {
        DecoderConfig {
            max_iterations,
            early_termination: None,
            stop_on_zero_syndrome: false,
            layer_order: LayerOrderPolicy::Natural,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), DecodeError> {
        if self.max_iterations == 0 {
            return Err(DecodeError::InvalidConfig {
                reason: "max_iterations must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// One lane-major sub-iteration over a `width`-frame group: updates every row
/// of `layer` of every packed frame at once through
/// [`LaneKernel::layer_update_lanes`]. With the frame-innermost interleave of
/// [`crate::group`] every single-frame span simply scales by `width`, so the
/// kernels see `z · width`-lane panels. Bit-identical to processing the rows
/// (and frames) serially because the lanes of a layer touch pairwise disjoint
/// L-memory addresses and every kernel operation is element-wise per lane.
/// `width == 1` is exactly the single-frame hot path.
fn lane_layer_update<A: LaneKernel>(
    arith: &A,
    compiled: &CompiledCode,
    layer: usize,
    width: usize,
    ws: &mut DecodeWorkspace<A::Msg>,
) {
    arith.layer_update_lanes(
        &compiled.layer_lanes(layer),
        compiled.z(),
        width,
        &mut ws.app,
        &mut ws.lambda,
        &mut ws.lane_scratch,
    );
}

/// The operation counts of one frame after `iterations` full iterations:
/// one sub-iteration, `z` check-node updates and `degree · z` messages per
/// layer, summed over all layers and iterations. Every schedule does exactly
/// this much work per frame, so this is the one source of [`DecodeStats`].
pub(crate) fn group_frame_stats(compiled: &CompiledCode, iterations: usize) -> DecodeStats {
    DecodeStats {
        sub_iterations: iterations * compiled.block_rows(),
        check_node_updates: iterations * compiled.m(),
        messages_processed: iterations * compiled.num_edges(),
    }
}

/// One row-serial sub-iteration (the reference kernel): walks the `z` rows of
/// `layer` one at a time through the scalar arithmetic, gathering via the
/// per-edge `col_index` table. Per-row processing follows Algorithm 1 exactly:
/// read `λ = L − Λ`, check-node update, write back `Λ'` and `L'`. Runs on
/// single frames only (`width == 1`), whose layout is the plain one.
fn row_layer_update<A: DecoderArithmetic>(
    arith: &A,
    compiled: &CompiledCode,
    layer: usize,
    width: usize,
    ws: &mut DecodeWorkspace<A::Msg>,
) {
    debug_assert_eq!(width, 1, "the row-serial reference decodes single frames");
    let z = compiled.z();
    let col_index = compiled.col_index();
    let entries = compiled.layer_entries(layer);
    let LaneScratch {
        row_in, row_out, ..
    } = &mut ws.lane_scratch;
    for r in 0..z {
        row_in.clear();
        for e in entries {
            let edge = e.edge_base as usize + r;
            let col = col_index[edge] as usize;
            row_in.push(arith.sub(ws.app[col], ws.lambda[edge]));
        }
        arith.check_node_update(row_in, row_out);
        for (slot, e) in entries.iter().enumerate() {
            let edge = e.edge_base as usize + r;
            let col = col_index[edge] as usize;
            ws.lambda[edge] = row_out[slot];
            ws.app[col] = arith.add(row_in[slot], row_out[slot]);
        }
    }
}

/// The layered (turbo-decoding message passing) LDPC decoder.
///
/// Owns a [`WorkspacePool`] for the batch engine (shared by clones), so
/// repeated `decode_batch` calls of the same mode allocate nothing.
#[derive(Debug, Clone)]
pub struct LayeredDecoder<A: DecoderArithmetic> {
    arith: A,
    config: DecoderConfig,
    pool: std::sync::Arc<WorkspacePool<A::Msg>>,
}

impl<A: DecoderArithmetic> LayeredDecoder<A> {
    /// Creates a decoder from an arithmetic back-end and a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] for nonsensical configurations.
    pub fn new(arith: A, config: DecoderConfig) -> Result<Self, DecodeError> {
        Self::with_pool(arith, config, std::sync::Arc::new(WorkspacePool::new()))
    }

    /// [`LayeredDecoder::new`] drawing its batch workspaces from `pool`, so
    /// decoders of one message type can share one pool (the cascade's
    /// fixed-point stages decode through one workspace).
    pub(crate) fn with_pool(
        arith: A,
        config: DecoderConfig,
        pool: std::sync::Arc<WorkspacePool<A::Msg>>,
    ) -> Result<Self, DecodeError> {
        config.validate()?;
        Ok(LayeredDecoder {
            arith,
            config,
            pool,
        })
    }

    /// The arithmetic back-end.
    #[must_use]
    pub fn arithmetic(&self) -> &A {
        &self.arith
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// Row-serial reference kernel: decodes one frame exactly like
    /// [`Decoder::decode_into`], but walking the `z` rows of every layer one
    /// at a time through the scalar [`DecoderArithmetic`] calls instead of the
    /// lane-major [`LaneKernel`] path. The two paths are required to be
    /// bit-identical for every back-end; this one is kept as the comparison
    /// baseline for tests and benchmarks (it needs no [`LaneKernel`] bound).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LlrLengthMismatch`] if `llrs.len() != n` and
    /// [`DecodeError::NonFiniteLlr`] if an LLR is NaN or infinite.
    pub fn decode_into_reference(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<A::Msg>,
        out: &mut DecodeOutput,
    ) -> Result<(), DecodeError> {
        crate::engine::check_frame_len(compiled, llrs)?;
        self.decode_layered(
            compiled,
            llrs,
            ws,
            std::slice::from_mut(out),
            row_layer_update,
        )
    }

    /// The layered driver, the one loop that runs Algorithm 1 for every
    /// group width (a single frame is a group of one): packs the frames
    /// frame-innermost (see [`crate::group`]), runs the layered schedule with
    /// `layer_update` over every layer in the configured order, applies the
    /// termination rules *per frame* (early termination first, then the
    /// syndrome stop), and compacts converged frames out of the group so they
    /// skip all remaining-iteration work. Frame `f` of the result is
    /// bit-identical to decoding that frame alone.
    fn decode_layered<F>(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<A::Msg>,
        outs: &mut [DecodeOutput],
        mut layer_update: F,
    ) -> Result<(), DecodeError>
    where
        F: FnMut(&A, &CompiledCode, usize, usize, &mut DecodeWorkspace<A::Msg>),
    {
        let frames = outs.len();
        crate::engine::check_group_shape(compiled, llrs, frames)?;
        if frames == 0 {
            return Ok(());
        }

        #[cfg(debug_assertions)]
        let steady_fingerprint = ws
            .is_ready_for(compiled, frames)
            .then(|| ws.allocation_fingerprint());

        let arith = &self.arith;
        let n = compiled.n();
        let num_layers = compiled.block_rows();
        let info_len = compiled.info_bits();
        // The configured layer visit order: natural, or the stall-minimizing
        // shuffle precompiled into the schedule.
        let stall_order = match self.config.layer_order {
            LayerOrderPolicy::Natural => None,
            LayerOrderPolicy::StallMinimizing => Some(compiled.stall_minimizing_order()),
        };

        // L ← channel, Λ ← 0, frame-innermost (Algorithm 1 initialisation,
        // interleaved: app[col · width + f]). One pass per frame while it is
        // in L1: quantisation, which also tests every LLR for finiteness,
        // straight into the APP memory for a single frame, through the
        // ingest scratch and the interleave otherwise. A refused frame is
        // searched for its first bad value and returns before any output is
        // touched.
        let et_threshold = message_threshold(arith, self.config.early_termination.as_ref());
        ws.prepare(compiled, arith.zero(), frames, et_threshold.is_some());
        for (f, frame) in llrs.chunks_exact(n).enumerate() {
            let finite = if frames == 1 {
                arith.from_channel_slice(frame, &mut ws.app)
            } else {
                let finite = arith.from_channel_slice(frame, &mut ws.group_frame);
                crate::group::fill_column(&mut ws.app, frames, f, &ws.group_frame);
                finite
            };
            if !finite {
                return Err(crate::engine::non_finite_llr(f, frame));
            }
        }
        let syndrome_stop = self.config.stop_on_zero_syndrome;

        let mut width = frames;
        let mut iterations = 0usize;
        loop {
            for li in 0..num_layers {
                let layer = stall_order.map_or(li, |order| order[li] as usize);
                layer_update(arith, compiled, layer, width, ws);
            }
            iterations += 1;
            let last = iterations == self.config.max_iterations;

            // Per-frame termination: early termination first (information-bit
            // hard decisions stable across two iterations and min |L| above
            // the threshold, the paper's rule of §IV), then the syndrome stop.
            // One parity pass over the group gives every frame's verdict,
            // run when the syndrome stop is on or a frame finishes anyway
            // (the verdict is its `parity_satisfied`). Finished frames
            // produce their output now; survivors are listed in
            // `group_keep`.
            let mut early_any = false;
            if let Some(t) = et_threshold {
                let info = &ws.app[..info_len * width];
                check_frames(arith, t, info, &mut ws.decisions, width, &mut ws.verdicts);
                early_any = !last && ws.verdicts.contains(&0);
            }
            let checked = syndrome_stop || last || early_any;
            if checked {
                arith.parity_verdicts(compiled, width, &ws.app, &mut ws.parity);
            }
            ws.group_keep.clear();
            for slot in 0..width {
                let early = early_any && ws.verdicts[slot] == 0;
                let parity_ok = checked && ws.parity[slot] == 0;
                if last || early || (syndrome_stop && parity_ok) {
                    let out = &mut outs[ws.group_active[slot] as usize];
                    finish_output(
                        arith, compiled, &ws.app, width, slot, out, iterations, early, parity_ok,
                    );
                } else {
                    ws.group_keep.push(slot as u32);
                }
            }
            if ws.group_keep.is_empty() {
                break;
            }
            if ws.group_keep.len() < width {
                // Converged frames drop out: repack the survivors so the
                // remaining iterations do strictly less work. (`take` swaps
                // the keep buffer out to satisfy the borrow checker; it is
                // put back below, so nothing reallocates.)
                let keep = std::mem::take(&mut ws.group_keep);
                crate::group::compact_columns(&mut ws.app, n, width, &keep);
                crate::group::compact_columns(&mut ws.lambda, compiled.num_edges(), width, &keep);
                if et_threshold.is_some() {
                    crate::group::compact_columns(&mut ws.decisions, info_len, width, &keep);
                }
                for (a, &s) in keep.iter().enumerate() {
                    ws.group_active[a] = ws.group_active[s as usize];
                }
                width = keep.len();
                ws.group_active.truncate(width);
                ws.parity.truncate(width);
                ws.group_keep = keep;
            }
        }

        #[cfg(debug_assertions)]
        if let Some(fingerprint) = steady_fingerprint {
            debug_assert_eq!(
                fingerprint,
                ws.allocation_fingerprint(),
                "steady-state decode must not reallocate workspace buffers"
            );
        }
        Ok(())
    }
}

impl<A: LaneKernel> LayeredDecoder<A> {
    /// Decodes one frame given its channel LLRs (`2y/σ²`, length `n`).
    ///
    /// Compatibility entry point: compiles the schedule and allocates a fresh
    /// workspace on every call. Hot loops should compile once and use
    /// [`Decoder::decode_into`] / [`Decoder::decode_batch`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LlrLengthMismatch`] if `channel_llrs.len()` is
    /// not the code length.
    pub fn decode(&self, code: &QcCode, channel_llrs: &[f64]) -> Result<DecodeOutput, DecodeError> {
        Decoder::decode(self, code, channel_llrs)
    }
}

impl<A: LaneKernel> Decoder for LayeredDecoder<A> {
    type Arith = A;

    fn arithmetic(&self) -> &A {
        &self.arith
    }

    fn config(&self) -> &DecoderConfig {
        &self.config
    }

    fn schedule_name(&self) -> &'static str {
        "layered"
    }

    fn workspace_pool(&self) -> Option<&WorkspacePool<A::Msg>> {
        Some(&self.pool)
    }

    fn preferred_group_width(&self, compiled: &CompiledCode) -> usize {
        if self.arith.prefers_frame_groups() {
            crate::group::group_width_for(compiled.z())
        } else {
            1
        }
    }

    fn decode_group_into(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<A::Msg>,
        outs: &mut [DecodeOutput],
    ) -> Result<(), DecodeError> {
        // All z rows (lanes) of each layer of every frame at once — the
        // software analogue of the paper's z parallel SISO units.
        self.decode_layered(compiled, llrs, ws, outs, lane_layer_update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{
        FixedBpArithmetic, FixedMinSumArithmetic, FloatBpArithmetic, FloatMinSumArithmetic,
    };
    use ldpc_channel::awgn::AwgnChannel;
    use ldpc_channel::workload::FrameSource;
    use ldpc_codes::{CodeId, CodeRate, Standard};

    fn small_code() -> QcCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap()
    }

    fn decode_frames<A: LaneKernel>(
        arith: A,
        config: DecoderConfig,
        ebn0_db: f64,
        frames: usize,
        seed: u64,
    ) -> (usize, usize, f64) {
        let code = small_code();
        let decoder = LayeredDecoder::new(arith, config).unwrap();
        let channel = AwgnChannel::from_ebn0_db(ebn0_db, code.rate());
        let mut source = FrameSource::random(&code, seed).unwrap();
        let mut bit_errors = 0;
        let mut channel_errors = 0;
        let mut total_iterations = 0.0;
        for _ in 0..frames {
            let frame = source.next_frame();
            let llrs = channel.transmit(&frame.codeword, source.noise_rng());
            channel_errors += llrs
                .iter()
                .zip(&frame.codeword)
                .filter(|(&l, &b)| u8::from(l < 0.0) != b)
                .count();
            let out = decoder.decode(&code, &llrs).unwrap();
            bit_errors += out.bit_errors_against(&frame.codeword);
            total_iterations += out.iterations as f64;
        }
        (bit_errors, channel_errors, total_iterations / frames as f64)
    }

    #[test]
    fn rejects_wrong_llr_length() {
        let code = small_code();
        let decoder =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        assert!(matches!(
            decoder.decode(&code, &[0.0; 3]),
            Err(DecodeError::LlrLengthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_zero_iterations() {
        assert!(LayeredDecoder::new(
            FloatBpArithmetic::default(),
            DecoderConfig::fixed_iterations(0)
        )
        .is_err());
    }

    #[test]
    fn noiseless_frame_decodes_in_one_iteration_with_syndrome_stop() {
        let code = small_code();
        let mut source = FrameSource::random(&code, 3).unwrap();
        let frame = source.next_frame();
        // Perfect channel: huge LLRs of the correct sign.
        let llrs: Vec<f64> = frame
            .codeword
            .iter()
            .map(|&b| if b == 0 { 20.0 } else { -20.0 })
            .collect();
        let decoder =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        let out = decoder.decode(&code, &llrs).unwrap();
        assert_eq!(out.hard_bits, frame.codeword);
        assert!(out.parity_satisfied);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn float_bp_corrects_noisy_frames_at_moderate_snr() {
        let (decoded_errors, channel_errors, _) = decode_frames(
            FloatBpArithmetic::default(),
            DecoderConfig::default(),
            2.5,
            8,
            11,
        );
        assert!(channel_errors > 0, "channel should introduce errors");
        assert!(
            decoded_errors * 20 < channel_errors,
            "decoder should remove almost all channel errors: {decoded_errors} vs {channel_errors}"
        );
    }

    #[test]
    fn fixed_bp_forward_backward_matches_float_bp_error_correction() {
        // The 8-bit forward/backward datapath tracks the float reference to
        // within a fraction of a dB.
        let (fixed_errors, channel_errors, _) = decode_frames(
            FixedBpArithmetic::forward_backward(),
            DecoderConfig::default(),
            2.5,
            8,
            11,
        );
        assert!(channel_errors > 0);
        assert!(
            fixed_errors * 20 < channel_errors,
            "8-bit datapath should still decode: {fixed_errors} vs {channel_errors}"
        );
    }

    #[test]
    fn fixed_bp_sum_extract_still_corrects_errors() {
        // The paper's ⊟-extraction datapath with argmin exclusion (the
        // default, see CheckNodeMode docs) decodes like the 8-bit
        // forward/backward recursion: same bound.
        let (fixed_errors, channel_errors, _) = decode_frames(
            FixedBpArithmetic::default(),
            DecoderConfig::default(),
            2.0,
            8,
            11,
        );
        assert!(channel_errors > 0);
        assert!(
            fixed_errors * 20 < channel_errors,
            "⊟-extraction datapath should remove almost all channel errors: \
             {fixed_errors} vs {channel_errors}"
        );
    }

    #[test]
    fn min_sum_also_decodes_clean_channels() {
        for arith in [
            FloatMinSumArithmetic::default(),
            FloatMinSumArithmetic::with_alpha(1.0),
        ] {
            let (errors, _, _) = decode_frames(arith, DecoderConfig::default(), 3.5, 4, 21);
            assert_eq!(errors, 0, "min-sum should decode clean frames at 3.5 dB");
        }
        let (errors, _, _) = decode_frames(
            FixedMinSumArithmetic::default(),
            DecoderConfig::default(),
            3.5,
            4,
            21,
        );
        assert_eq!(errors, 0);
    }

    #[test]
    fn early_termination_reduces_iterations_at_high_snr() {
        let config_et = DecoderConfig::paper_early_termination();
        let config_no_et = DecoderConfig::fixed_iterations(10);
        let (_, _, avg_et) = decode_frames(FloatBpArithmetic::default(), config_et, 4.0, 6, 5);
        let (_, _, avg_no_et) =
            decode_frames(FloatBpArithmetic::default(), config_no_et, 4.0, 6, 5);
        assert!(avg_no_et >= 10.0 - 1e-9);
        assert!(
            avg_et < 6.0,
            "early termination should cut iterations at 4 dB, got {avg_et}"
        );
    }

    #[test]
    fn early_termination_runs_longer_at_low_snr() {
        let (_, _, avg_low) = decode_frames(
            FloatBpArithmetic::default(),
            DecoderConfig::paper_early_termination(),
            0.0,
            4,
            7,
        );
        let (_, _, avg_high) = decode_frames(
            FloatBpArithmetic::default(),
            DecoderConfig::paper_early_termination(),
            4.5,
            4,
            7,
        );
        assert!(
            avg_low > avg_high,
            "bad channels need more iterations: {avg_low} vs {avg_high}"
        );
    }

    #[test]
    fn layer_order_does_not_change_correctness() {
        let code = small_code();
        let mut source = FrameSource::random(&code, 9).unwrap();
        let frame = source.next_frame();
        let channel = AwgnChannel::from_ebn0_db(3.0, code.rate());
        let llrs = channel.transmit(&frame.codeword, source.noise_rng());
        for order in [LayerOrderPolicy::Natural, LayerOrderPolicy::StallMinimizing] {
            let config = DecoderConfig {
                layer_order: order,
                ..DecoderConfig::default()
            };
            let decoder = LayeredDecoder::new(FloatBpArithmetic::default(), config).unwrap();
            let out = decoder.decode(&code, &llrs).unwrap();
            assert_eq!(
                out.bit_errors_against(&frame.codeword),
                0,
                "decoding should succeed regardless of layer order"
            );
        }
    }

    #[test]
    fn stats_count_operations() {
        let code = small_code();
        let decoder = LayeredDecoder::new(
            FloatBpArithmetic::default(),
            DecoderConfig::fixed_iterations(2),
        )
        .unwrap();
        let llrs = vec![1.0; code.n()];
        let out = decoder.decode(&code, &llrs).unwrap();
        assert_eq!(out.iterations, 2);
        assert_eq!(out.stats.sub_iterations, 2 * code.block_rows());
        assert_eq!(out.stats.check_node_updates, 2 * code.m());
        assert_eq!(out.stats.messages_processed, 2 * code.num_edges());
    }

    #[test]
    fn posterior_llrs_match_hard_bits() {
        let code = small_code();
        let decoder =
            LayeredDecoder::new(FixedBpArithmetic::default(), DecoderConfig::default()).unwrap();
        let mut source = FrameSource::random(&code, 17).unwrap();
        let frame = source.next_frame();
        let channel = AwgnChannel::from_ebn0_db(3.0, code.rate());
        let llrs = channel.transmit(&frame.codeword, source.noise_rng());
        let out = decoder.decode(&code, &llrs).unwrap();
        for (l, &b) in out.posterior_llrs.iter().zip(&out.hard_bits) {
            assert_eq!(u8::from(*l < 0.0), b);
        }
    }
}
