//! Two-phase ("flooding") belief-propagation decoder.
//!
//! The paper adopts the *layered* BP algorithm \[6\] because it converges in
//! roughly half the iterations of the classic two-phase schedule, which
//! directly halves the iteration count `I` in the throughput expression of
//! §III-E and the dynamic power. This module implements the flooding schedule
//! over the same [`DecoderArithmetic`] back-ends so the claim can be
//! reproduced (see the `ablation_schedule` experiment binary).
//!
//! In the flooding schedule every check node consumes the variable-to-check
//! messages of the *previous* iteration; in the layered schedule each layer
//! immediately uses the a-posteriori values updated by the layers processed
//! before it within the same iteration — that is the whole difference.

use ldpc_codes::{CompiledCode, QcCode};

use crate::arith::{DecoderArithmetic, LaneScratch};
use crate::decoder::DecoderConfig;
use crate::early_term::{check_frames, message_threshold};
use crate::engine::{finish_output, Decoder};
use crate::error::DecodeError;
use crate::pool::WorkspacePool;
use crate::result::DecodeOutput;
use crate::workspace::DecodeWorkspace;

/// Two-phase (flooding) LDPC decoder, the classic baseline schedule.
///
/// Owns a [`WorkspacePool`] for the batch engine (shared by clones), so
/// repeated `decode_batch` calls of the same mode allocate nothing.
#[derive(Debug, Clone)]
pub struct FloodingDecoder<A: DecoderArithmetic> {
    arith: A,
    config: DecoderConfig,
    pool: std::sync::Arc<WorkspacePool<A::Msg>>,
}

impl<A: DecoderArithmetic> FloodingDecoder<A> {
    /// Creates a flooding decoder. The `layer_order` field of the
    /// configuration is ignored (the flooding schedule has no layers).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] for nonsensical configurations.
    pub fn new(arith: A, config: DecoderConfig) -> Result<Self, DecodeError> {
        config.validate()?;
        Ok(FloodingDecoder {
            arith,
            config,
            pool: std::sync::Arc::new(WorkspacePool::new()),
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

    /// Decodes one frame of channel LLRs (`2y/σ²`, length `n`).
    ///
    /// Compatibility entry point: compiles the schedule and allocates a fresh
    /// workspace on every call; hot loops should use the [`Decoder`] batch
    /// APIs.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LlrLengthMismatch`] if `channel_llrs.len()` is
    /// not the code length.
    pub fn decode(&self, code: &QcCode, channel_llrs: &[f64]) -> Result<DecodeOutput, DecodeError> {
        Decoder::decode(self, code, channel_llrs)
    }

    /// Decodes one frame of checked LLRs with the flooding schedule.
    fn decode_frame(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<A::Msg>,
        out: &mut DecodeOutput,
    ) {
        let n = compiled.n();
        let edges = compiled.num_edges();
        #[cfg(debug_assertions)]
        let steady_fingerprint = (ws.is_ready_for(compiled, 1)
            && ws.chan.capacity() >= n
            && ws.lambda_alt.capacity() >= edges)
            .then(|| ws.allocation_fingerprint());

        let arith = &self.arith;
        let z = compiled.z();
        let num_layers = compiled.block_rows();
        let info_len = compiled.info_bits();
        let col_index = compiled.col_index();

        // Check-to-variable messages R live in `ws.lambda`, double-buffered
        // against `ws.lambda_alt`; posteriors live in `ws.app`. The layered
        // driver's workspace sizing does not cover the flooding-only
        // buffers, so they are sized here. Every edge of `lambda_alt` is
        // written before it is read; only its length must match for the
        // buffer swap.
        let et_threshold = message_threshold(arith, self.config.early_termination.as_ref());
        ws.prepare(compiled, arith.zero(), 1, et_threshold.is_some());
        ws.chan.clear();
        ws.chan.resize(n, arith.zero());
        ws.lambda_alt.clear();
        ws.lambda_alt.resize(edges, arith.zero());
        // The group was checked for non-finite LLRs before the first frame.
        arith.from_channel_slice(llrs, &mut ws.chan);
        ws.app.copy_from_slice(&ws.chan);
        let syndrome_stop = self.config.stop_on_zero_syndrome;

        let mut iterations = 0usize;
        loop {
            // Phase 1: every check node uses the posteriors of the previous
            // iteration (extrinsic: subtract its own previous message). Every
            // edge of the alternate buffer is written before the swap.
            let LaneScratch {
                row_in, row_out, ..
            } = &mut ws.lane_scratch;
            for l in 0..num_layers {
                let entries = compiled.layer_entries(l);
                for r in 0..z {
                    row_in.clear();
                    for e in entries {
                        let edge = e.edge_base as usize + r;
                        let col = col_index[edge] as usize;
                        row_in.push(arith.sub(ws.app[col], ws.lambda[edge]));
                    }
                    arith.check_node_update(row_in, row_out);
                    for (slot, e) in entries.iter().enumerate() {
                        ws.lambda_alt[e.edge_base as usize + r] = row_out[slot];
                    }
                }
            }
            std::mem::swap(&mut ws.lambda, &mut ws.lambda_alt);

            // Phase 2: every variable node sums the channel value and all
            // incoming check messages.
            ws.app.copy_from_slice(&ws.chan);
            for l in 0..num_layers {
                for e in compiled.layer_entries(l) {
                    for r in 0..z {
                        let edge = e.edge_base as usize + r;
                        let col = col_index[edge] as usize;
                        ws.app[col] = arith.add(ws.app[col], ws.lambda[edge]);
                    }
                }
            }
            iterations += 1;
            let last = iterations == self.config.max_iterations;

            // The layered driver's termination order, for a group of one.
            let mut early = false;
            if let Some(t) = et_threshold {
                let info = &ws.app[..info_len];
                check_frames(arith, t, info, &mut ws.decisions, 1, &mut ws.verdicts);
                early = !last && ws.verdicts[0] == 0;
            }
            let checked = syndrome_stop || last || early;
            if checked {
                arith.parity_verdicts(compiled, 1, &ws.app, &mut ws.parity);
            }
            let parity_ok = checked && ws.parity[0] == 0;
            if last || early || (syndrome_stop && parity_ok) {
                finish_output(
                    arith, compiled, &ws.app, 1, 0, out, iterations, early, parity_ok,
                );
                break;
            }
        }
        // Each iteration swapped the Λ buffers once: after an odd count,
        // swap back, so `lambda` stays the buffer `reserve_for` sized for
        // the layered driver's groups (a pointer swap, no copy).
        if iterations % 2 == 1 {
            std::mem::swap(&mut ws.lambda, &mut ws.lambda_alt);
        }

        #[cfg(debug_assertions)]
        if let Some(fingerprint) = steady_fingerprint {
            debug_assert_eq!(
                fingerprint,
                ws.allocation_fingerprint(),
                "steady-state flooding decode must not reallocate workspace buffers"
            );
        }
    }
}

impl<A: DecoderArithmetic> Decoder for FloodingDecoder<A> {
    type Arith = A;

    fn arithmetic(&self) -> &A {
        &self.arith
    }

    fn config(&self) -> &DecoderConfig {
        &self.config
    }

    fn schedule_name(&self) -> &'static str {
        "flooding"
    }

    fn workspace_pool(&self) -> Option<&WorkspacePool<A::Msg>> {
        Some(&self.pool)
    }

    fn decode_group_into(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<A::Msg>,
        outs: &mut [DecodeOutput],
    ) -> Result<(), DecodeError> {
        // Every frame is checked before the first one is decoded, so a
        // refused group leaves `outs` untouched.
        crate::engine::check_group_shape(compiled, llrs, outs.len())?;
        for (f, frame) in llrs.chunks_exact(compiled.n()).enumerate() {
            crate::engine::check_frame_finite(f, frame)?;
        }
        for (frame, out) in llrs.chunks_exact(compiled.n()).zip(outs.iter_mut()) {
            self.decode_frame(compiled, frame, ws, out);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{FloatBpArithmetic, FloatMinSumArithmetic};
    use crate::decoder::LayeredDecoder;
    use ldpc_channel::awgn::AwgnChannel;
    use ldpc_channel::workload::FrameSource;
    use ldpc_codes::{CodeId, CodeRate, Standard};

    fn code() -> QcCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_invalid_inputs() {
        let code = code();
        assert!(FloodingDecoder::new(
            FloatBpArithmetic::default(),
            DecoderConfig::fixed_iterations(0)
        )
        .is_err());
        let dec =
            FloodingDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        assert!(matches!(
            dec.decode(&code, &[1.0; 4]),
            Err(DecodeError::LlrLengthMismatch { .. })
        ));
    }

    #[test]
    fn decodes_clean_frames() {
        let code = code();
        let dec =
            FloodingDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        let mut source = FrameSource::random(&code, 5).unwrap();
        let frame = source.next_frame();
        let llrs: Vec<f64> = frame
            .codeword
            .iter()
            .map(|&b| if b == 0 { 10.0 } else { -10.0 })
            .collect();
        let out = dec.decode(&code, &llrs).unwrap();
        assert_eq!(out.hard_bits, frame.codeword);
        assert!(out.parity_satisfied);
    }

    #[test]
    fn corrects_noisy_frames_like_the_layered_decoder() {
        let code = code();
        let flooding = FloodingDecoder::new(
            FloatBpArithmetic::default(),
            DecoderConfig::fixed_iterations(20),
        )
        .unwrap();
        let channel = AwgnChannel::from_ebn0_db(3.0, code.rate());
        let mut source = FrameSource::random(&code, 21).unwrap();
        for _ in 0..3 {
            let frame = source.next_frame();
            let llrs = channel.transmit(&frame.codeword, source.noise_rng());
            let out = flooding.decode(&code, &llrs).unwrap();
            assert_eq!(out.bit_errors_against(&frame.codeword), 0);
        }
    }

    #[test]
    fn layered_schedule_converges_in_fewer_iterations() {
        // The justification for adopting the layered algorithm (§II): at the
        // same operating point the layered schedule needs roughly half the
        // iterations of the flooding schedule to terminate.
        let code = code();
        let cfg = DecoderConfig {
            stop_on_zero_syndrome: true,
            max_iterations: 20,
            ..DecoderConfig::default()
        };
        let layered = LayeredDecoder::new(FloatBpArithmetic::default(), cfg).unwrap();
        let flooding = FloodingDecoder::new(FloatBpArithmetic::default(), cfg).unwrap();
        let channel = AwgnChannel::from_ebn0_db(2.5, code.rate());
        let mut source = FrameSource::random(&code, 77).unwrap();
        let (mut layered_iters, mut flooding_iters) = (0usize, 0usize);
        let frames = 5;
        for _ in 0..frames {
            let frame = source.next_frame();
            let llrs = channel.transmit(&frame.codeword, source.noise_rng());
            layered_iters += layered.decode(&code, &llrs).unwrap().iterations;
            flooding_iters += flooding.decode(&code, &llrs).unwrap().iterations;
        }
        assert!(
            flooding_iters as f64 >= 1.5 * layered_iters as f64,
            "flooding took {flooding_iters}, layered {layered_iters}"
        );
    }

    #[test]
    fn works_with_min_sum_too() {
        let code = code();
        let dec = FloodingDecoder::new(
            FloatMinSumArithmetic::default(),
            DecoderConfig::fixed_iterations(15),
        )
        .unwrap();
        let channel = AwgnChannel::from_ebn0_db(3.5, code.rate());
        let mut source = FrameSource::random(&code, 2).unwrap();
        let frame = source.next_frame();
        let llrs = channel.transmit(&frame.codeword, source.noise_rng());
        let out = dec.decode(&code, &llrs).unwrap();
        assert_eq!(out.bit_errors_against(&frame.codeword), 0);
    }

    #[test]
    fn stats_count_both_phases() {
        let code = code();
        let dec = FloodingDecoder::new(
            FloatBpArithmetic::default(),
            DecoderConfig::fixed_iterations(2),
        )
        .unwrap();
        let out = dec.decode(&code, &vec![1.0; code.n()]).unwrap();
        assert_eq!(out.iterations, 2);
        assert_eq!(out.stats.check_node_updates, 2 * code.m());
        assert_eq!(out.stats.messages_processed, 2 * code.num_edges());
    }
}
