//! The top-level ASIC decoder model (Fig. 7/8).
//!
//! [`AsicLdpcDecoder`] assembles the architectural components — mode ROM,
//! central L-memory, distributed Λ-memory banks, circular shifter and `z_max`
//! SISO lanes — into a functional, instrumented decoder:
//!
//! * **functional**: frames decoded through the modelled datapath produce
//!   exactly the messages of the bit-accurate algorithmic decoder in
//!   `ldpc-core` (this equivalence is tested);
//! * **reconfigurable**: [`AsicLdpcDecoder::configure`] switches the active
//!   mode at frame granularity, deactivating the lanes and memory banks the
//!   new code does not need (the paper's second power-saving scheme);
//! * **instrumented**: every decode returns cycle counts (pipeline model),
//!   memory/shifter activity and the utilisation figures that drive the
//!   power model.

use ldpc_codes::{CodeId, QcCode};
use ldpc_core::arith::DecoderArithmetic;
use ldpc_core::early_term::{EarlyTermination, TerminationTracker};
use ldpc_core::siso::SisoRadix;
use ldpc_core::FixedBpArithmetic;

use crate::config::{DecoderModeConfig, ModeRom};
use crate::error::ArchError;
use crate::memory::{LMemory, LambdaMemory, MemoryActivity};
use crate::pipeline::{CycleReport, PipelineModel, PipelineOptions};
use crate::shifter::CircularShifter;

/// Static (synthesis-time) parameters of the datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathConfig {
    /// Number of physical SISO lanes (= the largest supported `z`).
    pub z_max: usize,
    /// Λ-memory slots per lane (= the largest supported `E`).
    pub lambda_slots_per_lane: usize,
    /// L-memory words (= the largest supported number of block columns `k`).
    pub block_cols_max: usize,
    /// SISO radix.
    pub radix: SisoRadix,
    /// Fixed-point message arithmetic of the SISO datapath.
    pub arithmetic: FixedBpArithmetic,
    /// Pipeline options (overlap, shifter latency, layer order).
    pub pipeline: PipelineOptions,
    /// Maximum iterations per frame (the paper uses 10).
    pub max_iterations: usize,
    /// Early-termination rule (§IV); `None` always runs `max_iterations`.
    pub early_termination: Option<EarlyTermination>,
}

impl DatapathConfig {
    /// The paper's multi-mode decoder: 96 Radix-4 lanes at up to 450 MHz,
    /// covering every IEEE 802.16e and 802.11n mode, the 8-bit ⊟ SISO
    /// datapath with argmin exclusion (`FixedBpArithmetic::default()`),
    /// 10 iterations, early termination enabled.
    ///
    /// # Panics
    ///
    /// Panics if the standard mode set cannot be constructed (it always can).
    #[must_use]
    pub fn paper_default() -> Self {
        let rom = ModeRom::from_modes(&paper_mode_ids()).expect("standard mode set is buildable");
        DatapathConfig {
            z_max: 96,
            lambda_slots_per_lane: rom.max_nnz_blocks(),
            block_cols_max: 24,
            radix: SisoRadix::Radix4,
            arithmetic: FixedBpArithmetic::default(),
            pipeline: PipelineOptions::default(),
            max_iterations: 10,
            early_termination: Some(EarlyTermination::default()),
        }
    }
}

/// The CodeIds of the paper's multi-mode decoder (every 802.16e and 802.11n
/// mode).
#[must_use]
pub fn paper_mode_ids() -> Vec<CodeId> {
    let mut ids = CodeId::all_modes(ldpc_codes::Standard::Wimax80216e);
    ids.extend(CodeId::all_modes(ldpc_codes::Standard::Wifi80211n));
    ids
}

/// Result of decoding one frame on the ASIC model.
#[derive(Debug, Clone, PartialEq)]
pub struct AsicDecodeOutput {
    /// Hard decisions for every code bit.
    pub hard_bits: Vec<u8>,
    /// Full iterations executed.
    pub iterations: usize,
    /// Whether the hard decisions satisfy every parity check.
    pub parity_satisfied: bool,
    /// Whether the early-termination rule stopped the decode.
    pub early_terminated: bool,
    /// Number of SISO lanes that were active (= `z` of the configured code).
    pub active_lanes: usize,
    /// Cycle breakdown from the pipeline model (for the iterations actually
    /// executed).
    pub cycles: CycleReport,
    /// L-memory access counts.
    pub l_mem_activity: MemoryActivity,
    /// Λ-memory access counts.
    pub lambda_activity: MemoryActivity,
    /// Circular-shifter rotations performed.
    pub shifter_rotations: u64,
    /// Datapath utilisation relative to always running `max_iterations`
    /// (drives the early-termination power saving of Fig. 9a).
    pub utilization: f64,
}

/// The reconfigurable multi-standard LDPC decoder (Fig. 7).
#[derive(Debug, Clone)]
pub struct AsicLdpcDecoder {
    datapath: DatapathConfig,
    rom: ModeRom,
    current: Option<DecoderModeConfig>,
    l_mem: LMemory,
    lambda_mem: LambdaMemory,
    shifter: CircularShifter,
    pipeline: PipelineModel,
}

impl AsicLdpcDecoder {
    /// Builds a decoder instance from a datapath configuration and a mode ROM.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::CodeTooLarge`] if any ROM mode needs more lanes,
    /// Λ slots or L-memory words than the datapath provides.
    pub fn new(datapath: DatapathConfig, rom: ModeRom) -> Result<Self, ArchError> {
        for mode in rom.modes() {
            if mode.z > datapath.z_max {
                return Err(ArchError::CodeTooLarge {
                    z: mode.z,
                    z_max: datapath.z_max,
                });
            }
            if mode.nnz_blocks > datapath.lambda_slots_per_lane
                || mode.block_cols > datapath.block_cols_max
            {
                return Err(ArchError::CodeTooLarge {
                    z: mode.z,
                    z_max: datapath.z_max,
                });
            }
        }
        let l_mem = LMemory::new(datapath.block_cols_max, datapath.z_max);
        let lambda_mem = LambdaMemory::new(datapath.z_max, datapath.lambda_slots_per_lane.max(1));
        let shifter = CircularShifter::with_pipeline_stages(
            datapath.z_max,
            datapath.pipeline.shifter_latency.max(1),
        );
        let pipeline = PipelineModel::new(datapath.pipeline.clone());
        Ok(AsicLdpcDecoder {
            datapath,
            rom,
            current: None,
            l_mem,
            lambda_mem,
            shifter,
            pipeline,
        })
    }

    /// Builds the paper's multi-mode decoder (96 R4 lanes, full 802.16e +
    /// 802.11n mode ROM).
    ///
    /// # Errors
    ///
    /// Propagates mode-ROM construction failures (none for the standard set).
    pub fn paper_multimode() -> Result<Self, ArchError> {
        let datapath = DatapathConfig::paper_default();
        let rom = ModeRom::from_modes(&paper_mode_ids()).map_err(|e| ArchError::UnknownMode {
            requested: e.to_string(),
        })?;
        Self::new(datapath, rom)
    }

    /// The datapath parameters.
    #[must_use]
    pub fn datapath(&self) -> &DatapathConfig {
        &self.datapath
    }

    /// The mode ROM.
    #[must_use]
    pub fn mode_rom(&self) -> &ModeRom {
        &self.rom
    }

    /// The currently configured mode, if any.
    #[must_use]
    pub fn current_mode(&self) -> Option<&DecoderModeConfig> {
        self.current.as_ref()
    }

    /// Number of SISO lanes active under the current configuration (0 if not
    /// configured). Inactive lanes and their Λ banks are clock-gated, which
    /// is the distributed-banking power saving of Fig. 9(b).
    #[must_use]
    pub fn active_lanes(&self) -> usize {
        self.current.as_ref().map_or(0, |m| m.z)
    }

    /// Dynamically reconfigures the decoder for a mode stored in the ROM.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownMode`] if the mode is not in the ROM.
    pub fn configure(&mut self, id: &CodeId) -> Result<(), ArchError> {
        let mode = self.rom.lookup(id)?.clone();
        self.current = Some(mode);
        Ok(())
    }

    /// Adds a code to the ROM (if needed) and configures it.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::CodeTooLarge`] if the code exceeds the datapath.
    pub fn configure_code(&mut self, code: &QcCode) -> Result<(), ArchError> {
        if code.z() > self.datapath.z_max {
            return Err(ArchError::CodeTooLarge {
                z: code.z(),
                z_max: self.datapath.z_max,
            });
        }
        if code.nnz_blocks() > self.datapath.lambda_slots_per_lane
            || code.block_cols() > self.datapath.block_cols_max
        {
            return Err(ArchError::CodeTooLarge {
                z: code.z(),
                z_max: self.datapath.z_max,
            });
        }
        let mode = DecoderModeConfig::from_code(code);
        self.rom.add(mode.clone());
        self.current = Some(mode);
        Ok(())
    }

    /// Decodes one frame of channel LLRs through the modelled datapath.
    ///
    /// # Errors
    ///
    /// * [`ArchError::NotConfigured`] if no mode has been configured.
    /// * [`ArchError::LlrLengthMismatch`] if the LLR count is not `n`.
    pub fn decode(&mut self, channel_llrs: &[f64]) -> Result<AsicDecodeOutput, ArchError> {
        let mode = self.current.clone().ok_or(ArchError::NotConfigured)?;
        if channel_llrs.len() != mode.n() {
            return Err(ArchError::LlrLengthMismatch {
                expected: mode.n(),
                actual: channel_llrs.len(),
            });
        }
        let z = mode.z;
        let arith = &self.datapath.arithmetic;

        // Reset per-frame activity and state.
        self.l_mem.reset_activity();
        self.lambda_mem.reset_activity();
        self.shifter.reset_activity();
        self.lambda_mem.clear();

        // Load the channel LLRs, one L-memory word per block column.
        for col in 0..mode.block_cols {
            let word: Vec<i32> = channel_llrs[col * z..(col + 1) * z]
                .iter()
                .map(|&l| i32::from(arith.from_channel(l)))
                .collect();
            self.l_mem.load_word(col, &word);
        }

        // Global Λ slot index of the first entry of each layer.
        let mut entry_offsets = Vec::with_capacity(mode.block_rows);
        let mut acc = 0usize;
        for layer in &mode.layers {
            entry_offsets.push(acc);
            acc += layer.len();
        }

        let info_cols = mode.block_cols - mode.block_rows;
        let mut tracker = self.datapath.early_termination.map(TerminationTracker::new);
        let mut iterations = 0usize;
        let mut early_terminated = false;

        // Memory words hold the codes as `i32`; the datapath arithmetic
        // carries them as `i16` messages.
        let mut row_lambdas: Vec<Vec<i16>> = vec![Vec::new(); z];
        let mut row_out: Vec<i16> = Vec::new();

        for _ in 0..self.datapath.max_iterations {
            for (l, layer) in mode.layers.iter().enumerate() {
                let base_entry = entry_offsets[l];
                for lane_rows in row_lambdas.iter_mut() {
                    lane_rows.clear();
                }
                // Read phase: for every non-zero block of the layer, fetch the
                // L word, rotate it and form λ = L − Λ in every lane.
                let mut shifted_words: Vec<Vec<i32>> = Vec::with_capacity(layer.len());
                for (ei, &(col, shift)) in layer.iter().enumerate() {
                    let word = self.l_mem.read_word(col);
                    let shifted = self.shifter.rotate(&word, shift, z);
                    for (lane, lambdas) in row_lambdas.iter_mut().enumerate().take(z) {
                        let old_lambda = self.lambda_mem.read(lane, base_entry + ei);
                        lambdas.push(arith.sub(shifted[lane] as i16, old_lambda as i16));
                    }
                    shifted_words.push(shifted);
                }
                // Decode phase: every active lane runs its SISO core; then the
                // write-back phase updates Λ banks and L words.
                let mut new_l_words: Vec<Vec<i32>> = shifted_words;
                for lane in 0..z {
                    arith.check_node_update(&row_lambdas[lane], &mut row_out);
                    for (ei, &new_lambda) in row_out.iter().enumerate() {
                        self.lambda_mem
                            .write(lane, base_entry + ei, i32::from(new_lambda));
                        new_l_words[ei][lane] =
                            i32::from(arith.add(row_lambdas[lane][ei], new_lambda));
                    }
                }
                for (ei, &(col, shift)) in layer.iter().enumerate() {
                    let word = self.shifter.rotate_back(&new_l_words[ei], shift, z);
                    self.l_mem.write_word(col, &word);
                }
            }
            iterations += 1;

            if let Some(tracker) = tracker.as_mut() {
                let (decisions, min_abs) = self.info_bit_state(&mode, info_cols);
                if tracker.should_terminate(&decisions, min_abs)
                    && iterations < self.datapath.max_iterations
                {
                    early_terminated = true;
                    break;
                }
            }
        }

        let hard_bits = self.hard_decisions(&mode);
        let parity_satisfied = syndrome_is_zero(&mode, &hard_bits);
        let cycles = self.pipeline.frame_cycles(&mode, iterations);
        let utilization = iterations as f64 / self.datapath.max_iterations as f64;

        Ok(AsicDecodeOutput {
            hard_bits,
            iterations,
            parity_satisfied,
            early_terminated,
            active_lanes: z,
            cycles,
            l_mem_activity: self.l_mem.activity(),
            lambda_activity: self.lambda_mem.activity(),
            shifter_rotations: self.shifter.rotations_performed(),
            utilization,
        })
    }

    fn info_bit_state(&self, mode: &DecoderModeConfig, info_cols: usize) -> (Vec<u8>, f64) {
        let arith = &self.datapath.arithmetic;
        let z = mode.z;
        let mut decisions = Vec::with_capacity(info_cols * z);
        let mut min_abs = f64::INFINITY;
        for word in self.l_mem.snapshot().iter().take(info_cols) {
            for &msg in word.iter().take(z) {
                decisions.push(arith.hard_bit(msg as i16));
                min_abs = min_abs.min(arith.magnitude(msg as i16));
            }
        }
        (decisions, min_abs)
    }

    fn hard_decisions(&self, mode: &DecoderModeConfig) -> Vec<u8> {
        let arith = &self.datapath.arithmetic;
        let z = mode.z;
        let mut bits = Vec::with_capacity(mode.n());
        for word in self.l_mem.snapshot().iter().take(mode.block_cols) {
            for &msg in word.iter().take(z) {
                bits.push(arith.hard_bit(msg as i16));
            }
        }
        bits
    }
}

/// Checks `H·xᵀ = 0` directly from the mode record.
fn syndrome_is_zero(mode: &DecoderModeConfig, bits: &[u8]) -> bool {
    let z = mode.z;
    for layer in &mode.layers {
        for r in 0..z {
            let mut parity = 0u8;
            for &(col, shift) in layer {
                parity ^= bits[col * z + (r + shift) % z] & 1;
            }
            if parity != 0 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_channel::awgn::AwgnChannel;
    use ldpc_channel::workload::FrameSource;
    use ldpc_codes::{CodeId, CodeRate, Standard};
    use ldpc_core::decoder::{DecoderConfig, LayeredDecoder};

    fn small_decoder() -> (AsicLdpcDecoder, QcCode) {
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap();
        let mut datapath = DatapathConfig::paper_default();
        datapath.lambda_slots_per_lane = datapath.lambda_slots_per_lane.max(code.nnz_blocks());
        let rom = ModeRom::from_modes(&[code.spec().id()]).unwrap();
        let mut dec = AsicLdpcDecoder::new(datapath, rom).unwrap();
        dec.configure(&code.spec().id()).unwrap();
        (dec, code)
    }

    #[test]
    fn decode_requires_configuration() {
        let datapath = DatapathConfig::paper_default();
        let mut dec = AsicLdpcDecoder::new(datapath, ModeRom::new()).unwrap();
        assert_eq!(dec.active_lanes(), 0);
        assert!(matches!(
            dec.decode(&[0.0; 10]),
            Err(ArchError::NotConfigured)
        ));
    }

    #[test]
    fn rejects_wrong_llr_length_and_unknown_mode() {
        let (mut dec, _code) = small_decoder();
        assert!(matches!(
            dec.decode(&[0.0; 3]),
            Err(ArchError::LlrLengthMismatch { .. })
        ));
        let missing = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304);
        assert!(matches!(
            dec.configure(&missing),
            Err(ArchError::UnknownMode { .. })
        ));
    }

    #[test]
    fn rejects_codes_exceeding_the_datapath() {
        let mut datapath = DatapathConfig::paper_default();
        datapath.z_max = 48;
        let rom = ModeRom::from_modes(&[CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304)])
            .unwrap();
        assert!(matches!(
            AsicLdpcDecoder::new(datapath, rom),
            Err(ArchError::CodeTooLarge { .. })
        ));
        // DMB-T (z = 127) does not fit the 96-lane datapath either.
        let dmbt = CodeId::new(Standard::DmbT, CodeRate::R3_5, 7620)
            .build()
            .unwrap();
        let mut dec = AsicLdpcDecoder::paper_multimode().unwrap();
        assert!(matches!(
            dec.configure_code(&dmbt),
            Err(ArchError::CodeTooLarge { z: 127, z_max: 96 })
        ));
    }

    #[test]
    fn asic_model_matches_algorithmic_decoder_bit_exactly() {
        let (mut asic, code) = small_decoder();
        let reference = LayeredDecoder::new(
            asic.datapath().arithmetic.clone(),
            DecoderConfig {
                max_iterations: asic.datapath().max_iterations,
                early_termination: asic.datapath().early_termination,
                stop_on_zero_syndrome: false,
                layer_order: ldpc_core::LayerOrderPolicy::Natural,
            },
        )
        .unwrap();
        let channel = AwgnChannel::from_ebn0_db(2.5, code.rate());
        let mut source = FrameSource::random(&code, 42).unwrap();
        for _ in 0..3 {
            let frame = source.next_frame();
            let llrs = channel.transmit(&frame.codeword, source.noise_rng());
            let asic_out = asic.decode(&llrs).unwrap();
            let ref_out = reference.decode(&code, &llrs).unwrap();
            assert_eq!(asic_out.hard_bits, ref_out.hard_bits);
            assert_eq!(asic_out.iterations, ref_out.iterations);
            assert_eq!(asic_out.early_terminated, ref_out.early_terminated);
            assert_eq!(asic_out.parity_satisfied, ref_out.parity_satisfied);
        }
    }

    #[test]
    fn clean_frames_terminate_early_and_report_activity() {
        let (mut dec, code) = small_decoder();
        // Strong all-zero-codeword LLRs.
        let llrs = vec![10.0; code.n()];
        let out = dec.decode(&llrs).unwrap();
        assert!(out.parity_satisfied);
        assert!(out.early_terminated);
        assert!(out.iterations < 10);
        assert!(out.utilization < 1.0);
        assert_eq!(out.active_lanes, 24);
        assert!(out.cycles.total() > 0);
        assert!(out.l_mem_activity.reads > 0);
        assert!(out.l_mem_activity.writes > 0);
        assert!(out.lambda_activity.total() > 0);
        assert!(out.shifter_rotations > 0);
        assert_eq!(out.hard_bits, vec![0u8; code.n()]);
    }

    #[test]
    fn reconfiguration_switches_active_lanes() {
        let mut dec = AsicLdpcDecoder::paper_multimode().unwrap();
        let small = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
        let large = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304);
        let wifi = CodeId::new(Standard::Wifi80211n, CodeRate::R3_4, 1944);
        dec.configure(&small).unwrap();
        assert_eq!(dec.active_lanes(), 24);
        dec.configure(&large).unwrap();
        assert_eq!(dec.active_lanes(), 96);
        dec.configure(&wifi).unwrap();
        assert_eq!(dec.active_lanes(), 81);
        assert_eq!(dec.current_mode().unwrap().id, wifi);
        assert!(dec.mode_rom().len() >= 88);
    }

    #[test]
    fn noisy_frames_decode_correctly_through_the_datapath() {
        let (mut dec, code) = small_decoder();
        let channel = AwgnChannel::from_ebn0_db(3.0, code.rate());
        let mut source = FrameSource::random(&code, 7).unwrap();
        let mut decoded_errors = 0;
        let mut channel_errors = 0;
        for _ in 0..4 {
            let frame = source.next_frame();
            let llrs = channel.transmit(&frame.codeword, source.noise_rng());
            channel_errors += llrs
                .iter()
                .zip(&frame.codeword)
                .filter(|(&l, &b)| u8::from(l < 0.0) != b)
                .count();
            let out = dec.decode(&llrs).unwrap();
            decoded_errors += out
                .hard_bits
                .iter()
                .zip(&frame.codeword)
                .filter(|(&a, &b)| a != b)
                .count();
        }
        assert!(channel_errors > 0);
        assert!(
            decoded_errors * 10 < channel_errors,
            "ASIC datapath should correct the channel: {decoded_errors} vs {channel_errors}"
        );
    }

    #[test]
    fn utilization_reflects_early_termination() {
        let (mut dec, code) = small_decoder();
        let clean = vec![10.0; code.n()];
        // Conflicting low-confidence LLRs: the decoder needs more iterations
        // than on the clean frame (and may not converge at all).
        let noisy: Vec<f64> = (0..code.n())
            .map(|i| if i % 3 == 0 { -0.6 } else { 0.4 })
            .collect();
        let out_clean = dec.decode(&clean).unwrap();
        let out_noisy = dec.decode(&noisy).unwrap();
        assert!(out_clean.iterations < 10);
        assert!(out_clean.utilization <= out_noisy.utilization);
        assert!(out_clean.iterations <= out_noisy.iterations);
        assert!((out_clean.utilization - out_clean.iterations as f64 / 10.0).abs() < 1e-12);
    }
}
