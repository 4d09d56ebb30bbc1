//! Monte-Carlo decoding runs shared by the experiment binaries.
//!
//! The harness runs on the batched decode engine: the layer schedule is
//! compiled once per run ([`ldpc_codes::CompiledCode`]), frames and LLRs are
//! generated in blocks ([`ldpc_channel::FrameBlock`]) and decoded with
//! [`Decoder::decode_batch_into`], which spreads frames across worker threads
//! with one reused workspace each. Results are bit-identical to the old
//! frame-at-a-time loop (same RNG interleaving, same per-frame kernel), just
//! without its per-frame schedule/allocation cost.

use ldpc_channel::awgn::AwgnChannel;
use ldpc_channel::workload::{FrameBlock, FrameSource};
use ldpc_codes::QcCode;
use ldpc_core::arith::LaneKernel;
use ldpc_core::decoder::{DecoderConfig, LayeredDecoder};
use ldpc_core::{DecodeOutput, Decoder, LlrBatch};

/// Frames generated and decoded per batch (bounds peak memory while keeping
/// every worker thread fed).
const BATCH_FRAMES: usize = 32;

/// Configuration of one Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// `Eb/N0` operating point in dB.
    pub ebn0_db: f64,
    /// Number of frames to simulate.
    pub frames: usize,
    /// RNG seed (data and noise streams are derived from it).
    pub seed: u64,
}

/// Aggregated result of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McResult {
    /// Bit-error rate over all transmitted bits.
    pub ber: f64,
    /// Frame-error rate.
    pub fer: f64,
    /// Average number of iterations executed per frame.
    pub avg_iterations: f64,
    /// Number of frames simulated.
    pub frames: usize,
    /// Average channel (uncoded) bit-error rate observed.
    pub channel_ber: f64,
}

/// Returns `true` when two Monte-Carlo BER estimates are statistically
/// indistinguishable at `sigmas` standard deviations.
///
/// Each estimate is a binomial proportion over `frames × bits_per_frame`
/// trials; the two are compared with the classic pooled two-proportion
/// z-test: the difference must not exceed
/// `sigmas · √(p̂(1−p̂)(1/nₐ + 1/n_b))` where `p̂` pools both runs. This is
/// what the cascade waterfall check uses — "matches fixed BP" means the
/// observed BER gap is within Monte-Carlo noise, not bit-identical output
/// (stage-1 Min-Sum converges some frames the BP baseline never sees).
///
/// Two runs that both observed zero errors trivially match.
#[must_use]
pub fn ber_within_confidence(
    a: &McResult,
    b: &McResult,
    bits_per_frame: usize,
    sigmas: f64,
) -> bool {
    let na = (a.frames * bits_per_frame) as f64;
    let nb = (b.frames * bits_per_frame) as f64;
    let pooled = (a.ber * na + b.ber * nb) / (na + nb);
    let sigma = (pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb)).sqrt();
    (a.ber - b.ber).abs() <= sigmas * sigma + f64::EPSILON
}

/// Runs `config.frames` encode → AWGN → decode trials on the batch engine
/// and aggregates the statistics.
///
/// # Panics
///
/// Panics if the code is not encodable or the decoder configuration is
/// invalid — both indicate programming errors in the experiment harness.
#[must_use]
pub fn run_monte_carlo<A: LaneKernel + Sync>(
    arith: A,
    decoder_config: DecoderConfig,
    code: &QcCode,
    config: McConfig,
) -> McResult {
    let decoder = LayeredDecoder::new(arith, decoder_config).expect("valid decoder config");
    run_monte_carlo_with(&decoder, code, config)
}

/// Like [`run_monte_carlo`], but over any [`Decoder`] implementation
/// (layered or flooding schedule).
///
/// # Panics
///
/// Panics if the code is not encodable.
#[must_use]
pub fn run_monte_carlo_with<D: Decoder + Sync>(
    decoder: &D,
    code: &QcCode,
    config: McConfig,
) -> McResult {
    let compiled = code.compile();
    let channel = AwgnChannel::from_ebn0_db(config.ebn0_db, code.rate());
    let mut source = FrameSource::random(code, config.seed).expect("encodable code");

    let mut block = FrameBlock::new();
    let mut outputs: Vec<DecodeOutput> = Vec::new();

    let mut bit_errors = 0usize;
    let mut channel_errors = 0usize;
    let mut frame_errors = 0usize;
    let mut iterations = 0usize;
    let mut remaining = config.frames;
    while remaining > 0 {
        let batch_frames = remaining.min(BATCH_FRAMES);
        source.fill_block(&channel, batch_frames, &mut block);
        channel_errors += block
            .llrs
            .iter()
            .zip(&block.codewords)
            .filter(|(&l, &b)| u8::from(l < 0.0) != b)
            .count();

        outputs.resize_with(batch_frames, DecodeOutput::empty);
        let batch = LlrBatch::new(&block.llrs, code.n()).expect("block shape matches code");
        decoder
            .decode_batch_into(&compiled, batch, &mut outputs)
            .expect("LLR length matches");
        for (i, out) in outputs.iter().enumerate() {
            let errors = out.bit_errors_against(block.codeword(i));
            bit_errors += errors;
            frame_errors += usize::from(errors > 0);
            iterations += out.iterations;
        }
        remaining -= batch_frames;
    }

    let total_bits = (config.frames * code.n()) as f64;
    McResult {
        ber: bit_errors as f64 / total_bits,
        fer: frame_errors as f64 / config.frames as f64,
        avg_iterations: iterations as f64 / config.frames as f64,
        frames: config.frames,
        channel_ber: channel_errors as f64 / total_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{CodeId, CodeRate, Standard};
    use ldpc_core::{FloatBpArithmetic, FloodingDecoder};

    fn code() -> QcCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
            .build()
            .unwrap()
    }

    #[test]
    fn monte_carlo_reports_consistent_statistics() {
        let result = run_monte_carlo(
            FloatBpArithmetic::default(),
            DecoderConfig::default(),
            &code(),
            McConfig {
                ebn0_db: 3.0,
                frames: 4,
                seed: 1,
            },
        );
        assert_eq!(result.frames, 4);
        assert!(result.channel_ber > 0.0);
        assert!(result.ber <= result.channel_ber);
        assert!(result.avg_iterations >= 1.0 && result.avg_iterations <= 10.0);
        assert!(result.fer <= 1.0);
    }

    #[test]
    fn monte_carlo_is_deterministic() {
        let code = code();
        let cfg = McConfig {
            ebn0_db: 2.0,
            frames: 3,
            seed: 9,
        };
        let a = run_monte_carlo(
            FloatBpArithmetic::default(),
            DecoderConfig::default(),
            &code,
            cfg,
        );
        let b = run_monte_carlo(
            FloatBpArithmetic::default(),
            DecoderConfig::default(),
            &code,
            cfg,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn batched_harness_matches_sequential_decoding() {
        // The batch engine must reproduce the frame-at-a-time loop exactly.
        let code = code();
        let cfg = McConfig {
            ebn0_db: 2.5,
            frames: 5,
            seed: 4,
        };
        let batched = run_monte_carlo(
            FloatBpArithmetic::default(),
            DecoderConfig::default(),
            &code,
            cfg,
        );

        let decoder =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        let channel = AwgnChannel::from_ebn0_db(cfg.ebn0_db, code.rate());
        let mut source = FrameSource::random(&code, cfg.seed).unwrap();
        let mut bit_errors = 0usize;
        let mut iterations = 0usize;
        for _ in 0..cfg.frames {
            let frame = source.next_frame();
            let llrs = channel.transmit(&frame.codeword, source.noise_rng());
            let out = decoder.decode(&code, &llrs).unwrap();
            bit_errors += out.bit_errors_against(&frame.codeword);
            iterations += out.iterations;
        }
        let total_bits = (cfg.frames * code.n()) as f64;
        assert_eq!(batched.ber, bit_errors as f64 / total_bits);
        assert_eq!(
            batched.avg_iterations,
            iterations as f64 / cfg.frames as f64
        );
    }

    #[test]
    fn ber_confidence_accepts_noise_and_rejects_real_gaps() {
        let base = McResult {
            ber: 1.0e-3,
            fer: 0.0,
            avg_iterations: 0.0,
            frames: 100,
            channel_ber: 0.0,
        };
        // 1.1e-3 vs 1.0e-3 over 100×576 bits is well inside 3σ …
        let close = McResult {
            ber: 1.1e-3,
            ..base
        };
        assert!(ber_within_confidence(&base, &close, 576, 3.0));
        // … a 5× BER blow-up is not …
        let far = McResult {
            ber: 5.0e-3,
            ..base
        };
        assert!(!ber_within_confidence(&base, &far, 576, 3.0));
        // … and two error-free runs trivially match.
        let zero = McResult { ber: 0.0, ..base };
        assert!(ber_within_confidence(&zero, &zero, 576, 3.0));
    }

    #[test]
    fn cascade_waterfall_matches_straight_fixed_bp() {
        // The cascade must buy throughput, not coding gain: at a
        // waterfall-region operating point its BER has to sit on the straight
        // fixed-BP curve to within Monte-Carlo confidence.
        use ldpc_core::{CascadeConfig, FixedBpArithmetic};

        let code = code();
        let cascade = CascadeConfig::default().decoder();
        let baseline = LayeredDecoder::new(
            FixedBpArithmetic::forward_backward(),
            DecoderConfig::default(),
        )
        .unwrap();
        for ebn0_db in [1.5, 2.0] {
            let cfg = McConfig {
                ebn0_db,
                frames: 120,
                seed: 77,
            };
            let a = run_monte_carlo_with(&cascade, &code, cfg);
            let b = run_monte_carlo_with(&baseline, &code, cfg);
            assert!(
                a.ber > 0.0 || b.ber > 0.0,
                "operating point too clean to be a meaningful comparison"
            );
            assert!(
                ber_within_confidence(&a, &b, code.n(), 4.0),
                "cascade BER {} vs fixed BP {} at {ebn0_db} dB exceeds 4σ",
                a.ber,
                b.ber
            );
        }
    }

    #[test]
    fn generic_harness_runs_the_flooding_schedule() {
        let code = code();
        let decoder = FloodingDecoder::new(
            FloatBpArithmetic::default(),
            DecoderConfig::fixed_iterations(15),
        )
        .unwrap();
        let result = run_monte_carlo_with(
            &decoder,
            &code,
            McConfig {
                ebn0_db: 3.5,
                frames: 3,
                seed: 2,
            },
        );
        assert_eq!(result.frames, 3);
        assert_eq!(result.ber, 0.0, "3.5 dB frames should decode cleanly");
    }
}
