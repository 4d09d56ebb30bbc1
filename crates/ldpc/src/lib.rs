//! # ldpc — a reconfigurable multi-standard LDPC decoder, reproduced in Rust
//!
//! This facade crate re-exports the full reproduction of Sun & Cavallaro's
//! SOCC 2008 paper *"A low-power 1-Gbps reconfigurable LDPC decoder design
//! for multiple 4G wireless standards"*:
//!
//! * [`codes`] — quasi-cyclic block-structured LDPC code constructions for
//!   the IEEE 802.11n / 802.16e / DMB-T families (Table 1) and a systematic
//!   encoder;
//! * [`channel`] — BPSK/AWGN channel, LLR computation and Monte-Carlo
//!   workload generation;
//! * [`core`] — the layered belief-propagation decoder built from ⊞/⊟
//!   recursions with 3-bit LUTs, the Radix-2/Radix-4 SISO core models, the
//!   Min-Sum baseline, the early-termination rule and the SNR-adaptive
//!   Min-Sum→BP decoder cascade;
//! * [`arch`] — the ASIC architecture model: distributed SISO lanes and
//!   Λ-memory banks, central L-memory, circular shifter, reconfiguration
//!   controller, cycle-accurate pipeline, and the calibrated area / power /
//!   energy models behind Table 2, Table 3 and Fig. 9;
//! * [`serve`] — the serving layer: a multi-code sharded
//!   [`DecodeService`](ldpc_serve::DecodeService) with bounded per-mode frame
//!   queues, per-mode SLO/priority scheduling policies
//!   ([`ShardPolicy`](ldpc_serve::ShardPolicy)), micro-batching dispatch
//!   workers, deadline-aware load shedding, backpressure, per-mode latency
//!   percentiles and a draining shutdown.
//!
//! ## Quickstart — single frame
//!
//! ```
//! use ldpc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the WiMax-class rate-1/2, 576-bit code and a decoder.
//! let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576).build()?;
//! let decoder = LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default())?;
//!
//! // Encode a random frame, push it through a 2.5 dB AWGN channel, decode.
//! let mut source = FrameSource::random(&code, 7)?;
//! let channel = AwgnChannel::from_ebn0_db(2.5, code.rate());
//! let frame = source.next_frame();
//! let llrs = channel.transmit(&frame.codeword, source.noise_rng());
//! let out = decoder.decode(&code, &llrs)?;
//! assert_eq!(out.hard_bits.len(), code.n());
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart — the batched decode engine
//!
//! Every decoder (layered and flooding schedule alike) implements the
//! [`Decoder`](ldpc_core::engine::Decoder) trait. For throughput, compile the
//! code once, generate frames in blocks and decode whole batches: the
//! compiled schedule replaces per-frame shift arithmetic with table lookups,
//! per-worker [`DecodeWorkspace`](ldpc_core::workspace::DecodeWorkspace)s make
//! steady-state decoding allocation-free, and frames spread across OS threads
//! (override the worker count with `LDPC_DECODE_THREADS`).
//!
//! ```
//! use ldpc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576).build()?;
//! let compiled = code.compile();
//! let decoder = LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default())?;
//!
//! // A block of 8 frames and their channel LLRs in one flat buffer.
//! let channel = AwgnChannel::from_ebn0_db(2.5, code.rate());
//! let mut source = FrameSource::random(&code, 7)?;
//! let block = source.next_block(&channel, 8);
//!
//! let outputs = decoder.decode_batch(&compiled, LlrBatch::new(&block.llrs, code.n())?)?;
//! let errors: usize = outputs
//!     .iter()
//!     .enumerate()
//!     .map(|(i, o)| o.bit_errors_against(block.codeword(i)))
//!     .sum();
//! assert_eq!(outputs.len(), 8);
//! assert_eq!(errors, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ldpc_arch as arch;
pub use ldpc_channel as channel;
pub use ldpc_codes as codes;
pub use ldpc_core as core;
pub use ldpc_serve as serve;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use ldpc_arch::{
        AreaModel, AsicLdpcDecoder, CircularShifter, DatapathConfig, EnergyReport, ModeRom,
        PipelineModel, PipelineOptions, PowerModel, ThroughputModel,
    };
    pub use ldpc_channel::{
        awgn::AwgnChannel, quantize::LlrQuantizer, stats::ErrorCounter, stats::IterationHistogram,
        workload::BurstProfile, workload::FrameBlock, workload::FrameSource, workload::HarqTraffic,
        workload::HarqTx, workload::MixedTraffic,
    };
    pub use ldpc_codes::{
        CodeId, CodeRate, CompiledCode, Encoder, LayerSchedule, PuncturePattern, QcCode, Standard,
    };
    pub use ldpc_core::{
        decoder::{DecoderConfig, LayeredDecoder},
        kernel_tier, CascadeConfig, CascadeDecoder, CascadeStats, CheckNodeMode, DecodeOutput,
        DecodeWorkspace, Decoder, DecoderArithmetic, EarlyTermination, FixedBpArithmetic,
        FixedMinSumArithmetic, FloatBpArithmetic, FloatMinSumArithmetic, FloodingDecoder,
        HarqCombiner, LaneKernel, LaneScratch, LayerOrderPolicy, LlrBatch, R2Siso, R4Siso,
        SimdLevel, SisoRadix,
    };
    pub use ldpc_serve::{
        DecodeOutcome, DecodeService, DecoderPolicy, FrameHandle, HarqKey, LatencyStats, Priority,
        RetryPolicy, ServeError, ServiceConfig, ShardPolicy, ShardStats, SoftBufferStats,
        SubmitError, SubmitOptions,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let id = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
        assert!(id.is_supported());
        let _ = FloatBpArithmetic::default();
        let _ = PowerModel::paper_90nm();
        let _ = AreaModel::paper_90nm();
        let _ = RetryPolicy::default();
        let _ = HarqKey::new(7, 0);
        let _ = HarqCombiner::new(127);
    }
}
