//! # ldpc-core — layered belief-propagation LDPC decoding
//!
//! This crate is the software model of the paper's primary contribution: a
//! layered belief-propagation (LBP) decoder for block-structured LDPC codes
//! built from ⊞/⊟ (`f`/`g`) check-node recursions with 3-bit correction LUTs,
//! executed by Radix-2 or Radix-4 SISO decoder cores under a block-serial
//! schedule, with an LLR-based early-termination rule for power saving.
//!
//! The crate is organised in layers:
//!
//! * [`fixedpoint`] / [`boxplus`] / [`lut`] — the arithmetic primitives: the
//!   8-bit message format, the exact ⊞/⊟ operators and their 3-bit LUT
//!   approximations,
//! * [`arith`] — interchangeable decoder arithmetics: full BP (float and
//!   bit-accurate fixed point) and the normalized Min-Sum baseline, plus the
//!   lane-parallel [`LaneKernel`] slice kernels the layered engine runs on
//!   (the software analogue of the paper's `z`-wide SISO array) and the
//!   explicit-SIMD kernel tier underneath them ([`arith::simd`]: 16-bit
//!   panels on AVX2 and SSE4.1 with `pshufb` LUT lookups, scalar fallback —
//!   selected once per process by runtime dispatch, bit-identical across
//!   tiers),
//! * [`decoder`] — the layered decoder itself (Algorithm 1), lane-major hot
//!   loop plus the row-serial reference kernel,
//! * [`flooding`] — the two-phase baseline schedule,
//! * [`engine`] — the [`Decoder`] trait unifying both schedules, with the
//!   zero-allocation `decode_into` kernel and thread-parallel `decode_batch`,
//! * [`cascade`] — the SNR-adaptive stage ladder (cheap fixed Min-Sum first,
//!   fixed-BP escalation for syndrome failures, optional float-BP last
//!   resort), a [`Decoder`] itself so every batch entry point and the
//!   serving layer run it unchanged,
//! * [`group`] — the frame-major SoA multi-frame layout: `F` frames
//!   interleaved frame-innermost so the lane kernels run over `z · F`-lane
//!   panels (full vectors even at small `z`), with per-frame early
//!   termination compacting converged frames out of the group,
//! * [`workspace`] — the reusable L/Λ/lane buffer set behind the
//!   zero-allocation guarantee,
//! * [`pool`] — per-mode workspace pooling (internally striped so parallel
//!   batch workers don't serialize on one mutex), so repeated `decode_batch`
//!   calls of one mode allocate nothing at all,
//! * [`threadpool`] — the persistent process-wide decode worker pool behind
//!   `decode_batch`: spawned once, parked when idle, chunk-stealing fan-out,
//!   optional core pinning via `LDPC_PIN_THREADS`,
//! * [`siso`] — cycle-annotated models of the Radix-2 / Radix-4 SISO cores,
//! * [`early_term`] — the early-termination rule of §IV,
//! * [`schedule`] — layer-ordering policies (natural / stall-minimizing).
//!
//! ```
//! use ldpc_codes::{CodeId, CodeRate, Standard};
//! use ldpc_core::arith::FixedBpArithmetic;
//! use ldpc_core::decoder::{DecoderConfig, LayeredDecoder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576).build()?;
//! let decoder = LayeredDecoder::new(FixedBpArithmetic::default(), DecoderConfig::default())?;
//! // A trivially clean channel: strong positive LLRs = all-zero codeword.
//! let llrs = vec![8.0; code.n()];
//! let out = decoder.decode(&code, &llrs)?;
//! assert!(out.parity_satisfied);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: exactly two modules are allowed to opt back
// in, each with a per-block safety argument — the explicit-SIMD kernel tier
// (`arith::simd`, `std::arch` intrinsics) and the persistent decode pool
// (`threadpool`, one scoped-lifetime erasure plus the `sched_setaffinity`
// FFI). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod boxplus;
pub mod cascade;
pub mod combine;
pub mod decoder;
pub mod early_term;
pub mod engine;
mod env;
pub mod error;
pub mod fixedpoint;
pub mod flooding;
pub mod group;
pub mod lut;
pub mod pool;
pub mod result;
pub mod schedule;
pub mod siso;
#[allow(unsafe_code)]
pub mod threadpool;
pub mod workspace;

pub use arith::{
    CheckNodeMode, DecoderArithmetic, FixedBpArithmetic, FixedMinSumArithmetic, FloatBpArithmetic,
    FloatMinSumArithmetic, LaneKernel, LaneScratch, SimdLevel,
};
pub use cascade::{CascadeConfig, CascadeDecoder, CascadeStats};
pub use combine::HarqCombiner;
pub use decoder::{DecoderConfig, LayeredDecoder};
pub use early_term::EarlyTermination;
pub use engine::{batch_threads, kernel_tier, Decoder, LlrBatch, MsgOf};
pub use error::DecodeError;
pub use fixedpoint::FixedFormat;
pub use flooding::FloodingDecoder;
pub use group::{group_width_for, MAX_GROUP_WIDTH, TARGET_PANEL_LANES};
pub use lut::{CorrectionKind, CorrectionLut};
pub use pool::WorkspacePool;
pub use result::{DecodeOutput, DecodeStats};
pub use schedule::LayerOrderPolicy;
pub use siso::{BoxArithmetic, R2Siso, R4Siso, SisoRadix, SisoRowResult};
pub use threadpool::{detected_cores, pin_threads_requested, DecodePool};
pub use workspace::DecodeWorkspace;
