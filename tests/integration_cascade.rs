//! Cascade integration tests: the SNR-adaptive Min-Sum→BP decoder cascade
//! against its stage decoders, the batch engine and the serving layer,
//! through the `ldpc` facade.
//!
//! Pins the cascade contract end to end:
//!
//! * frames the cheap stage-1 Min-Sum converges are **bit-identical** to a
//!   plain Min-Sum decoder run with the same budget;
//! * escalated frames are **bit-identical** to running the fixed-BP stage
//!   directly on the handoff LLRs — escalation re-quantizes nothing;
//! * outputs are stable across decode-pool thread counts and ragged batch
//!   sizes;
//! * the sharded service with a cascade policy reproduces direct cascade
//!   `decode_batch` calls output-for-output and reports the per-shard
//!   escalation counters.

use std::collections::HashMap;

use ldpc::channel::workload::SnrProfile;
use ldpc::prelude::*;

const EBN0_DB: f64 = 2.0;

fn code() -> QcCode {
    CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
        .build()
        .unwrap()
}

/// A waterfall-region batch: noisy enough that stage-1 Min-Sum fails some
/// frames (exercising escalation) but converges most of them.
fn batch_llrs(code: &QcCode, frames: usize, seed: u64) -> Vec<f64> {
    let channel = AwgnChannel::from_ebn0_db(EBN0_DB, code.rate());
    let mut source = FrameSource::random(code, seed).unwrap();
    source.next_block(&channel, frames).llrs
}

#[test]
fn converged_frames_match_plain_min_sum_and_escalated_match_fixed_bp_on_handoff_llrs() {
    let code = code();
    let compiled = code.compile();
    let llrs = batch_llrs(&code, 32, 5);
    let batch = LlrBatch::new(&llrs, code.n()).unwrap();

    let cascade = CascadeConfig::default().decoder();
    let outputs = cascade.decode_batch(&compiled, batch).unwrap();

    // Stage 1 reference: plain Min-Sum with the cascade's stage-1 budget.
    let min_sum =
        LayeredDecoder::new(FixedMinSumArithmetic::default(), *cascade.stage1().config()).unwrap();
    let stage1 = min_sum.decode_batch(&compiled, batch).unwrap();

    // Stage 2 reference: fixed BP run directly on the handoff LLRs of the
    // frames stage 1 failed.
    let fixed_bp = LayeredDecoder::new(
        FixedBpArithmetic::forward_backward(),
        *cascade.stage2().config(),
    )
    .unwrap();

    let mut converged = 0usize;
    let mut escalated = 0usize;
    for (f, out) in stage1.iter().enumerate() {
        let frame_llrs = &llrs[f * code.n()..(f + 1) * code.n()];
        if out.parity_satisfied {
            converged += 1;
            assert_eq!(outputs[f], *out, "frame {f} should keep its stage-1 output");
        } else {
            escalated += 1;
            let handoff: Vec<f64> = frame_llrs.iter().map(|&l| cascade.handoff_llr(l)).collect();
            let reference = fixed_bp.decode(&code, &handoff).unwrap();
            assert_eq!(
                outputs[f], reference,
                "frame {f} should decode exactly as fixed BP on the handoff LLRs"
            );
        }
    }
    assert!(converged > 0, "batch too noisy to pin the stage-1 path");
    assert!(escalated > 0, "batch too clean to pin the escalation path");

    let stats = cascade.stats();
    assert_eq!(stats.stage_frames[0], 32);
    assert_eq!(stats.stage_frames[1], escalated as u64);
    assert_eq!(stats.escalations, escalated as u64);
}

#[test]
fn outputs_are_stable_across_thread_counts_and_ragged_batches() {
    let code = code();
    let compiled = code.compile();
    let cascade = CascadeConfig::default().decoder();

    // Ragged sizes: not multiples of the group width or chunking quantum.
    for frames in [1usize, 7, 33] {
        let llrs = batch_llrs(&code, frames, 11 + frames as u64);
        let batch = LlrBatch::new(&llrs, code.n()).unwrap();

        let mut reference: Vec<DecodeOutput> = (0..frames).map(|_| DecodeOutput::empty()).collect();
        cascade
            .decode_batch_into_threads(&compiled, batch, &mut reference, 1)
            .unwrap();
        for threads in [2usize, 4] {
            let mut outputs: Vec<DecodeOutput> =
                (0..frames).map(|_| DecodeOutput::empty()).collect();
            cascade
                .decode_batch_into_threads(&compiled, batch, &mut outputs, threads)
                .unwrap();
            assert_eq!(
                outputs, reference,
                "{frames} frames must decode identically under {threads} threads"
            );
        }
    }
}

#[test]
fn cascade_service_is_bit_identical_to_direct_decode_batch() {
    let modes = [
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576),
        CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648),
    ];
    let policy = CascadeConfig::default();

    let mut builder = DecodeService::builder(policy);
    for id in modes {
        builder = builder.register(id).unwrap();
    }
    let service = builder.build().unwrap();

    // Mixed-mode traffic whose per-frame SNR follows the serving mix, so the
    // service exercises both the cheap path and escalation.
    let mut traffic = MixedTraffic::new(9);
    for id in modes {
        traffic
            .add_mode_with_snr(id, SnrProfile::serving_mix(), 1)
            .unwrap();
    }

    let mut handles = Vec::new();
    let mut per_mode_llrs: HashMap<CodeId, Vec<f64>> = HashMap::new();
    let mut order: Vec<(CodeId, usize)> = Vec::new();
    for _ in 0..40 {
        let (id, llrs) = traffic.next_frame();
        let mode_buf = per_mode_llrs.entry(id).or_default();
        order.push((id, mode_buf.len() / id.n));
        mode_buf.extend_from_slice(&llrs);
        handles.push(service.submit(id, llrs, ()).unwrap());
    }
    let outcomes: Vec<DecodeOutcome> = handles.into_iter().map(FrameHandle::wait).collect();
    let stats = service.shutdown();

    // Reference: direct cascade decode_batch per mode on a fresh instance.
    let reference_decoder = policy.decoder();
    let mut reference: HashMap<CodeId, Vec<DecodeOutput>> = HashMap::new();
    for (&id, llrs) in &per_mode_llrs {
        let compiled = id.build().unwrap().compile();
        let batch = LlrBatch::new(llrs, id.n).unwrap();
        reference.insert(
            id,
            reference_decoder.decode_batch(&compiled, batch).unwrap(),
        );
    }
    for ((id, frame_idx), outcome) in order.into_iter().zip(outcomes) {
        let out = outcome.into_output().expect("every frame decoded");
        assert_eq!(
            out, reference[&id][frame_idx],
            "service output for {id} frame {frame_idx} differs from direct decode_batch"
        );
    }

    // The per-shard counters must account for every decoded frame, and the
    // serving mix is noisy enough that some frames escalated somewhere.
    let decoded: u64 = stats.iter().map(|s| s.decoded).sum();
    let stage1: u64 = stats.iter().map(|s| s.cascade_stage_frames[0]).sum();
    let escalations: u64 = stats.iter().map(|s| s.cascade_escalations).sum();
    assert_eq!(decoded, 40);
    assert_eq!(stage1, decoded, "every frame enters stage 1");
    assert!(escalations > 0, "serving mix should escalate some frames");
    assert_eq!(
        escalations,
        reference_decoder.stats().escalations,
        "shard counters must match the reference decoder on identical frames"
    );
}
