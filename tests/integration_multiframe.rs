//! Frame-major multi-frame engine integration: decoding a `FrameGroup` must
//! be **bit-identical** to sequential single-frame `decode_into`, for every
//! arithmetic back-end, across the standard WiMAX/WiFi code set, batch sizes
//! 1/3/8/64 (including ragged tails — batches that are not a multiple of the
//! preferred group width), with per-frame early termination dropping
//! converged frames out of the group independently.

use ldpc::prelude::*;
use ldpc_core::group_width_for;

/// The standard code set: one WiFi-class and two WiMAX-class modes with
/// different `z` (27 / 24 / 48), so the group-width heuristic picks different
/// widths and every batch size produces ragged tails somewhere.
fn code_set() -> Vec<QcCode> {
    [
        CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648),
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576),
        CodeId::new(Standard::Wimax80216e, CodeRate::R3_4, 1152),
    ]
    .into_iter()
    .map(|id| id.build().unwrap())
    .collect()
}

/// Deterministic noisy LLRs: varied magnitudes, ~8 % sign flips, different
/// per frame, so frames of one group converge at different iterations.
fn noisy_llrs(frames: usize, n: usize) -> Vec<f64> {
    (0..frames * n)
        .map(|i| {
            let sign = if (i * 2654435761) % 101 < 8 {
                -1.0
            } else {
                1.0
            };
            sign * (0.25 + (i % 23) as f64 * 0.25)
        })
        .collect()
}

/// Sweeps `arith` over the code set and batch sizes 1/3/8/64, asserting that
/// both the whole-batch group decode (`decode_group_into`, one group of the
/// full batch) and the engine's regrouped batch path
/// (`decode_batch_into_threads`, heuristic widths with ragged tails) are
/// bit-identical to sequential single-frame `decode_into` on every frame.
fn assert_group_path_matches_sequential<A>(arith: A, label: &str)
where
    A: LaneKernel + Clone + Sync,
{
    for code in code_set() {
        let compiled = code.compile();
        let decoder = LayeredDecoder::new(arith.clone(), DecoderConfig::default()).unwrap();
        let llrs = noisy_llrs(64, compiled.n());
        let mut seq_ws = decoder.workspace_for(&compiled);
        let mut group_ws = decoder.workspace_for(&compiled);
        let mut seq_out = DecodeOutput::empty();
        for frames in [1usize, 3, 8, 64] {
            let batch = LlrBatch::new(&llrs[..frames * compiled.n()], compiled.n()).unwrap();

            // Reference: sequential single-frame decoding.
            let mut sequential = Vec::with_capacity(frames);
            for i in 0..frames {
                decoder
                    .decode_into(&compiled, batch.frame(i), &mut seq_ws, &mut seq_out)
                    .unwrap();
                sequential.push(seq_out.clone());
            }

            // One group holding the whole batch (maximum compaction churn).
            let mut grouped = vec![DecodeOutput::empty(); frames];
            decoder
                .decode_group_into(
                    &compiled,
                    batch.frames_slice(0, frames),
                    &mut group_ws,
                    &mut grouped,
                )
                .unwrap();
            assert_eq!(
                grouped,
                sequential,
                "{label}: whole-batch group diverged, n={} frames={frames}",
                compiled.n()
            );

            // The engine path: heuristic group widths, ragged tail included.
            let mut batched = vec![DecodeOutput::empty(); frames];
            decoder
                .decode_batch_into_threads(&compiled, batch, &mut batched, 1)
                .unwrap();
            assert_eq!(
                batched,
                sequential,
                "{label}: regrouped batch diverged, n={} frames={frames} width={}",
                compiled.n(),
                decoder.preferred_group_width(&compiled)
            );
        }
    }
}

#[test]
fn group_path_matches_sequential_float_bp() {
    assert_group_path_matches_sequential(FloatBpArithmetic::default(), "float BP");
}

#[test]
fn group_path_matches_sequential_fixed_bp_sum_extract() {
    assert_group_path_matches_sequential(FixedBpArithmetic::default(), "fixed BP ⊟-extract");
}

#[test]
fn group_path_matches_sequential_fixed_bp_forward_backward() {
    assert_group_path_matches_sequential(FixedBpArithmetic::forward_backward(), "fixed BP fwd/bwd");
}

#[test]
fn group_path_matches_sequential_float_min_sum() {
    assert_group_path_matches_sequential(FloatMinSumArithmetic::default(), "float min-sum");
}

#[test]
fn group_path_matches_sequential_fixed_min_sum() {
    assert_group_path_matches_sequential(FixedMinSumArithmetic::default(), "fixed min-sum");
}

/// Per-frame early termination must act independently inside a group: with a
/// mix of clean and noisy frames, the clean ones stop after two iterations
/// and drop out while the noisy ones keep iterating — and every output still
/// matches sequential decoding exactly (iterations, flags, stats and bits).
#[test]
fn early_termination_drops_frames_out_independently() {
    let code = code_set().remove(1);
    let compiled = code.compile();
    let decoder = LayeredDecoder::new(
        FixedBpArithmetic::forward_backward(),
        DecoderConfig::paper_early_termination(),
    )
    .unwrap();
    let n = compiled.n();
    // Frames 0/2/4: trivially clean (strong positive LLRs). Frames 1/3/5:
    // noisy enough to need several iterations.
    let noisy = noisy_llrs(6, n);
    let mut llrs = vec![0.0f64; 6 * n];
    for f in 0..6 {
        for c in 0..n {
            llrs[f * n + c] = if f % 2 == 0 { 8.0 } else { noisy[f * n + c] };
        }
    }
    let mut ws = decoder.workspace_for(&compiled);
    let mut grouped = vec![DecodeOutput::empty(); 6];
    decoder
        .decode_group_into(&compiled, &llrs, &mut ws, &mut grouped)
        .unwrap();

    let mut seq_ws = decoder.workspace_for(&compiled);
    let mut seq = DecodeOutput::empty();
    for (f, out) in grouped.iter().enumerate() {
        decoder
            .decode_into(&compiled, &llrs[f * n..(f + 1) * n], &mut seq_ws, &mut seq)
            .unwrap();
        assert_eq!(out, &seq, "frame {f}");
    }
    for f in [0, 2, 4] {
        assert!(grouped[f].early_terminated, "clean frame {f} stops early");
        assert_eq!(grouped[f].iterations, 2);
    }
    let max_noisy = [1, 3, 5]
        .iter()
        .map(|&f| grouped[f].iterations)
        .max()
        .unwrap();
    assert!(
        max_noisy > 2,
        "noisy frames must outlive the clean ones (got {max_noisy} iterations)"
    );
    // The per-frame stats reflect the individual iteration counts, i.e. the
    // dropped-out frames really skipped the remaining iterations.
    for out in &grouped {
        assert_eq!(
            out.stats.sub_iterations,
            out.iterations * compiled.block_rows()
        );
        assert_eq!(
            out.stats.messages_processed,
            out.iterations * code.num_edges()
        );
    }
}

/// The zero-syndrome stop is also applied per frame inside a group.
#[test]
fn group_path_matches_sequential_with_syndrome_stop_and_stall_order() {
    let code = code_set().remove(0);
    let compiled = code.compile();
    let config = DecoderConfig {
        stop_on_zero_syndrome: true,
        layer_order: LayerOrderPolicy::StallMinimizing,
        ..DecoderConfig::default()
    };
    let decoder = LayeredDecoder::new(FixedBpArithmetic::default(), config).unwrap();
    let llrs = noisy_llrs(8, compiled.n());
    let mut ws = decoder.workspace_for(&compiled);
    let mut grouped = vec![DecodeOutput::empty(); 8];
    decoder
        .decode_group_into(&compiled, &llrs, &mut ws, &mut grouped)
        .unwrap();
    let mut seq_ws = decoder.workspace_for(&compiled);
    let mut seq = DecodeOutput::empty();
    for (f, out) in grouped.iter().enumerate() {
        decoder
            .decode_into(
                &compiled,
                &llrs[f * compiled.n()..(f + 1) * compiled.n()],
                &mut seq_ws,
                &mut seq,
            )
            .unwrap();
        assert_eq!(out, &seq, "frame {f}");
    }
}

/// The group width heuristic targets full vectors: fixed-point back-ends get
/// groups sized by `z`, float back-ends (scalar fallback kernels) stay
/// frame-serial.
#[test]
fn preferred_group_widths_follow_the_heuristic() {
    for code in code_set() {
        let compiled = code.compile();
        let fixed =
            LayeredDecoder::new(FixedBpArithmetic::default(), DecoderConfig::default()).unwrap();
        assert_eq!(
            fixed.preferred_group_width(&compiled),
            group_width_for(compiled.z()),
            "z={}",
            compiled.z()
        );
        assert!(fixed.preferred_group_width(&compiled) > 1, "small z groups");
        let float =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        assert_eq!(float.preferred_group_width(&compiled), 1);
    }
}

/// Steady-state group decoding (same code, same group width) must not touch
/// the allocator, exactly like the single-frame path.
#[test]
fn group_decode_allocation_fingerprint_is_stable() {
    let code = code_set().remove(1);
    let compiled = code.compile();
    let decoder =
        LayeredDecoder::new(FixedMinSumArithmetic::default(), DecoderConfig::default()).unwrap();
    let llrs = noisy_llrs(8, compiled.n());
    let mut ws = decoder.workspace_for(&compiled);
    let mut outs = vec![DecodeOutput::empty(); 8];
    decoder
        .decode_group_into(&compiled, &llrs, &mut ws, &mut outs)
        .unwrap();
    let fingerprint = ws.allocation_fingerprint();
    for _ in 0..3 {
        decoder
            .decode_group_into(&compiled, &llrs, &mut ws, &mut outs)
            .unwrap();
    }
    assert_eq!(
        fingerprint,
        ws.allocation_fingerprint(),
        "steady-state group decoding must not reallocate"
    );
}

/// Shape validation: the group LLR slice must hold exactly one frame per
/// output.
#[test]
fn group_decode_rejects_bad_shapes() {
    let code = code_set().remove(1);
    let compiled = code.compile();
    let decoder =
        LayeredDecoder::new(FixedBpArithmetic::default(), DecoderConfig::default()).unwrap();
    let llrs = vec![1.0; 3 * compiled.n() - 1];
    let mut ws = decoder.workspace_for(&compiled);
    let mut outs = vec![DecodeOutput::empty(); 3];
    assert!(decoder
        .decode_group_into(&compiled, &llrs, &mut ws, &mut outs)
        .is_err());
}

/// The flooding decoder keeps the default frame-serial group implementation
/// and stays bit-identical to its own sequential path.
#[test]
fn flooding_group_default_is_sequential() {
    let code = code_set().remove(1);
    let compiled = code.compile();
    let decoder =
        FloodingDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
    assert_eq!(decoder.preferred_group_width(&compiled), 1);
    let llrs = noisy_llrs(4, compiled.n());
    let mut ws = decoder.workspace_for(&compiled);
    let mut grouped = vec![DecodeOutput::empty(); 4];
    decoder
        .decode_group_into(&compiled, &llrs, &mut ws, &mut grouped)
        .unwrap();
    let mut seq = DecodeOutput::empty();
    for (f, out) in grouped.iter().enumerate() {
        decoder
            .decode_into(
                &compiled,
                &llrs[f * compiled.n()..(f + 1) * compiled.n()],
                &mut ws,
                &mut seq,
            )
            .unwrap();
        assert_eq!(out, &seq, "frame {f}");
    }
}
