//! Lane-kernel integration: the lane-major layered decode path must be
//! **bit-identical** to the row-serial scalar reference for every arithmetic
//! back-end, across the standard WiMAX/WiFi code set and batch sizes 1/8/64,
//! and must preserve the zero-steady-state-allocation invariant.

use ldpc::core::fixedpoint::FixedFormat;
use ldpc::prelude::*;

/// The standard code set the lane kernels are swept over: one WiMAX-class and
/// one WiFi-class mode (different `z`, different layer structure), plus a
/// larger WiMAX mode for the 64-frame sweep.
fn code_set() -> Vec<QcCode> {
    [
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576),
        CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648),
        CodeId::new(Standard::Wimax80216e, CodeRate::R3_4, 1152),
    ]
    .into_iter()
    .map(|id| id.build().unwrap())
    .collect()
}

/// Deterministic noisy LLRs: varied magnitudes, ~8 % sign flips, different
/// per frame, quantiser-friendly quarter steps.
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

/// Sweeps `arith` over the code set and batch sizes 1/8/64, asserting the
/// lane path (`decode_into` / `decode_batch`) is bit-identical to the
/// row-serial reference kernel on every frame: same hard bits, same posterior
/// LLRs, same iteration counts, same operation statistics.
fn assert_lane_path_matches_reference<A>(arith: A, label: &str)
where
    A: LaneKernel + Clone + Sync,
{
    for code in code_set() {
        let compiled = code.compile();
        let decoder = LayeredDecoder::new(arith.clone(), DecoderConfig::default()).unwrap();
        let llrs = noisy_llrs(64, compiled.n());
        let mut lane_ws = decoder.workspace_for(&compiled);
        let mut ref_ws = decoder.workspace_for(&compiled);
        let mut lane_out = DecodeOutput::empty();
        let mut ref_out = DecodeOutput::empty();
        for frames in [1usize, 8, 64] {
            let batch = LlrBatch::new(&llrs[..frames * compiled.n()], compiled.n()).unwrap();
            let batched = decoder.decode_batch(&compiled, batch).unwrap();
            let mut meaningful = 0usize;
            for (i, out) in batched.iter().enumerate() {
                decoder
                    .decode_into(&compiled, batch.frame(i), &mut lane_ws, &mut lane_out)
                    .unwrap();
                decoder
                    .decode_into_reference(&compiled, batch.frame(i), &mut ref_ws, &mut ref_out)
                    .unwrap();
                assert_eq!(
                    lane_out,
                    ref_out,
                    "{label}: lane vs reference diverged, n={} frame {i}",
                    compiled.n()
                );
                assert_eq!(
                    out,
                    &lane_out,
                    "{label}: batch vs single diverged, n={} frame {i}",
                    compiled.n()
                );
                meaningful += usize::from(ref_out.iterations > 1);
            }
            assert!(
                meaningful > 0 || frames == 1,
                "{label}: workload decoded in one iteration everywhere — too \
                 easy to exercise the lane kernels (n={})",
                compiled.n()
            );
        }
    }
}

#[test]
fn lane_path_matches_reference_float_bp() {
    assert_lane_path_matches_reference(FloatBpArithmetic::default(), "float BP");
}

#[test]
fn lane_path_matches_reference_fixed_bp_argmin() {
    assert_lane_path_matches_reference(FixedBpArithmetic::default(), "fixed BP argmin ⊟");
}

#[test]
fn lane_path_matches_reference_fixed_bp_bare_sum_extract() {
    let bare = FixedBpArithmetic::with_mode(FixedFormat::default(), 3, CheckNodeMode::SumExtract);
    assert_lane_path_matches_reference(bare, "fixed BP bare ⊟");
}

#[test]
fn lane_path_matches_reference_fixed_bp_forward_backward() {
    assert_lane_path_matches_reference(FixedBpArithmetic::forward_backward(), "fixed BP fwd/bwd");
}

#[test]
fn lane_path_matches_reference_float_min_sum() {
    assert_lane_path_matches_reference(FloatMinSumArithmetic::default(), "float min-sum");
}

#[test]
fn lane_path_matches_reference_fixed_min_sum() {
    assert_lane_path_matches_reference(FixedMinSumArithmetic::default(), "fixed min-sum");
}

#[test]
fn lane_path_matches_reference_under_stall_minimizing_order() {
    // Layer reordering changes which APP values each layer sees; the lane
    // path must track the reference through that too.
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
        .build()
        .unwrap();
    let compiled = code.compile();
    let config = DecoderConfig {
        layer_order: LayerOrderPolicy::StallMinimizing,
        stop_on_zero_syndrome: true,
        ..DecoderConfig::default()
    };
    let decoder = LayeredDecoder::new(FixedBpArithmetic::default(), config).unwrap();
    let llrs = noisy_llrs(8, compiled.n());
    let mut lane_ws = decoder.workspace_for(&compiled);
    let mut ref_ws = decoder.workspace_for(&compiled);
    let (mut lane_out, mut ref_out) = (DecodeOutput::empty(), DecodeOutput::empty());
    for frame in llrs.chunks_exact(compiled.n()) {
        decoder
            .decode_into(&compiled, frame, &mut lane_ws, &mut lane_out)
            .unwrap();
        decoder
            .decode_into_reference(&compiled, frame, &mut ref_ws, &mut ref_out)
            .unwrap();
        assert_eq!(lane_out, ref_out);
    }
}

/// The allocation fingerprint must be unchanged across repeated `decode_into`
/// calls on the lane path — for every back-end, including the fixed-point
/// modes whose *scalar* check-node updates allocate transient row buffers
/// (the lane kernels run out of the workspace's `LaneScratch` instead).
fn assert_lane_path_fingerprint_stable<A>(arith: A, label: &str)
where
    A: LaneKernel + Clone + Sync,
{
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
        .build()
        .unwrap();
    let compiled = code.compile();
    let decoder = LayeredDecoder::new(arith, DecoderConfig::default()).unwrap();
    let mut ws = decoder.workspace_for(&compiled);
    let mut out = DecodeOutput::empty();
    let llrs = noisy_llrs(4, compiled.n());
    let frames: Vec<&[f64]> = llrs.chunks_exact(compiled.n()).collect();
    decoder
        .decode_into(&compiled, frames[0], &mut ws, &mut out)
        .unwrap();
    let fingerprint = ws.allocation_fingerprint();
    for _ in 0..3 {
        for frame in &frames {
            decoder
                .decode_into(&compiled, frame, &mut ws, &mut out)
                .unwrap();
        }
    }
    assert_eq!(
        fingerprint,
        ws.allocation_fingerprint(),
        "{label}: steady-state lane decoding must not touch the allocator"
    );
}

#[test]
fn lane_path_allocation_fingerprint_is_stable() {
    assert_lane_path_fingerprint_stable(FloatBpArithmetic::default(), "float BP");
    assert_lane_path_fingerprint_stable(FixedBpArithmetic::default(), "fixed BP argmin ⊟");
    assert_lane_path_fingerprint_stable(FixedBpArithmetic::forward_backward(), "fixed BP fwd/bwd");
    assert_lane_path_fingerprint_stable(FloatMinSumArithmetic::default(), "float min-sum");
    assert_lane_path_fingerprint_stable(FixedMinSumArithmetic::default(), "fixed min-sum");
}
