//! Service-level integration tests: the sharded decode service against the
//! direct batch engine, through the `ldpc` facade.
//!
//! Covers the serving-layer contract end to end:
//!
//! * mixed-mode submissions, whatever their interleaving, produce outputs
//!   **bit-identical** to per-mode sequential `decode_batch` calls;
//! * the bounded ingest queue exerts real backpressure (non-blocking
//!   refusals hand the frame back);
//! * per-frame deadlines expire queued frames instead of decoding them;
//! * shutdown completes every accepted frame;
//! * steady-state serving stops creating decoder workspaces once warm.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ldpc::prelude::*;

fn modes() -> [CodeId; 3] {
    [
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576),
        CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648),
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 1152),
    ]
}

fn traffic(seed: u64) -> MixedTraffic {
    let mut traffic = MixedTraffic::new(seed);
    for id in modes() {
        traffic.add_mode(id, 2.5, 1).expect("supported mode");
    }
    traffic
}

fn decoder() -> LayeredDecoder<FixedBpArithmetic> {
    LayeredDecoder::new(FixedBpArithmetic::default(), DecoderConfig::default()).unwrap()
}

fn service(
    d: &LayeredDecoder<FixedBpArithmetic>,
) -> ldpc::serve::DecodeService<LayeredDecoder<FixedBpArithmetic>> {
    let mut builder = DecodeService::builder(d.clone());
    for id in modes() {
        builder = builder.register(id).unwrap();
    }
    builder.build().unwrap()
}

#[test]
fn mixed_mode_service_results_are_bit_identical_to_sequential_decode_batch() {
    let decoder = decoder();
    let service = service(&decoder);
    let mut traffic = traffic(42);

    // Interleaved submission across all three modes, in traffic order.
    let mut handles = Vec::new();
    let mut per_mode_llrs: HashMap<CodeId, Vec<f64>> = HashMap::new();
    let mut order: Vec<(CodeId, usize)> = Vec::new();
    for _ in 0..48 {
        let (id, llrs) = traffic.next_frame();
        let mode_buf = per_mode_llrs.entry(id).or_default();
        order.push((id, mode_buf.len() / id.n));
        mode_buf.extend_from_slice(&llrs);
        handles.push(service.submit(id, llrs, ()).unwrap());
    }
    let outcomes: Vec<DecodeOutcome> = handles.into_iter().map(FrameHandle::wait).collect();
    let stats = service.shutdown();
    assert_eq!(stats.iter().map(|s| s.decoded).sum::<u64>(), 48);
    assert_eq!(stats.iter().map(|s| s.expired + s.failed).sum::<u64>(), 0);

    // Reference: per-mode sequential decode_batch over the same frames.
    let mut reference: HashMap<CodeId, Vec<DecodeOutput>> = HashMap::new();
    for (&id, llrs) in &per_mode_llrs {
        let compiled = id.build().unwrap().compile();
        let batch = LlrBatch::new(llrs, id.n).unwrap();
        reference.insert(id, decoder.decode_batch(&compiled, batch).unwrap());
    }
    for ((id, frame_idx), outcome) in order.into_iter().zip(outcomes) {
        let out = outcome.into_output().expect("every frame decoded");
        assert_eq!(
            out, reference[&id][frame_idx],
            "service output differs from sequential decode_batch for {id} frame {frame_idx}"
        );
    }
}

#[test]
fn bounded_queue_rejects_when_full_and_recovers() {
    let decoder = decoder();
    let code = modes()[0];
    let service = DecodeService::builder(decoder)
        .start_paused()
        .queue_capacity(3)
        .register(code)
        .unwrap()
        .build()
        .unwrap();

    // Deterministic: the worker is paused, so exactly `queue_capacity`
    // frames are accepted and the next non-blocking submit is refused.
    let mut handles = Vec::new();
    for _ in 0..3 {
        handles.push(
            service
                .submit(code, vec![6.0; code.n], SubmitOptions::new().non_blocking())
                .unwrap(),
        );
    }
    let err = service
        .submit(code, vec![6.0; code.n], SubmitOptions::new().non_blocking())
        .unwrap_err();
    let llrs = err.into_llrs().expect("QueueFull hands the frame back");
    assert_eq!(llrs.len(), code.n);
    let stats = service.shard_stats(code).unwrap();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.rejected_full, 1);
    assert_eq!(stats.queue_depth, 3);

    // Draining restores capacity: the returned buffer resubmits cleanly.
    service.resume();
    for handle in handles {
        assert!(handle.wait().is_decoded());
    }
    let retried = service.submit(code, llrs, ()).unwrap();
    assert!(retried.wait().is_decoded());
    let stats = service.shutdown();
    assert_eq!(stats[0].decoded, 4);
}

#[test]
fn blocking_submit_parks_instead_of_dropping() {
    let decoder = decoder();
    let code = modes()[0];
    let service = std::sync::Arc::new(
        DecodeService::builder(decoder)
            .start_paused()
            .queue_capacity(1)
            .register(code)
            .unwrap()
            .build()
            .unwrap(),
    );
    let first = service.submit(code, vec![6.0; code.n], ()).unwrap();
    let blocked = {
        let service = std::sync::Arc::clone(&service);
        std::thread::spawn(move || service.submit(code, vec![6.0; code.n], ()).unwrap().wait())
    };
    std::thread::sleep(Duration::from_millis(30));
    assert!(!blocked.is_finished(), "second submit parks on the bound");
    service.resume();
    assert!(first.wait().is_decoded());
    assert!(blocked.join().unwrap().is_decoded(), "parked frame decoded");
}

#[test]
fn deadline_expiry_completes_without_decoding() {
    let decoder = decoder();
    let code = modes()[0];
    let service = DecodeService::builder(decoder)
        .start_paused()
        .register(code)
        .unwrap()
        .build()
        .unwrap();
    let past = Instant::now() - Duration::from_millis(1);
    let far = Instant::now() + Duration::from_secs(3600);
    let expired: Vec<FrameHandle> = (0..4)
        .map(|_| service.submit(code, vec![6.0; code.n], past).unwrap())
        .collect();
    let fresh = service.submit(code, vec![6.0; code.n], far).unwrap();
    service.resume();
    for handle in expired {
        assert_eq!(handle.wait(), DecodeOutcome::Expired);
    }
    assert!(fresh.wait().is_decoded());
    let stats = service.shutdown();
    assert_eq!(stats[0].expired, 4);
    assert_eq!(stats[0].decoded, 1);
    assert_eq!(
        stats[0].accepted, 5,
        "expired frames still count as accepted"
    );
}

#[test]
fn shutdown_completes_every_accepted_frame_across_modes() {
    let decoder = decoder();
    let service = service(&decoder);
    let mut traffic = traffic(7);
    let handles: Vec<FrameHandle> = (0..30)
        .map(|_| {
            let (id, llrs) = traffic.next_frame();
            service.submit(id, llrs, ()).unwrap()
        })
        .collect();
    // Shut down immediately — frames may still be queued; the drain must
    // resolve every one of them.
    let stats = service.shutdown();
    let completed: u64 = stats.iter().map(ldpc::serve::ShardStats::completed).sum();
    let accepted: u64 = stats.iter().map(|s| s.accepted).sum();
    assert_eq!(accepted, 30);
    assert_eq!(completed, 30, "no accepted frame may dangle");
    for handle in handles {
        assert!(handle.is_complete(), "handle resolved by shutdown");
        assert!(handle.wait().is_decoded(), "no deadline set, so decoded");
    }
}

#[test]
fn steady_state_serving_builds_no_new_workspaces() {
    let decoder = decoder();
    let service = service(&decoder);
    let mut traffic = traffic(13);
    let rounds = |service: &ldpc::serve::DecodeService<LayeredDecoder<FixedBpArithmetic>>,
                  traffic: &mut MixedTraffic,
                  frames: usize| {
        let handles: Vec<FrameHandle> = (0..frames)
            .map(|_| {
                let (id, llrs) = traffic.next_frame();
                service.submit(id, llrs, ()).unwrap()
            })
            .collect();
        for handle in handles {
            assert!(handle.wait().is_decoded());
        }
    };
    // Warm-up: every shard decodes at least once.
    rounds(&service, &mut traffic, 30);
    let warm = service.pool_workspaces_created();
    assert!(warm >= 3, "each shard built at least one workspace");
    // Steady state: many more frames, no new workspaces.
    rounds(&service, &mut traffic, 60);
    assert_eq!(
        service.pool_workspaces_created(),
        warm,
        "steady-state serving must reuse pooled workspaces"
    );
    service.shutdown();
}

#[test]
fn coalescing_happens_under_burst_load() {
    let decoder = decoder();
    let code = modes()[0];
    let service = DecodeService::builder(decoder)
        .start_paused()
        .queue_capacity(16)
        .max_batch(8)
        .register(code)
        .unwrap()
        .build()
        .unwrap();
    let handles: Vec<FrameHandle> = (0..16)
        .map(|_| service.submit(code, vec![6.0; code.n], ()).unwrap())
        .collect();
    service.resume();
    for handle in handles {
        assert!(handle.wait().is_decoded());
    }
    let stats = service.shutdown();
    assert_eq!(stats[0].decoded, 16);
    assert!(
        stats[0].max_coalesced > 1,
        "a 16-frame burst against a paused worker must coalesce"
    );
    assert!(
        stats[0].max_coalesced <= 8,
        "coalescing respects max_batch: {}",
        stats[0].max_coalesced
    );
}

/// ROADMAP "quantized ingest": raw high-SNR channel LLRs clip flat at the
/// 8-bit saturation code — every bit, right or wrong, arrives maximally
/// confident, the reliability ordering belief propagation feeds on is erased,
/// and frames fail even when the channel flipped few (or no) bits. Routing
/// [`LlrQuantizer`] through the submission path (per-frame gain
/// normalisation) makes the fixed-point back-ends first-class serving
/// citizens.
#[test]
fn quantized_ingest_recovers_high_snr_fixed_point_traffic() {
    let mode = modes()[0];
    let code = mode.build().unwrap();
    let compiled = code.compile();
    // The paper's early-termination rule: with the zero-syndrome stop, the
    // decoder ends on the first codeword before saturation can walk it away.
    let decoder = LayeredDecoder::new(
        FixedBpArithmetic::forward_backward(),
        DecoderConfig::paper_early_termination(),
    )
    .unwrap();
    let quantizer = LlrQuantizer::default();

    // Deterministic 12 dB traffic: peak |LLR| runs far beyond the
    // representable ±31.75 of the Q6.2 ingest format.
    let channel = AwgnChannel::from_ebn0_db(12.0, code.rate());
    let mut source = FrameSource::random(&code, 11).unwrap();
    let frames = 4;
    let mut codewords = Vec::new();
    let mut raw_llrs: Vec<Vec<f64>> = Vec::new();
    for _ in 0..frames {
        let frame = source.next_frame();
        codewords.push(frame.codeword.clone());
        raw_llrs.push(channel.transmit(&frame.codeword, source.noise_rng()));
    }
    assert!(
        raw_llrs
            .iter()
            .flatten()
            .any(|l| l.abs() > 1.5 * quantizer.max_value()),
        "workload must actually exceed the quantiser range"
    );

    // The regression being fixed: raw ingest fails on this traffic.
    let raw_failures = raw_llrs
        .iter()
        .zip(&codewords)
        .filter(|(llrs, codeword)| {
            let out = decoder.decode_compiled(&compiled, llrs).unwrap();
            out.bit_errors_against(codeword) > 0
        })
        .count();
    assert!(
        raw_failures > 0,
        "saturating raw ingest should fail at 12 dB (got {raw_failures}/{frames})"
    );

    // The service with quantized ingest decodes every frame correctly …
    let service = DecodeService::builder(decoder.clone())
        .quantize_ingest(quantizer)
        .register(mode)
        .unwrap()
        .build()
        .unwrap();
    let handles: Vec<FrameHandle> = raw_llrs
        .iter()
        .map(|llrs| service.submit(mode, llrs.clone(), ()).unwrap())
        .collect();
    let outcomes: Vec<DecodeOutcome> = handles.into_iter().map(FrameHandle::wait).collect();
    let stats = service.shutdown();
    assert_eq!(stats[0].decoded, frames as u64);
    for ((outcome, codeword), llrs) in outcomes.into_iter().zip(&codewords).zip(&raw_llrs) {
        let out = outcome.into_output().expect("decoded");
        assert_eq!(
            out.bit_errors_against(codeword),
            0,
            "quantized ingest must recover the high-SNR frame"
        );
        // … and stays bit-identical to direct decoding of the normalised
        // frame (the service adds AGC, not a different decoder).
        let mut normalized = llrs.clone();
        quantizer.normalize_in_place(&mut normalized);
        let direct = decoder.decode_compiled(&compiled, &normalized).unwrap();
        assert_eq!(out, direct, "service output == direct decode of AGC'd LLRs");
    }
}

/// Non-finite LLRs are refused at ingest on the plain and HARQ paths alike,
/// with a counted error naming the first offending position. Without the
/// check, normalised ingest scales a frame holding one `+∞` by `max/∞ = 0`
/// to all zeros, which then "decodes" parity-satisfied as the all-zero
/// codeword.
#[test]
fn non_finite_llrs_are_refused_at_ingest_with_their_index() {
    let mode = modes()[0];
    let n = mode.n;
    let service = DecodeService::builder(decoder())
        .quantize_ingest(LlrQuantizer::default())
        .register(mode)
        .unwrap()
        .build()
        .unwrap();
    let mut cases: Vec<(Vec<f64>, usize)> = Vec::new();
    for (index, bad) in [
        (0, f64::INFINITY),
        (7, f64::NEG_INFINITY),
        (n - 1, f64::NAN),
        (100, -f64::NAN),
    ] {
        let mut llrs = vec![2.5; n];
        llrs[index] = bad;
        cases.push((llrs, index));
    }
    cases.push((vec![f64::NAN; n], 0));
    let mut two_bad = vec![-1.0; n];
    two_bad[40] = f64::NAN;
    two_bad[30] = f64::INFINITY;
    cases.push((two_bad, 30));

    for (i, (llrs, index)) in cases.iter().enumerate() {
        let expected = SubmitError::NonFiniteLlr {
            code: mode,
            index: *index,
        };
        let err = service.submit(mode, llrs.clone(), ()).unwrap_err();
        assert_eq!(err, expected);
        assert!(err.to_string().contains(&format!("index {index}")), "{err}");
        let err = service
            .submit_harq(mode, HarqKey::new(i as u64, 0), 0, llrs.clone(), ())
            .unwrap_err();
        assert_eq!(err, expected, "HARQ path");
    }
    assert_eq!(service.harq_stats().combines, 0, "nothing was combined");

    // Finite extremes — subnormals, signed zeros, huge magnitudes — are
    // still accepted and decoded.
    let extremes: Vec<f64> = (0..n)
        .map(|i| match i % 5 {
            0 => 5e-324,
            1 => -0.0,
            2 => f64::MAX,
            3 => -f64::MIN_POSITIVE,
            _ => 3.0,
        })
        .collect();
    let outcome = service.submit(mode, extremes, ()).unwrap().wait();
    assert!(outcome.into_output().is_some(), "finite frame decoded");
    let stats = service.shutdown();
    assert_eq!(stats[0].rejected_non_finite, 2 * cases.len() as u64);
    assert_eq!(stats[0].accepted, 1);
    assert_eq!(stats[0].decoded, 1);
}
