//! The decode entry points share one layered driver (a single frame is a
//! group of one) and one width-sized workspace. This suite pins what that
//! sharing must guarantee at the boundary:
//!
//! * non-finite channel LLRs (±inf, NaN) are refused with
//!   `DecodeError::NonFiniteLlr` carrying the offending frame and index, by
//!   every back-end and through every entry point, instead of being decoded
//!   into a "parity satisfied" output; a group refused at frame `k > 0`,
//!   after its clean frames were already ingested, leaves its outputs
//!   untouched and its workspace as good as fresh;
//! * `decode_into` with a wrong-length frame is `LlrLengthMismatch` for every
//!   decoder, the cascade included;
//! * one workspace cycled through flooding, layered single-frame, full and
//!   ragged groups, the row-serial reference and the cascade keeps one
//!   allocation fingerprint, and every output matches a fresh workspace's;
//! * finite but adversarial LLRs (`±f64::MAX`, `±1e300`, subnormals, signed
//!   zeros, mixtures) never yield a NaN posterior or a parity flag that the
//!   hard decisions do not earn, and the lane path still equals the
//!   reference. An all-erasure frame ends as the all-zero codeword: the
//!   syndrome holds, which says nothing about what was sent.

use ldpc::core::fixedpoint::FixedFormat;
use ldpc::core::DecodeError;
use ldpc::prelude::*;

fn code() -> QcCode {
    CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
        .build()
        .unwrap()
}

/// `frames` noisy frames at 2.5 dB, flattened.
fn noisy_frames(code: &QcCode, frames: usize, seed: u64) -> Vec<f64> {
    let mut source = FrameSource::random(code, seed).unwrap();
    let channel = AwgnChannel::from_ebn0_db(2.5, code.rate());
    (0..frames)
        .flat_map(|_| {
            let frame = source.next_frame();
            channel.transmit(&frame.codeword, source.noise_rng())
        })
        .collect()
}

/// The poisoned inputs of the sweep: one bad value at the first, middle and
/// last index of a clean frame, and an all-NaN frame. Each comes with the
/// index the decoder must report.
fn poisoned_frames(clean: &[f64]) -> Vec<(String, Vec<f64>, usize)> {
    let n = clean.len();
    let mut cases = Vec::new();
    for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        for index in [0, n / 2, n - 1] {
            let mut frame = clean.to_vec();
            frame[index] = bad;
            cases.push((format!("{bad} at {index}"), frame, index));
        }
    }
    cases.push(("all NaN".to_string(), vec![f64::NAN; n], 0));
    cases
}

/// Runs the sweep on one decoder through `decode_into`, `decode_group_into`
/// (poisoned frame in the middle of a group) and `decode_batch` (poisoned
/// frame near the end of a batch spanning several groups).
fn sweep<D: Decoder + Sync>(name: &str, decoder: &D, code: &QcCode) {
    let compiled = &code.compile();
    let n = compiled.n();
    let clean = noisy_frames(code, 1, 5);
    let width = decoder.preferred_group_width(compiled).max(2);
    let batch_frames = 2 * width + 1;
    let background = noisy_frames(code, batch_frames, 9);
    let mut ws = decoder.workspace_for(compiled);

    for (case, frame, index) in poisoned_frames(&clean) {
        let expect = |frame| DecodeError::NonFiniteLlr { frame, index };

        let mut out = DecodeOutput::empty();
        let got = decoder.decode_into(compiled, &frame, &mut ws, &mut out);
        assert_eq!(got, Err(expect(0)), "{name} decode_into, {case}");

        let bad = width / 2;
        let mut group = background[..width * n].to_vec();
        group[bad * n..(bad + 1) * n].copy_from_slice(&frame);
        let mut outs = vec![DecodeOutput::empty(); width];
        let got = decoder.decode_group_into(compiled, &group, &mut ws, &mut outs);
        assert_eq!(got, Err(expect(bad)), "{name} decode_group_into, {case}");

        let bad = batch_frames - 2;
        let mut batch = background.clone();
        batch[bad * n..(bad + 1) * n].copy_from_slice(&frame);
        let got = decoder.decode_batch(compiled, LlrBatch::new(&batch, n).unwrap());
        assert_eq!(got.err(), Some(expect(bad)), "{name} decode_batch, {case}");
    }
}

#[test]
fn non_finite_llrs_are_refused_by_every_decoder_and_entry_point() {
    let code = code();
    let config = DecoderConfig::default();
    sweep(
        "float BP",
        &LayeredDecoder::new(FloatBpArithmetic::default(), config).unwrap(),
        &code,
    );
    sweep(
        "fixed BP (sum-extract)",
        &LayeredDecoder::new(FixedBpArithmetic::default(), config).unwrap(),
        &code,
    );
    sweep(
        "fixed BP (forward/backward)",
        &LayeredDecoder::new(FixedBpArithmetic::forward_backward(), config).unwrap(),
        &code,
    );
    sweep(
        "fixed Min-Sum",
        &LayeredDecoder::new(FixedMinSumArithmetic::default(), config).unwrap(),
        &code,
    );
    sweep("cascade", &CascadeDecoder::default(), &code);
    sweep(
        "flooding",
        &FloodingDecoder::new(FloatBpArithmetic::default(), config).unwrap(),
        &code,
    );
}

#[test]
fn non_finite_llrs_are_refused_by_the_reference_kernel() {
    let code = code();
    let compiled = code.compile();
    let decoder =
        LayeredDecoder::new(FixedBpArithmetic::default(), DecoderConfig::default()).unwrap();
    let mut ws = decoder.workspace_for(&compiled);
    let mut out = DecodeOutput::empty();
    for (case, frame, index) in poisoned_frames(&noisy_frames(&code, 1, 5)) {
        assert_eq!(
            decoder.decode_into_reference(&compiled, &frame, &mut ws, &mut out),
            Err(DecodeError::NonFiniteLlr { frame: 0, index }),
            "{case}"
        );
    }
}

/// A group whose frame `k > 0` is poisoned after `k` clean frames: the
/// one-pass ingest has already quantised the clean frames into the workspace
/// when it reaches frame `k`. The refusal must still name `(k, index)` (the
/// first bad value, even with a later frame poisoned too), leave every
/// output untouched, and leave the workspace serving the next clean group
/// exactly like a fresh one, on the same buffers.
#[test]
fn a_frame_poisoned_after_clean_ones_is_refused_without_touching_outputs() {
    let code = code();
    let compiled = code.compile();
    let n = compiled.n();
    let config = DecoderConfig::default();
    let fixed = LayeredDecoder::new(FixedBpArithmetic::default(), config).unwrap();
    let width = fixed.preferred_group_width(&compiled);
    assert!(width >= 3, "the sweep needs a real group width");
    let clean = noisy_frames(&code, width, 13);
    let sentinel = DecodeOutput {
        hard_bits: vec![7; 3],
        posterior_llrs: vec![-1.5],
        iterations: 99,
        parity_satisfied: true,
        early_terminated: true,
        stats: Default::default(),
    };

    type GroupDecode<'a> = dyn Fn(&[f64], &mut DecodeWorkspace<i16>, &mut [DecodeOutput]) -> Result<(), DecodeError>
        + 'a;
    let check = |name: &str, decode: &GroupDecode<'_>| {
        let mut fresh = vec![DecodeOutput::empty(); width];
        decode(&clean, &mut DecodeWorkspace::new(), &mut fresh).unwrap();
        let mut ws = DecodeWorkspace::new();
        ws.reserve_for(&compiled, width);
        let fingerprint = ws.allocation_fingerprint();
        for k in 1..width {
            for (index, bad) in [
                (0, f64::NAN),
                (n / 2, f64::INFINITY),
                (n - 1, f64::NEG_INFINITY),
            ] {
                let mut group = clean.clone();
                group[k * n + index] = bad;
                if k + 1 < width {
                    group[(width - 1) * n + n / 3] = f64::NAN;
                }
                let mut outs = vec![sentinel.clone(); width];
                assert_eq!(
                    decode(&group, &mut ws, &mut outs),
                    Err(DecodeError::NonFiniteLlr { frame: k, index }),
                    "{name}: frame {k}, index {index}"
                );
                assert!(
                    outs.iter().all(|o| *o == sentinel),
                    "{name}: outputs written"
                );
                let mut outs = vec![DecodeOutput::empty(); width];
                decode(&clean, &mut ws, &mut outs).unwrap();
                assert_eq!(
                    outs, fresh,
                    "{name}: clean group after frame {k} was refused"
                );
                assert_eq!(
                    ws.allocation_fingerprint(),
                    fingerprint,
                    "{name}: reallocated"
                );
            }
        }
    };
    check("fixed BP", &|llrs, ws, outs| {
        fixed.decode_group_into(&compiled, llrs, ws, outs)
    });
    let min_sum = LayeredDecoder::new(FixedMinSumArithmetic::default(), config).unwrap();
    check("fixed Min-Sum", &|llrs, ws, outs| {
        min_sum.decode_group_into(&compiled, llrs, ws, outs)
    });
}

fn assert_length_mismatch<D: Decoder>(name: &str, decoder: &D, compiled: &CompiledCode) {
    let n = compiled.n();
    let mut ws = decoder.workspace_for(compiled);
    let mut out = DecodeOutput::empty();
    for actual in [0, n - 1, n + 1, 2 * n] {
        assert_eq!(
            decoder.decode_into(compiled, &vec![1.0; actual], &mut ws, &mut out),
            Err(DecodeError::LlrLengthMismatch {
                expected: n,
                actual
            }),
            "{name}, {actual} LLRs"
        );
    }
}

#[test]
fn decode_into_reports_wrong_lengths_as_length_mismatch() {
    let compiled = code().compile();
    let config = DecoderConfig::default();
    assert_length_mismatch(
        "float BP",
        &LayeredDecoder::new(FloatBpArithmetic::default(), config).unwrap(),
        &compiled,
    );
    assert_length_mismatch(
        "fixed BP",
        &LayeredDecoder::new(FixedBpArithmetic::default(), config).unwrap(),
        &compiled,
    );
    assert_length_mismatch(
        "fixed Min-Sum",
        &LayeredDecoder::new(FixedMinSumArithmetic::default(), config).unwrap(),
        &compiled,
    );
    assert_length_mismatch("cascade", &CascadeDecoder::default(), &compiled);
    assert_length_mismatch(
        "flooding",
        &FloodingDecoder::new(FixedBpArithmetic::default(), config).unwrap(),
        &compiled,
    );
}

#[test]
fn one_workspace_serves_every_driver_and_width_without_reallocating() {
    let code = code();
    let compiled = code.compile();
    let n = compiled.n();
    let config = DecoderConfig::default();
    let flooding = FloodingDecoder::new(FixedBpArithmetic::default(), config).unwrap();
    let layered = LayeredDecoder::new(FixedBpArithmetic::default(), config).unwrap();
    let cascade = CascadeDecoder::default();
    let width = layered.preferred_group_width(&compiled);
    assert!(width >= 2, "the cycle needs a real group width");
    let llrs = noisy_frames(&code, width, 31);
    let one = &llrs[..n];
    let ragged = &llrs[..(width - 1) * n];

    // The expected outputs, each from a fresh workspace.
    let fresh_group = |decoder: &dyn Fn(&mut DecodeWorkspace<i16>, &mut [DecodeOutput]),
                       frames: usize| {
        let mut ws = DecodeWorkspace::new();
        let mut outs = vec![DecodeOutput::empty(); frames];
        decoder(&mut ws, &mut outs);
        outs
    };
    type Step<'a> = (
        &'a str,
        usize,
        Box<dyn Fn(&mut DecodeWorkspace<i16>, &mut [DecodeOutput]) + 'a>,
    );
    let steps: Vec<Step<'_>> = vec![
        (
            "flooding decode_into",
            1,
            Box::new(|ws, outs| {
                flooding
                    .decode_into(&compiled, one, ws, &mut outs[0])
                    .unwrap()
            }),
        ),
        (
            "layered decode_into",
            1,
            Box::new(|ws, outs| {
                layered
                    .decode_into(&compiled, one, ws, &mut outs[0])
                    .unwrap()
            }),
        ),
        (
            "full group",
            width,
            Box::new(|ws, outs| {
                layered
                    .decode_group_into(&compiled, &llrs, ws, outs)
                    .unwrap();
            }),
        ),
        (
            "ragged group",
            width - 1,
            Box::new(|ws, outs| {
                layered
                    .decode_group_into(&compiled, ragged, ws, outs)
                    .unwrap();
            }),
        ),
        (
            "decode_into_reference",
            1,
            Box::new(|ws, outs| {
                layered
                    .decode_into_reference(&compiled, one, ws, &mut outs[0])
                    .unwrap();
            }),
        ),
        (
            "cascade group",
            width,
            Box::new(|ws, outs| {
                cascade
                    .decode_group_into(&compiled, &llrs, ws, outs)
                    .unwrap();
            }),
        ),
    ];
    let expected: Vec<Vec<DecodeOutput>> = steps
        .iter()
        .map(|(_, frames, step)| fresh_group(step.as_ref(), *frames))
        .collect();

    let mut ws = DecodeWorkspace::new();
    let mut outs = vec![DecodeOutput::empty(); width];
    let mut fingerprint = None;
    for round in 0..4 {
        for ((name, frames, step), expect) in steps.iter().zip(&expected) {
            step(&mut ws, &mut outs[..*frames]);
            assert_eq!(&outs[..*frames], &expect[..], "round {round}: {name}");
        }
        // Round 0 warms the workspace; the three rounds after it must reuse
        // exactly the same buffers.
        let now = ws.allocation_fingerprint();
        assert_eq!(*fingerprint.get_or_insert(now), now, "round {round}");
    }
}

/// Finite channel values a decoder must survive without lying: the extremes
/// of `f64`, the smallest subnormals and signed zeros (erasures), each as a
/// whole frame, and mixed — cycled over one frame, sprinkled into a noisy
/// frame, and a noisy frame blown up to `±1e300` or half erased.
fn adversarial_frames(noisy: &[f64]) -> Vec<(String, Vec<f64>)> {
    let extremes = [
        f64::MAX,
        -f64::MAX,
        1e300,
        -1e300,
        5e-324,
        -5e-324,
        0.0,
        -0.0,
    ];
    let mut cases: Vec<(String, Vec<f64>)> = extremes
        .iter()
        .map(|&x| (format!("all {x:e}"), vec![x; noisy.len()]))
        .collect();
    let mix =
        |f: &dyn Fn(usize, f64) -> f64| noisy.iter().enumerate().map(|(i, &v)| f(i, v)).collect();
    cases.push(("extremes cycled".into(), mix(&|i, _| extremes[i % 8])));
    cases.push((
        "every 7th value extreme".into(),
        mix(&|i, v| if i % 7 == 0 { extremes[i / 7 % 8] } else { v }),
    ));
    cases.push((
        "noisy frame at ±1e300".into(),
        mix(&|_, v| v.signum() * 1e300),
    ));
    cases.push((
        "noisy frame half erased".into(),
        mix(&|i, v| if i % 2 == 0 { 0.0 } else { v }),
    ));
    cases
}

/// What every output must satisfy, whatever the input: finite posteriors and
/// a parity flag equal to the syndrome of the hard decisions.
fn assert_honest(code: &QcCode, what: &str, out: &DecodeOutput) {
    assert!(
        out.posterior_llrs.iter().all(|l| l.is_finite()),
        "{what}: non-finite posterior"
    );
    assert_eq!(
        out.parity_satisfied,
        code.is_codeword(&out.hard_bits).unwrap(),
        "{what}: parity flag disagrees with the syndrome of the hard bits"
    );
}

/// Runs every adversarial frame through `decode_into` and, among noisy
/// frames, through `decode_batch` (which must agree with `decode_into`),
/// then checks the all-erasure frames: hard decisions all zero, so the
/// syndrome holds and `parity_satisfied` is true, without early
/// termination: after the first iteration under the zero-syndrome stop,
/// after the full iteration budget otherwise. An erasure carries no
/// information, so this is "syndrome holds", not "decoded correctly". Returns
/// every case with its `decode_into` output.
fn adversarial_sweep<D: Decoder + Sync>(
    name: &str,
    decoder: &D,
    code: &QcCode,
) -> Vec<(String, Vec<f64>, DecodeOutput)> {
    let compiled = &code.compile();
    let n = compiled.n();
    let background = noisy_frames(code, 5, 13);
    let mut ws = decoder.workspace_for(compiled);
    let mut outputs = Vec::new();
    for (case, frame) in adversarial_frames(&background[..n]) {
        let what = format!("{name}, {case}");
        let mut out = DecodeOutput::empty();
        decoder
            .decode_into(compiled, &frame, &mut ws, &mut out)
            .unwrap();
        assert_honest(code, &format!("{what}, decode_into"), &out);

        let mut batch = background.clone();
        batch[3 * n..4 * n].copy_from_slice(&frame);
        let batched = decoder
            .decode_batch(compiled, LlrBatch::new(&batch, n).unwrap())
            .unwrap();
        for (i, b) in batched.iter().enumerate() {
            assert_honest(code, &format!("{what}, decode_batch frame {i}"), b);
        }
        assert_eq!(batched[3], out, "{what}: decode_batch vs decode_into");

        if frame.iter().all(|&x| x == 0.0) {
            assert!(out.hard_bits.iter().all(|&b| b == 0), "{what}");
            assert!(out.parity_satisfied && !out.early_terminated, "{what}");
            let config = decoder.config();
            let stop = if config.stop_on_zero_syndrome {
                1
            } else {
                config.max_iterations
            };
            assert_eq!(out.iterations, stop, "{what}");
        }
        outputs.push((case, frame, out));
    }
    outputs
}

/// [`adversarial_sweep`] through a layered decoder of `config`, plus the
/// row-serial reference, which must equal the lane path frame for frame.
fn with_reference<A: LaneKernel + Clone + Sync>(
    name: &str,
    arith: A,
    config: DecoderConfig,
    code: &QcCode,
    compiled: &CompiledCode,
) {
    let decoder = LayeredDecoder::new(arith, config).unwrap();
    let mut ws = decoder.workspace_for(compiled);
    for (case, frame, lane) in adversarial_sweep(name, &decoder, code) {
        let mut out = DecodeOutput::empty();
        decoder
            .decode_into_reference(compiled, &frame, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out, lane, "{name}, {case}: lane path vs reference");
    }
}

/// Every decoder, through every entry point, on finite adversarial inputs
/// under the paper's early-termination rule: no NaN posterior, no parity
/// flag the hard decisions do not earn, and the layered decoders' lane path
/// (fused for the default fixed-point datapath) equal to the row-serial
/// reference.
#[test]
fn adversarial_finite_llrs_never_yield_nan_or_an_unearned_parity_flag() {
    let code = code();
    let compiled = code.compile();
    let config = DecoderConfig::paper_early_termination();
    with_reference(
        "float BP",
        FloatBpArithmetic::default(),
        config,
        &code,
        &compiled,
    );
    with_reference(
        "fixed BP (argmin)",
        FixedBpArithmetic::default(),
        config,
        &code,
        &compiled,
    );
    with_reference(
        "fixed BP (bare ⊟)",
        FixedBpArithmetic::with_mode(FixedFormat::default(), 3, CheckNodeMode::SumExtract),
        config,
        &code,
        &compiled,
    );
    with_reference(
        "fixed BP (forward/backward)",
        FixedBpArithmetic::forward_backward(),
        config,
        &code,
        &compiled,
    );
    with_reference(
        "float Min-Sum",
        FloatMinSumArithmetic::default(),
        config,
        &code,
        &compiled,
    );
    with_reference(
        "fixed Min-Sum",
        FixedMinSumArithmetic::default(),
        config,
        &code,
        &compiled,
    );
    adversarial_sweep("cascade", &CascadeDecoder::default(), &code);
    adversarial_sweep(
        "flooding",
        &FloodingDecoder::new(FloatBpArithmetic::default(), config).unwrap(),
        &code,
    );
}

/// The same sweep under the default zero-syndrome stop, whose parity
/// verdict comes from one pass per group per iteration: every parity flag
/// must still equal the syndrome of the hard bits the output carries.
#[test]
fn adversarial_finite_llrs_under_the_default_stop() {
    let code = code();
    let compiled = code.compile();
    let config = DecoderConfig::default();
    with_reference(
        "float BP",
        FloatBpArithmetic::default(),
        config,
        &code,
        &compiled,
    );
    with_reference(
        "fixed BP (argmin)",
        FixedBpArithmetic::default(),
        config,
        &code,
        &compiled,
    );
    with_reference(
        "fixed Min-Sum",
        FixedMinSumArithmetic::default(),
        config,
        &code,
        &compiled,
    );
    adversarial_sweep(
        "flooding",
        &FloodingDecoder::new(FixedBpArithmetic::default(), config).unwrap(),
        &code,
    );
}
