//! Early-termination boundary: the decode drivers evaluate the paper's rule
//! (§IV: information-bit decisions stable over two iterations *and* min
//! |LLR| strictly above the threshold) in the message domain, with the
//! threshold converted once to a code. This pins that conversion at its
//! edges — a threshold exactly on an attained magnitude (which must not
//! stop), just below it (which may), 0.0, the default 4.0 and a threshold
//! above every representable value — on fixed BP, fixed Min-Sum and float
//! BP, through the single-frame, group and flooding drivers.
//!
//! The expected behaviour is derived independently of the drivers' check:
//! runs without early termination give each frame's state after `k`
//! iterations, and the rule is applied to those states in the LLR domain.
//! The same construction pins the default stop: a frame ends at the first
//! iteration whose hard decisions are a codeword.

use ldpc::prelude::*;

const MAX_ITERATIONS: usize = 10;

/// One frame's state after `k` iterations (index `k − 1`): information-bit
/// decisions, their min |LLR|, and the full hard-decision vector.
type Trace = Vec<(Vec<u8>, f64, Vec<u8>)>;

fn frames(code: &QcCode) -> Vec<Vec<f64>> {
    let mut source = FrameSource::random(code, 77).unwrap();
    [1.75, 2.25, 2.75]
        .into_iter()
        .map(|ebn0| {
            let frame = source.next_frame();
            AwgnChannel::from_ebn0_db(ebn0, code.rate())
                .transmit(&frame.codeword, source.noise_rng())
        })
        .collect()
}

fn config(threshold: f64) -> DecoderConfig {
    DecoderConfig {
        max_iterations: MAX_ITERATIONS,
        early_termination: Some(EarlyTermination { threshold }),
        ..DecoderConfig::paper_early_termination()
    }
}

fn trace<D: Decoder>(
    make: &impl Fn(DecoderConfig) -> D,
    compiled: &CompiledCode,
    llrs: &[f64],
) -> Trace {
    let info = compiled.info_bits();
    (1..=MAX_ITERATIONS)
        .map(|k| {
            let out = make(DecoderConfig::fixed_iterations(k))
                .decode_compiled(compiled, llrs)
                .unwrap();
            let min_abs = out.posterior_llrs[..info]
                .iter()
                .map(|l| l.abs())
                .fold(f64::INFINITY, f64::min);
            (out.hard_bits[..info].to_vec(), min_abs, out.hard_bits)
        })
        .collect()
}

/// `(iterations, early_terminated)` the rule predicts from a trace.
fn predict(trace: &Trace, threshold: f64) -> (usize, bool) {
    for k in 2..MAX_ITERATIONS {
        let stable = trace[k - 1].0 == trace[k - 2].0;
        if stable && trace[k - 1].1 > threshold {
            return (k, true);
        }
    }
    (MAX_ITERATIONS, false)
}

fn check(out: &DecodeOutput, trace: &Trace, threshold: f64, what: &str) {
    let (iterations, early) = predict(trace, threshold);
    assert_eq!(
        (out.iterations, out.early_terminated),
        (iterations, early),
        "{what}: threshold {threshold}"
    );
    assert_eq!(
        out.hard_bits,
        trace[iterations - 1].2,
        "{what}: threshold {threshold}"
    );
}

/// Runs every threshold through the three drivers for one arithmetic.
/// `half_step` is half an LSB for fixed-point back-ends, `None` for float.
fn sweep<A: LaneKernel + Clone + Send + Sync>(arith: A, half_step: Option<f64>, name: &str) {
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
        .build()
        .unwrap();
    let compiled = code.compile();
    let frames = frames(&code);
    let layered = |c: DecoderConfig| LayeredDecoder::new(arith.clone(), c).unwrap();
    let flooding = |c: DecoderConfig| FloodingDecoder::new(arith.clone(), c).unwrap();
    let layered_traces: Vec<Trace> = frames
        .iter()
        .map(|f| trace(&layered, &compiled, f))
        .collect();
    let flooding_traces: Vec<Trace> = frames
        .iter()
        .map(|f| trace(&flooding, &compiled, f))
        .collect();

    // 0.0, the default, one above every representable magnitude, and for
    // every attained min |LLR|: exactly on it and just below it.
    let mut thresholds = vec![0.0, 4.0, 1e6];
    for (_, min_abs, _) in layered_traces.iter().chain(&flooding_traces).flatten() {
        let below = match half_step {
            Some(h) => min_abs - h,
            None => min_abs.next_down(),
        };
        thresholds.push(*min_abs);
        if below >= 0.0 {
            thresholds.push(below);
        }
    }
    thresholds.sort_by(f64::total_cmp);
    thresholds.dedup();

    let (mut fired, mut held) = (0, 0);
    let concat: Vec<f64> = frames.concat();
    for &threshold in &thresholds {
        let decoder = layered(config(threshold));
        for (f, llrs) in frames.iter().enumerate() {
            let out = decoder.decode_compiled(&compiled, llrs).unwrap();
            check(
                &out,
                &layered_traces[f],
                threshold,
                &format!("{name} single frame {f}"),
            );
            if out.early_terminated {
                fired += 1;
            } else {
                held += 1;
            }
        }
        let mut ws = decoder.workspace_for(&compiled);
        let mut outs = vec![DecodeOutput::empty(); frames.len()];
        decoder
            .decode_group_into(&compiled, &concat, &mut ws, &mut outs)
            .unwrap();
        for (f, out) in outs.iter().enumerate() {
            check(
                out,
                &layered_traces[f],
                threshold,
                &format!("{name} group frame {f}"),
            );
        }
        let decoder = flooding(config(threshold));
        for (f, llrs) in frames.iter().enumerate() {
            let out = decoder.decode_compiled(&compiled, llrs).unwrap();
            check(
                &out,
                &flooding_traces[f],
                threshold,
                &format!("{name} flooding frame {f}"),
            );
        }
    }
    assert!(
        fired > 0 && held > 0,
        "{name}: sweep must both stop and run on"
    );
}

#[test]
fn fixed_bp_early_termination_boundary() {
    let arith = FixedBpArithmetic::default();
    let half = arith.format().step() / 2.0;
    sweep(arith, Some(half), "fixed BP");
}

#[test]
fn fixed_min_sum_early_termination_boundary() {
    let arith = FixedMinSumArithmetic::default();
    let half = arith.format().step() / 2.0;
    sweep(arith, Some(half), "fixed min-sum");
}

#[test]
fn float_bp_early_termination_boundary() {
    sweep(FloatBpArithmetic::default(), None, "float BP");
}

/// The default rule's threshold, 4.0, is exactly 16 codes of the paper's
/// Q6.2 format: a magnitude of 16 codes is not above it, 17 is.
#[test]
fn default_threshold_sits_on_a_code() {
    let arith = FixedBpArithmetic::default();
    let t = arith.termination_threshold(EarlyTermination::default().threshold);
    assert!(!arith.exceeds(16, t) && !arith.exceeds(-16, t));
    assert!(arith.exceeds(17, t) && arith.exceeds(-17, t));
    assert!(arith.exceeds(1, arith.termination_threshold(0.0)));
    assert!(!arith.exceeds(0, arith.termination_threshold(0.0)));
    assert!(!arith.exceeds(i16::MAX, arith.termination_threshold(1e6)));
}

/// The default configuration stops each frame at the first `k` for which a
/// `fixed_iterations(k)` decode of that frame has a zero syndrome, and then
/// returns exactly that decode's output (the budget's end when no `k` up to
/// it does). Pinned through the batch engine (frame groups, several
/// threads) on the default datapath, for WiMAX 576 and 2304 at 2, 4 and
/// 6 dB.
#[test]
fn default_stop_is_the_first_zero_syndrome_iteration() {
    let config = DecoderConfig::default();
    assert!(config.stop_on_zero_syndrome && config.early_termination.is_none());
    let decoder = LayeredDecoder::new(FixedBpArithmetic::default(), config).unwrap();
    let (mut stopped, mut ran_out) = (0, 0);
    for n in [576, 2304] {
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, n)
            .build()
            .unwrap();
        let compiled = code.compile();
        let mut source = FrameSource::random(&code, 0x5709 + n as u64).unwrap();
        for ebn0 in [2.0, 4.0, 6.0] {
            let channel = AwgnChannel::from_ebn0_db(ebn0, code.rate());
            let llrs: Vec<f64> = (0..12)
                .flat_map(|_| {
                    let frame = source.next_frame();
                    channel.transmit(&frame.codeword, source.noise_rng())
                })
                .collect();
            let outs = decoder
                .decode_batch(&compiled, LlrBatch::new(&llrs, n).unwrap())
                .unwrap();
            for (f, out) in outs.iter().enumerate() {
                let frame = &llrs[f * n..(f + 1) * n];
                let mut expected = None;
                for k in 1..=config.max_iterations {
                    let fixed = LayeredDecoder::new(
                        FixedBpArithmetic::default(),
                        DecoderConfig::fixed_iterations(k),
                    )
                    .unwrap()
                    .decode_compiled(&compiled, frame)
                    .unwrap();
                    if fixed.parity_satisfied || k == config.max_iterations {
                        expected = Some(fixed);
                        break;
                    }
                }
                let expected = expected.unwrap();
                assert_eq!(out, &expected, "n={n} {ebn0} dB frame {f}");
                if expected.parity_satisfied {
                    stopped += 1;
                } else {
                    ran_out += 1;
                }
            }
        }
    }
    assert!(
        stopped > 0 && ran_out > 0,
        "{stopped} stopped, {ran_out} ran out"
    );
}
