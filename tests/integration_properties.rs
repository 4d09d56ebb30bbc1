//! Property-based tests over the core data structures and invariants,
//! spanning the code-construction, arithmetic and architecture crates.
//!
//! The build environment has no `proptest`, so the properties are driven by a
//! deterministic mini-harness: exhaustive sweeps where the domain is small
//! (the WiMax mode set) and seeded pseudo-random sampling elsewhere. Failing
//! cases print their inputs, so every failure is reproducible.

use ldpc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The WiMax-class modes the original proptest strategy sampled from.
fn wimax_modes() -> Vec<CodeId> {
    let mut modes = Vec::new();
    for rate in [
        CodeRate::R1_2,
        CodeRate::R2_3,
        CodeRate::R3_4,
        CodeRate::R5_6,
    ] {
        for z in [24usize, 48, 96] {
            modes.push(CodeId::new(Standard::Wimax80216e, rate, 24 * z));
        }
    }
    modes
}

fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// Every encoded information word is a valid codeword, for every mode.
#[test]
fn encoder_always_produces_codewords() {
    for id in wimax_modes() {
        let code = id.build().unwrap();
        let encoder = Encoder::new(&code).unwrap();
        for seed in [3u64, 411] {
            let mut state = seed;
            let info: Vec<u8> = (0..code.info_bits())
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) & 1) as u8
                })
                .collect();
            let cw = encoder.encode(&info).unwrap();
            assert!(code.is_codeword(&cw).unwrap(), "{id} seed {seed}");
            assert_eq!(&cw[..code.info_bits()], info.as_slice(), "{id} seed {seed}");
        }
    }
}

/// The sum of two codewords is a codeword (linearity).
#[test]
fn codewords_form_a_linear_space() {
    for (i, id) in wimax_modes().into_iter().enumerate() {
        let code = id.build().unwrap();
        let mut a = FrameSource::random(&code, 100 + i as u64).unwrap();
        let mut b = FrameSource::random(&code, 500 + i as u64).unwrap();
        let x = a.next_frame().codeword;
        let y = b.next_frame().codeword;
        let sum: Vec<u8> = x.iter().zip(&y).map(|(&p, &q)| p ^ q).collect();
        assert!(code.is_codeword(&sum).unwrap(), "{id}");
    }
}

/// ⊞ is commutative, bounded by the smaller magnitude, and inverted by ⊟.
#[test]
fn boxplus_algebra() {
    use ldpc::core::boxplus::{boxminus, boxplus};
    let mut rng = StdRng::seed_from_u64(20260730);
    for case in 0..256 {
        let a = uniform(&mut rng, -30.0, 30.0);
        let b = uniform(&mut rng, -30.0, 30.0);
        let ab = boxplus(a, b);
        let ba = boxplus(b, a);
        assert!((ab - ba).abs() < 1e-9, "case {case}: {a} {b}");
        assert!(
            ab.abs() <= a.abs().min(b.abs()) + 1e-9,
            "case {case}: {a} {b}"
        );
        // Inversion holds away from the saturation region.
        if a.abs() > 0.2 && b.abs() > 0.2 && (a.abs() - b.abs()).abs() > 0.2 && ab.abs() < 30.0 {
            let recovered = boxminus(ab, b);
            assert!(
                (recovered - a).abs() < 1e-3,
                "case {case}: {a} {b} -> {recovered}"
            );
        }
    }
}

/// The fixed-point check-node update never flips the BP sign structure.
#[test]
fn fixed_check_node_signs_match_float() {
    let fx = FixedBpArithmetic::forward_backward();
    let fl = FloatBpArithmetic::default();
    let mut rng = StdRng::seed_from_u64(31);
    for case in 0..64 {
        let degree = 2 + (case % 11);
        // Keep magnitudes above 0.5: near-zero messages have an ambiguous
        // sign after quantisation (the original test assumed them away).
        let values: Vec<f64> = (0..degree)
            .map(|_| {
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                sign * uniform(&mut rng, 0.6, 20.0)
            })
            .collect();
        let codes: Vec<i16> = values.iter().map(|&v| fx.from_channel(v)).collect();
        let (mut out_fx, mut out_fl) = (Vec::new(), Vec::new());
        fx.check_node_update(&codes, &mut out_fx);
        fl.check_node_update(&values, &mut out_fl);
        for (c, f) in out_fx.iter().zip(&out_fl) {
            if f.abs() > 0.5 {
                assert_eq!(*c < 0, *f < 0.0, "case {case}: {values:?}");
            }
        }
    }
}

/// The LLR quantiser is idempotent and bounded.
#[test]
fn quantizer_is_idempotent() {
    let q = LlrQuantizer::default();
    let mut rng = StdRng::seed_from_u64(5);
    let check = |x: f64| {
        let once = q.quantize(x);
        assert_eq!(once, q.quantize(once), "input {x}");
        assert!(once.abs() <= q.max_value(), "input {x}");
        assert!(
            (once - x).abs() <= q.step() / 2.0 + (x.abs() - q.max_value()).max(0.0),
            "input {x}"
        );
    };
    for i in 0..=400 {
        check(-200.0 + i as f64);
    }
    for _ in 0..200 {
        check(uniform(&mut rng, -200.0, 200.0));
    }
}

/// Circular shifter: rotate_back inverts rotate for every size and shift.
#[test]
fn shifter_rotation_round_trips() {
    let mut shifter = CircularShifter::new(96);
    for size in 1usize..=96 {
        for (shift, seed) in [(0usize, 1u64), (1, 7), (size / 2, 13), (size - 1, 99)] {
            let shift = shift % size;
            let word: Vec<i32> = (0..96).map(|i| i * 3 + seed as i32).collect();
            let rotated = shifter.rotate(&word, shift, size);
            let back = shifter.rotate_back(&rotated, shift, size);
            assert_eq!(back, word, "size {size} shift {shift}");
        }
    }
}

/// Decoding an already-clean frame never introduces errors and terminates
/// quickly (idempotence of the decoder on codewords).
#[test]
fn decoder_is_idempotent_on_codewords() {
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
        .build()
        .unwrap();
    let compiled = code.compile();
    let decoder =
        LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
    let mut ws = decoder.workspace_for(&compiled);
    let mut out = DecodeOutput::empty();
    for seed in 0..12u64 {
        let mut source = FrameSource::random(&code, seed).unwrap();
        let frame = source.next_frame();
        let llrs: Vec<f64> = frame
            .codeword
            .iter()
            .map(|&b| if b == 0 { 12.0 } else { -12.0 })
            .collect();
        decoder
            .decode_into(&compiled, &llrs, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out.bit_errors_against(&frame.codeword), 0, "seed {seed}");
        assert!(out.parity_satisfied, "seed {seed}");
        assert!(out.iterations <= 3, "seed {seed}");
    }
}

/// The power model is monotone in lanes, clock and utilisation.
#[test]
fn power_model_is_monotone() {
    let m = PowerModel::paper_90nm();
    let mut rng = StdRng::seed_from_u64(17);
    for case in 0..64 {
        let lanes = rng.gen_range(1usize..=96);
        let util = rng.gen::<f64>();
        let clock_mhz = uniform(&mut rng, 100.0, 450.0);
        let base = m.power(lanes, 96, clock_mhz * 1.0e6, util).total_mw;
        if lanes < 96 {
            assert!(
                m.power(lanes + 1, 96, clock_mhz * 1.0e6, util).total_mw >= base,
                "case {case}: lanes {lanes} util {util} clock {clock_mhz}"
            );
        }
        assert!(
            m.power(lanes, 96, clock_mhz * 1.0e6, (util + 0.1).min(1.0))
                .total_mw
                >= base,
            "case {case}"
        );
        assert!(
            m.power(lanes, 96, (clock_mhz + 10.0) * 1.0e6, util)
                .total_mw
                >= base,
            "case {case}"
        );
        assert!(
            base >= 88.0 - 1e-9,
            "never below static power (case {case})"
        );
    }
}
