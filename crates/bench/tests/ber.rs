//! BER gate for the paper's default datapath: 8-bit messages, 3-bit LUTs,
//! ⊟ extraction with argmin exclusion (`FixedBpArithmetic::default()`).
//!
//! On fixed seeds, at WiMAX-576 and WiMAX-2304:
//! * its BER falls strictly as Eb/N0 rises;
//! * it is statistically equal to the 8-bit forward/backward datapath
//!   (`mc::ber_within_confidence`, both decoders on the same noise);
//! * bare ⊟ extraction (`CheckNodeMode::SumExtract`) is measurably worse;
//! * the default stop (the first zero syndrome) loses no frame the paper's
//!   early-termination rule decodes: on the same frames, its FER is at most
//!   that of `DecoderConfig::paper_early_termination`.
//!
//! ```bash
//! cargo test -p ldpc-bench --test ber
//! ```

use ldpc_bench::mc::ber_within_confidence;
use ldpc_bench::{run_monte_carlo, McConfig, McResult};
use ldpc_codes::{CodeId, CodeRate, QcCode, Standard};
use ldpc_core::decoder::DecoderConfig;
use ldpc_core::{CheckNodeMode, FixedBpArithmetic, FixedFormat};

/// Standard deviations two estimates may differ by and still count as equal.
const SIGMAS: f64 = 3.0;

fn wimax(n: usize) -> QcCode {
    CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, n)
        .build()
        .expect("supported mode")
}

fn run(arith: FixedBpArithmetic, code: &QcCode, ebn0_db: f64, frames: usize) -> McResult {
    run_with(arith, DecoderConfig::default(), code, ebn0_db, frames)
}

/// [`run`] with another decoder configuration, on the same frames.
fn run_with(
    arith: FixedBpArithmetic,
    decoder: DecoderConfig,
    code: &QcCode,
    ebn0_db: f64,
    frames: usize,
) -> McResult {
    let config = McConfig {
        ebn0_db,
        frames,
        seed: 0xBE7 + (ebn0_db * 10.0) as u64,
    };
    run_monte_carlo(arith, decoder, code, config)
}

/// `mc::ber_within_confidence` with the *frame* as the trial. Bit errors
/// cluster in failed frames, so a bit-level binomial test understates the
/// spread by about the errors per failed frame. Frames are independent:
/// on the frame error rate the test is exact, and on the BER (the mean of
/// per-frame error fractions in `[0, 1]`, whose variance is at most
/// `p(1 − p)`) it is conservative.
fn equal(a: &McResult, b: &McResult) -> bool {
    let as_frames = |r: &McResult| McResult { ber: r.fer, ..*r };
    ber_within_confidence(a, b, 1, SIGMAS)
        && ber_within_confidence(&as_frames(a), &as_frames(b), 1, SIGMAS)
}

/// Runs the four gates on `code` over `points` (dB, ascending, inside
/// the waterfall); bare ⊟ is compared at the last point.
fn gate(code: &QcCode, points: &[f64], frames: usize) {
    let n = code.n();
    let mut previous: Option<McResult> = None;
    for &ebn0 in points {
        let default = run(FixedBpArithmetic::default(), code, ebn0, frames);
        let fwd_bwd = run(FixedBpArithmetic::forward_backward(), code, ebn0, frames);
        assert!(
            equal(&default, &fwd_bwd),
            "n={n} {ebn0} dB: default BER {:.2e} / FER {:.3} vs fwd/bwd {:.2e} / {:.3}",
            default.ber,
            default.fer,
            fwd_bwd.ber,
            fwd_bwd.fer
        );
        let paper = run_with(
            FixedBpArithmetic::default(),
            DecoderConfig::paper_early_termination(),
            code,
            ebn0,
            frames,
        );
        assert!(
            default.fer <= paper.fer,
            "n={n} {ebn0} dB: default FER {:.3} above the paper rule's {:.3}",
            default.fer,
            paper.fer
        );
        if let Some(previous) = previous {
            assert!(
                default.ber < previous.ber,
                "n={n}: BER rose to {:.2e} at {ebn0} dB from {:.2e}",
                default.ber,
                previous.ber
            );
        }
        previous = Some(default);
    }
    let (last, default) = (
        points[points.len() - 1],
        previous.expect("at least one point"),
    );
    let bare = run(
        FixedBpArithmetic::with_mode(FixedFormat::default(), 3, CheckNodeMode::SumExtract),
        code,
        last,
        frames,
    );
    assert!(
        bare.ber > default.ber && bare.fer > default.fer && !equal(&bare, &default),
        "n={n} {last} dB: bare ⊟ BER {:.2e} / FER {:.3} should be worse than {:.2e} / {:.3}",
        bare.ber,
        bare.fer,
        default.ber,
        default.fer
    );
}

#[test]
fn default_datapath_ber_gate_wimax_576() {
    gate(&wimax(576), &[1.0, 1.5, 2.0], 300);
}

#[test]
fn default_datapath_ber_gate_wimax_2304() {
    gate(&wimax(2304), &[1.0, 1.5, 2.0], 80);
}
