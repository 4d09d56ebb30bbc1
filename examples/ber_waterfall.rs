//! BER/FER waterfall: full BP versus the Min-Sum baseline and the cascade.
//!
//! The paper argues for implementing the full BP check-node update (via the
//! ⊞/⊟ recursions) "instead of using the sub-optimal Min-Sum algorithm".
//! This example produces the error-rate curves that justify that choice for
//! the 576-bit WiMax-class rate-1/2 code, including the 8-bit fixed-point
//! datapath, and additionally sweeps the SNR-adaptive Min-Sum→BP
//! [`CascadeDecoder`] to show that its cheap first stage costs no coding
//! gain: the cascade curve is asserted to match straight fixed BP within
//! Monte-Carlo confidence at every operating point.
//!
//! ```bash
//! cargo run --release --example ber_waterfall
//! ```

use ldpc::prelude::*;

/// Sweeps `decoder` over the Eb/N0 points and prints one table row.
/// Returns the per-point BERs so curves can be compared afterwards.
fn run_curve_with<D: Decoder>(
    label: &str,
    decoder: &D,
    code: &QcCode,
    ebn0_points: &[f64],
    frames: usize,
) -> Result<Vec<f64>, Box<dyn std::error::Error>> {
    let mut bers = Vec::with_capacity(ebn0_points.len());
    print!("{label:<34}");
    for &ebn0 in ebn0_points {
        let channel = AwgnChannel::from_ebn0_db(ebn0, code.rate());
        let mut source = FrameSource::random(code, 31 + (ebn0 * 10.0) as u64)?;
        let mut counter = ErrorCounter::new();
        for _ in 0..frames {
            let frame = source.next_frame();
            let llrs = channel.transmit(&frame.codeword, source.noise_rng());
            let out = decoder.decode(code, &llrs)?;
            counter.record_frame(out.bit_errors_against(&frame.codeword), code.n());
        }
        print!(" {:>9.2e}", counter.ber());
        bers.push(counter.ber());
    }
    println!();
    Ok(bers)
}

fn run_curve<A>(
    label: &str,
    arith: A,
    code: &QcCode,
    ebn0_points: &[f64],
    frames: usize,
) -> Result<Vec<f64>, Box<dyn std::error::Error>>
where
    A: LaneKernel,
{
    let decoder = LayeredDecoder::new(arith, DecoderConfig::default())?;
    run_curve_with(label, &decoder, code, ebn0_points, frames)
}

/// Pooled two-proportion z-test: are two BER estimates over `bits` trials
/// each statistically indistinguishable at `sigmas` standard deviations?
fn ber_match(a: f64, b: f64, bits: f64, sigmas: f64) -> bool {
    let pooled = (a + b) / 2.0;
    let sigma = (pooled * (1.0 - pooled) * (2.0 / bits)).sqrt();
    (a - b).abs() <= sigmas * sigma + f64::EPSILON
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576).build()?;
    let ebn0_points = [1.0, 1.5, 2.0, 2.5, 3.0];
    let frames = 60;

    println!(
        "BER vs Eb/N0, N = {}, rate 1/2, {} frames per point, max 10 iterations\n",
        code.n(),
        frames
    );
    print!("{:<34}", "decoder");
    for e in ebn0_points {
        print!(" {e:>9.1}");
    }
    println!(" (dB)");

    run_curve(
        "full BP (float reference)",
        FloatBpArithmetic::default(),
        &code,
        &ebn0_points,
        frames,
    )?;
    let fixed_bp_bers = run_curve(
        "full BP (8-bit, fwd/bwd)",
        FixedBpArithmetic::forward_backward(),
        &code,
        &ebn0_points,
        frames,
    )?;
    run_curve(
        "full BP (8-bit, ⊟ + argmin exclusion)",
        FixedBpArithmetic::default(),
        &code,
        &ebn0_points,
        frames,
    )?;
    run_curve(
        "normalized Min-Sum (float)",
        FloatMinSumArithmetic::default(),
        &code,
        &ebn0_points,
        frames,
    )?;
    run_curve(
        "normalized Min-Sum (8-bit)",
        FixedMinSumArithmetic::default(),
        &code,
        &ebn0_points,
        frames,
    )?;
    let cascade = CascadeConfig::default().decoder();
    let cascade_bers = run_curve_with(
        "cascade (Min-Sum×4 → fixed BP)",
        &cascade,
        &code,
        &ebn0_points,
        frames,
    )?;

    // The cascade buys throughput, not coding gain: its curve must sit on
    // the straight fixed-BP curve to within Monte-Carlo noise.
    let bits = (frames * code.n()) as f64;
    for ((&ebn0, &a), &b) in ebn0_points.iter().zip(&cascade_bers).zip(&fixed_bp_bers) {
        assert!(
            ber_match(a, b, bits, 4.0),
            "cascade BER {a:.2e} vs fixed BP {b:.2e} at {ebn0} dB exceeds 4σ"
        );
    }
    let stats = cascade.stats();
    println!(
        "\ncascade escalation rate over the sweep: {:.1}% ({} of {} frames)",
        100.0 * stats.escalation_rate(),
        stats.escalations,
        stats.stage_frames[0]
    );

    println!("\nFull BP reaches a given BER at a lower Eb/N0 than Min-Sum; the 8-bit");
    println!("forward/backward and argmin-excluded ⊟ datapaths track each other and the");
    println!("float reference down to their high-SNR floor.");
    println!("The cascade matches fixed BP within confidence at every point (asserted).");
    Ok(())
}
