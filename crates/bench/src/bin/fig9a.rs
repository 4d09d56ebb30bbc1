//! Fig. 9(a) — power consumption versus Eb/N0 with and without the early
//! termination scheme (block size 2304, maximum 10 iterations).
//!
//! The average iteration count at each operating point is *measured* by
//! Monte-Carlo decoding of the 2304-bit WiMax-class rate-1/2 code over an
//! AWGN channel; the calibrated power model converts utilisation into mW.
//! Each point has two rows on the same frames: the paper's
//! early-termination rule (the figure's curve, and the reported maximum
//! saving) and the decoder's default stop at the first zero syndrome, with
//! the FER each stops at.
//!
//! ```bash
//! cargo run --release -p ldpc-bench --bin fig9a [frames_per_point]
//! ```

use ldpc_arch::PowerModel;
use ldpc_bench::{paper, run_monte_carlo, McConfig, Table};
use ldpc_codes::{CodeId, CodeRate, Standard};
use ldpc_core::decoder::DecoderConfig;
use ldpc_core::FloatBpArithmetic;

fn main() {
    let frames: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(80);
    let max_iterations = paper::fig9::FIG9A_MAX_ITERATIONS;
    let code = CodeId::new(
        Standard::Wimax80216e,
        CodeRate::R1_2,
        paper::fig9::FIG9A_BLOCK_SIZE,
    )
    .build()
    .expect("supported mode");
    let power_model = PowerModel::paper_90nm();

    // The paper's rule (§IV), and the default stop at the first zero
    // syndrome, both within the same iteration budget.
    let et_config = DecoderConfig {
        max_iterations,
        ..DecoderConfig::paper_early_termination()
    };
    let syndrome_config = DecoderConfig {
        max_iterations,
        ..DecoderConfig::default()
    };

    let mut table = Table::new(
        &format!(
            "Fig. 9(a): power vs Eb/N0 with early termination (block size {}, max {} iterations, {} frames/point)",
            code.n(),
            max_iterations,
            frames
        ),
        &[
            "Eb/N0 (dB)",
            "stop rule",
            "avg iters",
            "BER",
            "FER",
            "power w/ stop (mW)",
            "power w/o stop (mW)",
            "saving",
        ],
    );

    let without_stop = power_model
        .power_with_early_termination(96, 96, 450.0e6, max_iterations as f64, max_iterations)
        .total_mw;
    let mut max_saving: f64 = 0.0;
    for tenth in (0..=50).step_by(5) {
        let ebn0 = tenth as f64 / 10.0;
        for (rule, config) in [("ET (paper)", et_config), ("syndrome", syndrome_config)] {
            let result = run_monte_carlo(
                FloatBpArithmetic::default(),
                config,
                &code,
                McConfig {
                    ebn0_db: ebn0,
                    frames,
                    seed: 0xF19A + tenth as u64,
                },
            );
            let with_stop = power_model
                .power_with_early_termination(
                    96,
                    96,
                    450.0e6,
                    result.avg_iterations,
                    max_iterations,
                )
                .total_mw;
            let saving = 1.0 - with_stop / without_stop;
            if config.early_termination.is_some() {
                max_saving = max_saving.max(saving);
            }
            table.add_row(&[
                format!("{ebn0:.1}"),
                rule.to_string(),
                format!("{:.2}", result.avg_iterations),
                format!("{:.2e}", result.ber),
                format!("{:.3}", result.fer),
                format!("{with_stop:.0}"),
                format!("{without_stop:.0}"),
                format!("{:.0}%", 100.0 * saving),
            ]);
        }
    }
    table.print();

    println!(
        "Paper: ~{:.0} mW without early termination, falling to ~{:.0} mW at 5 dB (up to {:.0}% saving).",
        paper::fig9::FIG9A_POWER_WITHOUT_ET_MW,
        paper::fig9::FIG9A_POWER_WITH_ET_AT_5DB_MW,
        100.0 * paper::fig9::FIG9A_MAX_SAVING
    );
    println!(
        "This reproduction: maximum saving {:.0}% with the paper's rule.",
        100.0 * max_saving
    );
}
