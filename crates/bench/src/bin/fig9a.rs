//! Fig. 9(a) — power consumption versus Eb/N0 with and without the early
//! termination scheme (block size 2304, maximum 10 iterations).
//!
//! The average iteration count at each operating point is *measured* by
//! Monte-Carlo decoding of the 2304-bit WiMax-class rate-1/2 code over an
//! AWGN channel; the calibrated power model converts utilisation into mW.
//!
//! ```bash
//! cargo run --release -p ldpc-bench --bin fig9a [frames_per_point]
//! ```

use ldpc_arch::PowerModel;
use ldpc_bench::{paper, run_monte_carlo, McConfig, Table};
use ldpc_codes::{CodeId, CodeRate, Standard};
use ldpc_core::decoder::DecoderConfig;
use ldpc_core::{EarlyTermination, FloatBpArithmetic, LayerOrderPolicy};

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

    let et_config = DecoderConfig {
        max_iterations,
        early_termination: Some(EarlyTermination::default()),
        stop_on_zero_syndrome: false,
        layer_order: LayerOrderPolicy::Natural,
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
            "avg iters (ET)",
            "BER",
            "power w/ ET (mW)",
            "power w/o ET (mW)",
            "saving",
        ],
    );

    let mut max_saving: f64 = 0.0;
    for tenth in (0..=50).step_by(5) {
        let ebn0 = tenth as f64 / 10.0;
        let result = run_monte_carlo(
            FloatBpArithmetic::default(),
            et_config,
            &code,
            McConfig {
                ebn0_db: ebn0,
                frames,
                seed: 0xF19A + tenth as u64,
            },
        );
        let with_et = power_model
            .power_with_early_termination(96, 96, 450.0e6, result.avg_iterations, max_iterations)
            .total_mw;
        let without_et = power_model
            .power_with_early_termination(96, 96, 450.0e6, max_iterations as f64, max_iterations)
            .total_mw;
        let saving = 1.0 - with_et / without_et;
        max_saving = max_saving.max(saving);
        table.add_row(&[
            format!("{ebn0:.1}"),
            format!("{:.2}", result.avg_iterations),
            format!("{:.2e}", result.ber),
            format!("{with_et:.0}"),
            format!("{without_et:.0}"),
            format!("{:.0}%", 100.0 * saving),
        ]);
    }
    table.print();

    println!(
        "Paper: ~{:.0} mW without early termination, falling to ~{:.0} mW at 5 dB (up to {:.0}% saving).",
        paper::fig9::FIG9A_POWER_WITHOUT_ET_MW,
        paper::fig9::FIG9A_POWER_WITH_ET_AT_5DB_MW,
        100.0 * paper::fig9::FIG9A_MAX_SAVING
    );
    println!(
        "This reproduction: maximum saving {:.0}%.",
        100.0 * max_saving
    );
}
