//! Ablation — fixed-point design choices of the SISO datapath.
//!
//! This is not a figure of the paper; it quantifies the design decisions the
//! paper makes implicitly:
//!
//! 1. the check-node update: the default ⊟ (sum-and-extract) update with
//!    argmin exclusion, bare Fig. 3 ⊟ extraction, and a forward/backward
//!    `f(·)`-only recursion, at the same 8-bit precision,
//! 2. the 3-bit correction LUTs versus finer LUTs,
//! 3. the message word width.
//!
//! The headline reproduction finding: at 8 bits, bare ⊟ extraction fails —
//! `S ⊟ λ_min` cannot recover the weakest edge's extrinsic message, and its
//! BER *rises* toward 3 dB. Handing that one edge the ⊞ of the other edges
//! (argmin exclusion, the default) makes the 8-bit ⊟ datapath match the
//! forward/backward recursion. Both 8-bit variants floor above the float
//! reference at high SNR; the 10-bit rows close that gap.
//!
//! ```bash
//! cargo run --release -p ldpc-bench --bin ablation_fixedpoint [frames_per_point]
//! ```

use ldpc_bench::{run_monte_carlo, McConfig, Table};
use ldpc_codes::{CodeId, CodeRate, Standard};
use ldpc_core::decoder::DecoderConfig;
use ldpc_core::{CheckNodeMode, FixedBpArithmetic, FixedFormat, FloatBpArithmetic};

fn main() {
    let frames: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
        .build()
        .expect("supported mode");
    let ebn0_points = [1.5, 2.0, 2.5, 3.0];

    type VariantFactory = Box<dyn Fn() -> FixedBpArithmetic>;
    let bare = |format, lut_bits| {
        FixedBpArithmetic::with_mode(format, lut_bits, CheckNodeMode::SumExtract)
    };
    let variants: Vec<(&str, VariantFactory)> = vec![
        (
            "8-bit, 3-bit LUT, ⊟ + argmin exclusion (default)",
            Box::new(FixedBpArithmetic::default),
        ),
        (
            "8-bit, 3-bit LUT, bare ⊟ (Fig. 3 as drawn)",
            Box::new(move || bare(FixedFormat::default(), 3)),
        ),
        (
            "8-bit, 3-bit LUT, fwd/bwd",
            Box::new(FixedBpArithmetic::forward_backward),
        ),
        (
            "8-bit, 6-bit LUT, ⊟ + argmin exclusion",
            Box::new(|| FixedBpArithmetic::new(FixedFormat::new(8, 2), 6)),
        ),
        (
            "10-bit, 4-bit LUT, ⊟ + argmin exclusion",
            Box::new(|| FixedBpArithmetic::new(FixedFormat::new(10, 3), 4)),
        ),
        (
            "10-bit, 4-bit LUT, bare ⊟",
            Box::new(move || bare(FixedFormat::new(10, 3), 4)),
        ),
        (
            "14-bit, 8-bit LUT, bare ⊟",
            Box::new(move || bare(FixedFormat::new(14, 6), 8)),
        ),
        (
            "10-bit, 4-bit LUT, fwd/bwd",
            Box::new(|| {
                FixedBpArithmetic::with_mode(
                    FixedFormat::new(10, 3),
                    4,
                    CheckNodeMode::ForwardBackward,
                )
            }),
        ),
    ];

    let mut headers: Vec<String> = vec!["datapath variant".to_string()];
    headers.extend(ebn0_points.iter().map(|e| format!("BER @ {e:.1} dB")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!(
            "Fixed-point ablation (N = {}, rate 1/2, {} frames/point)",
            code.n(),
            frames
        ),
        &header_refs,
    );

    // Float reference first.
    let mut row = vec!["float64 reference".to_string()];
    for (i, &ebn0) in ebn0_points.iter().enumerate() {
        let result = run_monte_carlo(
            FloatBpArithmetic::default(),
            DecoderConfig::default(),
            &code,
            McConfig {
                ebn0_db: ebn0,
                frames,
                seed: 0xAB1 + i as u64,
            },
        );
        row.push(format!("{:.2e}", result.ber));
    }
    table.add_row(&row);

    for (name, make) in &variants {
        let mut row = vec![(*name).to_string()];
        for (i, &ebn0) in ebn0_points.iter().enumerate() {
            let result = run_monte_carlo(
                make(),
                DecoderConfig::default(),
                &code,
                McConfig {
                    ebn0_db: ebn0,
                    frames,
                    seed: 0xAB1 + i as u64,
                },
            );
            row.push(format!("{:.2e}", result.ber));
        }
        table.add_row(&row);
    }
    table.print();

    println!("Reading: bare ⊟ extraction needs ≳14-bit messages to match the float reference,");
    println!("and at 8 bits its BER rises again toward 3 dB. With argmin exclusion (the default)");
    println!("the 8-bit ⊟ datapath matches the 8-bit forward/backward recursion; both floor above");
    println!("the float reference at high SNR, and at 10 bits either update matches it.");
}
