//! Table 2 — comparison of the Radix-2 and Radix-4 SISO decoder
//! architectures: area at three synthesis clock targets and the
//! throughput-area efficiency factor η.
//!
//! Our substrate is the calibrated area model (we cannot run the 90 nm ASIC
//! flow); the cycle behaviour of both cores comes from the behavioural SISO
//! models, so the speed-up factor is measured, not assumed.
//!
//! ```bash
//! cargo run --release -p ldpc-bench --bin table2
//! ```

use ldpc_arch::AreaModel;
use ldpc_bench::{paper, Table};
use ldpc_codes::{CodeId, CodeRate, Standard};
use ldpc_core::siso::{R2Siso, R4Siso, SisoRadix};
use ldpc_core::{FixedBpArithmetic, FixedFormat};

/// Measured per-row pipelined cycle counts of the two SISO cores for the
/// check-row degrees of a representative code (WiMax rate 1/2).
fn measured_speedup() -> f64 {
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304)
        .build()
        .unwrap();
    let arith = FixedBpArithmetic::new(FixedFormat::default(), 3);
    let r2 = R2Siso::new(arith.clone());
    let r4 = R4Siso::new(arith);
    let mut cycles_r2 = 0usize;
    let mut cycles_r4 = 0usize;
    for layer in code.layers() {
        let lambdas: Vec<i16> = (0..layer.weight()).map(|i| 10 + i as i16).collect();
        cycles_r2 += r2.process_row(&lambdas).pipelined_cycles();
        cycles_r4 += r4.process_row(&lambdas).pipelined_cycles();
    }
    cycles_r2 as f64 / cycles_r4 as f64
}

fn main() {
    let area = AreaModel::paper_90nm();
    let speedup = measured_speedup();

    let mut table = Table::new(
        "Table 2: comparison of the two SISO decoder architectures",
        &["quantity", "450 MHz", "325 MHz", "200 MHz"],
    );

    let clocks = [450.0e6, 325.0e6, 200.0e6];
    let fmt = |v: f64| format!("{v:.0}");
    table.add_row(&[
        "R2 SISO area (um^2), model".to_string(),
        fmt(area.siso_area_um2(SisoRadix::Radix2, clocks[0])),
        fmt(area.siso_area_um2(SisoRadix::Radix2, clocks[1])),
        fmt(area.siso_area_um2(SisoRadix::Radix2, clocks[2])),
    ]);
    table.add_row(&[
        "R2 SISO area (um^2), paper".to_string(),
        fmt(paper::table2::R2_AREA_UM2[0]),
        fmt(paper::table2::R2_AREA_UM2[1]),
        fmt(paper::table2::R2_AREA_UM2[2]),
    ]);
    table.add_row(&[
        "R4 SISO area (um^2), model".to_string(),
        fmt(area.siso_area_um2(SisoRadix::Radix4, clocks[0])),
        fmt(area.siso_area_um2(SisoRadix::Radix4, clocks[1])),
        fmt(area.siso_area_um2(SisoRadix::Radix4, clocks[2])),
    ]);
    table.add_row(&[
        "R4 SISO area (um^2), paper".to_string(),
        fmt(paper::table2::R4_AREA_UM2[0]),
        fmt(paper::table2::R4_AREA_UM2[1]),
        fmt(paper::table2::R4_AREA_UM2[2]),
    ]);
    table.add_row(&[
        "eta = speedup/area-overhead, model".to_string(),
        format!(
            "{:.2}",
            speedup
                / (area.siso_area_um2(SisoRadix::Radix4, clocks[0])
                    / area.siso_area_um2(SisoRadix::Radix2, clocks[0]))
        ),
        format!(
            "{:.2}",
            speedup
                / (area.siso_area_um2(SisoRadix::Radix4, clocks[1])
                    / area.siso_area_um2(SisoRadix::Radix2, clocks[1]))
        ),
        format!(
            "{:.2}",
            speedup
                / (area.siso_area_um2(SisoRadix::Radix4, clocks[2])
                    / area.siso_area_um2(SisoRadix::Radix2, clocks[2]))
        ),
    ]);
    table.add_row(&[
        "eta, paper".to_string(),
        format!("{:.2}", paper::table2::ETA[0]),
        format!("{:.2}", paper::table2::ETA[1]),
        format!("{:.2}", paper::table2::ETA[2]),
    ]);
    table.print();

    println!(
        "Measured R4/R2 throughput speed-up on the WiMax rate-1/2 row degrees: {speedup:.2}x \
         (the paper assumes 2x)."
    );
    println!("R4-SISO is area-efficient especially at lower clock frequencies (eta grows as the clock relaxes).");
}
