//! Integration of the architecture model with the algorithmic decoder and the
//! cost models: functional equivalence, throughput and the power experiments.

use ldpc::prelude::*;

#[test]
fn asic_datapath_matches_algorithmic_decoder_across_modes() {
    let mut asic = AsicLdpcDecoder::paper_multimode().unwrap();
    for id in [
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576),
        CodeId::new(Standard::Wimax80216e, CodeRate::R3_4, 1152),
        CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648),
    ] {
        let code = id.build().unwrap();
        asic.configure(&id).unwrap();
        let reference = LayeredDecoder::new(
            asic.datapath().arithmetic.clone(),
            DecoderConfig {
                max_iterations: 10,
                early_termination: Some(EarlyTermination::default()),
                stop_on_zero_syndrome: false,
                layer_order: LayerOrderPolicy::Natural,
            },
        )
        .unwrap();
        let channel = AwgnChannel::from_ebn0_db(2.5, code.rate());
        let mut source = FrameSource::random(&code, 1234).unwrap();
        for _ in 0..2 {
            let frame = source.next_frame();
            let llrs = channel.transmit(&frame.codeword, source.noise_rng());
            let asic_out = asic.decode(&llrs).unwrap();
            let ref_out = reference.decode(&code, &llrs).unwrap();
            assert_eq!(asic_out.hard_bits, ref_out.hard_bits, "mode {id}");
            assert_eq!(asic_out.iterations, ref_out.iterations, "mode {id}");
        }
    }
}

#[test]
fn peak_throughput_reaches_the_gigabit_class() {
    // Table 3: the decoder sustains ~1 Gbps at 450 MHz with 10 iterations.
    let throughput = ThroughputModel::paper_operating_point();
    let pipeline = PipelineModel::new(PipelineOptions::default());
    let mut best = 0.0f64;
    for id in [
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304),
        CodeId::new(Standard::Wimax80216e, CodeRate::R5_6, 2304),
        CodeId::new(Standard::Wifi80211n, CodeRate::R5_6, 1944),
    ] {
        let code = id.build().unwrap();
        let mode = ldpc::arch::DecoderModeConfig::from_code(&code);
        let cycles = pipeline.frame_cycles(&mode, 10);
        best = best.max(throughput.simulated_bps(&mode, code.rate(), &cycles));
    }
    assert!(
        best > 1.0e9,
        "cycle-accurate peak throughput {best:.3e} bit/s should exceed 1 Gbps"
    );
    assert!(best < 4.0e9, "sanity upper bound");
}

#[test]
fn early_termination_power_reduction_reaches_the_papers_magnitude() {
    // Fig. 9(a): at a good channel the measured average iteration count drops
    // far enough that the modelled power falls by ≳50 % (paper: up to 65 %).
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
        .build()
        .unwrap();
    let decoder = LayeredDecoder::new(
        FloatBpArithmetic::default(),
        DecoderConfig::paper_early_termination(),
    )
    .unwrap();
    let channel = AwgnChannel::from_ebn0_db(4.5, code.rate());
    let mut source = FrameSource::random(&code, 55).unwrap();
    let frames = 6;
    let mut avg_iters = 0.0;
    for _ in 0..frames {
        let frame = source.next_frame();
        let llrs = channel.transmit(&frame.codeword, source.noise_rng());
        avg_iters += decoder.decode(&code, &llrs).unwrap().iterations as f64;
    }
    avg_iters /= frames as f64;

    let power = PowerModel::paper_90nm();
    let with_et = power.power_with_early_termination(96, 96, 450.0e6, avg_iters, 10);
    let without_et = power.power_with_early_termination(96, 96, 450.0e6, 10.0, 10);
    let saving = 1.0 - with_et.total_mw / without_et.total_mw;
    assert!(
        saving > 0.5,
        "saving {saving:.2} (avg iterations {avg_iters:.1})"
    );
    assert!(saving < 0.8);
}

#[test]
fn distributed_banking_power_tracks_block_size() {
    // Fig. 9(b): power grows monotonically with the active block size.
    let power = PowerModel::paper_90nm();
    let mut previous = 0.0;
    for z in [24, 32, 48, 64, 80, 96] {
        let p = power.power(z, 96, 450.0e6, 1.0).total_mw;
        assert!(p > previous);
        previous = p;
    }
    let small = power.power(24, 96, 450.0e6, 1.0).total_mw;
    let large = power.power(96, 96, 450.0e6, 1.0).total_mw;
    assert!(large / small > 1.4 && large / small < 1.8);
}

#[test]
fn area_model_is_consistent_with_table2_and_table3() {
    let area = AreaModel::paper_90nm();
    // Table 2 ratios.
    assert!(area.efficiency_eta(200.0e6) > area.efficiency_eta(450.0e6));
    // Full decoder ≈ 3.5 mm² (Table 3) with the paper's configuration.
    let asic = AsicLdpcDecoder::paper_multimode().unwrap();
    let report = area.decoder_area(
        96,
        SisoRadix::Radix4,
        450.0e6,
        asic.datapath().lambda_slots_per_lane,
        24,
        8,
        10,
        asic.mode_rom(),
    );
    assert!((report.total_mm2 - 3.5).abs() < 0.4);
    // The SISO array must dominate the logic area.
    assert!(report.siso_array_mm2 > report.shifter_mm2);
    assert!(report.siso_array_mm2 > report.control_mm2);
}

#[test]
fn energy_per_bit_is_in_the_expected_range() {
    // 410 mW at >1 Gbps is a few hundred pJ/bit — the right order of
    // magnitude for a 90 nm LDPC decoder.
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304)
        .build()
        .unwrap();
    let mode = ldpc::arch::DecoderModeConfig::from_code(&code);
    let cycles = PipelineModel::new(PipelineOptions::default()).frame_cycles(&mode, 10);
    let throughput =
        ThroughputModel::paper_operating_point().simulated_bps(&mode, code.rate(), &cycles);
    let power = PowerModel::paper_90nm().peak_power_mw();
    let energy = EnergyReport::new(power, throughput, code.info_bits());
    assert!(energy.pj_per_bit > 100.0 && energy.pj_per_bit < 1000.0);
    assert!(energy.nj_per_frame > 0.0);
}
