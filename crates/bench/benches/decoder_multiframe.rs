//! Criterion benchmark of the frame-major multi-frame engine against the
//! single-frame lane path, for the fixed-point back-ends on the WiMax-class
//! rate-1/2 2304-bit code at a fixed 10 iterations.
//!
//! Two variants per back-end and batch size:
//!
//! * `…_lane`       — sequential `decode_into` against a precompiled schedule
//!   with one reused workspace: the PR 2 lane-major path, one frame at a
//!   time (the same shape as `decoder_lane_vs_scalar/…_lane` in
//!   `BENCH_batch.json`, which is the recorded baseline the multi-frame
//!   engine is gated ≥ 1.25× against);
//! * `…_multiframe` — `decode_batch_into_threads(…, 1)`: the engine regroups
//!   the batch into frame-major `FrameGroup`s (heuristic width, ragged tail
//!   included) and decodes `z · F`-lane panels.
//!
//! Fixed iterations mean both variants do identical arithmetic work — the
//! difference is pure execution shape (panel width + the branch-free LUT
//! kernels' better utilisation on wider panels). Throughput is declared in
//! frames per iteration. Run with
//! `CRITERION_JSON_OUT=BENCH_multiframe.json` to record a machine-readable
//! baseline; `compare_bench --require-multiframe-not-slower` gates
//! `…_multiframe` against same-run `…_lane`, and
//! `compare_bench BENCH_batch.json BENCH_multiframe.json
//! --require-multiframe-speedup 1.25` gates the recorded files against the
//! PR 2 lane baselines.
//!
//! A third pair per fixed-point back-end measures the explicit-SIMD kernel
//! tier end-to-end at batch 64 on the engine path:
//!
//! * `…_mf_scalar` — the multi-frame engine with the arithmetic pinned to
//!   [`SimdLevel::Scalar`] (the auto-vectorised panel loops, i.e. the PR 4
//!   code path);
//! * `…_mf_simd`   — the same engine following the process-wide runtime
//!   dispatch (AVX2 on the recording container: `vpgatherdd` LUT gathers
//!   when `BENCH_simd.json` was recorded, `pshufb` lookups since; degrades to the identical scalar kernels on hosts without
//!   SIMD, making the pair a self-comparison there).
//!
//! The two sides decode bit-identically — the pair isolates exactly the
//! kernel-tier contribution. `compare_bench --require-simd-not-slower`
//! gates fresh runs on any host, and `--require-simd-speedup 1.15` gates
//! the committed `BENCH_simd.json` recording of this bench (end-to-end
//! fixed-point speedup on an AVX2 host, machine-independent in CI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ldpc_channel::awgn::AwgnChannel;
use ldpc_channel::workload::FrameSource;
use ldpc_codes::{CodeId, CodeRate, Standard};
use ldpc_core::decoder::{DecoderConfig, LayeredDecoder};
use ldpc_core::{
    DecodeOutput, Decoder, FixedBpArithmetic, FixedMinSumArithmetic, LaneKernel, LlrBatch,
    SimdLevel,
};

fn bench_multiframe(c: &mut Criterion) {
    bench_code(
        c,
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304),
        "",
    );
    // The small-z mode the frame-major axis exists for: z = 24, where the
    // single-frame lane path runs quarter-empty panels and the group packs
    // six frames per panel. (No recorded lane baseline exists for these ids,
    // so the cross-file speedup gate skips them by design; the same-run
    // multiframe-not-slower gate still applies.)
    bench_code(
        c,
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576),
        "z24_",
    );
}

fn bench_code(c: &mut Criterion, id: CodeId, prefix: &str) {
    let code = id.build().unwrap();
    let compiled = code.compile();
    let channel = AwgnChannel::from_ebn0_db(2.5, code.rate());
    let mut source = FrameSource::random(&code, 99).unwrap();
    let block = source.next_block(&channel, 64);

    fn bench_backend<A: LaneKernel + Clone + Sync>(
        group: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        arith: A,
        compiled: &ldpc_codes::CompiledCode,
        llrs: &[f64],
        frames: usize,
    ) {
        // Fixed iterations: both variants do identical arithmetic work.
        let decoder = LayeredDecoder::new(arith, DecoderConfig::fixed_iterations(10)).unwrap();
        let batch = LlrBatch::new(llrs, compiled.n()).unwrap();
        group.bench_with_input(
            BenchmarkId::new(&format!("{name}_lane"), frames),
            &batch,
            |b, batch| {
                let mut ws = decoder.workspace_for(compiled);
                let mut out = DecodeOutput::empty();
                b.iter(|| {
                    for llrs in batch.iter() {
                        decoder
                            .decode_into(compiled, llrs, &mut ws, &mut out)
                            .unwrap();
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(&format!("{name}_multiframe"), frames),
            &batch,
            |b, batch| {
                let mut outputs: Vec<DecodeOutput> =
                    (0..batch.frames()).map(|_| DecodeOutput::empty()).collect();
                b.iter(|| {
                    decoder
                        .decode_batch_into_threads(compiled, *batch, &mut outputs, 1)
                        .unwrap()
                })
            },
        );
    }

    /// The explicit-SIMD end-to-end pair: the same engine path as
    /// `…_multiframe`, once with the kernels pinned to the scalar tier and
    /// once following the process-wide dispatch.
    fn bench_simd_pair<A: LaneKernel + Clone + Sync>(
        group: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        scalar_arith: A,
        simd_arith: A,
        compiled: &ldpc_codes::CompiledCode,
        llrs: &[f64],
        frames: usize,
    ) {
        for (tier, arith) in [("mf_scalar", scalar_arith), ("mf_simd", simd_arith)] {
            let decoder = LayeredDecoder::new(arith, DecoderConfig::fixed_iterations(10)).unwrap();
            let batch = LlrBatch::new(llrs, compiled.n()).unwrap();
            group.bench_with_input(
                BenchmarkId::new(&format!("{name}_{tier}"), frames),
                &batch,
                |b, batch| {
                    let mut outputs: Vec<DecodeOutput> =
                        (0..batch.frames()).map(|_| DecodeOutput::empty()).collect();
                    b.iter(|| {
                        decoder
                            .decode_batch_into_threads(compiled, *batch, &mut outputs, 1)
                            .unwrap()
                    })
                },
            );
        }
    }

    let mut group = c.benchmark_group("decoder_multiframe");
    for &frames in &[8usize, 64] {
        let llrs = &block.llrs[..frames * code.n()];
        group.throughput(Throughput::Elements(frames as u64));
        bench_backend(
            &mut group,
            &format!("{prefix}fixed_bp"),
            FixedBpArithmetic::default(),
            &compiled,
            llrs,
            frames,
        );
        bench_backend(
            &mut group,
            &format!("{prefix}fixed_bp_fwd_bwd"),
            FixedBpArithmetic::forward_backward(),
            &compiled,
            llrs,
            frames,
        );
        bench_backend(
            &mut group,
            &format!("{prefix}fixed_min_sum"),
            FixedMinSumArithmetic::default(),
            &compiled,
            llrs,
            frames,
        );
    }
    // The SIMD tier pairs at the steady-state batch size only (the tier
    // contribution is shape-independent; one size keeps the gate fast), and
    // only for the main code (the z24 ids exist for the frame-major axis).
    if prefix.is_empty() {
        let frames = 64usize;
        let llrs = &block.llrs[..frames * code.n()];
        group.throughput(Throughput::Elements(frames as u64));
        bench_simd_pair(
            &mut group,
            "fixed_bp",
            FixedBpArithmetic::default().with_simd_level(SimdLevel::Scalar),
            FixedBpArithmetic::default(),
            &compiled,
            llrs,
            frames,
        );
        bench_simd_pair(
            &mut group,
            "fixed_bp_fwd_bwd",
            FixedBpArithmetic::forward_backward().with_simd_level(SimdLevel::Scalar),
            FixedBpArithmetic::forward_backward(),
            &compiled,
            llrs,
            frames,
        );
        bench_simd_pair(
            &mut group,
            "fixed_min_sum",
            FixedMinSumArithmetic::default().with_simd_level(SimdLevel::Scalar),
            FixedMinSumArithmetic::default(),
            &compiled,
            llrs,
            frames,
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(700));
    targets = bench_multiframe
}
criterion_main!(benches);
