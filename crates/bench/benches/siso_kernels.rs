//! Criterion micro-benchmarks of the SISO decoder kernels: the ⊞/⊟
//! operators, the check-node update variants (scalar per-row and lane-major
//! across a whole layer), the fused vs three-call layer update and the R2/R4
//! row processing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ldpc_codes::{CodeId, CodeRate, Standard};
use ldpc_core::arith::{layer_update_unfused, DecoderArithmetic};
use ldpc_core::boxplus::{boxminus, boxplus};
use ldpc_core::siso::{R2Siso, R4Siso};
use ldpc_core::{
    FixedBpArithmetic, FixedMinSumArithmetic, FloatBpArithmetic, FloatMinSumArithmetic, LaneKernel,
    LaneScratch, SimdLevel,
};

fn row_f64(degree: usize) -> Vec<f64> {
    (0..degree)
        .map(|i| ((i * 37 % 23) as f64 - 11.0) * 0.7 + 0.35)
        .collect()
}

fn row_codes(arith: &FixedBpArithmetic, degree: usize) -> Vec<i16> {
    row_f64(degree)
        .iter()
        .map(|&x| arith.from_channel(x))
        .collect()
}

fn bench_operators(c: &mut Criterion) {
    let mut group = c.benchmark_group("boxplus_operators");
    group.bench_function("boxplus_f64", |b| {
        b.iter(|| boxplus(black_box(1.7), black_box(-2.3)))
    });
    group.bench_function("boxminus_f64", |b| {
        b.iter(|| boxminus(black_box(1.1), black_box(-2.3)))
    });
    let fx = FixedBpArithmetic::default();
    group.bench_function("boxplus_fixed_lut", |b| {
        b.iter(|| fx.boxplus_codes(black_box(13), black_box(-22)))
    });
    group.bench_function("boxminus_fixed_lut", |b| {
        b.iter(|| fx.boxminus_codes(black_box(9), black_box(-22)))
    });
    group.finish();
}

fn bench_check_node_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_node_update_degree7");
    let degree = 7;
    let row = row_f64(degree);
    let float_bp = FloatBpArithmetic::default();
    let fixed_bp = FixedBpArithmetic::default();
    let fixed_fb = FixedBpArithmetic::forward_backward();
    let float_ms = FloatMinSumArithmetic::default();
    let fixed_ms = FixedMinSumArithmetic::default();
    let codes = row_codes(&fixed_bp, degree);

    group.bench_function("full_bp_float", |b| {
        let mut out = Vec::new();
        b.iter(|| float_bp.check_node_update(black_box(&row), &mut out))
    });
    group.bench_function("full_bp_fixed_sum_extract", |b| {
        let mut out = Vec::new();
        b.iter(|| fixed_bp.check_node_update(black_box(&codes), &mut out))
    });
    group.bench_function("full_bp_fixed_fwd_bwd", |b| {
        let mut out = Vec::new();
        b.iter(|| fixed_fb.check_node_update(black_box(&codes), &mut out))
    });
    group.bench_function("min_sum_float", |b| {
        let mut out = Vec::new();
        b.iter(|| float_ms.check_node_update(black_box(&row), &mut out))
    });
    group.bench_function("min_sum_fixed", |b| {
        let mut out = Vec::new();
        b.iter(|| fixed_ms.check_node_update(black_box(&codes), &mut out))
    });
    group.finish();
}

/// Scalar-vs-lane check-node update of one whole layer: `z = 96` rows (the
/// largest WiMAX circulant) of degree 7, the shape the layered engine feeds
/// the kernels. The scalar variant is the row-serial loop the engine used to
/// run (strided gather, per-row update, strided scatter); the lane variant is
/// one `check_node_update_lanes` call over the slot-major block.
fn bench_lane_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_check_node_z96_d7");
    let (z, degree) = (96usize, 7usize);
    let fixed_bp = FixedBpArithmetic::default();
    let fixed_fb = FixedBpArithmetic::forward_backward();
    let fixed_ms = FixedMinSumArithmetic::default();
    let lanes_f64: Vec<f64> = (0..degree * z)
        .map(|i| ((i * 37 % 23) as f64 - 11.0) * 0.7 + 0.35)
        .collect();
    let lanes_codes: Vec<i16> = lanes_f64
        .iter()
        .map(|&x| fixed_bp.from_channel(x))
        .collect();

    fn scalar<A: DecoderArithmetic>(
        arith: &A,
        z: usize,
        degree: usize,
        lanes_in: &[A::Msg],
        lanes_out: &mut [A::Msg],
        row_in: &mut Vec<A::Msg>,
        row_out: &mut Vec<A::Msg>,
    ) {
        for r in 0..z {
            row_in.clear();
            row_in.extend((0..degree).map(|slot| lanes_in[slot * z + r]));
            arith.check_node_update(row_in, row_out);
            for (slot, &m) in row_out.iter().enumerate() {
                lanes_out[slot * z + r] = m;
            }
        }
    }

    for (name, arith) in [
        ("fixed_bp_sum_extract", &fixed_bp),
        ("fixed_bp_fwd_bwd", &fixed_fb),
    ] {
        group.bench_function(format!("{name}_scalar"), |b| {
            let mut out = vec![0i16; degree * z];
            let (mut row_in, mut row_out) = (Vec::new(), Vec::new());
            b.iter(|| {
                scalar(
                    arith,
                    z,
                    degree,
                    black_box(&lanes_codes),
                    &mut out,
                    &mut row_in,
                    &mut row_out,
                )
            })
        });
        group.bench_function(format!("{name}_lane"), |b| {
            let mut out = vec![0i16; degree * z];
            let mut scratch = LaneScratch::new();
            scratch.reserve(degree, z);
            b.iter(|| {
                arith.check_node_update_lanes(z, black_box(&lanes_codes), &mut out, &mut scratch)
            })
        });
    }

    group.bench_function("fixed_min_sum_scalar", |b| {
        let mut out = vec![0i16; degree * z];
        let (mut row_in, mut row_out) = (Vec::new(), Vec::new());
        b.iter(|| {
            scalar(
                &fixed_ms,
                z,
                degree,
                black_box(&lanes_codes),
                &mut out,
                &mut row_in,
                &mut row_out,
            )
        })
    });
    group.bench_function("fixed_min_sum_lane", |b| {
        let mut out = vec![0i16; degree * z];
        let mut scratch = LaneScratch::new();
        scratch.reserve(degree, z);
        b.iter(|| {
            fixed_ms.check_node_update_lanes(z, black_box(&lanes_codes), &mut out, &mut scratch)
        })
    });
    group.finish();
}

/// The hottest gather of the fixed-point decode profile: the 3-bit
/// [`CorrectionLut`] lookup feeding every ⊞/⊟ (two lookups per operator).
/// `…_scalar` is the branchy per-element `lookup` loop the kernels used to
/// run (region branch + division per element); `…_lane` is the branch-free
/// clamped-index `lookup_slice` the hand-tuned kernels gather through now.
/// One panel of `z·d = 672` magnitudes, the shape one layer update feeds it.
fn bench_lut_gather(c: &mut Criterion) {
    use ldpc_core::CorrectionLut;
    let mut group = c.benchmark_group("lut_gather_z96_d7");
    let fx = FixedBpArithmetic::default();
    let magnitudes: Vec<i32> = (0..96 * 7).map(|i| (i * 37) % 128).collect();
    for (name, lut) in [("plus", fx.lut_plus()), ("minus", fx.lut_minus())] {
        group.bench_function(format!("{name}_scalar"), |b| {
            let mut out = vec![0i32; magnitudes.len()];
            b.iter(|| {
                for (o, &x) in out.iter_mut().zip(black_box(&magnitudes)) {
                    *o = lut.lookup(x);
                }
            })
        });
        group.bench_function(format!("{name}_lane"), |b| {
            let mut out = vec![0i32; magnitudes.len()];
            b.iter(|| {
                let lut: &CorrectionLut = lut;
                lut.lookup_slice(black_box(&magnitudes), &mut out);
            })
        });
    }
    group.finish();
}

/// Explicit-SIMD tier vs the scalar panel tier, same panel kernels, same
/// inputs — the `…_scalar` side pins [`SimdLevel::Scalar`] per instance
/// (the auto-vectorised branch-free loops, exactly the pre-SIMD code path)
/// and the `…_simd` side follows the process-wide dispatch (AVX2 with
/// `pshufb` LUT lookups on the recording container; `BENCH_simd.json` was
/// recorded with the earlier `i32`/`vpgatherdd` kernels). Gated in CI by
/// `compare_bench --require-simd-not-slower` on fresh runs (any host: both
/// sides dispatch identically without AVX2) and by
/// `--require-simd-speedup` on the committed recording. One layer of
/// `z = 96`, degree 7 — the same shape as `lane_check_node_z96_d7`.
fn bench_simd_panels(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_panels_z96_d7");
    let (z, degree) = (96usize, 7usize);
    let reference = FixedBpArithmetic::default();
    let lanes_codes: Vec<i16> = (0..degree * z)
        .map(|i| {
            let x = ((i * 37 % 23) as f64 - 11.0) * 0.7 + 0.35;
            reference.from_channel(x)
        })
        .collect();

    fn bench_lanes_pair<A: LaneKernel<Msg = i16>>(
        group: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        scalar: A,
        simd: A,
        z: usize,
        degree: usize,
        lanes_codes: &[i16],
    ) {
        for (tier, arith) in [("scalar", &scalar), ("simd", &simd)] {
            group.bench_function(format!("{name}_{tier}"), |b| {
                let mut out = vec![0i16; degree * z];
                let mut scratch = LaneScratch::new();
                scratch.reserve(degree, z);
                b.iter(|| {
                    arith.check_node_update_lanes(z, black_box(lanes_codes), &mut out, &mut scratch)
                })
            });
        }
    }

    bench_lanes_pair(
        &mut group,
        "fixed_bp_sum_extract",
        FixedBpArithmetic::default().with_simd_level(SimdLevel::Scalar),
        FixedBpArithmetic::default(),
        z,
        degree,
        &lanes_codes,
    );
    bench_lanes_pair(
        &mut group,
        "fixed_bp_fwd_bwd",
        FixedBpArithmetic::forward_backward().with_simd_level(SimdLevel::Scalar),
        FixedBpArithmetic::forward_backward(),
        z,
        degree,
        &lanes_codes,
    );
    bench_lanes_pair(
        &mut group,
        "fixed_min_sum",
        FixedMinSumArithmetic::default().with_simd_level(SimdLevel::Scalar),
        FixedMinSumArithmetic::default(),
        z,
        degree,
        &lanes_codes,
    );

    // The LUT lookup pass alone: scalar clamped-index loop vs the `pshufb`
    // lookup through the same table.
    let magnitudes: Vec<i16> = lanes_codes.iter().map(|&x| x.abs()).collect();
    for (name, lut) in [
        ("lut_plus", reference.lut_plus()),
        ("lut_minus", reference.lut_minus()),
    ] {
        // The `_simd` side follows the process-wide dispatch — on a host
        // without SIMD both sides run the scalar loop and the pair gates
        // degenerate to a self-comparison, by design.
        for (suffix, tier) in [
            ("scalar", SimdLevel::Scalar),
            ("simd", ldpc_core::arith::simd::active_level()),
        ] {
            group.bench_function(format!("{name}_{suffix}"), |b| {
                let mut out = vec![0i16; magnitudes.len()];
                b.iter(|| lut.lookup_slice_with(tier, black_box(&magnitudes), &mut out))
            });
        }
    }

    // The λ/L panel clamps (APP subtraction with zero remap, APP addition).
    let upd: Vec<i16> = lanes_codes.iter().rev().copied().collect();
    let sub_add_scalar = FixedBpArithmetic::default().with_simd_level(SimdLevel::Scalar);
    let sub_add_simd = FixedBpArithmetic::default();
    for (tier, arith) in [("scalar", &sub_add_scalar), ("simd", &sub_add_simd)] {
        group.bench_function(format!("fixed_bp_sub_add_{tier}"), |b| {
            let mut lam = vec![0i16; lanes_codes.len()];
            let mut app = vec![0i16; lanes_codes.len()];
            b.iter(|| {
                arith.sub_lanes(black_box(&lanes_codes), &upd, &mut lam);
                arith.add_lanes(&lam, &upd, &mut app);
            })
        });
    }
    group.finish();
}

/// The fused layer update (`FixedBpArithmetic::layer_update_lanes`, one
/// register-resident pass per chunk of lanes) against the three-call body it
/// replaces (`layer_update_unfused`: `sub_lanes`, `check_node_update_lanes`,
/// `add_lanes` through slot-major scratch panels), per pinned kernel tier.
/// One iteration updates every layer of one frame group in place, at the
/// decoder's group width: WiMAX-2304 (`z · F = 96 · 2 = 192` lanes) and
/// WiMAX-576 (`24 · 6 = 144`). Report-only.
fn bench_layer_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("layer_update");
    for n in [2304usize, 576] {
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, n)
            .build()
            .unwrap();
        let compiled = code.compile();
        let (z, layers) = (compiled.z(), compiled.block_rows());
        let width = ldpc_core::group_width_for(z);
        let reference = FixedBpArithmetic::default();
        let app0: Vec<i16> = (0..n * width)
            .map(|i| reference.from_channel(((i * 37 % 23) as f64 - 9.0) * 0.7 + 0.35))
            .collect();
        let mut scratch = LaneScratch::new();
        scratch.reserve(compiled.max_degree(), z * width);
        for level in [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2] {
            let arith = FixedBpArithmetic::default().with_simd_level(level);
            let tier = level.effective().name();
            for fused in [true, false] {
                let side = if fused { "fused" } else { "three_call" };
                let mut app = app0.clone();
                let mut lambda = vec![0i16; compiled.num_edges() * width];
                group.bench_function(format!("wimax{n}_zw{}_{side}_{tier}", z * width), |b| {
                    b.iter(|| {
                        for layer in 0..layers {
                            let lanes = compiled.layer_lanes(layer);
                            let (app, lambda) = (&mut app[..], &mut lambda[..]);
                            if fused {
                                arith.layer_update_lanes(
                                    &lanes,
                                    z,
                                    width,
                                    app,
                                    lambda,
                                    &mut scratch,
                                );
                            } else {
                                layer_update_unfused(
                                    &arith,
                                    &lanes,
                                    z,
                                    width,
                                    app,
                                    lambda,
                                    &mut scratch,
                                );
                            }
                        }
                        black_box(&app);
                    })
                });
            }
        }
    }
    group.finish();
}

fn bench_siso_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("siso_row_degree20");
    let arith = FixedBpArithmetic::default();
    let codes = row_codes(&arith, 20);
    let r2 = R2Siso::new(arith.clone());
    let r4 = R4Siso::new(arith);
    group.bench_function("radix2", |b| b.iter(|| r2.process_row(black_box(&codes))));
    group.bench_function("radix4", |b| b.iter(|| r4.process_row(black_box(&codes))));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_operators, bench_check_node_updates, bench_lane_kernels, bench_lut_gather, bench_simd_panels, bench_layer_update, bench_siso_rows
}
criterion_main!(benches);
