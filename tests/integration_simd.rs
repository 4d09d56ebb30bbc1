//! Explicit-SIMD kernel tier integration: every 16-bit panel kernel must be
//! **bit-identical** to the scalar reference on every reachable input —
//! swept over the whole code domain of a spread of message formats (every
//! code on either operand), over boundary/saturation values of the
//! clamp/minima kernels, over ragged panel lengths that are not a multiple
//! of any vector width, and end-to-end through the full decoder for every
//! fixed-point back-end at every kernel tier.
//!
//! Levels above the running CPU's capability silently degrade
//! ([`SimdLevel::effective`]), so the whole sweep is portable: on an AVX2
//! host it pins AVX2, SSE4.1 and scalar against each other; on a host
//! without SIMD it degenerates to scalar-vs-scalar self-checks. The
//! `LDPC_FORCE_SCALAR=1` CI leg reruns all of this (and every other test)
//! with the process-wide dispatch pinned to the fallback.

use ldpc::core::arith::layer_update_unfused;
use ldpc::core::arith::simd::{self, SimdLevel};
use ldpc::core::fixedpoint::FixedFormat;
use ldpc::core::lut::{CorrectionKind, CorrectionLut};
use ldpc::core::MAX_GROUP_WIDTH;
use ldpc::prelude::*;

const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2];

/// The message formats of the domain sweep: the pshufb-sized tables (5,1),
/// (6,1) and the paper's (8,2), and formats whose dense tables are larger
/// than 16 entries, up to the 14-bit limit.
const FORMATS: [(u32, u32); 6] = [(5, 1), (6, 1), (8, 2), (10, 4), (12, 6), (14, 6)];

/// Partners of code `x` in a domain of `[-max, max]`: the edges, small
/// codes, `x`'s own neighbourhood (equal and opposite magnitudes, where the
/// ⊞/⊟ difference vanishes) and an even spread — so that, swept over every
/// `x`, each code meets every region of the other operand.
fn partners(max: i32, x: i32) -> Vec<i32> {
    let mut p = vec![0, 1, -1, 2, -2, max, -max, max - 1, 1 - max, x, -x];
    for d in [1, 2, 3, 5, 8] {
        p.extend([x + d, x - d, d - x, -x - d]);
    }
    let step = (2 * max / 37).max(1);
    p.extend((-max..=max).step_by(step as usize));
    p.retain(|v| v.abs() <= max);
    p
}

/// Every pair of the sweep for a domain of `[-max, max]`: all pairs when the
/// domain is small, otherwise every code against its [`partners`].
fn domain_pairs(max: i32) -> (Vec<i16>, Vec<i16>) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for x in -max..=max {
        let others = if max <= 255 {
            (-max..=max).collect()
        } else {
            partners(max, x)
        };
        for y in others {
            a.push(x as i16);
            b.push(y as i16);
        }
    }
    (a, b)
}

/// Every input code of the dense-LUT domain — all magnitudes from 0 through
/// the top of the 16-bit panel range, far past the saturation cutoff — must
/// look up identically to the branchy scalar `lookup` at every kernel tier,
/// for a spread of formats (tables that fit one `pshufb` and larger ones).
#[test]
fn lut_gather_matches_scalar_lookup_over_the_whole_dense_domain() {
    for (w, f) in FORMATS {
        let format = FixedFormat::new(w, f);
        for kind in [CorrectionKind::Plus, CorrectionKind::Minus] {
            let lut = CorrectionLut::new(kind, format, 3);
            assert!(
                !lut.dense_table().is_empty(),
                "every message format up to 14 bits goes dense"
            );
            let xs: Vec<i16> = (0..=i16::MAX).collect();
            let expected: Vec<i16> = xs
                .iter()
                .map(|&x| lut.lookup(i32::from(x)) as i16)
                .collect();
            for level in LEVELS {
                let mut out = vec![0i16; xs.len()];
                lut.lookup_slice_with(level, &xs, &mut out);
                assert_eq!(out, expected, "{kind:?} {format} lookup_slice at {level:?}");
                let mut inplace = xs.clone();
                lut.map_slice_with(level, &mut inplace);
                assert_eq!(
                    inplace, expected,
                    "{kind:?} {format} map_slice at {level:?}"
                );
            }
        }
    }
}

/// The code-domain sweep of the 16-bit kernels: ⊞, ⊞-assign and ⊟ panels
/// against the `i32` scalar operators, and `L − Λ` / `L = λ + Λ′` against the
/// arithmetic's scalar `sub`/`add`, for every format of [`FORMATS`] at every
/// tier. `L` ranges over the whole APP domain (two bits wider than the
/// message), so the 16-bit `L − Λ` saturation edge is covered.
#[test]
fn panel_kernels_match_the_scalar_reference_over_the_code_domain() {
    for (w, f) in FORMATS {
        let format = FixedFormat::new(w, f);
        let max = format.max_code();
        let reference = FixedBpArithmetic::new(format, 3);
        let (a, b) = domain_pairs(max);
        let n = a.len();
        let expected = |op: fn(&FixedBpArithmetic, i32, i32) -> i32| -> Vec<i16> {
            a.iter()
                .zip(&b)
                .map(|(&x, &y)| op(&reference, i32::from(x), i32::from(y)) as i16)
                .collect()
        };
        let plus = expected(FixedBpArithmetic::boxplus_codes);
        let minus = expected(FixedBpArithmetic::boxminus_codes);
        let max16 = max as i16;
        for level in LEVELS {
            let (mut out, mut mins, mut sums, mut diffs) =
                (vec![0i16; n], vec![0i16; n], vec![0i16; n], vec![0i16; n]);
            simd::boxplus_panel(
                level,
                reference.lut_plus(),
                max16,
                &a,
                &b,
                &mut out,
                &mut mins,
                &mut sums,
                &mut diffs,
            );
            assert_eq!(out, plus, "⊞ {format} at {level:?}");
            let mut acc = a.clone();
            simd::boxplus_assign_panel(
                level,
                reference.lut_plus(),
                max16,
                &mut acc,
                &b,
                &mut mins,
                &mut sums,
                &mut diffs,
            );
            assert_eq!(acc, plus, "⊞= {format} at {level:?}");
            simd::boxminus_panel(
                level,
                reference.lut_minus(),
                max16,
                &a,
                &b,
                &mut out,
                &mut mins,
                &mut sums,
                &mut diffs,
            );
            assert_eq!(out, minus, "⊟ {format} at {level:?}");
        }

        // L over the whole APP domain against every message code's partners
        // and vice versa.
        let app_max = reference.app_format().max_code();
        let (mut l, mut lam) = (Vec::new(), Vec::new());
        for x in -app_max..=app_max {
            let near = x.clamp(-max, max);
            for y in [
                0,
                1,
                -1,
                max,
                -max,
                max - 1,
                1 - max,
                near,
                -near,
                near - near.signum(),
                near.signum() - near,
            ] {
                l.push(x as i16);
                lam.push(y as i16);
            }
        }
        for y in -max..=max {
            for x in partners(app_max, y).into_iter().chain([app_max, -app_max]) {
                l.push(x as i16);
                lam.push(y as i16);
            }
        }
        let min_sum = FixedMinSumArithmetic::new(format);
        for level in LEVELS {
            let bp = FixedBpArithmetic::new(format, 3).with_simd_level(level);
            let ms = min_sum.with_simd_level(level);
            let mut out = vec![0i16; l.len()];
            bp.sub_lanes(&l, &lam, &mut out);
            let want: Vec<i16> = l.iter().zip(&lam).map(|(&x, &y)| bp.sub(x, y)).collect();
            assert_eq!(out, want, "fixed-BP L − Λ {format} at {level:?}");
            ms.sub_lanes(&l, &lam, &mut out);
            let want: Vec<i16> = l.iter().zip(&lam).map(|(&x, &y)| ms.sub(x, y)).collect();
            assert_eq!(out, want, "min-sum L − Λ {format} at {level:?}");
            // λ + Λ′: both operands are message codes.
            let mut sum = vec![0i16; n];
            bp.add_lanes(&a, &b, &mut sum);
            let want: Vec<i16> = a.iter().zip(&b).map(|(&x, &y)| bp.add(x, y)).collect();
            assert_eq!(sum, want, "λ + Λ′ {format} at {level:?}");
        }
    }
}

/// Channel quantisation in one kernel-tier pass must equal
/// `FixedFormat::quantize` (plus the fixed-BP zero remap) on ties, both
/// zeros, infinities, NaN, subnormals and saturation, for every format.
#[test]
fn channel_quantisation_matches_fixed_format_quantize() {
    for (w, f) in FORMATS {
        let format = FixedFormat::new(w, f);
        let step = format.step();
        let mut llrs = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
            1e300,
            -1e300,
            0.499_999_999_999_999_94 * step,
            -0.499_999_999_999_999_94 * step,
        ];
        for c in -(format.max_code() + 3)..=format.max_code() + 3 {
            let v = f64::from(c) * step;
            let tie = (f64::from(c) + 0.5) * step;
            llrs.extend([
                v,
                tie,
                tie.next_up(),
                tie.next_down(),
                v.next_up(),
                v.next_down(),
            ]);
        }
        let finite: Vec<f64> = llrs.iter().copied().filter(|l| l.is_finite()).collect();
        for level in LEVELS {
            let bp = FixedBpArithmetic::new(format, 3).with_simd_level(level);
            let ms = FixedMinSumArithmetic::new(format).with_simd_level(level);
            // The finiteness verdict of the same pass: one non-finite value
            // anywhere (every vector lane, the scalar tail) refuses.
            let mut out = vec![0i16; finite.len()];
            assert!(
                bp.from_channel_slice(&finite, &mut out),
                "{format} at {level:?}"
            );
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in 0..19 {
                    let mut llrs = finite[..19].to_vec();
                    llrs[at] = bad;
                    let mut out = vec![0i16; llrs.len()];
                    assert!(!bp.from_channel_slice(&llrs, &mut out), "{bad} at {at}");
                    assert!(!ms.from_channel_slice(&llrs, &mut out), "{bad} at {at}");
                }
            }
            let mut out = vec![0i16; llrs.len()];
            assert!(!ms.from_channel_slice(&llrs, &mut out));
            for (&l, &q) in llrs.iter().zip(&out) {
                assert_eq!(
                    i32::from(q),
                    format.quantize(l),
                    "{format} {l:e} at {level:?}"
                );
            }
            assert!(!bp.from_channel_slice(&llrs, &mut out));
            for (&l, &q) in llrs.iter().zip(&out) {
                let plain = format.quantize(l);
                let want = if plain != 0 {
                    plain
                } else if l < 0.0 {
                    -1
                } else {
                    1
                };
                assert_eq!(i32::from(q), want, "{format} {l:e} at {level:?} (remap)");
            }
        }
    }
}

/// Boundary and saturation sweep for the clamp kernels (`sub_lanes` both
/// flavours, `add_lanes`) and the ⊞/⊟ panel decomposition: message and APP
/// codes at and around every clamp edge, ragged lengths straddling both
/// vector widths.
#[test]
fn clamp_and_box_kernels_match_scalar_on_boundary_values() {
    let format = FixedFormat::default();
    let app = FixedFormat::new(10, 2);
    let (hi, ahi) = (format.max_code() as i16, app.max_code() as i16);
    let (lo, alo) = (-hi, -ahi);
    let lut = CorrectionLut::new(CorrectionKind::Plus, format, 3);

    // Edge-heavy value pool: zeros, ±1, clamp edges of both formats, and
    // values just inside/outside them, up to the i16 rails.
    let pool: Vec<i16> = vec![
        0,
        1,
        -1,
        2,
        -2,
        hi,
        lo,
        hi - 1,
        lo + 1,
        ahi,
        alo,
        ahi - 1,
        alo + 1,
        64,
        -64,
        200,
        -200,
        511,
        -511,
        i16::MAX,
        -i16::MAX,
    ];
    for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 31, 33, 64, 97] {
        let a: Vec<i16> = (0..n).map(|i| pool[(i * 7) % pool.len()]).collect();
        let b: Vec<i16> = (0..n).map(|i| pool[(i * 11 + 3) % pool.len()]).collect();
        // Message-range operands for the ⊞/⊟ kernels (the decoder only
        // feeds them saturated codes).
        let am: Vec<i16> = a.iter().map(|&x| x.clamp(lo, hi)).collect();
        let bm: Vec<i16> = b.iter().map(|&x| x.clamp(lo, hi)).collect();

        let mut expected = vec![0i16; n];
        let mut got = vec![0i16; n];
        for level in LEVELS {
            simd::sub_lanes_remap(SimdLevel::Scalar, lo, hi, &a, &b, &mut expected);
            simd::sub_lanes_remap(level, lo, hi, &a, &b, &mut got);
            assert_eq!(got, expected, "sub_lanes_remap {level:?} n={n}");

            simd::sub_lanes_clamp(SimdLevel::Scalar, lo, hi, &a, &b, &mut expected);
            simd::sub_lanes_clamp(level, lo, hi, &a, &b, &mut got);
            assert_eq!(got, expected, "sub_lanes_clamp {level:?} n={n}");

            simd::add_lanes_clamp(SimdLevel::Scalar, alo, ahi, &a, &b, &mut expected);
            simd::add_lanes_clamp(level, alo, ahi, &a, &b, &mut got);
            assert_eq!(got, expected, "add_lanes_clamp {level:?} n={n}");

            let mut scratch = vec![0i16; 3 * n];
            let (mins, rest) = scratch.split_at_mut(n);
            let (sums, diffs) = rest.split_at_mut(n);
            simd::boxplus_panel(
                SimdLevel::Scalar,
                &lut,
                hi,
                &am,
                &bm,
                &mut expected,
                mins,
                sums,
                diffs,
            );
            simd::boxplus_panel(level, &lut, hi, &am, &bm, &mut got, mins, sums, diffs);
            assert_eq!(got, expected, "boxplus_panel {level:?} n={n}");

            simd::boxminus_panel(
                SimdLevel::Scalar,
                &lut,
                hi,
                &am,
                &bm,
                &mut expected,
                mins,
                sums,
                diffs,
            );
            simd::boxminus_panel(level, &lut, hi, &am, &bm, &mut got, mins, sums, diffs);
            assert_eq!(got, expected, "boxminus_panel {level:?} n={n}");

            let mut acc_expected = am.clone();
            let mut acc_got = am.clone();
            simd::boxplus_assign_panel(
                SimdLevel::Scalar,
                &lut,
                hi,
                &mut acc_expected,
                &bm,
                mins,
                sums,
                diffs,
            );
            simd::boxplus_assign_panel(level, &lut, hi, &mut acc_got, &bm, mins, sums, diffs);
            assert_eq!(
                acc_got, acc_expected,
                "boxplus_assign_panel {level:?} n={n}"
            );
        }
    }
}

/// The Min-Sum minima tracking must keep exact first-wins tie semantics at
/// every tier: sweeps panels full of magnitude ties, sentinel survivals
/// (degree-1 lanes keep `i16::MAX` until saturation) and saturated codes.
#[test]
fn min_sum_minima_tracking_matches_scalar_with_ties_and_saturation() {
    let max_code = 127;
    // Tie-heavy pool: repeated magnitudes force the argmin tie-break path.
    let pool: Vec<i16> = vec![12, -12, 12, -12, 5, -5, 127, -127, 1, -1, 12, 5];
    for n in [1usize, 3, 4, 7, 8, 9, 13, 16, 17, 25, 64, 96, 101] {
        for degree in [1usize, 2, 3, 5, 8] {
            let slots: Vec<Vec<i16>> = (0..degree)
                .map(|s| (0..n).map(|i| pool[(i * 3 + s) % pool.len()]).collect())
                .collect();
            for level in LEVELS {
                let mut st_ref = (vec![i16::MAX; n], vec![i16::MAX; n], vec![0; n], vec![0; n]);
                let mut st = st_ref.clone();
                for (slot, inc) in slots.iter().enumerate() {
                    simd::min_sum_track(
                        SimdLevel::Scalar,
                        slot as i16,
                        inc,
                        &mut st_ref.0,
                        &mut st_ref.1,
                        &mut st_ref.2,
                        &mut st_ref.3,
                    );
                    simd::min_sum_track(
                        level,
                        slot as i16,
                        inc,
                        &mut st.0,
                        &mut st.1,
                        &mut st.2,
                        &mut st.3,
                    );
                    assert_eq!(st, st_ref, "track {level:?} n={n} d={degree} slot={slot}");
                }
                let (mut expected, mut got) = (vec![0i16; n], vec![0i16; n]);
                for (slot, inc) in slots.iter().enumerate() {
                    simd::min_sum_emit(
                        SimdLevel::Scalar,
                        slot as i16,
                        max_code,
                        inc,
                        &st_ref.0,
                        &st_ref.1,
                        &st_ref.2,
                        &st_ref.3,
                        &mut expected,
                    );
                    simd::min_sum_emit(
                        level,
                        slot as i16,
                        max_code,
                        inc,
                        &st.0,
                        &st.1,
                        &st.2,
                        &st.3,
                        &mut got,
                    );
                    assert_eq!(got, expected, "emit {level:?} n={n} d={degree} slot={slot}");
                }
            }
        }
    }
}

/// Full check-node panel kernels at every tier vs the row-serial scalar
/// reference, for both fixed back-ends (and every fixed-BP check-node
/// mode), across ragged panel widths that are not a multiple of either
/// vector width, messages spanning the full code range, and small
/// magnitudes full of argmin ties.
#[test]
fn check_node_panels_are_bit_identical_across_tiers_and_ragged_widths() {
    // Saturation-heavy deterministic messages (same recipe as the lane
    // integration sweep, plus forced ±max codes).
    let msg = |i: usize| {
        let v = ((i as i32).wrapping_mul(37) % 255) as i16 - 127;
        if i.is_multiple_of(13) {
            v.signum().max(1) * 127
        } else {
            v
        }
    };

    fn sweep_one<A, F>(name: &str, make: F, z: usize, degree: usize, lanes_in: &[i16])
    where
        A: LaneKernel<Msg = i16>,
        F: Fn(SimdLevel) -> A,
    {
        // Row-serial scalar reference via the trait's check_node_update.
        let reference_arith = make(SimdLevel::Scalar);
        let mut expected = vec![0i16; degree * z];
        let mut row_out = Vec::new();
        for r in 0..z {
            let row: Vec<i16> = (0..degree).map(|s| lanes_in[s * z + r]).collect();
            reference_arith.check_node_update(&row, &mut row_out);
            for (s, &m) in row_out.iter().enumerate() {
                expected[s * z + r] = m;
            }
        }
        for level in LEVELS {
            let arith = make(level);
            let mut scratch = LaneScratch::new();
            scratch.reserve(degree, z);
            let mut lanes_out = vec![0i16; degree * z];
            arith.check_node_update_lanes(z, lanes_in, &mut lanes_out, &mut scratch);
            assert_eq!(
                lanes_out, expected,
                "{name} diverged from the row-serial reference at {level:?} (z={z}, d={degree})"
            );
        }
    }

    for (z, degree) in [
        (1usize, 3usize),
        (3, 7),
        (5, 2),
        (7, 7),
        (9, 4),
        (13, 20),
        (17, 6),
        (24, 6),
        (31, 7),
        (96, 7),
        (97, 3),
    ] {
        let lanes_in: Vec<i16> = (0..degree * z).map(msg).collect();
        let ties: Vec<i16> = (0..degree * z)
            .map(|i| [3, -1, 2, 1, -3, -2, 1][(i * 5 + i / z) % 7])
            .collect();
        for lanes_in in [&lanes_in, &ties] {
            sweep_one(
                "fixed_bp_argmin",
                |lvl| FixedBpArithmetic::default().with_simd_level(lvl),
                z,
                degree,
                lanes_in,
            );
            sweep_one(
                "fixed_bp_argmin_10_4_three_pass",
                |lvl| FixedBpArithmetic::new(FixedFormat::new(10, 4), 3).with_simd_level(lvl),
                z,
                degree,
                lanes_in,
            );
            for format in [FixedFormat::default(), FixedFormat::new(10, 4)] {
                sweep_one(
                    "fixed_bp_bare_sum_extract",
                    |lvl| {
                        FixedBpArithmetic::with_mode(format, 3, CheckNodeMode::SumExtract)
                            .with_simd_level(lvl)
                    },
                    z,
                    degree,
                    lanes_in,
                );
            }
        }
        sweep_one(
            "fixed_bp_fwd_bwd",
            |lvl| FixedBpArithmetic::forward_backward().with_simd_level(lvl),
            z,
            degree,
            &lanes_in,
        );
        sweep_one(
            "fixed_min_sum",
            |lvl| FixedMinSumArithmetic::default().with_simd_level(lvl),
            z,
            degree,
            &lanes_in,
        );
    }
}

/// End-to-end: the full layered decode of a noisy batch must be
/// bit-identical (bits, posteriors, iterations, flags, statistics) across
/// every kernel tier for every fixed-point back-end, on codes whose `z` is
/// not a multiple of the vector widths.
#[test]
fn full_decode_is_bit_identical_across_kernel_tiers() {
    let codes: Vec<QcCode> = [
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576),
        CodeId::new(Standard::Wifi80211n, CodeRate::R1_2, 648),
    ]
    .into_iter()
    .map(|id| id.build().unwrap())
    .collect();
    let frames = 8usize;
    for code in &codes {
        let compiled = code.compile();
        let llrs: Vec<f64> = (0..frames * compiled.n())
            .map(|i| {
                let sign = if (i * 2654435761) % 101 < 8 {
                    -1.0
                } else {
                    1.0
                };
                sign * (0.25 + (i % 23) as f64 * 0.25)
            })
            .collect();
        let batch = LlrBatch::new(&llrs, compiled.n()).unwrap();

        fn decode_all<A: LaneKernel + Clone + Sync>(
            arith: A,
            compiled: &CompiledCode,
            batch: LlrBatch<'_>,
        ) -> Vec<DecodeOutput> {
            let decoder = LayeredDecoder::new(arith, DecoderConfig::default()).unwrap();
            decoder.decode_batch(compiled, batch).unwrap()
        }

        macro_rules! sweep {
            ($name:literal, $make:expr) => {{
                let reference = decode_all($make(SimdLevel::Scalar), &compiled, batch);
                assert!(
                    reference.iter().any(|o| o.iterations > 1),
                    "noise too weak to exercise the kernels"
                );
                for level in LEVELS {
                    let outputs = decode_all($make(level), &compiled, batch);
                    assert_eq!(
                        outputs,
                        reference,
                        "{} decode diverged between {level:?} and scalar on n={}",
                        $name,
                        compiled.n()
                    );
                }
            }};
        }
        sweep!("fixed_bp_argmin", |lvl| FixedBpArithmetic::default()
            .with_simd_level(lvl));
        sweep!("fixed_bp_bare_sum_extract", |lvl| {
            FixedBpArithmetic::with_mode(FixedFormat::default(), 3, CheckNodeMode::SumExtract)
                .with_simd_level(lvl)
        });
        sweep!("fixed_bp_fwd_bwd", |lvl| {
            FixedBpArithmetic::forward_backward().with_simd_level(lvl)
        });
        sweep!("fixed_bp_14_6", |lvl| {
            FixedBpArithmetic::new(FixedFormat::new(14, 6), 3).with_simd_level(lvl)
        });
        sweep!("fixed_min_sum", |lvl| FixedMinSumArithmetic::default()
            .with_simd_level(lvl));
    }
}

/// The modes of the fused-layer sweeps: WiMAX-576 and 2304 at rate 1/2, the
/// degree-18/19 layers of WiMAX 5/6, and DMB-T 1/5 (`z = 127`, ragged at
/// every vector width, layers of degree 2 and 3) — each with an Eb/N0 at
/// which its frames take a few iterations (2–6), so the end-to-end sweep
/// exercises the update without running every frame to the limit.
fn fused_modes() -> Vec<(QcCode, f64)> {
    [
        (Standard::Wimax80216e, CodeRate::R1_2, 576, 3.0),
        (Standard::Wimax80216e, CodeRate::R1_2, 2304, 3.0),
        (Standard::Wimax80216e, CodeRate::R5_6, 576, 4.5),
        (Standard::DmbT, CodeRate::R1_5, 7620, 5.0),
    ]
    .into_iter()
    .map(|(standard, rate, n, ebn0)| (CodeId::new(standard, rate, n).build().unwrap(), ebn0))
    .collect()
}

/// The formats of the fused-layer sweep, as (word bits, fractional bits,
/// LUT address bits): the paper's Q6.2 3-bit datapath, a 2-bit-table and a
/// Q5.1 variant (all in the byte lanes), and a 10-bit format whose tables
/// still fit `pshufb` but whose messages do not fit a byte, so it takes the
/// three-call body.
const FUSED_FORMATS: [(u32, u32, u32); 4] = [(8, 2, 3), (8, 2, 2), (6, 1, 3), (10, 2, 3)];

/// Runs every `stride`-th layer of `compiled` on a `width`-frame group
/// through the fused `FixedBpArithmetic::layer_update_lanes` and through
/// `layer_update_unfused` (`sub_lanes`, `check_node_update_lanes`,
/// `add_lanes`) on identical `(L, Λ)` state, at every tier, and asserts
/// that they write exactly the same APP and Λ memory. The state is drawn
/// from small pools dense in the edge cases: APP codes at `±app_max`, Λ at
/// `±max`, and `L = Λ` (so `L − Λ` is exactly 0 and takes the ±1-LSB
/// remap).
fn assert_fused_layers_match(
    (w, f, bits): (u32, u32, u32),
    compiled: &CompiledCode,
    width: usize,
    stride: usize,
) {
    let reference = FixedBpArithmetic::new(FixedFormat::new(w, f), bits);
    let max = reference.format().max_code() as i16;
    let app_max = reference.app_format().max_code() as i16;
    let app_pool = [
        app_max,
        -app_max,
        1 - app_max,
        max,
        -max,
        1,
        -1,
        2,
        -2,
        5,
        -7,
        40,
        -90,
    ];
    let lambda_pool = [max, -max, 1, -1, 2, -2, 5, -7, 40, -90, 0];
    let z = compiled.z();
    let app0: Vec<i16> = (0..compiled.n() * width)
        .map(|i| app_pool[(i * 7 + i / 5) % app_pool.len()])
        .collect();
    let lambda0: Vec<i16> = (0..compiled.num_edges() * width)
        .map(|i| lambda_pool[(i * 3 + i / 11) % lambda_pool.len()])
        .collect();
    // The first layer alone meets every edge case.
    let lanes = compiled.layer_lanes(0);
    let (mut zero_diff, mut app_sat, mut lambda_sat) = (0, 0, 0);
    for slot in 0..lanes.degree() {
        let (cb, eb) = (
            lanes.col_base[slot] as usize,
            lanes.edge_base[slot] as usize,
        );
        for r in 0..z {
            let col = cb + (r + lanes.shift[slot] as usize) % z;
            for f in 0..width {
                let (l, m) = (app0[col * width + f], lambda0[(eb + r) * width + f]);
                zero_diff += usize::from(l == m);
                app_sat += usize::from(l.abs() == app_max);
                lambda_sat += usize::from(m.abs() == max);
            }
        }
    }
    assert!(
        zero_diff > 0 && app_sat > 0 && lambda_sat > 0,
        "n={} width {width}: state misses an edge case",
        compiled.n()
    );
    for level in LEVELS {
        let arith = reference.clone().with_simd_level(level);
        let (mut app, mut lambda) = (app0.clone(), lambda0.clone());
        let (mut app_ref, mut lambda_ref) = (app0.clone(), lambda0.clone());
        let mut scratch = LaneScratch::new();
        for layer in (0..compiled.block_rows()).step_by(stride) {
            let lanes = compiled.layer_lanes(layer);
            arith.layer_update_lanes(&lanes, z, width, &mut app, &mut lambda, &mut scratch);
            layer_update_unfused(
                &arith,
                &lanes,
                z,
                width,
                &mut app_ref,
                &mut lambda_ref,
                &mut scratch,
            );
            let at = format!(
                "Q{w}.{f} {bits}-bit n={} width {width} {level:?} layer {layer}",
                compiled.n()
            );
            assert_eq!(app, app_ref, "APP memory diverged: {at}");
            assert_eq!(lambda, lambda_ref, "Λ memory diverged: {at}");
        }
    }
}

/// Per layer, the fused layer update must write exactly the APP and Λ
/// memory of the three-call body ([`assert_fused_layers_match`]) — for
/// every format of [`FUSED_FORMATS`], at every tier and every group width,
/// so every rotation split inside a vector, every ragged remainder and
/// every panel narrower than two vectors occurs. One sweep over the layers
/// (every fourth of DMB-T's 48, degrees 2 and 3 alike) keeps the
/// debug-build test short.
#[test]
fn fused_layer_update_matches_the_three_call_body_at_every_tier_and_width() {
    for (code, _) in fused_modes() {
        let compiled = code.compile();
        let stride = compiled.block_rows().div_ceil(12);
        for width in 1..=MAX_GROUP_WIDTH {
            for format in FUSED_FORMATS {
                assert_fused_layers_match(format, &compiled, width, stride);
            }
        }
    }
}

/// A group whose lanes end in a half chunk of the byte lanes: WiMAX-576 at
/// width 2 has `zw = 48` lanes, one whole AVX2 byte vector of 32 rows and
/// one `i16` vector of 16 packed with itself (at SSE4.1, three byte vectors
/// of 16). Every layer, every format, every tier.
#[test]
fn fused_layer_update_covers_a_half_byte_chunk() {
    let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576)
        .build()
        .unwrap();
    let compiled = code.compile();
    let width = 2;
    let zw = compiled.z() * width;
    assert!((16..32).contains(&(zw % 32)), "zw = {zw} has no half chunk");
    for format in FUSED_FORMATS {
        assert_fused_layers_match(format, &compiled, width, 1);
    }
}

/// End to end: a group of every width `1..=MAX_GROUP_WIDTH` decoded through
/// the fused layer update must equal, frame by frame, the row-serial
/// `decode_into_reference` of each frame. The widths take the tiers in turn
/// (every tier meets ragged and vector-multiple groups), which keeps the
/// debug-build test short; the layer sweep above pairs every width with
/// every tier.
#[test]
fn fused_decode_matches_the_row_serial_reference_at_every_tier_and_width() {
    for (code, ebn0) in fused_modes() {
        let compiled = code.compile();
        let n = compiled.n();
        let mut source = FrameSource::random(&code, 11).unwrap();
        let channel = AwgnChannel::from_ebn0_db(ebn0, code.rate());
        let llrs: Vec<f64> = (0..MAX_GROUP_WIDTH)
            .flat_map(|_| {
                let frame = source.next_frame();
                channel.transmit(&frame.codeword, source.noise_rng())
            })
            .collect();
        let config = DecoderConfig::default();
        let reference_decoder = LayeredDecoder::new(FixedBpArithmetic::default(), config).unwrap();
        let mut ws = reference_decoder.workspace_for(&compiled);
        let reference: Vec<DecodeOutput> = llrs
            .chunks_exact(n)
            .map(|frame| {
                let mut out = DecodeOutput::empty();
                reference_decoder
                    .decode_into_reference(&compiled, frame, &mut ws, &mut out)
                    .unwrap();
                out
            })
            .collect();
        assert!(
            reference.iter().any(|o| o.iterations > 1),
            "n={n}: the noise is too weak to exercise the layer update"
        );
        for width in 1..=MAX_GROUP_WIDTH {
            let level = LEVELS[width % LEVELS.len()];
            let arith = FixedBpArithmetic::default().with_simd_level(level);
            let decoder = LayeredDecoder::new(arith, config).unwrap();
            let mut outs = vec![DecodeOutput::empty(); width];
            decoder
                .decode_group_into(&compiled, &llrs[..width * n], &mut ws, &mut outs)
                .unwrap();
            assert_eq!(
                outs,
                reference[..width],
                "n={n} width {width} {level:?}: fused decode diverged from the reference"
            );
        }
    }
}

/// The dispatch surface itself: detected/active levels are coherent, the
/// tier name matches, and pinning a higher level than the CPU supports
/// degrades instead of misbehaving.
#[test]
fn dispatch_levels_are_coherent() {
    let detected = simd::detected_level();
    let active = simd::active_level();
    assert!(active <= detected, "active tier can only be forced *down*");
    assert_eq!(kernel_tier(), active.name());
    assert!(["avx2", "sse4.1", "scalar"].contains(&kernel_tier()));
    for level in LEVELS {
        assert!(level.effective() <= detected);
        assert_eq!(level.effective().effective(), level.effective());
    }
    // An arithmetic pinned above the CPU's capability must still decode
    // (degrading internally) — Avx2 here is a no-op pin on an AVX2 host
    // and a degradation everywhere else.
    let arith = FixedBpArithmetic::default().with_simd_level(SimdLevel::Avx2);
    assert!(arith.simd_level() <= SimdLevel::Avx2);
}

/// The row-serial syndrome of one frame's hard decisions, through the
/// per-edge column table: the reference the group parity pass is pinned
/// against.
fn row_serial_ok(compiled: &CompiledCode, hard: &[u8]) -> bool {
    (0..compiled.block_rows()).all(|layer| {
        let entries = compiled.layer_entries(layer);
        (0..compiled.z()).all(|r| {
            entries.iter().fold(0u8, |p, e| {
                p ^ hard[compiled.edge_col(e.edge_base as usize + r)]
            }) == 0
        })
    })
}

/// Every standard mode, plus a `z = 600` code (panels wider than the scalar
/// form's 256-lane stack panel) whose last block column is shifted past
/// `z − 256`, so rotated spans wrap at the very end of the APP memory.
fn verdict_codes() -> Vec<QcCode> {
    let mut codes: Vec<QcCode> = Standard::ALL
        .into_iter()
        .flat_map(CodeId::all_modes)
        .map(|id| id.build().unwrap())
        .collect();
    let wide = ldpc::codes::ConstructionParams::for_mode(Standard::Wimax80216e, CodeRate::R1_2)
        .build_code(600)
        .unwrap();
    let mut base = wide.base().clone();
    let last = base.cols() - 1;
    for row in 0..base.rows() {
        if base.get(row, last).is_some() {
            base.set(row, last, Some(500 + row as u32)).unwrap();
        }
    }
    codes.push(QcCode::from_parts(*wide.spec(), base).unwrap());
    codes
}

/// The group parity pass (`DecoderArithmetic::parity_verdicts`) against the
/// row-serial syndrome of each frame, at every kernel tier (the fixed-point
/// override) and through the provided `hard_bit` body (float BP), for every
/// standard mode and a `z > 256` code, at every group width 1..=16 — so
/// ragged `z · width` panels (WiFi `z = 27` at width 5 is 135 lanes), panels
/// narrower than two vectors and every lane-to-frame phase occur. Groups mix
/// codewords, codewords with one bit flipped in each layer in turn, random
/// words, and codewords whose codes XOR to a set bit 7 (the top bit of a
/// low byte) while their signs XOR to zero in every row.
#[test]
fn parity_verdicts_match_the_row_serial_syndrome_at_every_tier_and_width() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5E7D1C7);
    // Magnitudes that set and clear bit 7 and bit 15's neighbours.
    const MAGNITUDES: [i16; 8] = [1, 127, 128, 129, 255, 384, 16383, 32767];
    for code in verdict_codes() {
        let id = code.spec().id();
        let compiled = code.compile();
        let n = compiled.n();
        let codeword = match Encoder::new(&code) {
            Ok(encoder) => {
                let info: Vec<u8> = (0..code.info_bits())
                    .map(|_| rng.gen_range(0..=1u8))
                    .collect();
                encoder.encode(&info).unwrap()
            }
            Err(_) => vec![0u8; n],
        };
        assert!(row_serial_ok(&compiled, &codeword), "{id}: codeword");
        let widths: Vec<usize> = if n > 4000 {
            vec![1, 2, 3, 5, 16]
        } else {
            (1..=MAX_GROUP_WIDTH).collect()
        };
        let mut flip_layer = 0;
        for width in widths {
            let mut words = Vec::with_capacity(width);
            for slot in 0..width {
                let mut word = codeword.clone();
                match (slot + width) % 4 {
                    0 => {}
                    1 => {
                        // One bit of a block column of layer `flip_layer`.
                        let entries = compiled.layer_entries(flip_layer % compiled.block_rows());
                        let e = entries[rng.gen_range(0..entries.len())];
                        let r = rng.gen_range(0..compiled.z());
                        word[compiled.edge_col(e.edge_base as usize + r)] ^= 1;
                        flip_layer += 1;
                    }
                    2 => word.iter_mut().for_each(|b| *b = rng.gen_range(0..=1u8)),
                    _ => word.iter_mut().for_each(|b| *b = 0),
                }
                words.push(word);
            }
            let mut app = vec![0i16; n * width];
            for (slot, word) in words.iter().enumerate() {
                for (i, &b) in word.iter().enumerate() {
                    let m = MAGNITUDES[rng.gen_range(0..MAGNITUDES.len())];
                    app[i * width + slot] = if b == 1 { -m } else { m };
                }
            }
            let expected: Vec<u8> = words
                .iter()
                .map(|w| u8::from(!row_serial_ok(&compiled, w)))
                .collect();
            let mut failed = vec![7u8; width];
            for level in LEVELS {
                let arith = FixedBpArithmetic::default().with_simd_level(level);
                arith.parity_verdicts(&compiled, width, &app, &mut failed);
                assert_eq!(failed, expected, "{id}: width {width} at {level:?}");
            }
            let float: Vec<f64> = app.iter().map(|&m| f64::from(m)).collect();
            FloatBpArithmetic::default().parity_verdicts(&compiled, width, &float, &mut failed);
            assert_eq!(failed, expected, "{id}: width {width}, provided body");
        }
    }
}
