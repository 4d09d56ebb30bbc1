//! Criterion end-to-end comparison of the SNR-adaptive decoder cascade
//! against straight fixed BP on a realistic mixed-SNR batch.
//!
//! The batch is drawn from [`MixedTraffic`] with a single WiMax-class
//! rate-1/2 2304-bit mode whose per-frame `Eb/N0` follows
//! [`SnrProfile::serving_mix`] (2/4/6 dB at weights 1:3:6) — the serving-mix
//! model of a cell where most users sit comfortably above the waterfall and
//! a minority hug it. Both sides decode the **identical** frames:
//!
//! * `wimax2304_mix246_cascade` — [`ldpc_core::CascadeDecoder`] with the
//!   default ladder (4-iteration fixed Min-Sum, failures escalated to
//!   early-terminating fixed BP);
//! * `wimax2304_mix246_fixed_bp` — the production baseline, a
//!   forward–backward fixed-BP [`LayeredDecoder`] with the default
//!   early-terminating 10-iteration budget.
//!
//! Ids share the `_cascade` / `_fixed_bp` suffix pair so `compare_bench
//! --require-cascade-speedup 1.3` can gate the ratio within one run. Run
//! with `CRITERION_JSON_OUT=BENCH_cascade.json` to record it. Throughput is
//! declared in frames per iteration; both sides use one worker thread so the
//! ratio isolates decoder work, not pool fan-out.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_channel::workload::{MixedTraffic, SnrProfile};
use ldpc_codes::{CodeId, CodeRate, Standard};
use ldpc_core::decoder::{DecoderConfig, LayeredDecoder};
use ldpc_core::{CascadeConfig, DecodeOutput, Decoder, FixedBpArithmetic, LlrBatch};

const BATCH_FRAMES: usize = 64;

fn bench_cascade(c: &mut Criterion) {
    let id = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 2304);
    let code = id.build().unwrap();
    let compiled = code.compile();

    // One mode, mixed per-frame SNR: the realistic serving distribution.
    let mut traffic = MixedTraffic::new(99);
    traffic
        .add_mode_with_snr(id, SnrProfile::serving_mix(), 1)
        .unwrap();
    let mut llrs: Vec<f64> = Vec::with_capacity(BATCH_FRAMES * code.n());
    let mut frame = Vec::new();
    for _ in 0..BATCH_FRAMES {
        traffic.next_frame_into(&mut frame);
        llrs.extend_from_slice(&frame);
    }
    let batch = LlrBatch::new(&llrs, code.n()).unwrap();

    let cascade = CascadeConfig::default().decoder();
    let baseline = LayeredDecoder::new(
        FixedBpArithmetic::forward_backward(),
        DecoderConfig::default(),
    )
    .unwrap();

    let mut group = c.benchmark_group("cascade_throughput");
    group.throughput(Throughput::Elements(BATCH_FRAMES as u64));
    group.bench_function("wimax2304_mix246_cascade", |b| {
        let mut outputs: Vec<DecodeOutput> =
            (0..batch.frames()).map(|_| DecodeOutput::empty()).collect();
        b.iter(|| {
            cascade
                .decode_batch_into_threads(&compiled, batch, &mut outputs, 1)
                .unwrap()
        })
    });
    group.bench_function("wimax2304_mix246_fixed_bp", |b| {
        let mut outputs: Vec<DecodeOutput> =
            (0..batch.frames()).map(|_| DecodeOutput::empty()).collect();
        b.iter(|| {
            baseline
                .decode_batch_into_threads(&compiled, batch, &mut outputs, 1)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(700));
    targets = bench_cascade
}
criterion_main!(benches);
