//! `decode_2304`: closed-loop offline decoding of WiMAX rate-1/2 n = 2304
//! (z = 96) frames at the serving-mix SNRs by the paper datapath
//! (`LayeredDecoder<FixedBpArithmetic::default()>`, `DecoderConfig::default()`)
//! through `Decoder::decode_batch` on every core, in fixed-size batches
//! cycled from a pre-generated, AGC-normalised pool. The kernel, decoder and
//! batch engine do all the work; the service does none.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldpc_channel::LlrQuantizer;
use ldpc_codes::CodeId;
use ldpc_core::decoder::{DecoderConfig, LayeredDecoder};
use ldpc_core::{DecodeOutput, Decoder, FixedBpArithmetic};

use crate::gen::{self, SERVING_MIX};
use crate::probe;
use crate::trace::{self, Traced, Tracer, GROUP};
use crate::util::{
    json_num, json_nums, json_object, json_str, json_strs, mean, median, ms, quantile,
};
use crate::util::{Metrics, Windows, WINDOW};
use crate::{Args, Outcome, SETUP_ROUNDS};

pub const MODE: &str = "wimax:1/2:2304";
/// Distinct frames: about 80 frame errors even at a 1 % frame error rate,
/// so `fer` stays a steady estimate once the datapath decodes.
const POOL: usize = 8192;
const BATCH: usize = 64;
/// Frames re-decoded one at a time (`Decoder::decode_compiled`, no batch
/// engine) and compared with their batch outputs.
const SAMPLE: usize = 32;

type PaperDecoder = Traced<LayeredDecoder<FixedBpArithmetic>>;

fn fingerprint(out: &DecodeOutput) -> u64 {
    let mut h = DefaultHasher::new();
    (&out.hard_bits, out.iterations, out.parity_satisfied).hash(&mut h);
    h.finish()
}

pub fn run(args: &Args) -> Outcome {
    let id: CodeId = MODE.parse().expect("valid mode");
    let n = id.n;
    let mut pool = gen::serving_pool(id, POOL, &SERVING_MIX, args.seed);
    let raw_sample = pool.frames(0, SAMPLE);

    // Receiver AGC, applied offline to the whole pool: the decoder sees only
    // normalised frames (exact in `f32`: they sit on the quantiser's grid).
    let quantizer = LlrQuantizer::default();
    let mut frame = Vec::with_capacity(n);
    for i in 0..POOL {
        pool.fill(i, 1, &mut frame);
        quantizer.normalize_in_place(&mut frame);
        for (stored, &l) in pool.llrs[i * n..(i + 1) * n].iter_mut().zip(&frame) {
            *stored = l as f32;
        }
    }
    // Each batch is widened to `f64` here before its timed call.
    let mut batch = pool.frames(0, BATCH);
    let threads = ldpc_core::batch_threads(BATCH);

    let tracer = Tracer::new();
    let warm_up = pool.frames(0, BATCH);
    let mut setups = Vec::new();
    let mut compile_ms = Vec::new();
    // One set-up round: build and compile the code, build the decoder, and
    // decode one warm-up batch (untraced).
    let mut set_up = || {
        tracer.set(false);
        let start = Instant::now();
        let compiled = id.build().expect("supported mode").compile();
        compile_ms.push(ms(start.elapsed()));
        let decoder: PaperDecoder = Traced {
            inner: LayeredDecoder::new(FixedBpArithmetic::default(), DecoderConfig::default())
                .expect("default config is valid"),
            tracer: Arc::clone(&tracer),
        };
        let mut outs = vec![DecodeOutput::empty(); BATCH];
        probe::traced_batch(&decoder, &compiled, &warm_up, &mut outs, threads);
        setups.push(start.elapsed().as_secs_f64());
        (compiled, decoder)
    };
    // The first round builds what the timed loop uses; the others are spread
    // evenly through the run, between batches and outside their timing, so
    // their median samples the host over the whole run as the throughput
    // does, not only in the run's first tenth of a second.
    let (compiled, decoder) = set_up();

    // The timed loop. In a traced run, every other batch is traced, so the
    // traced and untraced halves see the same frames and the same drift.
    let mut outs = vec![DecodeOutput::empty(); BATCH];
    let mut first_pass = vec![0u64; POOL];
    let mut frame_errors = 0usize;
    let mut mismatches = 0usize;
    let mut sample_outs: Vec<DecodeOutput> = Vec::new();
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut gaps_ms = Vec::new();
    let mut traced_outs: Vec<(usize, bool, bool)> = Vec::new();
    let mut iter_hist = [0.0f64; 11];
    let mut batches = 0usize;
    let mut cursor = 0usize;
    let mut last_end: Option<Instant> = None;
    let run_for = Duration::from_secs_f64(args.seconds);
    let begin = Instant::now();
    let mut windows = Windows::new(begin, WINDOW);
    let mut rounds = 1;
    while begin.elapsed() < run_for {
        if rounds < SETUP_ROUNDS
            && begin.elapsed() >= run_for.mul_f64(rounds as f64 / SETUP_ROUNDS as f64)
        {
            drop(set_up());
            rounds += 1;
            last_end = None;
        }
        let traced = args.trace && batches % 2 == 1;
        tracer.set(traced);
        pool.fill(cursor, BATCH, &mut batch);
        let start = Instant::now();
        if let Some(end) = last_end {
            gaps_ms.push(ms(start - end));
        }
        probe::traced_batch(&decoder, &compiled, &batch, &mut outs, threads);
        let end = Instant::now();
        last_end = Some(end);
        let wall = (end - start).as_nanos() as f64;
        if traced {
            traced_ns.push(wall);
            traced_outs.extend(
                outs.iter()
                    .map(|o| (o.iterations, o.early_terminated, o.parity_satisfied)),
            );
        } else {
            untraced_ns.push(wall);
            windows.add(end, BATCH as u64);
        }
        let first = batches * BATCH < POOL;
        for (k, out) in outs.iter().enumerate() {
            let f = cursor + k;
            let print = fingerprint(out);
            if first {
                first_pass[f] = print;
                frame_errors += usize::from(out.hard_bits != pool.codeword(f));
                iter_hist[out.iterations.min(10)] += 1.0;
                if f < SAMPLE {
                    sample_outs.push(out.clone());
                }
            } else if first_pass[f] != print {
                mismatches += 1;
            }
        }
        batches += 1;
        cursor = (cursor + BATCH) % POOL;
    }
    tracer.set(false);

    // Correctness: the batch engine's outputs equal single-frame decodes of
    // the same frames, and every later pass reproduces the first.
    let reference = &decoder.inner;
    for (f, out) in sample_outs.iter().enumerate() {
        let single = reference
            .decode_compiled(&compiled, &pool.frames(f, 1))
            .expect("pool frames match the code");
        mismatches += usize::from(&single != out);
    }
    let decoded_frames = (untraced_ns.len() * BATCH) as u64;
    let untraced_s: f64 = untraced_ns.iter().sum::<f64>() / 1e9;
    let throughput = decoded_frames as f64 / untraced_s;
    let checked = POOL.min(batches * BATCH);
    let fer = frame_errors as f64 / checked as f64;
    let mut lat_ms: Vec<f64> = untraced_ns.iter().map(|ns| ns / 1e6).collect();

    let mut metrics = Metrics::default();
    let setup_rounds = setups.clone();
    metrics.put("setup_s", median(&mut setups), "s");
    metrics.put("throughput_fps", throughput, "frames/s");
    metrics.put("fer", fer, "ratio");
    metrics.put("p50_ms", quantile(&mut lat_ms, 0.5), "ms");
    metrics.put("p99_ms", quantile(&mut lat_ms, 0.99), "ms");

    let mut report = vec![
        ("mode", json_str(MODE)),
        ("decoder", json_str("layered/fixed-bp (default)")),
        ("batch_frames", BATCH.to_string()),
        ("threads", threads.to_string()),
        ("pool_frames", POOL.to_string()),
        ("snr_points_db", json_nums(&SERVING_MIX.map(|p| p.0))),
        (
            "snr_point_counts",
            json_nums(&snr_counts(&pool.snr_point, SERVING_MIX.len())),
        ),
        ("iteration_histogram_0_10", json_nums(&iter_hist)),
        ("batches", batches.to_string()),
        ("latency_samples", lat_ms.len().to_string()),
        ("setup_rounds_s", json_nums(&setup_rounds)),
        ("window_fps", json_nums(&windows.rates())),
        ("frames_checked", checked.to_string()),
        ("frame_errors", frame_errors.to_string()),
        ("mismatches", mismatches.to_string()),
    ];

    if args.trace {
        report.push((
            "probe_only",
            json_strs(&["channel.", "core.cascade.", "core.combine.", "serve."]),
        ));
        let spans = tracer.spans();
        let width = decoder.preferred_group_width(&compiled);
        metrics.put("codes.compile_ms", median(&mut compile_ms), "ms");
        let frames: Vec<&[f64]> = raw_sample.chunks_exact(n).collect();
        metrics.put("channel.agc_us", probe::agc(&frames), "us");
        let sample = pool.frames(0, BATCH);
        let (kernel_ns, kernel_bytes) =
            probe::kernel(reference.arithmetic(), &compiled, width, &sample);
        metrics.put("core.kernel.ns_per_lane_edge", kernel_ns, "ns");
        metrics.put("core.kernel.bytes_per_lane_edge", kernel_bytes, "bytes");
        probe::put_decoder_metrics(&mut metrics, &spans, &traced_outs);
        let (overhead, fill, group_busy) = probe::engine_figures(&spans, threads, width);
        metrics.put("core.engine.fanout_overhead", overhead, "ratio");
        metrics.put("core.engine.group_fill", fill, "ratio");
        let (probe_idle, _, scaling) = probe::engine(reference, &compiled, &sample, threads);
        metrics.put("core.engine.scaling_t2_t1", scaling, "ratio");
        let (s1, s2, esc) = probe::cascade(&compiled, &sample);
        metrics.put("core.cascade.escalation_ratio", esc, "ratio");
        metrics.put("core.cascade.stage1_us_per_frame", s1, "us");
        metrics.put("core.cascade.stage2_us_per_frame", s2, "us");
        metrics.put("core.combine.ns_per_bit", probe::combine(&frames), "ns");
        let serve = probe::serve(reference.clone(), true, &[(id, frames.clone())]);
        probe::put_serve_metrics(&mut metrics, &serve);
        let iters_mean = metrics.get("core.decoder.iters_mean").unwrap_or(10.0);
        probe::put_arch(&mut metrics, &[id], throughput, iters_mean);
        metrics.put("bench.gen_lag_ms.p99", quantile(&mut gaps_ms, 0.99), "ms");
        metrics.put(
            "bench.gen_lag_ms.max",
            gaps_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        metrics.put("bench.observe_us", crate::observe_resolution_us(), "us");

        // Accounting, per frame, against the untraced batches' CPU cost
        // (wall × threads). Two terms are measured apart from that cost and
        // from each other: the group decodes (Σ group spans of the traced
        // batches), split into the kernel (replayed cost × the lane-edges
        // those groups ran) and the decoder's self time (the rest of the
        // group time), and the engine overhead, the idle share of
        // `wall × threads` that the separate probe batches of
        // `probe::engine` left outside their group spans, applied to the
        // group time. The traced batches' own idle time is reported beside
        // it, not used.
        let traced_frames = (traced_ns.len() * BATCH) as f64;
        let traced_wall: f64 = traced_ns.iter().sum();
        let frame_iters: f64 = traced_outs.iter().map(|o| o.0 as f64).sum();
        let group_pf = group_busy / traced_frames;
        let kernel_pf = kernel_ns * frame_iters * compiled.num_edges() as f64 / traced_frames;
        let decoder_self_pf = group_pf - kernel_pf;
        let engine_pf = group_pf * probe_idle / (1.0 - probe_idle);
        let engine_in_run_pf = (traced_wall * threads as f64 - group_busy) / traced_frames;
        let untraced_pf = untraced_s * 1e9 * threads as f64 / decoded_frames as f64;
        let accounted = (kernel_pf + decoder_self_pf + engine_pf) / untraced_pf;
        metrics.put("trace.accounted_ratio", accounted, "ratio");
        metrics.put(
            "trace.overhead_pct",
            (mean(&traced_ns) / mean(&untraced_ns) - 1.0) * 100.0,
            "%",
        );
        let accounting_ok = (accounted - 1.0).abs() <= 0.10 && decoder_self_pf >= 0.0;
        if !accounting_ok {
            eprintln!(
                "perfbench: accounting check failed: layers sum to {accounted:.3} of the \
                 untraced per-frame cost (kernel {kernel_pf:.0} ns, decoder self \
                 {decoder_self_pf:.0} ns, engine {engine_pf:.0} ns, untraced {untraced_pf:.0} ns)"
            );
            mismatches += 1;
        }
        report.push((
            "accounting_ns_per_frame",
            json_object(&[
                ("kernel", json_num(kernel_pf)),
                ("decoder_self", json_num(decoder_self_pf)),
                ("engine_overhead", json_num(engine_pf)),
                (
                    "engine_overhead_in_traced_batches",
                    json_num(engine_in_run_pf),
                ),
                ("untraced", json_num(untraced_pf)),
                (
                    "group_spans",
                    trace::durations(&spans, GROUP).len().to_string(),
                ),
                ("ok", accounting_ok.to_string()),
            ]),
        ));
    }

    Outcome {
        correct: mismatches == 0,
        attempted: decoded_frames,
        failed: 0,
        metrics,
        traffic: json_object(&report),
    }
}

/// Frames per SNR point.
fn snr_counts(points: &[u8], len: usize) -> Vec<f64> {
    let mut counts = vec![0.0; len];
    for &p in points {
        counts[p as usize] += 1.0;
    }
    counts
}
