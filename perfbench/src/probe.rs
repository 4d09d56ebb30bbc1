//! Layer probes: each times one layer's public calls on the running
//! workload's own inputs, after the timed phase. They give every workload a
//! value for every per-layer metric, including layers the workload's
//! end-to-end path does not exercise (where the prediction is "no change").

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldpc_arch::config::DecoderModeConfig;
use ldpc_arch::throughput::ThroughputModel;
use ldpc_channel::LlrQuantizer;
use ldpc_codes::{CodeId, CompiledCode};
use ldpc_core::{
    CascadeDecoder, DecodeOutput, Decoder, HarqCombiner, LaneKernel, LaneScratch, LlrBatch,
};
use ldpc_serve::{
    harq, CascadePolicy, DecodeService, DecoderPolicy, HarqKey, ShardStats, SubmitOptions,
};

use crate::trace::{self, Traced, Tracer, GROUP};
use crate::util::{median, quantile, ratio, us, Metrics};

/// Wall-clock budget of one probe's repetitions.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// Repeats `f` in timed rounds until `budget` is spent (at least 3 rounds)
/// and returns the median round time in ns.
fn median_round_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        rounds.push(t.elapsed().as_nanos() as f64);
    }
    median(&mut rounds)
}

/// Replays `arith`'s lane kernels (`sub_lanes`, `check_node_update_lanes`,
/// `add_lanes`) over `compiled`'s real panel shapes — every layer, `z · width`
/// lanes — on messages converted from `llrs`. Returns ns per lane-edge and
/// the computed bytes each lane-edge reads and writes.
pub fn kernel<A: LaneKernel>(
    arith: &A,
    compiled: &CompiledCode,
    width: usize,
    llrs: &[f64],
) -> (f64, f64) {
    let lanes = compiled.z() * width;
    let layers = compiled.block_rows();
    let msg = |i: usize| arith.from_channel(llrs[i % llrs.len()]);
    // Per layer, the posterior (`app`) and check-to-variable (`λ`) panels.
    let panels: Vec<[Vec<A::Msg>; 2]> = (0..layers)
        .map(|l| {
            let len = compiled.layer_degree(l) * lanes;
            let app = (0..len).map(|i| msg(i + l * 7919)).collect();
            let lambda = (0..len).map(|i| msg(i * 31 + l)).collect();
            [app, lambda]
        })
        .collect();
    let max_len = compiled.max_degree() * lanes;
    let mut lam = vec![arith.zero(); max_len];
    let mut upd = vec![arith.zero(); max_len];
    let mut out = vec![arith.zero(); max_len];
    let mut scratch = LaneScratch::new();
    scratch.reserve(compiled.max_degree(), lanes);
    let lane_edges: usize = (0..layers).map(|l| compiled.layer_degree(l) * lanes).sum();
    let round = median_round_ns(PROBE_BUDGET, || {
        for [app, lambda] in &panels {
            let len = app.len();
            arith.sub_lanes(app, lambda, &mut lam[..len]);
            arith.check_node_update_lanes(lanes, &lam[..len], &mut upd[..len], &mut scratch);
            arith.add_lanes(&lam[..len], &upd[..len], &mut out[..len]);
            black_box(&out);
        }
    });
    // sub reads 2 and writes 1 message, the check-node update reads and
    // writes 1 each, add reads 2 and writes 1.
    let bytes = 8 * std::mem::size_of::<A::Msg>();
    (round / lane_edges as f64, bytes as f64)
}

/// `LlrQuantizer::normalize_in_place` + `quantize_all_to_codes`, µs per frame.
pub fn agc(frames: &[&[f64]]) -> f64 {
    let quantizer = LlrQuantizer::default();
    let mut copies: Vec<Vec<f64>> = frames.iter().map(|f| f.to_vec()).collect();
    let round = median_round_ns(PROBE_BUDGET, || {
        for (copy, frame) in copies.iter_mut().zip(frames) {
            copy.copy_from_slice(frame);
            quantizer.normalize_in_place(copy);
            black_box(quantizer.quantize_all_to_codes(copy));
        }
    });
    round / frames.len() as f64 / 1e3
}

/// `HarqCombiner::accumulate` + `saturate_into` over the quantized frames,
/// ns per bit.
pub fn combine(frames: &[&[f64]]) -> f64 {
    let quantizer = LlrQuantizer::default();
    let combiner = HarqCombiner::new(quantizer.max_code());
    let codes: Vec<Vec<i32>> = frames
        .iter()
        .map(|f| {
            let mut f = f.to_vec();
            quantizer.normalize_in_place(&mut f);
            quantizer.quantize_all_to_codes(&f)
        })
        .collect();
    let n = codes[0].len();
    let mut acc = vec![0i32; n];
    let mut out = vec![0i32; n];
    let bits: usize = codes.iter().map(Vec::len).sum();
    let round = median_round_ns(PROBE_BUDGET, || {
        for c in &codes {
            if c.len() != acc.len() {
                acc.resize(c.len(), 0);
                out.resize(c.len(), 0);
            }
            acc.iter_mut().for_each(|a| *a = 0);
            combiner.accumulate(&mut acc, c);
            combiner.accumulate(&mut acc, c);
            combiner.saturate_into(&acc, &mut out);
            black_box(&out);
        }
    });
    round / bits as f64
}

/// Stage-1 and stage-2 cost of the default cascade on AGC'd `llrs` of one
/// mode: µs per stage-1 frame, µs per escalated frame, and the escalation
/// ratio.
pub fn cascade(compiled: &CompiledCode, llrs: &[f64]) -> (f64, f64, f64) {
    let cascade = CascadeDecoder::default();
    let n = compiled.n();
    let frames = llrs.len() / n;
    let mut outs = vec![DecodeOutput::empty(); frames];
    let batch = LlrBatch::new(llrs, n).expect("whole frames");
    let stage1 = median_round_ns(PROBE_BUDGET, || {
        cascade
            .stage1()
            .decode_batch_into_threads(compiled, batch, &mut outs, 1)
            .expect("probe frames match the code");
    });
    let failed: Vec<usize> = (0..frames).filter(|&f| !outs[f].parity_satisfied).collect();
    let escalation = failed.len() as f64 / frames as f64;
    if failed.is_empty() {
        return (stage1 / frames as f64 / 1e3, 0.0, 0.0);
    }
    let handoff: Vec<f64> = failed
        .iter()
        .flat_map(|&f| {
            llrs[f * n..(f + 1) * n]
                .iter()
                .map(|&l| cascade.handoff_llr(l))
        })
        .collect();
    let mut outs2 = vec![DecodeOutput::empty(); failed.len()];
    let batch2 = LlrBatch::new(&handoff, n).expect("whole frames");
    let stage2 = median_round_ns(PROBE_BUDGET, || {
        cascade
            .stage2()
            .decode_batch_into_threads(compiled, batch2, &mut outs2, 1)
            .expect("probe frames match the code");
    });
    (
        stage1 / frames as f64 / 1e3,
        stage2 / failed.len() as f64 / 1e3,
        escalation,
    )
}

/// Span name of one `decode_batch` call the benchmark makes.
pub const BATCH: &str = "core.engine.batch";

/// One traced `decode_batch_into_threads` call: a [`BATCH`] span whose
/// group spans (recorded by the [`Traced`] decoder) attach to it.
pub fn traced_batch<D: Decoder + Clone + Sync>(
    decoder: &Traced<D>,
    compiled: &CompiledCode,
    llrs: &[f64],
    outs: &mut [DecodeOutput],
    threads: usize,
) {
    let tracer = &decoder.tracer;
    let batch = LlrBatch::new(llrs, compiled.n()).expect("whole frames");
    if !tracer.on() {
        decoder
            .decode_batch_into_threads(compiled, batch, outs, threads)
            .expect("benchmark frames match the code");
        return;
    }
    let id = tracer.new_id();
    tracer.set_parent(id);
    let start = Instant::now();
    decoder
        .decode_batch_into_threads(compiled, batch, outs, threads)
        .expect("benchmark frames match the code");
    tracer.record(id, 0, BATCH, start, outs.len());
    tracer.set_parent(0);
}

/// Batch-engine figures from [`BATCH`] spans and their group children:
/// the share of `wall × threads` not spent inside group decodes, the mean
/// group fill against `width`, and Σ group busy ns.
pub fn engine_figures(spans: &[trace::Span], threads: usize, width: usize) -> (f64, f64, f64) {
    let batches: Vec<&trace::Span> = spans.iter().filter(|s| s.name == BATCH).collect();
    let wall: f64 = batches.iter().map(|s| s.dur_ns as f64).sum();
    let (busy, frames, groups) = spans
        .iter()
        .filter(|s| s.name == GROUP && batches.iter().any(|b| b.id == s.parent))
        .fold((0.0, 0.0, 0.0), |(t, f, g), s| {
            (t + s.dur_ns as f64, f + f64::from(s.frames), g + 1.0)
        });
    let capacity = wall * threads as f64;
    (
        ratio(capacity - busy, capacity),
        ratio(frames, groups * width as f64),
        busy,
    )
}

/// Batch-engine probe on one mode's frames: fan-out overhead and group fill
/// at `threads`, and the `threads`-vs-1 throughput ratio, alternating the
/// two thread counts so drift cancels.
pub fn engine<D: Decoder + Clone + Sync>(
    decoder: &D,
    compiled: &CompiledCode,
    llrs: &[f64],
    threads: usize,
) -> (f64, f64, f64) {
    let tracer = Tracer::new();
    tracer.set(true);
    let traced = Traced {
        inner: decoder.clone(),
        tracer: Arc::clone(&tracer),
    };
    let frames = llrs.len() / compiled.n();
    let mut outs = vec![DecodeOutput::empty(); frames];
    let width = traced.preferred_group_width(compiled);
    let (mut multi, mut single) = (Vec::new(), Vec::new());
    let start = Instant::now();
    // A longer budget than the other probes: `decode_2304`'s accounting
    // check takes its engine overhead from this idle share.
    while multi.len() < 3 || start.elapsed() < PROBE_BUDGET * 6 {
        let t = Instant::now();
        traced_batch(&traced, compiled, llrs, &mut outs, threads);
        multi.push(t.elapsed().as_nanos() as f64);
        tracer.set(false);
        let t = Instant::now();
        traced_batch(&traced, compiled, llrs, &mut outs, 1);
        single.push(t.elapsed().as_nanos() as f64);
        tracer.set(true);
    }
    let (overhead, fill, _) = engine_figures(&tracer.spans(), threads, width);
    (overhead, fill, median(&mut single) / median(&mut multi))
}

/// The serving-layer figures a probe or a workload reports.
#[derive(Debug, Default)]
pub struct ServeFigures {
    pub submit_us: Vec<f64>,
    pub submit_harq_us: Vec<f64>,
    pub stats: Vec<ShardStats>,
    pub harq: harq::SoftBufferStats,
    /// Transmissions per finished HARQ session (0 where none ran).
    pub tx_per_session: f64,
}

/// Serving probe: `frames` of each mode through a greedy service built from
/// `policy`, one blocking `submit` or `submit_harq` at a time (HARQ keys
/// cycle over 8 processes, within a budget of 16 buffers), each call timed.
pub fn serve<P: DecoderPolicy>(
    policy: P,
    agc: bool,
    modes: &[(CodeId, Vec<&[f64]>)],
) -> ServeFigures {
    let n_max = modes.iter().map(|(id, _)| id.n).max().unwrap_or(1);
    let mut builder =
        DecodeService::builder(policy).harq_buffer_bytes(16 * harq::entry_bytes(n_max));
    if agc {
        builder = builder.quantize_ingest(LlrQuantizer::default());
    }
    for (id, _) in modes {
        builder = builder.register(*id).expect("benchmark modes register");
    }
    let service = builder.build().expect("probe service builds");
    let mut figures = ServeFigures::default();
    for (id, frames) in modes {
        for (i, frame) in frames.iter().enumerate() {
            let t = Instant::now();
            let handle = service
                .submit(*id, frame.to_vec(), SubmitOptions::new())
                .expect("probe submission is accepted");
            figures.submit_us.push(us(t.elapsed()));
            let _ = handle.wait();
            let key = HarqKey::new((i % 8) as u64, 0);
            let t = Instant::now();
            let handle = service
                .submit_harq(
                    *id,
                    key,
                    ((i / 8) % 4) as u8,
                    frame.to_vec(),
                    SubmitOptions::new(),
                )
                .expect("probe HARQ submission is accepted");
            figures.submit_harq_us.push(us(t.elapsed()));
            let _ = handle.wait();
        }
    }
    figures.harq = service.harq_stats();
    figures.stats = service.shutdown();
    figures
}

/// Writes the serving-layer per-layer metrics from `figures`.
pub fn put_serve_metrics(m: &mut Metrics, f: &ServeFigures) {
    let sum = |get: fn(&ShardStats) -> u64| f.stats.iter().map(get).sum::<u64>() as f64;
    let decoded = sum(|s| s.decoded);
    let batches = sum(|s| s.batches);
    m.put(
        "serve.submit_us.p50",
        quantile(&mut f.submit_us.clone(), 0.5),
        "us",
    );
    m.put(
        "serve.submit_us.p99",
        quantile(&mut f.submit_us.clone(), 0.99),
        "us",
    );
    m.put(
        "serve.submit_harq_us.p50",
        quantile(&mut f.submit_harq_us.clone(), 0.5),
        "us",
    );
    m.put(
        "serve.submit_harq_us.p99",
        quantile(&mut f.submit_harq_us.clone(), 0.99),
        "us",
    );
    m.put("serve.refused", sum(|s| s.rejected_full), "count");
    m.put("serve.shed", sum(|s| s.shed), "count");
    m.put("serve.expired", sum(|s| s.expired), "count");
    let batch_mean = ratio(decoded, batches);
    m.put("serve.batch_mean", batch_mean, "frames");
    m.put(
        "serve.max_coalesced",
        f.stats.iter().map(|s| s.max_coalesced).max().unwrap_or(0) as f64,
        "frames",
    );
    // Decode-weighted means of the per-shard figures.
    let weighted = |get: &dyn Fn(&ShardStats) -> f64| {
        ratio(
            f.stats.iter().map(|s| get(s) * s.decoded as f64).sum(),
            decoded,
        )
    };
    let frame_cost_us = weighted(&|s| s.est_frame_nanos as f64 / 1e3);
    let p50_ms = weighted(&|s| s.latency.p50_nanos as f64 / 1e6);
    m.put("serve.frame_cost_us", frame_cost_us, "us");
    m.put("serve.residence_ms.p50", p50_ms, "ms");
    m.put(
        "serve.residence_ms.p99",
        weighted(&|s| s.latency.p99_nanos as f64 / 1e6),
        "ms",
    );
    // Queue wait plus micro-batch hold: residence not explained by decoding
    // the frame's own batch.
    m.put(
        "serve.wait_ms",
        (p50_ms - batch_mean * frame_cost_us / 1e3).max(0.0),
        "ms",
    );
    let h = &f.harq;
    m.put(
        "serve.harq.hit_ratio",
        1.0 - ratio(h.inserts as f64, h.combines as f64),
        "ratio",
    );
    m.put("serve.harq.evictions_lru", h.evictions_lru as f64, "count");
    m.put("serve.harq.evictions_ttl", h.evictions_ttl as f64, "count");
    m.put(
        "serve.harq.evictions_forced",
        h.evictions_forced as f64,
        "count",
    );
    m.put(
        "serve.harq.evicted_restarts",
        h.evicted_restarts as f64,
        "count",
    );
    m.put(
        "serve.harq.peak_fill",
        ratio(h.peak_occupancy_bytes as f64, h.budget_bytes as f64),
        "ratio",
    );
    m.put("serve.harq.tx_per_session", f.tx_per_session, "count");
}

/// Group-decode figures from [`GROUP`] spans and the outputs they produced:
/// µs per frame-iteration, mean and p99 iterations, early-termination and
/// parity-satisfied ratios.
pub fn put_decoder_metrics(m: &mut Metrics, spans: &[trace::Span], outs: &[(usize, bool, bool)]) {
    let (busy_ns, _) = trace::totals(spans, GROUP);
    let mut iters: Vec<f64> = outs.iter().map(|o| o.0 as f64).collect();
    let frame_iters: f64 = iters.iter().sum();
    let count = outs.len() as f64;
    m.put(
        "core.decoder.us_per_frame_iter",
        ratio(busy_ns / 1e3, frame_iters),
        "us",
    );
    m.put(
        "core.decoder.iters_mean",
        ratio(frame_iters, count),
        "iterations",
    );
    m.put(
        "core.decoder.iters_p99",
        quantile(&mut iters, 0.99),
        "iterations",
    );
    m.put(
        "core.decoder.early_term_ratio",
        ratio(outs.iter().filter(|o| o.1).count() as f64, count),
        "ratio",
    );
    m.put(
        "core.decoder.parity_ok_ratio",
        ratio(outs.iter().filter(|o| o.2).count() as f64, count),
        "ratio",
    );
}

/// Kernel, engine and cascade probes on every mode's raw frames (AGC'd
/// here), averaged over the modes (equal weight, as the traffic is). The
/// kernel figure weighs the cascade's two stage kernels by the lane-edges
/// each ran in the service.
pub fn put_cascade_layers(
    m: &mut Metrics,
    raw: &[Vec<f64>],
    compiled: &[CompiledCode],
    stats: &[ShardStats],
) {
    let policy = CascadePolicy::default();
    let decoder = policy.decoder();
    let quantizer = LlrQuantizer::default();
    let stage1_frames: u64 = stats.iter().map(|s| s.cascade_stage_frames[0]).sum();
    let stage2_frames: u64 = stats.iter().map(|s| s.cascade_stage_frames[1]).sum();
    let w1 = stage1_frames as f64 * policy.min_sum_iterations as f64;
    let w2 = stage2_frames as f64 * policy.fixed_bp_iterations as f64;
    let threads = ldpc_core::detected_cores();
    let mut sums = [0.0f64; 7];
    for (frames, compiled) in raw.iter().zip(compiled) {
        let mut agc = frames.clone();
        agc.chunks_exact_mut(compiled.n()).for_each(|f| {
            quantizer.normalize_in_place(f);
        });
        let width = decoder.preferred_group_width(compiled);
        let (k1, bytes) = kernel(decoder.stage1().arithmetic(), compiled, width, &agc);
        let (k2, _) = kernel(decoder.stage2().arithmetic(), compiled, width, &agc);
        let (overhead, fill, scaling) = engine(&decoder, compiled, &agc, threads);
        let (s1, s2, _) = cascade(compiled, &agc);
        let kernel_ns = ratio(k1 * w1 + k2 * w2, w1 + w2);
        for (acc, v) in sums
            .iter_mut()
            .zip([kernel_ns, bytes, overhead, fill, scaling, s1, s2])
        {
            *acc += v;
        }
    }
    let k = raw.len() as f64;
    m.put("core.kernel.ns_per_lane_edge", sums[0] / k, "ns");
    m.put("core.kernel.bytes_per_lane_edge", sums[1] / k, "bytes");
    m.put("core.engine.fanout_overhead", sums[2] / k, "ratio");
    m.put("core.engine.group_fill", sums[3] / k, "ratio");
    m.put("core.engine.scaling_t2_t1", sums[4] / k, "ratio");
    m.put("core.cascade.stage1_us_per_frame", sums[5] / k, "us");
    m.put("core.cascade.stage2_us_per_frame", sums[6] / k, "us");
    m.put(
        "core.cascade.escalation_ratio",
        ratio(stage2_frames as f64, stage1_frames as f64),
        "ratio",
    );
}

/// The paper ASIC model's information throughput for the workload's modes
/// at the measured mean iterations, and the measured information rate
/// (`fps` frames/s spread evenly over the modes) against it.
pub fn put_arch(m: &mut Metrics, ids: &[CodeId], fps: f64, iters_mean: f64) {
    let model = ThroughputModel::paper_operating_point();
    let iterations = (iters_mean.round() as usize).max(1);
    let (mut model_bps, mut info_bits) = (0.0, 0.0);
    for id in ids {
        let code = id.build().expect("supported mode");
        model_bps += model.closed_form_bps(
            &DecoderModeConfig::from_code(&code),
            code.rate(),
            iterations,
        );
        info_bits += code.info_bits() as f64;
    }
    let k = ids.len() as f64;
    m.put("arch.closed_form_mbps", model_bps / k / 1e6, "Mbit/s");
    m.put(
        "arch.measured_over_model",
        fps * (info_bits / k) / (model_bps / k),
        "ratio",
    );
}
