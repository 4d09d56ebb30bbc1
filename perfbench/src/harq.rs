//! `harq_rtx`: a closed stop-and-wait loop of HARQ processes against
//! `DecodeService::submit_harq` on WiMAX 576 at 1 dB, decoded by the default
//! cascade on a greedy shard. Each process sends RV0 of a fresh codeword,
//! sends the next RV of the same codeword on every NACK (not
//! parity-satisfied), and starts a new session under a new `HarqKey` after
//! an ACK or its fourth transmission; between a completion and its next
//! transmission a process waits a seeded think time. The soft-buffer budget
//! sits below the population's working set, so every admission normalises,
//! quantises, combines, parks or evicts, and dequantises.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldpc_channel::LlrQuantizer;
use ldpc_codes::CodeId;
use ldpc_core::{CascadeDecoder, DecodeOutput, Decoder, HarqCombiner, LlrBatch};
use ldpc_serve::{
    harq, CascadePolicy, DecodeOutcome, DecodeService, FrameHandle, HarqKey, ShardPolicy,
    SubmitOptions,
};

use crate::gen::{self, Session, MAX_TX};
use crate::probe::{self, put_arch, put_cascade_layers, ServeFigures};
use crate::trace::{self, Traced, TracedPolicy, Tracer, GROUP};
use crate::util::{json_num, json_nums, json_object, json_str, json_strs, mean, median, ms};
use crate::util::{quantile, ratio};
use crate::util::{sleep_until, windowed_quantile, Metrics, SplitMix, Windows};
use crate::util::{TAIL_WINDOW, WINDOW};
use crate::{Args, Outcome, SETUP_ROUNDS};

pub const MODE: &str = "wimax:1/2:576";
pub const EBN0_DB: f64 = 1.0;
pub const PROCESSES: usize = 60;
/// After each completion a process waits a think time drawn uniformly from
/// `[0, THINK_MAX)` (its retransmission preparation) before it sends again.
/// Without it the processes move in lock-step cohorts of one batch each,
/// the latency distribution has two peaks a batch apart, and the median
/// jumps between them from run to run.
pub const THINK_MAX: Duration = Duration::from_millis(2);
/// Below the population's working set of `PROCESSES · entry_bytes(576)`
/// (about 139 KiB): about one process in three sends into an evicted
/// buffer at some point, so eviction and restart run all the time.
pub const BUDGET_BYTES: usize = 96 * 1024;
pub const TTL: Duration = Duration::from_millis(200);
/// Distinct sessions generated; sessions cycle through them under new keys.
const SESSION_POOL: usize = 4096;
/// Sessions whose user id is a multiple of this are mirrored offline.
const SAMPLE_EVERY: u64 = 8;
const SAMPLE_MAX: usize = 128;

type Service = DecodeService<Traced<CascadeDecoder>>;

/// A live HARQ process: the session it is sending and how far it got.
struct Process {
    key: HarqKey,
    session: usize,
    sent: usize,
    sampled: bool,
    /// The first transmission in the process's soft buffer: 0, or the last
    /// transmission the store restarted from after an eviction (read from
    /// the store's `evicted_restarts` ledger around each sampled submit).
    buffer_from: usize,
}

struct Pending {
    process: usize,
    submitted: Instant,
    traced: bool,
    handle: FrameHandle,
}

fn build_service(tracer: &Arc<Tracer>, id: CodeId) -> Service {
    DecodeService::builder(TracedPolicy {
        policy: CascadePolicy::default(),
        tracer: Arc::clone(tracer),
    })
    .harq_buffer_bytes(BUDGET_BYTES)
    .harq_ttl(TTL)
    .register_with_policy(id, ShardPolicy::greedy())
    .expect("benchmark mode registers")
    .build()
    .expect("serving configuration is valid")
}

fn think_time(rng: &mut SplitMix) -> Duration {
    Duration::from_nanos(rng.next_u64() % THINK_MAX.as_nanos() as u64)
}

/// The service's combining, mirrored: normalise, quantise, accumulate,
/// saturate, dequantise.
fn mirror_combine(tx: &[Vec<f64>]) -> Vec<f64> {
    let quantizer = LlrQuantizer::default();
    let combiner = HarqCombiner::new(quantizer.max_code());
    let n = tx[0].len();
    let mut acc = vec![0i32; n];
    for t in tx {
        let mut full = t.to_vec();
        quantizer.normalize_in_place(&mut full);
        combiner.accumulate(&mut acc, &quantizer.quantize_all_to_codes(&full));
    }
    let mut saturated = vec![0i32; n];
    combiner.saturate_into(&acc, &mut saturated);
    saturated.iter().map(|&c| quantizer.dequantize(c)).collect()
}

pub fn run(args: &Args) -> Outcome {
    let id: CodeId = MODE.parse().expect("valid mode");
    let sessions: Vec<Session> = gen::harq_sessions(id, SESSION_POOL, EBN0_DB, args.seed);

    let tracer = Tracer::new();
    let mut setups = Vec::new();
    let mut compile_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some((_, service)) = built.take() {
            let service: Service = service;
            drop(service.shutdown());
        }
        let start = Instant::now();
        let compiled = id.build().expect("supported mode").compile();
        compile_ms.push(ms(start.elapsed()));
        let service = build_service(&tracer, id);
        // Warm-up through the plain path, so no soft buffer is left behind.
        let handles: Vec<FrameHandle> = sessions[..16]
            .iter()
            .map(|s| {
                service
                    .submit(id, s.tx(0), SubmitOptions::new())
                    .expect("warm-up frame is accepted")
            })
            .collect();
        handles.into_iter().for_each(|h| drop(h.wait()));
        setups.push(start.elapsed().as_secs_f64());
        built = Some((compiled, service));
    }
    let (compiled, service) = built.expect("at least one setup round");

    let mut processes: Vec<Process> = Vec::with_capacity(PROCESSES);
    let mut next_user = 0u64;
    let mut next_session = 0usize;
    let mut sample_count = 0usize;
    let mut new_process = |p: usize| {
        let user = next_user;
        next_user += 1;
        let session = next_session;
        next_session = (next_session + 1) % SESSION_POOL;
        let sampled = user.is_multiple_of(SAMPLE_EVERY) && sample_count < SAMPLE_MAX;
        sample_count += usize::from(sampled);
        Process {
            key: HarqKey::new(user, (p % 8) as u8),
            session,
            sent: 0,
            sampled,
            buffer_from: 0,
        }
    };
    let submit = |proc_: &mut Process, traced: bool| -> (Instant, FrameHandle) {
        let llrs = sessions[proc_.session].tx(proc_.sent);
        let rv = proc_.sent as u8;
        // Only this thread submits, so a rise in the ledger across one
        // submit means that transmission found its buffer evicted.
        let restarts_before = proc_.sampled.then(|| service.harq_stats().evicted_restarts);
        let start = Instant::now();
        let handle = service
            .submit_harq(id, proc_.key, rv, llrs, SubmitOptions::new())
            .expect("blocking HARQ submission is accepted");
        if traced {
            tracer.record(tracer.new_id(), 0, "serve.submit_harq", start, 1);
        }
        if restarts_before.is_some_and(|before| service.harq_stats().evicted_restarts > before) {
            proc_.buffer_from = proc_.sent;
        }
        proc_.sent += 1;
        (start, handle)
    };

    let run_for = Duration::from_secs_f64(args.seconds);
    let half = run_for / 2;
    // In flight, in submission order (the one shard completes in that order).
    let mut outstanding: VecDeque<Pending> = VecDeque::with_capacity(PROCESSES);
    // Processes waiting out their think time: (due, process).
    let mut thinking: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    let mut think = SplitMix::new(args.seed ^ 0x7417);
    let begin = Instant::now();
    for p in 0..PROCESSES {
        processes.push(new_process(p));
        thinking.push(Reverse((begin + think_time(&mut think), p)));
    }
    let (mut lat_untraced, mut lat_traced) = (Vec::new(), Vec::new());
    let mut turnaround_ms = Vec::new();
    let mut traced_outs: Vec<(usize, bool, bool)> = Vec::new();
    let (mut tx_done, mut failed, mut finished, mut wrong, mut tx_total) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut tx_hist = [0.0f64; MAX_TX + 1];
    let mut iter_hist = [0.0f64; 11];
    // (session index, first and end transmission in the soft buffer, service
    // output) per sampled transmission.
    let mut sampled: Vec<(usize, usize, usize, DecodeOutput)> = Vec::new();
    let mut first_traced: Option<Instant> = None;
    let mut end_untraced = begin;
    let mut tx_untraced = 0u64;
    let mut observed_at = Vec::new();
    let mut windows = Windows::new(begin, WINDOW);
    loop {
        // Send every process whose think time is over.
        while let Some(&Reverse((due, p))) = thinking.peek() {
            if due > Instant::now() {
                break;
            }
            thinking.pop();
            if due - begin >= run_for {
                continue; // drain: no new transmissions
            }
            let traced = args.trace && due - begin >= half;
            if traced && first_traced.is_none() {
                first_traced = Some(due);
                tracer.set(true);
            }
            let (submitted, handle) = submit(&mut processes[p], traced);
            turnaround_ms.push(ms(submitted.saturating_duration_since(due)));
            outstanding.push_back(Pending {
                process: p,
                submitted,
                traced,
                handle,
            });
        }
        // Wait for the oldest transmission, but no longer than the next
        // process is due.
        let next_due = thinking.peek().map(|&Reverse((due, _))| due);
        let Some(done) = outstanding.pop_front() else {
            match next_due {
                Some(due) => {
                    sleep_until(due);
                    continue;
                }
                None => break,
            }
        };
        let outcome = match next_due {
            Some(due) => match done
                .handle
                .wait_timeout(due.saturating_duration_since(Instant::now()))
            {
                Ok(outcome) => outcome,
                Err(handle) => {
                    outstanding.push_front(Pending { handle, ..done });
                    continue;
                }
            },
            None => done.handle.wait(),
        };
        let observed = Instant::now();
        let latency = ms(observed - done.submitted);
        tx_done += 1;
        let p = done.process;
        let proc_ = &mut processes[p];
        let output = match outcome {
            DecodeOutcome::Decoded(out) => Some(out),
            _ => {
                failed += 1;
                None
            }
        };
        if done.traced {
            lat_traced.push(latency);
        } else {
            lat_untraced.push(latency);
            observed_at.push(observed);
            end_untraced = observed;
            tx_untraced += 1;
            windows.add(observed, 1);
        }
        let ack = output.as_ref().is_some_and(|o| o.parity_satisfied);
        if let Some(out) = &output {
            iter_hist[out.iterations.min(10)] += 1.0;
            if done.traced {
                traced_outs.push((out.iterations, out.early_terminated, out.parity_satisfied));
            }
            if proc_.sampled {
                sampled.push((proc_.session, proc_.buffer_from, proc_.sent, out.clone()));
            }
        }
        if ack || proc_.sent == MAX_TX {
            finished += 1;
            tx_total += proc_.sent as u64;
            tx_hist[proc_.sent] += 1.0;
            let right = output
                .as_ref()
                .is_some_and(|o| o.hard_bits == sessions[proc_.session].codeword);
            wrong += u64::from(!right);
            *proc_ = new_process(p);
        }
        thinking.push(Reverse((observed + think_time(&mut think), p)));
    }
    tracer.set(false);
    let elapsed_untraced = (end_untraced - begin).as_secs_f64();
    let stats = service.stats();
    let store = service.harq_stats();
    drop(service.shutdown());

    // Correctness: every sampled service output equals a direct decode of
    // the offline mirror of the transmissions in its soft buffer — all of
    // the session's so far, or those since the store's ledger showed the
    // buffer restarted after an eviction.
    let reference = CascadePolicy::default().decoder();
    let mut combined: Vec<f64> = Vec::with_capacity(sampled.len() * id.n);
    for &(session, from, sent, _) in &sampled {
        let tx: Vec<Vec<f64>> = (from..sent).map(|k| sessions[session].tx(k)).collect();
        combined.extend(mirror_combine(&tx));
    }
    let direct = reference
        .decode_batch(
            &compiled,
            LlrBatch::new(&combined, id.n).expect("whole frames"),
        )
        .expect("frames match the code");
    let mismatches = sampled
        .iter()
        .zip(&direct)
        .filter(|((.., got), want)| got != *want)
        .count();
    let restarted = sampled.iter().filter(|s| s.1 > 0).count();

    let throughput = tx_untraced as f64 / elapsed_untraced;
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&mut setups.clone()), "s");
    metrics.put("throughput_fps", throughput, "frames/s");
    metrics.put("fer", ratio(wrong as f64, finished as f64), "ratio");
    // Per one-second window, then the median over windows: in this closed
    // loop latency is the population over throughput less the think time,
    // so a slow stretch of the host moves it about twice as much as it moves
    // throughput; the windowed median ignores stretches under half the run.
    metrics.put(
        "p50_ms",
        windowed_quantile(&observed_at, &lat_untraced, TAIL_WINDOW, 0.5),
        "ms",
    );
    metrics.put(
        "p99_ms",
        windowed_quantile(&observed_at, &lat_untraced, TAIL_WINDOW, 0.99),
        "ms",
    );

    let working_set = PROCESSES * harq::entry_bytes(id.n);
    let tx_per_session = ratio(tx_total as f64, finished as f64);
    let mut report = vec![
        ("mode", json_str(MODE)),
        (
            "decoder",
            json_str("cascade (default policy), greedy shard"),
        ),
        ("loop", json_str("closed, stop-and-wait")),
        ("ebn0_db", json_num(EBN0_DB)),
        ("processes", PROCESSES.to_string()),
        ("budget_bytes", BUDGET_BYTES.to_string()),
        ("working_set_bytes", working_set.to_string()),
        ("ttl_ms", json_num(ms(TTL))),
        ("transmissions", tx_done.to_string()),
        ("sessions_finished", finished.to_string()),
        ("tx_per_session", json_num(tx_per_session)),
        ("tx_per_session_histogram_0_4", json_nums(&tx_hist)),
        ("iteration_histogram_0_10", json_nums(&iter_hist)),
        ("residual_sessions", wrong.to_string()),
        ("fail_ratio", json_num(ratio(failed as f64, tx_done as f64))),
        (
            "escalation_ratio",
            json_num(ratio(
                stats.iter().map(|s| s.cascade_stage_frames[1]).sum::<u64>() as f64,
                stats.iter().map(|s| s.cascade_stage_frames[0]).sum::<u64>() as f64,
            )),
        ),
        ("store_peak_bytes", store.peak_occupancy_bytes.to_string()),
        ("store_evictions", store.evictions().to_string()),
        (
            "batch_mean",
            json_num(ratio(
                stats.iter().map(|s| s.decoded).sum::<u64>() as f64,
                stats.iter().map(|s| s.batches).sum::<u64>() as f64,
            )),
        ),
        (
            "turnaround_ms_p99",
            json_num(quantile(&mut turnaround_ms.clone(), 0.99)),
        ),
        ("latency_samples", lat_untraced.len().to_string()),
        (
            "latency_ms_p10_p25_p50_p75_p90",
            json_nums(&[0.1, 0.25, 0.5, 0.75, 0.9].map(|q| quantile(&mut lat_untraced.clone(), q))),
        ),
        ("setup_rounds_s", json_nums(&setups)),
        ("window_fps", json_nums(&windows.rates())),
        ("verified", sampled.len().to_string()),
        ("verified_after_restart", restarted.to_string()),
        ("mismatches", mismatches.to_string()),
    ];

    if args.trace {
        report.push(("probe_only", json_strs(&["serve.submit_us."])));
        let spans = tracer.spans();
        metrics.put("codes.compile_ms", median(&mut compile_ms), "ms");
        let first_tx: Vec<Vec<f64>> = sessions[..64].iter().map(|s| s.tx(0)).collect();
        let frames: Vec<&[f64]> = first_tx.iter().map(Vec::as_slice).collect();
        metrics.put("channel.agc_us", probe::agc(&frames), "us");
        put_cascade_layers(
            &mut metrics,
            &[first_tx.concat()],
            std::slice::from_ref(&compiled),
            &stats,
        );
        probe::put_decoder_metrics(&mut metrics, &spans, &traced_outs);
        metrics.put("core.combine.ns_per_bit", probe::combine(&frames), "ns");
        let submit_probe = probe::serve(
            CascadePolicy::default(),
            true,
            &[(id, frames[..16].to_vec())],
        );
        let figures = ServeFigures {
            submit_us: submit_probe.submit_us,
            submit_harq_us: trace::durations(&spans, "serve.submit_harq")
                .iter()
                .map(|ns| ns / 1e3)
                .collect(),
            stats: stats.clone(),
            harq: store,
            tx_per_session,
        };
        probe::put_serve_metrics(&mut metrics, &figures);
        let iters = metrics.get("core.decoder.iters_mean").unwrap_or(1.0);
        put_arch(&mut metrics, &[id], throughput, iters);
        metrics.put(
            "bench.gen_lag_ms.p99",
            quantile(&mut turnaround_ms.clone(), 0.99),
            "ms",
        );
        metrics.put(
            "bench.gen_lag_ms.max",
            turnaround_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        metrics.put("bench.observe_us", crate::observe_resolution_us(), "us");
        metrics.put(
            "trace.overhead_pct",
            (median(&mut lat_traced.clone()) / median(&mut lat_untraced.clone()) - 1.0) * 100.0,
            "%",
        );
        let (group_ns, group_frames) = trace::totals(&spans, GROUP);
        let decode_ms =
            ratio(group_ns, group_frames) / 1e6 * metrics.get("serve.batch_mean").unwrap_or(1.0);
        let submit_ms = mean(&figures.submit_harq_us) / 1e3;
        let accounted = (submit_ms + decode_ms) / mean(&lat_traced);
        metrics.put("trace.accounted_ratio", accounted, "ratio");
        report.push((
            "latency_split_ms",
            json_object(&[
                ("submit_harq", json_num(submit_ms)),
                ("decode_batch", json_num(decode_ms)),
                ("unaccounted_share", json_num(1.0 - accounted)),
                (
                    "traced_since_s",
                    json_num(first_traced.map_or(0.0, |t| (t - begin).as_secs_f64())),
                ),
            ]),
        ));
    }

    Outcome {
        correct: mismatches == 0 && !sampled.is_empty(),
        attempted: tx_done,
        failed,
        metrics,
        traffic: json_object(&report),
    }
}
