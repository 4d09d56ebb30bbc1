//! Streaming soak and latency-percentile harness for the sharded decode
//! service — the CI service gate.
//!
//! Pushes a bounded-duration stream of mixed-mode traffic (three code modes
//! by default) through a [`ldpc_serve::DecodeService`] with blocking
//! backpressure and per-frame deadlines, then verifies the service-level
//! contract and exits non-zero on any violation:
//!
//! * **zero dropped frames** — no non-blocking rejections (blocking
//!   submission parks instead) and every accepted frame completed;
//! * **zero expired frames** — at nominal load every frame decodes inside
//!   its deadline;
//! * **zero shed frames** (unless `--allow-shed`) — admission control must
//!   not fire at nominal load; when it legitimately fires under an
//!   overload experiment, `--allow-shed` keeps the run green while the
//!   shed counts still print;
//! * **zero failed frames** — the decode engine never rejects a batch;
//! * **bit-identity** — a prefix of the streamed frames (`--verify-frames`)
//!   is re-decoded with per-mode sequential `decode_batch` calls and
//!   compared output-for-output;
//! * **zero steady-state allocation** — the workspace pool stops growing
//!   after the warm-up half of the run (with `--decode-threads N > 1` the
//!   bound is `modes × N` workspaces instead of strict stability: which pool
//!   workers claim a given batch's chunks varies run to run, so a
//!   late-arriving worker may lazily build its workspace after warm-up);
//! * **sustained throughput** — decoded frames/sec at least `--min-fps`.
//!
//! ## SLO mode and the latency report
//!
//! `--slo-ms N` switches every shard from the greedy default to
//! [`ldpc_serve::ShardPolicy::with_slo`]: micro-batching dispatch with
//! deadline-slack timers and admission-control shedding, frames submitted
//! *without* an explicit deadline (the SLO provides it). The exit report
//! then includes per-mode p50/p99/p999/max queue-to-completion latency from
//! the service's own histograms, and `--latency-json PATH` dumps them as
//! one JSON object per line:
//!
//! ```text
//! {"mode": "wimax:1/2:576", "decoded": 4096, "shed": 0, "expired": 0,
//!  "p50_ms": 1.42, "p99_ms": 5.61, "p999_ms": 8.92, "max_ms": 9.10,
//!  "slo_ms": 1500}
//! ```
//!
//! `compare_bench latency.json --require-latency [margin]` gates each
//! mode's `p99_ms` against its `slo_ms` — the CI tail-latency gate.
//!
//! `--burst N --gap-ms G` shapes arrivals into back-to-back bursts of `N`
//! frames separated by `G` ms idle ([`ldpc_channel::BurstProfile`]) — the
//! workload that actually exercises micro-batch coalescing and deadline
//! slack, instead of a steady trickle that never fills a batch.
//!
//! `--decode-threads N` fans each shard's coalesced batches across the
//! persistent decode pool (frame-group chunk stealing, cross-shard by
//! construction) — the service-level entry point of the thread-scaling
//! sweep; outputs stay bit-identical to the single-threaded run.
//!
//! `--cascade` swaps the per-shard decoder for the SNR-adaptive
//! [`ldpc_core::CascadeDecoder`] with the default
//! [`ldpc_core::CascadeConfig`] ladder (via the uniform
//! [`ldpc_serve::DecoderPolicy`] plumbing). The whole contract above still
//! holds (bit-identity is then against sequential cascade `decode_batch`
//! calls), and the exit report additionally prints the per-shard
//! escalation counters so a soak log shows how much of the stream stayed
//! on the cheap Min-Sum path.
//!
//! `--burst` also swaps blocking submission for
//! [`ldpc_serve::DecodeService::submit_with_retry`]: bursty producers meet
//! backpressure as `QueueFull` refusals and must ride them out with the
//! jittered-backoff retry loop instead of parking — retry exhaustion fails
//! the soak.
//!
//! ## Chaos mode (`--chaos`, needs `--features fault-injection`)
//!
//! Installs a seeded `ldpc_serve::FaultPlan` (poison ~1/13 frames, stall
//! ~1/97 dispatches for 2 ms, kill ~1/5 dispatch attempts) and then holds
//! the service to the fault-tolerance contract: every accepted frame
//! resolves as `Decoded` or `Poisoned` (nothing dangles, nothing is
//! abandoned), the quarantined set is *exactly* the set the seeded plan
//! selected, unaffected frames stay bit-identical to sequential
//! `decode_batch`, the supervisor logged at least one worker restart, and
//! the decode pool exits at full strength. `--chaos-json PATH` dumps the
//! verdict for `compare_bench --require-chaos` — the CI chaos gate. Chaos
//! mode forces greedy, deadline-free submission so the only non-`Decoded`
//! outcomes are the injected ones.
//!
//! With fault injection built in, chaos mode also sets
//! `FaultPlan::evict_every` and routes every post-prefix frame through
//! `submit_harq` over a small recycled key pool against a deliberately tiny
//! soft-buffer budget — forced evictions land mid-combine, LRU churn runs
//! alongside the poison/stall/kill faults, and the verdict additionally
//! requires the store's ledger to balance (zero leaked buffers).
//!
//! ## HARQ storm mode (`--harq-storm`)
//!
//! Exercises the stateful retransmission tier end-to-end, in two phases:
//!
//! 1. **Bit-identity**: a few sequential HARQ sessions submit-and-wait one
//!    transmission at a time while the harness mirrors the service's
//!    combining offline (normalize → quantize → wide accumulate → saturate →
//!    dequantize → direct `decode_batch`); every service output must match
//!    the mirror exactly, and successful decodes must reset the mirror
//!    accumulator just as they release the service's buffer.
//! 2. **Storm**: an [`ldpc_channel::HarqTraffic`] stream churns thousands of
//!    user keys across a session pool far larger than the configured
//!    `--harq-budget-bytes`, submitted through the jittered retry loop —
//!    with the seeded poison/kill/evict faults active when the binary has
//!    `fault-injection`. The verdict: peak occupancy never exceeded the
//!    budget, every accepted frame resolved, evictions are fully accounted
//!    (LRU + TTL + forced = total), and after the drain the store holds
//!    zero bytes with a balanced ledger (zero leaks).
//!
//! `--harq-json PATH` dumps the combined verdict for
//! `compare_bench --require-harq` — the CI HARQ gate.
//!
//! ```text
//! soak [--duration-ms 2000] [--deadline-ms 1000] [--slo-ms N]
//!      [--burst N] [--gap-ms N] [--latency-json PATH] [--allow-shed]
//!      [--chaos] [--chaos-json PATH]
//!      [--harq-storm] [--harq-json PATH] [--harq-budget-bytes N]
//!      [--harq-concurrency N]
//!      [--queue 64] [--max-batch 32] [--decode-threads 1] [--cascade]
//!      [--ebn0 2.5] [--seed 1] [--min-fps 0] [--verify-frames 4096]
//!      [--modes wimax:1/2:576,wifi:1/2:648,...]
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ldpc_channel::{BurstProfile, HarqTraffic, LlrQuantizer, MixedTraffic};
use ldpc_codes::CodeId;
use ldpc_core::decoder::{DecoderConfig, LayeredDecoder};
use ldpc_core::{CascadeConfig, DecodeOutput, Decoder, FloatBpArithmetic, HarqCombiner, LlrBatch};
#[cfg(feature = "fault-injection")]
use ldpc_serve::FaultPlan;
use ldpc_serve::{
    DecodeOutcome, DecodeService, DecoderPolicy, FrameHandle, HarqKey, RetryPolicy, ShardPolicy,
    SubmitOptions,
};

struct Args {
    duration: Duration,
    deadline: Duration,
    slo: Option<Duration>,
    burst: usize,
    gap: Duration,
    latency_json: Option<String>,
    allow_shed: bool,
    chaos: bool,
    chaos_json: Option<String>,
    harq_storm: bool,
    harq_json: Option<String>,
    harq_budget_bytes: usize,
    harq_concurrency: usize,
    queue_capacity: usize,
    max_batch: usize,
    decode_threads: usize,
    cascade: bool,
    ebn0_db: f64,
    seed: u64,
    min_fps: f64,
    verify_frames: usize,
    modes: Vec<CodeId>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            duration: Duration::from_millis(2000),
            deadline: Duration::from_millis(1000),
            slo: None,
            burst: 0,
            gap: Duration::ZERO,
            latency_json: None,
            allow_shed: false,
            chaos: false,
            chaos_json: None,
            harq_storm: false,
            harq_json: None,
            harq_budget_bytes: 128 * 1024,
            harq_concurrency: 256,
            queue_capacity: 64,
            max_batch: 32,
            decode_threads: 1,
            cascade: false,
            ebn0_db: 2.5,
            seed: 1,
            min_fps: 0.0,
            verify_frames: 4096,
            modes: vec![
                "wimax:1/2:576".parse().unwrap(),
                "wifi:1/2:648".parse().unwrap(),
                "wimax:1/2:1152".parse().unwrap(),
            ],
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--duration-ms" => {
                args.duration = Duration::from_millis(
                    value("--duration-ms")?
                        .parse()
                        .map_err(|e| format!("--duration-ms: {e}"))?,
                );
            }
            "--deadline-ms" => {
                args.deadline = Duration::from_millis(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--slo-ms" => {
                args.slo = Some(Duration::from_millis(
                    value("--slo-ms")?
                        .parse()
                        .map_err(|e| format!("--slo-ms: {e}"))?,
                ));
            }
            "--burst" => {
                args.burst = value("--burst")?
                    .parse()
                    .map_err(|e| format!("--burst: {e}"))?;
            }
            "--gap-ms" => {
                args.gap = Duration::from_millis(
                    value("--gap-ms")?
                        .parse()
                        .map_err(|e| format!("--gap-ms: {e}"))?,
                );
            }
            "--latency-json" => {
                args.latency_json = Some(value("--latency-json")?);
            }
            "--allow-shed" => {
                args.allow_shed = true;
            }
            "--chaos" => {
                args.chaos = true;
            }
            "--chaos-json" => {
                args.chaos_json = Some(value("--chaos-json")?);
            }
            "--harq-storm" => {
                args.harq_storm = true;
            }
            "--harq-json" => {
                args.harq_json = Some(value("--harq-json")?);
            }
            "--harq-budget-bytes" => {
                args.harq_budget_bytes = value("--harq-budget-bytes")?
                    .parse()
                    .map_err(|e| format!("--harq-budget-bytes: {e}"))?;
            }
            "--harq-concurrency" => {
                args.harq_concurrency = value("--harq-concurrency")?
                    .parse()
                    .map_err(|e| format!("--harq-concurrency: {e}"))?;
            }
            "--queue" => {
                args.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?;
            }
            "--max-batch" => {
                args.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--decode-threads" => {
                args.decode_threads = value("--decode-threads")?
                    .parse()
                    .map_err(|e| format!("--decode-threads: {e}"))?;
            }
            "--cascade" => {
                args.cascade = true;
            }
            "--ebn0" => {
                args.ebn0_db = value("--ebn0")?
                    .parse()
                    .map_err(|e| format!("--ebn0: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--min-fps" => {
                args.min_fps = value("--min-fps")?
                    .parse()
                    .map_err(|e| format!("--min-fps: {e}"))?;
            }
            "--verify-frames" => {
                args.verify_frames = value("--verify-frames")?
                    .parse()
                    .map_err(|e| format!("--verify-frames: {e}"))?;
            }
            "--modes" => {
                args.modes = value("--modes")?
                    .split(',')
                    .map(|m| m.parse::<CodeId>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.modes.is_empty() {
        return Err("--modes needs at least one mode".to_string());
    }
    if args.chaos_json.is_some() && !args.chaos {
        return Err("--chaos-json requires --chaos".to_string());
    }
    if args.chaos && args.slo.is_some() {
        return Err("--chaos forces greedy deadline-free submission; drop --slo-ms".to_string());
    }
    if args.harq_json.is_some() && !args.harq_storm {
        return Err("--harq-json requires --harq-storm".to_string());
    }
    if args.harq_storm && (args.chaos || args.slo.is_some()) {
        return Err("--harq-storm is its own mode; drop --chaos / --slo-ms".to_string());
    }
    if args.harq_storm && args.harq_concurrency == 0 {
        return Err("--harq-concurrency needs at least one session".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("soak: {e}");
            eprintln!(
                "usage: soak [--duration-ms N] [--deadline-ms N] [--slo-ms N] [--burst N] \
                 [--gap-ms N] [--latency-json PATH] [--allow-shed] [--chaos] [--chaos-json PATH] \
                 [--harq-storm] [--harq-json PATH] [--harq-budget-bytes N] \
                 [--harq-concurrency N] [--queue N] [--max-batch N] \
                 [--decode-threads N] [--cascade] [--ebn0 F] [--seed N] [--min-fps F] \
                 [--verify-frames N] [--modes a,b,c]"
            );
            return ExitCode::from(2);
        }
    };

    #[cfg(not(feature = "fault-injection"))]
    if args.chaos {
        eprintln!(
            "soak: --chaos needs the fault-injection hooks; rebuild with \
             `--features fault-injection`"
        );
        return ExitCode::from(2);
    }

    if args.harq_storm {
        if args.cascade {
            run_harq(&args, "cascade", CascadeConfig::default())
        } else {
            let decoder =
                LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default())
                    .unwrap();
            run_harq(&args, "float_bp", decoder)
        }
    } else if args.cascade {
        // The reference decoder for the bit-identity re-decode is a second
        // cascade instance: cascade decoding is deterministic per frame, so
        // any instance with the same policy reproduces the service outputs.
        run(&args, "cascade", CascadeConfig::default())
    } else {
        let decoder =
            LayeredDecoder::new(FloatBpArithmetic::default(), DecoderConfig::default()).unwrap();
        run(&args, "float_bp", decoder)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run<P: DecoderPolicy>(args: &Args, decoder_label: &str, policy: P) -> ExitCode {
    let decoder = policy.build_decoder();
    // The kernel tier, core count and pinning state make soak logs
    // attributable: a throughput number only means something relative to the
    // kernels (avx2/sse4.1/scalar) it ran on and the parallelism it had.
    let pool = ldpc_core::DecodePool::global();
    println!(
        "soak: {} modes, {} ms stream, {}, queue {}, max batch {}, \
         decode threads {}, decoder {decoder_label}, Eb/N0 {} dB, kernel tier {}, {} core(s), \
         decode pool {} worker(s), pinning {}",
        args.modes.len(),
        args.duration.as_millis(),
        match args.slo {
            Some(slo) => format!(
                "{} ms SLO (burst {}, gap {} ms)",
                slo.as_millis(),
                args.burst,
                args.gap.as_millis()
            ),
            None => format!("{} ms deadline", args.deadline.as_millis()),
        },
        args.queue_capacity,
        args.max_batch,
        args.decode_threads,
        args.ebn0_db,
        ldpc_core::kernel_tier(),
        ldpc_core::detected_cores(),
        pool.workers(),
        // Workers pin themselves as they start up, so the pinned count is
        // reported at the end of the run; here only the request state is
        // known race-free.
        if pool.pin_requested() {
            "requested"
        } else {
            "off"
        }
    );

    let mut traffic = MixedTraffic::new(args.seed);
    for &id in &args.modes {
        if let Err(e) = traffic.add_mode(id, args.ebn0_db, 1) {
            eprintln!("soak: cannot register {id}: {e}");
            return ExitCode::from(2);
        }
    }

    let shard_policy = match args.slo {
        Some(slo) => ShardPolicy::with_slo(slo),
        None => ShardPolicy::greedy(),
    };
    // The seeded chaos plan: knobs fixed, selection driven by --seed so the
    // expected poisoned set below is computable before submission.
    #[cfg(feature = "fault-injection")]
    let chaos_plan = args.chaos.then(|| {
        let mut plan = FaultPlan::seeded(args.seed);
        plan.poison_every = Some(13);
        plan.stall_every = Some(97);
        plan.stall_for = Duration::from_millis(2);
        plan.kill_dispatch_every = Some(5);
        plan.evict_every = Some(3);
        plan
    });
    let mut builder = DecodeService::builder(policy)
        .queue_capacity(args.queue_capacity)
        .max_batch(args.max_batch)
        .decode_threads(args.decode_threads);
    if args.chaos {
        // A budget smaller than the chaos key pool's working set, so LRU
        // eviction churns alongside the plan's forced mid-combine evictions.
        builder = builder.harq_buffer_bytes(64 * 1024);
    }
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = chaos_plan {
        println!(
            "soak: chaos plan (seed {}): poison ~1/{}, stall ~1/{} for {} ms, \
             kill dispatch ~1/{}, evict ~1/{}",
            plan.seed,
            plan.poison_every.unwrap_or(0),
            plan.stall_every.unwrap_or(0),
            plan.stall_for.as_millis(),
            plan.kill_dispatch_every.unwrap_or(0),
            plan.evict_every.unwrap_or(0)
        );
        builder = builder.fault_plan(plan);
    }
    for &id in &args.modes {
        builder = match builder.register_with_policy(id, shard_policy) {
            Ok(builder) => builder,
            Err(e) => {
                eprintln!("soak: cannot register {id}: {e}");
                return ExitCode::from(2);
            }
        };
    }
    let service = builder.build().unwrap();

    // Stream frames for the configured duration with blocking backpressure,
    // shaped into bursts when requested. The first `verify_frames` frames
    // are retained for the bit-identity re-decode after the drain.
    let shaping = BurstProfile::new(args.burst, args.gap);
    let mut handles: Vec<FrameHandle> = Vec::new();
    let mut retained: Vec<(CodeId, Vec<f64>)> = Vec::new();
    let mut warm_pool_created: Option<usize> = None;
    let start = Instant::now();
    let mut llrs_buf: Vec<f64> = Vec::new();
    let mut harq_frames = 0u64;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= args.duration {
            break;
        }
        if warm_pool_created.is_none() && elapsed * 2 >= args.duration {
            // Warm-up over: every shard has decoded for half the run. From
            // here the workspace pool must not grow.
            warm_pool_created = Some(service.pool_workspaces_created());
        }
        if let Some(gap) = shaping.gap_before(handles.len() as u64) {
            std::thread::sleep(gap);
        }
        let id = traffic.next_frame_into(&mut llrs_buf);
        if retained.len() < args.verify_frames {
            retained.push((id, llrs_buf.clone()));
        }
        // Chaos mode submits deadline-free (stalled dispatches must not turn
        // into expiries) and strictly blocking, so each accepted frame's
        // ingest sequence number equals its submission index — the property
        // the expected-poisoned-set computation below rests on. In SLO mode
        // the shard policy supplies the effective deadline; otherwise the
        // harness stamps an explicit one per frame.
        let options = if args.chaos {
            SubmitOptions::new()
        } else {
            match args.slo {
                Some(_) => SubmitOptions::new(),
                None => SubmitOptions::new().deadline(Instant::now() + args.deadline),
            }
        };
        let submitted = if args.chaos && handles.len() >= args.verify_frames {
            // Past the bit-identity prefix, chaos frames ride the HARQ path
            // over a small recycled key pool: soft buffers combine, churn
            // through the deliberately tiny budget, and absorb the plan's
            // forced mid-combine evictions — while each frame must still
            // resolve under the same poison predicate as a plain submit
            // (blocking HARQ submission consumes ingest seqs in order too).
            let idx = handles.len() as u64;
            harq_frames += 1;
            service.submit_harq(
                id,
                HarqKey::new(idx % 32, ((idx / 32) % 8) as u8),
                (idx % 4) as u8,
                std::mem::take(&mut llrs_buf),
                options,
            )
        } else if args.burst > 0 && !args.chaos {
            // Bursty producers meet the queue bound as QueueFull refusals
            // and ride them out with jittered backoff; generous attempts so
            // only a wedged service exhausts the loop.
            let retry = RetryPolicy {
                max_attempts: 500,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(5),
                ..RetryPolicy::default()
            };
            service.submit_with_retry(id, std::mem::take(&mut llrs_buf), options, retry)
        } else {
            service.submit(id, std::mem::take(&mut llrs_buf), options)
        };
        match submitted {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                eprintln!("soak: FAIL — submission refused: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let submitted = handles.len();

    // Drain: shutdown completes every accepted frame, then collect outcomes.
    // The store handle outlives the shutdown so the post-drain HARQ ledger
    // stays readable.
    let harq_store = service.harq_store();
    let stats = service.shutdown();
    let stream_elapsed = start.elapsed();
    let outcomes: Vec<DecodeOutcome> = handles.into_iter().map(FrameHandle::wait).collect();

    let decoded: u64 = stats.iter().map(|s| s.decoded).sum();
    let expired: u64 = stats.iter().map(|s| s.expired).sum();
    let shed: u64 = stats.iter().map(|s| s.shed).sum();
    let failed: u64 = stats.iter().map(|s| s.failed).sum();
    let rejected: u64 = stats.iter().map(|s| s.rejected_full).sum();
    let accepted: u64 = stats.iter().map(|s| s.accepted).sum();
    let in_flight: u64 = stats.iter().map(|s| s.in_flight()).sum();
    let quarantined: u64 = stats.iter().map(|s| s.quarantined).sum();
    let abandoned: u64 = stats.iter().map(|s| s.abandoned).sum();
    let worker_restarts: u64 = stats.iter().map(|s| s.worker_restarts).sum();
    let fps = decoded as f64 / stream_elapsed.as_secs_f64();

    for shard in &stats {
        println!(
            "soak: shard {:<28} accepted {:>6}  decoded {:>6}  expired {:>3}  shed {:>3}  \
             failed {:>3}  batches {:>5}  max coalesced {:>3}",
            shard.code.to_string(),
            shard.accepted,
            shard.decoded,
            shard.expired,
            shard.shed,
            shard.failed,
            shard.batches,
            shard.max_coalesced
        );
        let lat = shard.latency;
        if lat.count > 0 {
            println!(
                "soak: shard {:<28} latency p50 {:>8.2} ms  p99 {:>8.2} ms  p999 {:>8.2} ms  \
                 max {:>8.2} ms  ({} samples)",
                shard.code.to_string(),
                ms(lat.p50()),
                ms(lat.p99()),
                ms(lat.p999()),
                ms(lat.max()),
                lat.count
            );
        }
        if args.cascade {
            println!(
                "soak: shard {:<28} cascade stages [{} min_sum, {} fixed_bp, {} float_bp], \
                 {} escalations",
                shard.code.to_string(),
                shard.cascade_stage_frames[0],
                shard.cascade_stage_frames[1],
                shard.cascade_stage_frames[2],
                shard.cascade_escalations
            );
        }
    }
    println!(
        "soak: {submitted} frames in {:.2}s -> {fps:.0} frames/s decoded, pool built {} \
         workspaces, {} of {} decode pool worker(s) pinned",
        stream_elapsed.as_secs_f64(),
        stats.first().map_or(0, |s| s.pool_workspaces_created),
        pool.pinned_workers(),
        pool.workers()
    );

    // Latency JSON: one object per mode, `slo_ms` present only when the
    // shard actually had an SLO — compare_bench --require-latency gates
    // exactly the entries that carry one.
    if let Some(path) = &args.latency_json {
        let mut lines = String::new();
        for shard in &stats {
            let lat = shard.latency;
            let slo_field = shard
                .slo
                .map_or(String::new(), |slo| format!(", \"slo_ms\": {}", ms(slo)));
            lines.push_str(&format!(
                "{{\"mode\": \"{}\", \"decoded\": {}, \"shed\": {}, \"expired\": {}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
                 \"max_ms\": {:.3}{slo_field}}}\n",
                shard.code,
                shard.decoded,
                shard.shed,
                shard.expired,
                ms(lat.p50()),
                ms(lat.p99()),
                ms(lat.p999()),
                ms(lat.max()),
            ));
        }
        if let Err(e) = std::fs::write(path, &lines) {
            eprintln!("soak: FAIL — cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("soak: latency percentiles written to {path}");
    }

    if args.chaos || quarantined > 0 || worker_restarts > 0 {
        let harq = harq_store.stats();
        println!(
            "soak: fault tolerance — {quarantined} quarantined, {worker_restarts} worker \
             restart(s), {abandoned} abandoned; HARQ {harq_frames} frame(s), \
             {} eviction(s) ({} forced), {} leaked",
            harq.evictions(),
            harq.evictions_forced,
            harq.leaked()
        );
    }

    let used_retry = args.burst > 0 && !args.chaos;
    let mut violations: Vec<String> = Vec::new();
    if accepted != submitted as u64 {
        violations.push(format!("accepted {accepted} != submitted {submitted}"));
    }
    // Under the retry path a QueueFull refusal is backpressure working as
    // designed (the frame lands on a later attempt and is counted by the
    // accepted==submitted check above); everywhere else submission blocks,
    // so any refusal is a dropped frame.
    if rejected > 0 && !used_retry {
        violations.push(format!("{rejected} frames dropped by backpressure"));
    }
    if abandoned > 0 {
        violations.push(format!("{abandoned} accepted frames were abandoned"));
    }
    if quarantined > 0 && !args.chaos {
        violations.push(format!(
            "{quarantined} frames quarantined without fault injection"
        ));
    }
    if expired > 0 {
        violations.push(format!("{expired} frames expired at nominal load"));
    }
    if shed > 0 && !args.allow_shed {
        violations.push(format!(
            "{shed} frames shed by admission control at nominal load"
        ));
    }
    if failed > 0 {
        violations.push(format!("{failed} frames failed in the decode engine"));
    }
    if in_flight > 0 {
        violations.push(format!("{in_flight} accepted frames never completed"));
    }
    if let Some(warm) = warm_pool_created {
        let final_created = stats.first().map_or(0, |s| s.pool_workspaces_created);
        if args.decode_threads <= 1 {
            // Single-threaded shards: exactly one workspace per mode, fixed
            // after warm-up.
            if final_created != warm {
                violations.push(format!(
                    "workspace pool grew after warm-up ({warm} -> {final_created}): \
                     steady-state serving must not allocate decoder state"
                ));
            }
        } else {
            // Fan-out shards checkout lazily per claimed chunk, and which
            // pool workers claim a batch varies — a worker can build its
            // first workspace after warm-up. The bound that must hold is
            // one workspace per participating thread per mode.
            let cap = args.modes.len() * args.decode_threads;
            if final_created > cap {
                violations.push(format!(
                    "workspace pool built {final_created} workspaces, more than \
                     modes x decode_threads = {cap}: fan-out is leaking decoder state"
                ));
            }
        }
    }
    if fps < args.min_fps {
        violations.push(format!(
            "throughput {fps:.0} frames/s below the {:.0} frames/s floor",
            args.min_fps
        ));
    }

    // Bit-identity: re-decode the retained prefix with per-mode sequential
    // decode_batch calls and compare output-for-output. Shed frames carry
    // no output and are accounted by the shed counter above, so they are
    // skipped here rather than miscounted as identity mismatches.
    let mut per_mode: HashMap<CodeId, Vec<f64>> = HashMap::new();
    let mut order: Vec<(CodeId, usize)> = Vec::new();
    for (id, llrs) in &retained {
        let buf = per_mode.entry(*id).or_default();
        order.push((*id, buf.len() / id.n));
        buf.extend_from_slice(llrs);
    }
    let mut reference: HashMap<CodeId, Vec<DecodeOutput>> = HashMap::new();
    for (&id, llrs) in &per_mode {
        let compiled = id.build().unwrap().compile();
        let batch = LlrBatch::new(llrs, id.n).unwrap();
        reference.insert(id, decoder.decode_batch(&compiled, batch).unwrap());
    }
    let mut mismatches = 0usize;
    let mut verified = 0usize;
    for ((id, frame_idx), outcome) in order.into_iter().zip(&outcomes) {
        match outcome {
            DecodeOutcome::Decoded(out) => {
                verified += 1;
                if *out != reference[&id][frame_idx] {
                    mismatches += 1;
                }
            }
            DecodeOutcome::Shed => {}
            // Expected casualties of the chaos plan; their exact identity is
            // asserted against the seeded predicate below.
            DecodeOutcome::Poisoned if args.chaos => {}
            _ => mismatches += 1,
        }
    }
    println!(
        "soak: verified {verified} of {} retained frames against sequential decode_batch, \
         {mismatches} mismatches",
        retained.len()
    );
    if mismatches > 0 {
        violations.push(format!(
            "{mismatches} service outputs differ from sequential decode_batch"
        ));
    }

    // Chaos verdict: the seeded plan says exactly which submission indices
    // must have been quarantined (blocking submission makes ingest seq ==
    // submission index); everything else must have decoded, the supervisor
    // must have absorbed at least one injected dispatch kill, and the decode
    // pool must exit at full strength.
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = chaos_plan {
        let expected_poisoned: Vec<usize> =
            (0..submitted).filter(|&i| plan.poisons(i as u64)).collect();
        let actual_poisoned: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, DecodeOutcome::Poisoned))
            .map(|(i, _)| i)
            .collect();
        let resolved = outcomes
            .iter()
            .filter(|o| matches!(o, DecodeOutcome::Decoded(_) | DecodeOutcome::Poisoned))
            .count();
        println!(
            "soak: chaos — {resolved}/{submitted} frames resolved, {} poisoned \
             (expected {}), {worker_restarts} worker restart(s)",
            actual_poisoned.len(),
            expected_poisoned.len()
        );
        if resolved != submitted {
            violations.push(format!(
                "chaos: only {resolved} of {submitted} frames resolved as Decoded/Poisoned"
            ));
        }
        if actual_poisoned != expected_poisoned {
            violations.push(format!(
                "chaos: quarantined set diverges from the seeded plan \
                 ({} actual vs {} expected)",
                actual_poisoned.len(),
                expected_poisoned.len()
            ));
        }
        if worker_restarts == 0 {
            violations.push(
                "chaos: no supervised worker restart despite injected dispatch kills".to_string(),
            );
        }
        let pool_live = pool.live_workers();
        if pool_live < pool.workers() {
            violations.push(format!(
                "chaos: decode pool below strength at exit ({pool_live} of {} live)",
                pool.workers()
            ));
        }
        let harq = harq_store.stats();
        if harq.leaked() != 0 {
            violations.push(format!(
                "chaos: soft-buffer ledger out of balance ({} leaked)",
                harq.leaked()
            ));
        }
        if harq.occupancy_bytes != 0 {
            violations.push(format!(
                "chaos: {} bytes still held in the soft-buffer store after the drain",
                harq.occupancy_bytes
            ));
        }
        if let Some(path) = &args.chaos_json {
            let line = format!(
                "{{\"submitted\": {submitted}, \"resolved\": {resolved}, \
                 \"poisoned\": {}, \"expected_poisoned\": {}, \"abandoned\": {abandoned}, \
                 \"worker_restarts\": {worker_restarts}, \"pool_workers\": {}, \
                 \"pool_live\": {pool_live}, \"pool_restarts\": {}, \
                 \"mismatches\": {mismatches}, \"harq_frames\": {harq_frames}, \
                 \"harq_evictions\": {}, \"harq_forced_evictions\": {}, \
                 \"harq_leaked\": {}}}\n",
                actual_poisoned.len(),
                expected_poisoned.len(),
                pool.workers(),
                pool.worker_restarts(),
                harq.evictions(),
                harq.evictions_forced,
                harq.leaked(),
            );
            if let Err(e) = std::fs::write(path, &line) {
                eprintln!("soak: FAIL — cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("soak: chaos verdict written to {path}");
        }
    }

    if violations.is_empty() {
        println!("soak: PASS");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("soak: FAIL — {v}");
        }
        ExitCode::FAILURE
    }
}

/// The HARQ storm harness (`--harq-storm`): phase A mirrors the service's
/// soft combining offline and demands bit-identity; phase B churns a
/// key population far beyond the soft-buffer budget (with seeded faults
/// when compiled in) and demands bounded occupancy, full resolution and a
/// balanced ledger after the drain.
fn run_harq<P: DecoderPolicy + Clone>(args: &Args, decoder_label: &str, policy: P) -> ExitCode {
    let mode = args.modes[0];
    let decoder = policy.build_decoder();
    let quantizer = LlrQuantizer::default();
    let combiner = HarqCombiner::new(quantizer.max_code());
    let compiled = mode.build().unwrap().compile();
    let mut violations: Vec<String> = Vec::new();

    println!(
        "soak: HARQ storm — mode {mode}, {} ms storm, budget {} bytes, {} live sessions, \
         decoder {decoder_label}, Eb/N0 {} dB, kernel tier {}",
        args.duration.as_millis(),
        args.harq_budget_bytes,
        args.harq_concurrency,
        args.ebn0_db,
        ldpc_core::kernel_tier()
    );

    // ---- Phase A: bit-identity against an offline mirror of the combining
    // pipeline. Few sessions, sequential submit-and-wait, fault-free, ample
    // budget — nothing evicts, so the mirror is exact: normalize → quantize
    // → wide accumulate → saturate → dequantize → direct decode_batch.
    let service = DecodeService::builder(policy.clone())
        .register(mode)
        .unwrap()
        .build()
        .unwrap();
    let mut traffic = HarqTraffic::new(mode, args.ebn0_db, 4, 4, args.seed).unwrap();
    let mut mirrors: HashMap<(u64, u8), Vec<i32>> = HashMap::new();
    let mut bitident_checked = 0u64;
    let mut mismatches = 0u64;
    let mut deep_combines = 0u64;
    for _ in 0..240 {
        let tx = traffic.next_tx();
        let key = HarqKey::new(tx.user, tx.process);
        let mut full = tx.llrs.clone();
        quantizer.normalize_in_place(&mut full);
        let incoming = quantizer.quantize_all_to_codes(&full);
        let acc = mirrors
            .entry((tx.user, tx.process))
            .or_insert_with(|| vec![0i32; mode.n]);
        combiner.accumulate(acc, &incoming);
        let mut saturated = vec![0i32; mode.n];
        combiner.saturate_into(acc, &mut saturated);
        let mirror_llrs: Vec<f64> = saturated.iter().map(|&c| quantizer.dequantize(c)).collect();
        let reference = decoder
            .decode_batch(&compiled, LlrBatch::new(&mirror_llrs, mode.n).unwrap())
            .unwrap()
            .remove(0);
        let handle = match service.submit_harq(mode, key, tx.rv, tx.llrs, ()) {
            Ok(handle) => handle,
            Err(e) => {
                eprintln!("soak: FAIL — HARQ submission refused: {e}");
                return ExitCode::FAILURE;
            }
        };
        match handle.wait() {
            DecodeOutcome::Decoded(out) => {
                bitident_checked += 1;
                if out != reference {
                    mismatches += 1;
                }
                // A parity-satisfied decode releases the service's buffer;
                // the mirror resets the same way. A retired session's key
                // never transmits again, so its mirror state is dead too.
                if out.parity_satisfied || tx.last {
                    mirrors.remove(&(tx.user, tx.process));
                } else {
                    deep_combines += 1;
                }
            }
            other => {
                violations.push(format!("phase A frame resolved as {other:?}, not Decoded"));
            }
        }
    }
    let store = service.harq_store();
    service.shutdown();
    let phase_a = store.stats();
    println!(
        "soak: phase A — {bitident_checked} transmissions bit-checked against the offline \
         mirror, {mismatches} mismatch(es), {deep_combines} multi-round combine(s), \
         {} release(s), {} leaked",
        phase_a.releases,
        phase_a.leaked()
    );
    if mismatches > 0 {
        violations.push(format!(
            "{mismatches} HARQ outputs differ from the offline combine + decode_batch mirror"
        ));
    }
    if phase_a.leaked() != 0 || phase_a.occupancy_bytes != 0 {
        violations.push(format!(
            "phase A ledger unbalanced after drain ({} leaked, {} bytes held)",
            phase_a.leaked(),
            phase_a.occupancy_bytes
        ));
    }

    // ---- Phase B: the storm. A session pool far larger than the budget,
    // every transmission through the jittered retry loop, seeded faults
    // (poison / dispatch kill / mid-combine evict) when compiled in.
    #[cfg_attr(not(feature = "fault-injection"), allow(unused_mut))]
    let mut builder = DecodeService::builder(policy)
        .queue_capacity(args.queue_capacity)
        .max_batch(args.max_batch)
        .decode_threads(args.decode_threads)
        .harq_buffer_bytes(args.harq_budget_bytes)
        .harq_ttl(Duration::from_millis(200));
    #[cfg(feature = "fault-injection")]
    {
        let mut plan = FaultPlan::seeded(args.seed);
        plan.poison_every = Some(31);
        plan.kill_dispatch_every = Some(7);
        plan.evict_every = Some(9);
        println!(
            "soak: storm fault plan (seed {}): poison ~1/31, kill dispatch ~1/7, \
             evict ~1/9 combines",
            plan.seed
        );
        builder = builder.fault_plan(plan);
    }
    let service = builder.register(mode).unwrap().build().unwrap();
    let mut traffic = HarqTraffic::new(
        mode,
        args.ebn0_db,
        args.harq_concurrency,
        4,
        args.seed ^ 0x5707_1234,
    )
    .unwrap();
    let retry = RetryPolicy {
        max_attempts: 500,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    let mut handles: Vec<FrameHandle> = Vec::new();
    let mut refused = 0u64;
    let start = Instant::now();
    while start.elapsed() < args.duration {
        let tx = traffic.next_tx();
        let key = HarqKey::new(tx.user, tx.process);
        match service.submit_harq_with_retry(mode, key, tx.rv, tx.llrs, (), retry) {
            Ok(handle) => handles.push(handle),
            Err(ldpc_serve::SubmitError::QueueFull { .. }) => {
                // Backpressure outlasted the retry budget: the transmission
                // is dropped, its energy already banked in the parked
                // buffer — exactly how a refused retransmission degrades.
                refused += 1;
            }
            Err(e) => {
                eprintln!("soak: FAIL — storm submission refused: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let submitted = handles.len() as u64;
    let sessions = traffic.sessions_started();
    let store = service.harq_store();
    let stats = service.shutdown();
    let outcomes: Vec<DecodeOutcome> = handles.into_iter().map(FrameHandle::wait).collect();
    let resolved = outcomes.len() as u64;
    let final_stats = store.stats();

    let accepted: u64 = stats.iter().map(|s| s.accepted).sum();
    let unresolved: u64 = stats.iter().map(|s| s.in_flight()).sum();
    let abandoned: u64 = stats.iter().map(|s| s.abandoned).sum();
    let quarantined: u64 = stats.iter().map(|s| s.quarantined).sum();
    let evicted_restarts: u64 = stats.iter().map(|s| s.harq_evicted_restarts).sum();
    println!(
        "soak: phase B — {submitted} transmissions over {sessions} sessions ({refused} \
         refused), {quarantined} poisoned, peak {} of {} budget bytes, \
         {} eviction(s) [lru {}, ttl {}, forced {}], {} evicted restart(s), \
         {} combine(s), {} release(s), {} drained, {} leaked",
        final_stats.peak_occupancy_bytes,
        final_stats.budget_bytes,
        final_stats.evictions(),
        final_stats.evictions_lru,
        final_stats.evictions_ttl,
        final_stats.evictions_forced,
        evicted_restarts,
        final_stats.combines,
        final_stats.releases,
        final_stats.drained,
        final_stats.leaked()
    );

    if accepted != submitted {
        violations.push(format!(
            "storm: accepted {accepted} != submitted {submitted}"
        ));
    }
    if unresolved > 0 {
        violations.push(format!(
            "storm: {unresolved} accepted frames never resolved"
        ));
    }
    if abandoned > 0 {
        violations.push(format!("storm: {abandoned} frames abandoned"));
    }
    if final_stats.peak_occupancy_bytes > final_stats.budget_bytes {
        violations.push(format!(
            "storm: peak occupancy {} bytes exceeded the {} byte budget",
            final_stats.peak_occupancy_bytes, final_stats.budget_bytes
        ));
    }
    if final_stats.occupancy_bytes != 0 || final_stats.entries != 0 {
        violations.push(format!(
            "storm: {} bytes in {} entries still held after the drain",
            final_stats.occupancy_bytes, final_stats.entries
        ));
    }
    if final_stats.leaked() != 0 {
        violations.push(format!(
            "storm: soft-buffer ledger out of balance ({} leaked)",
            final_stats.leaked()
        ));
    }
    if final_stats.evictions() == 0 {
        violations.push("storm: the budget squeeze produced no evictions".to_string());
    }
    #[cfg(feature = "fault-injection")]
    if final_stats.evictions_forced == 0 {
        violations.push("storm: the seeded plan forced no mid-combine evictions".to_string());
    }
    // One combine per accepted-or-refused transmission, exactly: a retry
    // loop that re-combined would double-count transmission energy.
    if final_stats.combines != submitted + refused {
        violations.push(format!(
            "storm: {} combines for {} transmissions — retries must not re-combine",
            final_stats.combines,
            submitted + refused
        ));
    }

    if let Some(path) = &args.harq_json {
        let line = format!(
            "{{\"harq_sessions\": {sessions}, \"harq_frames\": {submitted}, \
             \"refused\": {refused}, \"bitident_checked\": {bitident_checked}, \
             \"mismatches\": {mismatches}, \"budget_bytes\": {}, \
             \"peak_occupancy_bytes\": {}, \"occupancy_after_drain\": {}, \
             \"evictions\": {}, \"evictions_lru\": {}, \"evictions_ttl\": {}, \
             \"evictions_forced\": {}, \"evicted_restarts\": {evicted_restarts}, \
             \"combines\": {}, \"released\": {}, \"drained\": {}, \"leaked\": {}, \
             \"submitted\": {submitted}, \"resolved\": {resolved}, \
             \"unresolved\": {unresolved}}}\n",
            final_stats.budget_bytes,
            final_stats.peak_occupancy_bytes,
            final_stats.occupancy_bytes,
            final_stats.evictions(),
            final_stats.evictions_lru,
            final_stats.evictions_ttl,
            final_stats.evictions_forced,
            final_stats.combines,
            final_stats.releases,
            final_stats.drained,
            final_stats.leaked(),
        );
        if let Err(e) = std::fs::write(path, &line) {
            eprintln!("soak: FAIL — cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("soak: HARQ storm verdict written to {path}");
    }

    if violations.is_empty() {
        println!("soak: PASS");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("soak: FAIL — {v}");
        }
        ExitCode::FAILURE
    }
}
