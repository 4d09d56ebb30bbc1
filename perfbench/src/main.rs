//! The repository's benchmark: one command, three workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload decode_2304|serve_mix|harq_rtx --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from the seed before any timing. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`); the lines before it carry the host block and the
//! workload's traffic report. The exit code is non-zero when any output
//! check fails. `perfbench/run.py` builds this binary and forwards the
//! arguments; `perfbench/README.md` defines every metric.

mod decode;
mod gen;
mod harq;
mod mix;
mod probe;
mod trace;
mod util;

use std::process::ExitCode;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use util::{json_num, json_object, json_str, median, Metrics};

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_ROUNDS: usize = 15;

pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_fps",
    "fer",
    "p50_ms",
    "p99_ms",
    "peak_rss_mb",
];

pub const PER_LAYER: [&str; 43] = [
    "codes.compile_ms",
    "channel.agc_us",
    "core.kernel.ns_per_lane_edge",
    "core.kernel.bytes_per_lane_edge",
    "core.decoder.us_per_frame_iter",
    "core.decoder.iters_mean",
    "core.decoder.iters_p99",
    "core.decoder.early_term_ratio",
    "core.decoder.parity_ok_ratio",
    "core.engine.fanout_overhead",
    "core.engine.group_fill",
    "core.engine.scaling_t2_t1",
    "core.cascade.escalation_ratio",
    "core.cascade.stage1_us_per_frame",
    "core.cascade.stage2_us_per_frame",
    "core.combine.ns_per_bit",
    "serve.submit_us.p50",
    "serve.submit_us.p99",
    "serve.submit_harq_us.p50",
    "serve.submit_harq_us.p99",
    "serve.refused",
    "serve.batch_mean",
    "serve.max_coalesced",
    "serve.frame_cost_us",
    "serve.residence_ms.p50",
    "serve.residence_ms.p99",
    "serve.wait_ms",
    "serve.shed",
    "serve.expired",
    "serve.harq.hit_ratio",
    "serve.harq.evictions_lru",
    "serve.harq.evictions_ttl",
    "serve.harq.evictions_forced",
    "serve.harq.evicted_restarts",
    "serve.harq.peak_fill",
    "serve.harq.tx_per_session",
    "arch.closed_form_mbps",
    "arch.measured_over_model",
    "bench.gen_lag_ms.p99",
    "bench.gen_lag_ms.max",
    "bench.observe_us",
    "trace.overhead_pct",
    "trace.accounted_ratio",
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back for the result line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The workload's traffic report, one JSON object.
    pub traffic: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["decode_2304", "serve_mix", "harq_rtx"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// How late a thread blocked on a condition variable wakes after it is
/// notified — the mechanism `FrameHandle::wait` uses — as the median of a
/// ping-pong calibration, in µs. This is the resolution of every completion
/// time the benchmark observes.
pub fn observe_resolution_us() -> f64 {
    let slot: Arc<(Mutex<Option<Instant>>, Condvar)> = Arc::new((Mutex::new(None), Condvar::new()));
    let rounds = 200;
    let waiter = {
        let slot = Arc::clone(&slot);
        std::thread::spawn(move || {
            let mut lags = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let (lock, cv) = &*slot;
                let mut stamp = lock.lock().expect("calibration lock");
                while stamp.is_none() {
                    stamp = cv.wait(stamp).expect("calibration lock");
                }
                lags.push(stamp.take().expect("stamped").elapsed().as_secs_f64() * 1e6);
            }
            lags
        })
    };
    for _ in 0..rounds {
        std::thread::sleep(Duration::from_micros(200));
        let (lock, cv) = &*slot;
        *lock.lock().expect("calibration lock") = Some(Instant::now());
        cv.notify_one();
        // Wait for the waiter to consume the stamp before the next round.
        while lock.lock().expect("calibration lock").is_some() {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    let mut lags = waiter.join().expect("calibration thread");
    median(&mut lags)
}

fn host_block(args: &Args) -> String {
    #[cfg(target_arch = "x86_64")]
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512 = false;
    json_object(&[
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", ldpc_core::detected_cores().to_string()),
        (
            "decode_pool_workers",
            ldpc_core::DecodePool::global().workers().to_string(),
        ),
        ("kernel_tier", json_str(ldpc_core::kernel_tier())),
        ("detected_cores", ldpc_core::detected_cores().to_string()),
        ("avx512f", avx512.to_string()),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload decode_2304|serve_mix|harq_rtx --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!("perfbench: host {}", host_block(&args));
    let mut outcome = match args.workload.as_str() {
        "decode_2304" => decode::run(&args),
        "serve_mix" => mix::run(&args),
        _ => harq::run(&args),
    };
    outcome
        .metrics
        .put("peak_rss_mb", util::peak_rss_mb(), "MiB");
    println!("perfbench: traffic {}", outcome.traffic);

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    let mut complete = true;
    for &name in names {
        match outcome.metrics.0.iter().find(|(n, _, _)| n == name) {
            Some(&(_, value, unit)) if value.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": {}}}",
                json_num(value),
                json_str(unit)
            )),
            other => {
                eprintln!("perfbench: metric {name} missing or not finite ({other:?})");
                complete = false;
            }
        }
    }
    let correct = outcome.correct && complete && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
