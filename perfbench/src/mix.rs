//! `serve_mix`: load against `DecodeService` with the default cascade, AGC
//! at ingest and a 4 ms SLO shard policy on three small modes at equal
//! weight (WiMAX 576, WiFi 648, WiMAX 1152), serving-mix SNRs. One load
//! thread submits on a fixed schedule: non-blocking at a nominal and a peak
//! rate (open loop), blocking as fast as the service takes frames in a
//! saturation phase (closed loop), then non-blocking in three ascending
//! sweeps that find the SLO capacity. Small `z` and a cheap Min-Sum first
//! stage keep decoding a small share, so admission, micro-batch hold,
//! coalescing, shedding and completion dominate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldpc_channel::LlrQuantizer;
use ldpc_codes::{CodeId, CompiledCode};
use ldpc_core::{CascadeDecoder, DecodeOutput, Decoder, LlrBatch};
use ldpc_serve::{
    CascadePolicy, DecodeOutcome, DecodeService, FrameHandle, ShardPolicy, SubmitError,
    SubmitOptions,
};

use crate::gen::{self, Pool, SERVING_MIX};
use crate::probe::{self, put_arch, put_cascade_layers, ServeFigures};
use crate::trace::{self, Traced, TracedPolicy, Tracer, GROUP};
use crate::util::quantile;
use crate::util::{json_num, json_nums, json_object, json_str, json_strs, mean, median, ms};
use crate::util::{ratio, sleep_until, windowed_quantile, Metrics, SplitMix, TAIL_WINDOW, WINDOW};
use crate::{Args, Outcome, SETUP_ROUNDS};

pub const MODES: [&str; 3] = ["wimax:1/2:576", "wifi:1/2:648", "wimax:1/2:1152"];
pub const SLO: Duration = Duration::from_millis(4);
/// The fixed offered rates, frames/s.
pub const NOMINAL_FPS: f64 = 4_000.0;
pub const PEAK_FPS: f64 = 8_000.0;
/// Nominal and peak each run for this share of the run.
const SERVED_PHASE_SHARE: f64 = 0.1;
/// The saturation phase runs for this share of the run: one blocking
/// submit after another, each frame with an explicit deadline of
/// [`SERVED_DEADLINE`], so the shards' queues stay full and nothing is shed.
/// The median over its [`WINDOW`]s of decoded frames per second is
/// `throughput_fps`.
///
/// Not the SLO capacity: the p99 of the swept rates rises slowly towards
/// the SLO (about 0.75 of it at 10k frames/s and 1.0 at 20k on a 2-vCPU
/// x86-64 VM), so a few per cent of host speed moved the rate where it
/// crosses by a quarter, and its spread over ten seeds was 0.22–0.32.
const SATURATION_SHARE: f64 = 0.3;
/// The capacity sweep starts at this rate, below every capacity measured
/// (13–23k frames/s on that VM), and raises it by [`SWEEP_STEP`] per step
/// until two rates in a row miss the SLO. Past [`SWEEP_MAX_FPS`] it stops,
/// and the capacity is only a lower bound (the traffic report says so).
pub const SWEEP_START_FPS: f64 = 10_000.0;
pub const SWEEP_STEP: f64 = 1.12;
pub const SWEEP_MAX_FPS: f64 = 150_000.0;
/// The sweep runs this many times and the capacity (report only) is the
/// median of the sweeps' capacities.
const SWEEPS: usize = 3;
/// Each swept rate runs for this share of the run, so three sweeps that end
/// after ten rates fill the 50 % that the other phases leave.
const SWEEP_PHASE_SHARE: f64 = 0.0167;
/// A swept rate meets the SLO when p99 ≤ SLO, at most this share of its
/// frames fails, and its backlog stays within [`backlog_limit`].
const MAX_FAIL: f64 = 0.01;
/// A swept rate is judged per window of this width (by due time) and then
/// by the median over its windows. The host stalls for a few to tens of
/// milliseconds now and then; judged over a whole phase, one stall failed a
/// rate well below the knee and ended a sweep early, and one sweep's
/// capacity read anywhere from 10k to 28k frames/s within a run.
const SWEEP_WINDOW: Duration = Duration::from_millis(50);
/// Nominal and peak frames carry this explicit deadline past their due time
/// in place of the SLO's implicit one, and a frame the full queue refuses is
/// submitted again blocking, so a host stall shows in `p99_ms` as late
/// frames, not as shed, expired or refused ones: these two phases are the
/// result line's operations, and at these rates none of them may fail. The
/// SLO's micro-batch hold still applies. The sweeps keep the SLO deadline,
/// shedding and refusals, since their failures are what they measure.
const SERVED_DEADLINE: Duration = Duration::from_secs(1);
const POOL_PER_MODE: usize = 8192;
/// Per mode, the pool frames whose service outputs are re-decoded directly.
const RETAIN: usize = 64;

type Service = DecodeService<Traced<CascadeDecoder>>;

/// Frames that may be in flight at `rate` without the queue growing: two
/// SLOs' worth of arrivals plus one batch per mode.
fn backlog_limit(rate: f64) -> f64 {
    rate * 2.0 * SLO.as_secs_f64() + 96.0
}

/// One submitted frame on its way to a collector.
struct InFlight {
    phase: usize,
    due: Instant,
    frame: usize,
    handle: FrameHandle,
    /// Whether the frame's latency is recorded (not in the saturation
    /// phase, whose frames are only counted).
    timed: bool,
}

/// What the collectors observed for one phase.
#[derive(Debug, Default, Clone)]
struct PhaseObs {
    latencies_ms: Vec<f64>,
    /// Due time of each `latencies_ms` sample.
    dues: Vec<Instant>,
    decoded: u64,
    failed: u64,
    /// Due time of each failed frame.
    failed_dues: Vec<Instant>,
    frame_errors: u64,
    /// `(iterations, early_terminated, parity_satisfied)` per decoded frame.
    outputs: Vec<(usize, bool, bool)>,
    /// Decoded untimed frames per [`WINDOW`] of completion time since the
    /// collectors started.
    completions: Vec<u64>,
}

impl PhaseObs {
    fn merge(&mut self, other: &PhaseObs) {
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
        self.dues.extend_from_slice(&other.dues);
        self.decoded += other.decoded;
        self.failed += other.failed;
        self.failed_dues.extend_from_slice(&other.failed_dues);
        self.frame_errors += other.frame_errors;
        self.outputs.extend_from_slice(&other.outputs);
        if self.completions.len() < other.completions.len() {
            self.completions.resize(other.completions.len(), 0);
        }
        for (total, n) in self.completions.iter_mut().zip(&other.completions) {
            *total += n;
        }
    }
}

/// Index of the [`WINDOW`] since `epoch` that `at` falls in.
fn window_index(epoch: Instant, at: Instant) -> usize {
    (at.saturating_duration_since(epoch).as_secs_f64() / WINDOW.as_secs_f64()) as usize
}

type Shared = Arc<Mutex<Vec<PhaseObs>>>;

struct Collector {
    tx: mpsc::Sender<InFlight>,
    obs: Shared,
    join: JoinHandle<Vec<Option<DecodeOutput>>>,
}

/// One collector per mode: a shard completes its frames in submission
/// order, so waiting on each handle in turn observes every completion as it
/// happens, blocked on the handle's condition variable (no spinning).
fn spawn_collector(
    pool: Arc<Pool>,
    phases: usize,
    observed: Arc<AtomicU64>,
    epoch: Instant,
) -> Collector {
    let (tx, rx) = mpsc::channel::<InFlight>();
    let obs: Shared = Arc::new(Mutex::new(vec![PhaseObs::default(); phases]));
    let shared = Arc::clone(&obs);
    let join = std::thread::spawn(move || {
        let mut retained: Vec<Option<DecodeOutput>> = vec![None; RETAIN];
        for item in rx {
            let outcome = item.handle.wait();
            let done = Instant::now();
            let mut all = shared.lock().expect("collector state");
            let o = &mut all[item.phase];
            match outcome {
                DecodeOutcome::Decoded(out) => {
                    o.decoded += 1;
                    if item.timed {
                        o.latencies_ms.push(ms(done - item.due));
                        o.dues.push(item.due);
                    } else {
                        let w = window_index(epoch, done);
                        if o.completions.len() <= w {
                            o.completions.resize(w + 1, 0);
                        }
                        o.completions[w] += 1;
                    }
                    o.frame_errors += u64::from(out.hard_bits != pool.codeword(item.frame));
                    o.outputs
                        .push((out.iterations, out.early_terminated, out.parity_satisfied));
                    if item.frame < RETAIN && retained[item.frame].is_none() {
                        retained[item.frame] = Some(out);
                    }
                }
                _ => {
                    o.failed += 1;
                    if item.timed {
                        o.failed_dues.push(item.due);
                    }
                }
            }
            drop(all);
            observed.fetch_add(1, Ordering::SeqCst);
        }
        retained
    });
    Collector { tx, obs, join }
}

/// One phase of the schedule: `rate` frames/s for `secs`, or as fast as the
/// service takes frames for `secs` when `saturate`.
#[derive(Debug, Clone, Copy)]
struct Phase {
    rate: f64,
    secs: f64,
    traced: bool,
    saturate: bool,
    /// Which capacity sweep the phase belongs to (`None` for nominal, peak
    /// and saturation).
    sweep: Option<usize>,
}

impl Phase {
    fn frames(&self) -> usize {
        (self.rate * self.secs) as usize
    }
}

/// Per-phase load-thread figures plus the merged observations.
#[derive(Debug, Default, Clone)]
struct PhaseResult {
    ran: bool,
    offered: u64,
    refused: u64,
    /// Due time of each refused frame.
    refused_dues: Vec<Instant>,
    /// Nominal and peak frames the full queue refused once and a blocking
    /// submit then accepted.
    resubmitted: u64,
    lag_ms: Vec<f64>,
    /// Frames submitted but not yet observed when the last one went out.
    backlog_end: u64,
    /// From the phase's start until its last frame was observed.
    elapsed_s: f64,
    /// Saturation phase: decoded frames/s in each whole [`WINDOW`] between
    /// its start and its last submit.
    window_fps: Vec<f64>,
    obs: PhaseObs,
    summary: Summary,
}

/// A drained phase's figures. They are taken before a sweep phase drops its
/// per-frame records, so the benchmark's own memory, and with it
/// `peak_rss_mb`, does not grow with how far the sweeps go.
#[derive(Debug, Default, Clone, Copy)]
struct Summary {
    p50_ms: f64,
    /// Median over [`SWEEP_WINDOW`]s of each window's p99.
    p99_ms: f64,
    violation: f64,
    /// Decoded frames by iterations run, 0 to 10 (10 holds more).
    iter_hist: [f64; 11],
}

impl PhaseResult {
    fn failures(&self) -> u64 {
        self.refused + self.obs.failed
    }

    /// The SLO score per [`SWEEP_WINDOW`] of due times (the worst of
    /// p99 / SLO and failure share / limit), then the median over the
    /// windows, so a host stall confined to a few windows cannot fail a rate.
    fn window_score(&self) -> f64 {
        let failed = self.obs.failed_dues.iter().chain(&self.refused_dues);
        let Some(&start) = self.obs.dues.iter().chain(failed.clone()).min() else {
            return 0.0;
        };
        let window = |t: &Instant| {
            (t.duration_since(start).as_secs_f64() / SWEEP_WINDOW.as_secs_f64()) as u64
        };
        let mut windows: BTreeMap<u64, (Vec<f64>, u64)> = BTreeMap::new();
        for (t, &latency) in self.obs.dues.iter().zip(&self.obs.latencies_ms) {
            windows.entry(window(t)).or_default().0.push(latency);
        }
        for t in failed {
            windows.entry(window(t)).or_default().1 += 1;
        }
        let mut scores: Vec<f64> = windows
            .into_values()
            .map(|(mut latencies, failures)| {
                let share = failures as f64 / (latencies.len() as u64 + failures) as f64;
                (quantile(&mut latencies, 0.99) / ms(SLO)).max(share / MAX_FAIL)
            })
            .collect();
        median(&mut scores)
    }

    /// The worst of the window score and backlog / limit: the rate meets the
    /// SLO when this is at most 1.
    fn violation(&self, rate: f64) -> f64 {
        let backlog = self.backlog_end as f64 / backlog_limit(rate);
        self.window_score().max(backlog)
    }

    fn summarize(&self, rate: f64) -> Summary {
        let mut iter_hist = [0.0; 11];
        for o in &self.obs.outputs {
            iter_hist[o.0.min(10)] += 1.0;
        }
        Summary {
            p50_ms: quantile(&mut self.obs.latencies_ms.clone(), 0.5),
            p99_ms: windowed_quantile(&self.obs.dues, &self.obs.latencies_ms, SWEEP_WINDOW, 0.99),
            violation: self.violation(rate),
            iter_hist,
        }
    }
}

/// The highest swept rate that meets the SLO, interpolated on the violation
/// score towards the next rate up (which missed it). When no rate meets the
/// SLO, the lowest rate scaled down by its violation.
fn slo_capacity(sweep: &[(f64, f64)]) -> f64 {
    let Some(best) = sweep.iter().rposition(|&(_, v)| v <= 1.0) else {
        return sweep.first().map_or(0.0, |&(rate, v)| rate / v);
    };
    let (r0, v0) = sweep[best];
    match sweep.get(best + 1) {
        Some(&(r1, v1)) => r0 + (r1 - r0) * (1.0 - v0) / (v1 - v0),
        None => r0,
    }
}

fn build_service(tracer: &Arc<Tracer>, ids: &[CodeId]) -> Service {
    let mut builder = DecodeService::builder(TracedPolicy {
        policy: CascadePolicy::default(),
        tracer: Arc::clone(tracer),
    })
    .quantize_ingest(LlrQuantizer::default());
    for &id in ids {
        builder = builder
            .register_with_policy(id, ShardPolicy::with_slo(SLO))
            .expect("benchmark modes register");
    }
    builder.build().expect("serving configuration is valid")
}

pub fn run(args: &Args) -> Outcome {
    let ids: Vec<CodeId> = MODES
        .iter()
        .map(|m| m.parse().expect("valid mode"))
        .collect();
    let pools: Vec<Arc<Pool>> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            Arc::new(gen::serving_pool(
                id,
                POOL_PER_MODE,
                &SERVING_MIX,
                args.seed.wrapping_add(k as u64 * 0x1000),
            ))
        })
        .collect();

    // The schedule: nominal, peak, saturation, then the sweeps; a traced run
    // plays it twice at half length, untraced then traced.
    let (copies, s) = if args.trace {
        (2, args.seconds / 2.0)
    } else {
        (1, args.seconds)
    };
    let mut phases = Vec::new();
    for copy in 0..copies {
        let traced = copy == 1;
        for rate in [NOMINAL_FPS, PEAK_FPS] {
            phases.push(Phase {
                rate,
                secs: SERVED_PHASE_SHARE * s,
                traced,
                saturate: false,
                sweep: None,
            });
        }
        phases.push(Phase {
            rate: 0.0,
            secs: SATURATION_SHARE * s,
            traced,
            saturate: true,
            sweep: None,
        });
        for sweep in 0..SWEEPS {
            let mut rate = SWEEP_START_FPS;
            while rate <= SWEEP_MAX_FPS {
                phases.push(Phase {
                    rate,
                    secs: SWEEP_PHASE_SHARE * s,
                    traced,
                    saturate: false,
                    sweep: Some(sweep),
                });
                rate *= SWEEP_STEP;
            }
        }
    }
    // Each mode walks a seeded permutation of its pool, so every frame is
    // sent about equally often and the frame error rate averages over the
    // whole pool.
    let mut picker = SplitMix::new(args.seed ^ 0x5E4E);
    let orders: Vec<Vec<usize>> = ids
        .iter()
        .map(|_| {
            let mut order: Vec<usize> = (0..POOL_PER_MODE).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, (picker.next_u64() % (i as u64 + 1)) as usize);
            }
            order
        })
        .collect();
    // Mode and pool-frame picks of one phase's arrivals, drawn from the seed
    // and the phase's index, so a phase's inputs do not depend on where the
    // sweep of another run stopped. Fixed-rate phases draw theirs before
    // the phase starts.
    let (orders, ids) = (&orders, &ids);
    let arrivals_of = |pi: usize| {
        let mut picker = SplitMix::new(args.seed ^ 0xA771_0000 ^ pi as u64);
        let mut walk: Vec<usize> = ids
            .iter()
            .map(|_| (picker.next_u64() % POOL_PER_MODE as u64) as usize)
            .collect();
        std::iter::repeat_with(move || {
            let mode = (picker.next_u64() % ids.len() as u64) as usize;
            let frame = orders[mode][walk[mode] % POOL_PER_MODE];
            walk[mode] += 1;
            (mode, frame)
        })
    };

    let tracer = Tracer::new();
    let mut setups = Vec::new();
    let mut compile_ms = Vec::new();
    let mut built: Option<(Vec<CompiledCode>, Service)> = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some((_, service)) = built.take() {
            drop(service.shutdown());
        }
        let start = Instant::now();
        let compiled: Vec<CompiledCode> = ids
            .iter()
            .map(|id| {
                let t = Instant::now();
                let c = id.build().expect("supported mode").compile();
                compile_ms.push(ms(t.elapsed()));
                c
            })
            .collect();
        let service = build_service(&tracer, ids);
        // Warm-up: a few frames per mode, so every shard has a decode-cost
        // estimate and warm workspaces before the first timed frame.
        let handles: Vec<FrameHandle> = (0..16)
            .flat_map(|f| ids.iter().zip(&pools).map(move |(&id, pool)| (id, pool, f)))
            .map(|(id, pool, f)| {
                service
                    .submit(id, pool.frames(f, 1), SubmitOptions::new())
                    .expect("warm-up frame is accepted")
            })
            .collect();
        handles.into_iter().for_each(|h| drop(h.wait()));
        setups.push(start.elapsed().as_secs_f64());
        built = Some((compiled, service));
    }
    let (compiled, service) = built.expect("at least one setup round");

    let observed = Arc::new(AtomicU64::new(0));
    let epoch = Instant::now();
    let collectors: Vec<Collector> = pools
        .iter()
        .map(|p| spawn_collector(Arc::clone(p), phases.len(), Arc::clone(&observed), epoch))
        .collect();
    let mut results = vec![PhaseResult::default(); phases.len()];
    let mut mode_counts = vec![0.0; ids.len()];
    let mut snr_counts = vec![0.0; SERVING_MIX.len()];
    let mut sent = 0u64;
    let mut misses = 0;
    let mut current_sweep = None;
    for (pi, phase) in phases.iter().enumerate() {
        if phase.sweep != current_sweep {
            misses = 0;
            current_sweep = phase.sweep;
        }
        if phase.sweep.is_some() && misses >= 2 {
            continue;
        }
        tracer.set(phase.traced);
        let result = &mut results[pi];
        result.ran = true;
        let mut llrs = Vec::new();
        let start;
        if phase.saturate {
            start = Instant::now();
            let end = start + Duration::from_secs_f64(phase.secs);
            for (mode, frame) in arrivals_of(pi) {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                mode_counts[mode] += 1.0;
                snr_counts[pools[mode].snr_point[frame] as usize] += 1.0;
                pools[mode].fill(frame, 1, &mut llrs);
                let handle = service
                    .submit(
                        ids[mode],
                        std::mem::take(&mut llrs),
                        SubmitOptions::new().deadline(now + SERVED_DEADLINE),
                    )
                    .expect("a blocking submit is accepted");
                result.offered += 1;
                sent += 1;
                collectors[mode]
                    .tx
                    .send(InFlight {
                        phase: pi,
                        due: now,
                        frame,
                        handle,
                        timed: false,
                    })
                    .expect("collector is running");
            }
        } else {
            let arrivals: Vec<(usize, usize)> = arrivals_of(pi).take(phase.frames()).collect();
            for &(mode, frame) in &arrivals {
                mode_counts[mode] += 1.0;
                snr_counts[pools[mode].snr_point[frame] as usize] += 1.0;
            }
            let interval = Duration::from_secs_f64(1.0 / phase.rate);
            start = Instant::now() + Duration::from_millis(1);
            for (k, &(mode, frame)) in arrivals.iter().enumerate() {
                // The frame is copied out of the pool before its due time.
                pools[mode].fill(frame, 1, &mut llrs);
                let due = start + interval * k as u32;
                sleep_until(due);
                result
                    .lag_ms
                    .push(ms(Instant::now().saturating_duration_since(due)));
                let options = match phase.sweep {
                    Some(_) => SubmitOptions::new(),
                    None => SubmitOptions::new().deadline(due + SERVED_DEADLINE),
                };
                let mut submitted = tracer.time("serve.submit", 1, || {
                    service.submit(ids[mode], std::mem::take(&mut llrs), options.non_blocking())
                });
                if phase.sweep.is_none() {
                    if let Err(SubmitError::QueueFull { llrs: back }) = submitted {
                        result.resubmitted += 1;
                        submitted = service.submit(ids[mode], back, options);
                    }
                }
                result.offered += 1;
                match submitted {
                    Ok(handle) => {
                        sent += 1;
                        collectors[mode]
                            .tx
                            .send(InFlight {
                                phase: pi,
                                due,
                                frame,
                                handle,
                                timed: true,
                            })
                            .expect("collector is running");
                    }
                    Err(SubmitError::QueueFull { llrs: back }) => {
                        result.refused += 1;
                        result.refused_dues.push(due);
                        llrs = back;
                    }
                    Err(e) => panic!("serve_mix submission failed: {e}"),
                }
            }
        }
        result.backlog_end = sent - observed.load(Ordering::SeqCst);
        // Drain before the next phase, so phases do not bleed into each other.
        while observed.load(Ordering::SeqCst) < sent {
            std::thread::sleep(Duration::from_micros(500));
        }
        result.elapsed_s = start.elapsed().as_secs_f64();
        for c in &collectors {
            let obs = std::mem::take(&mut c.obs.lock().expect("collector state")[pi]);
            result.obs.merge(&obs);
        }
        if phase.saturate {
            let end = start + Duration::from_secs_f64(phase.secs);
            result.window_fps = (window_index(epoch, start) + 1..window_index(epoch, end))
                .map(|k| result.obs.completions.get(k).map_or(0, |&n| n) as f64)
                .map(|n| n / WINDOW.as_secs_f64())
                .collect();
        }
        result.summary = result.summarize(phase.rate);
        if phase.sweep.is_some() {
            misses = if result.summary.violation > 1.0 {
                misses + 1
            } else {
                0
            };
            let obs = &mut result.obs;
            (obs.latencies_ms, obs.dues, obs.failed_dues) = Default::default();
            result.refused_dues = Vec::new();
        }
        // Only the traced copy's decoder metrics read the outputs.
        if !phase.traced {
            result.obs.outputs = Vec::new();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    tracer.set(false);
    let stats = service.stats();
    let mut retained: Vec<Vec<Option<DecodeOutput>>> = Vec::new();
    for c in collectors {
        drop(c.tx);
        retained.push(c.join.join().expect("collector thread"));
    }
    drop(service.shutdown());

    // Correctness: every retained service output equals a direct
    // `decode_batch` of the same AGC'd frame by a fresh cascade.
    let reference = CascadePolicy::default().decoder();
    let quantizer = LlrQuantizer::default();
    let (mut verified, mut mismatches) = (0usize, 0usize);
    for ((pool, compiled), outs) in pools.iter().zip(&compiled).zip(&retained) {
        let mut agc = pool.frames(0, RETAIN);
        agc.chunks_exact_mut(pool.n).for_each(|f| {
            quantizer.normalize_in_place(f);
        });
        let direct = reference
            .decode_batch(compiled, LlrBatch::new(&agc, pool.n).expect("whole frames"))
            .expect("frames match the code");
        for (got, want) in outs.iter().zip(&direct) {
            if let Some(got) = got {
                verified += 1;
                mismatches += usize::from(got != want);
            }
        }
    }

    // The end-to-end metrics read the untraced copy of the schedule; a
    // traced run's second copy feeds the per-layer metrics.
    let per_copy = phases.len() / copies;
    let untraced = &results[..per_copy];
    let mut capacities = Vec::new();
    let mut capacity_is_lower_bound = false;
    for k in 0..SWEEPS {
        let sweep: Vec<(f64, f64)> = untraced
            .iter()
            .zip(&phases)
            .filter(|(r, p)| p.sweep == Some(k) && r.ran)
            .map(|(r, p)| (p.rate, r.summary.violation))
            .collect();
        // The last swept rate still met the SLO: the sweep ran out of rates
        // before the service ran out of capacity.
        capacity_is_lower_bound |= sweep.last().is_some_and(|&(_, v)| v <= 1.0);
        capacities.push(slo_capacity(&sweep));
    }
    let capacity = median(&mut capacities.clone());
    let nominal = &untraced[0];
    let peak = &untraced[1];
    let saturation = &untraced[2];
    // The median over the phase's windows, so a host stall inside the phase
    // does not set the figure; a phase shorter than three windows (a smoke
    // run) reads its whole length.
    let saturation_fps = match saturation.window_fps.len() {
        0..=2 => ratio(saturation.obs.decoded as f64, saturation.elapsed_s),
        _ => median(&mut saturation.window_fps.clone()),
    };
    let mut nominal_lat = nominal.obs.latencies_ms.clone();
    let mut peak_lat = peak.obs.latencies_ms.clone();
    let frame_errors: u64 = results.iter().map(|r| r.obs.frame_errors).sum();
    let decoded: u64 = results.iter().map(|r| r.obs.decoded).sum();
    let fer = ratio(frame_errors as f64, decoded as f64);
    let attempted = nominal.offered + peak.offered;
    let failed = nominal.failures() + peak.failures();

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&mut setups.clone()), "s");
    metrics.put("throughput_fps", saturation_fps, "frames/s");
    metrics.put("fer", fer, "ratio");
    metrics.put("p50_ms", quantile(&mut nominal_lat, 0.5), "ms");
    metrics.put(
        "p99_ms",
        windowed_quantile(&nominal.obs.dues, &nominal_lat, TAIL_WINDOW, 0.99),
        "ms",
    );

    let sum = |get: fn(&ldpc_serve::ShardStats) -> u64| stats.iter().map(get).sum::<u64>();
    let mut iter_hist = [0.0f64; 11];
    for r in &results {
        for (total, n) in iter_hist.iter_mut().zip(r.summary.iter_hist) {
            *total += n;
        }
    }
    let mut lags: Vec<f64> = results
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    let rows: Vec<String> = untraced
        .iter()
        .zip(&phases)
        .filter(|(r, p)| r.ran && !p.saturate)
        .map(|(r, p)| {
            json_object(&[
                (
                    "sweep",
                    p.sweep.map_or("null".to_string(), |k| k.to_string()),
                ),
                ("rate_fps", json_num(p.rate)),
                ("offered", r.offered.to_string()),
                ("refused", r.refused.to_string()),
                ("resubmitted", r.resubmitted.to_string()),
                ("failed", r.obs.failed.to_string()),
                ("p50_ms", json_num(r.summary.p50_ms)),
                ("p99_ms", json_num(r.summary.p99_ms)),
                ("backlog_end", r.backlog_end.to_string()),
                ("violation", json_num(r.summary.violation)),
            ])
        })
        .collect();
    let mut report = vec![
        ("modes", format!("[{}]", MODES.map(json_str).join(", "))),
        (
            "decoder",
            json_str("cascade (default policy), AGC at ingest"),
        ),
        ("slo_ms", json_num(ms(SLO))),
        (
            "loop",
            json_str(
                "open, fixed-rate schedule, non-blocking submit; \
                 closed, blocking submit in the saturation phase",
            ),
        ),
        ("mode_counts", json_nums(&mode_counts)),
        ("snr_point_counts", json_nums(&snr_counts)),
        ("iteration_histogram_0_10", json_nums(&iter_hist)),
        (
            "batch_mean",
            json_num(ratio(sum(|s| s.decoded) as f64, sum(|s| s.batches) as f64)),
        ),
        (
            "max_coalesced",
            stats
                .iter()
                .map(|s| s.max_coalesced)
                .max()
                .unwrap_or(0)
                .to_string(),
        ),
        (
            "escalation_ratio",
            json_num(ratio(
                sum(|s| s.cascade_stage_frames[1]) as f64,
                sum(|s| s.cascade_stage_frames[0]) as f64,
            )),
        ),
        ("nominal_fps", json_num(NOMINAL_FPS)),
        ("peak_fps", json_num(PEAK_FPS)),
        ("peak.p50_ms", json_num(quantile(&mut peak_lat, 0.5))),
        ("peak.p99_ms", json_num(quantile(&mut peak_lat, 0.99))),
        (
            "saturation",
            json_object(&[
                ("offered", saturation.offered.to_string()),
                ("failed", saturation.obs.failed.to_string()),
                ("decoded_fps", json_num(saturation_fps)),
                ("window_fps", json_nums(&saturation.window_fps)),
            ]),
        ),
        ("slo_capacity_fps", json_num(capacity)),
        ("sweep_capacities_fps", json_nums(&capacities)),
        (
            "slo_capacity_is_lower_bound",
            capacity_is_lower_bound.to_string(),
        ),
        ("setup_rounds_s", json_nums(&setups)),
        (
            "fail_ratio",
            json_num(ratio(failed as f64, attempted as f64)),
        ),
        (
            "nominal_samples",
            nominal.obs.latencies_ms.len().to_string(),
        ),
        ("sweep", format!("[{}]", rows.join(", "))),
        ("gen_lag_ms_p99", json_num(quantile(&mut lags, 0.99))),
        ("verified", verified.to_string()),
        ("mismatches", mismatches.to_string()),
    ];

    if args.trace {
        report.push((
            "probe_only",
            json_strs(&["core.combine.", "serve.submit_harq_us.", "serve.harq."]),
        ));
        let traced = &results[per_copy..];
        let spans = tracer.spans();
        metrics.put("codes.compile_ms", median(&mut compile_ms), "ms");
        let samples: Vec<Vec<f64>> = pools.iter().map(|p| p.frames(0, 16)).collect();
        let per_mode: Vec<Vec<&[f64]>> = samples
            .iter()
            .zip(&pools)
            .map(|(s, p)| s.chunks_exact(p.n).collect())
            .collect();
        let frames: Vec<&[f64]> = per_mode.iter().flatten().copied().collect();
        metrics.put("channel.agc_us", probe::agc(&frames), "us");
        let raw: Vec<Vec<f64>> = pools.iter().map(|p| p.frames(0, 64)).collect();
        put_cascade_layers(&mut metrics, &raw, &compiled, &stats);
        let mut traced_obs = PhaseObs::default();
        traced.iter().for_each(|r| traced_obs.merge(&r.obs));
        probe::put_decoder_metrics(&mut metrics, &spans, &traced_obs.outputs);
        metrics.put("core.combine.ns_per_bit", probe::combine(&frames), "ns");

        let harq_probe = probe::serve(
            CascadePolicy::default(),
            true,
            &ids.iter().copied().zip(per_mode).collect::<Vec<_>>(),
        );
        let figures = ServeFigures {
            submit_us: trace::durations(&spans, "serve.submit")
                .iter()
                .map(|ns| ns / 1e3)
                .collect(),
            submit_harq_us: harq_probe.submit_harq_us,
            stats: stats.clone(),
            harq: harq_probe.harq,
            tx_per_session: 0.0,
        };
        probe::put_serve_metrics(&mut metrics, &figures);

        let iters = metrics.get("core.decoder.iters_mean").unwrap_or(1.0);
        put_arch(&mut metrics, ids, saturation_fps, iters);
        metrics.put("bench.gen_lag_ms.p99", quantile(&mut lags, 0.99), "ms");
        metrics.put(
            "bench.gen_lag_ms.max",
            lags.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        metrics.put("bench.observe_us", crate::observe_resolution_us(), "us");
        let traced_p50 = quantile(&mut traced[0].obs.latencies_ms.clone(), 0.5);
        metrics.put(
            "trace.overhead_pct",
            (traced_p50 / quantile(&mut nominal_lat, 0.5) - 1.0) * 100.0,
            "%",
        );
        // Share of the mean nominal latency explained by the submit call and
        // the decode of the frame's batch; the rest is queue wait, batch hold
        // and completion observation.
        let (group_ns, group_frames) = trace::totals(&spans, GROUP);
        let decode_ms =
            ratio(group_ns, group_frames) / 1e6 * metrics.get("serve.batch_mean").unwrap_or(1.0);
        let submit_ms = mean(&figures.submit_us) / 1e3;
        let accounted = (submit_ms + decode_ms) / mean(&traced[0].obs.latencies_ms);
        metrics.put("trace.accounted_ratio", accounted, "ratio");
        report.push((
            "latency_split_ms",
            json_object(&[
                ("submit", json_num(submit_ms)),
                ("decode_batch", json_num(decode_ms)),
                ("unaccounted_share", json_num(1.0 - accounted)),
            ]),
        ));
    }

    Outcome {
        correct: mismatches == 0 && verified > 0,
        attempted,
        failed,
        metrics,
        traffic: json_object(&report),
    }
}
