//! Small shared helpers: a seeded generator, order statistics, the metric
//! list every workload fills, and process memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Width of the windows a tail percentile is taken in before the median
/// over windows (see [`windowed_quantile`]).
pub const TAIL_WINDOW: Duration = Duration::from_secs(1);

/// SplitMix64: the benchmark's own seeded stream for every choice it makes
/// (mode picks, SNR picks, pool order), independent of the library's RNGs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Index drawn with probability proportional to `weights[i]`.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let mut ticket = self.next_u64() % total;
        for (i, &w) in weights.iter().enumerate() {
            if ticket < u64::from(w) {
                return i;
            }
            ticket -= u64::from(w);
        }
        unreachable!("ticket is below the total weight")
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted in
/// place); 0 for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` of `values` within each `width` window of their times `at`,
/// then the median over the windows: a tail percentile that a stall
/// confined to a few windows cannot dominate.
pub fn windowed_quantile(at: &[Instant], values: &[f64], width: Duration, q: f64) -> f64 {
    let Some(&start) = at.iter().min() else {
        return 0.0;
    };
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (&t, &v) in at.iter().zip(values) {
        let k = (t.duration_since(start).as_secs_f64() / width.as_secs_f64()) as u64;
        windows.entry(k).or_default().push(v);
    }
    let mut per_window: Vec<f64> = windows
        .into_values()
        .map(|mut w| quantile(&mut w, q))
        .collect();
    median(&mut per_window)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Width of the windows throughput is summarised over.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Completions counted in fixed-width windows of wall time from `start`,
/// so a rate can be summarised by its per-window distribution.
#[derive(Debug)]
pub struct Windows {
    start: Instant,
    width: Duration,
    counts: Vec<u64>,
}

impl Windows {
    pub fn new(start: Instant, width: Duration) -> Self {
        Windows {
            start,
            width,
            counts: Vec::new(),
        }
    }

    pub fn add(&mut self, at: Instant, n: u64) {
        let i = (at.saturating_duration_since(self.start).as_secs_f64() / self.width.as_secs_f64())
            as usize;
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += n;
    }

    /// Per-second rates of the complete windows (the last one is partial).
    pub fn rates(&self) -> Vec<f64> {
        let w = self.width.as_secs_f64();
        let full = self.counts.len().saturating_sub(1);
        self.counts[..full].iter().map(|&c| c as f64 / w).collect()
    }
}

/// Sleeps until `at` (returns at once when it has passed).
pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metric values with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Renders a float for JSON with every digit Rust keeps (non-finite values
/// become `null`, which the result check rejects).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A flat JSON object from `(key, already-rendered value)` pairs.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON array of strings.
pub fn json_strs(values: &[&str]) -> String {
    let body: Vec<String> = values.iter().map(|v| json_str(v)).collect();
    format!("[{}]", body.join(", "))
}

/// A JSON array of numbers.
pub fn json_nums(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", body.join(", "))
}
