//! The result line, order statistics, and process memory readings.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One run's result: what the harness prints as its last stdout line.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check and workload self-check held.
    pub correct: bool,
    /// Operations attempted (experiments, requests or jobs).
    pub attempted: u64,
    /// Operations that failed (failed self-check, non-200, shed, timed
    /// out, cancelled, truncated, or a final line that differs offline).
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Marks the run incorrect, saying why on stderr.
    pub fn invalid(&mut self, why: &str) {
        eprintln!("check failed: {why}");
        self.correct = false;
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn merge(&mut self, other: Outcome) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }

    /// The one-line JSON result. A non-finite value cannot be printed as
    /// JSON; it marks the run incorrect and prints as `-1`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        let mut finite = true;
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                *value
            } else {
                eprintln!("metric {name} is not finite: {value}");
                finite = false;
                -1.0
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct && finite,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Nearest-rank quantile `q` of `values` (which need not be sorted);
/// 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile `q` of the values in each consecutive `window_s` window, by
/// window index; `points` are `(seconds, value)`. A stall confined to one
/// window moves that window's figure only.
pub fn per_window(points: &[(f64, f64)], window_s: f64, q: f64) -> BTreeMap<u64, f64> {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in points {
        windows.entry((t / window_s) as u64).or_default().push(v);
    }
    windows
        .into_iter()
        .map(|(k, vs)| (k, quantile(&vs, q)))
        .collect()
}

/// The machine's cumulative CPU steal in clock ticks: time the hypervisor
/// ran something else while a virtual CPU of this machine had work. 0
/// where `/proc/stat` does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The calm windows, given each window's steal ticks: those whose steal,
/// counted with the previous window's (a backlog outlasts the stall that
/// caused it), is at most that of the calmest third. Where no steal is
/// reported, every window is calm.
pub fn calm_windows(steal: &[u64]) -> Vec<u64> {
    let score: Vec<u64> = (0..steal.len())
        .map(|k| steal[k] + if k > 0 { steal[k - 1] } else { 0 })
        .collect();
    let mut sorted = score.clone();
    sorted.sort_unstable();
    let Some(&limit) = sorted.get(sorted.len().div_ceil(3).saturating_sub(1)) else {
        return Vec::new();
    };
    (0..score.len() as u64)
        .filter(|&k| score[k as usize] <= limit)
        .collect()
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, or 0 when
/// `/proc` does not report it.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
