//! Small measurement helpers shared by the workloads.

use std::time::{Duration, Instant};

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Set-up repetitions per run.
const SETUP_REPS: usize = 3;

/// Runs a workload's set-up `SETUP_REPS` times and keeps the last
/// result; the reported set-up time is the median, so one slow
/// repetition (a page-fault storm, a noisy neighbour) does not move it.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous instance first so repetitions do not stack
        // their memory (a router also joins its workers on drop).
        drop(last.take());
        let (value, took) = timed(&mut setup);
        secs.push(took.as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one repetition"), median(&secs))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Operations completed within `limit_ms` per second of `seconds`;
/// failed operations carry +inf latency and so always miss.
pub fn goodput_per_s(op_ms: &[f64], limit_ms: f64, seconds: f64) -> f64 {
    let within = op_ms.iter().filter(|&&l| l <= limit_ms).count();
    ratio(within as f64, seconds)
}

/// Sets the traced run's latency distribution (`op_ms` holds +inf for
/// failed operations).
pub fn report_tail(report: &mut crate::metrics::Report, op_ms: &[f64]) {
    report.set("op.ms_p50", median(op_ms));
    report.set("op.ms_p90", percentile(op_ms, 90.0));
    report.set("op.ms_p99", percentile(op_ms, 99.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn failed_operations_miss_the_limit() {
        assert_eq!(goodput_per_s(&[1.0, f64::INFINITY, 3.0], 2.0, 2.0), 0.5);
    }
}
