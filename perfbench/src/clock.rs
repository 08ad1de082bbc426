//! Host-time and host-memory helpers shared by the workloads.

use std::time::{Duration, Instant};

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nanoseconds in `d`, as a float for ratios.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Median of `v` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The sum over operations of each operation's median sample.
pub fn sum_of_medians(samples: &[Vec<f64>]) -> f64 {
    samples.iter().map(|v| median(v)).sum()
}

/// Element-wise sums of two equally shaped sample tables.
pub fn add(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p + q).collect())
        .collect()
}

/// Calls into one layer function and the host time they took.
#[derive(Default)]
pub struct Tally {
    pub calls: u64,
    pub time: Duration,
}

impl Tally {
    pub fn add(&mut self, since: Instant) {
        self.time += since.elapsed();
        self.calls += 1;
    }

    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            ns(self.time) / self.calls as f64
        }
    }
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}
