//! Exact-sample statistics and process measurements.

use bluefi_dsp::power::{mean, percentile_sorted};
use std::time::Duration;

/// A sorted sample of latencies (or any values), read by exact percentiles.
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` once.
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(|a, b| a.total_cmp(b));
        Sample { sorted: values }
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]` (0 when empty).
    pub fn pct(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        mean(&self.sorted)
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Share of values strictly above `limit` (0 when empty).
    pub fn share_above(&self, limit: f64) -> f64 {
        let above = self.sorted.len() - self.sorted.partition_point(|&v| v <= limit);
        above as f64 / self.sorted.len().max(1) as f64
    }
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of a few values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).pct(50.0)
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, which is how run-to-run
/// spreads of this benchmark are judged. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(|a, b| a.total_cmp(b));
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let q = quartiles(&[3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]).unwrap(), [0.0, 3.0, 6.0]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn share_above_counts_strictly_greater() {
        let s = Sample::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.share_above(2.0), 0.5);
        assert_eq!(s.share_above(0.0), 1.0);
        assert_eq!(Sample::new(Vec::new()).share_above(1.0), 0.0);
    }
}
