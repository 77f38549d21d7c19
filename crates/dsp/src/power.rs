//! Power, dB and simple statistics helpers shared by the receiver models and
//! the experiment harnesses.

use crate::complex::Cx;

/// Mean power of an IQ signal (linear units).
pub fn mean_power(x: &[Cx]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|v| v.norm_sq()).sum::<f64>() / x.len() as f64
}

/// dB → linear power ratio.
#[inline]
pub fn from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Milliwatts → dBm.
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.log10()
}

/// dBm → milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Sample standard deviation; 0 for fewer than two samples.
pub fn std_dev(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    (x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64).sqrt()
}

/// Linear-interpolated percentile, `p` in `[0, 100]`. Sorts a copy of the
/// input; when reading several percentiles from one series, sort once and
/// use [`percentile_sorted`] instead.
pub fn percentile(x: &[f64], p: f64) -> f64 {
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&v, p)
}

/// Linear-interpolated percentile over an already-sorted series — the
/// allocation-free core of [`percentile`]. The caller sorts once (by
/// [`f64::total_cmp`]) and may then read any number of percentiles.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p));
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median (50th percentile).
pub fn median(x: &[f64]) -> f64 {
    percentile(x, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for v in [0.001f64, 1.0, 42.0, 1e6] {
            assert!((from_db(10.0 * v.log10()) - v).abs() / v < 1e-12);
        }
        assert!((from_db(20.0) - 100.0).abs() < 1e-12);
        assert!((mw_to_dbm(1.0)).abs() < 1e-12);
        assert!((dbm_to_mw(30.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn power_of_unit_phasors_is_one() {
        let x: Vec<Cx> = (0..100).map(|n| Cx::expj(n as f64 * 0.1)).collect();
        assert!((mean_power(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(mean(&v), 3.0);
        assert_eq!(median(&v), 3.0);
        assert!((std_dev(&v) - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
    }

    #[test]
    fn percentile_sorted_matches_percentile() {
        // Unsorted input: `percentile` sorts a copy; `percentile_sorted`
        // over a pre-sorted copy must agree at every probe point.
        let v: [f64; 5] = [5.0, 1.0, 4.0, 2.0, 3.0];
        let mut sorted = v.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for p in [0.0, 10.0, 25.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile_sorted(&sorted, p), percentile(&v, p));
        }
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }
}
