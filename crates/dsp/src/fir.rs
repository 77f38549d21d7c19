//! FIR filter design and application.
//!
//! Bluetooth receivers channel-select with a band-pass of roughly ±650 kHz;
//! we build those filters here with windowed-sinc design (Hamming window by
//! default, Kaiser when an explicit stop-band attenuation is requested).
//! Everything is real-coefficient; complex signals are filtered per
//! component, so a low-pass prototype applied at complex baseband acts as a
//! band-pass around the (frequency-shifted) carrier.

use crate::complex::Cx;
use std::f64::consts::PI;

/// A real-coefficient FIR filter.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Windowed-sinc low-pass. `cutoff` is the -6 dB edge as a fraction of
    /// the sample rate (`0 < cutoff < 0.5`); `ntaps` should be odd for a
    /// symmetric (linear-phase) filter and is bumped to odd if it isn't.
    pub fn lowpass(cutoff: f64, ntaps: usize) -> Fir {
        assert!(cutoff > 0.0 && cutoff < 0.5, "cutoff must be in (0, 0.5), got {cutoff}");
        let ntaps = if ntaps.is_multiple_of(2) { ntaps + 1 } else { ntaps };
        let mid = (ntaps / 2) as isize;
        let mut taps: Vec<f64> = (0..ntaps as isize)
            .map(|i| {
                let n = (i - mid) as f64;
                // lint: allow(float-eq) n is an exact integer cast; 0.0 is the removable singularity
                let sinc = if n == 0.0 {
                    2.0 * cutoff
                } else {
                    (2.0 * PI * cutoff * n).sin() / (PI * n)
                };
                // Hamming window.
                let w = 0.54 - 0.46 * (2.0 * PI * i as f64 / (ntaps - 1) as f64).cos();
                sinc * w
            })
            .collect();
        // Normalize to unity DC gain.
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Fir { taps }
    }

    /// The filter's taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Group delay in samples (exact for the symmetric designs built here).
    pub fn group_delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// Filters a real signal; output has the same length as the input and is
    /// advanced by the group delay so filtered samples line up with the
    /// originals (edges are zero-padded).
    pub fn filter_real(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        let d = self.group_delay() as isize;
        for n in 0..x.len() as isize {
            let mut acc = 0.0;
            for (k, &t) in self.taps.iter().enumerate() {
                let idx = n + d - k as isize;
                if idx >= 0 && (idx as usize) < x.len() {
                    acc += t * x[idx as usize];
                }
            }
            out[n as usize] = acc;
        }
        out
    }

    /// Filters a complex signal (each component through the same taps),
    /// compensated for group delay like [`Fir::filter_real`].
    pub fn filter_cx(&self, x: &[Cx]) -> Vec<Cx> {
        let mut out = vec![Cx::ZERO; x.len()];
        let d = self.group_delay() as isize;
        for n in 0..x.len() as isize {
            let mut acc = Cx::ZERO;
            for (k, &t) in self.taps.iter().enumerate() {
                let idx = n + d - k as isize;
                if idx >= 0 && (idx as usize) < x.len() {
                    acc += x[idx as usize] * t;
                }
            }
            out[n as usize] = acc;
        }
        out
    }

    /// Magnitude response at a normalized frequency `f` (cycles/sample).
    pub fn response_at(&self, f: f64) -> f64 {
        let h: Cx = self
            .taps
            .iter()
            .enumerate()
            .map(|(n, &t)| Cx::expj(-2.0 * PI * f * n as f64) * t)
            .sum();
        h.abs()
    }
}

/// Moving-average smoother used by RSSI estimators; window length `w`.
pub fn moving_average(x: &[f64], w: usize) -> Vec<f64> {
    assert!(w >= 1);
    let mut out = Vec::with_capacity(x.len());
    let mut acc = 0.0;
    for i in 0..x.len() {
        acc += x[i];
        if i >= w {
            acc -= x[i - w];
        }
        let n = (i + 1).min(w);
        out.push(acc / n as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::cx;

    #[test]
    fn lowpass_passes_dc_and_blocks_high() {
        let f = Fir::lowpass(0.1, 101);
        assert!((f.response_at(0.0) - 1.0).abs() < 1e-9);
        assert!(f.response_at(0.05) > 0.9);
        assert!(f.response_at(0.25) < 0.01);
        assert!(f.response_at(0.45) < 0.01);
    }

    #[test]
    fn even_tap_count_is_bumped_to_odd() {
        let f = Fir::lowpass(0.2, 10);
        assert_eq!(f.taps().len() % 2, 1);
    }

    #[test]
    fn group_delay_compensation_aligns_tone() {
        // A slow tone should come through nearly unchanged and aligned.
        let f = Fir::lowpass(0.1, 63);
        let x: Vec<f64> = (0..400).map(|i| (2.0 * PI * 0.02 * i as f64).sin()).collect();
        let y = f.filter_real(&x);
        // Compare away from the edges.
        for i in 100..300 {
            assert!((x[i] - y[i]).abs() < 0.02, "sample {i}: {} vs {}", x[i], y[i]);
        }
    }

    #[test]
    fn complex_filtering_matches_componentwise() {
        let f = Fir::lowpass(0.15, 31);
        let x: Vec<Cx> = (0..100)
            .map(|i| cx((i as f64 * 0.1).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let y = f.filter_cx(&x);
        let re: Vec<f64> = x.iter().map(|v| v.re).collect();
        let im: Vec<f64> = x.iter().map(|v| v.im).collect();
        let yre = f.filter_real(&re);
        let yim = f.filter_real(&im);
        for i in 0..x.len() {
            assert!((y[i].re - yre[i]).abs() < 1e-12);
            assert!((y[i].im - yim[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn moving_average_of_constant_is_constant() {
        let x = vec![3.0; 50];
        let y = moving_average(&x, 8);
        for v in y {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn moving_average_smooths_step() {
        let mut x = vec![0.0; 20];
        x.extend(vec![1.0; 20]);
        let y = moving_average(&x, 4);
        assert!(y[19] < 0.01);
        assert!((y[23] - 1.0).abs() < 1e-12);
        assert!(y[21] > 0.4 && y[21] < 0.8);
    }
}
