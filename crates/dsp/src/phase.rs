//! Phase-signal helpers.
//!
//! BlueFi treats a Bluetooth packet as *only* a phase trajectory `θ[n]`
//! (constant envelope), so frequency→phase accumulation, phase unwrapping,
//! and offset modulation are the primitives everything else builds on.

use crate::complex::Cx;
use std::f64::consts::PI;

/// Integrates an instantaneous-frequency signal (cycles/sample) into a phase
/// signal (radians). `phase[n] = phase0 + 2π·Σ_{k<n} f[k]` — the phase at
/// sample `n` reflects frequency applied over samples `0..n`.
pub fn accumulate_frequency(freq_cps: &[f64], phase0: f64) -> Vec<f64> {
    let mut acc = phase0;
    freq_cps
        .iter()
        .map(|&f| {
            let p = acc;
            acc += 2.0 * PI * f;
            p
        })
        .collect()
}

/// Adds a linearly-increasing phase (a frequency shift of `offset_cps`
/// cycles/sample) to a phase signal, in place. This is the paper's
/// "modulating operation" (Sec 2.3) that recenters a Bluetooth channel onto
/// a WiFi channel's baseband; it must happen *before* CP construction.
pub fn add_frequency_offset(phase: &mut [f64], offset_cps: f64) {
    for (n, p) in phase.iter_mut().enumerate() {
        *p += 2.0 * PI * offset_cps * n as f64;
    }
}

/// Converts a phase signal to the unit-envelope IQ waveform `e^{jθ[n]}`.
pub fn phase_to_iq(phase: &[f64]) -> Vec<Cx> {
    phase.iter().map(|&p| Cx::expj(p)).collect()
}

/// Unwraps a phase signal: removes 2π jumps so the result is continuous.
pub fn unwrap(phase: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(phase.len());
    let mut offset = 0.0;
    let mut prev = match phase.first() {
        Some(&p) => p,
        None => return out,
    };
    out.push(prev);
    for &p in &phase[1..] {
        let mut d = p - prev;
        while d > PI {
            d -= 2.0 * PI;
            offset -= 2.0 * PI;
        }
        while d < -PI {
            d += 2.0 * PI;
            offset += 2.0 * PI;
        }
        out.push(p + offset);
        prev = p;
    }
    out
}

/// Instantaneous frequency (cycles/sample) of an IQ waveform via the
/// conjugate-product discriminator: `f[n] = arg(x[n]·x*[n-1]) / 2π`.
/// The first output sample repeats the second so lengths match.
pub fn discriminate(iq: &[Cx]) -> Vec<f64> {
    if iq.len() < 2 {
        return vec![0.0; iq.len()];
    }
    let mut out = Vec::with_capacity(iq.len());
    out.push(0.0);
    for n in 1..iq.len() {
        out.push((iq[n] * iq[n - 1].conj()).arg() / (2.0 * PI));
    }
    out[0] = out[1];
    out
}

/// Wraps an angle to `(-π, π]`.
#[inline]
pub fn wrap_angle(a: f64) -> f64 {
    let mut a = a % (2.0 * PI);
    if a > PI {
        a -= 2.0 * PI;
    } else if a <= -PI {
        a += 2.0 * PI;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_frequency_gives_linear_phase() {
        let f = vec![0.05; 10];
        let p = accumulate_frequency(&f, 0.0);
        for (n, &v) in p.iter().enumerate() {
            assert!((v - 2.0 * PI * 0.05 * n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn offset_modulation_shifts_spectrum() {
        use crate::fft::fft;
        // A DC tone shifted by 8/64 cycles/sample must land on bin 8.
        let mut phase = vec![0.0; 64];
        add_frequency_offset(&mut phase, 8.0 / 64.0);
        let spec = fft(&phase_to_iq(&phase));
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap()
            .0;
        assert_eq!(peak, 8);
    }

    #[test]
    fn unwrap_restores_linear_ramp() {
        let truth: Vec<f64> = (0..100).map(|n| 0.4 * n as f64).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&p| wrap_angle(p)).collect();
        let un = unwrap(&wrapped);
        for (a, b) in truth.iter().zip(&un) {
            // Same up to a constant multiple of 2π.
            let d = (a - b) / (2.0 * PI);
            assert!((d - d.round()).abs() < 1e-9);
        }
        // And it is continuous.
        for w in un.windows(2) {
            assert!((w[1] - w[0]).abs() < PI);
        }
    }

    #[test]
    fn discriminator_recovers_frequency() {
        let f = 0.03;
        let iq: Vec<Cx> = (0..50).map(|n| Cx::expj(2.0 * PI * f * n as f64)).collect();
        let d = discriminate(&iq);
        for &v in &d[1..] {
            assert!((v - f).abs() < 1e-12);
        }
    }

    #[test]
    fn discriminator_sign_tracks_fsk_bits() {
        // +deviation then -deviation.
        let mut freq = vec![0.02; 30];
        freq.extend(vec![-0.02; 30]);
        let phase = accumulate_frequency(&freq, 1.234);
        let d = discriminate(&phase_to_iq(&phase));
        assert!(d[15] > 0.0);
        assert!(d[45] < 0.0);
    }

    #[test]
    fn wrap_angle_bounds() {
        for k in -20..20 {
            let a = 0.7 + k as f64 * 2.0 * PI;
            let w = wrap_angle(a);
            assert!((-PI..=PI).contains(&w));
            assert!((w - 0.7).abs() < 1e-9);
        }
    }

    #[test]
    fn phase_iq_roundtrip() {
        let phase: Vec<f64> = (0..32).map(|n| wrap_angle(0.3 * n as f64)).collect();
        let round: Vec<f64> = phase_to_iq(&phase).iter().map(|v| v.arg()).collect();
        for (a, b) in phase.iter().zip(&round) {
            assert!((wrap_angle(a - b)).abs() < 1e-12);
        }
    }
}
