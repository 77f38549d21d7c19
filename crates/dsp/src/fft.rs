//! Fast Fourier transforms, implemented from scratch.
//!
//! 802.11n OFDM works on 64-point blocks, so the hot path is a radix-2
//! iterative Cooley–Tukey transform with precomputed twiddles. A naive DFT
//! fallback covers non-power-of-two lengths (used only in analysis helpers).
//!
//! Conventions match the paper's usage (and NumPy/SciPy):
//!
//! * forward: `X[f] = Σ_n x[n]·e^{-j2πfn/N}` (no normalization)
//! * inverse: `x[n] = (1/N)·Σ_f X[f]·e^{+j2πfn/N}`
//!
//! so `ifft(fft(x)) == x`.

use crate::complex::Cx;
use crate::contracts;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, OnceLock};

/// A reusable FFT plan for a fixed power-of-two size.
///
/// Precomputes the bit-reversal permutation and twiddle factors once, then
/// executes transforms in-place with no allocation. One plan may be shared
/// freely (`&self` methods).
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    // Forward twiddles laid out stage by stage: the stage whose butterflies
    // span `half` reads the contiguous run `stage_twiddles[half − 1..2·half
    // − 1]`, entry k being e^{-j2π(k·N/2half)/N} copied from the N/2-entry
    // table, so every stage multiplies by the same values as a strided walk
    // of that table would.
    stage_twiddles: Vec<Cx>,
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics when `n` is zero or not a power of two.
    pub fn new(n: usize) -> FftPlan {
        assert!(n.is_power_of_two() && n > 0, "FFT size must be a power of two, got {n}");
        let twiddles: Vec<Cx> = (0..n / 2)
            .map(|k| Cx::expj(-2.0 * PI * k as f64 / n as f64))
            .collect();
        let mut stage_twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1;
        while half < n {
            let step = n / (2 * half);
            stage_twiddles.extend((0..half).map(|k| twiddles[k * step]));
            half *= 2;
        }
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        let bitrev = if n == 1 { vec![0] } else { bitrev };
        FftPlan { n, stage_twiddles, bitrev }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`; plans have length ≥ 1.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward FFT.
    ///
    /// # Panics
    /// Panics when `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Cx]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan size");
        let e_in = if contracts::enabled() { contracts::energy(data) } else { 0.0 };
        self.transform::<false>(data);
        if contracts::enabled() {
            contracts::check_parseval(e_in, contracts::energy(data), self.n, "FftPlan::forward");
        }
    }

    /// In-place inverse FFT (including the `1/N` normalization).
    ///
    /// # Panics
    /// Panics when `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Cx]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan size");
        let e_in = if contracts::enabled() { contracts::energy(data) } else { 0.0 };
        self.transform::<true>(data);
        let k = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.scale(k);
        }
        if contracts::enabled() {
            // With the 1/N normalization applied, output energy is the
            // frequency-domain input's energy divided by N (Parseval).
            contracts::check_parseval(contracts::energy(data), e_in, self.n, "FftPlan::inverse");
        }
    }

    /// Bit-reversal permutation, then radix-2 butterflies. `INVERSE`
    /// conjugates the twiddles; being a const parameter, it leaves the
    /// forward butterfly loop without a branch.
    fn transform<const INVERSE: bool>(&self, data: &mut [Cx]) {
        let n = self.n;
        if n == 1 {
            return;
        }
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut half = 1;
        while half < n {
            let twiddles = &self.stage_twiddles[half - 1..2 * half - 1];
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((lo, hi), &t) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                    let w = if INVERSE { t.conj() } else { t };
                    let a = *lo;
                    let b = *hi * w;
                    *lo = a + b;
                    *hi = a - b;
                }
            }
            half *= 2;
        }
    }
}

/// Returns the shared, process-wide plan for power-of-two size `n`,
/// building it on first request. Subsequent calls for the same size are a
/// lock + hash lookup — no twiddle or bit-reversal recomputation — so hot
/// paths can call this freely instead of [`FftPlan::new`].
///
/// # Panics
/// Panics when `n` is zero or not a power of two (same contract as
/// [`FftPlan::new`]).
pub fn fft_plan(n: usize) -> Arc<FftPlan> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|p| p.into_inner());
    Arc::clone(map.entry(n).or_insert_with(|| Arc::new(FftPlan::new(n))))
}

/// Convenience forward FFT returning a new vector (power-of-two length).
/// Thin shim over the cached plan; prefer [`fft_plan`] + a reused buffer on
/// hot paths.
pub fn fft(input: &[Cx]) -> Vec<Cx> {
    let plan = fft_plan(input.len());
    let mut buf = input.to_vec();
    plan.forward(&mut buf);
    buf
}

/// Convenience inverse FFT returning a new vector (power-of-two length).
/// Thin shim over the cached plan; prefer [`fft_plan`] + a reused buffer on
/// hot paths.
pub fn ifft(input: &[Cx]) -> Vec<Cx> {
    let plan = fft_plan(input.len());
    let mut buf = input.to_vec();
    plan.inverse(&mut buf);
    buf
}

/// Maps a centered subcarrier index `k ∈ [-N/2, N/2)` to the FFT bin index.
#[inline]
pub fn bin_of_subcarrier(k: i32, n: usize) -> usize {
    let n = n as i32;
    debug_assert!(k >= -n / 2 && k < n / 2);
    ((k + n) % n) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::cx;

    /// Naive O(N²) DFT, the reference the FFT is checked against.
    fn dft(input: &[Cx]) -> Vec<Cx> {
        let n = input.len();
        (0..n)
            .map(|f| {
                (0..n)
                    .map(|t| input[t] * Cx::expj(-2.0 * PI * (f * t) as f64 / n as f64))
                    .sum()
            })
            .collect()
    }

    fn assert_close(a: &[Cx], b: &[Cx], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Cx::ZERO; 8];
        x[0] = Cx::ONE;
        let spec = fft(&x);
        for v in &spec {
            assert!((*v - Cx::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_on_its_bin() {
        let n = 64;
        let k = 5;
        let x: Vec<Cx> = (0..n)
            .map(|t| Cx::expj(2.0 * PI * (k * t) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (f, v) in spec.iter().enumerate() {
            let expect = if f == k { n as f64 } else { 0.0 };
            assert!((v.abs() - expect).abs() < 1e-9, "bin {f}");
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Cx> = (0..64)
            .map(|i| cx((i as f64 * 0.37).sin(), (i as f64 * 1.7).cos()))
            .collect();
        let round = ifft(&fft(&x));
        assert_close(&x, &round, 1e-12);
    }

    #[test]
    fn fft_matches_naive_dft() {
        let x: Vec<Cx> = (0..32)
            .map(|i| cx((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        assert_close(&fft(&x), &dft(&x), 1e-9);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<Cx> = (0..64).map(|i| cx((i as f64 * 0.1).sin(), 0.3)).collect();
        let time_energy: f64 = x.iter().map(|v| v.norm_sq()).sum();
        let freq_energy: f64 = fft(&x).iter().map(|v| v.norm_sq()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![cx(2.0, -3.0)];
        assert_close(&fft(&x), &x, 1e-15);
        assert_close(&ifft(&x), &x, 1e-15);
    }

    #[test]
    fn staged_twiddles_reproduce_the_strided_butterflies_bit_for_bit() {
        // The textbook loop: one N/2-entry twiddle table walked with a
        // per-stage stride. The plan must give the same floats, not just
        // close ones.
        for n in [2usize, 8, 64, 256] {
            let x: Vec<Cx> =
                (0..n).map(|i| cx((i as f64 * 0.71).sin() * 3.0, (i as f64 * 1.3).cos())).collect();
            let table: Vec<Cx> =
                (0..n / 2).map(|k| Cx::expj(-2.0 * PI * k as f64 / n as f64)).collect();
            for inverse in [false, true] {
                let mut want = x.clone();
                let plan = FftPlan::new(n);
                for i in 0..n {
                    let j = plan.bitrev[i] as usize;
                    if i < j {
                        want.swap(i, j);
                    }
                }
                let mut half = 1;
                while half < n {
                    for start in (0..n).step_by(2 * half) {
                        for k in 0..half {
                            let t = table[k * (n / (2 * half))];
                            let w = if inverse { t.conj() } else { t };
                            let a = want[start + k];
                            let b = want[start + k + half] * w;
                            want[start + k] = a + b;
                            want[start + k + half] = a - b;
                        }
                    }
                    half *= 2;
                }
                let mut got = x.clone();
                if inverse {
                    plan.transform::<true>(&mut got);
                } else {
                    plan.forward(&mut got);
                }
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.re.to_bits(), g.im.to_bits()), (w.re.to_bits(), w.im.to_bits()));
                }
            }
        }
    }

    #[test]
    fn subcarrier_bin_mapping() {
        assert_eq!(bin_of_subcarrier(0, 64), 0);
        assert_eq!(bin_of_subcarrier(1, 64), 1);
        assert_eq!(bin_of_subcarrier(-1, 64), 63);
        assert_eq!(bin_of_subcarrier(-28, 64), 36);
        assert_eq!(bin_of_subcarrier(28, 64), 28);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        FftPlan::new(12);
    }

    #[test]
    fn plan_cache_returns_the_same_plan() {
        let a = fft_plan(64);
        let b = fft_plan(64);
        assert!(Arc::ptr_eq(&a, &b), "cache must hand out one shared plan per size");
        let c = fft_plan(128);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.len(), 128);
    }

    #[test]
    fn cached_plan_matches_fresh_plan() {
        let x: Vec<Cx> = (0..64).map(|i| cx((i as f64 * 0.4).sin(), (i as f64 * 0.9).cos())).collect();
        let mut via_cache = x.clone();
        fft_plan(64).forward(&mut via_cache);
        let mut via_new = x.clone();
        FftPlan::new(64).forward(&mut via_new);
        assert_close(&via_cache, &via_new, 1e-15);
    }
}
