//! OFDM symbol assembly: IFFT, cyclic prefix, and the per-symbol windowing
//! that the paper's impairment I1 revolves around.
//!
//! Conventions (shared with `bluefi-core`'s reversal):
//!
//! * Frequency-domain samples are in **unnormalized constellation units**
//!   (odd integers for data, ±√42 for pilots at 64-QAM scale).
//! * Time-domain samples are `x[n] = (1/64)·Σ_f X[f]·e^{+j2πfn/64}` —
//!   i.e. `ifft` with 1/N, so a frequency sample of magnitude 32 yields a
//!   unit-ish time-domain tone (the paper's "magnitude of around 32 units"
//!   bookkeeping).

use crate::subcarriers::FFT_SIZE;
use bluefi_dsp::fft::{bin_of_subcarrier, FftPlan};
use bluefi_dsp::Cx;

/// Guard-interval length in samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardInterval {
    /// Long GI: 16 samples (800 ns).
    Long,
    /// Short GI: 8 samples (400 ns) — required by BlueFi (Sec 2.1.2).
    Short,
}

impl GuardInterval {
    /// CP length in samples.
    pub fn len(self) -> usize {
        match self {
            GuardInterval::Long => 16,
            GuardInterval::Short => 8,
        }
    }

    /// Never empty.
    pub fn is_empty(self) -> bool {
        false
    }

    /// Total OFDM symbol length (CP + 64).
    pub fn symbol_len(self) -> usize {
        self.len() + FFT_SIZE
    }
}

/// Builds the frequency-domain vector (64 bins, FFT order) from per-
/// subcarrier values given on centered indices −32..31.
pub fn spectrum_from_subcarriers(values: &[(i32, Cx)]) -> Vec<Cx> {
    let mut spec = vec![Cx::ZERO; FFT_SIZE];
    for &(k, v) in values {
        spec[bin_of_subcarrier(k, FFT_SIZE)] = v;
    }
    spec
}

/// One OFDM symbol in the time domain: IFFT of `spectrum` (64 bins, FFT
/// order) with the CP prepended. Returns `gi.symbol_len()` samples. Thin
/// shim over [`modulate_symbol_into`].
pub fn modulate_symbol(plan: &FftPlan, spectrum: &[Cx], gi: GuardInterval) -> Vec<Cx> {
    let mut out = Vec::new();
    modulate_symbol_into(plan, spectrum, gi, &mut out);
    out
}

/// Scratch-buffer variant of [`modulate_symbol`]: assembles the symbol into
/// `out` (resized to `gi.symbol_len()`), running the IFFT in place in the
/// post-CP region — no intermediate buffer, allocating only when `out` must
/// grow.
pub fn modulate_symbol_into(plan: &FftPlan, spectrum: &[Cx], gi: GuardInterval, out: &mut Vec<Cx>) {
    assert_eq!(spectrum.len(), FFT_SIZE);
    let cp = gi.len();
    bluefi_dsp::contracts::ensure_len(out, cp + FFT_SIZE, Cx::ZERO);
    out[cp..].copy_from_slice(spectrum);
    plan.inverse(&mut out[cp..]);
    let (front, body) = out.split_at_mut(cp);
    front.copy_from_slice(&body[FFT_SIZE - cp..]);
}

/// Stitches OFDM symbols into a waveform, optionally applying the
/// standard's per-symbol windowing (17.3.2.5, the paper's Fig 2):
/// each symbol is extended by one sample — a copy of its first post-CP
/// sample, i.e. the continuation of its cyclic waveform — and that
/// extension is averaged with the first sample of the next symbol.
///
/// COTS chips implement this smoothing in hardware (BlueFi found the Atheros
/// and Realtek parts always window); SDRs like USRP transmit the raw
/// concatenation, which is why a waveform can work on USRP but fail on real
/// chips (paper Sec 2.4).
pub fn stitch_symbols(symbols: &[Vec<Cx>], gi: GuardInterval, windowing: bool) -> Vec<Cx> {
    let sym_len = gi.symbol_len();
    let mut out = Vec::with_capacity(symbols.len() * sym_len);
    let mut prev_ext: Option<Cx> = None;
    for (s, sym) in symbols.iter().enumerate() {
        assert_eq!(sym.len(), sym_len, "symbol {s} has wrong length");
        append_symbol(&mut out, sym, gi, windowing, prev_ext);
        prev_ext = Some(sym[gi.len()]);
    }
    out
}

/// Streaming form of [`stitch_symbols`]: appends one symbol to a growing
/// waveform. `prev_extension` is the previous symbol's extension sample —
/// its waveform continued one sample past the end, which by cyclic
/// structure equals its sample right after the CP (`prev[gi.len()]`); pass
/// `None` for the first symbol. The caller should reserve the full
/// waveform's capacity up front to keep the append allocation-free.
pub fn append_symbol(
    out: &mut Vec<Cx>,
    sym: &[Cx],
    gi: GuardInterval,
    windowing: bool,
    prev_extension: Option<Cx>,
) {
    assert_eq!(sym.len(), gi.symbol_len(), "symbol has wrong length");
    if out.capacity() < out.len() + sym.len() {
        bluefi_dsp::contracts::probe_alloc();
    }
    let start = out.len();
    out.extend_from_slice(sym);
    if windowing {
        if let Some(extension) = prev_extension {
            out[start] = (out[start] + extension).scale(0.5);
        }
    }
}

/// Demodulates one received OFDM symbol (CP stripped by the caller) back to
/// its 64 frequency bins — used by tests and by BlueFi's verification path.
pub fn demodulate_symbol(plan: &FftPlan, time: &[Cx]) -> Vec<Cx> {
    assert_eq!(time.len(), FFT_SIZE);
    let mut buf = time.to_vec();
    plan.forward(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluefi_dsp::cx;

    fn plan() -> FftPlan {
        FftPlan::new(FFT_SIZE)
    }

    #[test]
    fn cp_is_a_copy_of_the_tail() {
        let spec = spectrum_from_subcarriers(&[(3, cx(7.0, 0.0)), (-5, cx(0.0, -3.0))]);
        for gi in [GuardInterval::Long, GuardInterval::Short] {
            let sym = modulate_symbol(&plan(), &spec, gi);
            assert_eq!(sym.len(), gi.symbol_len());
            let cp = gi.len();
            for i in 0..cp {
                assert_eq!(sym[i], sym[64 + i], "gi {gi:?} sample {i}");
            }
        }
    }

    #[test]
    fn modulate_demodulate_roundtrip() {
        let spec = spectrum_from_subcarriers(&[(1, cx(5.0, 5.0)), (-28, cx(-7.0, 1.0))]);
        let sym = modulate_symbol(&plan(), &spec, GuardInterval::Short);
        let rx = demodulate_symbol(&plan(), &sym[8..]);
        for (a, b) in spec.iter().zip(&rx) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn single_subcarrier_is_a_pure_tone() {
        let spec = spectrum_from_subcarriers(&[(4, cx(32.0, 0.0))]);
        let sym = modulate_symbol(&plan(), &spec, GuardInterval::Short);
        // Amplitude 32/64 = 0.5, frequency 4/64 cycles/sample.
        for (n, v) in sym[8..].iter().enumerate() {
            let expect = Cx::expj(2.0 * std::f64::consts::PI * 4.0 * n as f64 / 64.0).scale(0.5);
            assert!((*v - expect).abs() < 1e-9, "sample {n}");
        }
    }

    #[test]
    fn windowing_averages_boundaries() {
        let spec_a = spectrum_from_subcarriers(&[(2, cx(10.0, 0.0))]);
        let spec_b = spectrum_from_subcarriers(&[(5, cx(0.0, 10.0))]);
        let p = plan();
        let gi = GuardInterval::Short;
        let a = modulate_symbol(&p, &spec_a, gi);
        let b = modulate_symbol(&p, &spec_b, gi);
        let plain = stitch_symbols(&[a.clone(), b.clone()], gi, false);
        let windowed = stitch_symbols(&[a.clone(), b.clone()], gi, true);
        assert_eq!(plain.len(), windowed.len());
        // Only the first sample of symbol 2 differs.
        for i in 0..plain.len() {
            if i == gi.symbol_len() {
                let expect = (b[0] + a[gi.len()]).scale(0.5);
                assert!((windowed[i] - expect).abs() < 1e-12);
                assert!((windowed[i] - plain[i]).abs() > 1e-6, "boundary unchanged");
            } else {
                assert_eq!(plain[i], windowed[i], "sample {i}");
            }
        }
    }

    #[test]
    fn windowing_is_transparent_for_cyclically_continuous_symbols() {
        // The BlueFi design goal (Sec 2.4): when the next symbol's first
        // sample equals the previous symbol's extension, averaging changes
        // nothing. Identical symbols have that property.
        let spec = spectrum_from_subcarriers(&[(2, cx(10.0, 3.0))]);
        let p = plan();
        let gi = GuardInterval::Short;
        let a = modulate_symbol(&p, &spec, gi);
        // Choose a subcarrier-2 tone: after 72 samples the phase advances by
        // 2π·2·72/64 — NOT an integer number of turns, so two identical
        // symbols are not continuous and windowing must change the boundary.
        let w = stitch_symbols(&[a.clone(), a.clone()], gi, true);
        let pl = stitch_symbols(&[a.clone(), a.clone()], gi, false);
        assert!((w[72] - pl[72]).abs() > 1e-9);
        // But a subcarrier-8 tone advances 2π·8·72/64 = 9 full turns: the
        // waveform IS cyclically continuous and windowing is a no-op.
        let spec8 = spectrum_from_subcarriers(&[(8, cx(10.0, 3.0))]);
        let b = modulate_symbol(&p, &spec8, gi);
        let w8 = stitch_symbols(&[b.clone(), b.clone()], gi, true);
        let pl8 = stitch_symbols(&[b.clone(), b.clone()], gi, false);
        for i in 0..w8.len() {
            assert!((w8[i] - pl8[i]).abs() < 1e-9, "sample {i}");
        }
    }
}
