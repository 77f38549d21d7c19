//! Frequency-domain quantization (paper Sec 2.5, Fig 4).
//!
//! Per OFDM symbol, the target time-domain waveform `x[n] = A·e^{jθ̂[n]}`
//! is transformed with an (unnormalized) FFT and each data subcarrier is
//! snapped to the nearest constellation point. By Parseval, minimizing the
//! frequency-domain residue minimizes the time-domain least-squares error —
//! and since each subcarrier quantizes independently, nearest-point
//! rounding *is* the relaxed optimum.
//!
//! The scale factor A sizes the waveform against the constellation: the
//! paper reasons in grid units where the outermost 64-QAM level is
//! 35 (= 7·5), and picks A so a two-tone split of one symbol's energy puts
//! ≈ 32 units on each tone — just inside that outermost level. A unit
//! phasor's unnormalized 64-point FFT concentrates ≈ 64/2 = 32 per split
//! tone, so in *standard* units (levels ±1..±7, outermost 7) the scale is
//! `A = (32/35)·(2·7/64) = 0.2`.
//!
//! Two consequences worth knowing:
//!
//! * zero is **not** a 64-QAM point, so every out-of-band data subcarrier
//!   still carries a minimum (±1,±1) value — a wideband quantization floor
//!   the Bluetooth receiver's channel filter removes; and
//! * energy concentrated on a *single* bin (steady carrier) slightly
//!   exceeds the grid corner and clamps — harmless for GFSK, whose
//!   frequency transitions keep the energy split.

use bluefi_dsp::fft::{bin_of_subcarrier, fft_plan};
use bluefi_dsp::{Cx, FftPlan};
use bluefi_wifi::qam::{quantize_point_bits, Modulation};
use bluefi_wifi::subcarriers::{data_subcarriers, FFT_SIZE};
use std::sync::Arc;

/// The paper's fixed scale factor (Sec 2.5) in standard constellation
/// units: two-tone peak (32·A·…) lands at ~91 % of the outermost level.
pub const DEFAULT_SCALE: f64 = 0.2;

/// Quantization strategy for the per-symbol scale factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleMode {
    /// A fixed scale (the paper's choice; `DEFAULT_SCALE`).
    Fixed(f64),
    /// Per-symbol search over a small grid of scales, keeping the one with
    /// the least residue — the "dynamic scale factor" the paper tried and
    /// found not worth it (ablation `ablation_scale_factor`).
    Dynamic,
}

/// One quantized OFDM symbol.
#[derive(Debug, Clone, Default)]
pub struct QuantizedSymbol {
    /// Constellation points on the 52 data subcarriers (unnormalized
    /// units), in data-subcarrier order.
    pub points: Vec<Cx>,
    /// Each point's Gray-coded mapper bits, packed as
    /// [`quantize_point_bits`] returns them (b0 the most significant of
    /// `bits_per_symbol()` bits): exactly what the demapper would write
    /// for `points[d]`, taken from the same per-axis quantization.
    pub bits: Vec<u16>,
    /// The scale factor used.
    pub scale: f64,
    /// Frequency-domain residue `Σ|X − X̂|²` over data subcarriers.
    pub residue: f64,
    /// Total target energy `Σ|X|²` over data subcarriers (for normalized
    /// error reporting).
    pub energy: f64,
    /// Per-data-subcarrier `(residue, energy)` pairs for band-limited error
    /// reporting.
    pub per_subcarrier: Vec<(f64, f64)>,
}

impl QuantizedSymbol {
    /// Residue relative to signal energy over all data subcarriers, in dB.
    /// Dominated by the (±1,±1) floor on out-of-band subcarriers — see the
    /// module docs; prefer [`QuantizedSymbol::in_band_error_db`] for the
    /// metric a Bluetooth receiver experiences.
    pub fn error_db(&self) -> f64 {
        10.0 * (self.residue / self.energy.max(1e-12)).log10()
    }

    /// Residue relative to energy over the subcarriers within
    /// `half_width` of `bt_subcarrier`, in dB. Data subcarriers ascend, so
    /// those within the band form one contiguous run of data indices; the
    /// sums visit just that run, in data-subcarrier order.
    pub fn in_band_error_db(&self, bt_subcarrier: f64, half_width: f64) -> f64 {
        let data = data_subcarriers();
        // The two edges of `|sc − bt| ≤ half_width`; NaN leaves them equal.
        let start = data.partition_point(|&sc| sc as f64 - bt_subcarrier < -half_width);
        let end = data.partition_point(|&sc| sc as f64 - bt_subcarrier <= half_width);
        let mut residue = 0.0;
        let mut energy = 0.0;
        for &(r, e) in &self.per_subcarrier[start..end.max(start)] {
            residue += r;
            energy += e;
        }
        10.0 * (residue / energy.max(1e-12)).log10()
    }
}

/// The quantizer.
#[derive(Debug, Clone)]
pub struct Quantizer {
    modulation: Modulation,
    mode: ScaleMode,
    plan: Arc<FftPlan>,
}

impl Quantizer {
    /// Creates a quantizer for `modulation` (64-QAM in the real system;
    /// 256/1024-QAM for the Sec 5.1 ablation). The FFT plan comes from the
    /// process-wide cache, so construction is cheap after the first call.
    pub fn new(modulation: Modulation, mode: ScaleMode) -> Quantizer {
        // Stage contract: the grid this quantizer snaps to must carry the
        // standard's unit-power normalization, or residue/error_db readings
        // are biased.
        bluefi_wifi::qam::check_constellation_unit_energy(modulation);
        Quantizer { modulation, mode, plan: fft_plan(FFT_SIZE) }
    }

    /// Quantizes one 64-sample body phase signal. Thin shim over
    /// [`Quantizer::quantize_body_into`].
    pub fn quantize_body(&self, body_phase: &[f64]) -> QuantizedSymbol {
        let mut fft_buf = Vec::new();
        let mut out = QuantizedSymbol::default();
        self.quantize_body_into(body_phase, &mut fft_buf, &mut out);
        out
    }

    /// Scratch-buffer variant of [`Quantizer::quantize_body`]: runs the FFT
    /// through `fft_buf` and writes the quantized symbol into `out`, reusing
    /// both buffers' capacity. Allocation-free at steady state for
    /// [`ScaleMode::Fixed`]; the [`ScaleMode::Dynamic`] grid search keeps one
    /// internal candidate symbol per call (its growth is probe-counted).
    pub fn quantize_body_into(
        &self,
        body_phase: &[f64],
        fft_buf: &mut Vec<Cx>,
        out: &mut QuantizedSymbol,
    ) {
        assert_eq!(body_phase.len(), 64);
        match self.mode {
            ScaleMode::Fixed(s) => self.quantize_at_scale_into(body_phase, s, fft_buf, out),
            ScaleMode::Dynamic => {
                let mut s = 0.7 * DEFAULT_SCALE;
                self.quantize_at_scale_into(body_phase, s, fft_buf, out);
                let mut cand = QuantizedSymbol::default();
                s += 0.05 * DEFAULT_SCALE;
                while s <= 1.3 * DEFAULT_SCALE {
                    self.quantize_at_scale_into(body_phase, s, fft_buf, &mut cand);
                    // Compare normalized error so the scale itself does not
                    // bias the comparison.
                    if cand.error_db() < out.error_db() {
                        std::mem::swap(out, &mut cand);
                    }
                    s += 0.05 * DEFAULT_SCALE;
                }
            }
        }
    }

    fn quantize_at_scale_into(
        &self,
        body_phase: &[f64],
        scale: f64,
        fft_buf: &mut Vec<Cx>,
        out: &mut QuantizedSymbol,
    ) {
        bluefi_dsp::contracts::ensure_len(fft_buf, body_phase.len(), Cx::ZERO);
        for (slot, &p) in fft_buf.iter_mut().zip(body_phase) {
            *slot = Cx::expj(p) * scale;
        }
        self.plan.forward(fft_buf);
        bluefi_dsp::contracts::ensure_len(&mut out.points, 52, Cx::ZERO);
        bluefi_dsp::contracts::ensure_len(&mut out.bits, 52, 0);
        bluefi_dsp::contracts::ensure_len(&mut out.per_subcarrier, 52, (0.0, 0.0));
        out.scale = scale;
        out.residue = 0.0;
        out.energy = 0.0;
        for (d, &sc) in data_subcarriers().iter().enumerate() {
            let x = fft_buf[bin_of_subcarrier(sc, FFT_SIZE)];
            let (q, bits) = quantize_point_bits(x, self.modulation);
            let r = (x - q).norm_sq();
            let e = x.norm_sq();
            out.residue += r;
            out.energy += e;
            out.per_subcarrier[d] = (r, e);
            out.points[d] = q;
            out.bits[d] = bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone_phase(subcarrier: f64) -> Vec<f64> {
        (0..64).map(|n| 2.0 * PI * subcarrier * n as f64 / 64.0).collect()
    }

    #[test]
    fn on_grid_tone_concentrates_on_its_subcarrier() {
        let q = Quantizer::new(Modulation::Qam64, ScaleMode::Fixed(DEFAULT_SCALE));
        let sym = q.quantize_body(&tone_phase(12.0));
        // The tone bin saturates near the outermost level; every other data
        // subcarrier sits at the minimum grid point (±1,±1) — zero is not a
        // 64-QAM point, so a √2 wideband floor is unavoidable.
        let d = bluefi_wifi::subcarriers::data_index_of_subcarrier(12).unwrap();
        let on = sym.points[d].abs();
        assert!(on >= 7.0, "on-tone magnitude {on}");
        for (i, p) in sym.points.iter().enumerate() {
            if i != d {
                assert!((p.abs() - 2f64.sqrt()).abs() < 1e-9, "off-tone {i}: {p:?}");
            }
        }
    }

    #[test]
    fn two_tone_split_lands_inside_the_grid() {
        // A tone midway between two subcarriers splits energy between them
        // — the paper's sizing argument for A: each neighbor lands near the
        // outermost level (their "32 of 35 units") WITHOUT clamping hard.
        let q = Quantizer::new(Modulation::Qam64, ScaleMode::Fixed(DEFAULT_SCALE));
        let sym = q.quantize_body(&tone_phase(12.5));
        let d12 = bluefi_wifi::subcarriers::data_index_of_subcarrier(12).unwrap();
        let d13 = bluefi_wifi::subcarriers::data_index_of_subcarrier(13).unwrap();
        for d in [d12, d13] {
            let m = sym.points[d].abs();
            assert!(m > 5.0 && m <= 7.0 * 2f64.sqrt() + 1e-9, "magnitude {m}");
        }
        // And the in-band quantization error is small.
        assert!(sym.in_band_error_db(12.5, 4.0) < -10.0, "{}", sym.in_band_error_db(12.5, 4.0));
    }

    #[test]
    fn residue_is_sum_of_per_subcarrier_minima() {
        // Quantizing each subcarrier to its nearest point is optimal: no
        // single substitution can lower the residue.
        let q = Quantizer::new(Modulation::Qam64, ScaleMode::Fixed(DEFAULT_SCALE));
        let phase: Vec<f64> = (0..64).map(|n| (n as f64 * 0.3).sin() * 2.0).collect();
        let sym = q.quantize_body(&phase);
        // Recompute the unquantized spectrum and check each point is the
        // argmin over a neighborhood of grid points.
        let mut buf: Vec<Cx> = phase.iter().map(|&p| Cx::expj(p) * sym.scale).collect();
        FftPlan::new(64).forward(&mut buf);
        for (i, &sc) in data_subcarriers().iter().enumerate() {
            let x = buf[bin_of_subcarrier(sc, 64)];
            let chosen = (x - sym.points[i]).norm_sq();
            for dre in [-2.0, 0.0, 2.0] {
                for dim in [-2.0, 0.0, 2.0] {
                    let alt = Cx { re: sym.points[i].re + dre, im: sym.points[i].im + dim };
                    if alt.re.abs() <= 7.0 && alt.im.abs() <= 7.0 {
                        assert!(
                            (x - alt).norm_sq() >= chosen - 1e-9,
                            "subcarrier {sc}: {alt:?} beats {:?}",
                            sym.points[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn higher_order_modulation_reduces_error() {
        // Sec 5.1: 256/1024-QAM quantize with less error. Scale A with the
        // constellation max so the signal occupies the same relative range,
        // and measure in-band (the wideband floor shrinks too, but in-band
        // is the receiver-relevant number).
        // Scale well inside every constellation's per-axis range so the
        // comparison isolates grid resolution (clamping would mask it).
        let err = |m: Modulation| {
            let a = 0.5 * DEFAULT_SCALE * m.max_level() as f64 / 7.0;
            Quantizer::new(m, ScaleMode::Fixed(a))
                .quantize_body(&tone_phase(12.5))
                .in_band_error_db(12.5, 4.0)
        };
        let e64 = err(Modulation::Qam64);
        let e256 = err(Modulation::Qam256);
        let e1024 = err(Modulation::Qam1024);
        assert!(e256 < e64 - 3.0, "64: {e64}, 256: {e256}");
        assert!(e1024 < e256 - 3.0, "256: {e256}, 1024: {e1024}");
    }

    #[test]
    fn dynamic_scale_is_no_worse_but_close() {
        let phase: Vec<f64> = (0..64).map(|n| (n as f64 * 0.21).cos() * 2.5).collect();
        let fixed = Quantizer::new(Modulation::Qam64, ScaleMode::Fixed(DEFAULT_SCALE))
            .quantize_body(&phase);
        let dynamic =
            Quantizer::new(Modulation::Qam64, ScaleMode::Dynamic).quantize_body(&phase);
        assert!(dynamic.error_db() <= fixed.error_db() + 1e-9);
        // The paper: "the performance difference is negligible".
        assert!(fixed.error_db() - dynamic.error_db() < 6.0);
    }

    #[test]
    fn in_band_error_sums_the_band_like_a_full_scan() {
        // The contiguous-run sum must equal the scan that tests every data
        // subcarrier, to the bit, for band edges on, off and between
        // subcarriers and for empty or degenerate bands.
        let q = Quantizer::new(Modulation::Qam64, ScaleMode::Fixed(DEFAULT_SCALE));
        let sym = q.quantize_body(&tone_phase(9.3));
        let scan = |bt: f64, hw: f64| {
            let (mut residue, mut energy) = (0.0, 0.0);
            for (d, &sc) in data_subcarriers().iter().enumerate() {
                if (sc as f64 - bt).abs() <= hw {
                    residue += sym.per_subcarrier[d].0;
                    energy += sym.per_subcarrier[d].1;
                }
            }
            10.0 * (residue / f64::max(energy, 1e-12)).log10()
        };
        for bt in [-30.0, -28.0, -21.0, -12.8, -0.5, 0.0, 3.0, 7.0, 12.8, 13.0, 27.5, 28.0, 31.0] {
            for hw in [-1.0, 0.0, 0.2, 1.0, 4.0, 6.5, 60.0, f64::INFINITY, f64::NAN] {
                assert_eq!(
                    sym.in_band_error_db(bt, hw).to_bits(),
                    scan(bt, hw).to_bits(),
                    "bt {bt}, half width {hw}"
                );
            }
        }
        assert_eq!(sym.in_band_error_db(f64::NAN, 4.0).to_bits(), scan(f64::NAN, 4.0).to_bits());
    }

    #[test]
    fn quantized_points_are_on_grid() {
        let q = Quantizer::new(Modulation::Qam64, ScaleMode::Fixed(DEFAULT_SCALE));
        let sym = q.quantize_body(&tone_phase(-5.3));
        for p in &sym.points {
            assert_eq!(p.re, p.re.round());
            assert_eq!(p.im, p.im.round());
            assert_eq!((p.re as i64).abs() % 2, 1);
            assert_eq!((p.im as i64).abs() % 2, 1);
        }
    }
}
