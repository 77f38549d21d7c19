//! Anchored-phase GFSK evaluation for template-based delta synthesis.
//!
//! The standard GFSK modulator ([`crate::gfsk`]) produces the phase signal
//! by *accumulating* instantaneous frequency sample by sample. That is the
//! natural DSP formulation, but it makes every output sample a float
//! function of the entire bit prefix: flipping one payload bit perturbs the
//! rounding of every later sample, so no downstream cache can splice
//! recomputed spans into a stored baseline bit-exactly.
//!
//! This module evaluates the *same* Gaussian-shaped FM phase in closed
//! form, anchored per sample:
//!
//! ```text
//! θ(t) = A·m(j) + L(j) + 2π·f_off·t ,   j = clamp(t − guard, 0, n_shaped)
//! ```
//!
//! where `L(j)` sums the handful of Gaussian-window terms of the bits whose
//! pulses overlap shape sample `j`, and `m(j)` is an integer residue
//! tracking the bits whose pulses have fully *saturated* before `j`. Each
//! saturated bit advances the phase by exactly `±A = ±2π·(h/2)·ΣG` — for
//! h = 0.32 a rational 4/25 of a cycle — so the saturated history enters
//! only through `m = K mod 25`, an exactly-patchable integer. Every output
//! sample is therefore a float function of (a) an integer residue and (b)
//! the ≤ 6 bits whose pulses overlap it, evaluated in a fixed operation
//! order. Two payloads that agree on a sample's overlap window and residue
//! produce **bit-identical** f64 phase there — the property
//! `core::template` builds its delta-synthesis fast path on.
//!
//! The anchored signal is not float-identical to the accumulated one (the
//! two differ by accumulation rounding and by multiples of `A·period`,
//! ~1e-12 rad — physically nothing), which is why it is a separate,
//! opt-in [`PhaseMode`](../../bluefi_core/pipeline) rather than a drop-in
//! replacement: goldens for the cumulative path stay valid.

use crate::gfsk::{GfskParams, FILTER_SPAN};
use bluefi_dsp::gaussian::gaussian_taps;

/// Largest residue period searched for; `h` must be rational with a small
/// denominator for the anchored decomposition to exist.
const MAX_PERIOD: usize = 64;

/// Closed-form anchored GFSK phase evaluator (see the module docs).
///
/// Construction precomputes the cumulative Gaussian window tables for one
/// parameter set; [`AnchoredModulator::fill_ext`] then evaluates the
/// extended phase signal sample by sample with no accumulation across
/// samples other than the integer residue.
#[derive(Debug, Clone)]
pub struct AnchoredModulator {
    /// Samples per symbol.
    sps: i64,
    /// Guard samples prepended (guard_bits · sps).
    guard: usize,
    /// Residue period: smallest q ≤ 64 with q·h/2 an integer.
    period: i64,
    /// Phase advance per saturated bit: 2π·dev_cps·ΣG = 2π·h/2 (times the
    /// tap-sum, which normalizes to 1).
    a: f64,
    /// taps.len() / 2 − 1: the largest window argument offset.
    d1: i64,
    /// Saturation argument: gt[x] is constant for x ≥ sat.
    sat: i64,
    /// Most negative bit index with any window contribution.
    i_min: i64,
    /// Largest bit index whose window constant `G(d1 − sps·i)` is nonzero;
    /// bits above this enter the residue instead of the edge constants.
    i_edge_max: i64,
    /// gt[x] = 2π·dev_cps·G(x) for x in 0..=sat.
    gt: Vec<f64>,
    /// Edge constants 2π·dev_cps·G(d1 − sps·i) for i in i_min..=i_edge_max.
    gt_edge: Vec<f64>,
}

impl AnchoredModulator {
    /// Builds the evaluator for one GFSK parameter set, or `None` when the
    /// anchored decomposition does not apply: non-integer samples/symbol,
    /// no residue period ≤ 64 (irrational-enough modulation index), or a
    /// filter too long for the two-zone (edge / residue) split.
    pub fn new(p: &GfskParams) -> Option<AnchoredModulator> {
        let sps_f = p.sample_rate_hz / p.symbol_rate_hz;
        if (sps_f.round() - sps_f).abs() > 1e-9 || sps_f < 1.0 {
            return None;
        }
        let sps = sps_f.round() as usize;
        // Residue period: q·(h/2) must be an integer number of cycles.
        let half_h = p.deviation_hz / p.symbol_rate_hz;
        let period = (1..=MAX_PERIOD)
            .find(|&q| ((q as f64 * half_h).round() - q as f64 * half_h).abs() < 1e-9)?;
        let taps = gaussian_taps(p.bt, sps, FILTER_SPAN);
        let len = taps.len() as i64;
        let sps_i = sps as i64;
        let d1 = len / 2 - 1;
        let sat = len - 1 + sps_i - 1;
        let i_min = (d1 - sat).div_euclid(sps_i) + 1;
        let i_edge_max = d1.div_euclid(sps_i);
        if i_edge_max >= i_min + 4 {
            return None; // filter spans too many symbols for the split
        }
        // Cumulative-tap table CT(y) = Σ_{k≤y} taps[k], then the window
        // G(x) = Σ_{m'=0}^{sps−1} CT(x−m'), premultiplied by 2π·dev_cps.
        let c = 2.0 * std::f64::consts::PI * p.deviation_hz / p.sample_rate_hz;
        let ct = |y: i64| -> f64 {
            if y < 0 {
                0.0
            } else {
                taps[..((y + 1).min(len)) as usize].iter().sum()
            }
        };
        let g = |x: i64| -> f64 { (0..sps_i).map(|m| ct(x - m)).sum::<f64>() * c };
        let gt: Vec<f64> = (0..=sat).map(g).collect();
        let gt_edge: Vec<f64> = (i_min..=i_edge_max).map(|i| g(d1 - sps_i * i)).collect();
        Some(AnchoredModulator {
            sps: sps_i,
            guard: p.guard_bits * sps,
            period: period as i64,
            a: gt[sat as usize],
            d1,
            sat,
            i_min,
            i_edge_max,
            gt,
            gt_edge,
        })
    }

    /// The residue period (25 at the Bluetooth defaults, h = 0.32).
    pub fn period(&self) -> usize {
        self.period as usize
    }

    /// NRZ sign of bit `i` with edge extension (the same bit-index clamping
    /// [`bluefi_dsp::gaussian::PulseTable`] applies).
    #[inline]
    fn sign(bits: &[bool], i: i64) -> f64 {
        let idx = i.clamp(0, bits.len() as i64 - 1) as usize;
        if bits[idx] {
            1.0
        } else {
            -1.0
        }
    }

    /// The local window sum L(j) for shape sample `j`, excluding the
    /// residue-tracked saturated bits. `edge_full` is the precomputed full
    /// edge-constant sum, used once every edge bit has saturated.
    #[inline]
    fn l_of(&self, bits: &[bool], j: i64, edge_full: f64) -> f64 {
        let i_sat = (j + self.d1 - self.sat).div_euclid(self.sps);
        let i_hi = (j + self.d1).div_euclid(self.sps);
        let a = self.a;
        let mut l = if i_sat >= self.i_edge_max {
            edge_full
        } else {
            // Startup: only the already-saturated edge bits contribute a
            // constant. Same ascending order as `edge_full`'s construction
            // so the partial and full sums share every rounding step.
            let mut acc = 0.0;
            let mut i = self.i_min;
            while i <= i_sat.min(self.i_edge_max) {
                acc += Self::sign(bits, i) * (a - self.gt_edge[(i - self.i_min) as usize]);
                i += 1;
            }
            acc
        };
        let mut i = (i_sat + 1).max(self.i_min);
        while i <= i_hi {
            let x = (j + self.d1 - self.sps * i) as usize;
            let g0 = if i <= self.i_edge_max {
                self.gt_edge[(i - self.i_min) as usize]
            } else {
                0.0
            };
            l += Self::sign(bits, i) * (self.gt[x] - g0);
            i += 1;
        }
        l
    }

    /// First stream sample that can depend on bit `i`: bit `i`'s pulse
    /// first overlaps shape sample `sps·i − d1`, i.e. stream sample
    /// `guard + sps·i − d1`. Every sample strictly before is bit-identical
    /// across payloads that agree on all bits `< i` — the boundary the
    /// template cache's suffix refill splices at.
    pub fn first_sample_of_bit(&self, i: usize) -> usize {
        (self.guard as i64 + self.sps * i as i64 - self.d1).max(0) as usize
    }

    /// Fills `out` (resized to `ext_len`) with the anchored phase signal
    /// for `bits`, recentered by `offset_cps` (cycles/sample) — the fusion
    /// of GFSK modulation, frequency offset, and constant-carrier extension
    /// that the cumulative pipeline performs across three stages. Sample
    /// `t ≥ guard + n_shaped` continues the carrier (`j` clamps), covering
    /// both the trailing guard and the block-alignment extension.
    pub fn fill_ext(&self, bits: &[bool], offset_cps: f64, ext_len: usize, out: &mut Vec<f64>) {
        bluefi_dsp::contracts::ensure_len(out, ext_len, 0.0);
        self.fill_ext_from(bits, offset_cps, 0, out);
    }

    /// Suffix variant of [`AnchoredModulator::fill_ext`]: fills only
    /// `out[t_start..]`, leaving the prefix untouched. Because each sample
    /// is evaluated in closed form (the only cross-sample state is the
    /// integer residue, recovered exactly by the catch-up walk), the
    /// suffix is float-identical to the same samples of a full fill. The
    /// caller owns `out[..t_start]` — the template cache copies it from
    /// the cached base fill.
    pub fn fill_ext_from(&self, bits: &[bool], offset_cps: f64, t_start: usize, out: &mut [f64]) {
        let w_off = 2.0 * std::f64::consts::PI * offset_cps;
        if bits.is_empty() {
            for (t, slot) in out.iter_mut().enumerate().skip(t_start) {
                *slot = w_off * t as f64;
            }
            return;
        }
        let n_shaped = (bits.len() as i64) * self.sps;
        // Full edge-constant sum, valid once every edge bit has saturated.
        let mut edge_full = 0.0;
        let mut i = self.i_min;
        while i <= self.i_edge_max {
            edge_full += Self::sign(bits, i) * (self.a - self.gt_edge[(i - self.i_min) as usize]);
            i += 1;
        }
        // Walk t with the integer residue updated at saturation crossings;
        // the first iteration's while loop catches the residue up from
        // j = 0 to t_start, visiting every intermediate bit exactly as the
        // sequential walk does.
        let k0 = self.i_edge_max + 1; // first residue-tracked bit index
        let mut i_sat = (self.d1 - self.sat).div_euclid(self.sps); // i_sat at j = 0
        let mut m: i64 = 0;
        for (t, slot) in out.iter_mut().enumerate().skip(t_start) {
            let j = (t as i64 - self.guard as i64).clamp(0, n_shaped);
            let new_sat = (j + self.d1 - self.sat).div_euclid(self.sps);
            while i_sat < new_sat {
                i_sat += 1;
                if i_sat >= k0 {
                    let s = if Self::sign(bits, i_sat) > 0.0 { 1 } else { -1 };
                    m = (m + s).rem_euclid(self.period);
                }
            }
            let l = self.l_of(bits, j, edge_full);
            *slot = self.a * m as f64 + l + w_off * t as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluefi_dsp::phase::wrap_angle;

    fn test_bits(n: usize, k: usize) -> Vec<bool> {
        (0..n).map(|i| (i * k + 3) % 7 < 3).collect()
    }

    /// Reference: the cumulative pipeline (shape → accumulate → offset →
    /// constant-carrier extension).
    fn reference_ext(bits: &[bool], p: &GfskParams, offset_cps: f64, ext_len: usize) -> Vec<f64> {
        let mut scratch = crate::gfsk::GfskScratch::new();
        let mut phase = Vec::new();
        scratch.modulate_phase_into(bits, p, offset_cps * p.sample_rate_hz, &mut phase);
        let mut out = phase.clone();
        let mut last = *phase.last().unwrap();
        while out.len() < ext_len {
            last += 2.0 * std::f64::consts::PI * offset_cps;
            out.push(last);
        }
        out
    }

    #[test]
    fn defaults_yield_period_25() {
        let am = AnchoredModulator::new(&GfskParams::default()).expect("constructible");
        assert_eq!(am.period(), 25);
        assert_eq!(am.sps, 20);
        assert_eq!(am.guard, 80);
    }

    #[test]
    fn non_integer_sps_is_rejected() {
        let p = GfskParams { sample_rate_hz: 20.5e6, ..GfskParams::default() };
        assert!(AnchoredModulator::new(&p).is_none());
    }

    #[test]
    fn irrational_index_is_rejected() {
        // h/2 = 0.157379... has no small-denominator rational form.
        let p = GfskParams { deviation_hz: 157_379.0, ..GfskParams::default() };
        assert!(AnchoredModulator::new(&p).is_none());
    }

    #[test]
    fn anchored_matches_cumulative_up_to_residue_wrap() {
        let p = GfskParams::default();
        let am = AnchoredModulator::new(&p).unwrap();
        for (n, k, off) in [(40usize, 5usize, 0.0f64), (96, 11, 0.05), (200, 7, -0.15)] {
            let bits = test_bits(n, k);
            let ext_len = (n + 8) * 20 + 90;
            let reference = reference_ext(&bits, &p, off, ext_len);
            let mut got = Vec::new();
            am.fill_ext(&bits, off, ext_len, &mut got);
            assert_eq!(got.len(), ext_len);
            for t in 0..ext_len {
                let err = wrap_angle(got[t] - reference[t]);
                assert!(
                    err.abs() < 1e-8,
                    "n={n} k={k} off={off} t={t}: anchored {} vs cumulative {}",
                    got[t],
                    reference[t]
                );
            }
        }
    }

    #[test]
    fn fill_is_deterministic_and_restartable() {
        let p = GfskParams::default();
        let am = AnchoredModulator::new(&p).unwrap();
        let bits = test_bits(80, 3);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        am.fill_ext(&bits, 0.07, 2000, &mut a);
        am.fill_ext(&test_bits(33, 9), -0.01, 900, &mut b); // perturb scratch reuse
        am.fill_ext(&bits, 0.07, 2000, &mut b);
        assert_eq!(a, b, "refills must be bit-identical");
    }

    #[test]
    fn late_mutation_leaves_the_prefix_bit_identical() {
        // The property the template cache relies on: mutating a late bit
        // leaves every sample before its pulse window float-identical.
        let p = GfskParams::default();
        let am = AnchoredModulator::new(&p).unwrap();
        let base = test_bits(120, 5);
        let mut mutated = base.clone();
        let flip_at = 100usize;
        mutated[flip_at] = !mutated[flip_at];
        let ext_len = (120 + 8) * 20 + 50;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        am.fill_ext(&base, 0.12, ext_len, &mut a);
        am.fill_ext(&mutated, 0.12, ext_len, &mut b);
        // Bit i's pulse first touches shape sample 20i−29, i.e. stream
        // sample guard + 20i − 29; everything strictly before is untouched.
        let first_touched = 80 + 20 * flip_at - 29;
        assert_eq!(a[..first_touched], b[..first_touched]);
        assert_ne!(a[first_touched..], b[first_touched..], "mutation must show up");
    }

    #[test]
    fn suffix_fill_splices_bit_exactly_onto_a_base_fill() {
        // The template-cache fast path: keep the base fill's prefix, refill
        // only from the first mutated bit's window — the result must be
        // float-identical to a full fill of the mutated payload.
        let p = GfskParams::default();
        let am = AnchoredModulator::new(&p).unwrap();
        let base = test_bits(150, 7);
        let ext_len = (150 + 8) * 20 + 63;
        let mut base_fill = Vec::new();
        am.fill_ext(&base, 0.09, ext_len, &mut base_fill);
        for flip_at in [0usize, 1, 40, 149] {
            let mut mutated = base.clone();
            mutated[flip_at] = !mutated[flip_at];
            let mut want = Vec::new();
            am.fill_ext(&mutated, 0.09, ext_len, &mut want);
            let t0 = am.first_sample_of_bit(flip_at).min(ext_len);
            let mut got = base_fill.clone();
            am.fill_ext_from(&mutated, 0.09, t0, &mut got);
            assert_eq!(got, want, "flip_at={flip_at} t0={t0}");
        }
    }

    #[test]
    fn guard_region_is_a_pure_carrier_ramp() {
        let p = GfskParams::default();
        let am = AnchoredModulator::new(&p).unwrap();
        let bits = test_bits(30, 2);
        let mut out = Vec::new();
        am.fill_ext(&bits, 0.25, 1000, &mut out);
        assert_eq!(out[0], 0.0);
        // Deep in the leading guard (before any pulse tail reaches in) the
        // phase is exactly the offset ramp.
        for t in 0..40 {
            let ramp = 2.0 * std::f64::consts::PI * 0.25 * t as f64;
            assert!((out[t] - ramp).abs() < 1e-12, "t={t}");
        }
    }
}
