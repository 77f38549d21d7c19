//! GFSK modulation (Bluetooth BR basic rate, Vol 2 Part A 3.1).
//!
//! Bits are shaped with a Gaussian filter (BT = 0.5) and frequency-modulated
//! with deviation `±f_d` (spec: modulation index 0.28–0.35, i.e.
//! `f_d = h/2 · 1 Mb/s` ≈ 140–175 kHz; we default to 160 kHz, h = 0.32).
//! At the 20 MHz WiFi sampling rate each 1 µs bit spans 20 samples — the
//! ratio BlueFi's "one OFDM symbol ≈ 4 Bluetooth bits" bookkeeping comes
//! from.

use bluefi_dsp::gaussian::{gaussian_taps, tap_count, PulseTable};
use bluefi_dsp::phase::phase_to_iq;
use bluefi_dsp::Cx;
use std::f64::consts::PI;

/// Gaussian filter span in symbols (plenty for BT = 0.5).
const FILTER_SPAN: usize = 3;

/// GFSK modulator parameters.
#[derive(Debug, Clone, Copy)]
pub struct GfskParams {
    /// Sample rate in Hz (20 MHz to match WiFi hardware).
    pub sample_rate_hz: f64,
    /// Symbol rate in Hz (1 MHz for BR/BLE-1M).
    pub symbol_rate_hz: f64,
    /// Frequency deviation in Hz (positive for bit 1).
    pub deviation_hz: f64,
    /// Gaussian bandwidth-time product.
    pub bt: f64,
    /// Zero-frequency guard bits prepended/appended (paper Sec 2.3:
    /// "we insert 0's to the front and to the back of the frequency
    /// signal since we observed such a pattern on commercial chips").
    pub guard_bits: usize,
}

impl Default for GfskParams {
    fn default() -> GfskParams {
        GfskParams {
            sample_rate_hz: 20e6,
            symbol_rate_hz: 1e6,
            deviation_hz: 160e3,
            bt: 0.5,
            guard_bits: 4,
        }
    }
}

impl GfskParams {
    /// Samples per symbol (must divide evenly; 20 at the defaults).
    pub fn sps(&self) -> usize {
        let sps = self.sample_rate_hz / self.symbol_rate_hz;
        assert!(
            (sps - sps.round()).abs() < 1e-9 && sps >= 1.0,
            "sample rate must be an integer multiple of the symbol rate"
        );
        sps.round() as usize
    }

    /// Modulation index h = 2·f_d / symbol rate.
    pub fn modulation_index(&self) -> f64 {
        2.0 * self.deviation_hz / self.symbol_rate_hz
    }

    /// First phase sample that can depend on bit `i`:
    /// `guard + sps·i − taps/2 + 1`, saturating at 0. The filter first
    /// reads bit `i` at shape sample `sps·i − taps/2` (its lowest tap), and
    /// phase sample `t` accumulates frequency samples `< t` only. Every
    /// phase sample before this index is therefore bit-identical across
    /// payloads that agree on all bits `< i`. The edge clamp lets the
    /// first bits (`sps·i < taps/2`) reach shape sample 0, whose first
    /// phase sample, `guard + 1`, is still at or after this index.
    pub fn first_sample_of_bit(&self, i: usize) -> usize {
        let sps = self.sps();
        (self.guard_bits * sps + sps * i + 1).saturating_sub(tap_count(sps, FILTER_SPAN) / 2)
    }
}

/// Reusable state for allocation-free GFSK modulation: the Gaussian pulse
/// table (cached per parameter set), the intermediate frequency buffer and
/// the accumulator at each bit boundary. One scratch per worker thread;
/// after the first packet of a given length, modulation through the same
/// scratch is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct GfskScratch {
    // The pulse table and the (bt bit-pattern, sps) it was built for.
    pulse: Option<((u64, usize), PulseTable)>,
    freq: Vec<f64>,
    bit_acc: Vec<f64>,
}

impl GfskScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> GfskScratch {
        GfskScratch::default()
    }

    /// Scratch-buffer variant of [`modulate_phase`]: the accumulation of
    /// [`GfskScratch::resume_phase_into`] started at bit 0.
    pub fn modulate_phase_into(
        &mut self,
        bits: &[bool],
        p: &GfskParams,
        center_offset_hz: f64,
        out: &mut Vec<f64>,
    ) {
        self.resume_phase_into(bits, p, center_offset_hz, 0, 0.0, out);
    }

    /// The one GFSK accumulation loop, started at bit boundary `first_bit`
    /// with the un-offset accumulator `acc` it had there.
    ///
    /// `out` is sized to the packet (guard bits on both ends included) and
    /// written from sample `guard + first_bit·sps` on — from sample 0 when
    /// `first_bit` is 0; earlier samples are left as they were, for a
    /// caller that keeps them from the payload it resumes. Sample `t` is
    /// `acc_t + 2π·off·t`, where `acc_t` is the sum of `2π·f` over the
    /// frequency samples before `t` (zero in the guards) and `off` is
    /// `center_offset_hz` in cycles/sample: the paper's Sec 2.3 frequency
    /// accumulation followed by its offset "modulating operation", in the
    /// same operations and order as
    /// [`bluefi_dsp::phase::accumulate_frequency`] followed by
    /// [`bluefi_dsp::phase::add_frequency_offset`].
    ///
    /// The loop records `acc_t` at every bit boundary `t = guard + k·sps`,
    /// `k = first_bit..=bits.len()`, in
    /// [`GfskScratch::bit_accumulators`]. Resuming at `k` with the value
    /// recorded for a payload that agrees on every bit that reaches the
    /// samples before that boundary (see
    /// [`GfskParams::first_sample_of_bit`]) writes exactly what modulating
    /// from bit 0 would.
    pub fn resume_phase_into(
        &mut self,
        bits: &[bool],
        p: &GfskParams,
        center_offset_hz: f64,
        first_bit: usize,
        mut acc: f64,
        out: &mut Vec<f64>,
    ) {
        let sps = p.sps();
        let n = bits.len();
        assert!(first_bit <= n, "first bit {first_bit} past the end of {n} bits");
        let key = (p.bt.to_bits(), sps);
        let table = match &mut self.pulse {
            Some((k, table)) if *k == key => table,
            slot => {
                bluefi_dsp::contracts::probe_alloc();
                let taps = gaussian_taps(p.bt, sps, FILTER_SPAN);
                &mut slot.insert((key, PulseTable::new(&taps, sps))).1
            }
        };
        bluefi_dsp::contracts::ensure_len_keeping(&mut self.freq, (n - first_bit) * sps, 0.0);
        table.shape_into(bits, first_bit, p.deviation_hz / p.sample_rate_hz, &mut self.freq);
        bluefi_dsp::contracts::ensure_len(&mut self.bit_acc, n + 1, 0.0);

        let guard = p.guard_bits * sps;
        bluefi_dsp::contracts::ensure_len_keeping(out, guard + n * sps + guard, 0.0);
        let step = 2.0 * PI * (center_offset_hz / p.sample_rate_hz);
        let shaped_from = guard + first_bit * sps;
        let (head, shaped) = out.split_at_mut(shaped_from);
        if first_bit == 0 {
            // Leading guard: zero frequency, so the accumulator holds.
            for (t, slot) in head.iter_mut().enumerate() {
                *slot = acc + step * t as f64;
            }
        }
        let mut t = shaped_from;
        let bit_acc = &mut self.bit_acc[first_bit..n];
        for ((slots, freq), at_boundary) in
            shaped.chunks_exact_mut(sps).zip(self.freq.chunks_exact(sps)).zip(bit_acc)
        {
            *at_boundary = acc;
            for (slot, &f) in slots.iter_mut().zip(freq) {
                *slot = acc + step * t as f64;
                acc += 2.0 * PI * f;
                t += 1;
            }
        }
        self.bit_acc[n] = acc;
        // Trailing guard: zero frequency again.
        for (t, slot) in out.iter_mut().enumerate().skip(guard + n * sps) {
            *slot = acc + step * t as f64;
        }
    }

    /// The un-offset accumulator at each bit boundary `guard + k·sps`,
    /// `k = 0..=bits.len()`, as the last modulation recorded it (entries
    /// below that call's first bit are zero): the value to resume at `k`
    /// with.
    pub fn bit_accumulators(&self) -> &[f64] {
        &self.bit_acc
    }
}

/// Full GFSK modulation: packet bits → phase signal (radians) at baseband,
/// optionally offset by `center_offset_hz` (the Bluetooth channel's position
/// relative to the WiFi channel center — paper Sec 2.3's "modulating
/// operation", which must precede CP construction).
pub fn modulate_phase(bits: &[bool], p: &GfskParams, center_offset_hz: f64) -> Vec<f64> {
    let mut phase = Vec::new();
    GfskScratch::new().modulate_phase_into(bits, p, center_offset_hz, &mut phase);
    phase
}

/// GFSK modulation to a unit-envelope IQ waveform.
pub fn modulate_iq(bits: &[bool], p: &GfskParams, center_offset_hz: f64) -> Vec<Cx> {
    phase_to_iq(&modulate_phase(bits, p, center_offset_hz))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluefi_core::rng::{Rng, SeedableRng, StdRng};
    use bluefi_dsp::phase::{add_frequency_offset, discriminate};

    #[test]
    fn defaults_are_bluetooth_br() {
        let p = GfskParams::default();
        assert_eq!(p.sps(), 20);
        assert!((p.modulation_index() - 0.32).abs() < 1e-12);
        assert!(
            p.modulation_index() >= 0.28 && p.modulation_index() <= 0.35,
            "spec range"
        );
    }

    #[test]
    fn waveform_length_includes_guards() {
        let p = GfskParams::default();
        let bits = vec![true; 10];
        let iq = modulate_iq(&bits, &p, 0.0);
        assert_eq!(iq.len(), (10 + 2 * p.guard_bits) * 20);
    }

    #[test]
    fn envelope_is_constant() {
        let p = GfskParams::default();
        let bits: Vec<bool> = (0..32).map(|i| i % 3 != 0).collect();
        for v in modulate_iq(&bits, &p, 1e6) {
            assert!((v.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn discriminator_recovers_bits() {
        let p = GfskParams::default();
        let bits: Vec<bool> = (0..64).map(|i| (i * 7) % 5 < 2).collect();
        let iq = modulate_iq(&bits, &p, 0.0);
        let f = discriminate(&iq);
        let guard = p.guard_bits * 20;
        for (i, &b) in bits.iter().enumerate() {
            let center = guard + i * 20 + 10;
            assert_eq!(f[center] > 0.0, b, "bit {i}");
        }
    }

    #[test]
    fn center_offset_shifts_spectrum() {
        use bluefi_dsp::fft::fft;
        let p = GfskParams::default();
        let bits: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        // Offset +4 MHz = subcarrier 12.8: spectral peak in the upper half.
        let iq = modulate_iq(&bits, &p, 4e6);
        let n = 512;
        let spec = fft(&iq[..n]);
        let peak_bin = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap()
            .0;
        // 4 MHz / 20 MHz * 512 = 102.4.
        assert!(
            (90..=115).contains(&peak_bin),
            "peak at bin {peak_bin}, expected ≈102"
        );
    }

    #[test]
    fn long_runs_hit_full_deviation() {
        let p = GfskParams::default();
        let bits = vec![true; 12];
        let iq = modulate_iq(&bits, &p, 0.0);
        let f = discriminate(&iq);
        let mid = (p.guard_bits + 6) * 20;
        let dev_cps = p.deviation_hz / p.sample_rate_hz;
        assert!((f[mid] - dev_cps).abs() < dev_cps * 0.01);
    }

    /// Direct 61-tap convolution, guard padding, accumulation and offset:
    /// the oracle the table path must match bit for bit.
    fn reference_phase(bits: &[bool], p: &GfskParams, center_offset_hz: f64) -> Vec<f64> {
        let sps = p.sps();
        let taps = gaussian_taps(p.bt, sps, FILTER_SPAN);
        let dev = p.deviation_hz / p.sample_rate_hz;
        let last = bits.len() as isize - 1;
        let guard = vec![0.0; p.guard_bits * sps];
        let shaped = (0..bits.len() * sps).map(|n| {
            let s: f64 = taps
                .iter()
                .enumerate()
                .map(|(k, &t)| {
                    let i = (n + taps.len() / 2) as isize - k as isize;
                    t * if bits[i.div_euclid(sps as isize).clamp(0, last) as usize] {
                        1.0
                    } else {
                        -1.0
                    }
                })
                .sum();
            s * dev
        });
        let freq: Vec<f64> =
            guard.iter().copied().chain(shaped).chain(guard.iter().copied()).collect();
        let mut phase = bluefi_dsp::phase::accumulate_frequency(&freq, 0.0);
        add_frequency_offset(&mut phase, center_offset_hz / p.sample_rate_hz);
        phase
    }

    fn bit_patterns(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn scratch_modulation_matches_allocating_path() {
        let p = GfskParams::default();
        let mut scratch = GfskScratch::new();
        let mut out = Vec::new();
        for (len, offset) in [(16usize, 0.0f64), (48, 1e6), (16, -2.5e6), (80, 4e6)] {
            let bits: Vec<bool> = (0..len).map(|i| (i * 11) % 5 < 2).collect();
            scratch.modulate_phase_into(&bits, &p, offset, &mut out);
            let want = bit_patterns(&reference_phase(&bits, &p, offset));
            assert_eq!(bit_patterns(&out), want, "len {len} offset {offset}");
            assert_eq!(bit_patterns(&modulate_phase(&bits, &p, offset)), want);
        }
    }

    #[test]
    fn scratch_rebuilds_its_table_when_bt_changes() {
        let mut scratch = GfskScratch::new();
        let mut out = Vec::new();
        let bits: Vec<bool> = (0..40).map(|i| (i * 7) % 3 == 0).collect();
        for bt in [0.5, 0.3, 0.5, 0.3] {
            let p = GfskParams { bt, ..GfskParams::default() };
            scratch.modulate_phase_into(&bits, &p, 1e6, &mut out);
            let mut fresh = Vec::new();
            GfskScratch::new().modulate_phase_into(&bits, &p, 1e6, &mut fresh);
            assert_eq!(bit_patterns(&out), bit_patterns(&fresh), "bt {bt}");
        }
    }

    #[test]
    fn sps_rounds_an_inexact_integer_quotient() {
        // 0.7 / 0.1 is 6.999999999999999 in f64.
        let p = GfskParams { sample_rate_hz: 0.7, symbol_rate_hz: 0.1, ..GfskParams::default() };
        assert_eq!(p.sps(), 7);
    }

    #[test]
    fn guard_bits_are_at_carrier_frequency() {
        // Both guards carry zero frequency, so with the offset removed the
        // phase is flat there — exactly 0 up to the first shaped sample,
        // and the final accumulator across the whole trailing guard.
        let p = GfskParams::default();
        let bits: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();
        let offset_hz = 2.5e6;
        let step = 2.0 * PI * (offset_hz / p.sample_rate_hz);
        let guard = p.guard_bits * 20;
        let shaped_end = guard + bits.len() * 20;
        let mut scratch = GfskScratch::new();
        let mut phase = Vec::new();
        scratch.modulate_phase_into(&bits, &p, offset_hz, &mut phase);
        let last_acc = scratch.bit_accumulators()[bits.len()];
        for (t, &v) in phase.iter().enumerate() {
            let carrier = step * t as f64;
            if t <= guard {
                assert_eq!(v.to_bits(), carrier.to_bits(), "leading guard sample {t}");
            } else if t >= shaped_end {
                assert_eq!(v.to_bits(), (last_acc + carrier).to_bits(), "trailing sample {t}");
            }
        }
    }

    /// A deterministic random payload of `len` bits.
    fn random_bits(rng: &mut StdRng, len: usize) -> Vec<bool> {
        (0..len).map(|_| rng.gen_bool(0.5)).collect()
    }

    #[test]
    fn late_mutation_leaves_the_prefix_bit_identical() {
        // Flipping bit i leaves every phase sample before
        // `first_sample_of_bit(i)` bit-identical, and the first sample that
        // moves is exactly that index — or `guard + 1` for bits 0 and 1,
        // whose edge-clamped windows reach shape sample 0 first.
        let p = GfskParams::default();
        let guard = p.guard_bits * p.sps();
        let mut rng = StdRng::seed_from_u64(0x6f5c);
        for (len, offset_hz) in [(40usize, 0.0f64), (376, 4.4e6), (97, -2.5e6)] {
            let bits = random_bits(&mut rng, len);
            let base = bit_patterns(&modulate_phase(&bits, &p, offset_hz));
            let mut flips = vec![0, 1, 2, len / 2, len - 2, len - 1];
            flips.extend((0..8).map(|_| rng.gen_range(0..len)));
            for i in flips {
                let mut mutated = bits.clone();
                mutated[i] ^= true;
                let got = bit_patterns(&modulate_phase(&mutated, &p, offset_hz));
                let first = p.first_sample_of_bit(i);
                let moved = got.iter().zip(&base).position(|(a, b)| a != b);
                assert_eq!(moved, Some(first.max(guard + 1)), "len {len} bit {i}");
            }
        }
    }
}
