//! Gaussian pulse shaping for GFSK.
//!
//! Bluetooth BR applies a Gaussian filter with bandwidth-time product
//! `BT = 0.5` to the rectangular frequency pulses before FM modulation.
//! The pulse here is the standard closed form: the impulse response of a
//! Gaussian low-pass with 3 dB bandwidth `B = BT / T`, sampled at `sps`
//! samples per symbol and truncated to `span` symbols.

use std::f64::consts::PI;

/// Gaussian filter taps for GFSK pulse shaping.
///
/// * `bt` — bandwidth-time product (0.5 for Bluetooth BR, 0.3 for GSM).
/// * `sps` — samples per symbol (20 at the 20 MHz WiFi sampling rate).
/// * `span` — filter length in symbols (odd lengths keep symmetry; 3 is
///   plenty for BT = 0.5).
///
/// Taps are normalized to unit sum so that a long run of identical bits
/// reaches the full ±1 frequency deviation.
pub fn gaussian_taps(bt: f64, sps: usize, span: usize) -> Vec<f64> {
    assert!(bt > 0.0, "BT product must be positive");
    assert!(sps >= 1 && span >= 1);
    let n = tap_count(sps, span);
    let mid = (n / 2) as f64;
    // alpha from the Gaussian LPF: h(t) ∝ exp(-t²·2π²B²/ln2), B = bt/T.
    let b = bt / sps as f64; // cycles per sample
    let k = 2.0 * PI * PI * b * b / (2.0f64).ln();
    let mut taps: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 - mid;
            (-k * t * t).exp()
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    taps
}

/// Length of [`gaussian_taps`]`(_, sps, span)`: `sps·span`, made odd so
/// the filter has a center tap.
pub fn tap_count(sps: usize, span: usize) -> usize {
    let n = sps * span;
    if n.is_multiple_of(2) {
        n + 1
    } else {
        n
    }
}

/// The NRZ convolution of a ±1 bit sequence with the Gaussian taps,
/// tabulated per sample phase and per pattern of the bits the filter window
/// covers.
///
/// Output sample `n = b·sps + p` is the ordered sum over `k` of
/// `taps[k]·(±1)`, the sign taken from bit `⌊(n + delay − k)/sps⌋`
/// (`delay = taps.len()/2`, bit index clamped to the sequence: the edge
/// extension). For a fixed phase `p` those bit indices are `b + lo(p) …
/// b + hi(p)`, at most `span + 1` bits, so the sum depends only on `p` and
/// on that bit pattern. [`PulseTable::new`] sums every (phase, pattern)
/// entry once, with the same expression in the same `k` order as a direct
/// convolution, which makes [`PulseTable::shape_into`] — one table load and
/// one multiply per sample — bit-identical to it. At `sps = 20` and
/// 61 taps the table holds 20 × 16 entries (2.5 KiB).
#[derive(Debug, Clone)]
pub struct PulseTable {
    sps: usize,
    /// Bits per window pattern: the widest `hi(p) − lo(p) + 1`.
    width: u32,
    /// `lo(0)`, the lowest bit offset any phase reads.
    lo: isize,
    /// Bits gathered per input bit: `hi(sps − 1) − lo(0) + 1`.
    reach: usize,
    /// Per phase `p`: `lo(p) − lo(0)`, the shift that aligns the gathered
    /// bits with that phase's pattern.
    shift: Vec<u32>,
    /// `entries[p << width | pattern]`; pattern bit `j` is bit `b + lo(p) + j`.
    entries: Vec<f64>,
}

impl PulseTable {
    /// Tabulates the NRZ convolution with `taps` at `sps` samples per bit.
    pub fn new(taps: &[f64], sps: usize) -> PulseTable {
        assert!(sps >= 1 && !taps.is_empty());
        let s = sps as isize;
        let delay = (taps.len() / 2) as isize;
        let last_k = taps.len() as isize - 1;
        // Bit offsets (from the sample's own bit) covered at phase p.
        let lo = |p: isize| (p + delay - last_k).div_euclid(s);
        let hi = |p: isize| (p + delay).div_euclid(s);
        let width = (0..s).map(|p| hi(p) - lo(p) + 1).max().unwrap_or(1) as u32;
        let reach = (hi(s - 1) - lo(0) + 1) as usize;
        assert!(reach <= 16, "filter spans {reach} bits; a pulse table holds at most 16");
        let mut entries = Vec::with_capacity(sps << width);
        let mut bit_of_tap = vec![0usize; taps.len()];
        for p in 0..s {
            // Pattern bit that sets the sign of tap k at this phase.
            for (k, j) in bit_of_tap.iter_mut().enumerate() {
                *j = ((p + delay - k as isize).div_euclid(s) - lo(p)) as usize;
            }
            for pattern in 0..1usize << width {
                let sign = |k: usize| -> f64 {
                    if pattern >> bit_of_tap[k] & 1 == 1 {
                        1.0
                    } else {
                        -1.0
                    }
                };
                entries.push(taps.iter().enumerate().map(|(k, &t)| t * sign(k)).sum());
            }
        }
        let shift = (0..s).map(|p| (lo(p) - lo(0)) as u32).collect();
        PulseTable { sps, width, lo: lo(0), reach, shift, entries }
    }

    /// Shapes `bits` from bit `first` on and writes the `scale`-multiplied
    /// samples into `out`, which must be exactly `(bits.len() − first)·sps`
    /// long. Sample `k` of `out` is sample `first·sps + k` of the whole
    /// sequence's shaping: the filter windows still read (and edge-clamp
    /// to) all of `bits`, so a suffix shaped this way is bit-identical to
    /// the same span of a shaping from bit 0.
    pub fn shape_into(&self, bits: &[bool], first: usize, scale: f64, out: &mut [f64]) {
        assert!(first <= bits.len(), "first bit {first} past the end of {} bits", bits.len());
        assert_eq!(
            out.len(),
            (bits.len() - first) * self.sps,
            "output must hold (bits.len() - first)*sps samples"
        );
        let last = bits.len() as isize - 1;
        let mask = (1usize << self.width) - 1;
        for (b, samples) in (first..).zip(out.chunks_exact_mut(self.sps)) {
            let window = (0..self.reach).fold(0usize, |w, j| {
                let i = (b as isize + self.lo + j as isize).clamp(0, last);
                w | (bits[i as usize] as usize) << j
            });
            let rows = self.entries.chunks_exact(mask + 1);
            for ((slot, &shift), row) in samples.iter_mut().zip(&self.shift).zip(rows) {
                *slot = row[window >> shift & mask] * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shapes a ±1 bit sequence into a frequency pulse train through a
    /// [`PulseTable`]: each bit held for `sps` samples (NRZ), convolved with
    /// the Gaussian taps, the center of bit `i` at sample `i*sps + sps/2`,
    /// and bits past either end repeating the edge bit.
    fn shape_bits(bits: &[bool], bt: f64, sps: usize, span: usize) -> Vec<f64> {
        let table = PulseTable::new(&gaussian_taps(bt, sps, span), sps);
        let mut out = vec![0.0; bits.len() * sps];
        table.shape_into(bits, 0, 1.0, &mut out);
        out
    }

    /// The direct convolution: the oracle the table must match bit for bit.
    fn reference(bits: &[bool], taps: &[f64], sps: usize, scale: f64, out: &mut [f64]) {
        let delay = taps.len() / 2;
        let n = bits.len() * sps;
        assert_eq!(out.len(), n, "output must hold bits.len()*sps samples");
        let nrz = |i: isize| -> f64 {
            if i < 0 || i as usize >= n {
                if bits.is_empty() {
                    return 0.0;
                }
                let b = if i < 0 { bits[0] } else { bits[bits.len() - 1] };
                return if b { 1.0 } else { -1.0 };
            }
            if bits[i as usize / sps] {
                1.0
            } else {
                -1.0
            }
        };
        for (out_i, slot) in out.iter_mut().enumerate() {
            let s: f64 = taps
                .iter()
                .enumerate()
                .map(|(k, &t)| t * nrz(out_i as isize + delay as isize - k as isize))
                .sum();
            *slot = s * scale;
        }
    }

    #[test]
    fn pulse_table_is_bit_exact_against_the_direct_convolution() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut coin = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        };
        for (bt, sps, span) in [
            (0.5, 20, 3),
            (0.5, 8, 4),
            (0.3, 20, 5),
            (0.5, 1, 3),
            (0.5, 3, 1),
            (0.5, 20, 1),
        ] {
            let taps = gaussian_taps(bt, sps, span);
            let table = PulseTable::new(&taps, sps);
            for len in [0usize, 1, 2, 3, 5, 17, 400] {
                let bits: Vec<bool> = (0..len).map(|_| coin()).collect();
                for scale in [1.0, 0.008] {
                    let mut want = vec![0.0; len * sps];
                    let mut got = vec![f64::NAN; len * sps];
                    reference(&bits, &taps, sps, scale, &mut want);
                    table.shape_into(&bits, 0, scale, &mut got);
                    let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                    let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "bt {bt} sps {sps} span {span} len {len}");
                    // A suffix shaped from any first bit is the same span
                    // of the whole shaping, to the bit.
                    for first in [0, len / 3, len.saturating_sub(1), len] {
                        let mut tail = vec![f64::NAN; (len - first) * sps];
                        table.shape_into(&bits, first, scale, &mut tail);
                        let tail: Vec<u64> = tail.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(tail, want[first * sps..], "first {first} of {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn taps_are_symmetric_and_normalized() {
        let t = gaussian_taps(0.5, 20, 3);
        let sum: f64 = t.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for i in 0..t.len() / 2 {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-12);
        }
        // Peak at the center.
        let mid = t.len() / 2;
        assert!(t.iter().all(|&v| v <= t[mid] + 1e-15));
    }

    #[test]
    fn long_run_reaches_full_deviation() {
        let bits = vec![true; 8];
        let f = shape_bits(&bits, 0.5, 20, 3);
        // Middle of the run: frequency pulse saturates at +1.
        assert!((f[4 * 20] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn alternating_bits_never_reach_full_deviation() {
        let bits: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
        let f = shape_bits(&bits, 0.5, 20, 3);
        // Interior only: the first/last bit are edge-extended by design and
        // behave like a long run.
        let interior = &f[4 * 20..12 * 20];
        let peak = interior.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        // Gaussian ISI with BT=0.5 rounds off alternating bits (theory: a
        // single-bit pulse peaks at ~0.93, neighbors subtract ~0.03 each).
        assert!(peak < 0.93, "peak {peak}");
        assert!(peak > 0.5, "peak {peak}");
    }

    #[test]
    fn bit_centers_carry_the_bit_sign() {
        let bits = vec![true, false, false, true, true, false, true, false];
        let f = shape_bits(&bits, 0.5, 20, 3);
        for (i, &b) in bits.iter().enumerate() {
            let v = f[i * 20 + 10];
            assert!(
                (v > 0.0) == b,
                "bit {i} center value {v} disagrees with bit {b}"
            );
        }
    }

    #[test]
    fn output_length_is_bits_times_sps() {
        let bits = vec![true; 5];
        assert_eq!(shape_bits(&bits, 0.5, 20, 3).len(), 100);
        assert_eq!(shape_bits(&bits, 0.5, 8, 4).len(), 40);
    }

    #[test]
    fn smaller_bt_spreads_pulse_more() {
        let one_bit = vec![false, false, true, false, false];
        let tight = shape_bits(&one_bit, 0.5, 20, 5);
        let loose = shape_bits(&one_bit, 0.3, 20, 5);
        // At the neighboring bit center, the low-BT pulse leaks more energy
        // upward (closer to +1 than the BT=0.5 pulse).
        let c = 20 + 10; // bit 1's center, at 20 samples per bit
        assert!(loose[c] > tight[c]);
    }
}
