//! The HT data-field transmit pipeline (Fig 1 of the paper): scrambler →
//! BCC encoder (+ puncturing) → interleaver → QAM → pilots/nulls → IFFT →
//! CP insertion → windowing.
//!
//! Every stage is exposed individually so `bluefi-core` can reverse them
//! block-by-block.

use crate::interleaver::Interleaver;
use crate::mcs::Mcs;
use crate::ofdm::{append_symbol, modulate_symbol_into, GuardInterval};
use crate::pilots::ht_pilot_values;
use crate::qam::map_bits;
use crate::subcarriers::{subcarrier_of_data_index, FFT_SIZE, N_DATA, PILOT_SUBCARRIERS};
use bluefi_coding::lfsr::scramble;
use bluefi_coding::puncture::puncture;
use bluefi_coding::ConvEncoder;
use bluefi_dsp::bits::bytes_to_bits_lsb;
use bluefi_dsp::fft::{bin_of_subcarrier, fft_plan};
use bluefi_dsp::{cx, Cx};

/// Transmit-chain configuration.
#[derive(Debug, Clone, Copy)]
pub struct TxConfig {
    /// Modulation and coding scheme.
    pub mcs: Mcs,
    /// Guard interval (BlueFi requires [`GuardInterval::Short`]).
    pub gi: GuardInterval,
    /// Scrambler seed the chip will use (1..=127).
    pub scrambler_seed: u8,
    /// Whether the chip applies per-symbol windowing (COTS chips: yes;
    /// USRP-style SDR: no).
    pub windowing: bool,
}

impl TxConfig {
    /// The configuration BlueFi drives real chips with: MCS 7, SGI,
    /// windowing on.
    pub fn bluefi_default(scrambler_seed: u8) -> TxConfig {
        TxConfig {
            mcs: Mcs::bluefi_viterbi(),
            gi: GuardInterval::Short,
            scrambler_seed,
            windowing: true,
        }
    }
}

/// Stage 1 — bit assembly and scrambling (17.3.5.5): SERVICE (16 zero
/// bits) + PSDU + 6 tail bits + pad to a symbol boundary, scrambled; the
/// tail positions are re-zeroed after scrambling so the encoder flushes.
pub fn scrambled_bits(psdu: &[u8], seed: u8, mcs: Mcs) -> Vec<bool> {
    let mut bits = vec![false; 16];
    bits.extend(bytes_to_bits_lsb(psdu));
    let tail_start = bits.len();
    bits.extend([false; 6]);
    let ndbps = mcs.data_bits_per_symbol();
    while !bits.len().is_multiple_of(ndbps) {
        bits.push(false);
    }
    let mut s = scramble(seed, &bits);
    for b in &mut s[tail_start..tail_start + 6] {
        *b = false;
    }
    s
}

/// Stage 2 — FEC encoding and puncturing to the MCS code rate.
pub fn coded_bits(scrambled: &[bool], mcs: Mcs) -> Vec<bool> {
    puncture(mcs.rate, &ConvEncoder::new().encode(scrambled))
}

/// Stage 3 — one OFDM symbol's frequency-domain samples (64 bins, FFT
/// order, unnormalized constellation units) from one symbol's worth of
/// coded bits. `symbol_index` selects the pilot polarity.
pub fn symbol_spectrum(coded: &[bool], mcs: Mcs, symbol_index: usize) -> Vec<Cx> {
    let il = Interleaver::new(mcs.modulation);
    let mut out = Vec::new();
    spectrum_into(&il, coded, mcs, symbol_index, &mut Vec::new(), &mut out);
    out
}

/// Assembles [`symbol_spectrum`] into `out` through `il` (built for
/// `mcs.modulation`), with `interleaved` as the interleaver's buffer.
fn spectrum_into(
    il: &Interleaver,
    coded: &[bool],
    mcs: Mcs,
    symbol_index: usize,
    interleaved: &mut Vec<bool>,
    out: &mut Vec<Cx>,
) {
    assert_eq!(coded.len(), il.block_len(), "one symbol of coded bits");
    il.interleave_into(coded, interleaved);
    let nbpsc = mcs.modulation.bits_per_symbol();
    bluefi_dsp::contracts::ensure_len(out, FFT_SIZE, Cx::ZERO);
    for d in 0..N_DATA {
        let point = map_bits(mcs.modulation, &interleaved[d * nbpsc..(d + 1) * nbpsc]);
        out[bin_of_subcarrier(subcarrier_of_data_index(d), FFT_SIZE)] = point;
    }
    // Pilots: ±1 in normalized units = ±1/K_MOD in constellation units.
    let pilot_scale = 1.0 / mcs.modulation.kmod();
    for (m, &sc) in PILOT_SUBCARRIERS.iter().enumerate() {
        let v = ht_pilot_values(symbol_index)[m] * pilot_scale;
        out[bin_of_subcarrier(sc, FFT_SIZE)] = cx(v, 0.0);
    }
}

/// The full data-field waveform for a PSDU. Returns 20 Msps IQ samples in
/// unnormalized units (average power ≈ `52/64·(1/K_MOD)²`; scale at the
/// radio model).
pub fn data_field(psdu: &[u8], cfg: &TxConfig) -> Vec<Cx> {
    let scrambled = scrambled_bits(psdu, cfg.scrambler_seed, cfg.mcs);
    let coded = coded_bits(&scrambled, cfg.mcs);
    waveform_from_coded(&coded, cfg)
}

/// Lower-level entry: data-field waveform from already-coded bits (must be
/// a multiple of N_CBPS), assembled symbol by symbol through the cached FFT
/// plan and buffers reused across symbols.
pub fn waveform_from_coded(coded: &[bool], cfg: &TxConfig) -> Vec<Cx> {
    let ncbps = cfg.mcs.coded_bits_per_symbol();
    assert_eq!(coded.len() % ncbps, 0, "coded bits must fill whole symbols");
    let n_sym = coded.len() / ncbps;
    let plan = fft_plan(FFT_SIZE);
    // Interleaver::new runs its bijectivity contract in debug builds, so
    // it is built once, outside the symbol loop.
    let il = Interleaver::new(cfg.mcs.modulation);
    let mut out = Vec::with_capacity(n_sym * cfg.gi.symbol_len());
    let (mut interleaved, mut spectrum, mut symbol) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev_ext: Option<Cx> = None;
    for (n, chunk) in coded.chunks_exact(ncbps).enumerate() {
        spectrum_into(&il, chunk, cfg.mcs, n, &mut interleaved, &mut spectrum);
        modulate_symbol_into(&plan, &spectrum, cfg.gi, &mut symbol);
        append_symbol(&mut out, &symbol, cfg.gi, cfg.windowing, prev_ext);
        prev_ext = Some(symbol[cfg.gi.len()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluefi_coding::lfsr::recover_seed;
    use bluefi_dsp::power::mean_power;

    fn cfg() -> TxConfig {
        TxConfig::bluefi_default(71)
    }

    #[test]
    fn scrambled_bits_layout() {
        let mcs = Mcs::from_index(7);
        let s = scrambled_bits(&[0xAB; 30], 71, mcs);
        // 16 + 240 + 6 = 262 -> padded to 2 symbols of 260.
        assert_eq!(s.len(), 520);
        // Tail bits (positions 256..262) are zero.
        for (i, &bit) in s.iter().enumerate().take(262).skip(256) {
            assert!(!bit, "tail bit {i}");
        }
        // The seed is recoverable from the scrambled SERVICE field.
        assert_eq!(recover_seed(&s[..7]), Some(71));
    }

    #[test]
    fn coded_length_matches_rate() {
        let mcs = Mcs::from_index(7);
        let s = scrambled_bits(&[0u8; 29], 1, mcs); // 254 -> 260 bits, 1 symbol
        assert_eq!(s.len(), 260);
        let c = coded_bits(&s, mcs);
        assert_eq!(c.len(), 312);
    }

    #[test]
    fn spectrum_has_pilots_nulls_and_data() {
        let mcs = Mcs::from_index(7);
        let coded: Vec<bool> = (0..312).map(|i| i % 3 == 0).collect();
        let spec = symbol_spectrum(&coded, mcs, 0);
        assert_eq!(spec.len(), 64);
        // DC null.
        assert_eq!(spec[0], Cx::ZERO);
        // Guard nulls.
        for (k, &v) in spec.iter().enumerate().take(36).skip(29) {
            assert_eq!(v, Cx::ZERO, "bin {k}");
        }
        // Pilot magnitude = sqrt(42).
        let p = spec[7].abs();
        assert!((p - 42f64.sqrt()).abs() < 1e-9, "pilot magnitude {p}");
        // Data subcarriers are odd-integer grid points.
        let d = spec[1];
        assert!((d.re.abs() as i64) % 2 == 1 && (d.im.abs() as i64) % 2 == 1);
    }

    #[test]
    fn waveform_length() {
        let w = data_field(&[0x55; 29], &cfg()); // 1 symbol at MCS7
        assert_eq!(w.len(), 72);
        let w = data_field(&[0x55; 100], &cfg()); // 16+800+6=822 -> 4 symbols
        assert_eq!(w.len(), 4 * 72);
    }

    #[test]
    fn long_gi_symbols_are_80_samples() {
        let mut c = cfg();
        c.gi = GuardInterval::Long;
        let w = data_field(&[0x55; 29], &c);
        assert_eq!(w.len(), 80);
    }

    #[test]
    fn different_seeds_give_different_waveforms() {
        let mut a = cfg();
        a.scrambler_seed = 1;
        let mut b = cfg();
        b.scrambler_seed = 2;
        let wa = data_field(&[0xAA; 29], &a);
        let wb = data_field(&[0xAA; 29], &b);
        let diff: f64 = wa.iter().zip(&wb).map(|(x, y)| (*x - *y).norm_sq()).sum();
        assert!(diff > 1.0);
    }

    #[test]
    fn average_power_is_near_nominal() {
        // 56 populated subcarriers with average |X|² = 42 (unnormalized
        // 64-QAM), through a 1/64 IFFT: E|x|² = 56·42/64² ≈ 0.574.
        let w = data_field(&[0x3C; 200], &cfg());
        let p = mean_power(&w);
        assert!((p - 0.574).abs() < 0.1, "power {p}");
    }

    #[test]
    fn windowing_changes_symbol_boundaries_only() {
        let mut with = cfg();
        with.windowing = true;
        let mut without = cfg();
        without.windowing = false;
        let a = data_field(&[0x77; 100], &with);
        let b = data_field(&[0x77; 100], &without);
        let mut ndiff = 0;
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            if (*x - *y).abs() > 1e-12 {
                assert_eq!(i % 72, 0, "non-boundary sample {i} changed");
                ndiff += 1;
            }
        }
        assert_eq!(ndiff, 3, "one boundary per symbol after the first");
    }
}
