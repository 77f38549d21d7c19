//! Randomized-property tests for the 802.11n TX-chain invariants, on the
//! in-tree `bluefi_core::check` harness.

use bluefi_core::check::{bools, bytes, check};
use bluefi_core::rng::Rng;
use bluefi_core::{prop_assert, prop_assert_eq};
use bluefi_dsp::cx;
use bluefi_dsp::fft::fft_plan;
use bluefi_wifi::channels::{plan_channel, MAX_SNAP_SUBCARRIERS};
use bluefi_wifi::ofdm::{modulate_symbol, stitch_symbols};
use bluefi_wifi::qam::{demap_point_into, map_bits, quantize_point, Modulation};
use bluefi_wifi::subcarriers::FFT_SIZE;
use bluefi_wifi::tx::{coded_bits, scrambled_bits, symbol_spectrum, waveform_from_coded, TxConfig};
use bluefi_wifi::{GuardInterval, Interleaver, Mcs};

#[test]
fn interleaver_roundtrip() {
    check(
        "interleaver_roundtrip",
        |rng| (bools(rng, 312..313), rng.gen_range(0usize..4)),
        |(bits, m)| {
            let modulation =
                [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64][*m];
            let il = Interleaver::new(modulation);
            let block = &bits[..il.block_len()];
            let mut back = Vec::new();
            il.deinterleave_into(&il.interleave(block), &mut back);
            prop_assert_eq!(back, block.to_vec());
            Ok(())
        },
    );
}

#[test]
fn qam_map_demap_roundtrip() {
    check(
        "qam_map_demap_roundtrip",
        |rng| (rng.gen::<u16>(), rng.gen_range(0usize..6)),
        |&(v, m)| {
            let modulation = [
                Modulation::Bpsk,
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam64,
                Modulation::Qam256,
                Modulation::Qam1024,
            ][m];
            let n = modulation.bits_per_symbol();
            let bits: Vec<bool> = (0..n).map(|i| (v >> (i % 16)) & 1 == 1).collect();
            let p = map_bits(modulation, &bits);
            let mut got = Vec::new();
            demap_point_into(modulation, p, &mut got);
            prop_assert_eq!(got, bits);
            Ok(())
        },
    );
}

#[test]
fn quantizer_is_locally_optimal() {
    check(
        "quantizer_is_locally_optimal",
        |rng| (rng.gen_range(-12.0..12.0), rng.gen_range(-12.0..12.0)),
        |&(re, im)| {
            // No other 64-QAM point is closer than the chosen one.
            let x = cx(re, im);
            let q = quantize_point(x, Modulation::Qam64);
            let chosen = (x - q).norm_sq();
            for dre in [-2.0, 0.0, 2.0] {
                for dim in [-2.0, 0.0, 2.0] {
                    let alt = cx(q.re + dre, q.im + dim);
                    if alt.re.abs() <= 7.0 && alt.im.abs() <= 7.0 {
                        prop_assert!((x - alt).norm_sq() >= chosen - 1e-9);
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn scrambled_stream_keeps_tail_zero() {
    check(
        "scrambled_stream_keeps_tail_zero",
        |rng| (bytes(rng, 1..200), rng.gen_range(1u8..128)),
        |(psdu, seed)| {
            let mcs = Mcs::from_index(7);
            let s = scrambled_bits(psdu, *seed, mcs);
            prop_assert_eq!(s.len() % mcs.data_bits_per_symbol(), 0);
            let tail_start = 16 + psdu.len() * 8;
            for (i, &bit) in s.iter().enumerate().skip(tail_start).take(6) {
                prop_assert!(!bit, "tail bit {} nonzero", i);
            }
            Ok(())
        },
    );
}

#[test]
fn coded_stream_length_matches_rate() {
    check(
        "coded_stream_length_matches_rate",
        |rng| (bytes(rng, 1..100), rng.gen_range(0u8..8)),
        |(psdu, idx)| {
            let mcs = Mcs::from_index(*idx);
            let s = scrambled_bits(psdu, 1, mcs);
            let c = coded_bits(&s, mcs);
            let (num, den) = mcs.rate.ratio();
            prop_assert_eq!(c.len(), s.len() * den / num);
            prop_assert_eq!(c.len() % mcs.coded_bits_per_symbol(), 0);
            Ok(())
        },
    );
}

#[test]
fn every_symbol_spectrum_respects_nulls_and_pilots() {
    check(
        "every_symbol_spectrum_respects_nulls_and_pilots",
        |rng| (bools(rng, 312..313), rng.gen_range(0usize..40)),
        |(coded, sym)| {
            let spec = symbol_spectrum(coded, Mcs::from_index(7), *sym);
            // DC and guards are zero.
            prop_assert_eq!(spec[0], bluefi_dsp::Cx::ZERO);
            for &v in &spec[29..=35] {
                prop_assert_eq!(v, bluefi_dsp::Cx::ZERO);
            }
            // Pilots are ±sqrt(42), purely real.
            for bin in [7usize, 57, 21, 43] {
                prop_assert!((spec[bin].abs() - 42f64.sqrt()).abs() < 1e-9);
                prop_assert!(spec[bin].im.abs() < 1e-12);
            }
            Ok(())
        },
    );
}

#[test]
fn streamed_waveform_equals_composed_symbols() {
    // `waveform_from_coded` reuses its buffers from symbol to symbol; a
    // stale buffer would make it drift from the per-symbol composition.
    check(
        "streamed_waveform_equals_composed_symbols",
        |rng| {
            let n_sym = rng.gen_range(1usize..13);
            let cfg = TxConfig {
                mcs: Mcs::from_index([5, 7][rng.gen_range(0usize..2)]),
                gi: [GuardInterval::Short, GuardInterval::Long][rng.gen_range(0usize..2)],
                scrambler_seed: 1,
                windowing: rng.gen(),
            };
            let ncbps = cfg.mcs.coded_bits_per_symbol();
            (bools(rng, n_sym * ncbps..n_sym * ncbps + 1), cfg)
        },
        |(coded, cfg)| {
            let plan = fft_plan(FFT_SIZE);
            let symbols: Vec<_> = coded
                .chunks_exact(cfg.mcs.coded_bits_per_symbol())
                .enumerate()
                .map(|(n, c)| modulate_symbol(&plan, &symbol_spectrum(c, cfg.mcs, n), cfg.gi))
                .collect();
            let composed = stitch_symbols(&symbols, cfg.gi, cfg.windowing);
            prop_assert!(waveform_from_coded(coded, cfg) == composed, "streamed waveform differs");
            Ok(())
        },
    );
}

#[test]
fn planning_respects_carrier_tolerance() {
    check(
        "planning_respects_carrier_tolerance",
        |rng| rng.gen_range(2404.0..2480.0),
        |&freq_mhz| {
            if let Some(plan) = plan_channel(freq_mhz * 1e6) {
                prop_assert!(
                    (plan.tx_subcarrier - plan.subcarrier).abs() <= MAX_SNAP_SUBCARRIERS + 1e-9
                );
                prop_assert!(plan.subcarrier.abs() <= 26.0);
                prop_assert!(plan.clearance >= 0.0);
            }
            Ok(())
        },
    );
}
