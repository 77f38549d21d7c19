//! An independent 802.11n HT-20 data-field receiver — the inverse of
//! `bluefi_wifi::tx` — and the tests that decode transmitted frames with it.
//!
//! BlueFi itself only transmits, but the reproduction needs a WiFi receiver
//! in two places: to verify that the chip models emit standard-decodable
//! frames (every BlueFi packet is, after all, a legitimate 802.11n PPDU),
//! and to play the "capturing the radio signals" role of the paper's
//! Sec 2.8/3 — recovering the scrambler seed a Realtek chip uses by
//! decoding its frames off the air.
//!
//! Scope: data-field demodulation with known timing and MCS (the preamble
//! length locates the field; fine CFO/channel estimation is unnecessary
//! over the simulated link).

use bluefi_coding::lfsr::{recover_seed, scramble};
use bluefi_coding::viterbi::decode_punctured;
use bluefi_dsp::bits::bits_to_bytes_lsb;
use bluefi_dsp::fft::{bin_of_subcarrier, fft_plan};
use bluefi_dsp::Cx;
use bluefi_wifi::chip::ChipModel;
use bluefi_wifi::qam::demap_point_into;
use bluefi_wifi::subcarriers::{data_subcarriers, FFT_SIZE};
use bluefi_wifi::tx::{data_field, TxConfig};
use bluefi_wifi::{GuardInterval, Interleaver, Mcs};

/// Result of decoding a data field.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RxFrame {
    /// Recovered PSDU bytes.
    psdu: Vec<u8>,
    /// The scrambler seed the transmitter used (recovered from the SERVICE
    /// field).
    seed: u8,
}

/// Errors from [`decode_data_field`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum RxError {
    /// The waveform is shorter than one OFDM symbol.
    TooShort,
    /// The scrambler seed could not be recovered (SERVICE field garbled).
    BadService,
}

/// Start of the HT data field in a full PPDU: the fixed-length HT-mixed
/// preamble is 720 samples at 20 Msps.
const DATA_FIELD_START: usize = 720;

/// Demodulates an HT-20 data field: `iq` must start at the first data
/// symbol's CP and contain whole symbols.
fn decode_data_field(iq: &[Cx], mcs: Mcs, gi: GuardInterval) -> Result<RxFrame, RxError> {
    let sym_len = gi.symbol_len();
    if iq.len() < sym_len {
        return Err(RxError::TooShort);
    }
    let n_sym = iq.len() / sym_len;
    let plan = fft_plan(FFT_SIZE);
    let il = Interleaver::new(mcs.modulation);
    let nbpsc = mcs.modulation.bits_per_symbol();

    // AGC: hard demapping needs the constellation at nominal scale. A
    // standard HT-20 data symbol has 56 unit-power (normalized) subcarriers,
    // i.e. mean sample power 56/(64·K²·64) = 56·(1/K_MOD²)/64² in the
    // unnormalized units the demapper expects ≈ 0.574 for 64-QAM.
    let nominal = 56.0 / (64.0 * 64.0) / mcs.modulation.kmod().powi(2);
    let measured = bluefi_dsp::power::mean_power(&iq[..n_sym * sym_len]);
    let agc = (nominal / measured.max(1e-30)).sqrt();

    // Per symbol: strip CP, FFT, demap data subcarriers, deinterleave.
    let mut coded = Vec::with_capacity(n_sym * il.block_len());
    let mut buf: Vec<Cx> = Vec::with_capacity(FFT_SIZE);
    let mut interleaved = Vec::with_capacity(il.block_len());
    let mut point_bits: Vec<bool> = Vec::with_capacity(6);
    let mut deinterleaved: Vec<bool> = Vec::with_capacity(il.block_len());
    for s in 0..n_sym {
        let body = &iq[s * sym_len + gi.len()..s * sym_len + sym_len];
        buf.clear();
        buf.extend(body.iter().map(|v| v.scale(agc)));
        plan.forward(&mut buf);
        interleaved.clear();
        for &sc in data_subcarriers().iter() {
            let x = buf[bin_of_subcarrier(sc, FFT_SIZE)];
            demap_point_into(mcs.modulation, x, &mut point_bits);
            interleaved.extend_from_slice(&point_bits);
        }
        assert_eq!(interleaved.len(), 52 * nbpsc);
        il.deinterleave_into(&interleaved, &mut deinterleaved);
        coded.extend_from_slice(&deinterleaved);
    }

    // FEC decode (hard decisions; the simulated link is clean).
    let scrambled = decode_punctured(mcs.rate, &coded, None, false);

    // SERVICE field: 16 scrambled zeros reveal the seed.
    let seed = recover_seed(&scrambled[..16.min(scrambled.len())]).ok_or(RxError::BadService)?;
    let descrambled = scramble(seed, &scrambled);
    // PSDU bytes: everything between SERVICE and tail/pad, whole bytes.
    let payload_bits = (descrambled.len() - 16 - 6) / 8 * 8;
    let psdu = bits_to_bytes_lsb(&descrambled[16..16 + payload_bits]);
    Ok(RxFrame { psdu, seed })
}

fn psdu(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 13 + 5) as u8).collect()
}

#[test]
fn loopback_every_mcs() {
    for idx in 0..8u8 {
        let mcs = Mcs::from_index(idx);
        let cfg = TxConfig { mcs, gi: GuardInterval::Short, scrambler_seed: 93, windowing: false };
        let tx = data_field(&psdu(40), &cfg);
        let rx = decode_data_field(&tx, mcs, GuardInterval::Short).unwrap();
        assert_eq!(rx.seed, 93, "MCS{idx}");
        assert_eq!(&rx.psdu[..40], &psdu(40)[..], "MCS{idx}");
    }
}

#[test]
fn windowing_does_not_break_decoding() {
    // The windowed boundary sample sits in the CP, which the receiver
    // discards — a windowed frame decodes identically.
    let mcs = Mcs::from_index(7);
    let cfg = TxConfig { mcs, gi: GuardInterval::Short, scrambler_seed: 5, windowing: true };
    let tx = data_field(&psdu(100), &cfg);
    let rx = decode_data_field(&tx, mcs, GuardInterval::Short).unwrap();
    assert_eq!(&rx.psdu[..100], &psdu(100)[..]);
}

#[test]
fn recovers_realtek_constant_seed_off_the_air() {
    // The paper: "We find this constant (71 for RTL8811AU) by decoding
    // the WiFi signals it sends." Same play here.
    let chip = ChipModel::rtl8811au();
    let mcs = Mcs::from_index(7);
    let ppdu = chip.transmit_with_seed(&psdu(60), mcs, 18.0, 71);
    let data = &ppdu.iq[DATA_FIELD_START..];
    let rx = decode_data_field(data, mcs, GuardInterval::Short).unwrap();
    assert_eq!(rx.seed, 71);
    assert_eq!(&rx.psdu[..60], &psdu(60)[..]);
}

#[test]
fn observes_atheros_incrementing_seeds() {
    let mut chip = ChipModel::ar9331_stock();
    let mcs = Mcs::from_index(5);
    let mut seen = Vec::new();
    for _ in 0..4 {
        let ppdu = chip.transmit(&psdu(30), mcs, 18.0);
        let rx = decode_data_field(&ppdu.iq[DATA_FIELD_START..], mcs, GuardInterval::Short)
            .unwrap();
        seen.push(rx.seed);
    }
    assert_eq!(seen, vec![1, 2, 3, 4], "arithmetic seed sequence visible off-air");
}

#[test]
fn long_gi_frames_decode() {
    let mcs = Mcs::from_index(3);
    let cfg = TxConfig { mcs, gi: GuardInterval::Long, scrambler_seed: 17, windowing: true };
    let tx = data_field(&psdu(64), &cfg);
    let rx = decode_data_field(&tx, mcs, GuardInterval::Long).unwrap();
    assert_eq!(&rx.psdu[..64], &psdu(64)[..]);
}

#[test]
fn truncated_waveform_errors() {
    assert_eq!(
        decode_data_field(&[Cx::ZERO; 10], Mcs::from_index(7), GuardInterval::Short),
        Err(RxError::TooShort)
    );
}

#[test]
fn bluefi_psdus_are_legitimate_wifi_frames() {
    // The central compliance claim: a BlueFi packet is simultaneously a
    // Bluetooth waveform AND a standard-decodable 802.11n frame. Decode
    // one with this (independent) receiver and compare PSDUs.
    use bluefi_coding::lfsr::Lfsr7;
    let _ = Lfsr7::new(1); // exercise the re-export path
    let mcs = Mcs::from_index(7);
    let psdu: Vec<u8> = (0..2000).map(|i| (i % 251) as u8).collect();
    let chip = ChipModel::ar9331();
    let ppdu = chip.transmit_with_seed(&psdu, mcs, 18.0, 1);
    let rx = decode_data_field(&ppdu.iq[DATA_FIELD_START..], mcs, GuardInterval::Short).unwrap();
    assert_eq!(rx.seed, 1);
    assert_eq!(&rx.psdu[..psdu.len()], &psdu[..]);
}
