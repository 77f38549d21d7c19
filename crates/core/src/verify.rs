//! Forward verification: run a synthesized PSDU through the *actual*
//! 802.11n transmit chain and a COTS-style Bluetooth receiver, with no
//! channel between them. This is the closed loop that proves the reversal
//! worked — the in-lab equivalent of holding the phone next to the router.

use crate::pipeline::Synthesis;
use bluefi_bt::receiver::{BleRx, GfskReceiver, ReceiverConfig};
use bluefi_dsp::bits::u64_to_bits_lsb;
use bluefi_wifi::chip::ChipModel;
use bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ;

/// Transmits `syn` on `chip` and returns the 20 Msps baseband IQ of the
/// whole PPDU at `tx_dbm`.
pub fn transmit(syn: &Synthesis, chip: &ChipModel, tx_dbm: f64) -> bluefi_wifi::Ppdu {
    chip.transmit_with_seed(&syn.psdu, syn.mcs, tx_dbm, syn.seed)
}

/// A receiver tuned to the synthesis' *true* Bluetooth channel (a real
/// phone does not know about the integer-subcarrier snapping; the ≤ 62.5 kHz
/// offset is within the spec's carrier tolerance and the receiver's CFO
/// tracking).
pub fn tuned_receiver(syn: &Synthesis) -> GfskReceiver {
    GfskReceiver::new(ReceiverConfig {
        channel_offset_hz: syn.plan.subcarrier * SUBCARRIER_SPACING_HZ,
        ..Default::default()
    })
}

/// End-to-end loopback for a BLE advertising synthesis: synthesize → chip
/// TX → receiver decode on `ble_channel`.
pub fn loopback_ble(syn: &Synthesis, chip: &ChipModel, ble_channel: u8) -> BleRx {
    let ppdu = transmit(syn, chip, chip.default_tx_dbm);
    tuned_receiver(syn).receive_ble_adv(&ppdu.iq, ble_channel)
}

/// Loopback bit-error count against the intended air bits: transmit,
/// synchronize on the BLE access address, and compare the sliced payload
/// bits with the ground truth. Returns `None` when synchronization fails.
pub fn loopback_ble_bit_errors(
    syn: &Synthesis,
    chip: &ChipModel,
    air_bits: &[bool],
) -> Option<(usize, usize)> {
    let ppdu = transmit(syn, chip, chip.default_tx_dbm);
    let rx = tuned_receiver(syn);
    let demod = rx.demodulate(&ppdu.iq);
    let aa = u64_to_bits_lsb(bluefi_bt::ble::ADV_ACCESS_ADDRESS as u64, 32);
    let hit = rx.synchronize(&demod, &aa, air_bits.len())?;
    let truth = &air_bits[40..]; // skip preamble + AA
    let n = truth.len().min(hit.bits.len());
    let errs = truth[..n].iter().zip(&hit.bits[..n]).filter(|(a, b)| a != b).count();
    Some((errs, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BlueFi;
    use crate::reversal::DecodeStrategy;
    use bluefi_bt::ble::{adv_air_bits, AdvDecode, AdvPdu, AdvPduType};

    fn pdu(variant: u8) -> AdvPdu {
        AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address: [0x11, 0x22, 0x33, 0x44, 0x55, variant],
            adv_data: (0..12).map(|i| (i * 7) ^ variant).collect(),
            tx_add: false,
        }
    }

    /// Runs loopbacks over several payloads; returns (ok_count, total_ber).
    fn loopback_stats(bf: &BlueFi, chip: &ChipModel, n: u8) -> (usize, f64) {
        let mut ok = 0;
        let mut errs = 0usize;
        let mut bits_total = 0usize;
        for v in 0..n {
            let air = adv_air_bits(&pdu(v), 38);
            let syn = bf.synthesize(&air, 2.426e9, 71).unwrap();
            if loopback_ble(&syn, chip, 38).ok() {
                ok += 1;
            }
            if let Some((e, t)) = loopback_ble_bit_errors(&syn, chip, &air) {
                errs += e;
                bits_total += t;
            } else {
                errs += 50;
                bits_total += 100;
            }
        }
        (ok, errs as f64 / bits_total.max(1) as f64)
    }

    #[test]
    fn viterbi_loopback_on_ar9331_has_low_ber() {
        // The simulated receiver's discriminator is simpler than real
        // silicon, leaving a small residual BER on BlueFi waveforms; the
        // loop must synchronize every packet, decode a good fraction fully,
        // and stay under 1.5% payload BER.
        let (ok, ber) = loopback_stats(&BlueFi::default(), &ChipModel::ar9331(), 6);
        assert!(ber < 0.015, "payload BER {ber}");
        assert!(ok >= 2, "only {ok}/6 packets fully decoded");
    }

    #[test]
    fn viterbi_loopback_on_rtl8811au_has_low_ber() {
        let (ok, ber) = loopback_stats(&BlueFi::default(), &ChipModel::rtl8811au(), 6);
        assert!(ber < 0.015, "payload BER {ber}");
        assert!(ok >= 2, "only {ok}/6 packets fully decoded");
    }

    #[test]
    fn realtime_loopback_has_low_ber() {
        let bf = BlueFi { strategy: DecodeStrategy::Realtime, ..Default::default() };
        let (ok, ber) = loopback_stats(&bf, &ChipModel::rtl8811au(), 6);
        assert!(ber < 0.02, "payload BER {ber}");
        assert!(ok >= 1, "only {ok}/6 packets fully decoded");
    }

    #[test]
    fn wrong_seed_breaks_the_packet() {
        // Synthesize for seed 1 but let the chip scramble with seed 2: the
        // waveform decorrelates and the Bluetooth receiver must not decode.
        let bf = BlueFi::default();
        let bits = adv_air_bits(&pdu(0), 38);
        let syn = bf.synthesize(&bits, 2.426e9, 1).unwrap();
        let chip = ChipModel::ar9331();
        let ppdu = chip.transmit_with_seed(&syn.psdu, syn.mcs, 18.0, 2);
        let out = tuned_receiver(&syn).receive_ble_adv(&ppdu.iq, 38);
        assert!(!out.ok(), "decoded despite wrong scrambler seed");
    }

    #[test]
    fn decode_outcome_is_ok_or_crc_never_garbage() {
        // Every synchronized decode must be a structured outcome.
        let bf = BlueFi::default();
        for v in 0..4u8 {
            let bits = adv_air_bits(&pdu(v), 38);
            let syn = bf.synthesize(&bits, 2.426e9, 71).unwrap();
            let out = loopback_ble(&syn, &ChipModel::ar9331(), 38);
            match out.decode {
                Some(AdvDecode::Ok(got)) => assert_eq!(got, pdu(v)),
                Some(AdvDecode::CrcError) | Some(AdvDecode::HeaderError) => {}
                None => panic!("no synchronization for variant {v}"),
            }
        }
    }

    #[test]
    fn rssi_is_reported() {
        let bf = BlueFi::default();
        let bits = adv_air_bits(&pdu(0), 38);
        let syn = bf.synthesize(&bits, 2.426e9, 1).unwrap();
        let ppdu = transmit(&syn, &ChipModel::ar9331(), 18.0);
        let rx = tuned_receiver(&syn);
        let out = rx.receive_ble_adv(&ppdu.iq, 38);
        let rssi = out.rssi_dbm.expect("synchronized");
        // 18 dBm total WiFi power; the BT band captures a slice of it.
        assert!(rssi > -20.0 && rssi < 25.0, "rssi {rssi}");
    }
}
