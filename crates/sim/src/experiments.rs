//! Experiment glue: the beacon-session harness behind Figs 5, 6, 7a, 7c
//! and 8. One session models a phone running nRF Connect / Beacon Scanner
//! for two minutes while a transmitter (a BlueFi-driven WiFi chip, a
//! dedicated Bluetooth radio, or a USRP emitting a staged waveform) sends
//! advertising packets.

use crate::channel::{Channel, ChannelConfig};
use crate::devices::{BtTransmitter, DeviceModel};
use bluefi_bt::ble::{adv_air_bits, AdvChannel, AdvPdu, AdvPduType};
use bluefi_core::pipeline::BlueFi;
use bluefi_core::stages::{waveform_at_stage, Stage};
use bluefi_dsp::Cx;
use bluefi_wifi::channels::plan_channel;
use bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ;
use bluefi_wifi::ChipModel;
use bluefi_core::json::{Json, ToJson};
use bluefi_core::rng::{Rng, SeedableRng, StdRng};
use bluefi_core::telemetry::{self, Counter, SpanKind};

/// Which transmitter drives a session.
#[derive(Debug, Clone)]
pub enum TxKind {
    /// BlueFi on a COTS WiFi chip at `tx_dbm`.
    BlueFi {
        /// The WiFi chip model.
        chip: ChipModel,
        /// Transmit power, dBm.
        tx_dbm: f64,
    },
    /// A dedicated Bluetooth radio (Sec 4.4 comparison).
    Dedicated(BtTransmitter),
    /// A USRP emitting the waveform truncated at a pipeline stage
    /// (Sec 4.6), normalized to `tx_dbm`.
    UsrpStage {
        /// Pipeline stage.
        stage: Stage,
        /// Transmit power, dBm.
        tx_dbm: f64,
    },
}

/// One RSSI report, as a scanner app would log it.
#[derive(Debug, Clone, Copy)]
pub struct RssiSample {
    /// Session time, seconds.
    pub t_s: f64,
    /// Reported RSSI, dBm.
    pub rssi_dbm: f64,
}

impl ToJson for RssiSample {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("t_s", Json::Num(self.t_s)),
            ("rssi_dbm", Json::Num(self.rssi_dbm)),
        ])
    }
}

/// Session parameters.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Receiving phone.
    pub device: DeviceModel,
    /// Distance and environment.
    pub channel: ChannelConfig,
    /// Session length (the apps' default is 120 s).
    pub duration_s: f64,
    /// Reports per second actually simulated (scanner apps aggregate to
    /// ~1 Hz even when beacons run at 10 Hz).
    pub reports_hz: f64,
    /// BLE advertising channel; 38 = 2426 MHz is the well-covered one.
    pub ble_channel: AdvChannel,
}

impl SessionConfig {
    /// A 2-minute office session at `distance_m`.
    pub fn office(device: DeviceModel, distance_m: f64) -> SessionConfig {
        let mut channel = ChannelConfig::office(distance_m);
        channel.noise_floor_dbm = -101.0 + device.noise_figure_db;
        SessionConfig {
            device,
            channel,
            duration_s: 120.0,
            reports_hz: 1.0,
            ble_channel: AdvChannel::ALL[1], // channel 38 = 2426 MHz
        }
    }
}

fn beacon_pdu() -> AdvPdu {
    // The paper's payload: "30 bytes of data with 6 bytes of address".
    AdvPdu {
        pdu_type: AdvPduType::AdvNonconnInd,
        adv_address: [0xB1, 0x0E, 0xF1, 0x00, 0x00, 0x01],
        adv_data: (0..30).map(|i| (i * 5 + 1) as u8).collect(),
        tx_add: false,
    }
}

/// Builds the transmitted waveform, the receiver offset (Hz, relative to
/// the capture baseband) and the transmitter's per-packet amplitude-ripple
/// sigma for a transmitter kind.
fn build_tx(kind: &TxKind, ble_channel: AdvChannel) -> (Vec<Cx>, f64, f64) {
    let bt_freq = ble_channel.freq_hz();
    let bits = adv_air_bits(&beacon_pdu(), ble_channel.index());
    match kind {
        TxKind::BlueFi { chip, tx_dbm } => {
            let bf = BlueFi::default();
            let syn = bf
                .synthesize(&bits, bt_freq, chip_seed(chip))
                // lint: allow(panic) every AdvChannel frequency is plannable by construction
                .expect("advertising channel must be plannable");
            let ppdu = chip.transmit_with_seed(&syn.psdu, syn.mcs, *tx_dbm, syn.seed);
            (
                ppdu.iq,
                syn.plan.subcarrier * SUBCARRIER_SPACING_HZ,
                chip.amplitude_ripple,
            )
        }
        TxKind::Dedicated(tx) => (tx.transmit(&bits, 0.0), 0.0, 0.0),
        TxKind::UsrpStage { stage, tx_dbm } => {
            let bf = BlueFi::default();
            // lint: allow(panic) every AdvChannel frequency is plannable by construction
            let plan = plan_channel(bt_freq).expect("plannable advertising channel");
            let wave = waveform_at_stage(&bf, &bits, plan, 1, *stage);
            // Normalize to the requested power.
            let p = bluefi_dsp::power::mean_power(&wave);
            let g = (bluefi_dsp::power::dbm_to_mw(*tx_dbm) / p).sqrt();
            (
                wave.into_iter().map(|v| v.scale(g)).collect(),
                plan.subcarrier * SUBCARRIER_SPACING_HZ,
                0.0,
            )
        }
    }
}

fn chip_seed(chip: &ChipModel) -> u8 {
    match chip.seed_policy {
        bluefi_wifi::SeedPolicy::Constant(s) => s,
        bluefi_wifi::SeedPolicy::Incrementing { next } => next,
    }
}

/// Runs a beacon session and returns the RSSI trace the scanner app would
/// show. `seed` controls all randomness (channel noise, shadowing, device
/// jitter).
pub fn run_beacon_session(kind: &TxKind, cfg: &SessionConfig, seed: u64) -> Vec<RssiSample> {
    let _sp = telemetry::span(SpanKind::SimSession);
    telemetry::incr(Counter::SimTrials);
    let (tx_wave, rx_offset_hz, ripple) = build_tx(kind, cfg.ble_channel);
    let channel = Channel::new(cfg.channel.clone());
    let rx = cfg.device.receiver(rx_offset_hz);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let n_reports = (cfg.duration_s * cfg.reports_hz).round() as usize;
    for k in 0..n_reports {
        let t = k as f64 / cfg.reports_hz;
        if !cfg.device.still_scanning(t) {
            break;
        }
        // Per-packet transmitter amplitude ripple (power-amplifier flatness
        // drift — the Realtek parts wobble more, paper Fig 5c).
        let tx_wave = if ripple > 0.0 {
            let g = 1.0 + rng.gen_range(-ripple..ripple) * 3.0;
            tx_wave.iter().map(|v| v.scale(g)).collect()
        } else {
            tx_wave.clone()
        };
        let rx_wave = channel.apply(&tx_wave, &mut rng);
        let result = rx.receive_ble_adv(&rx_wave, cfg.ble_channel.index());
        // An RSSI report requires the access address to have matched; we do
        // not additionally gate on the CRC because the simulated
        // discriminator keeps a small residual BER on BlueFi waveforms that
        // real silicon doesn't, and gating would starve the trace rather
        // than model the phones' behaviour (see EXPERIMENTS.md).
        if let Some(rssi) = result.rssi_dbm {
            out.push(RssiSample {
                t_s: t,
                rssi_dbm: cfg.device.reported_rssi(rssi, &mut rng),
            });
        }
    }
    telemetry::add(Counter::SimRssiReports, out.len() as u64);
    // RSSI is negative dBm; accumulate -rssi in centi-dB so a mean can be
    // recovered from two integer counters (sum / reports / -100).
    let neg_centidb: u64 = out
        .iter()
        .map(|s| (-s.rssi_dbm * 100.0).max(0.0).round() as u64)
        .sum();
    telemetry::add(Counter::SimRssiSumNegCentiDbm, neg_centidb);
    out
}

/// One independent beacon-session trial for the parallel batch runner.
#[derive(Debug, Clone)]
pub struct SessionTrial {
    /// Transmitter under test.
    pub kind: TxKind,
    /// Session parameters.
    pub cfg: SessionConfig,
    /// Seed for all session randomness.
    pub seed: u64,
}

/// Runs independent beacon sessions in parallel (one worker per core, or
/// `BLUEFI_THREADS`), results in trial order. Each trial carries its own
/// seed, so the output is bit-identical to calling [`run_beacon_session`]
/// sequentially per trial, for any worker count.
pub fn run_beacon_sessions(trials: &[SessionTrial]) -> Vec<Vec<RssiSample>> {
    bluefi_core::par::par_map(trials, |_, t| run_beacon_session(&t.kind, &t.cfg, t.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `n` packets through the session's channel and classifies the
    /// outcomes: `[decoded, CRC failed, nothing usable]`.
    fn packet_counts(kind: &TxKind, cfg: &SessionConfig, n: usize, seed: u64) -> [usize; 3] {
        let (tx_wave, rx_offset_hz, _ripple) = build_tx(kind, cfg.ble_channel);
        let channel = Channel::new(cfg.channel.clone());
        let rx = cfg.device.receiver(rx_offset_hz);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let rx_wave = channel.apply(&tx_wave, &mut rng);
            match rx.receive_ble_adv(&rx_wave, cfg.ble_channel.index()).decode {
                Some(bluefi_bt::ble::AdvDecode::Ok(_)) => counts[0] += 1,
                Some(_) => counts[1] += 1,
                None => counts[2] += 1,
            }
        }
        counts
    }

    fn quick_session(device: DeviceModel, distance: f64) -> SessionConfig {
        let mut s = SessionConfig::office(device, distance);
        s.duration_s = 12.0;
        s
    }

    #[test]
    fn bluefi_session_produces_rssi_reports() {
        let kind = TxKind::BlueFi { chip: ChipModel::ar9331(), tx_dbm: 18.0 };
        let cfg = quick_session(DeviceModel::pixel(), 1.5);
        let trace = run_beacon_session(&kind, &cfg, 42);
        assert!(trace.len() >= 4, "only {} reports", trace.len());
        for s in &trace {
            assert!(s.rssi_dbm < 0.0 && s.rssi_dbm > -90.0, "rssi {}", s.rssi_dbm);
        }
    }

    #[test]
    fn rssi_falls_with_distance() {
        let kind = TxKind::BlueFi { chip: ChipModel::ar9331(), tx_dbm: 18.0 };
        let mean = |d: f64| {
            let cfg = quick_session(DeviceModel::pixel(), d);
            let t = run_beacon_session(&kind, &cfg, 7);
            assert!(!t.is_empty(), "no reports at {d} m");
            t.iter().map(|s| s.rssi_dbm).sum::<f64>() / t.len() as f64
        };
        let near = mean(0.2);
        let close = mean(1.5);
        let far = mean(4.5);
        assert!(near > close + 5.0, "near {near}, close {close}");
        assert!(close > far + 5.0, "close {close}, far {far}");
    }

    #[test]
    fn s6_reports_lower_than_pixel_at_same_distance() {
        let kind = TxKind::BlueFi { chip: ChipModel::ar9331(), tx_dbm: 18.0 };
        let mean = |dev: DeviceModel| {
            let cfg = quick_session(dev, 1.5);
            let t = run_beacon_session(&kind, &cfg, 21);
            t.iter().map(|s| s.rssi_dbm).sum::<f64>() / t.len().max(1) as f64
        };
        let pixel = mean(DeviceModel::pixel());
        let s6 = mean(DeviceModel::s6());
        assert!(pixel - s6 > 4.0, "pixel {pixel}, s6 {s6}");
    }

    #[test]
    fn iphone_trace_truncates_at_110s() {
        let kind = TxKind::BlueFi { chip: ChipModel::ar9331(), tx_dbm: 18.0 };
        let mut cfg = quick_session(DeviceModel::iphone(), 0.2);
        cfg.duration_s = 120.0;
        cfg.reports_hz = 0.2; // keep the test fast: a report every 5 s
        let trace = run_beacon_session(&kind, &cfg, 3);
        let last = trace.last().unwrap().t_s;
        assert!(last < 110.0, "iPhone reported at {last} s");
        assert!(last > 90.0);
    }

    #[test]
    fn dedicated_bt_session_works() {
        let kind = TxKind::Dedicated(BtTransmitter::phone("Pixel"));
        let cfg = quick_session(DeviceModel::s6(), 1.5);
        let trace = run_beacon_session(&kind, &cfg, 5);
        assert!(trace.len() >= 8, "only {} reports", trace.len());
    }

    #[test]
    fn parallel_sessions_match_sequential() {
        let trials: Vec<SessionTrial> = [(0.2, 5u64), (1.5, 6), (4.5, 7), (1.5, 8)]
            .iter()
            .map(|&(d, seed)| SessionTrial {
                kind: TxKind::BlueFi { chip: ChipModel::ar9331(), tx_dbm: 18.0 },
                cfg: quick_session(DeviceModel::pixel(), d),
                seed,
            })
            .collect();
        let par = run_beacon_sessions(&trials);
        for (t, got) in trials.iter().zip(&par) {
            let seq = run_beacon_session(&t.kind, &t.cfg, t.seed);
            assert_eq!(seq.len(), got.len());
            for (a, b) in seq.iter().zip(got) {
                assert!(a.t_s == b.t_s && a.rssi_dbm == b.rssi_dbm);
            }
        }
    }

    #[test]
    fn packet_counts_add_up() {
        let kind = TxKind::Dedicated(BtTransmitter::phone("Pixel"));
        let cfg = quick_session(DeviceModel::pixel(), 1.5);
        let [ok, crc_error, lost] = packet_counts(&kind, &cfg, 20, 9);
        assert_eq!(ok + crc_error + lost, 20);
        assert!(ok >= 18, "{ok} ok, {crc_error} CRC errors, {lost} lost");
    }

    #[test]
    fn usrp_stage_sessions_degrade_with_stages() {
        // Baseline stage should decode at least as reliably as +Header.
        let cfg = quick_session(DeviceModel::pixel(), 1.5);
        let count = |stage: Stage| {
            let kind = TxKind::UsrpStage { stage, tx_dbm: 10.0 };
            packet_counts(&kind, &cfg, 15, 11)[0]
        };
        let base = count(Stage::Baseline);
        let full = count(Stage::Header);
        assert!(base >= full, "baseline {base} vs full {full}");
        assert!(base >= 13, "baseline too lossy: {base}");
    }
}
