//! Future-work extension (paper Sec 5.3): EDR modulation over BlueFi.
//! π/4-DQPSK and 8DPSK are constant-envelope phase modulations, so they
//! ride the synthesis pipeline unchanged — 2-3x the bit rate per slot.

use bluefi::bt::edr::{edr_demodulate, edr_modulate_phase, EdrScheme};
use bluefi::bt::gfsk::GfskParams;
use bluefi::bt::receiver::{GfskReceiver, ReceiverConfig};
use bluefi::core::pipeline::{BlueFi, SynthesisScratch};
use bluefi::wifi::channels::ChannelPlan;
use bluefi::wifi::subcarriers::SUBCARRIER_SPACING_HZ;
use bluefi::wifi::ChipModel;

fn pattern(n: usize, k: usize) -> Vec<bool> {
    (0..n).map(|i| (i * k + 1) % 5 < 2).collect()
}

fn edr_over_bluefi(scheme: EdrScheme) -> f64 {
    let p = GfskParams::default();
    let bits = pattern(scheme.bits_per_symbol() * 60, 5);
    let plan = ChannelPlan::pinned(3, 13.0);
    let offset_hz = plan.tx_subcarrier * SUBCARRIER_SPACING_HZ;
    let phase = edr_modulate_phase(&bits, scheme, &p, offset_hz);

    // The pipeline is phase-generic: feed it the DPSK phase.
    let bf = BlueFi::default();
    let mut scratch = SynthesisScratch::new();
    let syn = bf.synthesize_phase_with(&phase, plan, 71, &mut scratch);
    let ppdu = ChipModel::ar9331().transmit_with_seed(&syn.psdu, syn.mcs, 18.0, 71);

    // Differential receiver over the filtered baseband.
    let rx = GfskReceiver::new(ReceiverConfig {
        channel_offset_hz: offset_hz,
        filter_halfwidth_hz: 750e3,
        ..Default::default()
    });
    let demod = rx.demodulate(&ppdu.iq);
    let nominal = 720 + p.guard_bits * p.sps();
    let n_sym = bits.len() / scheme.bits_per_symbol();
    let mut best = usize::MAX;
    for start in nominal.saturating_sub(10)..nominal + 10 {
        let got = edr_demodulate(&demod.filtered, scheme, p.sps(), start, n_sym);
        let errs = got.iter().zip(&bits).filter(|(a, b)| a != b).count();
        best = best.min(errs);
    }
    best as f64 / bits.len() as f64
}

#[test]
fn dqpsk2_payload_survives_the_pipeline() {
    let ber = edr_over_bluefi(EdrScheme::Dqpsk2);
    assert!(ber < 0.05, "π/4-DQPSK over BlueFi BER {ber}");
}

#[test]
fn dpsk8_payload_survives_the_pipeline() {
    let ber = edr_over_bluefi(EdrScheme::Dpsk8);
    assert!(ber < 0.08, "8DPSK over BlueFi BER {ber}");
}
