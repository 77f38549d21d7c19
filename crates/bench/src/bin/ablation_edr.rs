//! Extension (paper Sec 5.3 future work): EDR modulation over BlueFi.
//! π/4-DQPSK (2 Mbps) and 8DPSK (3 Mbps) are constant-envelope, so the
//! phase-generic pipeline carries them; this bench measures the payload BER
//! through the full chain per scheme.
//!
//! Run: `cargo run --release -p bluefi-bench --bin ablation_edr`

use bluefi_bench::Reporter;
use bluefi_bt::edr::{edr_demodulate, edr_modulate_phase, EdrScheme};
use bluefi_core::par::par_map;
use bluefi_bt::gfsk::{modulate_phase, GfskParams};
use bluefi_bt::receiver::{GfskReceiver, ReceiverConfig};
use bluefi_core::pipeline::{BlueFi, SynthesisScratch};
use bluefi_wifi::channels::ChannelPlan;
use bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ;
use bluefi_wifi::ChipModel;

fn pattern(n: usize, k: usize) -> Vec<bool> {
    (0..n).map(|i| (i * k + 1) % 5 < 2).collect()
}

/// Pushes a phase trajectory, offset to subcarrier 13 of WiFi channel 3,
/// through the phase-input pipeline entry and returns the
/// chip-transmitted PPDU.
fn through_pipeline(phase: &[f64]) -> bluefi_wifi::Ppdu {
    let bf = BlueFi::default();
    let plan = ChannelPlan::pinned(3, 13.0);
    let mut scratch = SynthesisScratch::new();
    let syn = bf.synthesize_phase_with(phase, plan, 71, &mut scratch);
    ChipModel::ar9331().transmit_with_seed(&syn.psdu, syn.mcs, 18.0, 71)
}

fn main() {
    let p = GfskParams::default();
    let offset_hz = 13.0 * SUBCARRIER_SPACING_HZ;
    let mut rows = Vec::new();

    // GFSK baseline (1 Mbps) for context, using the packetized receiver.
    {
        let bits = pattern(120, 5);
        let ppdu = through_pipeline(&modulate_phase(&bits, &p, offset_hz));
        let rx = GfskReceiver::new(ReceiverConfig {
            channel_offset_hz: offset_hz,
            ..Default::default()
        });
        let demod = rx.demodulate(&ppdu.iq);
        // Slice at the nominal start (no sync pattern in this raw stream).
        let nominal = 720 + p.guard_bits * p.sps();
        let mut best = usize::MAX;
        for start in nominal - 10..nominal + 10 {
            let errs = (0..bits.len())
                .filter(|&i| {
                    let s0 = start + i * p.sps();
                    let acc: f64 = demod.freq[s0..s0 + p.sps()].iter().sum();
                    (acc > 0.0) != bits[i]
                })
                .count();
            best = best.min(errs);
        }
        rows.push(vec![
            "GFSK (1 Mbps)".into(),
            format!("{best}/{}", bits.len()),
            format!("{:.2}%", 100.0 * best as f64 / bits.len() as f64),
        ]);
    }

    // The two EDR schemes are independent full-pipeline trials — fan them
    // out; rows come back in scheme order.
    let schemes = [
        ("π/4-DQPSK (2 Mbps)", EdrScheme::Dqpsk2),
        ("8DPSK (3 Mbps)", EdrScheme::Dpsk8),
    ];
    rows.extend(par_map(&schemes, |_, &(name, scheme)| {
        let bits = pattern(scheme.bits_per_symbol() * 120, 7);
        let ppdu = through_pipeline(&edr_modulate_phase(&bits, scheme, &p, offset_hz));
        let rx = GfskReceiver::new(ReceiverConfig {
            channel_offset_hz: offset_hz,
            filter_halfwidth_hz: 750e3,
            ..Default::default()
        });
        let demod = rx.demodulate(&ppdu.iq);
        let nominal = 720 + p.guard_bits * p.sps();
        let n_sym = bits.len() / scheme.bits_per_symbol();
        let mut best = usize::MAX;
        for start in nominal - 10..nominal + 10 {
            let got = edr_demodulate(&demod.filtered, scheme, p.sps(), start, n_sym);
            best = best.min(got.iter().zip(&bits).filter(|(a, b)| a != b).count());
        }
        vec![
            name.into(),
            format!("{best}/{}", bits.len()),
            format!("{:.2}%", 100.0 * best as f64 / bits.len() as f64),
        ]
    }));
    let mut rep = Reporter::from_args();
    rep.table(
        "Extension — EDR modulation over BlueFi (loopback payload BER)",
        &["scheme", "bit errors", "BER"],
        rows,
    );
    rep.note(
        "\npaper Sec 5.3: \"Some Bluetooth chips are capable of supporting \
         optional modulation modes other than GFSK, and thus increase \
         throughput by up to 3x\" — left as future work there, working here.",
    );
    rep.finish();
}
