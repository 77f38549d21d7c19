//! Cumulative impairment staging (paper Sec 4.6, Fig 8).
//!
//! The paper isolates each WiFi-hardware impairment by transmitting, from a
//! USRP (which, unlike a COTS chip, can emit arbitrary IQ), waveforms with
//! the impairments applied cumulatively. Every stage here is a view of one
//! product synthesis, so it differs from the product only in what it skips:
//!
//! 1. **Baseline** — the ideal GFSK waveform.
//! 2. **+CP** — the CP/windowing-compatible phase θ̂ (impairment I1).
//! 3. **+QAM** — θ̂ quantized per-subcarrier to the 64-QAM grid, with every
//!    subcarrier still free (impairment I2).
//! 4. **+Pilot/Null** — the demapped coded stream, with the standard's
//!    pilots and nulls (impairment I3).
//! 5. **+FEC** — that stream with the reversal's flips toggled, as the
//!    convolutional encoder emits it (impairment I4).
//! 6. **+Header** — the complete PSDU through the full chip TX, preamble
//!    included.

use crate::pipeline::{BlueFi, SynthesisScratch};
use crate::qam::{ScaleMode, DEFAULT_SCALE};
use crate::telemetry::{self, Counter, SpanKind};
use bluefi_dsp::fft::fft_plan;
use bluefi_dsp::Cx;
use bluefi_wifi::channels::ChannelPlan;
use bluefi_wifi::ofdm::{modulate_symbol, stitch_symbols, GuardInterval};
use bluefi_wifi::qam::quantize_point;
use bluefi_wifi::subcarriers::FFT_SIZE;
use bluefi_wifi::tx::{waveform_from_coded, TxConfig};
use bluefi_wifi::ChipModel;

/// The cumulative impairment stages of Fig 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Ideal GFSK (USRP arbitrary waveform).
    Baseline,
    /// + cyclic prefix / windowing compensation.
    Cp,
    /// + 64-QAM quantization of every subcarrier.
    Qam,
    /// + pilots and nulls overwritten.
    PilotNull,
    /// + FEC-realizable bit stream.
    Fec,
    /// + scrambler framing and the 802.11n preamble (the complete system).
    Header,
}

impl Stage {
    /// All stages in Fig 8's order.
    pub fn all() -> [Stage; 6] {
        [
            Stage::Baseline,
            Stage::Cp,
            Stage::Qam,
            Stage::PilotNull,
            Stage::Fec,
            Stage::Header,
        ]
    }

    /// The x-axis label the paper uses.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Baseline => "Baseline",
            Stage::Cp => "+CP",
            Stage::Qam => "+QAM",
            Stage::PilotNull => "+Pilot/Null",
            Stage::Fec => "+FEC",
            Stage::Header => "+Header",
        }
    }

    /// The telemetry span kind timing this stage's waveform generation.
    pub fn span_kind(self) -> SpanKind {
        match self {
            Stage::Baseline => SpanKind::StageBaseline,
            Stage::Cp => SpanKind::StageCp,
            Stage::Qam => SpanKind::StageQam,
            Stage::PilotNull => SpanKind::StagePilotNull,
            Stage::Fec => SpanKind::StageFec,
            Stage::Header => SpanKind::StageHeader,
        }
    }
}

/// Generates the waveform for `bt_bits` with impairments applied
/// cumulatively up to `stage`. The result is unnormalized IQ; the caller
/// scales it to the experiment's transmit power.
pub fn waveform_at_stage(
    bf: &BlueFi,
    bt_bits: &[bool],
    plan: ChannelPlan,
    seed: u8,
    stage: Stage,
) -> Vec<Cx> {
    let _sp = telemetry::span(stage.span_kind());
    telemetry::incr(Counter::StageWaveforms);
    let mut s = SynthesisScratch::new();
    let syn = bf.synthesize_at_with(bt_bits, plan, seed, &mut s).clone();
    let (bl, mcs) = (bf.cp.block_len(), bf.strategy.mcs());
    // Stage contract: θ̂ spans whole OFDM symbols (CP + 64 body samples), so
    // +QAM's `chunks_exact` drops no partial block.
    bluefi_dsp::contract!(
        s.theta_hat.len().is_multiple_of(bl),
        "waveform_at_stage: θ̂ length {} is not a multiple of the {bl}-sample symbol",
        s.theta_hat.len()
    );
    match stage {
        Stage::Baseline => s.phase.iter().map(|&p| Cx::expj(p)).collect(),
        Stage::Cp => s.theta_hat.iter().map(|&p| Cx::expj(p)).collect(),
        Stage::Qam => {
            // Quantize EVERY bin to the grid (no pilots/nulls yet).
            let scale = match bf.scale {
                ScaleMode::Fixed(a) => a,
                ScaleMode::Dynamic => DEFAULT_SCALE,
            };
            let plan64 = fft_plan(FFT_SIZE);
            let symbols: Vec<Vec<Cx>> = s
                .theta_hat
                .chunks_exact(bl)
                .map(|block| {
                    let mut buf: Vec<Cx> =
                        block[bf.cp.cp_len..].iter().map(|&p| Cx::expj(p) * scale).collect();
                    plan64.forward(&mut buf);
                    buf.iter_mut().for_each(|x| *x = quantize_point(*x, mcs.modulation));
                    modulate_symbol(&plan64, &buf, GuardInterval::Short)
                })
                .collect();
            stitch_symbols(&symbols, GuardInterval::Short, true)
        }
        Stage::PilotNull | Stage::Fec => {
            let mut coded = s.coded.to_bools();
            if stage == Stage::Fec {
                syn.flips.iter().for_each(|&f| coded[f] = !coded[f]);
            }
            let cfg = TxConfig { mcs, gi: GuardInterval::Short, scrambler_seed: seed, windowing: true };
            waveform_from_coded(&coded, &cfg)
        }
        // The complete system through the USRP chip model. Besides the
        // framing and preamble it differs from +FEC in windowing, which
        // `ChipModel::usrp` leaves off and the stages above apply.
        Stage::Header => {
            ChipModel::usrp(seed).transmit_with_seed(&syn.psdu, syn.mcs, 0.0, seed).iq
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::CpCompat;
    use crate::reversal::DecodeStrategy;
    use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
    use bluefi_bt::receiver::{GfskReceiver, ReceiverConfig};
    use bluefi_wifi::channels::plan_channel;

    fn bits() -> Vec<bool> {
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address: [9, 8, 7, 6, 5, 4],
            adv_data: (0..20).map(|i| i * 3).collect(),
            tx_add: false,
        };
        adv_air_bits(&pdu, 38)
    }

    fn receiver(plan: &bluefi_wifi::channels::ChannelPlan) -> GfskReceiver {
        GfskReceiver::new(ReceiverConfig {
            channel_offset_hz: plan.subcarrier
                * bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ,
            ..Default::default()
        })
    }

    #[test]
    fn every_stage_still_synchronizes_with_low_ber() {
        // With no channel noise, every cumulative stage must remain
        // receivable (the paper's Fig 8 shows graceful ~1 dB/stage RSSI
        // degradation, not failures). Our simplified discriminator keeps a
        // small residual BER, so assert sync + BER bound rather than
        // perfect CRC.
        use bluefi_dsp::bits::u64_to_bits_lsb;
        let bf = BlueFi::default();
        let plan = plan_channel(2.426e9).unwrap();
        let rx = receiver(&plan);
        let aa = u64_to_bits_lsb(bluefi_bt::ble::ADV_ACCESS_ADDRESS as u64, 32);
        let air = bits();
        for stage in Stage::all() {
            let wave = waveform_at_stage(&bf, &air, plan, 71, stage);
            let demod = rx.demodulate(&wave);
            let hit = rx
                .synchronize(&demod, &aa, air.len())
                .unwrap_or_else(|| panic!("stage {stage:?}: no sync"));
            let truth = &air[40..];
            let n = truth.len().min(hit.bits.len());
            let errs =
                truth[..n].iter().zip(&hit.bits[..n]).filter(|(a, b)| a != b).count();
            assert!(
                errs * 100 <= n * 3,
                "stage {stage:?}: {errs}/{n} bit errors"
            );
        }
    }

    #[test]
    fn stages_progressively_perturb_the_waveform() {
        // Each stage's waveform differs from the previous one.
        let bf = BlueFi::default();
        let plan = plan_channel(2.426e9).unwrap();
        let waves: Vec<Vec<Cx>> = Stage::all()
            .iter()
            .map(|&s| waveform_at_stage(&bf, &bits(), plan, 71, s))
            .collect();
        for w in waves.windows(2) {
            let n = w[0].len().min(w[1].len());
            let diff: f64 = (0..n).map(|i| (w[0][i] - w[1][i]).norm_sq()).sum();
            assert!(diff > 1e-6, "consecutive stages identical");
        }
    }

    /// FNV-1a over the raw bits of every sample: any change to any IQ
    /// value, or to the length, changes the digest.
    fn digest(wave: &[Cx]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ wave.len() as u64;
        for v in wave {
            for word in [v.re.to_bits(), v.im.to_bits()] {
                for byte in word.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn stage_waveforms_are_pinned() {
        // Every stage's waveform, bit for bit, for one fixed input under
        // each strategy — the Viterbi case on a positive subcarrier, the
        // real-time case on a negative one — plus the long-GI construction
        // `ablation_80211g` runs and the dynamic scale, where +QAM falls
        // back to `DEFAULT_SCALE` while +Pilot/Null quantizes dynamically.
        // +FEC toggles the flips on the demapped coded stream, which must
        // equal re-encoding the reversal's decoded bits exactly.
        let viterbi = BlueFi::default();
        let realtime = BlueFi { strategy: DecodeStrategy::Realtime, ..Default::default() };
        let lgi = BlueFi { cp: CpCompat::lgi(), ..Default::default() };
        let dynamic = BlueFi { scale: ScaleMode::Dynamic, ..Default::default() };
        let cases = [
            ("viterbi", viterbi, plan_channel(2.426e9).unwrap(), PINNED_VITERBI),
            ("realtime", realtime, ChannelPlan::pinned(6, -3.0), PINNED_REALTIME),
            ("lgi", lgi, plan_channel(2.426e9).unwrap(), PINNED_LGI),
            ("dynamic", dynamic, ChannelPlan::pinned(6, -3.0), PINNED_DYNAMIC),
        ];
        for (name, bf, plan, want) in cases {
            let got = Stage::all()
                .map(|stage| digest(&waveform_at_stage(&bf, &bits(), plan, 71, stage)));
            assert_eq!(got, want, "{name}: {got:#018x?}");
        }
    }

    const PINNED_VITERBI: [u64; 6] = [
        0x1ddcb0c81b3d3e41,
        0x268abe670ba4b210,
        0xfa50516eb2ff3054,
        0x4f6a66cce0c004d5,
        0x894ef6a687556141,
        0x3190af703fe48b37,
    ];
    const PINNED_REALTIME: [u64; 6] = [
        0xaa5a5aaf854dfd63,
        0x4a54dc8e0166b0b3,
        0xbbd13b4ca37f507f,
        0x19bc2d7e6d7678aa,
        0x0d7c7bcae738299b,
        0x1e0b0414080453a4,
    ];

    const PINNED_LGI: [u64; 6] = [
        0x1ddcb0c81b3d3e41,
        0x45a3a53a99ae9c00,
        0xc01a3895711cbca0,
        0x328e1a02f5bc0725,
        0x2d4d13843ef134b4,
        0x151dcce9ebb4c77c,
    ];
    const PINNED_DYNAMIC: [u64; 6] = [
        0xaa5a5aaf854dfd63,
        0x4a54dc8e0166b0b3,
        0xbbd13b4ca37f507f,
        0x6eb4d222cda36c0d,
        0x01bde41de53c13ac,
        0x655f09ba8ed5fd73,
    ];

    #[test]
    fn baseline_is_constant_envelope_and_later_stages_are_not() {
        let bf = BlueFi::default();
        let plan = plan_channel(2.426e9).unwrap();
        let base = waveform_at_stage(&bf, &bits(), plan, 71, Stage::Baseline);
        for v in &base {
            assert!((v.abs() - 1.0).abs() < 1e-9);
        }
        let qam = waveform_at_stage(&bf, &bits(), plan, 71, Stage::Qam);
        let dev = qam
            .iter()
            .map(|v| (v.abs() - 1.0).abs())
            .fold(0.0f64, f64::max);
        assert!(dev > 0.01, "QAM stage should break the constant envelope");
    }

    #[test]
    fn in_band_distortion_grows_monotonically_enough() {
        // Measure in-band error vs the baseline through the receiver's
        // filter: later stages should not be dramatically cleaner than
        // earlier ones (the paper allows small non-monotonicity at +FEC).
        let bf = BlueFi::default();
        let plan = plan_channel(2.426e9).unwrap();
        let rx = receiver(&plan);
        let err_of = |stage: Stage| -> f64 {
            let wave = waveform_at_stage(&bf, &bits(), plan, 71, stage);
            let base = waveform_at_stage(&bf, &bits(), plan, 71, Stage::Baseline);
            let n = wave.len().min(base.len());
            let fw = rx.demodulate(&wave[..n]);
            let fb = rx.demodulate(&base[..n]);
            let e: f64 = fw
                .filtered
                .iter()
                .zip(&fb.filtered)
                .map(|(a, b)| (*a - *b).norm_sq())
                .sum();
            let p: f64 = fb.filtered.iter().map(|v| v.norm_sq()).sum();
            10.0 * (e / p).log10()
        };
        let cp = err_of(Stage::Cp);
        let qam = err_of(Stage::Qam);
        let pil = err_of(Stage::PilotNull);
        assert!(cp < -5.0, "CP err {cp} dB");
        assert!(qam >= cp - 1.0, "QAM ({qam}) cleaner than CP ({cp})?");
        assert!(pil >= qam - 1.0, "Pilot ({pil}) cleaner than QAM ({qam})?");
    }
}
