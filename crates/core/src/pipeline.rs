//! The end-to-end BlueFi synthesizer: Bluetooth packet bits in, 802.11n
//! PSDU bytes out (paper Secs 2.2–2.8 and 3).

use crate::cp::CpCompat;
use crate::qam::{QuantizedSymbol, Quantizer, ScaleMode, DEFAULT_SCALE};
use crate::reversal::{
    extract_psdu_into, reverse_fec_with, DecodeStrategy, Reversal, WeightProfile,
};
use crate::telemetry::{self, Counter, Gauge, SpanKind};
use bluefi_bt::anchored::AnchoredModulator;
use bluefi_bt::gfsk::{GfskParams, GfskScratch};
use bluefi_coding::ViterbiScratch;
use bluefi_dsp::Cx;
use bluefi_wifi::channels::{plan_channel, ChannelPlan};
use bluefi_wifi::qam::{demap_point_into, Modulation};
use bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ;
use bluefi_wifi::{Interleaver, Mcs};

/// How the GFSK phase signal is computed (see `bluefi_bt::anchored`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseMode {
    /// Classic frequency accumulation — the default; every golden vector
    /// and fixture was captured against it.
    Cumulative,
    /// Closed-form anchored evaluation: each sample is a float function of
    /// an integer residue plus its local pulse window, making spans of the
    /// phase signal patchable bit-exactly. Required by the template cache
    /// (`core::template`). Falls back to `Cumulative` when the anchored
    /// decomposition does not apply to the GFSK parameters.
    Anchored,
}

/// BlueFi synthesizer configuration.
#[derive(Debug, Clone)]
pub struct BlueFi {
    /// FEC reversal strategy (weighted Viterbi for quality, real-time for
    /// latency).
    pub strategy: DecodeStrategy,
    /// GFSK modulation parameters.
    pub gfsk: GfskParams,
    /// QAM scale-factor mode.
    pub scale: ScaleMode,
    /// CP construction (SGI on 802.11n hardware).
    pub cp: CpCompat,
    /// Viterbi weight classes.
    pub weights: WeightProfile,
    /// GFSK phase evaluation mode.
    pub phase: PhaseMode,
}

impl Default for BlueFi {
    fn default() -> BlueFi {
        BlueFi {
            strategy: DecodeStrategy::WeightedViterbi,
            gfsk: GfskParams::default(),
            scale: ScaleMode::Fixed(DEFAULT_SCALE),
            cp: CpCompat::sgi(),
            weights: WeightProfile::default(),
            phase: PhaseMode::Cumulative,
        }
    }
}

/// A synthesized BlueFi packet and its diagnostics.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The PSDU to hand to the WiFi driver.
    pub psdu: Vec<u8>,
    /// The frequency plan used.
    pub plan: ChannelPlan,
    /// MCS the packet must be transmitted at.
    pub mcs: Mcs,
    /// Scrambler seed the packet was built against.
    pub seed: u8,
    /// Number of OFDM symbols in the data field.
    pub n_symbols: usize,
    /// Coded-bit positions flipped by the FEC reversal (impairment I4).
    pub flips: Vec<usize>,
    /// Scrambled-bit positions forced to chip-determined values
    /// (SERVICE/tail/pad).
    pub forced_bits: usize,
    /// Mean per-symbol quantization error, dB (impairment I2).
    pub mean_quant_error_db: f64,
}

/// A per-worker arena holding every buffer one packet synthesis needs.
///
/// The first synthesis through a fresh scratch allocates and warms each
/// buffer; subsequent syntheses of same-or-smaller packets through the same
/// scratch perform **zero heap allocations** (checked by the allocation
/// probe in `bluefi_dsp::contracts` and the `runtime_profile` bench). The
/// scratch is plain mutable state — one per thread, never shared.
#[derive(Debug, Clone, Default)]
pub struct SynthesisScratch {
    gfsk: GfskScratch,
    phase: Vec<f64>,
    pub(crate) theta_ext: Vec<f64>,
    pub(crate) theta_hat: Vec<f64>,
    // Quantizer cached per (modulation, scale mode): construction runs a
    // debug-expensive constellation contract.
    quantizer: Option<(Modulation, ScaleMode, Quantizer)>,
    // Interleaver cached per modulation: construction runs a
    // debug-expensive bijectivity contract.
    interleaver: Option<(Modulation, Interleaver)>,
    fft_buf: Vec<Cx>,
    pub(crate) sym: QuantizedSymbol,
    demap: Vec<bool>,
    interleaved: Vec<bool>,
    block: Vec<bool>,
    // Per-symbol in-band quantization errors, in symbol order.
    pub(crate) errs: Vec<f64>,
    w_of: Vec<u32>,
    pub(crate) coded: Vec<bool>,
    weights: Vec<u32>,
    pub(crate) vit: ViterbiScratch,
    pub(crate) rev: Reversal,
    // Anchored-phase evaluator cached per GFSK parameter set (None when the
    // decomposition does not apply — the cumulative path is used instead).
    anchored: Option<((u64, u64, u64, u64, usize), Option<AnchoredModulator>)>,
    // The previous result, recycled for its psdu/flips capacity.
    pub(crate) result: Option<Synthesis>,
}

impl SynthesisScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> SynthesisScratch {
        SynthesisScratch::default()
    }

    pub(crate) fn anchored_for(&mut self, p: &GfskParams) -> Option<&AnchoredModulator> {
        let key = (
            p.sample_rate_hz.to_bits(),
            p.symbol_rate_hz.to_bits(),
            p.deviation_hz.to_bits(),
            p.bt.to_bits(),
            p.guard_bits,
        );
        match &self.anchored {
            Some((k, _)) if *k == key => {}
            _ => self.anchored = Some((key, AnchoredModulator::new(p))),
        }
        match &self.anchored {
            Some((_, am)) => am.as_ref(),
            None => None,
        }
    }

    fn interleaver_for(&mut self, modulation: Modulation) -> Interleaver {
        match &self.interleaver {
            Some((m, il)) if *m == modulation => *il,
            _ => {
                let il = Interleaver::new(modulation);
                self.interleaver = Some((modulation, il));
                il
            }
        }
    }

    /// The one per-symbol step of Secs 2.5 + 2.7, shared by the cold chain
    /// and the template patch: FFT-quantizes OFDM symbol `b` of `theta_hat`,
    /// records its in-band error in `errs[b]`, and demaps and
    /// deinterleaves it into `coded[b·N_CBPS..]`. `errs` and `coded` must
    /// already span the packet.
    pub(crate) fn quantize_symbol(&mut self, bf: &BlueFi, tx_subcarrier: f64, b: usize) {
        let modulation = bf.strategy.mcs().modulation;
        let il = self.interleaver_for(modulation);
        let quantizer = match &mut self.quantizer {
            Some((m, s, q)) if *m == modulation && *s == bf.scale => q,
            slot => {
                let q = Quantizer::new(modulation, bf.scale);
                &mut slot.insert((modulation, bf.scale, q)).2
            }
        };
        let bl = bf.cp.block_len();
        let body = &self.theta_hat[b * bl + bf.cp.cp_len..(b + 1) * bl];
        quantizer.quantize_body_into(body, &mut self.fft_buf, &mut self.sym);
        // In-band error: what the Bluetooth receiver's filter sees.
        self.errs[b] = self.sym.in_band_error_db(tx_subcarrier, bf.weights.band);
        let ncbps = il.block_len();
        let bps = modulation.bits_per_symbol();
        bluefi_dsp::contracts::ensure_len(&mut self.interleaved, ncbps, false);
        for (d, &p) in self.sym.points.iter().enumerate() {
            demap_point_into(modulation, p, &mut self.demap);
            self.interleaved[d * bps..(d + 1) * bps].copy_from_slice(&self.demap);
        }
        il.deinterleave_into(&self.interleaved, &mut self.block);
        self.coded[b * ncbps..(b + 1) * ncbps].copy_from_slice(&self.block);
    }

    /// Mean of the recorded per-symbol errors, summed in symbol order
    /// (impairment I2).
    pub(crate) fn mean_quant_error_db(&self) -> f64 {
        let sum = self.errs.iter().fold(0.0, |acc, e| acc + e);
        sum / self.errs.len().max(1) as f64
    }
}

impl BlueFi {
    /// Synthesizes a PSDU whose transmission emits `bt_bits` as GFSK on the
    /// absolute frequency `bt_freq_hz`, choosing the WiFi channel by the
    /// Sec 2.6 frequency planning. `seed` is the scrambler seed the chip
    /// will use.
    ///
    /// Returns `None` when no WiFi channel covers the requested frequency
    /// (Bluetooth channels 0–1).
    pub fn synthesize(&self, bt_bits: &[bool], bt_freq_hz: f64, seed: u8) -> Option<Synthesis> {
        let plan = plan_channel(bt_freq_hz)?;
        Some(self.synthesize_at(bt_bits, plan, seed))
    }

    /// Synthesizes against an explicit channel plan (used when the WiFi
    /// channel is pinned, e.g. the single-channel AFH audio mode). Thin shim
    /// over [`BlueFi::synthesize_at_with`].
    pub fn synthesize_at(&self, bt_bits: &[bool], plan: ChannelPlan, seed: u8) -> Synthesis {
        let mut scratch = SynthesisScratch::new();
        self.synthesize_at_with(bt_bits, plan, seed, &mut scratch);
        // lint: allow(panic) synthesize_at_with always stores a result
        scratch.result.take().unwrap()
    }

    /// Scratch-buffer variant of [`BlueFi::synthesize_at`]: the whole
    /// pipeline — GFSK modulation, CP compatibility, per-symbol FFT
    /// quantization, demap/deinterleave, FEC reversal, descramble — runs
    /// through `scratch`'s buffers, fused per symbol, with zero steady-state
    /// heap allocations. The returned reference borrows the result stored in
    /// the scratch; clone it to keep it past the next call.
    pub fn synthesize_at_with<'s>(
        &self,
        bt_bits: &[bool],
        plan: ChannelPlan,
        seed: u8,
        scratch: &'s mut SynthesisScratch,
    ) -> &'s Synthesis {
        let s = scratch;
        // Telemetry spans/counters below are static atomics — they add no
        // heap allocations, preserving the zero-alloc steady state.
        let _span_total = telemetry::span(SpanKind::Synthesize);
        // Synthesize at the (possibly integer-snapped) transmit subcarrier.
        let offset_hz = plan.tx_subcarrier * SUBCARRIER_SPACING_HZ;

        // Sec 2.3 + 2.4: GFSK phase, recentered on the WiFi channel, then
        // the CP- and windowing-compatible mapping. The anchored mode fuses
        // modulation, offset and block extension into one closed-form fill
        // (see `bluefi_bt::anchored`); the cumulative mode accumulates
        // frequency and hands the phase to the phase-generic chain, as the
        // paper describes.
        let anchored =
            self.phase == PhaseMode::Anchored && s.anchored_for(&self.gfsk).is_some();
        if anchored {
            {
                // Scoped so the Gfsk span closes before CpCompat opens —
                // sibling phases, not nested (the causal trace parents
                // both directly under the synthesize root).
                let _sp = telemetry::span(SpanKind::Gfsk);
                let phase_len =
                    (bt_bits.len() + 2 * self.gfsk.guard_bits) * self.gfsk.sps();
                let ext_len = self.cp.n_blocks(phase_len.max(1)) * self.cp.block_len() + 1;
                // lint: allow(panic) anchored_for returned Some on the line above
                let am = s.anchored.as_ref().and_then(|(_, m)| m.as_ref()).unwrap();
                let offset_cps = offset_hz / self.gfsk.sample_rate_hz;
                am.fill_ext(bt_bits, offset_cps, ext_len, &mut s.theta_ext);
            }
            let _sp = telemetry::span(SpanKind::CpCompat);
            self.cp.pocket_map_into(&s.theta_ext, &mut s.theta_hat);
        } else {
            let mut phase = std::mem::take(&mut s.phase);
            {
                let _sp = telemetry::span(SpanKind::Gfsk);
                s.gfsk.modulate_phase_into(bt_bits, &self.gfsk, offset_hz, &mut phase);
            }
            self.make_compatible_into(&phase, plan, s);
            s.phase = phase;
        }
        self.synthesize_theta_hat(plan, seed, s)
    }

    /// Synthesizes a PSDU whose transmission emits `phase`: any
    /// constant-envelope phase trajectory (radians, one sample per
    /// `gfsk.sample_rate_hz`) that already carries the channel offset of
    /// `plan.tx_subcarrier` — GFSK, or the π/4-DQPSK/8DPSK EDR phases of
    /// the Sec 5.3 extension. Runs the same chain as
    /// [`BlueFi::synthesize_at_with`] from CP compatibility on, so
    /// `synthesize_phase_with(modulate_phase(bits, ..), ..)` equals the
    /// cumulative-phase synthesis of `bits` in every field.
    pub fn synthesize_phase_with<'s>(
        &self,
        phase: &[f64],
        plan: ChannelPlan,
        seed: u8,
        scratch: &'s mut SynthesisScratch,
    ) -> &'s Synthesis {
        let _span_total = telemetry::span(SpanKind::Synthesize);
        self.make_compatible_into(phase, plan, scratch);
        self.synthesize_theta_hat(plan, seed, scratch)
    }

    /// Sec 2.4 on an offset phase: the CP- and windowing-compatible θ̂ into
    /// the scratch.
    fn make_compatible_into(&self, phase: &[f64], plan: ChannelPlan, s: &mut SynthesisScratch) {
        let _sp = telemetry::span(SpanKind::CpCompat);
        let offset_cps = plan.tx_subcarrier * SUBCARRIER_SPACING_HZ / self.gfsk.sample_rate_hz;
        self.cp.make_compatible_into(phase, offset_cps, &mut s.theta_ext, &mut s.theta_hat);
    }

    /// Secs 2.5–2.8 from the scratch's θ̂: the per-symbol step over every
    /// OFDM symbol, weighted FEC reversal, then forcing, descrambling and
    /// packing the PSDU.
    fn synthesize_theta_hat<'s>(
        &self,
        plan: ChannelPlan,
        seed: u8,
        s: &'s mut SynthesisScratch,
    ) -> &'s Synthesis {
        let mcs = self.strategy.mcs();
        let n_symbols = s.theta_hat.len() / self.cp.block_len();
        let il = s.interleaver_for(mcs.modulation);
        let ncbps = il.block_len();
        bluefi_dsp::contracts::ensure_len(&mut s.w_of, ncbps, 0);
        for (k, w) in s.w_of.iter_mut().enumerate() {
            *w = self.weights.weight_at(il.subcarrier_of(k), plan.tx_subcarrier);
        }
        bluefi_dsp::contracts::ensure_len(&mut s.coded, n_symbols * ncbps, false);
        bluefi_dsp::contracts::ensure_len(&mut s.errs, n_symbols, 0.0);
        bluefi_dsp::contracts::ensure_capacity(&mut s.weights, n_symbols * ncbps);
        {
            let _sp = telemetry::span(SpanKind::Quantize);
            for b in 0..n_symbols {
                s.quantize_symbol(self, plan.tx_subcarrier, b);
                s.weights.extend_from_slice(&s.w_of);
            }
        }
        let mean_quant_error_db = s.mean_quant_error_db();

        // Sec 2.7 back half: weighted FEC reversal.
        {
            let _sp = telemetry::span(SpanKind::FecReversal);
            reverse_fec_with(
                &s.coded,
                &s.weights,
                self.strategy,
                plan.tx_subcarrier,
                &mut s.vit,
                &mut s.rev,
            );
        }

        // Sec 2.8 + framing: force the chip-owned bits, descramble, pack —
        // recycling the previous result's buffers.
        let (mut psdu, mut flips) = match s.result.take() {
            Some(prev) => (prev.psdu, prev.flips),
            None => (Vec::new(), Vec::new()),
        };
        let span_extract = telemetry::span(SpanKind::Extract);
        let forced_bits = extract_psdu_into(&mut s.rev.scrambled, seed, &mut psdu);
        bluefi_dsp::contracts::ensure_len(&mut flips, s.rev.flips.len(), 0);
        flips.copy_from_slice(&s.rev.flips);
        drop(span_extract);

        telemetry::incr(Counter::PacketsSynthesized);
        telemetry::add(Counter::SymbolsProcessed, n_symbols as u64);
        telemetry::add(Counter::FecFlips, flips.len() as u64);
        telemetry::add(Counter::ForcedBits, forced_bits as u64);
        telemetry::gauge_max(Gauge::ScratchCodedBits, s.coded.capacity() as u64);
        telemetry::gauge_max(Gauge::ScratchPhaseSamples, s.theta_hat.capacity() as u64);
        telemetry::gauge_max(Gauge::ScratchPsduBytes, psdu.capacity() as u64);

        s.result = Some(Synthesis {
            psdu,
            plan,
            mcs,
            seed,
            n_symbols,
            flips,
            forced_bits,
            mean_quant_error_db,
        });
        // lint: allow(panic) assigned on the line above
        s.result.as_ref().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};

    fn beacon_bits() -> Vec<bool> {
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address: [0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF],
            adv_data: (0..24).collect(),
            tx_add: false,
        };
        adv_air_bits(&pdu, 38)
    }

    #[test]
    fn synthesis_produces_a_sane_psdu() {
        let bf = BlueFi::default();
        let syn = bf.synthesize(&beacon_bits(), 2.426e9, 71).expect("plannable");
        assert_eq!(syn.plan.wifi_channel, 3);
        assert_eq!(syn.mcs.index, 7);
        // A ~376-bit packet with 8 guard bits at 20 samples/bit needs
        // ~107 OFDM symbols at 72 samples each.
        assert!(syn.n_symbols > 90 && syn.n_symbols < 130, "{}", syn.n_symbols);
        // PSDU: n_symbols·260 bits minus framing, in bytes.
        let expect = (syn.n_symbols * 260 - 22) / 8;
        assert_eq!(syn.psdu.len(), expect);
        assert!(syn.psdu.len() < 65_535, "fits the PHY PSDU limit");
        assert!(syn.psdu.len() > 2304, "exceeds an MPDU: needs the driver mod");
    }

    #[test]
    fn quantization_error_is_small() {
        let bf = BlueFi::default();
        let syn = bf.synthesize(&beacon_bits(), 2.426e9, 71).unwrap();
        // The 64-QAM grid tracks a constant-envelope waveform to roughly
        // -10 dB in-band (the residual is quantization floor plus mild
        // clamping when the instantaneous frequency parks on one bin).
        assert!(
            syn.mean_quant_error_db < -8.0,
            "quant error {} dB",
            syn.mean_quant_error_db
        );
    }

    #[test]
    fn flips_avoid_the_bluetooth_band_viterbi() {
        let bf = BlueFi::default();
        let syn = bf.synthesize(&beacon_bits(), 2.426e9, 71).unwrap();
        let il = bluefi_wifi::Interleaver::new(syn.mcs.modulation);
        let ncbps = syn.mcs.coded_bits_per_symbol();
        for &f in &syn.flips {
            let sc = il.subcarrier_of(f % ncbps) as f64;
            let d = (sc - syn.plan.tx_subcarrier).abs();
            assert!(d > 4.0, "flip at {f} on subcarrier {sc} (BT at {})", syn.plan.tx_subcarrier);
        }
    }

    #[test]
    fn realtime_strategy_uses_mcs5() {
        let bf = BlueFi { strategy: DecodeStrategy::Realtime, ..Default::default() };
        let syn = bf.synthesize(&beacon_bits(), 2.426e9, 71).unwrap();
        assert_eq!(syn.mcs.index, 5);
        // Flips confined to the far side of the band from the BT signal
        // (BT at +12.8 -> flips on negative subcarriers).
        let il = bluefi_wifi::Interleaver::new(syn.mcs.modulation);
        let ncbps = syn.mcs.coded_bits_per_symbol();
        for &f in &syn.flips {
            let sc = il.subcarrier_of(f % ncbps);
            assert!(sc <= -4, "flip on subcarrier {sc}");
        }
    }

    #[test]
    fn scratch_synthesis_matches_one_shot() {
        // One scratch reused across strategies, channels, and seeds must
        // reproduce the allocating path exactly — every field.
        let mut scratch = SynthesisScratch::new();
        for strategy in [DecodeStrategy::WeightedViterbi, DecodeStrategy::Realtime] {
            let bf = BlueFi { strategy, ..Default::default() };
            for (freq, seed) in [(2.426e9, 71u8), (2.444e9, 13)] {
                let fresh = bf.synthesize(&beacon_bits(), freq, seed).unwrap();
                let via = bf.synthesize_at_with(&beacon_bits(), fresh.plan, seed, &mut scratch);
                assert_eq!(via.psdu, fresh.psdu, "{strategy:?} {freq} {seed}");
                assert_eq!(via.flips, fresh.flips);
                assert_eq!(via.n_symbols, fresh.n_symbols);
                assert_eq!(via.forced_bits, fresh.forced_bits);
                assert!(
                    (via.mean_quant_error_db - fresh.mean_quant_error_db).abs() < 1e-12,
                    "{} vs {}",
                    via.mean_quant_error_db,
                    fresh.mean_quant_error_db
                );
            }
        }
    }

    #[test]
    fn phase_entry_equals_cumulative_synthesis() {
        // The GFSK phase fed through the phase-input entry must reproduce
        // the cumulative bits-input synthesis in every field, floats to the
        // bit, for both strategies and both subcarrier signs.
        let bits = beacon_bits();
        let mut via_bits = SynthesisScratch::new();
        let mut via_phase = SynthesisScratch::new();
        for strategy in [DecodeStrategy::WeightedViterbi, DecodeStrategy::Realtime] {
            let bf = BlueFi { strategy, ..Default::default() };
            for plan in [ChannelPlan::pinned(3, 13.0), ChannelPlan::pinned(6, -3.0)] {
                let offset_hz = plan.tx_subcarrier * SUBCARRIER_SPACING_HZ;
                let phase = bluefi_bt::gfsk::modulate_phase(&bits, &bf.gfsk, offset_hz);
                let want = bf.synthesize_at_with(&bits, plan, 71, &mut via_bits);
                let got = bf.synthesize_phase_with(&phase, plan, 71, &mut via_phase);
                let ctx = format!("{strategy:?} at {}", plan.tx_subcarrier);
                assert_eq!(got.psdu, want.psdu, "{ctx}");
                assert_eq!(got.plan, want.plan, "{ctx}");
                assert_eq!(got.mcs, want.mcs, "{ctx}");
                assert_eq!(got.seed, want.seed, "{ctx}");
                assert_eq!(got.n_symbols, want.n_symbols, "{ctx}");
                assert_eq!(got.flips, want.flips, "{ctx}");
                assert_eq!(got.forced_bits, want.forced_bits, "{ctx}");
                assert_eq!(
                    got.mean_quant_error_db.to_bits(),
                    want.mean_quant_error_db.to_bits(),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let bf = BlueFi::default();
        let a = bf.synthesize(&beacon_bits(), 2.426e9, 71).unwrap();
        let b = bf.synthesize(&beacon_bits(), 2.426e9, 71).unwrap();
        assert_eq!(a.psdu, b.psdu);
    }

    #[test]
    fn different_seed_different_psdu_same_waveform_goal() {
        let bf = BlueFi::default();
        let a = bf.synthesize(&beacon_bits(), 2.426e9, 1).unwrap();
        let b = bf.synthesize(&beacon_bits(), 2.426e9, 2).unwrap();
        assert_ne!(a.psdu, b.psdu, "descrambling must differ by seed");
    }

    #[test]
    fn anchored_mode_synthesizes_and_is_deterministic() {
        // The anchored phase evaluator applies to the default GFSK
        // parameters (integer sps, rational modulation index) and must
        // produce a sane, deterministic packet under both strategies.
        for strategy in [DecodeStrategy::WeightedViterbi, DecodeStrategy::Realtime] {
            let bf = BlueFi { strategy, phase: PhaseMode::Anchored, ..Default::default() };
            let a = bf.synthesize(&beacon_bits(), 2.426e9, 71).unwrap();
            let b = bf.synthesize(&beacon_bits(), 2.426e9, 71).unwrap();
            assert_eq!(a.psdu, b.psdu, "{strategy:?}");
            assert_eq!(a.flips, b.flips);
            assert!(a.n_symbols > 90 && a.n_symbols < 130, "{}", a.n_symbols);
            let expect = (a.n_symbols * bf.strategy.mcs().data_bits_per_symbol() - 22) / 8;
            assert_eq!(a.psdu.len(), expect);
        }
    }

    #[test]
    fn anchored_mode_tracks_the_cumulative_waveform() {
        // Anchored and cumulative phase differ only by residue wrapping and
        // summation order (~2e-11 rad), physically nothing: the waveforms
        // quantize to the same in-band error and nearly all PSDU bytes are
        // identical. (Out-of-band subcarriers carry near-tie constellation
        // decisions, so a small fraction of bytes may flip and cascade
        // through the Viterbi traceback — which is exactly why the template
        // cache compares anchored-vs-anchored, never anchored-vs-cumulative.)
        let cum = BlueFi::default();
        let anc = BlueFi { phase: PhaseMode::Anchored, ..Default::default() };
        let a = cum.synthesize(&beacon_bits(), 2.426e9, 71).unwrap();
        let b = anc.synthesize(&beacon_bits(), 2.426e9, 71).unwrap();
        assert_eq!(a.psdu.len(), b.psdu.len());
        assert_eq!(a.n_symbols, b.n_symbols);
        let same = a.psdu.iter().zip(&b.psdu).filter(|(x, y)| x == y).count();
        assert!(
            same * 100 >= a.psdu.len() * 95,
            "only {same}/{} bytes agree",
            a.psdu.len()
        );
        assert!((a.mean_quant_error_db - b.mean_quant_error_db).abs() < 0.01);
    }

    #[test]
    fn unplannable_frequency_returns_none() {
        let bf = BlueFi::default();
        assert!(bf.synthesize(&beacon_bits(), 2.402e9, 71).is_none());
    }
}
