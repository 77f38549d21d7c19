//! The end-to-end BlueFi synthesizer: Bluetooth packet bits in, 802.11n
//! PSDU bytes out (paper Secs 2.2–2.8 and 3).

use crate::cp::CpCompat;
use crate::qam::{QuantizedSymbol, Quantizer, ScaleMode, DEFAULT_SCALE};
use crate::reversal::{extract_psdu_packed, reverse_fec_packed, DecodeStrategy, WeightProfile};
use crate::telemetry::{self, Counter, Gauge, SpanKind};
use bluefi_bt::gfsk::{GfskParams, GfskScratch};
use bluefi_coding::ViterbiScratch;
use bluefi_dsp::bits::BitVec;
use bluefi_dsp::Cx;
use bluefi_wifi::channels::{plan_channel, ChannelPlan};
use bluefi_wifi::qam::Modulation;
use bluefi_wifi::subcarriers::{N_DATA, SUBCARRIER_SPACING_HZ};
use bluefi_wifi::{Interleaver, Mcs};

/// Coded bits per OFDM symbol at the densest modulation (1024-QAM): the
/// size of [`SynthesisScratch::quantize_symbol`]'s staging array.
const MAX_NCBPS: usize = 10 * N_DATA;

/// A GFSK phase mode, kept only so existing configurations still build.
///
/// There is one GFSK phase: the cumulative frequency accumulation of
/// [`bluefi_bt::gfsk`], which every golden vector and fixture pins and
/// which the template cache resumes. Both variants select it; nothing in
/// the library reads [`BlueFi::phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseMode {
    /// The cumulative phase (the default).
    Cumulative,
    /// The same cumulative phase.
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
    /// Inert: every [`PhaseMode`] selects the one cumulative phase.
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
    pub(crate) gfsk: GfskScratch,
    pub(crate) phase: Vec<f64>,
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
    // Per-symbol in-band quantization errors, in symbol order.
    pub(crate) errs: Vec<f64>,
    w_of: Vec<u32>,
    // The coded stream, packed: `N_CBPS` bits per OFDM symbol.
    pub(crate) coded: BitVec,
    weights: Vec<u32>,
    pub(crate) vit: ViterbiScratch,
    // The raw FEC decode: scrambled data bits and flipped coded positions.
    pub(crate) scrambled: BitVec,
    pub(crate) flips: Vec<usize>,
    // The previous result, recycled for its psdu/flips capacity.
    pub(crate) result: Option<Synthesis>,
}

impl SynthesisScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> SynthesisScratch {
        SynthesisScratch::default()
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
    /// records its in-band error in `errs[b]`, and writes the points' Gray
    /// bits — recorded by the quantizer from the same per-axis rounding, so
    /// nothing is quantized twice — deinterleaved into
    /// `coded[b·N_CBPS..(b+1)·N_CBPS]`. The bits go through the
    /// interleaver's table into a per-symbol staging array (plain stores,
    /// no read-modify-write of a shared word), which is then packed and
    /// stored a whole word at a time at the `N_CBPS`-bit stride, leaving
    /// the neighbouring symbols' bits as they were. `errs` and `coded`
    /// must already span the packet.
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
        let mut staged = [false; MAX_NCBPS];
        let staged = &mut staged[..ncbps];
        let (words, table) = (&self.sym.bits, il.coded_index_table());
        match modulation {
            Modulation::Bpsk => scatter_gray_bits::<1>(words, table, staged),
            Modulation::Qpsk => scatter_gray_bits::<2>(words, table, staged),
            Modulation::Qam16 => scatter_gray_bits::<4>(words, table, staged),
            Modulation::Qam64 => scatter_gray_bits::<6>(words, table, staged),
            Modulation::Qam256 => scatter_gray_bits::<8>(words, table, staged),
            Modulation::Qam1024 => scatter_gray_bits::<10>(words, table, staged),
        }
        self.coded.store_bools(b * ncbps, staged);
    }

    /// Sec 2.8 + framing, the one PSDU tail of the cold chain and the
    /// template patch: counts the chip-owned bits of `scrambled`,
    /// descrambles and packs the PSDU, copies `flips`, averages `errs`,
    /// and stores the result, recycling the previous one's buffers.
    /// `requantized` is the number of OFDM symbols this synthesis ran
    /// through [`SynthesisScratch::quantize_symbol`].
    pub(crate) fn finish(
        &mut self,
        plan: ChannelPlan,
        mcs: Mcs,
        seed: u8,
        requantized: usize,
    ) -> &Synthesis {
        // Impairment I2: the recorded per-symbol errors, summed in symbol
        // order, so a patch that substitutes some is the cold mean to the bit.
        let sum = self.errs.iter().fold(0.0, |acc, e| acc + e);
        let mean_quant_error_db = sum / self.errs.len().max(1) as f64;
        let (mut psdu, mut flips) = match self.result.take() {
            Some(prev) => (prev.psdu, prev.flips),
            None => (Vec::new(), Vec::new()),
        };
        let span_extract = telemetry::span(SpanKind::Extract);
        let forced_bits = extract_psdu_packed(&self.scrambled, seed, &mut psdu);
        bluefi_dsp::contracts::ensure_len_keeping(&mut flips, self.flips.len(), 0);
        flips.copy_from_slice(&self.flips);
        drop(span_extract);

        telemetry::incr(Counter::PacketsSynthesized);
        telemetry::add(Counter::SymbolsProcessed, requantized as u64);
        telemetry::add(Counter::FecFlips, flips.len() as u64);
        telemetry::add(Counter::ForcedBits, forced_bits as u64);
        telemetry::gauge_max(Gauge::ScratchCodedBits, 8 * self.coded.bytes() as u64);
        telemetry::gauge_max(Gauge::ScratchPhaseSamples, self.theta_hat.capacity() as u64);
        telemetry::gauge_max(Gauge::ScratchPsduBytes, psdu.capacity() as u64);

        self.result.insert(Synthesis {
            psdu,
            plan,
            mcs,
            seed,
            n_symbols: self.errs.len(),
            flips,
            forced_bits,
            mean_quant_error_db,
        })
    }
}

/// Scatters each point's `BPS` Gray bits (`b0` the most significant, as
/// [`QuantizedSymbol::bits`] holds them) to their deinterleaved places
/// `table[d·BPS + j]` of `staged`. Generic over the bits per point, so
/// every shift is a constant.
fn scatter_gray_bits<const BPS: usize>(words: &[u16], table: &[u16], staged: &mut [bool]) {
    debug_assert_eq!(table.len(), words.len() * BPS, "one table entry per Gray bit");
    for (&word, ks) in words.iter().zip(table.chunks_exact(BPS)) {
        for (j, &k) in ks.iter().enumerate() {
            staged[usize::from(k)] = (word >> (BPS - 1 - j)) & 1 == 1;
        }
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
        // Telemetry spans/counters below are static atomics — they add no
        // heap allocations, preserving the zero-alloc steady state.
        let _span_total = telemetry::span(SpanKind::Synthesize);
        self.reverse_at_with(bt_bits, plan, scratch);
        scratch.finish(plan, self.strategy.mcs(), seed, scratch.errs.len())
    }

    /// [`BlueFi::synthesize_at_with`] up to the PSDU tail (Secs 2.3–2.7):
    /// leaves in `s` the per-bit GFSK accumulators, the coded stream, the
    /// per-symbol errors and the raw FEC decode — with, for the real-time
    /// strategy, the decoder's propagated state — which the template cache
    /// saves before [`SynthesisScratch::finish`].
    pub(crate) fn reverse_at_with(
        &self,
        bt_bits: &[bool],
        plan: ChannelPlan,
        s: &mut SynthesisScratch,
    ) {
        // Synthesize at the (possibly integer-snapped) transmit subcarrier.
        let offset_hz = plan.tx_subcarrier * SUBCARRIER_SPACING_HZ;

        // Sec 2.3 + 2.4: GFSK phase, recentered on the WiFi channel, then
        // the CP- and windowing-compatible mapping.
        let mut phase = std::mem::take(&mut s.phase);
        {
            // Scoped so the Gfsk span closes before CpCompat opens —
            // sibling phases, not nested (the causal trace parents both
            // directly under the synthesize root).
            let _sp = telemetry::span(SpanKind::Gfsk);
            s.gfsk.modulate_phase_into(bt_bits, &self.gfsk, offset_hz, &mut phase);
        }
        self.make_compatible_into(&phase, plan, s);
        s.phase = phase;
        self.reverse_theta_hat(plan, s);
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
        self.reverse_theta_hat(plan, scratch);
        scratch.finish(plan, self.strategy.mcs(), seed, scratch.errs.len())
    }

    /// Sec 2.4 on an offset phase: the CP- and windowing-compatible θ̂ into
    /// the scratch.
    fn make_compatible_into(&self, phase: &[f64], plan: ChannelPlan, s: &mut SynthesisScratch) {
        let _sp = telemetry::span(SpanKind::CpCompat);
        let offset_cps = plan.tx_subcarrier * SUBCARRIER_SPACING_HZ / self.gfsk.sample_rate_hz;
        self.cp.make_compatible_into(phase, offset_cps, &mut s.theta_ext, &mut s.theta_hat);
    }

    /// Secs 2.5–2.7 from the scratch's θ̂: the per-symbol step over every
    /// OFDM symbol, then the weighted FEC reversal into `s.scrambled` and
    /// `s.flips`.
    fn reverse_theta_hat(&self, plan: ChannelPlan, s: &mut SynthesisScratch) {
        let mcs = self.strategy.mcs();
        let n_symbols = s.theta_hat.len() / self.cp.block_len();
        let il = s.interleaver_for(mcs.modulation);
        let ncbps = il.block_len();
        // Only the weighted Viterbi reads per-bit weights; the real-time
        // solver's protected set is fixed by its plan.
        let weighted = self.strategy == DecodeStrategy::WeightedViterbi;
        if weighted {
            bluefi_dsp::contracts::ensure_len(&mut s.w_of, ncbps, 0);
            for (k, w) in s.w_of.iter_mut().enumerate() {
                *w = self.weights.weight_at(il.subcarrier_of(k), plan.tx_subcarrier);
            }
            bluefi_dsp::contracts::ensure_capacity(&mut s.weights, n_symbols * ncbps);
        } else {
            s.weights.clear();
        }
        // Every coded bit and error is written below.
        s.coded.resize(n_symbols * ncbps);
        bluefi_dsp::contracts::ensure_len_keeping(&mut s.errs, n_symbols, 0.0);
        {
            let _sp = telemetry::span(SpanKind::Quantize);
            for b in 0..n_symbols {
                s.quantize_symbol(self, plan.tx_subcarrier, b);
                if weighted {
                    s.weights.extend_from_slice(&s.w_of);
                }
            }
        }

        // Sec 2.7 back half: weighted FEC reversal.
        let _sp = telemetry::span(SpanKind::FecReversal);
        reverse_fec_packed(
            &s.coded,
            &s.weights,
            self.strategy,
            plan.tx_subcarrier,
            &mut s.vit,
            &mut s.scrambled,
            &mut s.flips,
        );
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
    fn unplannable_frequency_returns_none() {
        let bf = BlueFi::default();
        assert!(bf.synthesize(&beacon_bits(), 2.402e9, 71).is_none());
    }
}
