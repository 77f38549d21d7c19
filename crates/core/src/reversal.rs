//! Reversing the bit-domain half of the TX chain: QAM demap →
//! deinterleave → FEC "decode" (weighted Viterbi or the real-time solver) →
//! descramble (paper Secs 2.7–2.8).

use crate::telemetry::{self, Counter};
use bluefi_coding::lfsr::Lfsr7;
use bluefi_coding::realtime::realtime_plan;
use bluefi_coding::{CodeRate, FreeEdge, ViterbiScratch};
use bluefi_wifi::Mcs;

/// Weight classes for the modified Viterbi (paper Table 1).
#[derive(Debug, Clone, Copy)]
pub struct WeightProfile {
    /// Weight for bits on subcarriers inside the main Bluetooth spectrum.
    pub high: u32,
    /// Weight for bits on the adjacent guard subcarriers.
    pub medium: u32,
    /// Weight everywhere else.
    pub low: u32,
    /// Half-width (in subcarriers) of the main Bluetooth band.
    pub band: f64,
    /// Additional half-width of the medium-weight guard band.
    pub guard: f64,
}

impl Default for WeightProfile {
    fn default() -> WeightProfile {
        // Table 1: 1000 on the 8 subcarriers of the main spectrum, 100 on
        // the 4 adjacent on each side, 1 elsewhere.
        WeightProfile { high: 1000, medium: 100, low: 1, band: 4.0, guard: 8.0 }
    }
}

impl WeightProfile {
    /// The weight for a coded bit mapped to `subcarrier` when the Bluetooth
    /// signal is centered at `bt_subcarrier`.
    pub fn weight_at(&self, subcarrier: i32, bt_subcarrier: f64) -> u32 {
        let d = (subcarrier as f64 - bt_subcarrier).abs();
        if d <= self.band {
            self.high
        } else if d <= self.guard {
            self.medium
        } else {
            self.low
        }
    }
}

/// How to reverse the FEC encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStrategy {
    /// Weighted Viterbi at rate 5/6 (MCS 7) — best quality, O(T·64).
    WeightedViterbi,
    /// The O(T) exact-constraint solver at rate 2/3 (MCS 5) — real-time.
    Realtime,
}

impl DecodeStrategy {
    /// The MCS this strategy drives the chip at.
    pub fn mcs(self) -> Mcs {
        match self {
            DecodeStrategy::WeightedViterbi => Mcs::bluefi_viterbi(),
            DecodeStrategy::Realtime => Mcs::bluefi_realtime(),
        }
    }
}

/// Result of the FEC reversal.
#[derive(Debug, Clone, Default)]
pub struct Reversal {
    /// The scrambled data bits that the chip must be fed (before
    /// descrambling).
    pub scrambled: Vec<bool>,
    /// Transmitted coded-bit positions where re-encoding differs from the
    /// target waveform's bits.
    pub flips: Vec<usize>,
}

/// Reverses the encoder: finds data bits whose encoding approximates the
/// target coded stream, avoiding flips on high-weight bits. Decodes
/// through `vit` and writes the result into `out`. Both strategies are allocation-free at
/// steady state: the weighted-Viterbi path runs the bit-packed engine, and
/// the real-time path replays the interned elimination plan through the
/// scratch's embedded buffers.
pub fn reverse_fec_with(
    coded: &[bool],
    weights: &[u32],
    strategy: DecodeStrategy,
    bt_subcarrier: f64,
    vit: &mut ViterbiScratch,
    out: &mut Reversal,
) {
    match strategy {
        DecodeStrategy::WeightedViterbi => {
            telemetry::incr(Counter::ViterbiDecodes);
            telemetry::add(Counter::ViterbiCodedBits, coded.len() as u64);
            let rate = CodeRate::R56;
            vit.decode_punctured_into(rate, coded, Some(weights), false, &mut out.scrambled);
            vit.reencode_flips_into(rate, &out.scrambled, coded, &mut out.flips);
        }
        DecodeStrategy::Realtime => {
            telemetry::incr(Counter::RealtimeDecodes);
            // Positive Bluetooth offsets protect the positive half of the
            // band (flips confined to negative subcarriers) and vice versa.
            let edge = if bt_subcarrier >= 0.0 {
                FreeEdge::Front
            } else {
                FreeEdge::Back
            };
            let plan = realtime_plan(coded.len(), edge);
            plan.decode_into(coded, vit.realtime_scratch(), &mut out.scrambled, &mut out.flips);
        }
    }
}

/// Forces the scrambled-bit positions BlueFi does not control — the 16-bit
/// SERVICE field, the 6 tail bits and trailing pad — to the values the chip
/// will actually produce, then packs the descrambled PSDU into `psdu`
/// (resized to the byte count), allocating only when it must grow.
/// Returns the number of forced bits.
pub fn extract_psdu_into(scrambled: &mut [bool], seed: u8, psdu: &mut Vec<u8>) -> usize {
    let total = scrambled.len();
    assert!(total > 22, "need at least SERVICE + tail");
    let psdu_bits = (total - 16 - 6) / 8 * 8;
    let tail_start = 16 + psdu_bits;

    // The scrambler sequence (SERVICE and pad are zeros, so their scrambled
    // value IS the sequence; tail is forced to zero post-scrambling).
    let mut lfsr = Lfsr7::new(seed);
    let mut forced = 0;
    for (i, s) in scrambled.iter_mut().enumerate() {
        let seq = lfsr.next_bit();
        let forced_value = if i < 16 {
            Some(seq) // scrambled SERVICE zeros
        } else if (tail_start..tail_start + 6).contains(&i) {
            Some(false) // tail bits zeroed after scrambling
        } else if i >= tail_start + 6 {
            Some(seq) // scrambled pad zeros
        } else {
            None
        };
        if let Some(v) = forced_value {
            if *s != v {
                forced += 1;
                *s = v;
            }
        }
    }

    // Descramble the PSDU region and pack LSB-first in one streaming pass.
    // Descrambling = XOR with the same sequence; regenerate it aligned to
    // position 0 and skip the SERVICE field's 16 bits.
    let mut lfsr = Lfsr7::new(seed);
    for _ in 0..16 {
        lfsr.next_bit();
    }
    bluefi_dsp::contracts::ensure_len(psdu, psdu_bits / 8, 0u8);
    for (byte_i, slot) in psdu.iter_mut().enumerate() {
        let mut b = 0u8;
        for bit in 0..8 {
            if scrambled[16 + byte_i * 8 + bit] ^ lfsr.next_bit() {
                b |= 1 << bit;
            }
        }
        *slot = b;
    }
    if bluefi_dsp::contracts::enabled() && psdu_bits >= 8 {
        // Stage contract: the streaming pack must agree with a re-derivation
        // of the first byte (stack-only — the probe must stay quiet here).
        let mut lfsr = Lfsr7::new(seed);
        for _ in 0..16 {
            lfsr.next_bit();
        }
        let mut reference = 0u8;
        for bit in 0..8 {
            if scrambled[16 + bit] ^ lfsr.next_bit() {
                reference |= 1 << bit;
            }
        }
        bluefi_dsp::contract!(
            psdu[0] == reference,
            "extract_psdu_into: streaming pack disagrees with reference"
        );
    }
    forced
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluefi_wifi::tx::{coded_bits, scrambled_bits};

    fn reversed(coded: &[bool], strategy: DecodeStrategy, bt_subcarrier: f64) -> Reversal {
        let weights = vec![1u32; coded.len()];
        let mut out = Reversal::default();
        let mut vit = ViterbiScratch::new();
        reverse_fec_with(coded, &weights, strategy, bt_subcarrier, &mut vit, &mut out);
        out
    }

    #[test]
    fn weight_profile_matches_table1() {
        let p = WeightProfile::default();
        // Paper Table 1, BT spectrum on subcarriers 9..16 (center 12.5):
        let bt = 12.5;
        assert_eq!(p.weight_at(-28, bt), 1); // bit 0
        assert_eq!(p.weight_at(-24, bt), 1); // bit 1
        assert_eq!(p.weight_at(3, bt), 1); // bit 7
        assert_eq!(p.weight_at(8, bt), 100); // bit 8
        assert_eq!(p.weight_at(12, bt), 1000); // bit 9
        assert_eq!(p.weight_at(16, bt), 1000); // bit 10
        assert_eq!(p.weight_at(20, bt), 100); // bit 11
        assert_eq!(p.weight_at(25, bt), 1); // bit 12
    }

    #[test]
    fn roundtrip_a_real_codeword() {
        // Encode a PSDU with the real TX chain, demap via QuantizedSymbol
        // stand-ins, and reverse: the decoded scrambled bits must re-encode
        // with zero flips.
        let mcs = Mcs::bluefi_viterbi();
        let psdu = vec![0x5Au8; 61]; // 16+488+6=510 -> 2 symbols (520)
        let scrambled = scrambled_bits(&psdu, 71, mcs);
        let coded = coded_bits(&scrambled, mcs);
        let rev = reversed(&coded, DecodeStrategy::WeightedViterbi, 12.0);
        assert!(rev.flips.is_empty(), "flips: {:?}", rev.flips);
        assert_eq!(rev.scrambled, scrambled);
    }

    #[test]
    fn extract_psdu_roundtrip() {
        // 62 bytes is the maximal PSDU for two MCS7 symbols
        // (16 + 496 + 6 = 518 of 520 bits), matching extract_psdu_into's
        // choose-the-largest convention.
        let mcs = Mcs::bluefi_viterbi();
        let psdu: Vec<u8> = (0..62).map(|i| (i * 7 + 1) as u8).collect();
        let mut scrambled = scrambled_bits(&psdu, 71, mcs);
        let mut got = Vec::new();
        let forced = extract_psdu_into(&mut scrambled, 71, &mut got);
        assert_eq!(forced, 0, "a genuine chip stream needs no forcing");
        assert_eq!(&got[..psdu.len()], &psdu[..]);
    }

    #[test]
    fn forced_bits_are_counted() {
        let mcs = Mcs::bluefi_viterbi();
        let psdu = vec![0u8; 62];
        let mut scrambled = scrambled_bits(&psdu, 71, mcs);
        // Corrupt the SERVICE field and one tail bit.
        scrambled[0] = !scrambled[0];
        scrambled[3] = !scrambled[3];
        let tail_start = 16 + 496;
        scrambled[tail_start + 2] = !scrambled[tail_start + 2];
        let forced = extract_psdu_into(&mut scrambled, 71, &mut Vec::new());
        assert_eq!(forced, 3);
    }

    #[test]
    fn realtime_reversal_confines_flips() {
        let mcs = Mcs::bluefi_realtime();
        // A non-codeword target: just pseudo-random coded bits.
        let n = mcs.coded_bits_per_symbol() * 4;
        let coded: Vec<bool> = (0..n).map(|i| (i * 2654435761usize) % 97 < 48).collect();
        let rev = reversed(&coded, DecodeStrategy::Realtime, 12.0);
        for &f in &rev.flips {
            assert!(f % 13 <= 4, "flip at cycle position {}", f % 13);
        }
        // Negative offset: flips on the other side.
        let rev = reversed(&coded, DecodeStrategy::Realtime, -12.0);
        for &f in &rev.flips {
            if f >= 39 {
                assert!(f % 13 >= 8, "flip at cycle position {}", f % 13);
            }
        }
    }

    #[test]
    fn coded_stream_demaps_what_tx_mapped() {
        use crate::pipeline::{BlueFi, SynthesisScratch};
        use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
        use bluefi_wifi::channels::ChannelPlan;
        use bluefi_wifi::tx::symbol_spectrum;
        // Run the pipeline's per-symbol step on real θ̂ symbols, then map
        // the coded bits it wrote with the real TX path: every data
        // subcarrier must carry exactly the point the step quantized, so
        // the step's demap + deinterleave inverts mapping + interleaving.
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address: [1, 2, 3, 4, 5, 6],
            adv_data: (0..12).collect(),
            tx_add: false,
        };
        let bf = BlueFi::default();
        let plan = ChannelPlan::pinned(3, 13.0);
        let mut s = SynthesisScratch::new();
        let n_symbols = bf.synthesize_at_with(&adv_air_bits(&pdu, 38), plan, 71, &mut s).n_symbols;
        let mcs = bf.strategy.mcs();
        let ncbps = mcs.coded_bits_per_symbol();
        for b in [0, n_symbols / 2, n_symbols - 1] {
            s.quantize_symbol(&bf, plan.tx_subcarrier, b);
            let spec = symbol_spectrum(&s.coded[b * ncbps..(b + 1) * ncbps], mcs, b);
            let points: Vec<_> = bluefi_wifi::subcarriers::data_subcarriers()
                .iter()
                .map(|&sc| spec[bluefi_dsp::fft::bin_of_subcarrier(sc, 64)])
                .collect();
            assert_eq!(points, s.sym.points, "symbol {b}");
        }
    }
}
