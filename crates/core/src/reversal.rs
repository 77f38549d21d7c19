//! Reversing the bit-domain half of the TX chain: QAM demap →
//! deinterleave → FEC "decode" (weighted Viterbi or the real-time solver) →
//! descramble (paper Secs 2.7–2.8).

use crate::telemetry::{self, Counter};
use bluefi_coding::lfsr::{Lfsr7, ScramblerPeriod};
use bluefi_coding::realtime::realtime_plan;
use bluefi_coding::{CodeRate, FreeEdge, ViterbiScratch};
use bluefi_dsp::bits::BitVec;
use bluefi_wifi::Mcs;

/// Weight classes for the modified Viterbi (paper Table 1).
///
/// `high`, `medium` and `low` must each be at most
/// [`bluefi_coding::trellis::MAX_WEIGHT`] (1165): the trellis keeps its
/// path metrics in renormalized `u16` and rejects a larger weight at
/// decode time. Table 1's 1000/100/1 sit below it.
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

/// Result of the FEC reversal, unpacked: the form
/// [`reverse_fec_with`] returns.
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
/// packed target coded stream, avoiding flips on high-weight bits. Decodes
/// through `vit` into `scrambled` (the data bits the chip must be fed,
/// before descrambling) and lists in `flips` the transmitted positions
/// where their re-encoding differs from `coded`. Both strategies are
/// allocation-free at steady state: the weighted-Viterbi path runs the
/// bit-packed engine, and the real-time path replays the interned
/// elimination plan through the scratch's embedded buffers.
pub fn reverse_fec_packed(
    coded: &BitVec,
    weights: &[u32],
    strategy: DecodeStrategy,
    bt_subcarrier: f64,
    vit: &mut ViterbiScratch,
    scrambled: &mut BitVec,
    flips: &mut Vec<usize>,
) {
    match strategy {
        DecodeStrategy::WeightedViterbi => {
            telemetry::incr(Counter::ViterbiDecodes);
            telemetry::add(Counter::ViterbiCodedBits, coded.len() as u64);
            let rate = CodeRate::R56;
            vit.decode_punctured_into(rate, coded, Some(weights), false, scrambled);
            vit.reencode_flips_into(rate, scrambled, coded, flips);
        }
        DecodeStrategy::Realtime => {
            telemetry::incr(Counter::RealtimeDecodes);
            let plan = realtime_plan(coded.len(), free_edge(bt_subcarrier));
            plan.decode_into(coded, vit.realtime_scratch(), scrambled, flips);
        }
    }
}

/// [`reverse_fec_packed`] on a `bool` stream: packs `coded`, delegates,
/// and unpacks the decode into `out`. Kept for the layered cold pipeline
/// of the standalone benchmark until it moves to the packed entry points
/// (ROADMAP item 11).
pub fn reverse_fec_with(
    coded: &[bool],
    weights: &[u32],
    strategy: DecodeStrategy,
    bt_subcarrier: f64,
    vit: &mut ViterbiScratch,
    out: &mut Reversal,
) {
    let mut scrambled = BitVec::new();
    let coded = BitVec::from_bools(coded);
    reverse_fec_packed(&coded, weights, strategy, bt_subcarrier, vit, &mut scrambled, &mut out.flips);
    scrambled.unpack_into(&mut out.scrambled);
}

/// The interleaver-cycle edge the real-time decoder sacrifices for a
/// Bluetooth signal centered at `bt_subcarrier`: positive offsets protect
/// the positive half of the band (flips confined to negative subcarriers)
/// and vice versa. The cold pass and the template cache both plan with it,
/// so the checkpoint a template saves from the cold decode is of the plan
/// its patches replay.
pub(crate) fn free_edge(bt_subcarrier: f64) -> FreeEdge {
    if bt_subcarrier >= 0.0 {
        FreeEdge::Front
    } else {
        FreeEdge::Back
    }
}

/// Counts the scrambled-bit positions BlueFi does not control — the
/// 16-bit SERVICE field, the 6 tail bits and trailing pad — that differ
/// from what the chip will actually send there, then packs the descrambled
/// PSDU into `psdu` (resized to the byte count), allocating only when it
/// must grow. Works on packed words throughout: each 64-bit load of
/// `scrambled` XORs the 64 bits of the 127-bit scrambler period at the
/// same position. Returns the number of such forced bits.
pub fn extract_psdu_packed(scrambled: &BitVec, seed: u8, psdu: &mut Vec<u8>) -> usize {
    let total = scrambled.len();
    assert!(total > 22, "need at least SERVICE + tail");
    let psdu_bits = (total - 16 - 6) / 8 * 8;
    let tail_start = 16 + psdu_bits;

    // The scrambler sequence, one 127-bit period. SERVICE and pad are
    // zeros, so the chip sends the sequence itself there; the tail is
    // zeroed after scrambling. The pad is under 8 bits.
    let seq = ScramblerPeriod::new(seed);
    let off_sequence = |at: usize, n: usize| {
        ((scrambled.load(at) ^ seq.word(at)) & ((1 << n) - 1)).count_ones() as usize
    };
    let pad = total - tail_start - 6;
    let forced = off_sequence(0, 16)
        + (scrambled.load(tail_start) & 0x3F).count_ones() as usize
        + off_sequence(tail_start + 6, pad);

    // Pack the PSDU region LSB-first, then descramble it a word at a time.
    bluefi_dsp::contracts::ensure_len_keeping(psdu, psdu_bits / 8, 0u8);
    scrambled.bytes_into(16, psdu);
    for (k, chunk) in psdu.chunks_mut(8).enumerate() {
        let seq = seq.word(16 + 64 * k).to_le_bytes();
        for (byte, s) in chunk.iter_mut().zip(seq) {
            *byte ^= s;
        }
    }
    if bluefi_dsp::contracts::enabled() && psdu_bits >= 8 {
        // Stage contract: the word-wise pack must agree with a re-derivation
        // of the first byte (stack-only — the probe must stay quiet here).
        let mut lfsr = Lfsr7::new(seed);
        for _ in 0..16 {
            lfsr.next_bit();
        }
        let mut reference = 0u8;
        for bit in 0..8 {
            if scrambled.get(16 + bit) ^ lfsr.next_bit() {
                reference |= 1 << bit;
            }
        }
        bluefi_dsp::contract!(
            psdu[0] == reference,
            "extract_psdu_packed: word-wise pack disagrees with reference"
        );
    }
    forced
}

/// [`extract_psdu_packed`] on a `bool` stream, which is only read: packs
/// it and delegates. Kept for the layered cold pipeline of the standalone
/// benchmark until it moves to the packed entry points (ROADMAP item 11).
pub fn extract_psdu_into(scrambled: &[bool], seed: u8, psdu: &mut Vec<u8>) -> usize {
    extract_psdu_packed(&BitVec::from_bools(scrambled), seed, psdu)
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
    fn table1_weights_fit_the_trellis_bound() {
        let p = WeightProfile::default();
        for w in [p.high, p.medium, p.low] {
            assert!(w <= bluefi_coding::trellis::MAX_WEIGHT, "weight {w} above the trellis bound");
        }
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
        let scrambled = scrambled_bits(&psdu, 71, mcs);
        let mut got = Vec::new();
        let forced = extract_psdu_into(&scrambled, 71, &mut got);
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
        assert_eq!(extract_psdu_into(&scrambled, 71, &mut Vec::new()), 3);
        // And one of the 2 pad bits (518–519 of the 520-bit frame).
        scrambled[tail_start + 6] = !scrambled[tail_start + 6];
        assert_eq!(extract_psdu_into(&scrambled, 71, &mut Vec::new()), 4);
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
            let coded = s.coded.to_bools();
            let spec = symbol_spectrum(&coded[b * ncbps..(b + 1) * ncbps], mcs, b);
            let points: Vec<_> = bluefi_wifi::subcarriers::data_subcarriers()
                .iter()
                .map(|&sc| spec[bluefi_dsp::fft::bin_of_subcarrier(sc, 64)])
                .collect();
            assert_eq!(points, s.sym.points, "symbol {b}");
        }
    }
}
