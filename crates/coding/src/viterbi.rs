//! Weighted hard-decision Viterbi decoding of the 802.11 BCC.
//!
//! Two departures from a textbook decoder, both required by BlueFi
//! (paper Sec 2.7):
//!
//! 1. **Erasure support** — punctured positions carry no information and
//!    contribute zero branch metric.
//! 2. **Per-bit weights** — BlueFi is not decoding a noisy channel; it is
//!    *compressing* a target sequence. Bits destined for subcarriers inside
//!    the Bluetooth band must survive re-encoding, so their mismatch cost is
//!    raised (1000/100/1 in the paper's Table 1) and the survivor path
//!    avoids flipping them unless no codeword exists that preserves them.
//!
//! The decoder is a pseudo-polynomial dynamic program, O(T·2⁶) — this is
//! the stage the paper measures at 46.88 ms/packet in C and the reason the
//! real-time decoder ([`crate::realtime`]) exists.
//!
//! The trellis walk itself lives in the bit-packed engine
//! ([`crate::trellis`]); this module is its entry point. A textbook
//! weighted Viterbi kept as a test oracle (`reference` in the crate's
//! `tests/properties.rs`) holds the engine bit-identical to the plain
//! algorithm, alongside the conformance golden vectors.

use crate::trellis::{trellis_plan, PackedScratch};
use bluefi_dsp::bits::BitVec;

/// Reusable decoder state: the packed engine's metric columns and
/// survivor words, and the real-time decoder's replay buffers (whose
/// packed re-encoder both strategies use).
///
/// One scratch amortizes every allocation the decoder needs; after the
/// first decode of a given length, subsequent decodes through the same
/// scratch are allocation-free. The scratch is plain mutable state — one
/// per worker thread, never shared.
#[derive(Debug, Clone, Default)]
pub struct ViterbiScratch {
    // The packed engine's metric columns and survivor words.
    packed: PackedScratch,
    // Replay buffers for the real-time decoder, so one scratch serves both
    // FEC-reversal strategies (`core::reversal` picks per packet); its
    // packed re-encoder serves `reencode_flips_into` too.
    realtime: crate::realtime::RealtimeScratch,
}

impl ViterbiScratch {
    /// An empty scratch. Survivor storage starts empty and grows to the
    /// longest stream decoded.
    pub fn new() -> ViterbiScratch {
        ViterbiScratch::default()
    }

    /// The embedded real-time replay buffers, for callers that switch
    /// between the Viterbi and real-time reversal strategies with one
    /// scratch (see [`crate::realtime::RealtimePlan::decode_into`]).
    pub fn realtime_scratch(&mut self) -> &mut crate::realtime::RealtimeScratch {
        &mut self.realtime
    }

    /// Scratch variant of [`decode_punctured`] on packed streams: decodes
    /// the punctured stream through the bit-packed engine
    /// ([`crate::trellis`]).
    ///
    /// Fetches the interned trellis plan and runs the branchless kernel.
    /// Allocation-free at steady state.
    pub fn decode_punctured_into(
        &mut self,
        rate: crate::puncture::CodeRate,
        punctured: &BitVec,
        weights: Option<&[u32]>,
        terminate: bool,
        out: &mut BitVec,
    ) {
        let plan = trellis_plan(rate, punctured.len());
        plan.decode_into(punctured, weights, terminate, &mut self.packed, out);
    }

    /// Re-encodes `decoded` and writes the transmitted positions where it
    /// differs from the punctured target ("bit-flips" in the paper's
    /// language) into `flips` (cleared first). Re-encodes on packed words
    /// through the scratch's [`crate::convolutional::Reencoder`],
    /// allocating only when a buffer must grow.
    pub fn reencode_flips_into(
        &mut self,
        rate: crate::puncture::CodeRate,
        decoded: &BitVec,
        target_punctured: &BitVec,
        flips: &mut Vec<usize>,
    ) {
        let cap = flips.capacity();
        flips.clear();
        self.realtime.reenc.push_flips_from(rate, decoded, target_punctured, 0, flips);
        if flips.capacity() > cap {
            bluefi_dsp::contracts::probe_alloc();
        }
    }
}

/// Convenience wrapper: decode a punctured `bool` stream at `rate` with
/// optional per-transmitted-bit weights, through the bit-packed engine.
/// Thin shim that packs, calls [`ViterbiScratch::decode_punctured_into`]
/// and unpacks; hot paths should hold a scratch and packed streams.
pub fn decode_punctured(
    rate: crate::puncture::CodeRate,
    punctured: &[bool],
    weights: Option<&[u32]>,
    terminate: bool,
) -> Vec<bool> {
    let mut out = BitVec::new();
    let target = BitVec::from_bools(punctured);
    ViterbiScratch::new().decode_punctured_into(rate, &target, weights, terminate, &mut out);
    out.to_bools()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::encode_r12;
    use crate::puncture::{puncture, CodeRate};

    /// The flips of `dec` against `target`, through the packed re-encoder.
    fn flips_of(rate: CodeRate, dec: &[bool], target: &[bool], flips: &mut Vec<usize>) {
        let (dec, target) = (BitVec::from_bools(dec), BitVec::from_bools(target));
        ViterbiScratch::new().reencode_flips_into(rate, &dec, &target, flips);
    }

    fn pattern_bits(n: usize, k: u64) -> Vec<bool> {
        (0..n).map(|i| (i as u64 * k + k / 3) % 7 < 3).collect()
    }

    #[test]
    fn decodes_clean_stream_every_rate() {
        let data = pattern_bits(60, 11);
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56] {
            let tx = puncture(rate, &encode_r12(&data));
            let dec = decode_punctured(rate, &tx, None, false);
            assert_eq!(dec, data, "rate {rate:?}");
        }
    }

    #[test]
    fn corrects_scattered_errors_at_rate_half() {
        let mut data = pattern_bits(120, 5);
        data.extend([false; 6]); // tail
        let mut tx = puncture(CodeRate::R12, &encode_r12(&data));
        // Flip well-separated bits (beyond one constraint length apart).
        for &i in &[10usize, 60, 110, 170, 230] {
            tx[i] = !tx[i];
        }
        let dec = decode_punctured(CodeRate::R12, &tx, None, true);
        assert_eq!(dec, data);
    }

    #[test]
    fn termination_forces_zero_state() {
        let mut data = pattern_bits(40, 3);
        data.extend([false; 6]);
        let tx = puncture(CodeRate::R12, &encode_r12(&data));
        let dec = decode_punctured(CodeRate::R12, &tx, None, true);
        assert_eq!(dec, data);
        assert!(dec[dec.len() - 6..].iter().all(|&b| !b));
    }

    #[test]
    fn weights_steer_flips_away_from_protected_bits() {
        // BlueFi's protected set is interleaver-striped: within every 13-bit
        // cycle the positions mapped to the Bluetooth band are protected.
        // Stripes keep the local protected density (8/13) below the
        // information rate (5/6), so a codeword matching every protected bit
        // exists and the weighted decoder must find one. (A *contiguous*
        // protected run denser than 5/6 would be information-theoretically
        // unprotectable — see the realtime module's DOF argument.)
        let target = pattern_bits(13 * 30, 17); // almost surely not a codeword
        let rate = CodeRate::R56;
        let n = target.len() - target.len() % rate.period_outputs();
        let target = &target[..n];
        let protected = |i: usize| i % 13 >= 5;
        let weights: Vec<u32> = (0..n).map(|i| if protected(i) { 1000 } else { 1 }).collect();
        let dec = decode_punctured(rate, target, Some(&weights), false);
        let mut flips = Vec::new();
        flips_of(rate, &dec, target, &mut flips);
        assert!(
            !flips.is_empty(),
            "a random target should not be exactly encodable at rate 5/6"
        );
        for &f in &flips {
            assert!(!protected(f), "protected bit {f} flipped (flips: {flips:?})");
        }
    }

    #[test]
    fn graded_weights_prefer_flipping_cheap_bits() {
        // Two-tier weights (the paper's 1000/100/1 scheme): when a flip is
        // unavoidable it must land on the cheapest tier available.
        let target = pattern_bits(13 * 30, 23);
        let rate = CodeRate::R56;
        let n = target.len() - target.len() % rate.period_outputs();
        let target = &target[..n];
        // Tier: 1000 for positions 5.., 100 for 3..5, 1 for 0..3 per cycle.
        let weight_of = |i: usize| match i % 13 {
            0..=2 => 1u32,
            3..=4 => 100,
            _ => 1000,
        };
        let weights: Vec<u32> = (0..n).map(weight_of).collect();
        let dec = decode_punctured(rate, target, Some(&weights), false);
        let mut flips = Vec::new();
        flips_of(rate, &dec, target, &mut flips);
        assert!(!flips.is_empty());
        let cost: u64 = flips.iter().map(|&f| weight_of(f) as u64).sum();
        // Never pay a 1000-weight flip, and the total cost should be
        // dominated by weight-1 positions.
        assert!(flips.iter().all(|&f| weight_of(f) < 1000), "flips: {flips:?}");
        assert!(cost < 1000, "cost {cost} flips {flips:?}");
    }

    #[test]
    fn unweighted_decode_minimizes_total_flips_vs_greedy_reference() {
        // The Viterbi result must be at least as good as decoding the
        // punctured stream by simple re-quantization through a few random
        // codewords. We check optimality indirectly: re-encoding the decode
        // of a codeword-with-k-flips differs from the target in at most 2k
        // positions (triangle inequality via the true codeword).
        let mut data = pattern_bits(80, 7);
        data.extend([false; 6]);
        let rate = CodeRate::R23;
        let clean = puncture(rate, &encode_r12(&data));
        let mut tx = clean.clone();
        for &i in &[5usize, 40, 80] {
            tx[i] = !tx[i];
        }
        let dec = decode_punctured(rate, &tx, None, true);
        let mut flips = Vec::new();
        flips_of(rate, &dec, &tx, &mut flips);
        assert!(flips.len() <= 6, "got {} flips", flips.len());
    }

    #[test]
    fn empty_input_decodes_to_empty() {
        assert!(decode_punctured(CodeRate::R12, &[], None, false).is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_decode() {
        // One scratch across streams of different lengths, rates, and
        // weightings must reproduce the one-shot decoder bit for bit.
        let mut scratch = ViterbiScratch::new();
        let mut out = BitVec::new();
        for (len, k) in [(120usize, 5u64), (40, 3), (200, 11)] {
            let mut data = pattern_bits(len, k);
            data.extend([false; 6]);
            for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R56] {
                let n = data.len() - data.len() % rate.period_inputs();
                let tx = puncture(rate, &encode_r12(&data[..n]));
                let weights: Vec<u32> = (0..tx.len() as u32).map(|i| 1 + i % 7).collect();
                let packed = BitVec::from_bools(&tx);
                scratch.decode_punctured_into(rate, &packed, Some(&weights), false, &mut out);
                let fresh = decode_punctured(rate, &tx, Some(&weights), false);
                assert_eq!(out.to_bools(), fresh, "len {len} rate {rate:?}");
            }
        }
    }
}
