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
//! Two implementations share this module's API:
//!
//! * the **scalar reference decoder** ([`ViterbiScratch::decode_into`] and
//!   the `*_scalar` entry points) — straightforward enum-typed trellis
//!   walk, kept as the semantic ground truth; and
//! * the **packed engine** ([`crate::trellis`]) — bit-packed branchless
//!   kernel that [`ViterbiScratch::decode_punctured_into`] routes through,
//!   proven bit-identical to the reference by property tests and the
//!   conformance golden vectors.

use crate::convolutional::{transition_next, transition_output, NUM_STATES};
use crate::puncture::RxBit;
use crate::trellis::{trellis_plan, PackedScratch, INF};

/// Reusable trellis state for the weighted Viterbi: path metrics, survivor
/// storage, the per-state transition table, and a depuncture buffer.
///
/// One scratch amortizes every allocation the decoder needs; after the
/// first decode of a given length, subsequent decodes through the same
/// scratch are allocation-free. The scratch is plain mutable state — one
/// per worker thread, never shared.
#[derive(Debug, Clone)]
pub struct ViterbiScratch {
    // Path metrics ping-pong between these two buffers (Vecs so the
    // per-step swap is a pointer swap, not a 512-byte copy).
    metric: Vec<u64>,
    next_metric: Vec<u64>,
    // survivor[t][s] = chosen predecessor of state s at step t+1 (two
    // predecessors map into each state, so the bit alone is not enough).
    surv_prev: Vec<[u8; NUM_STATES]>,
    // Per-state transitions: (next_state, out_a, out_b) for input 0 and 1.
    table: [[(u8, bool, bool); 2]; NUM_STATES],
    // Depuncture buffer for `decode_punctured_scalar_into`.
    rx_buf: Vec<RxBit>,
    // Re-encode buffers for `reencode_flips_into`.
    reenc_mother: Vec<bool>,
    reenc_punct: Vec<bool>,
    // The packed engine's metric columns and survivor words.
    packed: PackedScratch,
    // Replay buffers for the real-time decoder, so one scratch serves both
    // FEC-reversal strategies (`core::reversal` picks per packet).
    realtime: crate::realtime::RealtimeScratch,
}

impl Default for ViterbiScratch {
    fn default() -> ViterbiScratch {
        ViterbiScratch::new()
    }
}

impl ViterbiScratch {
    /// Builds a scratch with the transition table precomputed. Survivor
    /// storage starts empty and grows to the longest stream decoded.
    pub fn new() -> ViterbiScratch {
        let mut table = [[(0u8, false, false); 2]; NUM_STATES];
        for (s, row) in table.iter_mut().enumerate() {
            for (i, slot) in row.iter_mut().enumerate() {
                let input = i == 1;
                let (a, b) = transition_output(s as u8, input);
                *slot = (transition_next(s as u8, input), a, b);
            }
        }
        ViterbiScratch {
            metric: vec![INF; NUM_STATES],
            next_metric: vec![INF; NUM_STATES],
            surv_prev: Vec::new(),
            table,
            rx_buf: Vec::new(),
            reenc_mother: Vec::new(),
            reenc_punct: Vec::new(),
            packed: PackedScratch::new(),
            realtime: crate::realtime::RealtimeScratch::new(),
        }
    }

    /// The embedded real-time replay buffers, for callers that switch
    /// between the Viterbi and real-time reversal strategies with one
    /// scratch (see [`crate::realtime::RealtimePlan::decode_into`]).
    pub fn realtime_scratch(&mut self) -> &mut crate::realtime::RealtimeScratch {
        &mut self.realtime
    }

    /// Decodes a (depunctured) mother-code stream into `out` (resized to
    /// one bit per RX pair). Same semantics as [`decode`]; allocates only
    /// when the survivor storage or `out` must grow.
    pub fn decode_into(&mut self, rx: &[RxBit], terminate: bool, out: &mut Vec<bool>) {
        assert_eq!(rx.len() % 2, 0, "mother stream must be (A,B) pairs");
        let steps = rx.len() / 2;
        bluefi_dsp::contracts::ensure_len(out, steps, false);
        if steps == 0 {
            return;
        }
        bluefi_dsp::contracts::ensure_len(&mut self.surv_prev, steps, [0u8; NUM_STATES]);

        self.metric.iter_mut().for_each(|m| *m = INF);
        self.metric[0] = 0;

        let cost = |r: RxBit, out: bool| -> u64 {
            match r {
                RxBit::Erasure => 0,
                RxBit::Bit { value, weight } => {
                    if value == out {
                        0
                    } else {
                        weight as u64
                    }
                }
            }
        };

        for t in 0..steps {
            let ra = rx[2 * t];
            let rb = rx[2 * t + 1];
            self.next_metric.iter_mut().for_each(|m| *m = INF);
            let prev_of = &mut self.surv_prev[t];
            *prev_of = [0u8; NUM_STATES];
            for s in 0..NUM_STATES {
                let m = self.metric[s];
                if m >= INF {
                    continue;
                }
                for &(ns, a, b) in &self.table[s] {
                    let nm = m + cost(ra, a) + cost(rb, b);
                    if nm < self.next_metric[ns as usize] {
                        self.next_metric[ns as usize] = nm;
                        prev_of[ns as usize] = s as u8;
                    }
                }
            }
            std::mem::swap(&mut self.metric, &mut self.next_metric);
        }

        // Pick the final state.
        let mut state = if terminate {
            0usize
        } else {
            self.metric
                .iter()
                .enumerate()
                .min_by_key(|(_, &m)| m)
                .map(|(s, _)| s)
                .unwrap_or(0)
        };

        // Trace back. The input bit that led into `state` is its bit 5 (the
        // most-recent-input slot of the state register).
        for t in (0..steps).rev() {
            out[t] = (state >> 5) & 1 == 1;
            state = self.surv_prev[t][state] as usize;
        }
    }

    /// Scratch variant of [`decode_punctured`]: decodes the punctured
    /// stream through the bit-packed engine ([`crate::trellis`]), bit-
    /// identical to depuncturing and running the scalar reference decoder.
    ///
    /// Fetches the interned trellis plan and runs the branchless kernel.
    /// Allocation-free at steady state.
    pub fn decode_punctured_into(
        &mut self,
        rate: crate::puncture::CodeRate,
        punctured: &[bool],
        weights: Option<&[u32]>,
        terminate: bool,
        out: &mut Vec<bool>,
    ) {
        let plan = trellis_plan(rate, punctured.len());
        plan.decode_into(punctured, weights, terminate, &mut self.packed, out);
    }

    /// The scalar reference path of [`decode_punctured_into`]: depunctures
    /// through the internal RX buffer, then runs the enum-typed trellis
    /// walk of [`ViterbiScratch::decode_into`]. Kept as the semantic ground
    /// truth the packed engine is differenced against (property tests, the
    /// conformance matrix); hot paths should use the packed entry point.
    ///
    /// [`decode_punctured_into`]: ViterbiScratch::decode_punctured_into
    pub fn decode_punctured_scalar_into(
        &mut self,
        rate: crate::puncture::CodeRate,
        punctured: &[bool],
        weights: Option<&[u32]>,
        terminate: bool,
        out: &mut Vec<bool>,
    ) {
        let mut rx = std::mem::take(&mut self.rx_buf);
        crate::puncture::depuncture_into(rate, punctured, weights, &mut rx);
        self.decode_into(&rx, terminate, out);
        self.rx_buf = rx;
    }

    /// Scratch variant of [`reencode_flips`]: re-encodes through the internal
    /// buffers and writes the differing positions into `flips` (cleared
    /// first), allocating only when a buffer must grow.
    pub fn reencode_flips_into(
        &mut self,
        rate: crate::puncture::CodeRate,
        decoded: &[bool],
        target_punctured: &[bool],
        flips: &mut Vec<usize>,
    ) {
        crate::convolutional::encode_r12_into(decoded, &mut self.reenc_mother);
        crate::puncture::puncture_into(rate, &self.reenc_mother, &mut self.reenc_punct);
        assert_eq!(self.reenc_punct.len(), target_punctured.len());
        let cap = flips.capacity();
        flips.clear();
        for (i, (a, b)) in self.reenc_punct.iter().zip(target_punctured).enumerate() {
            if a != b {
                flips.push(i);
            }
        }
        if flips.capacity() > cap {
            bluefi_dsp::contracts::probe_alloc();
        }
    }
}

/// Decodes a (depunctured) mother-code stream back to information bits.
///
/// `rx` is the mother-position stream `[A0, B0, A1, B1, ...]` as produced by
/// [`crate::puncture::depuncture`]; its length must be even. The decoder
/// starts from state 0 (802.11 convention). When `terminate` is true the
/// survivor must end in state 0 (use when the stream includes tail bits);
/// otherwise the best final state wins.
///
/// Returns the decoded information bits (one per RX pair). Thin shim over
/// [`ViterbiScratch::decode_into`]; hot paths should hold a scratch.
pub fn decode(rx: &[RxBit], terminate: bool) -> Vec<bool> {
    let mut out = Vec::new();
    ViterbiScratch::new().decode_into(rx, terminate, &mut out);
    out
}

/// Convenience wrapper: decode a punctured stream at `rate` with optional
/// per-transmitted-bit weights, through the bit-packed engine. Thin shim
/// over [`ViterbiScratch::decode_punctured_into`]; hot paths should hold a
/// scratch.
pub fn decode_punctured(
    rate: crate::puncture::CodeRate,
    punctured: &[bool],
    weights: Option<&[u32]>,
    terminate: bool,
) -> Vec<bool> {
    let mut out = Vec::new();
    ViterbiScratch::new().decode_punctured_into(rate, punctured, weights, terminate, &mut out);
    out
}

/// The scalar reference path of [`decode_punctured`]: depuncture, then the
/// enum-typed trellis walk. The packed engine is held bit-identical to this
/// function by property tests and the conformance golden vectors.
pub fn decode_punctured_scalar(
    rate: crate::puncture::CodeRate,
    punctured: &[bool],
    weights: Option<&[u32]>,
    terminate: bool,
) -> Vec<bool> {
    let rx = crate::puncture::depuncture(rate, punctured, weights);
    decode(&rx, terminate)
}

/// Re-encodes `decoded` and reports which transmitted positions of the
/// original punctured target differ ("bit-flips" in the paper's language).
pub fn reencode_flips(
    rate: crate::puncture::CodeRate,
    decoded: &[bool],
    target_punctured: &[bool],
) -> Vec<usize> {
    let re = crate::puncture::puncture(rate, &crate::convolutional::encode_r12(decoded));
    assert_eq!(re.len(), target_punctured.len());
    re.iter()
        .zip(target_punctured)
        .enumerate()
        .filter_map(|(i, (a, b))| if a != b { Some(i) } else { None })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::encode_r12;
    use crate::puncture::{puncture, CodeRate};

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
        let flips = reencode_flips(rate, &dec, target);
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
        let flips = reencode_flips(rate, &dec, target);
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
        let flips = reencode_flips(rate, &dec, &tx);
        assert!(flips.len() <= 6, "got {} flips", flips.len());
    }

    #[test]
    fn empty_input_decodes_to_empty() {
        assert!(decode(&[], false).is_empty());
    }

    #[test]
    fn packed_path_matches_scalar_reference() {
        // The packed engine behind `decode_punctured` must reproduce the
        // enum-typed reference walk bit for bit: every rate, weighted and
        // unweighted, terminated and free-ending.
        for (len, k) in [(60usize, 11u64), (120, 5), (30, 29)] {
            let mut data = pattern_bits(len, k);
            data.extend([false; 6]);
            for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56] {
                let n = data.len() - data.len() % rate.period_inputs();
                let mut tx = puncture(rate, &encode_r12(&data[..n]));
                // Corrupt a few positions so the decode is not trivial.
                for i in (3..tx.len()).step_by(37) {
                    tx[i] = !tx[i];
                }
                let weights: Vec<u32> =
                    (0..tx.len() as u32).map(|i| [1, 100, 1000][(i % 3) as usize]).collect();
                for (w, term) in
                    [(None, false), (None, true), (Some(&weights[..]), false)]
                {
                    let packed = decode_punctured(rate, &tx, w, term);
                    let scalar = decode_punctured_scalar(rate, &tx, w, term);
                    assert_eq!(packed, scalar, "len {len} rate {rate:?} term {term}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_decode() {
        // One scratch across streams of different lengths, rates, and
        // weightings must reproduce the one-shot decoder bit for bit.
        let mut scratch = ViterbiScratch::new();
        let mut out = Vec::new();
        for (len, k) in [(120usize, 5u64), (40, 3), (200, 11)] {
            let mut data = pattern_bits(len, k);
            data.extend([false; 6]);
            for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R56] {
                let n = data.len() - data.len() % rate.period_inputs();
                let tx = puncture(rate, &encode_r12(&data[..n]));
                let weights: Vec<u32> = (0..tx.len() as u32).map(|i| 1 + i % 7).collect();
                scratch.decode_punctured_into(rate, &tx, Some(&weights), false, &mut out);
                let fresh = decode_punctured(rate, &tx, Some(&weights), false);
                assert_eq!(out, fresh, "len {len} rate {rate:?}");
            }
        }
    }
}
