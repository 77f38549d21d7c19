//! The 802.11 rate-1/2 convolutional (BCC) mother code.
//!
//! Constraint length K = 7, generator polynomials g₀ = 133₈ and g₁ = 171₈
//! (17.3.5.6). The encoder emits output pair (A, B) per input bit; punctured
//! rates are derived in [`crate::puncture`].
//!
//! Because the code is linear over GF(2), every output bit is a parity of
//! the current input and up to six previous inputs — the property the
//! real-time decoder ([`crate::realtime`]) exploits. The same fact makes
//! a packed re-encode cheap: [`encode_words_into`] computes 64 outputs per
//! word as an XOR of shifted input words.

use crate::puncture::CodeRate;
use bluefi_dsp::bits::BitVec;

/// Generator polynomial g₀ = 133₈ (taps on `d[i]`, `d[i-2]`, `d[i-3]`, `d[i-5]`, `d[i-6]`).
pub const G0: u8 = 0o133;
/// Generator polynomial g₁ = 171₈ (taps on `d[i]`, `d[i-1]`, `d[i-2]`, `d[i-3]`, `d[i-6]`).
pub const G1: u8 = 0o171;
/// Encoder memory (K-1).
pub const MEMORY: usize = 6;
/// Number of trellis states.
pub const NUM_STATES: usize = 1 << MEMORY;

/// Parity of the bits selected by `mask`.
#[inline]
fn parity(v: u8) -> bool {
    v.count_ones() % 2 == 1
}

/// A streaming convolutional encoder.
///
/// `state` holds the last six input bits with the most recent in bit 5 and
/// the oldest in bit 0, so the evaluation window is `(input << 6) | state`,
/// reading taps from bit 6 (current input) down to bit 0 (six steps ago).
/// The impulse-response unit test pins this convention against the
/// generator octals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvEncoder {
    // Bit 5 = most recent past input, bit 0 = oldest (6 steps ago).
    state: u8,
}

impl ConvEncoder {
    /// Fresh encoder, zero state (the 802.11 convention: the scrambled
    /// SERVICE field precedes the data, and the encoder starts at state 0).
    pub fn new() -> ConvEncoder {
        ConvEncoder { state: 0 }
    }

    /// Creates an encoder at an explicit state (bit 5 = most recent input).
    pub fn with_state(state: u8) -> ConvEncoder {
        assert!(state < NUM_STATES as u8);
        ConvEncoder { state }
    }

    /// Current state (bit 5 = most recent input).
    pub fn state(&self) -> u8 {
        self.state
    }

    /// Encodes one input bit, returning the output pair (A, B).
    #[inline]
    pub fn push(&mut self, input: bool) -> (bool, bool) {
        // Window: bit 6 = current input, bit 5..0 = past inputs (bit 5 most
        // recent). Generator octals read the same way: g0 = 1011011 means
        // taps at window bits {6,4,3,1,0} -> d[i], d[i-2], d[i-3], d[i-5], d[i-6].
        let window = ((input as u8) << 6) | self.state;
        let a = parity(window & G0);
        let b = parity(window & G1);
        self.state = ((self.state >> 1) | ((input as u8) << 5)) & 0x3F;
        (a, b)
    }

    /// Encodes a bit slice into the interleaved output stream
    /// `[A0, B0, A1, B1, ...]`. Thin shim over [`ConvEncoder::encode_into`].
    pub fn encode(&mut self, bits: &[bool]) -> Vec<bool> {
        let mut out = Vec::new();
        self.encode_into(bits, &mut out);
        out
    }

    /// Scratch-buffer variant of [`ConvEncoder::encode`]: writes the
    /// interleaved stream into `out` (resized to `2 * bits.len()`),
    /// allocating only when `out` must grow.
    pub fn encode_into(&mut self, bits: &[bool], out: &mut Vec<bool>) {
        bluefi_dsp::contracts::ensure_len(out, bits.len() * 2, false);
        for (i, &b) in bits.iter().enumerate() {
            let (a, bb) = self.push(b);
            out[2 * i] = a;
            out[2 * i + 1] = bb;
        }
    }
}

/// One-shot rate-1/2 encoding from the zero state.
pub fn encode_r12(bits: &[bool]) -> Vec<bool> {
    ConvEncoder::new().encode(bits)
}

/// Word form of [`encode_r12`]: `input` packs the information bits
/// LSB-first (bit `i` at bit `i mod 64` of word `i / 64`; the encoder
/// starts at the zero state), and `a`/`b`
/// receive the A and B outputs packed the same way, one word per input
/// word. Each output word is an XOR of shifted input words — one shift per
/// generator tap — so a word of 64 inputs costs a dozen operations.
pub fn encode_words_into(input: &[u64], a: &mut Vec<u64>, b: &mut Vec<u64>) {
    bluefi_dsp::contracts::ensure_len(a, input.len(), 0);
    bluefi_dsp::contracts::ensure_len(b, input.len(), 0);
    let mut prev = 0u64;
    for ((&cur, wa), wb) in input.iter().zip(a.iter_mut()).zip(b.iter_mut()) {
        // delayed[k] = d[i-k] for the 64 positions of this word: the word
        // shifted up k, topped up with the previous word's high bits.
        let delayed: [u64; MEMORY + 1] =
            std::array::from_fn(|k| if k == 0 { cur } else { (cur << k) | (prev >> (64 - k)) });
        // Window bit 6 - k holds the input k steps ago (see `push`).
        let output = |g: u8| {
            (0..=MEMORY)
                .filter(|&k| (g >> (MEMORY - k)) & 1 == 1)
                .fold(0, |v, k| v ^ delayed[k])
        };
        *wa = output(G0);
        *wb = output(G1);
        prev = cur;
    }
}

/// Reusable buffers for re-encoding a decoded stream and listing where the
/// re-encoding differs from its target ("bit-flips" in the paper's
/// language), on packed words: [`encode_words_into`],
/// [`crate::puncture::puncture_words_into`], then XOR each transmitted word
/// against the target's word at the same position and walk the set bits
/// with `trailing_zeros`. Serves both FEC reversal strategies. One per
/// worker thread, never shared; allocation-free once the buffers have
/// grown.
#[derive(Debug, Clone, Default)]
pub struct Reencoder {
    input: Vec<u64>,
    a: Vec<u64>,
    b: Vec<u64>,
    tx: Vec<u64>,
}

impl Reencoder {
    /// Empty buffers; they grow on first use.
    pub fn new() -> Reencoder {
        Reencoder::default()
    }

    /// Re-encodes `decoded` from the zero state at `rate` and appends to
    /// `flips`, in ascending order, every transmitted position `t ≥ t_from`
    /// where the punctured re-encoding differs from `target`. `target` must
    /// be exactly as long as that re-encoding. Only the suffix that can
    /// reach `t_from` is encoded: from the puncturing period holding
    /// `t_from`, plus the encoder memory before it.
    pub fn push_flips_from(
        &mut self,
        rate: CodeRate,
        decoded: &BitVec,
        target: &BitVec,
        t_from: usize,
        flips: &mut Vec<usize>,
    ) {
        let (p, q) = (rate.period_inputs(), rate.period_outputs());
        assert_eq!(
            rate.transmitted_len(decoded.len()),
            target.len(),
            "target length must match the re-encoding"
        );
        if t_from >= target.len() {
            return;
        }
        // First input of the period holding t_from, backed off by the
        // encoder memory (whole periods, so puncturing starts in phase).
        // Inputs before `lo` are missing from the encoder's history, which
        // only corrupts outputs of the first MEMORY inputs — all before
        // t_from — unless `lo` is 0, where the zero state is the truth.
        let i_from = t_from / q * p;
        let lo = i_from.saturating_sub(MEMORY) / p * p;
        let t_lo = lo / p * q;
        let n_in = decoded.len() - lo;
        bluefi_dsp::contracts::ensure_len_keeping(&mut self.input, n_in.div_ceil(64), 0);
        for (w, slot) in self.input.iter_mut().enumerate() {
            *slot = decoded.load(lo + 64 * w);
        }
        encode_words_into(&self.input, &mut self.a, &mut self.b);
        crate::puncture::puncture_words_into(rate, &self.a, &self.b, n_in, &mut self.tx);
        for (w, &got) in self.tx.iter().enumerate() {
            let mut diff = got ^ target.load(t_lo + 64 * w);
            while diff != 0 {
                let t = t_lo + 64 * w + diff.trailing_zeros() as usize;
                if t >= t_from {
                    flips.push(t);
                }
                diff &= diff - 1;
            }
        }
    }
}

/// Output pair for a (state, input) trellis transition — used by the
/// Viterbi decoder to build its branch tables.
#[inline]
pub fn transition_output(state: u8, input: bool) -> (bool, bool) {
    let window = ((input as u8) << 6) | state;
    (parity(window & G0), parity(window & G1))
}

/// Next state for a (state, input) trellis transition.
#[inline]
pub fn transition_next(state: u8, input: bool) -> u8 {
    ((state >> 1) | ((input as u8) << 5)) & 0x3F
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_response_matches_generators() {
        // Encoding 1 followed by zeros reads out the generator taps over
        // time: A outputs = g0 coefficients from the current-input tap down.
        let mut enc = ConvEncoder::new();
        let out = enc.encode(&[true, false, false, false, false, false, false]);
        let a: Vec<bool> = out.iter().step_by(2).cloned().collect();
        let b: Vec<bool> = out.iter().skip(1).step_by(2).cloned().collect();
        // g0 = 1011011 (binary, MSB = current input): successive A outputs
        // see the 1 march from the "current" tap to the oldest tap.
        let g0_bits: Vec<bool> = (0..7).rev().map(|i| (G0 >> i) & 1 == 1).collect();
        let g1_bits: Vec<bool> = (0..7).rev().map(|i| (G1 >> i) & 1 == 1).collect();
        assert_eq!(a, g0_bits);
        assert_eq!(b, g1_bits);
    }

    #[test]
    fn zero_input_keeps_zero_output() {
        let out = encode_r12(&[false; 20]);
        assert!(out.iter().all(|&b| !b));
    }

    #[test]
    fn code_is_linear() {
        let x: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        let y: Vec<bool> = (0..40).map(|i| i % 5 == 1).collect();
        let xy: Vec<bool> = x.iter().zip(&y).map(|(a, b)| a ^ b).collect();
        let ex = encode_r12(&x);
        let ey = encode_r12(&y);
        let exy = encode_r12(&xy);
        let sum: Vec<bool> = ex.iter().zip(&ey).map(|(a, b)| a ^ b).collect();
        assert_eq!(exy, sum);
    }

    #[test]
    fn six_zeros_flush_to_zero_state() {
        let mut enc = ConvEncoder::new();
        enc.encode(&[true, true, false, true, true, true]);
        assert_ne!(enc.state(), 0);
        enc.encode(&[false; 6]);
        assert_eq!(enc.state(), 0);
    }

    #[test]
    fn free_distance_is_ten() {
        // The (133,171) code famously has d_free = 10: the minimum-weight
        // nonzero codeword over all short input bursts has weight 10.
        let mut min_weight = usize::MAX;
        // Inputs: a 1 followed by up to 10 arbitrary bits, then flushed.
        for pattern in 0u32..(1 << 10) {
            let mut bits = vec![true];
            for i in 0..10 {
                bits.push((pattern >> i) & 1 == 1);
            }
            bits.extend([false; 6]);
            let w = encode_r12(&bits).iter().filter(|&&b| b).count();
            min_weight = min_weight.min(w);
        }
        assert_eq!(min_weight, 10);
    }

    #[test]
    fn transition_tables_agree_with_encoder() {
        for state in 0..NUM_STATES as u8 {
            for input in [false, true] {
                let mut enc = ConvEncoder::with_state(state);
                let out = enc.push(input);
                assert_eq!(out, transition_output(state, input));
                assert_eq!(enc.state(), transition_next(state, input));
            }
        }
    }

    #[test]
    fn state_is_recent_input_window() {
        let mut enc = ConvEncoder::new();
        enc.push(true);
        assert_eq!(enc.state(), 0b100000);
        enc.push(false);
        assert_eq!(enc.state(), 0b010000);
        enc.push(true);
        assert_eq!(enc.state(), 0b101000);
    }
}
