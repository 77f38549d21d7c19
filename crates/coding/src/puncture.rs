//! Puncturing patterns for the 802.11 BCC (17.3.5.6 / Fig 17-9..11).
//!
//! Higher code rates are obtained from the rate-1/2 mother code by skipping
//! ("stealing") some output bits. The decoders read the punctured stream
//! in place and treat stolen positions as "no information".

/// The four 802.11 code rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (no puncturing).
    R12,
    /// Rate 2/3 — per 2 input bits transmit A1 B1 A2 (steal B2).
    R23,
    /// Rate 3/4 — per 3 input bits transmit A1 B1 A2 B3 (steal B2, A3).
    R34,
    /// Rate 5/6 — per 5 input bits transmit A1 B1 A2 B3 A4 B5.
    R56,
}

impl CodeRate {
    /// (numerator, denominator) of the information rate.
    pub fn ratio(self) -> (usize, usize) {
        match self {
            CodeRate::R12 => (1, 2),
            CodeRate::R23 => (2, 3),
            CodeRate::R34 => (3, 4),
            CodeRate::R56 => (5, 6),
        }
    }

    /// The puncturing pattern as (keep-A, keep-B) flags per input bit,
    /// repeated cyclically over the input stream.
    pub const fn pattern(self) -> (&'static [bool], &'static [bool]) {
        match self {
            CodeRate::R12 => (&[true], &[true]),
            CodeRate::R23 => (&[true, true], &[true, false]),
            CodeRate::R34 => (&[true, true, false], &[true, false, true]),
            CodeRate::R56 => (
                &[true, true, false, true, false],
                &[true, false, true, false, true],
            ),
        }
    }

    /// Input bits per puncturing period.
    pub fn period_inputs(self) -> usize {
        self.pattern().0.len()
    }

    /// Transmitted bits per puncturing period.
    pub fn period_outputs(self) -> usize {
        let (a, b) = self.pattern();
        a.iter().filter(|&&k| k).count() + b.iter().filter(|&&k| k).count()
    }

    /// Number of transmitted (punctured) bits for `n_input` information
    /// bits. `n_input` must be a multiple of the period.
    pub fn n_transmitted(self, n_input: usize) -> usize {
        let p = self.period_inputs();
        assert_eq!(
            n_input % p,
            0,
            "input length {n_input} not a multiple of the rate-{:?} period {p}",
            self
        );
        n_input / p * self.period_outputs()
    }

    /// Number of transmitted bits [`puncture`] emits for `n_input`
    /// information bits, a trailing partial period included.
    pub fn transmitted_len(self, n_input: usize) -> usize {
        let (ka, kb) = self.pattern();
        let p = ka.len();
        let partial: usize =
            (0..n_input % p).map(|j| usize::from(ka[j]) + usize::from(kb[j])).sum();
        n_input / p * self.period_outputs() + partial
    }

    /// Number of information bits for `n_tx` transmitted bits.
    pub fn n_inputs(self, n_tx: usize) -> usize {
        let q = self.period_outputs();
        assert_eq!(n_tx % q, 0, "transmitted length {n_tx} not a multiple of {q}");
        n_tx / q * self.period_inputs()
    }
}

/// Punctures an interleaved mother-code stream `[A0, B0, A1, B1, ...]`.
pub fn puncture(rate: CodeRate, mother: &[bool]) -> Vec<bool> {
    assert_eq!(mother.len() % 2, 0);
    let (ka, kb) = rate.pattern();
    let p = ka.len();
    // The mother length bounds the output; reserving it once keeps every
    // subsequent push allocation-free.
    let mut out = Vec::with_capacity(mother.len());
    for (i, pair) in mother.chunks_exact(2).enumerate() {
        let ph = i % p;
        if ka[ph] {
            out.push(pair[0]);
        }
        if kb[ph] {
            out.push(pair[1]);
        }
    }
    if bluefi_dsp::contracts::enabled() {
        // Stage contract: whenever the input covers whole puncturing
        // periods, the output length must agree with the rate arithmetic
        // the rest of the pipeline budgets with.
        let pairs = mother.len() / 2;
        if pairs.is_multiple_of(rate.period_inputs()) {
            bluefi_dsp::contract!(
                out.len() == rate.n_transmitted(pairs),
                "puncture: rate {rate:?} emitted {} bits for {pairs} input bits, expected {}",
                out.len(),
                rate.n_transmitted(pairs)
            );
        }
    }
    out
}

/// Spreading tables that puncture packed words a byte of inputs at a time.
/// For a byte of 8 inputs whose first input sits at pattern phase `φ`,
/// `spread[φ][0][a]` places its A bits and `spread[φ][1][b]` its B bits at
/// their offsets within the byte's run of `count[φ]` transmitted bits; the
/// next byte starts at phase `next[φ]`.
struct WordPuncture {
    spread: [[[u16; 256]; 2]; 5],
    count: [u8; 5],
    next: [u8; 5],
}

const fn word_puncture(rate: CodeRate) -> WordPuncture {
    let (ka, kb) = rate.pattern();
    let p = ka.len();
    let mut wp = WordPuncture { spread: [[[0; 256]; 2]; 5], count: [0; 5], next: [0; 5] };
    let mut phase = 0;
    while phase < p {
        let mut v = 0;
        while v < 256 {
            let (mut off, mut j) = (0, 0);
            while j < 8 {
                let ph = (phase + j) % p;
                if ka[ph] {
                    wp.spread[phase][0][v] |= (((v >> j) & 1) << off) as u16;
                    off += 1;
                }
                if kb[ph] {
                    wp.spread[phase][1][v] |= (((v >> j) & 1) << off) as u16;
                    off += 1;
                }
                j += 1;
            }
            wp.count[phase] = off as u8;
            v += 1;
        }
        wp.next[phase] = ((phase + 8) % p) as u8;
        phase += 1;
    }
    wp
}

static WORD_PUNCTURE: [WordPuncture; 4] = [
    word_puncture(CodeRate::R12),
    word_puncture(CodeRate::R23),
    word_puncture(CodeRate::R34),
    word_puncture(CodeRate::R56),
];

/// Word form of [`puncture`]: `a` and `b` hold the mother code's A
/// and B outputs for `n_in` inputs, packed LSB-first (bit `i` at bit
/// `i mod 64` of word `i / 64`, as
/// [`crate::convolutional::encode_words_into`] writes them). Writes the
/// transmitted stream packed the same way into `out` — `⌈n_tx/64⌉` words
/// with `n_tx = rate.transmitted_len(n_in)`, bits past `n_tx` zero — a
/// table lookup per byte of inputs. Allocates only when `out` must grow.
pub fn puncture_words_into(rate: CodeRate, a: &[u64], b: &[u64], n_in: usize, out: &mut Vec<u64>) {
    let n_bytes = n_in.div_ceil(8);
    assert!(a.len() * 8 >= n_bytes && b.len() * 8 >= n_bytes, "packed streams shorter than n_in");
    let tab = &WORD_PUNCTURE[match rate {
        CodeRate::R12 => 0,
        CodeRate::R23 => 1,
        CodeRate::R34 => 2,
        CodeRate::R56 => 3,
    }];
    let n_tx = rate.transmitted_len(n_in);
    // Each byte emits at most 16 bits; the final partial byte may run past
    // n_tx, so the buffer holds whole bytes' output and is cut afterwards.
    bluefi_dsp::contracts::ensure_capacity(out, (n_bytes * 16).div_ceil(64) + 1);
    let (mut acc, mut fill, mut phase) = (0u128, 0, 0);
    for k in 0..n_bytes {
        let (w, sh) = (k / 8, 8 * (k % 8));
        let va = usize::from((a[w] >> sh) as u8);
        let vb = usize::from((b[w] >> sh) as u8);
        let bits = tab.spread[phase][0][va] | tab.spread[phase][1][vb];
        acc |= u128::from(bits) << fill;
        fill += u32::from(tab.count[phase]);
        if fill >= 64 {
            out.push(acc as u64);
            acc >>= 64;
            fill -= 64;
        }
        phase = usize::from(tab.next[phase]);
    }
    if fill > 0 {
        out.push(acc as u64);
    }
    out.truncate(n_tx.div_ceil(64));
    if !n_tx.is_multiple_of(64) {
        if let Some(last) = out.last_mut() {
            *last &= (1u64 << (n_tx % 64)) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_arithmetic() {
        assert_eq!(CodeRate::R12.n_transmitted(10), 20);
        assert_eq!(CodeRate::R23.n_transmitted(10), 15);
        assert_eq!(CodeRate::R34.n_transmitted(9), 12);
        assert_eq!(CodeRate::R56.n_transmitted(10), 12);
        assert_eq!(CodeRate::R56.n_inputs(12), 10);
    }

    #[test]
    fn r23_steals_every_second_b() {
        // mother: A0 B0 A1 B1 A2 B2 A3 B3 -> keep A0 B0 A1 / A2 B2 A3.
        let mother: Vec<bool> = vec![
            true, false, // A0 B0
            true, true, // A1 B1 (B1 stolen)
            false, true, // A2 B2
            false, false, // A3 B3 (B3 stolen)
        ];
        assert_eq!(
            puncture(CodeRate::R23, &mother),
            vec![true, false, true, false, true, false]
        );
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_length_panics() {
        CodeRate::R56.n_transmitted(7);
    }
}
