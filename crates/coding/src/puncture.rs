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
    pub fn pattern(self) -> (&'static [bool], &'static [bool]) {
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

    /// Number of information bits for `n_tx` transmitted bits.
    pub fn n_inputs(self, n_tx: usize) -> usize {
        let q = self.period_outputs();
        assert_eq!(n_tx % q, 0, "transmitted length {n_tx} not a multiple of {q}");
        n_tx / q * self.period_inputs()
    }
}

/// Punctures an interleaved mother-code stream `[A0, B0, A1, B1, ...]`.
/// Thin shim over [`puncture_into`].
pub fn puncture(rate: CodeRate, mother: &[bool]) -> Vec<bool> {
    let mut out = Vec::new();
    puncture_into(rate, mother, &mut out);
    out
}

/// Scratch-buffer variant of [`puncture`]: writes the surviving bits into
/// `out` (cleared first), allocating only when `out`'s capacity must grow.
pub fn puncture_into(rate: CodeRate, mother: &[bool], out: &mut Vec<bool>) {
    assert_eq!(mother.len() % 2, 0);
    let (ka, kb) = rate.pattern();
    let p = ka.len();
    // The mother length bounds the output; reserving it once keeps every
    // subsequent push allocation-free.
    bluefi_dsp::contracts::ensure_capacity(out, mother.len());
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
        if pairs % rate.period_inputs() == 0 {
            bluefi_dsp::contract!(
                out.len() == rate.n_transmitted(pairs),
                "puncture: rate {rate:?} emitted {} bits for {pairs} input bits, expected {}",
                out.len(),
                rate.n_transmitted(pairs)
            );
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
