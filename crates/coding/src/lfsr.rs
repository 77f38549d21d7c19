//! Linear-feedback shift registers: the 802.11 data scrambler and the
//! Bluetooth whitening sequences.
//!
//! Both standards use the same primitive polynomial `x⁷ + x⁴ + 1`, differing
//! only in initialization and framing:
//!
//! * 802.11 (17.3.5.5): a 7-bit register seeded with a nonzero "scrambler
//!   seed"; the output sequence is XORed onto the PPDU data bits. Because
//!   XOR is an involution, descrambling is the same operation with the same
//!   seed — the property BlueFi's Sec 2.8 relies on.
//! * Bluetooth LE (Vol 6, Part B, 3.2): whitening seeded with the RF channel
//!   index (bit 6 forced to 1).
//! * Bluetooth BR (Vol 2, Part B, 7.2): payload/header whitening seeded from
//!   clock bits (bit 6 forced to 1).

/// The shared 7-bit LFSR, generating the `x⁷ + x⁴ + 1` m-sequence.
///
/// State convention: bit 6 is the oldest stage (`x⁷` side). Each step
/// outputs `s6 ⊕ s3` and shifts that bit into stage 0 — the textbook
/// Fibonacci form of the 802.11 scrambler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lfsr7 {
    state: u8,
}

impl Lfsr7 {
    /// Creates the register with a 7-bit seed.
    ///
    /// # Panics
    /// Panics when the seed is zero (the register would be stuck) or wider
    /// than 7 bits.
    pub fn new(seed: u8) -> Lfsr7 {
        assert!(seed != 0, "an all-zero LFSR seed generates no sequence");
        assert!(seed < 0x80, "seed must fit in 7 bits, got {seed:#x}");
        let lfsr = Lfsr7 { state: seed };
        if bluefi_dsp::contracts::enabled() {
            // Stage contract: x⁷+x⁴+1 is primitive, so every nonzero seed
            // must cycle through all 127 states before returning home.
            let mut probe = lfsr;
            let mut period = 0u32;
            loop {
                probe.next_bit();
                period += 1;
                if probe.state == seed {
                    break;
                }
                bluefi_dsp::contract!(
                    period <= 127,
                    "Lfsr7: seed {seed:#x} did not return within 127 steps"
                );
            }
            bluefi_dsp::contract!(
                period == 127,
                "Lfsr7: seed {seed:#x} has period {period}, expected the full m-sequence 127"
            );
        }
        lfsr
    }

    /// Current register contents.
    pub fn state(&self) -> u8 {
        self.state
    }

    /// Produces the next sequence bit.
    #[inline]
    pub fn next_bit(&mut self) -> bool {
        let b = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | b) & 0x7F;
        b == 1
    }
}

/// One 127-bit period of a seed's scrambler sequence — the m-sequence
/// repeats every 127 bits — held packed, so the 64 sequence bits at any
/// position are one unaligned word read and descrambling 64 bits is one
/// XOR instead of 64 register steps.
#[derive(Debug, Clone)]
pub struct ScramblerPeriod {
    /// Sequence bits `0..127 + 64`, LSB-first: one period plus the 64-bit
    /// window that starts at its last phase.
    bits: [u64; 3],
}

impl ScramblerPeriod {
    /// The period of the sequence [`Lfsr7::new`]`(seed)` emits.
    pub fn new(seed: u8) -> ScramblerPeriod {
        let mut lfsr = Lfsr7::new(seed);
        let mut bits = [0u64; 3];
        for i in 0..127 + 64 {
            bits[i / 64] |= u64::from(lfsr.next_bit()) << (i % 64);
        }
        ScramblerPeriod { bits }
    }

    /// Sequence bits `i..i + 64`, LSB first (counting from the seed, as
    /// the register emits).
    pub fn word(&self, i: usize) -> u64 {
        let ph = i % 127;
        let (w, s) = (ph / 64, ph % 64);
        if s == 0 {
            self.bits[w]
        } else {
            self.bits[w] >> s | self.bits[w + 1] << (64 - s)
        }
    }

    /// Sequence bit `i`.
    pub fn bit(&self, i: usize) -> bool {
        self.word(i) & 1 == 1
    }

    /// Sequence bits `i..i + 8`, LSB first.
    pub fn byte(&self, i: usize) -> u8 {
        self.word(i) as u8
    }
}

/// The 802.11 frame-synchronous data scrambler.
///
/// `scramble(seed, bits)` XORs the LFSR sequence onto `bits`; applying it
/// twice with the same seed is the identity.
pub fn scramble(seed: u8, bits: &[bool]) -> Vec<bool> {
    let mut lfsr = Lfsr7::new(seed);
    bits.iter().map(|&d| d ^ lfsr.next_bit()).collect()
}

/// Recovers the scrambler seed from the first 7 descrambler-input bits when
/// the plaintext is known to start with zeros (802.11 prepends a 16-bit
/// all-zero SERVICE field precisely so receivers can do this).
///
/// Given the first 7 *scrambled* bits of a stream whose plaintext starts
/// with ≥7 zero bits, the scrambled bits ARE the LFSR output; running the
/// register backwards yields the seed.
pub fn recover_seed(first_scrambled_bits: &[bool]) -> Option<u8> {
    if first_scrambled_bits.len() < 7 {
        return None;
    }
    // Forward: out[i] = s6 ⊕ s3 of the state before step i, and the state
    // shifts that bit in. Observing 7 consecutive outputs determines the
    // state after 7 steps; invert the recurrence to get the initial state.
    // Easier: brute force the 127 possible seeds (tiny, branch-free).
    (1u8..0x80).find(|&seed| {
        let mut l = Lfsr7::new(seed);
        first_scrambled_bits[..7].iter().all(|&b| l.next_bit() == b)
    })
}

/// Bluetooth LE whitening for a given RF channel index (0–39).
///
/// Seed is the 6-bit channel index with bit 6 set (spec Vol 6 Part B 3.2).
/// Self-inverse: apply to whiten, apply again to de-whiten.
pub fn ble_whiten(channel_index: u8, bits: &[bool]) -> Vec<bool> {
    assert!(channel_index < 40, "BLE channel index 0-39, got {channel_index}");
    scramble_with_seed_bit6(0x40 | channel_index, bits)
}

/// Bluetooth BR payload whitening seeded from clock bits CLK₆…CLK₁
/// (spec Vol 2 Part B 7.2): seed = clock bits with bit 6 forced to 1.
pub fn br_whiten(clk6_1: u8, bits: &[bool]) -> Vec<bool> {
    scramble_with_seed_bit6(0x40 | (clk6_1 & 0x3F), bits)
}

fn scramble_with_seed_bit6(seed: u8, bits: &[bool]) -> Vec<bool> {
    let mut lfsr = Lfsr7::new(seed);
    bits.iter().map(|&d| d ^ lfsr.next_bit()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_period_is_127() {
        // x^7+x^4+1 is primitive: every nonzero seed cycles through all 127
        // states before repeating.
        let mut l = Lfsr7::new(1);
        let start = l.state();
        let mut period = 0;
        loop {
            l.next_bit();
            period += 1;
            if l.state() == start {
                break;
            }
            assert!(period <= 127, "period exceeded 127");
        }
        assert_eq!(period, 127);
    }

    #[test]
    fn all_seeds_produce_shifts_of_one_sequence() {
        // m-sequence property: the set of states visited is the same for all
        // seeds.
        let collect_states = |seed: u8| {
            let mut l = Lfsr7::new(seed);
            let mut s = std::collections::BTreeSet::new();
            for _ in 0..127 {
                s.insert(l.state());
                l.next_bit();
            }
            s
        };
        assert_eq!(collect_states(1), collect_states(71));
    }

    #[test]
    fn scramble_is_involution() {
        let bits: Vec<bool> = (0..300).map(|i| (i * 7 + 3) % 5 < 2).collect();
        for seed in [1u8, 71, 127] {
            assert_eq!(scramble(seed, &scramble(seed, &bits)), bits);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let zeros = vec![false; 64];
        assert_ne!(scramble(1, &zeros), scramble(2, &zeros));
    }

    #[test]
    fn seed_recovery_from_service_field() {
        // 802.11 prepends 16 zero bits; the receiver sees pure LFSR output.
        for seed in [1u8, 42, 71, 126] {
            let service_and_data: Vec<bool> = vec![false; 16];
            let scrambled = scramble(seed, &service_and_data);
            assert_eq!(recover_seed(&scrambled), Some(seed));
        }
    }

    #[test]
    fn seed_recovery_needs_seven_bits() {
        assert_eq!(recover_seed(&[true, false]), None);
    }

    #[test]
    fn ble_whitening_is_involution_and_channel_dependent() {
        let pdu: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for ch in [0u8, 37, 38, 39] {
            assert_eq!(ble_whiten(ch, &ble_whiten(ch, &pdu)), pdu);
        }
        assert_ne!(ble_whiten(37, &pdu), ble_whiten(38, &pdu));
    }

    #[test]
    fn br_whitening_is_involution() {
        let bits: Vec<bool> = (0..100).map(|i| i % 7 < 3).collect();
        for clk in [0u8, 1, 33, 63] {
            assert_eq!(br_whiten(clk, &br_whiten(clk, &bits)), bits);
        }
    }

    #[test]
    fn period_table_matches_the_register() {
        for seed in [1u8, 71, 127] {
            let period = ScramblerPeriod::new(seed);
            let mut lfsr = Lfsr7::new(seed);
            let seq: Vec<bool> = (0..400).map(|_| lfsr.next_bit()).collect();
            for i in 0..seq.len() - 8 {
                assert_eq!(period.bit(i), seq[i], "seed {seed} bit {i}");
                let byte = (0..8).fold(0u8, |acc, j| acc | (u8::from(seq[i + j]) << j));
                assert_eq!(period.byte(i), byte, "seed {seed} byte at {i}");
                if i + 64 <= seq.len() {
                    let word = (0..64).fold(0u64, |acc, j| acc | (u64::from(seq[i + j]) << j));
                    assert_eq!(period.word(i), word, "seed {seed} word at {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn zero_seed_rejected() {
        Lfsr7::new(0);
    }
}
