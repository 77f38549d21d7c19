//! Bluetooth BR sync-word generation — the (64,30) expurgated block code of
//! spec Vol 2 Part B 6.3.3.
//!
//! The 64-bit sync word in every BR access code is derived from the 24-bit
//! LAP: append a 6-bit Barker sequence, XOR with a fixed PN sequence,
//! compute 34 parity bits with the degree-34 generator `g(D)` (octal
//! 260534236651), and XOR the full 64-bit codeword with the PN again. The
//! construction gives large minimum distance (d = 14) so receivers can
//! correlate against it in heavy noise.
//!
//! Bit-order conventions here are pinned by the well-known GIAC
//! (inquiry-access-code) golden vector: LAP 0x9E8B33 →
//! sync word 0x475C58CC73345E72.

/// The fixed 64-bit PN sequence from the spec.
pub const PN: u64 = 0x83848D96BBCC54FC;

/// Generator polynomial g(D), octal 260534236651 (degree 34; bit i is the
/// coefficient of Dⁱ).
pub const GENERATOR: u64 = 0o260534236651;

#[inline]
fn bit(v: u64, i: u32) -> u64 {
    (v >> i) & 1
}

fn reverse_bits(v: u64, width: u32) -> u64 {
    (0..width).fold(0u64, |acc, i| acc | (bit(v, i) << (width - 1 - i)))
}

/// `info·D³⁴ mod g(D)` — the 34 BCH parity bits.
fn bch_parity(info30: u64) -> u64 {
    let mut r: u64 = info30 << 34;
    for d in (34..64).rev() {
        if bit(r, d) == 1 {
            r ^= GENERATOR << (d - 34);
        }
    }
    r & ((1u64 << 34) - 1)
}

/// Derives the 64-bit sync word for a 24-bit LAP.
///
/// The returned value is in *presentation* order (the order sync words are
/// conventionally quoted, e.g. GIAC = 0x475C58CC73345E72); use
/// [`sync_word_bits`] for the on-air LSB-first bit sequence.
pub fn sync_word(lap: u32) -> u64 {
    assert!(lap < (1 << 24), "LAP is 24 bits, got {lap:#x}");
    let lap = lap as u64;
    // Append the Barker sequence: a23 == 0 -> 001101, else 110010, written
    // into info bits 24..29 in reversed (appended-end-first) order.
    let barker = if bit(lap, 23) == 0 { 0b001101u64 } else { 0b110010 };
    let barker = reverse_bits(barker, 6);
    let info = lap | (barker << 24);
    // XOR the information with PN bits 34..63, compute parity over the
    // randomized info, assemble the codeword, and undo the PN over the full
    // word (which leaves the info part carrying the raw LAP — visible in
    // sniffed packets — while the parity stays randomized).
    let pn_info = (PN >> 34) & ((1 << 30) - 1);
    let xt = info ^ pn_info;
    let codeword = (xt << 34) | bch_parity(xt);
    reverse_bits(codeword ^ PN, 64)
}

/// The sync word as 64 on-air bits (transmitted LSB of the presentation
/// value last; i.e. bit 0 of the returned vector is transmitted first).
pub fn sync_word_bits(lap: u32) -> Vec<bool> {
    let sw = sync_word(lap);
    // Presentation order is the reverse of the internal codeword order; the
    // air order sends the codeword LSB-first, i.e. presentation MSB-first.
    (0..64).rev().map(|i| bit(sw, i) == 1).collect()
}

/// Verifies that a 64-bit word is a valid sync word (a PN-masked BCH
/// codeword) and recovers its LAP if so.
pub fn check_sync_word(sw: u64) -> Option<u32> {
    let codeword = reverse_bits(sw, 64) ^ PN;
    // The codeword's information part is the PN-randomized x̃; undo the PN
    // to recover the raw LAP.
    let info = (codeword >> 34) ^ ((PN >> 34) & ((1 << 30) - 1));
    let lap = (info & 0xFF_FFFF) as u32;
    if sync_word(lap) == sw {
        Some(lap)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// LAP of the General Inquiry Access Code.
    const GIAC_LAP: u32 = 0x9E8B33;

    #[test]
    fn giac_golden_vector() {
        assert_eq!(sync_word(GIAC_LAP), 0x475C58CC73345E72);
    }

    #[test]
    fn lap_recoverable_from_sync_word() {
        for lap in [0u32, 1, GIAC_LAP, 0x123456, 0xFFFFFF] {
            let sw = sync_word(lap);
            assert_eq!(check_sync_word(sw), Some(lap), "lap {lap:#x}");
        }
    }

    #[test]
    fn corrupted_words_are_rejected() {
        let sw = sync_word(GIAC_LAP);
        // Flipping any parity-side bit invalidates the word (info-side flips
        // change the LAP *and* break parity).
        for i in 0..64 {
            assert_eq!(check_sync_word(sw ^ (1 << i)), None, "bit {i}");
        }
    }

    #[test]
    fn distinct_laps_give_distant_sync_words() {
        // The expurgated (64,30) code has minimum distance 14; check a
        // sample of LAP pairs meets it.
        let laps = [0x000000u32, 0x000001, 0x9E8B33, 0x555555, 0xABCDEF, 0xFFFFFF];
        for (i, &a) in laps.iter().enumerate() {
            for &b in &laps[i + 1..] {
                let d = (sync_word(a) ^ sync_word(b)).count_ones();
                assert!(d >= 14, "LAPs {a:#x},{b:#x} distance {d}");
            }
        }
    }

    #[test]
    fn parity_is_a_valid_remainder() {
        // codeword (pre-PN) must be divisible by g(D).
        for lap in [GIAC_LAP, 0x42u32, 0x800000] {
            let codeword = reverse_bits(sync_word(lap), 64) ^ PN;
            let mut r = codeword;
            for d in (34..64).rev() {
                if bit(r, d) == 1 {
                    r ^= GENERATOR << (d - 34);
                }
            }
            assert_eq!(r & ((1 << 34) - 1), 0, "lap {lap:#x}");
        }
    }

    #[test]
    fn air_bits_match_presentation_msb_first() {
        let bits = sync_word_bits(GIAC_LAP);
        assert_eq!(bits.len(), 64);
        let sw = sync_word(GIAC_LAP);
        // First transmitted bit is the presentation MSB.
        assert_eq!(bits[0], (sw >> 63) & 1 == 1);
        assert_eq!(bits[63], sw & 1 == 1);
    }

    #[test]
    fn autocorrelation_of_giac_is_peaky() {
        // Good sync words have low off-peak autocorrelation: shifting the
        // word against itself should disagree in many positions.
        let bits = sync_word_bits(GIAC_LAP);
        for shift in 1..32 {
            let agree = bits[shift..]
                .iter()
                .zip(&bits[..64 - shift])
                .filter(|(a, b)| a == b)
                .count();
            let total = 64 - shift;
            // Off-peak agreement stays well below 90%.
            assert!(
                agree as f64 / total as f64 <= 0.9,
                "shift {shift}: {agree}/{total}"
            );
        }
    }
}
