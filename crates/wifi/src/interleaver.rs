//! The HT BCC interleaver (IEEE 802.11-2016, 19.3.11.8.1; single stream,
//! 20 MHz, no rotation).
//!
//! Two permutations act on each OFDM symbol's block of `N_CBPS` coded bits:
//!
//! * `i = N_ROW·(k mod N_COL) + ⌊k / N_COL⌋` with `N_COL = 13`,
//!   `N_ROW = 4·N_BPSCS` — adjacent coded bits land on far-apart
//!   subcarriers; and
//! * `j = s·⌊i/s⌋ + (i + N_CBPS − ⌊13·i / N_CBPS⌋) mod s` with
//!   `s = max(N_BPSCS/2, 1)` — rotates bit significance within a subcarrier.
//!
//! The column count of 13 is the "internal period" BlueFi's real-time
//! decoder leans on (paper Sec 2.7), and the paper's Table 1 — reproduced
//! as a golden test below — is exactly this mapping evaluated at 64-QAM.

use crate::qam::Modulation;
use crate::subcarriers::{subcarrier_of_data_index, N_DATA};

/// Number of interleaver columns (HT-20).
pub const N_COL: usize = 13;

/// The interleaver for one modulation order at HT-20 / 1 spatial stream.
#[derive(Debug, Clone, Copy)]
pub struct Interleaver {
    modulation: Modulation,
}

impl Interleaver {
    /// Creates the interleaver for `modulation`.
    pub fn new(modulation: Modulation) -> Interleaver {
        let il = Interleaver { modulation };
        if bluefi_dsp::contracts::enabled() {
            // Stage contract: the two-permutation formula must be a
            // bijection on the symbol block, or deinterleaving silently
            // drops coded bits.
            bluefi_dsp::contracts::check_permutation_bijective(
                il.block_len(),
                |k| il.permute(k),
                "HT interleaver",
            );
        }
        il
    }

    /// Coded bits per OFDM symbol (N_CBPS).
    pub fn block_len(&self) -> usize {
        N_DATA * self.modulation.bits_per_symbol()
    }

    /// The output position of input (coded) bit `k` within its symbol.
    pub fn permute(&self, k: usize) -> usize {
        let ncbps = self.block_len();
        assert!(k < ncbps);
        let nbpsc = self.modulation.bits_per_symbol();
        let nrow = 4 * nbpsc;
        let s = (nbpsc / 2).max(1);
        let i = nrow * (k % N_COL) + k / N_COL;
        s * (i / s) + (i + ncbps - 13 * i / ncbps) % s
    }

    /// Interleaves one symbol's worth of coded bits. Thin shim over
    /// [`Interleaver::interleave_into`].
    pub fn interleave(&self, block: &[bool]) -> Vec<bool> {
        let mut out = Vec::new();
        self.interleave_into(block, &mut out);
        out
    }

    /// Scratch-buffer variant of [`Interleaver::interleave`]: permutes into
    /// `out` (resized to the block length), allocating only when `out` must
    /// grow.
    pub fn interleave_into(&self, block: &[bool], out: &mut Vec<bool>) {
        assert_eq!(block.len(), self.block_len());
        bluefi_dsp::contracts::ensure_len(out, block.len(), false);
        for (k, &b) in block.iter().enumerate() {
            out[self.permute(k)] = b;
        }
    }

    /// Inverse of [`Interleaver::interleave`]: un-permutes into `out`
    /// (resized to the block length), allocating only when `out` must grow.
    pub fn deinterleave_into(&self, block: &[bool], out: &mut Vec<bool>) {
        assert_eq!(block.len(), self.block_len());
        bluefi_dsp::contracts::ensure_len(out, block.len(), false);
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = block[self.permute(k)];
        }
    }

    /// Where coded bit `k` ends up: `(subcarrier, bit_within_subcarrier)`.
    ///
    /// `bit_within_subcarrier` counts the paper's way: bit 5 is the first
    /// (most significant) mapper input of a 64-QAM group, bit 0 the last —
    /// i.e. `N_BPSCS − 1 − (j mod N_BPSCS)`.
    pub fn mapped_location(&self, k: usize) -> (i32, usize) {
        let j = self.permute(k);
        let nbpsc = self.modulation.bits_per_symbol();
        let sc = subcarrier_of_data_index(j / nbpsc);
        (sc, nbpsc - 1 - j % nbpsc)
    }

    /// The subcarrier that coded bit `k` modulates.
    pub fn subcarrier_of(&self, k: usize) -> i32 {
        self.mapped_location(k).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_golden_vector() {
        // Paper Table 1 (64-QAM / MCS7): "Bit | Mapped Location".
        let il = Interleaver::new(Modulation::Qam64);
        let expect: [(usize, i32, usize); 7] = [
            (0, -28, 5),
            (1, -24, 3),
            (7, 3, 3),
            (8, 8, 4),
            (9, 12, 5),
            (10, 16, 3),
            (11, 20, 4),
        ];
        for (k, sc, bit) in expect {
            assert_eq!(il.mapped_location(k), (sc, bit), "coded bit {k}");
        }
        // Bit 12 -> subcarrier 25, bit 5.
        assert_eq!(il.mapped_location(12), (25, 5));
    }

    #[test]
    fn permutation_is_a_bijection() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let il = Interleaver::new(m);
            let mut seen = vec![false; il.block_len()];
            for k in 0..il.block_len() {
                let j = il.permute(k);
                assert!(!seen[j], "{m:?}: output {j} hit twice");
                seen[j] = true;
            }
        }
    }

    #[test]
    fn interleave_roundtrip() {
        let il = Interleaver::new(Modulation::Qam64);
        let block: Vec<bool> = (0..il.block_len()).map(|i| i % 5 < 2).collect();
        let mut back = Vec::new();
        il.deinterleave_into(&il.interleave(&block), &mut back);
        assert_eq!(back, block);
    }

    #[test]
    fn cycle_position_selects_band_slice() {
        // The BlueFi property: k mod 13 determines a 4-subcarrier-wide slice
        // of the band, ascending from -28.
        let il = Interleaver::new(Modulation::Qam64);
        for k in 0..il.block_len() {
            let sc = il.subcarrier_of(k);
            let slice = k % N_COL;
            // Data ordinal range for this slice: [4*slice, 4*slice+4).
            let d = crate::subcarriers::data_index_of_subcarrier(sc).unwrap();
            assert!(
                d >= 4 * slice && d < 4 * slice + 4,
                "bit {k} (slice {slice}) on data ordinal {d}"
            );
        }
    }

    #[test]
    fn adjacent_coded_bits_map_far_apart() {
        let il = Interleaver::new(Modulation::Qam64);
        for k in 0..il.block_len() - 1 {
            if k % N_COL == N_COL - 1 {
                continue; // wrap within the period
            }
            let a = il.subcarrier_of(k);
            let b = il.subcarrier_of(k + 1);
            assert!((a - b).abs() >= 3, "bits {k},{} on {a},{b}", k + 1);
        }
    }

    #[test]
    fn block_lengths() {
        assert_eq!(Interleaver::new(Modulation::Bpsk).block_len(), 52);
        assert_eq!(Interleaver::new(Modulation::Qpsk).block_len(), 104);
        assert_eq!(Interleaver::new(Modulation::Qam16).block_len(), 208);
        assert_eq!(Interleaver::new(Modulation::Qam64).block_len(), 312);
    }
}
