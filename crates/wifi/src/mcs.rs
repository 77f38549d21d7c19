//! HT MCS table for one spatial stream at 20 MHz (IEEE 802.11-2016,
//! Table 19-27), plus the data-field bit pipeline parameters.

use crate::qam::Modulation;
use bluefi_coding::CodeRate;

/// An HT modulation-and-coding scheme (single spatial stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mcs {
    /// MCS index 0..=7.
    pub index: u8,
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// Convolutional code rate.
    pub rate: CodeRate,
}

impl Mcs {
    /// Looks up MCS 0..=7.
    ///
    /// # Panics
    /// Panics on indices above 7; use [`Mcs::try_from_index`] for untrusted
    /// input.
    pub fn from_index(index: u8) -> Mcs {
        Mcs::try_from_index(index)
            // lint: allow(panic) callers pass compile-time constants; try_from_index is the fallible path
            .unwrap_or_else(|| panic!("single-stream HT MCS is 0..=7, got {index}"))
    }

    /// Fallible MCS lookup: `None` for indices outside the single-stream
    /// HT range 0..=7.
    pub fn try_from_index(index: u8) -> Option<Mcs> {
        let (modulation, rate) = match index {
            0 => (Modulation::Bpsk, CodeRate::R12),
            1 => (Modulation::Qpsk, CodeRate::R12),
            2 => (Modulation::Qpsk, CodeRate::R34),
            3 => (Modulation::Qam16, CodeRate::R12),
            4 => (Modulation::Qam16, CodeRate::R34),
            5 => (Modulation::Qam64, CodeRate::R23),
            6 => (Modulation::Qam64, CodeRate::R34),
            7 => (Modulation::Qam64, CodeRate::R56),
            _ => return None,
        };
        Some(Mcs { index, modulation, rate })
    }

    /// Coded bits per OFDM symbol (N_CBPS).
    pub fn coded_bits_per_symbol(self) -> usize {
        52 * self.modulation.bits_per_symbol()
    }

    /// Data bits per OFDM symbol (N_DBPS).
    pub fn data_bits_per_symbol(self) -> usize {
        let (num, den) = self.rate.ratio();
        self.coded_bits_per_symbol() * num / den
    }

    /// The MCS BlueFi uses with the weighted Viterbi reversal (minimal
    /// information loss — rate 5/6, paper Sec 2.7).
    pub fn bluefi_viterbi() -> Mcs {
        Mcs::from_index(7)
    }

    /// The MCS BlueFi uses with the real-time decoder (highest compression
    /// — rate 2/3, paper Sec 2.7).
    pub fn bluefi_realtime() -> Mcs {
        Mcs::from_index(5)
    }
}

/// Number of OFDM symbols needed for `psdu_len` bytes at `mcs`
/// (SERVICE 16 bits + PSDU + 6 tail bits, padded up).
pub fn n_symbols(mcs: Mcs, psdu_len: usize) -> usize {
    let payload_bits = 16 + 8 * psdu_len + 6;
    payload_bits.div_ceil(mcs.data_bits_per_symbol())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_19_27_values() {
        // (index, Ncbps, Ndbps)
        let rows = [
            (0u8, 52usize, 26usize),
            (1, 104, 52),
            (2, 104, 78),
            (3, 208, 104),
            (4, 208, 156),
            (5, 312, 208),
            (6, 312, 234),
            (7, 312, 260),
        ];
        for (i, ncbps, ndbps) in rows {
            let m = Mcs::from_index(i);
            assert_eq!(m.coded_bits_per_symbol(), ncbps, "MCS{i}");
            assert_eq!(m.data_bits_per_symbol(), ndbps, "MCS{i}");
        }
    }

    #[test]
    fn symbol_count() {
        let m = Mcs::from_index(7); // 260 bits/symbol
        assert_eq!(n_symbols(m, 0), 1);
        assert_eq!(n_symbols(m, 29), 1); // 16+232+6 = 254 <= 260
        assert_eq!(n_symbols(m, 30), 2); // 16+240+6 = 262 > 260
    }

    #[test]
    fn bluefi_choices() {
        assert_eq!(Mcs::bluefi_viterbi().rate, CodeRate::R56);
        assert_eq!(Mcs::bluefi_realtime().rate, CodeRate::R23);
        assert_eq!(Mcs::bluefi_viterbi().modulation, Modulation::Qam64);
    }

    #[test]
    #[should_panic(expected = "0..=7")]
    fn mcs8_rejected() {
        Mcs::from_index(8);
    }
}
