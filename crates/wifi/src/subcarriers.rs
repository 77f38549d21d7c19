//! HT-20 subcarrier layout (IEEE 802.11-2016, 19.3.11).
//!
//! One 20 MHz HT OFDM symbol uses 56 of the 64 subcarriers: 52 carry data,
//! 4 carry pilots (±7, ±21), the DC subcarrier is null, and ±29..±31 plus
//! −32 are guard nulls. Subcarrier spacing is 20 MHz / 64 = 312.5 kHz.

/// FFT size of a 20 MHz 802.11a/g/n symbol.
pub const FFT_SIZE: usize = 64;
/// Subcarrier spacing in Hz.
pub const SUBCARRIER_SPACING_HZ: f64 = 20.0e6 / 64.0;
/// Number of data subcarriers in an HT-20 symbol.
pub const N_DATA: usize = 52;
/// Pilot subcarrier indices.
pub const PILOT_SUBCARRIERS: [i32; 4] = [-21, -7, 7, 21];
/// Outermost populated subcarrier (HT uses −28..28).
pub const MAX_SUBCARRIER: i32 = 28;

/// Returns true when `k` is one of the four pilot subcarriers.
#[inline]
pub const fn is_pilot(k: i32) -> bool {
    let mut i = 0;
    while i < PILOT_SUBCARRIERS.len() {
        if PILOT_SUBCARRIERS[i] == k {
            return true;
        }
        i += 1;
    }
    false
}

/// Returns true when `k` carries data in an HT-20 symbol.
#[inline]
pub const fn is_data(k: i32) -> bool {
    -MAX_SUBCARRIER <= k && k <= MAX_SUBCARRIER && k != 0 && !is_pilot(k)
}

/// The data subcarriers in ascending order, evaluated at compile time.
static DATA_SUBCARRIERS: [i32; N_DATA] = {
    let mut out = [0i32; N_DATA];
    let mut n = 0;
    let mut k = -MAX_SUBCARRIER;
    while k <= MAX_SUBCARRIER {
        if is_data(k) {
            out[n] = k;
            n += 1;
        }
        k += 1;
    }
    assert!(n == N_DATA);
    out
};

/// The 52 data subcarriers in ascending order
/// (−28..−22, −20..−8, −6..−1, 1..6, 8..20, 22..28).
#[inline]
pub fn data_subcarriers() -> &'static [i32; N_DATA] {
    &DATA_SUBCARRIERS
}

/// Maps a data-subcarrier ordinal (0..52) to its subcarrier index.
pub fn subcarrier_of_data_index(d: usize) -> i32 {
    assert!(d < N_DATA, "data index 0..{N_DATA}, got {d}");
    data_subcarriers()[d]
}

/// Maps a subcarrier index to its data ordinal, if it carries data.
pub fn data_index_of_subcarrier(k: i32) -> Option<usize> {
    if !is_data(k) {
        return None;
    }
    data_subcarriers().iter().position(|&s| s == k)
}

/// The (possibly fractional) subcarrier position of a baseband frequency.
#[inline]
pub fn subcarrier_of_freq(freq_hz: f64) -> f64 {
    freq_hz / SUBCARRIER_SPACING_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_add_up() {
        let data = data_subcarriers();
        assert_eq!(data.len(), 52);
        assert!(data.windows(2).all(|w| w[0] < w[1]));
        // 52 data + 4 pilots + 1 DC = 57 of -28..28 (57 slots).
        let populated = (-28..=28).filter(|&k| is_data(k) || is_pilot(k)).count();
        assert_eq!(populated, 56);
    }

    #[test]
    fn pilots_and_dc_are_not_data() {
        for k in [-21, -7, 0, 7, 21] {
            assert!(!is_data(k), "{k}");
        }
        assert!(is_data(-28) && is_data(28) && is_data(1) && is_data(-1));
        assert!(!is_data(29) && !is_data(-29));
    }

    #[test]
    fn paper_table1_subcarrier_ordinals() {
        // The data-index positions the paper's Table 1 relies on.
        assert_eq!(subcarrier_of_data_index(0), -28);
        assert_eq!(subcarrier_of_data_index(4), -24);
        assert_eq!(subcarrier_of_data_index(32), 8);
        assert_eq!(subcarrier_of_data_index(48), 25);
    }

    #[test]
    fn ordinal_roundtrip() {
        for d in 0..N_DATA {
            let k = subcarrier_of_data_index(d);
            assert_eq!(data_index_of_subcarrier(k), Some(d));
        }
        assert_eq!(data_index_of_subcarrier(0), None);
        assert_eq!(data_index_of_subcarrier(7), None);
    }

    #[test]
    fn frequencies() {
        assert!((subcarrier_of_freq(1_812_500.0) - 5.8).abs() < 1e-12);
    }
}
