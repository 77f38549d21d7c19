//! QAM constellation mapping (IEEE 802.11-2016, 17.3.5.8 / Table 17-12).
//!
//! Per-axis levels follow the standard's Gray coding: with `m` bits per
//! axis the level is `2·gray_decode(bits) − (2^m − 1)`, which reproduces the
//! standard's 16/64-QAM tables exactly (pinned in tests). 256-QAM and
//! 1024-QAM (802.11ac/ax) are included for the paper's Sec 5.1 discussion of
//! quantization error at higher modulation orders.
//!
//! Constellations are exposed in *unnormalized* units (odd integers
//! −(L−1)..(L−1)); [`Modulation::kmod`] gives the standard's power
//! normalization 1/√Σ.

use bluefi_dsp::{cx, Cx};

/// Modulation order of one OFDM data subcarrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// BPSK (1 bit, real axis only).
    Bpsk,
    /// QPSK (2 bits).
    Qpsk,
    /// 16-QAM (4 bits).
    Qam16,
    /// 64-QAM (6 bits) — the workhorse for BlueFi.
    Qam64,
    /// 256-QAM (8 bits, 802.11ac).
    Qam256,
    /// 1024-QAM (10 bits, 802.11ax).
    Qam1024,
}

impl Modulation {
    /// Coded bits carried per subcarrier (N_BPSCS).
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
            Modulation::Qam1024 => 10,
        }
    }

    /// Levels per axis (1 for BPSK's imaginary axis).
    pub fn levels_per_axis(self) -> usize {
        match self {
            Modulation::Bpsk => 2,
            _ => 1 << (self.bits_per_symbol() / 2),
        }
    }

    /// The standard's normalization factor K_MOD (multiply constellation
    /// units by this to get unit average power).
    pub fn kmod(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
            Modulation::Qam256 => 1.0 / 170f64.sqrt(),
            Modulation::Qam1024 => 1.0 / 682f64.sqrt(),
        }
    }

    /// Maximum per-axis level (L−1): 7 for 64-QAM.
    pub fn max_level(self) -> i32 {
        (self.levels_per_axis() as i32) * 2 - 1 - self.levels_per_axis() as i32
    }
}

#[inline]
fn gray_decode(mut g: u32) -> u32 {
    let mut shift = 1;
    while shift < 32 {
        g ^= g >> shift;
        shift <<= 1;
    }
    g
}

#[inline]
fn gray_encode(b: u32) -> u32 {
    b ^ (b >> 1)
}

/// Maps `m` bits (b0 first, as they come off the interleaver) to one axis
/// level in unnormalized units.
fn bits_to_level(bits: &[bool]) -> i32 {
    let m = bits.len() as u32;
    // b0 is the most significant bit of the Gray index.
    let idx = bits.iter().fold(0u32, |acc, &b| (acc << 1) | b as u32);
    let v = gray_decode(idx);
    2 * v as i32 - ((1 << m) - 1)
}

/// Maps `bits_per_symbol` interleaved bits to a constellation point in
/// unnormalized units (multiply by [`Modulation::kmod`] for standard power).
pub fn map_bits(modulation: Modulation, bits: &[bool]) -> Cx {
    assert_eq!(bits.len(), modulation.bits_per_symbol());
    let point = match modulation {
        Modulation::Bpsk => cx(if bits[0] { 1.0 } else { -1.0 }, 0.0),
        _ => {
            let half = bits.len() / 2;
            let i = bits_to_level(&bits[..half]);
            let q = bits_to_level(&bits[half..]);
            cx(i as f64, q as f64)
        }
    };
    // Stage contract: mapping must invert exactly through the demapper for
    // every on-grid point, or the FEC-reversal bit accounting breaks.
    // Demap onto the stack so the contract itself stays allocation-free
    // (the probe must see a silent steady state).
    if bluefi_dsp::contracts::enabled() {
        let n = modulation.bits_per_symbol();
        let mut rt = [false; 10];
        demap_point_to(modulation, point, &mut rt[..n]);
        bluefi_dsp::contract!(
            rt[..n] == *bits,
            "map_bits: {modulation:?} point {point:?} does not demap to its source bits"
        );
    }
    point
}

/// Demaps a constellation point (in unnormalized units) back to bits —
/// exact for on-grid points, nearest-point otherwise: the word of
/// [`quantize_point_bits`], unpacked. Writes the `bits_per_symbol()`
/// demapped bits into `out` (resized to fit), allocating only when `out`
/// must grow.
pub fn demap_point_into(modulation: Modulation, point: Cx, out: &mut Vec<bool>) {
    let n = modulation.bits_per_symbol();
    bluefi_dsp::contracts::ensure_len(out, n, false);
    demap_point_to(modulation, point, out);
}

/// Slice form of the demapper: `out` must be exactly `bits_per_symbol()`
/// long. Allocation-free; used by the contract inside [`map_bits`].
fn demap_point_to(modulation: Modulation, point: Cx, out: &mut [bool]) {
    let n = modulation.bits_per_symbol();
    assert_eq!(out.len(), n);
    let (_, word) = quantize_point_bits(point, modulation);
    for (j, slot) in out.iter_mut().enumerate() {
        *slot = (word >> (n - 1 - j)) & 1 == 1;
    }
}

/// Stage contract: the K_MOD-normalized constellation has unit average
/// power (IEEE 802.11 17.3.5.8). No-op unless contracts are enabled; call
/// once per constructed quantizer/mapper, not per symbol.
pub fn check_constellation_unit_energy(modulation: Modulation) {
    if !bluefi_dsp::contracts::enabled() {
        return;
    }
    let n = modulation.bits_per_symbol();
    let points: Vec<Cx> = (0..(1u32 << n))
        .map(|v| {
            let bits: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            map_bits(modulation, &bits) * modulation.kmod()
        })
        .collect();
    bluefi_dsp::contracts::check_unit_mean_energy(
        &points,
        1e-12,
        "constellation K_MOD normalization",
    );
}

/// Index `k ∈ 0..L` of the per-axis level nearest to `v`, where level
/// `k` is `2k − (L − 1)` in unnormalized units — the one quantizer behind
/// [`quantize_axis`], [`quantize_point`] and the demapper.
///
/// BPSK splits at zero (`v ≥ 0` is level +1). Every other modulation
/// returns exactly the level `2·round((v − 1)/2) + 1` clamped to
/// `±max_level`, with `round` half away from zero (`f64::round`), but
/// without the libm call `f64::round` makes on the baseline x86-64 target:
///
/// * `y = (v − 1)/2` is the same float the formula rounds; it is clamped
///   to `[−L/2, L/2 − 1]`. Rounding is monotone and fixes integers, so
///   rounding the clamped `y` equals clamping the rounded one.
/// * After the clamp `|y| ≤ 16 < 2³¹` (1024-QAM has `L = 32`), so
///   `y as i32` is exactly `t = trunc(y)`, and `f = y − t` is exact: `t`
///   has the sign of `y` and no larger exponent, so the difference is the
///   low bits of `y`'s significand.
/// * `round(y) = t + [f ≥ ½] − [f ≤ −½]`, which is half away from zero.
///
/// ±∞ and huge values clamp to the outer levels. NaN maps to level −1
/// (index `L/2 − 1`) in every modulation, where BPSK's sign test sends it:
/// it survives the clamp, `NaN as i32` is 0, and both fraction tests fail.
#[inline]
fn nearest_level_index(v: f64, modulation: Modulation) -> u32 {
    if modulation == Modulation::Bpsk {
        return u32::from(v >= 0.0);
    }
    let half = (modulation.levels_per_axis() / 2) as i32;
    let (lo, hi) = (f64::from(-half), f64::from(half - 1));
    let y = ((v - 1.0) / 2.0).clamp(lo, hi);
    let t = y as i32;
    let f = y - f64::from(t);
    // `[f > −½] − 1` is `−[f ≤ −½]` for every number; for NaN both
    // comparisons fail and `r = −1`.
    let r = t - 1 + i32::from(f > -0.5) + i32::from(f >= 0.5);
    (r + half) as u32
}

/// The level (odd integer) of level index `k`.
#[inline]
fn level_of_index(k: u32, modulation: Modulation) -> i32 {
    2 * k as i32 - modulation.max_level()
}

/// Snaps one axis value to the nearest constellation level (odd integer in
/// `[-max, max]`; NaN gives −1, see [`quantize_point_bits`]).
pub fn quantize_axis(v: f64, modulation: Modulation) -> i32 {
    level_of_index(nearest_level_index(v, modulation), modulation)
}

/// Snaps a complex value to the nearest constellation point (unnormalized
/// units) — the paper's Sec 2.5 quantizer (Fig 4).
pub fn quantize_point(v: Cx, modulation: Modulation) -> Cx {
    quantize_point_bits(v, modulation).0
}

/// Snaps `v` to the nearest constellation point and returns it with its
/// Gray-coded bits, packed: bit `n − 1 − j` of the word is mapper input
/// `b_j` (`n = bits_per_symbol()`), so the word holds exactly the bits
/// [`demap_point_into`] writes for the point. Each axis is quantized once,
/// to a level index, and the point and the bits both come from it.
///
/// A NaN axis snaps to level −1 and carries level −1's bits.
#[inline]
pub fn quantize_point_bits(v: Cx, modulation: Modulation) -> (Cx, u16) {
    let ki = nearest_level_index(v.re, modulation);
    let re = f64::from(level_of_index(ki, modulation));
    if modulation == Modulation::Bpsk {
        return (cx(re, 0.0), ki as u16);
    }
    let kq = nearest_level_index(v.im, modulation);
    let im = f64::from(level_of_index(kq, modulation));
    let m = modulation.bits_per_symbol() / 2;
    (cx(re, im), ((gray_encode(ki) << m) | gray_encode(kq)) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Modulation; 6] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
        Modulation::Qam1024,
    ];

    fn level_to_bits(level: i32, m: usize) -> Vec<bool> {
        let idx = gray_encode(((level + (1 << m) - 1) / 2) as u32);
        (0..m).map(|j| (idx >> (m - 1 - j)) & 1 == 1).collect()
    }

    /// The quantizer as it was written with `f64::round`: the oracle the
    /// libm-free level index must reproduce on every number but NaN.
    fn round_oracle(v: f64, modulation: Modulation) -> i32 {
        let max = modulation.max_level();
        if modulation == Modulation::Bpsk {
            return if v >= 0.0 { 1 } else { -1 };
        }
        let snapped = 2.0 * ((v - 1.0) / 2.0).round() + 1.0;
        (snapped as i32).clamp(-max, max)
    }

    #[test]
    fn qam64_table_matches_standard() {
        // IEEE 802.11 Table 17-12: b0b1b2 -> I level.
        let table: [(u8, i32); 8] = [
            (0b000, -7),
            (0b001, -5),
            (0b011, -3),
            (0b010, -1),
            (0b110, 1),
            (0b111, 3),
            (0b101, 5),
            (0b100, 7),
        ];
        for (bits, level) in table {
            let b = [(bits >> 2) & 1 == 1, (bits >> 1) & 1 == 1, bits & 1 == 1];
            assert_eq!(bits_to_level(&b), level, "bits {bits:03b}");
        }
    }

    #[test]
    fn qam16_table_matches_standard() {
        let table: [(u8, i32); 4] = [(0b00, -3), (0b01, -1), (0b11, 1), (0b10, 3)];
        for (bits, level) in table {
            let b = [(bits >> 1) & 1 == 1, bits & 1 == 1];
            assert_eq!(bits_to_level(&b), level, "bits {bits:02b}");
        }
    }

    #[test]
    fn map_demap_roundtrip_all_modulations() {
        for m in ALL {
            let n = m.bits_per_symbol();
            for v in 0..(1u32 << n) {
                let bits: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
                let p = map_bits(m, &bits);
                let mut got = Vec::new();
                demap_point_into(m, p, &mut got);
                assert_eq!(got, bits, "{m:?} value {v:#b}");
            }
        }
    }

    #[test]
    fn gray_neighbors_differ_in_one_bit() {
        // Adjacent 64-QAM I levels must differ in exactly one bit — the
        // whole point of Gray mapping.
        for lv in (-7..=5).step_by(2) {
            let a = level_to_bits(lv, 3);
            let b = level_to_bits(lv + 2, 3);
            let d = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert_eq!(d, 1, "levels {lv} vs {}", lv + 2);
        }
    }

    #[test]
    fn kmod_normalizes_average_power_to_one() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64, Modulation::Qam256] {
            let n = m.bits_per_symbol();
            let total: f64 = (0..(1u32 << n))
                .map(|v| {
                    let bits: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
                    (map_bits(m, &bits) * m.kmod()).norm_sq()
                })
                .sum();
            let avg = total / (1u64 << n) as f64;
            assert!((avg - 1.0).abs() < 1e-12, "{m:?}: avg power {avg}");
        }
    }

    #[test]
    fn quantizer_snaps_to_nearest() {
        let m = Modulation::Qam64;
        assert_eq!(quantize_axis(0.4, m), 1);
        assert_eq!(quantize_axis(-0.4, m), -1);
        assert_eq!(quantize_axis(1.99, m), 1);
        assert_eq!(quantize_axis(2.01, m), 3);
        assert_eq!(quantize_axis(7.9, m), 7); // clamped
        assert_eq!(quantize_axis(-123.0, m), -7);
        let p = quantize_point(cx(4.2, -6.8), m);
        assert_eq!((p.re, p.im), (5.0, -7.0));
    }

    #[test]
    fn rounding_matches_the_round_oracle_at_every_tie() {
        // Ties of `round((v − 1)/2)` sit on the even integers; check each
        // one across (and just past) the clamp range, and its two
        // neighbouring floats.
        for m in ALL {
            let max = m.max_level();
            for tie in (-max - 3..=max + 3).filter(|t| t % 2 == 0) {
                let tie = f64::from(tie);
                for v in [tie.next_down(), tie, tie.next_up()] {
                    assert_eq!(quantize_axis(v, m), round_oracle(v, m), "{m:?} at {v:e}");
                }
            }
            for v in [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 0.5, -0.5] {
                assert_eq!(quantize_axis(v, m), round_oracle(v, m), "{m:?} at {v:e}");
            }
            // And off the ties: uniform values around the grid plus raw
            // bit patterns (every finite magnitude).
            let mut s = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..20_000 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let uniform = (s >> 11) as f64 / (1u64 << 53) as f64;
                let raw = f64::from_bits(s);
                for v in [(uniform - 0.5) * 4.0 * f64::from(max + 2), raw] {
                    if !v.is_nan() {
                        assert_eq!(quantize_axis(v, m), round_oracle(v, m), "{m:?} at {v:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_and_huge_axes_snap_to_valid_levels() {
        for m in ALL {
            let max = m.max_level();
            let n = m.bits_per_symbol();
            for (v, want) in [
                (f64::NAN, -1),
                (f64::INFINITY, max),
                (f64::NEG_INFINITY, -max),
                (1e300, max),
                (-1e300, -max),
            ] {
                assert_eq!(quantize_axis(v, m), want, "{m:?} at {v:e}");
                // The point, the packed bits and the demapper agree on the
                // same valid level — on either axis.
                for x in [cx(v, 0.5), cx(0.5, v), cx(v, v)] {
                    let (q, word) = quantize_point_bits(x, m);
                    assert_eq!(q, quantize_point(x, m));
                    let mut direct = Vec::new();
                    demap_point_into(m, x, &mut direct);
                    let mut via_point = Vec::new();
                    demap_point_into(m, q, &mut via_point);
                    assert_eq!(direct, via_point, "{m:?} at {x:?}");
                    let unpacked: Vec<bool> =
                        (0..n).map(|j| (word >> (n - 1 - j)) & 1 == 1).collect();
                    assert_eq!(unpacked, direct, "{m:?} at {x:?}");
                    assert_eq!(map_bits(m, &direct), q, "{m:?} at {x:?}");
                }
            }
        }
    }

    #[test]
    fn higher_order_reduces_quantization_error() {
        // Sec 5.1: 256-QAM has finer resolution. Quantize a mid-grid value
        // scaled into each constellation's range.
        let target = 0.37; // fraction of full scale
        let err = |m: Modulation| {
            let v = target * m.max_level() as f64;
            (quantize_axis(v, m) as f64 - v).abs() / m.max_level() as f64
        };
        assert!(err(Modulation::Qam256) < err(Modulation::Qam64));
        assert!(err(Modulation::Qam1024) < err(Modulation::Qam256));
    }

    #[test]
    fn max_levels() {
        assert_eq!(Modulation::Qam64.max_level(), 7);
        assert_eq!(Modulation::Qam16.max_level(), 3);
        assert_eq!(Modulation::Qpsk.max_level(), 1);
        assert_eq!(Modulation::Qam256.max_level(), 15);
        assert_eq!(Modulation::Qam1024.max_level(), 31);
    }
}
