//! Randomized-property tests for the DSP substrate, driven by the
//! in-tree `bluefi_core::check` harness (hermetic replacement for
//! proptest: fixed per-property seeds, no shrinking, failing inputs are
//! printed in full).

use bluefi_core::check::{bools, check, f64s, vec_with};
use bluefi_core::rng::Rng;
use bluefi_core::{prop_assert, prop_assert_eq};
use bluefi_dsp::bits::{
    bits_to_bytes_lsb, bits_to_u64_lsb, bytes_to_bits_lsb, u64_to_bits_lsb, BitVec,
};
use bluefi_dsp::fft::{fft, ifft};
use bluefi_dsp::phase::{accumulate_frequency, discriminate, phase_to_iq, unwrap, wrap_angle};
use bluefi_dsp::{cx, Cx};

#[test]
fn fft_ifft_roundtrip() {
    check(
        "fft_ifft_roundtrip",
        |rng| {
            vec_with(rng, 64..65, |r| cx(r.gen_range(-10.0..10.0), r.gen_range(-10.0..10.0)))
        },
        |x| {
            let round = ifft(&fft(x));
            for (a, b) in x.iter().zip(&round) {
                prop_assert!((*a - *b).abs() < 1e-9);
            }
            Ok(())
        },
    );
}

#[test]
fn parseval_holds() {
    check(
        "parseval_holds",
        |rng| vec_with(rng, 32..33, |r| cx(r.gen_range(-5.0..5.0), r.gen_range(-5.0..5.0))),
        |x: &Vec<Cx>| {
            let te: f64 = x.iter().map(|v| v.norm_sq()).sum();
            let fe: f64 = fft(x).iter().map(|v| v.norm_sq()).sum::<f64>() / 32.0;
            prop_assert!((te - fe).abs() < 1e-6 * (1.0 + te));
            Ok(())
        },
    );
}

#[test]
fn bytes_bits_roundtrip() {
    check(
        "bytes_bits_roundtrip",
        |rng| bluefi_core::check::bytes(rng, 0..200),
        |bytes| {
            prop_assert_eq!(bits_to_bytes_lsb(&bytes_to_bits_lsb(bytes)), *bytes);
            Ok(())
        },
    );
}

#[test]
fn u64_bits_roundtrip() {
    check(
        "u64_bits_roundtrip",
        |rng| (rng.gen::<u64>(), rng.gen_range(1usize..65)),
        |&(v, width)| {
            let masked = if width == 64 { v } else { v & ((1u64 << width) - 1) };
            prop_assert_eq!(bits_to_u64_lsb(&u64_to_bits_lsb(masked, width)), masked);
            Ok(())
        },
    );
}

#[test]
fn unwrap_is_continuous() {
    check(
        "unwrap_is_continuous",
        |rng| f64s(rng, -20.0..20.0, 2..100),
        |phases| {
            let wrapped: Vec<f64> = phases.iter().map(|&p| wrap_angle(p)).collect();
            let un = unwrap(&wrapped);
            for w in un.windows(2) {
                prop_assert!((w[1] - w[0]).abs() <= std::f64::consts::PI + 1e-9);
            }
            Ok(())
        },
    );
}

#[test]
fn discriminator_inverts_accumulation() {
    check(
        "discriminator_inverts_accumulation",
        |rng| f64s(rng, -0.2..0.2, 2..64),
        |freqs| {
            let phase = accumulate_frequency(freqs, 0.3);
            let iq = phase_to_iq(&phase);
            let rec = discriminate(&iq);
            // rec[n] (n >= 1) recovers freqs[n-1] (the step into sample n).
            for n in 1..freqs.len() {
                prop_assert!(
                    (rec[n] - freqs[n - 1]).abs() < 1e-9,
                    "n={} {} vs {}",
                    n,
                    rec[n],
                    freqs[n - 1]
                );
            }
            Ok(())
        },
    );
}

#[test]
fn wrap_angle_is_idempotent_and_bounded() {
    check(
        "wrap_angle_is_idempotent_and_bounded",
        |rng| rng.gen_range(-1000.0..1000.0),
        |&a| {
            let w = wrap_angle(a);
            prop_assert!(w > -std::f64::consts::PI - 1e-12 && w <= std::f64::consts::PI + 1e-12);
            prop_assert!((wrap_angle(w) - w).abs() < 1e-12);
            // Same angle modulo 2π.
            let d = (a - w) / (2.0 * std::f64::consts::PI);
            prop_assert!((d - d.round()).abs() < 1e-9);
            Ok(())
        },
    );
}

// `bools` is exercised here so the helper keeps working for the other
// suites even if dsp stops needing bit vectors.
#[test]
fn bit_vector_roundtrip_via_bytes() {
    check(
        "bit_vector_roundtrip_via_bytes",
        |rng| bools(rng, 0..25).iter().map(|&b| b as u8).collect::<Vec<u8>>(),
        |bytes| {
            prop_assert_eq!(bits_to_bytes_lsb(&bytes_to_bits_lsb(bytes)), *bytes);
            Ok(())
        },
    );
}

/// The reference word of [`BitVec::load`]: bits `i..i + 64` of `bits`,
/// zero past the end.
fn word_at(bits: &[bool], i: usize) -> u64 {
    (0..64).filter(|k| bits.get(i + k) == Some(&true)).fold(0, |w, k| w | 1 << k)
}

#[test]
fn packed_bits_match_a_bool_reference() {
    // Random lengths (every residue mod 64 turns up), random edits, each
    // operation checked against the same edit on a `Vec<bool>`.
    check(
        "packed_bits_match_a_bool_reference",
        |rng| {
            let a = bools(rng, 0..300);
            let b = bools(rng, a.len()..a.len() + 1);
            let edits = vec_with(rng, 0..20, |r| (r.gen::<u64>(), r.gen_range(0..65usize), r.gen()));
            (a, b, edits)
        },
        |(a, b, edits)| {
            let n = a.len();
            let mut v = BitVec::from_bools(a);
            prop_assert_eq!(v.len(), n);
            prop_assert_eq!(v.to_bools(), *a);
            prop_assert_eq!(v.words().len(), n.div_ceil(64));
            // Bits past the end of the last word stay zero.
            prop_assert_eq!(v.words().iter().map(|w| w.count_ones() as usize).sum::<usize>(),
                a.iter().filter(|&&x| x).count());
            let mut r = a.clone();
            for &(word, len, value) in edits {
                if n == 0 {
                    break;
                }
                // get/set at one position, stores of up to 64 bits at another.
                let i = word as usize % n;
                v.set(i, value);
                r[i] = value;
                prop_assert_eq!(v.get(i), value);
                let at = (word >> 32) as usize % n;
                let len = len.min(n - at);
                v.store(at, word, len);
                for k in 0..len {
                    r[at + k] = word >> k & 1 == 1;
                }
                // A `bool` run written at any offset, across word edges.
                let run = &b[..(len * 3).min(n - at)];
                v.store_bools(at, run);
                r[at..at + run.len()].copy_from_slice(run);
                prop_assert_eq!(v.to_bools(), r.clone());
            }
            let bv = BitVec::from_bools(b);
            for i in 0..=n {
                prop_assert_eq!(v.load(i), word_at(&r, i));
                // XOR of packed words is the XOR of the bits.
                let xor: Vec<bool> = r.iter().zip(b).map(|(x, y)| x ^ y).collect();
                prop_assert_eq!(v.load(i) ^ bv.load(i), word_at(&xor, i));
            }
            // Prefix copy leaves the rest.
            let m = edits.first().map_or(0, |e| e.1 * 4).min(n);
            let mut c = bv.clone();
            c.copy_prefix_from(&v, m);
            let mut want = b.clone();
            want[..m].copy_from_slice(&r[..m]);
            prop_assert_eq!(c.to_bools(), want);
            // Set bits, ascending.
            let ones: Vec<usize> = (0..n).filter(|&i| r[i]).collect();
            prop_assert_eq!(v.ones().collect::<Vec<_>>(), ones);
            // Byte packing from any offset, zero-padded past the end.
            let from = m.min(n);
            let mut bytes = vec![0u8; (n - from).div_ceil(8)];
            v.bytes_into(from, &mut bytes);
            prop_assert_eq!(bytes, bits_to_bytes_lsb(&r[from..]));
            // Resizing keeps the common prefix and zero-fills the rest.
            for len in [n / 2, n + 70] {
                let mut g = v.clone();
                g.resize(len);
                let mut want = r.clone();
                want.resize(len, false);
                prop_assert_eq!(g.to_bools(), want.clone());
                prop_assert_eq!(g, BitVec::from_bools(&want));
            }
            Ok(())
        },
    );
}
