//! Randomized-property tests for the synthesis pipeline's invariants, on
//! the in-tree `bluefi_core::check` harness.

use bluefi_core::check::{check, f64s};
use bluefi_core::cp::CpCompat;
use bluefi_core::qam::{Quantizer, ScaleMode, DEFAULT_SCALE};
use bluefi_core::reversal::{extract_psdu_into, WeightProfile};
use bluefi_core::rng::Rng;
use bluefi_core::{prop_assert, prop_assert_eq};
use bluefi_dsp::fft::{bin_of_subcarrier, FftPlan};
use bluefi_dsp::Cx;
use bluefi_wifi::qam::{demap_point_into, quantize_point, Modulation};
use bluefi_wifi::subcarriers::data_subcarriers;
use bluefi_wifi::tx::scrambled_bits;
use bluefi_wifi::Mcs;

#[test]
fn cp_construction_invariants() {
    check(
        "cp_construction_invariants",
        |rng| (f64s(rng, -6.0..6.0, 72 * 2..72 * 5), rng.gen_range(-0.3..0.3)),
        |(phases, freq)| {
            let c = CpCompat::sgi();
            let th = c.make_compatible(phases, *freq);
            prop_assert_eq!(th.len() % 72, 0);
            for block in th.chunks_exact(72) {
                // CP == tail, always.
                for n in 0..8 {
                    prop_assert_eq!(block[n], block[64 + n]);
                }
            }
            // Windowing fixed point across interior boundaries.
            for m in 0..th.len() / 72 - 1 {
                prop_assert_eq!(th[m * 72 + 8], th[m * 72 + 72]);
            }
            Ok(())
        },
    );
}

#[test]
fn quantizer_outputs_stay_on_grid() {
    check(
        "quantizer_outputs_stay_on_grid",
        |rng| f64s(rng, -10.0..10.0, 64..65),
        |phases| {
            let q = Quantizer::new(Modulation::Qam64, ScaleMode::Fixed(DEFAULT_SCALE));
            let sym = q.quantize_body(phases);
            prop_assert_eq!(sym.points.len(), 52);
            for p in &sym.points {
                let (r, i) = (p.re as i64, p.im as i64);
                prop_assert!(r.abs() % 2 == 1 && r.abs() <= 7);
                prop_assert!(i.abs() % 2 == 1 && i.abs() <= 7);
            }
            prop_assert!(sym.residue >= 0.0);
            prop_assert!(sym.per_subcarrier.len() == 52);
            Ok(())
        },
    );
}

#[test]
fn recorded_gray_bits_are_the_demapped_bits() {
    const ALL: [Modulation; 6] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
        Modulation::Qam1024,
    ];
    check(
        "recorded_gray_bits_are_the_demapped_bits",
        |rng| {
            let modulation = ALL[rng.gen_range(0usize..ALL.len())];
            // Dynamic's grid search swaps candidate symbols; the bits must
            // travel with their points.
            let mode = if rng.gen::<bool>() {
                ScaleMode::Dynamic
            } else {
                let reach = modulation.max_level() as f64 / 7.0;
                ScaleMode::Fixed(DEFAULT_SCALE * reach * rng.gen_range(0.2..2.0))
            };
            (f64s(rng, -10.0..10.0, 64..65), modulation, mode)
        },
        |(phases, modulation, mode)| {
            let sym = Quantizer::new(*modulation, *mode).quantize_body(phases);
            let mut spectrum: Vec<Cx> = phases.iter().map(|&p| Cx::expj(p) * sym.scale).collect();
            FftPlan::new(64).forward(&mut spectrum);
            let n = modulation.bits_per_symbol();
            let mut want = Vec::new();
            prop_assert_eq!(sym.bits.len(), 52);
            for (d, &sc) in data_subcarriers().iter().enumerate() {
                let x = spectrum[bin_of_subcarrier(sc, 64)];
                let q = quantize_point(x, *modulation);
                prop_assert_eq!(sym.points[d], q);
                demap_point_into(*modulation, q, &mut want);
                let word = sym.bits[d];
                let got: Vec<bool> = (0..n).map(|j| (word >> (n - 1 - j)) & 1 == 1).collect();
                prop_assert_eq!(&got, &want);
                prop_assert!(word >> n == 0);
            }
            Ok(())
        },
    );
}

#[test]
fn extract_psdu_inverts_chip_framing() {
    check(
        "extract_psdu_inverts_chip_framing",
        |rng| (rng.gen_range(1usize..120), rng.gen_range(1u8..128)),
        |&(psdu_len, seed)| {
            // Build the *maximal* PSDU for its symbol count so the
            // convention matches (see reversal::extract_psdu_into).
            let mcs = Mcs::bluefi_viterbi();
            let ndbps = mcs.data_bits_per_symbol();
            let n_sym = (16 + psdu_len * 8 + 6).div_ceil(ndbps);
            let max_len = (n_sym * ndbps - 22) / 8;
            let psdu: Vec<u8> = (0..max_len).map(|i| (i * 37 + seed as usize) as u8).collect();
            let scrambled = scrambled_bits(&psdu, seed, mcs);
            let mut got = Vec::new();
            let forced = extract_psdu_into(&scrambled, seed, &mut got);
            prop_assert_eq!(forced, 0);
            prop_assert_eq!(&got[..psdu.len()], &psdu[..]);
            Ok(())
        },
    );
}

#[test]
fn weight_profile_is_monotone_in_distance() {
    check(
        "weight_profile_is_monotone_in_distance",
        |rng| (rng.gen_range(-26.0..26.0), rng.gen_range(-28i32..29)),
        |&(bt, sc)| {
            let p = WeightProfile::default();
            let d = (sc as f64 - bt).abs();
            let w = p.weight_at(sc, bt);
            if d <= p.band {
                prop_assert_eq!(w, p.high);
            } else if d <= p.guard {
                prop_assert_eq!(w, p.medium);
            } else {
                prop_assert_eq!(w, p.low);
            }
            Ok(())
        },
    );
}
