//! # bluefi-bt
//!
//! Bluetooth BR and BLE physical/baseband layers: GFSK modulation, packet
//! formats (BLE advertising, BR ACL with access codes, HEC/CRC/FEC and
//! whitening), a COTS-style non-coherent GFSK receiver, and frequency
//! hopping with AFH. This crate is both the *target* BlueFi synthesizes
//! toward and the *judge* the evaluation decodes with.

pub mod ble;
pub mod br;
pub mod edr;
pub mod fhs;
pub mod gfsk;
pub mod hopping;
pub mod receiver;

pub use ble::{AdvChannel, AdvChannelError};
pub use gfsk::{GfskParams, GfskScratch};
pub use receiver::{GfskReceiver, ReceiverConfig};

/// Tests of the GFSK phase resumed from an anchor: the un-offset
/// accumulator that [`GfskScratch::bit_accumulators`] recorded at a bit
/// boundary. The template cache patches a payload through this entry, so
/// the spliced phase must equal a modulation from bit 0 bit for bit.
#[cfg(test)]
mod anchored {
    mod tests {
        use crate::gfsk::{modulate_phase, GfskParams, GfskScratch};
        use bluefi_core::rng::{Rng, SeedableRng, StdRng};
        use std::f64::consts::PI;

        fn bit_patterns(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// A deterministic random payload of `len` bits.
        fn random_bits(rng: &mut StdRng, len: usize) -> Vec<bool> {
            (0..len).map(|_| rng.gen_bool(0.5)).collect()
        }

        /// First sample a resume at bit boundary `k` writes.
        fn resume_start(p: &GfskParams, k: usize) -> usize {
            if k == 0 {
                0
            } else {
                p.guard_bits * p.sps() + k * p.sps()
            }
        }

        #[test]
        fn suffix_fill_splices_bit_exactly_onto_a_base_fill() {
            // Keep the base modulation's prefix and resume the mutated
            // payload at any bit boundary the mutation has not reached, with
            // the base payload's recorded accumulator: the splice equals the
            // mutated payload's full modulation bit for bit.
            let p = GfskParams::default();
            let mut rng = StdRng::seed_from_u64(0x5e11);
            let mut base_scratch = GfskScratch::new();
            let mut resume = GfskScratch::new();
            let (mut base, mut out) = (Vec::new(), Vec::new());
            for (len, offset_hz) in [(24usize, 0.0f64), (376, 4.4e6), (200, -1.25e6)] {
                let bits = random_bits(&mut rng, len);
                base_scratch.modulate_phase_into(&bits, &p, offset_hz, &mut base);
                let accs = base_scratch.bit_accumulators().to_vec();
                assert_eq!(accs.len(), len + 1);
                for d in [0, 1, len / 3, len - 1] {
                    let mut mutated = bits.clone();
                    mutated[d] ^= true;
                    let want = bit_patterns(&modulate_phase(&mutated, &p, offset_hz));
                    let limit = p.first_sample_of_bit(d);
                    let anchors = (0..=len).filter(|&k| k == 0 || resume_start(&p, k) < limit);
                    for k in anchors {
                        // The resume must leave the samples before its start
                        // as they were.
                        out.clear();
                        out.resize(base.len(), f64::NAN);
                        resume.resume_phase_into(&mutated, &p, offset_hz, k, accs[k], &mut out);
                        let from = resume_start(&p, k);
                        assert!(out[..from].iter().all(|v| v.is_nan()), "prefix written");
                        let mut spliced = base[..from].to_vec();
                        spliced.extend_from_slice(&out[from..]);
                        let ctx = format!("len {len} flip {d} resume {k}");
                        assert_eq!(bit_patterns(&spliced), want, "{ctx}");
                    }
                }
            }
        }

        #[test]
        fn fill_is_deterministic_and_restartable() {
            // Resuming the unchanged payload at any anchor reproduces its
            // modulation and records the same accumulators from there on,
            // also after the scratch has modulated another payload.
            let p = GfskParams::default();
            let mut rng = StdRng::seed_from_u64(0x7e57);
            let mut scratch = GfskScratch::new();
            let (mut base, mut out) = (Vec::new(), Vec::new());
            for (len, offset_hz) in [(24usize, 0.0f64), (376, 4.4e6), (80, -1.25e6)] {
                let bits = random_bits(&mut rng, len);
                scratch.modulate_phase_into(&bits, &p, offset_hz, &mut base);
                let accs = scratch.bit_accumulators().to_vec();
                let other = random_bits(&mut rng, 33);
                for k in [0, 1, len / 2, len] {
                    // Perturb the scratch's buffers before each restart.
                    scratch.modulate_phase_into(&other, &p, -offset_hz, &mut out);
                    scratch.resume_phase_into(&bits, &p, offset_hz, k, accs[k], &mut out);
                    let from = resume_start(&p, k);
                    let ctx = format!("len {len} resume {k}");
                    assert_eq!(bit_patterns(&out[from..]), bit_patterns(&base[from..]), "{ctx}");
                    let got = bit_patterns(&scratch.bit_accumulators()[k..]);
                    assert_eq!(got, bit_patterns(&accs[k..]), "{ctx}");
                }
            }
        }

        #[test]
        fn guard_region_is_a_pure_carrier_ramp() {
            // Resumed at bit 0 with a zero anchor the leading guard is the
            // exact offset ramp; resumed at the last anchor the trailing
            // guard is that anchor plus the ramp, with nothing else written.
            let p = GfskParams::default();
            let guard = p.guard_bits * p.sps();
            let bits = random_bits(&mut StdRng::seed_from_u64(0x6a2d), 30);
            let offset_hz = 0.25 * p.sample_rate_hz;
            let step = 2.0 * PI * (offset_hz / p.sample_rate_hz);
            let mut scratch = GfskScratch::new();
            let mut out = Vec::new();
            scratch.resume_phase_into(&bits, &p, offset_hz, 0, 0.0, &mut out);
            assert_eq!(out[0], 0.0);
            for (t, &v) in out.iter().enumerate().take(guard + 1) {
                assert_eq!(v.to_bits(), (step * t as f64).to_bits(), "leading sample {t}");
            }
            let full = bit_patterns(&out);
            let last = scratch.bit_accumulators()[bits.len()];
            let n = bits.len();
            let shaped_end = resume_start(&p, n);
            out[..shaped_end].fill(f64::NAN);
            scratch.resume_phase_into(&bits, &p, offset_hz, n, last, &mut out);
            assert_eq!(out.len(), shaped_end + guard);
            assert!(out[..shaped_end].iter().all(|v| v.is_nan()), "prefix written");
            assert_eq!(bit_patterns(&out[shaped_end..]), full[shaped_end..]);
            for (t, &v) in out.iter().enumerate().skip(shaped_end) {
                let ramp = last + step * t as f64;
                assert_eq!(v.to_bits(), ramp.to_bits(), "trailing sample {t}");
            }
        }
    }
}
