//! Randomized-property tests for every invariant the coding substrate
//! promises, on the in-tree `bluefi_core::check` harness.

use bluefi_coding::bch::{check_sync_word, sync_word};
use bluefi_coding::convolutional::{encode_r12, transition_next, transition_output, NUM_STATES};
use bluefi_coding::crc::{crc16_bits, crc16_check, crc24_bits, crc24_check, BLE_ADV_CRC_INIT};
use bluefi_coding::hamming::{decode15_10, decode_r13, encode15_10, encode_r13, BlockStatus};
use bluefi_coding::lfsr::{ble_whiten, recover_seed, scramble};
use bluefi_coding::puncture::{puncture, CodeRate};
use bluefi_coding::realtime::{protected_mask, RealtimePlan, RealtimeScratch};
use bluefi_coding::viterbi::{decode_punctured, reencode_flips};
use bluefi_coding::FreeEdge;
use bluefi_core::check::{bools, check};
use bluefi_core::rng::{Rng, SeedableRng, StdRng};
use bluefi_core::{prop_assert, prop_assert_eq};

#[test]
fn scramble_is_involution() {
    check(
        "scramble_is_involution",
        |rng| (rng.gen_range(1u8..128), bools(rng, 0..300)),
        |(seed, bits)| {
            prop_assert_eq!(scramble(*seed, &scramble(*seed, bits)), *bits);
            Ok(())
        },
    );
}

#[test]
fn scrambler_seed_recovery() {
    check(
        "scrambler_seed_recovery",
        |rng| rng.gen_range(1u8..128),
        |&seed| {
            let scrambled = scramble(seed, &vec![false; 16]);
            prop_assert_eq!(recover_seed(&scrambled), Some(seed));
            Ok(())
        },
    );
}

#[test]
fn ble_whitening_involution() {
    check(
        "ble_whitening_involution",
        |rng| (rng.gen_range(0u8..40), bools(rng, 0..200)),
        |(ch, bits)| {
            prop_assert_eq!(ble_whiten(*ch, &ble_whiten(*ch, bits)), *bits);
            Ok(())
        },
    );
}

#[test]
fn convolutional_code_is_linear() {
    check(
        "convolutional_code_is_linear",
        |rng| (bools(rng, 30..31), bools(rng, 30..31)),
        |(a, b)| {
            let sum: Vec<bool> = a.iter().zip(b).map(|(x, y)| x ^ y).collect();
            let ea = encode_r12(a);
            let eb = encode_r12(b);
            let esum = encode_r12(&sum);
            let xor: Vec<bool> = ea.iter().zip(&eb).map(|(x, y)| x ^ y).collect();
            prop_assert_eq!(esum, xor);
            Ok(())
        },
    );
}

#[test]
fn viterbi_inverts_noiseless_encoding() {
    check(
        "viterbi_inverts_noiseless_encoding",
        |rng| (bools(rng, 30..31), rng.gen_range(0usize..4)),
        |(data, rate_idx)| {
            let rate = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56][*rate_idx];
            let tx = puncture(rate, &encode_r12(data));
            let dec = decode_punctured(rate, &tx, None, false);
            prop_assert_eq!(dec, *data);
            Ok(())
        },
    );
}

#[test]
fn realtime_plan_never_flips_protected() {
    check(
        "realtime_plan_never_flips_protected",
        |rng| (bools(rng, 39 * 4..39 * 4 + 1), rng.gen::<bool>()),
        |(target, front)| {
            let edge = if *front { FreeEdge::Front } else { FreeEdge::Back };
            let plan = RealtimePlan::new(target.len(), edge);
            let (mut decoded, mut flips) = (Vec::new(), Vec::new());
            plan.decode_into(target, &mut RealtimeScratch::new(), &mut decoded, &mut flips);
            let mask = protected_mask(target.len(), edge);
            for &f in &flips {
                prop_assert!(!mask[f], "protected bit {} flipped", f);
            }
            // The paper's guarantee: at most 1/3 of bits flip.
            prop_assert!(flips.len() * 3 <= target.len());
            Ok(())
        },
    );
}

/// Textbook weighted hard-decision Viterbi that walks the punctured stream
/// directly: the test oracle the packed trellis engine is held
/// bit-identical to. Stolen positions cost nothing. Predecessors are
/// visited in ascending state order and replaced only on a strictly
/// smaller metric, so ties keep the lower state; a free end takes the
/// first minimal state.
fn reference(rate: CodeRate, tx: &[bool], weights: Option<&[u32]>, terminate: bool) -> Vec<bool> {
    let (ka, kb) = rate.pattern();
    let steps = rate.n_inputs(tx.len());
    let mut metric = [u64::MAX; NUM_STATES];
    metric[0] = 0;
    let mut prev = vec![[0u8; NUM_STATES]; steps];
    let mut src = 0;
    for (t, prev_t) in prev.iter_mut().enumerate() {
        // (received bit, mismatch weight) for the A and B outputs, or None
        // where the pattern stole the position.
        let mut rx = [None; 2];
        for (slot, keep) in rx.iter_mut().zip([ka[t % ka.len()], kb[t % kb.len()]]) {
            if keep {
                *slot = Some((tx[src], weights.map_or(1, |w| w[src] as u64)));
                src += 1;
            }
        }
        let cost =
            |r: Option<(bool, u64)>, bit: bool| r.map_or(0, |(v, w)| if v == bit { 0 } else { w });
        let mut next = [u64::MAX; NUM_STATES];
        for s in (0..NUM_STATES).filter(|&s| metric[s] != u64::MAX) {
            for input in [false, true] {
                let ns = transition_next(s as u8, input) as usize;
                let (a, b) = transition_output(s as u8, input);
                let m = metric[s] + cost(rx[0], a) + cost(rx[1], b);
                if m < next[ns] {
                    next[ns] = m;
                    prev_t[ns] = s as u8;
                }
            }
        }
        metric = next;
    }
    let mut state =
        if terminate { 0 } else { (0..NUM_STATES).min_by_key(|&s| metric[s]).unwrap_or(0) };
    let mut out = vec![false; steps];
    for t in (0..steps).rev() {
        out[t] = state >> 5 == 1;
        state = prev[t][state] as usize;
    }
    out
}

#[test]
fn packed_engine_matches_scalar_reference() {
    // The bit-packed trellis engine must agree with the reference decoder
    // on every rate, termination mode, corruption pattern, and —
    // critically — every metric-width kernel the weight magnitudes can
    // dispatch to (u16 renormalizing, u32, u64).
    check(
        "packed_engine_matches_scalar_reference",
        |rng| {
            // 30 = lcm of the puncturing periods, so every rate divides.
            let data = bools(rng, 30..31);
            let rate_idx = rng.gen_range(0usize..4);
            let wclass = rng.gen_range(0usize..4);
            let terminate = rng.gen::<bool>();
            let seed = rng.gen::<u64>();
            (data, rate_idx, wclass, terminate, seed)
        },
        |(data, rate_idx, wclass, terminate, seed)| {
            let rate = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56][*rate_idx];
            let mut tx = puncture(rate, &encode_r12(data));
            let mut rng = StdRng::seed_from_u64(*seed);
            for bit in tx.iter_mut() {
                if rng.gen_range(0u32..8) == 0 {
                    *bit = !*bit;
                }
            }
            // One weight class per kernel: unweighted and small weights
            // take the renormalizing u16 path, mid-size weights the u32
            // path, and huge weights (total budget above 2^26) the u64
            // path.
            let weights: Option<Vec<u32>> = match wclass {
                0 => None,
                1 => Some((0..tx.len()).map(|_| rng.gen_range(1u32..1_166)).collect()),
                2 => Some((0..tx.len()).map(|_| rng.gen_range(2_000u32..50_001)).collect()),
                _ => Some((0..tx.len()).map(|_| rng.gen_range(1u32 << 22..1 << 24)).collect()),
            };
            let w = weights.as_deref();
            let packed = decode_punctured(rate, &tx, w, *terminate);
            prop_assert_eq!(packed, reference(rate, &tx, w, *terminate));
            Ok(())
        },
    );
}

fn pattern_bits(n: usize, k: u64) -> Vec<bool> {
    (0..n).map(|i| (i as u64 * k + k / 3) % 7 < 3).collect()
}

#[test]
fn packed_path_matches_reference_on_fixed_patterns() {
    // Deterministic companion to the randomized property: every rate,
    // weighted and unweighted, terminated and free-ending.
    for (len, k) in [(60usize, 11u64), (120, 5), (30, 29)] {
        let mut data = pattern_bits(len, k);
        data.extend([false; 6]);
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56] {
            let n = data.len() - data.len() % rate.period_inputs();
            let mut tx = puncture(rate, &encode_r12(&data[..n]));
            // Corrupt a few positions so the decode is not trivial.
            for i in (3..tx.len()).step_by(37) {
                tx[i] = !tx[i];
            }
            let weights: Vec<u32> =
                (0..tx.len() as u32).map(|i| [1, 100, 1000][(i % 3) as usize]).collect();
            for (w, term) in [(None, false), (None, true), (Some(&weights[..]), false)] {
                let packed = decode_punctured(rate, &tx, w, term);
                let oracle = reference(rate, &tx, w, term);
                assert_eq!(packed, oracle, "len {len} rate {rate:?} term {term}");
            }
        }
    }
}

#[test]
fn weighted_viterbi_respects_infinite_weight_stripes() {
    check(
        "weighted_viterbi_respects_infinite_weight_stripes",
        |rng| bools(rng, 60..61),
        |data| {
            // Random target (not a codeword): protect positions i % 13 >= 6.
            let rate = CodeRate::R56;
            let n = data.len() * 6 / 5 - (data.len() * 6 / 5) % rate.period_outputs();
            let target: Vec<bool> = (0..n).map(|i| data[i % data.len()] ^ (i % 7 == 3)).collect();
            let weights: Vec<u32> = (0..n).map(|i| if i % 13 >= 6 { 1000 } else { 1 }).collect();
            let dec = decode_punctured(rate, &target, Some(&weights), false);
            for f in reencode_flips(rate, &dec, &target) {
                prop_assert!(f % 13 < 6, "protected stripe bit {} flipped", f);
            }
            Ok(())
        },
    );
}

#[test]
fn crc16_detects_any_single_flip() {
    check(
        "crc16_detects_any_single_flip",
        |rng| {
            let payload = bools(rng, 1..120);
            let flip = rng.gen_range(0usize..payload.len());
            (rng.gen::<u8>(), payload, flip)
        },
        |(uap, payload, flip)| {
            let crc = crc16_bits(*uap, payload);
            let mut bad = payload.clone();
            bad[*flip] = !bad[*flip];
            prop_assert!(crc16_check(*uap, payload, &crc));
            prop_assert!(!crc16_check(*uap, &bad, &crc));
            Ok(())
        },
    );
}

#[test]
fn crc24_detects_any_single_flip() {
    check(
        "crc24_detects_any_single_flip",
        |rng| {
            let pdu = bools(rng, 1..200);
            let flip = rng.gen_range(0usize..pdu.len());
            (pdu, flip)
        },
        |(pdu, flip)| {
            let crc = crc24_bits(BLE_ADV_CRC_INIT, pdu);
            let mut bad = pdu.clone();
            bad[*flip] = !bad[*flip];
            prop_assert!(crc24_check(BLE_ADV_CRC_INIT, pdu, &crc));
            prop_assert!(!crc24_check(BLE_ADV_CRC_INIT, &bad, &crc));
            Ok(())
        },
    );
}

#[test]
fn hamming_corrects_every_single_error() {
    check(
        "hamming_corrects_every_single_error",
        |rng| (bools(rng, 10..11), rng.gen_range(0usize..15)),
        |(data, pos)| {
            let mut cw = encode15_10(data);
            cw[*pos] = !cw[*pos];
            let (dec, status) = decode15_10(&cw);
            prop_assert_eq!(status, BlockStatus::Corrected);
            prop_assert_eq!(dec, *data);
            Ok(())
        },
    );
}

#[test]
fn repetition_majority_beats_one_error_per_triplet() {
    check(
        "repetition_majority_beats_one_error_per_triplet",
        |rng| {
            let data = bools(rng, 1..40);
            let which: Vec<usize> =
                (0..data.len()).map(|_| rng.gen_range(0usize..3)).collect();
            (data, which)
        },
        |(data, which)| {
            let mut enc = encode_r13(data);
            for (t, &w) in which.iter().enumerate().take(data.len()) {
                enc[t * 3 + w] = !enc[t * 3 + w];
            }
            prop_assert_eq!(decode_r13(&enc), *data);
            Ok(())
        },
    );
}

#[test]
fn sync_words_roundtrip_and_reject_corruption() {
    check(
        "sync_words_roundtrip_and_reject_corruption",
        |rng| (rng.gen_range(0u32..1 << 24), rng.gen_range(0u32..64)),
        |&(lap, bit)| {
            let sw = sync_word(lap);
            prop_assert_eq!(check_sync_word(sw), Some(lap));
            prop_assert_eq!(check_sync_word(sw ^ (1u64 << bit)), None);
            Ok(())
        },
    );
}
