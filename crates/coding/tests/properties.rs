//! Randomized-property tests for every invariant the coding substrate
//! promises, on the in-tree `bluefi_core::check` harness.

use bluefi_coding::bch::{check_sync_word, sync_word};
use bluefi_coding::convolutional::{
    encode_r12, encode_words_into, transition_next, transition_output, Reencoder, G0, G1,
    NUM_STATES,
};
use bluefi_coding::crc::{crc16_bits, crc16_check, crc24_bits, crc24_check, BLE_ADV_CRC_INIT};
use bluefi_coding::hamming::{decode15_10, decode_r13, encode15_10, encode_r13, BlockStatus};
use bluefi_coding::lfsr::{ble_whiten, recover_seed, scramble};
use bluefi_coding::puncture::{puncture, puncture_words_into, CodeRate};
use bluefi_coding::realtime::{
    protected_mask, RealtimeCheckpoint, RealtimePlan, RealtimeScratch,
};
use bluefi_coding::trellis::MAX_WEIGHT;
use bluefi_coding::viterbi::decode_punctured;
use bluefi_coding::{FreeEdge, ViterbiScratch};
use bluefi_core::check::{bools, check, check_n};
use bluefi_dsp::bits::BitVec;
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
            let scrambled = scramble(seed, &[false; 16]);
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
            let (mut decoded, mut flips) = (BitVec::new(), Vec::new());
            let packed = BitVec::from_bools(target);
            plan.decode_into(&packed, &mut RealtimeScratch::new(), &mut decoded, &mut flips);
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

/// The real-time decoder as a plain sparse-row Gaussian elimination: the
/// test oracle the banded bit-mask [`RealtimePlan`] and the windowed
/// [`protected_mask`] walk are held bit-identical to. Rows are ascending
/// `Vec`s of input indices; the mask walk, the elimination with its
/// recorded right-hand-side dependencies, the replay, the substitution and
/// the re-encode are each spelled out once, with no windowing.
mod vec_row_oracle {
    use super::*;

    /// The GF(2) sum of two sparse rows: the symmetric difference of two
    /// ascending unknown lists, itself ascending.
    fn xor_rows(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    /// Generator taps as input-index offsets (0 = current input).
    fn taps(g: u8) -> Vec<u32> {
        (0..7).filter(|&d| (g >> (6 - d)) & 1 == 1).map(|d| d as u32).collect()
    }

    /// The parity equation of transmitted bit `t` at rate 2/3: which input
    /// indices XOR to produce it, ascending.
    fn symbolic_row(t: usize) -> Vec<u32> {
        let g = t / 3;
        let (latest, tapset) = match t % 3 {
            0 => (2 * g as i64, taps(G0)),
            1 => (2 * g as i64, taps(G1)),
            _ => (2 * g as i64 + 1, taps(G0)),
        };
        let mut unknowns: Vec<u32> = tapset
            .iter()
            .filter_map(|&d| {
                let idx = latest - d as i64;
                (idx >= 0).then_some(idx as u32)
            })
            .collect();
        unknowns.sort_unstable();
        unknowns
    }

    /// Reduces `row` against `pivots` (pivot = last unknown when `asc`,
    /// first otherwise); `Err(row)` when it lands on a free pivot.
    fn reduce(
        mut row: Vec<u32>,
        asc: bool,
        pivots: &[Option<(Vec<u32>, usize)>],
        deps: &mut Vec<usize>,
    ) -> Option<(u32, Vec<u32>)> {
        loop {
            let p = *(if asc { row.last() } else { row.first() })?;
            match &pivots[p as usize] {
                Some((prow, ri)) => {
                    deps.push(*ri);
                    row = xor_rows(&row, prow);
                }
                None => return Some((p, row)),
            }
        }
    }

    pub fn mask(n_tx: usize, edge: FreeEdge) -> Vec<bool> {
        let phase_of = |t: usize| match edge {
            FreeEdge::Front => 5_usize.saturating_sub(t % 13),
            FreeEdge::Back => (t % 13).saturating_sub(7),
        };
        let asc = edge == FreeEdge::Front;
        let mut pivots: Vec<Option<(Vec<u32>, usize)>> = vec![None; n_tx / 3 * 2];
        let mut mask = vec![false; n_tx];
        for phase in 0..=5 {
            for i in 0..n_tx {
                let t = if asc { i } else { n_tx - 1 - i };
                if phase_of(t) != phase || mask[t] {
                    continue;
                }
                if let Some((p, row)) = reduce(symbolic_row(t), asc, &pivots, &mut Vec::new()) {
                    pivots[p as usize] = Some((row, 0));
                    mask[t] = true;
                }
            }
        }
        mask
    }

    /// Decodes `target` protecting `mask`: returns `(decoded, flips)`.
    pub fn decode(target: &[bool], mask: &[bool], edge: FreeEdge) -> (Vec<bool>, Vec<usize>) {
        let n_tx = target.len();
        let n_in = n_tx / 3 * 2;
        let asc = edge == FreeEdge::Front;
        // Elimination in processing order, recording per row its source
        // position, the rows whose right-hand sides it XORs, and its
        // reduced unknowns.
        let mut pivots: Vec<Option<(Vec<u32>, usize)>> = vec![None; n_in];
        let mut rows: Vec<(usize, Vec<usize>, u32, Vec<u32>)> = Vec::new();
        for i in 0..n_tx {
            let t = if asc { i } else { n_tx - 1 - i };
            if !mask[t] {
                continue;
            }
            let mut deps = Vec::new();
            let (p, row) = reduce(symbolic_row(t), asc, &pivots, &mut deps)
                .expect("mask rows are independent");
            pivots[p as usize] = Some((row.clone(), rows.len()));
            rows.push((t, deps, p, row));
        }
        // Replay: right-hand sides forward, then substitution in pivot
        // order (free unknowns are 0).
        let mut rhs = vec![false; rows.len()];
        for (i, (t, deps, _, _)) in rows.iter().enumerate() {
            rhs[i] = deps.iter().fold(target[*t], |v, &d| v ^ rhs[d]);
        }
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| if asc { rows[i].2 as i64 } else { -(rows[i].2 as i64) });
        let mut decoded = vec![false; n_in];
        for i in order {
            let (_, _, p, unknowns) = &rows[i];
            decoded[*p as usize] = unknowns
                .iter()
                .filter(|&&u| u != *p)
                .fold(rhs[i], |v, &u| v ^ decoded[u as usize]);
        }
        let reenc = puncture(CodeRate::R23, &encode_r12(&decoded));
        let flips = (0..n_tx).filter(|&t| reenc[t] != target[t]).collect();
        (decoded, flips)
    }
}

/// The banded plan against the sparse-row oracle on random targets of
/// `symbols` OFDM symbols (312 coded bits each), both edges: equal decoded
/// bits and flips.
fn assert_plan_matches_oracle(symbols: impl Iterator<Item = usize>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = RealtimeScratch::new();
    let (mut decoded, mut flips) = (BitVec::new(), Vec::new());
    for symbols in symbols {
        let target: Vec<bool> = (0..symbols * 312).map(|_| rng.gen::<bool>()).collect();
        let packed = BitVec::from_bools(&target);
        for edge in [FreeEdge::Front, FreeEdge::Back] {
            let plan = RealtimePlan::new(target.len(), edge);
            let (want_dec, want_flips) = vec_row_oracle::decode(&target, plan.mask(), edge);
            plan.decode_into(&packed, &mut scratch, &mut decoded, &mut flips);
            assert!(decoded.to_bools() == want_dec, "{symbols} symbols, {edge:?}: decoded bits differ");
            assert_eq!(flips, want_flips, "{symbols} symbols, {edge:?}: flips");
        }
    }
}

#[test]
fn banded_plan_matches_the_vec_row_oracle_up_to_130_symbols() {
    assert_plan_matches_oracle(1..=130, 0x0BAD_5EED);
}

#[test]
fn banded_plan_matches_the_vec_row_oracle_every_29th_length_to_1000() {
    assert_plan_matches_oracle((145..=1000).step_by(29), 0x0BAD_5EEE);
}

#[test]
fn windowed_mask_walk_matches_the_sparse_walk() {
    for symbols in (1..=40).chain([101, 130, 377]) {
        for edge in [FreeEdge::Front, FreeEdge::Back] {
            let n = symbols * 312;
            assert_eq!(
                protected_mask(n, edge),
                vec_row_oracle::mask(n, edge),
                "{symbols} symbols, {edge:?}"
            );
        }
    }
}

#[test]
fn suffix_redecode_equals_full_decode_at_random_points() {
    check_n(
        "suffix_redecode_equals_full_decode_at_random_points",
        16,
        |rng| {
            let n = 39 * rng.gen_range(1usize..40);
            let base = bools(rng, n..n + 1);
            let tail = bools(rng, n..n + 1);
            let t_start = rng.gen_range(0..n + 1);
            (base, tail, t_start)
        },
        |(base, tail, t_start)| {
            let n = base.len();
            let plan = RealtimePlan::new(n, FreeEdge::Front);
            let mut scratch = RealtimeScratch::new();
            let (mut decoded, mut flips) = (BitVec::new(), Vec::new());
            plan.decode_into(&BitVec::from_bools(base), &mut scratch, &mut decoded, &mut flips);
            let mut ckpt = RealtimeCheckpoint::new();
            plan.save_checkpoint(&scratch, &decoded, &mut ckpt);
            let mut base_flips = BitVec::zeros(n);
            for &f in &flips {
                base_flips.set(f, true);
            }
            let mut target = base.clone();
            target[*t_start..].copy_from_slice(&tail[*t_start..]);
            let target = BitVec::from_bools(&target);

            let (mut want_dec, mut want_flips) = (BitVec::new(), Vec::new());
            plan.decode_into(&target, &mut RealtimeScratch::new(), &mut want_dec, &mut want_flips);
            let mut got_dec = BitVec::new();
            let b = plan.redecode_suffix(&target, *t_start, &ckpt, &mut scratch, &mut got_dec);
            prop_assert_eq!(&got_dec, &want_dec);
            let mut got_flips = Vec::new();
            plan.reencode_flips_suffix(
                &got_dec,
                &target,
                b,
                *t_start,
                &base_flips,
                &mut scratch,
                &mut got_flips,
            );
            prop_assert_eq!(got_flips, want_flips);
            Ok(())
        },
    );
}

#[test]
fn packed_encoder_matches_puncture_of_encode_r12() {
    // Word-shift encode + word puncture against the bool chain, every rate,
    // every input length 0..=200 (partial final periods included); then the
    // flip scan against a corrupted target from several start positions.
    let mut rng = StdRng::seed_from_u64(0x00E1_C0DE);
    let mut reenc = Reencoder::new();
    let (mut a, mut b, mut words, mut flips) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56] {
        for n in 0..=200usize {
            let data: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
            let want = puncture(rate, &encode_r12(&data));
            assert_eq!(rate.transmitted_len(n), want.len(), "{rate:?} n={n}: length");
            let mut input = vec![0u64; n.div_ceil(64)];
            for (i, _) in data.iter().enumerate().filter(|(_, &bit)| bit) {
                input[i / 64] |= 1 << (i % 64);
            }
            encode_words_into(&input, &mut a, &mut b);
            puncture_words_into(rate, &a, &b, n, &mut words);
            assert_eq!(words.len(), want.len().div_ceil(64), "{rate:?} n={n}: words");
            for (t, &bit) in want.iter().enumerate() {
                assert_eq!(words[t / 64] >> (t % 64) & 1 == 1, bit, "{rate:?} n={n}: bit {t}");
            }
            if !want.len().is_multiple_of(64) {
                assert_eq!(words.last().unwrap() >> (want.len() % 64), 0, "{rate:?} n={n}: tail");
            }
            let mut target = want.clone();
            let corrupt: Vec<usize> =
                (0..target.len()).filter(|_| rng.gen_range(0..9) == 0).collect();
            for &t in &corrupt {
                target[t] = !target[t];
            }
            for t_from in [0, target.len() / 3, target.len().saturating_sub(7), target.len()] {
                flips.clear();
                let (data, target) = (BitVec::from_bools(&data), BitVec::from_bools(&target));
                reenc.push_flips_from(rate, &data, &target, t_from, &mut flips);
                let want_flips: Vec<usize> =
                    corrupt.iter().copied().filter(|&t| t >= t_from).collect();
                assert_eq!(flips, want_flips, "{rate:?} n={n} t_from={t_from}");
            }
        }
    }
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
    // on every rate, termination mode, corruption pattern, and weight the
    // engine accepts: unweighted, or any weight up to `MAX_WEIGHT`.
    check(
        "packed_engine_matches_scalar_reference",
        |rng| {
            // 30 = lcm of the puncturing periods, so every rate divides.
            let data = bools(rng, 30..31);
            let rate_idx = rng.gen_range(0usize..4);
            let weighted = rng.gen::<bool>();
            let terminate = rng.gen::<bool>();
            let seed = rng.gen::<u64>();
            (data, rate_idx, weighted, terminate, seed)
        },
        |(data, rate_idx, weighted, terminate, seed)| {
            let rate = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56][*rate_idx];
            let mut tx = puncture(rate, &encode_r12(data));
            let mut rng = StdRng::seed_from_u64(*seed);
            for bit in tx.iter_mut() {
                if rng.gen_range(0u32..8) == 0 {
                    *bit = !*bit;
                }
            }
            let weights: Option<Vec<u32>> = weighted
                .then(|| (0..tx.len()).map(|_| rng.gen_range(1..MAX_WEIGHT + 1)).collect());
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
    // Deterministic companion to the randomized property: short streams at
    // every rate plus one full 105-symbol MCS 7 payload (32 760
    // transmitted bits) at R5/6 and at R1/2, unweighted and under four
    // weight vectors, terminated and free-ending. Three of the vectors sit
    // at the edge of the renormalization proof (`trellis::MAX_WEIGHT`):
    // every weight at the bound, the bound alternating with 0, and random
    // weights in `1000..=MAX_WEIGHT`.
    const ALL: [CodeRate; 4] = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56];
    let cases: [(usize, u64, &[CodeRate]); 5] = [
        (60, 11, &ALL),
        (120, 5, &ALL),
        (30, 29, &ALL),
        (27_294, 13, &[CodeRate::R56]), // 27 300 inputs -> 32 760 transmitted
        (16_374, 13, &[CodeRate::R12]), // 16 380 inputs -> 32 760 transmitted
    ];
    let mut rng = StdRng::seed_from_u64(0x7ab1e);
    for (len, k, rates) in cases {
        let mut data = pattern_bits(len, k);
        data.extend([false; 6]);
        for &rate in rates {
            let n = data.len() - data.len() % rate.period_inputs();
            let mut tx = puncture(rate, &encode_r12(&data[..n]));
            // Corrupt a few positions so the decode is not trivial.
            for i in (3..tx.len()).step_by(37) {
                tx[i] = !tx[i];
            }
            let n_tx = tx.len() as u32;
            let weight_sets: [Vec<u32>; 4] = [
                (0..n_tx).map(|i| [1, 100, 1000][(i % 3) as usize]).collect(),
                vec![MAX_WEIGHT; tx.len()],
                (0..n_tx).map(|i| if i % 2 == 0 { MAX_WEIGHT } else { 0 }).collect(),
                (0..n_tx).map(|_| rng.gen_range(1000..MAX_WEIGHT + 1)).collect(),
            ];
            let weightings = std::iter::once(None).chain(weight_sets.iter().map(|w| Some(&w[..])));
            for (wi, w) in weightings.enumerate() {
                for term in [false, true] {
                    let packed = decode_punctured(rate, &tx, w, term);
                    let oracle = reference(rate, &tx, w, term);
                    assert_eq!(packed, oracle, "len {len} rate {rate:?} weights #{wi} term {term}");
                }
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
            let dec = BitVec::from_bools(&decode_punctured(rate, &target, Some(&weights), false));
            let mut flips = Vec::new();
            let target = BitVec::from_bools(&target);
            ViterbiScratch::new().reencode_flips_into(rate, &dec, &target, &mut flips);
            for f in flips {
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
