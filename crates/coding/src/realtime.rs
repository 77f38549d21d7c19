//! The real-time O(T) decoder (paper Sec 2.7, last three paragraphs).
//!
//! For real-time packet generation BlueFi abandons the Viterbi search and
//! exploits two structural facts at code rate 2/3:
//!
//! * the WiFi interleaver has an internal period of 13, so "important" bits
//!   (those landing on subcarriers inside the Bluetooth band) occupy the
//!   same positions within every 13-bit cycle; and
//! * the mother code is **linear over GF(2)**, so "choose input bits such
//!   that a chosen subset of transmitted bits matches a target exactly" is a
//!   banded linear system, solvable online in one pass.
//!
//! The paper phrases the solution as a lookup table ("any 9-bit pattern has,
//! and only has, eight 12-bit candidates and their first 3 bits are
//! distinct"); that table is precisely the solution set of this linear
//! system, a correspondence the `paper_candidate_table_claim` test checks
//! explicitly. The implementation here solves the system directly with an
//! incremental Gaussian elimination whose bandwidth is bounded by the
//! encoder memory, so the runtime is O(T) with a small constant — the ~50×
//! speedup over Viterbi that Sec 4.8 reports.
//!
//! ## Mask construction
//!
//! [`protected_mask`] decides which transmitted positions are guaranteed
//! exact. It walks the positions inside the "important" band (the tail of
//! each 13-bit cycle for [`FreeEdge::Front`], the head for
//! [`FreeEdge::Back`]) and keeps each position whose parity equation is
//! linearly independent of those already kept — a *target-independent*
//! property of the code, so the mask is computed once per length. Rate 2/3
//! offers 2 information bits per 3 transmitted, so in steady state exactly
//! 26 of every 39 positions are protectable (the paper's "2/3 of bits will
//! not flip"); the rank walk also handles the startup transient, where the
//! zero initial state makes a few early equations degenerate (at stream
//! start `A₀ = B₀ = d₀`, so no mask can pin both).

use crate::convolutional::{encode_r12_into, G0, G1};
use crate::puncture::{puncture_into, CodeRate};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Which edge of each 13-bit interleaver cycle is sacrificial.
///
/// With the HT-20 interleaver at 64-QAM, transmitted-bit index `k mod 13`
/// selects a 1/13th slice of the band from the most negative subcarriers
/// (`k mod 13 == 0` → around −28) to the most positive (→ +28). Allowing
/// flips only at the cycle *front* confines them to negative subcarriers
/// (use when the Bluetooth signal sits at a positive frequency offset);
/// flips only at the cycle *back* confines them to positive subcarriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreeEdge {
    /// Flips allowed at the front of each cycle (subcarriers ≈ −28..−8);
    /// protects the positive half of the band.
    Front,
    /// Flips allowed at the back of each cycle (subcarriers ≈ +8..+28);
    /// protects the negative half of the band.
    Back,
}

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

/// The symbolic parity equation of transmitted bit `t` at rate 2/3:
/// which input-bit indices XOR to produce it.
fn symbolic_row(t: usize, taps_a: &[u32], taps_b: &[u32]) -> Vec<u32> {
    let g = t / 3;
    let (latest, tapset): (i64, &[u32]) = match t % 3 {
        0 => (2 * g as i64, taps_a),
        1 => (2 * g as i64, taps_b),
        _ => (2 * g as i64 + 1, taps_a),
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

/// Builds the maximal protected-position mask for `n_tx` transmitted bits
/// (`n_tx` must be a multiple of 39, one full interleaver/puncture
/// super-period).
///
/// Positions outside the sacrificial edge of each 13-bit cycle are
/// protected greedily in transmission order as long as their parity
/// equations stay linearly independent — see the module docs. In steady
/// state this yields 26 protected positions per 39 (the theoretical
/// maximum for rate 2/3).
pub fn protected_mask(n_tx: usize, edge: FreeEdge) -> Vec<bool> {
    assert_eq!(n_tx % 39, 0, "length must be a multiple of 39, got {n_tx}");
    let taps_a = taps(G0);
    let taps_b = taps(G1);
    // Priority phases, most important first. For Front we protect every
    // position at cycle offset ≥ 5 (24 per 39 — the paper's {5..13},
    // {18..25}, {31..38}), then add offset-4 positions while rank lasts
    // (the paper's t=30), then offset 3 and so on: flips end up pinned to
    // the lowest cycle offsets. Back is the mirror image.
    let phase_of = |t: usize| -> usize {
        let pos = t % 13;
        match edge {
            FreeEdge::Front => {
                5_usize.saturating_sub(pos)
            }
            FreeEdge::Back => {
                pos.saturating_sub(7)
            }
        }
    };
    let n_in = n_tx / 3 * 2;
    let mut pivots: Vec<Option<Vec<u32>>> = vec![None; n_in];
    let mut mask = vec![false; n_tx];
    // Processing direction keeps the elimination banded: Front-mode
    // equations reference unknowns just introduced, so ascending order with
    // newest-unknown pivots stays local; Back-mode equations reference
    // unknowns that arrive LATER, so the mirror (descending order,
    // oldest-unknown pivots) is what stays local — ascending order there
    // causes quadratic fill-in.
    let asc = edge == FreeEdge::Front;
    for phase in 0..=5 {
        for i in 0..n_tx {
            let t = if asc { i } else { n_tx - 1 - i };
            if phase_of(t) != phase || mask[t] {
                continue;
            }
            // lint: allow(r10) one-shot mask construction, amortized by RealtimePlan
            let mut row = symbolic_row(t, &taps_a, &taps_b);
            // Reduce symbolically; accept iff independent.
            loop {
                let pivot = if asc { row.last() } else { row.first() };
                match pivot {
                    None => break, // dependent -> stays unprotected
                    Some(&p) => match &pivots[p as usize] {
                        Some(prow) => {
                            // lint: allow(r10) sparse GF(2) rows are variable-length; the Vec is the row
                            row = xor_rows(&row, prow);
                        }
                        None => {
                            pivots[p as usize] = Some(row);
                            mask[t] = true;
                            break;
                        }
                    },
                }
            }
        }
    }
    mask
}

/// A precomputed elimination plan for one `(length, edge)` pair.
///
/// The Gaussian elimination's *structure* — which positions are
/// protectable, which pivot each equation lands on, which previously-stored
/// rows it combines with — depends only on the code, never on the target
/// bits. A plan captures that structure once; decoding a target is then a
/// pure replay: propagate right-hand sides along the recorded dependency
/// lists and back-substitute. This is what makes the decoder genuinely
/// real-time (the paper's "pre-generated lookup table" plays the same
/// role).
#[derive(Debug, Clone)]
pub struct RealtimePlan {
    n_tx: usize,
    n_in: usize,
    mask: Vec<bool>,
    /// Pivot rows in processing order.
    rows: Vec<PlanRow>,
    /// Row indices sorted in substitution order (by pivot, ascending for
    /// Front, descending for Back).
    sub_order: Vec<u32>,
    /// Whether rows were processed in ascending transmitted order (Front).
    asc: bool,
    /// `min_pivot_from[i]` = the smallest pivot among `rows[i..]` (`n_in`
    /// for `i == rows.len()`): the suffix-redecode bound — inputs below it
    /// are untouched by any row at index ≥ `i`.
    min_pivot_from: Vec<u32>,
}

#[derive(Debug, Clone)]
struct PlanRow {
    /// The pivot unknown this row solves for.
    pivot: u32,
    /// The transmitted-bit index the equation came from.
    t: u32,
    /// Indices (into `rows`) whose RHS was XORed in during reduction.
    rhs_deps: Vec<u32>,
    /// The reduced row's unknowns (pivot included).
    unknowns: Vec<u32>,
}

impl RealtimePlan {
    /// Builds the plan for `n_tx` transmitted bits (multiple of 39) with
    /// the given sacrificial edge. Cost is one symbolic elimination; every
    /// subsequent [`RealtimePlan::decode_into`] is a replay.
    pub fn new(n_tx: usize, edge: FreeEdge) -> RealtimePlan {
        let mask = protected_mask(n_tx, edge);
        let n_in = n_tx / 3 * 2;
        let taps_a = taps(G0);
        let taps_b = taps(G1);
        let asc = edge == FreeEdge::Front;
        // pivot unknown -> row index
        let mut pivot_of: Vec<Option<u32>> = vec![None; n_in];
        let mut rows: Vec<PlanRow> = Vec::new();
        for i in 0..n_tx {
            let t = if asc { i } else { n_tx - 1 - i };
            if !mask[t] {
                continue;
            }
            // lint: allow(r10) one-shot plan construction, amortized across decodes
            let mut unknowns = symbolic_row(t, &taps_a, &taps_b);
            let mut rhs_deps = Vec::new();
            loop {
                let pivot = if asc { unknowns.last() } else { unknowns.first() };
                match pivot {
                    None => unreachable!("mask rows are independent by construction"),
                    Some(&p) => match pivot_of[p as usize] {
                        Some(ri) => {
                            rhs_deps.push(ri);
                            // lint: allow(r10) one-shot plan construction, amortized across decodes
                            unknowns = xor_rows(&unknowns, &rows[ri as usize].unknowns);
                        }
                        None => {
                            pivot_of[p as usize] = Some(rows.len() as u32);
                            rows.push(PlanRow {
                                pivot: p,
                                t: t as u32,
                                rhs_deps,
                                unknowns,
                            });
                            break;
                        }
                    },
                }
            }
        }
        let mut sub_order: Vec<u32> = (0..rows.len() as u32).collect();
        sub_order.sort_by_key(|&i| {
            let p = rows[i as usize].pivot as i64;
            if asc {
                p
            } else {
                -p
            }
        });
        let mut min_pivot_from = vec![n_in as u32; rows.len() + 1];
        for i in (0..rows.len()).rev() {
            min_pivot_from[i] = min_pivot_from[i + 1].min(rows[i].pivot);
        }
        RealtimePlan { n_tx, n_in, mask, rows, sub_order, asc, min_pivot_from }
    }

    /// The protected-position mask this plan realizes.
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Decodes a target coded stream (length must equal the plan's): replays
    /// the recorded elimination against `target`, writing the recovered
    /// information bits into `decoded` (resized to `2·n_tx/3`) and the
    /// mismatching transmitted positions into `flips` (cleared first).
    /// Allocation-free at steady state: only buffer growth allocates.
    pub fn decode_into(
        &self,
        target: &[bool],
        scratch: &mut RealtimeScratch,
        decoded: &mut Vec<bool>,
        flips: &mut Vec<usize>,
    ) {
        assert_eq!(target.len(), self.n_tx, "target length must match the plan");
        // Phase 1: propagate right-hand sides along the recorded reductions
        // (rhs_deps only reference earlier rows, so one forward pass fills
        // the whole vector).
        let rhs = &mut scratch.rhs;
        bluefi_dsp::contracts::ensure_len(rhs, self.rows.len(), false);
        for (i, row) in self.rows.iter().enumerate() {
            let mut v = target[row.t as usize];
            for &d in &row.rhs_deps {
                v ^= rhs[d as usize];
            }
            rhs[i] = v;
        }
        // Phase 2: substitution in pivot order. Free unknowns default to 0.
        bluefi_dsp::contracts::ensure_len(decoded, self.n_in, false);
        decoded.fill(false);
        for &ri in &self.sub_order {
            let row = &self.rows[ri as usize];
            let mut v = rhs[ri as usize];
            for &u in &row.unknowns {
                if u != row.pivot {
                    v ^= decoded[u as usize];
                }
            }
            decoded[row.pivot as usize] = v;
        }
        // Verify and collect flips through the scratch re-encode buffers.
        encode_r12_into(decoded, &mut scratch.reenc_mother);
        puncture_into(CodeRate::R23, &scratch.reenc_mother, &mut scratch.reenc_punct);
        debug_assert_eq!(scratch.reenc_punct.len(), self.n_tx);
        let cap = flips.capacity();
        flips.clear();
        for (t, (a, b)) in scratch.reenc_punct.iter().zip(target).enumerate() {
            if a != b {
                debug_assert!(!self.mask[t], "protected bit {t} flipped");
                flips.push(t);
            }
        }
        if flips.capacity() > cap {
            bluefi_dsp::contracts::probe_alloc();
        }
    }

    /// Snapshots the state of the decode that just ran through `scratch`
    /// into `ckpt`: the propagated right-hand sides plus the recovered
    /// information bits. A checkpoint lets [`RealtimePlan::redecode_suffix`]
    /// replay only the tail of the elimination when a later target differs
    /// from the checkpointed one only at transmitted positions ≥ some
    /// `t_start`. Allocation-free once the checkpoint buffers have grown.
    pub fn save_checkpoint(
        &self,
        scratch: &RealtimeScratch,
        decoded: &[bool],
        ckpt: &mut RealtimeCheckpoint,
    ) {
        debug_assert_eq!(decoded.len(), self.n_in);
        bluefi_dsp::contracts::ensure_len(&mut ckpt.rhs, self.rows.len(), false);
        ckpt.rhs.copy_from_slice(&scratch.rhs[..self.rows.len()]);
        bluefi_dsp::contracts::ensure_len(&mut ckpt.decoded, self.n_in, false);
        ckpt.decoded.copy_from_slice(decoded);
    }

    /// Index of the first elimination row sourced at or past transmit
    /// position `t_start` (rows are stored in ascending-`t` order).
    fn first_replayed_row(&self, t_start: usize) -> usize {
        self.rows.partition_point(|row| (row.t as usize) < t_start)
    }

    /// How many elimination rows a suffix re-decode from transmit
    /// position `t_start` replays — the incremental-work size of
    /// [`RealtimePlan::redecode_suffix`] (with `t_start = 0` the whole
    /// plan, i.e. the cost of a full replay). Exposed so callers can
    /// attribute patch-path FEC work, e.g. on a trace span's detail.
    pub fn replayed_rows_from(&self, t_start: usize) -> usize {
        self.rows.len() - self.first_replayed_row(t_start)
    }

    /// Incremental redecode for a target that matches the checkpointed one
    /// at every transmitted position `< t_start`: replays only the rows
    /// whose source position is ≥ `t_start` and re-substitutes only the
    /// pivots those rows can reach. Writes the full recovered information
    /// vector into `decoded` and returns `b_bound` — the smallest input
    /// index that may differ from the checkpoint (everything below it is
    /// copied verbatim).
    ///
    /// **Front-edge plans only** (rows ascend in `t` and every pivot is its
    /// row's largest unknown, which is what makes the prefix reusable);
    /// Back-edge callers must run a full [`RealtimePlan::decode_into`].
    /// Flip extraction is a separate pass —
    /// [`RealtimePlan::reencode_flips_suffix`].
    pub fn redecode_suffix(
        &self,
        target: &[bool],
        t_start: usize,
        ckpt: &RealtimeCheckpoint,
        scratch: &mut RealtimeScratch,
        decoded: &mut Vec<bool>,
    ) -> usize {
        debug_assert!(self.asc, "suffix redecode requires a Front-edge plan");
        debug_assert_eq!(target.len(), self.n_tx);
        debug_assert_eq!(ckpt.rhs.len(), self.rows.len());
        debug_assert_eq!(ckpt.decoded.len(), self.n_in);
        // Rows are in ascending-t order: the first row sourced at or past
        // the mutation is found by binary search.
        let r_start = self.first_replayed_row(t_start);
        let b_bound = self.min_pivot_from[r_start] as usize;
        // Phase 1 (suffix): rows < r_start read unchanged targets and
        // unchanged dependencies, so their RHS comes from the checkpoint;
        // rows ≥ r_start are recomputed into the scratch.
        bluefi_dsp::contracts::ensure_len(&mut scratch.rhs, self.rows.len(), false);
        for i in r_start..self.rows.len() {
            let row = &self.rows[i];
            let mut v = target[row.t as usize];
            for &d in &row.rhs_deps {
                let d = d as usize;
                v ^= if d < r_start { ckpt.rhs[d] } else { scratch.rhs[d] };
            }
            scratch.rhs[i] = v;
        }
        // Phase 2: inputs below b_bound are solved by rows < r_start whose
        // unknowns are all < b_bound (Front pivots are row maxima), so they
        // keep their checkpointed values; every pivot ≥ b_bound is
        // re-substituted in ascending pivot order.
        bluefi_dsp::contracts::ensure_len(decoded, self.n_in, false);
        decoded.copy_from_slice(&ckpt.decoded);
        let s_start = self
            .sub_order
            .partition_point(|&ri| (self.rows[ri as usize].pivot as usize) < b_bound);
        for &ri in &self.sub_order[s_start..] {
            let ri = ri as usize;
            let row = &self.rows[ri];
            let mut v = if ri < r_start { ckpt.rhs[ri] } else { scratch.rhs[ri] };
            for &u in &row.unknowns {
                if u != row.pivot {
                    v ^= decoded[u as usize];
                }
            }
            decoded[row.pivot as usize] = v;
        }
        b_bound
    }

    /// Flip extraction to pair with [`RealtimePlan::redecode_suffix`]:
    /// re-encodes only the transmitted suffix that can differ from the
    /// checkpointed base — positions whose parity window reaches an input
    /// ≥ `b_bound` or whose target bit changed (≥ `t_start`) — and splices
    /// it after the base decode's flips. `base_flips` must be the flip list
    /// of the checkpointed decode against the checkpointed target.
    pub fn reencode_flips_suffix(
        &self,
        decoded: &[bool],
        target: &[bool],
        b_bound: usize,
        t_start: usize,
        base_flips: &[usize],
        flips: &mut Vec<usize>,
    ) {
        debug_assert_eq!(decoded.len(), self.n_in);
        debug_assert_eq!(target.len(), self.n_tx);
        // First transmitted position whose newest tapped input is ≥
        // b_bound: positions t with latest(t) < b_bound re-encode
        // identically because every tapped input is unchanged.
        let t_re = 3 * (b_bound / 2) + if b_bound % 2 == 1 { 2 } else { 0 };
        let t_flip = t_start.min(t_re);
        let cap = flips.capacity();
        flips.clear();
        let keep = base_flips.partition_point(|&f| f < t_flip);
        flips.extend_from_slice(&base_flips[..keep]);
        // Generator taps as input-index offsets, hardcoded for the suffix
        // walk (pinned against `taps(G0)`/`taps(G1)` by a test).
        const TAPS_A: [usize; 5] = [0, 2, 3, 5, 6];
        const TAPS_B: [usize; 5] = [0, 1, 2, 3, 6];
        let parity = |taps: &[usize; 5], j: usize| -> bool {
            let mut v = false;
            for &d in taps {
                if d <= j {
                    v ^= decoded[j - d];
                }
            }
            v
        };
        for (t, &want) in target.iter().enumerate().skip(t_flip) {
            let g = t / 3;
            let re = match t % 3 {
                0 => parity(&TAPS_A, 2 * g),
                1 => parity(&TAPS_B, 2 * g),
                _ => parity(&TAPS_A, 2 * g + 1),
            };
            if re != want {
                debug_assert!(!self.mask[t], "protected bit {t} flipped");
                flips.push(t);
            }
        }
        if flips.capacity() > cap {
            bluefi_dsp::contracts::probe_alloc();
        }
    }
}

/// A saved decode state for one `(plan, target)` pair: the propagated
/// right-hand sides and the recovered information bits. Captured by
/// [`RealtimePlan::save_checkpoint`], consumed by
/// [`RealtimePlan::redecode_suffix`] to patch in a mutated target without
/// replaying the untouched prefix of the elimination.
#[derive(Debug, Clone, Default)]
pub struct RealtimeCheckpoint {
    rhs: Vec<bool>,
    decoded: Vec<bool>,
}

impl RealtimeCheckpoint {
    /// An empty checkpoint; buffers grow on first save.
    pub fn new() -> RealtimeCheckpoint {
        RealtimeCheckpoint::default()
    }

    /// Heap footprint of the checkpoint, in bytes (capacity accounting for
    /// the template cache's byte budget).
    pub fn bytes(&self) -> usize {
        self.rhs.capacity() + self.decoded.capacity()
    }
}

/// Reusable buffers for [`RealtimePlan::decode_into`]: the RHS propagation
/// vector and the re-encode verification buffers. One per worker thread,
/// never shared; buffers grow to the largest plan replayed and are then
/// reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct RealtimeScratch {
    rhs: Vec<bool>,
    reenc_mother: Vec<bool>,
    reenc_punct: Vec<bool>,
}

impl RealtimeScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> RealtimeScratch {
        RealtimeScratch::default()
    }
}

type RealtimePlanCache = Mutex<HashMap<(usize, FreeEdge), Arc<RealtimePlan>>>;

fn plan_cache() -> &'static RealtimePlanCache {
    static CACHE: OnceLock<RealtimePlanCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the interned elimination plan for a `(length, edge)` pair. The
/// plan is target-independent (see [`RealtimePlan`]), so real-time packet
/// generation pays the symbolic elimination once per packet geometry — this
/// is what keeps per-packet decode time below the 1.25 ms slot interval
/// (paper Sec 4.8). Construction happens under the intern lock, so
/// concurrent first-users of one key all receive the same `Arc`; plans are
/// never evicted.
pub fn realtime_plan(n_tx: usize, edge: FreeEdge) -> Arc<RealtimePlan> {
    // A poisoned lock only means another thread panicked mid-insert; the
    // map is still structurally sound, so recover rather than propagate.
    let mut map = plan_cache().lock().unwrap_or_else(|p| p.into_inner());
    Arc::clone(
        map.entry((n_tx, edge))
            .or_insert_with(|| Arc::new(RealtimePlan::new(n_tx, edge))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::encode_r12;
    use crate::puncture::puncture;

    fn pattern(n: usize, k: u64) -> Vec<bool> {
        (0..n).map(|i| (i as u64 * k).wrapping_mul(2654435761) % 97 < 48).collect()
    }

    /// Decodes `target` through a fresh plan for its length and `edge`,
    /// returning `(decoded, flips)`.
    fn decode(target: &[bool], edge: FreeEdge) -> (Vec<bool>, Vec<usize>) {
        let plan = RealtimePlan::new(target.len(), edge);
        let (mut decoded, mut flips) = (Vec::new(), Vec::new());
        plan.decode_into(target, &mut RealtimeScratch::new(), &mut decoded, &mut flips);
        (decoded, flips)
    }

    #[test]
    fn plan_reuse_is_consistent() {
        let plan = RealtimePlan::new(39 * 8, FreeEdge::Front);
        let target = pattern(39 * 8, 5);
        let mut scratch = RealtimeScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut flips = Vec::new();
        plan.decode_into(&target, &mut scratch, &mut a, &mut flips);
        plan.decode_into(&target, &mut scratch, &mut b, &mut flips);
        assert_eq!(a, b);
    }

    #[test]
    fn replayed_rows_shrink_with_later_mutations() {
        let n = 39 * 8;
        let plan = RealtimePlan::new(n, FreeEdge::Front);
        let all = plan.replayed_rows_from(0);
        assert_eq!(all, plan.rows.len(), "t_start 0 replays the whole plan");
        assert_eq!(plan.replayed_rows_from(n), 0, "past-the-end replays nothing");
        let mut prev = all;
        for t in [1, n / 4, n / 2, n - 1] {
            let r = plan.replayed_rows_from(t);
            assert!(r <= prev, "replayed rows must be monotone in t_start");
            prev = r;
        }
        // Consistency with the row layout itself.
        for t in [0, 7, n / 3, n - 1] {
            let direct = plan.rows.iter().filter(|row| (row.t as usize) >= t).count();
            assert_eq!(plan.replayed_rows_from(t), direct);
        }
    }

    #[test]
    fn protected_mask_reaches_theoretical_maximum() {
        // Rate 2/3 has 26 information bits per 39 transmitted; the rank walk
        // must recover essentially all of them (startup may cost a few).
        for edge in [FreeEdge::Front, FreeEdge::Back] {
            let n = 39 * 8;
            let m = protected_mask(n, edge);
            let protected = m.iter().filter(|&&b| b).count();
            assert!(
                protected >= 26 * 8 - 4,
                "{edge:?}: only {protected} of {} protected",
                26 * 8
            );
            assert!(protected <= 26 * 8, "{edge:?}: rank bound violated");
        }
    }

    #[test]
    fn protected_mask_is_periodic_in_steady_state() {
        let m = protected_mask(39 * 10, FreeEdge::Front);
        // Away from the startup transient and the tail (where the rank walk
        // interacts with the stream boundaries) the pattern repeats.
        for t in 39 * 2..39 * 7 {
            assert_eq!(m[t], m[t + 39], "mask not periodic at {t}");
        }
    }

    #[test]
    fn decode_reproduces_protected_bits_front() {
        let n = 39 * 20;
        let target = pattern(n, 13);
        let mask = protected_mask(n, FreeEdge::Front);
        let (_, flips) = decode(&target, FreeEdge::Front);
        // No flip on a protected position; flips only at cycle fronts.
        for &f in &flips {
            assert!(!mask[f]);
            let pos = f % 13;
            assert!(pos <= 4, "flip at cycle position {pos}");
        }
        // The paper's guarantee: at most 1/3 of bits flip.
        assert!(flips.len() * 3 <= n);
    }

    #[test]
    fn decode_reproduces_protected_bits_back() {
        let n = 39 * 20;
        let target = pattern(n, 29);
        let mask = protected_mask(n, FreeEdge::Back);
        let (_, flips) = decode(&target, FreeEdge::Back);
        for &f in &flips {
            assert!(!mask[f]);
            // Away from the startup transient flips sit at cycle tails.
            if f >= 39 {
                assert!(f % 13 >= 8, "flip at cycle position {}", f % 13);
            }
        }
        assert!(flips.len() * 3 <= n + 39);
    }

    #[test]
    fn codeword_targets_decode_with_zero_flips() {
        // If the target IS a rate-2/3 codeword the solver must reproduce it
        // exactly: the protected constraints pin 2/3 of the inputs and the
        // free variables are consistent with the codeword by construction.
        let data = pattern(26 * 10, 7);
        let cw = puncture(CodeRate::R23, &encode_r12(&data));
        let mask = protected_mask(cw.len(), FreeEdge::Front);
        let (_, flips) = decode(&cw, FreeEdge::Front);
        for &f in &flips {
            assert!(!mask[f]);
        }
        // The solver does not have to find `data` itself (free variables
        // default to zero), but flips can only sit at unprotected positions
        // and should be rare for a consistent target.
        assert!(flips.len() * 3 <= cw.len());
    }

    #[test]
    fn all_masks_feasible_for_many_targets() {
        for k in 1..30u64 {
            let n = 39 * 6;
            let target = pattern(n, k);
            for edge in [FreeEdge::Front, FreeEdge::Back] {
                let mask = protected_mask(n, edge);
                let (_, flips) = decode(&target, edge);
                for &f in &flips {
                    assert!(!mask[f], "k={k} edge={edge:?}: protected flip at {f}");
                }
            }
        }
    }

    #[test]
    fn flips_stay_out_of_the_protected_band_entirely() {
        // The guarantee BlueFi needs: with the Front mask, NO transmitted
        // bit whose cycle position is ≥ 4 ever flips — protected or not
        // (unprotected band positions are linearly dependent on protected
        // ones, so they match automatically... verify empirically).
        let n = 39 * 12;
        for k in 1..12u64 {
            let target = pattern(n, k);
            let (_, flips) = decode(&target, FreeEdge::Front);
            for &f in &flips {
                assert!(f % 13 <= 4, "k={k}: flip at cycle position {}", f % 13);
            }
        }
    }

    #[test]
    fn paper_candidate_table_claim() {
        // Paper: "any 9-bit pattern has, and only has, eight 12-bit
        // candidates and their first 3 bits are distinct."
        //
        // Interpretation: with 3 bits of relevant prior history and 9 fresh
        // input bits (12-bit candidates), each 9-bit protected pattern of a
        // cycle is realized by exactly 8 candidates, one per distinct 3-bit
        // history. Brute-force over (history, inputs).
        let mut per_target = std::collections::HashMap::<u16, Vec<u16>>::new();
        for state3 in 0u16..8 {
            for inputs in 0u16..512 {
                let mut stream = Vec::new();
                for i in 0..3 {
                    stream.push((state3 >> i) & 1 == 1);
                }
                for i in 0..9 {
                    stream.push((inputs >> i) & 1 == 1);
                }
                let tx = puncture(CodeRate::R23, &encode_r12(&stream));
                let cycle = &tx[tx.len() - 13..];
                let protected_val: u16 = cycle[4..13]
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (i, &b)| acc | ((b as u16) << i));
                per_target.entry(protected_val).or_default().push((state3 << 9) | inputs);
            }
        }
        assert_eq!(per_target.len(), 512, "every 9-bit pattern reachable");
        for (tgt, cands) in per_target {
            assert_eq!(cands.len(), 8, "target {tgt:#b} has {} candidates", cands.len());
            let mut states: Vec<u16> = cands.iter().map(|c| c >> 9).collect();
            states.sort_unstable();
            states.dedup();
            assert_eq!(states.len(), 8, "3-bit histories must be distinct");
        }
    }

    #[test]
    fn hardcoded_suffix_taps_match_the_generators() {
        // reencode_flips_suffix walks the generators with hardcoded tap
        // offsets; pin them against the canonical derivation.
        assert_eq!(taps(G0), vec![0, 2, 3, 5, 6]);
        assert_eq!(taps(G1), vec![0, 1, 2, 3, 6]);
    }

    #[test]
    fn suffix_redecode_matches_full_decode() {
        // Decode a base target, checkpoint, then mutate suffixes of varying
        // depth: the incremental path must reproduce the full decode's
        // information bits AND flip list word-for-word.
        let n = 39 * 24;
        let plan = RealtimePlan::new(n, FreeEdge::Front);
        let base = pattern(n, 13);
        let mut scratch = RealtimeScratch::new();
        let (mut decoded, mut flips) = (Vec::new(), Vec::new());
        plan.decode_into(&base, &mut scratch, &mut decoded, &mut flips);
        let mut ckpt = RealtimeCheckpoint::new();
        plan.save_checkpoint(&scratch, &decoded, &mut ckpt);
        let base_flips = flips.clone();

        for (t_start, k) in [(0usize, 5u64), (39, 7), (n / 2, 11), (n - 39, 17), (n - 1, 19), (n, 23)] {
            let mut target = base.clone();
            let tail = pattern(n, k);
            target[t_start..].copy_from_slice(&tail[t_start..]);

            let (mut want_dec, mut want_flips) = (Vec::new(), Vec::new());
            let mut full_scratch = RealtimeScratch::new();
            plan.decode_into(&target, &mut full_scratch, &mut want_dec, &mut want_flips);

            let mut got_dec = Vec::new();
            let b = plan.redecode_suffix(&target, t_start, &ckpt, &mut scratch, &mut got_dec);
            assert_eq!(got_dec, want_dec, "t_start={t_start}");
            // The bound is sound: everything below it matches the base.
            assert_eq!(got_dec[..b], ckpt.decoded[..b]);

            let mut got_flips = Vec::new();
            plan.reencode_flips_suffix(&got_dec, &target, b, t_start, &base_flips, &mut got_flips);
            assert_eq!(got_flips, want_flips, "t_start={t_start}");
        }
    }

    #[test]
    fn suffix_redecode_of_the_unchanged_target_is_identity() {
        let n = 39 * 8;
        let plan = RealtimePlan::new(n, FreeEdge::Front);
        let base = pattern(n, 3);
        let mut scratch = RealtimeScratch::new();
        let (mut decoded, mut flips) = (Vec::new(), Vec::new());
        plan.decode_into(&base, &mut scratch, &mut decoded, &mut flips);
        let mut ckpt = RealtimeCheckpoint::new();
        plan.save_checkpoint(&scratch, &decoded, &mut ckpt);
        let mut got = Vec::new();
        let b = plan.redecode_suffix(&base, n, &ckpt, &mut scratch, &mut got);
        assert_eq!(b, n / 3 * 2);
        assert_eq!(got, decoded);
        let mut got_flips = Vec::new();
        plan.reencode_flips_suffix(&got, &base, b, n, &flips, &mut got_flips);
        assert_eq!(got_flips, flips);
    }

    #[test]
    fn decoded_length_is_two_thirds() {
        let n = 39 * 2;
        let (decoded, _) = decode(&pattern(n, 3), FreeEdge::Front);
        assert_eq!(decoded.len(), n / 3 * 2);
    }
}
