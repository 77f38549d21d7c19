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
//! encoder memory, so the runtime is O(T) with a small constant: a
//! [`RealtimePlan`] replays it as two passes of mask parities. Sec 4.8 of
//! the paper reports ≈ 50× over a scalar C Viterbi; EXPERIMENTS.md Sec 4.8
//! measures the FEC stage against this crate's bit-packed Viterbi engine.
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

use crate::convolutional::{Reencoder, G0, G1, MEMORY};
use crate::puncture::CodeRate;
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

/// The symbolic parity equation of transmitted bit `t` at rate 2/3, in
/// *substitution coordinates*: input `u` sits at coordinate `u` for Front
/// plans and `n_in − 1 − u` for Back plans, so that in both every pivot is
/// its row's largest coordinate. Returned as `(top, bits)`, bit `k` of
/// `bits` standing for coordinate `top − k`.
fn equation(t: usize, n_in: usize, asc: bool) -> (usize, u64) {
    let g = t / 3;
    let (latest, gen) = match t % 3 {
        0 => (2 * g, G0),
        1 => (2 * g, G1),
        _ => (2 * g + 1, G0),
    };
    let mut bits = 0u64;
    for d in (0..=MEMORY).filter(|&d| d <= latest && (gen >> (MEMORY - d)) & 1 == 1) {
        // Input latest − d: coordinate latest − d (Front) or
        // n_in − 1 − latest + d = top − (MEMORY − d) (Back).
        bits |= 1 << if asc { d } else { MEMORY - d };
    }
    let top = if asc { latest } else { n_in - 1 - latest + MEMORY };
    (top, bits)
}

/// Reduces the equation `(top, bits)` (see [`equation`]) against stored
/// pivot rows: `row_at(c)` is the row pivoting at coordinate `c` (bit `j`
/// for coordinate `c − j`, so bit 0 is set) or 0 when `c` is no pivot yet,
/// and `on_row(c)` hears each row XORed in. Returns the new pivot and the
/// reduced row relative to it, or `None` when the equation is dependent.
///
/// # Panics
/// When a reduction would reach more than 128 coordinates below `top`, or
/// leave a row wider than 64: the elimination is banded by the encoder
/// memory (stored rows span at most 6 inputs; the mask walk's longest
/// reduction chain reaches 91 below its start), and a row outside the
/// window means that assumption broke.
fn reduce(
    top: usize,
    bits: u64,
    row_at: impl Fn(usize) -> u64,
    mut on_row: impl FnMut(usize),
) -> Option<(usize, u64)> {
    let mut bits = u128::from(bits);
    while bits != 0 {
        let k = bits.trailing_zeros() as usize;
        let p = top - k;
        let row = row_at(p);
        if row == 0 {
            let reduced = bits >> k;
            assert!(reduced >> 64 == 0, "reduced row below coordinate {top} wider than 64");
            return Some((p, reduced as u64));
        }
        on_row(p);
        assert!(
            k + (64 - row.leading_zeros() as usize) <= 128,
            "elimination row reaches more than 128 inputs below coordinate {top}"
        );
        bits ^= u128::from(row) << k;
    }
    None
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
    // Priority phases, most important first. For Front we protect every
    // position at cycle offset ≥ 5 (24 per 39 — the paper's {5..13},
    // {18..25}, {31..38}), then add offset-4 positions while rank lasts
    // (the paper's t=30), then offset 3 and so on: flips end up pinned to
    // the lowest cycle offsets. Back is the mirror image.
    let phase_of = |t: usize| -> usize {
        let pos = t % 13;
        match edge {
            FreeEdge::Front => 5_usize.saturating_sub(pos),
            FreeEdge::Back => pos.saturating_sub(7),
        }
    };
    let n_in = n_tx / 3 * 2;
    // Pivot rows by coordinate, relative to their pivot (0 = none).
    let mut rows = vec![0u64; n_in];
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
            // Reduce symbolically; accept iff independent.
            let (top, bits) = equation(t, n_in, asc);
            if let Some((p, row)) = reduce(top, bits, |c| rows[c], |_| {}) {
                rows[p] = row;
                mask[t] = true;
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
/// pure replay (the paper's "pre-generated lookup table" plays the same
/// role).
///
/// The elimination is banded, so the plan stores it as bit masks over a
/// sliding window rather than index lists. Each row, in processing order
/// (ascending transmit position for Front, descending for Back), keeps its
/// source position `t`, its pivot, and a `u64` mask of the earlier rows
/// whose right-hand sides it XORs (bit `k` = the row `k + 1` places
/// before it). Each substitution coordinate keeps a `u8` mask of its
/// pivot row's other unknowns (bit `k` = coordinate `k + 1` below it).
/// A decode is two shift-register passes, each step one parity of
/// `window & mask`; a row that does not fit its window fails the build.
#[derive(Debug, Clone)]
pub struct RealtimePlan {
    n_tx: usize,
    n_in: usize,
    mask: Vec<bool>,
    /// Whether rows were processed in ascending transmitted order (Front);
    /// also maps substitution coordinates to inputs (see [`equation`]).
    asc: bool,
    /// Per row: the transmitted position its equation came from.
    t: Vec<u32>,
    /// Per row: the earlier rows whose right-hand sides it XORs.
    deps: Vec<u64>,
    /// Per row: the substitution coordinate it solves for.
    pivot: Vec<u32>,
    /// Per substitution coordinate: the other unknowns of the row pivoting
    /// there (0 for free inputs, which decode to 0).
    sub: Vec<u8>,
}

impl RealtimePlan {
    /// Builds the plan for `n_tx` transmitted bits (multiple of 39) with
    /// the given sacrificial edge. Cost is one symbolic elimination; every
    /// subsequent [`RealtimePlan::decode_into`] is a replay.
    ///
    /// # Panics
    /// When a row's dependencies reach more than 64 rows back, or its
    /// reduced unknowns more than 8 inputs past its pivot — the banded
    /// layout cannot hold it.
    pub fn new(n_tx: usize, edge: FreeEdge) -> RealtimePlan {
        let mask = protected_mask(n_tx, edge);
        let n_in = n_tx / 3 * 2;
        let asc = edge == FreeEdge::Front;
        let n_rows = mask.iter().filter(|&&m| m).count();
        let (mut t_of, mut deps, mut pivot) =
            (Vec::with_capacity(n_rows), Vec::with_capacity(n_rows), Vec::with_capacity(n_rows));
        let mut sub = vec![0u8; n_in];
        // Build-time only: the row pivoting at each coordinate.
        let mut row_of = vec![u32::MAX; n_in];
        for i in 0..n_tx {
            let t = if asc { i } else { n_tx - 1 - i };
            if !mask[t] {
                continue;
            }
            let r = t_of.len();
            let (top, bits) = equation(t, n_in, asc);
            let mut dep = 0u64;
            let row_at = |c: usize| match row_of[c] {
                u32::MAX => 0,
                _ => 1 | u64::from(sub[c]) << 1,
            };
            let reduced = reduce(top, bits, row_at, |c| {
                let back = r - 1 - row_of[c] as usize;
                assert!(back < 64, "row for transmit bit {t} depends on a row {} back", back + 1);
                dep ^= 1 << back;
            });
            let Some((p, row)) = reduced else {
                unreachable!("mask rows are independent by construction")
            };
            assert!(
                row >> 9 == 0,
                "row for transmit bit {t} spans more than 8 inputs past its pivot"
            );
            sub[p] = (row >> 1) as u8;
            row_of[p] = r as u32;
            t_of.push(t as u32);
            deps.push(dep);
            pivot.push(p as u32);
        }
        RealtimePlan { n_tx, n_in, mask, asc, t: t_of, deps, pivot, sub }
    }

    /// The protected-position mask this plan realizes.
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Heap footprint of the plan, in bytes.
    pub fn bytes(&self) -> usize {
        self.mask.capacity()
            + self.t.capacity() * 4
            + self.deps.capacity() * 8
            + self.pivot.capacity() * 4
            + self.sub.capacity()
    }

    /// Phase 1 of a replay from row `r0`: propagates right-hand sides in
    /// processing order, `win` holding the earlier rows' values (bit `k` =
    /// row `r0 − 1 − k`), and scatters each to its pivot's coordinate.
    fn propagate(&self, target: &[bool], r0: usize, win: u64, rhs: &mut [bool]) {
        // The two newest values are kept out of the window so that the
        // parity over the older rows — the long part of each step — does
        // not wait for the rows just solved: per row, only an AND and an
        // XOR with the newest value sit on the loop-carried path.
        let (mut older, mut n2, mut n1) = (win >> 2, win >> 1 & 1, win & 1);
        let rows = self.t[r0..].iter().zip(&self.deps[r0..]).zip(&self.pivot[r0..]);
        for ((&t, &dep), &p) in rows {
            let from_older = u64::from((older << 2 & dep).count_ones() & 1);
            let early = u64::from(target[t as usize]) ^ from_older ^ (n2 & dep >> 1);
            let v = (early ^ (n1 & dep)) & 1;
            older = (older << 1) | n2;
            (n2, n1) = (n1, v);
            rhs[p as usize] = v == 1;
        }
    }

    /// Phase 2 of a replay from coordinate `c0`: back-substitutes in
    /// coordinate order, `win` holding the preceding coordinates' values
    /// (bit `k` = coordinate `c0 − 1 − k`).
    fn substitute(&self, rhs: &[bool], c0: usize, win: u8, decoded: &mut [bool]) {
        // As in `propagate`, the newest value stays out of the window so
        // only an AND and an XOR with it are on the loop-carried path.
        let (mut older, mut newest) = (u32::from(win >> 1), u32::from(win & 1));
        let mut step = |slot: &mut bool, (&r, &m): (&bool, &u8)| {
            let m = u32::from(m);
            let early = u32::from(r) ^ ((older << 1 & m).count_ones() & 1);
            let v = (early ^ (newest & m)) & 1;
            older = (older << 1) | newest;
            newest = v;
            *slot = v == 1;
        };
        let coords = rhs[c0..].iter().zip(&self.sub[c0..]);
        if self.asc {
            decoded[c0..].iter_mut().zip(coords).for_each(|(s, c)| step(s, c));
        } else {
            let n = self.n_in - c0;
            decoded[..n].iter_mut().rev().zip(coords).for_each(|(s, c)| step(s, c));
        }
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
        // Phase 1 fills every pivot's right-hand side; free inputs keep 0.
        bluefi_dsp::contracts::ensure_len(&mut scratch.rhs, self.n_in, false);
        scratch.rhs.fill(false);
        self.propagate(target, 0, 0, &mut scratch.rhs);
        // Phase 2: substitution; free unknowns come out 0.
        bluefi_dsp::contracts::ensure_len(decoded, self.n_in, false);
        self.substitute(&scratch.rhs, 0, 0, decoded);
        // Verify and collect flips through the packed re-encoder.
        let cap = flips.capacity();
        flips.clear();
        scratch.reenc.push_flips_from(CodeRate::R23, decoded, target, 0, flips);
        debug_assert!(flips.iter().all(|&t| !self.mask[t]), "a protected bit flipped");
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
        bluefi_dsp::contracts::ensure_len(&mut ckpt.rhs, self.n_in, false);
        ckpt.rhs.copy_from_slice(&scratch.rhs[..self.n_in]);
        bluefi_dsp::contracts::ensure_len(&mut ckpt.decoded, self.n_in, false);
        ckpt.decoded.copy_from_slice(decoded);
    }

    /// Index of the first elimination row sourced at or past transmit
    /// position `t_start` (Front rows are stored in ascending-`t` order).
    fn first_replayed_row(&self, t_start: usize) -> usize {
        self.t.partition_point(|&t| (t as usize) < t_start)
    }

    /// How many elimination rows a suffix re-decode from transmit
    /// position `t_start` replays — the incremental-work size of
    /// [`RealtimePlan::redecode_suffix`] (with `t_start = 0` the whole
    /// plan, i.e. the cost of a full replay). Exposed so callers can
    /// attribute patch-path FEC work, e.g. on a trace span's detail.
    pub fn replayed_rows_from(&self, t_start: usize) -> usize {
        self.t.len() - self.first_replayed_row(t_start)
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
        debug_assert_eq!(ckpt.rhs.len(), self.n_in);
        debug_assert_eq!(ckpt.decoded.len(), self.n_in);
        // Rows are in ascending-t order: the first row sourced at or past
        // the mutation is found by binary search. Inputs below the smallest
        // pivot any replayed row solves are untouched by the replay.
        let r_start = self.first_replayed_row(t_start);
        let b_bound = self.pivot[r_start..].iter().min().map_or(self.n_in, |&p| p as usize);
        // Phase 1 (suffix): rows < r_start read unchanged targets and
        // unchanged dependencies, so their right-hand sides come from the
        // checkpoint — both as the replay's starting window and for the
        // substitution below; rows ≥ r_start are recomputed.
        bluefi_dsp::contracts::ensure_len(&mut scratch.rhs, self.n_in, false);
        scratch.rhs[b_bound..].copy_from_slice(&ckpt.rhs[b_bound..]);
        let win = self.pivot[r_start.saturating_sub(64)..r_start]
            .iter()
            .fold(0u64, |w, &p| (w << 1) | u64::from(ckpt.rhs[p as usize]));
        self.propagate(target, r_start, win, &mut scratch.rhs);
        // Phase 2: inputs below b_bound are solved by rows < r_start whose
        // unknowns are all < b_bound (Front pivots are row maxima), so they
        // keep their checkpointed values; every coordinate ≥ b_bound is
        // re-substituted in ascending order.
        bluefi_dsp::contracts::ensure_len(decoded, self.n_in, false);
        decoded.copy_from_slice(&ckpt.decoded);
        let win = ckpt.decoded[b_bound.saturating_sub(8)..b_bound]
            .iter()
            .fold(0u8, |w, &d| (w << 1) | u8::from(d));
        self.substitute(&scratch.rhs, b_bound, win, decoded);
        b_bound
    }

    /// Flip extraction to pair with [`RealtimePlan::redecode_suffix`]:
    /// re-encodes only the transmitted suffix that can differ from the
    /// checkpointed base — positions whose parity window reaches an input
    /// ≥ `b_bound` or whose target bit changed (≥ `t_start`) — and splices
    /// it after the base decode's flips. `base_flips` must be the flip list
    /// of the checkpointed decode against the checkpointed target.
    #[allow(clippy::too_many_arguments)]
    pub fn reencode_flips_suffix(
        &self,
        decoded: &[bool],
        target: &[bool],
        b_bound: usize,
        t_start: usize,
        base_flips: &[usize],
        scratch: &mut RealtimeScratch,
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
        scratch.reenc.push_flips_from(CodeRate::R23, decoded, target, t_flip, flips);
        debug_assert!(flips.iter().all(|&t| !self.mask[t]), "a protected bit flipped");
        if flips.capacity() > cap {
            bluefi_dsp::contracts::probe_alloc();
        }
    }
}

/// A saved decode state for one `(plan, target)` pair: the propagated
/// right-hand sides (by substitution coordinate) and the recovered
/// information bits. Captured by [`RealtimePlan::save_checkpoint`],
/// consumed by [`RealtimePlan::redecode_suffix`] to patch in a mutated
/// target without replaying the untouched prefix of the elimination.
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

/// Reusable buffers for [`RealtimePlan::decode_into`]: the right-hand-side
/// vector and the packed re-encoder of the verify step (which
/// [`crate::ViterbiScratch::reencode_flips_into`] shares). One per worker
/// thread, never shared; buffers grow to the largest plan replayed and are
/// then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct RealtimeScratch {
    rhs: Vec<bool>,
    pub(crate) reenc: Reencoder,
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
        assert_eq!(all, plan.t.len(), "t_start 0 replays the whole plan");
        assert_eq!(plan.replayed_rows_from(n), 0, "past-the-end replays nothing");
        let mut prev = all;
        for t in [1, n / 4, n / 2, n - 1] {
            let r = plan.replayed_rows_from(t);
            assert!(r <= prev, "replayed rows must be monotone in t_start");
            prev = r;
        }
        // Consistency with the row layout itself.
        for t in [0, 7, n / 3, n - 1] {
            let direct = plan.t.iter().filter(|&&row_t| (row_t as usize) >= t).count();
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
        // The equation builder derives each parity row from the generator
        // octals; pin the tap offsets it yields (A: d, d-2, d-3, d-5, d-6;
        // B: d, d-1, d-2, d-3, d-6) in both coordinate directions, away
        // from the stream start where early taps fall off.
        let (n_in, t) = (200, 3 * 20);
        let latest = 2 * (t / 3);
        for (t, want) in [(t, [0, 2, 3, 5, 6]), (t + 1, [0, 1, 2, 3, 6])] {
            let (top, bits) = equation(t, n_in, true);
            let got: Vec<usize> = (0..64).filter(|k| bits >> k & 1 == 1).map(|k| top - k).collect();
            let mut expect: Vec<usize> = want.iter().map(|d| latest - d).collect();
            expect.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(got, expect, "Front, t = {t}");
            let (top, bits) = equation(t, n_in, false);
            let mut got: Vec<usize> =
                (0..64).filter(|k| bits >> k & 1 == 1).map(|k| n_in - 1 - (top - k)).collect();
            got.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(got, expect, "Back, t = {t}");
        }
        // The first output sees only the current input.
        assert_eq!(equation(0, n_in, true), (0, 1));
    }

    #[test]
    fn full_length_plan_fits_in_four_megabytes() {
        // 800 OFDM symbols at MCS 5 (312 coded bits each), the longest
        // packet the audio streamer sends: the banded plan's heap footprint.
        let plan = RealtimePlan::new(800 * 312, FreeEdge::Front);
        assert_eq!(plan.t.len(), 800 * 312 / 3 * 2);
        assert!(plan.bytes() < 4 << 20, "plan holds {} bytes", plan.bytes());
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
            plan.reencode_flips_suffix(
                &got_dec,
                &target,
                b,
                t_start,
                &base_flips,
                &mut scratch,
                &mut got_flips,
            );
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
        plan.reencode_flips_suffix(&got, &base, b, n, &flips, &mut scratch, &mut got_flips);
        assert_eq!(got_flips, flips);
    }

    #[test]
    fn decoded_length_is_two_thirds() {
        let n = 39 * 2;
        let (decoded, _) = decode(&pattern(n, 3), FreeEdge::Front);
        assert_eq!(decoded.len(), n / 3 * 2);
    }
}
