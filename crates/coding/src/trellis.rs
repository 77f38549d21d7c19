//! Bit-packed, branchless trellis engine for the weighted Viterbi
//! (paper Sec 2.7; the `fec_reversal` hot spot of ROADMAP open item 1).
//!
//! A textbook weighted Viterbi — the reference decoder, kept as the test
//! oracle `reference` in the crate's `tests/properties.rs` — re-derives
//! the puncturing phase and branches per transition and per state: for a
//! BlueFi packet that is ~3.5 million data-dependent branches. This
//! engine replaces that inner loop with three structural changes, none
//! of which alters a single output bit:
//!
//! * **Interned trellis plans** — the per-`(rate, length)` walk structure
//!   (keep flags and transmitted-bit offsets per trellis step, expanded
//!   from the cyclic puncturing pattern) is built once and cached forever
//!   in a process-wide intern table, the same idiom as the FFT plan cache
//!   (`dsp::fft::fft_plan`). The decode kernel indexes the punctured
//!   stream in place, with no per-step pattern arithmetic.
//! * **Branchless add–compare–select** — path metrics live in two flat
//!   `[u16; 64]` columns swept as 32 butterflies per step (destination
//!   states `j` and `j + 32` share the same two predecessors, so each
//!   metric word is loaded once). The branch metric collapses to a
//!   4-entry table indexed by the 2-bit transition output code
//!   `(A << 1) | B`, so the kernel contains no data-dependent branches:
//!   compare, select, accumulate.
//! * **Bit-packed survivors** — one decision bit per destination state
//!   packs a whole trellis column into a single `u64`: 8 bytes per step
//!   instead of a textbook decoder's 64-byte `[u8; 64]` column, an 8×
//!   cut in survivor-memory traffic (a BlueFi packet's survivor history
//!   drops from ~1.7 MB to ~210 KB). Traceback walks the packed words
//!   directly: the decision bit *is* the predecessor's low state bit.
//!
//! ## Bit-exactness proof obligations
//!
//! The packed engine must reproduce the reference decoder bit for bit: the
//! test oracle in `tests/properties.rs` checks it on random streams across
//! every rate and every weight up to [`MAX_WEIGHT`], and the conformance
//! golden vectors pin the packet outputs. The load-bearing equivalences:
//!
//! 1. **Tie-breaks select the even predecessor.** The reference decoder
//!    visits predecessors in ascending state order and replaces only on
//!    strictly smaller metric, so the even predecessor wins ties; the
//!    packed select uses `m_odd < m_even` for the same effect.
//! 2. **The final-state argmin selects the lowest state index.** The
//!    reference `min_by_key` returns the first minimum; the packed scan
//!    ascends with a strict compare.
//! 3. **Sentinel-rooted metrics never win.** The reference decoder skips
//!    unreachable states; the packed sweep instead lets sentinel-rooted
//!    metrics participate, which is safe because state 0 reaches every
//!    state within `MEMORY = 6` steps, after which no sentinel-rooted
//!    cell remains — and while they exist they hold at least `INF16`,
//!    strictly above any reachable metric (see [`MAX_WEIGHT`]), so every
//!    compare resolves exactly as the reference skip would. (Survivor bits
//!    of unreachable states may differ, but traceback only visits states
//!    on the winning — reachable — path.)
//! 4. **Renormalization changes no decision, and nothing overflows.**
//!    Every `RENORM_INTERVAL` steps the kernel subtracts the minimum
//!    metric from every state: a common shift, so every comparison,
//!    survivor bit and argmin is unchanged. [`TrellisPlan::decode_into`]
//!    rejects any weight above [`MAX_WEIGHT`], which keeps every compared
//!    value below `i16::MAX`, so the `u16` metrics never wrap and the
//!    signed `i16` compare equals the unsigned one.

use crate::convolutional::{G0, G1, NUM_STATES};
use crate::puncture::CodeRate;
use bluefi_dsp::bits::BitVec;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The "unreachable" path-metric sentinel; see [`MAX_WEIGHT`] for the
/// bounds that make it exact.
const INF16: u16 = 16_000;

/// Largest per-transmitted-bit mismatch weight the trellis accepts:
/// [`TrellisPlan::decode_into`] panics on a larger one. Paper Table 1's
/// weights (1000/100/1) and unweighted decodes (every weight 1) sit
/// below it.
///
/// The bound makes the `u16` metrics exact. It bounds the *per-step*
/// cost, not the total, because the kernel renormalizes: every
/// `RENORM_INTERVAL` steps it subtracts the minimum metric from every
/// state, which shifts all metrics by a common constant and therefore
/// changes **no** comparison, survivor bit, or argmin — only the stored
/// representation. The bounds, with `tot ≤ 2 · MAX_WEIGHT = 2330` the
/// worst per-step cost:
///
/// * **Spread.** Any state is reachable from any state in `MEMORY = 6`
///   steps (the state register is the last 6 inputs), so every reachable
///   metric sits within `6 · tot` of the minimum.
/// * **Sentinels.** No renormalization happens before step 8, so while
///   sentinel-rooted cells exist (the first 6 steps) they hold at least
///   `INF16 = 16 000`, strictly above any reachable metric
///   (`≤ 6 · tot = 13 980`) — the same decisions as the reference skip —
///   and at most `INF16 + 6 · tot = 29 980 < i16::MAX`.
/// * **No overflow.** After a renormalization the minimum is 0; within
///   the next 8 steps the minimum grows by at most `8 · tot`, so every
///   compared value is at most `(8 + 6) · tot = 32 620 < i16::MAX` —
///   no wrap, and signed 8-lane SIMD compares are exact.
pub const MAX_WEIGHT: u32 = 1_165;

/// Steps between renormalizations (a power of two so the check is a
/// mask test). Must stay ≥ `MEMORY + 1` (sentinels must be gone before
/// the first subtraction) and small enough for the overflow bound of
/// [`MAX_WEIGHT`].
const RENORM_INTERVAL: usize = 8;

/// All-ones/all-zeros lane masks of one output bit (`bit` = 2 for A,
/// 1 for B) of the edge arriving at each destination `j < 32` from its
/// **even** predecessor — the one branch cost the symmetry-folded kernel
/// computes per butterfly (every other branch cost is its complement;
/// see [`TrellisPlan::acs`]). As masks, the branch cost becomes pure mask
/// arithmetic (`weight & (MASK ^ target)`) instead of a lane select —
/// constant vectors after vectorization.
const fn even_code_masks(bit: u8) -> [u16; NUM_STATES / 2] {
    let mut m = [0u16; NUM_STATES / 2];
    let mut j = 0;
    while j < NUM_STATES / 2 {
        m[j] = if CODES[0][j] & bit != 0 { u16::MAX } else { 0 };
        j += 1;
    }
    m
}

/// Output-A masks; see [`even_code_masks`].
const AMASK: [u16; NUM_STATES / 2] = even_code_masks(2);
/// Output-B masks; see [`even_code_masks`].
const BMASK: [u16; NUM_STATES / 2] = even_code_masks(1);

/// `LANE_BIT[j] = 1 << j`: the survivor-word bit a butterfly's decision
/// occupies, as a constant table so the take-bit packing is a lane-masked
/// OR reduction the vectorizer folds, not 64 serial shift-or pairs.
const LANE_BIT: [u32; NUM_STATES / 2] = {
    let mut t = [0u32; NUM_STATES / 2];
    let mut j = 0;
    while j < NUM_STATES / 2 {
        t[j] = 1 << j;
        j += 1;
    }
    t
};

/// Parity of the set bits of `v` (const-evaluable).
const fn parity_bit(v: u8) -> u8 {
    (v.count_ones() & 1) as u8
}

/// The 2-bit transition output code `(A << 1) | B` for a (state, input)
/// trellis edge — the packed form of `convolutional::transition_output`.
const fn out_code(state: u8, input: u8) -> u8 {
    let window = (input << 6) | state;
    (parity_bit(window & G0) << 1) | parity_bit(window & G1)
}

/// Per-destination-state transition output codes: `CODES[0][ns]` is the
/// code of the edge arriving from the even predecessor `(ns & 31) << 1`,
/// `CODES[1][ns]` from the odd predecessor. Destination `ns`'s input bit
/// is `ns >> 5` (the most-recent-input slot of the state register).
const CODES: [[u8; NUM_STATES]; 2] = {
    let mut c = [[0u8; NUM_STATES]; 2];
    let mut ns = 0;
    while ns < NUM_STATES {
        let input = (ns >> 5) as u8;
        let even = ((ns & 31) << 1) as u8;
        c[0][ns] = out_code(even, input);
        c[1][ns] = out_code(even | 1, input);
        ns += 1;
    }
    c
};

/// Reusable state for the packed decoder: two path-metric columns and the
/// bit-packed survivor history. One per worker thread, never shared; the
/// survivor buffer grows to the longest stream decoded and is then reused
/// allocation-free.
#[derive(Debug, Clone)]
pub struct PackedScratch {
    /// Current-step path metrics, one renormalized `u16` per state — see
    /// [`MAX_WEIGHT`].
    cur: Box<[u16; NUM_STATES]>,
    /// Next-step path metrics (ping-pongs with `cur` by pointer swap).
    nxt: Box<[u16; NUM_STATES]>,
    /// `survivors[t]` bit `s` = the ACS decision at step `t` for
    /// destination state `s`: 0 selects the even predecessor, 1 the odd.
    survivors: Vec<u64>,
}

impl Default for PackedScratch {
    fn default() -> PackedScratch {
        PackedScratch::new()
    }
}

impl PackedScratch {
    /// An empty scratch; the survivor history grows on first use.
    pub fn new() -> PackedScratch {
        PackedScratch {
            cur: Box::new([INF16; NUM_STATES]),
            nxt: Box::new([INF16; NUM_STATES]),
            survivors: Vec::new(),
        }
    }
}

/// A precomputed trellis-walk plan for one `(rate, transmitted-length)`
/// pair: per-step keep flags and transmitted-bit offsets expanded from
/// the cyclic puncturing pattern, so the decode kernel reads the
/// punctured target stream in place.
///
/// Plans are target-independent — they depend only on the code structure
/// — so they are interned process-wide by [`trellis_plan`] and shared by
/// every worker thread.
#[derive(Debug)]
pub struct TrellisPlan {
    rate: CodeRate,
    n_tx: usize,
    steps: usize,
    /// Packed per-step descriptor: bit 0 = A transmitted, bit 1 = B
    /// transmitted, bits 2.. = offset of the step's first transmitted bit
    /// in the punctured stream.
    step_desc: Vec<u32>,
}

impl TrellisPlan {
    /// Builds the plan for decoding `n_tx` transmitted bits at `rate`.
    /// `n_tx` must be a whole number of puncturing periods. Prefer the
    /// interned [`trellis_plan`] on hot paths.
    pub fn new(rate: CodeRate, n_tx: usize) -> TrellisPlan {
        let steps = rate.n_inputs(n_tx);
        let (ka, kb) = rate.pattern();
        let period = ka.len();
        let mut step_desc = Vec::with_capacity(steps);
        let mut off: u32 = 0;
        for t in 0..steps {
            let ph = t % period;
            let a = ka[ph] as u32;
            let b = kb[ph] as u32;
            step_desc.push((off << 2) | (b << 1) | a);
            off += a + b;
        }
        debug_assert_eq!(off as usize, n_tx);
        TrellisPlan { rate, n_tx, steps, step_desc }
    }

    /// The code rate the plan was built for.
    pub fn rate(&self) -> CodeRate {
        self.rate
    }

    /// Transmitted (punctured) bits per decode.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Trellis steps (= information bits recovered) per decode.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Decodes the packed punctured `target` stream into `out` (resized
    /// to one bit per trellis step), with optional per-transmitted-bit mismatch
    /// weights (missing weights default to 1) — bit-identical to the
    /// reference decoder. When `terminate` is true the survivor must end
    /// in state 0.
    ///
    /// One kernel serves every decode: `u16` path metrics, renormalized
    /// every `RENORM_INTERVAL` steps (8 SIMD lanes per compare). They
    /// hold the reference decoder's integers up to a common,
    /// comparison-preserving offset, so the output is the same bits.
    ///
    /// # Panics
    ///
    /// If `target` does not hold the plan's `n_tx` bits, if `weights` is
    /// not one weight per transmitted bit, or if any weight exceeds
    /// [`MAX_WEIGHT`] — the bound that keeps the narrow metrics exact.
    ///
    /// Allocation-free at steady state: only `scratch` / `out` growth
    /// allocates.
    pub fn decode_into(
        &self,
        target: &BitVec,
        weights: Option<&[u32]>,
        terminate: bool,
        scratch: &mut PackedScratch,
        out: &mut BitVec,
    ) {
        assert_eq!(target.len(), self.n_tx, "target length must match the plan");
        if let Some(w) = weights {
            assert_eq!(w.len(), target.len(), "one weight per transmitted bit");
            let w_max = w.iter().copied().max().unwrap_or(0);
            assert!(
                w_max <= MAX_WEIGHT,
                "weight {w_max} exceeds trellis::MAX_WEIGHT ({MAX_WEIGHT})"
            );
        }
        out.resize(self.steps);
        if self.steps == 0 {
            return;
        }
        bluefi_dsp::contracts::ensure_len(&mut scratch.survivors, self.steps, 0u64);
        let PackedScratch { cur, nxt, survivors } = scratch;
        let survivors = &mut survivors[..self.steps];
        let start = match weights {
            Some(w) => self.acs(target, |i| w[i] as u16, cur, nxt, survivors, terminate),
            None => self.acs(target, |_| 1, cur, nxt, survivors, terminate),
        };
        // Walk the packed survivor history backward, emitting one decoded
        // bit per step. The decision bit of a destination state *is* the
        // low bit of its predecessor: `prev = ((state & 31) << 1) | bit`.
        // Decoded bits shift into a word from the top, which is written
        // whole when the walk reaches its first step.
        let mut state = start;
        let mut acc = 0u64;
        for (t, &word) in survivors.iter().enumerate().rev() {
            acc = acc << 1 | (state >> 5) as u64;
            if t % 64 == 0 {
                out.store(t, acc, (self.steps - t).min(64));
                acc = 0;
            }
            let bit = (word >> state) & 1;
            state = ((state & 31) << 1) | bit as usize;
        }
    }

    /// The forward add–compare–select sweep; returns the traceback's
    /// start state.
    ///
    /// The kernel leans on a symmetry of the (133,171) generators: both
    /// polynomials tap the current input (window bit 6) *and* the oldest
    /// state bit (window bit 0), so toggling either the input bit or the
    /// predecessor parity flips **both** output bits —
    /// `CODES[1][j] = CODES[0][j] ^ 3` and `CODES[k][j + 32] = CODES[k][j] ^ 3`
    /// (pinned by a unit test below). With per-step emission costs
    /// `ca0/ca1` (for output A = 0/1) and `cb0/cb1`, the four branch
    /// metrics of a butterfly therefore collapse to one value `x` (cost of
    /// the even predecessor's code) and its complement `tot − x` where
    /// `tot = ca0 + ca1 + cb0 + cb1` — no table lookups inside the loop,
    /// and the per-lane select reads compile-time-constant masks
    /// ([`AMASK`]/[`BMASK`]), which keeps the whole butterfly loop
    /// branchless and auto-vectorizable.
    ///
    /// Tie-breaks use `odd < even`, so ties select the even predecessor —
    /// matching the reference decoder, which visits predecessors ascending
    /// and replaces only on strictly smaller metric. The final-state argmin
    /// scans ascending with a strict compare (first minimum), mirroring the
    /// reference `min_by_key`. Unreachable states decay from the
    /// [`INF16`] sentinel within `MEMORY` steps (state 0 reaches every
    /// state in 6 transitions), so no clamp is needed: sentinel-rooted
    /// metrics stay strictly above every reachable metric while they exist
    /// (see [`MAX_WEIGHT`]).
    fn acs(
        &self,
        target: &BitVec,
        weight_of: impl Fn(usize) -> u16,
        cur: &mut Box<[u16; NUM_STATES]>,
        nxt: &mut Box<[u16; NUM_STATES]>,
        survivors: &mut [u64],
        terminate: bool,
    ) -> usize {
        /// One trellis step: 32 butterflies (destinations `j` for input 0
        /// and `j + 32` for input 1 share predecessors `2j` and `2j + 1`,
        /// loaded once), with the even-predecessor branch cost supplied by
        /// `x_of` so rate-punctured steps that transmit a single bit (4 of
        /// every 5 at R5/6, the BlueFi hot path) pay for one mask chain
        /// instead of two. Everything inside is constant-mask arithmetic,
        /// a compare, and a select — branchless, cross-iteration-independent,
        /// lane-parallel. Returns the packed survivor word.
        #[inline(always)]
        fn step<F: Fn(usize) -> u16>(
            c: &[u16; NUM_STATES],
            n: &mut [u16; NUM_STATES],
            tot: u16,
            x_of: F,
        ) -> u64 {
            // Decision masks land in `u32` cells: survivor-word lane
            // width, and — measured — the vector factor this pins is the
            // fastest configuration (wider factors push the stride-2
            // metric loads into scalar gathers that cost more than the
            // extra lanes recover).
            let mut take_lo = [0u32; NUM_STATES / 2];
            let mut take_hi = [0u32; NUM_STATES / 2];
            for j in 0..NUM_STATES / 2 {
                let x = x_of(j);
                let y = tot - x;
                let m0 = c[2 * j];
                let m1 = c[2 * j + 1];
                let lo0 = m0 + x;
                let lo1 = m1 + y;
                // Every metric stays below the signed midpoint (see
                // `MAX_WEIGHT`), so the signed compare is the unsigned
                // one — minus the SIMD sign-bias fixups.
                let tl = (lo1 as i16) < (lo0 as i16); // tie -> even
                n[j] = if tl { lo1 } else { lo0 };
                let hi0 = m0 + y;
                let hi1 = m1 + x;
                let th = (hi1 as i16) < (hi0 as i16);
                n[NUM_STATES / 2 + j] = if th { hi1 } else { hi0 };
                take_lo[j] = if tl { u32::MAX } else { 0 };
                take_hi[j] = if th { u32::MAX } else { 0 };
            }
            // Fold the decision masks into the survivor word: two pure OR
            // reductions over constant lane bits, which the vectorizer
            // keeps in SIMD accumulators.
            let mut lo_word = 0u32;
            for j in 0..NUM_STATES / 2 {
                lo_word |= take_lo[j] & LANE_BIT[j];
            }
            let mut hi_word = 0u32;
            for j in 0..NUM_STATES / 2 {
                hi_word |= take_hi[j] & LANE_BIT[j];
            }
            lo_word as u64 | (hi_word as u64) << (NUM_STATES / 2)
        }

        cur.fill(INF16);
        cur[0] = 0; // 802.11 convention: the encoder starts at state 0
        for (t, &desc) in self.step_desc.iter().enumerate() {
            let off = (desc >> 2) as usize;
            let keep_a = desc & 1 != 0;
            let keep_b = desc & 2 != 0;
            let c = &**cur;
            let n = &mut **nxt;
            // Erasures (stolen positions) cost zero: an absent side simply
            // drops out of the even-predecessor cost. The target-bit mask
            // XOR flips "code bit set" into "code bit wrong", so the cost
            // is `weight` exactly on mismatch.
            survivors[t] = match (keep_a, keep_b) {
                (true, true) => {
                    let wa = weight_of(off);
                    let ta = if target.get(off) { u16::MAX } else { 0 };
                    let wb = weight_of(off + 1);
                    let tb = if target.get(off + 1) { u16::MAX } else { 0 };
                    step(c, n, wa + wb, |j| (wa & (AMASK[j] ^ ta)) + (wb & (BMASK[j] ^ tb)))
                }
                (true, false) => {
                    let wa = weight_of(off);
                    let ta = if target.get(off) { u16::MAX } else { 0 };
                    step(c, n, wa, |j| wa & (AMASK[j] ^ ta))
                }
                (false, true) => {
                    let wb = weight_of(off);
                    let tb = if target.get(off) { u16::MAX } else { 0 };
                    step(c, n, wb, |j| wb & (BMASK[j] ^ tb))
                }
                (false, false) => step(c, n, 0, |_| 0),
            };
            std::mem::swap(cur, nxt);
            // Renormalize: shifting every metric by the same constant
            // changes no comparison (so survivors, tie-breaks, and the
            // final argmin are untouched) and keeps the narrow metrics
            // inside their overflow bound — see `MAX_WEIGHT` for the proof.
            if (t + 1) % RENORM_INTERVAL == 0 {
                let mn = cur.iter().copied().fold(u16::MAX, u16::min);
                for m in cur.iter_mut() {
                    *m -= mn;
                }
            }
        }
        if terminate {
            0
        } else {
            // First minimal metric, ascending — the reference argmin.
            let mut best = cur[0];
            let mut state = 0usize;
            for (i, &m) in cur.iter().enumerate() {
                if m < best {
                    best = m;
                    state = i;
                }
            }
            state
        }
    }
}

type PlanKey = (usize, CodeRate);
type PlanCache = Mutex<HashMap<PlanKey, Arc<TrellisPlan>>>;

fn cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the interned plan for decoding `n_tx` transmitted bits at
/// `rate`, building it on first use — the same size-keyed idiom as the
/// FFT plan cache. Construction happens under the intern lock, so
/// concurrent first-users of one key all receive the *same* `Arc` (no
/// lost-race duplicates); plans are never evicted. A cache hit performs
/// no heap allocation.
pub fn trellis_plan(rate: CodeRate, n_tx: usize) -> Arc<TrellisPlan> {
    // A poisoned lock only means another thread panicked mid-insert; the
    // map is still structurally sound, so recover rather than propagate.
    let mut map = cache().lock().unwrap_or_else(|p| p.into_inner());
    Arc::clone(
        map.entry((n_tx, rate))
            .or_insert_with(|| Arc::new(TrellisPlan::new(rate, n_tx))),
    )
}

/// Number of trellis plans currently interned (observability/test hook).
pub fn interned_plan_count() -> usize {
    cache().lock().unwrap_or_else(|p| p.into_inner()).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::{transition_next, transition_output};

    #[test]
    fn code_tables_match_the_encoder() {
        for ns in 0..NUM_STATES {
            let input = ns >> 5 == 1;
            let even = (ns & 31) << 1;
            for (side, (codes, pred)) in CODES.iter().zip([even, even | 1]).enumerate() {
                assert_eq!(
                    transition_next(pred as u8, input) as usize,
                    ns,
                    "predecessor arithmetic"
                );
                let (a, b) = transition_output(pred as u8, input);
                let code = ((a as u8) << 1) | b as u8;
                assert_eq!(codes[ns], code, "ns {ns} side {side}");
            }
        }
    }

    #[test]
    fn code_symmetry_backs_the_folded_kernel() {
        // Both (133,171) generators tap window bits 0 and 6, so flipping
        // the predecessor parity or the input bit flips BOTH output bits.
        // The ACS kernel derives all four butterfly branch costs from this.
        for j in 0..NUM_STATES / 2 {
            assert_eq!(CODES[1][j], CODES[0][j] ^ 3, "odd predecessor, j {j}");
            for (k, codes) in CODES.iter().enumerate() {
                assert_eq!(codes[j + 32], codes[j] ^ 3, "input flip, j {j} side {k}");
            }
        }
        // And the const masks are exactly the even-predecessor code bits.
        for j in 0..NUM_STATES / 2 {
            assert_eq!(AMASK[j] == u16::MAX, CODES[0][j] & 2 != 0);
            assert_eq!(BMASK[j] == u16::MAX, CODES[0][j] & 1 != 0);
        }
    }

    #[test]
    fn plan_arithmetic_covers_every_transmitted_bit() {
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56] {
            let n_tx = rate.period_outputs() * 7;
            let plan = TrellisPlan::new(rate, n_tx);
            assert_eq!(plan.n_tx(), n_tx);
            assert_eq!(plan.steps(), rate.n_inputs(n_tx));
            // Offsets must be dense and strictly increasing by the keep count.
            let mut expect = 0u32;
            for &desc in &plan.step_desc {
                assert_eq!(desc >> 2, expect);
                expect += (desc & 1) + ((desc >> 1) & 1);
            }
            assert_eq!(expect as usize, n_tx);
        }
    }

    #[test]
    fn empty_plan_decodes_to_empty() {
        let plan = TrellisPlan::new(CodeRate::R12, 0);
        let mut scratch = PackedScratch::new();
        let mut out = BitVec::from_bools(&[true; 3]);
        plan.decode_into(&BitVec::new(), None, false, &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds trellis::MAX_WEIGHT")]
    fn weight_above_the_bound_is_rejected() {
        let rate = CodeRate::R12;
        let n_tx = rate.period_outputs() * 4;
        let plan = TrellisPlan::new(rate, n_tx);
        let mut weights = vec![MAX_WEIGHT; n_tx];
        weights[n_tx / 2] = MAX_WEIGHT + 1;
        let (target, mut out) = (BitVec::zeros(n_tx), BitVec::new());
        plan.decode_into(&target, Some(&weights), false, &mut PackedScratch::new(), &mut out);
    }
}
