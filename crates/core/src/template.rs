//! Template cache + delta synthesis for beacon fleets.
//!
//! The production workload (paper Sec 5, "millions of users") is fleets of
//! APs emitting near-identical BLE advertising beacons: one base payload
//! per (channel, seed, length) with small per-packet mutations — counters,
//! TX-power fields, rotating addresses. A full resynthesis spends
//! milliseconds per packet on work whose inputs did not change. This module
//! caches the first synthesis of each key as a **template** and services
//! subsequent mutated payloads with a **patch** that recomputes only what
//! the mutation touched, bit-exactly.
//!
//! ## Why patching is exact
//!
//! Every stage the patch path skips or splices is either *local* or
//! *GF(2)-linear with bounded memory*:
//!
//! * **Phase** — the anchored evaluator ([`bluefi_bt::anchored`]) computes
//!   each sample as a closed-form function of an integer residue and a
//!   ±3-symbol pulse window, so an unchanged window reproduces the
//!   *identical* `f64`. The patch re-evaluates the extended phase from the
//!   first mutated bit's pulse window on and finds dirty OFDM symbols by
//!   comparing raw bits of the new and templated phase — a symbol whose
//!   73-sample window matches is untouched through every later stage, by
//!   determinism of the shared code path.
//! * **CP pocket map, FFT, quantization, demap, deinterleave** — all
//!   per-symbol-local: only the symbols the refill reaches are pocket-mapped
//!   and only dirty ones are recomputed; clean symbols' coded bits are
//!   copied from the template.
//! * **FEC reversal** — the real-time decoder is a replay of a fixed GF(2)
//!   elimination. [`bluefi_coding::realtime::RealtimePlan::redecode_suffix`]
//!   replays only the rows sourced at or after the first changed coded bit
//!   against a saved checkpoint, returning the first information bit that
//!   can differ; everything below it is copied.
//! * **Descramble/pack** — the scrambler is a fixed LFSR stream with period
//!   127 (one period is rebuilt from the seed per patch), so untouched PSDU
//!   bytes are copied and the suffix is re-XORed; the forced-bit census is
//!   recounted in ~30 operations.
//!
//! ## Store
//!
//! [`TemplateStore`] is sharded by key hash over a fixed array of
//! `Mutex<Shard>` (no global lock), capacity-bounded in bytes with
//! CLOCK-style second-chance eviction per shard, and instrumented with
//! hit/miss/evict/bytes-resident telemetry. Templates are `Arc`-shared:
//! `get` clones a handle under the shard lock and the patch runs outside
//! it, so concurrent workers never serialize on synthesis.
//!
//! ## Eligibility
//!
//! Patching requires the deterministic closed-form pipeline:
//! [`DecodeStrategy::Realtime`], [`PhaseMode::Anchored`] (with GFSK
//! parameters the anchored decomposition accepts), and the paper's
//! [`PocketMode::PaperSplit`] CP construction. Any other configuration is
//! counted as a bypass and delegated to the cold engine unchanged.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cp::PocketMode;
use crate::pipeline::{BlueFi, PhaseMode, Synthesis, SynthesisScratch};
use crate::reversal::DecodeStrategy;
use crate::telemetry::{self, Counter, Gauge, SpanKind};
use bluefi_coding::lfsr::ScramblerPeriod;
use bluefi_coding::realtime::{realtime_plan, FreeEdge, RealtimeCheckpoint};
use bluefi_wifi::channels::ChannelPlan;
use bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ;

/// Number of store shards (fixed; key hash selects one).
const SHARD_COUNT: usize = 16;

/// Default store capacity: 64 MiB ≈ a few hundred beacon templates.
pub const DEFAULT_CAPACITY_BYTES: usize = 64 * 1024 * 1024;

/// The identity of one cached synthesis: everything that selects a distinct
/// digital chain besides the payload bits themselves. Payloads of equal
/// length on the same (plan, seed) share a template regardless of content —
/// that is the whole point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    wifi_channel: u8,
    subcarrier_bits: u64,
    tx_subcarrier_bits: u64,
    clearance_bits: u64,
    seed: u8,
    n_bits: usize,
}

impl TemplateKey {
    /// The key for a (plan, seed, payload-length) request.
    pub fn new(plan: &ChannelPlan, seed: u8, n_bits: usize) -> TemplateKey {
        TemplateKey {
            wifi_channel: plan.wifi_channel,
            subcarrier_bits: plan.subcarrier.to_bits(),
            tx_subcarrier_bits: plan.tx_subcarrier.to_bits(),
            clearance_bits: plan.clearance.to_bits(),
            seed,
            n_bits,
        }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARD_COUNT
    }
}

/// One cached base synthesis: the stage outputs the patch path splices
/// from, plus the base result itself.
#[derive(Debug)]
pub struct Template {
    /// The base payload bits (locates the first mutated bit, which bounds
    /// the phase suffix that needs refilling).
    bits: Vec<bool>,
    /// Anchored extended phase of the base payload (dirty detection +
    /// clean-symbol reuse).
    theta_ext: Vec<f64>,
    /// Full base coded stream (clean symbols' bits are copied from here).
    coded: Vec<bool>,
    /// Per-symbol in-band quantization error, in pipeline order (the mean
    /// is re-summed with patched entries substituted, preserving the cold
    /// path's addition order exactly).
    errs: Vec<f64>,
    /// Saved real-time decode state of `coded` (pre-forcing).
    ckpt: RealtimeCheckpoint,
    /// Which interleaver-cycle edge the decode sacrifices (from the plan's
    /// subcarrier sign; Back-edge templates use an assisted full replay).
    edge: FreeEdge,
    /// The base synthesis (metadata, PSDU prefix source, and the flip list
    /// the suffix re-encode splices after).
    base: Synthesis,
}

impl Template {
    /// Approximate heap footprint, in bytes (the store's budget unit).
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Template>()
            + self.bits.capacity()
            + self.theta_ext.capacity() * 8
            + self.coded.capacity()
            + self.errs.capacity() * 8
            + self.ckpt.bytes()
            + self.base.psdu.capacity()
            + self.base.flips.capacity() * 8
    }
}

#[derive(Debug)]
struct ShardEntry {
    key: TemplateKey,
    tpl: Arc<Template>,
    bytes: usize,
    referenced: bool,
}

#[derive(Debug, Default)]
struct Shard {
    entries: Vec<ShardEntry>,
    hand: usize,
    resident: usize,
}

/// A sharded, capacity-bounded template store with CLOCK eviction.
///
/// Keys hash to one of `SHARD_COUNT` (16) independent `Mutex<Shard>`s; the
/// byte budget is divided evenly across shards. Each `get` grants the
/// entry a second chance; eviction sweeps the clock hand, clearing
/// reference bits until it finds an unreferenced victim. A template larger
/// than a whole shard budget is still admitted (the shard transiently
/// overshoots) so a pathological capacity cannot wedge the engine.
#[derive(Debug)]
pub struct TemplateStore {
    shards: [Mutex<Shard>; SHARD_COUNT],
    shard_budget: usize,
    resident: AtomicU64,
}

impl TemplateStore {
    /// A store bounded to roughly `capacity_bytes` across all shards.
    pub fn new(capacity_bytes: usize) -> TemplateStore {
        TemplateStore {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            shard_budget: (capacity_bytes / SHARD_COUNT).max(1),
            resident: AtomicU64::new(0),
        }
    }

    /// Fetches the template for `key`, marking it recently used.
    pub fn get(&self, key: &TemplateKey) -> Option<Arc<Template>> {
        let mut shard = self.lock_shard(key.shard());
        let e = shard.entries.iter_mut().find(|e| e.key == *key)?;
        e.referenced = true;
        Some(Arc::clone(&e.tpl))
    }

    /// Inserts (or replaces) the template for `key`, evicting
    /// least-recently-referenced entries from the key's shard until the
    /// shard fits its budget.
    pub fn insert(&self, key: TemplateKey, tpl: Arc<Template>) {
        let bytes = tpl.bytes();
        let mut shard = self.lock_shard(key.shard());
        if let Some(i) = shard.entries.iter().position(|e| e.key == key) {
            let old = shard.entries.swap_remove(i);
            shard.resident -= old.bytes;
            self.resident.fetch_sub(old.bytes as u64, Ordering::Relaxed);
        }
        // CLOCK sweep: clear reference bits until an unreferenced victim
        // turns up. Terminates because a full revolution clears every bit.
        while shard.resident + bytes > self.shard_budget && !shard.entries.is_empty() {
            if shard.hand >= shard.entries.len() {
                shard.hand = 0;
            }
            let hand = shard.hand;
            if shard.entries[hand].referenced {
                shard.entries[hand].referenced = false;
                shard.hand += 1;
            } else {
                // swap_remove moves the tail entry into the hand slot, so
                // the hand stays put for the next inspection.
                let victim = shard.entries.swap_remove(hand);
                shard.resident -= victim.bytes;
                self.resident.fetch_sub(victim.bytes as u64, Ordering::Relaxed);
                telemetry::incr(Counter::TemplateEvict);
            }
        }
        shard.resident += bytes;
        self.resident.fetch_add(bytes as u64, Ordering::Relaxed);
        shard.entries.push(ShardEntry { key, tpl, bytes, referenced: true });
        telemetry::gauge_set(
            Gauge::TemplateBytesResident,
            self.resident.load(Ordering::Relaxed),
        );
    }

    /// Total bytes currently resident across all shards.
    pub fn bytes_resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed) as usize
    }

    /// Number of templates currently resident.
    pub fn len(&self) -> usize {
        (0..SHARD_COUNT).map(|i| self.lock_shard(i).entries.len()).sum()
    }

    /// Whether the store holds no templates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock_shard(&self, i: usize) -> std::sync::MutexGuard<'_, Shard> {
        // A poisoned shard only means a panic mid-update elsewhere; the
        // entries are structurally sound, so recover rather than propagate.
        self.shards[i].lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Default for TemplateStore {
    fn default() -> TemplateStore {
        TemplateStore::new(DEFAULT_CAPACITY_BYTES)
    }
}

/// Per-worker buffers for [`CachedEngine`]: wraps a [`SynthesisScratch`]
/// (the miss path runs the cold pipeline through it; the hit path reuses
/// its buffers for the patch). One per thread, never shared; after warmup
/// a cache-hit packet performs zero heap allocations.
#[derive(Debug, Default)]
pub struct CachedScratch {
    inner: SynthesisScratch,
}

impl CachedScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> CachedScratch {
        CachedScratch::default()
    }
}

/// The caching front end over [`BlueFi::synthesize_at_with`]: first
/// synthesis of a [`TemplateKey`] runs the cold pipeline and captures a
/// [`Template`]; later requests with the same key patch only what their
/// payload mutation touched. See the module docs for the exactness
/// argument.
#[derive(Debug)]
pub struct CachedEngine {
    bf: BlueFi,
    store: TemplateStore,
}

impl CachedEngine {
    /// An engine over `bf` with the default store capacity.
    pub fn new(bf: BlueFi) -> CachedEngine {
        CachedEngine::with_capacity(bf, DEFAULT_CAPACITY_BYTES)
    }

    /// An engine over `bf` with an explicit store capacity in bytes.
    pub fn with_capacity(bf: BlueFi, capacity_bytes: usize) -> CachedEngine {
        CachedEngine { bf, store: TemplateStore::new(capacity_bytes) }
    }

    /// The synthesis configuration this engine serves.
    pub fn config(&self) -> &BlueFi {
        &self.bf
    }

    /// The template store (for stats and tests).
    pub fn store(&self) -> &TemplateStore {
        &self.store
    }

    /// Whether requests can be served from templates at all: the
    /// deterministic closed-form pipeline must be selected. Requests on an
    /// ineligible engine are counted as bypasses and delegated unchanged.
    pub fn cache_eligible(&self, scratch: &mut CachedScratch) -> bool {
        matches!(self.bf.strategy, DecodeStrategy::Realtime)
            && self.bf.phase == PhaseMode::Anchored
            && self.bf.cp.pocket == PocketMode::PaperSplit
            && scratch.inner.anchored_for(&self.bf.gfsk).is_some()
    }

    /// Cached synthesis: bit-exact equal to
    /// `self.config().synthesize_at_with(..)` for every field of the
    /// result, whether it was served cold, built, or patched.
    pub fn synthesize_at_with<'s>(
        &self,
        bt_bits: &[bool],
        plan: ChannelPlan,
        seed: u8,
        scratch: &'s mut CachedScratch,
    ) -> &'s Synthesis {
        if !self.cache_eligible(scratch) {
            telemetry::incr(Counter::TemplateBypass);
            return self.bf.synthesize_at_with(bt_bits, plan, seed, &mut scratch.inner);
        }
        let key = TemplateKey::new(&plan, seed, bt_bits.len());
        if let Some(tpl) = self.store.get(&key) {
            telemetry::incr(Counter::TemplateHit);
            return self.patch(&tpl, bt_bits, plan, seed, &mut scratch.inner);
        }
        telemetry::incr(Counter::TemplateMiss);
        // Build outside any shard lock: concurrent first-users of one key
        // may race to build, but insert is idempotent (last write wins) and
        // every build is bit-identical.
        let tpl = self.build(bt_bits, plan, seed, &mut scratch.inner);
        self.store.insert(key, tpl);
        // lint: allow(panic) build ran the cold pipeline, which always stores a result
        scratch.inner.result.as_ref().unwrap()
    }

    /// Miss path: run the cold pipeline, then capture everything the patch
    /// path will splice from. The cold pass already recorded the coded
    /// stream and the per-symbol errors; the one extra piece of work is a
    /// re-decode for the pre-forcing checkpoint — paid once per key.
    fn build(
        &self,
        bt_bits: &[bool],
        plan: ChannelPlan,
        seed: u8,
        s: &mut SynthesisScratch,
    ) -> Arc<Template> {
        // The build span encloses the cold synthesis, so a miss packet's
        // causal trace roots at `template_build` with the five pipeline
        // phases (under `synthesize`) as descendants.
        let _sp = telemetry::span(SpanKind::TemplateBuild);
        self.bf.synthesize_at_with(bt_bits, plan, seed, s);
        // lint: allow(panic) the cold pipeline always stores a result
        let base = s.result.as_ref().unwrap().clone();
        let edge =
            if plan.tx_subcarrier >= 0.0 { FreeEdge::Front } else { FreeEdge::Back };

        // Re-decode the coded stream to capture the PRE-forcing information
        // bits (extract_psdu_into forced SERVICE/tail/pad in-place in
        // s.rev.scrambled, so that buffer is no longer the raw decode).
        let rt_plan = realtime_plan(s.coded.len(), edge);
        let decoded = &mut s.rev.scrambled;
        rt_plan.decode_into(&s.coded, s.vit.realtime_scratch(), decoded, &mut s.rev.flips);
        let mut ckpt = RealtimeCheckpoint::new();
        rt_plan.save_checkpoint(s.vit.realtime_scratch(), decoded, &mut ckpt);

        Arc::new(Template {
            bits: bt_bits.to_vec(),
            theta_ext: s.theta_ext.clone(),
            coded: s.coded.clone(),
            errs: s.errs.clone(),
            ckpt,
            edge,
            base,
        })
    }

    /// Hit path: recompute only what the payload mutation touched. Each
    /// step reuses the exact cold-path code on identical inputs, so every
    /// untouched intermediate is the identical `f64`/bit and the result is
    /// word-for-word equal to a full resynthesis.
    fn patch<'s>(
        &self,
        tpl: &Template,
        bt_bits: &[bool],
        plan: ChannelPlan,
        seed: u8,
        s: &'s mut SynthesisScratch,
    ) -> &'s Synthesis {
        let _sp = telemetry::span(SpanKind::TemplatePatch);
        let offset_cps =
            plan.tx_subcarrier * SUBCARRIER_SPACING_HZ / self.bf.gfsk.sample_rate_hz;

        // Trace-only sub-stage spans reuse the pipeline-phase kinds so a
        // patched packet's causal trace shows the same five-phase shape as
        // a cold one — without feeding the aggregate phase histograms
        // (patch stages are orders of magnitude cheaper and would distort
        // the per-stage statistics).
        let sp_splice = telemetry::trace_span(SpanKind::Gfsk);

        // 1. Splice the extended phase: every sample before the first
        // mutated bit's pulse window is float-identical to the base fill
        // (anchored closed form), and only the suffix is re-evaluated.
        // OFDM symbol b reads extended phase [b·bl, (b+1)·bl] inclusive
        // (the +1 is the windowing lookahead), so symbols below `b_scan`
        // read only unchanged samples: they are clean, and nothing below
        // their end is copied, mapped or compared.
        let bl = self.bf.cp.block_len();
        let ext_len = tpl.theta_ext.len();
        let first_diff = bt_bits.iter().zip(&tpl.bits).position(|(a, b)| a != b);
        let mut theta_ext = std::mem::take(&mut s.theta_ext);
        let filled = match s.anchored_for(&self.bf.gfsk) {
            Some(am) => {
                let t_fill = match first_diff {
                    Some(d) => am.first_sample_of_bit(d).min(ext_len),
                    None => ext_len, // identical payload: pure copy
                };
                let b_scan = t_fill.div_ceil(bl).saturating_sub(1);
                let t_copy = (b_scan * bl).min(t_fill);
                bluefi_dsp::contracts::ensure_len(&mut theta_ext, ext_len, 0.0);
                theta_ext[t_copy..t_fill].copy_from_slice(&tpl.theta_ext[t_copy..t_fill]);
                am.fill_ext_from(bt_bits, offset_cps, t_fill, &mut theta_ext);
                Some(b_scan)
            }
            None => None,
        };
        s.theta_ext = theta_ext;
        let Some(b_scan) = filled else {
            // Unreachable in practice — eligibility pinned the anchored
            // mode — but degrade to the cold engine rather than panic.
            drop(sp_splice);
            telemetry::incr(Counter::TemplateBypass);
            return self.bf.synthesize_at_with(bt_bits, plan, seed, s);
        };

        drop(sp_splice);

        // 2. Pocket map of the blocks from `b_scan` on (identical code path
        // as cold; earlier blocks are never read).
        {
            let _sp_pocket = telemetry::trace_span(SpanKind::CpCompat);
            self.bf.cp.pocket_map_into(&s.theta_ext, b_scan, &mut s.theta_hat);
        }
        let mut sp_requant = telemetry::trace_span(SpanKind::Quantize);

        // 3. Dirty scan + local requantize: a bit-identical window ⇒
        // identical symbol. Clean symbols keep the template's coded bits
        // and errors; dirty ones go through the cold chain's per-symbol
        // step.
        let n_symbols = tpl.base.n_symbols;
        let mcs = tpl.base.mcs;
        let ncbps = mcs.coded_bits_per_symbol();
        bluefi_dsp::contracts::ensure_len(&mut s.coded, tpl.coded.len(), false);
        s.coded.copy_from_slice(&tpl.coded);
        bluefi_dsp::contracts::ensure_len(&mut s.errs, n_symbols, 0.0);
        s.errs.copy_from_slice(&tpl.errs);
        let mut first_dirty: Option<usize> = None;
        let mut dirty_count = 0u64;
        for b in b_scan..n_symbols {
            let w_new = &s.theta_ext[b * bl..=(b + 1) * bl];
            let w_old = &tpl.theta_ext[b * bl..=(b + 1) * bl];
            if w_new.iter().zip(w_old).any(|(x, y)| x.to_bits() != y.to_bits()) {
                first_dirty.get_or_insert(b);
                dirty_count += 1;
                s.quantize_symbol(&self.bf, plan.tx_subcarrier, b);
            }
        }
        // Re-summed in symbol order with the patched entries substituted,
        // so the mean is the cold chain's to the bit.
        let mean_quant_error_db = s.mean_quant_error_db();
        sp_requant.set_detail(dirty_count);
        drop(sp_requant);
        let mut sp_fec = telemetry::trace_span(SpanKind::FecReversal);

        // 4. FEC reversal: suffix-incremental for Front-edge plans; Back
        // lacks the prefix structure, so it replays the (still cached) full
        // elimination — slower but identical.
        let n_tx = tpl.coded.len();
        let t_start = first_dirty.map_or(n_tx, |b| b * ncbps);
        let rt_plan = realtime_plan(n_tx, tpl.edge);
        let (mut psdu, mut flips) = match s.result.take() {
            Some(prev) => (prev.psdu, prev.flips),
            None => (Vec::new(), Vec::new()),
        };
        let byte_lo = match tpl.edge {
            FreeEdge::Front => {
                let b_bound = rt_plan.redecode_suffix(
                    &s.coded,
                    t_start,
                    &tpl.ckpt,
                    s.vit.realtime_scratch(),
                    &mut s.rev.scrambled,
                );
                rt_plan.reencode_flips_suffix(
                    &s.rev.scrambled,
                    &s.coded,
                    b_bound,
                    t_start,
                    &tpl.base.flips,
                    s.vit.realtime_scratch(),
                    &mut flips,
                );
                ((b_bound.max(16) - 16) / 8).min(tpl.base.psdu.len())
            }
            FreeEdge::Back => {
                rt_plan.decode_into(
                    &s.coded,
                    s.vit.realtime_scratch(),
                    &mut s.rev.scrambled,
                    &mut flips,
                );
                0
            }
        };
        sp_fec.set_detail(rt_plan.replayed_rows_from(match tpl.edge {
            FreeEdge::Front => t_start,
            FreeEdge::Back => 0,
        }) as u64);
        drop(sp_fec);
        let _sp_extract = telemetry::trace_span(SpanKind::Extract);

        // 5. PSDU bytes: prefix copied from the base, suffix re-descrambled
        // against one period of the seed's sequence. The PSDU region is
        // never forced, so the raw decode XOR the sequence IS the
        // extract_psdu_into output.
        let decoded = &s.rev.scrambled;
        let seq = ScramblerPeriod::new(seed);
        bluefi_dsp::contracts::ensure_len(&mut psdu, tpl.base.psdu.len(), 0u8);
        psdu[..byte_lo].copy_from_slice(&tpl.base.psdu[..byte_lo]);
        for (byte_i, slot) in psdu.iter_mut().enumerate().skip(byte_lo) {
            let at = 16 + byte_i * 8;
            let bits = &decoded[at..at + 8];
            let packed = bits.iter().enumerate().fold(0u8, |acc, (j, &b)| acc | (u8::from(b) << j));
            *slot = packed ^ seq.byte(at);
        }

        // 6. Forced-bit census over the chip-owned regions (≤ 30 positions;
        // same mismatch predicate as extract_psdu_into, order-independent).
        let n_in = decoded.len();
        let psdu_bits = (n_in - 16 - 6) / 8 * 8;
        let tail_start = 16 + psdu_bits;
        let mut forced_bits = 0;
        for i in 0..16 {
            forced_bits += usize::from(decoded[i] != seq.bit(i));
        }
        for i in tail_start..tail_start + 6 {
            forced_bits += usize::from(decoded[i]);
        }
        for i in tail_start + 6..n_in {
            forced_bits += usize::from(decoded[i] != seq.bit(i));
        }

        telemetry::incr(Counter::PacketsSynthesized);
        telemetry::add(Counter::SymbolsProcessed, dirty_count);
        telemetry::add(Counter::FecFlips, flips.len() as u64);
        telemetry::add(Counter::ForcedBits, forced_bits as u64);

        s.result = Some(Synthesis {
            psdu,
            plan,
            mcs,
            seed,
            n_symbols,
            flips,
            forced_bits,
            mean_quant_error_db,
        });
        // lint: allow(panic) assigned on the line above
        s.result.as_ref().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
    use bluefi_wifi::channels::plan_channel;

    fn fleet_engine() -> CachedEngine {
        CachedEngine::new(BlueFi {
            strategy: DecodeStrategy::Realtime,
            phase: PhaseMode::Anchored,
            ..Default::default()
        })
    }

    fn beacon(counter: u8) -> Vec<bool> {
        let mut data: Vec<u8> = (0..24).collect();
        data[23] = counter;
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address: [0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF],
            adv_data: data,
            tx_add: false,
        };
        adv_air_bits(&pdu, 38)
    }

    #[test]
    fn patch_equals_cold_for_counter_mutations() {
        let engine = fleet_engine();
        let cold = engine.config().clone();
        let plan = plan_channel(2.426e9).unwrap();
        let mut scratch = CachedScratch::new();
        for counter in 0..8u8 {
            let bits = beacon(counter);
            let want = cold.synthesize_at(&bits, plan, 71);
            let got = engine.synthesize_at_with(&bits, plan, 71, &mut scratch);
            assert_eq!(got.psdu, want.psdu, "counter {counter}");
            assert_eq!(got.flips, want.flips, "counter {counter}");
            assert_eq!(got.forced_bits, want.forced_bits, "counter {counter}");
            assert_eq!(got.n_symbols, want.n_symbols);
            assert_eq!(got.mean_quant_error_db.to_bits(), want.mean_quant_error_db.to_bits());
        }
        assert_eq!(telemetry_free_len(&engine), 1, "one template for the whole fleet");
    }

    fn telemetry_free_len(engine: &CachedEngine) -> usize {
        engine.store().len()
    }

    #[test]
    fn patch_equals_cold_on_the_back_edge() {
        // BT channel 24 → 2426 MHz sits below WiFi channel 6's center:
        // negative subcarrier, Back-edge assisted path.
        let engine = fleet_engine();
        let cold = engine.config().clone();
        let plan = plan_channel(2.426e9 + 0.0).unwrap();
        // Force a genuinely negative subcarrier via a pinned plan.
        let plan = ChannelPlan::pinned(plan.wifi_channel, -3.0);
        let mut scratch = CachedScratch::new();
        for counter in [0u8, 9, 200] {
            let bits = beacon(counter);
            let want = cold.synthesize_at(&bits, plan, 1);
            let got = engine.synthesize_at_with(&bits, plan, 1, &mut scratch);
            assert_eq!(got.psdu, want.psdu, "counter {counter}");
            assert_eq!(got.flips, want.flips, "counter {counter}");
            assert_eq!(got.forced_bits, want.forced_bits);
        }
    }

    #[test]
    fn ineligible_configs_bypass_the_cache() {
        // Default (Viterbi + cumulative) config: every request must bypass.
        let engine = CachedEngine::new(BlueFi::default());
        let plan = plan_channel(2.426e9).unwrap();
        let mut scratch = CachedScratch::new();
        let cold = engine.config().clone().synthesize_at(&beacon(0), plan, 71);
        let got = engine.synthesize_at_with(&beacon(0), plan, 71, &mut scratch);
        assert_eq!(got.psdu, cold.psdu);
        assert!(engine.store().is_empty(), "bypass must not populate the store");
    }

    #[test]
    fn store_evicts_under_pressure_and_counts_bytes() {
        let engine = fleet_engine();
        let plan = plan_channel(2.426e9).unwrap();
        // First build to learn the real template size.
        let mut scratch = CachedScratch::new();
        engine.synthesize_at_with(&beacon(0), plan, 71, &mut scratch);
        let one = engine.store().bytes_resident();
        assert!(one > 0);

        // A store that fits ~2 templates per shard: filling many distinct
        // seeds must evict rather than grow without bound.
        let small = CachedEngine::with_capacity(
            engine.config().clone(),
            one * 2 * SHARD_COUNT,
        );
        for seed in 1..=40u8 {
            small.synthesize_at_with(&beacon(0), plan, seed, &mut scratch);
        }
        assert!(
            small.store().bytes_resident() <= one * 3 * SHARD_COUNT,
            "resident {} for one-template size {one}",
            small.store().bytes_resident()
        );
        assert!(small.store().len() < 40, "eviction must have triggered");
    }

    #[test]
    fn hits_return_identical_results_across_scratches() {
        // Two workers with independent scratches, same engine: one misses,
        // one hits — identical output.
        let engine = fleet_engine();
        let plan = plan_channel(2.452e9).unwrap();
        let bits = beacon(3);
        let mut s1 = CachedScratch::new();
        let mut s2 = CachedScratch::new();
        let a = engine.synthesize_at_with(&bits, plan, 71, &mut s1).clone();
        let b = engine.synthesize_at_with(&bits, plan, 71, &mut s2).clone();
        assert_eq!(a.psdu, b.psdu);
        assert_eq!(a.flips, b.flips);
        assert_eq!(a.forced_bits, b.forced_bits);
        assert_eq!(a.mean_quant_error_db.to_bits(), b.mean_quant_error_db.to_bits());
    }
}
