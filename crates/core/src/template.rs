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
//! Every stage the patch path skips or splices is a running sum resumed
//! from a stored value, *local*, or *GF(2)-linear with bounded memory*:
//!
//! * **Phase** — the cumulative GFSK phase is a running sum, so phase
//!   sample `t` depends only on the bits whose pulses reach the frequency
//!   samples before `t`. Every sample before
//!   [`GfskParams::first_sample_of_bit`](bluefi_bt::gfsk::GfskParams::first_sample_of_bit)
//!   of the first mutated bit is the base payload's, to the bit. The
//!   template keeps the un-offset accumulator at each bit boundary (one
//!   `f64` per bit), and the patch resumes the one accumulation loop
//!   ([`GfskScratch::resume_phase_into`](bluefi_bt::gfsk::GfskScratch::resume_phase_into))
//!   at a boundary before that sample: the same operations in the same
//!   order as the cold modulation, so every resumed sample is the cold
//!   path's `f64`.
//! * **CP extension, pocket map, FFT, quantization, deinterleave** — all
//!   per-symbol-local. OFDM symbol `b` reads extended phase
//!   `[b·bl, (b+1)·bl]`, so every symbol before the first one whose window
//!   reaches the first changed sample keeps the template's coded bits and
//!   error; that symbol and every later one are pocket-mapped and
//!   requantized. (Past the mutation the running sum has moved, so no
//!   later symbol can be assumed clean.)
//! * **FEC reversal** — the real-time decoder is a replay of a fixed GF(2)
//!   elimination. [`bluefi_coding::realtime::RealtimePlan::redecode_suffix`]
//!   replays only the rows sourced at or after the first changed coded bit
//!   against a saved checkpoint, returning the first information bit that
//!   can differ; everything below it is copied.
//! * **Descramble/pack** — a function of the decoded bits and the seed
//!   alone, so the patch ends in the cold chain's own PSDU tail: the
//!   forced-bit census and
//!   [`extract_psdu_packed`](crate::reversal::extract_psdu_packed) over the
//!   whole decode.
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
//! Patching requires [`DecodeStrategy::Realtime`] (the suffix-replayable
//! decoder) and the paper's [`PocketMode::PaperSplit`] CP construction.
//! Any other configuration is counted as a bypass and delegated to the
//! cold engine unchanged.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cp::PocketMode;
use crate::pipeline::{BlueFi, Synthesis, SynthesisScratch};
use crate::reversal::{free_edge, DecodeStrategy};
use crate::telemetry::{self, Counter, Gauge, SpanKind};
use bluefi_coding::realtime::{realtime_plan, FreeEdge, RealtimeCheckpoint};
use bluefi_dsp::bits::BitVec;
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
/// from. Its bit streams are packed ([`BitVec`]), so a 31-byte advert's
/// template holds about 18 KB, most of it the coded stream, the
/// checkpoint and the flip bitmap at one bit per coded or information bit.
#[derive(Debug)]
pub struct Template {
    /// The base payload bits (locates the first mutated bit, which bounds
    /// the phase suffix that needs recomputing).
    bits: Vec<bool>,
    /// The base payload's un-offset GFSK accumulator at each bit boundary
    /// (`bits.len() + 1` values): where the patch resumes the phase.
    bit_acc: Vec<f64>,
    /// Full base coded stream (the bits of the symbols before the first
    /// changed one are copied from here).
    coded: BitVec,
    /// Per-symbol in-band quantization error, in pipeline order (the mean
    /// is re-summed with patched entries substituted, preserving the cold
    /// path's addition order exactly).
    errs: Vec<f64>,
    /// Saved real-time decode state of `coded`, under the plan
    /// [`free_edge`] picks for the key's subcarrier.
    ckpt: RealtimeCheckpoint,
    /// The base decode's flips as a bitmap over the coded positions (the
    /// suffix re-encode splices after the ones below its start).
    flips: BitVec,
}

impl Template {
    /// Approximate heap footprint, in bytes (the store's budget unit).
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Template>()
            + self.bits.capacity()
            + self.bit_acc.capacity() * 8
            + self.coded.bytes()
            + self.errs.capacity() * 8
            + self.ckpt.bytes()
            + self.flips.bytes()
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

/// Per-worker buffers for [`CachedEngine`]: the cold pipeline's
/// [`SynthesisScratch`] (the miss path runs the cold pipeline through it;
/// the hit path reuses its buffers for the patch), under the name engine
/// callers spell. One per thread, never shared; after warmup a cache-hit
/// packet performs zero heap allocations.
pub type CachedScratch = SynthesisScratch;

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

    /// Whether requests can be served from templates at all: the real-time
    /// decoder and the paper's CP construction must be selected. Requests
    /// on an ineligible engine are counted as bypasses and delegated
    /// unchanged. The scratch is not consulted; the parameter keeps the
    /// signature callers use.
    pub fn cache_eligible(&self, _scratch: &mut CachedScratch) -> bool {
        self.bf.strategy == DecodeStrategy::Realtime && self.bf.cp.pocket == PocketMode::PaperSplit
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
            return self.bf.synthesize_at_with(bt_bits, plan, seed, scratch);
        }
        let key = TemplateKey::new(&plan, seed, bt_bits.len());
        if let Some(tpl) = self.store.get(&key) {
            telemetry::incr(Counter::TemplateHit);
            return self.patch(&tpl, bt_bits, plan, seed, scratch);
        }
        telemetry::incr(Counter::TemplateMiss);
        // Build outside any shard lock: concurrent first-users of one key
        // may race to build, but insert is idempotent (last write wins) and
        // every build is bit-identical.
        self.build(key, bt_bits, plan, seed, scratch)
    }

    /// Miss path: run the cold pipeline and, between its FEC reversal and
    /// its PSDU tail, capture everything the patch path will splice from.
    /// The cold pass already recorded the bit-boundary accumulators, the
    /// coded stream, the per-symbol errors and the flips, and it leaves the
    /// raw real-time decode with the decoder's propagated state in the
    /// scratch, which is the checkpoint — nothing is decoded twice.
    fn build<'s>(
        &self,
        key: TemplateKey,
        bt_bits: &[bool],
        plan: ChannelPlan,
        seed: u8,
        s: &'s mut SynthesisScratch,
    ) -> &'s Synthesis {
        // The build span encloses the cold synthesis, so a miss packet's
        // causal trace roots at `template_build` with the five pipeline
        // phases (under `synthesize`) as descendants.
        let _sp = telemetry::span(SpanKind::TemplateBuild);
        let _span_total = telemetry::span(SpanKind::Synthesize);
        self.bf.reverse_at_with(bt_bits, plan, s);
        let mut ckpt = RealtimeCheckpoint::new();
        realtime_plan(s.coded.len(), free_edge(plan.tx_subcarrier)).save_checkpoint(
            s.vit.realtime_scratch(),
            &s.scrambled,
            &mut ckpt,
        );
        let mut flips = BitVec::zeros(s.coded.len());
        for &f in &s.flips {
            flips.set(f, true);
        }
        let tpl = Template {
            bits: bt_bits.to_vec(),
            bit_acc: s.gfsk.bit_accumulators().to_vec(),
            coded: s.coded.clone(),
            errs: s.errs.clone(),
            ckpt,
            flips,
        };
        self.store.insert(key, Arc::new(tpl));
        s.finish(plan, self.bf.strategy.mcs(), seed, s.errs.len())
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
        let gfsk = &self.bf.gfsk;
        let offset_hz = plan.tx_subcarrier * SUBCARRIER_SPACING_HZ;

        // Trace-only sub-stage spans reuse the pipeline-phase kinds so a
        // patched packet's causal trace shows the same five-phase shape as
        // a cold one — without feeding the aggregate phase histograms
        // (patch stages are orders of magnitude cheaper and would distort
        // the per-stage statistics). The fifth, the PSDU tail, is the cold
        // chain's own code on a full-length decode, so it runs under the
        // cold `descramble_extract` span and feeds its histogram.
        let sp_gfsk = telemetry::trace_span(SpanKind::Gfsk);

        // 1. Resume the phase. Every phase sample before the first mutated
        // bit's first sample is the base payload's. OFDM symbol b reads
        // extended phase [b·bl, (b+1)·bl] inclusive (the +1 is the
        // windowing lookahead), so `b_first`, the first symbol whose window
        // reaches that sample, is the first that can change. The
        // accumulation resumes at the last bit boundary at or before
        // b_first·bl (bit 0, guard included, when that is inside the
        // leading guard), from the template's accumulator there.
        let bl = self.bf.cp.block_len();
        let n_symbols = tpl.errs.len();
        let b_first = match bt_bits.iter().zip(&tpl.bits).position(|(a, b)| a != b) {
            Some(d) => gfsk.first_sample_of_bit(d).div_ceil(bl).saturating_sub(1),
            None => n_symbols, // identical payload: nothing changes
        };
        let sps = gfsk.sps();
        let first_bit =
            ((b_first * bl).saturating_sub(gfsk.guard_bits * sps) / sps).min(bt_bits.len());
        s.gfsk.resume_phase_into(
            bt_bits,
            gfsk,
            offset_hz,
            first_bit,
            tpl.bit_acc[first_bit],
            &mut s.phase,
        );
        drop(sp_gfsk);

        // 2. Extension and pocket map of the blocks from `b_first` on
        // (the cold path's code; earlier blocks are never read, so neither
        // step writes them).
        {
            let _sp_pocket = telemetry::trace_span(SpanKind::CpCompat);
            let freq = offset_hz / gfsk.sample_rate_hz;
            self.bf.cp.extend_into(&s.phase, freq, b_first * bl, &mut s.theta_ext);
            self.bf.cp.pocket_map_into(&s.theta_ext, b_first, &mut s.theta_hat);
        }
        let mut sp_requant = telemetry::trace_span(SpanKind::Quantize);

        // 3. Symbols before `b_first` keep the template's coded bits and
        // errors; every later one goes through the cold chain's
        // per-symbol step.
        let mcs = self.bf.strategy.mcs();
        let ncbps = mcs.coded_bits_per_symbol();
        s.coded.resize(tpl.coded.len());
        s.coded.copy_prefix_from(&tpl.coded, b_first * ncbps);
        bluefi_dsp::contracts::ensure_len_keeping(&mut s.errs, n_symbols, 0.0);
        s.errs[..b_first].copy_from_slice(&tpl.errs[..b_first]);
        for b in b_first..n_symbols {
            s.quantize_symbol(&self.bf, plan.tx_subcarrier, b);
        }
        let requantized = n_symbols - b_first;
        sp_requant.set_detail(requantized as u64);
        drop(sp_requant);
        let mut sp_fec = telemetry::trace_span(SpanKind::FecReversal);

        // 4. FEC reversal: suffix-incremental for Front-edge plans; Back
        // lacks the prefix structure, so it replays the (still cached) full
        // elimination — slower but identical.
        let t_start = b_first * ncbps;
        let edge = free_edge(plan.tx_subcarrier);
        let rt_plan = realtime_plan(tpl.coded.len(), edge);
        let replayed_from = match edge {
            FreeEdge::Front => {
                let b_bound = rt_plan.redecode_suffix(
                    &s.coded,
                    t_start,
                    &tpl.ckpt,
                    s.vit.realtime_scratch(),
                    &mut s.scrambled,
                );
                rt_plan.reencode_flips_suffix(
                    &s.scrambled,
                    &s.coded,
                    b_bound,
                    t_start,
                    &tpl.flips,
                    s.vit.realtime_scratch(),
                    &mut s.flips,
                );
                t_start
            }
            FreeEdge::Back => {
                rt_plan.decode_into(
                    &s.coded,
                    s.vit.realtime_scratch(),
                    &mut s.scrambled,
                    &mut s.flips,
                );
                0
            }
        };
        sp_fec.set_detail(rt_plan.replayed_rows_from(replayed_from) as u64);
        drop(sp_fec);

        // 5. The cold chain's PSDU tail.
        s.finish(plan, mcs, seed, requantized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
    use bluefi_wifi::channels::plan_channel;

    fn fleet_engine() -> CachedEngine {
        CachedEngine::new(BlueFi { strategy: DecodeStrategy::Realtime, ..Default::default() })
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

    /// Payloads that patch `beacon(0)`'s template at its edges: the first
    /// bit; bit 1, whose first phase sample falls in OFDM symbol 0, so the
    /// resume starts at sample 0, before the guard; the last bit; and the
    /// unchanged payload (no first differing bit).
    fn edge_payloads() -> Vec<(String, Vec<bool>)> {
        let symbol_0_window = BlueFi::default().cp.block_len();
        assert!(bluefi_bt::gfsk::GfskParams::default().first_sample_of_bit(1) <= symbol_0_window);
        let base = beacon(0);
        let last = base.len() - 1;
        let mut v: Vec<(String, Vec<bool>)> = [0, 1, last]
            .into_iter()
            .map(|i| {
                let mut bits = base.clone();
                bits[i] ^= true;
                (format!("flip bit {i}"), bits)
            })
            .collect();
        v.push(("identical payload".into(), base));
        v
    }

    #[test]
    fn patch_equals_cold_for_counter_mutations() {
        let engine = fleet_engine();
        let cold = engine.config().clone();
        let plan = plan_channel(2.426e9).unwrap();
        let mut scratch = CachedScratch::new();
        let counters = (0..8u8).map(|c| (format!("counter {c}"), beacon(c)));
        for (ctx, bits) in counters.chain(edge_payloads()) {
            let want = cold.synthesize_at(&bits, plan, 71);
            let got = engine.synthesize_at_with(&bits, plan, 71, &mut scratch);
            assert_eq!(got.psdu, want.psdu, "{ctx}");
            assert_eq!(got.flips, want.flips, "{ctx}");
            assert_eq!(got.forced_bits, want.forced_bits, "{ctx}");
            assert_eq!(got.n_symbols, want.n_symbols);
            assert_eq!(
                got.mean_quant_error_db.to_bits(),
                want.mean_quant_error_db.to_bits(),
                "{ctx}"
            );
        }
        assert_eq!(engine.store().len(), 1, "one template for the whole fleet");
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
        let counters = [0u8, 9, 200].map(|c| (format!("counter {c}"), beacon(c)));
        for (ctx, bits) in counters.into_iter().chain(edge_payloads()) {
            let want = cold.synthesize_at(&bits, plan, 1);
            let got = engine.synthesize_at_with(&bits, plan, 1, &mut scratch);
            assert_eq!(got.psdu, want.psdu, "{ctx}");
            assert_eq!(got.flips, want.flips, "{ctx}");
            assert_eq!(got.forced_bits, want.forced_bits, "{ctx}");
            assert_eq!(
                got.mean_quant_error_db.to_bits(),
                want.mean_quant_error_db.to_bits(),
                "{ctx}"
            );
        }
    }

    /// A 31-byte-AdvData advert, the largest legacy advertisement.
    fn long_beacon(counter: u8) -> Vec<bool> {
        let mut data: Vec<u8> = (100..131).collect();
        data[15] = counter;
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address: [1, 2, 3, 4, 5, 6],
            adv_data: data,
            tx_add: false,
        };
        adv_air_bits(&pdu, 38)
    }

    #[test]
    fn patch_through_a_dirty_scratch_equals_cold() {
        // The patch writes only the buffer suffixes it reads. Leave every
        // scratch buffer dirty from a longer, then a shorter, packet before
        // each patch: the result must still be the cold synthesis in every
        // field, on both decoder edges.
        let engine = fleet_engine();
        let cold = engine.config().clone();
        let short: Vec<bool> = beacon(0)[..200].to_vec();
        let mut scratch = CachedScratch::new();
        for plan in [plan_channel(2.426e9).unwrap(), ChannelPlan::pinned(6, -3.0)] {
            engine.synthesize_at_with(&beacon(0), plan, 71, &mut scratch);
            for (i, dirt) in [long_beacon(7), short.clone()].iter().enumerate() {
                cold.synthesize_at_with(dirt, plan, 9, &mut scratch);
                let bits = beacon(40 + i as u8);
                let want = cold.synthesize_at(&bits, plan, 71);
                let got = engine.synthesize_at_with(&bits, plan, 71, &mut scratch);
                let ctx = format!("{} after dirt {i}", plan.tx_subcarrier);
                assert_eq!(got.psdu, want.psdu, "{ctx}");
                assert_eq!(got.plan, want.plan, "{ctx}");
                assert_eq!(got.mcs, want.mcs, "{ctx}");
                assert_eq!(got.seed, want.seed, "{ctx}");
                assert_eq!(got.n_symbols, want.n_symbols, "{ctx}");
                assert_eq!(got.flips, want.flips, "{ctx}");
                assert_eq!(got.forced_bits, want.forced_bits, "{ctx}");
                assert_eq!(
                    got.mean_quant_error_db.to_bits(),
                    want.mean_quant_error_db.to_bits(),
                    "{ctx}"
                );
            }
        }
        assert_eq!(engine.store().len(), 2, "every request after the first patched");
    }

    #[test]
    fn advert_template_stays_packed() {
        // A 31-byte advert's template: packed streams keep it near 18 KB
        // (126,880 B when they were `bool` and `usize` vectors).
        let engine = fleet_engine();
        let plan = plan_channel(2.426e9).unwrap();
        let bits = long_beacon(0);
        engine.synthesize_at_with(&bits, plan, 71, &mut CachedScratch::new());
        let tpl = engine.store().get(&TemplateKey::new(&plan, 71, bits.len())).unwrap();
        assert!(tpl.bytes() <= 32 * 1024, "template holds {} bytes", tpl.bytes());
        assert_eq!(engine.store().bytes_resident(), tpl.bytes());
    }

    #[test]
    fn ineligible_configs_bypass_the_cache() {
        // Default (weighted-Viterbi) config: every request must bypass.
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
