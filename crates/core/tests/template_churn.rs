//! CLOCK eviction under concurrent churn: several threads hammer one
//! small-capacity `CachedEngine` with a mix of hot (hit) and rotating
//! cold (miss → insert → evict) keys, asserting the resident-bytes
//! accounting never exceeds the configured capacity and the hit / miss /
//! evict / bypass counters reconcile exactly with the work submitted.
//!
//! The test lives in its own integration binary: it flips the process-wide
//! telemetry level and reads global counters, so it must not share a
//! process with other telemetry-sensitive tests.

use bluefi_core::telemetry::{self, Counter, Gauge, Level};
use bluefi_core::{BlueFi, CachedEngine, CachedScratch, DecodeStrategy};
use bluefi_wifi::channels::plan_channel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Mirrors `template.rs`'s private shard count: the byte budget divides
/// across 16 shards, so per-shard budgets (and with them the
/// never-exceeds-capacity invariant) scale from the total below.
const STORE_SHARDS: usize = 16;

/// Distinct template keys (seed-varied) — more keys than shards, so some
/// shards must hold two contenders and evict under CLOCK.
const KEYS: usize = 24;

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 24;

fn fleet_bf() -> BlueFi {
    BlueFi { strategy: DecodeStrategy::Realtime, ..Default::default() }
}

fn churn_bits() -> Vec<bool> {
    (0..640).map(|i| (i * 29) % 7 < 3).collect()
}

#[test]
fn clock_eviction_survives_concurrent_churn() {
    telemetry::set_level(Level::Counters);
    telemetry::reset();

    let plan = plan_channel(2412e6).expect("BT channel 10 plans");
    let bits = churn_bits();

    // Measure one template's footprint on an unbounded engine, then build
    // the real store with room for ~1.5 templates per shard: every shard
    // fits one resident template inside budget (so the capacity bound is
    // a true invariant, not the oversized-admission escape hatch) but two
    // contenders in one shard force a CLOCK eviction.
    let probe = CachedEngine::new(fleet_bf());
    probe.synthesize_at_with(&bits, plan, 1, &mut CachedScratch::new());
    let unit = probe.store().bytes_resident();
    assert!(unit > 0, "probe build must deposit a template");

    let capacity = unit * STORE_SHARDS * 3 / 2;
    let engine = Arc::new(CachedEngine::with_capacity(fleet_bf(), capacity));
    telemetry::reset(); // drop the probe's counters; churn starts clean

    let over_capacity = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = Arc::clone(&engine);
            let over_capacity = Arc::clone(&over_capacity);
            let bits = bits.clone();
            scope.spawn(move || {
                let mut scratch = CachedScratch::new();
                for op in 0..OPS_PER_THREAD {
                    // Every third op revisits the thread's hot seed (hits
                    // unless churn evicted it); the rest rotate through
                    // the cold key space (misses + evictions). Whitening
                    // seeds are nonzero 7-bit values, hence the 1-based
                    // range.
                    let seed = if op % 3 == 0 {
                        (t + 1) as u8
                    } else {
                        (1 + (t * OPS_PER_THREAD + op) % KEYS) as u8
                    };
                    engine.synthesize_at_with(&bits, plan, seed, &mut scratch);
                    // The capacity bound must hold at every observable
                    // instant, not just at quiescence.
                    if engine.store().bytes_resident() > capacity {
                        over_capacity.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(
        over_capacity.load(Ordering::Relaxed),
        0,
        "resident bytes exceeded capacity {capacity} during churn"
    );

    let snap = telemetry::snapshot();
    let hits = snap.counter(Counter::TemplateHit);
    let misses = snap.counter(Counter::TemplateMiss);
    let evicts = snap.counter(Counter::TemplateEvict);
    let bypasses = snap.counter(Counter::TemplateBypass);
    let calls = (THREADS * OPS_PER_THREAD) as u64;

    // Every call is exactly one of hit / miss / bypass.
    assert_eq!(hits + misses + bypasses, calls, "{snap:?}");
    assert!(hits > 0, "hot keys must produce hits");
    assert!(misses > 0, "cold keys must produce misses");
    assert!(
        evicts > 0,
        "{KEYS} keys over {STORE_SHARDS} shards with ~1.5-template budgets must evict"
    );
    assert!(evicts <= misses, "can only evict what a miss inserted");

    // Residency reconciles: every resident template came from a miss that
    // wasn't evicted (same-key build races replace, never add).
    let resident_now = engine.store().len() as u64;
    assert!(resident_now >= 1);
    assert!(
        resident_now <= misses - evicts,
        "len {resident_now} vs misses {misses} - evicts {evicts}"
    );
    assert!(engine.store().bytes_resident() <= capacity);

    // The exported gauge tracks the store's own accounting.
    let gauge = telemetry::gauge(Gauge::TemplateBytesResident);
    assert!(
        gauge <= capacity as u64,
        "gauge {gauge} exceeded capacity {capacity}"
    );

    telemetry::set_level(Level::Off);
    telemetry::reset();
}
