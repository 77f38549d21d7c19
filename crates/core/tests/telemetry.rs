//! Integration tests for the telemetry recorder: histogram edge cases
//! (empty, single-sample, saturation, merge order-independence) and the
//! allocation-probe proof that steady-state recording — enabled at every
//! level, and disabled — performs zero heap allocations per packet.
//!
//! The recorder's level and counters are process-global, so every test
//! that touches them serializes on [`lock`] and restores `Level::Off`.

use bluefi_core::json::ToJson;
use bluefi_core::pipeline::{BlueFi, SynthesisScratch};
use bluefi_core::reversal::DecodeStrategy;
use bluefi_core::telemetry::{self, Counter, Histogram, Level, SpanKind};
use bluefi_core::template::{CachedEngine, CachedScratch};
use bluefi_dsp::contracts;
use bluefi_wifi::channels::plan_channel;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn empty_histogram_reports_nothing() {
    let h = Histogram::new();
    assert!(h.is_empty());
    assert_eq!(h.mean(), None);
    assert_eq!(h.percentile(50.0), None);
    assert_eq!(h.percentile(99.9), None);
    // The JSON view renders explicit nulls, not zeros, for an empty
    // histogram — downstream tooling must be able to tell "no samples"
    // from "samples of zero".
    let rendered = h.to_json().render();
    assert!(rendered.contains("\"count\":0"), "{rendered}");
    assert!(rendered.contains("\"mean\":null"), "{rendered}");
    assert!(rendered.contains("\"p50\":null"), "{rendered}");
}

#[test]
fn single_sample_is_exact_at_every_percentile() {
    let mut h = Histogram::new();
    h.record(42);
    // Log2 buckets alone would report the bucket upper bound (63); the
    // [min, max] envelope clamp makes a single sample exact everywhere.
    for p in [0.0, 1.0, 50.0, 90.0, 99.0, 100.0] {
        assert_eq!(h.percentile(p), Some(42), "p{p}");
    }
    assert_eq!(h.mean(), Some(42.0));
    assert_eq!((h.min, h.max, h.count, h.sum), (42, 42, 1, 42));
}

#[test]
fn top_bucket_saturates_instead_of_dropping() {
    let mut h = Histogram::new();
    let huge = 1u64 << 62; // beyond the 40-bucket ladder
    h.record(huge);
    h.record(u64::MAX);
    h.record(u64::MAX);
    assert_eq!(h.count, 3);
    assert_eq!(h.sum, u64::MAX, "sum saturates rather than wrapping");
    assert_eq!(h.max, u64::MAX);
    assert_eq!(h.min, huge);
    // All three landed in the saturating top bucket; percentiles stay
    // inside the exact envelope.
    assert_eq!(h.buckets[telemetry::N_BUCKETS - 1], 3);
    let p50 = h.percentile(50.0).unwrap();
    assert!((huge..=u64::MAX).contains(&p50));
}

#[test]
fn merge_is_order_independent() {
    // Deterministic value stream (splitmix-style) — no clocks, no rng dep.
    let values: Vec<u64> = (0u64..257)
        .map(|i| {
            let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xBF58_476D);
            z ^= z >> 30;
            z.wrapping_mul(0x94D0_49BB_1331_11EB) >> (i % 48)
        })
        .collect();
    // Reference: one histogram fed sequentially.
    let mut whole = Histogram::new();
    for &v in &values {
        whole.record(v);
    }
    // Partition into per-"worker" histograms, then fold in several orders.
    let parts: Vec<Histogram> = values
        .chunks(64)
        .map(|chunk| {
            let mut h = Histogram::new();
            for &v in chunk {
                h.record(v);
            }
            h
        })
        .collect();
    let fold = |order: &[usize]| {
        let mut acc = Histogram::new();
        for &i in order {
            acc.merge(&parts[i]);
        }
        acc
    };
    let n = parts.len();
    let forward = fold(&(0..n).collect::<Vec<_>>());
    let reverse = fold(&(0..n).rev().collect::<Vec<_>>());
    let interleaved = fold(&(0..n).map(|i| (i * 3) % n).collect::<Vec<_>>());
    // Bit-identical in every order — the same determinism guarantee the
    // batch engine makes for synthesis results.
    assert_eq!(forward, whole);
    assert_eq!(reverse, whole);
    assert_eq!(interleaved, whole);
}

#[test]
fn disabled_recorder_is_inert() {
    let _g = lock();
    telemetry::set_level(Level::Off);
    telemetry::reset();
    telemetry::incr(Counter::PacketsSynthesized);
    telemetry::add(Counter::SymbolsProcessed, 99);
    {
        let _sp = telemetry::span(SpanKind::Synthesize);
    }
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter(Counter::PacketsSynthesized), 0);
    assert_eq!(snap.counter(Counter::SymbolsProcessed), 0);
    assert!(snap.span_stat(SpanKind::Synthesize).is_none());
    assert!(telemetry::trace::snapshot().events.is_empty());
}

/// The acceptance criterion: steady-state synthesis performs zero heap
/// allocations per packet with telemetry recording enabled (counters and
/// causal traces) *and* disabled. The probe self-reports from the scratch
/// buffers and the trace rings; it only counts in debug builds, which is
/// what `cargo test` runs.
#[test]
fn steady_state_allocs_are_zero_at_every_level() {
    let _g = lock();
    let bf = BlueFi::default();
    let plan = plan_channel(2.426e9).expect("advertising channel plans");
    let bits: Vec<bool> = (0..368).map(|i| i % 5 == 0 || i % 11 == 3).collect();
    for level in [Level::Off, Level::Counters, Level::Trace] {
        telemetry::set_level(level);
        telemetry::reset();
        let mut scratch = SynthesisScratch::new();
        // Warm-up: grow scratch capacities.
        bf.synthesize_at_with(&bits, plan, 71, &mut scratch);
        bf.synthesize_at_with(&bits, plan, 71, &mut scratch);
        contracts::probe_reset();
        for _ in 0..8 {
            bf.synthesize_at_with(&bits, plan, 71, &mut scratch);
        }
        let allocs = contracts::probe_count();
        if contracts::enabled() {
            assert_eq!(allocs, 0, "level {:?} must not allocate after warm-up", level);
        }
        // While recording, the instrumentation must actually have fired.
        let snap = telemetry::snapshot();
        if level >= Level::Counters {
            assert_eq!(snap.counter(Counter::PacketsSynthesized), 10);
            assert!(snap.counter(Counter::SymbolsProcessed) > 0);
            let total = snap.span_stat(SpanKind::Synthesize).expect("synthesize span");
            assert_eq!(total.hist.count, 10);
            // Every pipeline phase reported under the total.
            for kind in SpanKind::pipeline_phases() {
                let stat = snap.span_stat(kind).expect("phase span");
                assert_eq!(stat.hist.count, 10, "{}", kind.name());
                assert!(stat.hist.sum <= total.hist.sum, "{}", kind.name());
            }
        }
        if level == Level::Trace {
            assert!(!telemetry::trace::snapshot().events.is_empty());
        }
    }
    telemetry::set_level(Level::Off);
    telemetry::reset();
}

/// The template-cache acceptance criterion: a cache-hit packet performs
/// zero heap allocations in steady state, at every telemetry level. The
/// warm-up loop runs the *same* mutation set the probe measures — the flip
/// list's capacity depends on the payload, so a fresh mutation could
/// legitimately grow it; the steady-state claim is about a stable fleet.
#[test]
fn cache_hit_steady_state_allocs_are_zero() {
    let _g = lock();
    let fleet_bf = BlueFi { strategy: DecodeStrategy::Realtime, ..Default::default() };
    let plan = plan_channel(2.426e9).expect("advertising channel plans");
    let base: Vec<bool> = (0..1992).map(|i| i % 5 == 0 || i % 11 == 3).collect();
    // A beacon fleet: eight counter values in the last payload byte.
    let fleet: Vec<Vec<bool>> = (0..8u8)
        .map(|c| {
            let mut bits = base.clone();
            for bit in 0..8 {
                bits[1976 + bit] ^= c >> bit & 1 == 1;
            }
            bits
        })
        .collect();
    for level in [Level::Off, Level::Counters, Level::Trace] {
        telemetry::set_level(level);
        telemetry::reset();
        // A fresh engine per level so the miss/hit ledger starts clean.
        let engine = CachedEngine::new(fleet_bf.clone());
        let mut scratch = CachedScratch::new();
        // Warm-up: build the template (miss) and patch every fleet member
        // once, growing every scratch buffer to its steady-state capacity.
        for bits in &fleet {
            engine.synthesize_at_with(bits, plan, 71, &mut scratch);
            engine.synthesize_at_with(bits, plan, 71, &mut scratch);
        }
        contracts::probe_reset();
        for bits in &fleet {
            engine.synthesize_at_with(bits, plan, 71, &mut scratch);
        }
        let allocs = contracts::probe_count();
        if contracts::enabled() {
            assert_eq!(allocs, 0, "level {:?} cache hits must not allocate", level);
        }
        if level >= Level::Counters {
            let snap = telemetry::snapshot();
            assert_eq!(snap.counter(Counter::TemplateHit), 8 + 15);
            assert_eq!(snap.counter(Counter::TemplateMiss), 1);
            assert_eq!(snap.counter(Counter::TemplateBypass), 0);
            assert!(telemetry::gauge(telemetry::Gauge::TemplateBytesResident) > 0);
            let patch = snap.span_stat(SpanKind::TemplatePatch).expect("patch span");
            assert_eq!(patch.hist.count, 8 + 15);
        }
    }
    telemetry::set_level(Level::Off);
    telemetry::reset();
}
