//! `fleet_patch`: a beacon fleet through the template cache, one thread.
//! 192 beacons on channels 38 and 39 address 384 template keys, about 1.6×
//! what the default 64 MiB store holds, so the Zipf tail keeps missing and
//! CLOCK keeps evicting while popular beacons are patched.

use crate::checks::rx_ber;
use crate::cold::{closed_loop, BER_PACKETS, BER_SEED, CHECK_PACKETS};
use crate::inputs::{Fleet, Packet};
use crate::stats::{peak_rss_mib, us, Sample};
use crate::trace::{Tracer, CAPACITY};
use crate::{Opts, Outcome};
use bluefi_core::pipeline::{BlueFi, PhaseMode, Synthesis, SynthesisScratch};
use bluefi_core::reversal::DecodeStrategy;
use bluefi_core::telemetry::{self, Counter, Level};
use bluefi_core::template::{CachedEngine, CachedScratch};
use std::hint::black_box;
use std::time::Instant;

/// Beacons in the fleet.
pub const BEACONS: usize = 192;

/// Zipf exponent of beacon popularity.
const ZIPF_S: f64 = 1.0;

/// Latency limit: one 625 µs Bluetooth slot.
const LIMIT_US: f64 = 625.0;

/// The cache-eligible configuration: real-time decoder, anchored phase.
pub fn config() -> BlueFi {
    BlueFi {
        strategy: DecodeStrategy::Realtime,
        phase: PhaseMode::Anchored,
        ..Default::default()
    }
}

/// The fleet's event stream for `seed`.
pub fn stream(seed: u64, beacons: usize) -> Fleet {
    Fleet::new(seed, beacons, ZIPF_S, &[38, 39])
}

/// Runs `fleet_patch`.
pub fn run(opts: &Opts, setup_only: bool) -> Result<Outcome, String> {
    let engine = CachedEngine::new(config());
    let mut scratch = CachedScratch::new();
    let eligible = engine.cache_eligible(&mut scratch);
    let mut fleet = stream(opts.seed, opts.size(BEACONS, 12));
    // Warm-up: every key once, least popular first, so the store starts
    // full and holds the most popular templates.
    for p in fleet.prefill() {
        black_box(engine.synthesize_at_with(&p.bits, p.plan, p.seed, &mut scratch));
    }
    let mut o = Outcome::default();
    o.put("setup_s", opts.started.elapsed().as_secs_f64(), "s");
    if setup_only {
        return Ok(o);
    }
    o.checks.check(eligible, || {
        "the fleet configuration is not cache-eligible".into()
    });
    let mut op = |p: &Packet| {
        black_box(engine.synthesize_at_with(&p.bits, p.plan, p.seed, &mut scratch));
    };
    if opts.trace {
        let base = closed_loop(opts.seconds / 3.0, &mut fleet, &mut op);
        let base_p50 = Sample::new(base.lat_us).pct(50.0);
        traced(&engine, opts, &mut fleet, &mut scratch, base_p50, &mut o);
    } else {
        closed_loop(opts.seconds, &mut fleet, op).report(&mut o, LIMIT_US);
        o.put("peak_rss_mib", peak_rss_mib()?, "MiB");
    }
    o.put(
        "template.bytes_resident",
        engine.store().bytes_resident() as f64,
        "B",
    );
    o.put("template.keys", engine.store().len() as f64, "count");
    o.put("template.keys_addressed", fleet.keys() as f64, "count");

    // The next packets of the stream: the cached engine must equal the cold
    // pipeline of the same configuration in every field.
    let mut cold = SynthesisScratch::new();
    for p in fleet.by_ref().take(opts.size(CHECK_PACKETS, 4)) {
        let got = engine
            .synthesize_at_with(&p.bits, p.plan, p.seed, &mut scratch)
            .clone();
        let want = engine
            .config()
            .synthesize_at_with(&p.bits, p.plan, p.seed, &mut cold);
        o.checks.same("template cache", &got, want);
        o.checks.psdu_len(&got);
    }
    let sample: Vec<Packet> = stream(BER_SEED, BEACONS)
        .take(opts.size(BER_PACKETS, 2))
        .collect();
    o.put("rx_ber", ber(&sample), "ratio");
    Ok(o)
}

/// Loopback BER of the fleet configuration's cold output for `sample`.
pub fn ber(sample: &[Packet]) -> f64 {
    let bf = config();
    let mut s = SynthesisScratch::new();
    let syns: Vec<Synthesis> = sample
        .iter()
        .map(|p| {
            bf.synthesize_at_with(&p.bits, p.plan, p.seed, &mut s)
                .clone()
        })
        .collect();
    rx_ber(sample, &syns)
}

/// The traced phase: each `CachedEngine::synthesize_at_with` call is one
/// `template.hit` or `template.miss` span, told apart by the template
/// counters' deltas around the call.
fn traced(
    engine: &CachedEngine,
    opts: &Opts,
    fleet: &mut Fleet,
    scratch: &mut CachedScratch,
    base_p50: f64,
    o: &mut Outcome,
) {
    let mut tracer = Tracer::new(opts.started, CAPACITY);
    let mut all_us = Vec::with_capacity(1 << 16);
    telemetry::set_level(Level::Counters);
    let count = telemetry::counter;
    let (hits0, misses0, evict0) = (
        count(Counter::TemplateHit),
        count(Counter::TemplateMiss),
        count(Counter::TemplateEvict),
    );
    let mut n = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds * 2.0 / 3.0 && tracer.has_room(1) {
        let Some(p) = fleet.next() else { break };
        let hits = count(Counter::TemplateHit);
        let t0 = Instant::now();
        black_box(engine.synthesize_at_with(&p.bits, p.plan, p.seed, scratch));
        let t1 = Instant::now();
        let name = if count(Counter::TemplateHit) > hits {
            "template.hit"
        } else {
            "template.miss"
        };
        tracer.push(name, t0, t1, None, n);
        all_us.push(us(t1 - t0));
        n += 1;
    }
    let hits = count(Counter::TemplateHit) - hits0;
    let misses = count(Counter::TemplateMiss) - misses0;
    let evictions = count(Counter::TemplateEvict) - evict0;
    telemetry::set_level(Level::Off);
    o.checks.check(hits + misses == n, || {
        format!("{n} packets but {hits} template hits and {misses} misses: some bypassed the cache")
    });
    let hit = tracer.durations_us("template.hit");
    o.put("template.hit_ratio", hits as f64 / n.max(1) as f64, "ratio");
    o.put("template.hit_p50_us", hit.pct(50.0), "us");
    o.put("template.hit_p99_us", hit.pct(99.0), "us");
    o.put(
        "template.miss_p50_us",
        tracer.durations_us("template.miss").pct(50.0),
        "us",
    );
    o.put(
        "template.evictions_per_k",
        evictions as f64 * 1e3 / n.max(1) as f64,
        "count",
    );
    let traced_p50 = Sample::new(all_us).pct(50.0);
    o.put(
        "trace.overhead_pct",
        (traced_p50 - base_p50) / base_p50 * 100.0,
        "%",
    );
    o.put("traced_packets", n as f64, "count");
    o.attempted += n;
    o.tracer = Some(tracer);
}
