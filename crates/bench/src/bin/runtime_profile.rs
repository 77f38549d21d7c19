//! Runtime profile of the synthesis hot path (paper Sec 4.8): cold
//! single-packet latency through a warm scratch and a per-stage timing
//! breakdown from the telemetry recorder, once under the default weighted
//! Viterbi and once under the configuration the template engine serves
//! (the real-time decoder), with the paper's stage × strategy
//! table and FEC speedup; steady-state allocations per packet with
//! telemetry both enabled and disabled (via the self-reporting probe in
//! `bluefi_dsp::contracts` — debug builds only); batch throughput at a
//! host-clamped worker ladder on the Fig 9 workload; and the beacon-fleet
//! template cache.
//!
//! Telemetry runs at the `counters` level unless `BLUEFI_TELEMETRY`
//! overrides it (or `--trace-out` forces `trace`); the worker ladder is
//! clamped to the host CPU count unless `BLUEFI_THREADS` overrides
//! (oversubscribed rows only measure scheduler churn).
//!
//! The recorder is reset at every section boundary (and per sweep point),
//! so each reported section's counters and spans cover only that section
//! — never cumulative totals from earlier ones.
//!
//! `--trace-out PATH` additionally captures causal per-packet traces and
//! writes them as Chrome `trace_event` JSON (open in Perfetto or
//! `chrome://tracing`): every synthesis is a parent-linked span tree with
//! a trace ID, worker attribution and the five pipeline phases (or the
//! patch-path stages) as children.
//!
//! Writes a machine-readable report next to the repo root by default.
//!
//! Run: `cargo run --release -p bluefi-bench
//!       --bin runtime_profile [--trials 100] [--out BENCH_runtime.json]
//!       [--trace-out BENCH_trace.json]`

use bluefi_bench::{arg_str, arg_usize, Reporter};
use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
use bluefi_coding::realtime::{FreeEdge, RealtimePlan};
use bluefi_core::json::Json;
use bluefi_core::par::{clamped_workers, host_cpus, worker_count, BatchJob, SynthesisBatch};
use bluefi_core::pipeline::{BlueFi, SynthesisScratch};
use bluefi_core::reversal::DecodeStrategy;
use bluefi_core::telemetry::trace::TraceSnapshot;
use bluefi_core::telemetry::{self, Level, Snapshot, SpanKind};
use bluefi_core::template::{CachedEngine, CachedScratch};
use bluefi_dsp::contracts;
use bluefi_dsp::power::{mean, percentile_sorted};
use bluefi_wifi::channels::{
    bt_channel_freq_hz, plan_channel, usable_bt_channels_in_wifi, ChannelPlan,
};
use std::time::Instant;

/// Timed passes over the beacon-fleet mutation set.
const PATCH_RUNS: usize = 5;

fn beacon_pdu(variant: u8) -> AdvPdu {
    AdvPdu {
        pdu_type: AdvPduType::AdvNonconnInd,
        adv_address: [variant, 0x0E, 0xF1, 0x00, 0x00, 0x01],
        adv_data: (0..30).map(|i| (i * 5 + 1) as u8 ^ variant).collect(),
        tx_add: false,
    }
}

fn beacon_bits(variant: u8) -> Vec<bool> {
    adv_air_bits(&beacon_pdu(variant), 38)
}

/// Report sections: each ends with a trace capture (when tracing) and then
/// `drain_section`, whose reset clears the trace rings too.
struct Sections {
    tracing: bool,
    traces: Vec<TraceSnapshot>,
}

impl Sections {
    /// Closes the current section and returns its telemetry; the next
    /// section starts from zero.
    fn end(&mut self) -> Snapshot {
        if self.tracing {
            self.traces.push(telemetry::trace::snapshot());
        }
        telemetry::drain_section()
    }
}

/// One strategy's cold packets: per-trial latency (sorted) and the
/// recorder's view of exactly those trials.
struct ColdPackets {
    lat_sorted: Vec<f64>,
    snap: Snapshot,
}

/// The five pipeline phases, then the enclosing `synthesize` total.
fn stage_kinds() -> Vec<SpanKind> {
    let mut kinds = SpanKind::pipeline_phases().to_vec();
    kinds.push(SpanKind::Synthesize);
    kinds
}

impl ColdPackets {
    /// Times `trials` cold packets under `bf` through one warm scratch,
    /// cycling `variants` so consecutive trials never repeat a coded
    /// target, then closes the section so the stage histograms of two
    /// strategies never mix.
    fn time(
        bf: &BlueFi,
        variants: &[Vec<bool>],
        plan: ChannelPlan,
        trials: usize,
        sections: &mut Sections,
    ) -> ColdPackets {
        let mut scratch = SynthesisScratch::new();
        bf.synthesize_at_with(&variants[0], plan, 71, &mut scratch); // warm-up
        telemetry::reset(); // per-stage stats cover only the timed trials
        let mut lat_sorted: Vec<f64> = (0..trials)
            .map(|i| {
                // Offset by one so trial 0 does not repeat the warm-up payload.
                let b = &variants[(i + 1) % variants.len()];
                let t0 = Instant::now();
                std::hint::black_box(bf.synthesize_at_with(b, plan, 71, &mut scratch));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        lat_sorted.sort_by(|a, b| a.total_cmp(b));
        ColdPackets { lat_sorted, snap: sections.end() }
    }

    fn mean_us(&self) -> f64 {
        mean(&self.lat_sorted)
    }

    /// Mean µs per packet of one span, if the recorder saw it.
    fn stage_mean_us(&self, kind: SpanKind) -> Option<f64> {
        self.snap.span_stat(kind).and_then(|s| s.hist.mean()).map(|m| m / 1e3)
    }

    /// Share of the enclosing `synthesize` total spent in `kind`, in %.
    fn share_pct(&self, kind: SpanKind) -> f64 {
        let sum = |k| self.snap.span_stat(k).map_or(0, |s| s.hist.sum);
        let total = sum(SpanKind::Synthesize);
        if total > 0 { 100.0 * sum(kind) as f64 / total as f64 } else { 0.0 }
    }

    /// The `single_packet`, `per_stage` and `total` report objects. The
    /// enclosing `synthesize` span is the denominator, not a stage: it is
    /// its own `total` object, so the child shares sum to ≤100%.
    fn report(&self, distinct_payloads: usize) -> Vec<(&'static str, Json)> {
        let sorted = &self.lat_sorted;
        let single = Json::obj(vec![
            ("mean_us", Json::Num(self.mean_us())),
            ("median_us", Json::Num(percentile_sorted(sorted, 50.0))),
            ("p10_us", Json::Num(percentile_sorted(sorted, 10.0))),
            ("p90_us", Json::Num(percentile_sorted(sorted, 90.0))),
            ("distinct_payloads", Json::Num(distinct_payloads as f64)),
        ]);
        let mut per_stage = Vec::new();
        let mut total = Json::Null;
        for kind in stage_kinds() {
            let Some(stat) = self.snap.span_stat(kind) else { continue };
            let h = &stat.hist;
            let us = |v: Option<u64>| v.map(|n| n as f64 / 1e3).unwrap_or(0.0);
            let mut fields = vec![
                ("count", Json::Num(h.count as f64)),
                ("mean_us", Json::Num(h.mean().map(|m| m / 1e3).unwrap_or(0.0))),
                ("p50_us", Json::Num(us(h.percentile(50.0)))),
                ("p90_us", Json::Num(us(h.percentile(90.0)))),
                ("total_ms", Json::Num(h.sum as f64 / 1e6)),
            ];
            if kind == SpanKind::Synthesize {
                total = Json::obj(fields);
            } else {
                fields.push(("share_pct", Json::Num(self.share_pct(kind))));
                per_stage.push((kind.name(), Json::obj(fields)));
            }
        }
        vec![("single_packet", single), ("per_stage", Json::obj(per_stage)), ("total", total)]
    }
}

fn counter_value(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).unwrap_or(0)
}

/// Steady-state allocations per packet at the current telemetry level.
/// Cycles distinct payloads, so every packet is a cold decode.
fn steady_allocs_per_packet(
    bf: &BlueFi,
    variants: &[Vec<bool>],
    plan: ChannelPlan,
    trials: usize,
) -> (f64, u64) {
    let mut cold = SynthesisScratch::new();
    contracts::probe_reset();
    bf.synthesize_at_with(&variants[0], plan, 71, &mut cold);
    let warmup = contracts::probe_count();
    for b in variants {
        bf.synthesize_at_with(b, plan, 71, &mut cold); // settle capacities
    }
    contracts::probe_reset();
    for i in 0..trials {
        bf.synthesize_at_with(&variants[i % variants.len()], plan, 71, &mut cold);
    }
    (contracts::probe_count() as f64 / trials as f64, warmup)
}

fn main() {
    let trials = arg_usize("--trials", 100).max(1);
    let out_path = arg_str("--out", "BENCH_runtime.json");
    let trace_out = arg_str("--trace-out", "");
    let tracing = !trace_out.is_empty();
    let mut rep = Reporter::from_args();
    // The profile defaults to the counters level, which feeds the per-stage
    // histograms (this binary exists to look inside the pipeline);
    // BLUEFI_TELEMETRY still overrides, and --trace-out forces the trace
    // level (the export needs trace events).
    let env = telemetry::env_level();
    let level = if tracing { Level::Trace } else { env.unwrap_or(Level::Counters) };
    telemetry::set_level(level);
    for w in telemetry::warnings() {
        rep.note(format!("telemetry warning: {w}"));
    }
    // Per-section causal-trace captures, merged into one export at the end.
    let mut sections = Sections { tracing, traces: Vec::new() };
    let bf = BlueFi::default();
    // The configuration the template engine serves: its cold path is the
    // real-time Sec 4.8 column, and the beacon fleet below patches it.
    let realtime_bf = BlueFi { strategy: DecodeStrategy::Realtime, ..BlueFi::default() };
    // lint: allow(panic) channel 38 = 2426 MHz is plannable by construction
    let plan = plan_channel(2.426e9).expect("advertising channel must be plannable");
    // Distinct payload variants so consecutive trials never repeat a coded
    // target; cold-path latency cycles them.
    let variants: Vec<Vec<bool>> = (0..8u8).map(beacon_bits).collect();

    // -- Cold packets, one section per FEC strategy -----------------------
    let viterbi = ColdPackets::time(&bf, &variants, plan, trials, &mut sections);
    let realtime = ColdPackets::time(&realtime_bf, &variants, plan, trials, &mut sections);

    // -- Steady-state allocations per packet ------------------------------
    // The probe only counts in debug builds; release builds
    // report the probe as unmeasured rather than a misleading zero. The
    // zero-alloc claim must hold with telemetry recording AND without.
    let measured = contracts::enabled();
    let (steady_enabled, warmup_allocs) = steady_allocs_per_packet(&bf, &variants, plan, trials);
    telemetry::set_level(Level::Off);
    let (steady_disabled, _) = steady_allocs_per_packet(&bf, &variants, plan, trials);
    telemetry::set_level(level);
    sections.end();

    // -- Batch throughput on the Fig 9 workload ---------------------------
    // One beacon per usable even-indexed Bluetooth channel, repeated until
    // the batch is large enough to time. The ladder is clamped to the host
    // CPU count (BLUEFI_THREADS overrides): oversubscribed rows measured
    // scheduler churn, not the engine (the old 0.92x "speedups").
    let channels: Vec<u8> = usable_bt_channels_in_wifi(3).into_iter().step_by(2).take(10).collect();
    let n_jobs = (trials * 2).max(8);
    let jobs: Vec<BatchJob> = (0..n_jobs)
        .map(|k| {
            let ch = channels[k % channels.len()];
            // lint: allow(panic) usable channels are plannable by construction
            let plan = plan_channel(bt_channel_freq_hz(ch)).expect("usable channel plans");
            BatchJob { bits: beacon_bits((k % 251) as u8), plan, seed: 71 }
        })
        .collect();
    let requested = vec![1usize, 2, 4, worker_count()];
    let mut thread_counts: Vec<usize> = requested.iter().map(|&w| clamped_workers(w)).collect();
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let clamped = {
        let mut r = requested.clone();
        r.sort_unstable();
        r.dedup();
        r != thread_counts
    };
    let mut batch_rows = Vec::new();
    let mut batch_json = Vec::new();
    let mut t1_s = 0.0f64;
    let mut reference = None;
    let mut bit_exact = true;
    for &w in &thread_counts {
        let batch = SynthesisBatch::with_workers(&bf, w);
        batch.synthesize(&jobs[..jobs.len().min(w * 2)]); // warm per-thread state
        let t0 = Instant::now();
        let results = batch.synthesize(&jobs);
        let dt = t0.elapsed().as_secs_f64();
        if w == 1 {
            t1_s = dt;
            reference = Some(results.iter().map(|s| s.psdu.clone()).collect::<Vec<_>>());
        } else if let Some(r) = &reference {
            bit_exact &= results.len() == r.len()
                && results.iter().zip(r).all(|(s, p)| &s.psdu == p);
        }
        let speedup = if dt > 0.0 && t1_s > 0.0 { t1_s / dt } else { 1.0 };
        batch_rows.push(vec![
            format!("{w}"),
            format!("{:.3}", dt),
            format!("{:.1}", n_jobs as f64 / dt),
            format!("{speedup:.2}x"),
        ]);
        batch_json.push(Json::obj(vec![
            ("workers", Json::Num(w as f64)),
            ("seconds", Json::Num(dt)),
            ("packets_per_s", Json::Num(n_jobs as f64 / dt)),
            ("speedup_vs_1", Json::Num(speedup)),
        ]));
    }
    if tracing {
        // The timed ladder above is host-clamped (often to one worker), so
        // force a small two-worker fan-out here — untimed — so the trace
        // export always demonstrates cross-worker attribution.
        let demo = SynthesisBatch::with_workers(&bf, 2);
        std::hint::black_box(demo.synthesize(&jobs[..jobs.len().min(8)]));
    }

    sections.end();

    // -- Beacon-fleet template cache --------------------------------------
    // The benchmark's beacon-fleet mutation: a 2-byte little-endian counter
    // in the middle of the AdvData, rebuilt through `adv_air_bits` so CRC
    // and whitening stay valid. The first synthesis caches a template;
    // every later packet takes the GF(2) delta-patch path
    // (`core::template`), which conformance pins bit-exact.
    let n_fleet = trials.clamp(20, 120);
    let fleet_pdu = beacon_pdu(0);
    let counter_at = fleet_pdu.adv_data.len() / 2 - 1;
    let fleet_payloads: Vec<Vec<bool>> = (0..n_fleet as u16)
        .map(|counter| {
            let mut pdu = fleet_pdu.clone();
            pdu.adv_data[counter_at..counter_at + 2].copy_from_slice(&counter.to_le_bytes());
            adv_air_bits(&pdu, 38)
        })
        .collect();

    // Patch latency: prime the template and warm every buffer on the same
    // mutation set, then time each cache-hit packet individually, in
    // PATCH_RUNS passes over the set. Each tail percentile is the median of
    // the passes' percentiles, so one host stall in one pass cannot set it.
    let fleet_engine = CachedEngine::new(realtime_bf.clone());
    let mut fleet_scratch = CachedScratch::new();
    for b in &fleet_payloads {
        fleet_engine.synthesize_at_with(b, plan, 71, &mut fleet_scratch);
    }
    let fleet_before = telemetry::snapshot();
    let patch_runs: Vec<Vec<f64>> = (0..PATCH_RUNS)
        .map(|_| {
            let mut run: Vec<f64> = fleet_payloads
                .iter()
                .map(|b| {
                    let t0 = Instant::now();
                    std::hint::black_box(
                        fleet_engine.synthesize_at_with(b, plan, 71, &mut fleet_scratch),
                    );
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            run.sort_by(|a, b| a.total_cmp(b));
            run
        })
        .collect();
    let patch_pct = |p: f64| {
        let mut per_run: Vec<f64> =
            patch_runs.iter().map(|run| percentile_sorted(run, p)).collect();
        per_run.sort_by(|a, b| a.total_cmp(b));
        per_run[per_run.len() / 2]
    };
    // The drained snapshot doubles as the section's counter readout; each
    // sweep point below then drains again so its counters are per-point.
    let fleet_after = sections.end();
    let fleet_hits =
        counter_value(&fleet_after, "template_hit") - counter_value(&fleet_before, "template_hit");

    // Hit-rate sweep: round-robin K distinct scrambler seeds (K distinct
    // templates) over the stream so the first use of each key misses and
    // the rest hit — K = N(1 − target) sets the steady hit rate.
    let sweep_targets = [0.0f64, 50.0, 95.0, 100.0];
    let mut sweep_rows = Vec::new();
    let mut sweep_json = Vec::new();
    for &target in &sweep_targets {
        let k = (((n_fleet as f64) * (1.0 - target / 100.0)).round().max(1.0) as usize)
            .min(n_fleet)
            .min(126);
        let seeds: Vec<u8> = (0..k).map(|i| (i % 126 + 1) as u8).collect();
        let engine = CachedEngine::new(realtime_bf.clone());
        let mut scratch = CachedScratch::new();
        let t0 = Instant::now();
        for (i, b) in fleet_payloads.iter().enumerate() {
            std::hint::black_box(engine.synthesize_at_with(b, plan, seeds[i % k], &mut scratch));
        }
        let dt = t0.elapsed().as_secs_f64();
        let point = sections.end();
        let hits = counter_value(&point, "template_hit");
        let misses = counter_value(&point, "template_miss");
        let observed = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
        let pps = n_fleet as f64 / dt;
        sweep_rows.push(vec![
            format!("{target:.0}%"),
            format!("{observed:.0}%"),
            format!("{k}"),
            format!("{:.0}", pps),
        ]);
        sweep_json.push(Json::obj(vec![
            ("target_hit_pct", Json::Num(target)),
            ("observed_hit_pct", Json::Num(observed)),
            ("distinct_keys", Json::Num(k as f64)),
            ("packets_per_s", Json::Num(pps)),
        ]));
    }

    // -- Report -----------------------------------------------------------
    let strategies = [("weighted Viterbi", &viterbi), ("real-time", &realtime)];
    rep.table(
        "Runtime profile — single-packet synthesis latency (warm scratch)",
        &["strategy", "mean µs", "median µs", "p10 µs", "p90 µs", "trials"],
        strategies
            .iter()
            .map(|(name, cold)| {
                vec![
                    format!("{name} ({} payloads)", variants.len()),
                    format!("{:.1}", cold.mean_us()),
                    format!("{:.1}", percentile_sorted(&cold.lat_sorted, 50.0)),
                    format!("{:.1}", percentile_sorted(&cold.lat_sorted, 10.0)),
                    format!("{:.1}", percentile_sorted(&cold.lat_sorted, 90.0)),
                    format!("{trials}"),
                ]
            })
            .collect(),
    );
    if viterbi.snap.span_stat(SpanKind::Synthesize).is_some() {
        let cell = |cold: &ColdPackets, kind| {
            let mean = cold.stage_mean_us(kind).unwrap_or(0.0);
            if kind == SpanKind::Synthesize {
                format!("{mean:.1}")
            } else {
                format!("{mean:.1} ({:.1}%)", cold.share_pct(kind))
            }
        };
        rep.table(
            &format!(
                "Sec 4.8 — per-stage runtime, mean µs/packet (share of total) over {trials} \
                 packets (telemetry level: {})",
                level.name()
            ),
            &["stage", "weighted Viterbi", "real-time"],
            stage_kinds()
                .into_iter()
                .map(|kind| {
                    vec![kind.name().to_string(), cell(&viterbi, kind), cell(&realtime, kind)]
                })
                .collect(),
        );
        // The paper's headline ratio: the real-time decoder is far cheaper
        // than the weighted Viterbi.
        let fec = |cold: &ColdPackets| cold.stage_mean_us(SpanKind::FecReversal).unwrap_or(0.0);
        rep.note(format!(
            "\nFEC reversal speedup (weighted Viterbi / real-time): {:.1}x \
             (paper: ~50x; FEC dominates every pipeline)",
            fec(&viterbi) / fec(&realtime).max(1e-9)
        ));
    } else {
        rep.note(format!(
            "\nper-stage breakdown unavailable (telemetry level: {}; set \
             BLUEFI_TELEMETRY=counters or trace)",
            level.name()
        ));
    }
    if measured {
        rep.note(format!(
            "\nallocations/packet: {steady_enabled:.2} steady-state with telemetry {}, \
             {steady_disabled:.2} with telemetry off ({warmup_allocs} during warm-up) \
             over {trials} packets",
            level.name()
        ));
    } else {
        rep.note(
            "\nallocations/packet: not measured (probe requires a debug build; \
             run without --release)",
        );
    }
    let patch_mean = mean(&patch_runs.concat());
    rep.table(
        &format!(
            "Runtime profile — beacon fleet, template cache ({n_fleet} packets × {PATCH_RUNS} \
             passes, mid-AdvData counter mutations; percentiles: median of the passes)"
        ),
        &["path", "mean µs", "p50 µs", "p90 µs", "p99 µs", "packets/s"],
        vec![vec![
            format!("cached patch ({fleet_hits} hits)"),
            format!("{patch_mean:.1}"),
            format!("{:.1}", patch_pct(50.0)),
            format!("{:.1}", patch_pct(90.0)),
            format!("{:.1}", patch_pct(99.0)),
            format!("{:.0}", 1e6 / patch_mean.max(1e-9)),
        ]],
    );
    rep.note(format!(
        "\ncache-hit patch speedup: {:.1}x vs the same configuration's cold packet \
         (real-time: {:.1} µs)",
        realtime.mean_us() / patch_mean.max(1e-9),
        realtime.mean_us(),
    ));
    // The real-time plan for the longest packet the audio streamer sends
    // (800 OFDM symbols at MCS 5): its build time and heap footprint.
    let plan_bits = 800 * 312;
    let plan_t0 = Instant::now();
    let rt_plan = RealtimePlan::new(plan_bits, FreeEdge::Front);
    let plan_build_ms = plan_t0.elapsed().as_secs_f64() * 1e3;
    let plan_bytes = rt_plan.bytes();
    drop(rt_plan);
    rep.note(format!(
        "real-time plan, {plan_bits} coded bits: {:.2} MiB heap, built in {plan_build_ms:.1} ms",
        plan_bytes as f64 / (1 << 20) as f64
    ));
    rep.table(
        "Runtime profile — beacon fleet, hit-rate sweep",
        &["target hit", "observed", "keys", "packets/s"],
        sweep_rows,
    );
    rep.table(
        &format!("Runtime profile — batch throughput, {n_jobs} packets (Fig 9 workload)"),
        &["workers", "seconds", "packets/s", "speedup"],
        batch_rows,
    );
    rep.note(format!(
        "\nparallel output bit-exact with sequential: {}",
        if bit_exact { "yes" } else { "NO — determinism violated" }
    ));
    let cpus = host_cpus();
    if clamped {
        rep.note(format!(
            "note: worker ladder clamped to the {cpus}-CPU host (set \
             BLUEFI_THREADS to force oversubscription)"
        ));
    }
    if cpus < 2 {
        rep.note(format!(
            "note: this host exposes {cpus} CPU — thread speedup is bounded \
             at 1x here; rerun on a multi-core host for the scaling numbers"
        ));
    }

    let mut fields = vec![
        ("trials", Json::Num(trials as f64)),
        ("host_cpus", Json::Num(cpus as f64)),
        ("contracts_enabled", Json::Bool(measured)),
    ];
    fields.extend(viterbi.report(variants.len()));
    fields.push(("realtime", Json::obj(realtime.report(variants.len()))));
    fields.extend([
        (
            "allocs_per_packet",
            Json::obj(vec![
                ("measured", Json::Bool(measured)),
                ("steady_state", Json::Num(steady_enabled)),
                ("warmup", Json::Num(warmup_allocs as f64)),
            ]),
        ),
        (
            "telemetry",
            Json::obj(vec![
                ("level", Json::Str(level.name().to_string())),
                ("allocs_per_packet_enabled", Json::Num(steady_enabled)),
                ("allocs_per_packet_disabled", Json::Num(steady_disabled)),
                (
                    "warnings",
                    Json::Arr(viterbi.snap.warnings.iter().map(|w| Json::Str(w.clone())).collect()),
                ),
                ("counters", {
                    let pairs: Vec<(String, Json)> = viterbi
                        .snap
                        .counters
                        .iter()
                        .filter(|(_, v)| *v > 0)
                        .map(|&(n, v)| (n.to_string(), Json::Num(v as f64)))
                        .collect();
                    Json::Obj(pairs)
                }),
            ]),
        ),
        (
            "batch",
            Json::obj(vec![
                ("jobs", Json::Num(n_jobs as f64)),
                ("threads", Json::Arr(batch_json)),
                ("ladder_clamped", Json::Bool(clamped)),
                ("bit_exact", Json::Bool(bit_exact)),
            ]),
        ),
        (
            "beacon_fleet",
            Json::obj(vec![
                ("packets", Json::Num(n_fleet as f64)),
                ("patch_runs", Json::Num(PATCH_RUNS as f64)),
                ("patch_mean_us", Json::Num(patch_mean)),
                ("patch_p50_us", Json::Num(patch_pct(50.0))),
                ("patch_p90_us", Json::Num(patch_pct(90.0))),
                ("patch_p99_us", Json::Num(patch_pct(99.0))),
                ("hit_rate_sweep", Json::Arr(sweep_json)),
                ("template_counters", {
                    let names = [
                        "template_hit",
                        "template_miss",
                        "template_evict",
                        "template_bypass",
                    ];
                    let mut pairs: Vec<(String, Json)> = names
                        .iter()
                        .map(|&n| {
                            (n.to_string(), Json::Num(counter_value(&fleet_after, n) as f64))
                        })
                        .collect();
                    pairs.push((
                        "template_bytes_resident".to_string(),
                        Json::Num(fleet_engine.store().bytes_resident() as f64),
                    ));
                    Json::Obj(pairs)
                }),
            ]),
        ),
        (
            "realtime_plan",
            Json::obj(vec![
                ("coded_bits", Json::Num(plan_bits as f64)),
                ("bytes", Json::Num(plan_bytes as f64)),
                ("build_ms", Json::Num(plan_build_ms)),
            ]),
        ),
    ]);
    let report = Json::obj(fields);
    // lint: allow(panic) a report the caller asked for must be writable
    std::fs::write(&out_path, report.render() + "\n").expect("write runtime report");
    rep.note(format!("wrote {out_path}"));
    if tracing {
        let chrome = telemetry::trace::chrome_trace(&sections.traces);
        let n_events = chrome
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(|a| a.len())
            .unwrap_or(0);
        // lint: allow(panic) a trace the caller asked for must be writable
        std::fs::write(&trace_out, chrome.render() + "\n").expect("write trace output");
        rep.note(format!(
            "wrote {trace_out} ({n_events} trace events from {} sections; \
             open in Perfetto or chrome://tracing)",
            sections.traces.len()
        ));
    }
    rep.finish();
}
