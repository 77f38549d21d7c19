//! Runtime profile of the synthesis hot path (paper Sec 4.8): single-packet
//! latency through a warm scratch, a per-stage timing breakdown from the
//! telemetry recorder, steady-state allocations per packet with telemetry
//! both enabled and disabled (via the self-reporting probe in
//! `bluefi_dsp::contracts` — debug builds only), and batch
//! throughput at a host-clamped worker ladder on the Fig 9 workload.
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
use bluefi_core::pipeline::{BlueFi, PhaseMode, SynthesisScratch};
use bluefi_core::reversal::DecodeStrategy;
use bluefi_core::telemetry::{self, Level, SpanKind};
use bluefi_core::template::{CachedEngine, CachedScratch};
use bluefi_dsp::contracts;
use bluefi_dsp::power::{mean, percentile_sorted};
use bluefi_wifi::channels::{bt_channel_freq_hz, plan_channel, usable_bt_channels_in_wifi};
use std::time::Instant;

fn beacon_bits(variant: u8) -> Vec<bool> {
    let pdu = AdvPdu {
        pdu_type: AdvPduType::AdvNonconnInd,
        adv_address: [variant, 0x0E, 0xF1, 0x00, 0x00, 0x01],
        adv_data: (0..30).map(|i| (i * 5 + 1) as u8 ^ variant).collect(),
        tx_add: false,
    };
    adv_air_bits(&pdu, 38)
}

/// Steady-state allocations per packet at the current telemetry level.
/// Cycles distinct payloads, so every packet is a cold decode.
fn steady_allocs_per_packet(
    bf: &BlueFi,
    variants: &[Vec<bool>],
    plan: bluefi_wifi::channels::ChannelPlan,
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
    // Per-section causal-trace captures, merged into one export at the end
    // (each section boundary resets the recorder, so each capture must
    // happen first).
    let mut trace_sections: Vec<telemetry::trace::TraceSnapshot> = Vec::new();
    let bf = BlueFi::default();
    // lint: allow(panic) channel 38 = 2426 MHz is plannable by construction
    let plan = plan_channel(2.426e9).expect("advertising channel must be plannable");
    // Distinct payload variants so consecutive trials never repeat a coded
    // target; cold-path latency cycles them.
    let variants: Vec<Vec<bool>> = (0..8u8).map(beacon_bits).collect();
    let bits = variants[0].clone();

    // -- Single-packet latency through a warm scratch ---------------------
    let mut scratch = SynthesisScratch::new();
    bf.synthesize_at_with(&bits, plan, 71, &mut scratch); // warm-up
    telemetry::reset(); // per-stage stats cover only the timed trials
    let lat_us: Vec<f64> = (0..trials)
        .map(|i| {
            // Offset by one so trial 0 does not repeat the warm-up payload.
            let b = &variants[(i + 1) % variants.len()];
            let t0 = Instant::now();
            std::hint::black_box(bf.synthesize_at_with(b, plan, 71, &mut scratch));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    // -- Per-stage breakdown from the telemetry recorder ------------------
    // The enclosing `synthesize` span is the denominator, not a stage: it
    // is reported as a separate `total` object so the child shares sum to
    // ≤100% (the old schema put it inside `per_stage` at share 100, and
    // naive consumers summing shares read ~200%).
    let snap = telemetry::snapshot();
    let total_ns: u64 = snap
        .span_stat(SpanKind::Synthesize)
        .map(|s| s.hist.sum)
        .unwrap_or(0);
    let mut stage_rows = Vec::new();
    let mut per_stage_json = Vec::new();
    let mut total_json = Json::Null;
    let mut phases: Vec<SpanKind> = SpanKind::pipeline_phases().to_vec();
    phases.push(SpanKind::Synthesize);
    for kind in phases {
        let Some(stat) = snap.span_stat(kind) else { continue };
        let h = &stat.hist;
        let us = |v: Option<u64>| v.map(|n| n as f64 / 1e3).unwrap_or(0.0);
        let is_total = kind == SpanKind::Synthesize;
        let share = if total_ns > 0 { 100.0 * h.sum as f64 / total_ns as f64 } else { 0.0 };
        stage_rows.push(vec![
            if is_total { format!("{} (total)", kind.name()) } else { kind.name().to_string() },
            format!("{}", h.count),
            format!("{:.1}", h.mean().map(|m| m / 1e3).unwrap_or(0.0)),
            format!("{:.1}", us(h.percentile(50.0))),
            format!("{:.1}", us(h.percentile(90.0))),
            format!("{:.3}", h.sum as f64 / 1e6),
            format!("{share:.1}%"),
        ]);
        let mut fields = vec![
            ("count", Json::Num(h.count as f64)),
            ("mean_us", Json::Num(h.mean().map(|m| m / 1e3).unwrap_or(0.0))),
            ("p50_us", Json::Num(us(h.percentile(50.0)))),
            ("p90_us", Json::Num(us(h.percentile(90.0)))),
            ("total_ms", Json::Num(h.sum as f64 / 1e6)),
        ];
        if is_total {
            total_json = Json::obj(fields);
        } else {
            fields.push(("share_pct", Json::Num(share)));
            per_stage_json.push((kind.name(), Json::obj(fields)));
        }
    }

    let counter_value = |snap: &telemetry::Snapshot, name: &str| -> u64 {
        snap.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).unwrap_or(0)
    };

    // Section boundary: latency/per-stage numbers are final; drain
    // so the next section starts from zero. Traces are captured first —
    // the reset inside `drain_section` clears the trace rings too.
    if tracing {
        trace_sections.push(telemetry::trace::snapshot());
    }
    telemetry::drain_section();

    // -- Steady-state allocations per packet ------------------------------
    // The probe only counts in debug builds; release builds
    // report the probe as unmeasured rather than a misleading zero. The
    // zero-alloc claim must hold with telemetry recording AND without.
    let measured = contracts::enabled();
    let (steady_enabled, warmup_allocs) = steady_allocs_per_packet(&bf, &variants, plan, trials);
    telemetry::set_level(Level::Off);
    let (steady_disabled, _) = steady_allocs_per_packet(&bf, &variants, plan, trials);
    telemetry::set_level(level);

    // Section boundary after the allocation probes.
    if tracing {
        trace_sections.push(telemetry::trace::snapshot());
    }
    telemetry::drain_section();

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

    // Section boundary after batch throughput.
    if tracing {
        trace_sections.push(telemetry::trace::snapshot());
    }
    telemetry::drain_section();

    // -- Beacon-fleet template cache --------------------------------------
    // The production beacon-fleet shape: one payload class per key, with a
    // rotating counter in the trailing byte. The first synthesis caches a
    // template; every later packet takes the GF(2) delta-patch path
    // (`core::template`), which must be an order of magnitude faster than
    // cold synthesis while staying bit-exact (conformance pins exactness).
    let fleet_bf = BlueFi {
        strategy: DecodeStrategy::Realtime,
        phase: PhaseMode::Anchored,
        ..BlueFi::default()
    };
    let n_fleet = trials.clamp(20, 120);
    let fleet_base = bits.clone();
    let fleet_packet = |counter: usize| -> Vec<bool> {
        let mut b = fleet_base.clone();
        let n = b.len();
        let c = (counter % 256) as u8;
        for bit in 0..8 {
            b[n - 8 + bit] ^= c >> bit & 1 == 1;
        }
        b
    };
    let fleet_payloads: Vec<Vec<bool>> = (0..n_fleet).map(fleet_packet).collect();

    // Cold baseline: the identical anchored real-time pipeline, no cache.
    let mut fleet_cold_scratch = SynthesisScratch::new();
    fleet_bf.synthesize_at_with(&fleet_payloads[0], plan, 71, &mut fleet_cold_scratch);
    let fleet_cold_us: Vec<f64> = fleet_payloads
        .iter()
        .map(|b| {
            let t0 = Instant::now();
            std::hint::black_box(fleet_bf.synthesize_at_with(b, plan, 71, &mut fleet_cold_scratch));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    // Patch latency: prime the template and warm every buffer on the same
    // mutation set, then time each cache-hit packet individually.
    let fleet_engine = CachedEngine::new(fleet_bf.clone());
    let mut fleet_scratch = CachedScratch::new();
    for b in &fleet_payloads {
        fleet_engine.synthesize_at_with(b, plan, 71, &mut fleet_scratch);
    }
    let fleet_before = telemetry::snapshot();
    let patch_us: Vec<f64> = fleet_payloads
        .iter()
        .map(|b| {
            let t0 = Instant::now();
            std::hint::black_box(fleet_engine.synthesize_at_with(b, plan, 71, &mut fleet_scratch));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    // Section boundary after the fleet cold/patch comparison (the drained
    // snapshot doubles as the section's counter readout); each sweep point
    // below then drains again so its counters are per-point.
    if tracing {
        trace_sections.push(telemetry::trace::snapshot());
    }
    let fleet_after = telemetry::drain_section();
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
        let engine = CachedEngine::new(fleet_bf.clone());
        let mut scratch = CachedScratch::new();
        let t0 = Instant::now();
        for (i, b) in fleet_payloads.iter().enumerate() {
            std::hint::black_box(engine.synthesize_at_with(b, plan, seeds[i % k], &mut scratch));
        }
        let dt = t0.elapsed().as_secs_f64();
        // Per-point boundary: the drained snapshot is this point's counter
        // readout, and the reset means the next point (and the next
        // section) starts from zero. The preceding section boundary
        // guarantees the first point starts clean too.
        if tracing {
            trace_sections.push(telemetry::trace::snapshot());
        }
        let point = telemetry::drain_section();
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

    // -- Service soak (daemon transport overhead) -------------------------
    // The full `bluefi-service` stack — unix socket, frame codec, bounded
    // queue, worker pool — over the deterministic mock backend, so the
    // requests/s number isolates transport cost from synthesis cost.
    let soak_clients = 16usize;
    let soak_reqs = 25usize;
    let soak_path = std::env::temp_dir().join(format!("bluefi-profile-{}.sock", std::process::id()));
    let soak_path = soak_path.to_string_lossy().to_string();
    let soak_server = bluefi_service::Server::spawn(
        &soak_path,
        std::sync::Arc::new(bluefi_service::MockBackend::new()),
        bluefi_service::ServiceConfig::default(),
    )
    // lint: allow(panic) a fresh socket in the temp dir must bind
    .expect("bind soak socket");
    let soak_bits = &variants[0];
    let soak_ok = std::sync::atomic::AtomicU64::new(0);
    let soak_t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..soak_clients {
            let path = &soak_path;
            let ok = &soak_ok;
            s.spawn(move || {
                let Ok(mut client) = bluefi_service::ServiceClient::connect(path) else {
                    return;
                };
                let _ = client.set_timeout(std::time::Duration::from_secs(10));
                let channel = [10u8, 24, 50][c % 3];
                for _ in 0..soak_reqs {
                    if client.synthesize(soak_bits, channel, 71).is_ok() {
                        ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let soak_dt = soak_t0.elapsed().as_secs_f64();
    let soak_total = (soak_clients * soak_reqs) as u64;
    let soak_ok = soak_ok.into_inner();
    let soak_rps = soak_ok as f64 / soak_dt.max(1e-9);
    soak_server.drain();
    let soak_stopped = soak_server.shutdown();
    let soak_stats = soak_stopped.stats();

    // Section boundary after the soak (the service spans/counters feed the
    // same recorder).
    if tracing {
        trace_sections.push(telemetry::trace::snapshot());
    }
    let soak_section = telemetry::drain_section();
    let soak_shed = counter_value(&soak_section, "service_shed");

    // -- Report -----------------------------------------------------------
    // Sort the latency series once; all percentiles read from it.
    let mut lat_sorted = lat_us.clone();
    lat_sorted.sort_by(|a, b| a.total_cmp(b));
    rep.table(
        "Runtime profile — single-packet synthesis latency (warm scratch)",
        &["payload", "mean µs", "median µs", "p10 µs", "p90 µs", "trials"],
        vec![vec![
            format!("cold ({} variants)", variants.len()),
            format!("{:.1}", mean(&lat_us)),
            format!("{:.1}", percentile_sorted(&lat_sorted, 50.0)),
            format!("{:.1}", percentile_sorted(&lat_sorted, 10.0)),
            format!("{:.1}", percentile_sorted(&lat_sorted, 90.0)),
            format!("{trials}"),
        ]],
    );
    if !stage_rows.is_empty() {
        rep.table(
            &format!("Runtime profile — per-stage breakdown (telemetry level: {})", level.name()),
            &["stage", "count", "mean µs", "p50 µs", "p90 µs", "total ms", "share"],
            stage_rows,
        );
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
    let mut patch_sorted = patch_us.clone();
    patch_sorted.sort_by(|a, b| a.total_cmp(b));
    let mut fleet_cold_sorted = fleet_cold_us.clone();
    fleet_cold_sorted.sort_by(|a, b| a.total_cmp(b));
    let patch_mean = mean(&patch_us);
    let fleet_cold_mean = mean(&fleet_cold_us);
    rep.table(
        &format!(
            "Runtime profile — beacon fleet, template cache ({n_fleet} packets, \
             counter mutations)"
        ),
        &["path", "mean µs", "p50 µs", "p90 µs", "p99 µs", "packets/s"],
        vec![
            vec![
                "cold (anchored realtime)".to_string(),
                format!("{fleet_cold_mean:.1}"),
                format!("{:.1}", percentile_sorted(&fleet_cold_sorted, 50.0)),
                format!("{:.1}", percentile_sorted(&fleet_cold_sorted, 90.0)),
                format!("{:.1}", percentile_sorted(&fleet_cold_sorted, 99.0)),
                format!("{:.0}", 1e6 / fleet_cold_mean.max(1e-9)),
            ],
            vec![
                format!("cached patch ({fleet_hits} hits)"),
                format!("{patch_mean:.1}"),
                format!("{:.1}", percentile_sorted(&patch_sorted, 50.0)),
                format!("{:.1}", percentile_sorted(&patch_sorted, 90.0)),
                format!("{:.1}", percentile_sorted(&patch_sorted, 99.0)),
                format!("{:.0}", 1e6 / patch_mean.max(1e-9)),
            ],
        ],
    );
    rep.note(format!(
        "\ncache-hit patch speedup: {:.1}x vs the cold single-packet mean \
         ({:.1} µs), {:.1}x vs the anchored real-time cold path ({:.1} µs)",
        mean(&lat_us) / patch_mean.max(1e-9),
        mean(&lat_us),
        fleet_cold_mean / patch_mean.max(1e-9),
        fleet_cold_mean,
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
    rep.table(
        "Runtime profile — service soak (mock backend, transport overhead)",
        &["clients", "requests", "ok", "shed", "seconds", "requests/s"],
        vec![vec![
            format!("{soak_clients}"),
            format!("{soak_total}"),
            format!("{soak_ok}"),
            format!("{soak_shed}"),
            format!("{soak_dt:.3}"),
            format!("{soak_rps:.0}"),
        ]],
    );
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

    let report = Json::obj(vec![
        ("trials", Json::Num(trials as f64)),
        ("host_cpus", Json::Num(cpus as f64)),
        ("contracts_enabled", Json::Bool(measured)),
        (
            "single_packet",
            Json::obj(vec![
                ("mean_us", Json::Num(mean(&lat_us))),
                ("median_us", Json::Num(percentile_sorted(&lat_sorted, 50.0))),
                ("p10_us", Json::Num(percentile_sorted(&lat_sorted, 10.0))),
                ("p90_us", Json::Num(percentile_sorted(&lat_sorted, 90.0))),
                ("distinct_payloads", Json::Num(variants.len() as f64)),
            ]),
        ),
        (
            "per_stage",
            Json::Obj(
                per_stage_json
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        ("total", total_json),
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
                    Json::Arr(snap.warnings.iter().map(|w| Json::Str(w.clone())).collect()),
                ),
                ("counters", {
                    let pairs: Vec<(String, Json)> = snap
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
                ("cold_mean_us", Json::Num(fleet_cold_mean)),
                ("cold_p50_us", Json::Num(percentile_sorted(&fleet_cold_sorted, 50.0))),
                ("patch_mean_us", Json::Num(patch_mean)),
                ("patch_p50_us", Json::Num(percentile_sorted(&patch_sorted, 50.0))),
                ("patch_p90_us", Json::Num(percentile_sorted(&patch_sorted, 90.0))),
                ("patch_p99_us", Json::Num(percentile_sorted(&patch_sorted, 99.0))),
                (
                    "speedup_vs_cold_single_packet",
                    Json::Num(mean(&lat_us) / patch_mean.max(1e-9)),
                ),
                (
                    "speedup_vs_fleet_cold",
                    Json::Num(fleet_cold_mean / patch_mean.max(1e-9)),
                ),
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
        (
            "service_soak",
            Json::obj(vec![
                ("backend", Json::Str("mock".to_string())),
                ("clients", Json::Num(soak_clients as f64)),
                ("requests", Json::Num(soak_total as f64)),
                ("ok", Json::Num(soak_ok as f64)),
                ("shed", Json::Num(soak_shed as f64)),
                ("server_ok", Json::Num(soak_stats.ok() as f64)),
                ("seconds", Json::Num(soak_dt)),
                ("requests_per_s", Json::Num(soak_rps)),
            ]),
        ),
    ]);
    // lint: allow(panic) a report the caller asked for must be writable
    std::fs::write(&out_path, report.render() + "\n").expect("write runtime report");
    rep.note(format!("wrote {out_path}"));
    if tracing {
        let chrome = telemetry::trace::chrome_trace(&trace_sections);
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
            trace_sections.len()
        ));
    }
    rep.finish();
}
