//! Smoke test: the runtime profile binary runs, emits schema-valid JSON —
//! including the per-stage telemetry breakdown — and, in builds with debug
//! assertions (where the allocation probe is live), proves the
//! zero-allocation steady state (telemetry recording on *and* off) and
//! the parallel/sequential bit-exactness on a tiny workload.

use bluefi_core::json::Json;
use std::process::Command;

/// The pipeline phases the breakdown must report, in order.
const PHASES: [&str; 5] =
    ["gfsk_modulate", "cp_compat", "qam_quantize_demap", "fec_reversal", "descramble_extract"];

fn run_profile(out_name: &str, level: &str) -> Json {
    let out_path = std::env::temp_dir().join(out_name);
    let status = Command::new(env!("CARGO_BIN_EXE_runtime_profile"))
        .args(["--trials", "2", "--out"])
        .arg(&out_path)
        .env("BLUEFI_TELEMETRY", level)
        .status()
        .expect("runtime_profile must launch");
    assert!(status.success(), "runtime_profile exited with {status}");
    let text = std::fs::read_to_string(&out_path).expect("report file must exist");
    let _ = std::fs::remove_file(&out_path);
    Json::parse(&text).expect("report must be valid JSON")
}

/// Per-stage breakdown of one strategy's section: the enclosing synthesize
/// span lives in its own `total` field (NOT inside per_stage — summing
/// per_stage shares must not double-count the parent), every child phase
/// covers exactly the timed trials, and the child shares sum to ≤100%.
fn assert_stage_breakdown(section: &Json, trials: f64) {
    let per_stage = section.get("per_stage").expect("per_stage section");
    assert!(
        per_stage.get("synthesize").is_none(),
        "parent span must not sit inside per_stage"
    );
    let total = section.get("total").expect("total section");
    let total_ms = total.get("total_ms").and_then(Json::as_f64).expect("synthesize total");
    assert_eq!(total.get("count").and_then(Json::as_f64), Some(trials));
    let mut share_sum = 0.0;
    for stage in PHASES {
        let s = per_stage.get(stage).unwrap_or_else(|| panic!("missing stage {stage}"));
        assert_eq!(s.get("count").and_then(Json::as_f64), Some(trials), "{stage}");
        for key in ["mean_us", "p50_us", "p90_us", "total_ms", "share_pct"] {
            let v = s.get(key).and_then(Json::as_f64).expect(key);
            assert!(v.is_finite() && v >= 0.0, "{stage}.{key} = {v}");
        }
        let share = s.get("share_pct").and_then(Json::as_f64).expect("share");
        assert!(share <= 100.0 + 1e-9, "{stage} share {share}");
        share_sum += share;
        assert!(
            s.get("total_ms").and_then(Json::as_f64).expect("total") <= total_ms + 1e-9,
            "{stage} exceeds the end-to-end total"
        );
        // The percentile fix: interpolated p50 can no longer exceed the
        // bucket ceiling artifactually; it must stay within the envelope
        // implied by mean and p90.
        let p50 = s.get("p50_us").and_then(Json::as_f64).expect("p50");
        let p90 = s.get("p90_us").and_then(Json::as_f64).expect("p90");
        assert!(p50 <= p90 + 1e-9, "{stage}: p50 {p50} > p90 {p90}");
    }
    assert!(
        share_sum <= 100.0 + 1e-6,
        "child stage shares sum to {share_sum}% (> 100%)"
    );
}

#[test]
fn runtime_profile_emits_valid_report() {
    let report = run_profile("bluefi_runtime_profile_smoke.json", "counters");

    // Top-level schema.
    assert_eq!(report.get("trials").and_then(Json::as_f64), Some(2.0));
    assert!(report.get("host_cpus").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    let single = report.get("single_packet").expect("single_packet section");
    for key in ["mean_us", "median_us", "p10_us", "p90_us"] {
        let v = single.get(key).and_then(Json::as_f64).expect(key);
        assert!(v.is_finite() && v > 0.0, "{key} = {v}");
    }
    // Cold trials must cycle distinct payloads, so consecutive trials
    // never decode the same coded target.
    assert!(
        single.get("distinct_payloads").and_then(Json::as_f64).unwrap_or(0.0) >= 2.0,
        "latency loop must cycle distinct payloads"
    );

    // The profiler is built like this test: with debug assertions the
    // probe is live, the warm-up allocates and the steady state must not;
    // a release build reports the probe as off.
    let live = cfg!(debug_assertions);
    assert_eq!(report.get("contracts_enabled").and_then(Json::as_bool), Some(live));
    let allocs = report.get("allocs_per_packet").expect("allocs section");
    assert_eq!(allocs.get("measured").and_then(Json::as_bool), Some(live));
    assert_eq!(
        allocs.get("steady_state").and_then(Json::as_f64),
        Some(0.0),
        "hot path must not allocate after warm-up"
    );
    let warmup = allocs.get("warmup").and_then(Json::as_f64).unwrap_or(0.0);
    assert_eq!(warmup > 0.0, live, "warm-up allocations counted: {warmup}");

    // Batch section: every thread config reports a finite throughput, the
    // ladder carries no duplicate rungs (clamping is recorded, not
    // silently re-benched), and the parallel results matched the
    // sequential reference bit-for-bit.
    let batch = report.get("batch").expect("batch section");
    assert_eq!(batch.get("bit_exact").and_then(Json::as_bool), Some(true));
    assert!(batch.get("ladder_clamped").and_then(Json::as_bool).is_some());
    let threads = batch.get("threads").and_then(Json::as_arr).expect("threads array");
    assert!(!threads.is_empty());
    let mut seen_workers = Vec::new();
    for t in threads {
        let w = t.get("workers").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(w >= 1.0);
        assert!(!seen_workers.contains(&(w as u64)), "duplicate ladder rung at {w} workers");
        seen_workers.push(w as u64);
        let pps = t.get("packets_per_s").and_then(Json::as_f64).expect("packets_per_s");
        assert!(pps.is_finite() && pps > 0.0);
    }

    // Both FEC strategies report the same per-stage schema: the default
    // weighted Viterbi at the top level, the template engine's real-time
    // configuration under `realtime`.
    assert_stage_breakdown(&report, 2.0);
    let realtime = report.get("realtime").expect("realtime section");
    for key in ["mean_us", "median_us", "p10_us", "p90_us"] {
        let v = realtime.get("single_packet").and_then(|s| s.get(key)).and_then(Json::as_f64);
        assert!(v.is_some_and(|v| v.is_finite() && v > 0.0), "realtime.single_packet.{key}");
    }
    assert_stage_breakdown(realtime, 2.0);

    // One timing harness: the mock-backend soak and the fleet's own cold
    // loop are gone (the fleet patch compares against `realtime`).
    assert!(report.get("service_soak").is_none(), "service_soak must be gone");
    let fleet = report.get("beacon_fleet").expect("beacon_fleet section");
    for key in [
        "cold_mean_us",
        "cold_p50_us",
        "speedup_vs_cold_single_packet",
        "speedup_vs_fleet_cold",
    ] {
        assert!(fleet.get(key).is_none(), "beacon_fleet.{key} must be gone");
    }
    assert!(fleet.get("patch_mean_us").and_then(Json::as_f64).is_some_and(|v| v > 0.0));

    // Telemetry section: recording was live and allocation-free both ways.
    let tel = report.get("telemetry").expect("telemetry section");
    assert_eq!(tel.get("level").and_then(Json::as_str), Some("counters"));
    assert_eq!(tel.get("allocs_per_packet_enabled").and_then(Json::as_f64), Some(0.0));
    assert_eq!(tel.get("allocs_per_packet_disabled").and_then(Json::as_f64), Some(0.0));
    let counters = tel.get("counters").expect("counters object");
    assert_eq!(counters.get("packets_synthesized").and_then(Json::as_f64), Some(2.0));
}

/// `--trace-out` must emit a valid Chrome `trace_event` document with
/// parent-linked per-packet spans across all five phases and at least two
/// batch workers (the profiler runs an untimed 2-worker demo batch when
/// tracing so worker attribution is exercised even on a 1-CPU host).
#[test]
fn runtime_profile_trace_out_emits_chrome_trace() {
    let out_path = std::env::temp_dir().join("bluefi_rt_trace_report.json");
    let trace_path = std::env::temp_dir().join("bluefi_rt_trace_out.json");
    let status = Command::new(env!("CARGO_BIN_EXE_runtime_profile"))
        .args(["--trials", "2", "--out"])
        .arg(&out_path)
        .arg("--trace-out")
        .arg(&trace_path)
        .env("BLUEFI_TELEMETRY", "counters")
        .status()
        .expect("runtime_profile must launch");
    assert!(status.success(), "runtime_profile exited with {status}");
    let report =
        Json::parse(&std::fs::read_to_string(&out_path).expect("report")).expect("report JSON");
    let doc = Json::parse(&std::fs::read_to_string(&trace_path).expect("trace file"))
        .expect("trace output must be valid JSON");
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_file(&trace_path);

    // --trace-out forces the trace level regardless of BLUEFI_TELEMETRY,
    // and a valid env value leaves no warnings behind.
    let tel = report.get("telemetry").expect("telemetry section");
    assert_eq!(tel.get("level").and_then(Json::as_str), Some("trace"));
    assert_eq!(
        tel.get("warnings").and_then(Json::as_arr).map(|w| w.len()),
        Some(0),
        "valid env value must not warn"
    );

    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ns"));
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let xs: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(xs.len() > PHASES.len(), "got {} duration events", xs.len());
    // A parentless synthesize root with all five phases linked under it.
    let root = xs
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("synthesize")
                && e.get("args").and_then(|a| a.get("parent_id")) == Some(&Json::Null)
        })
        .expect("parentless synthesize root");
    let root_args = root.get("args").expect("args");
    let trace_id = root_args.get("trace_id").and_then(Json::as_f64).expect("trace_id");
    let span_id = root_args.get("span_id").and_then(Json::as_f64).expect("span_id");
    for phase in PHASES {
        assert!(
            xs.iter().any(|e| {
                let a = e.get("args").expect("args");
                e.get("name").and_then(Json::as_str) == Some(phase)
                    && a.get("trace_id").and_then(Json::as_f64) == Some(trace_id)
                    && a.get("parent_id").and_then(Json::as_f64) == Some(span_id)
            }),
            "phase {phase} parent-linked to the synthesize root"
        );
    }
    // Worker attribution: the 2-worker demo batch guarantees spans from at
    // least two distinct spawned workers (tid ≥ 1) besides main (tid 0).
    let worker_tids: std::collections::BTreeSet<u64> = xs
        .iter()
        .filter_map(|e| e.get("tid").and_then(Json::as_f64))
        .filter(|&t| t >= 1.0)
        .map(|t| t as u64)
        .collect();
    assert!(worker_tids.len() >= 2, "batch worker tids {worker_tids:?}");
    let other = doc.get("otherData").expect("otherData");
    for field in ["dropped_events", "truncated_spans", "exemplar_packets"] {
        assert!(other.get(field).and_then(Json::as_f64).is_some(), "otherData.{field}");
    }
}

/// An invalid `BLUEFI_TELEMETRY` value must not silently disable
/// telemetry: the run proceeds at the default level and the report's
/// `telemetry.warnings` names the rejected value.
#[test]
fn runtime_profile_warns_on_invalid_telemetry_env() {
    let out_path = std::env::temp_dir().join("bluefi_rt_bogus_env.json");
    let status = Command::new(env!("CARGO_BIN_EXE_runtime_profile"))
        .args(["--trials", "2", "--out"])
        .arg(&out_path)
        .env("BLUEFI_TELEMETRY", "bogus")
        .status()
        .expect("runtime_profile must launch");
    assert!(status.success(), "runtime_profile exited with {status}");
    let report =
        Json::parse(&std::fs::read_to_string(&out_path).expect("report")).expect("report JSON");
    let _ = std::fs::remove_file(&out_path);
    let tel = report.get("telemetry").expect("telemetry section");
    // The profiler falls back to its default (counters), not off.
    assert_eq!(tel.get("level").and_then(Json::as_str), Some("counters"));
    let warnings = tel.get("warnings").and_then(Json::as_arr).expect("warnings array");
    assert!(
        warnings.iter().any(|w| {
            w.as_str().is_some_and(|s| s.contains("BLUEFI_TELEMETRY") && s.contains("bogus"))
        }),
        "warnings must name the rejected value: {warnings:?}"
    );
}

#[test]
fn runtime_profile_with_telemetry_off_reports_zero_telemetry_allocs() {
    let report = run_profile("bluefi_runtime_profile_smoke_off.json", "off");
    // A disabled recorder leaves no per-stage data behind...
    let per_stage = report.get("per_stage").expect("per_stage section");
    for stage in PHASES {
        assert!(per_stage.get(stage).is_none(), "{stage} recorded while off");
    }
    // ...and the telemetry section still proves the zero-allocation claim
    // for the disabled configuration.
    let tel = report.get("telemetry").expect("telemetry section");
    assert_eq!(tel.get("level").and_then(Json::as_str), Some("off"));
    assert_eq!(tel.get("allocs_per_packet_enabled").and_then(Json::as_f64), Some(0.0));
    assert_eq!(tel.get("allocs_per_packet_disabled").and_then(Json::as_f64), Some(0.0));
    assert!(tel.get("counters").is_some_and(|c| c.get("packets_synthesized").is_none()));
    // The hot path itself stays allocation-free either way.
    let allocs = report.get("allocs_per_packet").expect("allocs section");
    assert_eq!(allocs.get("steady_state").and_then(Json::as_f64), Some(0.0));
}

/// A malformed flag value is an error, not a silent fallback to the
/// default: the run exits 2 before doing any work, names the flag, and
/// writes no report.
#[test]
fn runtime_profile_rejects_a_malformed_trials_value() {
    let out_path = std::env::temp_dir().join("bluefi_rt_bad_trials.json");
    let _ = std::fs::remove_file(&out_path);
    let out = Command::new(env!("CARGO_BIN_EXE_runtime_profile"))
        .args(["--trials", "abc", "--out"])
        .arg(&out_path)
        .output()
        .expect("runtime_profile must launch");
    assert_eq!(out.status.code(), Some(2), "exit status {}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trials") && stderr.contains("abc"), "stderr: {stderr}");
    assert!(!out_path.exists(), "no report may be written");
}
