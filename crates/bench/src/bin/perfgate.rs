//! Performance-regression gate: diffs a fresh `BENCH_runtime.json`
//! against the committed baseline with noise-aware, per-metric-class
//! thresholds, and exits nonzero with a per-metric report when any gated
//! metric regresses. This is what keeps the repo's perf claims (bit-packed
//! FEC reversal, cached beacon patching, zero steady-state allocations)
//! from eroding silently PR over PR.
//!
//! ## Threshold policy
//!
//! Single-CPU CI hosts show large run-to-run variance, so the bounds are
//! relative with an absolute slack floor, per metric class:
//!
//! * **means** — fail above `baseline × 1.6 + 25 µs`
//! * **tails (p90/p99)** — fail above `baseline × 2.0 + 50 µs` (tails are
//!   noisier than means)
//! * **allocations/packet** — any growth fails (the claim is exactly zero)
//! * **deterministic counts** (lower is better, e.g. template bytes) —
//!   any growth fails: the same inputs always give the same count
//! * **throughput** (higher is better) — fail below `baseline × 0.6`
//!
//! Ratios of two gated means (such as the cache-hit patch speedup over
//! the real-time cold packet) are not gated: a faster numerator alone would fail them
//! although nothing regressed, and each side is already gated on its own.
//!
//! A gated metric missing from the fresh report fails the gate (schema
//! erosion is a regression too); one missing from the baseline is noted
//! and skipped, so new metrics can be introduced before their baseline.
//!
//! Exit codes: 0 pass, 1 regression, 2 usage/parse error.
//!
//! Run: `cargo run --release -p bluefi-bench --bin perfgate
//!       [--baseline BENCH_baseline.json] [--fresh BENCH_runtime.json]`

use bluefi_bench::{arg_str, Reporter};
use bluefi_core::json::Json;

/// How a metric is judged (see the module docs for the exact bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Latency mean in µs: lower is better, moderate noise.
    MeanUs,
    /// Latency tail (p90/p99) in µs: lower is better, high noise.
    TailUs,
    /// Allocations per packet: must not grow at all.
    Alloc,
    /// A deterministic count where lower is better: must not grow at all.
    Count,
    /// Rate where higher is better (packets/s).
    HigherBetter,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::MeanUs => "mean",
            Class::TailUs => "tail",
            Class::Alloc => "alloc",
            Class::Count => "count",
            Class::HigherBetter => "rate",
        }
    }

    /// The worst fresh value the baseline tolerates (floor for
    /// higher-is-better classes, ceiling otherwise).
    fn bound(self, base: f64) -> f64 {
        match self {
            Class::MeanUs => base * 1.6 + 25.0,
            Class::TailUs => base * 2.0 + 50.0,
            Class::Alloc | Class::Count => base,
            Class::HigherBetter => base * 0.6,
        }
    }

    fn regressed(self, base: f64, fresh: f64) -> bool {
        match self {
            Class::HigherBetter => fresh < self.bound(base),
            _ => fresh > self.bound(base),
        }
    }
}

/// The gated metrics: every hard-won performance claim in the repo, by
/// dotted path into the report (`seg[key=value]` selects an array row).
const METRICS: &[(&str, Class)] = &[
    ("single_packet.mean_us", Class::MeanUs),
    ("single_packet.p90_us", Class::TailUs),
    ("total.mean_us", Class::MeanUs),
    ("per_stage.gfsk_modulate.mean_us", Class::MeanUs),
    ("per_stage.cp_compat.mean_us", Class::MeanUs),
    ("per_stage.qam_quantize_demap.mean_us", Class::MeanUs),
    ("per_stage.fec_reversal.mean_us", Class::MeanUs),
    ("per_stage.descramble_extract.mean_us", Class::MeanUs),
    ("realtime.single_packet.mean_us", Class::MeanUs),
    ("realtime.per_stage.gfsk_modulate.mean_us", Class::MeanUs),
    ("realtime.per_stage.qam_quantize_demap.mean_us", Class::MeanUs),
    ("realtime.per_stage.fec_reversal.mean_us", Class::MeanUs),
    ("realtime.per_stage.descramble_extract.mean_us", Class::MeanUs),
    ("beacon_fleet.patch_mean_us", Class::MeanUs),
    ("beacon_fleet.patch_p99_us", Class::TailUs),
    ("beacon_fleet.template_counters.template_bytes_resident", Class::Count),
    ("batch.threads[workers=1].packets_per_s", Class::HigherBetter),
    ("allocs_per_packet.steady_state", Class::Alloc),
    ("telemetry.allocs_per_packet_enabled", Class::Alloc),
    ("telemetry.allocs_per_packet_disabled", Class::Alloc),
];

/// Resolves a dotted metric path. A segment `name[key=value]` descends
/// into the array at `name` and picks the first element whose `key`
/// equals `value` (numerically).
fn resolve(doc: &Json, path: &str) -> Option<f64> {
    let mut cur = doc;
    for seg in path.split('.') {
        match seg.split_once('[') {
            Some((name, rest)) => {
                let cond = rest.strip_suffix(']')?;
                let (key, val) = cond.split_once('=')?;
                let want: f64 = val.parse().ok()?;
                let arr = cur.get(name).and_then(Json::as_arr)?;
                cur = arr.iter().find(|e| {
                    e.get(key).and_then(Json::as_f64).is_some_and(|v| v == want)
                })?;
            }
            None => cur = cur.get(seg)?,
        }
    }
    cur.as_f64()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e:?}"))
}

fn main() {
    let baseline_path = arg_str("--baseline", "BENCH_baseline.json");
    let fresh_path = arg_str("--fresh", "BENCH_runtime.json");
    let mut rep = Reporter::from_args();
    let (baseline, fresh) = match (load(&baseline_path), load(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("perfgate: {err}");
            }
            std::process::exit(2);
        }
    };
    let base_contracts =
        baseline.get("contracts_enabled").and_then(Json::as_bool).unwrap_or(false);
    let fresh_contracts =
        fresh.get("contracts_enabled").and_then(Json::as_bool).unwrap_or(false);

    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    for &(path, class) in METRICS {
        let base = resolve(&baseline, path);
        let fresh_v = resolve(&fresh, path);
        let (base, fresh_v, verdict) = match (base, fresh_v) {
            (Some(b), Some(f)) => {
                // Alloc counts are only meaningful when both runs probed
                // them (debug builds); a release run reports 0
                // unmeasured, which must not mask or fake a regression.
                if class == Class::Alloc && !(base_contracts && fresh_contracts) {
                    notes.push(format!("{path}: skipped (allocation probe not enabled in both runs)"));
                    continue;
                }
                let bad = class.regressed(b, f);
                if bad {
                    failures.push(format!(
                        "{path}: {f:.2} vs baseline {b:.2} (bound {:.2})",
                        class.bound(b)
                    ));
                }
                (b, f, if bad { "FAIL" } else { "ok" })
            }
            (Some(_), None) => {
                failures.push(format!("{path}: missing from fresh report"));
                rows.push(vec![
                    path.to_string(),
                    class.label().to_string(),
                    "-".to_string(),
                    "MISSING".to_string(),
                    "-".to_string(),
                    "FAIL".to_string(),
                ]);
                continue;
            }
            (None, _) => {
                notes.push(format!("{path}: no baseline value (skipped)"));
                continue;
            }
        };
        rows.push(vec![
            path.to_string(),
            class.label().to_string(),
            format!("{base:.2}"),
            format!("{fresh_v:.2}"),
            format!("{:.2}", class.bound(base)),
            verdict.to_string(),
        ]);
    }

    rep.table(
        &format!("perfgate — {fresh_path} vs {baseline_path}"),
        &["metric", "class", "baseline", "fresh", "bound", "verdict"],
        rows,
    );
    for n in &notes {
        rep.note(format!("note: {n}"));
    }
    if failures.is_empty() {
        rep.note("\nperfgate: PASS — no gated metric regressed");
        rep.finish();
    } else {
        rep.note(format!(
            "\nperfgate: FAIL — {} metric(s) regressed:",
            failures.len()
        ));
        for f in &failures {
            rep.note(format!("  {f}"));
        }
        rep.finish();
        std::process::exit(1);
    }
}
