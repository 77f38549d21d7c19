//! Smoke test for the perf-regression gate: against the committed
//! baseline the gate passes; against a synthetically regressed report it
//! exits nonzero and names the offending metrics; a gated metric missing
//! from the fresh report fails too (schema erosion is a regression).

use bluefi_core::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

struct Gate {
    status: std::process::ExitStatus,
    stdout: String,
}

fn run_gate(baseline: &std::path::Path, fresh: &std::path::Path) -> Gate {
    let out = Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .arg("--baseline")
        .arg(baseline)
        .arg("--fresh")
        .arg(fresh)
        .output()
        .expect("perfgate must launch");
    Gate { status: out.status, stdout: String::from_utf8_lossy(&out.stdout).into_owned() }
}

/// Multiplies the number at a dotted `path` of object keys in place.
fn scale_num(doc: &mut Json, path: &[&str], factor: f64) {
    let mut cur = doc;
    for (i, key) in path.iter().enumerate() {
        let Json::Obj(fields) = cur else { panic!("{key}: not an object") };
        let slot = fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing key {key}"));
        if i == path.len() - 1 {
            let Json::Num(n) = &mut slot.1 else { panic!("{key}: not a number") };
            *n *= factor;
            return;
        }
        cur = &mut slot.1;
    }
}

/// Drops a top-level section from the report.
fn remove_key(doc: &mut Json, key: &str) {
    let Json::Obj(fields) = doc else { panic!("not an object") };
    fields.retain(|(k, _)| k != key);
}

fn committed_baseline() -> (PathBuf, Json) {
    let path = repo_root().join("BENCH_baseline.json");
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("committed BENCH_baseline.json"))
        .expect("baseline parses");
    (path, doc)
}

#[test]
fn gate_passes_on_committed_baseline() {
    let (baseline, _) = committed_baseline();
    let fresh = repo_root().join("BENCH_runtime.json");
    let gate = run_gate(&baseline, &fresh);
    assert!(
        gate.status.success(),
        "gate must pass on the committed reports:\n{}",
        gate.stdout
    );
    assert!(gate.stdout.contains("perfgate: PASS"), "{}", gate.stdout);
}

#[test]
fn gate_fails_on_synthetic_regression_and_names_the_metric() {
    let (baseline, mut doc) = committed_baseline();
    // A 2× mean latency regression blows through the mean bound
    // (×1.6 + 25 µs) for any baseline above ~60 µs; packet synthesis is
    // milliseconds, so the margin is enormous.
    scale_num(&mut doc, &["single_packet", "mean_us"], 2.0);
    scale_num(&mut doc, &["beacon_fleet", "patch_p99_us"], 4.0);
    // The direct 61-tap Gaussian convolution is about 25× slower than the
    // pulse table, so reverting to it looks like this.
    scale_num(&mut doc, &["per_stage", "gfsk_modulate", "mean_us"], 25.0);
    // Swapping the real-time plan's mask replay for the weighted Viterbi
    // makes its FEC stage about 6× slower.
    scale_num(&mut doc, &["realtime", "per_stage", "fec_reversal", "mean_us"], 6.0);
    // Quantizing every point a second time to demap it, with libm rounding
    // both times, made the real-time quantize/demap stage about 1.6×
    // slower; doubling it clears the mean bound.
    scale_num(&mut doc, &["realtime", "per_stage", "qam_quantize_demap", "mean_us"], 2.0);
    let regressed = std::env::temp_dir().join("bluefi_perfgate_regressed.json");
    std::fs::write(&regressed, doc.render()).expect("write regressed report");
    let gate = run_gate(&baseline, &regressed);
    let _ = std::fs::remove_file(&regressed);
    assert_eq!(gate.status.code(), Some(1), "regression must exit 1:\n{}", gate.stdout);
    assert!(gate.stdout.contains("perfgate: FAIL"), "{}", gate.stdout);
    for metric in [
        "single_packet.mean_us",
        "beacon_fleet.patch_p99_us",
        "per_stage.gfsk_modulate.mean_us",
        "realtime.per_stage.fec_reversal.mean_us",
        "realtime.per_stage.qam_quantize_demap.mean_us",
    ] {
        assert!(
            gate.stdout.contains(&format!("{metric}:")),
            "failure report must name {metric}:\n{}",
            gate.stdout
        );
    }
}

#[test]
fn gate_fails_when_a_gated_metric_disappears() {
    let (baseline, mut doc) = committed_baseline();
    remove_key(&mut doc, "beacon_fleet");
    let eroded = std::env::temp_dir().join("bluefi_perfgate_eroded.json");
    std::fs::write(&eroded, doc.render()).expect("write eroded report");
    let gate = run_gate(&baseline, &eroded);
    let _ = std::fs::remove_file(&eroded);
    assert_eq!(gate.status.code(), Some(1), "missing metric must exit 1:\n{}", gate.stdout);
    assert!(
        gate.stdout.contains("beacon_fleet.patch_mean_us: missing from fresh report"),
        "{}",
        gate.stdout
    );
}

#[test]
fn gate_exits_2_on_unreadable_input() {
    let gate = run_gate(
        &repo_root().join("BENCH_baseline.json"),
        &std::env::temp_dir().join("bluefi_perfgate_does_not_exist.json"),
    );
    assert_eq!(gate.status.code(), Some(2), "{}", gate.stdout);
}
