//! The BlueFi benchmark: one command runs one workload in its own process,
//! prints every metric as a `workload metric value unit` line, checks the
//! program's outputs, and ends with one JSON result line.
//!
//! ```text
//! cargo run --release -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload ble_cold|audio_dm5|fleet_patch|daemon_fleet|all \
//!     --seed N [--seconds S] [--trace 0|1] [--trace-out PATH] [--out PATH]
//!     [--repeat K] [--smoke]
//! ```
//!
//! `--trace 0` (the default) times the end-to-end metrics with telemetry off;
//! `--trace 1` is a separate run that times each layer from outside, through
//! that layer's public calls, and reports the per-layer metrics. See the
//! README next to this package for the workloads and metrics.

mod checks;
mod cold;
mod daemon;
mod fleet;
mod inputs;
mod stats;
mod trace;

use bluefi_core::json::Json;
use bluefi_core::telemetry::{self, Level};
use checks::Checks;
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Instant;

/// End-to-end metrics (`--trace 0`) with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("throughput_pps", "1/s"),
    ("payload_kbps", "kbit/s"),
    ("rx_ber", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`) with their units. A layer that a
/// workload's path never enters reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bt.gfsk_us", "us"),
    ("core.cp_us", "us"),
    ("core.qam_us", "us"),
    ("wifi.demap_us", "us"),
    ("coding.fec_us", "us"),
    ("core.extract_us", "us"),
    ("core.pipeline_us", "us"),
    ("core.layer_sum_ratio", "ratio"),
    ("core.ofdm_symbols", "count"),
    ("coding.coded_bits", "count"),
    ("coding.flips", "count"),
    ("core.forced_bits", "count"),
    ("coding.memo_hits", "count"),
    ("template.hit_ratio", "ratio"),
    ("template.hit_p50_us", "us"),
    ("template.hit_p99_us", "us"),
    ("template.miss_p50_us", "us"),
    ("template.evictions_per_k", "count"),
    ("template.bytes_resident", "B"),
    ("template.keys", "count"),
    ("service.backend_p50_us", "us"),
    ("service.backend_p99_us", "us"),
    ("service.inbound_p50_us", "us"),
    ("service.inbound_p99_us", "us"),
    ("service.outbound_p50_us", "us"),
    ("service.outbound_p99_us", "us"),
    ("service.client_decode_us", "us"),
    ("service.response_bytes", "B"),
    ("service.sum_ratio", "ratio"),
    ("service.queue_highwater", "count"),
    ("service.shed", "count"),
    ("service.deadline_exceeded", "count"),
    ("service.errors", "count"),
    ("harness.send_lag_p99_us", "us"),
    ("trace.compose_mismatch", "count"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per end-to-end run: this process plus `SETUP_RUNS - 1` fresh
/// processes that only set up, so that one-time process-wide work counts.
const SETUP_RUNS: usize = 5;

/// Default timed length of one run, seconds.
const DEFAULT_SECONDS: f64 = 25.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold default-config BLE advertising packets.
    BleCold,
    /// Cold real-time DM5 audio packets.
    AudioDm5,
    /// A beacon fleet through the template cache.
    FleetPatch,
    /// A beacon fleet through the synthesis daemon.
    DaemonFleet,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::BleCold,
        Workload::AudioDm5,
        Workload::FleetPatch,
        Workload::DaemonFleet,
    ];

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BleCold => "ble_cold",
            Workload::AudioDm5 => "audio_dm5",
            Workload::FleetPatch => "fleet_patch",
            Workload::DaemonFleet => "daemon_fleet",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn run(self, opts: &Opts, setup_only: bool) -> Result<Outcome, String> {
        // Whatever `BLUEFI_TELEMETRY` says: timed phases record nothing, and
        // traced phases raise the level only around their own loops.
        telemetry::set_level(Level::Off);
        match self {
            Workload::BleCold => cold::run(cold::Kind::Ble, opts, setup_only),
            Workload::AudioDm5 => cold::run(cold::Kind::Dm5, opts, setup_only),
            Workload::FleetPatch => fleet::run(opts, setup_only),
            Workload::DaemonFleet => daemon::run(opts, setup_only),
        }
    }
}

/// What one run of a workload is asked to do.
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Timed length, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken sizes for the smoke test.
    pub smoke: bool,
    /// When the process (or the smoke run) started; set-up is timed from here.
    pub started: Instant,
}

impl Opts {
    /// `full` in a real run, `smoke` in the smoke test.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit)`: the contract metrics plus informational extras.
    pub values: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed (error responses, undecodable replies).
    pub failed: u64,
    /// Output checks.
    pub checks: Checks,
    /// Spans of a traced run.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Records a value.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, unit));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    repeat: usize,
    smoke: bool,
    setup_only: bool,
}

const USAGE: &str = "usage: benchmark --workload ble_cold|audio_dm5|fleet_patch|daemon_fleet|all \
--seed N [--seconds S] [--trace 0|1] [--trace-out PATH] [--out PATH] [--repeat K] [--smoke]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            trace_out: None,
            out: None,
            repeat: 0,
            smoke: false,
            setup_only: false,
        };
        let mut pending = it.next();
        while let Some(flag) = pending.take() {
            let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = Some(value("--workload")?),
                "--seed" => {
                    a.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    a.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".into());
                    }
                }
                "--trace" => {
                    // `--trace 0|1`, or a bare `--trace` meaning 1.
                    let next = it.next();
                    match next.as_deref() {
                        Some("0") => a.trace = false,
                        Some("1") => a.trace = true,
                        _ => {
                            a.trace = true;
                            pending = next;
                            continue;
                        }
                    }
                }
                "--trace-out" => a.trace_out = Some(value("--trace-out")?),
                "--out" => a.out = Some(value("--out")?),
                "--repeat" => {
                    a.repeat = value("--repeat")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?
                }
                "--smoke" => a.smoke = true,
                "--setup-only" => a.setup_only = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
            pending = it.next();
        }
        if a.workload.is_none() && !a.smoke {
            return Err("--workload is required".into());
        }
        Ok(a)
    }

    fn opts(&self, started: Instant) -> Opts {
        Opts {
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace,
            smoke: false,
            started,
        }
    }
}

fn main() {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run_main(&args, started) {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}

fn run_main(args: &Args, started: Instant) -> Result<(), String> {
    if args.smoke {
        print!("{}", smoke()?);
        return Ok(());
    }
    let name = args.workload.as_deref().unwrap_or("");
    let workloads: Vec<Workload> = if name == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?]
    };
    if args.repeat > 0 {
        return calibrate(args, &workloads);
    }
    if workloads.len() > 1 {
        // One process per workload, one after another.
        for w in workloads {
            let status = Command::new(self_exe()?)
                .args(child_args(args, w, args.seed))
                .status()
                .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
            if !status.success() {
                return Err(format!("{} exited with {status}", w.name()));
            }
        }
        return Ok(());
    }
    let w = workloads[0];
    let opts = args.opts(started);
    if args.setup_only {
        let o = w.run(&opts, true)?;
        println!("setup_s {}", o.get("setup_s").ok_or("set-up not timed")?);
        return Ok(());
    }
    let mut o = w.run(&opts, false)?;
    if !opts.trace {
        let mut samples = vec![o.get("setup_s").ok_or("set-up not timed")?];
        for _ in 1..SETUP_RUNS {
            samples.push(setup_in_child(w, args.seed)?);
        }
        o.put("setup_s", stats::median(&samples), "s");
    }
    if let (Some(path), Some(tracer)) = (&args.trace_out, &o.tracer) {
        write_file(path, &tracer.to_chrome_json().render())?;
    }
    let (text, report) = emit(w, &o, opts.trace)?;
    let out = match &args.out {
        Some(p) => p.clone(),
        None => format!(
            "target/benchmark/{}-seed{}-trace{}.json",
            w.name(),
            args.seed,
            opts.trace as u8
        ),
    };
    // Identifies the inputs: equal seeds give equal digests on any commit.
    let digest = format!("{:016x}", input_digest(w, args.seed, 256));
    let mut doc = report.clone();
    if let Json::Obj(fields) = &mut doc {
        fields.insert(0, ("workload".to_string(), Json::Str(w.name().to_string())));
        fields.insert(1, ("seed".to_string(), Json::Num(args.seed as f64)));
        fields.insert(2, ("seconds".to_string(), Json::Num(args.seconds)));
        fields.insert(3, ("input_digest".to_string(), Json::Str(digest.clone())));
        let all = o
            .values
            .iter()
            .map(|&(n, v, u)| (n.to_string(), metric_json(v, u)))
            .collect();
        fields.push(("all_values".to_string(), Json::Obj(all)));
    }
    write_file(&out, &doc.render())?;
    print!("{text}");
    println!("{} input_digest {digest} fnv1a64", w.name());
    println!("{}", report.render());
    Ok(())
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// The human-readable lines and the result object of one run. The result's
/// metrics are exactly the end-to-end list (`trace` false) or the per-layer
/// list (`trace` true).
fn emit(w: Workload, o: &Outcome, trace: bool) -> Result<(String, Json), String> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut text = String::new();
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match o.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("{}: metric {name} was not measured", w.name())),
        };
        text.push_str(&format!("{} {name} {value} {unit}\n", w.name()));
        metrics.push((name.to_string(), metric_json(value, unit)));
    }
    let attempted = o.attempted + o.checks.run;
    let failed = o.failed + o.checks.failed;
    let extras = o
        .values
        .iter()
        .filter(|(n, _, _)| !list.iter().any(|(l, _)| l == n));
    for &(name, value, unit) in extras {
        text.push_str(&format!("{} {name} {value} {unit}\n", w.name()));
    }
    text.push_str(&format!(
        "{} error_ratio {} ratio\n{} checks_failed {} count\n",
        w.name(),
        failed as f64 / attempted.max(1) as f64,
        w.name(),
        o.checks.failed
    ));
    if let Some(f) = &o.checks.first_failure {
        eprintln!("{}: check failed: {f}", w.name());
    }
    let report = Json::obj(vec![
        ("correct", Json::Bool(o.checks.failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    Ok((text, report))
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(p, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn self_exe() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))
}

fn child_args(args: &Args, w: Workload, seed: u64) -> Vec<String> {
    let mut v = vec![
        "--workload".to_string(),
        w.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        (args.trace as u8).to_string(),
    ];
    if let Some(t) = &args.trace_out {
        v.extend([
            "--trace-out".to_string(),
            format!("{t}.{}.{seed}", w.name()),
        ]);
    }
    v
}

/// One set-up in a fresh process, so process-wide lazy work is included.
fn setup_in_child(w: Workload, seed: u64) -> Result<f64, String> {
    let out = Command::new(self_exe()?)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let value = text
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok());
    match value {
        Some(v) if out.status.success() => Ok(v),
        _ => Err(format!(
            "set-up run of {} failed ({})",
            w.name(),
            out.status
        )),
    }
}

/// `--repeat K`: K runs of each workload in fresh processes, seeds
/// `seed..seed+K`, alternating the workload order between rounds; prints
/// each metric's median, quartiles and relative spreads.
fn calibrate(args: &Args, workloads: &[Workload]) -> Result<(), String> {
    let mut runs: Vec<Vec<(String, f64)>> = vec![Vec::new(); workloads.len()];
    for round in 0..args.repeat {
        let mut order: Vec<usize> = (0..workloads.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let w = workloads[i];
            let seed = args.seed + round as u64;
            let out = Command::new(self_exe()?)
                .args(child_args(args, w, seed))
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or("");
            let doc = Json::parse(last)
                .map_err(|e| format!("{} seed {seed}: bad result line: {e}", w.name()))?;
            if doc.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{} seed {seed}: outputs were not correct",
                    w.name()
                ));
            }
            if let Some(Json::Obj(metrics)) = doc.get("metrics") {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    runs[i].push((name.clone(), v));
                }
            }
            eprintln!("{} seed {seed} done", w.name());
        }
    }
    let mut stdout = std::io::stdout().lock();
    for (w, values) in workloads.iter().zip(&runs) {
        let names: std::collections::BTreeSet<&String> = values.iter().map(|(n, _)| n).collect();
        for name in names {
            let v: Vec<f64> = values
                .iter()
                .filter(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .collect();
            let (lo, hi) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| {
                    (a.min(x), b.max(x))
                });
            let Some([q1, med, q3]) = stats::quartiles(&v) else {
                continue;
            };
            let share = |d: f64| if med == 0.0 { 0.0 } else { d / med.abs() };
            writeln!(
                stdout,
                "{} {name} median {med} q1 {q1} q3 {q3} iqr_share {} range_share {}",
                w.name(),
                share(q3 - q1),
                share(hi - lo)
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Every workload in both modes at a fraction of a second each, in this
/// process; returns everything a real run would print.
fn smoke() -> Result<String, String> {
    let mut text = String::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            let opts = Opts {
                seed: 7,
                seconds: 0.3,
                trace,
                smoke: true,
                started: Instant::now(),
            };
            let o = w.run(&opts, false)?;
            let (lines, report) = emit(w, &o, trace)?;
            text.push_str(&lines);
            text.push_str(&report.render());
            text.push('\n');
        }
    }
    Ok(text)
}

/// Digest of the first `n` timed inputs of a workload.
fn input_digest(w: Workload, seed: u64, n: usize) -> u64 {
    let packets: Vec<inputs::Packet> = match w {
        Workload::BleCold => inputs::BleCold::new(seed).take(n).collect(),
        Workload::AudioDm5 => inputs::AudioDm5::new(seed).take(n).collect(),
        Workload::FleetPatch => fleet::stream(seed, fleet::BEACONS).take(n).collect(),
        Workload::DaemonFleet => daemon::stream(seed, daemon::BEACONS).take(n).collect(),
    };
    let mut h = packets
        .iter()
        .fold(inputs::FNV_BASIS, inputs::digest_packet);
    if w == Workload::DaemonFleet {
        let mut arrivals = daemon::arrivals(seed);
        for _ in 0..n {
            h = inputs::fnv1a(h, &arrivals.gap_s().to_bits().to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn smoke_prints_every_listed_metric_for_every_workload() {
        let t0 = Instant::now();
        let text = smoke().expect("smoke run");
        let took = t0.elapsed().as_secs_f64();
        assert!(took < 10.0, "smoke took {took:.1} s");
        let doc = benchmark_json();
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name()).to_vec());
        for key in ["end_to_end", "per_layer"] {
            for (metric, unit) in listed(&doc, key) {
                for w in &workloads {
                    let (head, tail) = (format!("{w} {metric} "), format!(" {unit}"));
                    let found = text
                        .lines()
                        .any(|l| l.starts_with(&head) && l.ends_with(&tail));
                    assert!(found, "{w} does not print {metric} in {unit}");
                }
            }
        }
        for line in text.lines().filter(|l| l.starts_with('{')) {
            let r = Json::parse(line).expect("result line parses");
            assert_eq!(
                r.get("correct").and_then(Json::as_bool),
                Some(true),
                "{line}"
            );
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json_and_names_are_valid() {
        let doc = benchmark_json();
        let as_owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), as_owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), as_owned(PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        for w in Workload::ALL {
            assert_eq!(
                input_digest(w, 11, 16),
                input_digest(w, 11, 16),
                "{}",
                w.name()
            );
            assert_ne!(
                input_digest(w, 11, 16),
                input_digest(w, 12, 16),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from)).unwrap();
        assert!(!parse("--workload ble_cold --trace 0").trace);
        assert!(parse("--workload ble_cold --trace 1 --seed 3").trace);
        let a = parse("--workload ble_cold --trace --trace-out t.json");
        assert!(a.trace);
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
        assert!(Args::parse(["--seed", "1"].map(String::from).into_iter()).is_err());
    }
}
