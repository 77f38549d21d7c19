//! Differential bit-exactness matrix over the pipeline's execution paths.
//!
//! The synthesis kernel has accumulated five ways to run — the allocating
//! API (`synthesize_at`), the zero-alloc scratch API
//! (`synthesize_at_with`), the parallel batch engine (`SynthesisBatch`),
//! the `bluefi-service` daemon transport (single and batch requests over a
//! unix socket, results decoded from the wire format), and the
//! template-cache patch path (`CachedEngine`, compared cold vs patched per
//! payload-mutation cell) — plus orthogonal toggles: worker count,
//! telemetry recording level, and (at compile time) stage contracts. All
//! of them must produce *bit-identical* packets: the matrix here runs the
//! same job set through every variant and compares the canonical word streams
//! (PSDU, flip set, scalar facts, final transmitted IQ) word-by-word,
//! reporting the exact diverging index and both values.
//!
//! Contracts cannot be toggled at runtime (`dsp::contracts::enabled()` is
//! `const`), so the report records which side of that axis this binary
//! was compiled on; the golden fixtures — shared between the debug test
//! profile and release CLI runs — close the contracts-on/off axis.

use crate::digest::{compare_words, words_of, Canon, Divergence};
use crate::trace::{ble_case_pdu, Chip};
use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
use bluefi_core::json::Json;
use bluefi_core::pipeline::{BlueFi, PhaseMode, Synthesis, SynthesisScratch};
use bluefi_core::reversal::DecodeStrategy;
use bluefi_core::telemetry::{self, Level};
use bluefi_core::template::{CachedEngine, CachedScratch};
use bluefi_core::{BatchJob, SynthesisBatch};
use bluefi_service::{proto, CachedBackend, Server, ServiceClient, ServiceConfig};
use bluefi_wifi::channels::{bt_channel_freq_hz, plan_channel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Worker counts the batch engine is exercised at.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Distinguishes concurrently-running matrix invocations' daemon sockets
/// (the telemetry-level sweep and the test harness both spin daemons in
/// one process).
static SOCKET_SERIAL: AtomicU64 = AtomicU64::new(0);

/// The outcome of one differential matrix run.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Variant labels compared against the allocating reference.
    pub variants: Vec<String>,
    /// Jobs in the matrix (per chip).
    pub jobs: usize,
    /// Whether stage contracts were compiled into this binary.
    pub contracts_enabled: bool,
    /// Telemetry levels the matrix ran under.
    pub levels: Vec<&'static str>,
    /// Every divergence found (empty iff all variants are bit-identical).
    pub divergences: Vec<Divergence>,
}

impl MatrixReport {
    /// True when every variant matched the reference bit-for-bit.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "differential matrix: {} jobs × {} variants (levels: {}; contracts {}): ",
            self.jobs,
            self.variants.len(),
            self.levels.join("/"),
            if self.contracts_enabled { "on" } else { "off" },
        );
        if self.is_clean() {
            out.push_str("bit-identical\n");
        } else {
            out.push_str(&format!("{} divergence(s)\n", self.divergences.len()));
            for d in &self.divergences {
                out.push_str(&format!("  {d}\n"));
            }
        }
        out
    }
}

/// The matrix job set: three BLE advertising payloads of different lengths
/// on three different (plannable) Bluetooth carriers.
/// BT BR channels 10 / 24 / 50 → 2.412 / 2.426 / 2.452 GHz, all of
/// which sit well inside a 2.4 GHz WiFi channel (0–1 would not). The
/// `service` axis resends these channel numbers over the wire, so the
/// daemon re-derives the same plans [`matrix_jobs`] embeds.
pub const CARRIERS: [u8; 3] = [10, 24, 50];

/// The matrix job set: three BLE advertising payloads of different lengths
/// on the three [`CARRIERS`].
pub fn matrix_jobs(chip: Chip) -> Result<Vec<BatchJob>, String> {
    let data_lens = [0usize, 8, 16];
    let mut jobs = Vec::with_capacity(CARRIERS.len());
    for (i, (&bt_ch, &len)) in CARRIERS.iter().zip(&data_lens).enumerate() {
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address: [0xA0 + i as u8, 0x11, 0x22, 0x33, 0x44, 0x55],
            adv_data: ble_case_pdu().adv_data[..len].to_vec(),
            tx_add: false,
        };
        let freq = bt_channel_freq_hz(bt_ch);
        let plan = plan_channel(freq)
            .ok_or_else(|| format!("BT channel {bt_ch} ({freq} Hz) must be plannable"))?;
        jobs.push(BatchJob {
            bits: adv_air_bits(&pdu, 37 + (i as u8 % 3)),
            plan,
            seed: chip.seed(),
        });
    }
    Ok(jobs)
}

/// The canonical word stream of one synthesis result, including the
/// final transmitted IQ from the chip model.
fn result_words(syn: &Synthesis, chip: Chip) -> Vec<u64> {
    let model = chip.model();
    let ppdu = model.transmit_with_seed(&syn.psdu, syn.mcs, model.default_tx_dbm, syn.seed);
    let mut words = Vec::with_capacity(syn.psdu.len() + syn.flips.len() + 2 * ppdu.iq.len() + 8);
    (syn.psdu.len()).push_words(&mut words);
    words.extend(words_of(&syn.psdu));
    (syn.flips.len()).push_words(&mut words);
    words.extend(words_of(&syn.flips));
    syn.n_symbols.push_words(&mut words);
    syn.forced_bits.push_words(&mut words);
    syn.mean_quant_error_db.push_words(&mut words);
    words.extend(words_of(&ppdu.iq));
    words
}

fn compare_jobs(
    label: &str,
    reference: &[Vec<u64>],
    got: &[Synthesis],
    chip: Chip,
    out: &mut Vec<Divergence>,
) {
    for (j, (exp, syn)) in reference.iter().zip(got).enumerate() {
        let stage = format!("{}/{label}/job{j}", chip.name());
        if let Some(d) = compare_words(&stage, exp, &result_words(syn, chip)) {
            out.push(d);
        }
    }
}

fn run_chip(bf: &BlueFi, chip: Chip, report: &mut MatrixReport) -> Result<(), String> {
    let jobs = matrix_jobs(chip)?;
    report.jobs = jobs.len();

    // Reference: the allocating API, one job at a time.
    let reference: Vec<Vec<u64>> = jobs
        .iter()
        .map(|job| result_words(&bf.synthesize_at(&job.bits, job.plan, job.seed), chip))
        .collect();

    // Variant 1: the zero-alloc scratch API, one scratch reused across
    // jobs (the reuse is the point — stale state must not leak).
    let mut scratch = SynthesisScratch::new();
    let via_scratch: Vec<Synthesis> = jobs
        .iter()
        .map(|job| bf.synthesize_at_with(&job.bits, job.plan, job.seed, &mut scratch).clone())
        .collect();
    compare_jobs("scratch", &reference, &via_scratch, chip, &mut report.divergences);

    // Variants 2–4: the parallel batch engine at each worker count.
    for &n in &WORKER_COUNTS {
        let batch = SynthesisBatch::with_workers(bf, n).synthesize(&jobs);
        compare_jobs(
            &format!("batch{n}"),
            &reference,
            &batch,
            chip,
            &mut report.divergences,
        );
    }

    // Variant 5: the same jobs through the `bluefi-service` daemon.
    run_service_chip(bf, chip, &reference, report)
}

/// The `service` axis: responses fetched over the daemon's unix socket
/// must be word-identical to a direct in-process synthesis of the same
/// job, whether sent one `synthesize` call per job or as one
/// `batch_synthesize` call. The daemon runs the template-cache backend,
/// which bypasses to the same cold pipeline the reference uses for this
/// (cache-ineligible) config, and the wire format round-trips every f64 as
/// its exact bit pattern, so the scalar facts must survive untouched too.
fn run_service_chip(
    bf: &BlueFi,
    chip: Chip,
    reference: &[Vec<u64>],
    report: &mut MatrixReport,
) -> Result<(), String> {
    let serial = SOCKET_SERIAL.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir()
        .join(format!("bluefi-conf-{}-{serial}.sock", std::process::id()));
    let path = path.to_string_lossy().to_string();
    let server = Server::spawn(
        &path,
        Arc::new(CachedBackend::new(CachedEngine::new(bf.clone()), 0)),
        ServiceConfig::default(),
    )
    .map_err(|e| format!("spawn conformance daemon: {e}"))?;
    let parse = |label: &str, result: &Json| {
        proto::synthesis_from_json(result)
            .ok_or_else(|| format!("{}/{label}: unparseable synthesis payload", chip.name()))
    };
    let run = || -> Result<(Vec<Synthesis>, Vec<Synthesis>), String> {
        let mut client =
            ServiceClient::connect(&path).map_err(|e| format!("connect {path}: {e}"))?;
        client
            .set_timeout(std::time::Duration::from_secs(30))
            .map_err(|e| format!("set timeout: {e}"))?;
        let jobs = matrix_jobs(chip)?;
        let wire: Vec<(&[bool], u8, u8)> =
            jobs.iter().zip(&CARRIERS).map(|(job, &ch)| (&job.bits[..], ch, job.seed)).collect();
        let mut singles = Vec::with_capacity(jobs.len());
        for (j, &(bits, ch, seed)) in wire.iter().enumerate() {
            let result = client
                .synthesize(bits, ch, seed)
                .map_err(|e| format!("{}/service/job{j}: {e}", chip.name()))?;
            singles.push(parse(&format!("service/job{j}"), &result)?);
        }
        let batch = client
            .batch_synthesize(&wire)
            .map_err(|e| format!("{}/service-batch: {e}", chip.name()))?;
        let results = batch
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}/service-batch: missing results array", chip.name()))?;
        let batched = results
            .iter()
            .enumerate()
            .map(|(j, r)| parse(&format!("service-batch/job{j}"), r))
            .collect::<Result<Vec<_>, _>>()?;
        if batched.len() != jobs.len() {
            return Err(format!(
                "{}/service-batch: {} results for {} jobs",
                chip.name(),
                batched.len(),
                jobs.len()
            ));
        }
        Ok((singles, batched))
    };
    // Always tear the daemon down, even when a request failed.
    let got = run();
    server.shutdown();
    let (singles, batched) = got?;
    compare_jobs("service", reference, &singles, chip, &mut report.divergences);
    compare_jobs("service-batch", reference, &batched, chip, &mut report.divergences);
    Ok(())
}

/// Byte masks for the mutation cells: distinct patterns so adjacent cells
/// cannot mask each other's divergences.
const MUTATION_MASKS: [u8; 3] = [0x01, 0xA5, 0xFF];

/// The `cached` engine axis: for every (channel, payload-mutation) cell,
/// the template-cache *patch* of a mutated payload must be bit-identical —
/// PSDU, flip set, scalar facts, transmitted IQ — to a cold synthesis of
/// that same payload on the anchored real-time pipeline. The engine is
/// primed with the unmutated base payload first, so every mutated request
/// is guaranteed to exercise the patch path, not the build path.
fn run_cached_chip(chip: Chip, report: &mut MatrixReport) -> Result<(), String> {
    let fleet = BlueFi {
        strategy: DecodeStrategy::Realtime,
        phase: PhaseMode::Anchored,
        ..BlueFi::default()
    };
    let engine = CachedEngine::new(fleet.clone());
    let mut scratch = CachedScratch::new();
    for (j, job) in matrix_jobs(chip)?.iter().enumerate() {
        engine.synthesize_at_with(&job.bits, job.plan, job.seed, &mut scratch);
        let n_bytes = job.bits.len() / 8;
        // Mutation cells: an early header byte, a mid-payload byte, and the
        // final byte (the beacon-counter position), each under its own mask.
        for (m, (&byte, &mask)) in
            [2usize, n_bytes / 2, n_bytes - 1].iter().zip(&MUTATION_MASKS).enumerate()
        {
            let mut bits = job.bits.clone();
            for bit in 0..8 {
                if mask >> bit & 1 == 1 {
                    bits[byte * 8 + bit] ^= true;
                }
            }
            let cold = result_words(&fleet.synthesize_at(&bits, job.plan, job.seed), chip);
            let patched =
                engine.synthesize_at_with(&bits, job.plan, job.seed, &mut scratch).clone();
            let stage = format!("{}/cached/job{j}/mut{m}", chip.name());
            if let Some(d) = compare_words(&stage, &cold, &result_words(&patched, chip)) {
                report.divergences.push(d);
            }
        }
    }
    Ok(())
}

/// Runs the execution-path matrix for both chip models at the current
/// telemetry level.
pub fn run_matrix() -> Result<MatrixReport, String> {
    let bf = BlueFi::default();
    let mut report = MatrixReport {
        variants: ["scratch".to_string()]
            .into_iter()
            .chain(WORKER_COUNTS.iter().map(|n| format!("batch{n}")))
            .chain(["service", "service-batch", "cached"].map(String::from))
            .collect(),
        contracts_enabled: bluefi_dsp::contracts::enabled(),
        levels: vec![telemetry::level().name()],
        ..MatrixReport::default()
    };
    for chip in [Chip::Ar9331, Chip::Rtl8811au] {
        run_chip(&bf, chip, &mut report)?;
        run_cached_chip(chip, &mut report)?;
    }
    Ok(report)
}

/// Runs the full matrix once per telemetry recording level (off, counters,
/// spans), restoring the prior level afterwards. Telemetry level is global
/// process state, so callers running tests in parallel must isolate this
/// in its own test binary.
pub fn run_matrix_at_levels() -> Result<MatrixReport, String> {
    let prior = telemetry::level();
    let mut combined = MatrixReport::default();
    let mut reference_off: Option<Vec<u64>> = None;
    let bf = BlueFi::default();
    for level in [Level::Off, Level::Counters, Level::Spans] {
        telemetry::set_level(level);
        let r = run_matrix();
        // Restore before propagating any error.
        if let Err(e) = &r {
            telemetry::set_level(prior);
            return Err(e.clone());
        }
        let mut r = r.unwrap_or_default();
        combined.variants = r.variants.clone();
        combined.jobs = r.jobs;
        combined.contracts_enabled = r.contracts_enabled;
        combined.levels.push(level.name());
        for d in &mut r.divergences {
            d.stage = format!("{}@{}", d.stage, level.name());
        }
        combined.divergences.append(&mut r.divergences);

        // Cross-level check: the level must not change the waveform. One
        // job's words at `Off` serve as the fixture for the other levels.
        let job = matrix_jobs(Chip::Ar9331).and_then(|js| {
            js.into_iter().next().ok_or_else(|| "empty job set".to_string())
        });
        match job {
            Ok(job) => {
                let words =
                    result_words(&bf.synthesize_at(&job.bits, job.plan, job.seed), Chip::Ar9331);
                match &reference_off {
                    None => reference_off = Some(words),
                    Some(exp) => {
                        let stage = format!("ar9331/level-{}/job0", level.name());
                        if let Some(d) = compare_words(&stage, exp, &words) {
                            combined.divergences.push(d);
                        }
                    }
                }
            }
            Err(e) => {
                telemetry::set_level(prior);
                return Err(e);
            }
        }
    }
    telemetry::set_level(prior);
    Ok(combined)
}
