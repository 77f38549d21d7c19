//! Hermetic telemetry: spans, counters, gauges and fixed-bucket
//! histograms for the synthesis pipeline — std-only, zero external crates,
//! zero steady-state heap allocations while recording.
//!
//! ## Architecture
//!
//! The recorder is a set of `static` atomic cells plus the per-thread
//! causal-trace rings:
//!
//! * **Counters** ([`Counter`]) — monotonically increasing `AtomicU64`s
//!   (packets synthesized, FEC flips, simulator PER outcomes, …).
//! * **Gauges** ([`Gauge`]) — high-water marks updated with `fetch_max`
//!   (scratch-buffer capacities, fan-out width).
//! * **Timing histograms** — one log₂-bucket histogram per [`SpanKind`]
//!   (see [`hist`]), fed by [`span`] guards and [`record_duration`].
//! * **Causal traces** — at the `trace` level each span also becomes a
//!   parent-linked [`trace::TraceEvent`] carrying a per-packet trace ID
//!   and worker attribution, stored in per-thread rings with
//!   tail-exemplar retention and exportable as Chrome `trace_event` JSON
//!   (see [`trace`]). This is the only per-event store. Timestamps are
//!   monotonic nanoseconds since the recorder's first use ([`now_ns`]).
//!
//! Everything is preallocated or static, so steady-state recording
//! performs **zero heap allocations per packet** — proven by the
//! allocation probe in `bluefi_dsp::contracts` (see
//! `crates/core/tests/telemetry.rs` and the `runtime_profile` bench).
//!
//! ## Control surface
//!
//! The runtime level mirrors `BLUEFI_THREADS`: the `BLUEFI_TELEMETRY`
//! environment variable selects `off` (default), `counters` (counters,
//! gauges and aggregate timing histograms) or `trace` (everything plus
//! causal per-packet traces). An unrecognized value falls back to `off`
//! and records a one-shot [`warnings`] entry surfaced by [`snapshot`].
//! [`set_level`] overrides it programmatically. Below a hook's level the
//! hook is a single relaxed atomic load.
//!
//! ## Export
//!
//! [`snapshot`] captures the recorder into plain data ([`Snapshot`]):
//! JSON via [`crate::json::ToJson`], human-readable tables via
//! [`Snapshot::tables`]. Snapshotting allocates — it is a cold path.

pub mod hist;
pub mod table;
pub mod trace;

pub use hist::{Histogram, N_BUCKETS};
pub use table::Table;

use crate::json::{Json, ToJson};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How much the recorder captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing; every hook is a single relaxed atomic load.
    Off = 0,
    /// Counters, gauges and aggregate timing histograms.
    Counters = 1,
    /// Everything in `Counters`, plus causal per-packet traces (see
    /// [`trace`]).
    Trace = 2,
}

impl Level {
    /// The level's `BLUEFI_TELEMETRY` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Counters => "counters",
            Level::Trace => "trace",
        }
    }

    /// Parses a `BLUEFI_TELEMETRY` value: `off`, `counters` or `trace`,
    /// case-insensitive, surrounding whitespace ignored.
    pub fn parse(text: &str) -> Option<Level> {
        match text.trim().to_ascii_lowercase().as_str() {
            "off" => Some(Level::Off),
            "counters" => Some(Level::Counters),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The level requested by the `BLUEFI_TELEMETRY` environment variable, if
/// set to a recognized value. A set-but-unrecognized value records a
/// one-shot entry in [`warnings`] instead of failing silently.
pub fn env_level() -> Option<Level> {
    let raw = std::env::var("BLUEFI_TELEMETRY").ok()?;
    let parsed = Level::parse(&raw);
    if parsed.is_none() {
        static WARNED: AtomicBool = AtomicBool::new(false);
        if !WARNED.swap(true, Ordering::Relaxed) {
            push_warning(format!(
                "invalid BLUEFI_TELEMETRY value {raw:?}: expected \
                 off|counters|trace; telemetry stays off"
            ));
        }
    }
    parsed
}

/// Maximum retained [`warnings`] entries (the recorder never grows
/// unboundedly on a misconfiguration loop).
const MAX_WARNINGS: usize = 16;

fn warnings_store() -> &'static Mutex<Vec<String>> {
    static WARNINGS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    WARNINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn push_warning(msg: String) {
    let mut w = warnings_store().lock().unwrap_or_else(|p| p.into_inner());
    if w.len() < MAX_WARNINGS {
        w.push(msg);
    }
}

/// Configuration warnings recorded so far (e.g. an invalid
/// `BLUEFI_TELEMETRY` value). Exported on every [`Snapshot`] and *not*
/// cleared by [`reset`] — a misconfiguration stays visible for the whole
/// process lifetime.
pub fn warnings() -> Vec<String> {
    warnings_store().lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// The active recording level. Initialized lazily from `BLUEFI_TELEMETRY`
/// (default [`Level::Off`]); [`set_level`] overrides.
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Counters,
        2 => Level::Trace,
        _ => {
            let l = env_level().unwrap_or(Level::Off);
            set_level(l);
            l
        }
    }
}

/// Sets the recording level. Entering [`Level::Trace`] preallocates the
/// calling thread's trace state, so the steady state that follows never
/// allocates.
pub fn set_level(l: Level) {
    if l >= Level::Trace {
        trace::warm();
    }
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// True when counters/gauges/histograms are being recorded.
#[inline]
pub fn counters_on() -> bool {
    level() >= Level::Counters
}

/// True when causal per-packet traces are being captured.
#[inline]
pub fn trace_on() -> bool {
    level() >= Level::Trace
}

macro_rules! metric_enum {
    ($(#[$outer:meta])* $enum_name:ident { $($variant:ident => $name:literal,)+ }) => {
        $(#[$outer])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $enum_name {
            $(#[doc = $name] $variant,)+
        }

        impl $enum_name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$enum_name] = &[$($enum_name::$variant,)+];
            /// Number of variants (the static storage size).
            pub const COUNT: usize = Self::ALL.len();

            /// The metric's snake_case export name.
            pub fn name(self) -> &'static str {
                match self {
                    $($enum_name::$variant => $name,)+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotonically increasing event counters.
    Counter {
        PacketsSynthesized => "packets_synthesized",
        SymbolsProcessed => "ofdm_symbols_processed",
        FecFlips => "fec_flips",
        ForcedBits => "forced_bits",
        ViterbiDecodes => "viterbi_decodes",
        ViterbiCodedBits => "viterbi_coded_bits",
        // Never incremented; kept because the benchmark harness reads it.
        ViterbiMemoHits => "viterbi_memo_hits",
        RealtimeDecodes => "realtime_decodes",
        StageWaveforms => "stage_waveforms",
        ParFanouts => "par_fanouts",
        ParItems => "par_items",
        ParChunks => "par_chunks",
        ParWorkersClamped => "par_workers_clamped",
        SimTrials => "sim_trials",
        SimRssiReports => "sim_rssi_reports",
        SimRssiSumNegCentiDbm => "sim_rssi_sum_neg_centidbm",
        SimPacketsOk => "sim_packets_ok",
        SimPacketsCrcError => "sim_packets_crc_error",
        SimPacketsLost => "sim_packets_lost",
        TemplateHit => "template_hit",
        TemplateMiss => "template_miss",
        TemplateEvict => "template_evict",
        TemplateBypass => "template_bypass",
        ServiceAccepted => "service_accepted",
        ServiceShed => "service_shed",
    }
}

metric_enum! {
    /// Gauges: high-water marks (updated with `fetch_max`) except
    /// `TemplateBytesResident` and `ServiceActiveSessions`, which track
    /// absolute sizes (updated with `gauge_set` so shrinkage shows).
    Gauge {
        ScratchCodedBits => "scratch_coded_bits_highwater",
        ScratchPhaseSamples => "scratch_phase_samples_highwater",
        ScratchPsduBytes => "scratch_psdu_bytes_highwater",
        ParMaxWorkers => "par_max_workers",
        TemplateBytesResident => "template_bytes_resident",
        ServiceActiveSessions => "service_active_sessions",
        ServiceQueueDepth => "service_queue_depth_highwater",
    }
}

metric_enum! {
    /// Named timed regions. Each kind owns one aggregate timing histogram;
    /// at the `trace` level each occurrence also joins a causal trace.
    SpanKind {
        Synthesize => "synthesize",
        Gfsk => "gfsk_modulate",
        CpCompat => "cp_compat",
        Quantize => "qam_quantize_demap",
        FecReversal => "fec_reversal",
        Extract => "descramble_extract",
        StageBaseline => "stage_baseline",
        StageCp => "stage_cp",
        StageQam => "stage_qam",
        StagePilotNull => "stage_pilot_null",
        StageFec => "stage_fec",
        StageHeader => "stage_header",
        ParWorkerBusy => "par_worker_busy",
        ParWorkerIdle => "par_worker_idle",
        SimSession => "sim_session",
        TemplatePatch => "template_patch",
        TemplateBuild => "template_build",
        ServiceRequest => "service_request",
    }
}

impl SpanKind {
    /// The pipeline-phase kinds, in execution order — the per-stage
    /// breakdown `runtime_profile` reports ([`SpanKind::Synthesize`] is
    /// the enclosing total).
    pub fn pipeline_phases() -> [SpanKind; 5] {
        [
            SpanKind::Gfsk,
            SpanKind::CpCompat,
            SpanKind::Quantize,
            SpanKind::FecReversal,
            SpanKind::Extract,
        ]
    }
}

static COUNTERS: [AtomicU64; Counter::COUNT] =
    [const { AtomicU64::new(0) }; Counter::COUNT];
static GAUGES: [AtomicU64; Gauge::COUNT] = [const { AtomicU64::new(0) }; Gauge::COUNT];

/// Lock-free histogram cells sharing the [`hist`] bucket layout.
struct AtomicHist {
    buckets: [AtomicU64; hist::N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    const fn new() -> AtomicHist {
        AtomicHist {
            buckets: [const { AtomicU64::new(0) }; hist::N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[hist::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (slot, cell) in h.buckets.iter_mut().zip(&self.buckets) {
            *slot = cell.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h.min = self.min.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }

    fn reset(&self) {
        for cell in &self.buckets {
            cell.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

static SPAN_HISTS: [AtomicHist; SpanKind::COUNT] =
    [const { AtomicHist::new() }; SpanKind::COUNT];

/// Adds `n` to a counter. A relaxed-load no-op below [`Level::Counters`].
#[inline]
pub fn add(c: Counter, n: u64) {
    if counters_on() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Increments a counter by one.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// The counter's current value (0 when recording is off).
pub fn counter(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

/// Raises a high-water-mark gauge to at least `v`.
#[inline]
pub fn gauge_max(g: Gauge, v: u64) {
    if counters_on() {
        GAUGES[g as usize].fetch_max(v, Ordering::Relaxed);
    }
}

/// Sets a gauge to an absolute value (for quantities that can shrink,
/// e.g. [`Gauge::TemplateBytesResident`] across evictions).
#[inline]
pub fn gauge_set(g: Gauge, v: u64) {
    if counters_on() {
        GAUGES[g as usize].store(v, Ordering::Relaxed);
    }
}

/// The gauge's current high-water mark.
pub fn gauge(g: Gauge) -> u64 {
    GAUGES[g as usize].load(Ordering::Relaxed)
}

// -- Monotonic clock ------------------------------------------------------

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the recorder's first use (the timestamp
/// base of every [`trace::TraceEvent`]).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// -- Spans ----------------------------------------------------------------

/// Records a region's duration directly (used where a guard cannot span
/// the region, e.g. per-worker chunk times reported after a join). The
/// event's start is back-dated by the duration.
pub fn record_duration(kind: SpanKind, dur: Duration) {
    if !counters_on() {
        return;
    }
    let ns = dur.as_nanos().min(u64::MAX as u128) as u64;
    SPAN_HISTS[kind as usize].record(ns);
    if let Some(open) = trace::open() {
        trace::close(open, kind, now_ns().saturating_sub(ns), ns, 0);
    }
}

/// A drop-guard that times a region and records it as `kind`. Below
/// [`Level::Counters`] the guard is inert (no clock read, no recording).
#[must_use = "the span measures until the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    kind: SpanKind,
    start: Option<(u64, Instant)>,
    traced: Option<trace::OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start_ns, t)) = self.start {
            let ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if counters_on() {
                SPAN_HISTS[self.kind as usize].record(ns);
            }
            // Close even if the level dropped mid-span: the parent stack
            // must stay balanced.
            if let Some(open) = self.traced.take() {
                trace::close(open, self.kind, start_ns, ns, 0);
            }
        }
    }
}

/// Opens a timed span; the region ends (and is recorded) when the guard
/// drops. At [`Level::Trace`] the span also joins the calling thread's
/// causal trace (see [`trace`]).
#[inline]
pub fn span(kind: SpanKind) -> SpanGuard {
    if !counters_on() {
        return SpanGuard { kind, start: None, traced: None };
    }
    SpanGuard { kind, start: Some((now_ns(), Instant::now())), traced: trace::open() }
}

/// A trace-only drop-guard: records a parent-linked [`trace::TraceEvent`]
/// without touching the aggregate histograms — used for
/// sub-stage attribution (e.g. the patch path's stages reusing the
/// pipeline-phase kinds) where histogram entries would distort the
/// aggregate statistics. Inert below [`Level::Trace`].
#[must_use = "the span measures until the guard drops"]
#[derive(Debug)]
pub struct TraceSpan {
    kind: SpanKind,
    start: Option<(u64, Instant)>,
    open: Option<trace::OpenSpan>,
    detail: u64,
}

impl TraceSpan {
    /// Attaches a kind-specific payload exported as the event's `detail`
    /// (e.g. symbols requantized, FEC rows replayed).
    pub fn set_detail(&mut self, v: u64) {
        self.detail = v;
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let (Some((start_ns, t)), Some(open)) = (self.start, self.open.take()) {
            let ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            trace::close(open, self.kind, start_ns, ns, self.detail);
        }
    }
}

/// Opens a trace-only span (see [`TraceSpan`]).
#[inline]
pub fn trace_span(kind: SpanKind) -> TraceSpan {
    if !trace_on() {
        return TraceSpan { kind, start: None, open: None, detail: 0 };
    }
    TraceSpan {
        kind,
        start: Some((now_ns(), Instant::now())),
        open: trace::open(),
        detail: 0,
    }
}

/// The aggregate timing histogram for one span kind (empty when that kind
/// never ran or recording is off).
pub fn span_hist(kind: SpanKind) -> Histogram {
    SPAN_HISTS[kind as usize].snapshot()
}

// -- Snapshot & reset -----------------------------------------------------

/// One span kind's aggregate timing statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Which region.
    pub kind: SpanKind,
    /// Its timing histogram (nanoseconds).
    pub hist: Histogram,
}

impl ToJson for SpanStat {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str(self.kind.name().to_string())),
            ("ns", self.hist.to_json()),
        ])
    }
}

/// A point-in-time copy of the whole recorder, safe to serialize or
/// render after recording moves on.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The level the recorder was at when captured.
    pub level: Level,
    /// Every counter `(name, value)`, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Every gauge `(name, high-water value)`, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Timing statistics for every span kind that recorded at least one
    /// occurrence.
    pub spans: Vec<SpanStat>,
    /// Configuration warnings (see [`warnings`]); not cleared by
    /// [`reset`].
    pub warnings: Vec<String>,
}

impl Snapshot {
    /// The timing stats for one span kind, if it recorded anything.
    pub fn span_stat(&self, kind: SpanKind) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.kind == kind)
    }

    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == c.name())
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Human-readable tables: non-zero counters/gauges, and per-span
    /// timing (count, mean/p50/p90 in µs, total ms).
    pub fn tables(&self) -> Vec<Table> {
        let mut out = Vec::new();
        let mut counters = Table::new("telemetry — counters", &["counter", "value"]);
        for &(name, v) in self.counters.iter().filter(|(_, v)| *v > 0) {
            counters.row(vec![name.to_string(), v.to_string()]);
        }
        for &(name, v) in self.gauges.iter().filter(|(_, v)| *v > 0) {
            counters.row(vec![name.to_string(), v.to_string()]);
        }
        if !counters.rows.is_empty() {
            out.push(counters);
        }
        if !self.spans.is_empty() {
            let mut spans = Table::new(
                "telemetry — span timing",
                &["span", "count", "mean µs", "p50 µs", "p90 µs", "total ms"],
            );
            for s in &self.spans {
                let us = |v: Option<u64>| match v {
                    Some(n) => format!("{:.1}", n as f64 / 1e3),
                    None => "-".to_string(),
                };
                spans.row(vec![
                    s.kind.name().to_string(),
                    s.hist.count.to_string(),
                    match s.hist.mean() {
                        Some(m) => format!("{:.1}", m / 1e3),
                        None => "-".to_string(),
                    },
                    us(s.hist.percentile(50.0)),
                    us(s.hist.percentile(90.0)),
                    format!("{:.3}", s.hist.sum as f64 / 1e6),
                ]);
            }
            out.push(spans);
        }
        out
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        let metric_obj = |pairs: &[(&'static str, u64)]| {
            Json::Obj(
                pairs
                    .iter()
                    .map(|&(n, v)| (n.to_string(), Json::Num(v as f64)))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("level", Json::Str(self.level.name().to_string())),
            ("counters", metric_obj(&self.counters)),
            ("gauges", metric_obj(&self.gauges)),
            (
                "spans",
                Json::Obj(
                    self.spans
                        .iter()
                        .map(|s| (s.kind.name().to_string(), s.hist.to_json()))
                        .collect(),
                ),
            ),
            (
                "warnings",
                Json::Arr(self.warnings.iter().map(|w| Json::Str(w.clone())).collect()),
            ),
        ])
    }
}

/// Captures the recorder. Allocates (cold path) — never call from inside
/// a measured region.
pub fn snapshot() -> Snapshot {
    let counters = Counter::ALL.iter().map(|&c| (c.name(), counter(c))).collect();
    let gauges = Gauge::ALL.iter().map(|&g| (g.name(), gauge(g))).collect();
    let spans: Vec<SpanStat> = SpanKind::ALL
        .iter()
        .map(|&kind| SpanStat { kind, hist: span_hist(kind) })
        .filter(|s| !s.hist.is_empty())
        .collect();
    Snapshot { level: level(), counters, gauges, spans, warnings: warnings() }
}

/// Captures the recorder and then zeroes it, as one section boundary:
/// exactly [`snapshot`] followed by [`reset`], returning the snapshot
/// taken immediately before the reset. Every consumer that reports
/// per-section telemetry and then starts a fresh section — the
/// `runtime_profile` bench between its sections, the service daemon's
/// `stats` endpoint with `reset: true` — goes through this one helper so
/// their views of "what a section contains" cannot drift apart.
pub fn drain_section() -> Snapshot {
    let snap = snapshot();
    reset();
    snap
}

/// Zeroes every counter, gauge and histogram and clears every trace ring
/// (capacities retained). The level and [`warnings`] are
/// unchanged.
pub fn reset() {
    for cell in &COUNTERS {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in &GAUGES {
        cell.store(0, Ordering::Relaxed);
    }
    for h in &SPAN_HISTS {
        h.reset();
    }
    trace::reset_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is global; tests that flip the level serialize on this
    // (the integration suite in tests/telemetry.rs does the same).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn level_parse_roundtrip() {
        for l in [Level::Off, Level::Counters, Level::Trace] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse(" TRACE "), Some(Level::Trace));
        // The removed level and the old numeric / `none` aliases are
        // rejected rather than silently remapped.
        for gone in ["spans", "2", "none", "0", "garbage"] {
            assert_eq!(Level::parse(gone), None, "{gone}");
        }
        assert!(Level::Trace > Level::Counters, "trace strictly extends counters");
    }

    #[test]
    fn off_level_records_nothing() {
        let _g = lock();
        set_level(Level::Off);
        reset();
        incr(Counter::PacketsSynthesized);
        gauge_max(Gauge::ParMaxWorkers, 9);
        record_duration(SpanKind::Synthesize, Duration::from_micros(5));
        drop(span(SpanKind::Gfsk));
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::PacketsSynthesized), 0);
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_level_aggregates_without_events() {
        let _g = lock();
        set_level(Level::Counters);
        reset();
        add(Counter::SymbolsProcessed, 107);
        incr(Counter::PacketsSynthesized);
        gauge_max(Gauge::ScratchPsduBytes, 3400);
        gauge_max(Gauge::ScratchPsduBytes, 1200); // lower: no effect
        record_duration(SpanKind::FecReversal, Duration::from_micros(250));
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::SymbolsProcessed), 107);
        assert_eq!(snap.counter(Counter::PacketsSynthesized), 1);
        assert_eq!(gauge(Gauge::ScratchPsduBytes), 3400);
        let stat = snap.span_stat(SpanKind::FecReversal).expect("recorded");
        assert_eq!(stat.hist.count, 1);
        assert!(stat.hist.min >= 250_000 && stat.hist.min < 251_000);
        assert!(trace::snapshot().events.is_empty(), "no trace events below trace level");
        set_level(Level::Off);
        reset();
    }

    #[test]
    fn drain_section_is_snapshot_then_reset() {
        let _g = lock();
        set_level(Level::Counters);
        reset();
        incr(Counter::ServiceAccepted);
        add(Counter::ServiceShed, 3);
        gauge_max(Gauge::ServiceQueueDepth, 7);
        record_duration(SpanKind::ServiceRequest, Duration::from_micros(40));
        let first = drain_section();
        // The returned snapshot holds everything the section recorded...
        assert_eq!(first.counter(Counter::ServiceAccepted), 1);
        assert_eq!(first.counter(Counter::ServiceShed), 3);
        let stat = first.span_stat(SpanKind::ServiceRequest).expect("recorded");
        assert_eq!(stat.hist.count, 1);
        // ...and the recorder restarts empty: a second drain sees zeros
        // (no double counting, no carry-over) while the level survives.
        let second = drain_section();
        assert_eq!(second.level, Level::Counters);
        assert_eq!(second.counter(Counter::ServiceAccepted), 0);
        assert_eq!(second.counter(Counter::ServiceShed), 0);
        assert_eq!(gauge(Gauge::ServiceQueueDepth), 0);
        assert!(second.spans.is_empty());
        set_level(Level::Off);
        reset();
    }

    #[test]
    fn snapshot_tables_render() {
        let _g = lock();
        set_level(Level::Counters);
        reset();
        incr(Counter::ParFanouts);
        record_duration(SpanKind::ParWorkerBusy, Duration::from_millis(2));
        let tables = snapshot().tables();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].render().contains("par_fanouts"));
        assert!(tables[1].render().contains("par_worker_busy"));
        set_level(Level::Off);
        reset();
    }

    #[test]
    fn snapshot_json_schema() {
        let _g = lock();
        set_level(Level::Counters);
        reset();
        incr(Counter::SimTrials);
        incr(Counter::TemplateHit);
        incr(Counter::TemplateMiss);
        gauge_set(Gauge::TemplateBytesResident, 4096);
        let j = snapshot().to_json();
        assert_eq!(j.get("level").and_then(Json::as_str), Some("counters"));
        assert_eq!(
            j.get("counters").and_then(|c| c.get("sim_trials")).and_then(Json::as_f64),
            Some(1.0)
        );
        // The template-cache metrics are part of the exported schema: the
        // counters, the resident-size gauge, and the patch span must appear
        // under their pinned names.
        for name in ["template_hit", "template_miss", "template_evict", "template_bypass"] {
            assert!(
                j.get("counters").and_then(|c| c.get(name)).is_some(),
                "counter {name} missing from snapshot"
            );
        }
        // The service metrics likewise: counters, gauges and the
        // per-request span all export under pinned names.
        for name in ["service_accepted", "service_shed"] {
            assert!(
                j.get("counters").and_then(|c| c.get(name)).is_some(),
                "counter {name} missing from snapshot"
            );
        }
        for name in ["service_active_sessions", "service_queue_depth_highwater"] {
            assert!(
                j.get("gauges").and_then(|g| g.get(name)).is_some(),
                "gauge {name} missing from snapshot"
            );
        }
        assert_eq!(SpanKind::ServiceRequest.name(), "service_request");
        assert_eq!(
            j.get("gauges")
                .and_then(|g| g.get("template_bytes_resident"))
                .and_then(Json::as_f64),
            Some(4096.0)
        );
        assert_eq!(SpanKind::TemplatePatch.name(), "template_patch");
        assert_eq!(SpanKind::TemplateBuild.name(), "template_build");
        // Configuration warnings are part of the exported schema (always
        // present, usually empty).
        assert!(j.get("warnings").and_then(Json::as_arr).is_some());
        set_level(Level::Off);
        reset();
    }
}
