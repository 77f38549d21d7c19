//! `ble_cold` and `audio_dm5`: cold synthesis in a closed loop on one
//! thread. Every input is new, so the template cache, the service and the
//! Viterbi repeat-decode memo are bypassed and GFSK, CP, QAM and FEC
//! reversal do all the work.

use crate::checks::rx_ber;
use crate::inputs::{AudioDm5, BleCold, Packet};
use crate::stats::{peak_rss_mib, us, Sample};
use crate::trace::{Tracer, CAPACITY};
use crate::{Opts, Outcome};
use bluefi_bt::gfsk::GfskScratch;
use bluefi_coding::ViterbiScratch;
use bluefi_core::pipeline::{BlueFi, PhaseMode, Synthesis, SynthesisScratch};
use bluefi_core::qam::{QuantizedSymbol, Quantizer};
use bluefi_core::reversal::{extract_psdu_into, reverse_fec_with, DecodeStrategy, Reversal};
use bluefi_core::telemetry::{self, Counter, Level};
use bluefi_dsp::Cx;
use bluefi_wifi::qam::demap_point_into;
use bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ;
use bluefi_wifi::Interleaver;
use std::hint::black_box;
use std::time::Instant;

/// Seed of the fixed loopback sample behind `rx_ber`: the same packets on
/// every run and every commit, so the metric moves only when the
/// synthesized waveforms do.
pub const BER_SEED: u64 = 0x00B1_DEF1;

/// Packets in the `rx_ber` loopback sample.
pub const BER_PACKETS: usize = 64;

/// Packets in the seeded output-check sample.
pub const CHECK_PACKETS: usize = 32;

/// Which cold workload.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `ble_cold`: default config (weighted Viterbi, MCS 7).
    Ble,
    /// `audio_dm5`: the A2DP streamer's config (real-time decoder, MCS 5).
    Dm5,
}

impl Kind {
    fn config(self) -> BlueFi {
        match self {
            Kind::Ble => BlueFi::default(),
            Kind::Dm5 => BlueFi {
                strategy: DecodeStrategy::Realtime,
                ..Default::default()
            },
        }
    }

    /// Latency limit, µs: the paper's Sec 4.8 budget for one cold packet
    /// (1.25 ms), or one DM5 packet's five slots plus its return slot.
    fn limit_us(self) -> f64 {
        match self {
            Kind::Ble => 1250.0,
            Kind::Dm5 => 3750.0,
        }
    }

    fn stream(self, seed: u64) -> Box<dyn Iterator<Item = Packet>> {
        match self {
            Kind::Ble => Box::new(BleCold::new(seed)),
            Kind::Dm5 => Box::new(AudioDm5::new(seed)),
        }
    }

    /// Set-up packets covering every channel plan at the largest size, from
    /// a stream the timed inputs never repeat.
    fn warmup(self, seed: u64) -> Vec<Packet> {
        let seed = seed ^ 0x5EED_57A2;
        match self {
            Kind::Ble => BleCold::new(seed).event(Some(31)).to_vec(),
            Kind::Dm5 => AudioDm5::new(seed).one_per_channel(),
        }
    }
}

/// Latencies of one closed-loop phase.
pub struct Timed {
    /// Per-operation latency, µs.
    pub lat_us: Vec<f64>,
    /// Bluetooth payload bits carried by the timed operations.
    pub payload_bits: u64,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
}

/// A closed loop: take the next input, time one operation on it, and repeat
/// until `seconds` of wall time have passed. Input generation is outside the
/// per-operation timing but inside the wall time.
pub fn closed_loop(
    seconds: f64,
    inputs: &mut dyn Iterator<Item = Packet>,
    mut op: impl FnMut(&Packet),
) -> Timed {
    let mut lat_us = Vec::with_capacity(1 << 16);
    let mut payload_bits = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let Some(p) = inputs.next() else { break };
        let t0 = Instant::now();
        op(&p);
        lat_us.push(us(t0.elapsed()));
        payload_bits += 8 * p.payload_bytes as u64;
    }
    Timed {
        lat_us,
        payload_bits,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

impl Timed {
    /// The end-to-end latency and throughput metrics of a closed loop.
    pub fn report(self, o: &mut Outcome, limit_us: f64) {
        let n = self.lat_us.len();
        let s = Sample::new(self.lat_us);
        o.put("latency_p50_us", s.pct(50.0), "us");
        o.put("latency_p99_us", s.pct(99.0), "us");
        o.put("throughput_pps", n as f64 / self.wall_s, "1/s");
        o.put(
            "payload_kbps",
            self.payload_bits as f64 / self.wall_s / 1e3,
            "kbit/s",
        );
        o.put("deadline_miss_ratio", s.share_above(limit_us), "ratio");
        o.put("latency_samples", n as f64, "count");
        o.attempted += n as u64;
    }
}

/// Layer span names in pipeline order, and the metric each one feeds.
const LAYERS: [(&str, &str); 6] = [
    ("bt.gfsk", "bt.gfsk_us"),
    ("core.cp", "core.cp_us"),
    ("core.qam", "core.qam_us"),
    ("wifi.demap", "wifi.demap_us"),
    ("coding.fec", "coding.fec_us"),
    ("core.extract", "core.extract_us"),
];

/// The cold pipeline composed from each layer's public calls, in the order
/// `BlueFi::synthesize_at_with` makes them, so every layer can be timed from
/// outside. Quantization and demapping run as two passes over the symbols
/// where the pipeline fuses them per symbol; the result is identical, which
/// `trace.compose_mismatch` checks on every packet.
struct Layered {
    gfsk: GfskScratch,
    phase: Vec<f64>,
    ext: Vec<f64>,
    hat: Vec<f64>,
    quantizer: Quantizer,
    il: Interleaver,
    fft: Vec<Cx>,
    syms: Vec<QuantizedSymbol>,
    demap: Vec<bool>,
    interleaved: Vec<bool>,
    block: Vec<bool>,
    w_of: Vec<u32>,
    coded: Vec<bool>,
    weights: Vec<u32>,
    vit: ViterbiScratch,
    rev: Reversal,
    psdu: Vec<u8>,
}

/// What the composed pipeline produced besides its buffers.
struct Composed {
    n_symbols: usize,
    forced_bits: usize,
    mean_quant_error_db: f64,
}

impl Layered {
    fn new(bf: &BlueFi) -> Layered {
        assert_eq!(
            bf.phase,
            PhaseMode::Cumulative,
            "the composition follows the cumulative phase path"
        );
        let modulation = bf.strategy.mcs().modulation;
        Layered {
            gfsk: GfskScratch::new(),
            phase: Vec::new(),
            ext: Vec::new(),
            hat: Vec::new(),
            quantizer: Quantizer::new(modulation, bf.scale),
            il: Interleaver::new(modulation),
            fft: Vec::new(),
            syms: Vec::new(),
            demap: Vec::new(),
            interleaved: Vec::new(),
            block: Vec::new(),
            w_of: Vec::new(),
            coded: Vec::new(),
            weights: Vec::new(),
            vit: ViterbiScratch::new(),
            rev: Reversal::default(),
            psdu: Vec::new(),
        }
    }

    /// Synthesizes `p` layer by layer; `marks` receives the start and the
    /// end of each of the six layers (seven instants).
    fn run(&mut self, bf: &BlueFi, p: &Packet, marks: &mut [Instant; 7]) -> Composed {
        let mcs = bf.strategy.mcs();
        let tx = p.plan.tx_subcarrier;
        let offset_hz = tx * SUBCARRIER_SPACING_HZ;
        marks[0] = Instant::now();
        self.gfsk
            .modulate_phase_into(&p.bits, &bf.gfsk, offset_hz, &mut self.phase);
        marks[1] = Instant::now();
        let offset_cps = offset_hz / bf.gfsk.sample_rate_hz;
        bf.cp
            .make_compatible_into(&self.phase, offset_cps, &mut self.ext, &mut self.hat);
        marks[2] = Instant::now();
        let bl = bf.cp.block_len();
        let n_symbols = self.hat.len() / bl;
        if self.syms.len() < n_symbols {
            self.syms.resize_with(n_symbols, QuantizedSymbol::default);
        }
        let mut err_sum = 0.0;
        for (b, sym) in self.syms[..n_symbols].iter_mut().enumerate() {
            let body = &self.hat[b * bl + bf.cp.cp_len..(b + 1) * bl];
            self.quantizer.quantize_body_into(body, &mut self.fft, sym);
            err_sum += sym.in_band_error_db(tx, bf.weights.band);
        }
        marks[3] = Instant::now();
        let ncbps = self.il.block_len();
        let bps = mcs.modulation.bits_per_symbol();
        self.w_of.clear();
        self.w_of
            .extend((0..ncbps).map(|k| bf.weights.weight_at(self.il.subcarrier_of(k), tx)));
        self.coded.clear();
        self.weights.clear();
        self.interleaved.resize(ncbps, false);
        for sym in &self.syms[..n_symbols] {
            for (d, &point) in sym.points.iter().enumerate() {
                demap_point_into(mcs.modulation, point, &mut self.demap);
                self.interleaved[d * bps..(d + 1) * bps].copy_from_slice(&self.demap);
            }
            self.il
                .deinterleave_into(&self.interleaved, &mut self.block);
            self.coded.extend_from_slice(&self.block);
            self.weights.extend_from_slice(&self.w_of);
        }
        marks[4] = Instant::now();
        reverse_fec_with(
            &self.coded,
            &self.weights,
            bf.strategy,
            tx,
            &mut self.vit,
            &mut self.rev,
        );
        marks[5] = Instant::now();
        let forced_bits = extract_psdu_into(&mut self.rev.scrambled, p.seed, &mut self.psdu);
        marks[6] = Instant::now();
        Composed {
            n_symbols,
            forced_bits,
            mean_quant_error_db: err_sum / n_symbols.max(1) as f64,
        }
    }

    fn matches(&self, c: &Composed, s: &Synthesis) -> bool {
        self.psdu == s.psdu
            && self.rev.flips == s.flips
            && c.n_symbols == s.n_symbols
            && c.forced_bits == s.forced_bits
            && c.mean_quant_error_db.to_bits() == s.mean_quant_error_db.to_bits()
    }
}

/// Runs `ble_cold` or `audio_dm5`.
pub fn run(kind: Kind, opts: &Opts, setup_only: bool) -> Result<Outcome, String> {
    let bf = kind.config();
    let mut scratch = SynthesisScratch::new();
    let warm = kind.warmup(opts.seed);
    for p in &warm {
        black_box(bf.synthesize_at_with(&p.bits, p.plan, p.seed, &mut scratch));
    }
    let mut o = Outcome::default();
    o.put("setup_s", opts.started.elapsed().as_secs_f64(), "s");
    if setup_only {
        return Ok(o);
    }
    let mut inputs = kind.stream(opts.seed);
    let mut direct = |p: &Packet| {
        black_box(bf.synthesize_at_with(&p.bits, p.plan, p.seed, &mut scratch));
    };
    if opts.trace {
        let base = closed_loop(opts.seconds / 3.0, &mut inputs, &mut direct);
        let base_p50 = Sample::new(base.lat_us).pct(50.0);
        traced(
            &bf,
            &warm,
            opts,
            &mut *inputs,
            &mut scratch,
            base_p50,
            &mut o,
        );
    } else {
        closed_loop(opts.seconds, &mut inputs, direct).report(&mut o, kind.limit_us());
        o.put("peak_rss_mib", peak_rss_mib()?, "MiB");
    }

    // Seeded sample of the timed inputs: a warm scratch and a fresh one must
    // agree in every field, and the PSDU must fill its symbols exactly.
    for p in kind.stream(opts.seed).take(opts.size(CHECK_PACKETS, 2)) {
        let warm_out = bf
            .synthesize_at_with(&p.bits, p.plan, p.seed, &mut scratch)
            .clone();
        let mut fresh = SynthesisScratch::new();
        let fresh_out = bf.synthesize_at_with(&p.bits, p.plan, p.seed, &mut fresh);
        o.checks.same("warm scratch", &warm_out, fresh_out);
        o.checks.psdu_len(&warm_out);
    }
    let sample: Vec<Packet> = kind
        .stream(BER_SEED)
        .take(opts.size(BER_PACKETS, 2))
        .collect();
    let syns: Vec<Synthesis> = sample
        .iter()
        .map(|p| {
            bf.synthesize_at_with(&p.bits, p.plan, p.seed, &mut scratch)
                .clone()
        })
        .collect();
    o.put("rx_ber", rx_ber(&sample, &syns), "ratio");
    Ok(o)
}

/// The traced phase: each packet goes through the composed pipeline (one
/// span per layer under a `packet` root) and through a direct
/// `synthesize_at_with` (a `core.pipeline` span), alternating which runs
/// first so neither always finds the other's data in cache.
fn traced(
    bf: &BlueFi,
    warm: &[Packet],
    opts: &Opts,
    inputs: &mut dyn Iterator<Item = Packet>,
    scratch: &mut SynthesisScratch,
    base_p50: f64,
    o: &mut Outcome,
) {
    let mut layered = Layered::new(bf);
    let mut marks = [Instant::now(); 7];
    for p in warm {
        layered.run(bf, p, &mut marks);
    }
    let mut tracer = Tracer::new(opts.started, CAPACITY);
    telemetry::set_level(Level::Counters);
    let memo_before = telemetry::counter(Counter::ViterbiMemoHits);
    let (mut n, mut mismatch, mut symbols, mut coded, mut flips, mut forced) =
        (0u64, 0, 0, 0, 0, 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds * 2.0 / 3.0 && tracer.has_room(8) {
        let Some(p) = inputs.next() else { break };
        let composed_first = n % 2 == 0;
        let c = if composed_first {
            Some(layered.run(bf, &p, &mut marks))
        } else {
            None
        };
        let t0 = Instant::now();
        let syn = bf.synthesize_at_with(&p.bits, p.plan, p.seed, scratch);
        let t1 = Instant::now();
        let c = c.unwrap_or_else(|| layered.run(bf, &p, &mut marks));
        mismatch += u64::from(!layered.matches(&c, syn));
        symbols += c.n_symbols;
        coded += layered.coded.len();
        flips += layered.rev.flips.len();
        forced += c.forced_bits;
        let root = tracer.push("packet", marks[0], marks[6], None, n);
        for (i, (span, _)) in LAYERS.iter().enumerate() {
            tracer.push(span, marks[i], marks[i + 1], Some(root), n);
        }
        tracer.push("core.pipeline", t0, t1, None, n);
        n += 1;
    }
    let memo_hits = telemetry::counter(Counter::ViterbiMemoHits) - memo_before;
    telemetry::set_level(Level::Off);

    let mut layer_sum = 0.0;
    for (span, metric) in LAYERS {
        let mean = tracer.durations_us(span).mean();
        layer_sum += mean;
        o.put(metric, mean, "us");
    }
    let pipeline = tracer.durations_us("core.pipeline").mean();
    let per = |total: usize| total as f64 / n.max(1) as f64;
    o.put("core.pipeline_us", pipeline, "us");
    o.put("core.layer_sum_ratio", layer_sum / pipeline, "ratio");
    o.put("core.ofdm_symbols", per(symbols), "count");
    o.put("coding.coded_bits", per(coded), "count");
    o.put("coding.flips", per(flips), "count");
    o.put("core.forced_bits", per(forced), "count");
    o.put("coding.memo_hits", memo_hits as f64, "count");
    o.put("trace.compose_mismatch", mismatch as f64, "count");
    o.checks.check(mismatch == 0, || {
        format!("{mismatch} packets composed from the layer calls differ from the pipeline's")
    });
    let traced_p50 = tracer.durations_us("packet").pct(50.0);
    o.put(
        "trace.overhead_pct",
        (traced_p50 - base_p50) / base_p50 * 100.0,
        "%",
    );
    o.put("traced_packets", n as f64, "count");
    o.attempted += n;
    o.tracer = Some(tracer);
}
