//! `daemon_fleet`: a beacon fleet through the synthesis daemon.
//!
//! The daemon (`bluefi_service::Server` over the template-cache backend
//! with two workers) runs in this process on a Unix socket under
//! `target/benchmark/`. The load generator holds two connections. An open
//! loop sends Poisson arrivals at `OFFERED_RPS` from one writer thread and
//! reads the replies on one reader thread; latency runs from each request's
//! due time, so a stall also delays the requests queued behind it, and
//! throughput is goodput: replies within the latency limit per second. A
//! closed-loop capacity phase then keeps `WINDOW` requests in flight on
//! each connection from two threads; its rate is reported but not gated,
//! because every request crosses four thread hand-offs and on a small
//! shared host their wake-up latency moves it by a third between runs.

use crate::cold::{BER_PACKETS, BER_SEED, CHECK_PACKETS};
use crate::inputs::{fnv1a, Fleet, Packet, Poisson, FNV_BASIS};
use crate::stats::{peak_rss_mib, us, Sample};
use crate::trace::{Tracer, CAPACITY};
use crate::{fleet, Opts, Outcome};
use bluefi_core::json::Json;
use bluefi_core::pipeline::{Synthesis, SynthesisScratch};
use bluefi_core::telemetry::{self, Counter, Level};
use bluefi_core::template::{CachedEngine, CachedScratch};
use bluefi_core::BatchJob;
use bluefi_service::proto::{
    hex_encode, pack_bits, synthesis_from_json, FrameEvent, FrameReader, DEFAULT_MAX_FRAME,
};
use bluefi_service::{CachedBackend, Server, ServiceBackend, ServiceConfig, ServiceStats};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Beacons in the fleet (all on channel 38, all warmed before timing).
pub const BEACONS: usize = 32;

/// Open-loop arrival rate, requests per second.
const OFFERED_RPS: f64 = 200.0;

/// Latency limit, µs.
const LIMIT_US: f64 = 5000.0;

/// BR channel index of BLE advertising channel 38 (2426 MHz).
const BT_CHANNEL: u8 = 24;

/// Share of the timed length spent in the open loop; the rest measures
/// capacity.
const OPEN_SHARE: f64 = 0.8;

/// Share of the capacity phase that is ramp-up and not counted.
const RAMP: f64 = 0.15;

/// Requests each capacity-phase connection keeps in flight: the next
/// request waits in the daemon's socket while the current one is served.
const WINDOW: usize = 2;

/// How long a connection may stay silent before the run fails.
const STALL: Duration = Duration::from_secs(15);

/// The fleet's request stream for `seed` (uniform popularity).
pub fn stream(seed: u64, beacons: usize) -> Fleet {
    Fleet::new(seed, beacons, 0.0, &[38])
}

/// The open loop's arrival process for `seed`.
pub fn arrivals(seed: u64) -> Poisson {
    Poisson::new(seed ^ 0xA221_7A15, OFFERED_RPS)
}

fn job_key(bits: &[bool], seed: u8) -> u64 {
    let bytes: Vec<u8> = bits.iter().map(|&b| b as u8).collect();
    fnv1a(fnv1a(FNV_BASIS, &bytes), &[seed])
}

/// Backend entry and exit of one request, matched to the client's request
/// by the job's content.
struct Stamp {
    key: u64,
    entry: Instant,
    exit: Instant,
}

/// The traced run's timing wrapper around the cached backend.
struct TimedBackend {
    inner: Arc<CachedBackend>,
    on: AtomicBool,
    stamps: Mutex<Vec<Stamp>>,
}

impl ServiceBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn synthesize(&self, job: &BatchJob) -> Synthesis {
        let entry = Instant::now();
        let out = self.inner.synthesize(job);
        let exit = Instant::now();
        if self.on.load(Ordering::Relaxed) {
            let stamp = Stamp {
                key: job_key(&job.bits, job.seed),
                entry,
                exit,
            };
            self.stamps
                .lock()
                .expect("no panics while holding the stamp lock")
                .push(stamp);
        }
        out
    }
}

/// A running daemon and the load generator's two connections.
struct Daemon {
    server: Server,
    cached: Arc<CachedBackend>,
    timed: Option<Arc<TimedBackend>>,
    conns: [UnixStream; 2],
    path: PathBuf,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Daemon {
    /// Spawns the daemon and warms every beacon's template through it.
    fn start(trace: bool, fleet: &Fleet) -> Result<Daemon, String> {
        let dir = PathBuf::from("target/benchmark");
        std::fs::create_dir_all(&dir).map_err(io("cannot create target/benchmark"))?;
        let path = dir.join(format!("daemon-{}.sock", std::process::id()));
        let cached = Arc::new(CachedBackend::new(CachedEngine::new(fleet::config()), 2));
        let timed = trace.then(|| {
            Arc::new(TimedBackend {
                inner: Arc::clone(&cached),
                on: AtomicBool::new(false),
                stamps: Mutex::new(Vec::with_capacity(1 << 16)),
            })
        });
        let backend: Arc<dyn ServiceBackend> = match &timed {
            Some(t) => Arc::clone(t) as Arc<dyn ServiceBackend>,
            None => Arc::clone(&cached) as Arc<dyn ServiceBackend>,
        };
        let cfg = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let server = Server::spawn(&path, backend, cfg).map_err(io("cannot start the daemon"))?;
        let connect = || -> Result<UnixStream, String> {
            let s = UnixStream::connect(&path).map_err(io("cannot connect"))?;
            s.set_read_timeout(Some(STALL))
                .map_err(io("set_read_timeout"))?;
            s.set_write_timeout(Some(STALL))
                .map_err(io("set_write_timeout"))?;
            Ok(s)
        };
        let conns = [connect()?, connect()?];
        let mut d = Daemon {
            server,
            cached,
            timed,
            conns,
            path,
        };
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        for (i, p) in fleet.prefill().iter().enumerate() {
            let id = i as u64 + 1;
            write_all(&mut d.conns[0], &request(id, p))?;
            let (got, _) = decode(&read_frame(&mut reader, &mut d.conns[0])?)?;
            if got != id {
                return Err(format!("reply {got} to warm-up request {id}"));
            }
        }
        Ok(d)
    }

    /// Closes the connections, drains the daemon and joins its threads.
    fn stop(self) -> Result<(), String> {
        drop(self.conns);
        self.server.drain();
        let stopped = self.server.shutdown();
        let _ = std::fs::remove_file(&self.path);
        match stopped.stats().active_connections() {
            0 => Ok(()),
            n => Err(format!("{n} daemon connections still open after shutdown")),
        }
    }
}

fn request(id: u64, p: &Packet) -> Vec<u8> {
    let params = Json::obj(vec![
        ("bits", Json::Str(hex_encode(&pack_bits(&p.bits)))),
        ("n_bits", Json::Num(p.bits.len() as f64)),
        ("bt_channel", Json::Num(BT_CHANNEL as f64)),
        ("seed", Json::Num(p.seed as f64)),
    ]);
    let body = Json::obj(vec![
        ("jsonrpc", Json::Str("2.0".to_string())),
        ("id", Json::Num(id as f64)),
        ("method", Json::Str("synthesize".to_string())),
        ("params", params),
    ])
    .render();
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    frame
}

/// Parses a reply into its id and synthesis.
fn decode(payload: &[u8]) -> Result<(u64, Synthesis), String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    let id = doc.get("id").and_then(Json::as_f64).unwrap_or(-1.0) as u64;
    let Some(result) = doc.get("result") else {
        return Err(format!(
            "error reply: {}",
            doc.get("error").map(Json::render).unwrap_or_default()
        ));
    };
    let syn = synthesis_from_json(result).ok_or("reply does not hold a synthesis")?;
    Ok((id, syn))
}

/// Writes one whole frame.
fn write_all(stream: &mut UnixStream, frame: &[u8]) -> Result<(), String> {
    stream.write_all(frame).map_err(io("write"))
}

/// Reads one frame from a blocking socket.
fn read_frame(reader: &mut FrameReader, stream: &mut UnixStream) -> Result<Vec<u8>, String> {
    match reader.poll(stream).map_err(io("read"))? {
        FrameEvent::Frame(payload) => Ok(payload),
        FrameEvent::WouldBlock => Err(format!("no reply within {} s", STALL.as_secs())),
        FrameEvent::Eof | FrameEvent::TruncatedEof => {
            Err("the daemon closed the connection".into())
        }
        FrameEvent::TooLarge(n) => Err(format!("oversized reply ({n} B)")),
    }
}

/// One open-loop request as sent.
struct Sent {
    id: u64,
    due: Instant,
    write_start: Instant,
    key: u64,
    payload_bits: u64,
    /// The input, kept for the first requests to check their replies.
    keep: Option<Packet>,
}

/// One open-loop request as answered.
struct Reply {
    sent: Sent,
    recv: Instant,
    parsed: Instant,
    bytes: usize,
    /// The decoded synthesis, kept only for requests that keep their input.
    result: Result<Option<Synthesis>, String>,
}

impl Reply {
    fn latency_us(&self) -> f64 {
        us(self.parsed - self.sent.due)
    }
}

/// What the open loop measured.
struct Open {
    replies: Vec<Reply>,
    lag_us: Vec<f64>,
    wall_s: f64,
}

/// Sends Poisson arrivals for `seconds` and collects every reply. This
/// thread writes each request at its due time on the connection with fewer
/// replies outstanding; one reader thread reads the replies in send order,
/// blocking on the connection the next reply comes on, so it never polls.
fn open_loop(
    conns: &[UnixStream; 2],
    fleet: &mut Fleet,
    arrivals: &mut Poisson,
    seconds: f64,
    keep: u64,
) -> Result<Open, String> {
    let clone = |c: &UnixStream| c.try_clone().map_err(io("try_clone"));
    let mut writers = [clone(&conns[0])?, clone(&conns[1])?];
    let readers = [clone(&conns[0])?, clone(&conns[1])?];
    let outstanding = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let (tx, rx) = mpsc::channel::<(usize, Sent)>();
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|s| {
        let reader = s.spawn(|| read_replies(readers, rx, &outstanding));
        let mut lag_us = Vec::with_capacity(1 << 14);
        let mut sent = 0u64;
        let mut t = 0.0;
        let written = loop {
            t += arrivals.gap_s();
            if t >= seconds {
                break Ok(());
            }
            let due = start + Duration::from_secs_f64(t);
            let Some(p) = fleet.next() else { break Ok(()) };
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let c = usize::from(
                outstanding[1].load(Ordering::Relaxed) < outstanding[0].load(Ordering::Relaxed),
            );
            let write_start = Instant::now();
            sent += 1;
            if let Err(e) = write_all(&mut writers[c], &request(sent, &p)) {
                break Err(e);
            }
            outstanding[c].fetch_add(1, Ordering::Relaxed);
            lag_us.push(us(write_start - due));
            let key = job_key(&p.bits, p.seed);
            let record = Sent {
                id: sent,
                due,
                write_start,
                key,
                payload_bits: 8 * p.payload_bytes as u64,
                keep: (sent <= keep).then_some(p),
            };
            if tx.send((c, record)).is_err() {
                break Err("the reply reader stopped".to_string());
            }
        };
        drop(tx);
        let replies = reader
            .join()
            .map_err(|_| "the reply reader panicked".to_string())?;
        let replies = match (replies, written) {
            (Err(e), _) | (Ok(_), Err(e)) => return Err(e),
            (Ok(r), Ok(())) => r,
        };
        Ok(Open {
            replies,
            lag_us,
            wall_s: start.elapsed().as_secs_f64(),
        })
    })
}

/// The reply reader: takes each sent request in order and reads its reply.
fn read_replies(
    mut streams: [UnixStream; 2],
    sent: mpsc::Receiver<(usize, Sent)>,
    outstanding: &[AtomicUsize; 2],
) -> Result<Vec<Reply>, String> {
    let mut frames = [
        FrameReader::new(DEFAULT_MAX_FRAME),
        FrameReader::new(DEFAULT_MAX_FRAME),
    ];
    let mut replies = Vec::with_capacity(1 << 14);
    for (c, sent) in sent {
        let payload = read_frame(&mut frames[c], &mut streams[c])?;
        let recv = Instant::now();
        outstanding[c].fetch_sub(1, Ordering::Relaxed);
        let decoded = decode(&payload);
        let parsed = Instant::now();
        let result = match decoded {
            Ok((id, _)) if id != sent.id => Err(format!("reply {id} to request {}", sent.id)),
            Ok((_, syn)) => Ok(sent.keep.is_some().then_some(syn)),
            Err(e) => Err(e),
        };
        replies.push(Reply {
            sent,
            recv,
            parsed,
            bytes: payload.len(),
            result,
        });
    }
    Ok(replies)
}

/// What the capacity phase measured.
struct Capacity {
    /// Replies, all of them.
    replies: u64,
    /// Error or mismatched replies.
    failed: u64,
    /// Good replies after the ramp.
    counted: u64,
    /// Seconds from the end of the ramp to the last reply.
    wall_s: f64,
}

/// A closed loop on each connection for `seconds`, `WINDOW` requests in
/// flight on each. Replies in the first `RAMP` of the phase are not
/// counted: the client threads are new and still warming up.
fn capacity(conns: &[UnixStream; 2], fleet: &Fleet, seconds: f64) -> Result<Capacity, String> {
    let start = Instant::now();
    let ramp_end = start + Duration::from_secs_f64(seconds * RAMP);
    let per_conn = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let mut inputs = fleet.fork(c as u64 + 1);
                s.spawn(move || -> Result<[u64; 3], String> {
                    let mut stream = conn.try_clone().map_err(io("try_clone"))?;
                    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
                    let [mut replies, mut failed, mut counted] = [0; 3];
                    let mut in_flight = VecDeque::with_capacity(WINDOW);
                    let mut id = 0;
                    loop {
                        while in_flight.len() < WINDOW && start.elapsed().as_secs_f64() < seconds {
                            let p = inputs.next().ok_or("the fleet stream ended")?;
                            id += 1;
                            write_all(&mut stream, &request(id, &p))?;
                            in_flight.push_back(id);
                        }
                        let Some(want) = in_flight.pop_front() else {
                            break;
                        };
                        let reply = decode(&read_frame(&mut reader, &mut stream)?);
                        replies += 1;
                        match reply {
                            Ok((got, _)) if got == want => {
                                counted += u64::from(Instant::now() >= ramp_end);
                            }
                            _ => failed += 1,
                        }
                    }
                    Ok([replies, failed, counted])
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a capacity client panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let sum = |i: usize| per_conn.iter().map(|r| r[i]).sum::<u64>();
    Ok(Capacity {
        replies: sum(0),
        failed: sum(1),
        counted: sum(2),
        wall_s: ramp_end.elapsed().as_secs_f64(),
    })
}

/// Runs `daemon_fleet`.
pub fn run(opts: &Opts, setup_only: bool) -> Result<Outcome, String> {
    let mut fleet = stream(opts.seed, opts.size(BEACONS, 4));
    let daemon = Daemon::start(opts.trace, &fleet)?;
    let eligible = daemon
        .cached
        .engine()
        .cache_eligible(&mut CachedScratch::new());
    let mut o = Outcome::default();
    o.put("setup_s", opts.started.elapsed().as_secs_f64(), "s");
    if setup_only {
        daemon.stop()?;
        return Ok(o);
    }
    o.checks.check(eligible, || {
        "the daemon's backend is not cache-eligible".into()
    });
    let measured = measure(&daemon, opts, &mut fleet, &mut o);
    let stats = daemon.server.stats();
    put_server_stats(stats, &mut o);
    let store = daemon.cached.engine().store();
    o.put(
        "template.bytes_resident",
        store.bytes_resident() as f64,
        "B",
    );
    o.put("template.keys", store.len() as f64, "count");
    let stopped = daemon.stop();
    let kept = measured?;
    stopped?;

    // The first replies, decoded by the client, must equal the in-process
    // synthesis of the same request in every field.
    let bf = fleet::config();
    let mut cold = SynthesisScratch::new();
    for (p, syn) in &kept {
        o.checks.same(
            "daemon reply",
            syn,
            bf.synthesize_at_with(&p.bits, p.plan, p.seed, &mut cold),
        );
        o.checks.psdu_len(syn);
    }
    let sample: Vec<Packet> = stream(BER_SEED, BEACONS)
        .take(opts.size(BER_PACKETS, 2))
        .collect();
    o.put("rx_ber", fleet::ber(&sample), "ratio");
    Ok(o)
}

/// The timed phases; returns the kept (input, reply) pairs for the checks.
fn measure(
    d: &Daemon,
    opts: &Opts,
    fleet: &mut Fleet,
    o: &mut Outcome,
) -> Result<Vec<(Packet, Synthesis)>, String> {
    let mut arrivals = arrivals(opts.seed);
    let keep = opts.size(CHECK_PACKETS, 4) as u64;
    let open = if let Some(timed) = &d.timed {
        let base = open_loop(&d.conns, fleet, &mut arrivals, opts.seconds / 3.0, keep)?;
        let base_p50 = Sample::new(base.replies.iter().map(Reply::latency_us).collect()).pct(50.0);
        timed.on.store(true, Ordering::Relaxed);
        telemetry::set_level(Level::Counters);
        let count = telemetry::counter;
        let before = [
            Counter::TemplateHit,
            Counter::TemplateMiss,
            Counter::TemplateEvict,
        ]
        .map(count);
        let traced = open_loop(&d.conns, fleet, &mut arrivals, opts.seconds * 2.0 / 3.0, 0);
        let after = [
            Counter::TemplateHit,
            Counter::TemplateMiss,
            Counter::TemplateEvict,
        ]
        .map(count);
        telemetry::set_level(Level::Off);
        timed.on.store(false, Ordering::Relaxed);
        let traced = traced?;
        let stamps = std::mem::take(&mut *timed.stamps.lock().expect("stamp lock"));
        let [hits, misses, evictions] = [0, 1, 2].map(|i| after[i] - before[i]);
        let requests = traced.replies.len().max(1) as f64;
        o.put(
            "template.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        o.put(
            "template.evictions_per_k",
            evictions as f64 * 1e3 / requests,
            "count",
        );
        trace_layers(opts, &traced, &stamps, base_p50, o);
        merge(base, traced)
    } else {
        let open = open_loop(
            &d.conns,
            fleet,
            &mut arrivals,
            opts.seconds * OPEN_SHARE,
            keep,
        )?;
        let cap = capacity(&d.conns, fleet, opts.seconds * (1.0 - OPEN_SHARE))?;
        o.put("capacity_rps", cap.counted as f64 / cap.wall_s, "1/s");
        let on_time = open
            .replies
            .iter()
            .filter(|r| r.result.is_ok() && r.latency_us() <= LIMIT_US);
        let (good, good_bits) = on_time.fold((0, 0), |(n, b), r| (n + 1, b + r.sent.payload_bits));
        o.put("throughput_pps", good as f64 / open.wall_s, "1/s");
        o.put(
            "payload_kbps",
            good_bits as f64 / open.wall_s / 1e3,
            "kbit/s",
        );
        o.attempted += cap.replies;
        o.failed += cap.failed;
        let lat = Sample::new(open.replies.iter().map(Reply::latency_us).collect());
        let late = open
            .replies
            .iter()
            .filter(|r| r.result.is_err() || r.latency_us() > LIMIT_US);
        o.put("latency_p50_us", lat.pct(50.0), "us");
        o.put("latency_p99_us", lat.pct(99.0), "us");
        o.put(
            "deadline_miss_ratio",
            late.count() as f64 / lat.len().max(1) as f64,
            "ratio",
        );
        o.put("latency_samples", lat.len() as f64, "count");
        o.put("offered_rps", OFFERED_RPS, "1/s");
        o.put("peak_rss_mib", peak_rss_mib()?, "MiB");
        open
    };
    o.put(
        "harness.send_lag_p99_us",
        Sample::new(open.lag_us.clone()).pct(99.0),
        "us",
    );
    let failed = open.replies.iter().filter(|r| r.result.is_err()).count() as u64;
    o.attempted += open.replies.len() as u64;
    o.failed += failed;
    Ok(open
        .replies
        .into_iter()
        .filter_map(|r| match (r.sent.keep, r.result) {
            (Some(p), Ok(Some(syn))) => Some((p, syn)),
            _ => None,
        })
        .collect())
}

fn merge(mut a: Open, b: Open) -> Open {
    a.replies.extend(b.replies);
    a.lag_us = b.lag_us;
    a
}

fn put_server_stats(stats: &ServiceStats, o: &mut Outcome) {
    o.put(
        "service.queue_highwater",
        stats.queue_highwater() as f64,
        "count",
    );
    o.put("service.shed", stats.shed() as f64, "count");
    o.put(
        "service.deadline_exceeded",
        stats.deadline_exceeded() as f64,
        "count",
    );
    o.put("service.errors", stats.errors() as f64, "count");
}

/// The service layers' spans and the metrics each one feeds.
const SERVICE_LAYERS: [(&str, &str, &str); 3] = [
    (
        "service.inbound",
        "service.inbound_p50_us",
        "service.inbound_p99_us",
    ),
    (
        "service.backend",
        "service.backend_p50_us",
        "service.backend_p99_us",
    ),
    (
        "service.outbound",
        "service.outbound_p50_us",
        "service.outbound_p99_us",
    ),
];

/// Per-layer spans of the traced open loop: each request's client latency
/// splits at the backend's entry and exit into inbound (request encoding,
/// socket, parse, queue wait), backend and outbound (reply encoding,
/// socket, client parse).
fn trace_layers(opts: &Opts, open: &Open, stamps: &[Stamp], base_p50: f64, o: &mut Outcome) {
    let by_key: HashMap<u64, &Stamp> = stamps.iter().map(|s| (s.key, s)).collect();
    let mut tracer = Tracer::new(opts.started, CAPACITY);
    let (mut parts, mut total, mut bytes) = (0.0, 0.0, 0.0);
    for r in open.replies.iter().filter(|r| r.result.is_ok()) {
        if !tracer.has_room(6) {
            break;
        }
        let (id, sent) = (r.sent.id, &r.sent);
        total += us(r.parsed - sent.write_start);
        bytes += r.bytes as f64;
        tracer.push("harness.send_lag", sent.due, sent.write_start, None, id);
        let root = tracer.push("service.request", sent.write_start, r.parsed, None, id);
        let Some(st) = by_key.get(&sent.key) else {
            continue;
        };
        tracer.push(
            "service.inbound",
            sent.write_start,
            st.entry,
            Some(root),
            id,
        );
        tracer.push("service.backend", st.entry, st.exit, Some(root), id);
        let out = tracer.push("service.outbound", st.exit, r.parsed, Some(root), id);
        tracer.push("service.client_decode", r.recv, r.parsed, Some(out), id);
        parts += us(st.entry - sent.write_start) + us(st.exit - st.entry) + us(r.parsed - st.exit);
    }
    let n = open
        .replies
        .iter()
        .filter(|r| r.result.is_ok())
        .count()
        .max(1) as f64;
    for (span, p50, p99) in SERVICE_LAYERS {
        let d = tracer.durations_us(span);
        o.put(p50, d.pct(50.0), "us");
        o.put(p99, d.pct(99.0), "us");
    }
    o.put(
        "service.client_decode_us",
        tracer.durations_us("service.client_decode").mean(),
        "us",
    );
    o.put("service.response_bytes", bytes / n, "B");
    o.put("service.sum_ratio", parts / total, "ratio");
    let traced_p50 = Sample::new(open.replies.iter().map(Reply::latency_us).collect()).pct(50.0);
    o.put(
        "trace.overhead_pct",
        (traced_p50 - base_p50) / base_p50 * 100.0,
        "%",
    );
    o.put("traced_requests", open.replies.len() as f64, "count");
    o.tracer = Some(tracer);
}
