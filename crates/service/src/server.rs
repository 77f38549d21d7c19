//! The daemon: a `UnixListener` accept loop, a bounded request queue
//! feeding a fixed worker pool, per-request deadlines, and graceful
//! drain.
//!
//! ## Threading model
//!
//! ```text
//!  accept thread ──► connection thread (one per client)
//!                        │  parse frame → validate → classify
//!                        │  control methods answered inline
//!                        ▼
//!                  bounded queue (load-shed when full)
//!                        │
//!                        ▼
//!                  worker pool (width from core::par policy)
//!                        │  backend.synthesize / synthesize_batch
//!                        ▼
//!                  per-request channel → connection thread → socket
//! ```
//!
//! The connection thread owns the response write, so every request gets
//! **exactly one** response: a shed, an expired deadline and a normal
//! completion are mutually exclusive outcomes of the same wait.
//!
//! ## Server state machine
//!
//! `Running → Draining → Stopped`, one-way. `Draining` (entered by the
//! `drain` endpoint or [`Server::shutdown`]) closes the listener and
//! unlinks the socket (new connections are refused at connect time),
//! answers new work with [`ErrorCode::ShuttingDown`], and lets queued and
//! executing work finish. When the queue is empty and no worker is busy
//! the state advances to `Stopped` and every thread unwinds.
//!
//! ## Liveness
//!
//! Blocking reads use a short read timeout as a tick, so connection
//! threads observe drain promptly even on idle sockets; writes carry a
//! timeout so a dead slow reader cannot wedge a thread forever. Workers
//! wake on a condvar with the same tick. Nothing in the daemon waits
//! unboundedly on a peer.

use crate::backend::ServiceBackend;
use crate::proto::{
    self, parse_request, response_err, response_ok, ErrorCode, FrameEvent, FrameReader,
    RpcError, RpcRequest,
};
use bluefi_core::json::{Json, ToJson};
use bluefi_core::telemetry::{self, Counter, Gauge, SpanKind};
use bluefi_core::{clamped_workers, worker_count, BatchJob};
use bluefi_wifi::channels::{bt_channel_freq_hz, plan_channel};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server lifecycle states (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// Accepting connections and work.
    Running,
    /// Rejecting new connections and new work; finishing what's in flight.
    Draining,
    /// Fully stopped; every thread has unwound or is unwinding.
    Stopped,
}

impl ServerState {
    /// The state's wire spelling (the `stats` endpoint's `state` field).
    pub fn name(self) -> &'static str {
        match self {
            ServerState::Running => "running",
            ServerState::Draining => "draining",
            ServerState::Stopped => "stopped",
        }
    }
}

/// Daemon configuration. `Default` gives conservative production-ish
/// bounds; tests tighten them to provoke shed and deadline paths.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker-pool width; 0 means the `core::par` policy
    /// (`clamped_workers(worker_count())`).
    pub workers: usize,
    /// Bound on the request queue; an arriving job beyond this is shed.
    pub queue_depth: usize,
    /// Cap on a single frame's payload bytes.
    pub max_frame_bytes: usize,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline: Duration,
    /// Liveness tick for socket reads and worker waits.
    pub tick: Duration,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            queue_depth: 256,
            max_frame_bytes: proto::DEFAULT_MAX_FRAME,
            default_deadline: Duration::from_secs(10),
            tick: Duration::from_millis(25),
        }
    }
}

/// Monotonic operational counters, readable while the daemon runs. These
/// are server-local (each [`Server`] owns one set) so concurrent servers
/// in one process — the test harness spins up several — never cross-talk;
/// the accepted/shed/session signals are additionally mirrored into the
/// process-wide `core::telemetry` recorder.
#[derive(Debug, Default)]
pub struct ServiceStats {
    accepted: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    parse_errors: AtomicU64,
    truncated: AtomicU64,
    oversized: AtomicU64,
    deadline_exceeded: AtomicU64,
    queue_highwater: AtomicU64,
    active_connections: AtomicU64,
    active_sessions: AtomicU64,
    executing: AtomicU64,
}

macro_rules! stat_getters {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        $(
            $(#[$doc])*
            pub fn $name(&self) -> u64 {
                self.$name.load(Ordering::Relaxed)
            }
        )+
    };
}

impl ServiceStats {
    stat_getters! {
        /// Connections accepted.
        accepted,
        /// Requests parsed (any method).
        requests,
        /// Success responses written.
        ok,
        /// Error responses written (all classes, including sheds).
        errors,
        /// Jobs shed because the queue was full.
        shed,
        /// Frames whose payload failed to parse as JSON.
        parse_errors,
        /// Connections dropped mid-frame by the peer.
        truncated,
        /// Frames rejected for exceeding the size cap.
        oversized,
        /// Requests answered with `deadline exceeded`.
        deadline_exceeded,
        /// High-water mark of the request queue depth.
        queue_highwater,
        /// Connections currently open.
        active_connections,
        /// Sessions currently open.
        active_sessions,
        /// Jobs currently executing on workers.
        executing,
    }

    /// Serializes every counter for the `stats` endpoint.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::obj(vec![
            ("accepted", n(self.accepted())),
            ("requests", n(self.requests())),
            ("ok", n(self.ok())),
            ("errors", n(self.errors())),
            ("shed", n(self.shed())),
            ("parse_errors", n(self.parse_errors())),
            ("truncated", n(self.truncated())),
            ("oversized", n(self.oversized())),
            ("deadline_exceeded", n(self.deadline_exceeded())),
            ("queue_highwater", n(self.queue_highwater())),
            ("active_connections", n(self.active_connections())),
            ("active_sessions", n(self.active_sessions())),
            ("executing", n(self.executing())),
        ])
    }
}

/// Per-session defaults and bookkeeping.
#[derive(Debug, Clone)]
struct Session {
    seed: u8,
    bt_channel: u8,
    requests: u64,
}

/// One queued unit of work.
struct Work {
    payload: WorkPayload,
    reply: mpsc::Sender<WorkDone>,
    cancelled: Arc<AtomicBool>,
}

enum WorkPayload {
    One(BatchJob),
    Many(Vec<BatchJob>),
}

enum WorkDone {
    One(Box<bluefi_core::Synthesis>),
    Many(Vec<bluefi_core::Synthesis>),
}

struct Inner {
    cfg: ServiceConfig,
    socket_path: PathBuf,
    backend: Arc<dyn ServiceBackend>,
    state: AtomicU8,
    stats: ServiceStats,
    queue: Mutex<VecDeque<Work>>,
    queue_cv: Condvar,
    sessions: Mutex<HashMap<u64, Session>>,
    next_session: AtomicU64,
}

impl Inner {
    fn state(&self) -> ServerState {
        match self.state.load(Ordering::Acquire) {
            0 => ServerState::Running,
            1 => ServerState::Draining,
            _ => ServerState::Stopped,
        }
    }

    fn begin_drain(&self) {
        // One-way Running → Draining; harmless if already past it.
        let _ = self.state.compare_exchange(0, 1, Ordering::Release, Ordering::Relaxed);
        self.queue_cv.notify_all();
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Work>> {
        // Poisoning only means a panicking thread elsewhere; the deque is
        // structurally sound, so recover rather than propagate.
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_sessions(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Session>> {
        self.sessions.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running daemon: owns the accept thread and the worker pool. Spawn
/// with [`Server::spawn`], stop with [`Server::shutdown`], which drains
/// and joins; the `drain` endpoint and [`Server::drain`] only begin a drain.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `socket_path` (replacing a stale socket file) and spawns the
    /// accept loop and worker pool.
    pub fn spawn(
        socket_path: impl Into<PathBuf>,
        backend: Arc<dyn ServiceBackend>,
        cfg: ServiceConfig,
    ) -> std::io::Result<Server> {
        let socket_path = socket_path.into();
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)?;
        listener.set_nonblocking(true)?;
        let workers_n = if cfg.workers == 0 {
            clamped_workers(worker_count())
        } else {
            cfg.workers
        };
        let inner = Arc::new(Inner {
            cfg,
            socket_path,
            backend,
            state: AtomicU8::new(0),
            stats: ServiceStats::default(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
        });
        let workers = (0..workers_n)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&inner, listener))
        };
        Ok(Server { inner, accept: Some(accept), workers })
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.inner.socket_path
    }

    /// The daemon's operational counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.inner.stats
    }

    /// The current lifecycle state.
    pub fn state(&self) -> ServerState {
        self.inner.state()
    }

    /// Initiates a graceful drain (equivalent to the `drain` endpoint).
    pub fn drain(&self) {
        self.inner.begin_drain();
    }

    /// Initiates drain (if not already draining), waits for in-flight
    /// work to finish and joins every thread. Returns a post-shutdown
    /// view whose final stats survive the join.
    pub fn shutdown(mut self) -> StoppedServer {
        self.inner.begin_drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Connection threads are detached; wait (bounded) for them to
        // observe Stopped and unwind.
        let gone = Instant::now() + Duration::from_secs(5);
        while self.inner.stats.active_connections() > 0 && Instant::now() < gone {
            std::thread::sleep(self.inner.cfg.tick);
        }
        StoppedServer { inner: Arc::clone(&self.inner) }
    }
}

/// Post-shutdown view of a daemon: its final stats survive the join.
pub struct StoppedServer {
    inner: Arc<Inner>,
}

impl StoppedServer {
    /// The final operational counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.inner.stats
    }
}

// -- Accept loop -----------------------------------------------------------

fn accept_loop(inner: &Arc<Inner>, listener: UnixListener) {
    loop {
        if inner.state() != ServerState::Running {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
                telemetry::incr(Counter::ServiceAccepted);
                inner.stats.active_connections.fetch_add(1, Ordering::Relaxed);
                let inner = Arc::clone(inner);
                std::thread::spawn(move || {
                    connection_loop(&inner, stream);
                    inner.stats.active_connections.fetch_sub(1, Ordering::Relaxed);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    // Refuse new connections at connect time.
    drop(listener);
    let _ = std::fs::remove_file(&inner.socket_path);
    // Drain: wait for queued + executing work to finish, then stop. The
    // executing count is read under the queue lock — workers bump it at
    // pop time inside the same critical section, so "empty and idle"
    // here cannot race a job that is popped but not yet counted.
    loop {
        let idle = {
            let q = inner.lock_queue();
            q.is_empty() && inner.stats.executing() == 0
        };
        if idle {
            break;
        }
        std::thread::sleep(inner.cfg.tick);
    }
    inner.state.store(2, Ordering::Release);
    inner.queue_cv.notify_all();
}

// -- Worker pool -----------------------------------------------------------

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let work = {
            let mut q = inner.lock_queue();
            loop {
                if let Some(w) = q.pop_front() {
                    // Counted as executing before the lock drops, so the
                    // drain monitor never sees "empty and idle" while a
                    // popped job is still in a worker's hands.
                    inner.stats.executing.fetch_add(1, Ordering::Relaxed);
                    break w;
                }
                if inner.state() == ServerState::Stopped {
                    return;
                }
                let (guard, _) = inner
                    .queue_cv
                    .wait_timeout(q, inner.cfg.tick)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        };
        if work.cancelled.load(Ordering::Acquire) {
            // The requester's deadline already fired; it answered the
            // client itself, so executing the job would be pure waste.
            inner.stats.executing.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        let done = match &work.payload {
            WorkPayload::One(job) => WorkDone::One(Box::new(inner.backend.synthesize(job))),
            WorkPayload::Many(jobs) => WorkDone::Many(inner.backend.synthesize_batch(jobs)),
        };
        inner.stats.executing.fetch_sub(1, Ordering::Relaxed);
        // A failed send only means the requester gave up (deadline or
        // disconnect); the response contract is theirs, not ours.
        let _ = work.reply.send(done);
    }
}

// -- Connection handling ---------------------------------------------------

fn connection_loop(inner: &Arc<Inner>, mut stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(inner.cfg.tick));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut reader = FrameReader::new(inner.cfg.max_frame_bytes);
    loop {
        match reader.poll(&mut stream) {
            Ok(FrameEvent::WouldBlock) => {
                if inner.state() == ServerState::Stopped {
                    break;
                }
            }
            Ok(FrameEvent::Eof) => break,
            Ok(FrameEvent::TruncatedEof) => {
                inner.stats.truncated.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Ok(FrameEvent::TooLarge(n)) => {
                inner.stats.oversized.fetch_add(1, Ordering::Relaxed);
                let err = RpcError::with_detail(
                    ErrorCode::FrameTooLarge,
                    format!("{n} bytes exceeds cap {}", inner.cfg.max_frame_bytes),
                );
                let _ = write_response(inner, &mut stream, &response_err(&Json::Null, &err));
                // The stream cannot be resynchronized past an unread body.
                break;
            }
            Ok(FrameEvent::Frame(payload)) => {
                if !handle_frame(inner, &mut stream, &payload) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Handles one frame; returns `false` when the connection must close.
fn handle_frame(inner: &Arc<Inner>, stream: &mut UnixStream, payload: &[u8]) -> bool {
    let _sp = telemetry::span(SpanKind::ServiceRequest);
    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
    let doc = match std::str::from_utf8(payload).ok().and_then(|s| Json::parse(s).ok()) {
        Some(doc) => doc,
        None => {
            inner.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
            let err = RpcError::new(ErrorCode::ParseError);
            return write_response(inner, stream, &response_err(&Json::Null, &err));
        }
    };
    let req = match parse_request(&doc) {
        Ok(req) => req,
        Err((id, err)) => return write_response(inner, stream, &response_err(&id, &err)),
    };
    let resp = dispatch(inner, &req);
    write_response(inner, stream, &resp)
}

/// Writes one response frame, bumping the ok/error stats. Returns `false`
/// on a write failure (peer gone — the connection closes).
fn write_response(inner: &Arc<Inner>, stream: &mut UnixStream, resp: &Json) -> bool {
    if resp.get("error").is_some() {
        inner.stats.errors.fetch_add(1, Ordering::Relaxed);
    } else {
        inner.stats.ok.fetch_add(1, Ordering::Relaxed);
    }
    let rendered = resp.render();
    write_frame_blocking(stream, rendered.as_bytes())
}

/// Writes a frame against a send buffer that may momentarily fill (slow
/// readers): short write-timeouts retry until the 5 s cap, then give up.
fn write_frame_blocking(stream: &mut UnixStream, payload: &[u8]) -> bool {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut off = 0;
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => return false,
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return false,
        }
    }
    stream.flush().is_ok()
}

// -- Dispatch --------------------------------------------------------------

fn dispatch(inner: &Arc<Inner>, req: &RpcRequest) -> Json {
    let draining = inner.state() != ServerState::Running;
    match req.method.as_str() {
        "synthesize" => {
            if draining {
                return response_err(&req.id, &RpcError::new(ErrorCode::ShuttingDown));
            }
            match parse_job(inner, &req.params) {
                Ok(job) => run_work(inner, req, WorkPayload::One(job)),
                Err(err) => response_err(&req.id, &err),
            }
        }
        "batch_synthesize" => {
            if draining {
                return response_err(&req.id, &RpcError::new(ErrorCode::ShuttingDown));
            }
            match parse_batch(inner, &req.params) {
                Ok(jobs) => run_work(inner, req, WorkPayload::Many(jobs)),
                Err(err) => response_err(&req.id, &err),
            }
        }
        "session_open" => {
            if draining {
                return response_err(&req.id, &RpcError::new(ErrorCode::ShuttingDown));
            }
            session_open(inner, req)
        }
        "session_close" => session_close(inner, req),
        "stats" => stats_endpoint(inner, req),
        "drain" => {
            inner.begin_drain();
            let queued = inner.lock_queue().len();
            response_ok(
                &req.id,
                Json::obj(vec![
                    ("draining", Json::Bool(true)),
                    ("queued", Json::Num(queued as f64)),
                    ("executing", Json::Num(inner.stats.executing() as f64)),
                ]),
            )
        }
        other => response_err(
            &req.id,
            &RpcError::with_detail(ErrorCode::MethodNotFound, other.to_string()),
        ),
    }
}

/// Enqueues work (or sheds it), waits for completion under the request's
/// deadline, and renders the single response.
fn run_work(inner: &Arc<Inner>, req: &RpcRequest, payload: WorkPayload) -> Json {
    let deadline = req
        .params
        .get("deadline_ms")
        .and_then(Json::as_f64)
        .filter(|&ms| ms > 0.0)
        .map(|ms| Duration::from_millis(ms as u64))
        .unwrap_or(inner.cfg.default_deadline);
    let (tx, rx) = mpsc::channel();
    let cancelled = Arc::new(AtomicBool::new(false));
    let work = Work { payload, reply: tx, cancelled: Arc::clone(&cancelled) };
    {
        let mut q = inner.lock_queue();
        if q.len() >= inner.cfg.queue_depth {
            drop(q);
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            telemetry::incr(Counter::ServiceShed);
            return response_err(&req.id, &RpcError::new(ErrorCode::Overloaded));
        }
        q.push_back(work);
        let depth = q.len() as u64;
        drop(q);
        inner.stats.queue_highwater.fetch_max(depth, Ordering::Relaxed);
        telemetry::gauge_max(Gauge::ServiceQueueDepth, depth);
        inner.queue_cv.notify_one();
    }
    match rx.recv_timeout(deadline) {
        Ok(WorkDone::One(syn)) => response_ok(&req.id, proto::synthesis_to_json(&syn)),
        Ok(WorkDone::Many(syns)) => response_ok(
            &req.id,
            Json::obj(vec![(
                "results",
                Json::Arr(syns.iter().map(proto::synthesis_to_json).collect()),
            )]),
        ),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            cancelled.store(true, Ordering::Release);
            inner.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            response_err(&req.id, &RpcError::new(ErrorCode::DeadlineExceeded))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // Worker pool gone mid-request (only possible during teardown).
            response_err(&req.id, &RpcError::new(ErrorCode::ShuttingDown))
        }
    }
}

/// Parses one synthesize job from `params`, applying session defaults.
fn parse_job(inner: &Arc<Inner>, params: &Json) -> Result<BatchJob, RpcError> {
    let session = match params.get("session").and_then(Json::as_f64) {
        Some(id) => {
            let mut sessions = inner.lock_sessions();
            let Some(s) = sessions.get_mut(&(id as u64)) else {
                return Err(RpcError::with_detail(
                    ErrorCode::UnknownSession,
                    format!("session {}", id as u64),
                ));
            };
            s.requests += 1;
            Some(s.clone())
        }
        None => None,
    };
    let seed = match params.get("seed").and_then(Json::as_f64) {
        Some(s) if (0.0..=127.0).contains(&s) => s as u8,
        Some(s) => {
            return Err(RpcError::with_detail(
                ErrorCode::InvalidParams,
                format!("seed {s} outside 0..=127"),
            ))
        }
        None => match &session {
            Some(s) => s.seed,
            None => {
                return Err(RpcError::with_detail(
                    ErrorCode::InvalidParams,
                    "missing seed",
                ))
            }
        },
    };
    let bt_channel = match params.get("bt_channel").and_then(Json::as_f64) {
        Some(c) if (0.0..=78.0).contains(&c) => c as u8,
        Some(c) => {
            return Err(RpcError::with_detail(
                ErrorCode::InvalidParams,
                format!("bt_channel {c} outside 0..=78"),
            ))
        }
        None => match &session {
            Some(s) => s.bt_channel,
            None => {
                return Err(RpcError::with_detail(
                    ErrorCode::InvalidParams,
                    "missing bt_channel",
                ))
            }
        },
    };
    let Some(plan) = plan_channel(bt_channel_freq_hz(bt_channel)) else {
        return Err(RpcError::with_detail(
            ErrorCode::InvalidParams,
            format!("bt_channel {bt_channel} has no WiFi plan"),
        ));
    };
    let n_bits = params
        .get("n_bits")
        .and_then(Json::as_f64)
        .map(|v| v as usize)
        .ok_or_else(|| RpcError::with_detail(ErrorCode::InvalidParams, "missing n_bits"))?;
    if n_bits == 0 || n_bits > 8 * 4096 {
        return Err(RpcError::with_detail(
            ErrorCode::InvalidParams,
            format!("n_bits {n_bits} outside 1..=32768"),
        ));
    }
    let packed = params
        .get("bits")
        .and_then(Json::as_str)
        .and_then(proto::hex_decode)
        .ok_or_else(|| {
            RpcError::with_detail(ErrorCode::InvalidParams, "bits must be a hex string")
        })?;
    let bits = proto::unpack_bits(&packed, n_bits).ok_or_else(|| {
        RpcError::with_detail(ErrorCode::InvalidParams, "bits shorter than n_bits")
    })?;
    Ok(BatchJob { bits, plan, seed })
}

/// Parses a `batch_synthesize` job list.
fn parse_batch(inner: &Arc<Inner>, params: &Json) -> Result<Vec<BatchJob>, RpcError> {
    let jobs = params
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or_else(|| RpcError::with_detail(ErrorCode::InvalidParams, "missing jobs array"))?;
    if jobs.is_empty() || jobs.len() > 4096 {
        return Err(RpcError::with_detail(
            ErrorCode::InvalidParams,
            format!("jobs length {} outside 1..=4096", jobs.len()),
        ));
    }
    jobs.iter().map(|j| parse_job(inner, j)).collect()
}

fn session_open(inner: &Arc<Inner>, req: &RpcRequest) -> Json {
    let seed = req.params.get("seed").and_then(Json::as_f64).unwrap_or(7.0);
    let bt_channel = req.params.get("bt_channel").and_then(Json::as_f64).unwrap_or(24.0);
    if !(0.0..=127.0).contains(&seed) || !(0.0..=78.0).contains(&bt_channel) {
        return response_err(
            &req.id,
            &RpcError::with_detail(ErrorCode::InvalidParams, "session defaults out of range"),
        );
    }
    let id = inner.next_session.fetch_add(1, Ordering::Relaxed);
    let n = {
        let mut sessions = inner.lock_sessions();
        sessions.insert(
            id,
            Session { seed: seed as u8, bt_channel: bt_channel as u8, requests: 0 },
        );
        sessions.len() as u64
    };
    inner.stats.active_sessions.store(n, Ordering::Relaxed);
    telemetry::gauge_set(Gauge::ServiceActiveSessions, n);
    response_ok(&req.id, Json::obj(vec![("session", Json::Num(id as f64))]))
}

fn session_close(inner: &Arc<Inner>, req: &RpcRequest) -> Json {
    let Some(id) = req.params.get("session").and_then(Json::as_f64) else {
        return response_err(
            &req.id,
            &RpcError::with_detail(ErrorCode::InvalidParams, "missing session"),
        );
    };
    let (removed, n) = {
        let mut sessions = inner.lock_sessions();
        let removed = sessions.remove(&(id as u64));
        (removed, sessions.len() as u64)
    };
    inner.stats.active_sessions.store(n, Ordering::Relaxed);
    telemetry::gauge_set(Gauge::ServiceActiveSessions, n);
    match removed {
        Some(s) => response_ok(
            &req.id,
            Json::obj(vec![
                ("closed", Json::Bool(true)),
                ("requests", Json::Num(s.requests as f64)),
            ]),
        ),
        None => response_err(
            &req.id,
            &RpcError::with_detail(ErrorCode::UnknownSession, format!("session {}", id as u64)),
        ),
    }
}

/// The `stats` endpoint. With `{"reset": true}` the embedded telemetry
/// section comes from `telemetry::drain_section()` — the same
/// snapshot-then-reset helper `runtime_profile` uses at its section
/// boundaries, so the two views of a "section" can never drift.
fn stats_endpoint(inner: &Arc<Inner>, req: &RpcRequest) -> Json {
    let reset = req.params.get("reset").and_then(Json::as_bool).unwrap_or(false);
    let snap = if reset { telemetry::drain_section() } else { telemetry::snapshot() };
    response_ok(
        &req.id,
        Json::obj(vec![
            ("backend", Json::Str(inner.backend.name().to_string())),
            ("state", Json::Str(inner.state().name().to_string())),
            ("service", inner.stats.to_json()),
            ("telemetry", snap.to_json()),
        ]),
    )
}
