//! Causal per-packet tracing: parent-linked spans with trace IDs,
//! worker attribution and Chrome `trace_event` export.
//!
//! ## Model
//!
//! At [`super::Level::Trace`] every [`super::span`] guard additionally
//! records a [`TraceEvent`]. The first span a thread opens with no
//! enclosing span becomes a **root** and draws a fresh process-wide trace
//! ID; spans opened while it is live become its children (the parent link
//! is the innermost open span). One synthesized packet therefore yields
//! one trace: a `synthesize` (or `template_build`) root with the five
//! pipeline phases — or the patch-path stages — as children, all sharing
//! the packet's trace ID and tagged with the worker that ran them (see
//! [`worker_scope`]).
//!
//! ## Storage
//!
//! Each recording thread owns a `ThreadState`: a fixed-capacity event
//! ring ([`TRACE_RING_CAPACITY`], overwrite-oldest with drop accounting),
//! an in-flight packet buffer, and [`EXEMPLAR_SLOTS`] tail-exemplar slots
//! that keep the slowest packets' full span sets even after the ring has
//! wrapped past them. States live in a process-wide registry and are
//! recycled through a free list when threads exit, so short-lived batch
//! workers neither leak states nor lose their captured events. Everything
//! is preallocated when the state is created (see [`warm`], called on
//! entering the trace level), preserving the recorder's
//! zero-steady-state-allocation guarantee.
//!
//! ## Export
//!
//! [`snapshot`] copies every state into a [`TraceSnapshot`];
//! [`chrome_trace`] renders one or more snapshots as Chrome
//! `trace_event` JSON (the `chrome://tracing` / Perfetto format):
//! complete `"ph":"X"` duration events on `pid` 1 with the worker ID as
//! `tid`, plus `thread_name` metadata records. `runtime_profile
//! --trace-out` wires this to disk.

use super::SpanKind;
use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Capacity of each per-thread trace ring. When full, the oldest events
/// are overwritten (and counted in [`TraceSnapshot::dropped_events`]).
pub const TRACE_RING_CAPACITY: usize = 4096;

/// Maximum nesting depth tracked per thread. Spans opened deeper than
/// this still record (parented to the deepest tracked span) but cannot
/// themselves become parents.
pub const MAX_TRACE_DEPTH: usize = 16;

/// Maximum spans buffered for one in-flight packet (root + children).
/// Overflow spills straight to the ring and is counted in
/// [`TraceSnapshot::truncated_spans`].
pub const MAX_PACKET_SPANS: usize = 48;

/// Number of tail-exemplar slots per thread: the slowest packets (by
/// root-span duration) whose complete span sets survive ring wrap.
pub const EXEMPLAR_SLOTS: usize = 8;

/// The `parent_id` of a root span (rendered as `null` in the export).
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span occurrence within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Process-wide ID of the packet (trace) this span belongs to.
    pub trace_id: u64,
    /// Span ID, unique within the trace (the root is usually 0).
    pub span_id: u32,
    /// The enclosing span's ID, or [`NO_PARENT`] for a root.
    pub parent_id: u32,
    /// Which region ran.
    pub kind: SpanKind,
    /// Worker attribution: 0 is the main thread, batch workers are 1-based
    /// (see [`worker_scope`]).
    pub worker: u32,
    /// Kind-specific payload (e.g. symbols requantized, FEC rows
    /// replayed); 0 when the kind carries none.
    pub detail: u64,
    /// Start timestamp, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// A retained slowest-packet exemplar: the packet's complete span set.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The packet's root-span duration (the retention key).
    pub root_dur_ns: u64,
    /// Every span of the packet, children first, root last.
    pub events: Vec<TraceEvent>,
}

struct ExemplarSlot {
    used: bool,
    root_dur_ns: u64,
    events: Vec<TraceEvent>,
}

/// One thread's preallocated trace storage (see the module docs).
struct ThreadState {
    ring: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    truncated: u64,
    trace_id: u64,
    next_span: u32,
    stack: [u32; MAX_TRACE_DEPTH],
    depth: usize,
    pkt: Vec<TraceEvent>,
    exemplars: Vec<ExemplarSlot>,
}

impl ThreadState {
    fn new() -> ThreadState {
        ThreadState {
            ring: Vec::with_capacity(TRACE_RING_CAPACITY),
            head: 0,
            dropped: 0,
            truncated: 0,
            trace_id: 0,
            next_span: 0,
            stack: [0; MAX_TRACE_DEPTH],
            depth: 0,
            pkt: Vec::with_capacity(MAX_PACKET_SPANS),
            exemplars: (0..EXEMPLAR_SLOTS)
                .map(|_| ExemplarSlot {
                    used: false,
                    root_dur_ns: 0,
                    events: Vec::with_capacity(MAX_PACKET_SPANS),
                })
                .collect(),
        }
    }

    fn ring_push(&mut self, ev: TraceEvent) {
        if self.ring.len() < TRACE_RING_CAPACITY {
            if self.ring.len() == self.ring.capacity() {
                // Never taken (the ring is preallocated) — but if it ever
                // were, the allocation must self-report like every hot path.
                bluefi_dsp::contracts::probe_alloc();
            }
            self.ring.push(ev);
        } else {
            let h = self.head;
            self.ring[h] = ev;
            self.head = (h + 1) % TRACE_RING_CAPACITY;
            self.dropped += 1;
        }
    }

    /// Offers the just-closed packet (still in `pkt`, root last) as a
    /// tail exemplar: kept if a slot is free or it is slower than the
    /// current fastest retained packet.
    fn consider_exemplar(&mut self, root_dur_ns: u64) {
        let mut slot_i = 0;
        let mut fastest = u64::MAX;
        let mut found_free = false;
        for (i, s) in self.exemplars.iter().enumerate() {
            if !s.used {
                slot_i = i;
                found_free = true;
                break;
            }
            if s.root_dur_ns < fastest {
                fastest = s.root_dur_ns;
                slot_i = i;
            }
        }
        if !found_free && root_dur_ns <= fastest {
            return;
        }
        let slot = &mut self.exemplars[slot_i];
        slot.events.clear();
        slot.events.extend_from_slice(&self.pkt);
        slot.used = true;
        slot.root_dur_ns = root_dur_ns;
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadState>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<ThreadState>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn free_list() -> &'static Mutex<Vec<usize>> {
    static FREE: OnceLock<Mutex<Vec<usize>>> = OnceLock::new();
    FREE.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// A thread's lease on one registry state; returned to the free list on
/// thread exit so the next worker reuses the allocation (and the events
/// already captured stay visible to [`snapshot`]).
struct Binding {
    idx: usize,
    state: Arc<Mutex<ThreadState>>,
}

impl Drop for Binding {
    fn drop(&mut self) {
        {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            // An in-flight packet dies with its thread: account and clear.
            st.dropped += st.pkt.len() as u64;
            st.pkt.clear();
            st.depth = 0;
        }
        free_list()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(self.idx);
    }
}

thread_local! {
    static WORKER: Cell<u32> = const { Cell::new(0) };
    static BINDING: RefCell<Option<Binding>> = const { RefCell::new(None) };
}

fn acquire() -> Binding {
    let recycled = free_list().lock().unwrap_or_else(|p| p.into_inner()).pop();
    match recycled {
        Some(idx) => {
            let state = registry().lock().unwrap_or_else(|p| p.into_inner())[idx].clone();
            Binding { idx, state }
        }
        None => {
            let state = Arc::new(Mutex::new(ThreadState::new()));
            let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
            reg.push(state.clone());
            Binding { idx: reg.len() - 1, state }
        }
    }
}

fn with_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> R {
    BINDING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let binding = slot.get_or_insert_with(acquire);
        let mut st = binding.state.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut st)
    })
}

/// Preallocates the calling thread's trace state so the steady state that
/// follows never allocates. [`super::set_level`] calls this on entering
/// [`super::Level::Trace`].
pub fn warm() {
    with_state(|_| {});
}

/// An open span's identity, handed back to [`close`] by the guards in the
/// parent module.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenSpan {
    span_id: u32,
    parent_id: u32,
    pushed: bool,
}

/// Opens a trace span on the calling thread: allocates a span ID, links
/// it to the innermost open span (or starts a fresh trace at depth 0) and
/// pushes it on the parent stack. Returns `None` below the trace level.
pub(crate) fn open() -> Option<OpenSpan> {
    if !super::trace_on() {
        return None;
    }
    Some(with_state(|st| {
        if st.depth == 0 {
            st.trace_id = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
            st.next_span = 0;
        }
        let span_id = st.next_span;
        st.next_span = st.next_span.wrapping_add(1);
        let parent_id = if st.depth == 0 { NO_PARENT } else { st.stack[st.depth - 1] };
        let pushed = st.depth < MAX_TRACE_DEPTH;
        if pushed {
            st.stack[st.depth] = span_id;
            st.depth += 1;
        }
        OpenSpan { span_id, parent_id, pushed }
    }))
}

/// Closes a span opened by [`open`]: pops the parent stack, buffers the
/// event on the in-flight packet, and — when this close returns the
/// thread to depth 0 — flushes the whole packet to the ring and offers it
/// as a tail exemplar.
pub(crate) fn close(open: OpenSpan, kind: SpanKind, start_ns: u64, dur_ns: u64, detail: u64) {
    let worker = current_worker();
    with_state(|st| {
        if open.pushed && st.depth > 0 {
            st.depth -= 1;
        }
        let ev = TraceEvent {
            trace_id: st.trace_id,
            span_id: open.span_id,
            parent_id: open.parent_id,
            kind,
            worker,
            detail,
            start_ns,
            dur_ns,
        };
        if st.pkt.len() < MAX_PACKET_SPANS {
            st.pkt.push(ev);
        } else {
            st.truncated += 1;
            st.ring_push(ev);
        }
        if st.depth == 0 && open.parent_id == NO_PARENT {
            st.consider_exemplar(dur_ns);
            for i in 0..st.pkt.len() {
                let buffered = st.pkt[i];
                st.ring_push(buffered);
            }
            st.pkt.clear();
        }
    });
}

/// Tags the calling thread's trace events with `worker` until the guard
/// drops (restoring the previous tag). `core::par` wraps each batch
/// worker in one of these; 0 — the default — is the main thread.
pub fn worker_scope(worker: u32) -> WorkerScope {
    let prev = WORKER.with(|w| w.replace(worker));
    WorkerScope { prev }
}

/// Guard returned by [`worker_scope`]; restores the previous tag on drop.
#[must_use = "the worker tag reverts when the guard drops"]
#[derive(Debug)]
pub struct WorkerScope {
    prev: u32,
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        let prev = self.prev;
        WORKER.with(|w| w.set(prev));
    }
}

/// The calling thread's current worker tag (see [`worker_scope`]).
pub fn current_worker() -> u32 {
    WORKER.with(Cell::get)
}

/// Clears every thread's ring, in-flight buffer, exemplars and drop
/// accounting; capacities and open-span nesting are retained so live
/// guards stay balanced. Called from [`super::reset`].
pub(crate) fn reset_all() {
    let states: Vec<Arc<Mutex<ThreadState>>> =
        registry().lock().unwrap_or_else(|p| p.into_inner()).clone();
    for state in states {
        let mut st = state.lock().unwrap_or_else(|p| p.into_inner());
        st.ring.clear();
        st.head = 0;
        st.dropped = 0;
        st.truncated = 0;
        st.pkt.clear();
        for slot in &mut st.exemplars {
            slot.used = false;
            slot.root_dur_ns = 0;
            slot.events.clear();
        }
    }
}

/// A point-in-time copy of every thread's trace storage.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Every captured event (rings plus in-flight packet buffers), sorted
    /// by start time.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because a ring was full, plus spans of packets
    /// whose thread exited mid-flight.
    pub dropped_events: u64,
    /// Spans that overflowed a packet buffer (recorded, but no longer
    /// guaranteed to sit next to their packet in the ring).
    pub truncated_spans: u64,
    /// Retained slowest-packet exemplars, slowest first. May duplicate
    /// ring events; [`chrome_trace`] deduplicates on export.
    pub exemplars: Vec<Exemplar>,
}

/// Captures every thread's trace state. Allocates (cold path) — never
/// call from inside a measured region.
pub fn snapshot() -> TraceSnapshot {
    let states: Vec<Arc<Mutex<ThreadState>>> =
        registry().lock().unwrap_or_else(|p| p.into_inner()).clone();
    let mut out = TraceSnapshot::default();
    for state in states {
        let st = state.lock().unwrap_or_else(|p| p.into_inner());
        // Oldest-first: the ring wraps at `head` once full.
        out.events.extend_from_slice(&st.ring[st.head..]);
        out.events.extend_from_slice(&st.ring[..st.head]);
        out.events.extend_from_slice(&st.pkt);
        out.dropped_events += st.dropped;
        out.truncated_spans += st.truncated;
        for slot in st.exemplars.iter().filter(|s| s.used) {
            out.exemplars.push(Exemplar {
                root_dur_ns: slot.root_dur_ns,
                events: slot.events.clone(),
            });
        }
    }
    out.events.sort_by_key(|e| (e.start_ns, e.trace_id, e.span_id));
    out.exemplars.sort_by_key(|e| std::cmp::Reverse(e.root_dur_ns));
    out
}

fn event_json(ev: &TraceEvent) -> Json {
    Json::obj(vec![
        ("name", Json::Str(ev.kind.name().to_string())),
        ("cat", Json::Str("bluefi".to_string())),
        ("ph", Json::Str("X".to_string())),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(ev.worker as f64)),
        ("ts", Json::Num(ev.start_ns as f64 / 1000.0)),
        ("dur", Json::Num(ev.dur_ns as f64 / 1000.0)),
        (
            "args",
            Json::obj(vec![
                ("trace_id", Json::Num(ev.trace_id as f64)),
                ("span_id", Json::Num(ev.span_id as f64)),
                (
                    "parent_id",
                    if ev.parent_id == NO_PARENT {
                        Json::Null
                    } else {
                        Json::Num(ev.parent_id as f64)
                    },
                ),
                ("worker", Json::Num(ev.worker as f64)),
                ("detail", Json::Num(ev.detail as f64)),
            ]),
        ),
    ])
}

/// Renders one or more [`TraceSnapshot`]s as a Chrome `trace_event` JSON
/// document (loadable in Perfetto / `chrome://tracing`): complete
/// (`"ph":"X"`) duration events with microsecond `ts`/`dur`, the worker
/// ID as `tid`, causal links under `args`, plus `thread_name` metadata.
/// Events appearing in several snapshots (or both ring and exemplar) are
/// emitted once, keyed by `(trace_id, span_id)`.
pub fn chrome_trace(sections: &[TraceSnapshot]) -> Json {
    let mut seen: HashSet<(u64, u32)> = HashSet::new();
    let mut workers: BTreeSet<u32> = BTreeSet::new();
    let mut body: Vec<Json> = Vec::new();
    let mut dropped = 0u64;
    let mut truncated = 0u64;
    let mut exemplar_packets = 0u64;
    for snap in sections {
        dropped += snap.dropped_events;
        truncated += snap.truncated_spans;
        for ev in &snap.events {
            if seen.insert((ev.trace_id, ev.span_id)) {
                workers.insert(ev.worker);
                body.push(event_json(ev));
            }
        }
        for ex in &snap.exemplars {
            exemplar_packets += 1;
            for ev in &ex.events {
                if seen.insert((ev.trace_id, ev.span_id)) {
                    workers.insert(ev.worker);
                    body.push(event_json(ev));
                }
            }
        }
    }
    let mut events: Vec<Json> = Vec::with_capacity(body.len() + workers.len());
    for w in workers {
        let label =
            if w == 0 { "main".to_string() } else { format!("worker-{w}") };
        events.push(Json::obj(vec![
            ("name", Json::Str("thread_name".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(w as f64)),
            ("args", Json::obj(vec![("name", Json::Str(label))])),
        ]));
    }
    events.extend(body);
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ns".to_string())),
        ("traceEvents", Json::Arr(events)),
        (
            "otherData",
            Json::obj(vec![
                ("dropped_events", Json::Num(dropped as f64)),
                ("truncated_spans", Json::Num(truncated as f64)),
                ("exemplar_packets", Json::Num(exemplar_packets as f64)),
            ]),
        ),
    ])
}
