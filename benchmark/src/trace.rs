//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span is (name, start, end, parent, request id). Spans go into a buffer
//! allocated before the traced phase starts; when it is full the traced
//! phase ends early rather than allocating. Per-layer metrics are read back
//! from the buffer, and `--trace-out` writes it as Chrome `trace_event` JSON
//! (open in Perfetto or `chrome://tracing`).

use crate::stats::Sample;
use bluefi_core::json::Json;
use std::time::Instant;

/// Span capacity of one traced run.
pub const CAPACITY: usize = 1 << 20;

/// One recorded span.
struct Span {
    /// Layer-qualified name, e.g. `coding.fec`.
    name: &'static str,
    /// Start, ns since the tracer's epoch.
    start_ns: u64,
    /// End, ns since the tracer's epoch.
    end_ns: u64,
    /// Index of the parent span, if any.
    parent: Option<u32>,
    /// The packet or request the span belongs to.
    req: u64,
}

/// The span buffer.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer of `capacity` spans whose clock starts at `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Whether `n` more spans still fit without growing the buffer.
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.spans.capacity()
    }

    /// Records a span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: u64,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Durations of every span called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Sample {
        Sample::new(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                .collect(),
        )
    }

    /// Chrome `trace_event` document: one complete (`"ph": "X"`) event per
    /// span. A root span and its descendants share a track, and roots take
    /// 16 tracks in turn, so overlapping requests land on different tracks.
    pub fn to_chrome_json(&self) -> Json {
        let mut roots = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let root = match s.parent {
                Some(p) => roots[p as usize],
                None => roots.len() as u32,
            };
            roots.push(root);
        }
        let events = self
            .spans
            .iter()
            .zip(&roots)
            .map(|(s, &root)| {
                let mut args = vec![("req", Json::Num(s.req as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::Num(p as f64)));
                }
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    (
                        "cat",
                        Json::Str(s.name.split('.').next().unwrap_or("").to_string()),
                    ),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num((root % 16) as f64)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ns".to_string())),
        ])
    }
}
