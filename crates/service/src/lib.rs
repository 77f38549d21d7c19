//! # bluefi-service
//!
//! BlueFi as a service: the paper's end state is commodity WiFi hardware
//! serving *live* Bluetooth traffic, which makes the synthesis pipeline a
//! long-running daemon, not a one-shot library call. This crate is that
//! daemon — hermetic, std-only, no registry crates:
//!
//! * [`proto`] — length-prefixed JSON-RPC 2.0 framing over `core::json`
//!   and the pinned error taxonomy.
//! * [`backend`] — the [`backend::ServiceBackend`] seam with a
//!   deterministic mock and the real engine behind the template cache.
//! * [`server`] — `UnixListener` accept loop, bounded request queue with
//!   load-shed, fixed worker pool, per-request deadlines and graceful
//!   drain (`Running → Draining → Stopped`).
//! * [`client`] — the blocking reference client.
//!
//! Endpoints: `synthesize`, `batch_synthesize`, `session_open`,
//! `session_close`, `stats`, `drain`. Operational visibility flows
//! through `core::telemetry` (`service_accepted` / `service_shed`
//! counters, session and queue-depth gauges, a per-request span feeding
//! the causal trace layer) plus per-server [`server::ServiceStats`].

pub mod backend;
pub mod client;
pub mod proto;
pub mod server;

pub use backend::{CachedBackend, MockBackend, ServiceBackend};
pub use client::{ClientError, ServiceClient};
pub use proto::{ErrorCode, FrameEvent, FrameReader, RpcError};
pub use server::{Server, ServerState, ServiceConfig, ServiceStats};
