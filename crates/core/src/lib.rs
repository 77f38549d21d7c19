//! # bluefi-core
//!
//! The BlueFi synthesis pipeline — the paper's primary contribution.
//! Given a Bluetooth packet's GFSK bits and a target frequency, produce an
//! 802.11n PSDU such that an *unmodified* WiFi transmit chain emits a
//! waveform ordinary Bluetooth receivers decode:
//!
//! * [`cp`] — CP/windowing-compatible phase construction (Sec 2.4).
//! * [`qam`] — least-squares constellation quantization (Sec 2.5).
//! * [`reversal`] — demap, deinterleave, weighted-Viterbi / real-time FEC
//!   reversal, descrambling (Secs 2.7–2.8).
//! * [`pipeline`] — the end-to-end synthesizer with frequency planning
//!   (Sec 2.6).
//! * [`stages`] — cumulative impairment staging for the Sec 4.6 study.
//! * [`template`] — template cache + GF(2) delta synthesis for beacon
//!   fleets (first synthesis per key is cached; mutated payloads are
//!   patched bit-exactly: a mid-AdvData counter change costs about
//!   390 µs against 0.92 ms cold in `BENCH_runtime.json`).
//! * [`verify`] — forward loopback through the real TX chain and a COTS
//!   Bluetooth receiver model.
//!
//! Plus the hermetic-build substrate the rest of the workspace shares
//! (the build environment has no registry access, so these replace their
//! crates.io equivalents):
//!
//! * [`rng`] — seedable xoshiro256++ randomness (replaces `rand`).
//! * [`json`] — a tiny JSON emitter/parser (replaces `serde`).
//! * [`check`] — the randomized-property harness (replaces `proptest`).
//! * [`telemetry`] — hermetic counters/histograms recorder with causal
//!   per-packet traces (replaces `tracing`/`metrics`), set at run time by
//!   `BLUEFI_TELEMETRY=off|counters|trace`.

pub mod check;
pub mod cp;
pub mod json;
pub mod par;
pub mod pipeline;
pub mod qam;
pub mod reversal;
pub mod rng;
pub mod stages;
pub mod telemetry;
pub mod template;
pub mod verify;

pub use cp::CpCompat;
pub use json::{Json, ToJson};
pub use par::{
    clamped_workers, host_cpus, par_map, par_map_scratch, worker_count, BatchJob,
    SynthesisBatch,
};
pub use pipeline::{BlueFi, PhaseMode, Synthesis, SynthesisScratch};
pub use qam::{Quantizer, ScaleMode};
pub use reversal::{DecodeStrategy, WeightProfile};
pub use rng::{Rng, SeedableRng, StdRng};
pub use stages::Stage;
pub use telemetry::{Histogram, Table};
pub use template::{CachedEngine, CachedScratch, Template, TemplateKey, TemplateStore};
