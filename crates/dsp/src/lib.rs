//! # bluefi-dsp
//!
//! Dependency-free digital-signal-processing substrate for the BlueFi
//! workspace: complex samples, FFTs, FIR filters, Gaussian pulse shaping,
//! phase-signal math, bit packing, and power/statistics helpers.
//!
//! Everything here is deterministic and allocation-conscious; no global
//! state, no threads, no IO — the sans-IO style the rest of the workspace
//! follows.

pub mod bits;
pub mod complex;
pub mod contracts;
pub mod fft;
pub mod fir;
pub mod gaussian;
pub mod phase;
pub mod power;

pub use complex::{cx, Cx};
pub use fft::{fft_plan, FftPlan};
pub use fir::Fir;
