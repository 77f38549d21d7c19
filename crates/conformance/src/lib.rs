//! # bluefi-conformance
//!
//! The conformance subsystem: proof that the synthesis chain stays
//! *bit-exact* as the codebase evolves. The paper's contribution is a chain
//! of reversals precise enough that a COTS Bluetooth receiver locks onto
//! the phase of a WiFi transmission — one flipped bit anywhere in the chain
//! silently breaks reception, so this crate pins the chain down three ways:
//!
//! * [`golden`] — committed JSON fixtures capturing every stage boundary
//!   (scrambler → BCC+puncture → interleave → QAM → OFDM → final IQ, plus
//!   the reversal weights) for BLE-adv and EDR payloads under both chip
//!   models. `cargo run -p bluefi-conformance -- regen` rewrites them,
//!   `-- check` diffs with per-stage first-divergence reporting, and a
//!   tier-1 test fails when code drifts from the fixtures.
//! * [`diff`] — a differential matrix proving the allocating, scratch and
//!   parallel-batch execution paths (across worker counts and telemetry
//!   levels) produce bit-identical output.
//! * [`fuzz`] — a deterministic structured fuzzer over (payload, channel
//!   plan, chip, channel-model) space with per-iteration invariant checks,
//!   seed replay and a minimizing shrinker.
//!
//! The digest machinery shared by all three lives in [`digest`].

pub mod diff;
pub mod digest;
pub mod fuzz;
pub mod golden;
pub mod trace;

pub use diff::{run_matrix, run_matrix_at_levels, MatrixReport};
pub use digest::{compare_words, Canon, Divergence, Fnv64, StageVector};
pub use fuzz::{replay, run_fuzz, shrink, FuzzInput, FuzzReport, Violation};
pub use golden::{check_all, regen_all, CheckReport};
pub use trace::{trace_case, CaseSpec, CaseTrace, Chip, PayloadKind, CASES};
