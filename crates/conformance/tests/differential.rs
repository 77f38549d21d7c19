//! Differential layer: every execution path of the synthesis pipeline
//! must produce bit-identical packets and waveforms.
//!
//! This lives in its own test binary because `run_matrix_at_levels`
//! toggles the process-global telemetry level; Rust runs separate test
//! binaries in separate processes, so no other test observes the toggles.

use bluefi_conformance::{run_matrix, run_matrix_at_levels};
use bluefi_core::telemetry;

#[test]
fn all_execution_paths_are_bit_identical_across_telemetry_levels() {
    let before = telemetry::level();
    let report = run_matrix_at_levels().expect("matrix runs");
    assert_eq!(telemetry::level(), before, "level must be restored");

    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.jobs, 3);
    assert_eq!(
        report.variants,
        ["scratch", "batch1", "batch2", "batch4", "service", "service-batch", "cached"],
        "variant set drifted"
    );
    assert_eq!(report.levels, ["off", "counters", "spans"]);
    // The report records which side of the compile-time contracts axis
    // this binary is on; tests build with debug_assertions, so contracts
    // are active here while the release CLI covers the off side against
    // the same fixtures.
    assert_eq!(
        report.contracts_enabled,
        cfg!(debug_assertions),
        "contracts axis must be recorded faithfully"
    );
    let rendered = report.render();
    assert!(rendered.contains("bit-identical"), "{rendered}");
}

#[test]
fn single_level_matrix_is_clean_too() {
    let report = run_matrix().expect("matrix runs");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.levels.len(), 1);
}
