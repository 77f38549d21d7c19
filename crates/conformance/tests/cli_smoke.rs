//! CLI layer: the tier-1 smoke path drives the conformance binary the
//! same way CI does — `bluefi-conformance check` against the committed
//! golden fixtures — so exit codes and rendering stay wired to the
//! library verdicts, not just the in-process `check_all` the golden
//! tests exercise.

use std::process::Command;

fn conformance(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bluefi-conformance"))
        .args(args)
        .output()
        .expect("conformance binary must launch")
}

#[test]
fn check_subcommand_passes_on_committed_fixtures() {
    let out = conformance(&["check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit: {:?}\n{stdout}", out.status);
    assert!(stdout.contains("6 fixtures OK"), "{stdout}");
}

#[test]
fn bad_usage_exits_with_distinct_code() {
    let out = conformance(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "usage errors must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
