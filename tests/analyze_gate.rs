//! The workspace lint gate: `cargo test -q` fails if any `bluefi-analyze`
//! rule fires anywhere in the tree. This is the enforcement point for the
//! seven lint policies R1, R3, R5 and R7–R10 (the human-readable report is
//! `cargo run -p bluefi-analyze`; the machine-readable one is
//! `cargo run -p bluefi-analyze -- --json`).
//!
//! The gate consumes the `bluefi-analyze/v1` JSON document rather than the
//! rendered text: it schema-checks the report, asserts zero unhatched
//! findings per rule, and pins the exact hatch count per rule — so adding
//! an escape hatch anywhere in the tree is a visible diff here, never a
//! silent erosion of coverage.
//!
//! Supersedes the old `tests/hermetic.rs`, whose manifest checks now live
//! in `bluefi_analyze::manifests` as rule R3. `unsafe` code and missing
//! docs are not analyzer rules: rustc rejects them through the workspace
//! lints, and R3 checks that every manifest opts in to those.

use bluefi_core::json::Json;
use std::path::Path;

fn workspace_json() -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = bluefi_analyze::analyze_workspace(root).expect("workspace scan must succeed");
    // Round-trip through render/parse so the gate exercises the same
    // serialized document an external consumer would read.
    Json::parse(&report.to_json().render()).expect("report JSON must parse")
}

#[test]
fn workspace_is_lint_clean_per_json_report() {
    let j = workspace_json();
    assert_eq!(j.get("schema").and_then(Json::as_str), Some("bluefi-analyze/v1"));
    assert_eq!(
        j.get("status").and_then(Json::as_str),
        Some("clean"),
        "bluefi-analyze found violations:\n{}",
        j.render()
    );
    assert_eq!(j.get("total").and_then(Json::as_f64), Some(0.0));
    let diags = j.get("diagnostics").and_then(Json::as_arr).expect("diagnostics array");
    assert!(diags.is_empty(), "clean report must carry no diagnostics");

    // Schema: all seven rules present, in order, each with zero findings.
    // Codes are stable, so the retired R2, R4 and R6 leave gaps.
    let rules = j.get("rules").and_then(Json::as_arr).expect("rules array");
    let ids: Vec<&str> =
        rules.iter().filter_map(|r| r.get("id").and_then(Json::as_str)).collect();
    assert_eq!(ids, vec!["R1", "R3", "R5", "R7", "R8", "R9", "R10"]);
    for r in rules {
        assert_eq!(
            r.get("findings").and_then(Json::as_f64),
            Some(0.0),
            "unhatched findings under {:?}",
            r.get("id")
        );
        assert!(r.get("name").and_then(Json::as_str).is_some(), "every rule carries a name");
        assert!(r.get("hatched").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn hatch_counts_are_pinned_per_rule() {
    // The exact number of `// lint: allow(..) <reason>` escape hatches in
    // scope, per rule. Adding or removing a hatch anywhere in the tree must
    // update this table — silent hatch growth is how lint gates rot.
    let j = workspace_json();
    let rules = j.get("rules").and_then(Json::as_arr).expect("rules array");
    let hatched: Vec<(String, usize)> = rules
        .iter()
        .map(|r| {
            (
                r.get("id").and_then(Json::as_str).unwrap_or("?").to_string(),
                r.get("hatched").and_then(Json::as_f64).unwrap_or(-1.0) as usize,
            )
        })
        .collect();
    let expect = [
        ("R1", 6usize), // allow(panic): contracts/plan-cache/template invariants
        ("R3", 0),
        ("R5", 2), // allow(float-eq): exact sentinel comparisons in dsp/bt
        ("R7", 0),
        ("R8", 0),
        ("R9", 0),
        ("R10", 0),
    ];
    for (id, n) in expect {
        let got = hatched.iter().find(|(i, _)| i == id).map(|(_, n)| *n);
        assert_eq!(got, Some(n), "hatch count for {id} drifted: {hatched:?}");
    }
    // The hatched diagnostics list matches the per-rule totals.
    let listed = j.get("hatched").and_then(Json::as_arr).expect("hatched array").len();
    assert_eq!(listed, expect.iter().map(|(_, n)| n).sum::<usize>());
}

#[test]
fn gate_actually_scanned_the_tree() {
    // Guard against a silently-empty pass (e.g. a broken path walk): the
    // workspace has many source files and one manifest per crate plus the
    // root's.
    let j = workspace_json();
    let files = j.get("files").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    assert!(files >= 50, "only {files} source files scanned — path walk broken?");
    // Exact count: ten library/app crates + bluefi-conformance + the root
    // package. A new crate must bump this, keeping R3's hermetic-manifest
    // rule covering the whole tree.
    assert_eq!(
        j.get("manifests").and_then(Json::as_f64),
        Some(12.0),
        "manifest count drifted — did a crate join or leave the workspace \
         without updating the R3 gate?"
    );
}

#[test]
fn analyzer_passes_its_own_rules() {
    // Self-lint: the analyzer's own sources are in scope (R1/R7/R8 all
    // apply to `crates/analyze/src`) and must be clean. The workspace
    // pass covers them; this pins that they were actually scanned rather
    // than skipped by a scope hole.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = bluefi_analyze::analyze_workspace(root).expect("workspace scan must succeed");
    let own: Vec<&bluefi_analyze::Diagnostic> = report
        .diagnostics
        .iter()
        .filter(|d| d.file.starts_with("crates/analyze/"))
        .collect();
    assert!(own.is_empty(), "the analyzer fails its own rules:\n{own:#?}");
    let scope = bluefi_analyze::scope_for("crates/analyze/src/rules.rs");
    assert!(
        scope.no_panics && scope.adhoc_print && scope.layering,
        "the analyze crate must stay in scope of its own gate"
    );
}

#[test]
fn gate_enforces_the_transitive_hot_loop_rule() {
    // Both halves of R10 must be wired into the full pipeline (not just
    // unit-tested): a known-bad pair of virtual files must fire a direct
    // (chain of length 0) and a transitive finding, and the summary line
    // must carry the R10 bucket.
    let files = vec![
        (
            "crates/dsp/src/gate_probe_leaf.rs".to_string(),
            "/// Allocates.\npub fn fresh() -> Vec<f64> {\n    vec![0.0; 4]\n}\n".to_string(),
        ),
        (
            "crates/wifi/src/gate_probe_hot.rs".to_string(),
            "fn f(items: &[f64]) {\n    for _x in items {\n        \
             let v = vec![0.0; 4];\n        let w = bluefi_dsp::gate_probe_leaf::fresh();\n        \
             drop((v, w));\n    }\n}\n"
                .to_string(),
        ),
    ];
    let out = bluefi_analyze::analyze_files(&files);
    let r10: Vec<&bluefi_analyze::Diagnostic> =
        out.fired.iter().filter(|d| d.rule == bluefi_analyze::Rule::TransitiveAlloc).collect();
    assert_eq!(r10.len(), 2, "{:#?}", out.fired);
    assert!(r10[0].chain.is_empty(), "the loop line's own vec! is a direct finding");
    assert!(!r10[1].chain.is_empty(), "R10 diagnostics carry the allocation chain");
    let report = bluefi_analyze::Report::default();
    assert!(report.summary().contains("R10=0"), "{}", report.summary());
}
