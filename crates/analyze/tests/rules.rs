//! Proves every rule fires: each fixture under `tests/fixtures/` carries a
//! known set of violations (plus suppressed/exempt cases), and these tests
//! pin the exact diagnostic counts, lines, and `file:line` rendering.
//!
//! Fixtures are scanned under *virtual* workspace paths (e.g.
//! `crates/dsp/src/...`) so the scope rules treat them as signal-crate
//! library code; the files themselves are never compiled.

use bluefi_analyze::{analyze_files, manifests, scan_source_full, Rule};

fn lines_of(diags: &[bluefi_analyze::Diagnostic], rule: Rule) -> Vec<usize> {
    diags.iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
}

#[test]
fn r1_fires_on_every_panic_family_member() {
    let src = include_str!("fixtures/r1_panics.rs");
    let diags = scan_source_full("crates/dsp/src/r1_panics.rs", src).fired;
    // unwrap, expect, panic!, unimplemented!, todo! — and nothing else:
    // the hatched call and the #[cfg(test)] module stay silent.
    assert_eq!(diags.len(), 5, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == Rule::NoPanics));
    assert_eq!(lines_of(&diags, Rule::NoPanics), vec![6, 7, 9, 12, 14]);
    assert_eq!(
        diags[0].to_string(),
        "crates/dsp/src/r1_panics.rs:6: [R1 no-panic] `.unwrap` in library code — \
         return Result/Option or add `// lint: allow(panic) <reason>`"
    );
}

#[test]
fn r3_fires_on_external_and_banned_dependencies() {
    let text = include_str!("fixtures/r3_manifest.toml");
    let diags = manifests::scan_manifest("crates/fixture/NotCargo.toml", text);
    // serde: external dep + banned name (2 findings, same line);
    // quickcheck: external dep (1 finding). bluefi-dsp passes.
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == Rule::HermeticManifests));
    let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![11, 11, 14]);
    assert!(diags[0].to_string().contains("`serde`"));
    assert!(diags[2].to_string().contains("`quickcheck`"));
}

#[test]
fn r3_fires_on_a_missing_workspace_lints_opt_in() {
    // A member manifest without `[lints] workspace = true`: flagged at its
    // `[package]` header.
    let member = include_str!("fixtures/r3_manifest.toml");
    let diags = manifests::scan_lint_opt_in("crates/fixture/NotCargo.toml", member);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, Rule::HermeticManifests);
    assert_eq!(diags[0].line, 5);
    assert!(diags[0].message.contains("workspace = true"));

    // The workspace root as written sets both lints and opts in: clean.
    let root = include_str!("fixtures/r3_workspace_root.toml");
    assert!(manifests::scan_lint_opt_in("NotCargo.toml", root).is_empty());
    assert!(manifests::scan_manifest("NotCargo.toml", root).is_empty());
    // Each lint missing (or `unsafe_code` weakened to a `deny` that an
    // `#[allow]` could lift) fires at the `[workspace]` header.
    for (from, to, lint) in [
        ("unsafe_code = \"forbid\"\n", "", "unsafe_code"),
        ("unsafe_code = \"forbid\"", "unsafe_code = \"deny\"", "unsafe_code"),
        ("missing_docs = \"deny\"\n", "", "missing_docs"),
    ] {
        let text = root.replace(from, to);
        let diags = manifests::scan_lint_opt_in("NotCargo.toml", &text);
        assert_eq!(diags.len(), 1, "{to:?}: {diags:#?}");
        assert_eq!(diags[0].line, 6);
        assert!(diags[0].message.contains(lint), "{diags:#?}");
    }
    // The root's own package must opt in as well.
    let text = root.replace("[lints]\nworkspace = true\n", "");
    let diags = manifests::scan_lint_opt_in("NotCargo.toml", &text);
    assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), vec![14], "{diags:#?}");
}

#[test]
fn r5_fires_on_float_equality() {
    let src = include_str!("fixtures/r5_float_eq.rs");
    let diags = scan_source_full("crates/dsp/src/r5_float_eq.rs", src).fired;
    // Literal 0.0 and f64::INFINITY; the integer ==, the <=, and the
    // hatched sentinel all pass.
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == Rule::NoFloatEq));
    assert_eq!(lines_of(&diags, Rule::NoFloatEq), vec![6, 7]);
    assert!(diags[0].to_string().starts_with("crates/dsp/src/r5_float_eq.rs:6: [R5 no-float-eq]"));
}

#[test]
fn r7_fires_on_adhoc_prints_in_library_code() {
    let src = include_str!("fixtures/r7_print.rs");
    let diags = scan_source_full("crates/core/src/r7_print.rs", src).fired;
    let r7 = lines_of(&diags, Rule::AdhocPrint);
    // println!, eprintln!, print!, eprint! in `noisy`; the hatched banner,
    // the string literal, the writeln! into a buffer, and the #[cfg(test)]
    // print all stay silent.
    assert_eq!(r7, vec![6, 7, 8, 9], "{diags:#?}");
    assert!(diags
        .iter()
        .find(|d| d.rule == Rule::AdhocPrint)
        .unwrap()
        .to_string()
        .starts_with("crates/core/src/r7_print.rs:6: [R7 no-adhoc-print]"));
    // Binaries render the tables — out of scope there, and in bench's lib
    // (the Reporter prints by design).
    let diags = scan_source_full("crates/bench/src/bin/r7_print.rs", src).fired;
    assert!(lines_of(&diags, Rule::AdhocPrint).is_empty());
    let diags = scan_source_full("crates/bench/src/r7_print.rs", src).fired;
    assert!(lines_of(&diags, Rule::AdhocPrint).is_empty());
}

#[test]
fn r8_fires_on_upward_and_sibling_references() {
    let src = include_str!("fixtures/r8_layering.rs");
    let out = scan_source_full("crates/wifi/src/r8_layering.rs", src);
    let r8 = lines_of(&out.fired, Rule::CrateLayering);
    // core (upward use), bt (sibling use), apps (upward path expression);
    // the dsp use is downward, the hatched sim use and the #[cfg(test)]
    // core use stay silent.
    assert_eq!(r8, vec![5, 6, 12], "{:#?}", out.fired);
    assert_eq!(lines_of(&out.hatched, Rule::CrateLayering), vec![9]);
    assert!(out.fired[0]
        .to_string()
        .starts_with("crates/wifi/src/r8_layering.rs:5: [R8 crate-layering]"));
    assert!(out.fired[0].message.contains("upward"));
    assert!(out.fired[1].message.contains("sibling"));
    // The same file inside `apps` (top of the tree): only the sim use
    // (hatched) and nothing else is upward... core/bt/dsp are all below.
    let out = scan_source_full("crates/apps/src/r8_layering.rs", src);
    assert!(lines_of(&out.fired, Rule::CrateLayering).is_empty(), "{:#?}", out.fired);
}

#[test]
fn r9_fires_on_strong_orderings_and_lost_updates() {
    let src = include_str!("fixtures/r9_atomics.rs");
    let out = scan_source_full("crates/core/src/r9_atomics.rs", src);
    let r9 = lines_of(&out.fired, Rule::AtomicOrdering);
    // SeqCst without a hatch, the two-statement load->store window, and
    // the self-feeding store; the hatched AcqRel, Relaxed stores,
    // fetch_add, cross-atomic store, far-apart store, and test code all
    // stay silent.
    assert_eq!(r9, vec![7, 15, 19], "{:#?}", out.fired);
    assert_eq!(lines_of(&out.hatched, Rule::AtomicOrdering), vec![9]);
    assert!(out.fired[0].message.contains("Ordering::SeqCst"));
    assert!(out.fired[1].message.contains("lost"));
    // Out of scope outside the atomics-bearing crates.
    let out = scan_source_full("crates/sim/src/r9_atomics.rs", src);
    assert!(lines_of(&out.fired, Rule::AtomicOrdering).is_empty());
}

#[test]
fn r10_fires_on_transitive_hot_loop_allocation() {
    let files = vec![
        (
            "crates/dsp/src/r10_leaf.rs".to_string(),
            include_str!("fixtures/r10_leaf.rs").to_string(),
        ),
        (
            "crates/coding/src/r10_mid.rs".to_string(),
            include_str!("fixtures/r10_mid.rs").to_string(),
        ),
        (
            "crates/wifi/src/r10_hot.rs".to_string(),
            include_str!("fixtures/r10_hot.rs").to_string(),
        ),
    ];
    let out = analyze_files(&files);
    let r10: Vec<&bluefi_analyze::Diagnostic> =
        out.fired.iter().filter(|d| d.rule == Rule::TransitiveAlloc).collect();
    // The 1-hop call and the multi-hop relay; the hatched relay, the
    // allocation-free callee, and the call outside the loop stay silent.
    assert_eq!(r10.len(), 2, "{:#?}", out.fired);
    assert!(r10.iter().all(|d| d.file == "crates/wifi/src/r10_hot.rs"));
    assert_eq!(r10[0].line, 13);
    assert_eq!(r10[1].line, 14);
    // 1-hop chain: callee then the allocation site.
    assert_eq!(r10[0].chain.len(), 2, "{:#?}", r10[0].chain);
    assert!(r10[0].chain[0].contains("wifi::r10_hot::direct_alloc"));
    assert!(r10[0].chain[1].contains("Vec::with_capacity"));
    // Multi-hop chain crosses two crate boundaries down to dsp's vec!.
    assert_eq!(r10[1].chain.len(), 3, "{:#?}", r10[1].chain);
    assert!(r10[1].chain[0].contains("coding::r10_mid::relay"));
    assert!(r10[1].chain[1].contains("dsp::r10_leaf::fresh_buf"));
    assert!(r10[1].chain[2].contains("`vec!"));
    assert!(r10[1].chain[2].contains("crates/dsp/src/r10_leaf.rs:6"));
    // The hatched call site is recorded, not fired.
    assert_eq!(lines_of(&out.hatched, Rule::TransitiveAlloc), vec![16]);
    // No other rule fires on the fixture trio (they are clean by design).
    assert_eq!(out.fired.len(), 2, "{:#?}", out.fired);
}

#[test]
fn r10_fires_on_direct_hot_loop_allocations() {
    let src = include_str!("fixtures/r10_hot_loop.rs");
    let r10 = |rel: &str| {
        let out = analyze_files(&[(rel.to_string(), src.to_string())]);
        (lines_of(&out.fired, Rule::TransitiveAlloc), out)
    };
    let (lines, out) = r10("crates/dsp/src/r10_hot_loop.rs");
    // vec!, FftPlan::new, Vec::with_capacity inside the for body; the
    // unhatched vec! in the while body; Box::new and .to_vec() in the
    // trellis-style loop. Hoisted/hatched/header/test-code allocations
    // stay silent.
    assert_eq!(lines, vec![7, 8, 9, 19, 37, 38], "{:#?}", out.fired);
    assert_eq!(lines_of(&out.hatched, Rule::TransitiveAlloc), vec![18]);
    // Written on the loop line itself: a chain of length 0.
    assert!(out.fired.iter().all(|d| d.chain.is_empty()), "{:#?}", out.fired);
    assert!(out.fired[0]
        .to_string()
        .starts_with("crates/dsp/src/r10_hot_loop.rs:7: [R10 no-transitive-hot-loop-alloc]"));
    // The coding crate (home of the trellis/traceback modules) is in
    // scope: the same fixture fires identically there.
    assert_eq!(r10("crates/coding/src/trellis.rs").0, vec![7, 8, 9, 19, 37, 38]);
    // Out of scope in `core` (the pipeline intentionally clones results).
    assert!(r10("crates/core/src/r10_hot_loop.rs").0.is_empty());
}

#[test]
fn scope_disables_rules_outside_signal_crates() {
    // The same R5 fixture scanned as a sim-crate file: R5 is out of scope
    // there, so only rules that apply everywhere could fire (none do).
    let src = include_str!("fixtures/r5_float_eq.rs");
    let diags = scan_source_full("crates/sim/src/r5_float_eq.rs", src).fired;
    assert!(diags.is_empty(), "{diags:#?}");
    // And a binary target is exempt from R1 entirely.
    let src = include_str!("fixtures/r1_panics.rs");
    let diags = scan_source_full("crates/bench/src/bin/r1_panics.rs", src).fired;
    assert!(diags.is_empty(), "{diags:#?}");
}
