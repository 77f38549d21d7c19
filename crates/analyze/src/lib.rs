//! # bluefi-analyze
//!
//! In-tree static analysis for the BlueFi workspace — the standing
//! correctness gate behind `tests/analyze_gate.rs` and the
//! `cargo run -p bluefi-analyze` report. Token-level (no external parser),
//! consistent with the hermetic-build policy; the only dependency is
//! `bluefi-core` for the machine-readable JSON report.
//!
//! The analyzer runs as a multi-pass pipeline (DESIGN.md §13):
//!
//! 1. [`source`] — the line lexer: code/comment/test-region/hatch
//!    classification with string and char contents blanked.
//! 2. [`tokens`] — a token stream (idents, literals, punctuation with
//!    spans) atop the blanked code view.
//! 3. [`items`] — a per-file item index: functions with visibility, body
//!    spans and `#[cfg(test)]` status, `use` imports, module paths.
//! 4. [`callgraph`] — a workspace symbol table and conservative call
//!    graph for the cross-file rule R10.
//!
//! What rustc already checks is left to rustc: the root `Cargo.toml` sets
//! `unsafe_code = "forbid"` and `missing_docs = "deny"` under
//! `[workspace.lints.rust]`, and R3 checks that every member opts in.
//! Rule codes are stable, so the retired R2 (no-unsafe), R4 (doc
//! comments) and R6 (direct hot-loop allocation, now part of R10) leave
//! gaps in the numbering.
//!
//! Rules:
//!
//! * **R1 no-panic** — no `.unwrap()` / `.expect(` / `panic!` /
//!   `unimplemented!` / `todo!` in library code outside `#[cfg(test)]`;
//!   escape hatch `// lint: allow(panic) <reason>`.
//! * **R3 hermetic-manifests** — no non-`bluefi` dependencies in any
//!   `Cargo.toml` (absorbed from the former `tests/hermetic.rs`), no
//!   ignored `default-features` on workspace-inherited dependencies, no
//!   `default-members` that drops a workspace member, and no member that
//!   skips the workspace lints (`[lints] workspace = true`) or a workspace
//!   root that stops setting them.
//! * **R5 no-float-eq** — no `==`/`!=` against float operands in signal
//!   code (`dsp`/`wifi`/`bt`/`core`/`service`); escape hatch
//!   `// lint: allow(float-eq) <reason>`.
//! * **R7 no-adhoc-print** — no `println!` / `eprintln!` / `print!` /
//!   `eprint!` in library crates — route output through the telemetry
//!   recorder or a `core::telemetry::Table`; escape hatch
//!   `// lint: allow(print) <reason>`.
//! * **R8 crate-layering** — no `bluefi_<x>` reference from a crate on the
//!   same layer or below `<x>` in the dependency DAG
//!   ([`callgraph::LAYERS`]); manifest `[dependencies]` are checked too;
//!   escape hatch `// lint: allow(layering) <reason>`.
//! * **R9 atomic-ordering** — every `Ordering::SeqCst`/`AcqRel` in the
//!   atomics-bearing crates (`core`/`coding`/`dsp`) needs
//!   `// lint: allow(atomic-ordering) <reason>`, and a `.load(..)` followed
//!   within three statements by a `.store(..)` on the same atomic is
//!   flagged as a lost-update race.
//! * **R10 no-transitive-hot-loop-alloc** — no allocation inside a
//!   `for`/`while` body in the hot-path crates (`dsp`/`wifi`/`coding`),
//!   whether written on the loop line itself (a chain of length 0) or
//!   reached through the call graph (flagged at the call site with the
//!   allocation chain) — hoist it, use a plan cache or a reused scratch
//!   buffer; escape hatch `// lint: allow(r10) <reason>`.
//!
//! Hatched (suppressed) findings are reported separately so the gate can
//! pin exact hatch counts — a new hatch is a visible diff, never silent.

pub mod callgraph;
pub mod items;
pub mod manifests;
pub mod rules;
pub mod source;
pub mod tokens;

use bluefi_core::json::Json;
use source::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// The lint rules, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1 — no panic-family calls in library code.
    NoPanics,
    /// R3 — hermetic manifests (workspace-internal dependencies only, and
    /// every member opted in to the workspace lints).
    HermeticManifests,
    /// R5 — no floating-point equality in signal code.
    NoFloatEq,
    /// R7 — no ad-hoc `println!`-family output in library crates.
    AdhocPrint,
    /// R8 — crate-layering: no upward or sibling `bluefi_*` references.
    CrateLayering,
    /// R9 — atomic-ordering audit: strong orderings need a reason, and
    /// load→store windows on one atomic are lost-update races.
    AtomicOrdering,
    /// R10 — no allocation under hot loops, written directly on the loop
    /// line or reached through the call graph.
    TransitiveAlloc,
}

impl Rule {
    /// All rules in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::NoPanics,
        Rule::HermeticManifests,
        Rule::NoFloatEq,
        Rule::AdhocPrint,
        Rule::CrateLayering,
        Rule::AtomicOrdering,
        Rule::TransitiveAlloc,
    ];

    /// Short code, `R1`..`R10`. Stable: the JSON schema and the gate key
    /// on these, so retired rules leave gaps rather than renumbering.
    pub fn code(self) -> &'static str {
        match self {
            Rule::NoPanics => "R1",
            Rule::HermeticManifests => "R3",
            Rule::NoFloatEq => "R5",
            Rule::AdhocPrint => "R7",
            Rule::CrateLayering => "R8",
            Rule::AtomicOrdering => "R9",
            Rule::TransitiveAlloc => "R10",
        }
    }

    /// Human-readable rule name. Stable, like [`Rule::code`].
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanics => "no-panic",
            Rule::HermeticManifests => "hermetic-manifests",
            Rule::NoFloatEq => "no-float-eq",
            Rule::AdhocPrint => "no-adhoc-print",
            Rule::CrateLayering => "crate-layering",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::TransitiveAlloc => "no-transitive-hot-loop-alloc",
        }
    }
}

/// One `file:line` finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong and how to fix it.
    pub message: String,
    /// Supporting call chain (R10): qualified function names from the
    /// call site's callee down to the allocating function. Empty for
    /// single-site rules and for an allocation written on the loop line.
    pub chain: Vec<String>,
}

impl Diagnostic {
    /// Builds a diagnostic without a chain.
    pub fn new(rule: Rule, file: &str, line: usize, message: String) -> Diagnostic {
        Diagnostic { rule, file: file.to_string(), line, message, chain: Vec::new() }
    }

    /// Builds a diagnostic carrying a call chain (R10).
    pub fn with_chain(
        rule: Rule,
        file: &str,
        line: usize,
        message: String,
        chain: Vec<String>,
    ) -> Diagnostic {
        Diagnostic { rule, file: file.to_string(), line, message, chain }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.file,
            self.line,
            self.rule.code(),
            self.rule.name(),
            self.message
        )
    }
}

/// The sink rules emit into: findings that fired, and findings that were
/// suppressed by an escape hatch. Keeping both lets the workspace report
/// pin exact hatch counts — adding a hatch shows up in the gate diff
/// instead of silently shrinking coverage.
#[derive(Debug, Clone, Default)]
pub struct Findings {
    /// Findings that fired (no hatch on the line).
    pub fired: Vec<Diagnostic>,
    /// Findings suppressed by a `// lint: allow(..) <reason>` hatch.
    pub hatched: Vec<Diagnostic>,
}

impl Findings {
    /// Routes one diagnostic to the fired or hatched list.
    pub fn emit(&mut self, hatched: bool, d: Diagnostic) {
        if hatched {
            self.hatched.push(d);
        } else {
            self.fired.push(d);
        }
    }

    /// Appends another sink's contents.
    pub fn extend(&mut self, other: Findings) {
        self.fired.extend(other.fired);
        self.hatched.extend(other.hatched);
    }
}

/// Which rules apply to a workspace-relative source path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// R1 applies (library code: `crates/*/src`, excluding binary targets).
    pub no_panics: bool,
    /// R5 applies (signal crates: `dsp`/`wifi`/`bt`/`core`/`service`).
    pub no_float_eq: bool,
    /// R10 applies (hot-path kernel crates: `dsp`/`wifi`/`coding`).
    pub hot_loop_alloc: bool,
    /// R7 applies (library crates whose output belongs in telemetry;
    /// binaries exempt).
    pub adhoc_print: bool,
    /// R8 applies (every in-crate source; the layer table decides which
    /// references are upward).
    pub layering: bool,
    /// R9 applies (atomics-bearing crates: `core`/`coding`/`dsp`).
    pub atomics: bool,
}

/// Decides rule scope from a workspace-relative path like
/// `crates/dsp/src/fft.rs`.
pub fn scope_for(rel_path: &str) -> Scope {
    let norm = rel_path.replace('\\', "/");
    let mut parts = norm.split('/');
    if parts.next() != Some("crates") {
        return Scope::default();
    }
    let Some(krate) = parts.next() else { return Scope::default() };
    if parts.next() != Some("src") {
        return Scope::default();
    }
    let rest: Vec<&str> = parts.collect();
    let is_binary = rest.first() == Some(&"bin") || rest == ["main.rs"];
    Scope {
        no_panics: !is_binary,
        no_float_eq: !is_binary && matches!(krate, "dsp" | "wifi" | "bt" | "core" | "service"),
        hot_loop_alloc: !is_binary && matches!(krate, "dsp" | "wifi" | "coding"),
        adhoc_print: !is_binary
            && matches!(
                krate,
                "dsp" | "coding" | "wifi" | "bt" | "core" | "sim" | "apps" | "analyze" | "service"
            ),
        layering: true,
        atomics: !is_binary && matches!(krate, "core" | "coding" | "dsp" | "service"),
    }
}

/// Runs every applicable per-file rule over one file's text and returns
/// both fired and hatched findings. The cross-file rule R10 needs the
/// whole workspace — use [`analyze_files`] for that.
pub fn scan_source_full(rel_path: &str, text: &str) -> Findings {
    let scope = scope_for(rel_path);
    let file = SourceFile::parse(rel_path, text);
    let index = items::index_file(&file);
    let mut out = Findings::default();
    if scope.no_panics {
        rules::r1_no_panics(&file, &mut out);
    }
    if scope.no_float_eq {
        rules::r5_no_float_eq(&file, &mut out);
    }
    if scope.adhoc_print {
        rules::r7_no_adhoc_print(&file, &mut out);
    }
    if scope.layering {
        rules::r8_crate_layering(&file, &index, &mut out);
    }
    if scope.atomics {
        rules::r9_atomic_ordering(&file, &index, &mut out);
    }
    out
}

/// The result of a full workspace pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every finding that fired, in path order.
    pub diagnostics: Vec<Diagnostic>,
    /// Every finding suppressed by an escape hatch, in path order.
    pub hatched: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `Cargo.toml` manifests scanned.
    pub manifests_scanned: usize,
}

impl Report {
    /// True when no rule fired (hatched findings do not dirty a report —
    /// they are pinned separately by the gate).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Fired findings per rule, in [`Rule::ALL`] order.
    pub fn counts(&self) -> [usize; Rule::ALL.len()] {
        Self::count_by_rule(&self.diagnostics)
    }

    /// Hatched findings per rule, in [`Rule::ALL`] order.
    pub fn hatch_counts(&self) -> [usize; Rule::ALL.len()] {
        Self::count_by_rule(&self.hatched)
    }

    fn count_by_rule(diags: &[Diagnostic]) -> [usize; Rule::ALL.len()] {
        let mut counts = [0usize; Rule::ALL.len()];
        for d in diags {
            let idx = Rule::ALL.iter().position(|r| *r == d.rule).unwrap_or(0);
            counts[idx] += 1;
        }
        counts
    }

    /// One-line machine-readable summary, e.g.
    /// `R1=0 R3=0 .. R10=0 total=0 hatched=8 files=58 manifests=12 status=clean`.
    pub fn summary(&self) -> String {
        let counts = self.counts();
        let per_rule: Vec<String> = Rule::ALL
            .iter()
            .zip(counts)
            .map(|(r, c)| format!("{}={c}", r.code()))
            .collect();
        format!(
            "{} total={} hatched={} files={} manifests={} status={}",
            per_rule.join(" "),
            self.diagnostics.len(),
            self.hatched.len(),
            self.files_scanned,
            self.manifests_scanned,
            if self.is_clean() { "clean" } else { "dirty" }
        )
    }

    /// Full human-readable report: findings grouped by rule, then the
    /// machine-readable summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for rule in Rule::ALL {
            let diags: Vec<&Diagnostic> =
                self.diagnostics.iter().filter(|d| d.rule == rule).collect();
            let hatched = self.hatched.iter().filter(|d| d.rule == rule).count();
            out.push_str(&format!(
                "{:<3} {:<28} {} finding(s), {} hatched\n",
                rule.code(),
                rule.name(),
                diags.len(),
                hatched
            ));
            for d in diags {
                out.push_str(&format!("  {d}\n"));
                if !d.chain.is_empty() {
                    out.push_str(&format!("      chain: {}\n", d.chain.join(" => ")));
                }
            }
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// Machine-readable JSON report (`bluefi-analyze/v1`), the interface
    /// the tier-1 gate consumes:
    ///
    /// ```json
    /// {
    ///   "schema": "bluefi-analyze/v1",
    ///   "status": "clean",
    ///   "total": 0, "files": 58, "manifests": 10,
    ///   "rules": [{"id": "R1", "name": "no-panic",
    ///              "findings": 0, "hatched": 12}, ...],
    ///   "diagnostics": [{"rule": "R10", "file": "...", "line": 7,
    ///                    "message": "...", "chain": ["a::f", "a::g"]}],
    ///   "hatched": [{"rule": "R1", "file": "...", "line": 3}]
    /// }
    /// ```
    ///
    /// Rule ids and names are stable; `rules` always lists every rule in
    /// [`Rule::ALL`] order, so consumers may index as well as key by id.
    pub fn to_json(&self) -> Json {
        let counts = self.counts();
        let hatch_counts = self.hatch_counts();
        let rules: Vec<Json> = Rule::ALL
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Json::obj(vec![
                    ("id", Json::Str(r.code().to_string())),
                    ("name", Json::Str(r.name().to_string())),
                    ("findings", Json::Num(counts[i] as f64)),
                    ("hatched", Json::Num(hatch_counts[i] as f64)),
                ])
            })
            .collect();
        let diag_json = |d: &Diagnostic, with_message: bool| {
            let mut fields = vec![
                ("rule", Json::Str(d.rule.code().to_string())),
                ("file", Json::Str(d.file.clone())),
                ("line", Json::Num(d.line as f64)),
            ];
            if with_message {
                fields.push(("message", Json::Str(d.message.clone())));
                if !d.chain.is_empty() {
                    fields.push((
                        "chain",
                        Json::Arr(d.chain.iter().map(|c| Json::Str(c.clone())).collect()),
                    ));
                }
            }
            Json::obj(fields)
        };
        Json::obj(vec![
            ("schema", Json::Str("bluefi-analyze/v1".to_string())),
            (
                "status",
                Json::Str(if self.is_clean() { "clean" } else { "dirty" }.to_string()),
            ),
            ("total", Json::Num(self.diagnostics.len() as f64)),
            ("files", Json::Num(self.files_scanned as f64)),
            ("manifests", Json::Num(self.manifests_scanned as f64)),
            ("rules", Json::Arr(rules)),
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(|d| diag_json(d, true)).collect()),
            ),
            (
                "hatched",
                Json::Arr(self.hatched.iter().map(|d| diag_json(d, false)).collect()),
            ),
        ])
    }
}

/// Runs the full multi-pass pipeline — the per-file rules plus the
/// cross-file call-graph rule R10 — over in-memory `(rel_path, text)`
/// pairs. This is the core of [`analyze_workspace`] and the entry point
/// the R10 fixtures use.
pub fn analyze_files(files: &[(String, String)]) -> Findings {
    let mut out = Findings::default();
    let mut analyzed = Vec::with_capacity(files.len());
    for (rel, text) in files {
        out.extend(scan_source_full(rel, text));
        let source = SourceFile::parse(rel, text);
        let index = items::index_file(&source);
        analyzed.push(callgraph::AnalyzedFile { source, index });
    }
    callgraph::r10_transitive_alloc(&analyzed, &mut out);
    out
}

/// Scans the whole workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`): all `crates/*/src/**/*.rs` sources plus every
/// manifest. Fails with a message when the tree cannot be read.
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();

    // Sources: load the whole tree, then run the multi-pass pipeline so
    // R10 sees every crate at once.
    let crates_dir = root.join("crates");
    let mut sources: Vec<(String, String)> = Vec::new();
    for crate_dir in sorted_dirs(&crates_dir)? {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for file in rust_files(&src)? {
            let rel = relative_to(&file, root);
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            sources.push((rel, text));
        }
    }
    report.files_scanned = sources.len();
    let findings = analyze_files(&sources);
    report.diagnostics = findings.fired;
    report.hatched = findings.hatched;

    // Manifests: workspace root + one per crate. R3 (hermetic deps and the
    // workspace-lints opt-in) plus the R8 manifest-level layering check.
    let mut manifest_paths = vec![root.join("Cargo.toml")];
    for crate_dir in sorted_dirs(&crates_dir)? {
        let m = crate_dir.join("Cargo.toml");
        if m.is_file() {
            manifest_paths.push(m);
        }
    }
    for m in manifest_paths {
        let rel = relative_to(&m, root);
        let text = std::fs::read_to_string(&m)
            .map_err(|e| format!("cannot read {}: {e}", m.display()))?;
        report.diagnostics.extend(manifests::scan_manifest(&rel, &text));
        report.diagnostics.extend(manifests::scan_lint_opt_in(&rel, &text));
        report.diagnostics.extend(manifests::scan_manifest_layering(&rel, &text));
        report.manifests_scanned += 1;
    }

    let key = |d: &Diagnostic| (d.file.clone(), d.line, d.rule.code());
    report.diagnostics.sort_by_key(key);
    report.hatched.sort_by_key(key);
    Ok(report)
}

fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("bad dir entry: {e}"))?.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries =
            std::fs::read_dir(&d).map_err(|e| format!("cannot read {}: {e}", d.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("bad dir entry: {e}"))?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn relative_to(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_rules() {
        let s = scope_for("crates/dsp/src/fft.rs");
        assert!(s.no_panics && s.no_float_eq);
        assert!(s.hot_loop_alloc && s.layering && s.atomics);
        let s = scope_for("crates/coding/src/viterbi.rs");
        assert!(s.hot_loop_alloc && !s.no_float_eq && s.atomics);
        let s = scope_for("crates/core/src/pipeline.rs");
        assert!(!s.hot_loop_alloc && s.no_float_eq && s.atomics);
        let s = scope_for("crates/sim/src/mac.rs");
        assert!(s.no_panics && !s.no_float_eq);
        assert!(!s.hot_loop_alloc && s.adhoc_print && s.layering && !s.atomics);
        let s = scope_for("crates/bench/src/bin/fig5_distance.rs");
        assert!(!s.no_panics && !s.hot_loop_alloc);
        assert!(!s.adhoc_print, "binaries may print");
        assert!(s.layering, "binaries still respect the layer DAG");
        let s = scope_for("crates/bench/src/lib.rs");
        assert!(!s.adhoc_print, "the bench reporter prints by design");
        let s = scope_for("crates/apps/src/audio.rs");
        assert!(s.adhoc_print);
        let s = scope_for("crates/analyze/src/rules.rs");
        assert!(s.no_panics && s.adhoc_print, "the analyzer lints itself");
        let s = scope_for("crates/service/src/server.rs");
        assert!(s.no_panics && s.no_float_eq && s.adhoc_print && s.atomics);
        let s = scope_for("crates/service/src/bin/bluefi-serviced.rs");
        assert!(!s.no_panics && !s.adhoc_print, "the daemon binary may print");
        let s = scope_for("tests/e2e_audio.rs");
        assert!(!s.no_panics && !s.layering);
    }

    #[test]
    fn summary_is_machine_readable() {
        let mut r = Report { files_scanned: 3, manifests_scanned: 2, ..Default::default() };
        assert_eq!(
            r.summary(),
            "R1=0 R3=0 R5=0 R7=0 R8=0 R9=0 R10=0 \
             total=0 hatched=0 files=3 manifests=2 status=clean"
        );
        r.diagnostics.push(Diagnostic::new(Rule::NoPanics, "x.rs", 1, "m".into()));
        r.hatched.push(Diagnostic::new(Rule::NoPanics, "x.rs", 2, "m".into()));
        assert!(r.summary().contains("R1=1") && r.summary().contains("hatched=1"));
        assert!(r.summary().ends_with("status=dirty"));
    }

    #[test]
    fn json_report_matches_schema() {
        let mut r = Report { files_scanned: 3, manifests_scanned: 2, ..Default::default() };
        r.diagnostics.push(Diagnostic::with_chain(
            Rule::TransitiveAlloc,
            "crates/dsp/src/x.rs",
            7,
            "m".into(),
            vec!["dsp::f".into(), "dsp::g".into()],
        ));
        let j = r.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some("bluefi-analyze/v1"));
        assert_eq!(j.get("status").and_then(Json::as_str), Some("dirty"));
        assert_eq!(j.get("total").and_then(Json::as_f64), Some(1.0));
        let rules = j.get("rules").and_then(Json::as_arr).expect("rules array");
        assert_eq!(rules.len(), Rule::ALL.len());
        assert_eq!(rules[6].get("id").and_then(Json::as_str), Some("R10"));
        assert_eq!(rules[6].get("findings").and_then(Json::as_f64), Some(1.0));
        let diags = j.get("diagnostics").and_then(Json::as_arr).expect("diagnostics");
        let chain = diags[0].get("chain").and_then(Json::as_arr).expect("chain");
        assert_eq!(chain.len(), 2);
        // Round-trips through the parser.
        let parsed = Json::parse(&j.render()).expect("self-render parses");
        assert_eq!(parsed.get("total").and_then(Json::as_f64), Some(1.0));
    }
}
