//! R3 — hermetic-manifest policy.
//!
//! The tier-1 gate (`cargo build --release && cargo test -q`) only works
//! offline because every crate depends exclusively on sibling `bluefi-*`
//! crates. This module (which absorbed the former `tests/hermetic.rs`
//! guard) scans every `Cargo.toml` and reports:
//!
//! * any dependency-section entry that is not a `bluefi*` crate,
//! * any mention of the historically vendored registry crates (`rand`,
//!   `serde`, ...) anywhere in a manifest, even commented out,
//! * `default-features` on a workspace-inherited dependency (cargo ignores
//!   it there and warns), and
//! * a `[workspace]` whose `default-members` omits a `members` entry, or
//!   omits `"."` when the manifest is also a package — the tier-1
//!   `cargo test` then silently skips crates; and
//! * a `[package]` that does not opt in to the workspace lints, or a
//!   `[workspace]` that stops setting them ([`scan_lint_opt_in`]) — rustc
//!   enforces `unsafe_code` and `missing_docs` only where they are set.

use crate::{Diagnostic, Rule};

/// Registry crates that must never reappear in any manifest (the in-tree
/// replacements live in `bluefi-core`).
const BANNED_NAMES: [&str; 7] =
    ["rand", "proptest", "criterion", "crossbeam", "parking_lot", "serde", "bytes"];

/// Classifies a `[section]` header that opens a dependency table:
/// `[dependencies]`, `[dev-dependencies]` or `[build-dependencies]` (the
/// returned kind), each optionally under `workspace.` or `target.<cfg>.`,
/// and each optionally naming the one dependency it declares
/// (`[dependencies.<name>]`). Anything else is `None`.
fn dep_table(header: &str) -> Option<(&'static str, Option<&str>)> {
    let prefix_ok =
        |p: &str| p.is_empty() || p == "workspace." || (p.starts_with("target.") && p.ends_with('.'));
    for kind in ["dependencies", "dev-dependencies", "build-dependencies"] {
        for (at, _) in header.match_indices(kind) {
            let tail = &header[at + kind.len()..];
            if !prefix_ok(&header[..at]) {
                continue;
            }
            if tail.is_empty() {
                return Some((kind, None));
            }
            if let Some(name) = tail.strip_prefix('.') {
                return Some((kind, Some(name.trim_matches('"'))));
            }
        }
    }
    None
}

/// Extracts the dependency name from a line inside a dependency table.
/// Handles `name = "1.0"`, `name = { .. }`, and `name.workspace = true`.
fn dep_name(line: &str) -> Option<&str> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
        return None;
    }
    let key = line.split('=').next()?.trim();
    // `bluefi-core.workspace = true` -> the part before the first dot.
    let name = key.split('.').next()?.trim().trim_matches('"');
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// One dependency entry of a manifest.
struct DepEntry<'a> {
    /// 0-based line index: the entry's line, or the header of a
    /// `[dependencies.<name>]` table.
    line: usize,
    /// Dependency name.
    name: &'a str,
    /// The trimmed entry line.
    text: &'a str,
    /// The table kind it sits under (`dependencies`, ...).
    kind: &'static str,
}

/// Every dependency entry of a manifest, in file order.
fn dep_entries(text: &str) -> Vec<DepEntry<'_>> {
    let mut out = Vec::new();
    let mut table = None;
    for (line, raw) in text.lines().enumerate() {
        let trimmed = raw.trim();
        if trimmed.starts_with('[') {
            table = dep_table(trimmed.trim_matches(|c| c == '[' || c == ']'));
            if let Some((kind, Some(name))) = table {
                out.push(DepEntry { line, name, text: trimmed, kind });
            }
        } else if let Some((kind, None)) = table {
            if let Some(name) = dep_name(trimmed) {
                out.push(DepEntry { line, name, text: trimmed, kind });
            }
        }
    }
    out
}

/// Scans one manifest's text; `rel_path` is used in diagnostics.
pub fn scan_manifest(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for DepEntry { line, name, text, .. } in dep_entries(text) {
        if !name.starts_with("bluefi") {
            out.push(Diagnostic::new(
                Rule::HermeticManifests,
                rel_path,
                line + 1,
                format!("external dependency `{name}` breaks the offline build"),
            ));
        }
        if inherits_workspace(text) && text.contains("default-features") {
            out.push(Diagnostic::new(
                Rule::HermeticManifests,
                rel_path,
                line + 1,
                format!(
                    "`default-features` on workspace-inherited `{name}` is \
                     ignored by cargo; set it in [workspace.dependencies]"
                ),
            ));
        }
    }
    // Belt-and-braces: banned crate names anywhere, even commented out
    // or outside dependency tables (whole-word match, so a crate named
    // `bluefi-random` would not false-positive).
    for (lineno, line) in text.lines().enumerate() {
        for banned in BANNED_NAMES {
            let hit = line
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| w == banned);
            if hit {
                out.push(Diagnostic::new(
                    Rule::HermeticManifests,
                    rel_path,
                    lineno + 1,
                    format!("banned registry crate name `{banned}` mentioned in manifest"),
                ));
            }
        }
    }
    out.sort_by_key(|d| d.line);
    scan_default_members(rel_path, text, &mut out);
    out
}

/// True if a dependency line inherits from `[workspace.dependencies]`
/// (`name.workspace = true` or `name = { workspace = true, .. }`).
fn inherits_workspace(line: &str) -> bool {
    let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
    compact.contains("workspace=true")
}

/// The items of a string-array key (`key = ["a", "b"]`, possibly spread
/// over several lines) among one table's `(line index, text)` pairs, with
/// the index of the line that opens it.
fn string_array(lines: &[(usize, &str)], key: &str) -> Option<(usize, Vec<String>)> {
    let start = lines
        .iter()
        .position(|(_, l)| l.split_once('=').is_some_and(|(k, _)| k.trim() == key))?;
    let mut value = String::new();
    for (_, l) in &lines[start..] {
        let l = l.split('#').next().unwrap_or("");
        value.push_str(l);
        if l.contains(']') {
            break;
        }
    }
    let body = value.split_once('[')?.1.split(']').next()?;
    let items = body
        .split(',')
        .map(|item| item.trim().trim_matches('"').to_string())
        .filter(|item| !item.is_empty())
        .collect();
    Some((lines[start].0, items))
}

/// Flags a `[workspace]` table whose `default-members` omits any `members`
/// entry, or omits `"."` when the same manifest declares a `[package]`.
/// A rooted workspace with no `default-members` at all is flagged too:
/// cargo then builds and tests only the root package.
fn scan_default_members(rel_path: &str, text: &str, out: &mut Vec<Diagnostic>) {
    let mut table = "";
    let mut has_package = false;
    let mut workspace: Option<(usize, Vec<(usize, &str)>)> = None;
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            table = trimmed.trim_matches(|c| c == '[' || c == ']');
            has_package |= table == "package";
            if table == "workspace" {
                workspace = Some((lineno, Vec::new()));
            }
        } else if table == "workspace" {
            if let Some((_, lines)) = workspace.as_mut() {
                lines.push((lineno, trimmed));
            }
        }
    }
    let Some((header, lines)) = workspace else { return };
    let members = string_array(&lines, "members").map(|(_, m)| m).unwrap_or_default();
    let mut required: Vec<String> = Vec::new();
    if has_package {
        required.push(".".to_string());
    }
    required.extend(members);
    let (line, listed) = match string_array(&lines, "default-members") {
        Some(found) => found,
        // Without the key cargo defaults to the root package alone.
        None if has_package => (header, vec![".".to_string()]),
        None => return,
    };
    for missing in required.iter().filter(|r| !listed.contains(r)) {
        out.push(Diagnostic::new(
            Rule::HermeticManifests,
            rel_path,
            line + 1,
            format!(
                "workspace `default-members` omits \"{missing}\": `cargo test` at the \
                 root would skip it"
            ),
        ));
    }
}

/// Lints the workspace root must set under `[workspace.lints.rust]`, and
/// their levels. `unsafe_code` is `forbid` because a `deny` could be
/// lifted again by an `#[allow]` in any file.
const WORKSPACE_LINTS: [(&str, &str); 2] = [("unsafe_code", "forbid"), ("missing_docs", "deny")];

/// R3's lint clauses: a manifest with a `[package]` must carry `[lints]`
/// with `workspace = true`, and one with a `[workspace]` must set
/// `unsafe_code = "forbid"` and `missing_docs = "deny"` as plain level
/// strings under `[workspace.lints.rust]`. A member without the opt-in
/// silently builds without `forbid(unsafe_code)`; a root without the
/// levels gives the opt-in nothing to inherit.
pub fn scan_lint_opt_in(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let mut table = "";
    let mut package = None;
    let mut workspace = None;
    let mut opted_in = false;
    let mut set_lints: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.split('#').next().unwrap_or("").trim();
        if trimmed.starts_with('[') {
            table = trimmed.trim_matches(|c| c == '[' || c == ']');
            match table {
                "package" => package = Some(lineno),
                "workspace" => workspace = Some(lineno),
                _ => {}
            }
            continue;
        }
        let compact: String = trimmed.chars().filter(|c| !c.is_whitespace()).collect();
        match table {
            "lints" => opted_in |= compact == "workspace=true",
            "workspace.lints.rust" => set_lints.push(compact),
            _ => {}
        }
    }
    let mut out = Vec::new();
    if let Some(line) = package.filter(|_| !opted_in) {
        out.push(Diagnostic::new(
            Rule::HermeticManifests,
            rel_path,
            line + 1,
            "`[package]` does not opt in to the workspace lints — add `[lints]` with \
             `workspace = true`, or the crate builds without `unsafe_code = \"forbid\"` \
             and `missing_docs = \"deny\"`"
                .to_string(),
        ));
    }
    let Some(line) = workspace else { return out };
    for (lint, level) in WORKSPACE_LINTS {
        if !set_lints.contains(&format!("{lint}=\"{level}\"")) {
            out.push(Diagnostic::new(
                Rule::HermeticManifests,
                rel_path,
                line + 1,
                format!(
                    "`[workspace.lints.rust]` does not set `{lint} = \"{level}\"` — every \
                     member inherits its lint levels from there"
                ),
            ));
        }
    }
    out
}

/// R8 — crate layering: in `crates/<k>/Cargo.toml`, every `bluefi-*`
/// entry of a shipped dependency table (`[dependencies]`,
/// `[dependencies.<name>]`, `[target.<cfg>.dependencies]`,
/// `[build-dependencies]`) must sit strictly *below* `<k>` in the layer
/// DAG ([`crate::callgraph::LAYERS`]). `[dev-dependencies]` are exempt —
/// test-only upward edges (e.g. `dsp` testing against `bluefi-core`) do
/// not constrain the shipped dependency graph. The workspace-root
/// manifest only aggregates and is skipped.
///
/// The manifest is the whole check: rustc rejects a `bluefi_<x>` path in
/// non-test code unless `<x>` is one of the crate's shipped dependencies,
/// so downward-only dependencies imply downward-only references.
pub fn scan_manifest_layering(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    use crate::callgraph::layer_of;
    let norm = rel_path.replace('\\', "/");
    let mut parts = norm.split('/');
    let krate = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(k), Some("Cargo.toml"), None) => k,
        _ => return Vec::new(),
    };
    let Some(crate_layer) = layer_of(krate) else { return Vec::new() };
    let mut out = Vec::new();
    for DepEntry { line, name, kind, .. } in dep_entries(text) {
        if kind == "dev-dependencies" {
            continue;
        }
        let Some(target_layer) = name.strip_prefix("bluefi-").and_then(layer_of) else {
            continue;
        };
        if target_layer >= crate_layer {
            let relation =
                if target_layer == crate_layer { "a sibling on the same layer" } else { "above" };
            out.push(Diagnostic::new(
                Rule::CrateLayering,
                rel_path,
                line + 1,
                format!(
                    "`{name}` is {relation} `{krate}` in the layer DAG — shipped \
                     `[{kind}]` must point strictly downward \
                     (dev-dependencies are exempt)"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_manifest_passes() {
        let text = "[package]\nname = \"bluefi-x\"\n[dependencies]\nbluefi-dsp.workspace = true\n";
        assert!(scan_manifest("Cargo.toml", text).is_empty());
    }

    #[test]
    fn external_dep_and_banned_name_flagged() {
        let text = "[dependencies]\nrand = \"0.8\"\nbluefi-dsp.workspace = true\n";
        let d = scan_manifest("Cargo.toml", text);
        // `rand` trips both the dep-section check and the banned-name scan.
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn conformance_manifest_shape_is_hermetic() {
        // The exact dependency shape of `crates/conformance/Cargo.toml`:
        // seven sibling crates, workspace-inherited metadata, nothing else.
        // Keeping this fixture in sync with the real manifest means R3
        // provably covers the conformance crate's shape, not just generic
        // examples.
        let text = "[package]\n\
                    name = \"bluefi-conformance\"\n\
                    version.workspace = true\n\
                    [dependencies]\n\
                    bluefi-dsp.workspace = true\n\
                    bluefi-coding.workspace = true\n\
                    bluefi-wifi.workspace = true\n\
                    bluefi-bt.workspace = true\n\
                    bluefi-core.workspace = true\n\
                    bluefi-sim.workspace = true\n\
                    bluefi-service.workspace = true\n";
        assert!(scan_manifest("crates/conformance/Cargo.toml", text).is_empty());
        // And the same shape with one external fixture-diffing crate
        // sneaked in must fire.
        let bad = format!("{text}serde = \"1\"\n");
        let d = scan_manifest("crates/conformance/Cargo.toml", &bad);
        assert_eq!(d.len(), 2); // dep-section entry + banned-name mention
    }

    #[test]
    fn dev_and_target_sections_are_checked() {
        let text = "[dev-dependencies]\nproptest = \"1\"\n[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n";
        let d = scan_manifest("Cargo.toml", text);
        assert_eq!(d.len(), 3); // proptest (x2: dep + banned) + libc
    }

    #[test]
    fn default_features_on_inherited_dep_flagged() {
        let text = "[dependencies]\n\
                    bluefi-dsp = { workspace = true, default-features = false }\n\
                    bluefi-coding.workspace = true\n\
                    [workspace.dependencies]\n\
                    bluefi-bt = { path = \"crates/bt\", default-features = false }\n";
        let d = scan_manifest("crates/x/Cargo.toml", text);
        // Only the inherited entry: the workspace table itself may set it.
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("bluefi-dsp"));
    }

    #[test]
    fn default_members_drift_flagged() {
        let clean = "[workspace]\nmembers = [\"crates/*\"]\n\
                     default-members = [\".\", \"crates/*\"]\n[package]\nname = \"bluefi\"\n";
        assert!(scan_manifest("Cargo.toml", clean).is_empty());
        // A package root with no default-members tests only itself.
        let absent = "[workspace]\nmembers = [\"crates/*\"]\n[package]\nname = \"bluefi\"\n";
        let d = scan_manifest("Cargo.toml", absent);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].line, 1);
        // Multi-line arrays: both the root and a member can go missing.
        let drift = "[package]\nname = \"bluefi\"\n[workspace]\n\
                     members = [\n  \"crates/a\",\n  \"crates/b\",\n]\n\
                     default-members = [\"crates/a\"]\n";
        let d = scan_manifest("Cargo.toml", drift);
        assert_eq!(d.len(), 2, "{d:#?}");
        assert!(d.iter().all(|x| x.line == 8));
        assert!(d[0].message.contains("\".\"") && d[1].message.contains("crates/b"));
        // A virtual workspace (no package) defaults to every member.
        let virt = "[workspace]\nmembers = [\"crates/*\"]\n";
        assert!(scan_manifest("Cargo.toml", virt).is_empty());
        // An empty [workspace] (a standalone package) has nothing to drift.
        let alone = "[package]\nname = \"x\"\n[workspace]\n";
        assert!(scan_manifest("Cargo.toml", alone).is_empty());
    }

    #[test]
    fn layering_flags_upward_shipped_deps_only() {
        // dsp (layer 0) shipping a dep on core (layer 3): upward, flagged.
        let text = "[dependencies]\nbluefi-core.workspace = true\n";
        let d = scan_manifest_layering("crates/dsp/Cargo.toml", text);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].line, 2);
        // The same edge as a dev-dependency is a legitimate test-only edge.
        let dev = "[dev-dependencies]\nbluefi-core.workspace = true\n";
        assert!(scan_manifest_layering("crates/dsp/Cargo.toml", dev).is_empty());
        // Downward dep: fine. Sibling (wifi -> bt, both layer 2): flagged.
        let down = "[dependencies]\nbluefi-dsp.workspace = true\n";
        assert!(scan_manifest_layering("crates/core/Cargo.toml", down).is_empty());
        let sib = "[dependencies]\nbluefi-bt.workspace = true\n";
        let d = scan_manifest_layering("crates/wifi/Cargo.toml", sib);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("sibling"));
        // The workspace root only aggregates members.
        let root = "[workspace.dependencies]\nbluefi-core = { path = \"crates/core\" }\n";
        assert!(scan_manifest_layering("Cargo.toml", root).is_empty());
    }
}
