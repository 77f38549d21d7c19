//! Golden-vector fixtures: JSON serialization, regeneration and checking.
//!
//! Each fixture is one JSON file under the crate's `fixtures/` directory:
//! the five [`crate::trace::CASES`] (payload × chip × strategy) plus a
//! standalone HT-mixed preamble fixture. All 64-bit values — digests,
//! checkpoints, literal prefix words, `f64` bit patterns — are stored as
//! 16-hex-char strings because the in-tree JSON type carries numbers as
//! `f64`, which cannot round-trip a full `u64` exactly.
//!
//! `regen_all` rewrites every fixture from the current code;
//! `check_all` recomputes each trace and reports the first divergence per
//! stage against the committed expectation.

use crate::digest::{Divergence, StageVector};
use crate::trace::{trace_case, CaseMeta, CaseTrace, CASES};
use bluefi_core::json::Json;
use bluefi_wifi::preamble::ht_mixed_preamble;
use bluefi_wifi::Mcs;
use std::path::{Path, PathBuf};

/// PSDU length the preamble fixture signals (arbitrary but fixed).
pub const PREAMBLE_PSDU_LEN: usize = 1000;

/// The preamble fixture's file stem.
pub const PREAMBLE_FIXTURE: &str = "preamble_ht_mixed";

/// The crate's committed fixture directory.
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn hex16(w: u64) -> Json {
    Json::Str(format!("{w:016x}"))
}

fn parse_hex16(j: &Json, what: &str) -> Result<u64, String> {
    let s = j.as_str().ok_or_else(|| format!("{what}: expected a hex string"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("{what}: bad hex `{s}`: {e}"))
}

fn get<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("{ctx}: missing key `{key}`"))
}

fn get_usize(j: &Json, key: &str, ctx: &str) -> Result<usize, String> {
    let v = get(j, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a number"))?;
    Ok(v as usize)
}

fn stage_to_json(s: &StageVector) -> Json {
    Json::obj(vec![
        ("stage", Json::Str(s.stage.clone())),
        ("elems", Json::Num(s.elems as f64)),
        ("words", Json::Num(s.words as f64)),
        ("digest", hex16(s.digest)),
        ("checkpoints", Json::Arr(s.checkpoints.iter().map(|&c| hex16(c)).collect())),
        ("prefix", Json::Arr(s.prefix.iter().map(|&w| hex16(w)).collect())),
    ])
}

fn stage_from_json(j: &Json) -> Result<StageVector, String> {
    let stage = get(j, "stage", "stage")?
        .as_str()
        .ok_or_else(|| "stage: `stage` is not a string".to_string())?
        .to_string();
    let ctx = format!("stage `{stage}`");
    let hexes = |key: &str| -> Result<Vec<u64>, String> {
        get(j, key, &ctx)?
            .as_arr()
            .ok_or_else(|| format!("{ctx}: `{key}` is not an array"))?
            .iter()
            .map(|v| parse_hex16(v, &format!("{ctx}.{key}")))
            .collect()
    };
    Ok(StageVector {
        elems: get_usize(j, "elems", &ctx)?,
        words: get_usize(j, "words", &ctx)?,
        digest: parse_hex16(get(j, "digest", &ctx)?, &format!("{ctx}.digest"))?,
        checkpoints: hexes("checkpoints")?,
        prefix: hexes("prefix")?,
        stage,
    })
}

fn meta_to_json(m: &CaseMeta) -> Json {
    Json::obj(vec![
        ("seed", Json::Num(m.seed as f64)),
        ("mcs", Json::Num(m.mcs as f64)),
        ("wifi_channel", Json::Num(m.wifi_channel as f64)),
        ("tx_subcarrier_bits", hex16(m.tx_subcarrier_bits)),
        ("psdu_len", Json::Num(m.psdu_len as f64)),
        ("n_symbols", Json::Num(m.n_symbols as f64)),
        ("forced_bits", Json::Num(m.forced_bits as f64)),
        ("mean_quant_error_bits", hex16(m.mean_quant_error_bits)),
    ])
}

fn meta_from_json(j: &Json, ctx: &str) -> Result<CaseMeta, String> {
    Ok(CaseMeta {
        seed: get_usize(j, "seed", ctx)? as u8,
        mcs: get_usize(j, "mcs", ctx)? as u8,
        wifi_channel: get_usize(j, "wifi_channel", ctx)? as u8,
        tx_subcarrier_bits: parse_hex16(
            get(j, "tx_subcarrier_bits", ctx)?,
            &format!("{ctx}.tx_subcarrier_bits"),
        )?,
        psdu_len: get_usize(j, "psdu_len", ctx)?,
        n_symbols: get_usize(j, "n_symbols", ctx)?,
        forced_bits: get_usize(j, "forced_bits", ctx)?,
        mean_quant_error_bits: parse_hex16(
            get(j, "mean_quant_error_bits", ctx)?,
            &format!("{ctx}.mean_quant_error_bits"),
        )?,
    })
}

fn trace_to_json(t: &CaseTrace) -> Json {
    Json::obj(vec![
        ("name", Json::Str(t.name.clone())),
        ("meta", meta_to_json(&t.meta)),
        ("stages", Json::Arr(t.stages.iter().map(stage_to_json).collect())),
    ])
}

fn trace_from_json(j: &Json) -> Result<CaseTrace, String> {
    let name = get(j, "name", "fixture")?
        .as_str()
        .ok_or_else(|| "fixture: `name` is not a string".to_string())?
        .to_string();
    let meta = meta_from_json(get(j, "meta", &name)?, &name)?;
    let stages = get(j, "stages", &name)?
        .as_arr()
        .ok_or_else(|| format!("{name}: `stages` is not an array"))?
        .iter()
        .map(stage_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CaseTrace { name, meta, stages })
}

/// The HT-mixed preamble reduced to per-segment stage vectors.
///
/// Segment boundaries follow 802.11n-2009 Fig 20-1 at 20 MHz / 20 Msps:
/// L-STF and L-LTF are 8 µs (160 samples) each, L-SIG and each HT-SIG
/// symbol 4 µs (80), HT-STF 4 µs (80 — windowing overlap folds into the
/// neighbouring segments here), HT-LTF 4 µs.
pub fn preamble_trace() -> CaseTrace {
    let iq = ht_mixed_preamble(&Mcs::from_index(7), PREAMBLE_PSDU_LEN, true);
    let seg = |name: &str, lo: usize, hi: usize| {
        StageVector::capture(name, &iq[lo.min(iq.len())..hi.min(iq.len())])
    };
    let stages = vec![
        seg("l_stf", 0, 160),
        seg("l_ltf", 160, 320),
        seg("l_sig", 320, 400),
        seg("ht_sig", 400, 560),
        seg("ht_stf", 560, 640),
        seg("ht_ltf", 640, 720),
        StageVector::capture("full", &iq),
    ];
    CaseTrace {
        name: PREAMBLE_FIXTURE.to_string(),
        meta: CaseMeta {
            seed: 0,
            mcs: 7,
            wifi_channel: 0,
            tx_subcarrier_bits: 0,
            psdu_len: PREAMBLE_PSDU_LEN,
            n_symbols: 0,
            forced_bits: 0,
            mean_quant_error_bits: 0,
        },
        stages,
    }
}

/// Computes all current traces: every case plus the preamble.
pub fn current_traces() -> Result<Vec<CaseTrace>, String> {
    let mut out = Vec::with_capacity(CASES.len() + 1);
    for spec in &CASES {
        out.push(trace_case(spec)?);
    }
    out.push(preamble_trace());
    Ok(out)
}

/// Regenerates every fixture under `dir`, returning the files written.
pub fn regen_all(dir: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for t in current_traces()? {
        let path = dir.join(format!("{}.json", t.name));
        let mut text = trace_to_json(&t).render();
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}

/// The outcome of checking current code against committed fixtures.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Fixture names that were compared.
    pub checked: Vec<String>,
    /// First divergence found in each diverging stage (or meta field).
    pub divergences: Vec<Divergence>,
}

impl CheckReport {
    /// True when every fixture matched bit-for-bit.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "conformance check: {} fixtures OK ({})\n",
                self.checked.len(),
                self.checked.join(", "),
            ));
        } else {
            out.push_str(&format!(
                "conformance check: {} divergence(s) across {} fixtures\n",
                self.divergences.len(),
                self.checked.len(),
            ));
            for d in &self.divergences {
                out.push_str(&format!("  {d}\n"));
            }
        }
        out
    }
}

fn meta_divergences(case: &str, expected: &CaseMeta, got: &CaseMeta) -> Vec<Divergence> {
    let mk = |field: &str, exp: String, g: String| Divergence {
        stage: case.to_string(),
        kind: format!("meta:{field}"),
        index: 0,
        expected: exp,
        got: g,
    };
    let mut out = Vec::new();
    if expected.seed != got.seed {
        out.push(mk("seed", expected.seed.to_string(), got.seed.to_string()));
    }
    if expected.mcs != got.mcs {
        out.push(mk("mcs", expected.mcs.to_string(), got.mcs.to_string()));
    }
    if expected.wifi_channel != got.wifi_channel {
        out.push(mk(
            "wifi_channel",
            expected.wifi_channel.to_string(),
            got.wifi_channel.to_string(),
        ));
    }
    if expected.tx_subcarrier_bits != got.tx_subcarrier_bits {
        out.push(mk(
            "tx_subcarrier",
            format!("{:?}", f64::from_bits(expected.tx_subcarrier_bits)),
            format!("{:?}", f64::from_bits(got.tx_subcarrier_bits)),
        ));
    }
    if expected.psdu_len != got.psdu_len {
        out.push(mk("psdu_len", expected.psdu_len.to_string(), got.psdu_len.to_string()));
    }
    if expected.n_symbols != got.n_symbols {
        out.push(mk("n_symbols", expected.n_symbols.to_string(), got.n_symbols.to_string()));
    }
    if expected.forced_bits != got.forced_bits {
        out.push(mk(
            "forced_bits",
            expected.forced_bits.to_string(),
            got.forced_bits.to_string(),
        ));
    }
    if expected.mean_quant_error_bits != got.mean_quant_error_bits {
        out.push(mk(
            "mean_quant_error_db",
            format!("{:?}", f64::from_bits(expected.mean_quant_error_bits)),
            format!("{:?}", f64::from_bits(got.mean_quant_error_bits)),
        ));
    }
    out
}

/// Compares one freshly computed trace against its committed expectation.
pub fn check_trace(expected: &CaseTrace, got: &CaseTrace) -> Vec<Divergence> {
    let mut out = meta_divergences(&expected.name, &expected.meta, &got.meta);
    let exp_names: Vec<&str> = expected.stages.iter().map(|s| s.stage.as_str()).collect();
    let got_names: Vec<&str> = got.stages.iter().map(|s| s.stage.as_str()).collect();
    if exp_names != got_names {
        out.push(Divergence {
            stage: expected.name.clone(),
            kind: "meta:stage-list".to_string(),
            index: 0,
            expected: exp_names.join(","),
            got: got_names.join(","),
        });
        return out;
    }
    for (e, g) in expected.stages.iter().zip(&got.stages) {
        if let Some(mut d) = g.first_divergence(e) {
            d.stage = format!("{}/{}", expected.name, d.stage);
            out.push(d);
        }
    }
    out
}

/// Recomputes every trace and diffs it against the fixtures in `dir`.
pub fn check_all(dir: &Path) -> Result<CheckReport, String> {
    let mut report = CheckReport::default();
    for got in current_traces()? {
        let path = dir.join(format!("{}.json", got.name));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e} (run `-- regen` first?)", path.display()))?;
        let parsed = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let expected = trace_from_json(&parsed)?;
        if expected.name != got.name {
            return Err(format!(
                "{}: fixture names itself `{}`",
                path.display(),
                expected.name
            ));
        }
        report.divergences.extend(check_trace(&expected, &got));
        report.checked.push(got.name);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_json_roundtrip_is_exact() {
        let x: Vec<f64> = (0..4000).map(|i| (i as f64).sin()).collect();
        let s = StageVector::capture("phase", &x);
        let back = stage_from_json(&stage_to_json(&s)).expect("roundtrip");
        assert_eq!(s, back);
    }

    #[test]
    fn trace_json_roundtrip_is_exact() {
        let t = preamble_trace();
        let text = trace_to_json(&t).render();
        let back = trace_from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(t, back);
    }

    #[test]
    fn preamble_trace_has_the_documented_layout() {
        let t = preamble_trace();
        let names: Vec<&str> = t.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            ["l_stf", "l_ltf", "l_sig", "ht_sig", "ht_stf", "ht_ltf", "full"]
        );
        assert_eq!(t.stages.iter().find(|s| s.stage == "full").map(|s| s.elems), Some(720));
        assert_eq!(t.stages[0].elems, 160);
    }

    #[test]
    fn check_trace_flags_meta_and_stage_drift() {
        let a = preamble_trace();
        let mut b = a.clone();
        assert!(check_trace(&a, &b).is_empty());
        b.meta.psdu_len += 1;
        b.stages[0].prefix[5] ^= 1;
        let ds = check_trace(&a, &b);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].kind, "meta:psdu_len");
        assert_eq!(ds[1].kind, "prefix-word");
        assert!(ds[1].stage.contains("l_stf"));
    }
}
