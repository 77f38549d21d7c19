//! # bluefi-bench
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index), plus the Sec 4.8 runtime bench, which reads the
//! pipeline's own telemetry spans.
//! Every binary prints the rows/series the paper reports; EXPERIMENTS.md
//! records paper-vs-measured.

use bluefi_core::json::{Json, ToJson};
use bluefi_core::telemetry::{self, Level, Table};
use bluefi_dsp::power::{mean, percentile_sorted};

/// The structured output sink every bench binary reports through.
///
/// In text mode (the default) tables and notes stream to stdout as they
/// are added, exactly like the old ad-hoc `println!` helpers. With
/// `--json` (see [`Reporter::from_args`]) nothing prints until
/// [`Reporter::finish`], which emits one machine-readable JSON document:
/// `{"tables": [...], "notes": [...]}` plus a `"telemetry"` snapshot when
/// `BLUEFI_TELEMETRY` recording is on.
#[derive(Debug)]
pub struct Reporter {
    json: bool,
    tables: Vec<Table>,
    notes: Vec<String>,
}

impl Reporter {
    /// A reporter in JSON mode iff the process was invoked with `--json`.
    pub fn from_args() -> Reporter {
        Reporter::new(arg_flag("--json"))
    }

    /// A reporter with the output mode pinned.
    pub fn new(json: bool) -> Reporter {
        Reporter { json, tables: Vec::new(), notes: Vec::new() }
    }

    /// Adds (and, in text mode, prints) one aligned table.
    pub fn table(&mut self, title: &str, header: &[&str], rows: Vec<Vec<String>>) {
        let mut t = Table::new(title, header);
        for r in rows {
            t.row(r);
        }
        if !self.json {
            print!("{}", t.render());
        }
        self.tables.push(t);
    }

    /// Adds (and, in text mode, prints) one free-form note line.
    pub fn note(&mut self, text: impl Into<String>) {
        let text = text.into();
        if !self.json {
            println!("{text}");
        }
        self.notes.push(text);
    }

    /// Flushes the report: a no-op in text mode (everything already
    /// streamed), the single JSON document in `--json` mode.
    pub fn finish(self) {
        if !self.json {
            return;
        }
        let mut fields = vec![
            ("tables", Json::Arr(self.tables.iter().map(ToJson::to_json).collect())),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ];
        if telemetry::level() > Level::Off {
            fields.push(("telemetry", telemetry::snapshot().to_json()));
        }
        println!("{}", Json::obj(fields).render());
    }
}

/// Summary statistics string `mean/median [p10..p90]` for a series.
/// Sorts the series once and reads all three percentiles from it, rather
/// than paying a clone + sort per percentile.
pub fn summarize(series: &[f64]) -> String {
    if series.is_empty() {
        return "(no data)".into();
    }
    let mut sorted = series.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    format!(
        "{:6.1} / {:6.1}  [{:6.1} .. {:6.1}]  n={}",
        mean(series),
        percentile_sorted(&sorted, 50.0),
        percentile_sorted(&sorted, 10.0),
        percentile_sorted(&sorted, 90.0),
        series.len()
    )
}

/// Parses `--key value` style CLI overrides (tiny, no clap dependency). A
/// missing or malformed value prints the flag and value and exits 2.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    arg_parsed(name, |v| v.parse().ok()).unwrap_or(default)
}

/// Integer variant of [`arg_f64`].
///
/// Parses the value as an integer directly (no `f64` round trip, so
/// values above 2^53 survive exactly); scientific notation like `1e3` is
/// accepted when it denotes an integer that fits without loss.
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg_parsed(name, parse_usize).unwrap_or(default)
}

/// String variant of [`arg_f64`].
pub fn arg_str(name: &str, default: &str) -> String {
    arg_parsed(name, |v| Some(v.to_string())).unwrap_or_else(|| default.to_string())
}

/// True when the process was invoked with the bare flag `name`
/// (e.g. `--json`).
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_parsed<T>(name: &str, parse: fn(&str) -> Option<T>) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    flag(&args, name, parse).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// `--name value` in `args`: `Ok(None)` when absent, an error naming the
/// flag and the value when the value is missing or does not parse.
fn flag<T>(args: &[String], name: &str, parse: fn(&str) -> Option<T>) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
    parse(value).map(Some).ok_or_else(|| format!("{name}: invalid value {value:?}"))
}

fn parse_usize(text: &str) -> Option<usize> {
    if let Ok(v) = text.parse::<usize>() {
        return Some(v);
    }
    // `1e3`-style input: accept only when the float is an exactly
    // representable non-negative integer (|v| <= 2^53).
    let f = text.parse::<f64>().ok()?;
    if f.is_finite() && f >= 0.0 && f == f.trunc() && f <= (1u64 << 53) as f64 {
        Some(f as usize)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reporter_collects_tables_and_notes() {
        let mut rep = Reporter::new(true);
        rep.table("demo", &["k", "v"], vec![vec!["a".into(), "1".into()]]);
        rep.note("paper: shape matches");
        assert!(rep.json);
        assert_eq!(rep.tables.len(), 1);
        assert_eq!(rep.tables[0].rows.len(), 1);
        assert_eq!(rep.notes, vec!["paper: shape matches".to_string()]);
        rep.finish();
    }

    #[test]
    fn summarize_formats() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert!(s.contains("n=3"));
        assert_eq!(summarize(&[]), "(no data)");
    }

    #[test]
    fn flag_values_parse_or_name_the_bad_input() {
        let args: Vec<String> =
            ["prog", "--trials", "abc", "--duration", "1e1", "--out"].map(String::from).into();
        let f64_of = |v: &str| v.parse::<f64>().ok();
        assert_eq!(flag(&args, "--duration", f64_of), Ok(Some(10.0)));
        assert_eq!(flag(&args, "--seed", f64_of), Ok(None));
        let bad = flag(&args, "--trials", parse_usize).unwrap_err();
        assert!(bad.contains("--trials") && bad.contains("abc"), "{bad}");
        let missing = flag(&args, "--out", |v| Some(v.to_string())).unwrap_err();
        assert!(missing.contains("--out"), "{missing}");
    }

    #[test]
    fn parse_usize_is_exact_and_accepts_scientific() {
        // Above 2^53: a float round trip would corrupt this.
        assert_eq!(parse_usize("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(parse_usize("18446744073709551615"), Some(usize::MAX));
        assert_eq!(parse_usize("0"), Some(0));
        // Scientific notation denoting exact integers.
        assert_eq!(parse_usize("1e3"), Some(1000));
        assert_eq!(parse_usize("2.5e1"), Some(25));
        // Lossy or invalid inputs are rejected, not silently truncated.
        assert_eq!(parse_usize("1.5"), None);
        assert_eq!(parse_usize("-4"), None);
        assert_eq!(parse_usize("1e300"), None);
        assert_eq!(parse_usize("NaN"), None);
        assert_eq!(parse_usize("ten"), None);
    }
}
