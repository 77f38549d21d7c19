//! Golden-vector layer: the committed fixtures must match the current
//! code, and any single-bit drift must be localized to its stage.

use bluefi_conformance::golden::{check_all, default_dir, regen_all};

#[test]
fn committed_fixtures_match_current_code() {
    let report = check_all(&default_dir()).expect("fixtures readable");
    assert_eq!(report.checked.len(), 6, "{:?}", report.checked);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn one_bit_perturbation_fails_with_a_localized_report() {
    // Regenerate into a scratch dir, flip one bit of one stored prefix
    // word, and verify the checker pinpoints stage + word index.
    let dir = std::env::temp_dir()
        .join(format!("bluefi-conformance-perturb-{}", std::process::id()));
    let written = regen_all(&dir).expect("regen");
    let target = written
        .iter()
        .find(|p| p.to_string_lossy().contains("ble_adv_ar9331"))
        .expect("ble fixture written");
    let text = std::fs::read_to_string(target).expect("read fixture");
    let marker = "\"prefix\":[\"";
    let at = text.find(marker).expect("fixture has a prefix array") + marker.len();
    let mut bytes = text.into_bytes();
    // Perturb the first prefix word's last hex digit (stays valid hex).
    let digit = at + 15;
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    std::fs::write(target, &bytes).expect("write perturbed fixture");

    let report = check_all(&dir).expect("check runs");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!report.is_clean(), "perturbation must be detected");
    assert_eq!(report.divergences.len(), 1, "{}", report.render());
    let d = &report.divergences[0];
    assert!(d.stage.starts_with("ble_adv_ar9331/"), "stage: {}", d.stage);
    assert_eq!(d.kind, "prefix-word");
    assert_eq!(d.index, 0, "first prefix word was perturbed");
    assert_ne!(d.expected, d.got);
    // The rendered report names the stage and both values.
    let rendered = report.render();
    assert!(rendered.contains("prefix-word"), "{rendered}");
    assert!(rendered.contains(&d.expected), "{rendered}");
}

#[test]
fn digest_drift_beyond_the_prefix_is_still_caught() {
    let dir = std::env::temp_dir()
        .join(format!("bluefi-conformance-digest-{}", std::process::id()));
    let written = regen_all(&dir).expect("regen");
    let target = written
        .iter()
        .find(|p| p.to_string_lossy().contains("edr_rtl8811au"))
        .expect("edr fixture written");
    let text = std::fs::read_to_string(target).expect("read fixture");
    let marker = "\"digest\":\"";
    let at = text.find(marker).expect("fixture has a digest") + marker.len();
    let mut bytes = text.into_bytes();
    let digit = at + 15;
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    std::fs::write(target, &bytes).expect("write perturbed fixture");

    let report = check_all(&dir).expect("check runs");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!report.is_clean());
    let d = &report.divergences[0];
    assert!(d.stage.starts_with("edr_rtl8811au/"), "stage: {}", d.stage);
    assert_eq!(d.kind, "digest");
}
