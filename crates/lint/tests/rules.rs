//! Integration tests: every rule fires on its seeded fixture at the
//! exact file:line, every allowlisted occurrence stays silent, and the
//! real workspace is clean.
//!
//! The fixture tree under `tests/fixtures/ws1` mirrors real workspace
//! paths (`crates/net/src/serve.rs`, …) so the production rule
//! configuration — which keys on those paths — applies unchanged. The
//! tree is excluded from the workspace walk (`SKIP_PREFIXES`), so the
//! seeded violations never leak into the self-gate.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws1")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn seeded_fixtures_fire_each_rule_at_exact_sites() {
    let findings = thinair_lint::check_workspace(&fixture_root()).expect("fixture tree readable");
    let sites: Vec<(&str, &str, usize)> =
        findings.iter().map(|f| (f.rule, f.file.as_str(), f.line)).collect();
    assert_eq!(
        sites,
        vec![
            ("wire-tags", "crates/core/src/wire.rs", 5),
            ("determinism", "crates/net/src/chaos.rs", 5),
            ("telemetry-names", "crates/net/src/metrics_use.rs", 4),
            ("telemetry-names", "crates/net/src/metrics_use.rs", 7),
            ("determinism", "crates/net/src/node.rs", 5),
            ("panic-free-hot-path", "crates/net/src/serve.rs", 5),
            ("unsafe-confinement", "crates/net/src/serve.rs", 14),
            ("determinism", "crates/net/src/session.rs", 6),
            ("unsafe-confinement", "crates/net/src/sys.rs", 10),
            ("panic-free-hot-path", "crates/net/src/terminal.rs", 5),
            ("wire-tags", "crates/net/tests/frame_fuzz.rs", 1),
        ],
        "unexpected finding set:\n{}",
        thinair_lint::render(&findings)
    );
    // Spot-check the explanations the user actually reads.
    let msg = |rule: &str, line: usize| {
        findings
            .iter()
            .find(|f| f.rule == rule && f.line == line)
            .map(|f| f.msg.clone())
            .unwrap_or_default()
    };
    assert!(msg("wire-tags", 5).contains("duplicates value 0x01"));
    assert!(msg("determinism", 5).contains("Instant::now"));
    let virtual_clock = findings.iter().find(|f| f.file == "crates/net/src/node.rs");
    assert!(virtual_clock.is_some_and(|f| f.msg.contains("rt::now()")));
    // `Instant::elapsed` reads the wall clock without naming it.
    let implicit = findings.iter().find(|f| f.file == "crates/net/src/session.rs");
    assert!(implicit.is_some_and(|f| f.msg.contains("`.elapsed(`")));
    assert!(msg("telemetry-names", 4).contains("`BadName`"));
    assert!(msg("telemetry-names", 7).contains("multiple kinds (counter, hist)"));
    assert!(msg("unsafe-confinement", 10).contains("SAFETY"));
    assert!(msg("wire-tags", 1).contains("Message::Pong"));
    // The role state machines run inside the receive loop's pass, so
    // they are on the hot path too.
    let role = findings.iter().find(|f| f.file == "crates/net/src/terminal.rs");
    assert!(role.is_some_and(|f| f.msg.contains("`.expect(`")));
}

#[test]
fn allowlisted_occurrences_stay_silent() {
    // Each fixture pairs its seeded violation with an allowlisted twin:
    // the `lint: allow(...)` sites below must NOT appear as findings.
    let findings = thinair_lint::check_workspace(&fixture_root()).expect("fixture tree readable");
    let silent = [
        ("determinism", "crates/net/src/chaos.rs", 11), // HashMap, annotated
        ("determinism", "crates/net/src/session.rs", 11), // .elapsed(), annotated
        ("panic-free-hot-path", "crates/net/src/serve.rs", 10), // .expect, annotated
        ("panic-free-hot-path", "crates/net/src/terminal.rs", 10), // .unwrap, annotated
        ("unsafe-confinement", "crates/net/src/serve.rs", 19), // unsafe, annotated
        ("telemetry-names", "crates/net/src/metrics_use.rs", 6), // LegacyName, annotated
        ("wire-tags", "crates/core/src/wire.rs", 7),    // under-used alias, annotated
    ];
    for (rule, file, line) in silent {
        assert!(
            !findings.iter().any(|f| f.rule == rule && f.file == file && f.line == line),
            "allowlisted {rule} at {file}:{line} was reported anyway"
        );
    }
}

#[test]
fn workspace_is_lint_clean() {
    let findings = thinair_lint::check_workspace(&workspace_root()).expect("workspace readable");
    assert!(
        findings.is_empty(),
        "the workspace gate must stay clean; fix or annotate:\n{}",
        thinair_lint::render(&findings)
    );
}

#[test]
fn binary_exit_codes_match_the_contract() {
    let bin = env!("CARGO_BIN_EXE_thinair-lint");
    let on = |root: &Path| Command::new(bin).arg("--root").arg(root).output().expect("spawn");

    let clean = on(&workspace_root());
    assert!(clean.status.success(), "workspace run must exit 0");

    let seeded = on(&fixture_root());
    assert_eq!(seeded.status.code(), Some(1), "seeded fixtures must exit 1");
    let stdout = String::from_utf8_lossy(&seeded.stdout);
    assert!(stdout.contains("crates/net/src/chaos.rs:5"), "findings carry file:line\n{stdout}");

    let bad = Command::new(bin).arg("--rule").arg("nonsense").output().expect("spawn");
    assert_eq!(bad.status.code(), Some(2), "usage errors must exit 2");
}
