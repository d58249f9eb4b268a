//! The project-invariant rules.
//!
//! Each rule has a stable id (reported in findings and usable in
//! allowlist annotations) plus a short alias for annotation ergonomics:
//!
//! | id                    | alias        | invariant                                  |
//! |-----------------------|--------------|--------------------------------------------|
//! | `determinism`         | `determinism`| no wall clock / unordered maps in verdict, |
//! |                       |              | fingerprint, or schedule-enumeration code; |
//! |                       |              | no wall clock in code the virtual clock    |
//! |                       |              | runs                                       |
//! | `unsafe-confinement`  | `unsafe`     | `unsafe` only in `net::sys` + `compat`,    |
//! |                       |              | every block preceded by `// SAFETY:`       |
//! | `panic-free-hot-path` | `panic`      | no unwrap/expect/panic!/unreachable! in    |
//! |                       |              | the serve hot path (demux, node, serve,    |
//! |                       |              | the role state machines, …)                |
//! | `telemetry-names`     | `telemetry`  | metric names lowercase dot-separated; one  |
//! |                       |              | kind (counter/gauge/hist) per name         |
//! | `wire-tags`           | `wire`       | tag constants unique; every `Message`      |
//! |                       |              | variant in codec + fuzz corpus             |
//!
//! Allowlist syntax — on the offending line or the line directly above:
//!
//! ```text
//! // lint: allow(panic): poisoned mutex is unrecoverable here
//! ```
//!
//! The reason after the colon is mandatory; an empty reason does not
//! suppress the finding. Clippy remains responsible for language-level
//! lints; these rules encode *project* invariants the compiler and
//! clippy cannot see.

use std::collections::BTreeMap;

use crate::scan::{find_word, has_word};
use crate::{Finding, SourceFile};

/// All rule ids, in reporting order.
pub const RULE_IDS: [&str; 5] =
    ["determinism", "unsafe-confinement", "panic-free-hot-path", "telemetry-names", "wire-tags"];

/// Files whose computation must be a pure function of seeds and specs:
/// chaos verdicts, fault processes, the interleaving explorer, the soak
/// auditor, and trace fingerprinting. Wall-clock reads and
/// iteration-order-nondeterministic containers are banned here.
/// (`scenario::timing` is the one sanctioned wall-clock seam; it is a
/// different file precisely so this list can stay absolute.)
const DETERMINISM_FILES: [&str; 5] = [
    "crates/netsim/src/fault.rs",
    "crates/net/src/chaos.rs",
    "crates/scenario/src/explore.rs",
    "crates/scenario/src/soak.rs",
    "crates/scenario/src/trace_check.rs",
];

/// Files whose code also runs under `rt::block_on_virtual` (the
/// explorer, the liveness pins): they must read time through
/// `rt::now()`, so only the wall-clock half of the ban applies. A wall
/// clock there makes a virtual-time wait spin on a deadline already in
/// the virtual past.
const VIRTUAL_CLOCK_FILES: [&str; 7] = [
    "crates/net/src/coordinator.rs",
    "crates/net/src/demux.rs",
    "crates/net/src/node.rs",
    "crates/net/src/reliable.rs",
    "crates/net/src/serve.rs",
    "crates/net/src/session.rs",
    "crates/net/src/terminal.rs",
];

/// Wall-clock reads, banned in both file sets above. `Instant::elapsed`
/// reads the wall clock implicitly.
const WALL_CLOCK_BANNED: [(&str, &str); 3] = [
    ("Instant::now", "wall-clock read on a deterministic path"),
    ("SystemTime", "wall-clock read on a deterministic path"),
    (".elapsed(", "implicit wall-clock read on a deterministic path"),
];

/// Further tokens banned in determinism-critical files, with the reason
/// used in the finding message.
const DETERMINISM_BANNED: [(&str, &str); 4] = [
    ("thread::current", "thread identity is schedule-dependent"),
    ("HashMap", "iteration order is nondeterministic; use BTreeMap"),
    ("HashSet", "iteration order is nondeterministic; use BTreeSet"),
    ("RandomState", "randomized hasher state breaks reproducibility"),
];

/// The only files allowed to contain `unsafe` (exact path or prefix).
const UNSAFE_ALLOWED: [&str; 2] = ["crates/net/src/sys.rs", "crates/compat/"];

/// How many lines above an `unsafe` occurrence a `// SAFETY:` comment
/// may sit (a declaration line is often between the comment and the
/// block).
const SAFETY_LOOKBACK: usize = 3;

/// The serve hot path: modules where a panic takes down a daemon
/// serving thousands of concurrent sessions. The role state machines
/// and their shared session code are on it: the receive loop steps them
/// inline, so a panic there ends every session on the transport. That
/// includes core's phase 2, whose `Reconstructor` every terminal
/// decodes with.
const HOT_PATH_FILES: [&str; 12] = [
    "crates/core/src/phase2.rs",
    "crates/net/src/coordinator.rs",
    "crates/net/src/demux.rs",
    "crates/net/src/node.rs",
    "crates/net/src/reliable.rs",
    "crates/net/src/serve.rs",
    "crates/net/src/session.rs",
    "crates/net/src/shard.rs",
    "crates/net/src/terminal.rs",
    "crates/net/src/transport.rs",
    "crates/net/src/udp.rs",
    "crates/net/src/rt.rs",
];

const PANIC_TOKENS: [&str; 6] =
    [".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// Telemetry registration entry points whose first string argument is a
/// metric name.
const TELEMETRY_SINKS: [(&str, &str); 3] =
    [("counter_add(", "counter"), ("gauge_set(", "gauge"), ("observe(", "hist")];

/// Maps an annotation key to the rule it suppresses (full id and short
/// alias both work).
fn rule_for_key(key: &str) -> Option<&'static str> {
    match key {
        "determinism" => Some("determinism"),
        "unsafe" | "unsafe-confinement" => Some("unsafe-confinement"),
        "panic" | "panic-free-hot-path" => Some("panic-free-hot-path"),
        "telemetry" | "telemetry-names" => Some("telemetry-names"),
        "wire" | "wire-tags" => Some("wire-tags"),
        _ => None,
    }
}

/// Whether a `// lint: allow(<key>): <reason>` annotation for `rule`
/// (with a non-empty reason) appears in `comment`.
fn comment_allows(comment: &str, rule: &str) -> bool {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        let after = &rest[pos + "lint: allow(".len()..];
        let Some(close) = after.find(')') else { return false };
        let key = after[..close].trim();
        let tail = after[close + 1..].trim_start();
        let reason_ok =
            tail.strip_prefix(':').map(str::trim).is_some_and(|reason| !reason.is_empty());
        if rule_for_key(key) == Some(rule) && reason_ok {
            return true;
        }
        rest = &after[close..];
    }
    false
}

/// Whether line `idx` (0-based) of `file` carries or inherits an
/// allowlist annotation for `rule`: on the line itself, or anywhere in
/// the contiguous block of comment-only lines directly above it (so a
/// justification can span several comment lines).
fn allowed(file: &SourceFile, idx: usize, rule: &str) -> bool {
    if comment_allows(&file.lines[idx].comment, rule) {
        return true;
    }
    let mut up = idx;
    while up > 0 {
        up -= 1;
        let line = &file.lines[up];
        if !line.code.trim().is_empty() {
            return false;
        }
        if comment_allows(&line.comment, rule) {
            return true;
        }
    }
    false
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    file: &SourceFile,
    idx: usize,
    msg: String,
) {
    if !allowed(file, idx, rule) {
        findings.push(Finding { rule, file: file.rel.clone(), line: idx + 1, msg });
    }
}

/// Path match helper: `rel` equals the entry or starts with a `/`-free
/// prefix entry ending in `/`.
fn path_in(rel: &str, set: &[&str]) -> bool {
    set.iter().any(|p| {
        if let Some(prefix) = p.strip_suffix('/') {
            rel.starts_with(prefix) && rel.as_bytes().get(prefix.len()) == Some(&b'/')
        } else {
            rel == *p
        }
    })
}

// ---------------------------------------------------------------------------
// Rule: determinism
// ---------------------------------------------------------------------------

pub fn determinism(file: &SourceFile, findings: &mut Vec<Finding>) {
    let (scope, extra): (&str, &[(&str, &str)]) = if path_in(&file.rel, &DETERMINISM_FILES) {
        ("determinism-critical module", &DETERMINISM_BANNED)
    } else if path_in(&file.rel, &VIRTUAL_CLOCK_FILES) {
        ("module run under the virtual clock (use `rt::now()`)", &[])
    } else {
        return;
    };
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (token, why) in WALL_CLOCK_BANNED.iter().chain(extra) {
            if has_word(&line.code, token) {
                push(findings, "determinism", file, idx, format!("`{token}` in {scope}: {why}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: unsafe-confinement
// ---------------------------------------------------------------------------

pub fn unsafe_confinement(file: &SourceFile, findings: &mut Vec<Finding>) {
    let confined = path_in(&file.rel, &UNSAFE_ALLOWED);
    for (idx, line) in file.lines.iter().enumerate() {
        if !has_word(&line.code, "unsafe") {
            continue;
        }
        if !confined {
            push(
                findings,
                "unsafe-confinement",
                file,
                idx,
                "`unsafe` outside net::sys and crates/compat".to_string(),
            );
            continue;
        }
        // Inside the confinement zone every unsafe block still needs a
        // nearby `// SAFETY:` justification.
        let start = idx.saturating_sub(SAFETY_LOOKBACK);
        let justified = file.lines[start..=idx].iter().any(|l| l.comment.contains("SAFETY:"));
        if !justified {
            push(
                findings,
                "unsafe-confinement",
                file,
                idx,
                "`unsafe` without a `// SAFETY:` comment within 3 lines".to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: panic-free-hot-path
// ---------------------------------------------------------------------------

pub fn panic_free_hot_path(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !path_in(&file.rel, &HOT_PATH_FILES) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in PANIC_TOKENS {
            if has_word(&line.code, token) {
                push(
                    findings,
                    "panic-free-hot-path",
                    file,
                    idx,
                    format!("`{token}` on the serve hot path (annotate `lint: allow(panic): …` if unreachable)",
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: telemetry-names
// ---------------------------------------------------------------------------

/// `lowercase.dot.separated`: at least two segments of
/// `[a-z0-9_]+` joined by single dots.
fn valid_metric_name(name: &str) -> bool {
    let mut segments = 0;
    for seg in name.split('.') {
        if seg.is_empty()
            || !seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// Per-file pass: validates the shape of every metric name and records
/// `name -> (kind, first site)` into `names` for the cross-file
/// duplicate-kind check. The preceding character of a sink match must
/// not be `.` — the registration entry points are free functions, and a
/// method call like `ring.observe(..)` on some other type is not one.
pub fn telemetry_names(
    file: &SourceFile,
    names: &mut BTreeMap<String, Vec<(&'static str, String, usize)>>,
    findings: &mut Vec<Finding>,
) {
    for (idx, line) in file.lines.iter().enumerate() {
        for (sink, kind) in TELEMETRY_SINKS {
            let Some(at) = find_word(&line.code, sink) else { continue };
            if at > 0 && line.code[..at].ends_with('.') {
                continue;
            }
            // The name is the first string literal on the line; a call
            // whose name argument is a variable is out of scope.
            let Some(name) = line.strings.first() else { continue };
            if !valid_metric_name(name) && !line.in_test {
                push(
                    findings,
                    "telemetry-names",
                    file,
                    idx,
                    format!("metric name `{name}` is not lowercase dot-separated"),
                );
            }
            if !line.in_test && !allowed(file, idx, "telemetry-names") {
                names.entry(name.clone()).or_default().push((kind, file.rel.clone(), idx + 1));
            }
        }
    }
}

/// Cross-file pass: one metric name must be registered as exactly one
/// kind (a name that is both a counter and a histogram is a typo or a
/// duplicate registration).
pub fn telemetry_kinds(
    names: &BTreeMap<String, Vec<(&'static str, String, usize)>>,
    findings: &mut Vec<Finding>,
) {
    for (name, sites) in names {
        let mut kinds: Vec<&str> = sites.iter().map(|(k, _, _)| *k).collect();
        kinds.sort_unstable();
        kinds.dedup();
        if kinds.len() > 1 {
            let (_, file, line) = &sites[0];
            findings.push(Finding {
                rule: "telemetry-names",
                file: file.clone(),
                line: *line,
                msg: format!(
                    "metric name `{name}` registered as multiple kinds ({})",
                    kinds.join(", ")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: wire-tags
// ---------------------------------------------------------------------------

const WIRE_CODEC: &str = "crates/core/src/wire.rs";
const FRAME_CODEC: &str = "crates/net/src/frame.rs";
const FUZZ_CORPUS: &str = "crates/net/tests/frame_fuzz.rs";

/// Collects `const <PREFIX>_NAME: u8 = <value>;` declarations.
fn tag_consts(file: &SourceFile, prefix: &str) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let code = line.code.trim();
        // A visibility modifier must not hide a tag constant from the
        // uniqueness check.
        let code = match code.find("const ") {
            Some(0) => code,
            Some(at)
                if code[..at].trim_end() == "pub" || code[..at].trim_end().starts_with("pub(") =>
            {
                &code[at..]
            }
            _ => continue,
        };
        let Some(rest) = code.strip_prefix("const ") else { continue };
        let Some((name, tail)) = rest.split_once(':') else { continue };
        let name = name.trim();
        if !name.starts_with(prefix) {
            continue;
        }
        let Some((_, value)) = tail.split_once('=') else { continue };
        let value = value.trim().trim_end_matches(';').trim().to_string();
        out.push((name.to_string(), value, idx + 1));
    }
    out
}

/// Variant names of `pub enum <name>` in `file` (top-level identifiers
/// one brace deep inside the enum body).
fn enum_variants(file: &SourceFile, name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth_in_enum: i64 = -1; // -1: outside
    for line in &file.lines {
        let code = &line.code;
        if depth_in_enum < 0 {
            if has_word(code, &format!("enum {name}")) && code.contains('{') {
                depth_in_enum =
                    1 + brace_delta(&code[code.find('{').map(|p| p + 1).unwrap_or(0)..]);
                continue;
            }
            continue;
        }
        if depth_in_enum == 1 {
            let trimmed = code.trim();
            let ident: String =
                trimmed.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            if !ident.is_empty() && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                let after = &trimmed[ident.len()..];
                if after.is_empty()
                    || after.starts_with(' ')
                    || after.starts_with('{')
                    || after.starts_with('(')
                    || after.starts_with(',')
                {
                    out.push(ident);
                }
            }
        }
        depth_in_enum += brace_delta(code);
        if depth_in_enum <= 0 {
            break;
        }
    }
    out
}

fn brace_delta(code: &str) -> i64 {
    code.chars()
        .map(|c| match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        })
        .sum()
}

fn occurrences(file: &SourceFile, token: &str) -> usize {
    file.lines.iter().filter(|l| !l.in_test).filter(|l| has_word(&l.code, token)).count()
}

/// Workspace-level rule: tag constants unique per codec; every
/// `wire::Message` variant handled in both codec directions and present
/// in the frame fuzz corpus.
pub fn wire_tags(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let by_rel = |rel: &str| -> Option<&SourceFile> { files.iter().find(|f| f.rel == rel) };

    for (rel, prefix) in [(WIRE_CODEC, "TAG_"), (FRAME_CODEC, "PTAG_")] {
        let Some(file) = by_rel(rel) else { continue };
        let consts = tag_consts(file, prefix);
        let mut seen: BTreeMap<String, String> = BTreeMap::new();
        for (name, value, line) in &consts {
            if let Some(prev) = seen.get(value) {
                push(
                    findings,
                    "wire-tags",
                    file,
                    line - 1,
                    format!("tag constant `{name}` duplicates value {value} of `{prev}`"),
                );
            } else {
                seen.insert(value.clone(), name.clone());
            }
        }
        // Every tag constant must appear in both an encode site and a
        // decode arm — i.e. at least twice beyond its declaration.
        for (name, _, line) in &consts {
            if occurrences(file, name) < 3 {
                push(
                    findings,
                    "wire-tags",
                    file,
                    line - 1,
                    format!("tag constant `{name}` is not used in both codec directions"),
                );
            }
        }
    }

    let Some(wire) = by_rel(WIRE_CODEC) else { return };
    let variants = enum_variants(wire, "Message");
    let fuzz = by_rel(FUZZ_CORPUS);
    for v in &variants {
        let token = format!("Message::{v}");
        if occurrences(wire, &token) < 2 {
            findings.push(Finding {
                rule: "wire-tags",
                file: wire.rel.clone(),
                line: 1,
                msg: format!("`{token}` is not handled in both encode and decode"),
            });
        }
        if let Some(fuzz) = fuzz {
            let in_corpus = fuzz.lines.iter().any(|l| has_word(&l.code, &token));
            if !in_corpus {
                findings.push(Finding {
                    rule: "wire-tags",
                    file: fuzz.rel.clone(),
                    line: 1,
                    msg: format!("`{token}` missing from the frame fuzz corpus"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Unit tests for the helpers
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile { rel: rel.to_string(), lines: scan(src) }
    }

    #[test]
    fn allow_annotation_requires_reason() {
        assert!(comment_allows(" lint: allow(panic): checked above", "panic-free-hot-path"));
        assert!(!comment_allows(" lint: allow(panic):", "panic-free-hot-path"));
        assert!(!comment_allows(" lint: allow(panic)", "panic-free-hot-path"));
        assert!(!comment_allows(" lint: allow(determinism): x", "panic-free-hot-path"));
        assert!(comment_allows(
            " lint: allow(panic-free-hot-path): full id works",
            "panic-free-hot-path"
        ));
    }

    #[test]
    fn metric_name_shape() {
        assert!(valid_metric_name("net.tx.frames"));
        assert!(valid_metric_name("phase.coord.start_barrier"));
        assert!(!valid_metric_name("netTxFrames"));
        assert!(!valid_metric_name("single"));
        assert!(!valid_metric_name("net..tx"));
        assert!(!valid_metric_name("Net.tx"));
        assert!(!valid_metric_name("net.tx "));
    }

    #[test]
    fn enum_variant_extraction() {
        let f = file(
            "crates/core/src/wire.rs",
            "pub enum Message {\n    XPacket {\n        id: u16,\n    },\n    Done,\n    Pair(u8),\n}\n",
        );
        assert_eq!(enum_variants(&f, "Message"), vec!["XPacket", "Done", "Pair"]);
    }

    #[test]
    fn tag_const_extraction_and_duplicates() {
        let f = file(
            "crates/core/src/wire.rs",
            "const TAG_A: u8 = 0x01;\nconst TAG_B: u8 = 0x02;\nconst TAG_C: u8 = 0x01;\n",
        );
        let consts = tag_consts(&f, "TAG_");
        assert_eq!(consts.len(), 3);
        assert_eq!(consts[0], ("TAG_A".to_string(), "0x01".to_string(), 1));
    }

    #[test]
    fn hot_path_rule_skips_tests_and_allows() {
        let src = "fn f() {\n\
                   x.unwrap();\n\
                   // lint: allow(panic): impossible by construction\n\
                   y.unwrap();\n\
                   z.unwrap(); // lint: allow(panic): same line\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { q.unwrap(); } }\n";
        let f = file("crates/net/src/serve.rs", src);
        let mut findings = Vec::new();
        panic_free_hot_path(&f, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }
}
