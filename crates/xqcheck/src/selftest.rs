//! Lint self-tests against seeded bad fixtures. Each fixture under
//! `crates/xqcheck/fixtures/` is a miniature workspace checkout that
//! violates exactly one invariant; the self-test runs the matching lint
//! and fails if the violation is *not* caught. A `clean` fixture runs
//! every lint and must produce zero findings — together these pin both
//! directions (the lints fire when they should, and only then).

use crate::lints;
use crate::source::Workspace;
use std::path::Path;

/// (fixture dir, lint that must fire there; `None` = all lints must stay
/// silent).
pub const CASES: &[(&str, Option<&str>)] = &[
    ("missing_safety", Some("safety-comment")),
    ("unwrap_in_server", Some("no-panic")),
    ("unregistered_atomic", Some("atomics-audit")),
    ("metric_drift", Some("metrics-schema")),
    ("clean", None),
];

/// Run all fixture cases; returns the list of failures (empty = pass).
pub fn run(fixtures_root: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for (dir, expect) in CASES {
        let root = fixtures_root.join(dir);
        let ws = match Workspace::load(&root) {
            Ok(ws) => ws,
            Err(e) => {
                failures.push(format!("{dir}: cannot load fixture: {e}"));
                continue;
            }
        };
        if ws.files.is_empty() {
            failures.push(format!("{dir}: fixture has no source files"));
            continue;
        }
        match expect {
            Some(lint) => {
                let findings = lints::run(&ws, Some(lint)).unwrap_or_default();
                if findings.is_empty() {
                    failures
                        .push(format!("{dir}: lint `{lint}` failed to catch the seeded violation"));
                }
            }
            None => {
                let findings = lints::run(&ws, None).unwrap_or_default();
                for f in findings {
                    failures.push(format!("{dir}: unexpected finding on clean fixture: {f}"));
                }
            }
        }
    }
    failures
}
