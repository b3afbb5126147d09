//! xqcheck — project-invariant lints for the xqview workspace.
//!
//! The general-purpose toolchain (rustc, clippy) enforces language
//! invariants; this crate enforces *project* invariants — rules that
//! only hold because of how this codebase is built:
//!
//! - **safety-comment** — every `unsafe` block/impl/fn carries a
//!   `// SAFETY:` comment stating the invariant it relies on.
//! - **no-panic** — no `unwrap()`/`expect()`/`panic!` in non-test code
//!   of the network-facing crates (`proto`, `server`, `client`): a
//!   malformed frame must close one connection, not the process.
//! - **atomics-audit** — every `Ordering::{Relaxed,…,SeqCst}` site is
//!   listed in the checked-in [`ATOMICS.md`](../../ATOMICS.md) audit
//!   table with its role and pairing, and the table has no stale rows.
//! - **metrics-schema** — every `obs` metric name used in source
//!   appears in `ci/obs-schema.txt` and vice versa, so the CI smoke
//!   assertions and the code cannot drift.
//!
//! Suppression is explicit and justified:
//! `// xqcheck: allow(lint-name) — reason`. The crate is dependency-free
//! (hand-rolled lexer, no `syn`) so it builds instantly and can run as
//! an ordinary workspace test.

pub mod lexer;
pub mod lints;
pub mod selftest;
pub mod source;

pub use lints::{run, Finding, LINTS};
pub use source::Workspace;

use std::path::Path;

/// Load the workspace at `root` and run the named lint (or all lints).
/// Convenience wrapper used by the binary and the tree test.
pub fn check(root: &Path, which: Option<&str>) -> Result<Vec<Finding>, String> {
    let ws = Workspace::load(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    run(&ws, which)
}
