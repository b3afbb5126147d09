//! `fig_checkpoint` — producer commit latency while checkpoints rotate:
//! background (seal + detached snapshot job) vs stop-the-world (an
//! explicit synchronous `snapshot()` after every commit: inline encode +
//! fsync), at a representative store size. The full store-size
//! sweep (and the `BENCH_checkpoint.json` series) lives in the `figures`
//! binary; this target gives the statistical min/median points.
//!
//! ```sh
//! cargo bench -p vpa-bench --bench fig_checkpoint
//! ```

use vpa_bench::{harness, measure_checkpoint};

fn main() {
    let books = 800;
    let n_views = 6;
    let dir = std::env::temp_dir().join(format!("xqview-bench-ckpt-{}", std::process::id()));
    for (label, stop_the_world) in [("background", false), ("stop-the-world", true)] {
        harness::bench(&format!("during-rotation p99 commit, {label}"), 3, || {
            measure_checkpoint(books, n_views, stop_the_world, &dir).during_p99
        });
    }
    harness::bench("steady-state p99 commit (no rotation)", 3, || {
        measure_checkpoint(books, n_views, false, &dir).steady_p99
    });
    let _ = std::fs::remove_dir_all(&dir);
}
