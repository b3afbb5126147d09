//! Read-path isolation over the wire: `QueryView`, `Stats`, and the
//! `Hello` view listing are served from the hub's frozen read epoch, so
//! a wedged writer — a drain round sitting on the checked-out catalog —
//! cannot block them. Regression tests for the pre-epoch design where
//! every read paid a catalog checkout.

use client::Client;
use server::{Server, ServerConfig};
use std::time::{Duration, Instant};
use viewsrv::{HubConfig, HubFailpoint, UpdateBatch, ViewCatalog};
use xmlstore::Store;

fn bib_cfg() -> datagen::BibConfig {
    datagen::BibConfig { books: 20, years: 5, priced_ratio: 0.8, extra_entries: 2, seed: 23 }
}

const Y1900: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1900"
  return <hit>{$b/title}</hit>
}</result>"#;

fn fresh_catalog(cfg: &datagen::BibConfig) -> ViewCatalog {
    let mut s = Store::new();
    s.load_doc("bib.xml", &datagen::bib_xml(cfg)).unwrap();
    let mut cat = ViewCatalog::new(s);
    cat.register("y1900", Y1900).unwrap();
    cat
}

fn connect(srv: &Server, name: &str) -> Client {
    Client::connect_with_retry(&srv.local_addr().to_string(), name, 20, Duration::from_millis(25))
        .unwrap()
}

/// The wedged-writer regression: the first drain round stalls for 3 s
/// with the catalog checked out (the `HubFailpoint::StallMs` failpoint —
/// a checkpoint or apply wedge). On the old design `Stats`, `QueryView`,
/// and `Hello` all blocked behind that checkout; on the epoch path they
/// must answer from the last published snapshot in well under the stall.
#[test]
fn wedged_writer_does_not_block_reads() {
    const STALL_MS: u64 = 3_000;
    let cfg = bib_cfg();
    let oracle_bytes = fresh_catalog(&cfg).extent_bytes("y1900").unwrap();

    let hub = fresh_catalog(&cfg).into_hub(HubConfig {
        failpoint: Some(HubFailpoint::StallMs(STALL_MS)),
        // Drain immediately so the committer's round (and the stall)
        // starts as soon as the batch lands.
        window_ms: 0,
        ..HubConfig::default()
    });
    let srv = Server::start(
        ServerConfig::default(),
        hub,
        std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
    )
    .unwrap();

    // Writer connection: the commit drives the stalled round and blocks
    // for the full wedge.
    let addr = srv.local_addr().to_string();
    let batch =
        UpdateBatch::from_script(&datagen::insert_books_script(&cfg, cfg.books, 2, Some(1900)))
            .unwrap();
    let writer = std::thread::spawn(move || {
        let mut w = Client::connect_with_retry(&addr, "writer", 20, Duration::from_millis(25))
            .expect("writer connects");
        w.submit(&batch).expect("submit");
        let started = Instant::now();
        w.commit().expect("commit lands after the stall");
        started.elapsed()
    });

    // Give the writer time to submit and wedge the round.
    std::thread::sleep(Duration::from_millis(500));

    // Reader connection: handshake + stats + extent, all while the
    // catalog is checked out by the wedged round.
    let read_start = Instant::now();
    let mut r = connect(&srv, "reader");
    assert_eq!(r.views(), ["y1900".to_string()], "hello view list served from the epoch");
    let stats = r.stats().unwrap();
    assert!(stats.epoch >= 1, "stats carry the epoch stamp");
    let (bytes, epoch, watermark) = r.query_view_stamped("y1900").unwrap();
    let read_elapsed = read_start.elapsed();
    assert!(
        read_elapsed < Duration::from_millis(STALL_MS / 2),
        "reads blocked behind the wedged writer: {read_elapsed:?}"
    );
    // The wedge fired before the batch applied, so reads still see the
    // pre-commit epoch — frozen, consistent, byte-identical to the
    // identically-built in-process catalog.
    assert_eq!(bytes, oracle_bytes, "epoch read diverged from the pre-commit oracle");
    assert_eq!(watermark, stats.epoch_watermark);
    assert!(epoch >= 1);

    // The writer eventually lands, having actually been wedged.
    let commit_elapsed = writer.join().expect("writer thread");
    assert!(
        commit_elapsed >= Duration::from_millis(STALL_MS / 2),
        "stall failpoint never engaged ({commit_elapsed:?}) — this test is vacuous"
    );

    // After the round completes, a fresh read observes the new epoch.
    let (after, epoch_after, watermark_after) = r.query_view_stamped("y1900").unwrap();
    assert!(epoch_after > epoch, "commit must publish a fresh epoch");
    assert!(watermark_after > watermark, "watermark must advance with the applied batch");
    assert_ne!(after, bytes, "the insert batch changes the y1900 extent");
}

/// Epoch stamps round-trip the wire and advance monotonically with
/// commits; two stamped reads from the same epoch are byte-identical.
#[test]
fn extent_stamps_advance_with_commits() {
    let cfg = bib_cfg();
    let srv = Server::start_volatile(fresh_catalog(&cfg), ServerConfig::default()).unwrap();
    let mut c = connect(&srv, "stamps");

    let (b1, e1, w1) = c.query_view_stamped("y1900").unwrap();
    let (b2, e2, _) = c.query_view_stamped("y1900").unwrap();
    if e1 == e2 {
        assert_eq!(b1, b2, "same epoch must serve identical bytes");
    }

    let batch =
        UpdateBatch::from_script(&datagen::insert_books_script(&cfg, cfg.books, 1, Some(1900)))
            .unwrap();
    c.submit(&batch).unwrap();
    c.commit().unwrap();

    let (_, e3, w3) = c.query_view_stamped("y1900").unwrap();
    assert!(e3 > e1, "epoch sequence regressed across a commit: {e1} -> {e3}");
    assert!(w3 > w1, "watermark regressed across a commit: {w1} -> {w3}");

    let stats = c.stats().unwrap();
    assert_eq!(stats.epoch, e3, "stats and query must agree on the current epoch");
    assert_eq!(stats.epoch_watermark, w3);
    assert_eq!(stats.batches, w3, "watermark is the applied-batch count");
}
