//! Golden bytes for every format the `wire` codec writes: the network
//! frames (`Request`/`Response`), the WAL record payload (`UpdateBatch`,
//! the seal), the expression AST an update carries, and the snapshot and
//! log files of a durable catalog directory.
//!
//! The checked-in `tests/golden/wire.txt` pins those bytes. Messages are
//! stored as hex, one per line (`<name> <hex>`); the files of the catalog
//! directory as `<name> len=<bytes> crc32=<hex>`, using the same CRC-32 as
//! [`wire::frame`]. A codec refactor must leave this file untouched — any
//! difference is a format change, which breaks existing logs, snapshots
//! and peers.
//!
//! On a mismatch the test writes the fresh dump next to the build output
//! and names its path. After a *deliberate* format change (which also
//! needs a frame-version or protocol-version bump), copy that dump over
//! the golden file and commit the diff.

use proto::{
    CommitReceipt, ErrorKind, HistogramSummary, Request, Response, ServerStats, WireErr,
    PROTOCOL_VERSION,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use viewsrv::{DurableCatalog, HubConfig, HubInner, InsertPosition, RotatePolicy};
use wire::{Decode, Encode, SealRecord, SegmentRecord, WireError};
use xquery_lang::{CmpOp, Expr, UpdateBatch, UpdateOp};

/// Decode `bytes` as `T`, then encode the value again.
type Reencode = fn(&[u8]) -> Result<Vec<u8>, WireError>;

fn reencode<T: Encode + Decode>(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    wire::from_slice::<T>(bytes).map(|v| wire::to_vec(&v))
}

/// One golden message: its name, its bytes, and its decoder.
struct Message {
    name: String,
    bytes: Vec<u8>,
    reencode: Reencode,
}

fn msg<T: Encode + Decode>(name: impl Into<String>, value: &T) -> Message {
    Message { name: name.into(), bytes: wire::to_vec(value), reencode: reencode::<T> }
}

const BIB: &str = r#"<bib>
    <book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last></author></book>
    <book year="2000"><title>Data on the Web</title></book>
    <book year="1994"><title>Advanced Unix</title></book>
</bib>"#;

const PRICES: &str = r#"<prices>
    <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
    <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
</prices>"#;

/// The paper's running example: grouped and ordered, with a constructed
/// attribute.
const GROUPED_VIEW: &str = r#"<result>{
  for $y in distinct-values(doc("bib.xml")/bib/book/@year)
  order by $y
  return <yGroup Y="{$y}">{
    for $b in doc("bib.xml")/bib/book
    where $y = $b/@year
    return $b/title
  }</yGroup>
}</result>"#;

const JOIN_VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  where $b/title = $e/b-title
  return <pair>{$b/title}{$e/price}</pair>
}</result>"#;

/// Every `Expr` production: FLWOR with for/let/where/order by (both
/// directions), distinct-values, all five aggregates, element and
/// attribute constructors (literal and computed), sequences, string and
/// numeric literals, descendant/attribute/text/wildcard steps, and
/// comparison and positional predicates.
const FULL_GRAMMAR: &str = r#"<result>{
  for $y in distinct-values(doc("bib.xml")/bib/book/@year), $p in doc("prices.xml")//entry[2]
  let $t := $p/b-title
  where $y = $p/price and $t != "X" and $y >= 1990
  order by $y descending, $t
  return <g Y="{$y}" kind="static">
    <n>{ count(for $b in doc("bib.xml")/bib/book[title = "T"] where $b/@year < $y return $b) }</n>
    <s>{ sum($p/price) }</s><a>{ avg($p/price) }</a>
    <lo>{ min(doc("bib.xml")/bib/*/@year) }</lo><hi>{ max($p/price/text()) }</hi>
    {"lit", 42}
  </g>
}</result>"#;

fn mixed_batch() -> UpdateBatch {
    let built = [
        UpdateOp::insert(
            "bib.xml",
            "/bib",
            InsertPosition::Into,
            r#"<book year="2001"><title>New</title></book>"#,
        )
        .unwrap(),
        UpdateOp::insert(
            "bib.xml",
            "/bib/book[1]",
            InsertPosition::Before,
            r#"<book year="1990"><title>Early</title></book>"#,
        )
        .unwrap(),
        UpdateOp::delete("bib.xml", "/bib/book[2]").unwrap(),
        UpdateOp::replace_text("prices.xml", "/prices/entry", "price/text()", "9.99")
            .unwrap()
            .filter("b-title", CmpOp::Eq, "Data on the Web")
            .unwrap(),
    ];
    let parsed = UpdateBatch::from_script(
        r#"for $b in document("bib.xml")//book
           where $b/@year = "1994" and $b/title = "Advanced Unix"
           update $b insert <note>n</note> after $b ;
           for $b in doc("bib.xml")/bib/book update $b delete $b/author"#,
    )
    .unwrap();
    built.into_iter().chain(parsed.ops().iter().cloned()).collect()
}

fn all_error_kinds() -> Vec<(&'static str, ErrorKind)> {
    vec![
        ("queue_full", ErrorKind::QueueFull { capacity: 64 }),
        ("hub_closed", ErrorKind::HubClosed),
        ("unknown_view", ErrorKind::UnknownView { name: "nope".into() }),
        ("duplicate_view", ErrorKind::DuplicateView { name: "grouped".into() }),
        ("catalog", ErrorKind::Catalog),
        ("journal", ErrorKind::Journal),
        ("frame", ErrorKind::Frame),
        ("protocol", ErrorKind::Protocol),
        ("connection_limit", ErrorKind::ConnectionLimit { max: 1 << 20 }),
        ("shutting_down", ErrorKind::ShuttingDown),
    ]
}

fn requests() -> Vec<Message> {
    let req = |name: &str, r: Request| msg(format!("request/{name}"), &r);
    vec![
        req("hello", Request::Hello { client: "golden".into(), protocol: PROTOCOL_VERSION }),
        req("hello_max", Request::Hello { client: String::new(), protocol: u32::MAX }),
        req(
            "register_view",
            Request::RegisterView { name: "grouped".into(), query: GROUPED_VIEW.into() },
        ),
        req("drop_view", Request::DropView { name: "grouped".into() }),
        req("submit", Request::Submit(mixed_batch())),
        req("submit_empty", Request::Submit(UpdateBatch::new())),
        req("flush", Request::Flush),
        req("commit", Request::Commit),
        req("query_view", Request::QueryView { name: "join".into() }),
        req("stats", Request::Stats),
        req("metrics_dump", Request::MetricsDump),
        req("shutdown", Request::Shutdown),
    ]
}

fn responses(extent: Vec<u8>) -> Vec<Message> {
    let resp = |name: &str, r: Response| msg(format!("response/{name}"), &r);
    let mut out = vec![
        resp(
            "hello_ok",
            Response::HelloOk {
                server: "xqview-server".into(),
                protocol: PROTOCOL_VERSION,
                views: vec!["grouped".into(), "join".into()],
            },
        ),
        resp("registered", Response::Registered { name: "grouped".into() }),
        resp("dropped", Response::Dropped { name: "join".into() }),
        resp("submitted", Response::Submitted { queued_batches: 3, queued_ops: 300 }),
        resp("flushed", Response::Flushed { chunks_applied: 2 }),
        resp(
            "committed",
            Response::Committed(CommitReceipt {
                batches_submitted: 4,
                batches_applied: 2,
                ops: 6,
                resolved: 9,
                views_touched: vec!["grouped".into(), "join".into()],
                validate_ns: 12_345,
                propagate_ns: 678_901,
                apply_ns: u64::MAX,
            }),
        ),
        resp(
            "extent",
            Response::Extent { name: "grouped".into(), bytes: extent, epoch: 7, watermark: 11 },
        ),
        resp(
            "stats",
            Response::Stats(ServerStats {
                views: vec!["grouped".into(), "join".into()],
                docs: vec!["bib.xml".into(), "prices.xml".into()],
                batches: 10,
                updates_seen: 20,
                views_routed: 15,
                views_skipped: 5,
                generation: 3,
                wal_records: 4,
                wal_bytes: 4096,
                connections_accepted: 9,
                connections_active: -1,
                requests: 100,
                frame_errors: 2,
                epoch: 8,
                epoch_watermark: 10,
                epoch_age_us: 250,
                request_latency: vec![
                    HistogramSummary {
                        name: "net/req/commit".into(),
                        count: 4,
                        p50_ns: 3 << 20,
                        p90_ns: 3 << 21,
                        p99_ns: 3 << 22,
                        max_ns: 40_000_000,
                    },
                    HistogramSummary { name: "net/req/stats".into(), ..Default::default() },
                ],
            }),
        ),
        resp("metrics", Response::Metrics { json: r#"{"counters":{"a":1}}"#.into() }),
        resp("shutting_down", Response::ShuttingDown),
    ];
    for (name, kind) in all_error_kinds() {
        let err = WireErr::new(kind).detail(format!("detail for {name}"));
        out.push(resp(&format!("error/{name}"), Response::Error(err)));
    }
    out
}

fn other_messages() -> Vec<Message> {
    let seal = SealRecord { sealed_gen: 300, next_gen: 301, records: 1024, bytes: 16 << 20 };
    vec![
        msg("expr/full_grammar", &xquery_lang::parse_query(FULL_GRAMMAR).unwrap()),
        msg("expr/grouped_view", &xquery_lang::parse_query(GROUPED_VIEW).unwrap()),
        msg("batch/mixed", &mixed_batch()),
        msg("segment/payload", &SegmentRecord::Payload(mixed_batch())),
        msg("segment/seal", &SegmentRecord::<UpdateBatch>::Seal(seal)),
    ]
}

/// A fresh directory per call: the tests of this file run in parallel.
fn temp_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xqview-wire-golden-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Commit each batch through its own hub round, then hand the catalog
/// back. The window outlasts the test, so `commit()` alone decides the
/// coalescing.
fn hub_commits(cat: DurableCatalog, scripts: &[&str]) -> DurableCatalog {
    let hub = cat.into_hub(HubConfig { window_ms: 600_000, ..HubConfig::default() });
    let h = hub.handle();
    for script in scripts {
        h.try_submit_script(script).unwrap();
        let receipt = h.commit().unwrap();
        assert_eq!(receipt.batches_applied, 1);
    }
    drop(h);
    match hub.shutdown() {
        HubInner::Durable(cat) => cat,
        HubInner::Volatile(_) => unreachable!("a durable hub hands back its durable catalog"),
    }
}

/// The fixed durable workload: load, register, hub commits, a
/// stop-the-world `snapshot()`, more hub commits, a sealing background
/// `checkpoint()`, and a final direct commit. Returns every file of the
/// catalog directory (sorted by name) and one view's extent bytes.
fn durable_files() -> (Vec<(String, Vec<u8>)>, Vec<u8>) {
    let dir = temp_dir();
    let mut cat = DurableCatalog::open(&dir).unwrap();
    cat.set_rotate_policy(RotatePolicy::disabled());
    cat.load_doc("bib.xml", BIB).unwrap();
    cat.load_doc("prices.xml", PRICES).unwrap();
    cat.register("grouped", GROUPED_VIEW).unwrap();
    cat.register("join", JOIN_VIEW).unwrap();
    let mut cat = hub_commits(
        cat,
        &[
            r#"for $r in document("bib.xml")/bib update $r
               insert <book year="1994"><title>Unlisted Volume</title></book> into $r"#,
            r#"for $r in document("prices.xml")/prices update $r
               insert <entry><price>12.50</price><b-title>Advanced Unix</b-title></entry> into $r"#,
        ],
    );
    cat.snapshot().unwrap();
    let mut cat = hub_commits(
        cat,
        &[
            r#"for $e in document("prices.xml")/prices/entry
               where $e/b-title = "TCP/IP Illustrated"
               update $e replace $e/price/text() with "70.00""#,
            r#"for $b in document("bib.xml")/bib/book
               where $b/title = "Data on the Web"
               update $b delete $b"#,
        ],
    );
    cat.checkpoint().unwrap();
    cat.settle_checkpoint();
    assert_eq!(cat.last_checkpoint_error(), None);
    let _ = cat.apply_batch(&mixed_batch()).unwrap();
    cat.verify_all().unwrap();
    let extent = cat.extent_bytes("grouped").unwrap();
    drop(cat);

    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    // The directory must reopen to the same state it was dumped in.
    let reopened = DurableCatalog::open(&dir).unwrap();
    assert_eq!(reopened.extent_bytes("grouped").unwrap(), extent);
    reopened.verify_all().unwrap();
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
    (files, extent)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The messages (with their decoders) and the golden dump text.
fn corpus() -> (Vec<Message>, String) {
    let (files, extent) = durable_files();
    let mut messages = requests();
    messages.extend(responses(extent));
    messages.extend(other_messages());
    let mut dump = String::new();
    for m in &messages {
        dump.push_str(&format!("{} {}\n", m.name, hex(&m.bytes)));
    }
    for (name, bytes) in &files {
        let crc = wire::frame::crc32(bytes);
        dump.push_str(&format!("file/{name} len={} crc32={crc:08x}\n", bytes.len()));
    }
    (messages, dump)
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join("wire.txt")
}

#[test]
fn encodings_match_the_golden_file() {
    let (_, dump) = corpus();
    let golden = std::fs::read_to_string(golden_path()).unwrap();
    if dump != golden {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire.txt");
        std::fs::write(&fresh, &dump).unwrap();
        let want: Vec<&str> = golden.lines().collect();
        let got: Vec<&str> = dump.lines().collect();
        let line = (0..want.len().max(got.len()))
            .find(|&i| want.get(i) != got.get(i))
            .unwrap_or(want.len());
        panic!(
            "wire encodings differ from {} at line {}:\n  golden: {:?}\n  now:    {:?}\n\
             fresh dump written to {}",
            golden_path().display(),
            line + 1,
            want.get(line),
            got.get(line),
            fresh.display()
        );
    }
}

#[test]
fn every_message_decodes_and_reencodes_identically() {
    let (messages, _) = corpus();
    for m in &messages {
        let back = (m.reencode)(&m.bytes).unwrap_or_else(|e| panic!("{}: {e}", m.name));
        assert_eq!(back, m.bytes, "{} re-encodes differently", m.name);
    }
}

#[test]
fn error_kinds_cover_every_variant() {
    // A new ErrorKind must get a golden line: this match stops compiling
    // until the variant is listed here and in `all_error_kinds`.
    let covered = |k: &ErrorKind| match k {
        ErrorKind::QueueFull { .. }
        | ErrorKind::HubClosed
        | ErrorKind::UnknownView { .. }
        | ErrorKind::DuplicateView { .. }
        | ErrorKind::Catalog
        | ErrorKind::Journal
        | ErrorKind::Frame
        | ErrorKind::Protocol
        | ErrorKind::ConnectionLimit { .. }
        | ErrorKind::ShuttingDown => true,
    };
    let kinds = all_error_kinds();
    assert!(kinds.iter().all(|(_, k)| covered(k)));
    assert_eq!(kinds.len(), 10);
}

#[test]
fn full_grammar_expr_reaches_every_production() {
    let dbg = format!("{:?}", xquery_lang::parse_query(FULL_GRAMMAR).unwrap());
    for needle in [
        "Flwor",
        "lets: [(",
        "order_by: [OrderSpec",
        "descending: true",
        "DistinctValues",
        "Count",
        "Sum",
        "Avg",
        "Min",
        "Max",
        "Elem",
        "Expr(Var(\"y\"))",
        "Literal(\"static\")",
        "Seq",
        "Number",
        "Descendant",
        "Attr(",
        "Text",
        "Wildcard",
        "Position(2)",
        "Cmp {",
        "And(",
    ] {
        assert!(dbg.contains(needle), "full-grammar query lacks {needle}: {dbg}");
    }
    // Constructors carry attribute expressions; `Expr` itself is tagged.
    assert!(matches!(xquery_lang::parse_query(FULL_GRAMMAR).unwrap(), Expr::Elem(_)));
}
